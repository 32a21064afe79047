//! A CLI session: a durable ForkBase database rooted in a directory.
//!
//! Layout:
//!
//! ```text
//! <root>/chunks/MANIFEST    — chunk-store segment list (atomic swap)
//! <root>/chunks/pack-*.fbk  — the chunk store (append-only pack files)
//! <root>/refs               — branch heads (the only mutable file)
//! <root>/FORKS              — fork-sandbox registry (leases resume on reopen)
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use forkbase::{DbError, DbResult, ForkBase, ForkService};
use forkbase_store::FileStore;

/// A database bound to an on-disk directory.
pub struct Session {
    db: Arc<ForkBase<FileStore>>,
    forks: Arc<ForkService>,
    refs_path: PathBuf,
    forks_path: PathBuf,
}

impl Session {
    /// Open (or initialize) a database under `root`.
    pub fn open(root: impl AsRef<Path>) -> DbResult<Session> {
        let root = root.as_ref();
        let store = FileStore::open(root.join("chunks"))?;
        let db = Arc::new(ForkBase::new(store));
        let refs_path = root.join("refs");
        if let Some(text) = read_if_present(&refs_path)? {
            db.load_refs(&text)?;
        }
        // Resume fork leases from the FORKS record. Leases are absolute
        // unix seconds, so a fork created before a restart keeps exactly
        // the expiry it was promised.
        let forks = Arc::new(ForkService::new());
        let forks_path = root.join("FORKS");
        if let Some(text) = read_if_present(&forks_path)? {
            forks.load(&text)?;
        }
        Ok(Session {
            db,
            forks,
            refs_path,
            forks_path,
        })
    }

    /// The database handle.
    pub fn db(&self) -> &ForkBase<FileStore> {
        &self.db
    }

    /// Shared handle for long-running services (REST server).
    pub fn db_arc(&self) -> Arc<ForkBase<FileStore>> {
        Arc::clone(&self.db)
    }

    /// The fork-sandbox registry this session persists.
    pub fn forks(&self) -> &ForkService {
        &self.forks
    }

    /// Shared handle to the fork registry (what the REST server holds).
    pub fn forks_arc(&self) -> Arc<ForkService> {
        Arc::clone(&self.forks)
    }

    /// Persist branch heads and the fork registry durably, flushing the
    /// chunk store first.
    pub fn save(&self) -> DbResult<()> {
        write_durable(&self.refs_path, &synced_refs(&self.db)?)?;
        write_durable(&self.forks_path, &self.forks.dump())
    }
}

/// Flush `db`'s chunk store, then dump its branch heads: the contents of
/// a `refs` file that never names a chunk the disk lacks.
pub(crate) fn synced_refs(db: &ForkBase<FileStore>) -> DbResult<String> {
    forkbase_store::ChunkStore::sync(db.store())?;
    Ok(db.dump_refs())
}

pub(crate) fn io_err(e: std::io::Error) -> DbError {
    DbError::Store(forkbase_store::StoreError::Io(e))
}

/// The contents of the record at `path`, `None` when there is none.
pub(crate) fn read_if_present(path: &Path) -> DbResult<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(e)),
    }
}

/// Durably replace `path` with `contents`: write a tmp file, fsync it,
/// atomically rename it into place, then fsync the parent directory —
/// the same protocol the chunk store uses for its MANIFEST. Every record
/// the CLI persists (refs, `FORKS`, `TOPOLOGY`, the replica marker) goes
/// through here, so a crash leaves either the old file or the new one.
pub(crate) fn write_durable(path: &Path, contents: &str) -> DbResult<()> {
    let tmp = path.with_extension("tmp");
    (|| -> std::io::Result<()> {
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, contents.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })()
    .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase::{PutOptions, VersionSpec};
    use forkbase_types::Value;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forkbase-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn state_survives_reopen() {
        let root = temp_root("reopen");
        {
            let s = Session::open(&root).unwrap();
            s.db()
                .put("doc", Value::string("persisted"), &PutOptions::default())
                .unwrap();
            s.db().branch("doc", "master", "dev").unwrap();
            s.save().unwrap();
        }
        let s = Session::open(&root).unwrap();
        assert_eq!(
            s.db().get("doc", "master").unwrap().value.as_str(),
            Some("persisted")
        );
        assert_eq!(s.db().list_branches("doc").unwrap().len(), 2);
        // History intact and verifiable after restart.
        s.db().verify_branch("doc", "master").unwrap();
        let h = s
            .db()
            .history("doc", &VersionSpec::branch("master"))
            .unwrap();
        assert_eq!(h.len(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn logical_clock_advances_after_reload() {
        let root = temp_root("clock");
        let first_time;
        {
            let s = Session::open(&root).unwrap();
            let c = s
                .db()
                .put("k", Value::Int(1), &PutOptions::default())
                .unwrap();
            first_time = s.db().meta(&c.uid).unwrap().logical_time;
            s.save().unwrap();
        }
        let s = Session::open(&root).unwrap();
        let c2 = s
            .db()
            .put("k", Value::Int(2), &PutOptions::default())
            .unwrap();
        assert!(s.db().meta(&c2.uid).unwrap().logical_time > first_time);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fork_leases_survive_reopen() {
        let root = temp_root("forks");
        let fork_id;
        {
            let s = Session::open(&root).unwrap();
            s.db()
                .put("doc", Value::string("base"), &PutOptions::default())
                .unwrap();
            let info = s
                .forks()
                .create(VersionSpec::branch("master"), Some(3600), None)
                .unwrap();
            fork_id = info.id.clone();
            s.forks()
                .put(
                    s.db(),
                    &fork_id,
                    "doc",
                    Value::string("forked"),
                    &PutOptions::default(),
                )
                .unwrap();
            s.save().unwrap();
        }
        let s = Session::open(&root).unwrap();
        // The lease, the pinned base, and the touched-key set all resume.
        let info = s.forks().info(&fork_id).unwrap();
        assert_eq!(info.writes, 1);
        assert_eq!(info.touched.len(), 1);
        let got = s.forks().get(s.db(), &fork_id, "doc").unwrap();
        assert_eq!(got.value.as_str(), Some("forked"));
        let diff = s.forks().diff(s.db(), &fork_id).unwrap();
        assert_eq!(diff.changed_keys(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_refs_rejected() {
        let root = temp_root("badrefs");
        {
            let s = Session::open(&root).unwrap();
            s.db()
                .put("k", Value::Int(1), &PutOptions::default())
                .unwrap();
            s.save().unwrap();
        }
        // Point the ref at a nonexistent uid.
        let refs = root.join("refs");
        std::fs::write(&refs, format!("k\tmaster\t{}\n", "ab".repeat(32))).unwrap();
        assert!(Session::open(&root).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
