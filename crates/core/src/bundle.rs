//! Portable branch bundles — `git bundle` for data.
//!
//! A bundle is a self-contained byte stream holding every chunk reachable
//! from selected branch heads (`walk.rs`, in walk order) plus the head
//! refs themselves. Because all chunks are content-addressed, import is
//! *verifying by construction*: each chunk is re-hashed on the way in,
//! then each key's history is walked once from all of its refs, checked
//! as [`ForkBase::verify_branch`] checks a branch: **every** version must
//! be of the ref's key and its value trees must verify. A tampered bundle,
//! or one whose history crosses keys, cannot be imported.
//!
//! Format:
//!
//! ```text
//! magic "FKBBNDL1"
//! u32 ref_count     { u32 key_len, key, u32 branch_len, branch, 32B uid }*
//! u32 chunk_count   { 32B hash, u32 len, payload }*
//! ```

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};
use forkbase_store::ChunkStore;

use crate::api::{batch::BranchAt, WriteBatch};
use crate::db::ForkBase;
use crate::error::{DbError, DbResult};
use crate::walk;

const MAGIC: &[u8; 8] = b"FKBBNDL1";

/// One exported branch head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundleRef {
    /// Object key.
    pub key: String,
    /// Branch name.
    pub branch: String,
    /// Head uid.
    pub uid: Hash,
}

fn io_err(e: std::io::Error) -> DbError {
    DbError::Store(forkbase_store::StoreError::Io(e))
}

/// The next `N` bytes of a bundle.
fn read_array<const N: usize>(input: &mut dyn Read) -> DbResult<[u8; N]> {
    let mut b = [0u8; N];
    input.read_exact(&mut b).map_err(io_err)?;
    Ok(b)
}

/// A `u32`-length-prefixed field of at most `max` bytes.
fn read_field(input: &mut dyn Read, max: usize, what: &str) -> DbResult<Vec<u8>> {
    let len = u32::from_le_bytes(read_array(input)?) as usize;
    if len > max {
        return Err(DbError::InvalidInput(format!("implausible {what} length")));
    }
    let mut b = vec![0u8; len];
    input.read_exact(&mut b).map_err(io_err)?;
    Ok(b)
}

/// Export `branches` of `key` (or every branch if `branches` is empty)
/// into `out`. Returns the number of chunks written.
pub fn export_bundle<S: ChunkStore>(
    db: &ForkBase<S>,
    key: &str,
    branches: &[&str],
    out: &mut dyn Write,
) -> DbResult<u64> {
    let mut selected = branch_refs(db, key)?;
    selected.retain(|r| branches.is_empty() || branches.contains(&r.branch.as_str()));
    if selected.is_empty() {
        return Err(DbError::InvalidInput(format!(
            "no matching branches on {key:?}"
        )));
    }
    export_refs(db, selected, out)
}

/// Export **every branch of every listed key** into one bundle. This is
/// the unit of cluster rebalance: all keys moving from one servelet to
/// another travel as a single bundle, so their chunks are written (and
/// later installed) once even when histories share content. Returns the
/// number of chunks written.
pub fn export_bundle_keys<S: ChunkStore>(
    db: &ForkBase<S>,
    keys: &[String],
    out: &mut dyn Write,
) -> DbResult<u64> {
    let mut selected = Vec::new();
    for key in keys {
        selected.extend(branch_refs(db, key)?);
    }
    if selected.is_empty() {
        return Err(DbError::InvalidInput(
            "no branches on any of the selected keys".into(),
        ));
    }
    export_refs(db, selected, out)
}

/// Every branch head of `key`, as bundle refs.
fn branch_refs<S: ChunkStore>(db: &ForkBase<S>, key: &str) -> DbResult<Vec<BundleRef>> {
    let refs = db.list_branches(key)?.into_iter().map(|b| BundleRef {
        key: key.to_string(),
        branch: b.name,
        uid: b.head,
    });
    Ok(refs.collect())
}

/// Shared bundle writer: walk everything reachable from `selected` heads
/// and stream refs + chunks in the `FKBBNDL1` format.
fn export_refs<S: ChunkStore>(
    db: &ForkBase<S>,
    selected: Vec<BundleRef>,
    out: &mut dyn Write,
) -> DbResult<u64> {
    let (mut order, mut seen) = (Vec::new(), HashSet::new());
    let heads = selected.iter().map(|r| r.uid);
    walk::versions(db.store(), heads, &mut seen, |uid, fnode, seen| {
        order.push(*uid);
        walk::pages(db.store(), &fnode.value, seen, |h| order.push(*h))?;
        Ok(None)
    })?;

    // The refs section is small: assemble it, then stream the chunks.
    let mut head = MAGIC.to_vec();
    head.extend_from_slice(&(selected.len() as u32).to_le_bytes());
    for r in &selected {
        for name in [&r.key, &r.branch] {
            head.extend_from_slice(&(name.len() as u32).to_le_bytes());
            head.extend_from_slice(name.as_bytes());
        }
        head.extend_from_slice(r.uid.as_bytes());
    }
    head.extend_from_slice(&(order.len() as u32).to_le_bytes());
    out.write_all(&head).map_err(io_err)?;
    for hash in &order {
        let bytes = db.store().get(hash)?.ok_or(DbError::NoSuchVersion(*hash))?;
        let len = (bytes.len() as u32).to_le_bytes();
        for part in [hash.as_bytes(), &len[..], &bytes] {
            out.write_all(part).map_err(io_err)?;
        }
    }
    Ok(order.len() as u64)
}

/// Import a bundle into `db`, creating/updating the contained branches.
/// Every chunk is hash-verified; every imported branch is fully verified
/// before its ref is installed. Returns the installed refs.
///
/// An existing branch whose head **differs** from the bundle's is refused
/// ([`DbError::BranchExists`]) — importing must never discard local work —
/// and then no ref of the bundle is installed. Replication wants the
/// opposite contract; see [`import_bundle_replace`].
pub fn import_bundle<S: ChunkStore>(
    db: &ForkBase<S>,
    input: &mut dyn Read,
) -> DbResult<Vec<BundleRef>> {
    import_with(db, input, |batch, key, refs| {
        for r in refs {
            batch.branch_at(key, &r.branch, BranchAt::Verified(r.uid));
        }
    })
}

/// Import a bundle with **replace** semantics: after the same chunk-hash
/// and history verification as [`import_bundle`], each key appearing in
/// the bundle has its branch set replaced to exactly match the bundle —
/// existing heads are overwritten and local branches of those keys that
/// the bundle lacks are dropped. Keys absent from the bundle are
/// untouched.
///
/// This is the replication apply path: a replica must mirror its
/// primary, so "local work" on a replica is by definition stale. Never
/// use this on a database whose branches are authoritative.
pub fn import_bundle_replace<S: ChunkStore>(
    db: &ForkBase<S>,
    input: &mut dyn Read,
) -> DbResult<Vec<BundleRef>> {
    import_with(db, input, |batch, key, refs| {
        batch.replace_key(
            key,
            refs.iter().map(|r| (r.branch.clone(), r.uid)).collect(),
        );
    })
}

/// The shared import: parse the stream, hash-verify and store every
/// chunk, verify each key's history once from all of its refs, then
/// `stage` each key's refs and commit them in one batch. Returns the
/// bundle's refs.
fn import_with<S: ChunkStore>(
    db: &ForkBase<S>,
    input: &mut dyn Read,
    mut stage: impl FnMut(&mut WriteBatch<'_, S>, &str, &[&BundleRef]),
) -> DbResult<Vec<BundleRef>> {
    // Hold the GC gate across the whole write-verify-commit sequence: the
    // imported chunks are unreachable from any branch head until the refs
    // are committed, so a concurrent gc::collect in between would sweep
    // them and publish a branch with unreadable history. The commit takes
    // this hold instead of the (non-re-entrant) gate.
    let gc = db.gc_gate.read();
    if &read_array::<8>(input)? != MAGIC {
        return Err(DbError::InvalidInput("not a ForkBase bundle".into()));
    }
    let read_u32 = |input: &mut dyn Read| read_array(input).map(u32::from_le_bytes);
    let read_hash = |input: &mut dyn Read| read_array(input).map(Hash::from_bytes);
    let read_string = |input: &mut dyn Read| {
        String::from_utf8(read_field(input, 1 << 20, "string")?)
            .map_err(|_| DbError::InvalidInput("non-UTF-8 name".into()))
    };

    let ref_count = read_u32(input)? as usize;
    if ref_count == 0 || ref_count > 1 << 16 {
        return Err(DbError::InvalidInput("implausible ref count".into()));
    }
    let mut refs = Vec::with_capacity(ref_count);
    for _ in 0..ref_count {
        let key = read_string(input)?;
        let branch = read_string(input)?;
        let uid = read_hash(input)?;
        refs.push(BundleRef { key, branch, uid });
    }

    // Chunks are staged and installed via `put_batch` so the store's group
    // commit amortizes locking and fsync (one fsync per batch on
    // FileStore instead of one per chunk).
    const IMPORT_BATCH: usize = 256;
    let chunk_count = read_u32(input)? as usize;
    let mut staged: Vec<(forkbase_crypto::Hash, Bytes)> = Vec::new();
    for _ in 0..chunk_count {
        let hash = read_hash(input)?;
        let payload = read_field(input, 1 << 28, "chunk")?;
        // Hash verification on the way in: tampered bundles die here.
        let actual = sha256(&payload);
        if actual != hash {
            return Err(DbError::TamperDetected(format!(
                "bundle chunk claims {hash:?} but hashes to {actual:?}"
            )));
        }
        staged.push((hash, Bytes::from(payload)));
        if staged.len() >= IMPORT_BATCH {
            db.store().put_batch(std::mem::take(&mut staged))?;
        }
    }
    if !staged.is_empty() {
        db.store().put_batch(staged)?;
    }

    // Commit refs only after their full histories verify, each key's
    // history walked once from all of its refs. Track the highest logical
    // time seen so the destination's clock can be advanced past every
    // imported commit (like `load_refs`) before the commit publishes
    // them: a put that lands on an imported head right after the commit
    // must never be stamped earlier than its own history.
    let mut by_key: BTreeMap<&str, Vec<&BundleRef>> = BTreeMap::new();
    for r in &refs {
        by_key.entry(&r.key).or_default().push(r);
    }
    let (mut batch, mut max_time) = (db.write_batch(), 0u64);
    for (key, refs) in by_key {
        max_time = max_time.max(db.verify_history(key, refs.iter().map(|r| r.uid))?.1);
        ForkBase::<S>::validate_name("key", key)?;
        for r in &refs {
            ForkBase::<S>::validate_name("branch", &r.branch)?;
        }
        stage(&mut batch, key, &refs);
    }
    db.bump_clock_past(max_time);
    batch.commit_gated(&gc)?;
    Ok(refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{PutOptions, VersionSpec};
    use forkbase_postree::TreeConfig;
    use forkbase_store::MemStore;
    use forkbase_types::Value;

    fn db() -> ForkBase<MemStore> {
        ForkBase::with_config(MemStore::new(), TreeConfig::test_config())
    }

    fn seeded() -> ForkBase<MemStore> {
        let d = db();
        let pairs: Vec<(Bytes, Bytes)> = (0..300)
            .map(|i| {
                (
                    Bytes::from(format!("k{i:04}")),
                    Bytes::from(format!("v{i}")),
                )
            })
            .collect();
        let map = d.new_map(pairs).unwrap();
        d.put("data", map, &PutOptions::default().message("load"))
            .unwrap();
        d.branch("data", "master", "dev").unwrap();
        d.put(
            "data",
            Value::string("dev note"),
            &PutOptions::on_branch("dev").message("note"),
        )
        .unwrap();
        d
    }

    #[test]
    fn roundtrip_all_branches() {
        let src = seeded();
        let mut bundle = Vec::new();
        let chunks = export_bundle(&src, "data", &[], &mut bundle).unwrap();
        assert!(chunks > 5);

        let dst = db();
        let refs = import_bundle(&dst, &mut bundle.as_slice()).unwrap();
        assert_eq!(refs.len(), 2);
        assert_eq!(
            dst.head("data", "master").unwrap(),
            src.head("data", "master").unwrap()
        );
        assert_eq!(
            dst.get("data", "dev").unwrap().value.as_str(),
            Some("dev note")
        );
        // Imported history fully verifies and walks.
        dst.verify_branch("data", "master").unwrap();
        assert_eq!(
            dst.history("data", &VersionSpec::branch("dev"))
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn multi_key_bundle_roundtrip() {
        let src = db();
        for i in 0..5 {
            src.put(
                &format!("k{i}"),
                Value::string(format!("v{i}")),
                &PutOptions::default(),
            )
            .unwrap();
        }
        src.branch("k0", "master", "dev").unwrap();
        let keys: Vec<String> = (0..5).map(|i| format!("k{i}")).collect();
        let mut bundle = Vec::new();
        export_bundle_keys(&src, &keys, &mut bundle).unwrap();

        let dst = db();
        let refs = import_bundle(&dst, &mut bundle.as_slice()).unwrap();
        assert_eq!(refs.len(), 6, "5 masters + 1 dev");
        for i in 0..5 {
            let key = format!("k{i}");
            assert_eq!(
                dst.head(&key, "master").unwrap(),
                src.head(&key, "master").unwrap(),
                "uids must survive the move byte-identically"
            );
            dst.verify_branch(&key, "master").unwrap();
        }
        assert!(dst.head("k0", "dev").is_ok());
        // Unknown key in the selection is an error, empty selection too.
        assert!(export_bundle_keys(&src, &["ghost".to_string()], &mut Vec::new()).is_err());
        assert!(export_bundle_keys(&src, &[], &mut Vec::new()).is_err());
    }

    #[test]
    fn import_advances_logical_clock_past_history() {
        let src = db();
        // Push the source clock well ahead.
        for i in 0..20 {
            src.put("k", Value::Int(i), &PutOptions::default()).unwrap();
        }
        let head = src.head("k", "master").unwrap();
        let src_time = src.meta(&head).unwrap().logical_time;
        let mut bundle = Vec::new();
        export_bundle(&src, "k", &[], &mut bundle).unwrap();

        // Fresh destination: its clock starts at 1.
        let dst = db();
        import_bundle(&dst, &mut bundle.as_slice()).unwrap();
        // A commit made after the import must be stamped later than the
        // imported history, or history timestamps would run backwards.
        let c = dst
            .put("k", Value::Int(99), &PutOptions::default())
            .unwrap();
        assert!(
            dst.meta(&c.uid).unwrap().logical_time > src_time,
            "post-import commit stamped before imported history"
        );
    }

    #[test]
    fn single_branch_export_excludes_others() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &["master"], &mut bundle).unwrap();
        let dst = db();
        let refs = import_bundle(&dst, &mut bundle.as_slice()).unwrap();
        assert_eq!(refs.len(), 1);
        assert!(dst.head("data", "master").is_ok());
        assert!(dst.head("data", "dev").is_err());
    }

    #[test]
    fn tampered_bundle_rejected() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &[], &mut bundle).unwrap();
        // Flip one payload byte somewhere after the refs section.
        let mid = bundle.len() / 2;
        bundle[mid] ^= 0x01;
        let dst = db();
        let result = import_bundle(&dst, &mut bundle.as_slice());
        assert!(result.is_err(), "tampered bundle must not import");
        // And no branch must have been installed.
        assert!(dst.list_keys().is_empty());
    }

    #[test]
    fn truncated_bundle_rejected() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &[], &mut bundle).unwrap();
        bundle.truncate(bundle.len() - 10);
        let dst = db();
        assert!(import_bundle(&dst, &mut bundle.as_slice()).is_err());
    }

    #[test]
    fn import_refuses_to_clobber_diverged_branch() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &["master"], &mut bundle).unwrap();

        // Destination has its own diverged "data"@master.
        let dst = db();
        dst.put("data", Value::string("local work"), &PutOptions::default())
            .unwrap();
        assert!(matches!(
            import_bundle(&dst, &mut bundle.as_slice()),
            Err(DbError::BranchExists { .. })
        ));
    }

    #[test]
    fn import_refused_on_a_later_ref_installs_none() {
        let src = db();
        for key in ["a", "b"] {
            src.put(key, Value::string(key), &PutOptions::default())
                .unwrap();
        }
        let mut bundle = Vec::new();
        export_bundle_keys(&src, &["a".into(), "b".into()], &mut bundle).unwrap();

        // The second ref, b@master, conflicts with local work: the import
        // is one commit, so a@master is not installed either.
        let dst = db();
        dst.put("b", Value::string("local work"), &PutOptions::default())
            .unwrap();
        assert!(matches!(
            import_bundle(&dst, &mut bundle.as_slice()),
            Err(DbError::BranchExists { .. })
        ));
        assert_eq!(dst.list_keys(), ["b"]);
    }

    #[test]
    fn reimport_is_idempotent() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &[], &mut bundle).unwrap();
        let dst = db();
        import_bundle(&dst, &mut bundle.as_slice()).unwrap();
        let chunks = forkbase_store::ChunkStore::chunk_count(dst.store());
        // Second import: all dedup hits, same refs, no error.
        import_bundle(&dst, &mut bundle.as_slice()).unwrap();
        assert_eq!(forkbase_store::ChunkStore::chunk_count(dst.store()), chunks);
    }

    #[test]
    fn replace_import_overwrites_and_prunes_stale_branches() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &["master"], &mut bundle).unwrap();

        // The destination (a replica) has diverged local state on the
        // bundled key, plus an unrelated key.
        let dst = db();
        dst.put("data", Value::string("stale"), &PutOptions::default())
            .unwrap();
        dst.branch("data", "master", "old").unwrap();
        dst.put("other", Value::Int(1), &PutOptions::default())
            .unwrap();

        let refs = import_bundle_replace(&dst, &mut bundle.as_slice()).unwrap();
        assert_eq!(refs.len(), 1);
        assert_eq!(
            dst.head("data", "master").unwrap(),
            src.head("data", "master").unwrap(),
            "replace semantics: the primary's head wins"
        );
        assert!(
            dst.head("data", "old").is_err(),
            "branches absent from the bundle are pruned"
        );
        assert!(
            dst.head("other", "master").is_ok(),
            "keys absent from the bundle are untouched"
        );
        dst.verify_branch("data", "master").unwrap();
    }

    #[test]
    fn replace_import_is_idempotent_and_still_tamper_evident() {
        let src = seeded();
        let mut bundle = Vec::new();
        export_bundle(&src, "data", &[], &mut bundle).unwrap();
        let dst = db();
        import_bundle_replace(&dst, &mut bundle.as_slice()).unwrap();
        import_bundle_replace(&dst, &mut bundle.as_slice()).unwrap();
        assert_eq!(
            dst.head("data", "master").unwrap(),
            src.head("data", "master").unwrap()
        );
        // Replace semantics do not weaken tamper evidence: a flipped byte
        // still kills the import before any ref lands.
        let mut bad = bundle.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        let fresh = db();
        assert!(import_bundle_replace(&fresh, &mut bad.as_slice()).is_err());
        assert!(fresh.list_keys().is_empty());
    }

    #[test]
    fn history_crossing_keys_rejected() {
        // A version of `k` whose base is a version of `other`: its ref
        // names the right key, the base does not.
        let src = db();
        let other = src
            .put("other", Value::string("elsewhere"), &PutOptions::default())
            .unwrap();
        let forged = crate::fnode::FNode {
            key: "k".into(),
            value: Value::string("mine"),
            bases: vec![other.uid],
            author: String::new(),
            message: String::new(),
            logical_time: 7,
        };
        let uid = forged.store(src.store()).unwrap();
        let head = BundleRef {
            key: "k".into(),
            branch: "master".into(),
            uid,
        };
        let mut bundle = Vec::new();
        assert_eq!(export_refs(&src, vec![head], &mut bundle).unwrap(), 2);

        let dst = db();
        for result in [
            import_bundle(&dst, &mut bundle.as_slice()),
            import_bundle_replace(&dst, &mut bundle.as_slice()),
        ] {
            assert!(
                matches!(result, Err(DbError::TamperDetected(_))),
                "{result:?}"
            );
            assert!(dst.list_keys().is_empty(), "no ref installed");
        }
    }

    #[test]
    fn garbage_input_rejected() {
        let dst = db();
        assert!(import_bundle(&dst, &mut &b"not a bundle at all"[..]).is_err());
        assert!(import_bundle(&dst, &mut &b""[..]).is_err());
    }
}
