//! Mark-and-sweep garbage collection over the chunk store.
//!
//! ForkBase data is immutable, so "deletion" happens only by moving branch
//! heads. Chunks not reachable from any branch head (dropped branches,
//! abandoned experiments) can be reclaimed offline. The mark phase walks:
//!
//! ```text
//! branch heads → FNodes → (bases…, value trees → nodes → data chunks)
//! ```
//!
//! and the sweep drops everything unvisited. GC preserves all *history*
//! reachable from live heads — this is archival storage, not a cache.
//!
//! The mark is `walk.rs`'s two walks with the live set as their one
//! seen set: every version from every head, and every page under it, is
//! read once however many versions share it.
//!
//! The sweep itself is delegated to the store's [`SweepStore`] capability:
//! on a `MemStore` it drops map entries; on a `FileStore` it additionally
//! runs physical compaction, rewriting surviving chunks out of
//! low-utilization segments and deleting dead segment files, so disk
//! space is actually returned to the operating system.

use std::collections::HashSet;

use forkbase_crypto::Hash;
use forkbase_store::{ChunkStore, SweepReport, SweepStore};

use crate::db::ForkBase;
use crate::error::DbResult;
use crate::walk;

/// The set of chunks reachable from all branch heads.
pub fn mark<S: ChunkStore>(db: &ForkBase<S>) -> DbResult<HashSet<Hash>> {
    let mut heads = Vec::new();
    for key in db.list_keys() {
        heads.extend(db.list_branches(&key)?.into_iter().map(|b| b.head));
    }
    let mut live = HashSet::new();
    walk::versions(db.store(), heads, &mut live, |_, fnode, live| {
        walk::pages(db.store(), &fnode.value, live, |_| {})?;
        Ok(None)
    })?;
    Ok(live)
}

/// Report of one full GC pass: what the mark phase found live, plus the
/// store's own [`SweepReport`] of what the sweep/compaction physically
/// did about the rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Chunks reachable from some branch head (kept).
    pub live_chunks: u64,
    /// What the store physically reclaimed, rewrote, and freed.
    pub sweep: SweepReport,
}

impl std::fmt::Display for GcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "live chunks:     {}", self.live_chunks)?;
        writeln!(
            f,
            "reclaimed:       {} chunk(s), {} byte(s)",
            self.sweep.chunks_reclaimed, self.sweep.bytes_reclaimed
        )?;
        writeln!(
            f,
            "compacted:       {} chunk(s) rewritten ({} bytes), {} segment(s) deleted",
            self.sweep.chunks_rewritten, self.sweep.bytes_rewritten, self.sweep.segments_deleted
        )?;
        write!(
            f,
            "disk:            {} -> {} bytes ({} freed)",
            self.sweep.disk_bytes_before,
            self.sweep.disk_bytes_after,
            self.sweep.disk_bytes_freed()
        )
    }
}

/// Run a full mark-and-sweep (and, on segmented stores, physical
/// compaction) over any database whose store supports [`SweepStore`].
///
/// Holds the database's GC gate exclusively for the whole mark+sweep, so
/// every mutating verb (`put`, `put_blob`, `put_map_edits`, `merge`,
/// branch/ref updates) is quiesced: the mark phase sees a consistent set
/// of heads and no commit can publish chunks between mark and sweep.
/// Read-only verbs never take the gate and keep running during GC; after
/// the sweep, still under the gate, the database's node cache drops every
/// page outside the live set. The mark itself reads the store, not the
/// cache, and adds nothing to it.
pub fn collect<S: SweepStore>(db: &ForkBase<S>) -> DbResult<GcReport> {
    let _world_stopped = db.gc_gate.write();
    let live = mark(db)?;
    let sweep = db.store().sweep(&|h| live.contains(h));
    // Even a failed sweep may have dropped chunks: forget every cached
    // page outside the live set either way, so none is served again.
    db.nodes.retain(|h| live.contains(h));
    let sweep = sweep?;
    Ok(GcReport {
        live_chunks: live.len() as u64,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{PutOptions, VersionSpec};
    use bytes::Bytes;
    use forkbase_postree::TreeConfig;
    use forkbase_store::MemStore;

    fn db() -> ForkBase<MemStore> {
        ForkBase::with_config(MemStore::new(), TreeConfig::test_config())
    }

    #[test]
    fn nothing_reclaimed_when_everything_is_live() {
        let db = db();
        let pairs: Vec<(Bytes, Bytes)> = (0..500)
            .map(|i| {
                (
                    Bytes::from(format!("k{i:05}")),
                    Bytes::from(format!("v{i}")),
                )
            })
            .collect();
        let map = db.new_map(pairs).unwrap();
        db.put("data", map, &PutOptions::default()).unwrap();
        let report = collect(&db).unwrap();
        assert_eq!(report.sweep.chunks_reclaimed, 0);
        assert_eq!(report.sweep.bytes_reclaimed, 0);
        assert!(report.live_chunks > 0);
        // Data still readable.
        let got = db.get("data", "master").unwrap();
        assert!(db.verify_value(&got.value).is_ok());
    }

    #[test]
    fn dropped_branch_is_reclaimed_but_history_stays() {
        let db = db();
        let pairs: Vec<(Bytes, Bytes)> = (0..500)
            .map(|i| {
                (
                    Bytes::from(format!("k{i:05}")),
                    Bytes::from(format!("v{i}")),
                )
            })
            .collect();
        let map = db.new_map(pairs).unwrap();
        db.put("data", map, &PutOptions::default()).unwrap();

        // Branch off and write a large divergent value, then delete the
        // branch.
        db.branch("data", "master", "scratch").unwrap();
        let big: Vec<(Bytes, Bytes)> = (0..500)
            .map(|i| (Bytes::from(format!("x{i:05}")), Bytes::from(vec![7u8; 100])))
            .collect();
        let scratch_map = db.new_map(big).unwrap();
        db.put("data", scratch_map, &PutOptions::on_branch("scratch"))
            .unwrap();
        let before = db.store().chunk_count();
        db.delete_branch("data", "scratch").unwrap();

        let report = collect(&db).unwrap();
        assert!(
            report.sweep.chunks_reclaimed > 0,
            "scratch branch data must be reclaimed"
        );
        assert!(db.store().chunk_count() < before);

        // Master and its full history still verify.
        db.verify_branch("data", "master").unwrap();
        let history = db.history("data", &VersionSpec::branch("master")).unwrap();
        assert_eq!(history.len(), 1);
    }

    #[test]
    fn history_of_live_branch_is_never_collected() {
        let db = db();
        for i in 0..5 {
            db.put(
                "doc",
                forkbase_types::Value::string(format!("revision {i}")),
                &PutOptions::default(),
            )
            .unwrap();
        }
        let report = collect(&db).unwrap();
        assert_eq!(
            report.sweep.chunks_reclaimed, 0,
            "all five revisions are reachable via bases"
        );
        let history = db.history("doc", &VersionSpec::branch("master")).unwrap();
        assert_eq!(history.len(), 5);
        for h in history {
            assert!(db.verify_version(&h.uid).is_ok());
        }
    }

    #[test]
    fn shared_chunks_survive_partial_deletion() {
        let db = db();
        // Two keys share most of their map content.
        let mk = |extra: &str| -> Vec<(Bytes, Bytes)> {
            let mut v: Vec<(Bytes, Bytes)> = (0..300)
                .map(|i| {
                    (
                        Bytes::from(format!("k{i:05}")),
                        Bytes::from(format!("v{i}")),
                    )
                })
                .collect();
            v.push((Bytes::from(extra.to_string()), Bytes::from_static(b"1")));
            v
        };
        let m1 = db.new_map(mk("only-a")).unwrap();
        let m2 = db.new_map(mk("only-b")).unwrap();
        db.put("a", m1, &PutOptions::default()).unwrap();
        db.put("b", m2, &PutOptions::default()).unwrap();

        // Delete key "b" entirely (drop its only branch).
        db.delete_branch("b", "master").unwrap();
        collect(&db).unwrap();

        // Key "a" must still fully verify: shared chunks were retained.
        db.verify_branch("a", "master").unwrap();
        let got = db.get("a", "master").unwrap();
        assert_eq!(
            db.map_get(&got.value, b"only-a").unwrap(),
            Some(Bytes::from_static(b"1"))
        );
    }

    #[test]
    fn gc_physically_shrinks_a_file_store() {
        // The acceptance cycle: ingest → delete branches → gc (mark +
        // sweep + compaction) → on-disk bytes shrink to within 1.25x of
        // the live frame bytes, and everything live still verifies.
        use forkbase_store::{FileStore, FileStoreConfig};
        let dir = std::env::temp_dir().join(format!(
            "forkbase-gc-filestore-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::open_with(
            &dir,
            FileStoreConfig {
                segment_bytes: 64 * 1024,
                ..Default::default()
            },
        )
        .unwrap();
        let db = ForkBase::with_config(store, TreeConfig::test_config());

        // Ingest: a keeper blob plus several scratch branches of garbage.
        let keeper: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        db.put_blob("data", Bytes::from(keeper.clone()), &PutOptions::default())
            .unwrap();
        for b in 0..6 {
            let scratch = format!("scratch-{b}");
            db.branch("data", "master", &scratch).unwrap();
            let junk: Vec<u8> = (0..150_000u32)
                .map(|i| ((i * 7919 + b * 104729) % 253) as u8)
                .collect();
            db.put_blob("data", Bytes::from(junk), &PutOptions::on_branch(&scratch))
                .unwrap();
            db.delete_branch("data", &scratch).unwrap();
        }
        db.store().sync().unwrap();
        let disk_full = db.store().disk_bytes().unwrap();

        let report = db.gc().unwrap();
        assert!(report.sweep.chunks_reclaimed > 0);
        assert!(report.sweep.segments_deleted > 0);
        assert!(report.sweep.disk_bytes_after < disk_full);

        // The 1.25x bound: disk after GC vs live payload bytes (frame
        // overhead is ~1% at these chunk sizes and is inside the bound).
        let live_bytes = db.store().utilization().unwrap().live_bytes;
        assert!(
            report.sweep.disk_bytes_after as f64 <= 1.25 * live_bytes as f64,
            "disk {} vs live {live_bytes}",
            report.sweep.disk_bytes_after
        );

        // Live data survives compaction and still verifies end-to-end.
        db.verify_branch("data", "master").unwrap();
        let got = db.get("data", "master").unwrap();
        assert_eq!(db.blob_read(&got.value).unwrap(), keeper);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
