//! ForkBase adapter for the baselines' [`VersionedStore`] interface, so the
//! Table I experiment sweeps every system through identical workloads.

use forkbase_baselines::{Snapshot, VersionedStore};
use forkbase_postree::{PosMap, TreeConfig, TreeRef};
use forkbase_store::{ChunkStore, MemStore};

/// ForkBase's page-level strategy behind the common benchmark interface:
/// each version is a POS-Tree map; physical cost is the deduplicated
/// chunk store footprint.
pub struct ForkBaseStore {
    store: MemStore,
    cfg: TreeConfig,
    versions: Vec<TreeRef>,
}

impl ForkBaseStore {
    /// New empty store with production chunking.
    pub fn new() -> Self {
        Self::with_config(TreeConfig::default_config())
    }

    /// New empty store with explicit chunking.
    pub fn with_config(cfg: TreeConfig) -> Self {
        ForkBaseStore {
            store: MemStore::new(),
            cfg,
            versions: Vec::new(),
        }
    }
}

impl Default for ForkBaseStore {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionedStore for ForkBaseStore {
    fn name(&self) -> &'static str {
        "ForkBase (page-level dedup)"
    }

    fn commit(&mut self, snapshot: &Snapshot) -> u64 {
        let map = PosMap::build_from_sorted(&self.store, self.cfg.node, snapshot.iter().cloned())
            .expect("mem store cannot fail");
        self.versions.push(map.tree());
        (self.versions.len() - 1) as u64
    }

    fn storage_bytes(&self) -> u64 {
        // Chunk payloads plus a 40-byte ref per version.
        self.store.stored_bytes() + 40 * self.versions.len() as u64
    }

    fn get_version(&self, version: u64) -> Option<Snapshot> {
        let tree = *self.versions.get(version as usize)?;
        let map = PosMap::open(&self.store, self.cfg.node, tree);
        let mut out: Snapshot = Vec::with_capacity(tree.count as usize);
        for item in map.iter().ok()? {
            let e = item.ok()?;
            out.push((e.key, e.value));
        }
        Some(out)
    }

    fn version_count(&self) -> u64 {
        self.versions.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn conformance_with_baseline_interface() {
        let mut s = ForkBaseStore::with_config(TreeConfig::test_config());
        let s1 = workload::snapshot(500, 1);
        let (s2, _) = workload::edit_snapshot(&s1, 5, 2);
        let v1 = s.commit(&s1);
        let v2 = s.commit(&s2);
        assert_eq!(s.get_version(v1).as_deref(), Some(&s1[..]));
        assert_eq!(s.get_version(v2).as_deref(), Some(&s2[..]));
        assert_eq!(s.get_version(99), None);
        assert_eq!(s.version_count(), 2);
    }

    #[test]
    fn near_identical_versions_cost_little() {
        let mut s = ForkBaseStore::with_config(TreeConfig::test_config());
        let base = workload::snapshot(2000, 3);
        s.commit(&base);
        let one = s.storage_bytes();
        for i in 0..9 {
            let (v, _) = workload::edit_snapshot(&base, 2, 100 + i);
            s.commit(&v);
        }
        let ten = s.storage_bytes();
        assert!(
            ten < one * 2,
            "page-level dedup failed: {one} -> {ten} over 10 versions"
        );
    }
}
