//! Three-way merge of POS-Tree maps (paper §II-B, Fig. 3).
//!
//! Merging objects `A` and `B` against common base `C`:
//!
//! 1. **diff phase** — `ΔA = diff(C, A)` and `ΔB = diff(C, B)`, each
//!    `O(D log N)` thanks to sub-tree pruning;
//! 2. **merge phase** — apply `ΔB` onto `A` with the splice-based
//!    [`crate::map::PosMap::apply`], which *re-uses every sub-tree of `A`
//!    outside the regions `ΔB` touches* (Fig. 3: "reuses disjointly
//!    modified sub-trees to build the merged tree"). No element-wise walk
//!    of the unchanged data ever happens.
//!
//! Conflicts arise when both sides change the same key differently; the
//! [`MergePolicy`] decides the outcome.

use bytes::Bytes;
use forkbase_store::ChunkStore;

use crate::diff::DiffEntry;
use crate::map::{MapEdit, PosMap};

/// Conflict-resolution policy for three-way merges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergePolicy {
    /// Refuse to merge when any key conflicts (report all conflicts).
    #[default]
    Fail,
    /// On conflict, keep `ours` (the tree being merged into).
    Ours,
    /// On conflict, take `theirs` (the tree being merged from).
    Theirs,
}

/// A conflicting key and the three versions involved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeConflict {
    /// The contested key.
    pub key: Bytes,
    /// Value in the base (`None` = absent).
    pub base: Option<Bytes>,
    /// Value in ours (`None` = deleted).
    pub ours: Option<Bytes>,
    /// Value in theirs (`None` = deleted).
    pub theirs: Option<Bytes>,
}

/// Counters describing how much work the merge did — the Fig. 3 experiment
/// measures `new_nodes_written` against total tree size to demonstrate
/// sub-tree reuse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Differences found on our side.
    pub ours_changes: usize,
    /// Differences found on their side.
    pub theirs_changes: usize,
    /// Conflicting keys encountered (resolved or fatal per policy).
    pub conflicts: usize,
    /// Nodes loaded during the two diffs.
    pub diff_nodes_loaded: u64,
}

/// Successful merge result.
pub struct MergeOutcome<'s, S> {
    /// The merged map.
    pub merged: PosMap<'s, S>,
    /// Work counters.
    pub report: MergeReport,
}

/// Error raised when [`MergePolicy::Fail`] meets conflicts.
#[derive(Debug)]
pub enum MergeError {
    /// Underlying tree error.
    Node(crate::node::NodeError),
    /// Conflicting edits under the fail policy.
    Conflicts(Vec<MergeConflict>),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Node(e) => write!(f, "merge failed: {e}"),
            MergeError::Conflicts(c) => write!(f, "merge found {} conflicting key(s)", c.len()),
        }
    }
}

impl std::error::Error for MergeError {}

impl From<crate::node::NodeError> for MergeError {
    fn from(e: crate::node::NodeError) -> Self {
        MergeError::Node(e)
    }
}

/// The value a diff entry assigns to its key (`None` = key removed).
fn after(entry: &DiffEntry) -> Option<Bytes> {
    match entry {
        DiffEntry::Added { value, .. } => Some(value.clone()),
        DiffEntry::Modified { to, .. } => Some(to.clone()),
        DiffEntry::Removed { .. } => None,
    }
}

/// The value the key had in the base (`None` = absent).
fn before(entry: &DiffEntry) -> Option<Bytes> {
    match entry {
        DiffEntry::Added { .. } => None,
        DiffEntry::Modified { from, .. } => Some(from.clone()),
        DiffEntry::Removed { value, .. } => Some(value.clone()),
    }
}

/// Three-way merge: combine the changes `base→theirs` into `ours`.
pub fn merge_maps<'s, S: ChunkStore>(
    base: &PosMap<'s, S>,
    ours: &PosMap<'s, S>,
    theirs: &PosMap<'s, S>,
    policy: MergePolicy,
) -> Result<MergeOutcome<'s, S>, MergeError> {
    let delta_ours = base.diff(ours.tree())?;
    let delta_theirs = base.diff(theirs.tree())?;

    let mut report = MergeReport {
        ours_changes: delta_ours.entries.len(),
        theirs_changes: delta_theirs.entries.len(),
        conflicts: 0,
        diff_nodes_loaded: delta_ours.stats.nodes_loaded + delta_theirs.stats.nodes_loaded,
    };

    // Index our changes by key for conflict detection. Diff entries are
    // key-ordered, so a sorted-vec + binary search keeps allocations down.
    let ours_by_key: Vec<&DiffEntry> = delta_ours.entries.iter().collect();

    let mut edits: Vec<MapEdit> = Vec::new();
    let mut conflicts: Vec<MergeConflict> = Vec::new();

    for theirs_entry in &delta_theirs.entries {
        let key = theirs_entry.key();
        let ours_entry = ours_by_key
            .binary_search_by(|e| e.key().cmp(key))
            .ok()
            .map(|i| ours_by_key[i]);
        match ours_entry {
            None => {
                // Only their side touched this key: take it.
                match after(theirs_entry) {
                    Some(v) => edits.push(MapEdit::put(key.clone(), v)),
                    None => edits.push(MapEdit::delete(key.clone())),
                }
            }
            Some(ours_entry) => {
                let ours_after = after(ours_entry);
                let theirs_after = after(theirs_entry);
                if ours_after == theirs_after {
                    continue; // both sides agree; ours already has it
                }
                report.conflicts += 1;
                match policy {
                    MergePolicy::Fail => conflicts.push(MergeConflict {
                        key: key.clone(),
                        base: before(theirs_entry),
                        ours: ours_after,
                        theirs: theirs_after,
                    }),
                    MergePolicy::Ours => { /* keep ours: no edit */ }
                    MergePolicy::Theirs => match theirs_after {
                        Some(v) => edits.push(MapEdit::put(key.clone(), v)),
                        None => edits.push(MapEdit::delete(key.clone())),
                    },
                }
            }
        }
    }

    if !conflicts.is_empty() {
        return Err(MergeError::Conflicts(conflicts));
    }

    let merged = ours.apply(edits)?;
    Ok(MergeOutcome { merged, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_chunk::ChunkerConfig;
    use forkbase_store::{ChunkStore, MemStore};

    fn cfg() -> ChunkerConfig {
        ChunkerConfig::test_small()
    }

    fn k(i: u32) -> Bytes {
        Bytes::from(format!("key-{i:08}"))
    }

    fn v(i: u32) -> Bytes {
        Bytes::from(format!("value-{i}"))
    }

    fn sample(store: &MemStore, n: u32) -> PosMap<'_, MemStore> {
        PosMap::build_from_sorted(store, cfg(), (0..n).map(|i| (k(i), v(i)))).unwrap()
    }

    #[test]
    fn disjoint_edits_merge_cleanly() {
        let store = MemStore::new();
        let base = sample(&store, 2000);
        // A edits the front, B edits the back (Fig. 3 scenario).
        let ours = base
            .apply((0..20).map(|i| MapEdit::put(k(i), Bytes::from(format!("ours{i}")))))
            .unwrap();
        let theirs = base
            .apply((1980..2000).map(|i| MapEdit::put(k(i), Bytes::from(format!("theirs{i}")))))
            .unwrap();
        let out = merge_maps(&base, &ours, &theirs, MergePolicy::Fail).unwrap();
        assert_eq!(out.report.conflicts, 0);
        assert_eq!(out.merged.len(), 2000);
        assert_eq!(
            out.merged.get(&k(0)).unwrap(),
            Some(Bytes::from_static(b"ours0"))
        );
        assert_eq!(
            out.merged.get(&k(1999)).unwrap(),
            Some(Bytes::from_static(b"theirs1999"))
        );
        assert_eq!(out.merged.get(&k(1000)).unwrap(), Some(v(1000)));
    }

    #[test]
    fn merge_is_symmetric_for_disjoint_edits() {
        let store = MemStore::new();
        let base = sample(&store, 1000);
        let a = base.insert(k(10), Bytes::from_static(b"A")).unwrap();
        let b = base.insert(k(900), Bytes::from_static(b"B")).unwrap();
        let ab = merge_maps(&base, &a, &b, MergePolicy::Fail).unwrap();
        let ba = merge_maps(&base, &b, &a, MergePolicy::Fail).unwrap();
        assert_eq!(ab.merged.root(), ba.merged.root(), "structural invariance");
    }

    #[test]
    fn conflicting_edit_fails_under_fail_policy() {
        let store = MemStore::new();
        let base = sample(&store, 100);
        let ours = base.insert(k(50), Bytes::from_static(b"mine")).unwrap();
        let theirs = base.insert(k(50), Bytes::from_static(b"yours")).unwrap();
        match merge_maps(&base, &ours, &theirs, MergePolicy::Fail) {
            Err(MergeError::Conflicts(c)) => {
                assert_eq!(c.len(), 1);
                assert_eq!(c[0].key, k(50));
                assert_eq!(c[0].base, Some(v(50)));
                assert_eq!(c[0].ours, Some(Bytes::from_static(b"mine")));
                assert_eq!(c[0].theirs, Some(Bytes::from_static(b"yours")));
            }
            other => panic!("expected conflicts, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn conflict_policies_pick_sides() {
        let store = MemStore::new();
        let base = sample(&store, 100);
        let ours = base.insert(k(50), Bytes::from_static(b"mine")).unwrap();
        let theirs = base.insert(k(50), Bytes::from_static(b"yours")).unwrap();

        let keep_ours = merge_maps(&base, &ours, &theirs, MergePolicy::Ours).unwrap();
        assert_eq!(
            keep_ours.merged.get(&k(50)).unwrap(),
            Some(Bytes::from_static(b"mine"))
        );
        assert_eq!(keep_ours.report.conflicts, 1);

        let take_theirs = merge_maps(&base, &ours, &theirs, MergePolicy::Theirs).unwrap();
        assert_eq!(
            take_theirs.merged.get(&k(50)).unwrap(),
            Some(Bytes::from_static(b"yours"))
        );
    }

    #[test]
    fn identical_changes_are_not_conflicts() {
        let store = MemStore::new();
        let base = sample(&store, 100);
        let ours = base.insert(k(50), Bytes::from_static(b"same")).unwrap();
        let theirs = base.insert(k(50), Bytes::from_static(b"same")).unwrap();
        let out = merge_maps(&base, &ours, &theirs, MergePolicy::Fail).unwrap();
        assert_eq!(out.report.conflicts, 0);
        assert_eq!(out.merged.root(), ours.root());
    }

    #[test]
    fn delete_vs_modify_is_a_conflict() {
        let store = MemStore::new();
        let base = sample(&store, 100);
        let ours = base.remove(k(50)).unwrap();
        let theirs = base.insert(k(50), Bytes::from_static(b"kept")).unwrap();
        match merge_maps(&base, &ours, &theirs, MergePolicy::Fail) {
            Err(MergeError::Conflicts(c)) => {
                assert_eq!(c[0].ours, None);
                assert_eq!(c[0].theirs, Some(Bytes::from_static(b"kept")));
            }
            other => panic!("expected conflict, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn both_delete_is_agreement() {
        let store = MemStore::new();
        let base = sample(&store, 100);
        let ours = base.remove(k(50)).unwrap();
        let theirs = base.remove(k(50)).unwrap();
        let out = merge_maps(&base, &ours, &theirs, MergePolicy::Fail).unwrap();
        assert_eq!(out.merged.get(&k(50)).unwrap(), None);
        assert_eq!(out.merged.len(), 99);
    }

    #[test]
    fn merge_reuses_subtrees_fig3() {
        // The Fig. 3 measurement: merging disjoint edits on a large map
        // must create few new chunks — everything else is shared.
        let store = MemStore::new();
        let base = sample(&store, 20_000);
        let ours = base
            .apply((0..10).map(|i| MapEdit::put(k(i), Bytes::from_static(b"o"))))
            .unwrap();
        let theirs = base
            .apply((19_990..20_000).map(|i| MapEdit::put(k(i), Bytes::from_static(b"t"))))
            .unwrap();
        let chunks_before = store.chunk_count();
        let out = merge_maps(&base, &ours, &theirs, MergePolicy::Fail).unwrap();
        let new_chunks = store.chunk_count() - chunks_before;
        assert!(
            new_chunks <= 15,
            "merge created {new_chunks} chunks; sub-tree reuse failed"
        );
        // And the merged tree equals a from-scratch build of the same data
        // (structural invariance).
        assert_eq!(out.merged.len(), 20_000);
        assert_eq!(
            out.merged.get(&k(5)).unwrap(),
            Some(Bytes::from_static(b"o"))
        );
        assert_eq!(
            out.merged.get(&k(19_995)).unwrap(),
            Some(Bytes::from_static(b"t"))
        );
    }

    #[test]
    fn merge_with_unchanged_side_is_fast_forward() {
        let store = MemStore::new();
        let base = sample(&store, 500);
        let theirs = base.insert(k(100), Bytes::from_static(b"new")).unwrap();
        // ours == base: merge must equal theirs exactly.
        let out = merge_maps(&base, &base, &theirs, MergePolicy::Fail).unwrap();
        assert_eq!(out.merged.root(), theirs.root());
    }
}
