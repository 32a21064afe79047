//! Fast differential queries between two POS-Trees (paper §II-B).
//!
//! "Because two sub-trees with identical content must have the same root
//! id, the Diff operation can be performed recursively by following the
//! sub-trees with different ids, and pruning ones with the same ids. The
//! complexity of Diff is therefore O(D · log N)."
//!
//! The implementation walks both trees with synchronized [`LeafCursor`]s.
//! Whenever both cursors stand at a node boundary, it climbs to the highest
//! ancestor pair that is (a) boundary-aligned on both sides and (b) equal
//! by hash, and skips that whole subtree in O(1). Structural invariance is
//! what makes this effective: unchanged key ranges produce *identical*
//! page boundaries in both trees, so equal regions align at high levels.

use bytes::Bytes;
use forkbase_store::ChunkStore;

use crate::cache::NodeCache;
use crate::cursor::LeafCursor;
use crate::node::NodeResult;
use crate::TreeRef;

/// One difference between two maps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffEntry {
    /// Key exists only in the right ("to") tree.
    Added {
        /// The key.
        key: Bytes,
        /// Value in the right tree.
        value: Bytes,
    },
    /// Key exists only in the left ("from") tree.
    Removed {
        /// The key.
        key: Bytes,
        /// Value in the left tree.
        value: Bytes,
    },
    /// Key exists in both with different values.
    Modified {
        /// The key.
        key: Bytes,
        /// Value in the left tree.
        from: Bytes,
        /// Value in the right tree.
        to: Bytes,
    },
}

impl DiffEntry {
    /// The key this difference concerns.
    pub fn key(&self) -> &Bytes {
        match self {
            DiffEntry::Added { key, .. }
            | DiffEntry::Removed { key, .. }
            | DiffEntry::Modified { key, .. } => key,
        }
    }
}

/// Instrumentation counters for the complexity experiment (Fig. 5): the
/// claim is `nodes_loaded = O(D log N)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiffStats {
    /// Total tree nodes decoded across both cursors.
    pub nodes_loaded: u64,
    /// Number of whole-subtree skips taken.
    pub subtree_skips: u64,
    /// Entry-to-entry comparisons performed.
    pub entries_compared: u64,
}

/// The result of diffing two maps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapDiff {
    /// Differences in key order.
    pub entries: Vec<DiffEntry>,
    /// Work counters.
    pub stats: DiffStats,
}

impl MapDiff {
    /// Whether the two trees were identical.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of (added, removed, modified) entries.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut a = 0;
        let mut r = 0;
        let mut m = 0;
        for e in &self.entries {
            match e {
                DiffEntry::Added { .. } => a += 1,
                DiffEntry::Removed { .. } => r += 1,
                DiffEntry::Modified { .. } => m += 1,
            }
        }
        (a, r, m)
    }
}

/// Compute the differences from `from` to `to`.
pub fn diff_maps<S: ChunkStore>(store: &S, from: TreeRef, to: TreeRef) -> NodeResult<MapDiff> {
    diff_in(store, None, from, to)
}

/// [`diff_maps`], reading nodes through `cache` when one is given.
pub(crate) fn diff_in<S: ChunkStore>(
    store: &S,
    cache: Option<&NodeCache>,
    from: TreeRef,
    to: TreeRef,
) -> NodeResult<MapDiff> {
    let mut out = MapDiff::default();
    if from.root == to.root {
        return Ok(out); // identical trees: O(1)
    }
    let mut a = LeafCursor::open(store, cache, from, None)?;
    let mut b = LeafCursor::open(store, cache, to, None)?;

    loop {
        // Step past drained leaves first, otherwise the boundary-alignment
        // check below never observes the fresh-node state and the skip
        // optimisation silently degrades to an entry-wise walk.
        a.normalize()?;
        b.normalize()?;
        // Hierarchical skip: only meaningful when both sides sit at a node
        // boundary.
        if !a.at_end() && !b.at_end() && a.at_leaf_start() && b.at_leaf_start() {
            if let Some(levels) = highest_equal_alignment(&a, &b) {
                a.skip_subtree(levels)?;
                b.skip_subtree(levels)?;
                out.stats.subtree_skips += 1;
                continue;
            }
        }
        match (a.peek()?.cloned(), b.peek()?.cloned()) {
            (None, None) => break,
            (Some(e), None) => {
                out.entries.push(DiffEntry::Removed {
                    key: e.key,
                    value: e.value,
                });
                a.next_entry()?;
            }
            (None, Some(e)) => {
                out.entries.push(DiffEntry::Added {
                    key: e.key,
                    value: e.value,
                });
                b.next_entry()?;
            }
            (Some(ea), Some(eb)) => {
                out.stats.entries_compared += 1;
                match ea.key.cmp(&eb.key) {
                    std::cmp::Ordering::Less => {
                        out.entries.push(DiffEntry::Removed {
                            key: ea.key,
                            value: ea.value,
                        });
                        a.next_entry()?;
                    }
                    std::cmp::Ordering::Greater => {
                        out.entries.push(DiffEntry::Added {
                            key: eb.key,
                            value: eb.value,
                        });
                        b.next_entry()?;
                    }
                    std::cmp::Ordering::Equal => {
                        if ea.value != eb.value {
                            out.entries.push(DiffEntry::Modified {
                                key: ea.key,
                                from: ea.value,
                                to: eb.value,
                            });
                        }
                        a.next_entry()?;
                        b.next_entry()?;
                    }
                }
            }
        }
    }

    out.stats.nodes_loaded = a.nodes_loaded() + b.nodes_loaded();
    Ok(out)
}

/// Highest `levels_up` such that both cursors are at the start of their
/// level-`levels_up` ancestor and those ancestors have equal hashes.
/// Returns `None` when even the current leaf nodes differ (or alignment
/// fails at leaf level).
fn highest_equal_alignment<S: ChunkStore>(
    a: &LeafCursor<'_, S>,
    b: &LeafCursor<'_, S>,
) -> Option<usize> {
    let (ha, hb) = (a.ancestor_hash(0)?, b.ancestor_hash(0)?);
    if ha != hb {
        return None;
    }
    let mut best = 0usize;
    let mut lvl = 1usize;
    loop {
        if !a.at_start_of_ancestor(lvl) || !b.at_start_of_ancestor(lvl) {
            break;
        }
        match (a.ancestor_hash(lvl), b.ancestor_hash(lvl)) {
            (Some(x), Some(y)) if x == y => {
                best = lvl;
                lvl += 1;
            }
            _ => break,
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{MapEdit, PosMap};
    use forkbase_chunk::ChunkerConfig;
    use forkbase_store::MemStore;

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
    fn identical_trees_diff_empty_in_o1() {
        let store = MemStore::new();
        let m = sample(&store, 5000);
        let d = diff_maps(&store, m.tree(), m.tree()).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.stats.nodes_loaded, 0, "same root: no node loads at all");
    }

    #[test]
    fn detects_all_three_kinds() {
        let store = MemStore::new();
        let m1 = sample(&store, 1000);
        let m2 = m1
            .apply([
                MapEdit::put(k(2000), Bytes::from_static(b"added")),
                MapEdit::delete(k(500)),
                MapEdit::put(k(100), Bytes::from_static(b"modified")),
            ])
            .unwrap();
        let d = diff_maps(&store, m1.tree(), m2.tree()).unwrap();
        assert_eq!(d.counts(), (1, 1, 1));
        assert!(d.entries.iter().any(|e| matches!(e,
            DiffEntry::Added { key, value } if key == &k(2000) && value.as_ref() == b"added")));
        assert!(d.entries.iter().any(|e| matches!(e,
            DiffEntry::Removed { key, value } if key == &k(500) && value == &v(500))));
        assert!(d.entries.iter().any(|e| matches!(e,
            DiffEntry::Modified { key, from, to } if key == &k(100) && from == &v(100) && to.as_ref() == b"modified")));
    }

    #[test]
    fn diff_results_are_key_ordered() {
        let store = MemStore::new();
        let m1 = sample(&store, 2000);
        let edits: Vec<MapEdit> = (0..50)
            .map(|i| MapEdit::put(k(i * 37 % 2500), Bytes::from(format!("new{i}"))))
            .collect();
        let m2 = m1.apply(edits).unwrap();
        let d = diff_maps(&store, m1.tree(), m2.tree()).unwrap();
        for w in d.entries.windows(2) {
            assert!(w[0].key() < w[1].key());
        }
    }

    #[test]
    fn diff_against_empty_lists_everything() {
        let store = MemStore::new();
        let m = sample(&store, 200);
        let empty = PosMap::empty(&store, cfg()).unwrap();
        let d = diff_maps(&store, empty.tree(), m.tree()).unwrap();
        assert_eq!(d.counts(), (200, 0, 0));
        let d = diff_maps(&store, m.tree(), empty.tree()).unwrap();
        assert_eq!(d.counts(), (0, 200, 0));
    }

    #[test]
    fn diff_is_antisymmetric() {
        let store = MemStore::new();
        let m1 = sample(&store, 800);
        let m2 = m1
            .apply([
                MapEdit::put(k(10), Bytes::from_static(b"x")),
                MapEdit::delete(k(700)),
            ])
            .unwrap();
        let fwd = diff_maps(&store, m1.tree(), m2.tree()).unwrap();
        let rev = diff_maps(&store, m2.tree(), m1.tree()).unwrap();
        assert_eq!(fwd.entries.len(), rev.entries.len());
        let (a1, r1, m1c) = fwd.counts();
        let (a2, r2, m2c) = rev.counts();
        assert_eq!((a1, r1, m1c), (r2, a2, m2c));
    }

    #[test]
    fn sublinear_node_visits_for_small_diffs() {
        // The O(D log N) claim, observationally: diffing a 1-edit pair on a
        // 50k map must touch a tiny fraction of its ~thousands of nodes.
        let store = MemStore::new();
        let m1 = sample(&store, 50_000);
        let m2 = m1.insert(k(25_000), Bytes::from_static(b"!")).unwrap();
        let d = diff_maps(&store, m1.tree(), m2.tree()).unwrap();
        assert_eq!(d.counts(), (0, 0, 1));
        // The test chunker's fanout is tiny (~2-3), so the tree is ~14
        // levels deep and each subtree skip re-descends O(height) nodes.
        // 50k entries means ~35k nodes total; a 1-edit diff must touch a
        // vanishing fraction of them.
        assert!(
            d.stats.nodes_loaded < 800,
            "expected O(log N)-ish visits, got {}",
            d.stats.nodes_loaded
        );
        assert!(d.stats.subtree_skips > 0);
    }

    #[test]
    fn node_visits_scale_with_d() {
        let store = MemStore::new();
        let base = sample(&store, 20_000);
        let mut loads = Vec::new();
        for d in [1u32, 10, 100] {
            let edits: Vec<MapEdit> = (0..d)
                .map(|i| MapEdit::put(k(i * (20_000 / d)), Bytes::from(format!("{i}"))))
                .collect();
            let changed = base.apply(edits).unwrap();
            let diff = diff_maps(&store, base.tree(), changed.tree()).unwrap();
            loads.push(diff.stats.nodes_loaded);
        }
        assert!(loads[0] < loads[1] && loads[1] < loads[2]);
        // Far from linear in D: 100 edits should cost well under 100× the
        // 1-edit diff.
        assert!(
            loads[2] < loads[0] * 100,
            "loads = {loads:?} — not sublinear"
        );
    }
}
