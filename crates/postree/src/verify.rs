//! Structural and cryptographic tree verification (paper §II-D).
//!
//! Under the malicious-store threat model, the client trusts nothing but
//! the root hash it recorded. [`verify_map`] re-fetches the whole tree and
//! checks, for every node:
//!
//! * the fetched bytes hash to the address used to fetch them (Merkle
//!   integrity — [`crate::node::Node::load`] enforces this);
//! * keys are strictly ascending within and across nodes;
//! * every index entry's `count` equals its child's actual subtree count;
//! * every index entry's `split_key` equals its child's actual maximum key;
//! * levels decrease by exactly one on each descent;
//! * (optionally) node boundaries re-derive from the entry stream — i.e.
//!   the tree is the *canonical* POS-Tree for its record set, not merely a
//!   well-formed B+-tree. This closes the loophole of a malicious store
//!   presenting a differently-chunked tree with the same logical content
//!   (which would break page-sharing guarantees silently).
//!
//! Verification never reads through a [`crate::cache::NodeCache`]: every
//! node is fetched from the store and re-hashed on every pass. A cache
//! keeps what passed the check when it was read, so it cannot notice a
//! store that changes a page afterwards; this walk does.

use bytes::Bytes;
use forkbase_chunk::{ChunkerConfig, EntryChunker};
use forkbase_store::ChunkStore;

use crate::node::{Node, NodeError};
use crate::TreeRef;

/// Verification failure.
#[derive(Debug)]
pub enum VerifyError {
    /// A node failed to load or authenticate.
    Node(NodeError),
    /// A structural invariant does not hold.
    Invariant(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Node(e) => write!(f, "verification failed: {e}"),
            VerifyError::Invariant(m) => write!(f, "invariant violated: {m}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<NodeError> for VerifyError {
    fn from(e: NodeError) -> Self {
        VerifyError::Node(e)
    }
}

/// Statistics from a successful verification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Nodes fetched and authenticated.
    pub nodes: u64,
    /// Leaf entries checked.
    pub entries: u64,
    /// Tree height (root level).
    pub height: u8,
}

/// Verify the map tree at `tree`. With `check_boundaries`, additionally
/// re-runs the chunker over the leaf and index entry streams to prove the
/// node boundaries are canonical for `cfg`.
pub fn verify_map<S: ChunkStore>(
    store: &S,
    tree: TreeRef,
    cfg: ChunkerConfig,
    check_boundaries: bool,
) -> Result<VerifyReport, VerifyError> {
    let mut report = VerifyReport::default();
    let root = Node::load(store, &tree.root)?;
    report.nodes += 1;
    report.height = root.level();

    let count = walk(store, &root, &mut report, &mut None)?;
    if count != tree.count {
        return Err(VerifyError::Invariant(format!(
            "tree count {} does not match actual entries {count}",
            tree.count
        )));
    }
    if check_boundaries {
        verify_boundaries(store, &root, cfg)?;
    }
    Ok(report)
}

/// Recursive walk checking ordering, counts and split keys. Returns the
/// subtree entry count. `prev_key` threads the globally-last-seen key.
fn walk<S: ChunkStore>(
    store: &S,
    node: &Node,
    report: &mut VerifyReport,
    prev_key: &mut Option<Bytes>,
) -> Result<u64, VerifyError> {
    match node {
        Node::Leaf(entries) => {
            for e in entries {
                if let Some(p) = prev_key {
                    // Positional trees (lists) use empty keys throughout;
                    // ordering is only enforced once keys are non-empty.
                    let both_empty = p.is_empty() && e.key.is_empty();
                    if !both_empty && p.as_ref() >= e.key.as_ref() {
                        return Err(VerifyError::Invariant(format!(
                            "keys not strictly ascending at {:?}",
                            e.key
                        )));
                    }
                }
                *prev_key = Some(e.key.clone());
                report.entries += 1;
            }
            Ok(entries.len() as u64)
        }
        Node::Index { level, children } => {
            let mut total = 0u64;
            for c in children {
                let child = Node::load(store, &c.hash)?;
                report.nodes += 1;
                if child.level() + 1 != *level {
                    return Err(VerifyError::Invariant(format!(
                        "child level {} under index level {}",
                        child.level(),
                        level
                    )));
                }
                let sub = walk(store, &child, report, prev_key)?;
                if sub != c.count {
                    return Err(VerifyError::Invariant(format!(
                        "index entry count {} != subtree count {sub}",
                        c.count
                    )));
                }
                let actual_split = child.split_key().unwrap_or_default();
                if actual_split != c.split_key {
                    return Err(VerifyError::Invariant(format!(
                        "split key {:?} != child max key {:?}",
                        c.split_key, actual_split
                    )));
                }
                total += sub;
            }
            Ok(total)
        }
    }
}

/// Re-chunk every level's entry stream and confirm the cuts land exactly on
/// the existing node boundaries.
fn verify_boundaries<S: ChunkStore>(
    store: &S,
    root: &Node,
    cfg: ChunkerConfig,
) -> Result<(), VerifyError> {
    // Gather the node list of each level via BFS.
    let mut current: Vec<Node> = vec![root.clone()];
    loop {
        // Check this level's boundary placement.
        check_level_boundaries(&current, cfg)?;
        // Descend.
        let mut next = Vec::new();
        for node in &current {
            if let Node::Index { children, .. } = node {
                for c in children {
                    next.push(Node::load(store, &c.hash)?);
                }
            }
        }
        if next.is_empty() {
            return Ok(());
        }
        current = next;
    }
}

fn check_level_boundaries(nodes: &[Node], cfg: ChunkerConfig) -> Result<(), VerifyError> {
    let mut chunker = EntryChunker::new(cfg);
    let mut scratch = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let is_last = i + 1 == nodes.len();
        let n_entries = node.entry_count();
        let mut cut_at_entry: Option<usize> = None;
        match node {
            Node::Leaf(entries) => {
                for (j, e) in entries.iter().enumerate() {
                    scratch.clear();
                    e.encode_into(&mut scratch);
                    if chunker.push_entry(&scratch) {
                        cut_at_entry = Some(j);
                    }
                }
            }
            Node::Index { children, .. } => {
                // Index levels chunk over child hashes only (see
                // `builder::TreeBuilder::push_index` for why).
                for (j, c) in children.iter().enumerate() {
                    if chunker.push_entry(c.hash.as_bytes()) {
                        cut_at_entry = Some(j);
                    }
                }
            }
        }
        match cut_at_entry {
            Some(j) if j + 1 == n_entries => { /* boundary at node end: canonical */ }
            Some(j) => {
                return Err(VerifyError::Invariant(format!(
                    "node {i} has an interior pattern cut at entry {j}"
                )));
            }
            None if is_last => { /* final node is stream-terminated */ }
            None => {
                return Err(VerifyError::Invariant(format!(
                    "node {i} is not pattern-terminated but is not the final node"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::PosMap;
    use crate::node::{IndexEntry, LeafEntry};
    use bytes::Bytes;
    use forkbase_store::{MemStore, SweepStore};

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
    fn valid_tree_verifies() {
        let store = MemStore::new();
        let m = sample(&store, 3000);
        let report = verify_map(&store, m.tree(), cfg(), true).unwrap();
        assert_eq!(report.entries, 3000);
        assert!(report.nodes > 10);
        assert!(report.height >= 1);
    }

    #[test]
    fn empty_tree_verifies() {
        let store = MemStore::new();
        let m = PosMap::empty(&store, cfg()).unwrap();
        let report = verify_map(&store, m.tree(), cfg(), true).unwrap();
        assert_eq!(report.entries, 0);
        assert_eq!(report.nodes, 1);
    }

    #[test]
    fn updated_tree_verifies() {
        let store = MemStore::new();
        let m = sample(&store, 3000);
        let m2 = m
            .insert(k(12_345), Bytes::from_static(b"inserted"))
            .unwrap();
        let m3 = m2.remove(k(100)).unwrap();
        verify_map(&store, m3.tree(), cfg(), true).unwrap();
    }

    #[test]
    fn wrong_count_is_detected() {
        let store = MemStore::new();
        let m = sample(&store, 500);
        let lying = TreeRef::new(m.root(), 501);
        assert!(matches!(
            verify_map(&store, lying, cfg(), false),
            Err(VerifyError::Invariant(_))
        ));
    }

    #[test]
    fn forged_subtree_is_detected() {
        // Build a hand-forged index node whose child count lies, store it,
        // and point a TreeRef at it. The hash is self-consistent (the store
        // is "malicious" and can store anything), so only the structural
        // walk catches the lie.
        let store = MemStore::new();
        let leaf = Node::Leaf(vec![
            LeafEntry::new(Bytes::from_static(b"a"), Bytes::from_static(b"1")),
            LeafEntry::new(Bytes::from_static(b"b"), Bytes::from_static(b"2")),
        ]);
        let leaf_hash = leaf.store(&store).unwrap();
        let forged = Node::Index {
            level: 1,
            children: vec![IndexEntry::new(Bytes::from_static(b"b"), leaf_hash, 99)],
        };
        let forged_hash = forged.store(&store).unwrap();
        let result = verify_map(&store, TreeRef::new(forged_hash, 99), cfg(), false);
        assert!(matches!(result, Err(VerifyError::Invariant(m)) if m.contains("count")));
    }

    #[test]
    fn forged_split_key_is_detected() {
        let store = MemStore::new();
        let leaf = Node::Leaf(vec![LeafEntry::new(
            Bytes::from_static(b"a"),
            Bytes::from_static(b"1"),
        )]);
        let leaf_hash = leaf.store(&store).unwrap();
        let forged = Node::Index {
            level: 1,
            children: vec![IndexEntry::new(Bytes::from_static(b"zzz"), leaf_hash, 1)],
        };
        let forged_hash = forged.store(&store).unwrap();
        let result = verify_map(&store, TreeRef::new(forged_hash, 1), cfg(), false);
        assert!(matches!(result, Err(VerifyError::Invariant(m)) if m.contains("split key")));
    }

    #[test]
    fn unsorted_leaf_is_detected() {
        let store = MemStore::new();
        let bad = Node::Leaf(vec![
            LeafEntry::new(Bytes::from_static(b"b"), Bytes::from_static(b"1")),
            LeafEntry::new(Bytes::from_static(b"a"), Bytes::from_static(b"2")),
        ]);
        let h = bad.store(&store).unwrap();
        let result = verify_map(&store, TreeRef::new(h, 2), cfg(), false);
        assert!(matches!(result, Err(VerifyError::Invariant(m)) if m.contains("ascending")));
    }

    #[test]
    fn non_canonical_chunking_is_detected_with_boundary_check() {
        // A malicious store could present the same records split into
        // different pages. Build such a tree by hand: all 200 entries in
        // one giant leaf (the canonical tree for this config splits them).
        let store = MemStore::new();
        let entries: Vec<LeafEntry> = (0..200).map(|i| LeafEntry::new(k(i), v(i))).collect();
        let big_leaf = Node::Leaf(entries);
        let h = big_leaf.store(&store).unwrap();
        let tree = TreeRef::new(h, 200);
        // Passes the plain structural check…
        verify_map(&store, tree, cfg(), false).unwrap();
        // …but fails the canonical-boundary check.
        assert!(matches!(
            verify_map(&store, tree, cfg(), true),
            Err(VerifyError::Invariant(m)) if m.contains("cut")
        ));
    }

    #[test]
    fn missing_chunk_is_detected() {
        let store = MemStore::new();
        let m = sample(&store, 2000);
        // Remove one interior chunk.
        let mut victim = None;
        store.for_each_chunk(|h, _| {
            if victim.is_none() && *h != m.root() {
                victim = Some(*h);
            }
        });
        store.sweep(&|h| Some(*h) != victim).unwrap();
        assert!(matches!(
            verify_map(&store, m.tree(), cfg(), false),
            Err(VerifyError::Node(NodeError::Missing(_)))
        ));
    }
}
