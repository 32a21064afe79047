//! Leaf-entry cursor with node-level navigation.
//!
//! [`LeafCursor`] walks a POS-Tree's leaf entries in key order while also
//! exposing the *node* structure: callers can skip a whole leaf node in
//! O(height) without decoding it, ask whether the current leaf is the tree's
//! final node, and test alignment at ancestor levels. These powers drive
//! both the incremental update (`map::apply`) and the sub-tree-pruning diff.
//!
//! A cursor holds the nodes on its path as shared `Arc<Node>`s. Opened by
//! a [`crate::PosMap`] that has a [`NodeCache`], it reads them through
//! that cache; otherwise every node is a verified [`Node::load`].

use std::sync::Arc;

use forkbase_crypto::Hash;
use forkbase_store::ChunkStore;

use crate::cache::{load_node, NodeCache};
use crate::node::{IndexEntry, LeafEntry, Node, NodeError, NodeResult};
use crate::TreeRef;

/// One step of the root→leaf path.
struct PathNode {
    /// This index node.
    node: Arc<Node>,
    /// Index of the child currently descended into.
    idx: usize,
    /// Content hash of this index node.
    hash: Hash,
}

impl PathNode {
    fn children(&self) -> &[IndexEntry] {
        self.node.children()
    }
}

/// A forward cursor over a tree's leaf entries.
pub struct LeafCursor<'s, S> {
    store: &'s S,
    cache: Option<&'s NodeCache>,
    /// Root → parent-of-leaf chain. Empty when the root is itself a leaf.
    path: Vec<PathNode>,
    /// Reference (split_key, hash, count) of the current leaf node;
    /// `None` when the cursor is exhausted.
    leaf_ref: Option<IndexEntry>,
    /// The current leaf, fetched lazily when its entries are read.
    leaf: Option<Arc<Node>>,
    /// Position within the current leaf.
    entry_idx: usize,
    /// Number of leaf entries strictly before the current leaf node.
    position_base: u64,
    /// Total nodes fetched, for complexity accounting (Fig. 5 experiment).
    nodes_loaded: u64,
}

impl<'s, S: ChunkStore> LeafCursor<'s, S> {
    /// Open a cursor at the first entry of the tree.
    pub fn new(store: &'s S, tree: TreeRef) -> NodeResult<Self> {
        Self::open(store, None, tree, None)
    }

    /// Open a cursor positioned at the first entry with key ≥ `key`.
    pub fn seek(store: &'s S, tree: TreeRef, key: &[u8]) -> NodeResult<Self> {
        Self::open(store, None, tree, Some(key))
    }

    /// Open a cursor reading nodes through `cache`, at the first entry
    /// with key ≥ `key`, or at the first entry when `key` is `None`.
    pub(crate) fn open(
        store: &'s S,
        cache: Option<&'s NodeCache>,
        tree: TreeRef,
        key: Option<&[u8]>,
    ) -> NodeResult<Self> {
        let mut cursor = LeafCursor {
            store,
            cache,
            path: Vec::new(),
            leaf_ref: None,
            leaf: None,
            entry_idx: 0,
            position_base: 0,
            nodes_loaded: 0,
        };
        let Some(key) = key else {
            cursor.descend_root(tree, DescendTo::First)?;
            return Ok(cursor);
        };
        cursor.descend_root(tree, DescendTo::Key(key))?;
        // Position within the leaf.
        if cursor.leaf_ref.is_some() {
            let (idx, len) = {
                let entries = cursor.load_leaf()?;
                (
                    entries.partition_point(|e| e.key.as_ref() < key),
                    entries.len(),
                )
            };
            cursor.entry_idx = idx;
            if idx == len {
                // Key is greater than everything in this leaf; it can only
                // happen when key > max key of tree (split-key descent
                // otherwise lands in a leaf containing a ≥ key entry).
                cursor.advance_leaf()?;
            }
        }
        Ok(cursor)
    }

    fn descend_root(&mut self, tree: TreeRef, target: DescendTo<'_>) -> NodeResult<()> {
        let root = self.load_node(&tree.root)?;
        if root.level() == 0 {
            let entries = root.entries();
            let split_key = entries.last().map(|e| e.key.clone()).unwrap_or_default();
            self.leaf_ref = Some(IndexEntry::new(split_key, tree.root, entries.len() as u64));
            self.leaf = Some(root);
            self.entry_idx = 0;
        } else {
            self.path.push(PathNode {
                node: root,
                idx: 0,
                hash: tree.root,
            });
            self.descend(target)?;
        }
        Ok(())
    }

    /// Descend from the current deepest path node down to a leaf ref.
    fn descend(&mut self, target: DescendTo<'_>) -> NodeResult<()> {
        loop {
            let top = self.path.last_mut().expect("descend with non-empty path");
            let children = top.node.children();
            let idx = match target {
                DescendTo::First => 0,
                DescendTo::Key(key) => {
                    let i = children.partition_point(|c| c.split_key.as_ref() < key);
                    i.min(children.len() - 1)
                }
            };
            top.idx = idx;
            if let DescendTo::Key(_) = target {
                // position_base accounting only for the siblings we skipped.
                for c in &children[..idx] {
                    self.position_base += c.count;
                }
            }
            if !self.step_down()? {
                return Ok(());
            }
        }
    }

    /// From the path's deepest node, follow the child at its `idx`: to a
    /// lazy leaf ref when that node is level 1 (returns `false`), else by
    /// pushing the child index node onto the path (returns `true`).
    fn step_down(&mut self) -> NodeResult<bool> {
        let top = self.path.last().expect("step_down with non-empty path");
        let child_ref = top.children()[top.idx].clone();
        let level = top.node.level();
        if level == 1 {
            // Children of a level-1 index node are leaves. Do NOT load
            // the leaf here: the ref (split key, hash, count) from the
            // parent suffices for skipping and hash comparison, and
            // `load_leaf` fetches it lazily only when entries are read.
            self.leaf_ref = Some(child_ref);
            self.leaf = None;
            self.entry_idx = 0;
            return Ok(false);
        }
        let child = self.load_node(&child_ref.hash)?;
        if child.level() == 0 {
            return Err(NodeError::Malformed(
                "leaf node below an index node of level > 1".into(),
            ));
        }
        debug_assert_eq!(child.level() + 1, level);
        self.path.push(PathNode {
            node: child,
            idx: 0,
            hash: child_ref.hash,
        });
        Ok(true)
    }

    fn load_node(&mut self, hash: &Hash) -> NodeResult<Arc<Node>> {
        self.nodes_loaded += 1;
        load_node(self.store, self.cache, hash)
    }

    /// Count of nodes fetched so far by this cursor (from the store or
    /// the cache).
    pub fn nodes_loaded(&self) -> u64 {
        self.nodes_loaded
    }

    /// Reference of the current leaf node, or `None` at end of tree.
    pub fn leaf_ref(&self) -> Option<&IndexEntry> {
        self.leaf_ref.as_ref()
    }

    /// Whether the cursor sits at the first entry of its leaf node. A
    /// drained leaf is not a leaf start: after its last entry is consumed
    /// the cursor still rests on it, so alignment tests must call
    /// [`Self::normalize`] first.
    pub fn at_leaf_start(&self) -> bool {
        self.entry_idx == 0
    }

    /// Whether the current leaf is the last leaf node of the tree.
    pub fn leaf_is_last(&self) -> bool {
        self.leaf_ref.is_some() && self.path.iter().all(|p| p.idx + 1 == p.children().len())
    }

    /// Number of leaf entries strictly before the cursor position.
    pub fn position(&self) -> u64 {
        self.position_base + self.entry_idx as u64
    }

    /// Whether the cursor has run off the end of the tree.
    pub fn at_end(&self) -> bool {
        self.leaf_ref.is_none()
    }

    fn load_leaf(&mut self) -> NodeResult<&[LeafEntry]> {
        if self.leaf.is_none() {
            let hash = self
                .leaf_ref
                .as_ref()
                .expect("load_leaf at end of tree")
                .hash;
            let node = self.load_node(&hash)?;
            if node.level() != 0 {
                return Err(NodeError::Malformed(
                    "index node where a leaf was expected".into(),
                ));
            }
            self.leaf = Some(node);
        }
        Ok(self.leaf.as_ref().expect("just loaded").entries())
    }

    /// Advance past any fully-consumed leaf so the cursor either points at
    /// a real entry (at its node's start if the previous node was drained)
    /// or reaches the end. Uses `leaf_ref.count`, so it never decodes the
    /// node being left behind. Every caller that tests alignment
    /// ([`Self::at_leaf_start`], [`Self::at_start_of_ancestor`]) normalizes
    /// first; otherwise a drained leaf hides the next leaf's start.
    pub fn normalize(&mut self) -> NodeResult<()> {
        while let Some(r) = &self.leaf_ref {
            if (self.entry_idx as u64) < r.count {
                break;
            }
            self.advance_leaf()?;
        }
        Ok(())
    }

    /// Borrow the next entry without consuming it.
    pub fn peek(&mut self) -> NodeResult<Option<&LeafEntry>> {
        loop {
            if self.leaf_ref.is_none() {
                return Ok(None);
            }
            let idx = self.entry_idx;
            let len = self.load_leaf()?.len();
            if idx < len {
                // Double lookup to satisfy the borrow checker cheaply.
                return Ok(self.leaf.as_ref().expect("loaded").entries().get(idx));
            }
            self.advance_leaf()?;
        }
    }

    /// Consume and return the next entry.
    pub fn next_entry(&mut self) -> NodeResult<Option<LeafEntry>> {
        loop {
            if self.leaf_ref.is_none() {
                return Ok(None);
            }
            let idx = self.entry_idx;
            let entries = self.load_leaf()?;
            if idx < entries.len() {
                let e = entries[idx].clone();
                self.entry_idx += 1;
                return Ok(Some(e));
            }
            self.advance_leaf()?;
        }
    }

    /// The current leaf's entries from the cursor on, by reference, for
    /// copying a run of them; [`Self::consume`] then moves past the ones
    /// taken. The cursor must be normalized and not at the end.
    pub(crate) fn unread_entries(&mut self) -> NodeResult<&[LeafEntry]> {
        let idx = self.entry_idx;
        Ok(&self.load_leaf()?[idx..])
    }

    /// Move past the next `n` entries, all in the current leaf.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(
            self.leaf
                .as_ref()
                .is_some_and(|l| self.entry_idx + n <= l.entries().len()),
            "consume past the end of the leaf"
        );
        self.entry_idx += n;
    }

    /// Move to the next leaf node **without decoding the current one**.
    /// The cursor must be at a leaf (not at end).
    pub fn skip_leaf(&mut self) -> NodeResult<()> {
        let skipped = self
            .leaf_ref
            .as_ref()
            .expect("skip_leaf at end of tree")
            .count;
        self.position_base += skipped;
        // Consume any partial progress accounting: skip_leaf is only legal
        // from the node start (callers splice whole nodes).
        debug_assert!(self.at_leaf_start(), "skip_leaf mid-node");
        self.advance_leaf_inner()
    }

    /// Advance past the (fully consumed) current leaf.
    fn advance_leaf(&mut self) -> NodeResult<()> {
        let consumed = self.leaf_ref.as_ref().expect("advance_leaf at end").count;
        self.position_base += consumed;
        self.advance_leaf_inner()
    }

    fn advance_leaf_inner(&mut self) -> NodeResult<()> {
        self.leaf = None;
        self.leaf_ref = None;
        self.entry_idx = 0;
        self.climb_to_next_sibling()
    }

    /// Pop path nodes until one has a next sibling child, step to it, and
    /// walk down to its leftmost leaf ref, loading only interior index
    /// nodes (leaves stay lazy). An empty path means the end of the tree.
    fn climb_to_next_sibling(&mut self) -> NodeResult<()> {
        loop {
            let Some(top) = self.path.last_mut() else {
                return Ok(()); // root was a leaf, or tree exhausted
            };
            if top.idx + 1 < top.children().len() {
                top.idx += 1;
                break;
            }
            self.path.pop();
        }
        while self.step_down()? {}
        Ok(())
    }

    /// Hash of the ancestor node `levels_up` levels above the leaf
    /// (0 = the leaf itself). `None` if no such ancestor exists.
    pub fn ancestor_hash(&self, levels_up: usize) -> Option<Hash> {
        if levels_up == 0 {
            return self.leaf_ref.as_ref().map(|r| r.hash);
        }
        if levels_up > self.path.len() {
            return None;
        }
        Some(self.path[self.path.len() - levels_up].hash)
    }

    /// Whether the cursor sits at the very first entry of the subtree
    /// rooted `levels_up` levels above the leaf.
    pub fn at_start_of_ancestor(&self, levels_up: usize) -> bool {
        if !self.at_leaf_start() || self.leaf_ref.is_none() {
            return false;
        }
        if levels_up > self.path.len() {
            return false;
        }
        let from = self.path.len() - levels_up;
        self.path[from..].iter().all(|p| p.idx == 0)
    }

    /// Number of leaf entries under the ancestor `levels_up` above the leaf.
    pub fn ancestor_count(&self, levels_up: usize) -> Option<u64> {
        if levels_up == 0 {
            return self.leaf_ref.as_ref().map(|r| r.count);
        }
        if levels_up > self.path.len() {
            return None;
        }
        let node = &self.path[self.path.len() - levels_up];
        Some(node.children().iter().map(|c| c.count).sum())
    }

    /// Skip the entire subtree rooted `levels_up` levels above the current
    /// leaf. Requires [`Self::at_start_of_ancestor`]`(levels_up)`.
    pub fn skip_subtree(&mut self, levels_up: usize) -> NodeResult<()> {
        if levels_up == 0 {
            return self.skip_leaf();
        }
        debug_assert!(self.at_start_of_ancestor(levels_up));
        let count = self.ancestor_count(levels_up).expect("ancestor exists");
        self.position_base += count;
        // Drop the path from the ancestor down — we skip it wholesale —
        // then advance from the ancestor's parent.
        self.path.truncate(self.path.len() - levels_up);
        self.leaf = None;
        self.leaf_ref = None;
        self.entry_idx = 0;
        self.climb_to_next_sibling()
    }

    /// Decode and return every not-yet-consumed entry of the current leaf,
    /// advancing the cursor to the next leaf node — the chunk-at-a-time
    /// read. Returns `None` at end of tree. Memory cost is one decoded
    /// leaf node, never the whole tree.
    pub fn take_leaf(&mut self) -> NodeResult<Option<Vec<LeafEntry>>> {
        loop {
            if self.leaf_ref.is_none() {
                return Ok(None);
            }
            let idx = self.entry_idx;
            let entries = self.load_leaf()?;
            if idx < entries.len() {
                let out = entries[idx..].to_vec();
                self.advance_leaf()?;
                return Ok(Some(out));
            }
            self.advance_leaf()?;
        }
    }

    /// Collect every remaining entry (test helper; O(N)).
    pub fn drain(&mut self) -> NodeResult<Vec<LeafEntry>> {
        let mut out = Vec::new();
        while let Some(e) = self.next_entry()? {
            out.push(e);
        }
        Ok(out)
    }
}

/// The public streaming cursor over a POS-Tree's leaf entries.
///
/// Where [`LeafCursor`] exposes node-level navigation for the splice and
/// diff machinery, `TreeCursor` is the stable read surface higher layers
/// build scans on: open at the start ([`TreeCursor::new`]) or at a key
/// ([`TreeCursor::seek`]), then pull entries one at a time
/// ([`TreeCursor::next_entry`]) or a whole leaf node at a time
/// ([`TreeCursor::next_leaf`]). Either way the cursor holds at most one
/// decoded leaf in memory — scans over arbitrarily large trees run in
/// O(chunk) space, not O(tree). [`crate::PosMap::cursor`] opens one that
/// reads through the map's node cache.
pub struct TreeCursor<'s, S> {
    inner: LeafCursor<'s, S>,
}

impl<'s, S: ChunkStore> TreeCursor<'s, S> {
    /// Open a cursor at the first entry of `tree`.
    pub fn new(store: &'s S, tree: TreeRef) -> NodeResult<Self> {
        Ok(TreeCursor {
            inner: LeafCursor::new(store, tree)?,
        })
    }

    /// Open a cursor positioned at the first entry with key ≥ `key`.
    pub fn seek(store: &'s S, tree: TreeRef, key: &[u8]) -> NodeResult<Self> {
        Ok(TreeCursor {
            inner: LeafCursor::seek(store, tree, key)?,
        })
    }

    pub(crate) fn from_leaf_cursor(inner: LeafCursor<'s, S>) -> Self {
        TreeCursor { inner }
    }

    /// Borrow the next entry without consuming it.
    pub fn peek(&mut self) -> NodeResult<Option<&LeafEntry>> {
        self.inner.peek()
    }

    /// Consume and return the next entry.
    pub fn next_entry(&mut self) -> NodeResult<Option<LeafEntry>> {
        self.inner.next_entry()
    }

    /// Consume and return all remaining entries of the current leaf node
    /// (chunk-at-a-time). `None` at end of tree.
    pub fn next_leaf(&mut self) -> NodeResult<Option<Vec<LeafEntry>>> {
        self.inner.take_leaf()
    }

    /// Number of leaf entries strictly before the cursor position.
    pub fn position(&self) -> u64 {
        self.inner.position()
    }

    /// Whether the cursor has run off the end of the tree.
    pub fn at_end(&self) -> bool {
        self.inner.at_end()
    }

    /// Total nodes decoded so far (complexity accounting).
    pub fn nodes_loaded(&self) -> u64 {
        self.inner.nodes_loaded()
    }
}

enum DescendTo<'a> {
    First,
    Key(&'a [u8]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use bytes::Bytes;
    use forkbase_chunk::ChunkerConfig;
    use forkbase_store::MemStore;

    fn entry(i: u32) -> LeafEntry {
        LeafEntry::new(
            Bytes::from(format!("key-{i:08}")),
            Bytes::from(format!("value-{i}")),
        )
    }

    fn build(store: &MemStore, n: u32) -> TreeRef {
        let mut b = TreeBuilder::new(store, ChunkerConfig::test_small());
        for i in 0..n {
            b.push(entry(i)).unwrap();
        }
        let t = b.finish().unwrap();
        TreeRef::new(t.hash, t.count)
    }

    #[test]
    fn iterates_all_entries_in_order() {
        let store = MemStore::new();
        let tree = build(&store, 3000);
        let mut cursor = LeafCursor::new(&store, tree).unwrap();
        let all = cursor.drain().unwrap();
        assert_eq!(all.len(), 3000);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e, &entry(i as u32));
        }
        assert!(cursor.at_end());
        assert_eq!(cursor.position(), 3000);
    }

    #[test]
    fn empty_tree_cursor() {
        let store = MemStore::new();
        let tree = build(&store, 0);
        let mut cursor = LeafCursor::new(&store, tree).unwrap();
        // An empty root leaf still reports a leaf_ref with count 0 until a
        // read walks off the end.
        assert!(cursor.leaf_ref().is_some());
        assert!(cursor.leaf_is_last());
        assert_eq!(cursor.peek().unwrap(), None);
        assert_eq!(cursor.next_entry().unwrap(), None);
        assert!(cursor.at_end());
    }

    #[test]
    fn seek_positions_at_lower_bound() {
        let store = MemStore::new();
        let tree = build(&store, 1000);
        // Exact hit.
        let mut c = LeafCursor::seek(&store, tree, format!("key-{:08}", 500).as_bytes()).unwrap();
        assert_eq!(c.peek().unwrap().unwrap(), &entry(500));
        assert_eq!(c.position(), 500);
        // Between keys: "key-00000500x" sorts after 500, before 501.
        let mut c = LeafCursor::seek(&store, tree, b"key-00000500x").unwrap();
        assert_eq!(c.peek().unwrap().unwrap(), &entry(501));
        // Before everything.
        let mut c = LeafCursor::seek(&store, tree, b"a").unwrap();
        assert_eq!(c.peek().unwrap().unwrap(), &entry(0));
        // After everything.
        let mut c = LeafCursor::seek(&store, tree, b"z").unwrap();
        assert_eq!(c.peek().unwrap(), None);
    }

    #[test]
    fn skip_leaf_matches_entrywise_advance() {
        let store = MemStore::new();
        let tree = build(&store, 2000);
        let mut by_skip = LeafCursor::new(&store, tree).unwrap();
        let mut by_entry = LeafCursor::new(&store, tree).unwrap();
        // Skip the first two leaf nodes on one cursor; advance the same
        // number of entries on the other.
        let n1 = by_skip.leaf_ref().unwrap().count;
        by_skip.skip_leaf().unwrap();
        let n2 = by_skip.leaf_ref().unwrap().count;
        by_skip.skip_leaf().unwrap();
        for _ in 0..(n1 + n2) {
            by_entry.next_entry().unwrap().unwrap();
        }
        assert_eq!(by_skip.position(), by_entry.position());
        assert_eq!(
            by_skip.peek().unwrap().cloned(),
            by_entry.peek().unwrap().cloned()
        );
    }

    #[test]
    fn leaf_is_last_detection() {
        let store = MemStore::new();
        let tree = build(&store, 2000);
        let mut c = LeafCursor::new(&store, tree).unwrap();
        assert!(!c.leaf_is_last(), "first leaf of a big tree is not last");
        // Walk to the end.
        let mut last_flag_seen = false;
        while c.leaf_ref().is_some() {
            if c.leaf_is_last() {
                last_flag_seen = true;
                // Everything after this point stays within the final leaf.
                let count = c.leaf_ref().unwrap().count;
                for _ in 0..count {
                    assert!(c.next_entry().unwrap().is_some());
                }
                assert!(c.next_entry().unwrap().is_none());
                break;
            }
            c.skip_leaf().unwrap();
        }
        assert!(last_flag_seen);
    }

    #[test]
    fn ancestor_alignment_and_skip() {
        let store = MemStore::new();
        let tree = build(&store, 5000);
        let mut c = LeafCursor::new(&store, tree).unwrap();
        // At the very start, the cursor is aligned with every ancestor.
        assert!(c.at_start_of_ancestor(0));
        let height = {
            let root = Node::load(&store, &tree.root).unwrap();
            root.level() as usize
        };
        assert!(height >= 2);
        assert!(c.at_start_of_ancestor(height), "aligned with root");
        assert_eq!(c.ancestor_count(height), Some(5000));
        assert_eq!(c.ancestor_hash(height), Some(tree.root));

        // Skip the first level-1 subtree and check position advanced by its
        // count while a fresh cursor agrees on the entry.
        let sub_count = c.ancestor_count(1).unwrap();
        c.skip_subtree(1).unwrap();
        assert_eq!(c.position(), sub_count);
        let mut fresh = LeafCursor::new(&store, tree).unwrap();
        for _ in 0..sub_count {
            fresh.next_entry().unwrap().unwrap();
        }
        assert_eq!(c.peek().unwrap().cloned(), fresh.peek().unwrap().cloned());
    }

    #[test]
    fn skip_root_subtree_exhausts() {
        let store = MemStore::new();
        let tree = build(&store, 5000);
        let mut c = LeafCursor::new(&store, tree).unwrap();
        let height = Node::load(&store, &tree.root).unwrap().level() as usize;
        c.skip_subtree(height).unwrap();
        assert!(c.at_end());
        assert_eq!(c.position(), 5000);
    }

    #[test]
    fn mid_leaf_is_not_aligned() {
        let store = MemStore::new();
        let tree = build(&store, 2000);
        let mut c = LeafCursor::new(&store, tree).unwrap();
        c.next_entry().unwrap().unwrap();
        assert!(!c.at_leaf_start());
        assert!(!c.at_start_of_ancestor(0));
        assert!(!c.at_start_of_ancestor(1));
    }

    #[test]
    fn tree_cursor_leaf_at_a_time_matches_entrywise() {
        let store = MemStore::new();
        let tree = build(&store, 3000);
        let mut by_leaf = TreeCursor::new(&store, tree).unwrap();
        let mut by_entry = TreeCursor::new(&store, tree).unwrap();
        let mut leaves = 0usize;
        while let Some(chunk) = by_leaf.next_leaf().unwrap() {
            assert!(!chunk.is_empty());
            leaves += 1;
            for e in chunk {
                assert_eq!(Some(e), by_entry.next_entry().unwrap());
            }
            assert_eq!(by_leaf.position(), by_entry.position());
        }
        assert!(leaves > 1, "3000 entries span multiple leaves");
        assert_eq!(by_entry.next_entry().unwrap(), None);
        assert_eq!(by_leaf.position(), 3000);
    }

    #[test]
    fn tree_cursor_seek_then_next_leaf() {
        let store = MemStore::new();
        let tree = build(&store, 2000);
        // Seek mid-tree: the first returned leaf starts exactly at the
        // sought entry, not at its node's start.
        let mut c = TreeCursor::seek(&store, tree, format!("key-{:08}", 777).as_bytes()).unwrap();
        assert_eq!(c.position(), 777);
        let chunk = c.next_leaf().unwrap().unwrap();
        assert_eq!(chunk[0], entry(777));
        // Draining the rest yields every remaining entry in order.
        let mut next = 777 + chunk.len() as u32;
        while let Some(chunk) = c.next_leaf().unwrap() {
            for e in chunk {
                assert_eq!(e, entry(next));
                next += 1;
            }
        }
        assert_eq!(next, 2000);
    }

    #[test]
    fn node_loads_are_counted() {
        let store = MemStore::new();
        let tree = build(&store, 2000);
        let mut c = LeafCursor::new(&store, tree).unwrap();
        let initial = c.nodes_loaded();
        assert!(initial >= 2, "root + first leaf at least");
        c.drain().unwrap();
        assert!(c.nodes_loaded() > initial);
    }
}
