//! `PosList`: positional sequences over a POS-Tree.
//!
//! Elements are arbitrary byte strings addressed by index. Leaf entries use
//! empty keys; index entries carry subtree element counts, so positional
//! access descends by count in `O(log N)`. Splices re-use unchanged leaf
//! nodes exactly like map updates do.

use bytes::Bytes;
use forkbase_chunk::ChunkerConfig;
use forkbase_store::ChunkStore;

use crate::builder::{TreeBuilder, Until};
use crate::cursor::LeafCursor;
use crate::node::{LeafEntry, Node, NodeResult};
use crate::TreeRef;

/// An immutable positional list stored as a POS-Tree.
pub struct PosList<'s, S> {
    store: &'s S,
    cfg: ChunkerConfig,
    tree: TreeRef,
}

impl<'s, S> Clone for PosList<'s, S> {
    fn clone(&self) -> Self {
        PosList {
            store: self.store,
            cfg: self.cfg,
            tree: self.tree,
        }
    }
}

impl<'s, S: ChunkStore> PosList<'s, S> {
    /// Create an empty list.
    pub fn empty(store: &'s S, cfg: ChunkerConfig) -> NodeResult<Self> {
        let finished = TreeBuilder::new(store, cfg).finish()?;
        Ok(PosList {
            store,
            cfg,
            tree: TreeRef::new(finished.hash, 0),
        })
    }

    /// Open an existing list by reference.
    pub fn open(store: &'s S, cfg: ChunkerConfig, tree: TreeRef) -> Self {
        PosList { store, cfg, tree }
    }

    /// Build from elements in order.
    pub fn build(
        store: &'s S,
        cfg: ChunkerConfig,
        elements: impl IntoIterator<Item = Bytes>,
    ) -> NodeResult<Self> {
        let mut builder = TreeBuilder::new(store, cfg);
        for el in elements {
            builder.push(LeafEntry::new(Bytes::new(), el))?;
        }
        let finished = builder.finish()?;
        Ok(PosList {
            store,
            cfg,
            tree: TreeRef::new(finished.hash, finished.count),
        })
    }

    /// The tree reference.
    pub fn tree(&self) -> TreeRef {
        self.tree
    }

    /// The backing store.
    pub fn store_ref(&self) -> &'s S {
        self.store
    }

    /// Root hash.
    pub fn root(&self) -> forkbase_crypto::Hash {
        self.tree.root
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.tree.count
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.count == 0
    }

    /// Element at `idx`, or `None` past the end. `O(log N)`.
    pub fn get(&self, mut idx: u64) -> NodeResult<Option<Bytes>> {
        if idx >= self.tree.count {
            return Ok(None);
        }
        let mut node = Node::load(self.store, &self.tree.root)?;
        loop {
            match node {
                Node::Leaf(entries) => {
                    return Ok(entries.get(idx as usize).map(|e| e.value.clone()));
                }
                Node::Index { children, .. } => {
                    let mut next = None;
                    for c in &children {
                        if idx < c.count {
                            next = Some(c.hash);
                            break;
                        }
                        idx -= c.count;
                    }
                    let hash = next.expect("index within subtree count");
                    node = Node::load(self.store, &hash)?;
                }
            }
        }
    }

    /// Iterate all elements in order.
    pub fn iter(&self) -> NodeResult<ListIter<'s, S>> {
        Ok(ListIter {
            cursor: LeafCursor::new(self.store, self.tree)?,
        })
    }

    /// Collect all elements (test/export helper; O(N)).
    pub fn to_vec(&self) -> NodeResult<Vec<Bytes>> {
        let mut out = Vec::with_capacity(self.tree.count as usize);
        for item in self.iter()? {
            out.push(item?);
        }
        Ok(out)
    }

    /// Replace the `remove` elements starting at `start` with `insert`
    /// (both clamped to the list length), returning the new list.
    ///
    /// The lead and the tail are copied by the builder's resync loop: whole
    /// leaves are spliced by reference wherever the new chunk boundaries
    /// line up with the old ones — before `start`, and again a leaf or two
    /// after the insertion — so only the leaves around the splice are
    /// decoded and re-hashed.
    pub fn splice(
        &self,
        start: u64,
        remove: u64,
        insert: impl IntoIterator<Item = Bytes>,
    ) -> NodeResult<Self> {
        let start = start.min(self.tree.count);
        let remove = remove.min(self.tree.count - start);

        let mut cursor = LeafCursor::new(self.store, self.tree)?;
        let mut builder = TreeBuilder::new(self.store, self.cfg);
        builder.copy_from(&mut cursor, Until::Position(start))?;
        for _ in 0..remove {
            cursor.next_entry()?;
        }
        for el in insert {
            builder.push(LeafEntry::new(Bytes::new(), el))?;
        }
        builder.copy_from(&mut cursor, Until::End)?;
        let finished = builder.finish()?;
        Ok(PosList {
            store: self.store,
            cfg: self.cfg,
            tree: TreeRef::new(finished.hash, finished.count),
        })
    }

    /// Append one element.
    pub fn push_back(&self, element: Bytes) -> NodeResult<Self> {
        self.splice(self.tree.count, 0, [element])
    }
}

/// Iterator over list elements.
pub struct ListIter<'s, S> {
    cursor: LeafCursor<'s, S>,
}

impl<'s, S: ChunkStore> Iterator for ListIter<'s, S> {
    type Item = NodeResult<Bytes>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.cursor.next_entry() {
            Err(e) => Some(Err(e)),
            Ok(None) => None,
            Ok(Some(entry)) => Some(Ok(entry.value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::{ChunkStore, MemStore};

    fn cfg() -> ChunkerConfig {
        ChunkerConfig::test_small()
    }

    fn el(i: u32) -> Bytes {
        Bytes::from(format!("element-{i:06}"))
    }

    fn sample(store: &MemStore, n: u32) -> PosList<'_, MemStore> {
        PosList::build(store, cfg(), (0..n).map(el)).unwrap()
    }

    #[test]
    fn empty_list() {
        let store = MemStore::new();
        let l = PosList::empty(&store, cfg()).unwrap();
        assert!(l.is_empty());
        assert_eq!(l.get(0).unwrap(), None);
        assert_eq!(l.to_vec().unwrap(), Vec::<Bytes>::new());
    }

    #[test]
    fn get_every_position() {
        let store = MemStore::new();
        let l = sample(&store, 2000);
        assert_eq!(l.len(), 2000);
        for i in (0..2000).step_by(101) {
            assert_eq!(l.get(i as u64).unwrap(), Some(el(i)), "index {i}");
        }
        assert_eq!(l.get(2000).unwrap(), None);
    }

    #[test]
    fn iteration_order() {
        let store = MemStore::new();
        let l = sample(&store, 1000);
        let v = l.to_vec().unwrap();
        assert_eq!(v.len(), 1000);
        for (i, e) in v.iter().enumerate() {
            assert_eq!(e, &el(i as u32));
        }
    }

    #[test]
    fn deterministic_roots() {
        let s1 = MemStore::new();
        let s2 = MemStore::new();
        assert_eq!(sample(&s1, 1234).root(), sample(&s2, 1234).root());
    }

    #[test]
    fn splice_insert_middle() {
        let store = MemStore::new();
        let l = sample(&store, 1000);
        let l2 = l
            .splice(500, 0, [Bytes::from_static(b"X"), Bytes::from_static(b"Y")])
            .unwrap();
        assert_eq!(l2.len(), 1002);
        assert_eq!(l2.get(499).unwrap(), Some(el(499)));
        assert_eq!(l2.get(500).unwrap(), Some(Bytes::from_static(b"X")));
        assert_eq!(l2.get(501).unwrap(), Some(Bytes::from_static(b"Y")));
        assert_eq!(l2.get(502).unwrap(), Some(el(500)));
        // Original unchanged.
        assert_eq!(l.len(), 1000);
    }

    #[test]
    fn splice_remove_and_replace() {
        let store = MemStore::new();
        let l = sample(&store, 100);
        let l2 = l.splice(10, 5, [Bytes::from_static(b"R")]).unwrap();
        assert_eq!(l2.len(), 96);
        assert_eq!(l2.get(9).unwrap(), Some(el(9)));
        assert_eq!(l2.get(10).unwrap(), Some(Bytes::from_static(b"R")));
        assert_eq!(l2.get(11).unwrap(), Some(el(15)));
    }

    #[test]
    fn splice_equals_rebuild() {
        // Structural invariance for lists: splice == build of the result.
        let store = MemStore::new();
        let l = sample(&store, 1500);
        let l2 = l
            .splice(700, 3, [Bytes::from_static(b"a"), Bytes::from_static(b"b")])
            .unwrap();
        let mut model: Vec<Bytes> = (0..1500).map(el).collect();
        model.splice(
            700..703,
            [Bytes::from_static(b"a"), Bytes::from_static(b"b")],
        );
        let rebuilt = PosList::build(&store, cfg(), model).unwrap();
        assert_eq!(l2.root(), rebuilt.root());
    }

    #[test]
    fn splice_reuses_pages() {
        let store = MemStore::new();
        let l = sample(&store, 20_000);
        let before = store.chunk_count();
        let _l2 = l.splice(10_000, 1, [Bytes::from_static(b"mid")]).unwrap();
        let new_pages = store.chunk_count() - before;
        assert!(new_pages <= 12, "splice created {new_pages} pages");
    }

    #[test]
    fn push_back_appends() {
        let store = MemStore::new();
        let l = sample(&store, 10);
        let l2 = l.push_back(Bytes::from_static(b"tail")).unwrap();
        assert_eq!(l2.len(), 11);
        assert_eq!(l2.get(10).unwrap(), Some(Bytes::from_static(b"tail")));
        // Equals a rebuild.
        let mut model: Vec<Bytes> = (0..10).map(el).collect();
        model.push(Bytes::from_static(b"tail"));
        let rebuilt = PosList::build(&store, cfg(), model).unwrap();
        assert_eq!(l2.root(), rebuilt.root());
    }

    #[test]
    fn splice_clamps_out_of_range() {
        let store = MemStore::new();
        let l = sample(&store, 10);
        let l2 = l.splice(100, 100, [Bytes::from_static(b"end")]).unwrap();
        assert_eq!(l2.len(), 11);
        assert_eq!(l2.get(10).unwrap(), Some(Bytes::from_static(b"end")));
    }
}
