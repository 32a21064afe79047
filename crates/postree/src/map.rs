//! `PosMap`: the ordered map over a POS-Tree.
//!
//! This is the workhorse value type — sets, relational tables and the
//! branch-head catalogue are all maps underneath. Keys and values are
//! arbitrary byte strings; keys are unique and ordered lexicographically.
//!
//! Updates go through [`PosMap::apply`], a batch splice that rebuilds only
//! the chunk-neighbourhood of each edit. Before each edit, and after the
//! last, the builder's resync loop (`TreeBuilder::copy_from`) copies the
//! old tree up to the edit: wherever the builder stands at a leaf boundary
//! and the cursor at a leaf start, the whole leaf is spliced in by
//! reference (no decode, no re-hash); elsewhere the old leaf's entries
//! are appended to the new page as one run, with the edits pushed between
//! runs, and re-chunked by one scan of the run's bytes. Reset-on-cut
//! chunking makes the new
//! boundary sequence converge back onto the old one within a leaf or two
//! of each edit, and splicing resumes there.
//!
//! Cost of a batch that touches `T` leaves: time `O(T × leaf bytes + leaf
//! refs)` — touched leaves are decoded, re-chunked and re-hashed, every
//! other leaf is one reference pushed through the rebuilt index levels.
//! Unchanged pages are re-used, not re-written, so a single-record update
//! to an `N`-record map allocates `O(log N)` new pages: exactly SIRI
//! property (2), *recursively identical* (paper Def. 1).

use bytes::Bytes;
use forkbase_chunk::ChunkerConfig;
use forkbase_store::ChunkStore;

use crate::builder::{TreeBuilder, Until};
use crate::cache::{load_node, NodeCache};
use crate::cursor::{LeafCursor, TreeCursor};
use crate::diff::{diff_in, MapDiff};
use crate::node::{LeafEntry, Node, NodeResult};
use crate::TreeRef;

/// One edit in a batch: `value: None` deletes the key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapEdit {
    /// Key to insert, replace, or delete.
    pub key: Bytes,
    /// New value, or `None` to delete.
    pub value: Option<Bytes>,
}

impl MapEdit {
    /// Insert or replace `key` with `value`.
    pub fn put(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        MapEdit {
            key: key.into(),
            value: Some(value.into()),
        }
    }

    /// Delete `key`.
    pub fn delete(key: impl Into<Bytes>) -> Self {
        MapEdit {
            key: key.into(),
            value: None,
        }
    }
}

/// An immutable ordered map stored as a POS-Tree.
///
/// `PosMap` is a *handle*: cheap to copy, tied to a store reference. All
/// mutating operations return a new `PosMap`; old versions stay readable
/// forever (immutability is what the whole versioning model rests on).
///
/// A handle given a [`NodeCache`] ([`Self::with_cache`]) reads nodes
/// through it — lookups, iteration, [`Self::apply`], [`Self::diff`] and
/// merge — and [`Self::apply`] adds the nodes it builds once the store
/// has them. Maps derived from a cached handle share its cache.
pub struct PosMap<'s, S> {
    store: &'s S,
    cfg: ChunkerConfig,
    tree: TreeRef,
    cache: Option<&'s NodeCache>,
}

impl<'s, S> Clone for PosMap<'s, S> {
    fn clone(&self) -> Self {
        PosMap {
            store: self.store,
            cfg: self.cfg,
            tree: self.tree,
            cache: self.cache,
        }
    }
}

impl<'s, S: ChunkStore> PosMap<'s, S> {
    /// Create an empty map.
    pub fn empty(store: &'s S, cfg: ChunkerConfig) -> NodeResult<Self> {
        let finished = TreeBuilder::new(store, cfg).finish()?;
        Ok(PosMap {
            store,
            cfg,
            tree: TreeRef::new(finished.hash, 0),
            cache: None,
        })
    }

    /// Open an existing tree by reference.
    pub fn open(store: &'s S, cfg: ChunkerConfig, tree: TreeRef) -> Self {
        PosMap {
            store,
            cfg,
            tree,
            cache: None,
        }
    }

    /// Read nodes through `cache`. [`Self::apply`] puts nothing in it: a
    /// page it wrote enters when it is first read.
    #[must_use = "returns the cached handle; the original is consumed"]
    pub fn with_cache(mut self, cache: &'s NodeCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Bulk-build from an iterator of key-ordered, de-duplicated entries.
    ///
    /// Panics in debug builds if the order is violated.
    pub fn build_from_sorted(
        store: &'s S,
        cfg: ChunkerConfig,
        entries: impl IntoIterator<Item = (Bytes, Bytes)>,
    ) -> NodeResult<Self> {
        let mut builder = TreeBuilder::new(store, cfg);
        let mut prev: Option<Bytes> = None;
        for (key, value) in entries {
            if let Some(p) = &prev {
                debug_assert!(
                    p < &key,
                    "build_from_sorted requires strictly ascending keys"
                );
            }
            prev = Some(key.clone());
            builder.push(LeafEntry::new(key, value))?;
        }
        let finished = builder.finish()?;
        Ok(PosMap {
            store,
            cfg,
            tree: TreeRef::new(finished.hash, finished.count),
            cache: None,
        })
    }

    /// Bulk-build from unsorted pairs (sorts and keeps the last value per
    /// key).
    pub fn build_from_pairs(
        store: &'s S,
        cfg: ChunkerConfig,
        mut pairs: Vec<(Bytes, Bytes)>,
    ) -> NodeResult<Self> {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.reverse();
        pairs.dedup_by(|a, b| a.0 == b.0); // keeps first of reversed = last of original
        pairs.reverse();
        Self::build_from_sorted(store, cfg, pairs)
    }

    /// The tree reference (root hash + count).
    pub fn tree(&self) -> TreeRef {
        self.tree
    }

    /// Root hash; equal roots ⟺ equal contents (structural invariance).
    pub fn root(&self) -> forkbase_crypto::Hash {
        self.tree.root
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.tree.count
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.tree.count == 0
    }

    /// The chunker configuration.
    pub fn config(&self) -> ChunkerConfig {
        self.cfg
    }

    /// The backing store.
    pub fn store(&self) -> &'s S {
        self.store
    }

    /// Point lookup: `O(log N)` node fetches.
    pub fn get(&self, key: &[u8]) -> NodeResult<Option<Bytes>> {
        let mut node = load_node(self.store, self.cache, &self.tree.root)?;
        loop {
            let child = match &*node {
                Node::Leaf(entries) => {
                    return Ok(entries
                        .binary_search_by(|e| e.key.as_ref().cmp(key))
                        .ok()
                        .map(|i| entries[i].value.clone()));
                }
                Node::Index { children, .. } => {
                    let idx = children.partition_point(|c| c.split_key.as_ref() < key);
                    if idx == children.len() {
                        return Ok(None); // key beyond the maximum
                    }
                    children[idx].hash
                }
            };
            node = load_node(self.store, self.cache, &child)?;
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &[u8]) -> NodeResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Iterate all entries in key order.
    pub fn iter(&self) -> NodeResult<MapIter<'s, S>> {
        self.range(None, None)
    }

    /// Iterate entries with `start ≤ key < end` (either bound optional).
    pub fn range(&self, start: Option<&[u8]>, end: Option<&[u8]>) -> NodeResult<MapIter<'s, S>> {
        Ok(MapIter {
            cursor: self.leaf_cursor(start)?,
            end: end.map(Bytes::copy_from_slice),
        })
    }

    /// A streaming cursor at the first entry with key ≥ `start` (at the
    /// first entry when `start` is `None`), reading through this map's
    /// cache.
    pub fn cursor(&self, start: Option<&[u8]>) -> NodeResult<TreeCursor<'s, S>> {
        Ok(TreeCursor::from_leaf_cursor(self.leaf_cursor(start)?))
    }

    fn leaf_cursor(&self, start: Option<&[u8]>) -> NodeResult<LeafCursor<'s, S>> {
        LeafCursor::open(self.store, self.cache, self.tree, start)
    }

    /// The differences from this map to `to`, read through this map's
    /// cache (see [`crate::diff::diff_maps`]).
    pub fn diff(&self, to: TreeRef) -> NodeResult<MapDiff> {
        diff_in(self.store, self.cache, self.tree, to)
    }

    /// Apply a batch of edits, returning the updated map. See module docs
    /// for the splice algorithm. Edits need not be sorted; on duplicate
    /// keys the **last** edit wins.
    pub fn apply(&self, edits: impl IntoIterator<Item = MapEdit>) -> NodeResult<Self> {
        let mut edits: Vec<MapEdit> = edits.into_iter().collect();
        if edits.is_empty() {
            return Ok(self.clone());
        }
        // Stable sort + keep last per key.
        edits.sort_by(|a, b| a.key.cmp(&b.key));
        edits.reverse();
        edits.dedup_by(|a, b| a.key == b.key);
        edits.reverse();

        let mut cursor = self.leaf_cursor(None)?;
        let mut builder = TreeBuilder::new(self.store, self.cfg);
        for edit in &edits {
            builder.copy_from(&mut cursor, Until::Key(&edit.key))?;
            // Drop the old value, then emit the new one (none for deletes).
            if cursor.peek()?.is_some_and(|e| e.key == edit.key) {
                cursor.consume(1);
            }
            if let Some(v) = &edit.value {
                builder.push(LeafEntry::new(edit.key.clone(), v.clone()))?;
            }
        }
        builder.copy_from(&mut cursor, Until::End)?;
        let finished = builder.finish()?;
        Ok(PosMap {
            store: self.store,
            cfg: self.cfg,
            tree: TreeRef::new(finished.hash, finished.count),
            cache: self.cache,
        })
    }

    /// Insert or replace a single key.
    pub fn insert(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> NodeResult<Self> {
        self.apply([MapEdit::put(key, value)])
    }

    /// Remove a single key (no-op if absent).
    pub fn remove(&self, key: impl Into<Bytes>) -> NodeResult<Self> {
        self.apply([MapEdit::delete(key)])
    }

    /// Collect everything into a `Vec` (test/export helper; O(N)).
    pub fn to_vec(&self) -> NodeResult<Vec<(Bytes, Bytes)>> {
        let mut out = Vec::with_capacity(self.tree.count as usize);
        for item in self.iter()? {
            let e = item?;
            out.push((e.key, e.value));
        }
        Ok(out)
    }
}

/// Iterator over map entries; yields `NodeResult<LeafEntry>` because node
/// fetches can fail.
pub struct MapIter<'s, S> {
    cursor: LeafCursor<'s, S>,
    end: Option<Bytes>,
}

impl<'s, S: ChunkStore> Iterator for MapIter<'s, S> {
    type Item = NodeResult<LeafEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.cursor.next_entry() {
            Err(e) => Some(Err(e)),
            Ok(None) => None,
            Ok(Some(entry)) => {
                if let Some(end) = &self.end {
                    if entry.key.as_ref() >= end.as_ref() {
                        return None;
                    }
                }
                Some(Ok(entry))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::MemStore;
    use std::collections::BTreeMap;

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
    fn empty_map_basics() {
        let store = MemStore::new();
        let m = PosMap::empty(&store, cfg()).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(b"anything").unwrap(), None);
        assert_eq!(m.to_vec().unwrap(), vec![]);
    }

    #[test]
    fn get_finds_every_key() {
        let store = MemStore::new();
        let m = sample(&store, 2000);
        for i in (0..2000).step_by(97) {
            assert_eq!(m.get(&k(i)).unwrap(), Some(v(i)), "key {i}");
        }
        assert_eq!(m.get(b"absent").unwrap(), None);
        assert_eq!(m.get(&k(2000)).unwrap(), None, "beyond max");
        assert!(m.contains(&k(0)).unwrap());
    }

    #[test]
    fn iter_is_ordered_and_complete() {
        let store = MemStore::new();
        let m = sample(&store, 1500);
        let all = m.to_vec().unwrap();
        assert_eq!(all.len(), 1500);
        for (i, (key, value)) in all.iter().enumerate() {
            assert_eq!(key, &k(i as u32));
            assert_eq!(value, &v(i as u32));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let store = MemStore::new();
        let m = sample(&store, 1000);
        let got: Vec<_> = m
            .range(Some(&k(100)), Some(&k(110)))
            .unwrap()
            .map(|e| e.unwrap().key)
            .collect();
        assert_eq!(got, (100..110).map(k).collect::<Vec<_>>());
        // Open-ended.
        let from_990: Vec<_> = m
            .range(Some(&k(990)), None)
            .unwrap()
            .map(|e| e.unwrap().key)
            .collect();
        assert_eq!(from_990.len(), 10);
        let until_5: Vec<_> = m
            .range(None, Some(&k(5)))
            .unwrap()
            .map(|e| e.unwrap().key)
            .collect();
        assert_eq!(until_5.len(), 5);
    }

    #[test]
    fn build_from_pairs_dedups_last_wins() {
        let store = MemStore::new();
        let m = PosMap::build_from_pairs(
            &store,
            cfg(),
            vec![
                (k(1), v(1)),
                (k(0), v(0)),
                (k(1), Bytes::from_static(b"winner")),
            ],
        )
        .unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&k(1)).unwrap(), Some(Bytes::from_static(b"winner")));
    }

    #[test]
    fn apply_insert_update_delete() {
        let store = MemStore::new();
        let m = sample(&store, 1000);
        let m2 = m
            .apply([
                MapEdit::put(k(1_000_000), Bytes::from_static(b"appended")),
                MapEdit::put(k(500), Bytes::from_static(b"replaced")),
                MapEdit::delete(k(250)),
                MapEdit::delete(Bytes::from_static(b"never-existed")),
            ])
            .unwrap();
        assert_eq!(m2.len(), 1000); // +1 insert, −1 delete
        assert_eq!(
            m2.get(&k(500)).unwrap(),
            Some(Bytes::from_static(b"replaced"))
        );
        assert_eq!(m2.get(&k(250)).unwrap(), None);
        assert_eq!(
            m2.get(&k(1_000_000)).unwrap(),
            Some(Bytes::from_static(b"appended"))
        );
        // Old version is untouched (immutability).
        assert_eq!(m.get(&k(250)).unwrap(), Some(v(250)));
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn apply_equals_rebuild() {
        // The structural-invariance acid test: apply() must produce the
        // exact same root as building the resulting record set from
        // scratch.
        let store = MemStore::new();
        let m = sample(&store, 2000);
        let edits = vec![
            MapEdit::put(k(100), Bytes::from_static(b"x")),
            MapEdit::delete(k(1500)),
            MapEdit::put(
                Bytes::from_static(b"key-00000100a"),
                Bytes::from_static(b"y"),
            ),
            MapEdit::put(k(1999), Bytes::from_static(b"z")),
            MapEdit::delete(k(0)),
        ];
        let applied = m.apply(edits.clone()).unwrap();

        // Model the same edits on a BTreeMap and rebuild.
        let mut model: BTreeMap<Bytes, Bytes> = (0..2000).map(|i| (k(i), v(i))).collect();
        for e in &edits {
            match &e.value {
                Some(val) => {
                    model.insert(e.key.clone(), val.clone());
                }
                None => {
                    model.remove(&e.key);
                }
            }
        }
        let store2 = MemStore::new();
        let rebuilt = PosMap::build_from_sorted(&store2, cfg(), model).unwrap();
        assert_eq!(applied.root(), rebuilt.root());
        assert_eq!(applied.len(), rebuilt.len());
    }

    #[test]
    fn apply_duplicate_edits_last_wins() {
        let store = MemStore::new();
        let m = sample(&store, 100);
        let m2 = m
            .apply([
                MapEdit::put(k(5), Bytes::from_static(b"first")),
                MapEdit::delete(k(5)),
                MapEdit::put(k(5), Bytes::from_static(b"last")),
            ])
            .unwrap();
        assert_eq!(m2.get(&k(5)).unwrap(), Some(Bytes::from_static(b"last")));
    }

    #[test]
    fn apply_empty_batch_is_identity() {
        let store = MemStore::new();
        let m = sample(&store, 100);
        let m2 = m.apply([]).unwrap();
        assert_eq!(m.root(), m2.root());
    }

    #[test]
    fn single_update_touches_log_n_pages() {
        // SIRI property (2): |P(I₂) − P(I₁)| ≪ |P(I₂) ∩ P(I₁)|.
        // Default 4 KB pages: ~130 leaves under one or two index levels.
        // (Under `test_small`'s ~3-way fan-out the re-chunked index levels
        // alone are thousands of nodes: their cost is O(leaf refs).)
        let store = MemStore::new();
        let m = PosMap::build_from_sorted(
            &store,
            ChunkerConfig::node_default(),
            (0..20_000).map(|i| (k(i), v(i))),
        )
        .unwrap();
        let puts_before = store.stats().puts;
        let m2 = m
            .insert(k(10_000), Bytes::from_static(b"new value"))
            .unwrap();
        // An update should write only a handful of pages (changed leaf +
        // path to root, modulo boundary shifts). Count every chunk
        // presented, dedup hits included: re-emitting an unchanged leaf is
        // a dedup hit, invisible in the count of new pages.
        let written = store.stats().puts - puts_before;
        assert!(written <= 12, "single update wrote {written} pages");
        assert_eq!(m2.len(), 20_000);
    }

    #[test]
    fn insert_on_empty_map() {
        let store = MemStore::new();
        let m = PosMap::empty(&store, cfg()).unwrap();
        let m2 = m
            .insert(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(m2.len(), 1);
        assert_eq!(m2.get(b"k").unwrap(), Some(Bytes::from_static(b"v")));
        // Equal to a fresh build.
        let rebuilt = PosMap::build_from_sorted(
            &store,
            cfg(),
            [(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
        )
        .unwrap();
        assert_eq!(m2.root(), rebuilt.root());
    }

    #[test]
    fn delete_everything_equals_empty() {
        let store = MemStore::new();
        let m = sample(&store, 300);
        let m2 = m.apply((0..300).map(|i| MapEdit::delete(k(i)))).unwrap();
        assert!(m2.is_empty());
        let empty = PosMap::empty(&store, cfg()).unwrap();
        assert_eq!(m2.root(), empty.root());
    }

    #[test]
    fn order_independence_of_batches() {
        // Structural invariance across edit histories: different batch
        // partitions of the same edits give the same root.
        let store = MemStore::new();
        let base = sample(&store, 1000);
        let edits: Vec<MapEdit> = (0..100)
            .map(|i| MapEdit::put(k(i * 13 % 1200), Bytes::from(format!("e{i}"))))
            .collect();

        // All at once.
        let all = base.apply(edits.clone()).unwrap();
        // One per batch, in shuffled-ish order (reversed; duplicates in the
        // edit list must be collapsed the same way, so dedup first).
        let mut dedup = edits.clone();
        dedup.sort_by(|a, b| a.key.cmp(&b.key));
        dedup.reverse();
        dedup.dedup_by(|a, b| a.key == b.key);
        let mut one_by_one = base.clone();
        for e in dedup.iter() {
            one_by_one = one_by_one.apply([e.clone()]).unwrap();
        }
        assert_eq!(all.root(), one_by_one.root());
    }

    #[test]
    fn cached_handle_reads_and_writes_what_an_uncached_one_does() {
        let store = MemStore::new();
        let cache = NodeCache::new();
        let plain = sample(&store, 2000);
        let cached = plain.clone().with_cache(&cache);
        let edits: Vec<MapEdit> = (0..50)
            .map(|i| MapEdit::put(k(i * 37 % 2100), Bytes::from(format!("e{i}"))))
            .chain((0..10).map(|i| MapEdit::delete(k(i * 101))))
            .collect();
        let plain2 = plain.apply(edits.clone()).unwrap();
        let cached2 = cached.apply(edits).unwrap();
        assert_eq!(plain2.tree(), cached2.tree());
        // `apply` cached nothing it built; the cached handle's reads do.
        assert!(!cache.contains(&cached2.root()));
        for i in (0..2100).step_by(7) {
            assert_eq!(plain2.get(&k(i)).unwrap(), cached2.get(&k(i)).unwrap());
        }
        assert!(cache.contains(&cached2.root()));
        assert_eq!(plain2.to_vec().unwrap(), cached2.to_vec().unwrap());
        let mut range = cached2.cursor(Some(&k(1500))).unwrap();
        assert_eq!(range.next_entry().unwrap().unwrap().key, k(1500));
        assert_eq!(
            plain.diff(plain2.tree()).unwrap(),
            cached.diff(cached2.tree()).unwrap()
        );
    }

    #[test]
    fn a_build_caches_nothing_and_the_first_read_of_its_root_is_verified() {
        use forkbase_store::{FaultMode, FaultyStore};
        let store = FaultyStore::new(MemStore::new());
        let cache = NodeCache::new();
        let map = PosMap::build_from_sorted(&store, cfg(), (0..500).map(|i| (k(i), v(i))))
            .unwrap()
            .with_cache(&cache);
        let updated = map.insert(k(500), v(500)).unwrap();
        let root = updated.root();
        assert!(!cache.contains(&root), "a build inserts nothing");

        // The first read is a miss: it fetches the page and checks it
        // against its address, so a tampered page is refused, not cached.
        store.inject(root, FaultMode::FlipBit { byte: 3 });
        assert!(matches!(
            updated.get(&k(500)),
            Err(crate::NodeError::HashMismatch { .. })
        ));
        assert!(!cache.contains(&root));
        store.heal_all();
        assert_eq!(updated.get(&k(500)).unwrap(), Some(v(500)));
        assert!(cache.contains(&root));

        // The next read is a hit: the store is not consulted again.
        store.inject(root, FaultMode::FlipBit { byte: 3 });
        assert_eq!(updated.get(&k(500)).unwrap(), Some(v(500)));
    }
}
