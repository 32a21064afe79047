//! Bottom-up POS-Tree construction.
//!
//! [`TreeBuilder`] consumes an ordered stream of leaf entries, detecting
//! node boundaries with the [`forkbase_chunk::EntryChunker`], and emits
//! finished nodes into the chunk store. Each finished node becomes an index
//! entry in the level above, which is itself chunked with the same pattern
//! rule — recursively, until one node remains: the root (paper Fig. 2).
//!
//! **Invariant maintained across bulk builds and incremental updates:**
//! every non-final node at every level was terminated by a pattern (or the
//! max-size guard), and every node starts with fresh chunker state. This is
//! what makes [`TreeBuilder::append_leaf_node`] sound: a previously-stored,
//! pattern-terminated node can be spliced into a new tree verbatim whenever
//! the builder is at a node boundary, because the pattern is a property of
//! the node's own bytes (reset-on-cut chunking) and will re-occur in the
//! new stream at exactly the same place.

use std::sync::Arc;

use bytes::Bytes;
use forkbase_chunk::{ChunkerConfig, EntryChunker};
use forkbase_crypto::{sha256, Hash};
use forkbase_store::ChunkStore;

use crate::cache::NodeCache;
use crate::cursor::LeafCursor;
use crate::node::{IndexEntry, LeafEntry, Node, NodeResult};

/// Where [`TreeBuilder::copy_from`] stops: it copies every entry the bound
/// admits and leaves the cursor on the first one it does not.
#[derive(Clone, Copy)]
pub(crate) enum Until<'a> {
    /// Entries whose key is below this one (map edits).
    Key(&'a [u8]),
    /// Entries at positions below this one (list splices).
    Position(u64),
    /// Every remaining entry, the tree's final leaf included.
    End,
}

impl Until<'_> {
    fn admits(self, key: &[u8], position: u64) -> bool {
        match self {
            Until::Key(bound) => key < bound,
            Until::Position(bound) => position < bound,
            Until::End => true,
        }
    }
}

/// Flush the staged-chunk buffer once it holds this many chunks…
const FLUSH_CHUNKS: usize = 128;
/// …or this many payload bytes, whichever comes first.
const FLUSH_BYTES: usize = 4 * 1024 * 1024;

/// The result of finishing a build: the root reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FinishedTree {
    /// Root node content hash.
    pub hash: forkbase_crypto::Hash,
    /// Total leaf entries (bytes, for blob trees).
    pub count: u64,
    /// Level of the root node (0 = the root is a leaf).
    pub level: u8,
    /// Maximum key in the tree (empty for empty/positional trees).
    pub split_key: bytes::Bytes,
}

/// Per-level accumulation state.
struct LevelBuilder {
    chunker: EntryChunker,
    pending_leaf: Vec<LeafEntry>,
    pending_index: Vec<IndexEntry>,
    nodes_emitted: u64,
}

impl LevelBuilder {
    fn new(cfg: ChunkerConfig) -> Self {
        LevelBuilder {
            chunker: EntryChunker::new(cfg),
            pending_leaf: Vec::new(),
            pending_index: Vec::new(),
            nodes_emitted: 0,
        }
    }

    fn pending_len(&self) -> usize {
        self.pending_leaf.len() + self.pending_index.len()
    }
}

/// Streaming, bottom-up tree builder.
pub struct TreeBuilder<'s, S> {
    store: &'s S,
    cfg: ChunkerConfig,
    /// `levels[0]` accumulates leaf entries, `levels[i]` index entries of
    /// height `i`.
    levels: Vec<LevelBuilder>,
    /// Scratch buffer for entry encoding (reused across pushes).
    scratch: Vec<u8>,
    /// Total number of nodes written (including dedup hits), for metrics.
    nodes_written: u64,
    /// Finished chunks awaiting one batched store round-trip. Nothing
    /// reads an emitted node before [`Self::finish`] (parents reference
    /// children by hash only), so deferring the writes is invisible —
    /// except to the store's lock, which is taken once per batch instead
    /// of once per node.
    staged: Vec<(Hash, Bytes)>,
    staged_bytes: usize,
    /// Receives the nodes this builder emits, once the store holds them.
    cache: Option<&'s NodeCache>,
    /// The staged chunks that are nodes (not raw blob data), kept for
    /// `cache` until their batch is stored.
    staged_nodes: Vec<(Hash, Bytes)>,
}

impl<'s, S: ChunkStore> TreeBuilder<'s, S> {
    /// Create a builder writing nodes into `store` with chunking `cfg`.
    pub fn new(store: &'s S, cfg: ChunkerConfig) -> Self {
        TreeBuilder {
            store,
            cfg,
            levels: vec![LevelBuilder::new(cfg)],
            scratch: Vec::with_capacity(256),
            nodes_written: 0,
            staged: Vec::new(),
            staged_bytes: 0,
            cache: None,
            staged_nodes: Vec::new(),
        }
    }

    /// Add every node this builder emits to `cache` once the store has
    /// accepted its chunk.
    pub(crate) fn caching(mut self, cache: Option<&'s NodeCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Stage an arbitrary content-addressed chunk for the next batched
    /// store write. Used by the blob writer so data chunks ride the same
    /// batch as the index nodes above them. `hash` must be the SHA-256 of
    /// `bytes`.
    pub fn stage_chunk(&mut self, hash: Hash, bytes: Bytes) -> NodeResult<()> {
        self.staged_bytes += bytes.len();
        self.staged.push((hash, bytes));
        if self.staged.len() >= FLUSH_CHUNKS || self.staged_bytes >= FLUSH_BYTES {
            self.flush_staged()?;
        }
        Ok(())
    }

    /// Send all staged chunks to the store in one `put_batch` round-trip,
    /// then hand the nodes among them to the cache.
    fn flush_staged(&mut self) -> NodeResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        self.staged_bytes = 0;
        let nodes = std::mem::take(&mut self.staged_nodes);
        let epoch = self.cache.map(NodeCache::epoch);
        self.store.put_batch(std::mem::take(&mut self.staged))?;
        if let (Some(cache), Some(epoch)) = (self.cache, epoch) {
            for (hash, chunk) in nodes {
                // Decoded from the chunk, so the cached node views only
                // its own page, not the buffers its entries came from.
                let node = Node::decode(&chunk)?;
                cache.insert(hash, Arc::new(node), chunk.len(), epoch);
            }
        }
        Ok(())
    }

    /// Number of leaf entries buffered in the unfinished leaf node.
    pub fn leaf_pending(&self) -> usize {
        self.levels[0].pending_len()
    }

    /// Whether the builder sits exactly at a leaf-node boundary (fresh
    /// chunker state) — the precondition for [`Self::append_leaf_node`].
    pub fn at_leaf_boundary(&self) -> bool {
        self.leaf_pending() == 0
    }

    /// Total nodes written so far (including dedup hits).
    pub fn nodes_written(&self) -> u64 {
        self.nodes_written
    }

    /// Push the next leaf entry (must be in key order for map trees —
    /// enforced by callers, verified downstream by `verify`).
    pub fn push(&mut self, entry: LeafEntry) -> NodeResult<()> {
        self.scratch.clear();
        entry.encode_into(&mut self.scratch);
        let cut = {
            let lvl = &mut self.levels[0];
            lvl.pending_leaf.push(entry);
            lvl.chunker.push_entry(&self.scratch)
        };
        if cut {
            let e = self.emit_node(0)?;
            self.push_index(1, e)?;
        }
        Ok(())
    }

    /// Splice a whole, previously-stored, pattern-terminated leaf node into
    /// the tree without re-reading its entries. The builder must be at a
    /// leaf boundary.
    pub fn append_leaf_node(&mut self, node_ref: IndexEntry) -> NodeResult<()> {
        assert!(
            self.at_leaf_boundary(),
            "append_leaf_node requires fresh chunker state at the leaf level"
        );
        self.levels[0].nodes_emitted += 1;
        self.push_index(1, node_ref)
    }

    /// Copy `cursor`'s entries up to `until` into the tree, resynchronizing
    /// after every edit: whenever the builder is at a leaf boundary and the
    /// cursor at the start of a leaf that lies wholly before the bound, the
    /// leaf is spliced by reference (no decode, no re-hash); otherwise one
    /// entry is streamed. The tree's final leaf is spliced only by
    /// [`Until::End`]: its boundary was the end of the old stream, not a
    /// pattern, so mid-stream it would not re-occur.
    pub(crate) fn copy_from(
        &mut self,
        cursor: &mut LeafCursor<'_, S>,
        until: Until<'_>,
    ) -> NodeResult<()> {
        loop {
            cursor.normalize()?;
            let position = cursor.position();
            let Some(leaf) = cursor.leaf_ref() else {
                return Ok(());
            };
            if self.at_leaf_boundary()
                && cursor.at_leaf_start()
                && (matches!(until, Until::End) || !cursor.leaf_is_last())
                && until.admits(&leaf.split_key, position + leaf.count - 1)
            {
                let leaf = leaf.clone();
                self.append_leaf_node(leaf)?;
                cursor.skip_leaf()?;
                continue;
            }
            if !cursor
                .peek()?
                .is_some_and(|next| until.admits(&next.key, position))
            {
                return Ok(());
            }
            let entry = cursor.next_entry()?.expect("peeked");
            self.push(entry)?;
        }
    }

    /// Push an index entry at `level` (≥ 1), cascading cuts upward.
    ///
    /// **Boundary rule at index levels:** only the child *hash* feeds the
    /// chunker, not the full serialized entry. Feeding key bytes would be
    /// fatal: when a cut produces a single-child node, the parent entry
    /// repeats the same split key, and a pattern inside that key would fire
    /// identically at every level — unbounded growth. Hashes change at
    /// every level (the node encodes its level), so the boundary decision
    /// is re-randomized and the cascade terminates almost surely, while
    /// remaining a pure function of tree content (structural invariance).
    fn push_index(&mut self, level: usize, entry: IndexEntry) -> NodeResult<()> {
        while self.levels.len() <= level {
            self.levels.push(LevelBuilder::new(self.cfg));
        }
        let cut = {
            let lvl = &mut self.levels[level];
            let cut = lvl.chunker.push_entry(entry.hash.as_bytes());
            lvl.pending_index.push(entry);
            cut
        };
        if cut {
            let e = self.emit_node(level)?;
            self.push_index(level + 1, e)?;
        }
        Ok(())
    }

    /// Seal the pending entries at `level` into a stored node and return
    /// its index entry. The level's chunker is reset.
    fn emit_node(&mut self, level: usize) -> NodeResult<IndexEntry> {
        let lvl = &mut self.levels[level];
        let node = if level == 0 {
            Node::Leaf(std::mem::take(&mut lvl.pending_leaf))
        } else {
            Node::Index {
                level: level as u8,
                children: std::mem::take(&mut lvl.pending_index),
            }
        };
        lvl.chunker.reset();
        lvl.nodes_emitted += 1;
        let count = node.subtree_count();
        let split_key = node.split_key().unwrap_or_default();
        let encoded = Bytes::from(node.encode());
        let hash = sha256(&encoded);
        if self.cache.is_some() {
            self.staged_nodes.push((hash, encoded.clone()));
        }
        self.stage_chunk(hash, encoded)?;
        self.nodes_written += 1;
        Ok(IndexEntry {
            split_key,
            hash,
            count,
        })
    }

    /// Flush all levels and return the root reference.
    ///
    /// An empty build yields a canonical empty leaf node, so the empty tree
    /// has a well-defined root hash too. Every staged chunk is flushed to
    /// the store before this returns: the finished tree is fully readable.
    pub fn finish(mut self) -> NodeResult<FinishedTree> {
        let root = self.finish_root()?;
        self.flush_staged()?;
        Ok(root)
    }

    fn finish_root(&mut self) -> NodeResult<FinishedTree> {
        let mut level = 0usize;
        loop {
            let is_top = level + 1 == self.levels.len();
            let emitted = self.levels[level].nodes_emitted;
            let pending = self.levels[level].pending_len();

            if is_top {
                if level == 0 {
                    // Whole tree fits in (or is) a single leaf node.
                    debug_assert_eq!(emitted, 0, "emitting creates the level above");
                    let e = self.emit_node(0)?;
                    return Ok(FinishedTree {
                        hash: e.hash,
                        count: e.count,
                        level: 0,
                        split_key: e.split_key,
                    });
                }
                if emitted == 0 && pending == 1 {
                    // Exactly one child bubbled up: it is the root itself.
                    let e = self.levels[level].pending_index.pop().expect("one entry");
                    return Ok(FinishedTree {
                        hash: e.hash,
                        count: e.count,
                        // The child of a level-`level` builder sits at
                        // `level - 1`... unless it was a fast-appended leaf.
                        // Its true level is encoded in the node itself; for
                        // the root ref we only promise "root of height ≤
                        // level-1"; callers that need the exact level read
                        // the node header. We report level-1 which is exact
                        // for all builder-emitted nodes.
                        level: (level - 1) as u8,
                        split_key: e.split_key,
                    });
                }
                if pending > 0 {
                    let e = self.emit_node(level)?;
                    self.push_index(level + 1, e)?;
                }
                level += 1;
            } else {
                if pending > 0 {
                    let e = self.emit_node(level)?;
                    // Push into the parent WITHOUT triggering recursion
                    // above the top: push_index handles cascades naturally.
                    self.push_index(level + 1, e)?;
                }
                level += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use forkbase_chunk::ChunkerConfig;
    use forkbase_store::MemStore;

    fn entry(i: u32) -> LeafEntry {
        LeafEntry::new(
            Bytes::from(format!("key-{i:08}")),
            Bytes::from(format!("value-{i}-{}", i * 7)),
        )
    }

    fn build(store: &MemStore, n: u32, cfg: ChunkerConfig) -> FinishedTree {
        let mut b = TreeBuilder::new(store, cfg);
        for i in 0..n {
            b.push(entry(i)).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn empty_tree_has_canonical_root() {
        let store = MemStore::new();
        let t1 = build(&store, 0, ChunkerConfig::test_small());
        let t2 = build(&store, 0, ChunkerConfig::test_small());
        assert_eq!(t1, t2);
        assert_eq!(t1.count, 0);
        assert_eq!(t1.level, 0);
        let node = Node::load(&store, &t1.hash).unwrap();
        assert_eq!(node, Node::Leaf(vec![]));
    }

    #[test]
    fn single_entry_tree() {
        let store = MemStore::new();
        let t = build(&store, 1, ChunkerConfig::test_small());
        assert_eq!(t.count, 1);
        let node = Node::load(&store, &t.hash).unwrap();
        assert_eq!(node.entry_count(), 1);
    }

    #[test]
    fn large_tree_builds_multiple_levels() {
        let store = MemStore::new();
        let t = build(&store, 5000, ChunkerConfig::test_small());
        assert_eq!(t.count, 5000);
        assert!(t.level >= 2, "expected multi-level tree, got {}", t.level);
        // Root node must decode and report the right subtree count.
        let root = Node::load(&store, &t.hash).unwrap();
        assert_eq!(root.subtree_count(), 5000);
        assert_eq!(root.level(), t.level);
    }

    #[test]
    fn deterministic_root() {
        let s1 = MemStore::new();
        let s2 = MemStore::new();
        let t1 = build(&s1, 2000, ChunkerConfig::test_small());
        let t2 = build(&s2, 2000, ChunkerConfig::test_small());
        assert_eq!(t1.hash, t2.hash);
        assert_eq!(s1.chunk_count(), s2.chunk_count());
    }

    #[test]
    fn split_key_is_max_key() {
        let store = MemStore::new();
        let t = build(&store, 500, ChunkerConfig::test_small());
        assert_eq!(t.split_key, Bytes::from(format!("key-{:08}", 499)));
    }

    #[test]
    fn counts_consistent_at_every_level() {
        let store = MemStore::new();
        let t = build(&store, 3000, ChunkerConfig::test_small());
        // Walk the tree and check each index entry's count equals its
        // child's subtree count.
        fn check(store: &MemStore, hash: &forkbase_crypto::Hash) -> u64 {
            let node = Node::load(store, hash).unwrap();
            match &node {
                Node::Leaf(entries) => entries.len() as u64,
                Node::Index { children, .. } => {
                    let mut total = 0;
                    for c in children {
                        let sub = check(store, &c.hash);
                        assert_eq!(sub, c.count, "count mismatch at child {:?}", c.hash);
                        total += sub;
                    }
                    total
                }
            }
        }
        assert_eq!(check(&store, &t.hash), 3000);
    }

    #[test]
    fn keys_are_ordered_at_every_level() {
        let store = MemStore::new();
        let t = build(&store, 3000, ChunkerConfig::test_small());
        fn check(store: &MemStore, hash: &forkbase_crypto::Hash) {
            let node = Node::load(store, hash).unwrap();
            match &node {
                Node::Leaf(entries) => {
                    for w in entries.windows(2) {
                        assert!(w[0].key < w[1].key);
                    }
                }
                Node::Index { children, .. } => {
                    for w in children.windows(2) {
                        assert!(w[0].split_key < w[1].split_key);
                    }
                    for c in children {
                        check(store, &c.hash);
                    }
                }
            }
        }
        check(&store, &t.hash);
    }

    #[test]
    fn emitted_nodes_are_batched_until_finish() {
        // Small builds stay under the flush threshold: nothing reaches the
        // store until `finish`, and then everything does, in one batch.
        let store = MemStore::new();
        let mut b = TreeBuilder::new(&store, ChunkerConfig::test_small());
        for i in 0..200 {
            b.push(entry(i)).unwrap();
        }
        assert!(b.nodes_written() > 0, "some nodes already emitted");
        assert_eq!(
            store.chunk_count(),
            0,
            "emitted nodes are staged, not stored"
        );
        let t = b.finish().unwrap();
        assert!(store.chunk_count() > 0);
        assert!(
            store.contains(&t.hash).unwrap(),
            "root readable after finish"
        );
        // Batched build must be byte-identical to what the per-node path
        // produced (same chunks, same root).
        let reference = MemStore::new();
        let t2 = build(&reference, 200, ChunkerConfig::test_small());
        assert_eq!(t.hash, t2.hash);
        assert_eq!(store.chunk_count(), reference.chunk_count());
    }

    #[test]
    fn large_build_flushes_at_threshold() {
        // A build bigger than FLUSH_CHUNKS nodes must flush mid-build so
        // staged memory stays bounded.
        let store = MemStore::new();
        let mut b = TreeBuilder::new(&store, ChunkerConfig::test_small());
        for i in 0..5000 {
            b.push(entry(i)).unwrap();
        }
        assert!(
            store.chunk_count() > 0,
            "threshold flush must have hit the store before finish"
        );
        let t = b.finish().unwrap();
        assert_eq!(t.count, 5000);
    }

    #[test]
    fn append_leaf_node_reuses_pages() {
        // Build once; rebuild splicing the first tree's first leaf node
        // verbatim; roots must match and no new chunks may be written.
        let store = MemStore::new();
        let t = build(&store, 2000, ChunkerConfig::test_small());
        let root = Node::load(&store, &t.hash).unwrap();
        let Node::Index { .. } = &root else {
            panic!("need a multi-node tree for this test")
        };
        // Find the leftmost leaf node ref by descending first children.
        let mut node = root;
        let first_leaf_ref = loop {
            match node {
                Node::Index { ref children, .. } => {
                    let c = children[0].clone();
                    let child = Node::load(&store, &c.hash).unwrap();
                    if child.level() == 0 {
                        break c;
                    }
                    node = child;
                }
                Node::Leaf(_) => unreachable!(),
            }
        };
        let chunks_before = store.chunk_count();

        let mut b = TreeBuilder::new(&store, ChunkerConfig::test_small());
        b.append_leaf_node(first_leaf_ref.clone()).unwrap();
        let mut i = first_leaf_ref.count as u32;
        while i < 2000 {
            b.push(entry(i)).unwrap();
            i += 1;
        }
        let t2 = b.finish().unwrap();
        assert_eq!(t2.hash, t.hash, "spliced build must be byte-identical");
        assert_eq!(store.chunk_count(), chunks_before, "no new chunks");
    }

    #[test]
    #[should_panic(expected = "fresh chunker state")]
    fn append_mid_node_panics() {
        let store = MemStore::new();
        let mut b = TreeBuilder::new(&store, ChunkerConfig::test_small());
        b.push(entry(0)).unwrap();
        // Builder is mid-node now; splicing would corrupt boundaries.
        b.append_leaf_node(IndexEntry::new(
            Bytes::new(),
            forkbase_crypto::sha256(b"x"),
            1,
        ))
        .unwrap();
    }
}
