//! Bottom-up POS-Tree construction.
//!
//! [`TreeBuilder`] consumes an ordered stream of leaf entries, cuts it into
//! pages at content-defined boundaries, and emits finished nodes into the
//! chunk store. Each finished node becomes an index entry in the level
//! above, which is itself chunked with the same pattern rule — recursively,
//! until one node remains: the root (paper Fig. 2).
//!
//! **Leaf pages are built as bytes.** The unfinished leaf is kept as its
//! encoding: each entry is encoded straight into the page, and the cut
//! test is the bulk kernel [`forkbase_chunk::scan_boundary`] run over the
//! page from the entry's first pattern-eligible byte. The page starts at a
//! chunker reset, so the kernel's streaming semantics are exactly
//! [`forkbase_chunk::EntryChunker`]'s, which [`crate::verify`] runs entry
//! by entry as the independent reference. Emitting a leaf writes its 7-byte
//! header in front of the entries and hashes the page; no leaf is ever
//! encoded from a decoded [`Node`]. Index levels feed an `EntryChunker`
//! the child hashes and encode each node with [`Node::encode`].
//!
//! **Runs are copied, not entries.** `TreeBuilder::copy_from` takes each
//! old leaf's admitted entries from the cursor by reference, appends them
//! to the page and scans the run once. A run that is a strict prefix of an
//! old leaf, on a page that began where that leaf began, is not scanned at
//! all: from the same fresh state over the same bytes, the old leaf did
//! not cut before its last entry.
//!
//! **Invariant maintained across bulk builds and incremental updates:**
//! every non-final node at every level was terminated by a pattern (or the
//! max-size guard), and every node starts with fresh chunker state. This is
//! what makes [`TreeBuilder::append_leaf_node`] sound: a previously-stored,
//! pattern-terminated node can be spliced into a new tree verbatim whenever
//! the builder is at a node boundary, because the pattern is a property of
//! the node's own bytes (reset-on-cut chunking) and will re-occur in the
//! new stream at exactly the same place.
//!
//! The builder hands pages to the store only; it does not fill a node
//! cache. The first reader of a new page loads and verifies it like any
//! other (see [`crate::cache`]).

use std::ops::Range;

use bytes::Bytes;
use forkbase_chunk::{scan_boundary, ChunkerConfig, EntryChunker};
use forkbase_crypto::{sha256, Hash};
use forkbase_store::ChunkStore;

use crate::cursor::LeafCursor;
use crate::node::{leaf_header, IndexEntry, LeafEntry, Node, NodeResult, HEADER_LEN};

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

    /// How many of `entries`, the first at `position`, this bound admits.
    fn admitted(self, entries: &[LeafEntry], position: u64) -> usize {
        match self {
            Until::Key(bound) => entries.partition_point(|e| e.key.as_ref() < bound),
            Until::Position(bound) => {
                bound.saturating_sub(position).min(entries.len() as u64) as usize
            }
            Until::End => entries.len(),
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

/// The unfinished leaf, kept as the bytes of its page.
struct LeafPage {
    /// A header-sized gap, then the canonical encoding of every entry
    /// pushed since the last cut. Reused from page to page.
    bytes: Vec<u8>,
    /// Entries in the page.
    count: u32,
    /// Where the last entry's key sits in `bytes`.
    last_key: Range<usize>,
}

impl LeafPage {
    /// The entries' bytes: the stream the leaf chunker sees since its
    /// last reset.
    fn body(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..]
    }
}

/// One index level's accumulation state.
struct IndexLevel {
    chunker: EntryChunker,
    pending: Vec<IndexEntry>,
    nodes_emitted: u64,
}

/// Streaming, bottom-up tree builder.
pub struct TreeBuilder<'s, S> {
    store: &'s S,
    cfg: ChunkerConfig,
    /// The leaf chunker's pattern mask, `2^pattern_bits − 1`.
    mask: u64,
    leaf: LeafPage,
    /// `index[i]` accumulates the entries of level-`i + 1` nodes.
    index: Vec<IndexLevel>,
    /// Total number of nodes written (including dedup hits), for metrics.
    nodes_written: u64,
    /// Finished chunks awaiting one batched store round-trip. Nothing
    /// reads an emitted node before [`Self::finish`] (parents reference
    /// children by hash only), so deferring the writes is invisible —
    /// except to the store's lock, which is taken once per batch instead
    /// of once per node.
    staged: Vec<(Hash, Bytes)>,
    staged_bytes: usize,
}

impl<'s, S: ChunkStore> TreeBuilder<'s, S> {
    /// Create a builder writing nodes into `store` with chunking `cfg`.
    pub fn new(store: &'s S, cfg: ChunkerConfig) -> Self {
        cfg.validate();
        TreeBuilder {
            store,
            cfg,
            mask: (1u64 << cfg.pattern_bits) - 1,
            leaf: LeafPage {
                bytes: vec![0; HEADER_LEN],
                count: 0,
                last_key: 0..0,
            },
            index: Vec::new(),
            nodes_written: 0,
            staged: Vec::new(),
            staged_bytes: 0,
        }
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

    /// Send all staged chunks to the store in one `put_batch` round-trip.
    fn flush_staged(&mut self) -> NodeResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        self.staged_bytes = 0;
        self.store.put_batch(std::mem::take(&mut self.staged))?;
        Ok(())
    }

    /// Number of leaf entries buffered in the unfinished leaf node.
    pub fn leaf_pending(&self) -> usize {
        self.leaf.count as usize
    }

    /// Whether the builder sits exactly at a leaf-node boundary (fresh
    /// chunker state) — the precondition for [`Self::append_leaf_node`].
    pub fn at_leaf_boundary(&self) -> bool {
        self.leaf.count == 0
    }

    /// Total nodes written so far (including dedup hits).
    pub fn nodes_written(&self) -> u64 {
        self.nodes_written
    }

    /// Push the next leaf entry (must be in key order for map trees —
    /// enforced by callers, verified downstream by `verify`).
    pub fn push(&mut self, entry: LeafEntry) -> NodeResult<()> {
        self.push_run(std::slice::from_ref(&entry), 0)
    }

    /// Append `run` to the leaf page and cut the page after every entry
    /// where the leaf chunker would: after an entry in which the pattern
    /// fires, or that takes the page to `max_size`. The first `settled`
    /// entries are known not to end a page, so the scan starts after them.
    fn push_run(&mut self, mut run: &[LeafEntry], mut settled: usize) -> NodeResult<()> {
        let mut start = self.leaf.bytes.len() - HEADER_LEN;
        for e in run {
            e.encode_into(&mut self.leaf.bytes);
        }
        while let Some(last) = run.last() {
            let body = self.leaf.body();
            let skipped: usize = run[..settled].iter().map(LeafEntry::encoded_len).sum();
            let from = (start + skipped).max(self.cfg.min_size - 1);
            let pattern = scan_boundary(body, self.cfg.window, self.mask, from, body.len());
            if pattern.is_none() && body.len() < self.cfg.max_size {
                let key_at = HEADER_LEN + body.len() - last.encoded_len() + 4;
                self.leaf.last_key = key_at..key_at + last.key.len();
                self.leaf.count += run.len() as u32;
                return Ok(());
            }
            // The page ends after the first entry that holds the pattern
            // or reaches `max_size`; both exist, so the walk finds one.
            let mut end = start;
            let mut taken = 0;
            for e in run {
                let key_at = HEADER_LEN + end + 4;
                end += e.encoded_len();
                taken += 1;
                if end >= self.cfg.max_size || pattern.is_some_and(|p| p < end) {
                    self.leaf.last_key = key_at..key_at + e.key.len();
                    break;
                }
            }
            self.leaf.count += taken as u32;
            let cut = self.emit_leaf(end)?;
            self.push_index(1, cut)?;
            run = &run[taken..];
            start = 0;
            settled = 0;
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
        self.push_index(1, node_ref)
    }

    /// Copy `cursor`'s entries up to `until` into the tree, resynchronizing
    /// after every edit: whenever the builder is at a leaf boundary and the
    /// cursor at the start of a leaf that lies wholly before the bound, the
    /// leaf is spliced by reference (no decode, no re-hash); otherwise the
    /// leaf's admitted entries are appended as one run. The tree's final
    /// leaf is spliced only by [`Until::End`]: its boundary was the end of
    /// the old stream, not a pattern, so mid-stream it would not re-occur.
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
            let page_starts_with_leaf = self.at_leaf_boundary() && cursor.at_leaf_start();
            if page_starts_with_leaf
                && (matches!(until, Until::End) || !cursor.leaf_is_last())
                && until.admits(&leaf.split_key, position + leaf.count - 1)
            {
                let leaf = leaf.clone();
                self.append_leaf_node(leaf)?;
                cursor.skip_leaf()?;
                continue;
            }
            let unread = cursor.unread_entries()?;
            let n = until.admitted(unread, position);
            if n == 0 {
                return Ok(());
            }
            // A page that began where this leaf began cannot end before
            // the leaf's last entry: the old leaf, chunked from the same
            // fresh state over the same bytes, did not.
            let settled = if page_starts_with_leaf {
                n.min(unread.len() - 1)
            } else {
                0
            };
            let drained = n == unread.len();
            self.push_run(&unread[..n], settled)?;
            cursor.consume(n);
            if !drained {
                return Ok(());
            }
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
        while self.index.len() < level {
            self.index.push(IndexLevel {
                chunker: EntryChunker::new(self.cfg),
                pending: Vec::new(),
                nodes_emitted: 0,
            });
        }
        let lvl = &mut self.index[level - 1];
        let cut = lvl.chunker.push_entry(entry.hash.as_bytes());
        lvl.pending.push(entry);
        if cut {
            let e = self.emit_index(level)?;
            self.push_index(level + 1, e)?;
        }
        Ok(())
    }

    /// Seal the leaf page's first `end` body bytes, which hold its
    /// entries, into a stored node and return its index entry. Bytes past
    /// `end` move to the front of the next page.
    fn emit_leaf(&mut self, end: usize) -> NodeResult<IndexEntry> {
        let leaf = &mut self.leaf;
        leaf.bytes[..HEADER_LEN].copy_from_slice(&leaf_header(leaf.count));
        let page = Bytes::copy_from_slice(&leaf.bytes[..HEADER_LEN + end]);
        let split_key = page.slice(leaf.last_key.clone());
        let count = u64::from(leaf.count);
        leaf.bytes.drain(HEADER_LEN..HEADER_LEN + end);
        leaf.count = 0;
        leaf.last_key = 0..0;
        let hash = self.stage_node(page)?;
        Ok(IndexEntry {
            split_key,
            hash,
            count,
        })
    }

    /// Seal the pending entries at index `level` into a stored node and
    /// return its index entry. The level's chunker is reset.
    fn emit_index(&mut self, level: usize) -> NodeResult<IndexEntry> {
        let lvl = &mut self.index[level - 1];
        lvl.chunker.reset();
        lvl.nodes_emitted += 1;
        let node = Node::Index {
            level: level as u8,
            children: std::mem::take(&mut lvl.pending),
        };
        let count = node.subtree_count();
        let split_key = node.split_key().unwrap_or_default();
        let hash = self.stage_node(Bytes::from(node.encode()))?;
        Ok(IndexEntry {
            split_key,
            hash,
            count,
        })
    }

    fn stage_node(&mut self, page: Bytes) -> NodeResult<Hash> {
        let hash = sha256(&page);
        self.stage_chunk(hash, page)?;
        self.nodes_written += 1;
        Ok(hash)
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
        let rest = self.leaf.body().len();
        if self.index.is_empty() {
            // Whole tree fits in (or is) a single leaf node.
            let e = self.emit_leaf(rest)?;
            return Ok(FinishedTree {
                hash: e.hash,
                count: e.count,
                level: 0,
                split_key: e.split_key,
            });
        }
        if !self.at_leaf_boundary() {
            let e = self.emit_leaf(rest)?;
            self.push_index(1, e)?;
        }
        let mut level = 1;
        loop {
            let is_top = level == self.index.len();
            let lvl = &mut self.index[level - 1];
            if is_top && lvl.nodes_emitted == 0 && lvl.pending.len() == 1 {
                // Exactly one child bubbled up: it is the root itself.
                let e = lvl.pending.pop().expect("one entry");
                return Ok(FinishedTree {
                    hash: e.hash,
                    count: e.count,
                    // The child of a level-`level` node sits at
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
            if !lvl.pending.is_empty() {
                let e = self.emit_index(level)?;
                self.push_index(level + 1, e)?;
            }
            level += 1;
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
