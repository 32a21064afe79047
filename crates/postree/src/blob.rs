//! `PosBlob`: large byte strings as POS-Trees.
//!
//! Blob content is sliced by the byte-granularity chunker into raw data
//! chunks (Fig. 2 "Data Chunk" — stored without any header so equal byte
//! runs dedup across *all* blobs), and an index tree of `(hash, byte
//! count)` entries is built above them with the node chunker. Loading two near-identical
//! CSV files therefore shares almost every chunk — the Fig. 4
//! demonstration.

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};
use forkbase_store::ChunkStore;

use crate::builder::TreeBuilder;
use crate::node::{fetch_verified, IndexEntry, Node, NodeError, NodeResult, TreeConfig};

/// Reference to a stored blob.
///
/// `depth` disambiguates the root: `0` means `root` addresses a raw data
/// chunk (small blobs), otherwise an index node of that height.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlobRef {
    /// Content address of the root (raw chunk or index node).
    pub root: Hash,
    /// Total byte length.
    pub len: u64,
    /// Height of the root above the raw chunks.
    pub depth: u8,
}

/// Handle for reading and writing blobs.
pub struct PosBlob<'s, S> {
    store: &'s S,
    cfg: TreeConfig,
}

impl<'s, S: ChunkStore> PosBlob<'s, S> {
    /// Create a blob accessor over `store`.
    pub fn new(store: &'s S, cfg: TreeConfig) -> Self {
        PosBlob { store, cfg }
    }

    /// Write `content`, returning its reference. Identical content always
    /// produces the identical reference (and zero new chunks).
    ///
    /// Copies `content` once into a shared buffer and delegates to the
    /// zero-copy [`write_bytes`](Self::write_bytes); callers that already
    /// hold a [`Bytes`] should use that directly and skip the copy.
    pub fn write(&self, content: &[u8]) -> NodeResult<BlobRef> {
        self.write_bytes(Bytes::copy_from_slice(content))
    }

    /// Write `content` without copying: chunk boundaries are found with the
    /// bulk slice scanner and each chunk is handed to the store as a
    /// [`Bytes::slice`] view into `content` — the ingestion path itself
    /// performs no per-chunk copies. (A retaining store may still choose to
    /// compact a chunk it keeps in memory, so that a deduplicated write —
    /// where only a few slices survive — cannot pin the whole input
    /// buffer; see `Bytes::compact`.)
    pub fn write_bytes(&self, content: Bytes) -> NodeResult<BlobRef> {
        if content.is_empty() {
            let hash = sha256(b"");
            self.store.put_with_hash(hash, Bytes::new())?;
            return Ok(BlobRef {
                root: hash,
                len: 0,
                depth: 0,
            });
        }
        let mut builder = TreeBuilder::new(self.store, self.cfg.node);
        let mut chunker = forkbase_chunk::ByteChunker::new(self.cfg.data);
        let mut pos = 0usize;
        while let Some(off) = chunker.next_boundary(&content[pos..]) {
            self.put_chunk(&mut builder, content.slice(pos..pos + off))?;
            pos += off;
        }
        if pos < content.len() {
            self.put_chunk(&mut builder, content.slice(pos..))?;
        }
        let finished = builder.finish()?;
        Ok(BlobRef {
            root: finished.hash,
            len: finished.count,
            depth: finished.level,
        })
    }

    fn put_chunk(&self, builder: &mut TreeBuilder<'s, S>, chunk: Bytes) -> NodeResult<()> {
        let hash = sha256(&chunk);
        let len = chunk.len() as u64;
        // Stage rather than store: data chunks and the index nodes above
        // them land in the store in batched round-trips, flushed at the
        // builder's threshold and finally by `finish`.
        builder.stage_chunk(hash, chunk)?;
        builder.append_leaf_node(IndexEntry::new(Bytes::new(), hash, len))
    }

    /// Read the whole blob.
    pub fn read_all(&self, blob: &BlobRef) -> NodeResult<Vec<u8>> {
        let mut out = Vec::with_capacity(blob.len as usize);
        let mut cursor = self.cursor(blob)?;
        while let Some(chunk) = cursor.next_chunk()? {
            out.extend_from_slice(&chunk);
        }
        if out.len() as u64 != blob.len {
            return Err(NodeError::Malformed(format!(
                "blob length {} does not match content {}",
                blob.len,
                out.len()
            )));
        }
        Ok(out)
    }

    /// Read `len` bytes starting at `offset` (clamped to the blob's end).
    pub fn read_range(&self, blob: &BlobRef, offset: u64, len: u64) -> NodeResult<Vec<u8>> {
        let end = (offset + len).min(blob.len);
        if offset >= end {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity((end - offset) as usize);
        self.read_range_inner(&blob.root, blob.depth, offset, end, &mut out)?;
        Ok(out)
    }

    fn read_range_inner(
        &self,
        root: &Hash,
        depth: u8,
        start: u64,
        end: u64,
        out: &mut Vec<u8>,
    ) -> NodeResult<()> {
        if depth == 0 {
            let bytes = self.get_chunk(root)?;
            let s = start.min(bytes.len() as u64) as usize;
            let e = end.min(bytes.len() as u64) as usize;
            out.extend_from_slice(&bytes[s..e]);
            return Ok(());
        }
        let node = Node::load(self.store, root)?;
        let Node::Index { children, .. } = node else {
            return Err(NodeError::Malformed("expected blob index node".into()));
        };
        let mut offset = 0u64;
        for c in &children {
            let c_start = offset;
            let c_end = offset + c.count;
            if c_end > start && c_start < end {
                let local_start = start.saturating_sub(c_start);
                let local_end = (end - c_start).min(c.count);
                self.read_range_inner(&c.hash, depth - 1, local_start, local_end, out)?;
            }
            offset = c_end;
            if offset >= end {
                break;
            }
        }
        Ok(())
    }

    fn get_chunk(&self, hash: &Hash) -> NodeResult<Bytes> {
        fetch_verified(self.store, hash)
    }

    /// Open a streaming cursor over the blob's raw data chunks.
    pub fn cursor(&self, blob: &BlobRef) -> NodeResult<BlobCursor<'s, S>> {
        BlobCursor::new(self.store, blob)
    }

    /// The `(hash, len)` list of raw chunks — the unit of deduplication.
    pub fn chunk_refs(&self, blob: &BlobRef) -> NodeResult<Vec<(Hash, u64)>> {
        let mut out = Vec::new();
        self.chunk_refs_inner(&blob.root, blob.depth, &mut out)?;
        Ok(out)
    }

    fn chunk_refs_inner(
        &self,
        root: &Hash,
        depth: u8,
        out: &mut Vec<(Hash, u64)>,
    ) -> NodeResult<()> {
        if depth == 0 {
            // Length unknown without fetching for the root-only case; the
            // caller knows it from BlobRef. Fetch to stay self-contained.
            let bytes = self.get_chunk(root)?;
            out.push((*root, bytes.len() as u64));
            return Ok(());
        }
        let node = Node::load(self.store, root)?;
        let Node::Index { children, .. } = node else {
            return Err(NodeError::Malformed("expected blob index node".into()));
        };
        for c in &children {
            if depth == 1 {
                out.push((c.hash, c.count));
            } else {
                self.chunk_refs_inner(&c.hash, depth - 1, out)?;
            }
        }
        Ok(())
    }

    /// Chunk-level similarity of two blobs: `(shared_chunks, shared_bytes)`
    /// counted over `a`'s chunks that also appear in `b`. Drives the
    /// dedup-measurement experiments.
    pub fn shared_chunks(&self, a: &BlobRef, b: &BlobRef) -> NodeResult<(u64, u64)> {
        let refs_a = self.chunk_refs(a)?;
        let set_b: std::collections::HashSet<Hash> =
            self.chunk_refs(b)?.into_iter().map(|(h, _)| h).collect();
        let mut chunks = 0u64;
        let mut bytes = 0u64;
        for (h, len) in refs_a {
            if set_b.contains(&h) {
                chunks += 1;
                bytes += len;
            }
        }
        Ok((chunks, bytes))
    }

    /// Verify blob integrity: every chunk authenticates, every index page
    /// sits at its depth, and lengths add up.
    pub fn verify(&self, blob: &BlobRef) -> NodeResult<u64> {
        let mut total = 0u64;
        let mut cursor = self.cursor(blob)?;
        while let Some(chunk) = cursor.next_chunk()? {
            total += chunk.len() as u64;
        }
        if total != blob.len {
            return Err(NodeError::Malformed(format!(
                "blob length mismatch: ref says {}, chunks total {total}",
                blob.len
            )));
        }
        Ok(total)
    }
}

/// One frame of a [`BlobCursor`]'s descent: the children of an index node,
/// the next child to visit, and the node's depth above the raw chunks.
struct BlobFrame {
    children: Vec<IndexEntry>,
    idx: usize,
    depth: u8,
}

/// A streaming cursor over a blob's raw data chunks, in order.
///
/// Unlike [`PosBlob::read_all`] (which materializes the whole value), the
/// cursor is a pull interface: each [`BlobCursor::next_chunk`] call
/// fetches, verifies, and hands back exactly one data chunk, and checks
/// each index page it opens against its expected depth. Memory held
/// between calls is the root→leaf index path — O(log N) index nodes —
/// never the blob content, which is what lets `Snapshot::blob_reader`
/// stream a 64 MiB blob through a fixed-size buffer. [`PosBlob::read_all`]
/// and [`PosBlob::verify`] drain one.
pub struct BlobCursor<'s, S> {
    store: &'s S,
    stack: Vec<BlobFrame>,
    /// Depth-0 blob: the root *is* the single raw chunk, pending until the
    /// first `next_chunk`.
    pending_root: Option<Hash>,
}

impl<'s, S: ChunkStore> BlobCursor<'s, S> {
    /// Open a cursor at the first chunk of `blob`.
    pub fn new(store: &'s S, blob: &BlobRef) -> NodeResult<Self> {
        let mut cursor = BlobCursor {
            store,
            stack: Vec::new(),
            pending_root: None,
        };
        if blob.depth == 0 {
            cursor.pending_root = Some(blob.root);
        } else {
            cursor.push_index(&blob.root, blob.depth)?;
        }
        Ok(cursor)
    }

    fn push_index(&mut self, hash: &Hash, depth: u8) -> NodeResult<()> {
        let node = Node::load(self.store, hash)?;
        let Node::Index { children, level } = node else {
            return Err(NodeError::Malformed("expected blob index node".into()));
        };
        if level != depth {
            return Err(NodeError::Malformed(format!(
                "blob index level {level} != expected depth {depth}"
            )));
        }
        self.stack.push(BlobFrame {
            children,
            idx: 0,
            depth,
        });
        Ok(())
    }

    /// Fetch, verify, and return the next raw data chunk, or `None` when
    /// the blob is exhausted.
    pub fn next_chunk(&mut self) -> NodeResult<Option<Bytes>> {
        if let Some(root) = self.pending_root.take() {
            return fetch_verified(self.store, &root).map(Some);
        }
        loop {
            let Some(top) = self.stack.last_mut() else {
                return Ok(None);
            };
            if top.idx == top.children.len() {
                self.stack.pop();
                continue;
            }
            let child = top.children[top.idx].clone();
            top.idx += 1;
            if top.depth == 1 {
                return fetch_verified(self.store, &child.hash).map(Some);
            }
            let depth = top.depth - 1;
            self.push_index(&child.hash, depth)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::{ChunkStore, FaultMode, FaultyStore, MemStore};

    fn cfg() -> TreeConfig {
        TreeConfig::test_config()
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 0xff) as u8
            })
            .collect()
    }

    #[test]
    fn empty_blob() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let r = blob.write(b"").unwrap();
        assert_eq!(r.len, 0);
        assert_eq!(blob.read_all(&r).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn small_blob_single_chunk() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let r = blob.write(b"tiny").unwrap();
        assert_eq!(r.depth, 0);
        assert_eq!(r.len, 4);
        assert_eq!(blob.read_all(&r).unwrap(), b"tiny");
    }

    #[test]
    fn large_blob_roundtrip() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let content = pseudo_random(200_000, 42);
        let r = blob.write(&content).unwrap();
        assert!(r.depth >= 1);
        assert_eq!(r.len, 200_000);
        assert_eq!(blob.read_all(&r).unwrap(), content);
        assert_eq!(blob.verify(&r).unwrap(), 200_000);
    }

    #[test]
    fn read_range() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let content = pseudo_random(50_000, 7);
        let r = blob.write(&content).unwrap();
        for (off, len) in [(0u64, 10u64), (25_000, 1000), (49_990, 100), (50_000, 5)] {
            let got = blob.read_range(&r, off, len).unwrap();
            let end = ((off + len) as usize).min(content.len());
            let want = &content[(off as usize).min(content.len())..end];
            assert_eq!(got, want, "range ({off}, {len})");
        }
    }

    #[test]
    fn identical_content_identical_ref_no_new_chunks() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let content = pseudo_random(100_000, 3);
        let r1 = blob.write(&content).unwrap();
        let chunks = store.chunk_count();
        let r2 = blob.write(&content).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(store.chunk_count(), chunks);
    }

    #[test]
    fn near_identical_blobs_share_chunks_fig4() {
        // The Fig. 4 behaviour: a one-word edit in a large file must cost
        // only a sliver of new storage.
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let original = pseudo_random(300_000, 99);
        let mut edited = original.clone();
        for b in &mut edited[150_000..150_005] {
            *b ^= 0x55;
        }
        let r1 = blob.write(&original).unwrap();
        let bytes_after_first = store.stored_bytes();
        let r2 = blob.write(&edited).unwrap();
        let delta = store.stored_bytes() - bytes_after_first;
        assert!(
            delta < bytes_after_first / 20,
            "second load added {delta} of {bytes_after_first} bytes — dedup failed"
        );
        let (_, shared_bytes) = blob.shared_chunks(&r1, &r2).unwrap();
        assert!(shared_bytes as f64 > 0.9 * original.len() as f64);
    }

    #[test]
    fn chunk_refs_cover_content() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let content = pseudo_random(80_000, 5);
        let r = blob.write(&content).unwrap();
        let refs = blob.chunk_refs(&r).unwrap();
        assert!(refs.len() > 1);
        assert_eq!(refs.iter().map(|(_, l)| l).sum::<u64>(), 80_000);
    }

    #[test]
    fn tampered_chunk_detected_on_read() {
        let inner = MemStore::new();
        let content = pseudo_random(60_000, 11);
        let r = {
            let blob = PosBlob::new(&inner, cfg());
            blob.write(&content).unwrap()
        };
        let store = FaultyStore::new(inner);
        let blob = PosBlob::new(&store, cfg());
        let refs = blob.chunk_refs(&r).unwrap();
        let victim = refs[refs.len() / 2].0;
        store.inject(victim, FaultMode::FlipBit { byte: 3 });
        match blob.read_all(&r) {
            Err(NodeError::HashMismatch { .. }) => {}
            other => panic!(
                "tampering must be detected, got {:?}",
                other.map(|v| v.len())
            ),
        }
    }

    #[test]
    fn cursor_streams_chunks_in_order() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        for len in [0usize, 4, 50_000, 200_000] {
            let content = pseudo_random(len, len as u64 + 1);
            let r = blob.write(&content).unwrap();
            let mut cursor = blob.cursor(&r).unwrap();
            let mut streamed = Vec::new();
            while let Some(chunk) = cursor.next_chunk().unwrap() {
                streamed.extend_from_slice(&chunk);
            }
            assert_eq!(streamed, content, "len {len}");
            assert!(cursor.next_chunk().unwrap().is_none(), "stays exhausted");
        }
    }

    #[test]
    fn cursor_detects_tampered_chunk() {
        let inner = MemStore::new();
        let content = pseudo_random(60_000, 13);
        let r = {
            let blob = PosBlob::new(&inner, cfg());
            blob.write(&content).unwrap()
        };
        let store = FaultyStore::new(inner);
        let blob = PosBlob::new(&store, cfg());
        let refs = blob.chunk_refs(&r).unwrap();
        store.inject(refs[refs.len() / 2].0, FaultMode::FlipBit { byte: 1 });
        let mut cursor = blob.cursor(&r).unwrap();
        let mut result = Ok(());
        loop {
            match cursor.next_chunk() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert!(
            matches!(result, Err(NodeError::HashMismatch { .. })),
            "tampering must surface mid-stream"
        );
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, cfg());
        let r = blob.write(&pseudo_random(10_000, 2)).unwrap();
        let lying = BlobRef {
            len: r.len + 1,
            ..r
        };
        assert!(blob.verify(&lying).is_err());
    }
}
