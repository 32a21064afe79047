//! POS-Tree node representation and canonical codec.
//!
//! A node is the unit of storage and deduplication (one node = one chunk =
//! one page, Fig. 2). Two kinds exist:
//!
//! * **leaf** — holds the data entries `(key, value)`; sequence trees use
//!   empty keys and navigate by position.
//! * **index** — holds one entry per child: the child's *split key* (the
//!   maximum key in its subtree), its content hash, and the number of leaf
//!   entries below it. The hash makes the tree Merkle; the count enables
//!   positional navigation and `O(log N)` size queries.
//!
//! Blob leaves are *raw* byte chunks with no header — this lets two blobs
//! share chunks with maximal granularity — and are handled by the
//! [`crate::blob`] module directly.
//!
//! [`Node::decode`] is zero-copy: every key, value and split key of the
//! decoded node is a [`Bytes`] view into the chunk it was decoded from,
//! so a decoded node costs its chunk plus one entry vector.
//! [`Node::load`] is the uncached, verifying read: it fetches the chunk,
//! re-hashes it against its address and decodes it, every time. Map
//! lookups, cursors and merge read through a database's
//! [`crate::cache::NodeCache`] instead, which keeps nodes that passed the
//! same check; `verify`, proofs, blob reads and GC mark always re-read
//! and re-hash.

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};
use forkbase_store::{ChunkStore, StoreError};

use forkbase_chunk::ChunkerConfig;

use crate::encoding::{put_bytes, put_u32, put_u64, DecodeError, Reader};

/// First byte of every encoded (non-blob-leaf) node.
pub const NODE_MAGIC: u8 = b'N';

/// `kind` byte values.
const KIND_LEAF: u8 = 0;
const KIND_INDEX: u8 = 1;

/// Chunking parameters for a tree family.
///
/// All instances that should share pages must use identical configs — the
/// config is part of the logical format, like the hash function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeConfig {
    /// Chunker for node (page) boundaries: applies to leaf-entry streams
    /// and index-entry streams alike.
    pub node: ChunkerConfig,
    /// Chunker for blob byte content.
    pub data: ChunkerConfig,
}

impl TreeConfig {
    /// Production defaults (~4 KiB pages and data chunks).
    pub fn default_config() -> Self {
        TreeConfig {
            node: ChunkerConfig::node_default(),
            data: ChunkerConfig::data_default(),
        }
    }

    /// Small chunks so unit tests exercise multi-level trees cheaply.
    pub fn test_config() -> Self {
        TreeConfig {
            node: ChunkerConfig::test_small(),
            data: ChunkerConfig::test_small(),
        }
    }
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// A leaf entry: key/value byte strings. Sequence trees use empty keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafEntry {
    /// Ordering key (empty for positional trees).
    pub key: Bytes,
    /// Payload.
    pub value: Bytes,
}

impl LeafEntry {
    /// Construct an entry.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>) -> Self {
        LeafEntry {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Canonical encoding appended to `out`; this exact byte stream also
    /// feeds the chunker, so it *is* the page-boundary input.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.key);
        put_bytes(out, &self.value);
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + self.key.len() + self.value.len()
    }
}

/// An index entry referencing one child node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Maximum key in the child's subtree (empty for positional trees).
    pub split_key: Bytes,
    /// Content hash of the child node.
    pub hash: Hash,
    /// Number of leaf entries in the child's subtree.
    pub count: u64,
}

impl IndexEntry {
    /// Construct an index entry.
    pub fn new(split_key: impl Into<Bytes>, hash: Hash, count: u64) -> Self {
        IndexEntry {
            split_key: split_key.into(),
            hash,
            count,
        }
    }

    /// Canonical encoding appended to `out` (also the chunker input at
    /// index levels).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.split_key);
        out.extend_from_slice(self.hash.as_bytes());
        put_u64(out, self.count);
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + self.split_key.len() + 32 + 8
    }
}

/// A decoded POS-Tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    /// Level-0 node holding data entries.
    Leaf(Vec<LeafEntry>),
    /// Level ≥ 1 node holding child references. `level` is the height of
    /// this node above the leaves (1 = children are leaves).
    Index {
        /// Height above leaf level (≥ 1).
        level: u8,
        /// Child references in key order.
        children: Vec<IndexEntry>,
    },
}

/// Errors from node codec and store access.
#[derive(Debug)]
pub enum NodeError {
    /// The chunk store failed.
    Store(StoreError),
    /// A referenced chunk is absent from the store.
    Missing(Hash),
    /// Chunk bytes do not parse as a node.
    Decode(DecodeError),
    /// Chunk bytes parse but violate node invariants.
    Malformed(String),
    /// Fetched bytes do not hash to the requested address (tampering or
    /// corruption detected end-to-end).
    HashMismatch {
        /// Requested address.
        expected: Hash,
        /// Hash of the bytes received.
        actual: Hash,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Store(e) => write!(f, "store error: {e}"),
            NodeError::Missing(h) => write!(f, "missing chunk {h:?}"),
            NodeError::Decode(e) => write!(f, "node decode error: {e}"),
            NodeError::Malformed(m) => write!(f, "malformed node: {m}"),
            NodeError::HashMismatch { expected, actual } => {
                write!(f, "hash mismatch: expected {expected:?}, got {actual:?}")
            }
        }
    }
}

impl std::error::Error for NodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NodeError::Store(e) => Some(e),
            NodeError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for NodeError {
    fn from(e: StoreError) -> Self {
        NodeError::Store(e)
    }
}

impl From<DecodeError> for NodeError {
    fn from(e: DecodeError) -> Self {
        NodeError::Decode(e)
    }
}

/// Result alias for node operations.
pub type NodeResult<T> = Result<T, NodeError>;

impl Node {
    /// Height above the leaves: 0 for leaf nodes.
    pub fn level(&self) -> u8 {
        match self {
            Node::Leaf(_) => 0,
            Node::Index { level, .. } => *level,
        }
    }

    /// The data entries of a leaf (empty for an index node).
    pub(crate) fn entries(&self) -> &[LeafEntry] {
        match self {
            Node::Leaf(e) => e,
            Node::Index { .. } => &[],
        }
    }

    /// The child references of an index node (empty for a leaf).
    pub(crate) fn children(&self) -> &[IndexEntry] {
        match self {
            Node::Leaf(_) => &[],
            Node::Index { children, .. } => children,
        }
    }

    /// Number of entries in this node (not the subtree).
    pub fn entry_count(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Index { children, .. } => children.len(),
        }
    }

    /// Number of leaf entries in the whole subtree rooted here.
    pub fn subtree_count(&self) -> u64 {
        match self {
            Node::Leaf(e) => e.len() as u64,
            Node::Index { children, .. } => children.iter().map(|c| c.count).sum(),
        }
    }

    /// Maximum key in the subtree (`None` for an empty leaf).
    pub fn split_key(&self) -> Option<Bytes> {
        match self {
            Node::Leaf(e) => e.last().map(|x| x.key.clone()),
            Node::Index { children, .. } => children.last().map(|c| c.split_key.clone()),
        }
    }

    /// Canonical encoding: `magic | kind | level | n | entries…`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_size_hint());
        out.push(NODE_MAGIC);
        match self {
            Node::Leaf(entries) => {
                out.push(KIND_LEAF);
                out.push(0u8);
                put_u32(&mut out, entries.len() as u32);
                for e in entries {
                    e.encode_into(&mut out);
                }
            }
            Node::Index { level, children } => {
                out.push(KIND_INDEX);
                out.push(*level);
                put_u32(&mut out, children.len() as u32);
                for c in children {
                    c.encode_into(&mut out);
                }
            }
        }
        out
    }

    fn encoded_size_hint(&self) -> usize {
        7 + match self {
            Node::Leaf(entries) => entries.iter().map(LeafEntry::encoded_len).sum::<usize>(),
            Node::Index { children, .. } => {
                children.iter().map(IndexEntry::encoded_len).sum::<usize>()
            }
        }
    }

    /// Decode a node from chunk bytes, validating structural invariants.
    /// Keys, values and split keys are views into `chunk`, not copies.
    pub fn decode(chunk: &Bytes) -> NodeResult<Node> {
        // The length-prefixed field just read, as a view into `chunk`.
        fn view(chunk: &Bytes, r: &mut Reader<'_>, what: &'static str) -> NodeResult<Bytes> {
            let len = r.bytes(what)?.len();
            Ok(chunk.slice(r.pos() - len..r.pos()))
        }
        let mut r = Reader::new(chunk);
        let magic = r.u8("magic")?;
        if magic != NODE_MAGIC {
            return Err(NodeError::Malformed(format!(
                "bad magic byte 0x{magic:02x}"
            )));
        }
        let kind = r.u8("kind")?;
        let level = r.u8("level")?;
        let n = r.u32("entry count")? as usize;
        let node = match kind {
            KIND_LEAF => {
                if level != 0 {
                    return Err(NodeError::Malformed(format!(
                        "leaf node with nonzero level {level}"
                    )));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = view(chunk, &mut r, "leaf key")?;
                    let value = view(chunk, &mut r, "leaf value")?;
                    entries.push(LeafEntry { key, value });
                }
                Node::Leaf(entries)
            }
            KIND_INDEX => {
                if level == 0 {
                    return Err(NodeError::Malformed("index node with level 0".into()));
                }
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    let split_key = view(chunk, &mut r, "split key")?;
                    let hash_bytes = r.raw(32, "child hash")?;
                    let hash = Hash::from_slice(hash_bytes).expect("32 bytes");
                    let count = r.u64("child count")?;
                    children.push(IndexEntry {
                        split_key,
                        hash,
                        count,
                    });
                }
                if children.is_empty() {
                    return Err(NodeError::Malformed("index node with no children".into()));
                }
                Node::Index { level, children }
            }
            other => {
                return Err(NodeError::Malformed(format!("unknown node kind {other}")));
            }
        };
        if !r.is_empty() {
            return Err(NodeError::Malformed(format!(
                "{} trailing bytes after node",
                r.remaining()
            )));
        }
        Ok(node)
    }

    /// Encode, hash, and persist this node. Returns its content address.
    pub fn store<S: ChunkStore>(&self, store: &S) -> NodeResult<Hash> {
        let bytes = self.encode();
        let hash = sha256(&bytes);
        store.put_with_hash(hash, Bytes::from(bytes))?;
        Ok(hash)
    }

    /// Fetch and decode the node at `hash`, verifying content integrity
    /// end-to-end (the fetched bytes must hash back to `hash` — this is the
    /// per-node tamper check of §II-D).
    pub fn load<S: ChunkStore>(store: &S, hash: &Hash) -> NodeResult<Node> {
        Node::decode(&fetch_verified(store, hash)?)
    }
}

/// The chunk at `hash` (a node or a raw blob chunk), checked to hash back
/// to `hash`.
pub(crate) fn fetch_verified<S: ChunkStore>(store: &S, hash: &Hash) -> NodeResult<Bytes> {
    let bytes = store.get(hash)?.ok_or(NodeError::Missing(*hash))?;
    let actual = sha256(&bytes);
    if actual != *hash {
        return Err(NodeError::HashMismatch {
            expected: *hash,
            actual,
        });
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::{FaultMode, FaultyStore, MemStore};

    fn leaf(entries: &[(&str, &str)]) -> Node {
        Node::Leaf(
            entries
                .iter()
                .map(|(k, v)| LeafEntry::new(k.as_bytes().to_vec(), v.as_bytes().to_vec()))
                .collect(),
        )
    }

    #[test]
    fn leaf_roundtrip() {
        let node = leaf(&[("alpha", "1"), ("beta", "2"), ("gamma", "")]);
        let chunk = Bytes::from(node.encode());
        let decoded = Node::decode(&chunk).unwrap();
        assert_eq!(decoded, node);
        // Zero-copy: every field is a view into the chunk.
        let Node::Leaf(entries) = &decoded else {
            panic!("decoded a leaf as an index node");
        };
        for e in entries {
            assert_eq!(e.key.backing_len(), chunk.len());
            assert_eq!(e.value.backing_len(), chunk.len());
        }
        assert_eq!(decoded.level(), 0);
        assert_eq!(decoded.entry_count(), 3);
        assert_eq!(decoded.subtree_count(), 3);
        assert_eq!(decoded.split_key().unwrap(), Bytes::from_static(b"gamma"));
    }

    #[test]
    fn empty_leaf_roundtrip() {
        let node = Node::Leaf(vec![]);
        let decoded = Node::decode(&Bytes::from(node.encode())).unwrap();
        assert_eq!(decoded, node);
        assert_eq!(decoded.split_key(), None);
    }

    #[test]
    fn index_roundtrip() {
        let node = Node::Index {
            level: 2,
            children: vec![
                IndexEntry::new(&b"m"[..], sha256(b"child1"), 10),
                IndexEntry::new(&b"z"[..], sha256(b"child2"), 7),
            ],
        };
        let decoded = Node::decode(&Bytes::from(node.encode())).unwrap();
        assert_eq!(decoded, node);
        assert_eq!(decoded.level(), 2);
        assert_eq!(decoded.subtree_count(), 17);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            Node::decode(&Bytes::from_static(b"not a node")),
            Err(NodeError::Malformed(_))
        ));
        assert!(matches!(
            Node::decode(&Bytes::new()),
            Err(NodeError::Decode(_))
        ));
        // Truncated entry.
        let mut bytes = leaf(&[("k", "v")]).encode();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            Node::decode(&Bytes::from(bytes)),
            Err(NodeError::Decode(_))
        ));
        // Trailing junk.
        let mut bytes = leaf(&[("k", "v")]).encode();
        bytes.push(0);
        assert!(matches!(
            Node::decode(&Bytes::from(bytes)),
            Err(NodeError::Malformed(_))
        ));
    }

    #[test]
    fn decode_rejects_inconsistent_kind_level() {
        let mut bytes = leaf(&[("k", "v")]).encode();
        bytes[2] = 3; // leaf with level 3
        assert!(matches!(
            Node::decode(&Bytes::from(bytes)),
            Err(NodeError::Malformed(_))
        ));

        let idx = Node::Index {
            level: 1,
            children: vec![IndexEntry::new(&b"k"[..], sha256(b"c"), 1)],
        };
        let mut bytes = idx.encode();
        bytes[2] = 0; // index with level 0
        assert!(matches!(
            Node::decode(&Bytes::from(bytes)),
            Err(NodeError::Malformed(_))
        ));
    }

    #[test]
    fn store_load_roundtrip() {
        let store = MemStore::new();
        let node = leaf(&[("x", "1")]);
        let h = node.store(&store).unwrap();
        assert_eq!(Node::load(&store, &h).unwrap(), node);
        assert!(matches!(
            Node::load(&store, &sha256(b"absent")),
            Err(NodeError::Missing(_))
        ));
    }

    #[test]
    fn identical_nodes_dedup() {
        let store = MemStore::new();
        let a = leaf(&[("k", "v")]).store(&store).unwrap();
        let b = leaf(&[("k", "v")]).store(&store).unwrap();
        assert_eq!(a, b);
        assert_eq!(store.chunk_count(), 1);
    }

    #[test]
    fn load_detects_tampering() {
        let inner = MemStore::new();
        let node = leaf(&[("secret", "value")]);
        let h = node.store(&inner).unwrap();
        let store = FaultyStore::new(inner);
        store.inject(h, FaultMode::FlipBit { byte: 10 });
        match Node::load(&store, &h) {
            Err(NodeError::HashMismatch { expected, .. }) => assert_eq!(expected, h),
            other => panic!("expected HashMismatch, got {other:?}"),
        }
    }

    /// Rewrite one payload byte of the first frame in `dir`'s first pack
    /// file and recompute the frame CRC, in place under the open store:
    /// the frame stays well formed, so only the SHA-256 address can tell.
    fn rewrite_first_frame(dir: &std::path::Path, len: usize) {
        use std::os::unix::fs::FileExt;
        const HEADER: usize = 4 + 4 + 32;
        let path = dir.join("pack-00000000.fbk");
        let mut frame = std::fs::read(&path).unwrap()[..HEADER + len + 4].to_vec();
        frame[HEADER + len / 2] ^= 0x01;
        let crc = forkbase_crypto::crc32(&frame[8..HEADER + len]);
        frame[HEADER + len..].copy_from_slice(&crc.to_le_bytes());
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&frame, 0).unwrap();
    }

    #[test]
    fn crc_matching_rewrite_on_a_file_store_is_a_hash_mismatch() {
        // `FileStore::get` checks only its framing, so a payload rewritten
        // under a matching CRC reaches the verifying fetch, which is the
        // one SHA-256 check on the read path.
        let dir =
            std::env::temp_dir().join(format!("forkbase-node-rewrite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = forkbase_store::FileStore::open(&dir).unwrap();
        let chunk = leaf(&[("secret", "value"), ("other", "entry")]).encode();
        let h = store.put(Bytes::from(chunk.clone())).unwrap();
        store.sync().unwrap();
        rewrite_first_frame(&dir, chunk.len());
        for got in [
            fetch_verified(&store, &h).map(|_| ()),
            Node::load(&store, &h).map(|_| ()),
        ] {
            match got {
                Err(NodeError::HashMismatch { expected, .. }) => assert_eq!(expected, h),
                other => panic!("expected HashMismatch, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = leaf(&[("a", "1"), ("b", "2")]);
        let b = leaf(&[("a", "1"), ("b", "2")]);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(sha256(&a.encode()), sha256(&b.encode()));
    }
}
