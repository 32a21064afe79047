#![forbid(unsafe_code)]
//! Chunk storage layer (paper Fig. 1, bottom layer).
//!
//! All ForkBase data — POS-Tree pages, blob chunks, FNodes — is materialized
//! as immutable *chunks* in a content-addressed key-value store: the key is
//! the SHA-256 of the chunk bytes, so "each distinct chunk is stored exactly
//! once and can be shared across different data objects" (§II-C). This is
//! what turns POS-Tree page sharing into physical deduplication.
//!
//! Implementations:
//!
//! * [`MemStore`] — concurrent in-memory store; the default substrate for
//!   tests and benchmarks.
//! * [`FileStore`] — durable segmented pack-file store: CRC-framed
//!   append-only segments tracked by an atomically-swapped manifest, an
//!   in-memory index, crash recovery that tolerates torn tail writes and
//!   killed compactions, and GC-driven physical compaction.
//! * [`FaultyStore`] — fault-injection wrapper simulating the paper's
//!   *malicious storage provider* (§II-D): corrupts, drops, or substitutes
//!   chunks so tamper-evidence tests can prove detection.
//!
//! Each implements one write, [`ChunkStore::put_batch`]. A single put is
//! a batch of one, and the chunk and byte counts are read from
//! [`StoreStats`], so a wrapper that intercepts writes (fault injection,
//! tracing) has one method to wrap.
//!
//! Stores that can physically reclaim dead-chunk space additionally
//! implement the [`SweepStore`] capability (see [`sweep`]); the fault
//! wrapper forwards it.
//!
//! Every store tracks [`StoreStats`] — the counters behind the Fig. 4
//! deduplication experiment (storage growth per dataset load).

pub mod error;
pub mod faulty;
pub mod file;
pub mod mem;
pub mod stats;
pub mod sweep;

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};

pub use error::{StoreError, StoreResult};
pub use faulty::{FaultMode, FaultyStore, WriteFault};
pub use file::{FileStore, FileStoreConfig};
pub use mem::MemStore;
pub use stats::StoreStats;
pub use sweep::{SweepReport, SweepStore, Utilization};

/// A content-addressed store of immutable chunks.
///
/// A backend implements one write, [`Self::put_batch`]; the single puts
/// are batches of one, and [`Self::chunk_count`] / [`Self::stored_bytes`]
/// read [`Self::stats`]. Implementations must be safe for concurrent use;
/// ForkBase servelets share one store across request threads.
pub trait ChunkStore: Send + Sync {
    /// Store `bytes` under its content hash. Returns the hash. Storing the
    /// same content twice is a dedup hit and costs no extra space.
    fn put(&self, bytes: Bytes) -> StoreResult<Hash> {
        let hash = sha256(&bytes);
        self.put_with_hash(hash, bytes)?;
        Ok(hash)
    }

    /// Store `bytes` under a caller-computed `hash` (callers hash the
    /// canonical encoding once and reuse it). Returns `true` if the chunk
    /// was newly stored, `false` if it was already present (dedup hit).
    /// A batch of one.
    ///
    /// The hash **must** be the SHA-256 of `bytes`; debug builds verify.
    fn put_with_hash(&self, hash: Hash, bytes: Bytes) -> StoreResult<bool> {
        Ok(self.put_batch(vec![(hash, bytes)])? == 1)
    }

    /// Store a batch of caller-hashed chunks in one store round-trip,
    /// returning how many were newly stored (the rest were dedup hits).
    /// The one write every backend implements.
    ///
    /// Chunks are stored in order; a hash that appears twice in one batch
    /// is a dedup hit the second time, and every chunk updates
    /// [`StoreStats`] exactly once. Backends amortize locking over the
    /// batch: `FileStore` takes its active-segment lock once per batch.
    ///
    /// Every hash **must** be the SHA-256 of its bytes; debug builds
    /// verify.
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize>;

    /// Fetch a chunk by hash. `Ok(None)` means the store has no such chunk.
    ///
    /// The bytes are **media-checked, not authenticated**: a store may
    /// check its own framing ([`FileStore`] checks the frame's stored hash
    /// and CRC-32), but no store promises that the bytes hash to `hash`.
    /// Tamper evidence is the addressed reader's job — the caller knows
    /// the address it asked for and re-hashes what it got, as the POS-Tree
    /// fetch, `FNode` load and bundle import do.
    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>>;

    /// Whether a chunk with this hash is present.
    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        Ok(self.get(hash)?.is_some())
    }

    /// Snapshot of the store's counters.
    fn stats(&self) -> StoreStats;

    /// Number of unique chunks stored.
    fn chunk_count(&self) -> usize {
        self.stats().unique_chunks as usize
    }

    /// Total unique (deduplicated) payload bytes stored. This is the number
    /// the Fig. 4 demo reports as "storage increased by X KB".
    fn stored_bytes(&self) -> u64 {
        self.stats().stored_bytes
    }

    /// Flush any buffered writes to durable media. No-op for volatile
    /// stores.
    fn sync(&self) -> StoreResult<()> {
        Ok(())
    }
}

/// Blanket impl so `Arc<dyn ChunkStore>` and `&S` work as stores.
impl<S: ChunkStore + ?Sized> ChunkStore for &S {
    fn put_with_hash(&self, hash: Hash, bytes: Bytes) -> StoreResult<bool> {
        (**self).put_with_hash(hash, bytes)
    }
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        (**self).put_batch(chunks)
    }
    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        (**self).get(hash)
    }
    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        (**self).contains(hash)
    }
    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
    fn chunk_count(&self) -> usize {
        (**self).chunk_count()
    }
    fn stored_bytes(&self) -> u64 {
        (**self).stored_bytes()
    }
    fn sync(&self) -> StoreResult<()> {
        (**self).sync()
    }
}

impl<S: ChunkStore + ?Sized> ChunkStore for std::sync::Arc<S> {
    fn put_with_hash(&self, hash: Hash, bytes: Bytes) -> StoreResult<bool> {
        (**self).put_with_hash(hash, bytes)
    }
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        (**self).put_batch(chunks)
    }
    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        (**self).get(hash)
    }
    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        (**self).contains(hash)
    }
    fn stats(&self) -> StoreStats {
        (**self).stats()
    }
    fn chunk_count(&self) -> usize {
        (**self).chunk_count()
    }
    fn stored_bytes(&self) -> u64 {
        (**self).stored_bytes()
    }
    fn sync(&self) -> StoreResult<()> {
        (**self).sync()
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn default_put_computes_hash() {
        let store = MemStore::new();
        let h = store.put(Bytes::from_static(b"hello")).unwrap();
        assert_eq!(h, sha256(b"hello"));
        assert_eq!(
            store.get(&h).unwrap().unwrap(),
            Bytes::from_static(b"hello")
        );
    }

    #[test]
    fn arc_and_ref_forwarding() {
        let store = Arc::new(MemStore::new());
        let h = store.put(Bytes::from_static(b"x")).unwrap();
        let as_ref: &dyn ChunkStore = &*store;
        assert!(as_ref.contains(&h).unwrap());
        assert_eq!(store.chunk_count(), 1);
    }

    /// A store that only implements the required methods, so the single
    /// puts and the counters resolve to the trait's provided methods.
    struct DefaultOnly(MemStore);

    impl ChunkStore for DefaultOnly {
        fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
            self.0.put_batch(chunks)
        }
        fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
            self.0.get(hash)
        }
        fn stats(&self) -> StoreStats {
            self.0.stats()
        }
    }

    fn hashed(data: &[&'static [u8]]) -> Vec<(Hash, Bytes)> {
        data.iter()
            .map(|d| (sha256(d), Bytes::from_static(d)))
            .collect()
    }

    #[test]
    fn put_with_hash_is_a_batch_of_one() {
        let store = DefaultOnly(MemStore::new());
        let newly = store
            .put_batch(hashed(&[b"one", b"two", b"two", b"three"]))
            .unwrap();
        assert_eq!(newly, 3, "intra-batch duplicate is a dedup hit");
        let st = store.stats();
        assert_eq!(st.puts, 4);
        assert_eq!(st.unique_chunks, 3);
        assert_eq!(st.dedup_hits, 1);
        // A single put of a resident chunk is a one-chunk batch of hits...
        assert!(!store
            .put_with_hash(sha256(b"one"), Bytes::from_static(b"one"))
            .unwrap());
        // ...and of a fresh chunk, a one-chunk batch that stores it.
        assert!(store
            .put_with_hash(sha256(b"four"), Bytes::from_static(b"four"))
            .unwrap());
        let st = store.stats();
        assert_eq!(st.puts, 6);
        assert_eq!(st.unique_chunks, 4);
        assert_eq!(st.dedup_hits, 2);
        assert_eq!(store.chunk_count(), 4);
        assert_eq!(store.stored_bytes(), b"onetwothreefour".len() as u64);
    }

    #[test]
    fn put_batch_forwards_through_arc_and_ref() {
        let store = Arc::new(MemStore::new());
        let newly = store.put_batch(hashed(&[b"a", b"b"])).unwrap();
        assert_eq!(newly, 2);
        let as_ref: &dyn ChunkStore = &*store;
        assert_eq!(as_ref.put_batch(hashed(&[b"a", b"c"])).unwrap(), 1);
        assert_eq!(store.chunk_count(), 3);
    }
}
