//! Concurrent in-memory chunk store.
//!
//! The default substrate for unit tests, benchmarks and the in-process
//! multi-servelet cluster. Chunk keys are already uniformly distributed
//! SHA-256 digests, so the map uses a pass-through hasher that reads the
//! first 8 bytes of the digest instead of re-hashing with SipHash.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use bytes::Bytes;
use forkbase_crypto::Hash;
use parking_lot::RwLock;

use crate::stats::{StatsCell, StoreStats};
use crate::sweep::{SweepReport, SweepStore, Utilization};
use crate::{ChunkStore, StoreResult};

/// Hasher that passes through the first 8 bytes of a SHA-256 digest.
#[derive(Default)]
pub struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Called once with the 32-byte digest; fold the first 8 bytes.
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        self.0 ^= u64::from_le_bytes(buf);
    }
}

type DigestMap = HashMap<Hash, Bytes, BuildHasherDefault<DigestHasher>>;

/// Number of independently locked shards. Power of two; picked so that the
/// bench workloads (≤ 32 threads) rarely contend.
const SHARDS: usize = 16;

/// In-memory content-addressed store.
pub struct MemStore {
    shards: Vec<RwLock<DigestMap>>,
    stats: StatsCell,
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MemStore {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(DigestMap::default()))
                .collect(),
            stats: StatsCell::new(),
        }
    }

    #[inline]
    fn shard(&self, hash: &Hash) -> &RwLock<DigestMap> {
        // Use trailing bytes for shard selection so it is independent of the
        // map's internal hash (which uses the leading bytes).
        let idx = hash.as_bytes()[31] as usize % SHARDS;
        &self.shards[idx]
    }

    /// Iterate over all `(hash, len)` pairs; used by GC and tests. Takes a
    /// snapshot per shard, so it is safe under concurrent writes.
    pub fn for_each_chunk(&self, mut f: impl FnMut(&Hash, usize)) {
        for shard in &self.shards {
            let guard = shard.read();
            for (h, b) in guard.iter() {
                f(h, b.len());
            }
        }
    }
}

/// In-memory sweep: dropping a chunk from the shard maps *is* the physical
/// reclamation, so there is never anything to rewrite. The mark phase
/// (reachability from branch heads) lives in `forkbase::gc`.
impl SweepStore for MemStore {
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport> {
        let disk_bytes_before = self.stored_bytes();
        let mut chunks = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.retain(|h, b| {
                if live(h) {
                    true
                } else {
                    chunks += 1;
                    bytes += b.len() as u64;
                    false
                }
            });
        }
        if chunks > 0 {
            self.stats.record_swept(chunks, bytes);
        }
        Ok(SweepReport {
            chunks_reclaimed: chunks,
            bytes_reclaimed: bytes,
            disk_bytes_before,
            disk_bytes_after: disk_bytes_before.saturating_sub(bytes),
            ..Default::default()
        })
    }

    fn utilization(&self) -> StoreResult<Utilization> {
        let live = self.stored_bytes();
        Ok(Utilization {
            live_bytes: live,
            disk_bytes: live,
        })
    }
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkStore for MemStore {
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        let puts = chunks.len() as u64;
        let logical: u64 = chunks.iter().map(|(_, b)| b.len() as u64).sum();
        let mut new_chunks = 0u64;
        let mut new_bytes = 0u64;
        for (hash, bytes) in chunks {
            debug_assert_eq!(
                forkbase_crypto::sha256(&bytes),
                hash,
                "put_batch called with a hash that does not match the content"
            );
            let len = bytes.len() as u64;
            if let Entry::Vacant(v) = self.shard(&hash).write().entry(hash) {
                // Retain a compact buffer: a chunk arriving as a small
                // slice of a large ingest buffer (the zero-copy blob path)
                // must not pin that whole buffer for the store's lifetime.
                v.insert(bytes.compact());
                new_chunks += 1;
                new_bytes += len;
            }
        }
        self.stats
            .record_put_batch(puts, logical, new_chunks, new_bytes);
        Ok(new_chunks as usize)
    }

    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        let guard = self.shard(hash).read();
        let found = guard.get(hash).cloned();
        drop(guard);
        self.stats.record_get(found.is_some());
        Ok(found)
    }

    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        Ok(self.shard(hash).read().contains_key(hash))
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::sha256;
    use std::sync::Arc;

    #[test]
    fn stored_slices_do_not_pin_their_backing_buffer() {
        // Zero-copy blob ingestion hands the store small slice views of a
        // large buffer; retaining them verbatim would keep the whole
        // buffer alive even when dedup stores only a sliver.
        let s = MemStore::new();
        let big = Bytes::from(vec![0xa5u8; 1 << 20]);
        let h = s.put(big.slice(1000..5096)).unwrap();
        let stored = s.get(&h).unwrap().expect("stored");
        assert_eq!(stored, big.slice(1000..5096));
        assert!(
            stored.backing_len() < 1 << 16,
            "stored chunk pins {} bytes of backing buffer",
            stored.backing_len()
        );
    }

    #[test]
    fn put_get_roundtrip() {
        let s = MemStore::new();
        let data = Bytes::from_static(b"chunk content");
        let h = s.put(data.clone()).unwrap();
        assert_eq!(s.get(&h).unwrap(), Some(data));
        assert_eq!(s.get(&sha256(b"missing")).unwrap(), None);
    }

    #[test]
    fn duplicate_put_is_dedup_hit() {
        let s = MemStore::new();
        let data = Bytes::from_static(b"same bytes");
        assert!(s.put_with_hash(sha256(&data), data.clone()).unwrap());
        assert!(!s.put_with_hash(sha256(&data), data.clone()).unwrap());
        let st = s.stats();
        assert_eq!(st.unique_chunks, 1);
        assert_eq!(st.dedup_hits, 1);
        assert_eq!(st.stored_bytes, data.len() as u64);
        assert_eq!(st.logical_bytes, 2 * data.len() as u64);
    }

    #[test]
    fn chunk_count_spans_shards() {
        let s = MemStore::new();
        for i in 0..100u32 {
            s.put(Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        assert_eq!(s.chunk_count(), 100);
    }

    #[test]
    fn concurrent_puts_dedup_correctly() {
        let s = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    // All threads write the same 500 chunks.
                    let data = Bytes::from(format!("shared-{i}-{}", i * 3));
                    s.put(data).unwrap();
                    let _ = t;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.chunk_count(), 500);
        let st = s.stats();
        assert_eq!(st.puts, 8 * 500);
        assert_eq!(st.dedup_hits, 7 * 500);
    }

    #[test]
    fn put_batch_stats_update_exactly_once_per_chunk() {
        let s = MemStore::new();
        let pre = s.put(Bytes::from_static(b"already here")).unwrap();
        let batch: Vec<(Hash, Bytes)> = [
            Bytes::from_static(b"already here"), // dedup vs resident chunk
            Bytes::from_static(b"fresh-1"),
            Bytes::from_static(b"fresh-2"),
            Bytes::from_static(b"fresh-1"), // dedup within the batch
        ]
        .into_iter()
        .map(|b| (sha256(&b), b))
        .collect();
        let newly = s.put_batch(batch).unwrap();
        assert_eq!(newly, 2);
        let st = s.stats();
        assert_eq!(st.puts, 1 + 4);
        assert_eq!(st.unique_chunks, 3);
        assert_eq!(st.dedup_hits, 2);
        assert_eq!(
            st.stored_bytes,
            (b"already here".len() + b"fresh-1".len() + b"fresh-2".len()) as u64
        );
        assert_eq!(
            st.logical_bytes,
            (2 * b"already here".len() + 2 * b"fresh-1".len() + b"fresh-2".len()) as u64
        );
        assert!(s.contains(&pre).unwrap());
    }

    #[test]
    fn put_batch_equals_sequential_puts() {
        let sequential = MemStore::new();
        let batched = MemStore::new();
        let data: Vec<Bytes> = (0..200u32)
            .map(|i| Bytes::from(format!("chunk-{}", i % 120))) // ~40% dups
            .collect();
        for b in &data {
            sequential.put(b.clone()).unwrap();
        }
        batched
            .put_batch(data.iter().map(|b| (sha256(b), b.clone())).collect())
            .unwrap();
        assert_eq!(sequential.stats(), batched.stats());
        assert_eq!(sequential.chunk_count(), batched.chunk_count());
    }

    #[test]
    fn concurrent_batches_dedup_correctly() {
        let s = Arc::new(MemStore::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for round in 0..10u32 {
                    let batch: Vec<(Hash, Bytes)> = (0..50u32)
                        .map(|i| {
                            let b = Bytes::from(format!("shared-{round}-{i}"));
                            (sha256(&b), b)
                        })
                        .collect();
                    s.put_batch(batch).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.chunk_count(), 500);
        let st = s.stats();
        assert_eq!(st.puts, 8 * 500);
        assert_eq!(st.dedup_hits, 7 * 500);
    }

    #[test]
    fn sweep_removes_dead_chunks() {
        let s = MemStore::new();
        let keep = s.put(Bytes::from_static(b"keep me")).unwrap();
        let _dead = s.put(Bytes::from_static(b"dead chunk")).unwrap();
        let report = s.sweep(&|h| *h == keep).unwrap();
        assert_eq!(report.chunks_reclaimed, 1);
        assert_eq!(report.bytes_reclaimed, b"dead chunk".len() as u64);
        assert_eq!(report.chunks_rewritten, 0, "nothing to rewrite in RAM");
        assert_eq!(s.chunk_count(), 1);
        assert!(s.contains(&keep).unwrap());
        let st = s.stats();
        assert_eq!(st.stored_bytes, b"keep me".len() as u64);
        assert_eq!(st.sweep_chunks_reclaimed, 1);
        assert_eq!(s.utilization().unwrap().ratio(), 1.0);
    }

    #[test]
    fn for_each_chunk_visits_everything() {
        let s = MemStore::new();
        s.put(Bytes::from_static(b"a")).unwrap();
        s.put(Bytes::from_static(b"bb")).unwrap();
        let mut total = 0usize;
        let mut count = 0usize;
        s.for_each_chunk(|_, len| {
            total += len;
            count += 1;
        });
        assert_eq!(count, 2);
        assert_eq!(total, 3);
    }
}
