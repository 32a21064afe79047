//! Fault-injection store modelling the paper's malicious storage provider.
//!
//! §II-D's threat model: "the storage is malicious, but the users keep track
//! of the latest uid of every branch". [`FaultyStore`] wraps any store and
//! lets tests make the provider lie in every way a real adversary could:
//! silently mutate chunk bytes, drop chunks, or substitute different
//! (self-consistent!) content. Tamper-evidence tests then assert ForkBase
//! *detects* every manipulation — never returning bad data as good.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use bytes::Bytes;
use forkbase_crypto::Hash;
use parking_lot::RwLock;

use crate::stats::StoreStats;
use crate::sweep::{SweepReport, SweepStore, Utilization};
use crate::{ChunkStore, StoreError, StoreResult};

/// How a particular chunk should misbehave on `get`.
#[derive(Clone, Debug)]
pub enum FaultMode {
    /// Return the stored bytes with one bit flipped.
    FlipBit {
        /// Which byte of the payload to corrupt (clamped to length).
        byte: usize,
    },
    /// Pretend the chunk does not exist.
    Drop,
    /// Return entirely different bytes.
    Substitute(Bytes),
    /// Return the stored bytes truncated to this length.
    Truncate(usize),
}

/// How the write path should misbehave ([`FaultyStore::inject_write`]).
///
/// Unlike the read-side [`FaultMode`]s (a lying adversary over an honest
/// store), write faults model a *crashing* provider: the put fails with an
/// I/O error and — for [`WriteFault::FailPutBatchAfter`] — may leave a torn
/// prefix of the batch behind, exactly what a mid-batch power cut leaves in
/// a pack file before the commit record lands. Both act on `put_batch`,
/// the store's one write; a single `put` / `put_with_hash` is a batch of
/// one and fails or spends budget as one.
#[derive(Clone, Copy, Debug)]
pub enum WriteFault {
    /// Every write fails before writing anything.
    FailPut,
    /// Writes land the next `n` chunks in the inner store, then fail — a
    /// torn batch. The budget spans calls: a batch of one spends one.
    FailPutBatchAfter(usize),
}

/// A store wrapper that injects faults on reads of selected chunks and,
/// optionally, on the write path.
///
/// Note the read faults are *read-side*: the underlying store still holds
/// the honest bytes, matching an adversary who serves bad data over the
/// wire. Write faults ([`WriteFault`]) instead model a crashing provider
/// whose failure may tear a batch.
pub struct FaultyStore<S> {
    inner: S,
    faults: RwLock<HashMap<Hash, FaultMode>>,
    write_fault: RwLock<Option<WriteFault>>,
    /// Chunks the armed [`WriteFault::FailPutBatchAfter`] still allows
    /// through before failing.
    write_budget: AtomicUsize,
}

impl<S: ChunkStore> FaultyStore<S> {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: S) -> Self {
        FaultyStore {
            inner,
            faults: RwLock::new(HashMap::new()),
            write_fault: RwLock::new(None),
            write_budget: AtomicUsize::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Arm a fault for the chunk at `hash`.
    pub fn inject(&self, hash: Hash, mode: FaultMode) {
        self.faults.write().insert(hash, mode);
    }

    /// Disarm the fault (if any) for `hash`.
    pub fn heal(&self, hash: &Hash) {
        self.faults.write().remove(hash);
    }

    /// Disarm all faults.
    pub fn heal_all(&self) {
        self.faults.write().clear();
    }

    /// Number of armed faults.
    pub fn fault_count(&self) -> usize {
        self.faults.read().len()
    }

    /// Arm a write-path fault (replacing any armed one).
    pub fn inject_write(&self, fault: WriteFault) {
        let budget = match fault {
            WriteFault::FailPut => 0,
            WriteFault::FailPutBatchAfter(n) => n,
        };
        // Budget before mode: a concurrent writer observing the armed
        // mode must never read a stale (larger) budget.
        self.write_budget.store(budget, Ordering::SeqCst);
        *self.write_fault.write() = Some(fault);
    }

    /// Disarm the write-path fault; writes are honest again.
    pub fn heal_writes(&self) {
        *self.write_fault.write() = None;
    }

    fn injected_write_error() -> StoreError {
        StoreError::Io(std::io::Error::other("injected write fault (FaultyStore)"))
    }

    /// Consume `want` chunks of write budget; returns how many may still
    /// be written before the armed fault fires (`None` = no fault armed).
    fn take_write_budget(&self, want: usize) -> Option<usize> {
        match *self.write_fault.read() {
            None => None,
            Some(WriteFault::FailPut) => Some(0),
            Some(WriteFault::FailPutBatchAfter(_)) => {
                let granted = self
                    .write_budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                        Some(left.saturating_sub(want))
                    })
                    .expect("fetch_update closure never returns None");
                Some(granted.min(want))
            }
        }
    }
}

impl<S: ChunkStore> ChunkStore for FaultyStore<S> {
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        match self.take_write_budget(chunks.len()) {
            Some(allowed) if allowed < chunks.len() => {
                // Torn batch: a prefix lands in the inner store, then the
                // "crash". The caller sees only the error.
                let prefix: Vec<(Hash, Bytes)> = chunks.into_iter().take(allowed).collect();
                if !prefix.is_empty() {
                    self.inner.put_batch(prefix)?;
                }
                Err(Self::injected_write_error())
            }
            // Read-side faults never touch writes (§II-D: the adversary
            // serves bad data, the write path is honest).
            _ => self.inner.put_batch(chunks),
        }
    }

    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        let mode = self.faults.read().get(hash).cloned();
        let Some(mode) = mode else {
            return self.inner.get(hash);
        };
        match mode {
            FaultMode::Drop => Ok(None),
            FaultMode::Substitute(bytes) => Ok(Some(bytes)),
            FaultMode::FlipBit { byte } => {
                let honest = self.inner.get(hash)?;
                Ok(honest.map(|b| {
                    let mut v = b.to_vec();
                    if !v.is_empty() {
                        let idx = byte.min(v.len() - 1);
                        v[idx] ^= 0x01;
                    }
                    Bytes::from(v)
                }))
            }
            FaultMode::Truncate(len) => {
                let honest = self.inner.get(hash)?;
                Ok(honest.map(|b| b.slice(..len.min(b.len()))))
            }
        }
    }

    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        if matches!(self.faults.read().get(hash), Some(FaultMode::Drop)) {
            return Ok(false);
        }
        self.inner.contains(hash)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn sync(&self) -> StoreResult<()> {
        self.inner.sync()
    }
}

/// Sweeps are write-side (the adversary only lies on reads), so they pass
/// straight through to the honest inner store.
impl<S: SweepStore> SweepStore for FaultyStore<S> {
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport> {
        self.inner.sweep(live)
    }

    fn utilization(&self) -> StoreResult<Utilization> {
        self.inner.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use forkbase_crypto::sha256;

    fn setup() -> (FaultyStore<MemStore>, Hash, Bytes) {
        let s = FaultyStore::new(MemStore::new());
        let data = Bytes::from_static(b"honest chunk bytes");
        let h = s.put(data.clone()).unwrap();
        (s, h, data)
    }

    #[test]
    fn no_fault_passes_through() {
        let (s, h, data) = setup();
        assert_eq!(s.get(&h).unwrap(), Some(data));
    }

    #[test]
    fn put_batch_passes_through_with_read_side_faults() {
        let s = FaultyStore::new(MemStore::new());
        let a = Bytes::from_static(b"batch-honest-a");
        let b = Bytes::from_static(b"batch-honest-b");
        let batch = vec![(sha256(&a), a.clone()), (sha256(&b), b.clone())];
        assert_eq!(s.put_batch(batch).unwrap(), 2);
        s.inject(sha256(&a), FaultMode::Drop);
        assert_eq!(s.get(&sha256(&a)).unwrap(), None, "read-side fault");
        assert_eq!(s.get(&sha256(&b)).unwrap(), Some(b));
        assert_eq!(s.inner().chunk_count(), 2, "writes stayed honest");
    }

    #[test]
    fn flip_bit_changes_content() {
        let (s, h, data) = setup();
        s.inject(h, FaultMode::FlipBit { byte: 0 });
        let tampered = s.get(&h).unwrap().unwrap();
        assert_ne!(tampered, data);
        assert_ne!(sha256(&tampered), h, "tampering must be hash-detectable");
        assert_eq!(tampered.len(), data.len());
    }

    #[test]
    fn drop_hides_chunk() {
        let (s, h, _) = setup();
        s.inject(h, FaultMode::Drop);
        assert_eq!(s.get(&h).unwrap(), None);
        assert!(!s.contains(&h).unwrap());
    }

    #[test]
    fn substitute_returns_other_bytes() {
        let (s, h, _) = setup();
        s.inject(h, FaultMode::Substitute(Bytes::from_static(b"evil")));
        assert_eq!(s.get(&h).unwrap(), Some(Bytes::from_static(b"evil")));
    }

    #[test]
    fn truncate_shortens() {
        let (s, h, data) = setup();
        s.inject(h, FaultMode::Truncate(4));
        assert_eq!(s.get(&h).unwrap(), Some(data.slice(..4)));
    }

    #[test]
    fn fail_put_rejects_all_writes_until_healed() {
        let s = FaultyStore::new(MemStore::new());
        s.inject_write(WriteFault::FailPut);
        assert!(s.put(Bytes::from_static(b"doomed")).is_err());
        let batch = vec![(sha256(b"x"), Bytes::from_static(b"x"))];
        assert!(s.put_batch(batch).is_err());
        assert_eq!(s.inner().chunk_count(), 0, "FailPut writes nothing");
        s.heal_writes();
        s.put(Bytes::from_static(b"fine")).unwrap();
        assert_eq!(s.inner().chunk_count(), 1);
    }

    #[test]
    fn fail_put_batch_after_tears_the_batch() {
        let s = FaultyStore::new(MemStore::new());
        s.inject_write(WriteFault::FailPutBatchAfter(2));
        let payloads: Vec<Bytes> = (0..5).map(|i| Bytes::from(format!("chunk-{i}"))).collect();
        let batch: Vec<(Hash, Bytes)> = payloads.iter().map(|b| (sha256(b), b.clone())).collect();
        assert!(s.put_batch(batch).is_err(), "torn batch must error");
        assert_eq!(s.inner().chunk_count(), 2, "exactly the prefix landed");
        assert!(s.inner().contains(&sha256(&payloads[0])).unwrap());
        assert!(s.inner().contains(&sha256(&payloads[1])).unwrap());
        assert!(!s.inner().contains(&sha256(&payloads[2])).unwrap());
        // Budget exhausted: further writes fail outright until healed.
        assert!(s.put(Bytes::from_static(b"after")).is_err());
        s.heal_writes();
        s.put(Bytes::from_static(b"after")).unwrap();
    }

    #[test]
    fn single_puts_share_the_batch_budget() {
        let s = FaultyStore::new(MemStore::new());
        s.inject_write(WriteFault::FailPutBatchAfter(1));
        s.put(Bytes::from_static(b"first")).unwrap();
        assert!(s.put(Bytes::from_static(b"second")).is_err());
        assert_eq!(s.inner().chunk_count(), 1);
    }

    #[test]
    fn heal_restores_honesty() {
        let (s, h, data) = setup();
        s.inject(h, FaultMode::Drop);
        assert_eq!(s.get(&h).unwrap(), None);
        s.heal(&h);
        assert_eq!(s.get(&h).unwrap(), Some(data));
        s.inject(h, FaultMode::Drop);
        s.heal_all();
        assert_eq!(s.fault_count(), 0);
    }
}
