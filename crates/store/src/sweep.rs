//! Physical space-reclamation capability for chunk stores.
//!
//! The base [`ChunkStore`] trait is append-only: chunks are immutable and
//! content-addressed, so nothing in the core API ever deletes. Durable
//! space reclamation is an *optional capability* layered on top: stores
//! that can physically drop dead chunks (and, for log-structured backends,
//! rewrite survivors out of low-utilization segments) implement
//! [`SweepStore`]. The mark phase — computing which chunks are live —
//! lives above the store, in `forkbase::gc`; the store only executes the
//! sweep against a caller-supplied liveness predicate.
//!
//! The wrapper store [`crate::FaultyStore`] forwards the capability when
//! its inner store has it, so a fault-injected file store still compacts.

use forkbase_crypto::Hash;

use crate::{ChunkStore, StoreResult};

/// Outcome of one physical sweep (and, where supported, compaction) pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Dead chunks dropped from the store.
    pub chunks_reclaimed: u64,
    /// Payload bytes of the dropped chunks.
    pub bytes_reclaimed: u64,
    /// Live chunks physically rewritten into fresh segments.
    pub chunks_rewritten: u64,
    /// Payload bytes rewritten (compaction write amplification).
    pub bytes_rewritten: u64,
    /// Segment files deleted from the backing media.
    pub segments_deleted: u64,
    /// Physical bytes on the backing media before the pass.
    pub disk_bytes_before: u64,
    /// Physical bytes on the backing media after the pass.
    pub disk_bytes_after: u64,
}

impl SweepReport {
    /// Physical bytes returned to the operating system by this pass.
    pub fn disk_bytes_freed(&self) -> u64 {
        self.disk_bytes_before.saturating_sub(self.disk_bytes_after)
    }
}

/// Physical utilization of a store's backing media.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Utilization {
    /// Payload bytes of live (indexed) chunks.
    pub live_bytes: u64,
    /// Physical bytes occupied on the backing media (segment files for
    /// durable stores; equal to `live_bytes` for volatile ones).
    pub disk_bytes: u64,
}

impl Utilization {
    /// `live_bytes / disk_bytes`; 1.0 for an empty store. Values well
    /// below 1.0 mean dead chunks are pinning disk space and a
    /// [`SweepStore::sweep`] would reclaim it.
    pub fn ratio(&self) -> f64 {
        if self.disk_bytes == 0 {
            1.0
        } else {
            self.live_bytes as f64 / self.disk_bytes as f64
        }
    }
}

/// Optional capability: physically reclaim space held by dead chunks.
pub trait SweepStore: ChunkStore {
    /// Drop every chunk for which `live` returns false and physically
    /// reclaim the space (for segmented stores, by compacting
    /// low-utilization segments). The caller is responsible for quiescing
    /// writers — in ForkBase, `gc::collect` holds the GC gate exclusively.
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport>;

    /// Current live-vs-physical byte occupancy of the backing media.
    fn utilization(&self) -> StoreResult<Utilization>;
}

impl<S: SweepStore + ?Sized> SweepStore for &S {
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport> {
        (**self).sweep(live)
    }
    fn utilization(&self) -> StoreResult<Utilization> {
        (**self).utilization()
    }
}

impl<S: SweepStore + ?Sized> SweepStore for std::sync::Arc<S> {
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport> {
        (**self).sweep(live)
    }
    fn utilization(&self) -> StoreResult<Utilization> {
        (**self).utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn utilization_ratio() {
        assert_eq!(Utilization::default().ratio(), 1.0);
        let u = Utilization {
            live_bytes: 50,
            disk_bytes: 200,
        };
        assert!((u.ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn report_disk_bytes_freed_saturates() {
        let r = SweepReport {
            disk_bytes_before: 10,
            disk_bytes_after: 30,
            ..Default::default()
        };
        assert_eq!(r.disk_bytes_freed(), 0);
    }

    #[test]
    fn sweep_forwards_through_arc_and_ref() {
        let store = Arc::new(MemStore::new());
        let keep = store.put(Bytes::from_static(b"keep")).unwrap();
        store.put(Bytes::from_static(b"drop")).unwrap();
        let as_ref: &dyn SweepStore = &*store;
        let report = as_ref.sweep(&|h| *h == keep).unwrap();
        assert_eq!(report.chunks_reclaimed, 1);
        let u = store.utilization().unwrap();
        assert_eq!(u.live_bytes, 4);
        assert_eq!(u.disk_bytes, 4);
    }
}
