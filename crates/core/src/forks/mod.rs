//! Fork sandboxes: leased, TTL-reaped writable forks as a first-class
//! subsystem (the paper's "branchable application" story, productized).
//!
//! A **fork** is an isolated writable namespace created from any
//! [`VersionSpec`](crate::api::VersionSpec) in O(1): no data is copied at
//! creation. The first write to a key inside the fork lazily creates a
//! namespaced branch (`fork/<id>`) for that key — pointing at the base
//! version the key resolved to at that moment — and all later fork reads
//! and writes of the key use that branch. Reads of keys the fork never
//! wrote pass through to the base spec, so an idle fork costs two
//! registry entries and nothing else.
//!
//! Lifecycle is governed by **leases**: every fork carries a TTL,
//! `touch` renews it, and a reaper (driven by the cluster
//! [`Supervisor`](crate::cluster::Supervisor) tick or any periodic
//! caller) expires leases, drops the fork's branches, and lets the
//! existing GC/compaction reclaim the chunks. Because versions are
//! immutable and content-addressed, dropping a fork's branches returns
//! the store to (within dedup) its pre-fork footprint after one GC pass.
//!
//! The service is generic over a [`Backend`](crate::backend::Backend):
//! both the single-node [`ForkBase`](crate::db::ForkBase) and the sharded
//! [`Cluster`](crate::cluster::Cluster) implement it, so fork verbs
//! route exactly like normal verbs (over the in-process channel
//! transport or TCP, wire version 3).

mod diff;
mod lease;
mod manager;

pub use diff::{DiffSummary, ForkDiff, KeyDiff, MapEntryDelta, MAX_DIFF_SAMPLES};
pub use lease::{Lease, LeaseClock};
pub use manager::{
    ForkInfo, ForkService, ReapReport, DEFAULT_FORK_TTL_SECS, FORKS_MAGIC, FORK_BRANCH_PREFIX,
};
