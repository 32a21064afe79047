#![forbid(unsafe_code)]
//! ForkBase: an immutable, tamper-evident storage substrate for branchable
//! applications (ICDE 2020; engine described in PVLDB 2018).
//!
//! ForkBase pushes Git-style versioning and branching semantics down into
//! the storage layer. Every object is identified by a key; every key may
//! have many **branches**; every `Put` creates an immutable **version**
//! identified by a cryptographic **uid** that covers both the value and its
//! entire derivation history. The physical layer deduplicates at chunk
//! granularity via the POS-Tree, so a thousand versions of a dataset cost
//! little more than the sum of their differences.
//!
//! # Quick start
//!
//! ```
//! use forkbase::{ForkBase, PutOptions};
//! use forkbase_store::MemStore;
//! use forkbase_types::Value;
//!
//! let db = ForkBase::new(MemStore::new());
//! // Put on the default branch ("master").
//! let v1 = db
//!     .put("greeting", Value::string("hello"), &PutOptions::default())
//!     .unwrap();
//! // Fork a branch and change it there.
//! db.branch("greeting", "master", "experiment").unwrap();
//! db.put(
//!     "greeting",
//!     Value::string("bonjour"),
//!     &PutOptions::on_branch("experiment"),
//! )
//! .unwrap();
//! // Master is untouched; history is tamper-evident.
//! assert_eq!(
//!     db.get("greeting", "master").unwrap().value.as_str(),
//!     Some("hello")
//! );
//! assert!(db.verify_version(&v1.uid).is_ok());
//! ```

pub mod acl;
pub mod api;
pub mod bundle;
pub mod cluster;
pub mod db;
pub mod error;
pub mod fnode;
pub mod forks;
pub mod gc;

pub use acl::{AccessController, Permission, Role};
pub use api::{
    BatchOutcome, BlobReader, BranchInfo, CommitResult, DbStat, ForkBase, GetResult, HistoryEntry,
    ListStream, MapRange, PutOptions, Snapshot, ValueDiff, VersionSpec, WriteBatch, DEFAULT_BRANCH,
};
pub use bundle::{export_bundle, import_bundle, import_bundle_replace, BundleRef};
pub use cluster::{
    AcceptLoop, ChaosPlan, ChaosReport, Cluster, ClusterGcReport, ClusterStat, ClusterTopology,
    ClusterWriteBatch, HealthState, MapPage, Partial, PartialHeads, PersistFn, PrimaryReplication,
    RateLimit, RateLimiter, RemoteRespawnFn, ReplicaRead, ReplicaStatus, ReplicationStatus,
    Respawned, RetryPolicy, RpcConfig, ServeletHealth, ServeletServer, ShipReport,
    SupervisionReport, Supervisor, TopoRole,
};
pub use error::{DbError, DbResult};
pub use fnode::{FNode, Uid};
pub use forks::{
    DiffSummary, ForkBackend, ForkDiff, ForkInfo, ForkService, KeyDiff, Lease, LeaseClock,
    MapEntryDelta, ReapReport, DEFAULT_FORK_TTL_SECS,
};
pub use gc::GcReport;
