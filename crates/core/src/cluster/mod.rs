//! Elastic multi-servelet cluster.
//!
//! The ForkBase of the paper is "a distributed storage system": a master
//! dispatches requests to *servelets*, each owning a partition of the key
//! space. This module reproduces that architecture with a serializable
//! RPC surface ([`wire`]: `Request`/`Reply` enums with a frozen binary
//! encoding) carried by either of two transports:
//!
//! * **in-process** — every servelet is a worker thread owning a private
//!   [`ForkBase`] over any [`SweepStore`] backend (durable
//!   [`forkbase_store::FileStore`] packs in the CLI, [`MemStore`] in
//!   tests and benches); requests travel over crossbeam channels, which
//!   also carry the deterministic chaos injection.
//! * **TCP** — a servelet is a standalone process
//!   (`forkbase serve --servelet ADDR --data DIR`, served by
//!   [`net::ServeletServer`]) and the router reaches it over a
//!   length-prefixed, CRC-tailed, version-tagged frame codec (see
//!   `PROTOCOL.md`). Remote addresses persist in the [`ClusterTopology`]
//!   record.
//!
//! Keys are placed by consistent hashing either way, and every verb runs
//! through the same servelet-side step (dispatch, then the servelet's own
//! persist before the ack; see [`net`]), so the transports are identical.
//!
//! # Placement rule
//!
//! All versions of a key live on the same servelet, so diff/merge/history
//! never cross nodes — the same placement rule the real system uses, and
//! the property that lets partition-local version storage scale (cf. the
//! forkless-database line of work in PAPERS.md: cheap node-local
//! verification plus partition-local history).
//!
//! # Elasticity
//!
//! [`Cluster::add_servelet`] / [`Cluster::remove_servelet`] recompute the
//! consistent-hash ring and migrate **only** the keys whose ring owner
//! changed. Each moving key travels as a [`crate::bundle`] — its full
//! branch/version history with byte-identical chunk addresses — so version
//! uids, dedup, and tamper evidence survive the move: the import re-hashes
//! every chunk and walks every history before a single ref is installed.
//! Copy-phase failures roll back (placement unchanged); after every copy
//! verified, the new ring installs and the placement hook records it
//! ([`Cluster::set_placement_hook`]) before sources drop their shadowed
//! copies, so later failures roll forward and the next rebalance heals
//! any residue (`plan_and_copy`'s authoritative-copy rule: of duplicate
//! holders, only the old ring owner's copy ever received writes).
//! Rebalance is stop-the-world for routed verbs (the rebalance gate);
//! clients block for its duration, they never observe a key in transit.
//!
//! # Ring stability
//!
//! Ring points are a pure function of `(servelet id, vnode)` — not of
//! construction order — and servelet ids are stable (allocated once, never
//! reused; persisted via [`ClusterTopology`]). Two clusters opened over
//! the same topology record route identically, no matter how many
//! add/remove steps produced them.
//!
//! # Fault tolerance
//!
//! Every routed RPC carries a per-call deadline ([`RpcConfig`]); a missed
//! deadline is the structured [`DbError::ServeletTimeout`], never a hang.
//! Idempotent verbs retry on a deterministic backoff schedule
//! ([`RetryPolicy`]); **writes never auto-retry past an ambiguous
//! outcome** — only a provably-undelivered request is retried, because a
//! timed-out write may still apply. Dead servelets are restarted in place
//! from their durable backends ([`Cluster::restart_servelet`], the
//! [`Supervisor`] loop), and the whole layer is testable under a seeded,
//! replayable fault schedule ([`ChaosPlan`]).

mod chaos;
pub mod net;
mod ratelimit;
mod replication;
mod rpc;
mod supervisor;
pub mod wire;

pub use chaos::{ChaosPlan, ChaosReport};
pub use net::{PersistFn, ServeletServer};
pub use ratelimit::{RateLimit, RateLimiter};
pub use replication::{
    PrimaryReplication, ReplicaRead, ReplicaStatus, ReplicationStatus, ShipReport,
};
pub use rpc::{RetryPolicy, RpcConfig};
pub use supervisor::{
    HealthState, RemoteRespawnFn, Respawned, ServeletHealth, SupervisionReport, Supervisor,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use forkbase_crypto::sha256;
use forkbase_postree::TreeConfig;
use forkbase_store::{MemStore, SweepStore};
use parking_lot::{Mutex, RwLock};

use crate::api::{BatchOutcome, CommitResult, DbStat, GetResult, PutOptions, VersionSpec};
use crate::db::ForkBase;
use crate::error::{DbError, DbResult};
use crate::fnode::Uid;
use crate::forks::DiffSummary;
use crate::gc::GcReport;
use forkbase_types::Value;

use chaos::{ChaosState, Fault};
use replication::ReplicationState;
use rpc::{call_control, maint_call, remote_node, shutdown_node, spawn_local, spawn_node, Node};
use supervisor::{HealthRecord, RespawnFn};
use wire::{Reply, Request, WireOp};

/// Hook recording a placement change durably
/// ([`Cluster::set_placement_hook`]).
type PlacementFn = Arc<dyn Fn(&ClusterTopology) -> DbResult<()> + Send + Sync>;

/// The mutable routing state: swapped atomically by rebalance.
struct State<S> {
    /// `(point, slot)` sorted by point — the consistent-hash ring.
    ring: Vec<(u64, usize)>,
    nodes: Vec<Arc<Node<S>>>,
    /// Ring anchor per slot, aligned with `nodes`: the id whose hash
    /// points the slot occupies on the ring. Initially the servelet's own
    /// id; after a promotion the promoted replica inherits the dead
    /// primary's anchor, so the slot keeps its ring position and **no key
    /// moves** when a replica takes over.
    anchors: Vec<u64>,
}

/// Virtual nodes per servelet on the hash ring; more points = smoother
/// key balance.
const VNODES: u32 = 32;

/// The role a topology entry plays in the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopoRole {
    /// Owns a ring slot and serves writes. `anchor` is the id whose hash
    /// points the slot occupies — the servelet's own id unless a
    /// promotion put this servelet in a dead predecessor's slot.
    Primary {
        /// The id anchoring this slot's ring points.
        anchor: u64,
    },
    /// Mirrors a primary's data and serves staleness-bounded reads.
    Replica {
        /// The id of the primary this replica follows.
        primary: u64,
    },
}

/// A persistable description of a cluster's membership: the stable
/// servelet ids in slot order plus the next id to allocate. Reopening a
/// cluster from the same topology routes every key identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterTopology {
    /// Stable servelet ids: primaries in slot order, then replicas.
    pub servelet_ids: Vec<u64>,
    /// Per-servelet network address, aligned with
    /// [`Self::servelet_ids`]: `Some(addr)` for a standalone servelet
    /// process reached over TCP, `None` for one this process hosts over
    /// its own store. Empty means all-local (the pre-network record
    /// form, still parsed).
    pub addrs: Vec<Option<String>>,
    /// Per-servelet role, aligned with [`Self::servelet_ids`]. Records
    /// written before replication carry no role column; they parse as
    /// all-primary with each servelet anchoring its own slot.
    pub roles: Vec<TopoRole>,
    /// The id the next [`Cluster::add_servelet`] will assign. Monotone:
    /// removed ids are never reused, so a stale data directory can never
    /// be mistaken for a live servelet's.
    pub next_id: u64,
}

const TOPOLOGY_MAGIC: &str = "forkbase-cluster-topology-v1";

impl ClusterTopology {
    /// An all-local topology of self-anchored primaries (no servelet has
    /// a network address, none is a replica).
    pub fn local(servelet_ids: Vec<u64>, next_id: u64) -> ClusterTopology {
        let addrs = vec![None; servelet_ids.len()];
        let roles = servelet_ids
            .iter()
            .map(|&id| TopoRole::Primary { anchor: id })
            .collect();
        ClusterTopology {
            servelet_ids,
            addrs,
            roles,
            next_id,
        }
    }

    /// The address of servelet `id`, if it is remote.
    pub fn addr_of(&self, id: u64) -> Option<&str> {
        self.servelet_ids
            .iter()
            .position(|&s| s == id)
            .and_then(|i| self.addrs.get(i))
            .and_then(|a| a.as_deref())
    }

    /// The role of servelet `id`, if present.
    pub fn role_of(&self, id: u64) -> Option<&TopoRole> {
        self.servelet_ids
            .iter()
            .position(|&s| s == id)
            .and_then(|i| self.roles.get(i))
    }

    /// Serialize as stable text (one record per line). Self-anchored
    /// primaries emit the historical layouts — `servelet\t<id>` (local)
    /// or `servelet\t<id>\t<addr>` (remote) — byte-identical to the
    /// pre-replication record, so old builds still parse a replica-free
    /// cluster. Replicas and promoted primaries need the role column:
    /// `servelet\t<id>\t<addr|->\t<role>` with role `primary:<anchor>` or
    /// `replica:<primary>` and `-` standing for "no address".
    pub fn encode(&self) -> String {
        let mut out = format!("{TOPOLOGY_MAGIC}\nnext-id\t{}\n", self.next_id);
        for (i, id) in self.servelet_ids.iter().enumerate() {
            let addr = self.addrs.get(i).and_then(|a| a.as_deref());
            // Legacy two/three-column layout for self-anchored primaries,
            // four-column otherwise.
            let role = match self.roles.get(i) {
                Some(TopoRole::Primary { anchor }) if anchor != id => {
                    Some(format!("primary:{anchor}"))
                }
                Some(TopoRole::Replica { primary }) => Some(format!("replica:{primary}")),
                _ => None,
            };
            match (role, addr) {
                (None, Some(addr)) => out.push_str(&format!("servelet\t{id}\t{addr}\n")),
                (None, None) => out.push_str(&format!("servelet\t{id}\n")),
                (Some(role), addr) => {
                    let addr = addr.unwrap_or("-");
                    out.push_str(&format!("servelet\t{id}\t{addr}\t{role}\n"));
                }
            }
        }
        out
    }

    /// Parse [`Self::encode`] output — any historical layout: two-column
    /// (pre-network), three-column (pre-replication), or four-column
    /// (with roles).
    pub fn parse(text: &str) -> DbResult<ClusterTopology> {
        let err = |m: &str| DbError::InvalidInput(format!("topology record: {m}"));
        let mut lines = text.lines();
        if lines.next() != Some(TOPOLOGY_MAGIC) {
            return Err(err("bad magic"));
        }
        let mut next_id = None;
        let mut servelet_ids = Vec::new();
        let mut addrs = Vec::new();
        let mut roles = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match line.split_once('\t') {
                Some(("next-id", v)) => {
                    next_id = Some(v.parse::<u64>().map_err(|_| err("bad next-id"))?);
                }
                Some(("servelet", v)) => {
                    let parts: Vec<&str> = v.split('\t').collect();
                    let (id_text, addr, role_text) = match parts.as_slice() {
                        [id] => (*id, None, None),
                        [id, addr] => {
                            if addr.is_empty() {
                                return Err(err("empty servelet address"));
                            }
                            (*id, Some(addr.to_string()), None)
                        }
                        [id, addr, role] => {
                            let addr = match *addr {
                                "-" => None,
                                "" => return Err(err("empty servelet address")),
                                a => Some(a.to_string()),
                            };
                            (*id, addr, Some(*role))
                        }
                        _ => return Err(err("too many columns on servelet line")),
                    };
                    let id = id_text.parse::<u64>().map_err(|_| err("bad servelet id"))?;
                    let role = match role_text {
                        None | Some("primary") => TopoRole::Primary { anchor: id },
                        Some(r) => match r.split_once(':') {
                            Some(("primary", a)) => TopoRole::Primary {
                                anchor: a.parse().map_err(|_| err("bad primary anchor"))?,
                            },
                            Some(("replica", p)) => TopoRole::Replica {
                                primary: p.parse().map_err(|_| err("bad replica primary"))?,
                            },
                            _ => return Err(err("unknown servelet role")),
                        },
                    };
                    servelet_ids.push(id);
                    addrs.push(addr);
                    roles.push(role);
                }
                _ => return Err(err("unknown line")),
            }
        }
        let max = *servelet_ids
            .iter()
            .max()
            .ok_or_else(|| err("no servelets"))?;
        let mut seen = std::collections::HashSet::new();
        if !servelet_ids.iter().all(|id| seen.insert(*id)) {
            return Err(err("duplicate servelet id"));
        }
        let primaries: std::collections::HashSet<u64> = servelet_ids
            .iter()
            .zip(&roles)
            .filter(|(_, r)| matches!(r, TopoRole::Primary { .. }))
            .map(|(&id, _)| id)
            .collect();
        if primaries.is_empty() {
            return Err(err("no primary servelets"));
        }
        let mut anchors = std::collections::HashSet::new();
        for role in &roles {
            match role {
                TopoRole::Primary { anchor } => {
                    if !anchors.insert(*anchor) {
                        return Err(err("duplicate ring anchor"));
                    }
                }
                TopoRole::Replica { primary } => {
                    if !primaries.contains(primary) {
                        return Err(err("replica of unknown primary"));
                    }
                }
            }
        }
        let next_id = next_id.unwrap_or(max + 1);
        if next_id <= max {
            return Err(err("next-id must exceed every live id"));
        }
        Ok(ClusterTopology {
            servelet_ids,
            addrs,
            roles,
            next_id,
        })
    }
}

/// An in-process ForkBase cluster, elastic and generic over the servelet
/// store backend.
pub struct Cluster<S = MemStore> {
    state: RwLock<State<S>>,
    /// Routed verbs hold this shared; rebalance holds it exclusive, so a
    /// topology change never races an in-flight request and no request
    /// ever observes a key mid-migration. Restarts also hold it shared —
    /// they swap a worker in place without touching placement.
    rebalance_gate: RwLock<()>,
    /// Serializes [`Cluster::restart_servelet`] calls.
    restart_lock: Mutex<()>,
    next_id: AtomicU64,
    cfg: TreeConfig,
    /// Deadlines + retry policy for every RPC this cluster issues.
    rpc: RwLock<RpcConfig>,
    /// Armed chaos schedule, if any ([`Cluster::arm_chaos`]).
    chaos: RwLock<Option<Arc<ChaosState>>>,
    /// Factory rebuilding a crashed local servelet
    /// ([`Cluster::from_topology`]'s opener, or [`Cluster::set_respawn`]).
    respawn: RwLock<Option<RespawnFn<S>>>,
    /// Records every placement change ([`Cluster::set_placement_hook`]).
    placement: RwLock<Option<PlacementFn>>,
    /// Hook re-launching a crashed **remote** servelet process
    /// ([`Cluster::set_remote_respawn`]).
    remote_respawn: RwLock<Option<RemoteRespawnFn>>,
    /// Per-servelet supervision book-keeping.
    health_records: Mutex<BTreeMap<u64, HealthRecord>>,
    /// Per-primary replica sets and the ship log ([`replication`]).
    /// Lock order: never acquire `state` while holding this.
    replication: Mutex<ReplicationState<S>>,
}

/// Scatter-gathered per-servelet statistics ([`Cluster::stats`]).
#[derive(Clone, Debug)]
pub struct ClusterStat {
    /// `(servelet id, its DbStat)` in slot order.
    pub servelets: Vec<(u64, DbStat)>,
}

impl ClusterStat {
    /// Keys across all servelets.
    pub fn total_keys(&self) -> u64 {
        self.servelets.iter().map(|(_, s)| s.keys).sum()
    }

    /// Branches across all servelets.
    pub fn total_branches(&self) -> u64 {
        self.servelets.iter().map(|(_, s)| s.branches).sum()
    }

    /// Stored chunk-payload bytes across all servelets.
    pub fn total_stored_bytes(&self) -> u64 {
        self.servelets
            .iter()
            .map(|(_, s)| s.store.stored_bytes)
            .sum()
    }
}

impl std::fmt::Display for ClusterStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster: {} servelet(s), {} key(s), {} branch(es), {} stored byte(s)",
            self.servelets.len(),
            self.total_keys(),
            self.total_branches(),
            self.total_stored_bytes()
        )?;
        for (id, stat) in &self.servelets {
            writeln!(
                f,
                "servelet {id}: {} key(s), {} branch(es), {} stored byte(s)",
                stat.keys, stat.branches, stat.store.stored_bytes
            )?;
        }
        Ok(())
    }
}

/// One bounded page of a routed [`Cluster::map_range`] scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapPage {
    /// The entries of the page, in key order.
    pub entries: Vec<(Bytes, Bytes)>,
    /// Whether entries remain past the page limit.
    pub truncated: bool,
    /// The snapshot version the page was served from.
    pub version: Uid,
}

/// Result of [`Cluster::gc`]: per-servelet reports plus the servelets
/// skipped because they were unreachable (their dead chunks survive until
/// a later pass finds them alive).
#[derive(Clone, Debug, Default)]
pub struct ClusterGcReport {
    /// `(servelet id, report)` for every servelet that ran its pass.
    pub reports: Vec<(u64, GcReport)>,
    /// Stable ids of servelets skipped as unreachable.
    pub degraded: Vec<u64>,
}

impl Cluster<MemStore> {
    /// Spin up `n` in-memory servelets (n ≥ 1) with the given tree
    /// configuration — the test/bench constructor. Servelet ids are
    /// `0..n`.
    pub fn new(n: usize, cfg: TreeConfig) -> Self {
        assert!(n >= 1, "a cluster needs at least one servelet");
        Self::from_stores((0..n as u64).map(|id| (id, MemStore::new())).collect(), cfg)
    }
}

impl<S: SweepStore + Send + 'static> Cluster<S> {
    /// Spin up one servelet per `(stable id, store)` pair. Ids must be
    /// distinct; the ring is a pure function of the id set, so the same
    /// ids always produce the same placement.
    pub fn from_stores(stores: Vec<(u64, S)>, cfg: TreeConfig) -> Self {
        assert!(!stores.is_empty(), "a cluster needs at least one servelet");
        let nodes: Vec<Arc<Node<S>>> = stores
            .into_iter()
            .map(|(id, store)| spawn_node(id, ForkBase::with_config(store, cfg), None))
            .collect();
        Self::from_nodes(nodes, cfg)
    }

    /// Build a cluster over already-constructed nodes (any mix of
    /// in-process and remote), each anchoring its own ring slot.
    fn from_nodes(nodes: Vec<Arc<Node<S>>>, cfg: TreeConfig) -> Self {
        let anchors: Vec<u64> = nodes.iter().map(|n| n.id).collect();
        Self::from_nodes_anchored(nodes, anchors, cfg)
    }

    /// [`Self::from_nodes`] with explicit ring anchors per slot (a
    /// promoted replica occupies its dead predecessor's ring position).
    fn from_nodes_anchored(nodes: Vec<Arc<Node<S>>>, anchors: Vec<u64>, cfg: TreeConfig) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one servelet");
        assert_eq!(nodes.len(), anchors.len(), "one anchor per slot");
        let mut seen = std::collections::HashSet::new();
        let mut max_id = 0u64;
        for node in &nodes {
            assert!(seen.insert(node.id), "duplicate servelet id {}", node.id);
            max_id = max_id.max(node.id);
        }
        let mut seen_anchors = std::collections::HashSet::new();
        for &a in &anchors {
            assert!(seen_anchors.insert(a), "duplicate ring anchor {a}");
            max_id = max_id.max(a);
        }
        let ring = build_ring(&anchors);
        Cluster {
            state: RwLock::new(State {
                ring,
                nodes,
                anchors,
            }),
            rebalance_gate: RwLock::new(()),
            restart_lock: Mutex::new(()),
            next_id: AtomicU64::new(max_id + 1),
            cfg,
            rpc: RwLock::new(RpcConfig::default()),
            chaos: RwLock::new(None),
            respawn: RwLock::new(None),
            placement: RwLock::new(None),
            remote_respawn: RwLock::new(None),
            health_records: Mutex::new(BTreeMap::new()),
            replication: Mutex::new(ReplicationState::default()),
        }
    }

    /// Reopen a cluster from a persisted [`ClusterTopology`]. Servelets
    /// with a recorded address become remote nodes (routed over TCP;
    /// their processes own the stores); the rest are opened in-process
    /// via `open`. Routing is identical to the cluster that produced the
    /// record. `cfg` must match the configuration the data was written
    /// with (chunk boundaries are on-disk format).
    ///
    /// `open` returns a local servelet's store, or a whole [`Respawned`]
    /// (store, persisted heads, persist hook) for a backend that persists
    /// its heads; it doubles as the respawn factory for supervised
    /// restarts of the **local** servelets (remote restarts use
    /// [`Self::set_remote_respawn`]).
    pub fn from_topology<R: Into<Respawned<S>>>(
        topology: &ClusterTopology,
        cfg: TreeConfig,
        open: impl Fn(u64) -> DbResult<R> + Send + Sync + 'static,
    ) -> DbResult<Self> {
        let open: RespawnFn<S> = Arc::new(move |id| open(id).map(Into::into));
        let mut seen = std::collections::HashSet::new();
        for &id in &topology.servelet_ids {
            if !seen.insert(id) {
                return Err(DbError::InvalidInput(format!(
                    "topology record: duplicate servelet id {id}"
                )));
            }
        }
        // Partition by role: primaries own ring slots, replicas attach to
        // their primary's set afterwards. A record with no role column is
        // all-primary (the historical layouts).
        let mut nodes = Vec::new();
        let mut anchors = Vec::new();
        let mut replicas: Vec<(u64, u64, Option<String>)> = Vec::new();
        for (i, &id) in topology.servelet_ids.iter().enumerate() {
            let addr = topology.addrs.get(i).and_then(|a| a.clone());
            let role = topology
                .roles
                .get(i)
                .cloned()
                .unwrap_or(TopoRole::Primary { anchor: id });
            match role {
                TopoRole::Primary { anchor } => {
                    match addr {
                        Some(addr) => nodes.push(remote_node(id, addr)),
                        None => nodes.push(spawn_local(id, open(id)?, cfg)?),
                    }
                    anchors.push(anchor);
                }
                TopoRole::Replica { primary } => replicas.push((id, primary, addr)),
            }
        }
        if nodes.is_empty() {
            return Err(DbError::InvalidInput(
                "topology record: no primary servelets".into(),
            ));
        }
        let cluster = Self::from_nodes_anchored(nodes, anchors, cfg);
        cluster.next_id.store(topology.next_id, Ordering::Relaxed);
        for (id, primary, addr) in replicas {
            let node = match addr {
                Some(addr) => remote_node(id, addr),
                None => spawn_local(id, open(id)?, cfg)?,
            };
            // A reopened replica's lag relative to its primary is
            // unknown: it resyncs in full on the first ship.
            cluster.attach_replica_handle(primary, node)?;
        }
        *cluster.respawn.write() = Some(open);
        Ok(cluster)
    }

    /// Open a cluster whose servelets are **all** standalone processes:
    /// the pure-router constructor. Every topology entry must carry an
    /// address; this process opens no store at all.
    pub fn connect(topology: &ClusterTopology, cfg: TreeConfig) -> DbResult<Self> {
        for (i, &id) in topology.servelet_ids.iter().enumerate() {
            if topology.addrs.get(i).and_then(|a| a.as_deref()).is_none() {
                return Err(DbError::InvalidInput(format!(
                    "servelet {id} has no address: Cluster::connect requires an all-remote \
                     topology (use from_topology to host local servelets)"
                )));
            }
        }
        Self::from_topology(topology, cfg, |id| {
            Err::<S, _>(DbError::InvalidInput(format!(
                "servelet {id}: no local store in a connect()-ed cluster"
            )))
        })
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Number of servelets.
    pub fn len(&self) -> usize {
        self.state.read().nodes.len()
    }

    /// Whether the cluster is empty (never true — kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.state.read().nodes.is_empty()
    }

    /// Stable **primary** servelet ids, in slot order (replicas are
    /// listed by [`replication::Cluster::replica_ids`](Self::replica_ids)).
    pub fn ids(&self) -> Vec<u64> {
        self.state.read().nodes.iter().map(|n| n.id).collect()
    }

    /// The persistable membership record, including remote addresses,
    /// ring anchors, and replicas (primaries in slot order first, then
    /// each primary's replicas).
    pub fn topology(&self) -> ClusterTopology {
        let state = self.state.read();
        let mut servelet_ids: Vec<u64> = state.nodes.iter().map(|n| n.id).collect();
        let mut addrs: Vec<Option<String>> = state
            .nodes
            .iter()
            .map(|n| n.addr().map(String::from))
            .collect();
        let mut roles: Vec<TopoRole> = state
            .anchors
            .iter()
            .map(|&anchor| TopoRole::Primary { anchor })
            .collect();
        let repl = self.replication.lock();
        for node in &state.nodes {
            if let Some(set) = repl.sets.get(&node.id) {
                for r in &set.replicas {
                    servelet_ids.push(r.id);
                    addrs.push(r.node.addr().map(String::from));
                    roles.push(TopoRole::Replica { primary: node.id });
                }
            }
        }
        ClusterTopology {
            servelet_ids,
            addrs,
            roles,
            next_id: self.next_id.load(Ordering::Relaxed),
        }
    }

    /// The network address of servelet `id`, if it is remote. Used by
    /// the REST gateway to enrich `servelet_unavailable` /
    /// `servelet_timeout` error bodies with where the failure happened.
    pub fn servelet_addr(&self, id: u64) -> Option<String> {
        let found = {
            let state = self.state.read();
            state
                .nodes
                .iter()
                .find(|n| n.id == id)
                .and_then(|n| n.addr().map(String::from))
        };
        found.or_else(|| {
            let repl = self.replication.lock();
            repl.sets
                .values()
                .flat_map(|s| s.replicas.iter())
                .find(|r| r.id == id)
                .and_then(|r| r.node.addr().map(String::from))
        })
    }

    /// Install the hook the cluster calls with its new [`ClusterTopology`]
    /// after every placement change (a join, removal or promotion, a
    /// replica attach or detach), under the rebalance gate and before any
    /// source forgets the keys it handed over — if it fails, none does.
    /// So a recorded placement never routes a key to a servelet that
    /// dropped it. A join also calls it right after taking its id, before
    /// the joiner is spawned or probed — if that fails, there is no join —
    /// so no later cluster over the record reuses the id of a failed
    /// join. Without a hook (a pure router) nothing is recorded.
    pub fn set_placement_hook(
        &self,
        f: impl Fn(&ClusterTopology) -> DbResult<()> + Send + Sync + 'static,
    ) {
        *self.placement.write() = Some(Arc::new(f));
    }

    /// Run the placement hook, if any, over the current topology. The
    /// caller holds the rebalance gate exclusively.
    fn record_placement(&self) -> DbResult<()> {
        let hook = self.placement.read().clone();
        hook.map_or(Ok(()), |hook| hook(&self.topology()))
    }

    /// The id the next [`Self::add_servelet`] will assign (so callers can
    /// provision the new servelet's store — e.g. its data directory —
    /// before handing it over).
    pub fn next_servelet_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// The slot of the servelet that owns `key` (consistent hashing).
    /// Slots shift when servelets are removed; [`Self::owner_id`] is the
    /// stable identity.
    pub fn route(&self, key: &str) -> usize {
        route_on(&self.state.read().ring, key)
    }

    /// The stable id of the servelet that owns `key`.
    pub fn owner_id(&self, key: &str) -> u64 {
        let state = self.state.read();
        state.nodes[route_on(&state.ring, key)].id
    }

    // ------------------------------------------------------------------
    // RPC configuration + chaos
    // ------------------------------------------------------------------

    /// The current deadlines + retry policy.
    pub fn rpc_config(&self) -> RpcConfig {
        self.rpc.read().clone()
    }

    /// Replace the deadlines + retry policy for subsequent RPCs.
    pub fn set_rpc_config(&self, cfg: RpcConfig) {
        *self.rpc.write() = cfg;
    }

    /// Arm a seeded chaos schedule on the data-plane RPC boundary.
    /// Replaces any armed plan; the fault stream restarts from the seed.
    pub fn arm_chaos(&self, plan: ChaosPlan) {
        *self.chaos.write() = Some(Arc::new(ChaosState::new(plan)));
    }

    /// Disarm chaos injection, returning what the armed plan injected.
    pub fn disarm_chaos(&self) -> Option<ChaosReport> {
        self.chaos.write().take().map(|s| s.report())
    }

    /// What the armed chaos plan has injected so far.
    pub fn chaos_report(&self) -> Option<ChaosReport> {
        self.chaos.read().as_ref().map(|s| s.report())
    }

    // ------------------------------------------------------------------
    // RPC plumbing
    // ------------------------------------------------------------------

    /// Run `f` against the database of servelet slot `slot` and wait for
    /// the result. Deadline-bounded: a dead servelet returns
    /// [`DbError::ServeletUnavailable`], a hung one
    /// [`DbError::ServeletTimeout`] — it never blocks forever and never
    /// panics the caller. As a maintenance door it is exempt from chaos
    /// injection and retries, and is **local-only**: closures cannot
    /// cross the wire, so a remote servelet returns
    /// [`DbError::InvalidInput`].
    pub fn on_node<R: Send + 'static>(
        &self,
        slot: usize,
        f: impl FnOnce(&ForkBase<S>) -> R + Send + 'static,
    ) -> DbResult<R> {
        let _gate = self.rebalance_gate.read();
        let node = {
            let state = self.state.read();
            state
                .nodes
                .get(slot)
                .cloned()
                .ok_or_else(|| DbError::InvalidInput(format!("no servelet at slot {slot}")))?
        };
        let deadline = self.rpc.read().deadline;
        maint_call(&node, deadline, f)
    }

    /// Run `f` against the servelet owning `key`. Routing and dispatch
    /// happen under one consistent view of the ring. Deadline-bounded;
    /// exempt from chaos injection and retries, local-only (see
    /// [`Self::on_node`]).
    pub fn with_key<R: Send + 'static>(
        &self,
        key: &str,
        f: impl FnOnce(&ForkBase<S>) -> R + Send + 'static,
    ) -> DbResult<R> {
        let _gate = self.rebalance_gate.read();
        let node = {
            let state = self.state.read();
            Arc::clone(&state.nodes[route_on(&state.ring, key)])
        };
        let deadline = self.rpc.read().deadline;
        maint_call(&node, deadline, f)
    }

    /// Route `key` and ship `req` to its owner with deadline, chaos, and
    /// the retry policy applied. `idempotent` selects the retry rule (the
    /// ambiguous-write rule — see [`RetryPolicy`]). The owner is
    /// re-resolved before every attempt so a supervised restart between
    /// attempts heals the call.
    fn routed(&self, key: &str, idempotent: bool, req: Request) -> DbResult<Reply> {
        let _gate = self.rebalance_gate.read();
        self.routed_locked(key, idempotent, req, |_, reply| Ok(reply))
    }

    /// [`Self::routed`] for mutating verbs: after a successful commit the
    /// written key is captured into the replication ship log **under the
    /// same gate hold**, so a promotion (which requires the gate
    /// exclusively) can never slip between a write's ack and its capture
    /// — the zero-acked-write-loss invariant. A capture failure surfaces
    /// as this call's error: the caller then never observed the write as
    /// acked, so the invariant holds vacuously.
    fn routed_write(&self, key: &str, req: Request) -> DbResult<Reply> {
        let _gate = self.rebalance_gate.read();
        self.routed_locked(key, false, req, |_, reply| {
            if !matches!(reply, Reply::Err(_)) {
                self.capture_locked(&[key])?;
            }
            Ok(reply)
        })
    }

    /// The one-group [`rpc::fan_out`] behind [`Self::routed`] and
    /// [`Self::routed_write`]; the caller holds the rebalance gate.
    fn routed_locked(
        &self,
        key: &str,
        idempotent: bool,
        req: Request,
        finish: impl FnMut(usize, Reply) -> DbResult<Reply>,
    ) -> DbResult<Reply> {
        let rpc_cfg = self.rpc.read().clone();
        let chaos = self.chaos.read().clone();
        let route = |_| {
            let state = self.state.read();
            let node = Arc::clone(&state.nodes[route_on(&state.ring, key)]);
            (node, rpc::draw_fault(chaos.as_deref()))
        };
        let (deadline, retry) = (rpc_cfg.deadline, &rpc_cfg.retry);
        rpc::fan_out(deadline, retry, idempotent, vec![req], route, finish).remove(0)
    }

    /// Serve a multi-key verb per owner: group `items` by owning slot
    /// under one ring view, send each group's `request` through one
    /// [`rpc::fan_out`] and pass each reply to `finish` as it is
    /// gathered; `finish` must return one entry per item. Every group's
    /// attempt is on the wire before any reply is read, so the owners
    /// work in parallel, while the caller's thread alone runs the rounds
    /// under one rebalance-gate hold: whatever `finish` does (the write
    /// path's capture) happens under the hold of the request it follows.
    /// Each group's whole chaos schedule (one fault per allowed attempt)
    /// is drawn in slot order before any group starts.
    ///
    /// Returns each group's input positions and result, in slot order.
    #[allow(clippy::type_complexity)]
    fn per_owner<T, X>(
        &self,
        items: Vec<T>,
        key_of: impl Fn(&T) -> &str,
        idempotent: bool,
        request: impl Fn(Vec<T>) -> Request,
        finish: impl Fn(&[String], Reply) -> DbResult<Vec<X>>,
    ) -> Vec<(Vec<usize>, DbResult<Vec<X>>)> {
        let _gate = self.rebalance_gate.read();
        let rpc_cfg = self.rpc.read().clone();
        let chaos = self.chaos.read().clone();
        let mut groups: BTreeMap<usize, (Vec<usize>, Vec<String>, Vec<T>)> = BTreeMap::new();
        {
            let state = self.state.read();
            for (i, item) in items.into_iter().enumerate() {
                let key = key_of(&item);
                let group = groups.entry(route_on(&state.ring, key)).or_default();
                group.0.push(i);
                group.1.push(key.to_string());
                group.2.push(item);
            }
        }
        // Per group, in slot order: its slot, input positions and keys.
        let mut plan = Vec::with_capacity(groups.len());
        let mut reqs = Vec::with_capacity(groups.len());
        for (slot, (indices, keys, items)) in groups {
            reqs.push(request(items));
            plan.push((slot, indices, keys));
        }
        let mut schedules: Vec<_> = plan
            .iter()
            .map(|_| {
                (0..rpc_cfg.retry.max_attempts)
                    .map(|_| rpc::draw_fault(chaos.as_deref()))
                    .collect::<Vec<_>>()
                    .into_iter()
            })
            .collect();
        let owner = |g: usize| Arc::clone(&self.state.read().nodes[plan[g].0]);
        let results = rpc::fan_out(
            rpc_cfg.deadline,
            &rpc_cfg.retry,
            idempotent,
            reqs,
            |g| (owner(g), schedules[g].next().unwrap_or(Fault::None)),
            |g, reply| {
                let keys = &plan[g].2;
                let out = finish(keys, reply)?;
                if out.len() != keys.len() {
                    return Err(DbError::InvalidInput(format!(
                        "servelet {} answered {} of {} items",
                        owner(g).id,
                        out.len(),
                        keys.len()
                    )));
                }
                Ok(out)
            },
        );
        plan.into_iter()
            .map(|(_, indices, _)| indices)
            .zip(results)
            .collect()
    }

    /// Ship `req` to **every** servelet and gather per-servelet results
    /// in slot order: the zero-retry [`rpc::fan_out`]. The whole gather
    /// shares one deadline window, so a scatter verb is bounded by
    /// ~`deadline` however many members are slow. Scatter verbs are
    /// reads, so the `Duplicate` fault applies.
    fn scatter_results(&self, req: &Request) -> Vec<(u64, DbResult<Reply>)> {
        let _gate = self.rebalance_gate.read();
        let nodes = self.state.read().nodes.clone();
        let deadline = self.rpc.read().deadline;
        let chaos = self.chaos.read().clone();
        let route = |g| (Arc::clone(&nodes[g]), rpc::draw_fault(chaos.as_deref()));
        let reqs = vec![req.clone(); nodes.len()];
        let once = RetryPolicy::no_retry();
        let results = rpc::fan_out(deadline, &once, true, reqs, route, |_, r| Ok(r));
        nodes.iter().map(|n| n.id).zip(results).collect()
    }

    /// Strict scatter-gather: the first unreachable servelet (or data
    /// error) fails the whole call. `extract` pulls the typed payload out
    /// of each reply.
    fn scatter<R>(
        &self,
        req: &Request,
        extract: impl Fn(Reply) -> DbResult<R>,
    ) -> DbResult<Vec<(u64, R)>> {
        self.scatter_results(req)
            .into_iter()
            .map(|(id, r)| Ok((id, extract(r?)?)))
            .collect()
    }

    /// Shut down servelet slot `slot`'s worker **without** removing it
    /// from the ring — fault injection for dead-servelet handling: every
    /// later RPC routed to it returns [`DbError::ServeletUnavailable`]
    /// until [`Self::restart_servelet`] revives it.
    pub fn kill_servelet(&self, slot: usize) -> DbResult<()> {
        let node = {
            let state = self.state.read();
            state
                .nodes
                .get(slot)
                .cloned()
                .ok_or_else(|| DbError::InvalidInput(format!("no servelet at slot {slot}")))?
        };
        if node.is_remote() {
            return Err(DbError::InvalidInput(format!(
                "servelet {} is a remote process: kill it at the OS level, not via the router",
                node.id
            )));
        }
        shutdown_node(&node);
        self.health_records
            .lock()
            .entry(node.id)
            .or_default()
            .last_error = Some("killed by fault injection".into());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data plane
    // ------------------------------------------------------------------

    /// `Put` routed to the owning servelet. Never auto-retried past an
    /// ambiguous outcome: a [`DbError::ServeletTimeout`] or
    /// [`DbError::ServeletUnavailable`] from a write means the commit
    /// *may or may not* have applied — re-read before re-issuing.
    pub fn put(&self, key: &str, value: Value, opts: PutOptions) -> DbResult<CommitResult> {
        self.routed_write(
            key,
            Request::Put {
                key: key.to_string(),
                value,
                opts,
            },
        )?
        .expect_commit()
    }

    /// `Put` a string value (cross-node safe: the value is built on the
    /// owning servelet).
    pub fn put_string(
        &self,
        key: &str,
        content: String,
        opts: PutOptions,
    ) -> DbResult<CommitResult> {
        self.put(key, Value::Str(content), opts)
    }

    /// `Put` a blob built from raw content on the owning servelet.
    pub fn put_blob(
        &self,
        key: &str,
        content: Vec<u8>,
        opts: PutOptions,
    ) -> DbResult<CommitResult> {
        self.routed_write(
            key,
            Request::PutBlob {
                key: key.to_string(),
                content: Bytes::from(content),
                opts,
            },
        )?
        .expect_commit()
    }

    /// `Get` routed to the owning servelet (idempotent: retried per the
    /// cluster's [`RetryPolicy`]).
    pub fn get(&self, key: &str, branch: &str) -> DbResult<GetResult> {
        self.routed(
            key,
            true,
            Request::Get {
                key: key.to_string(),
                branch: branch.to_string(),
            },
        )?
        .expect_get()
    }

    /// Spec-addressed `Get` routed to the owning servelet (wire v3).
    /// Resolves on the servelet, so branch specs read the head there
    /// atomically with the value fetch.
    pub fn get_at(&self, key: &str, spec: &VersionSpec) -> DbResult<GetResult> {
        self.routed(
            key,
            true,
            Request::GetAt {
                key: key.to_string(),
                spec: spec.clone(),
            },
        )?
        .expect_get()
    }

    /// Create `new_branch` of `key` pointing at an existing version,
    /// routed to the owning servelet (non-idempotent write: not
    /// auto-retried, persisted before ack over TCP).
    pub fn branch_from_version(&self, key: &str, uid: &Uid, new_branch: &str) -> DbResult<()> {
        self.routed_write(
            key,
            Request::BranchFromVersion {
                key: key.to_string(),
                uid: *uid,
                new_branch: new_branch.to_string(),
            },
        )?
        .expect_unit()
    }

    /// Delete a branch head of `key`, routed to the owning servelet.
    /// Versions stay until that servelet's GC sweeps them.
    pub fn delete_branch(&self, key: &str, branch: &str) -> DbResult<()> {
        self.routed_write(
            key,
            Request::DeleteBranch {
                key: key.to_string(),
                branch: branch.to_string(),
            },
        )?
        .expect_unit()
    }

    /// Summarized diff between two specs of one key, computed on the
    /// owning servelet (only the bounded [`DiffSummary`] crosses the
    /// wire).
    pub fn diff_specs(
        &self,
        key: &str,
        from: &VersionSpec,
        to: &VersionSpec,
    ) -> DbResult<DiffSummary> {
        self.routed(
            key,
            true,
            Request::DiffSpecs {
                key: key.to_string(),
                from: from.clone(),
                to: to.clone(),
            },
        )?
        .expect_diff()
    }

    /// Spec-addressed [`Self::map_range`]: one page of map entries in
    /// `[start, end)` at `spec`, at most `limit` entries.
    pub fn map_range_at(
        &self,
        key: &str,
        spec: &VersionSpec,
        start: Option<Bytes>,
        end: Option<Bytes>,
        limit: u64,
    ) -> DbResult<MapPage> {
        self.routed(
            key,
            true,
            Request::MapRangeAt {
                key: key.to_string(),
                spec: spec.clone(),
                start,
                end,
                limit,
            },
        )?
        .expect_page()
    }

    /// Start collecting a routed multi-key write batch (see
    /// [`ClusterWriteBatch`] for the atomicity contract).
    pub fn write_batch(&self) -> ClusterWriteBatch<'_, S> {
        ClusterWriteBatch {
            cluster: self,
            ops: Vec::new(),
        }
    }

    /// Scatter-gather branch-head read. Pairs are grouped per owning
    /// servelet and each group is served by one consistent
    /// [`ForkBase::heads`] read, so the returned uids are torn-free **per
    /// servelet** (the same granularity [`ClusterWriteBatch`] commits at);
    /// results come back in input order. Strict: any unreachable owner
    /// fails the call.
    pub fn heads(&self, pairs: &[(&str, &str)]) -> DbResult<Vec<Uid>> {
        in_input_order(self.per_owner(
            pairs.to_vec(),
            |(key, _)| key,
            true,
            |group| {
                Request::Heads {
                    pairs: group
                        .into_iter()
                        .map(|(k, b)| (k.to_string(), b.to_string()))
                        .collect(),
                }
            },
            |_, reply| reply.expect_uids(),
        ))
    }

    /// Scatter-gather statistics from every servelet. Strict: any
    /// unreachable servelet fails the call.
    pub fn stats(&self) -> DbResult<ClusterStat> {
        Ok(ClusterStat {
            servelets: self.scatter(&Request::Stat, Reply::expect_stat)?,
        })
    }

    /// Snapshot-backed routed range scan: one bounded page of map entries
    /// of `key@branch`, served by the owning servelet's streaming cursor
    /// (O(chunk) servelet memory; the page itself is bounded by `limit`).
    /// `start` is inclusive, `end` exclusive.
    pub fn map_range(
        &self,
        key: &str,
        branch: &str,
        start: Option<Bytes>,
        end: Option<Bytes>,
        limit: usize,
    ) -> DbResult<MapPage> {
        self.routed(
            key,
            true,
            Request::MapRange {
                key: key.to_string(),
                branch: branch.to_string(),
                start,
                end,
                limit: limit as u64,
            },
        )?
        .expect_page()
    }

    /// All keys across every servelet, sorted and deduplicated (a key can
    /// transiently exist on two servelets after an interrupted rebalance,
    /// until the next one cleans the stale copy up). Strict: any
    /// unreachable servelet fails the call.
    pub fn list_keys(&self) -> DbResult<Vec<String>> {
        let mut keys: Vec<String> = self
            .scatter(&Request::ListKeys, Reply::expect_keys)?
            .into_iter()
            .flat_map(|(_, k)| k)
            .collect();
        keys.sort();
        keys.dedup();
        Ok(keys)
    }

    /// Aggregate stored chunk-payload bytes across servelets.
    pub fn total_stored_bytes(&self) -> DbResult<u64> {
        Ok(self
            .scatter(&Request::StoredBytes, Reply::expect_count)?
            .into_iter()
            .map(|(_, b)| b)
            .sum())
    }

    /// Distribution of keys per servelet slot (for balance checks).
    pub fn key_distribution(&self) -> DbResult<Vec<usize>> {
        Ok(self
            .scatter(&Request::ListKeys, Reply::expect_keys)?
            .into_iter()
            .map(|(_, k)| k.len())
            .collect())
    }

    /// Run a garbage-collection pass on every reachable servelet.
    /// Unreachable servelets are **skipped and reported** in
    /// [`ClusterGcReport::degraded`] rather than failing the pass — their
    /// dead chunks simply survive until a later pass finds them alive. A
    /// GC failure on a *reachable* servelet still fails the call.
    pub fn gc(&self) -> DbResult<ClusterGcReport> {
        let mut out = ClusterGcReport::default();
        for (id, r) in self.scatter_results(&Request::Gc) {
            match r {
                Ok(reply) => out.reports.push((id, reply.expect_gc()?)),
                Err(_) => out.degraded.push(id),
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Elasticity
    // ------------------------------------------------------------------

    /// Add a servelet backed by `store` and migrate to it exactly the keys
    /// whose ring owner changed (with consistent hashing, keys only ever
    /// move *onto* the new servelet). Returns the new servelet's stable
    /// id. Stop-the-world for routed verbs while the migration runs.
    ///
    /// Failure semantics: an error during the copy phase rolls the copies
    /// back and leaves placement exactly as it was. Once every copy has
    /// verified, the new ring is installed **before** the sources drop
    /// their (now shadowed) copies, so a cutover error rolls *forward*:
    /// the topology change sticks, every key is served by its new owner,
    /// and the next rebalance cleans up any stale source copies.
    ///
    /// `servelet` is a bare store, or a [`Respawned`] whose persist hook
    /// makes the new servelet's acks — its imports included — durable.
    pub fn add_servelet(&self, servelet: impl Into<Respawned<S>>) -> DbResult<u64> {
        let _gate = self.rebalance_gate.write();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_placement()?;
        self.join(spawn_local(id, servelet.into(), self.cfg)?)
    }

    /// [`Self::add_servelet`] for a **remote** servelet process already
    /// listening on `addr` (see `forkbase serve --servelet`). The same
    /// migration runs, with every copy crossing the wire as serialized
    /// control-plane requests. The process must be empty or hold only
    /// keys it will own — imports collide with pre-existing copies the
    /// same way they would in process.
    pub fn add_remote_servelet(&self, addr: impl Into<String>) -> DbResult<u64> {
        let _gate = self.rebalance_gate.write();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_placement()?;
        let node = remote_node(id, addr.into());
        // Fail fast if nobody is listening, before any state changes.
        call_control(&node, self.rpc.read().probe_deadline, Request::Probe)?.expect_unit()?;
        self.join(node)
    }

    /// Make `node` a primary: extend the ring with it, copy over the keys
    /// it now owns, install it, record the placement, and cut over. The
    /// caller holds the rebalance gate.
    fn join(&self, node: Arc<Node<S>>) -> DbResult<u64> {
        let deadline = self.rpc.read().control_deadline;
        let id = node.id;
        let (mut all_nodes, old_ring, new_ring) = {
            let state = self.state.read();
            let mut ids: Vec<u64> = state.anchors.clone();
            ids.push(id);
            (state.nodes.clone(), state.ring.clone(), build_ring(&ids))
        };
        all_nodes.push(Arc::clone(&node));
        let plan = plan_and_copy(&all_nodes, &old_ring, &new_ring, deadline)?;
        {
            let mut state = self.state.write();
            state.nodes.push(node);
            state.anchors.push(id);
            state.ring = new_ring;
        }
        // Keys just moved between primaries: every replica's mirror is
        // now of the wrong key set, so all resync in full on next ship.
        self.mark_replicas_stale();
        self.record_placement()?;
        cutover(&all_nodes, plan, deadline)?;
        Ok(id)
    }

    /// Remove servelet `id`, first migrating every key it owns to its new
    /// ring owner. Refuses to remove the last servelet. Stop-the-world for
    /// routed verbs while the migration runs; the servelet thread is shut
    /// down once it holds no data.
    ///
    /// A **dead** servelet (worker thread gone — see [`Self::kill_servelet`])
    /// cannot be drained: its keys are only readable from its store, so
    /// this returns [`DbError::ServeletUnavailable`] rather than silently
    /// dropping them. Restart it first ([`Self::restart_servelet`]), or
    /// for durable backends reopen the cluster from its persisted
    /// topology and remove the servelet then.
    pub fn remove_servelet(&self, id: u64) -> DbResult<()> {
        let _gate = self.rebalance_gate.write();
        {
            let repl = self.replication.lock();
            if let Some(set) = repl.sets.get(&id) {
                if !set.replicas.is_empty() {
                    return Err(DbError::InvalidInput(format!(
                        "servelet {id} has {} replica(s): remove or promote them before \
                         removing the primary",
                        set.replicas.len()
                    )));
                }
            }
        }
        let deadline = self.rpc.read().control_deadline;
        let (nodes, old_ring, slot, interim_ring) = {
            let state = self.state.read();
            if state.nodes.len() <= 1 {
                return Err(DbError::InvalidInput(
                    "cannot remove the last servelet".into(),
                ));
            }
            let slot = state
                .nodes
                .iter()
                .position(|n| n.id == id)
                .ok_or_else(|| DbError::InvalidInput(format!("no servelet with id {id}")))?;
            // Ring without the departing slot's anchor, but still over the
            // OLD slot numbering, so migration routes into the current
            // node vector.
            let ids: Vec<(u64, usize)> = state
                .anchors
                .iter()
                .enumerate()
                .filter(|(s, _)| *s != slot)
                .map(|(s, &a)| (a, s))
                .collect();
            (
                state.nodes.clone(),
                state.ring.clone(),
                slot,
                build_ring_slots(&ids),
            )
        };
        let plan = plan_and_copy(&nodes, &old_ring, &interim_ring, deadline)?;
        let node = {
            let mut state = self.state.write();
            let node = state.nodes.remove(slot);
            state.anchors.remove(slot);
            // Same owners as `interim_ring` (points depend only on the
            // anchors); only the slot numbering is compacted.
            state.ring = build_ring(&state.anchors);
            node
        };
        self.mark_replicas_stale();
        self.replication.lock().sets.remove(&id);
        // Roll forward like `add_servelet`: copies are verified and the
        // ring no longer routes to the victim, so cutover/shutdown errors
        // must not resurrect it. The victim forgets only once the record
        // stops routing to it.
        let cut = self
            .record_placement()
            .and_then(|()| cutover(&nodes, plan, deadline));
        shutdown_node(&node);
        self.health_records.lock().remove(&id);
        cut
    }
}

/// A collection of writes across many keys, routed per owning servelet.
///
/// On [`ClusterWriteBatch::commit`], ops are grouped by owner and each
/// group commits through that servelet's atomic
/// [`crate::api::WriteBatch`]:
///
/// * **per-servelet atomicity** — all ops landing on one servelet commit
///   (and become visible) together or not at all;
/// * **independent groups** — the groups commit concurrently, and each
///   commits or fails on its own. When any fails, `commit` returns the
///   error of the lowest failing slot; every other group may have
///   committed, and each committed group was captured for its replicas;
/// * **no cross-servelet atomicity** — a committed group stays committed
///   when another fails. A cluster is not a distributed transaction
///   coordinator; callers that need all-or-nothing semantics must keep
///   the batch on one servelet (e.g. by key choice) or reconcile on
///   error.
pub struct ClusterWriteBatch<'c, S: SweepStore + Send + 'static> {
    pub(crate) cluster: &'c Cluster<S>,
    /// Staged in wire form: each group's ops go out as they are.
    pub(crate) ops: Vec<WireOp>,
}

impl<S: SweepStore + Send + 'static> ClusterWriteBatch<'_, S> {
    /// Stage a `Put` of `value` on `(key, opts.branch)`.
    pub fn put(&mut self, key: impl Into<String>, value: Value, opts: &PutOptions) -> &mut Self {
        self.ops.push(WireOp::Put {
            key: key.into(),
            value,
            opts: opts.clone(),
        });
        self
    }

    /// Stage a branch deletion.
    pub fn delete_branch(
        &mut self,
        key: impl Into<String>,
        branch: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(WireOp::DeleteBranch {
            key: key.into(),
            branch: branch.into(),
        });
        self
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch has no staged operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commit every staged op, grouped per owning servelet, each group
    /// through one atomic [`crate::api::WriteBatch`]. Outcomes return in
    /// batch order. See the type docs for the atomicity contract.
    ///
    /// Writes: per-group commits are never auto-retried past an ambiguous
    /// outcome (see [`RetryPolicy`]); a [`DbError::ServeletTimeout`] means
    /// that group *may* have committed.
    pub fn commit(self) -> DbResult<Vec<BatchOutcome>> {
        let cluster = self.cluster;
        in_input_order(cluster.per_owner(
            self.ops,
            |(WireOp::Put { key, .. } | WireOp::DeleteBranch { key, .. })| key,
            false,
            |ops| Request::Batch { ops },
            |keys, reply| {
                let outcomes = reply.expect_outcomes()?;
                // Still under the gate held since before the commit: a
                // promotion cannot slip between the group's ack and this.
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                cluster.capture_locked(&keys)?;
                Ok(outcomes)
            },
        ))
    }
}

impl<S> Drop for Cluster<S> {
    fn drop(&mut self) {
        let nodes = std::mem::take(&mut self.state.get_mut().nodes);
        let sets = std::mem::take(&mut self.replication.get_mut().sets);
        let replicas: Vec<_> = sets
            .values()
            .flat_map(|s| s.replicas.iter().map(|r| Arc::clone(&r.node)))
            .collect();
        for node in nodes.iter().chain(&replicas) {
            node.transport.signal_shutdown();
        }
        for node in nodes.iter().chain(&replicas) {
            node.transport.join();
        }
    }
}

// ----------------------------------------------------------------------
// Free helpers (no `self` borrow, so rebalance can use them while holding
// the gate exclusively)
// ----------------------------------------------------------------------

/// The ring point of `(servelet id, vnode)` — a pure function of the
/// stable id, never of construction order or slot position.
fn ring_point(servelet_id: u64, vnode: u32) -> u64 {
    let mut buf = [0u8; 28];
    buf[..16].copy_from_slice(b"forkbase-ring-v1");
    buf[16..24].copy_from_slice(&servelet_id.to_le_bytes());
    buf[24..28].copy_from_slice(&vnode.to_le_bytes());
    hash_point(&buf)
}

/// The ring point a key hashes to.
fn key_point(key: &str) -> u64 {
    hash_point(key.as_bytes())
}

/// The first eight bytes of `data`'s SHA-256, little-endian.
fn hash_point(data: &[u8]) -> u64 {
    let [a, b, c, d, e, f, g, h, ..] = *sha256(data).as_bytes();
    u64::from_le_bytes([a, b, c, d, e, f, g, h])
}

/// Flatten [`Cluster::per_owner`]'s groups back into input order. The
/// lowest failing slot's error wins.
fn in_input_order<X>(groups: Vec<(Vec<usize>, DbResult<Vec<X>>)>) -> DbResult<Vec<X>> {
    let mut out = Vec::new();
    for (indices, result) in groups {
        out.extend(indices.into_iter().zip(result?));
    }
    out.sort_unstable_by_key(|(i, _)| *i);
    Ok(out.into_iter().map(|(_, x)| x).collect())
}

/// Build the ring for ids in slot order (`slot = index in ids`).
fn build_ring(ids: &[u64]) -> Vec<(u64, usize)> {
    build_ring_slots(
        &ids.iter()
            .enumerate()
            .map(|(slot, &id)| (id, slot))
            .collect::<Vec<_>>(),
    )
}

/// Build a ring over explicit `(id, slot)` pairs. Ties on the point value
/// break by servelet id, so ownership is a pure function of the id set.
fn build_ring_slots(ids: &[(u64, usize)]) -> Vec<(u64, usize)> {
    let mut ring: Vec<(u64, u64, usize)> = Vec::with_capacity(ids.len() * VNODES as usize);
    for &(id, slot) in ids {
        for v in 0..VNODES {
            ring.push((ring_point(id, v), id, slot));
        }
    }
    ring.sort_unstable();
    ring.into_iter().map(|(p, _, slot)| (p, slot)).collect()
}

fn route_on(ring: &[(u64, usize)], key: &str) -> usize {
    let point = key_point(key);
    let idx = ring.partition_point(|(p, _)| *p < point);
    ring[idx % ring.len()].1
}

/// A migration plan after its copy phase: every destination holds a
/// verified copy of the keys that move; `forgets` lists the source refs
/// to drop at cutover.
struct MigrationPlan {
    /// `(source slot, keys to forget there)`.
    forgets: Vec<(usize, Vec<String>)>,
}

/// Plan and copy: move every key whose owner under `new_ring` differs
/// from the slot it currently lives on. Keys travel grouped per
/// (source, destination) pair as one bundle each: full branch/version
/// history, byte-identical chunk addresses, hash-verified on import.
///
/// A key the destination **already holds** (the residue of a rebalance
/// that was interrupted between copy and cutover — e.g. a process crash
/// between the CLI's durable writes) is not re-imported: the ring owner's
/// copy is authoritative, so the stale source copy is simply scheduled
/// for cutover. This makes interrupted rebalances converge instead of
/// wedging on a diverged-head import conflict.
///
/// On any copy failure the already-imported keys are rolled back on
/// their destinations (including a partially imported group — refs
/// install one key at a time as each verifies) and placement is exactly
/// as it was.
fn plan_and_copy<S: SweepStore + Send + 'static>(
    nodes: &[Arc<Node<S>>],
    old_ring: &[(u64, usize)],
    new_ring: &[(u64, usize)],
    deadline: std::time::Duration,
) -> DbResult<MigrationPlan> {
    // Who holds each key (normally exactly one slot; more after an
    // interrupted rebalance), then the move plan per key:
    // the authoritative copy travels, every other copy is stale.
    let mut holders: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (slot, node) in nodes.iter().enumerate() {
        for key in call_control(node, deadline, Request::ListKeys)?.expect_keys()? {
            holders.entry(key).or_default().push(slot);
        }
    }
    let mut moves: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    let mut forgets: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    // Stale copies sitting where an import must land: dropped BEFORE the
    // copy phase (they would collide with the import). Safe at any time —
    // writes were never routed to a stale copy, so it holds no unique
    // history.
    let mut pre_forgets: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (key, slots) in holders {
        let dst = route_on(new_ring, &key);
        let old_owner = route_on(old_ring, &key);
        // The authoritative copy is the one writes were routed to (the
        // old ring owner); residue of an interrupted rebalance never holds
        // unique writes.
        let auth = if slots.contains(&old_owner) {
            old_owner
        } else if slots.contains(&dst) {
            dst
        } else {
            slots[0]
        };
        if auth == dst {
            // Already where it belongs: every other holder is stale.
            for s in slots.into_iter().filter(|&s| s != dst) {
                forgets.entry(s).or_default().push(key.clone());
            }
            continue;
        }
        if slots.contains(&dst) {
            pre_forgets.entry(dst).or_default().push(key.clone());
        }
        moves.entry((auth, dst)).or_default().push(key.clone());
        // After the move lands on dst, every pre-existing copy —
        // including the authoritative source — is dropped at cutover.
        for s in slots.into_iter().filter(|&s| s != dst) {
            forgets.entry(s).or_default().push(key.clone());
        }
    }

    // Copy phase.
    for (slot, keys) in pre_forgets {
        call_control(&nodes[slot], deadline, Request::ForgetKeys { keys })?.expect_unit()?;
    }
    let mut imported: Vec<(usize, Vec<String>)> = Vec::new();
    let copied = (|| -> DbResult<()> {
        for ((src, dst), keys) in &moves {
            let bundle = call_control(
                &nodes[*src],
                deadline,
                Request::ExportBundle { keys: keys.clone() },
            )?
            .expect_blob()?;
            imported.push((*dst, keys.clone()));
            call_control(&nodes[*dst], deadline, Request::ImportBundle { bundle })?
                .expect_unit()?;
        }
        Ok(())
    })();
    if let Err(e) = copied {
        // Undo the imports; the pre-forgotten stale copies stay gone
        // (they held nothing unique) — the authoritative copies are all
        // still in place, so placement is unchanged.
        for (dst, keys) in imported {
            let _ = call_control(&nodes[dst], deadline, Request::ForgetKeys { keys });
        }
        return Err(e);
    }

    Ok(MigrationPlan {
        forgets: forgets.into_iter().collect(),
    })
}

/// Cutover: drop the source refs of a copied-and-verified plan. Runs
/// AFTER the new ring is installed and recorded, so an error here (e.g.
/// a source worker died mid-loop) leaves shadowed stale copies — cleaned
/// up by the next rebalance — never an unreachable key. The chunks themselves stay
/// until each servelet's next GC.
fn cutover<S: SweepStore + Send + 'static>(
    nodes: &[Arc<Node<S>>],
    plan: MigrationPlan,
    deadline: std::time::Duration,
) -> DbResult<()> {
    for (src, keys) in plan.forgets {
        call_control(&nodes[src], deadline, Request::ForgetKeys { keys })?.expect_unit()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::VersionSpec;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, TreeConfig::test_config())
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let c = cluster(4);
        for i in 0..100 {
            let key = format!("key-{i}");
            let a = c.route(&key);
            let b = c.route(&key);
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn keys_spread_across_servelets() {
        let c = cluster(4);
        for i in 0..200 {
            c.put_string(
                &format!("key-{i}"),
                format!("value {i}"),
                PutOptions::default(),
            )
            .unwrap();
        }
        let dist = c.key_distribution().unwrap();
        assert_eq!(dist.iter().sum::<usize>(), 200);
        for (node, count) in dist.iter().enumerate() {
            assert!(
                *count > 10,
                "servelet {node} owns only {count} of 200 keys — ring imbalance"
            );
        }
    }

    #[test]
    fn put_get_roundtrip_through_cluster() {
        let c = cluster(3);
        c.put_string("doc", "distributed hello".into(), PutOptions::default())
            .unwrap();
        let got = c.get("doc", "master").unwrap();
        assert_eq!(got.value.as_str(), Some("distributed hello"));
    }

    #[test]
    fn versions_of_a_key_stay_on_one_servelet() {
        let c = cluster(4);
        for rev in 0..5 {
            c.put_string("evolving", format!("rev {rev}"), PutOptions::default())
                .unwrap();
        }
        // History must be fully resolvable on the owning node.
        let history = c
            .with_key("evolving", |db| {
                db.history("evolving", &VersionSpec::branch("master"))
            })
            .unwrap();
        assert_eq!(history.unwrap().len(), 5);
        // And absent everywhere else.
        let owner = c.route("evolving");
        for node in 0..c.len() {
            let present = c
                .on_node(node, |db| db.list_keys().contains(&"evolving".to_string()))
                .unwrap();
            assert_eq!(present, node == owner);
        }
    }

    #[test]
    fn branch_and_merge_on_owning_servelet() {
        let c = cluster(2);
        c.with_key("data", |db| {
            let pairs = (0..200)
                .map(|i| {
                    (
                        bytes::Bytes::from(format!("k{i:04}")),
                        bytes::Bytes::from(format!("v{i}")),
                    )
                })
                .collect();
            let map = db.new_map(pairs)?;
            db.put("data", map, &PutOptions::default())?;
            db.branch("data", "master", "dev")?;
            let head = db.get("data", "dev")?;
            let updated = db.map_apply(
                &head.value,
                vec![forkbase_postree::MapEdit::put(
                    bytes::Bytes::from_static(b"k0001"),
                    bytes::Bytes::from_static(b"changed"),
                )],
            )?;
            db.put("data", updated, &PutOptions::on_branch("dev"))?;
            db.merge(
                "data",
                "master",
                "dev",
                forkbase_postree::MergePolicy::Fail,
                &PutOptions::default(),
            )
        })
        .unwrap()
        .unwrap();
        let merged = c.get("data", "master").unwrap();
        let v = c
            .with_key("data", move |db| db.map_get(&merged.value, b"k0001"))
            .unwrap();
        assert_eq!(v.unwrap(), Some(bytes::Bytes::from_static(b"changed")));
    }

    #[test]
    fn concurrent_clients() {
        let c = std::sync::Arc::new(cluster(4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = std::sync::Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    c.put_string(
                        &format!("client{t}-key{i}"),
                        format!("payload {t}/{i}"),
                        PutOptions::default(),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.list_keys().unwrap().len(), 8 * 25);
    }

    #[test]
    fn stored_bytes_aggregate() {
        let c = cluster(2);
        assert_eq!(c.total_stored_bytes().unwrap(), 0);
        // Varied content: constant bytes would self-dedup to almost nothing.
        let content: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        c.put_blob("blob", content, PutOptions::default()).unwrap();
        assert!(c.total_stored_bytes().unwrap() >= 10_000);
    }

    #[test]
    fn dead_servelet_is_a_structured_error_not_a_panic() {
        let c = cluster(2);
        c.put_string("a-key", "v".into(), PutOptions::default())
            .unwrap();
        let victim = c.route("a-key");
        c.kill_servelet(victim).unwrap();
        let err = c.get("a-key", "master").unwrap_err();
        assert!(
            matches!(err, DbError::ServeletUnavailable { .. }),
            "got {err:?}"
        );
        assert_eq!(err.code(), "servelet_unavailable");
        // Keys on the surviving servelet still serve.
        let survivor = (victim + 1) % 2;
        let key = (0..)
            .map(|i| format!("probe-{i}"))
            .find(|k| c.route(k) == survivor)
            .unwrap();
        c.put_string(&key, "alive".into(), PutOptions::default())
            .unwrap();
        assert_eq!(c.get(&key, "master").unwrap().value.as_str(), Some("alive"));
    }

    #[test]
    fn ring_is_a_pure_function_of_servelet_ids() {
        // Same id set, different construction history ⟹ identical owners.
        let direct = Cluster::from_stores(
            vec![
                (0, MemStore::new()),
                (1, MemStore::new()),
                (2, MemStore::new()),
            ],
            TreeConfig::test_config(),
        );
        let grown = Cluster::from_stores(
            vec![(0, MemStore::new()), (1, MemStore::new())],
            TreeConfig::test_config(),
        );
        let added = grown.add_servelet(MemStore::new()).unwrap();
        assert_eq!(added, 2);
        for i in 0..200 {
            let key = format!("key-{i}");
            assert_eq!(direct.owner_id(&key), grown.owner_id(&key));
        }
    }

    #[test]
    fn topology_record_reopens_to_identical_routing() {
        let c = cluster(3);
        let removed_mid = c.add_servelet(MemStore::new()).unwrap();
        c.remove_servelet(removed_mid).unwrap();
        c.add_servelet(MemStore::new()).unwrap();
        let record = c.topology().encode();

        let parsed = ClusterTopology::parse(&record).unwrap();
        assert_eq!(parsed, c.topology());
        let reopened =
            Cluster::from_topology(&parsed, TreeConfig::test_config(), |_| Ok(MemStore::new()))
                .unwrap();
        for i in 0..200 {
            let key = format!("key-{i}");
            assert_eq!(c.owner_id(&key), reopened.owner_id(&key));
        }
        // Removed ids are never reused.
        let next = reopened.add_servelet(MemStore::new()).unwrap();
        assert!(next > removed_mid);
        assert_eq!(next, parsed.next_id);
    }

    #[test]
    fn topology_parse_rejects_garbage() {
        assert!(ClusterTopology::parse("").is_err());
        assert!(ClusterTopology::parse("not-a-topology").is_err());
        assert!(
            ClusterTopology::parse(TOPOLOGY_MAGIC).is_err(),
            "no servelets"
        );
        assert!(
            ClusterTopology::parse(&format!("{TOPOLOGY_MAGIC}\nnext-id\t1\nservelet\t5\n"))
                .is_err(),
            "next-id must exceed every live id"
        );
        assert!(
            ClusterTopology::parse(&format!(
                "{TOPOLOGY_MAGIC}\nnext-id\t3\nservelet\t1\nservelet\t1\n"
            ))
            .is_err(),
            "duplicate servelet ids must be a structured error, not a panic"
        );
        // Role-column validation.
        for bad in [
            "servelet\t0\t-\tprimary:0\nservelet\t1\t-\tprimary:0", // duplicate anchor
            "servelet\t0\t-\treplica:7",                            // no primaries at all
            "servelet\t0\nservelet\t1\t-\treplica:7",               // unknown primary
            "servelet\t0\t-\tking",                                 // unknown role
            "servelet\t0\t-\tprimary:x",                            // bad anchor
            "servelet\t0\t-\tprimary:0\textra",                     // too many columns
        ] {
            let text = format!("{TOPOLOGY_MAGIC}\nnext-id\t9\n{bad}\n");
            assert!(ClusterTopology::parse(&text).is_err(), "must reject: {bad}");
        }
    }

    /// Compat pin: every historical TOPOLOGY column layout — one-column
    /// (pre-network), two-column (pre-replication), and the role-bearing
    /// three-column layout — parses, normalizes, and round-trips. A
    /// replica-free record re-encodes byte-identically to the legacy
    /// layout, so old builds keep parsing what new builds write.
    #[test]
    fn topology_roundtrips_across_all_historical_layouts() {
        // PR-5 era: local servelets only, `servelet\t<id>`.
        let v1 = format!("{TOPOLOGY_MAGIC}\nnext-id\t4\nservelet\t0\nservelet\t2\n");
        let t1 = ClusterTopology::parse(&v1).unwrap();
        assert_eq!(t1.servelet_ids, vec![0, 2]);
        assert_eq!(t1.addrs, vec![None, None]);
        assert_eq!(
            t1.roles,
            vec![
                TopoRole::Primary { anchor: 0 },
                TopoRole::Primary { anchor: 2 }
            ]
        );
        assert_eq!(t1.encode(), v1, "legacy local layout is preserved");

        // PR-6 era: remote servelets carry an address column.
        let v2 =
            format!("{TOPOLOGY_MAGIC}\nnext-id\t2\nservelet\t0\t127.0.0.1:4400\nservelet\t1\n");
        let t2 = ClusterTopology::parse(&v2).unwrap();
        assert_eq!(t2.addr_of(0), Some("127.0.0.1:4400"));
        assert_eq!(t2.addr_of(1), None);
        assert_eq!(t2.role_of(1), Some(&TopoRole::Primary { anchor: 1 }));
        assert_eq!(t2.encode(), v2, "legacy remote layout is preserved");

        // This PR: the role column, with `-` for "no address". Bare
        // `primary` (no anchor) also parses, anchoring at the id.
        let v3 = format!(
            "{TOPOLOGY_MAGIC}\nnext-id\t5\nservelet\t3\t-\tprimary:0\n\
             servelet\t1\t127.0.0.1:4401\tprimary\nservelet\t4\t-\treplica:3\n"
        );
        let t3 = ClusterTopology::parse(&v3).unwrap();
        assert_eq!(t3.role_of(3), Some(&TopoRole::Primary { anchor: 0 }));
        assert_eq!(t3.role_of(1), Some(&TopoRole::Primary { anchor: 1 }));
        assert_eq!(t3.role_of(4), Some(&TopoRole::Replica { primary: 3 }));
        let reparsed = ClusterTopology::parse(&t3.encode()).unwrap();
        assert_eq!(reparsed, t3, "role layout round-trips");
        // The bare-`primary` shorthand normalizes to the legacy layout on
        // re-encode (it is self-anchored).
        assert!(t3.encode().contains("servelet\t1\t127.0.0.1:4401\n"));

        // Every layout reopens to a routable cluster whose ring matches
        // the anchors, not the ids.
        let c1 = Cluster::from_topology(&t1, TreeConfig::test_config(), |_| Ok(MemStore::new()))
            .unwrap();
        assert_eq!(c1.ids(), vec![0, 2]);
        let c3 = Cluster::from_topology(&t3, TreeConfig::test_config(), |_| Ok(MemStore::new()))
            .unwrap();
        assert_eq!(c3.replica_ids(), vec![(4, 3)]);
        // Servelet 3 anchors at 0: keys route exactly as if a servelet
        // with id 0 still held the slot.
        let anchored = Cluster::from_stores(
            vec![(0, MemStore::new()), (1, MemStore::new())],
            TreeConfig::test_config(),
        );
        for i in 0..100 {
            let key = format!("key-{i}");
            let expect = if anchored.owner_id(&key) == 0 { 3 } else { 1 };
            assert_eq!(c3.owner_id(&key), expect, "{key} anchored wrong");
        }
    }

    #[test]
    fn add_servelet_moves_only_keys_it_now_owns() {
        let c = cluster(3);
        for i in 0..120 {
            c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
                .unwrap();
        }
        let before: Vec<(String, u64)> = (0..120)
            .map(|i| {
                let k = format!("key-{i}");
                let owner = c.owner_id(&k);
                (k, owner)
            })
            .collect();
        let new_id = c.add_servelet(MemStore::new()).unwrap();
        let mut moved = 0;
        for (key, old_owner) in before {
            let now = c.owner_id(&key);
            if now != old_owner {
                assert_eq!(
                    now, new_id,
                    "with consistent hashing, keys only move onto the new servelet"
                );
                moved += 1;
            }
            // Every key still readable, wherever it lives.
            assert!(c.get(&key, "master").is_ok(), "{key} unreadable after add");
        }
        assert!(moved > 0, "a 4th servelet should claim some of 120 keys");
        assert!(moved < 120, "it must not claim all of them");
        assert_eq!(
            c.list_keys().unwrap().len(),
            120,
            "no duplicates, no losses"
        );
    }

    #[test]
    fn remove_servelet_rehomes_its_keys() {
        let c = cluster(3);
        for i in 0..90 {
            c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
                .unwrap();
        }
        let victim_id = c.ids()[1];
        let victim_keys: Vec<String> = (0..90)
            .map(|i| format!("key-{i}"))
            .filter(|k| c.owner_id(k) == victim_id)
            .collect();
        assert!(!victim_keys.is_empty());
        let unaffected: Vec<(String, u64)> = (0..90)
            .map(|i| format!("key-{i}"))
            .filter(|k| c.owner_id(k) != victim_id)
            .map(|k| {
                let owner = c.owner_id(&k);
                (k, owner)
            })
            .collect();

        c.remove_servelet(victim_id).unwrap();
        assert_eq!(c.len(), 2);
        assert!(!c.ids().contains(&victim_id));
        for (key, owner) in unaffected {
            assert_eq!(
                c.owner_id(&key),
                owner,
                "{key} moved although its owner stayed"
            );
        }
        for key in &victim_keys {
            let got = c.get(key, "master").unwrap();
            assert!(got.value.as_str().is_some());
        }
        assert_eq!(c.list_keys().unwrap().len(), 90);
        // Removing the last servelet is refused.
        let last_err = {
            let ids = c.ids();
            c.remove_servelet(ids[0]).unwrap();
            c.remove_servelet(c.ids()[0]).unwrap_err()
        };
        assert!(matches!(last_err, DbError::InvalidInput(_)));
    }

    #[test]
    fn cluster_write_batch_routes_and_chains() {
        let c = cluster(3);
        let mut wb = c.write_batch();
        for i in 0..24 {
            wb.put(
                format!("batch-key-{i}"),
                Value::string(format!("v{i}")),
                &PutOptions::default(),
            );
        }
        // Same-key ops chain within the owning servelet's batch.
        wb.put("batch-key-0", Value::string("v0b"), &PutOptions::default());
        let outcomes = wb.commit().unwrap();
        assert_eq!(outcomes.len(), 25);
        assert_eq!(
            c.get("batch-key-0", "master").unwrap().value.as_str(),
            Some("v0b")
        );
        let hist = c
            .with_key("batch-key-0", |db| {
                db.history("batch-key-0", &VersionSpec::branch("master"))
            })
            .unwrap()
            .unwrap();
        assert_eq!(hist.len(), 2, "in-batch chaining on the owning servelet");

        // Scatter-gather heads matches the committed uids, in input order.
        let pairs: Vec<(String, String)> = (0..24)
            .map(|i| (format!("batch-key-{i}"), "master".to_string()))
            .collect();
        let refs: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, b)| (k.as_str(), b.as_str()))
            .collect();
        let heads = c.heads(&refs).unwrap();
        for (i, (key, _)) in pairs.iter().enumerate() {
            assert_eq!(
                heads[i],
                c.with_key(key, {
                    let key = key.clone();
                    move |db| db.head(&key, "master")
                })
                .unwrap()
                .unwrap()
            );
        }

        // A bad op fails its whole servelet group atomically.
        let mut wb = c.write_batch();
        wb.put(
            "batch-key-1",
            Value::string("never"),
            &PutOptions::default(),
        );
        wb.delete_branch("no-such-key", "master");
        assert!(wb.commit().is_err());

        // Stats see every servelet.
        let stats = c.stats().unwrap();
        assert_eq!(stats.servelets.len(), 3);
        assert_eq!(stats.total_keys(), 24);
    }

    #[test]
    fn routed_map_range_pages() {
        let c = cluster(3);
        let pairs: Vec<(Bytes, Bytes)> = (0..500)
            .map(|i| {
                (
                    Bytes::from(format!("k{i:04}")),
                    Bytes::from(format!("v{i}")),
                )
            })
            .collect();
        c.with_key("table", move |db| {
            let map = db.new_map(pairs)?;
            db.put("table", map, &PutOptions::default())
        })
        .unwrap()
        .unwrap();

        let page = c
            .map_range(
                "table",
                "master",
                Some(Bytes::from_static(b"k0100")),
                Some(Bytes::from_static(b"k0200")),
                40,
            )
            .unwrap();
        assert_eq!(page.entries.len(), 40);
        assert!(page.truncated);
        assert_eq!(&page.entries[0].0[..], b"k0100");

        let rest = c
            .map_range(
                "table",
                "master",
                Some(Bytes::from_static(b"k0100")),
                Some(Bytes::from_static(b"k0200")),
                1000,
            )
            .unwrap();
        assert_eq!(rest.entries.len(), 100);
        assert!(!rest.truncated);
        assert_eq!(rest.version, page.version, "same head, same snapshot");
    }
}
