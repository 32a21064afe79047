//! Per-shard primary→replica replication with failover.
//!
//! Every ring slot (a **primary**) can carry 0..N **replicas**. The
//! router is the replication driver: after a routed write is acked it
//! exports the written keys as the same hash-verified bundle the
//! migration path uses — one `ExportBundle` frame per **capture**, which
//! is a single-key write or one owner group of a
//! [`super::ClusterWriteBatch`] — and appends it to a per-replica **ship
//! log** ([`ReplicaHandle::pending`]); [`Cluster::ship_replication`]
//! drains the log asynchronously, one apply per capture (the
//! [`super::Supervisor`] pumps it every tick).
//! Replicas apply bundles with *replace* semantics
//! ([`crate::bundle::import_bundle_replace`] via the `Replicate` wire
//! verb), so re-shipping after an ambiguous outcome converges instead of
//! erroring, and a replica's branch set mirrors its primary's — deleted
//! branches included.
//!
//! # The zero-acked-write-loss invariant
//!
//! Every write the **client observed as acked** is, at all times, either
//! applied on a replica or sitting in the router-held ship log — because
//! the capture happens under the same rebalance-gate hold as the routed
//! write, and [`Cluster::promote_replica`] (which needs the gate
//! exclusively) drains the target's ship log before swinging the slot.
//! If the capture itself fails (the primary died between ack and export)
//! the write surfaces as an error, so the caller never counted it acked.
//! Promotion therefore loses nothing the client was told succeeded, even
//! when the primary is SIGKILLed mid-ship — the chaos suite proves this
//! on both transports.
//!
//! # Split-brain prevention
//!
//! Promotion swaps the slot's node but keeps the slot's **ring anchor**,
//! so no key moves; the old primary's id leaves the topology forever.
//! Ids are never reused, restarting an unknown id fails, and routed
//! writes can only reach the node vector — a zombie primary process can
//! linger but nothing will ever route a write to it again.
//!
//! # Staleness
//!
//! Each replica set carries a capture sequence number, bumped once per
//! capture (so a batch's owner group counts once, however many keys it
//! wrote); a replica's `lag = seq - acked_seq` bounds how many acked
//! captures it has not yet applied. [`Cluster::get_from_replica`]
//! surfaces that bound in the reply and prefers the least-lagging
//! replica, falling back to the primary when no replica can serve.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use forkbase_store::SweepStore;

use crate::api::GetResult;
use crate::db::ForkBase;
use crate::error::{DbError, DbResult};

use super::rpc::{call_control, maint_call, remote_node, shutdown_node, spawn_local, Node};
use super::supervisor::Respawned;
use super::wire::{Reply, Request};
use super::{route_on, Cluster};

/// First line of the synced-replica record ([`Cluster::synced_record`]);
/// a record without it marks no replica (they just resync in full).
const SYNCED_MAGIC: &str = "forkbase-cluster-replicas-synced-v1";

/// One captured write, self-contained: shippable (and re-shippable)
/// without the primary being alive.
pub(super) enum ShipPayload {
    /// The captured keys' full exported histories at capture time, one
    /// bundle shared by every key of the capture.
    Bundle(Vec<u8>),
    /// The key had no branches left at capture time (fully deleted).
    Forget,
}

/// Router-side book-keeping for one replica.
pub(super) struct ReplicaHandle<S> {
    pub(super) id: u64,
    pub(super) node: Arc<Node<S>>,
    /// Every capture with `seq <= acked_seq` is applied on the replica.
    pub(super) acked_seq: u64,
    /// The ship log: latest unshipped capture per key (newer captures of
    /// a key coalesce over older ones — replace-import makes the newest
    /// bundle subsume them). The keys of one capture share its seq and
    /// payload.
    pub(super) pending: BTreeMap<String, (u64, Arc<ShipPayload>)>,
    /// The replica must mirror the whole key set from scratch before
    /// serving (fresh attach, reopen from a topology record, or a
    /// rebalance that moved keys between primaries).
    pub(super) needs_full_sync: bool,
}

/// The replicas of one primary plus its capture sequence.
pub(super) struct ReplicaSet<S> {
    /// Monotone counter, bumped once per capture on this primary.
    pub(super) seq: u64,
    pub(super) replicas: Vec<ReplicaHandle<S>>,
}

impl<S> Default for ReplicaSet<S> {
    fn default() -> Self {
        ReplicaSet {
            seq: 0,
            replicas: Vec::new(),
        }
    }
}

/// All replication state, keyed by primary id.
pub(super) struct ReplicationState<S> {
    pub(super) sets: BTreeMap<u64, ReplicaSet<S>>,
    /// Supervisor failover: promote a dead primary's best replica once
    /// the primary has failed this many consecutive probes (`None`
    /// disables failover — the default; restart-in-place still runs).
    pub(super) failover_after: Option<u32>,
}

impl<S> Default for ReplicationState<S> {
    fn default() -> Self {
        ReplicationState {
            sets: BTreeMap::new(),
            failover_after: None,
        }
    }
}

/// One replica's status within [`PrimaryReplication`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Stable replica id.
    pub id: u64,
    /// Network address, if the replica is a remote process.
    pub addr: Option<String>,
    /// Captures applied through this sequence number.
    pub acked_seq: u64,
    /// Acked captures not yet applied here (`seq - acked_seq`); a
    /// batch's owner group is one capture.
    pub lag: u64,
    /// Unshipped keys in the ship log.
    pub pending: u64,
    /// Whether the replica must fully resync before serving reads.
    pub needs_full_sync: bool,
}

/// Replication status of one primary ([`Cluster::replication_status`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrimaryReplication {
    /// The primary's stable id.
    pub primary: u64,
    /// The id anchoring the primary's ring slot (differs from `primary`
    /// after a promotion).
    pub anchor: u64,
    /// Captures recorded on this primary so far: one per routed write,
    /// one per owner group of a routed batch.
    pub seq: u64,
    /// Its replicas, in attach order.
    pub replicas: Vec<ReplicaStatus>,
}

/// Cluster-wide replication status, one entry per primary in slot order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicationStatus {
    /// Per-primary status.
    pub primaries: Vec<PrimaryReplication>,
}

/// A read served with replica routing ([`Cluster::get_from_replica`]).
#[derive(Clone, Debug)]
pub struct ReplicaRead {
    /// The value and version read.
    pub result: GetResult,
    /// The servelet that served it.
    pub servelet: u64,
    /// Staleness bound: acked captures the serving replica had not yet
    /// applied when it answered (0 when served by the primary).
    pub lag: u64,
    /// Whether a replica (rather than the primary) served the read.
    pub from_replica: bool,
}

/// What one [`Cluster::ship_replication`] pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShipReport {
    /// Ship-log keys applied to replicas (a capture counts its keys).
    pub shipped: u64,
    /// Replicas that completed a full key sync this pass.
    pub synced: Vec<u64>,
    /// Replicas whose ship stopped on an error (`(replica id, error)`).
    pub failed: Vec<(u64, String)>,
}

impl<S: SweepStore + Send + 'static> Cluster<S> {
    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    /// Attach a fresh in-process replica (a bare store, or a
    /// [`Respawned`] with a persist hook) to primary `primary_id`, fully
    /// sync it and record the placement before returning. The new
    /// replica's stable id is returned; it starts caught up (lag 0).
    /// Stop-the-world for routed verbs while the initial sync runs, so
    /// the mirror is a consistent snapshot.
    pub fn add_replica(&self, primary_id: u64, servelet: impl Into<Respawned<S>>) -> DbResult<u64> {
        let _gate = self.rebalance_gate.write();
        self.require_primary(primary_id)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_placement()?;
        let node = spawn_local(id, servelet.into(), self.cfg)?;
        self.register_replica(primary_id, node)
    }

    /// [`Self::add_replica`] for a **remote** replica process already
    /// listening on `addr` (see `forkbase serve --servelet`).
    pub fn add_remote_replica(&self, primary_id: u64, addr: impl Into<String>) -> DbResult<u64> {
        let _gate = self.rebalance_gate.write();
        self.require_primary(primary_id)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.record_placement()?;
        let node = remote_node(id, addr.into());
        // Fail fast if nobody is listening, before any state changes.
        call_control(&node, self.rpc.read().probe_deadline, Request::Probe)?.expect_unit()?;
        self.register_replica(primary_id, node)
    }

    /// Detach replica `id`, record the placement, and shut its worker
    /// down. Its data stays in its store (a durable backend can be
    /// re-attached later — it will resync in full).
    pub fn remove_replica(&self, id: u64) -> DbResult<()> {
        let _gate = self.rebalance_gate.write();
        let handle = {
            let mut repl = self.replication.lock();
            let mut found = None;
            for set in repl.sets.values_mut() {
                if let Some(i) = set.replicas.iter().position(|r| r.id == id) {
                    found = Some(set.replicas.remove(i));
                    break;
                }
            }
            found
        };
        match handle {
            Some(h) => {
                shutdown_node(&h.node);
                self.health_records.lock().remove(&id);
                self.record_placement()
            }
            None => Err(DbError::InvalidInput(format!("no replica with id {id}"))),
        }
    }

    /// `(replica id, primary id)` for every attached replica.
    pub fn replica_ids(&self) -> Vec<(u64, u64)> {
        let repl = self.replication.lock();
        repl.sets
            .iter()
            .flat_map(|(pid, s)| s.replicas.iter().map(move |r| (r.id, *pid)))
            .collect()
    }

    /// Run `f` against replica `id`'s database (maintenance door, like
    /// [`Self::on_node`]: deadline-bounded, chaos-exempt, local-only).
    pub fn on_replica<R: Send + 'static>(
        &self,
        id: u64,
        f: impl FnOnce(&ForkBase<S>) -> R + Send + 'static,
    ) -> DbResult<R> {
        let _gate = self.rebalance_gate.read();
        let node = {
            let repl = self.replication.lock();
            repl.sets
                .values()
                .flat_map(|s| s.replicas.iter())
                .find(|r| r.id == id)
                .map(|r| Arc::clone(&r.node))
        }
        .ok_or_else(|| DbError::InvalidInput(format!("no replica with id {id}")))?;
        let deadline = self.rpc.read().deadline;
        maint_call(&node, deadline, f)
    }

    /// Register `node` as a replica of `primary_id` without syncing it
    /// (it will resync in full on the first ship). Caller holds the
    /// rebalance gate or is constructing the cluster.
    pub(super) fn attach_replica_handle(
        &self,
        primary_id: u64,
        node: Arc<Node<S>>,
    ) -> DbResult<()> {
        self.require_primary(primary_id)?;
        let mut repl = self.replication.lock();
        let set = repl.sets.entry(primary_id).or_default();
        set.replicas.push(ReplicaHandle {
            id: node.id,
            node,
            acked_seq: 0,
            pending: BTreeMap::new(),
            needs_full_sync: true,
        });
        Ok(())
    }

    /// Assert that replica `replica_id`'s durable state already matches
    /// its primary's last acked state, clearing the conservative
    /// full-resync flag a (re)attach sets.
    ///
    /// This is for sessions that can *prove* the assertion — e.g. the CLI
    /// session persists a catch-up marker only after a clean save whose
    /// ship left the replica at lag 0, and consumes it on the next open.
    /// Asserting it for a replica that is actually behind forfeits the
    /// zero-acked-write-loss guarantee for the writes it is missing; when
    /// in doubt, leave the flag alone and let the next ship resync.
    pub fn mark_replica_synced(&self, replica_id: u64) -> DbResult<()> {
        let mut repl = self.replication.lock();
        for set in repl.sets.values_mut() {
            if let Some(r) = set.replicas.iter_mut().find(|r| r.id == replica_id) {
                r.needs_full_sync = false;
                return Ok(());
            }
        }
        Err(DbError::InvalidInput(format!(
            "no replica with id {replica_id}"
        )))
    }

    /// The synced-replica record: the replicas the last ship left caught
    /// up (lag 0, nothing pending, no full resync owed), one id a line
    /// after a magic line; empty when there are none. A session persists
    /// it after a clean save, whose ship persisted every entry before its
    /// ack, and hands it to [`Self::resume_synced`] on the next open.
    pub fn synced_record(&self) -> String {
        let caught_up: Vec<String> = self
            .replication_status()
            .primaries
            .iter()
            .flat_map(|p| &p.replicas)
            .filter(|r| r.lag == 0 && r.pending == 0 && !r.needs_full_sync)
            .map(|r| r.id.to_string())
            .collect();
        match caught_up.is_empty() {
            true => String::new(),
            false => format!("{SYNCED_MAGIC}\n{}\n", caught_up.join("\n")),
        }
    }

    /// [`Self::mark_replica_synced`] every attached replica a
    /// [`Self::synced_record`] names.
    pub fn resume_synced(&self, record: &str) {
        let mut lines = record.lines();
        if lines.next() == Some(SYNCED_MAGIC) {
            for id in lines.filter_map(|line| line.trim().parse().ok()) {
                // A replica no longer attached has nothing to resume.
                let _ = self.mark_replica_synced(id);
            }
        }
    }

    fn register_replica(&self, primary_id: u64, node: Arc<Node<S>>) -> DbResult<u64> {
        let id = node.id;
        self.attach_replica_handle(primary_id, Arc::clone(&node))?;
        let deadline = self.rpc.read().control_deadline;
        let synced = self.full_sync_replica(primary_id, id, deadline);
        match synced.and_then(|()| self.record_placement()) {
            Ok(()) => Ok(id),
            Err(e) => {
                // Roll back the attach; the burned id is never reused.
                let mut repl = self.replication.lock();
                if let Some(set) = repl.sets.get_mut(&primary_id) {
                    set.replicas.retain(|r| r.id != id);
                }
                drop(repl);
                shutdown_node(&node);
                Err(e)
            }
        }
    }

    fn require_primary(&self, id: u64) -> DbResult<()> {
        let state = self.state.read();
        if state.nodes.iter().any(|n| n.id == id) {
            Ok(())
        } else {
            Err(DbError::InvalidInput(format!(
                "no primary servelet with id {id} (replicas attach to primaries)"
            )))
        }
    }

    // ------------------------------------------------------------------
    // Capture (the write path's half of the ship log)
    // ------------------------------------------------------------------

    /// Capture `keys` (just written and acked) into the ship log of every
    /// replica of their owning primaries: one `ExportBundle` frame and one
    /// capture per primary. The caller **must** hold the rebalance gate
    /// (shared suffices): the gate is what makes ack-then-capture atomic
    /// with respect to promotion.
    ///
    /// An export failure propagates: the caller's write then surfaces as
    /// an error and is never counted acked, keeping the zero-loss
    /// invariant vacuous for it.
    pub(super) fn capture_locked(&self, keys: &[&str]) -> DbResult<()> {
        {
            let repl = self.replication.lock();
            if repl.sets.values().all(|s| s.replicas.is_empty()) {
                return Ok(());
            }
        }
        let deadline = self.rpc.read().control_deadline;
        let mut by_primary: BTreeMap<u64, BTreeSet<&str>> = BTreeMap::new();
        {
            let state = self.state.read();
            for &key in keys {
                let slot = route_on(&state.ring, key);
                by_primary
                    .entry(state.nodes[slot].id)
                    .or_default()
                    .insert(key);
            }
        }
        for (pid, keys) in by_primary {
            let replicated = {
                let repl = self.replication.lock();
                repl.sets.get(&pid).is_some_and(|s| !s.replicas.is_empty())
            };
            if !replicated {
                continue;
            }
            let node = {
                let state = self.state.read();
                state.nodes.iter().find(|n| n.id == pid).cloned()
            };
            // The primary can leave the table between building
            // `by_primary` and re-reading the state; its keys will be
            // re-captured against the new owner.
            let Some(node) = node else { continue };
            // `None`: some key has no branches left (a full deletion).
            let export = |keys: &[String]| {
                let req = Request::ExportBundle {
                    keys: keys.to_vec(),
                };
                match call_control(&node, deadline, req).and_then(Reply::expect_blob) {
                    Ok(bundle) => Ok(Some(bundle)),
                    Err(DbError::NoSuchKey(_)) | Err(DbError::InvalidInput(_)) => Ok(None),
                    Err(e) => Err(e),
                }
            };
            let keys: Vec<String> = keys.into_iter().map(String::from).collect();
            match export(&keys)? {
                Some(bundle) => self.log_capture(pid, &keys, ShipPayload::Bundle(bundle)),
                None if keys.len() == 1 => self.log_capture(pid, &keys, ShipPayload::Forget),
                // One capture per key, so the deleted ones ship a forget.
                None => {
                    for key in keys.chunks(1) {
                        let payload = export(key)?.map_or(ShipPayload::Forget, ShipPayload::Bundle);
                        self.log_capture(pid, key, payload);
                    }
                }
            }
        }
        Ok(())
    }

    /// Log one capture of `keys` on primary `pid`: bump its `seq` once
    /// and queue `payload` under that seq for every key on every replica.
    fn log_capture(&self, pid: u64, keys: &[String], payload: ShipPayload) {
        let payload = Arc::new(payload);
        let mut repl = self.replication.lock();
        if let Some(set) = repl.sets.get_mut(&pid) {
            if set.replicas.is_empty() {
                return;
            }
            set.seq += 1;
            let seq = set.seq;
            for r in &mut set.replicas {
                for key in keys {
                    r.pending.insert(key.clone(), (seq, Arc::clone(&payload)));
                }
            }
        }
    }

    /// Invalidate every replica's mirror (rebalance moved keys between
    /// primaries): pending entries are dropped — the upcoming full sync
    /// subsumes them — and each replica resyncs before serving again.
    pub(super) fn mark_replicas_stale(&self) {
        let mut repl = self.replication.lock();
        for set in repl.sets.values_mut() {
            for r in &mut set.replicas {
                r.needs_full_sync = true;
                r.pending.clear();
            }
        }
    }

    // ------------------------------------------------------------------
    // Shipping
    // ------------------------------------------------------------------

    /// Drain the ship log: apply pending captures to every replica (full
    /// key sync first for replicas that need one). Asynchronous with
    /// respect to writes — the [`super::Supervisor`] pumps this every
    /// tick; tests and the CLI call it directly. Per-replica errors are
    /// reported, not propagated: an unreachable replica just stays
    /// lagged.
    pub fn ship_replication(&self) -> ShipReport {
        let _gate = self.rebalance_gate.read();
        let deadline = self.rpc.read().control_deadline;
        let mut report = ShipReport::default();
        let pairs: Vec<(u64, u64, bool)> = {
            let repl = self.replication.lock();
            repl.sets
                .iter()
                .flat_map(|(pid, s)| {
                    s.replicas
                        .iter()
                        .map(move |r| (*pid, r.id, r.needs_full_sync))
                })
                .collect()
        };
        for (pid, rid, needs_sync) in pairs {
            let result = (|| -> DbResult<()> {
                if needs_sync {
                    self.full_sync_replica(pid, rid, deadline)?;
                    report.synced.push(rid);
                }
                report.shipped += self.drain_pending(rid, deadline)?;
                Ok(())
            })();
            if let Err(e) = result {
                report.failed.push((rid, e.to_string()));
            }
        }
        report
    }

    /// Mirror the primary's full key set onto the replica: forget keys
    /// the primary no longer has, replace-import everything it does, then
    /// retire the ship-log entries the sync subsumed. Callers hold the
    /// rebalance gate (shared or exclusive).
    fn full_sync_replica(&self, pid: u64, rid: u64, deadline: Duration) -> DbResult<()> {
        let primary = {
            let state = self.state.read();
            state
                .nodes
                .iter()
                .find(|n| n.id == pid)
                .cloned()
                .ok_or_else(|| {
                    DbError::InvalidInput(format!("no primary servelet with id {pid}"))
                })?
        };
        let (replica, sync_seq) =
            {
                let repl = self.replication.lock();
                let set = repl.sets.get(&pid).ok_or_else(|| {
                    DbError::InvalidInput(format!("servelet {pid} has no replicas"))
                })?;
                let r =
                    set.replicas.iter().find(|r| r.id == rid).ok_or_else(|| {
                        DbError::InvalidInput(format!("no replica with id {rid}"))
                    })?;
                (Arc::clone(&r.node), set.seq)
            };
        let keys_p: BTreeSet<String> = call_control(&primary, deadline, Request::ListKeys)?
            .expect_keys()?
            .into_iter()
            .collect();
        let keys_r = call_control(&replica, deadline, Request::ListKeys)?.expect_keys()?;
        let stale: Vec<String> = keys_r.into_iter().filter(|k| !keys_p.contains(k)).collect();
        if !stale.is_empty() {
            call_control(&replica, deadline, Request::ForgetKeys { keys: stale })?.expect_unit()?;
        }
        if !keys_p.is_empty() {
            let bundle = call_control(
                &primary,
                deadline,
                Request::ExportBundle {
                    keys: keys_p.into_iter().collect(),
                },
            )?
            .expect_blob()?;
            call_control(&replica, deadline, Request::Replicate { bundle })?.expect_count()?;
        }
        let mut repl = self.replication.lock();
        if let Some(set) = repl.sets.get_mut(&pid) {
            if let Some(r) = set.replicas.iter_mut().find(|r| r.id == rid) {
                // Everything captured up to sync_seq is subsumed by the
                // sync (re-applying an older bundle after it would
                // regress the replica); captures newer than the sync
                // point still ship normally.
                r.pending.retain(|_, (s, _)| *s > sync_seq);
                r.acked_seq = r.acked_seq.max(sync_seq);
                r.needs_full_sync = false;
            }
        }
        Ok(())
    }

    /// Apply replica `rid`'s pending captures in sequence order, one frame
    /// per capture, stopping at the first failure. Returns how many keys
    /// shipped. Callers hold the rebalance gate.
    fn drain_pending(&self, rid: u64, deadline: Duration) -> DbResult<u64> {
        let pid = self
            .primary_of(rid)
            .ok_or_else(|| DbError::InvalidInput(format!("no replica with id {rid}")))?;
        let (node, captures) = {
            let repl = self.replication.lock();
            // The set can dissolve between `primary_of` and re-locking
            // (concurrent promote/detach): nothing left to drain.
            let Some(set) = repl.sets.get(&pid) else {
                return Ok(0);
            };
            let Some(r) = set.replicas.iter().find(|r| r.id == rid) else {
                return Ok(0);
            };
            // Per capture, oldest first: the keys still logged under it.
            let mut captures: BTreeMap<u64, (Vec<String>, Arc<ShipPayload>)> = BTreeMap::new();
            for (key, (seq, payload)) in &r.pending {
                captures
                    .entry(*seq)
                    .or_insert_with(|| (Vec::new(), Arc::clone(payload)))
                    .0
                    .push(key.clone());
            }
            (Arc::clone(&r.node), captures)
        };
        let mut shipped = 0u64;
        let mut failure = None;
        for (seq, (keys, payload)) in captures {
            // A capture's bundle may still carry keys a newer capture
            // superseded; that one ships later and replaces them.
            let applied = match &*payload {
                ShipPayload::Bundle(bundle) => call_control(
                    &node,
                    deadline,
                    Request::Replicate {
                        bundle: bundle.clone(),
                    },
                )
                .and_then(Reply::expect_count)
                .map(|_| ()),
                ShipPayload::Forget => {
                    call_control(&node, deadline, Request::ForgetKeys { keys: keys.clone() })
                        .and_then(Reply::expect_unit)
                }
            };
            match applied {
                Ok(()) => {
                    shipped += keys.len() as u64;
                    let mut repl = self.replication.lock();
                    if let Some(set) = repl.sets.get_mut(&pid) {
                        if let Some(r) = set.replicas.iter_mut().find(|r| r.id == rid) {
                            // Remove only keys no newer capture coalesced
                            // over while we were shipping.
                            for key in &keys {
                                if r.pending.get(key).is_some_and(|(s, _)| *s == seq) {
                                    r.pending.remove(key);
                                }
                            }
                        }
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // Advance the staleness bound: everything below the oldest still-
        // pending capture is applied; with an empty log the replica is
        // fully caught up to the set's current sequence.
        let mut repl = self.replication.lock();
        if let Some(set) = repl.sets.get_mut(&pid) {
            let seq = set.seq;
            if let Some(r) = set.replicas.iter_mut().find(|r| r.id == rid) {
                let floor = r.pending.values().map(|(s, _)| *s).min();
                r.acked_seq = match floor {
                    Some(s) => r.acked_seq.max(s.saturating_sub(1)),
                    None => r.acked_seq.max(seq),
                };
            }
        }
        drop(repl);
        match failure {
            Some(e) => Err(e),
            None => Ok(shipped),
        }
    }

    fn primary_of(&self, rid: u64) -> Option<u64> {
        let repl = self.replication.lock();
        repl.sets
            .iter()
            .find(|(_, s)| s.replicas.iter().any(|r| r.id == rid))
            .map(|(pid, _)| *pid)
    }

    // ------------------------------------------------------------------
    // Promotion
    // ------------------------------------------------------------------

    /// Swing replica `replica_id`'s ring slot to it: the replica becomes
    /// the slot's primary, the old primary's id leaves the topology
    /// forever, and — because the slot keeps its ring anchor — **no key
    /// moves**. Returns the retired primary's id.
    ///
    /// Before the swap the target's ship log is drained (its payloads are
    /// self-contained, so this works with the primary dead), which is
    /// what makes promotion lose zero acked writes. A replica that still
    /// needs a full sync can only be promoted while its primary is alive
    /// enough to sync from; otherwise this fails and the caller should
    /// pick a caught-up replica.
    ///
    /// Works with the old primary dead, alive, or SIGKILLed mid-ship;
    /// invoked manually (CLI `cluster promote`) or by the supervisor once
    /// a primary stays dead past the failover threshold
    /// ([`Self::set_failover_threshold`]).
    pub fn promote_replica(&self, replica_id: u64) -> DbResult<u64> {
        // Serialized with restarts: a supervised restart of the old
        // primary must not race the slot swap.
        let _restart = self.restart_lock.lock();
        let _gate = self.rebalance_gate.write();
        let pid = self
            .primary_of(replica_id)
            .ok_or_else(|| DbError::InvalidInput(format!("no replica with id {replica_id}")))?;
        let slot = {
            let state = self.state.read();
            state
                .nodes
                .iter()
                .position(|n| n.id == pid)
                .ok_or_else(|| {
                    DbError::InvalidInput(format!("primary {pid} is not in the node table"))
                })?
        };
        let deadline = self.rpc.read().control_deadline;
        let needs_sync = {
            let repl = self.replication.lock();
            repl.sets[&pid]
                .replicas
                .iter()
                .find(|r| r.id == replica_id)
                .is_some_and(|r| r.needs_full_sync)
        };
        if needs_sync {
            self.full_sync_replica(pid, replica_id, deadline)
                .map_err(|e| {
                    DbError::InvalidInput(format!(
                        "cannot promote replica {replica_id}: it needs a full sync and the \
                         sync failed ({e})"
                    ))
                })?;
        }
        self.drain_pending(replica_id, deadline).map_err(|e| {
            DbError::InvalidInput(format!(
                "cannot promote replica {replica_id}: draining its ship log failed ({e})"
            ))
        })?;
        // The target now holds every acked write. Swap the slot; ring and
        // anchors are untouched so placement is unchanged.
        let replica_node = {
            let mut repl = self.replication.lock();
            let Some(mut set) = repl.sets.remove(&pid) else {
                return Err(DbError::InvalidInput(format!(
                    "replica set of primary {pid} dissolved during promotion"
                )));
            };
            match set.replicas.iter().position(|r| r.id == replica_id) {
                Some(idx) => {
                    let promoted = set.replicas.remove(idx);
                    let node = Arc::clone(&promoted.node);
                    // Remaining replicas re-home under the new primary;
                    // their ship logs and sequence numbers carry over
                    // unchanged (the pending payloads are
                    // self-contained).
                    repl.sets.insert(replica_id, set);
                    node
                }
                None => {
                    // Restore the untouched set before reporting.
                    repl.sets.insert(pid, set);
                    return Err(DbError::InvalidInput(format!(
                        "replica {replica_id} left the set during promotion"
                    )));
                }
            }
        };
        let old_node = {
            let mut state = self.state.write();
            std::mem::replace(&mut state.nodes[slot], replica_node)
        };
        shutdown_node(&old_node);
        self.health_records.lock().remove(&pid);
        // The swap stands even if the record fails: the error reports it.
        self.record_placement()?;
        Ok(pid)
    }

    /// Enable (`Some(n)`) or disable (`None`) supervisor-driven failover:
    /// with `Some(n)`, a supervision pass promotes the best replica of a
    /// primary that has failed `n` or more consecutive probes instead of
    /// restarting it in place.
    pub fn set_failover_threshold(&self, consecutive_failures: Option<u32>) {
        self.replication.lock().failover_after = consecutive_failures;
    }

    /// The configured failover threshold, if any.
    pub fn failover_threshold(&self) -> Option<u32> {
        self.replication.lock().failover_after
    }

    /// Failover for the supervisor: promote the best replica of dead
    /// primary `pid` — caught-up replicas first, highest acked sequence
    /// first within each group. Returns the promoted replica's id, or
    /// `None` if `pid` has no replicas or every candidate failed.
    pub(super) fn try_failover(&self, pid: u64) -> Option<u64> {
        let mut candidates: Vec<(bool, std::cmp::Reverse<u64>, u64)> = {
            let repl = self.replication.lock();
            repl.sets
                .get(&pid)?
                .replicas
                .iter()
                .map(|r| (r.needs_full_sync, std::cmp::Reverse(r.acked_seq), r.id))
                .collect()
        };
        candidates.sort();
        candidates
            .into_iter()
            .map(|(_, _, rid)| rid)
            // A promotion whose placement record failed still swapped the
            // slot: with `pid` gone, a second candidate must not follow.
            .find(|&rid| self.promote_replica(rid).is_ok() || !self.ids().contains(&pid))
    }

    // ------------------------------------------------------------------
    // Reads + status
    // ------------------------------------------------------------------

    /// `Get` served by a replica of `key`'s owner when one can answer,
    /// with the staleness bound surfaced in the reply. Candidate order is
    /// least-lagging first; a replica that needs a full sync never
    /// serves. Falls back to the routed primary read when no replica
    /// answers — so this degrades to [`Self::get`], it never fails
    /// *because* replication is behind.
    ///
    /// A data error (e.g. `no_such_key`) from a **caught-up** replica is
    /// authoritative and returned; from a lagging replica the primary is
    /// consulted before giving up.
    pub fn get_from_replica(&self, key: &str, branch: &str) -> DbResult<ReplicaRead> {
        let _gate = self.rebalance_gate.read();
        let deadline = self.rpc.read().deadline;
        let pid = {
            let state = self.state.read();
            state.nodes[route_on(&state.ring, key)].id
        };
        let mut candidates: Vec<(u64, Arc<Node<S>>, u64)> = {
            let repl = self.replication.lock();
            match repl.sets.get(&pid) {
                Some(set) => set
                    .replicas
                    .iter()
                    .filter(|r| !r.needs_full_sync)
                    .map(|r| (r.id, Arc::clone(&r.node), set.seq - r.acked_seq))
                    .collect(),
                None => Vec::new(),
            }
        };
        candidates.sort_by_key(|&(_, _, lag)| lag);
        let req = Request::Get {
            key: key.to_string(),
            branch: branch.to_string(),
        };
        for (rid, node, lag) in candidates {
            // An RPC failure just moves on to the next candidate; only a
            // decoded reply can answer (or, at lag 0, refuse) the read.
            let Ok(reply) = call_control(&node, deadline, req.clone()) else {
                continue;
            };
            match reply.expect_get() {
                Ok(result) => {
                    return Ok(ReplicaRead {
                        result,
                        servelet: rid,
                        lag,
                        from_replica: true,
                    })
                }
                Err(e) if lag == 0 => return Err(e),
                Err(_) => {}
            }
        }
        let result = self.get(key, branch)?;
        Ok(ReplicaRead {
            result,
            servelet: pid,
            lag: 0,
            from_replica: false,
        })
    }

    /// Cluster-wide replication status: one entry per primary in slot
    /// order (primaries without replicas included, with an empty set).
    pub fn replication_status(&self) -> ReplicationStatus {
        let state = self.state.read();
        let repl = self.replication.lock();
        let primaries = state
            .nodes
            .iter()
            .enumerate()
            .map(|(slot, n)| {
                let (seq, replicas) = match repl.sets.get(&n.id) {
                    Some(set) => (
                        set.seq,
                        set.replicas
                            .iter()
                            .map(|r| ReplicaStatus {
                                id: r.id,
                                addr: r.node.addr().map(String::from),
                                acked_seq: r.acked_seq,
                                lag: set.seq - r.acked_seq,
                                pending: r.pending.len() as u64,
                                needs_full_sync: r.needs_full_sync,
                            })
                            .collect(),
                    ),
                    None => (0, Vec::new()),
                };
                PrimaryReplication {
                    primary: n.id,
                    anchor: state.anchors[slot],
                    seq,
                    replicas,
                }
            })
            .collect();
        ReplicationStatus { primaries }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ClusterTopology, TopoRole};
    use super::*;
    use crate::api::PutOptions;
    use crate::db::VersionSpec;
    use forkbase_postree::TreeConfig;
    use forkbase_store::MemStore;
    use forkbase_types::Value;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(n, TreeConfig::test_config())
    }

    #[test]
    fn replica_serves_reads_with_staleness_bound() {
        let c = cluster(2);
        c.put_string("doc", "v1".into(), PutOptions::default())
            .unwrap();
        let pid = c.owner_id("doc");
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        // The initial sync carried the pre-existing write.
        let read = c.get_from_replica("doc", "master").unwrap();
        assert!(read.from_replica);
        assert_eq!(read.servelet, rid);
        assert_eq!(read.lag, 0);
        assert_eq!(read.result.value.as_str(), Some("v1"));

        // A new write lags until shipped; the bound says so.
        c.put_string("doc", "v2".into(), PutOptions::default())
            .unwrap();
        let read = c.get_from_replica("doc", "master").unwrap();
        assert!(read.from_replica);
        assert_eq!(read.lag, 1, "one unshipped capture");
        assert_eq!(read.result.value.as_str(), Some("v1"), "stale by one");

        let report = c.ship_replication();
        assert_eq!(report.shipped, 1);
        assert!(report.failed.is_empty());
        let read = c.get_from_replica("doc", "master").unwrap();
        assert_eq!(read.lag, 0);
        assert_eq!(read.result.value.as_str(), Some("v2"));

        let status = c.replication_status();
        let p = status.primaries.iter().find(|p| p.primary == pid).unwrap();
        assert_eq!(p.replicas.len(), 1);
        assert_eq!(p.replicas[0].id, rid);
        assert_eq!(p.replicas[0].lag, 0);
    }

    #[test]
    fn replica_mirrors_branch_deletion_and_key_deletion() {
        let c = cluster(1);
        let pid = c.ids()[0];
        c.put_string("k", "a".into(), PutOptions::default())
            .unwrap();
        c.with_key("k", |db| db.branch("k", "master", "side"))
            .unwrap()
            .unwrap();
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        assert!(c
            .on_replica(rid, |db| db.head("k", "side").is_ok())
            .unwrap());

        // Deleting a branch must propagate (replace semantics).
        let mut wb = c.write_batch();
        wb.delete_branch("k", "side");
        wb.commit().unwrap();
        c.ship_replication();
        assert!(c
            .on_replica(rid, |db| db.head("k", "side").is_err())
            .unwrap());

        // Deleting the whole key ships a forget.
        let mut wb = c.write_batch();
        wb.delete_branch("k", "master");
        wb.commit().unwrap();
        c.ship_replication();
        assert!(!c
            .on_replica(rid, |db| db.list_keys().contains(&"k".to_string()))
            .unwrap());
    }

    #[test]
    fn promote_preserves_every_acked_write_after_kill() {
        let c = cluster(2);
        for i in 0..40 {
            c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
                .unwrap();
        }
        let pid = c.ids()[0];
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        // More writes after attach, deliberately NOT shipped: they sit in
        // the ship log when the primary dies.
        let mut acked: Vec<(String, crate::fnode::Uid)> = Vec::new();
        for i in 40..80 {
            let key = format!("key-{i}");
            let commit = c
                .put_string(&key, format!("v{i}"), PutOptions::default())
                .unwrap();
            acked.push((key, commit.uid));
        }
        let slot = c.ids().iter().position(|&id| id == pid).unwrap();
        c.kill_servelet(slot).unwrap();

        let old = c.promote_replica(rid).unwrap();
        assert_eq!(old, pid);
        assert_eq!(c.ids().iter().filter(|&&id| id == rid).count(), 1);
        assert!(!c.ids().contains(&pid), "the dead id left the topology");

        // Placement unchanged: every key readable, every acked head intact.
        for (key, uid) in &acked {
            if c.owner_id(key) == rid {
                let got = c.get(key, "master").unwrap();
                assert_eq!(got.uid, *uid, "{key} lost its acked head");
            }
        }
        for i in 0..80 {
            let key = format!("key-{i}");
            assert!(c.get(&key, "master").is_ok(), "{key} unreadable");
        }
        // Full history survived, not just heads.
        let sample = acked
            .iter()
            .find(|(k, _)| c.owner_id(k) == rid)
            .expect("some key owned by the promoted slot");
        let hist = c
            .with_key(&sample.0, {
                let key = sample.0.clone();
                move |db| db.history(&key, &VersionSpec::branch("master"))
            })
            .unwrap()
            .unwrap();
        assert!(!hist.is_empty());
    }

    #[test]
    fn supervisor_fails_over_to_replica_past_threshold() {
        let c = cluster(2);
        c.put_string("k1", "v".into(), PutOptions::default())
            .unwrap();
        let pid = c.ids()[0];
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        c.set_failover_threshold(Some(2));
        let slot = c.ids().iter().position(|&id| id == pid).unwrap();
        c.kill_servelet(slot).unwrap();

        // First pass: one failure — below threshold; the restart path
        // runs (and fails: no respawn factory installed).
        let report = c.supervise_once();
        assert!(report.promoted.is_empty());
        assert!(report.failed.iter().any(|(id, _)| *id == pid));

        // Second pass crosses the threshold: failover, not restart.
        let report = c.supervise_once();
        assert_eq!(report.promoted, vec![(pid, rid)]);
        assert!(c.ids().contains(&rid));
        assert!(c.is_fully_healthy());
    }

    #[test]
    fn topology_roundtrips_replicas_and_promotion_anchors() {
        let c = cluster(2);
        let pid = c.ids()[0];
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        let topo = c.topology();
        assert_eq!(topo.role_of(rid), Some(&TopoRole::Replica { primary: pid }));
        let reparsed = ClusterTopology::parse(&topo.encode()).unwrap();
        assert_eq!(reparsed, topo);

        // Reopen: the replica is attached (resyncing in full) and routing
        // is identical.
        let reopened =
            Cluster::from_topology(
                &reparsed,
                TreeConfig::test_config(),
                |_| Ok(MemStore::new()),
            )
            .unwrap();
        assert_eq!(reopened.replica_ids(), vec![(rid, pid)]);
        for i in 0..100 {
            let key = format!("key-{i}");
            assert_eq!(c.owner_id(&key), reopened.owner_id(&key));
        }

        // After promotion the record carries the anchor so the reopened
        // cluster still routes identically despite the new id.
        let owners: Vec<u64> = (0..100)
            .map(|i| c.route(&format!("key-{i}")) as u64)
            .collect();
        c.promote_replica(rid).unwrap();
        let owners_after: Vec<u64> = (0..100)
            .map(|i| c.route(&format!("key-{i}")) as u64)
            .collect();
        assert_eq!(owners, owners_after, "promotion moves no key");
        let topo = c.topology();
        assert_eq!(topo.role_of(rid), Some(&TopoRole::Primary { anchor: pid }));
        let reparsed = ClusterTopology::parse(&topo.encode()).unwrap();
        let reopened =
            Cluster::from_topology(
                &reparsed,
                TreeConfig::test_config(),
                |_| Ok(MemStore::new()),
            )
            .unwrap();
        for i in 0..100 {
            let key = format!("key-{i}");
            assert_eq!(c.owner_id(&key), reopened.owner_id(&key));
        }
    }

    #[test]
    fn rebalance_marks_replicas_for_full_resync() {
        let c = cluster(2);
        for i in 0..60 {
            c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
                .unwrap();
        }
        let pid = c.ids()[0];
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        c.add_servelet(MemStore::new()).unwrap();
        let status = c.replication_status();
        let r = status
            .primaries
            .iter()
            .flat_map(|p| p.replicas.iter())
            .find(|r| r.id == rid)
            .unwrap();
        assert!(r.needs_full_sync, "rebalance invalidates mirrors");
        let report = c.ship_replication();
        assert_eq!(report.synced, vec![rid]);
        // After the resync, the replica mirrors exactly the primary's
        // (post-rebalance) key set.
        let primary_keys = c
            .on_node(c.ids().iter().position(|&id| id == pid).unwrap(), |db| {
                db.list_keys()
            })
            .unwrap();
        let replica_keys = c.on_replica(rid, |db| db.list_keys()).unwrap();
        assert_eq!(primary_keys, replica_keys);
    }

    #[test]
    fn remove_primary_with_replicas_is_refused_and_replica_membership_errors() {
        let c = cluster(2);
        let pid = c.ids()[0];
        let rid = c.add_replica(pid, MemStore::new()).unwrap();
        let err = c.remove_servelet(pid).unwrap_err();
        assert!(matches!(err, DbError::InvalidInput(_)), "got {err:?}");
        assert!(c.add_replica(999, MemStore::new()).is_err());
        assert!(c.remove_replica(999).is_err());
        assert!(c.promote_replica(999).is_err());
        c.remove_replica(rid).unwrap();
        c.remove_servelet(pid).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn write_batch_captures_into_ship_log() {
        let c = cluster(2);
        let pid = c.ids()[0];
        let _rid = c.add_replica(pid, MemStore::new()).unwrap();
        let mut wb = c.write_batch();
        for i in 0..10 {
            wb.put(
                format!("bkey-{i}"),
                Value::string(format!("v{i}")),
                &PutOptions::default(),
            );
        }
        wb.commit().unwrap();
        let report = c.ship_replication();
        assert!(report.failed.is_empty());
        let status = c.replication_status();
        for p in &status.primaries {
            for r in &p.replicas {
                assert_eq!(r.lag, 0);
                assert_eq!(r.pending, 0);
            }
        }
    }
}
