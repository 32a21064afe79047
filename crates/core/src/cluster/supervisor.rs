//! Servelet supervision: liveness probing, health reporting, and restart
//! of crashed workers from their durable backends.
//!
//! A dead servelet is not removed from the ring — its keys live in its
//! store, and dropping them would lose data. Instead the supervisor
//! rebuilds the worker **in place**: join the dead thread (releasing the
//! store's advisory lock for durable backends), reopen the servelet
//! through the cluster's *respawn factory* — its store, its persisted
//! branch heads and its persist hook, the same [`Respawned`] a local
//! servelet is first spawned from — and swap the fresh worker into the
//! same slot under the same stable id. Routing never changes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use forkbase_store::SweepStore;

use crate::error::{DbError, DbResult};

use super::net::PersistFn;
use super::rpc::{call_control, shutdown_node, spawn_local};
use super::wire::{Reply, Request};
use super::Cluster;

/// Liveness of one servelet as seen by the supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// The worker answered a probe within the probe deadline.
    Alive,
    /// The worker is gone or unresponsive.
    Dead,
    /// A restart is currently in flight.
    Restarting,
}

impl HealthState {
    /// Stable lowercase name (`alive` / `dead` / `restarting`).
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Alive => "alive",
            HealthState::Dead => "dead",
            HealthState::Restarting => "restarting",
        }
    }
}

/// One servelet's health record ([`Cluster::health`]).
#[derive(Clone, Debug)]
pub struct ServeletHealth {
    /// Stable servelet id.
    pub servelet: u64,
    /// Current liveness.
    pub state: HealthState,
    /// Probe failures since the last success.
    pub consecutive_failures: u32,
    /// The most recent probe or restart error, if any.
    pub last_error: Option<String>,
}

/// Book-keeping behind [`Cluster::health`].
#[derive(Clone, Debug, Default)]
pub(super) struct HealthRecord {
    pub(super) restarting: bool,
    pub(super) consecutive_failures: u32,
    pub(super) last_error: Option<String>,
}

/// Everything a local servelet is spawned from, as a
/// [`Cluster::from_topology`] opener (also the respawn factory),
/// [`Cluster::add_servelet`] and [`Cluster::add_replica`] take it. A
/// bare store converts into one with no heads and no persist hook.
pub struct Respawned<S> {
    /// The reopened store (e.g. `FileStore` packs recovered on open).
    pub store: S,
    /// Persisted refs text, loaded before the servelet serves (without
    /// it branch heads start empty).
    pub refs: Option<String>,
    /// Runs after every mutating request that succeeded, before its
    /// reply, as a [`ServeletServer`](super::ServeletServer)'s hook does.
    pub persist: Option<PersistFn<S>>,
}

impl<S> From<S> for Respawned<S> {
    fn from(store: S) -> Self {
        Respawned {
            store,
            refs: None,
            persist: None,
        }
    }
}

pub(super) type RespawnFn<S> = Arc<dyn Fn(u64) -> DbResult<Respawned<S>> + Send + Sync>;

/// Hook that re-launches a crashed **remote** servelet process
/// ([`Cluster::set_remote_respawn`]). Called with the servelet's stable
/// id and address; it should get a process listening on that address
/// again (e.g. re-exec `forkbase serve --servelet ADDR --data DIR` — the
/// reopened `FileStore` recovers its packs and refs itself). The
/// supervisor then polls the probe until the servelet answers or the
/// control deadline expires.
pub type RemoteRespawnFn = Arc<dyn Fn(u64, &str) -> DbResult<()> + Send + Sync>;

/// Outcome of one supervision pass ([`Cluster::supervise_once`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Servelets that answered their probe.
    pub alive: Vec<u64>,
    /// Dead servelets this pass successfully restarted.
    pub restarted: Vec<u64>,
    /// Dead servelets whose restart failed, with the error.
    pub failed: Vec<(u64, String)>,
    /// Dead primaries this pass failed over to a replica, as
    /// `(retired primary id, promoted replica id)`. Only populated when a
    /// failover threshold is set ([`Cluster::set_failover_threshold`]).
    pub promoted: Vec<(u64, u64)>,
}

impl<S: SweepStore + Send + 'static> Cluster<S> {
    /// Install the respawn factory of a cluster built from bare stores
    /// ([`Self::from_topology`] installs its opener).
    pub fn set_respawn(&self, f: impl Fn(u64) -> DbResult<Respawned<S>> + Send + Sync + 'static) {
        *self.respawn.write() = Some(Arc::new(f));
    }

    /// Install the hook used to restart crashed **remote** servelets
    /// (entries routed over TCP). The hook must get a process listening
    /// on the servelet's address again; the supervisor then waits for the
    /// probe to answer. Without a hook, remote restarts fail with
    /// [`DbError::InvalidInput`] — the router cannot exec processes on
    /// other machines by itself.
    pub fn set_remote_respawn(
        &self,
        f: impl Fn(u64, &str) -> DbResult<()> + Send + Sync + 'static,
    ) {
        *self.remote_respawn.write() = Some(Arc::new(f));
    }

    /// Probe every servelet (short control-plane ping, exempt from chaos)
    /// and report per-servelet health in slot order.
    pub fn health(&self) -> Vec<ServeletHealth> {
        let nodes = self.state.read().nodes.clone();
        let probe = self.rpc.read().probe_deadline;
        let mut out = Vec::with_capacity(nodes.len());
        for node in nodes {
            if self
                .health_records
                .lock()
                .get(&node.id)
                .is_some_and(|r| r.restarting)
            {
                let rec = self
                    .health_records
                    .lock()
                    .get(&node.id)
                    .cloned()
                    .unwrap_or_default();
                out.push(ServeletHealth {
                    servelet: node.id,
                    state: HealthState::Restarting,
                    consecutive_failures: rec.consecutive_failures,
                    last_error: rec.last_error,
                });
                continue;
            }
            match call_control(&node, probe, Request::Probe).and_then(Reply::expect_unit) {
                Ok(()) => {
                    let mut recs = self.health_records.lock();
                    let rec = recs.entry(node.id).or_default();
                    rec.consecutive_failures = 0;
                    rec.last_error = None;
                    out.push(ServeletHealth {
                        servelet: node.id,
                        state: HealthState::Alive,
                        consecutive_failures: 0,
                        last_error: None,
                    });
                }
                Err(e) => {
                    let mut recs = self.health_records.lock();
                    let rec = recs.entry(node.id).or_default();
                    rec.consecutive_failures += 1;
                    rec.last_error = Some(e.to_string());
                    out.push(ServeletHealth {
                        servelet: node.id,
                        state: HealthState::Dead,
                        consecutive_failures: rec.consecutive_failures,
                        last_error: rec.last_error.clone(),
                    });
                }
            }
        }
        out
    }

    /// Whether every servelet currently answers its probe.
    pub fn is_fully_healthy(&self) -> bool {
        self.health().iter().all(|h| h.state == HealthState::Alive)
    }

    /// Rebuild servelet `id`'s worker from its durable backend: join the
    /// dead thread (releasing any store lock), reopen the servelet via the
    /// respawn factory, and swap the fresh worker into the same slot.
    /// Safe on a live servelet too (a bounce).
    ///
    /// Fails with [`DbError::InvalidInput`] if no respawn factory is
    /// installed or the id is unknown; factory errors pass through.
    pub fn restart_servelet(&self, id: u64) -> DbResult<()> {
        // One restart at a time; shared on the rebalance gate so a
        // restart never interleaves with a migration's node traffic.
        let _restart = self.restart_lock.lock();
        let _gate = self.rebalance_gate.read();
        let old = {
            let state = self.state.read();
            state
                .nodes
                .iter()
                .find(|n| n.id == id)
                .cloned()
                .ok_or_else(|| DbError::InvalidInput(format!("no servelet with id {id}")))?
        };
        {
            let mut recs = self.health_records.lock();
            recs.entry(id).or_default().restarting = true;
        }
        let result = if let Some(addr) = old.addr().map(str::to_string) {
            // Remote servelet: ask the installed hook to re-launch the
            // process, then wait until its probe answers. The node itself
            // is kept — it addresses the same endpoint.
            (|| {
                let hook = self.remote_respawn.read().clone().ok_or_else(|| {
                    DbError::InvalidInput(format!(
                        "cannot restart remote servelet {id} ({addr}): no remote respawn \
                         hook installed (Cluster::set_remote_respawn)"
                    ))
                })?;
                hook(id, &addr)?;
                let (probe, deadline) = {
                    let rpc = self.rpc.read();
                    (rpc.probe_deadline, rpc.control_deadline)
                };
                let give_up = std::time::Instant::now() + deadline;
                loop {
                    match call_control(&old, probe, Request::Probe).and_then(Reply::expect_unit) {
                        Ok(()) => return Ok(()),
                        Err(e) if std::time::Instant::now() >= give_up => {
                            return Err(DbError::InvalidInput(format!(
                                "remote servelet {id} ({addr}) did not come back within \
                                 the control deadline: {e}"
                            )))
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(50)),
                    }
                }
            })()
        } else {
            (|| {
                let respawn = self.respawn.read().clone().ok_or_else(|| {
                    DbError::InvalidInput(format!(
                        "cannot restart servelet {id}: no respawn factory installed \
                         (Cluster::set_respawn)"
                    ))
                })?;
                // Join first: drops the old worker's ForkBase and store,
                // releasing e.g. FileStore's advisory lock before reopen.
                shutdown_node(&old);
                let node = spawn_local(id, respawn(id)?, self.cfg)?;
                let mut state = self.state.write();
                match state.nodes.iter().position(|n| n.id == id) {
                    Some(slot) => {
                        state.nodes[slot] = node;
                        Ok(())
                    }
                    None => {
                        drop(state);
                        shutdown_node(&node);
                        Err(DbError::InvalidInput(format!(
                            "servelet {id} was removed during restart"
                        )))
                    }
                }
            })()
        };
        let mut recs = self.health_records.lock();
        let rec = recs.entry(id).or_default();
        rec.restarting = false;
        match &result {
            Ok(()) => {
                rec.consecutive_failures = 0;
                rec.last_error = None;
            }
            Err(e) => rec.last_error = Some(e.to_string()),
        }
        result
    }

    /// One supervision pass: pump the replication ship log, probe
    /// everything, then deal with the dead — promote a replica when the
    /// failover threshold is crossed, otherwise restart in place.
    /// This is the loop body [`Supervisor`] runs on its interval; tests
    /// call it directly for deterministic scheduling.
    pub fn supervise_once(&self) -> SupervisionReport {
        // The supervisor is the async ship pump: replicas catch up every
        // tick without any write blocking on them.
        let _ = self.ship_replication();
        let failover_after = self.failover_threshold();
        let mut report = SupervisionReport::default();
        for h in self.health() {
            match h.state {
                HealthState::Alive => report.alive.push(h.servelet),
                HealthState::Restarting => {}
                HealthState::Dead => {
                    // Past the threshold a primary with a promotable
                    // replica fails over instead of restarting: the slot
                    // swings to the replica and the dead id retires.
                    if failover_after.is_some_and(|t| h.consecutive_failures >= t) {
                        if let Some(rid) = self.try_failover(h.servelet) {
                            report.promoted.push((h.servelet, rid));
                            continue;
                        }
                    }
                    match self.restart_servelet(h.servelet) {
                        Ok(()) => report.restarted.push(h.servelet),
                        Err(e) => report.failed.push((h.servelet, e.to_string())),
                    }
                }
            }
        }
        report
    }
}

/// A background thread running [`Cluster::supervise_once`] on a fixed
/// interval. Stops (and joins) on [`Supervisor::stop`] or drop.
pub struct Supervisor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Start supervising `cluster`, probing (and restarting the dead)
    /// every `interval`.
    pub fn spawn<S: SweepStore + Send + 'static>(
        cluster: Arc<Cluster<S>>,
        interval: Duration,
    ) -> Supervisor {
        Self::spawn_with_tick(cluster, interval, |_| {})
    }

    /// [`Self::spawn`] with an extra per-tick hook, run after each
    /// supervision pass with the cluster in hand. This is how periodic
    /// maintenance that belongs *next to* supervision — the fork-lease
    /// reaper ([`ForkService::reap_expired`](crate::forks::ForkService::reap_expired)),
    /// registry persistence — rides the existing loop instead of
    /// spawning its own thread.
    pub fn spawn_with_tick<S: SweepStore + Send + 'static>(
        cluster: Arc<Cluster<S>>,
        interval: Duration,
        tick: impl Fn(&Cluster<S>) + Send + 'static,
    ) -> Supervisor {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                let _ = cluster.supervise_once();
                tick(&cluster);
                // Sleep in slices so stop() is prompt.
                let mut left = interval;
                while !flag.load(Ordering::Relaxed) && left > Duration::ZERO {
                    let step = left.min(Duration::from_millis(20));
                    std::thread::sleep(step);
                    left = left.saturating_sub(step);
                }
            }
        });
        Supervisor {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the supervision loop and join its thread.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.halt();
    }
}
