//! RPC plumbing for the cluster: the servelet network boundary.
//!
//! Every routed verb crosses this one layer as a serializable
//! [`Request`], so deadlines, deterministic retry/backoff, and chaos
//! injection all live here and apply uniformly — regardless of which
//! [`Transport`] carries the request:
//!
//! * [`ChannelTransport`] — the in-process channel pair. A worker thread
//!   owns a private `ForkBase<S>` and executes requests via
//!   [`wire::dispatch`]. Kept for tests, benches, and the chaos harness,
//!   whose fault injection needs deterministic, instant "network" hops.
//! * [`TcpTransport`] — frames the same request bytes over TCP to a
//!   standalone servelet process, on connections pooled per servelet
//!   and reused across calls (see [`super::net`]). An attempt is
//!   written on the caller's thread when it begins and read when it is
//!   gathered: the router starts no thread. Chaos faults are **not**
//!   injected here: the chaos harness is an in-process deterministic
//!   simulator, and a real network provides its own faults.
//!
//! Every call runs through one loop, [`fan_out`], in rounds on the
//! caller's thread: every request is on the wire before any reply is
//! read, so the servelets work in parallel.
//!
//! The failure taxonomy matters for correctness and is identical on both
//! transports:
//!
//! * **not delivered** — the send itself failed (channel closed,
//!   connection refused). The servelet never saw the request. Safe to
//!   retry even for writes.
//! * **died after delivery** — the connection dropped after the request
//!   was (or may have been) handed over. Ambiguous.
//! * **timed out** — no reply within the per-call deadline; the servelet
//!   may still apply the request later. Ambiguous.
//!
//! A TCP connection that saw either ambiguous outcome is closed, never
//! pooled: a retry always runs on a socket with no unanswered request.
//!
//! Ambiguous outcomes surface as [`DbError::ServeletUnavailable`] /
//! [`DbError::ServeletTimeout`] and are **never** auto-retried for writes;
//! idempotent verbs retry per [`RetryPolicy`].

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use forkbase_postree::TreeConfig;
use forkbase_store::SweepStore;
use parking_lot::Mutex;

use crate::db::ForkBase;
use crate::error::{DbError, DbResult};

use super::chaos::{ChaosState, Fault};
use super::net;
use super::wire::{dispatch, Reply, Request};

/// A maintenance job shipped to an in-process servelet thread. Not part
/// of the wire surface: tests and local administration (refs dump/load
/// on the CLI's own servelets, key fingerprinting in the test suites)
/// use this side door, which only [`ChannelTransport`] provides.
pub(super) type Job<S> = Box<dyn FnOnce(&ForkBase<S>) + Send>;

/// What travels over an in-process servelet's channel.
pub(super) enum Msg<S> {
    Job(Job<S>),
    /// Stop the worker loop (clean shutdown or fault injection).
    Shutdown,
}

/// One servelet as seen by the router: a stable identity plus whatever
/// transport reaches it.
pub(super) struct Node<S> {
    /// Stable identity: allocated once, never reused, persisted in the
    /// topology record. Ring points derive from this, not from the slot.
    pub(super) id: u64,
    pub(super) transport: Box<dyn Transport<S>>,
}

impl<S> Node<S> {
    /// The remote address, if this servelet lives in another process.
    pub(super) fn addr(&self) -> Option<&str> {
        self.transport.addr()
    }

    /// Whether this servelet is reached over the network.
    pub(super) fn is_remote(&self) -> bool {
        self.addr().is_some()
    }
}

/// How many times to attempt an idempotent RPC and how long to wait
/// between attempts. The schedule is deterministic — exponential doubling
/// from [`RetryPolicy::base_backoff`] capped at
/// [`RetryPolicy::max_backoff`], no jitter — so chaos tests replay
/// identically from a seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retry() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// The backoff slept before 1-based attempt `attempt` (≥ 2):
    /// `base · 2^(attempt-2)`, capped at `max_backoff`.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(2).min(20);
        self.base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff)
    }
}

/// Per-call deadlines and the retry policy for the cluster's RPCs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcConfig {
    /// Deadline for one data-plane attempt (routed verbs, scatter-gather).
    pub deadline: Duration,
    /// Deadline for control-plane calls (migration export/import, refs
    /// restore) — generous, these move whole key histories.
    pub control_deadline: Duration,
    /// Deadline for supervision liveness probes — short, a probe does no
    /// work.
    pub probe_deadline: Duration,
    /// Retry schedule for idempotent verbs.
    pub retry: RetryPolicy,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            deadline: Duration::from_secs(30),
            control_deadline: Duration::from_secs(300),
            probe_deadline: Duration::from_secs(1),
            retry: RetryPolicy::default(),
        }
    }
}

/// How one RPC attempt failed, before mapping to [`DbError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum AttemptError {
    /// The send failed: the worker was already gone or the connection was
    /// refused; the request was **never** delivered. Safe to retry even
    /// for writes.
    NotDelivered,
    /// Delivered (or possibly delivered), then the connection dropped
    /// without a reply. Ambiguous.
    DiedAfterDelivery,
    /// No reply within the deadline; the servelet may still apply the
    /// request. Ambiguous.
    TimedOut,
}

impl AttemptError {
    pub(super) fn into_db(self, servelet: u64) -> DbError {
        match self {
            AttemptError::NotDelivered | AttemptError::DiedAfterDelivery => {
                DbError::ServeletUnavailable { servelet }
            }
            AttemptError::TimedOut => DbError::ServeletTimeout { servelet },
        }
    }

    /// Whether a write may retry after this failure: only when the
    /// request provably never reached the servelet.
    fn write_retry_safe(self) -> bool {
        matches!(self, AttemptError::NotDelivered)
    }
}

/// The transport-level outcome of one attempt. `Ok(Reply::Err(_))` is a
/// *successful* round trip carrying a data error — never retried.
pub(super) type Outcome = Result<Reply, AttemptError>;

/// An attempt in flight: it already failed at send time, its outcome
/// will arrive on a channel, or its request is on a TCP connection with
/// the reply unread. Dropping a `Pending` without a gather abandons the
/// attempt; a TCP connection is then closed, never pooled.
pub(super) enum Pending {
    Fail(AttemptError),
    Wait {
        rx: Receiver<Outcome>,
        /// Held open for the `DropReply` fault so the caller observes a
        /// timeout (lost reply, live worker) rather than a disconnect.
        _keepalive: Option<Sender<Outcome>>,
    },
    Tcp {
        pool: Arc<net::ConnPool>,
        conn: TcpStream,
    },
}

impl Pending {
    /// Wait until `until` for the outcome.
    pub(super) fn gather(self, until: Instant) -> Outcome {
        match self {
            Pending::Fail(e) => Err(e),
            Pending::Wait { rx, _keepalive } => {
                match rx.recv_timeout(until.saturating_duration_since(Instant::now())) {
                    Ok(out) => out,
                    Err(RecvTimeoutError::Disconnected) => Err(AttemptError::DiedAfterDelivery),
                    Err(RecvTimeoutError::Timeout) => Err(AttemptError::TimedOut),
                }
            }
            Pending::Tcp { pool, conn } => pool.receive(conn, until),
        }
    }
}

/// How requests reach a servelet. Implementations differ only in how
/// bytes move; verb semantics live in [`wire::dispatch`] on the servelet
/// side of whichever transport is in use.
pub(super) trait Transport<S>: Send + Sync {
    /// Begin one attempt on the caller's thread: ship `req` by `until`
    /// and return a handle the caller gathers by the same deadline.
    /// `fault` is the chaos draw for this attempt
    /// (ignored by network transports); `allow_duplicate` gates the
    /// `Duplicate` fault — only idempotent attempts may be delivered
    /// twice, a write sees clean delivery instead (the transport never
    /// double-applies a write on its own).
    fn begin(&self, until: Instant, fault: Fault, req: Request, allow_duplicate: bool) -> Pending;

    /// The maintenance side door: the raw channel sender, for in-process
    /// servelets only. Remote servelets return `None` — closures cannot
    /// cross the wire.
    fn maint_sender(&self) -> Option<&Sender<Msg<S>>>;

    /// Ask the servelet to stop (no-op for remote servelets, which are
    /// owned by their own process).
    fn signal_shutdown(&self);

    /// Wait for the servelet to finish stopping. Joining matters for
    /// durable backends: it drops the worker's `ForkBase` (and store),
    /// releasing e.g. a `FileStore`'s advisory lock so a respawn can
    /// reopen the directory.
    fn join(&self);

    /// The remote address, if any.
    fn addr(&self) -> Option<&str>;
}

/// The in-process transport: a crossbeam channel into a worker thread
/// that owns a private `ForkBase<S>`.
pub(super) struct ChannelTransport<S> {
    tx: Sender<Msg<S>>,
    handle: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl<S: SweepStore + 'static> Transport<S> for ChannelTransport<S> {
    fn begin(&self, _until: Instant, fault: Fault, req: Request, allow_duplicate: bool) -> Pending {
        // A write is never delivered twice by the transport itself:
        // Duplicate degrades to clean delivery (the fault draw still
        // happened, keeping chaos schedules deterministic).
        let fault = if fault == Fault::Duplicate && !allow_duplicate {
            Fault::None
        } else {
            fault
        };
        if fault == Fault::DropRequest {
            // The request frame is lost in the "network": the worker never
            // sees it and the caller's deadline expires. Simulated time is
            // compressed — the outcome is reported without sleeping.
            return Pending::Fail(AttemptError::TimedOut);
        }
        if fault == Fault::CrashBefore {
            // FIFO: the worker sees Shutdown before the job, so the job is
            // provably never applied — yet the caller observes only a
            // disconnect, i.e. an ambiguous outcome. Conservative by design.
            let _ = self.tx.send(Msg::Shutdown);
        }
        // Capacity 2 so the worker never blocks replying to a duplicate.
        let (tx, rx) = bounded::<Outcome>(2);
        let suppress = matches!(fault, Fault::DropReply | Fault::CrashAfter);
        let jtx = tx.clone();
        let main_req = req.clone();
        let job: Job<S> = Box::new(move |db| {
            let r = dispatch(db, main_req);
            if !suppress {
                let _ = jtx.send(Ok(r));
            }
        });
        // DropReply models a lost reply with a live worker: keep a sender
        // open so the caller times out instead of observing a disconnect.
        let keepalive = (fault == Fault::DropReply).then(|| tx.clone());
        if fault == Fault::Duplicate {
            // At-least-once network: the request arrives twice; the first
            // reply wins.
            let jtx = tx.clone();
            let dup: Job<S> = Box::new(move |db| {
                let _ = jtx.send(Ok(dispatch(db, req)));
            });
            let _ = self.tx.send(Msg::Job(dup));
        }
        drop(tx);
        if self.tx.send(Msg::Job(job)).is_err() {
            return Pending::Fail(AttemptError::NotDelivered);
        }
        if fault == Fault::CrashAfter {
            // The worker applies the job, suppresses the reply, then dies —
            // the "acked-by-disk, lost-by-network" worst case for writes.
            let _ = self.tx.send(Msg::Shutdown);
        }
        Pending::Wait {
            rx,
            _keepalive: keepalive,
        }
    }

    fn maint_sender(&self) -> Option<&Sender<Msg<S>>> {
        Some(&self.tx)
    }

    fn signal_shutdown(&self) {
        let _ = self.tx.send(Msg::Shutdown);
    }

    fn join(&self) {
        if let Some(h) = self.handle.lock().take() {
            let _ = h.join();
        }
    }

    fn addr(&self) -> Option<&str> {
        None
    }
}

/// The network transport: pooled TCP connections to a standalone
/// servelet process (see [`super::net`] for the client and server).
/// `begin` writes the request on the caller's thread and `gather` reads
/// the reply, so no thread is spawned per attempt.
pub(super) struct TcpTransport {
    pool: Arc<net::ConnPool>,
}

impl<S> Transport<S> for TcpTransport {
    /// Chaos faults are in-process-only; a real network injects its own.
    fn begin(&self, until: Instant, _: Fault, req: Request, _: bool) -> Pending {
        let pool = Arc::clone(&self.pool);
        self.pool
            .send(&req, until)
            .map_or_else(Pending::Fail, |conn| Pending::Tcp { pool, conn })
    }

    fn maint_sender(&self) -> Option<&Sender<Msg<S>>> {
        None
    }

    fn signal_shutdown(&self) {}

    fn join(&self) {}

    fn addr(&self) -> Option<&str> {
        Some(self.pool.addr())
    }
}

pub(super) fn spawn_node<S: SweepStore + Send + 'static>(
    id: u64,
    store: S,
    cfg: TreeConfig,
) -> Arc<Node<S>> {
    let (tx, rx) = unbounded::<Msg<S>>();
    let handle = std::thread::spawn(move || {
        let db = ForkBase::with_config(store, cfg);
        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Job(job) => job(&db),
                Msg::Shutdown => break,
            }
        }
    });
    Arc::new(Node {
        id,
        transport: Box::new(ChannelTransport {
            tx,
            handle: Mutex::new(Some(handle)),
        }),
    })
}

/// A servelet reached over TCP; the process at `addr` owns the store.
pub(super) fn remote_node<S: SweepStore + 'static>(id: u64, addr: String) -> Arc<Node<S>> {
    Arc::new(Node {
        id,
        transport: Box::new(TcpTransport {
            pool: Arc::new(net::ConnPool::new(addr)),
        }),
    })
}

/// Stop a servelet and wait for it. In-process: stops the worker and
/// joins its thread. Remote: no-op — the process owns its own lifecycle.
pub(super) fn shutdown_node<S>(node: &Node<S>) {
    node.transport.signal_shutdown();
    node.transport.join();
}

/// The chaos fault for the next data-plane attempt (none when disarmed).
pub(super) fn draw_fault(chaos: Option<&ChaosState>) -> Fault {
    chaos.map_or(Fault::None, |c| c.next_fault())
}

/// Run a maintenance closure on an in-process servelet's thread: the
/// local-only side door for tests and CLI administration. One attempt,
/// no chaos. Remote servelets reject — closures cannot cross the wire.
pub(super) fn maint_call<S, R: Send + 'static>(
    node: &Node<S>,
    deadline: Duration,
    f: impl FnOnce(&ForkBase<S>) -> R + Send + 'static,
) -> DbResult<R> {
    let Some(tx) = node.transport.maint_sender() else {
        return Err(DbError::InvalidInput(format!(
            "servelet {} is remote ({}): maintenance closures require an in-process servelet",
            node.id,
            node.addr().unwrap_or("?"),
        )));
    };
    let (rtx, rrx) = bounded::<R>(1);
    let job: Job<S> = Box::new(move |db| {
        let _ = rtx.send(f(db));
    });
    tx.send(Msg::Job(job))
        .map_err(|_| AttemptError::NotDelivered.into_db(node.id))?;
    match rrx.recv_timeout(deadline) {
        Ok(r) => Ok(r),
        Err(RecvTimeoutError::Disconnected) => {
            Err(AttemptError::DiedAfterDelivery.into_db(node.id))
        }
        Err(RecvTimeoutError::Timeout) => Err(AttemptError::TimedOut.into_db(node.id)),
    }
}

/// Ship each of `reqs` as its own group and return each group's result
/// in order: the one fan-out loop. A lone routed verb or control call
/// is one group, a routed batch one group per owner, a scatter one per
/// servelet with no retry.
///
/// It runs in rounds on the caller's thread. A round begins every live
/// group's attempt in order, then gathers them in order, all by one
/// deadline taken at the round's start. `finish` runs on each reply as
/// it is gathered, while later groups are still being served. Only the
/// groups that may retry go on to the next round, after one backoff:
/// idempotent verbs on any transport failure, writes only after a
/// provably-undelivered request (the ambiguous-write rule). A
/// `Reply::Err` is a successful round trip and is never retried.
///
/// `route` gives each attempt's servelet and chaos fault. It is called
/// before **every** attempt, so a retry lands on the current servelet
/// at the route: a supervised restart between attempts heals the call.
pub(super) fn fan_out<S, X>(
    deadline: Duration,
    retry: &RetryPolicy,
    idempotent: bool,
    reqs: Vec<Request>,
    mut route: impl FnMut(usize) -> (Arc<Node<S>>, Fault),
    mut finish: impl FnMut(usize, Reply) -> DbResult<X>,
) -> Vec<DbResult<X>> {
    let mut done = Vec::with_capacity(reqs.len());
    let mut live: Vec<usize> = (0..reqs.len()).collect();
    for attempt_no in 1.. {
        let until = Instant::now() + deadline;
        let pending: Vec<_> = live
            .iter()
            .map(|&g| {
                let (node, fault) = route(g);
                let p = node
                    .transport
                    .begin(until, fault, reqs[g].clone(), idempotent);
                (g, node.id, p)
            })
            .collect();
        live.clear();
        for (g, id, p) in pending {
            match p.gather(until) {
                Ok(reply) => done.push((g, finish(g, reply))),
                Err(e)
                    if (idempotent || e.write_retry_safe()) && attempt_no < retry.max_attempts =>
                {
                    live.push(g)
                }
                Err(e) => done.push((g, Err(e.into_db(id)))),
            }
        }
        if live.is_empty() {
            break;
        }
        std::thread::sleep(retry.backoff_before(attempt_no + 1));
    }
    done.sort_unstable_by_key(|(g, _)| *g);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Control-plane call: one attempt, no chaos, no retry, caller-chosen
/// deadline. Used by migration internals and supervision so the recovery
/// machinery itself is exempt from fault injection (injecting there would
/// test the simulator, not the system).
pub(super) fn call_control<S>(
    node: &Arc<Node<S>>,
    deadline: Duration,
    req: Request,
) -> DbResult<Reply> {
    let route = |_| (Arc::clone(node), Fault::None);
    let once = RetryPolicy::no_retry();
    fan_out(deadline, &once, false, vec![req], route, |_, r| Ok(r)).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::MemStore;

    /// One attempt under `fault`, begun and gathered by one deadline.
    fn attempt<S>(
        node: &Node<S>,
        deadline: Duration,
        fault: Fault,
        req: Request,
        allow_duplicate: bool,
    ) -> Outcome {
        let until = Instant::now() + deadline;
        node.transport
            .begin(until, fault, req, allow_duplicate)
            .gather(until)
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(45),
        };
        assert_eq!(p.backoff_before(2), Duration::from_millis(10));
        assert_eq!(p.backoff_before(3), Duration::from_millis(20));
        assert_eq!(p.backoff_before(4), Duration::from_millis(40));
        assert_eq!(p.backoff_before(5), Duration::from_millis(45), "capped");
        assert_eq!(
            p.backoff_before(60),
            Duration::from_millis(45),
            "no overflow"
        );
        assert_eq!(RetryPolicy::no_retry().max_attempts, 1);
    }

    #[test]
    fn channel_transport_round_trips_requests() {
        let node = spawn_node(7, MemStore::new(), TreeConfig::default());
        let reply = attempt(
            &node,
            Duration::from_secs(5),
            Fault::None,
            Request::Probe,
            true,
        )
        .unwrap();
        assert_eq!(reply, Reply::Unit);
        shutdown_node(&node);
        // After shutdown the send fails before delivery.
        let err = attempt(
            &node,
            Duration::from_secs(1),
            Fault::None,
            Request::Probe,
            true,
        )
        .unwrap_err();
        assert_eq!(err, AttemptError::NotDelivered);
    }

    #[test]
    fn remote_transport_refuses_connection_as_not_delivered() {
        // Port 1 on loopback is essentially never listening: connection
        // refused must map to NotDelivered (write-retry safe).
        let node = remote_node::<MemStore>(3, "127.0.0.1:1".to_string());
        let err = attempt(
            &node,
            Duration::from_millis(500),
            Fault::None,
            Request::Probe,
            true,
        )
        .unwrap_err();
        assert_eq!(err, AttemptError::NotDelivered);
        // Maintenance closures cannot cross the wire.
        let err = maint_call(&node, Duration::from_millis(100), |_db| ()).unwrap_err();
        assert!(matches!(err, DbError::InvalidInput(_)));
    }
}
