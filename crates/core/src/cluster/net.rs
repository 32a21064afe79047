//! The TCP leg of the cluster: a standalone servelet server and the
//! pooled client used by the TCP transport in `super::rpc`.
//!
//! One request/reply exchange per frame, any number of frames per
//! connection. The router keeps a small pool of idle connections per
//! servelet (`ConnPool`) and reuses them across calls. A call is two
//! steps on the caller's thread, by one deadline: `send` writes the
//! request, and `receive` reads the reply later, so the caller can have
//! requests out to several servelets at once without a thread per call.
//! A connection goes back to the pool only after a complete, decoded
//! reply, so a socket that saw a timeout, a torn frame or any other
//! ambiguous outcome is never used again. The server runs on the shared
//! [`AcceptLoop`], uncapped, and applies every request through `apply` —
//! the same function the in-process transport's worker uses — so a verb
//! behaves, and persists, identically no matter how it arrived.
//!
//! # Durability contract
//!
//! Every servelet, local or remote, acks a mutating request only
//! **after** its persist hook ran (`apply`: chunk-store sync, then the
//! request's head swings appended to its ref log). If it dies between
//! applying a write and acking it, the client observes an ambiguous
//! outcome and never blind-retries — but an *acked* write is on disk and
//! survives the kill. The CI `net` and `recovery` jobs prove this end to
//! end for a TCP servelet and for a local cluster's servelets.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use forkbase_store::SweepStore;
use parking_lot::Mutex;

use crate::accept::AcceptLoop;
use crate::db::ForkBase;
use crate::error::{DbError, DbResult};

use super::ratelimit::RateLimiter;
use super::rpc::{AttemptError, Outcome};
use super::wire::{self, FrameError, Reply, Request, WireError};

/// Idle connections a router keeps per servelet. Callers beyond this
/// many at once still get a connection each; the surplus is closed
/// instead of pooled.
const POOL_CAP: usize = 8;

/// How long a servelet waits for the next frame (or for a stalled peer
/// to take reply bytes) before it closes the connection. The router's
/// stale probe makes such a close invisible to callers.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs after every mutating request, before the ack: make the applied
/// state durable (sync the store, persist the branch heads).
pub type PersistFn<S> = Arc<dyn Fn(&ForkBase<S>) -> DbResult<()> + Send + Sync>;

/// Apply one request on a servelet: [`wire::dispatch`], then, when the
/// request mutated and succeeded, the servelet's persist hook. A failed
/// persist becomes the reply, so a write is never acked before it is
/// durable. Both transports serve every request through here.
pub(super) fn apply<S: SweepStore>(
    db: &ForkBase<S>,
    persist: Option<&PersistFn<S>>,
    req: Request,
) -> Reply {
    let mutating = wire::mutates(&req);
    let reply = wire::dispatch(db, req);
    match persist {
        Some(persist) if mutating && !matches!(reply, Reply::Err(_)) => match persist(db) {
            Ok(()) => reply,
            Err(e) => Reply::Err(WireError::from(&e)),
        },
        _ => reply,
    }
}

/// A standalone servelet: a TCP listener executing wire requests against
/// one `ForkBase`.
pub struct ServeletServer {
    accept: AcceptLoop,
}

impl ServeletServer {
    /// Bind `addr` and serve `db` until [`Self::stop`]. `persist`, when
    /// given, runs after every mutating request before the reply is
    /// written — the ack-implies-durable contract. `limiter`, when given,
    /// rate-limits per peer: each request frame spends one token from its
    /// peer's bucket, and an empty bucket sheds the request with a
    /// structured `rate_limited` error (the connection stays open — a
    /// well-behaved client backs off by the carried `retry_after_ms`).
    pub fn spawn<S: SweepStore + Send + Sync + 'static>(
        addr: &str,
        db: Arc<ForkBase<S>>,
        persist: Option<PersistFn<S>>,
        limiter: Option<Arc<RateLimiter>>,
    ) -> DbResult<ServeletServer> {
        Self::spawn_with_idle(addr, db, persist, limiter, IDLE_TIMEOUT)
    }

    fn spawn_with_idle<S: SweepStore + Send + Sync + 'static>(
        addr: &str,
        db: Arc<ForkBase<S>>,
        persist: Option<PersistFn<S>>,
        limiter: Option<Arc<RateLimiter>>,
        idle: Duration,
    ) -> DbResult<ServeletServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| DbError::InvalidInput(format!("bind {addr}: {e}")))?;
        // No cap: a connection closed unread would turn a router's write
        // into an ambiguous outcome.
        let accept = AcceptLoop::spawn(listener, None, move |conn, peer, stopping| {
            let (persist, limiter) = (persist.as_ref(), limiter.as_deref());
            serve_conn(conn, &db, persist, limiter, peer, stopping, idle);
        })
        .map_err(|e| DbError::InvalidInput(format!("listen on {addr}: {e}")))?;
        Ok(ServeletServer { accept })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.accept.addr()
    }

    /// Stop serving: drop the listener, then end every accepted
    /// connection — idle ones at once, a busy one after the frame it is
    /// executing has been acked — and wait for their handlers. Once this
    /// returns, new connects are refused and every connection a router
    /// had pooled is closed: to every router this servelet is now
    /// unavailable, and no request is still executing against the store.
    pub fn stop(&self) {
        self.accept.stop();
    }
}

fn serve_conn<S: SweepStore>(
    mut conn: &TcpStream,
    db: &ForkBase<S>,
    persist: Option<&PersistFn<S>>,
    limiter: Option<&RateLimiter>,
    peer: SocketAddr,
    stopping: &AtomicBool,
    idle: Duration,
) {
    let _ = conn.set_nodelay(true);
    // A dead client must not pin this thread forever, between frames or
    // with a reply it never takes.
    let _ = conn.set_read_timeout(Some(idle));
    let _ = conn.set_write_timeout(Some(idle));
    loop {
        // Replies are framed in the version the request carried, so a
        // down-level router rolling through an upgrade can still parse
        // the answer (servelets upgrade before routers).
        let read = wire::read_frame_versioned(&mut conn);
        // A frame that arrives once `stop` has begun is not started: the
        // connection closes without a reply and the router reports an
        // ambiguous outcome for a request that was never applied.
        if stopping.load(Ordering::SeqCst) {
            return;
        }
        let (version, req) = match read {
            Ok((version, body)) => match Request::decode(&body) {
                Ok(req) => (version, req),
                Err(e) => {
                    // Well-framed garbage gets a structured error back.
                    let reply = Reply::Err(WireError::from(&e));
                    let _ =
                        conn.write_all(&wire::encode_frame_with_version(version, &reply.encode()));
                    return;
                }
            },
            // EOF, timeout, torn frame, bad CRC, version skew: drop the
            // connection. The client maps this to an ambiguous outcome.
            Err(_) => return,
        };
        // Admission control before any work: a shed request costs the
        // servelet one bucket lookup, nothing else.
        if let Some(limiter) = limiter {
            if let Err(e) = limiter.check(peer.ip()) {
                let reply = Reply::Err(WireError::from(&e));
                if conn
                    .write_all(&wire::encode_frame_with_version(version, &reply.encode()))
                    .and_then(|_| conn.flush())
                    .is_err()
                {
                    return;
                }
                continue;
            }
        }
        let reply = apply(db, persist, req);
        if conn
            .write_all(&wire::encode_frame_with_version(version, &reply.encode()))
            .and_then(|_| conn.flush())
            .is_err()
        {
            return;
        }
    }
}

/// The router's connections to one servelet: a stack of idle sockets,
/// most recently used on top. The lock guards the stack only and is
/// never held across socket I/O.
///
/// The error mapping of a call implements the transport-boundary
/// idempotence rules:
///
/// * connect failure (refused, unreachable, bad address) — the request
///   never left this process: [`AttemptError::NotDelivered`], safe to
///   retry even for writes;
/// * failure after the request (or part of it) was written — ambiguous:
///   [`AttemptError::DiedAfterDelivery`];
/// * read timeout waiting for the reply — ambiguous:
///   [`AttemptError::TimedOut`]; the servelet may still apply it.
///
/// On either ambiguous outcome the connection is dropped, so a reply
/// that turns up late can never be read as the answer to a later
/// request.
pub(super) struct ConnPool {
    addr: String,
    idle: Mutex<Vec<TcpStream>>,
}

impl ConnPool {
    pub(super) fn new(addr: String) -> ConnPool {
        ConnPool {
            addr,
            idle: Mutex::new(Vec::new()),
        }
    }

    pub(super) fn addr(&self) -> &str {
        &self.addr
    }

    /// Start a call: check a connection out (or dial one) and write
    /// `req` to it, both by `until`. The connection comes back with the
    /// request on the wire and the reply unread: pass it to
    /// [`Self::receive`], or drop it, which closes it unpooled.
    pub(super) fn send(&self, req: &Request, until: Instant) -> Result<TcpStream, AttemptError> {
        let mut conn = match self.checkout_idle() {
            Some(conn) => conn,
            None => {
                let sock: SocketAddr = self.addr.parse().map_err(|_| AttemptError::NotDelivered)?;
                let conn = TcpStream::connect_timeout(&sock, time_left(until))
                    .map_err(|_| AttemptError::NotDelivered)?;
                let _ = conn.set_nodelay(true);
                conn
            }
        };
        // A pooled connection still carries its previous call's deadline.
        let _ = conn.set_write_timeout(Some(time_left(until)));
        let frame = wire::encode_frame(&req.encode());
        if conn.write_all(&frame).and_then(|_| conn.flush()).is_err() {
            // Bytes may have partially left the process.
            return Err(AttemptError::DiedAfterDelivery);
        }
        Ok(conn)
    }

    /// Finish a call begun by [`Self::send`]: read the reply by `until`.
    /// The connection is pooled again only if the reply arrived whole
    /// and decoded.
    pub(super) fn receive(&self, mut conn: TcpStream, until: Instant) -> Outcome {
        let _ = conn.set_read_timeout(Some(time_left(until)));
        let reply = match wire::read_frame(&mut conn) {
            Ok(body) => Reply::decode(&body).map_err(|_| AttemptError::DiedAfterDelivery)?,
            Err(FrameError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                return Err(AttemptError::TimedOut)
            }
            Err(_) => return Err(AttemptError::DiedAfterDelivery),
        };
        let mut idle = self.idle.lock();
        if idle.len() < POOL_CAP {
            idle.push(conn);
        }
        Ok(reply)
    }

    /// An idle connection the peer has not closed, if there is one.
    fn checkout_idle(&self) -> Option<TcpStream> {
        let conn = self.idle.lock().pop()?;
        if peer_is_quiet(&conn) {
            return Some(conn);
        }
        // The servelet closed it: idle timeout or restart. Either way
        // every connection below it in the stack has been idle at least
        // as long, so none is worth probing. (Closed after the lock.)
        let stale = std::mem::take(&mut *self.idle.lock());
        drop(stale);
        None
    }
}

/// What is left of `until`, as a socket timeout: at least 1 ms, since
/// zero would mean "no timeout" (and a reply already in hand is read).
fn time_left(until: Instant) -> Duration {
    until
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1))
}

/// Whether an idle connection is still usable: open, with nothing to
/// read. EOF or a reset means the servelet closed it (without this probe
/// the next request would be written into a dead socket and a supervised
/// restart would surface as a spurious ambiguous outcome); stray bytes
/// mean the stream is out of step. Neither is reused.
fn peer_is_quiet(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet = matches!(conn.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    quiet && conn.set_nonblocking(false).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Instant;

    use forkbase_store::MemStore;
    use forkbase_types::Value;

    use crate::api::PutOptions;

    const DEADLINE: Duration = Duration::from_secs(5);

    fn server() -> (ServeletServer, Arc<ForkBase<MemStore>>) {
        let db = Arc::new(ForkBase::new(MemStore::new()));
        let srv = ServeletServer::spawn("127.0.0.1:0", db.clone(), None, None).unwrap();
        (srv, db)
    }

    fn pool_at(addr: SocketAddr) -> Arc<ConnPool> {
        Arc::new(ConnPool::new(addr.to_string()))
    }

    fn pool_for(srv: &ServeletServer) -> Arc<ConnPool> {
        pool_at(srv.addr())
    }

    fn put(key: &str) -> Request {
        Request::Put {
            key: key.into(),
            value: Value::string("v"),
            opts: PutOptions::default(),
        }
    }

    /// A hand-driven peer: accepts on a real listener, counts accepts,
    /// and gives each connection to `serve` on a handler thread.
    fn scripted_peer(
        serve: impl Fn(usize, &TcpStream) + Send + Sync + 'static,
    ) -> (AcceptLoop, Arc<AtomicUsize>) {
        let accepts = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepts);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let accept = AcceptLoop::spawn(listener, None, move |conn, _peer, _stopping| {
            serve(count.fetch_add(1, Ordering::SeqCst), conn);
        })
        .unwrap();
        (accept, accepts)
    }

    fn send_reply(mut conn: &TcpStream, reply: &Reply) {
        let _ = conn.write_all(&wire::encode_frame(&reply.encode()));
    }

    impl ConnPool {
        /// One whole call: send, then receive, by one deadline.
        fn call(&self, req: &Request, deadline: Duration) -> Result<Reply, AttemptError> {
            let until = Instant::now() + deadline;
            let conn = self.send(req, until)?;
            self.receive(conn, until)
        }
    }

    #[test]
    fn put_then_get_over_tcp() {
        let (srv, _db) = server();
        let pool = pool_for(&srv);
        let commit = pool
            .call(&put("k"), DEADLINE)
            .unwrap()
            .expect_commit()
            .unwrap();
        let got = pool
            .call(
                &Request::Get {
                    key: "k".into(),
                    branch: "master".into(),
                },
                DEADLINE,
            )
            .unwrap()
            .expect_get()
            .unwrap();
        assert_eq!(got.value, Value::string("v"));
        assert_eq!(got.uid, commit.uid);
        // Data errors cross the wire as structured errors.
        let err = pool
            .call(
                &Request::Get {
                    key: "missing".into(),
                    branch: "master".into(),
                },
                DEADLINE,
            )
            .unwrap()
            .expect_get()
            .unwrap_err();
        assert_eq!(err.code(), "no_such_key");
        srv.stop();
        // After stop the listener is gone and the pooled connection is
        // closed: connection refused, never delivered.
        assert_eq!(
            pool.call(&Request::Probe, Duration::from_millis(500))
                .unwrap_err(),
            AttemptError::NotDelivered
        );
    }

    #[test]
    fn sequential_calls_share_one_connection() {
        let (peer, accepts) = scripted_peer(|_nth, mut conn| {
            while wire::read_frame(&mut conn).is_ok() {
                send_reply(conn, &Reply::Unit);
            }
        });
        let pool = pool_at(peer.addr());
        for _ in 0..25 {
            assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 1);
        assert_eq!(pool.idle.lock().len(), 1);
    }

    #[test]
    fn pool_keeps_at_most_its_cap_idle() {
        let n = POOL_CAP + 4;
        // Hold every call open at once so each needs its own connection.
        let all_in_flight = std::sync::Barrier::new(n);
        let (peer, accepts) = scripted_peer(move |_nth, mut conn| {
            if wire::read_frame(&mut conn).is_ok() {
                all_in_flight.wait();
                send_reply(conn, &Reply::Unit);
            }
            // Keep the connection open until the router closes it.
            let _ = wire::read_frame(&mut conn);
        });
        let wide = pool_at(peer.addr());
        let calls: Vec<_> = (0..n)
            .map(|_| {
                let wide = Arc::clone(&wide);
                std::thread::spawn(move || wide.call(&Request::Probe, DEADLINE).unwrap())
            })
            .collect();
        for c in calls {
            assert_eq!(c.join().unwrap(), Reply::Unit);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), n);
        assert_eq!(wide.idle.lock().len(), POOL_CAP);
    }

    #[test]
    fn timed_out_call_drops_its_connection_and_its_late_reply() {
        // Connection 0 answers its first frame late, with a reply no
        // Probe could get; every other connection answers at once.
        let (late_tx, late_rx) = mpsc::channel::<()>();
        let late_rx = std::sync::Mutex::new(late_rx);
        let (peer, accepts) = scripted_peer(move |nth, mut conn| {
            while wire::read_frame(&mut conn).is_ok() {
                if nth == 0 {
                    let _ = late_rx.lock().unwrap().recv();
                    send_reply(conn, &Reply::Count(7));
                } else {
                    send_reply(conn, &Reply::Unit);
                }
            }
        });
        let pool = pool_at(peer.addr());
        assert_eq!(
            pool.call(&Request::Probe, Duration::from_millis(100))
                .unwrap_err(),
            AttemptError::TimedOut
        );
        assert!(
            pool.idle.lock().is_empty(),
            "a timed-out socket is not pooled"
        );
        // The late reply is now written — into a socket nobody reads.
        late_tx.send(()).unwrap();
        for _ in 0..3 {
            assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 2, "one redial, then reuse");
    }

    /// What a `Pending` dropped without a gather does to its connection.
    #[test]
    fn a_send_never_received_is_closed_not_pooled() {
        let (peer, accepts) = scripted_peer(|_nth, mut conn| {
            while wire::read_frame(&mut conn).is_ok() {
                send_reply(conn, &Reply::Unit);
            }
        });
        let pool = pool_at(peer.addr());
        let abandoned = pool
            .send(&Request::Probe, Instant::now() + DEADLINE)
            .unwrap();
        drop(abandoned);
        assert!(pool.idle.lock().is_empty(), "an unread reply is not pooled");
        for _ in 0..3 {
            assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        }
        assert_eq!(accepts.load(Ordering::SeqCst), 2, "one redial, then reuse");
    }

    #[test]
    fn a_timed_out_receive_drops_its_socket_while_another_send_completes() {
        // Connection 0 answers late, with a reply no Probe could get;
        // every other connection answers at once.
        let (late_tx, late_rx) = mpsc::channel::<()>();
        let late_rx = std::sync::Mutex::new(late_rx);
        let (peer, accepts) = scripted_peer(move |nth, mut conn| {
            while wire::read_frame(&mut conn).is_ok() {
                if nth == 0 {
                    let _ = late_rx.lock().unwrap().recv();
                    send_reply(conn, &Reply::Count(7));
                } else {
                    send_reply(conn, &Reply::Unit);
                }
            }
        });
        let pool = pool_at(peer.addr());
        // Two calls in flight at once from one thread, on two connections.
        let short = Instant::now() + Duration::from_millis(100);
        let slow = pool.send(&Request::Probe, short).unwrap();
        let until = Instant::now() + DEADLINE;
        let fast = pool.send(&Request::Probe, until).unwrap();
        assert_eq!(
            pool.receive(slow, short).unwrap_err(),
            AttemptError::TimedOut
        );
        assert!(
            pool.idle.lock().is_empty(),
            "a timed-out socket is not pooled"
        );
        assert_eq!(pool.receive(fast, until).unwrap(), Reply::Unit);
        // The late reply is now written, into a socket nobody reads.
        late_tx.send(()).unwrap();
        for _ in 0..3 {
            assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        }
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            2,
            "no redial after the timeout"
        );
    }

    #[test]
    fn torn_or_undecodable_reply_drops_the_connection() {
        let (peer, accepts) = scripted_peer(|nth, mut conn| {
            while wire::read_frame(&mut conn).is_ok() {
                match nth {
                    // A well-framed body that is no reply.
                    0 => {
                        let _ = conn.write_all(&wire::encode_frame(&[0xff, 0xff]));
                    }
                    // Half a frame, then hang up.
                    1 => {
                        let frame = wire::encode_frame(&Reply::Unit.encode());
                        let _ = conn.write_all(&frame[..frame.len() / 2]);
                        return;
                    }
                    _ => send_reply(conn, &Reply::Unit),
                }
            }
        });
        let pool = pool_at(peer.addr());
        for _ in 0..2 {
            assert_eq!(
                pool.call(&Request::Probe, DEADLINE).unwrap_err(),
                AttemptError::DiedAfterDelivery
            );
            assert!(pool.idle.lock().is_empty());
        }
        assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        assert_eq!(accepts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn servelet_idle_close_is_survived_transparently() {
        let db = Arc::new(ForkBase::new(MemStore::new()));
        let idle = Duration::from_millis(50);
        let srv = ServeletServer::spawn_with_idle("127.0.0.1:0", db, None, None, idle).unwrap();
        let pool = pool_for(&srv);
        pool.call(&put("a"), DEADLINE)
            .unwrap()
            .expect_commit()
            .unwrap();
        // Wait until the servelet has closed the pooled connection: its
        // handler leaves the table when it does.
        let until = Instant::now() + DEADLINE;
        while srv.accept.serving() > 0 {
            assert!(Instant::now() < until, "idle connection never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(pool.idle.lock().len(), 1, "the router has not noticed yet");
        // A write — never blind-retried — still goes through first time.
        pool.call(&put("b"), DEADLINE)
            .unwrap()
            .expect_commit()
            .unwrap();
    }

    #[test]
    fn stop_closes_pooled_connections_and_respawn_heals_without_ambiguity() {
        let db = Arc::new(ForkBase::new(MemStore::new()));
        let srv = ServeletServer::spawn("127.0.0.1:0", db.clone(), None, None).unwrap();
        let addr = srv.addr().to_string();
        let pool = Arc::new(ConnPool::new(addr.clone()));
        pool.call(&put("before"), DEADLINE)
            .unwrap()
            .expect_commit()
            .unwrap();
        assert_eq!(pool.idle.lock().len(), 1);
        srv.stop();
        // Stopped means stopped for a router that holds a connection too:
        // the request provably never reached the servelet.
        for _ in 0..3 {
            assert_eq!(
                pool.call(&put("during"), Duration::from_millis(500))
                    .unwrap_err(),
                AttemptError::NotDelivered
            );
        }
        assert!(!db.list_keys().contains(&"during".to_string()));
        let srv = ServeletServer::spawn(&addr, db.clone(), None, None).unwrap();
        pool.call(&put("after"), DEADLINE)
            .unwrap()
            .expect_commit()
            .unwrap();
        drop(srv);
    }

    #[test]
    fn stop_lets_the_frame_in_flight_finish_and_acks_it() {
        // The persist hook parks the one mutating frame until the test
        // has called stop().
        let db = Arc::new(ForkBase::new(MemStore::new()));
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let entered_tx = std::sync::Mutex::new(entered_tx);
        let release_rx = std::sync::Mutex::new(release_rx);
        let persist: PersistFn<MemStore> = Arc::new(move |_db| {
            let _ = entered_tx.lock().unwrap().send(());
            let _ = release_rx.lock().unwrap().recv();
            Ok(())
        });
        let srv = Arc::new(
            ServeletServer::spawn("127.0.0.1:0", db.clone(), Some(persist), None).unwrap(),
        );
        // Other routers, each holding one idle connection.
        let bystanders: Vec<_> = (0..4).map(|_| pool_for(&srv)).collect();
        for other in &bystanders {
            assert_eq!(other.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        }
        let pool = pool_for(&srv);
        let writer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.call(&put("k"), DEADLINE))
        };
        entered_rx.recv().unwrap();
        let stopper = {
            let srv = Arc::clone(&srv);
            std::thread::spawn(move || srv.stop())
        };
        // stop() is now waiting for the busy handler. The idle connections
        // are closed meanwhile, not after it: a bystander's write is
        // refused, never swallowed by a socket nobody reads.
        let until = Instant::now() + DEADLINE;
        while srv.accept.serving() > 1 {
            assert!(Instant::now() < until, "idle connections never closed");
            std::thread::sleep(Duration::from_millis(1));
        }
        for other in &bystanders {
            assert_eq!(
                other
                    .call(&put("during"), Duration::from_millis(500))
                    .unwrap_err(),
                AttemptError::NotDelivered
            );
        }
        // Let the frame finish.
        release_tx.send(()).unwrap();
        stopper.join().unwrap();
        writer.join().unwrap().unwrap().expect_commit().unwrap();
        assert!(!db.list_keys().contains(&"during".to_string()));
        assert_eq!(
            pool.call(&Request::Probe, Duration::from_millis(500))
                .unwrap_err(),
            AttemptError::NotDelivered
        );
    }

    /// A handler whose router hung up exits on its own; `stop` must still
    /// wait until it has let go of everything it was serving with. A
    /// FileStore's `LOCK` goes with the last handle on the database, so a
    /// reopen right after `stop` used to find it still held.
    #[test]
    fn stop_waits_for_a_self_closed_handler_to_let_go() {
        /// Lets go of the marker only after a slow drop.
        struct SlowDrop(#[allow(dead_code)] Arc<()>);
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(200));
            }
        }
        let marker = Arc::new(());
        let held = SlowDrop(Arc::clone(&marker));
        let persist: PersistFn<MemStore> = Arc::new(move |_db| {
            let _held = &held;
            Ok(())
        });
        let db = Arc::new(ForkBase::new(MemStore::new()));
        let srv = ServeletServer::spawn("127.0.0.1:0", db, Some(persist), None).unwrap();
        let pool = pool_for(&srv);
        assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        // The router hangs up: the handler returns at EOF and its thread
        // waits for the next connection, still holding the hook, as when
        // `stop` races a hang-up.
        drop(pool);
        std::thread::sleep(Duration::from_millis(50));
        srv.stop();
        assert_eq!(Arc::strong_count(&marker), 1, "stop returned too early");
    }

    #[test]
    fn accept_loop_survives_aborted_connections_and_stops_promptly() {
        let served = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&served);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let accept = AcceptLoop::spawn(listener, None, move |mut conn, _peer, _stopping| {
            count.fetch_add(1, Ordering::SeqCst);
            let _ = conn.write_all(b"ok");
        })
        .unwrap();
        let addr = accept.addr();
        // Connections reset before or right after the accept.
        for _ in 0..20 {
            drop(TcpStream::connect(addr).unwrap());
        }
        use std::io::Read;
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut got = [0u8; 2];
        conn.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ok");
        // The aborted connections may still be on other handler threads.
        let until = Instant::now() + DEADLINE;
        while served.load(Ordering::SeqCst) < 21 {
            assert!(Instant::now() < until, "aborted connections never served");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(served.load(Ordering::SeqCst), 21);
        // Nothing in flight: stop must not wait out any poll or timeout.
        let t = Instant::now();
        accept.stop();
        assert!(t.elapsed() < Duration::from_millis(50), "{:?}", t.elapsed());
        accept.stop(); // idempotent
        assert!(TcpStream::connect(addr).is_err(), "listener is gone");
    }

    #[test]
    fn idle_servelet_stops_promptly() {
        let (srv, _db) = server();
        let pool = pool_for(&srv);
        assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        // One pooled, idle connection and a blocked accept: neither may
        // hold stop() (or drop) up.
        let t = Instant::now();
        drop(srv);
        assert!(t.elapsed() < Duration::from_millis(50), "{:?}", t.elapsed());
    }

    #[test]
    fn sequential_connections_reuse_a_handler_thread() {
        use std::io::Read;
        let (srv, _db) = server();
        for _ in 0..200 {
            let mut conn = TcpStream::connect(srv.addr()).unwrap();
            conn.write_all(&wire::encode_frame(&Request::Probe.encode()))
                .unwrap();
            let reply = Reply::decode(&wire::read_frame(&mut conn).unwrap()).unwrap();
            assert_eq!(reply, Reply::Unit);
            // Hang up, and see the servelet close its end too.
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0);
        }
        let (_, spawned) = srv.accept.threads();
        assert!(
            spawned <= 2,
            "200 sequential connections spawned {spawned} threads"
        );
    }

    #[test]
    fn limited_server_sheds_with_retry_hint_then_recovers() {
        use super::super::ratelimit::{RateLimit, RateLimiter};
        let db = Arc::new(ForkBase::new(MemStore::new()));
        let limiter = Arc::new(RateLimiter::new(RateLimit::new(5.0, 2.0)));
        let srv = ServeletServer::spawn("127.0.0.1:0", db, None, Some(limiter)).unwrap();
        let pool = pool_for(&srv);
        // The burst admits the first two requests.
        for _ in 0..2 {
            assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        }
        // The third is shed with a structured, coded error + hint.
        let err = pool
            .call(&Request::Probe, DEADLINE)
            .unwrap()
            .expect_unit()
            .unwrap_err();
        assert_eq!(err.code(), "rate_limited");
        let DbError::RateLimited { retry_after_ms } = err else {
            panic!("expected structured RateLimited, got {err:?}");
        };
        assert!(retry_after_ms > 0);
        // Backing off by the hint gets the peer served again — on the
        // same connection: a shed frame is a clean reply.
        std::thread::sleep(Duration::from_millis(retry_after_ms + 50));
        assert_eq!(pool.call(&Request::Probe, DEADLINE).unwrap(), Reply::Unit);
        assert_eq!(srv.accept.serving(), 1);
    }

    #[test]
    fn server_survives_garbage_and_hostile_length_prefixes() {
        use std::io::Read;
        let (srv, _db) = server();
        let addr = srv.addr();
        // Raw garbage: server drops the connection without panicking.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink);
        // Hostile length prefix: rejected at the framing layer.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut sink = Vec::new();
        let _ = conn.read_to_end(&mut sink);
        // The server still serves real clients afterwards.
        assert_eq!(
            pool_for(&srv).call(&Request::Probe, DEADLINE).unwrap(),
            Reply::Unit
        );
    }
}
