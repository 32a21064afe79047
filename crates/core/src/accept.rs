//! The one way a listener serves connections, shared by the servelet
//! server and the REST gateway: [`AcceptLoop`].
//!
//! One lock guards the hand-off state. It is never held across a socket
//! read or write or a handler; the only socket calls under it are
//! `shutdown` and `close`, which do not block.

use std::collections::{HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

/// Pause after an accept error that will not clear by retrying at once
/// (out of descriptors), so the loop does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Bound on the loopback connect that wakes a blocked `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// What a handler thread runs for each connection it takes: the socket,
/// the peer, and the loop's stop flag, set once [`AcceptLoop::stop`] has
/// begun.
type Handler = dyn Fn(&TcpStream, SocketAddr, &AtomicBool) + Send + Sync;

/// A connection cap: past `.0` busy handler threads, a new connection is
/// given to `.1` on the accept thread and closed.
pub type Cap = (usize, fn(&TcpStream));

/// A listener thread that blocks in `accept` and serves every connection
/// on a pooled handler thread. A handler thread outlives its connection:
/// once the handler returns it counts itself idle, closes the socket and
/// waits for the next one. A new thread is spawned only when none is
/// idle; past an optional cap the connection is shed instead. The loop
/// shares each socket being served with its handler, so that `stop` can
/// end the read.
///
/// Accept errors (`ECONNABORTED`, `EMFILE`, …) are logged and the loop
/// carries on: a transient error never ends the listener. [`Self::stop`]
/// (also run on drop) sets the stop flag, wakes the blocked `accept` with
/// a loopback connect to the listener's own address, and ends the
/// handler threads.
pub struct AcceptLoop {
    addr: SocketAddr,
    pool: Arc<Pool>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

/// The handler threads of one [`AcceptLoop`].
struct Pool {
    state: Mutex<State>,
    /// Signalled when a connection is queued, when a thread exits and
    /// when the loop stops.
    wake: Condvar,
    /// Set once `stop` has begun; read by the accept thread, the waiting
    /// threads and the handlers.
    stopping: AtomicBool,
}

#[derive(Default)]
struct State {
    /// Handed-off connections, each promised to a waiting thread.
    queue: VecDeque<(TcpStream, SocketAddr)>,
    /// The connections being served, by handler thread.
    serving: HashMap<usize, Arc<TcpStream>>,
    /// Live handler threads, busy or waiting.
    live: usize,
    /// Waiting threads not yet promised a connection.
    idle: usize,
    /// Handler threads ever spawned; also the next thread's id.
    spawned: usize,
}

impl AcceptLoop {
    /// Take ownership of `listener` and run `serve` on a handler thread
    /// for every accepted connection until [`Self::stop`]; with no `cap`,
    /// every connection is served.
    pub fn spawn(
        listener: TcpListener,
        cap: Option<Cap>,
        serve: impl Fn(&TcpStream, SocketAddr, &AtomicBool) + Send + Sync + 'static,
    ) -> std::io::Result<AcceptLoop> {
        let addr = listener.local_addr()?;
        let pool = Arc::new(Pool {
            state: Mutex::default(),
            wake: Condvar::new(),
            stopping: AtomicBool::new(false),
        });
        let serve: Arc<Handler> = Arc::new(serve);
        let workers = Arc::clone(&pool);
        let accept = std::thread::Builder::new().spawn(move || loop {
            let accepted = listener.accept();
            if workers.stopping.load(Ordering::SeqCst) {
                // The wake-up connect, or a client that raced it: both
                // are closed with the listener.
                break;
            }
            match accepted {
                Ok((conn, peer)) => workers.hand_off(conn, peer, &serve, cap),
                Err(e) => {
                    eprintln!("forkbase: accept on {addr} failed, still listening: {e}");
                    if !matches!(
                        e.kind(),
                        ErrorKind::ConnectionAborted | ErrorKind::Interrupted
                    ) {
                        std::thread::sleep(ACCEPT_BACKOFF);
                    }
                }
            }
        })?;
        Ok(AcceptLoop {
            addr,
            pool,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler threads: `(live, spawned)`, live ones busy or waiting,
    /// and every one spawned since the loop started.
    pub fn threads(&self) -> (usize, usize) {
        let state = self.pool.state.lock();
        (state.live, state.spawned)
    }

    /// Stop serving. The listener goes first, so new connects are refused;
    /// then every connection not yet being served is closed, and the read
    /// half of each one being served is shut, so a handler blocked in a
    /// read sees EOF while one that already read its request finishes and
    /// answers it. Returns once every handler thread has exited and the
    /// handler, with everything it captured, has been dropped. Idempotent.
    pub fn stop(&self) {
        self.pool.stopping.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.lock().take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // If the wake-up cannot connect (this process is out of
            // descriptors), leave the thread detached rather than wait
            // forever: the flag is set, so it exits on its next accept.
            if TcpStream::connect_timeout(&wake, WAKE_TIMEOUT).is_ok() {
                let _ = accept.join();
            }
        }
        let mut state = self.pool.state.lock();
        for conn in state.serving.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        // Each queued connection was promised to a waiting thread, which
        // now finds none and exits as an unpromised one.
        state.idle += state.queue.len();
        state.queue.clear();
        self.pool.wake.notify_all();
        while state.live > 0 {
            self.pool.wake.wait(&mut state);
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Pool {
    /// Give `conn` to a waiting handler thread, or to a new one when none
    /// waits and `cap` allows; otherwise shed it.
    fn hand_off(
        self: &Arc<Self>,
        conn: TcpStream,
        peer: SocketAddr,
        serve: &Arc<Handler>,
        cap: Option<Cap>,
    ) {
        let mut state = self.state.lock();
        if state.idle > 0 {
            state.idle -= 1;
            state.queue.push_back((conn, peer));
            drop(state);
            self.wake.notify_one();
            return;
        }
        if let Some((_, shed)) = cap.filter(|&(max, _)| state.live >= max) {
            drop(state);
            return shed(&conn);
        }
        let id = state.spawned;
        state.spawned += 1;
        state.live += 1;
        let conn = Arc::new(conn);
        state.serving.insert(id, Arc::clone(&conn));
        drop(state);
        let worker = Worker {
            pool: Arc::clone(self),
            id,
        };
        let serve = Arc::clone(serve);
        // A failed spawn drops the closure: the worker gives its count
        // back and the connection closes.
        let _ = std::thread::Builder::new()
            .name("forkbase-conn".into())
            .spawn(move || {
                // Declared after the worker, so dropped before it, on a
                // panic too: once `stop` sees no live thread, nothing the
                // handler captured is still held.
                let worker = worker;
                let serve = serve;
                worker.run(&*serve, conn, peer);
            });
    }
}

/// One live handler thread's share of [`State::live`], released when it
/// drops: on stop, on a panic in the handler, or on a failed spawn.
struct Worker {
    pool: Arc<Pool>,
    id: usize,
}

impl Worker {
    fn run(&self, serve: &Handler, mut conn: Arc<TcpStream>, mut peer: SocketAddr) {
        let pool = &*self.pool;
        loop {
            serve(&conn, peer, &pool.stopping);
            drop(conn);
            let mut state = pool.state.lock();
            // Idle before the close: a client that connects again once it
            // reads EOF finds this thread waiting, not a new one spawned.
            state.idle += 1;
            // The registry's handle is the last, so the socket is closed
            // before the registry shows it gone.
            state.serving.remove(&self.id);
            (conn, peer) = loop {
                if let Some((next, peer)) = state.queue.pop_front() {
                    let next = Arc::new(next);
                    state.serving.insert(self.id, Arc::clone(&next));
                    break (next, peer);
                }
                if pool.stopping.load(Ordering::SeqCst) {
                    state.idle -= 1;
                    return;
                }
                pool.wake.wait(&mut state);
            };
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let mut state = self.pool.state.lock();
        state.serving.remove(&self.id);
        state.live -= 1;
        drop(state);
        self.pool.wake.notify_all();
    }
}

#[cfg(test)]
impl AcceptLoop {
    /// Connections being served now.
    pub(crate) fn serving(&self) -> usize {
        self.pool.state.lock().serving.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Instant;

    /// Handler threads at once in these tests.
    const CAP: usize = 4;

    /// A loop that answers `ok` to a connection's first byte, panics when
    /// that byte is `!`, and sheds past [`CAP`] busy threads with `busy`.
    fn echo_loop() -> AcceptLoop {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Reads the request byte first, so the close sends no reset.
        let shed = |mut conn: &TcpStream| {
            let _ = conn.read(&mut [0u8; 1]);
            let _ = conn.write_all(b"busy");
        };
        AcceptLoop::spawn(listener, Some((CAP, shed)), |mut conn, _peer, _stopping| {
            let mut first = [0u8; 1];
            if conn.read_exact(&mut first).is_ok() {
                assert_ne!(first[0], b'!', "handler panics on request");
                let _ = conn.write_all(b"ok");
            }
        })
        .unwrap()
    }

    /// Send `byte` on a new connection; everything it answers.
    fn exchange(addr: SocketAddr, byte: u8) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        let _ = conn.write_all(&[byte]);
        let mut reply = String::new();
        let _ = conn.read_to_string(&mut reply);
        reply
    }

    /// Poll `done` until it holds or five seconds pass; whether it held.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    #[test]
    fn a_handler_that_exits_early_frees_its_slot() {
        let accept = echo_loop();
        let addr = accept.addr();
        // Every thread holds a connection that never sends its request.
        let mut parked: Vec<TcpStream> = (0..CAP)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        assert!(eventually(|| accept.threads().0 == CAP));
        assert_eq!(exchange(addr, b'?'), "busy");
        // One client hangs up: its handler ends at EOF, before any
        // request, and its thread takes the next connection.
        drop(parked.pop());
        assert!(
            eventually(|| exchange(addr, b'?') == "ok"),
            "the freed slot never served"
        );
        assert_eq!(accept.threads(), (CAP, CAP));
        drop(parked);
        accept.stop();
        assert_eq!(accept.threads().0, 0);
    }

    #[test]
    fn a_panicking_handler_frees_its_slot() {
        let accept = echo_loop();
        let addr = accept.addr();
        for _ in 0..3 {
            // The panic closes the connection without a reply.
            assert_eq!(exchange(addr, b'!'), "");
            assert!(eventually(|| accept.threads().0 == 0));
        }
        assert_eq!(exchange(addr, b'?'), "ok");
        accept.stop();
        assert_eq!(accept.threads().0, 0);
    }
}
