//! The blocking accept loop every listener in the workspace runs on.

use std::io::ErrorKind;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

/// Pause after an accept error that will not clear by retrying at once
/// (out of descriptors), so the loop does not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Bound on the loopback connect that wakes a blocked `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A listener thread that blocks in `accept` and hands every connection
/// to `on_conn`. Shared by the servelet server and the REST gateway.
///
/// Accept errors (`ECONNABORTED`, `EMFILE`, …) are logged and the loop
/// carries on: a transient error never ends the listener. [`Self::stop`]
/// (also run on drop) sets a flag and wakes the blocked `accept` with a
/// loopback connect to the listener's own address.
pub struct AcceptLoop {
    addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl AcceptLoop {
    /// Take ownership of `listener` and run `on_conn` (on the accept
    /// thread — hand long work to a thread of its own) for every
    /// accepted connection until [`Self::stop`].
    pub fn spawn(
        listener: TcpListener,
        on_conn: impl FnMut(TcpStream, SocketAddr) + Send + 'static,
    ) -> std::io::Result<AcceptLoop> {
        Self::spawn_with_flag(listener, Arc::default(), on_conn)
    }

    /// [`Self::spawn`] on a stop flag the caller made, for a caller whose
    /// connection handlers outlive the accept and must see the stop too.
    pub(crate) fn spawn_with_flag(
        listener: TcpListener,
        stop: Arc<AtomicBool>,
        mut on_conn: impl FnMut(TcpStream, SocketAddr) + Send + 'static,
    ) -> std::io::Result<AcceptLoop> {
        let addr = listener.local_addr()?;
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            let accepted = listener.accept();
            if flag.load(Ordering::SeqCst) {
                // The wake-up connect, or a client that raced it: both
                // are closed with the listener.
                break;
            }
            match accepted {
                Ok((conn, peer)) => on_conn(conn, peer),
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
        });
        Ok(AcceptLoop {
            addr,
            stop,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wait for the accept thread and drop the listener:
    /// new connects are refused once this returns. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(handle) = self.handle.lock().take() else {
            return;
        };
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
            let _ = handle.join();
        }
    }
}

impl Drop for AcceptLoop {
    fn drop(&mut self) {
        self.stop();
    }
}
