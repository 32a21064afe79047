//! The busy clock: what the embedded workloads' gated timings and every
//! in-process part of a set-up are measured with.
//!
//! The boxes this benchmark runs on are small shared VMs. For minutes at a
//! stretch the host takes a vCPU away for up to 55 % of the time a busy
//! thread wants it (the same two-thread SHA-256 loop took 416–937 ms by the
//! wall clock and 340–400 ms of on-CPU time) and an `fsync` of 20 KB takes
//! 0.2 ms or 7 ms. A wall-clock median of CPU-bound work with a flush in it
//! therefore says more about the neighbours than about the code. The busy
//! clock of a thread advances
//!
//! * while the thread is on a CPU: user + system time from
//!   `/proc/thread-self/schedstat`, which leaves out time the host stole,
//!   time spent runnable behind another thread, and time blocked on the
//!   device or on a lock; and
//! * by the wall clock inside [`waiting`] sections: the parts of a set-up
//!   that wait for a child process or a peer on a socket.
//!
//! Device waits are left out on purpose: the page cache serves every read
//! here and a flush costs what the host's other tenants make it cost, so
//! this box cannot say what a device would. The traced run reports the
//! flushes by count and wall time (`store.sync_calls`, `store.sync_us_p50`).
//! The served workloads' latencies stay on the wall clock, timed from the
//! due time: a request is one long wait for a peer. Where `schedstat`
//! cannot be read the busy clock is the wall clock.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::OnceLock;

use crate::trace::now_ns as wall_ns;

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

thread_local! {
    static STAT: RefCell<Option<File>> = const { RefCell::new(None) };
    /// Wall minus on-CPU nanoseconds of this thread's [`waiting`] sections.
    static WAITED_NS: Cell<u64> = const { Cell::new(0) };
}

/// Whether the on-CPU clock is available (decided once per process).
pub fn on_cpu_clock() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| read_schedstat().is_some())
}

fn read_schedstat() -> Option<u64> {
    STAT.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            *slot = Some(File::open(SCHEDSTAT).ok()?);
        }
        let mut buf = [0u8; 64];
        let n = slot.as_ref()?.read_at(&mut buf, 0).ok()?;
        let text = std::str::from_utf8(&buf[..n]).ok()?;
        text.split_whitespace().next()?.parse().ok()
    })
}

/// On-CPU nanoseconds of the calling thread, else the wall clock.
fn cpu_ns() -> u64 {
    if !on_cpu_clock() {
        return wall_ns();
    }
    // The scheduler brings a running thread's counter up to date only at
    // its 4 ms tick or when the thread passes through the scheduler; a
    // yield is the cheapest way through.
    std::thread::yield_now();
    read_schedstat().unwrap_or_else(wall_ns)
}

/// The calling thread's busy clock in nanoseconds. Only differences between
/// two readings on the same thread mean anything.
pub fn now_ns() -> u64 {
    cpu_ns() + WAITED_NS.with(Cell::get)
}

/// Run `f`, which waits for something outside this thread, and charge it by
/// the wall clock. Do not nest: an inner section would be charged twice.
pub fn waiting<T>(f: impl FnOnce() -> T) -> T {
    if !on_cpu_clock() {
        return f();
    }
    let (cpu, wall) = (cpu_ns(), wall_ns());
    let out = f();
    let (cpu, wall) = (cpu_ns() - cpu, wall_ns() - wall);
    WAITED_NS.with(|w| w.set(w.get() + wall.saturating_sub(cpu)));
    out
}

/// Run `f` and return its result with the busy time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns().saturating_sub(start))
}

/// One line for the run's notes: which clock the run used.
pub fn describe() -> &'static str {
    if on_cpu_clock() {
        "busy clock: thread on-CPU time (/proc/thread-self/schedstat)"
    } else {
        "busy clock: wall clock (/proc/thread-self/schedstat is not readable here)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn sleeping_is_free_unless_declared_a_wait_and_spinning_never_is() {
        if !on_cpu_clock() {
            eprintln!("skipped: no {SCHEDSTAT}");
            return;
        }
        let nap = Duration::from_millis(30);
        let ((), slept) = timed(|| std::thread::sleep(nap));
        assert!(slept < 5_000_000, "an undeclared sleep cost {slept} ns");
        let ((), waited) = timed(|| waiting(|| std::thread::sleep(nap)));
        assert!(
            (25_000_000..200_000_000).contains(&waited),
            "a declared wait cost {waited} ns"
        );
        let ((), spun) = timed(|| {
            let until = Instant::now() + nap;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        });
        // Stolen time makes the spin cheaper than its wall time, never
        // dearer; a quarter of it is the least a live box leaves us.
        assert!(
            (7_000_000..40_000_000).contains(&spun),
            "a 30 ms spin cost {spun} ns"
        );
    }
}
