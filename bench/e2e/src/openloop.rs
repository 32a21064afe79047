//! Open-loop driver for the served workloads: requests leave on a seeded
//! schedule whether or not earlier ones have completed, and each is timed
//! from the moment it was *due*, so a stall charges every request queued
//! behind it.
//!
//! A lane is one schedule shared by a few connection workers; a request is
//! late only when all of its lane's workers are still busy. A lane with one
//! worker keeps its operations strictly one after another. How late the
//! generator ran is reported as `loadgen.late_p99_us`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::trace::{self, ThreadTrace};

/// Length of the alternating traced / untraced slices of a traced run.
pub const SLICE_NS: u64 = 250_000_000;

/// Whether an operation due (or started) `ns` into the window falls in a
/// traced slice.
pub fn traced_slice(ns: u64) -> bool {
    (ns / SLICE_NS) % 2 == 1
}

pub struct Arrival<Op> {
    pub due_ns: u64,
    pub op: Op,
}

pub struct Lane<Op> {
    /// Arrivals in due order.
    pub schedule: Vec<Arrival<Op>>,
    pub workers: usize,
}

/// What happened to one arrival.
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub lane: usize,
    /// Index into the lane's schedule.
    pub index: usize,
    /// Completion time minus due time.
    pub latency_ns: u64,
    /// Send time minus due time.
    pub late_ns: u64,
    pub ok: bool,
    pub traced: bool,
}

fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Run every lane at once. `exec(op, request id)` performs one operation
/// and says whether its answer was right. Returns one [`Done`] per arrival
/// and the workers' merged trace.
pub fn run<Op: Sync>(
    lanes: &[Lane<Op>],
    trace_on: bool,
    exec: impl Fn(&Op, u64) -> bool + Sync,
) -> (Vec<Done>, ThreadTrace) {
    let cursors: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut done = Vec::new();
    let mut merged = ThreadTrace::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (l, lane) in lanes.iter().enumerate() {
            for _ in 0..lane.workers {
                let (next, exec) = (&cursors[l], &exec);
                handles.push(scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(arrival) = lane.schedule.get(index) else {
                            break;
                        };
                        let due = start + Duration::from_nanos(arrival.due_ns);
                        wait_until(due);
                        let traced = trace_on && traced_slice(arrival.due_ns);
                        trace::set_on(traced);
                        let sent = Instant::now();
                        // Request ids are unique across lanes.
                        let ok = exec(&arrival.op, ((l as u64) << 32) + index as u64 + 1);
                        let end = Instant::now();
                        mine.push(Done {
                            lane: l,
                            index,
                            latency_ns: (end - due).as_nanos() as u64,
                            late_ns: (sent - due).as_nanos() as u64,
                            ok,
                            traced,
                        });
                    }
                    (mine, trace::take())
                }));
            }
        }
        for h in handles {
            let (mine, t) = h.join().expect("open-loop worker panicked");
            done.extend(mine);
            merged.merge(t);
        }
    });
    (done, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arrival_runs_once_and_is_timed_from_its_due_time() {
        let lane = |workers| Lane {
            schedule: (0..40)
                .map(|i| Arrival {
                    due_ns: i * 1_000_000,
                    op: i,
                })
                .collect(),
            workers,
        };
        let busy = AtomicUsize::new(0);
        let (done, _) = run(&[lane(2), lane(1)], false, |op, req| {
            assert_eq!(*op + 1, req & 0xffff_ffff);
            // The one-worker lane never overlaps its own operations.
            if req >> 32 == 1 {
                assert_eq!(busy.fetch_add(1, Ordering::SeqCst), 0);
            }
            std::thread::sleep(Duration::from_micros(200));
            if req >> 32 == 1 {
                busy.fetch_sub(1, Ordering::SeqCst);
            }
            true
        });
        for l in 0..2 {
            let mut seen: Vec<usize> = done
                .iter()
                .filter(|d| d.lane == l)
                .map(|d| d.index)
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..40).collect::<Vec<_>>());
        }
        assert!(done
            .iter()
            .all(|d| d.ok && d.latency_ns >= d.late_ns + 200_000));
    }
}
