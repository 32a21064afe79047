//! Deterministic chaos injection at the RPC boundary.
//!
//! [`FaultyStore`](forkbase_store::FaultyStore) makes the *storage*
//! adversarial; [`ChaosPlan`] does the same one layer up, to the
//! *network* between the master and its servelets. A plan is seeded and
//! the fault stream is a pure function of `(seed, RPC sequence number)`,
//! so any failing run replays from its seed alone.
//!
//! Faults are injected on **data-plane** RPCs only (routed verbs,
//! scatter-gather). Control-plane traffic — migration internals,
//! supervision probes and restarts — is exempt: injecting faults into the
//! recovery machinery would test the simulator, not the system.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// What happens to one RPC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Fault {
    /// Deliver and reply normally.
    None,
    /// The request is lost: the worker never sees it, the caller times
    /// out.
    DropRequest,
    /// The worker applies the request but the reply is lost; the caller
    /// times out against a live worker (a delay past the deadline).
    DropReply,
    /// The request is delivered twice (at-least-once network); the first
    /// reply wins.
    Duplicate,
    /// The worker crashes **before** applying the request.
    CrashBefore,
    /// The worker applies the request, then crashes before the reply
    /// escapes — the worst case for write ambiguity.
    CrashAfter,
}

/// A seeded, replayable fault schedule, injected per-RPC with the given
/// per-mille probabilities. Build with [`ChaosPlan::seeded`] plus the
/// chainable setters; arm on a cluster with
/// [`super::Cluster::arm_chaos`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// RNG seed; the entire fault stream derives from it.
    pub seed: u64,
    /// ‰ of RPCs whose request is dropped.
    pub drop_per_mille: u16,
    /// ‰ of RPCs whose reply is delayed past the deadline.
    pub delay_per_mille: u16,
    /// ‰ of RPCs delivered twice.
    pub duplicate_per_mille: u16,
    /// ‰ of RPCs that crash the worker before the request applies.
    pub crash_before_per_mille: u16,
    /// ‰ of RPCs that crash the worker after the request applies.
    pub crash_after_per_mille: u16,
    /// Cap on total injected crashes (so a plan cannot grind the whole
    /// cluster down faster than a supervisor could ever restart it).
    pub max_crashes: u32,
    /// Deterministically drop the first `n` RPCs regardless of the dice —
    /// the unit-test mode for exercising timeout paths without
    /// probability.
    pub drop_first: u32,
}

impl ChaosPlan {
    /// A plan with the given seed and no faults armed; chain setters to
    /// add fault probabilities.
    pub fn seeded(seed: u64) -> Self {
        ChaosPlan {
            seed,
            drop_per_mille: 0,
            delay_per_mille: 0,
            duplicate_per_mille: 0,
            crash_before_per_mille: 0,
            crash_after_per_mille: 0,
            max_crashes: u32::MAX,
            drop_first: 0,
        }
    }

    /// Set the request-drop probability (‰).
    pub fn drops(mut self, per_mille: u16) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Set the delay-past-deadline probability (‰).
    pub fn delays(mut self, per_mille: u16) -> Self {
        self.delay_per_mille = per_mille;
        self
    }

    /// Set the duplicate-delivery probability (‰).
    pub fn duplicates(mut self, per_mille: u16) -> Self {
        self.duplicate_per_mille = per_mille;
        self
    }

    /// Set the crash-before-apply probability (‰).
    pub fn crashes_before(mut self, per_mille: u16) -> Self {
        self.crash_before_per_mille = per_mille;
        self
    }

    /// Set the crash-after-apply probability (‰).
    pub fn crashes_after(mut self, per_mille: u16) -> Self {
        self.crash_after_per_mille = per_mille;
        self
    }

    /// Cap the total number of injected crashes.
    pub fn max_crashes(mut self, n: u32) -> Self {
        self.max_crashes = n;
        self
    }

    /// Deterministically drop the first `n` RPCs.
    pub fn drop_first(mut self, n: u32) -> Self {
        self.drop_first = n;
        self
    }
}

/// What a chaos run actually injected ([`super::Cluster::chaos_report`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Data-plane RPC attempts a fault was drawn for while armed. A
    /// routed batch draws each owner group's whole retry schedule up
    /// front, so its unused retries count here (and in the fault
    /// counters below) too.
    pub rpcs: u64,
    /// Requests dropped.
    pub drops: u64,
    /// Replies delayed past the deadline.
    pub delays: u64,
    /// Requests delivered twice.
    pub duplicates: u64,
    /// Worker crashes injected (before- and after-apply combined).
    pub crashes: u64,
}

/// Live injection state: the plan plus the seeded RNG and counters.
pub(super) struct ChaosState {
    plan: ChaosPlan,
    rng: Mutex<u64>,
    events: AtomicU64,
    crashes: AtomicU64,
    drops: AtomicU64,
    delays: AtomicU64,
    duplicates: AtomicU64,
}

/// xorshift64: tiny, deterministic, and plenty for fault dice.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

impl ChaosState {
    pub(super) fn new(plan: ChaosPlan) -> Self {
        // xorshift has a fixed point at 0; displace the seed so every
        // seed (including 0) yields a live stream.
        let state = plan.seed ^ 0x9E37_79B9_7F4A_7C15;
        ChaosState {
            plan,
            rng: Mutex::new(if state == 0 { 1 } else { state }),
            events: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
        }
    }

    /// The fault for the next RPC. Crash faults respect
    /// [`ChaosPlan::max_crashes`]; past the cap they degrade to clean
    /// delivery.
    pub(super) fn next_fault(&self) -> Fault {
        let n = self.events.fetch_add(1, Ordering::Relaxed);
        if n < u64::from(self.plan.drop_first) {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return Fault::DropRequest;
        }
        let roll = (xorshift(&mut self.rng.lock()) % 1000) as u16;
        let p = &self.plan;
        let mut band = p.drop_per_mille;
        if roll < band {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return Fault::DropRequest;
        }
        band = band.saturating_add(p.delay_per_mille);
        if roll < band {
            self.delays.fetch_add(1, Ordering::Relaxed);
            return Fault::DropReply;
        }
        band = band.saturating_add(p.duplicate_per_mille);
        if roll < band {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return Fault::Duplicate;
        }
        band = band.saturating_add(p.crash_before_per_mille);
        if roll < band {
            return self.try_crash(Fault::CrashBefore);
        }
        band = band.saturating_add(p.crash_after_per_mille);
        if roll < band {
            return self.try_crash(Fault::CrashAfter);
        }
        Fault::None
    }

    fn try_crash(&self, fault: Fault) -> Fault {
        let granted = self
            .crashes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < u64::from(self.plan.max_crashes)).then_some(n + 1)
            })
            .is_ok();
        if granted {
            fault
        } else {
            Fault::None
        }
    }

    pub(super) fn report(&self) -> ChaosReport {
        ChaosReport {
            rpcs: self.events.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_stream_is_a_pure_function_of_the_seed() {
        let plan = ChaosPlan::seeded(42)
            .drops(100)
            .delays(100)
            .duplicates(100)
            .crashes_before(50)
            .crashes_after(50);
        let a = ChaosState::new(plan);
        let b = ChaosState::new(plan);
        let sa: Vec<Fault> = (0..500).map(|_| a.next_fault()).collect();
        let sb: Vec<Fault> = (0..500).map(|_| b.next_fault()).collect();
        assert_eq!(sa, sb, "same seed, same fault stream");
        assert!(sa.iter().any(|f| *f != Fault::None), "faults actually fire");
        let c = ChaosState::new(ChaosPlan::seeded(43).drops(100));
        let sc: Vec<Fault> = (0..500).map(|_| c.next_fault()).collect();
        assert_ne!(sa, sc, "different seed, different stream");
    }

    #[test]
    fn drop_first_and_crash_cap() {
        let s = ChaosState::new(
            ChaosPlan::seeded(7)
                .drop_first(3)
                .crashes_before(1000)
                .max_crashes(2),
        );
        assert_eq!(s.next_fault(), Fault::DropRequest);
        assert_eq!(s.next_fault(), Fault::DropRequest);
        assert_eq!(s.next_fault(), Fault::DropRequest);
        let rest: Vec<Fault> = (0..50).map(|_| s.next_fault()).collect();
        let crashes = rest.iter().filter(|f| **f == Fault::CrashBefore).count();
        assert_eq!(crashes, 2, "crash cap honored");
        let r = s.report();
        assert_eq!(r.rpcs, 53);
        assert_eq!(r.drops, 3);
        assert_eq!(r.crashes, 2);
    }

    #[test]
    fn zero_seed_still_produces_faults() {
        let s = ChaosState::new(ChaosPlan::seeded(0).drops(500));
        let faults = (0..100)
            .filter(|_| s.next_fault() == Fault::DropRequest)
            .count();
        assert!(faults > 10, "xorshift must not be stuck at zero");
    }
}
