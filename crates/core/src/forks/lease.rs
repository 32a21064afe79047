//! Lease bookkeeping for fork sandboxes.
//!
//! A lease is two absolute unix-seconds timestamps (`created_at`,
//! `expires_at`). Absolute time — not a countdown — is what makes the
//! persisted fork registry resumable: a process that reopens the store
//! hours later sees exactly the leases that survived, already expired or
//! not, with no clock state to replay.
//!
//! [`LeaseClock`] wraps `SystemTime` with an atomic test offset so
//! lifecycle tests can fast-forward time deterministically instead of
//! sleeping through real TTLs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// A fork's lease window, in unix seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lease {
    /// When the fork was created.
    pub created_at: u64,
    /// When the lease runs out; the reaper drops the fork at the first
    /// tick at or after this instant.
    pub expires_at: u64,
}

impl Lease {
    /// Whether the lease is still live at `now`.
    pub fn live_at(&self, now: u64) -> bool {
        now < self.expires_at
    }

    /// Seconds of lease remaining at `now` (zero once expired).
    pub fn remaining_at(&self, now: u64) -> u64 {
        self.expires_at.saturating_sub(now)
    }
}

/// Wall clock with a test-only forward offset.
///
/// Production callers never touch the offset and get plain unix time;
/// tests call [`LeaseClock::advance`] to expire leases instantly.
#[derive(Debug, Default)]
pub struct LeaseClock {
    /// Seconds added on top of the system clock.
    offset_secs: AtomicU64,
}

impl LeaseClock {
    /// A clock reading real time (offset zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Current unix time in seconds, plus any test offset.
    pub fn now(&self) -> u64 {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        wall + self.offset_secs.load(Ordering::Relaxed)
    }

    /// Fast-forward the clock by `secs`. Monotone: offsets accumulate
    /// and never rewind, matching how leases are compared.
    pub fn advance(&self, secs: u64) {
        self.offset_secs.fetch_add(secs, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_moves_clock_forward() {
        let clock = LeaseClock::new();
        let t0 = clock.now();
        clock.advance(3600);
        let t1 = clock.now();
        assert!(t1 >= t0 + 3600);
    }

    #[test]
    fn lease_liveness_and_remaining() {
        let lease = Lease {
            created_at: 100,
            expires_at: 160,
        };
        assert!(lease.live_at(100));
        assert!(lease.live_at(159));
        assert!(!lease.live_at(160));
        assert_eq!(lease.remaining_at(130), 30);
        assert_eq!(lease.remaining_at(500), 0);
    }
}
