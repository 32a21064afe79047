//! The reference model of the served workloads: every acknowledged version
//! of every key, with when its write was sent and acknowledged.
//!
//! Several connections are in flight at once, so a read is judged by real
//! time only: it is wrong when it returns a version nobody wrote, or a
//! version `U` although some other write was sent after `U` was
//! acknowledged and was itself acknowledged before the read was sent.

use std::sync::Mutex;

use forkbase::Uid;

use crate::trace::now_ns;

#[derive(Clone, Copy)]
struct Version {
    uid: Uid,
    sent_ns: u64,
    acked_ns: u64,
}

/// A read that returned a uid no acknowledged write had produced yet (its
/// write was still in flight); judged again after the run.
pub struct Deferred {
    key: usize,
    uid: Uid,
    sent_ns: u64,
}

pub struct Versions {
    keys: Vec<Mutex<Vec<Version>>>,
    deferred: Mutex<Vec<Deferred>>,
}

impl Versions {
    /// A model of `preloaded.len()` keys, each at its preloaded version.
    pub fn new(preloaded: Vec<Uid>) -> Versions {
        Versions {
            keys: preloaded
                .into_iter()
                .map(|uid| {
                    Mutex::new(vec![Version {
                        uid,
                        sent_ns: 0,
                        acked_ns: 0,
                    }])
                })
                .collect(),
            deferred: Mutex::new(Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Record an acknowledged write of `key` that was sent at `sent_ns`.
    pub fn wrote(&self, key: usize, uid: Uid, sent_ns: u64) {
        self.keys[key].lock().expect("versions").push(Version {
            uid,
            sent_ns,
            acked_ns: now_ns(),
        });
    }

    /// Whether `uid` may be the final version of `key` now that no write is
    /// in flight: it was written, and no other write was sent after it was
    /// acknowledged.
    pub fn may_be_final(&self, key: usize, uid: Uid) -> bool {
        Self::judge(&self.keys[key].lock().expect("versions"), uid, u64::MAX) == Some(true)
    }

    fn judge(versions: &[Version], uid: Uid, read_sent_ns: u64) -> Option<bool> {
        let seen = versions.iter().find(|v| v.uid == uid)?;
        Some(!versions.iter().any(|later| {
            later.uid != uid && later.sent_ns > seen.acked_ns && later.acked_ns < read_sent_ns
        }))
    }

    /// Whether a read of `key`, sent at `sent_ns`, may have returned `uid`.
    /// A uid not known yet is deferred and counted by [`Self::settle`].
    pub fn read_ok(&self, key: usize, uid: Uid, sent_ns: u64) -> bool {
        let verdict = Self::judge(&self.keys[key].lock().expect("versions"), uid, sent_ns);
        verdict.unwrap_or_else(|| {
            self.deferred
                .lock()
                .expect("deferred reads")
                .push(Deferred { key, uid, sent_ns });
            true
        })
    }

    /// Judge the deferred reads now that every write is acknowledged.
    /// Returns `(reads judged, wrong)`.
    pub fn settle(&self) -> (u64, u64) {
        let deferred = std::mem::take(&mut *self.deferred.lock().expect("deferred reads"));
        let wrong = deferred
            .iter()
            .filter(|d| {
                let versions = self.keys[d.key].lock().expect("versions");
                Self::judge(&versions, d.uid, d.sent_ns) != Some(true)
            })
            .count();
        (deferred.len() as u64, wrong as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(b: u8) -> Uid {
        Uid::from_bytes([b; 32])
    }

    #[test]
    fn stale_and_invented_versions_are_wrong_overlapping_ones_are_not() {
        let m = Versions::new(vec![uid(0)]);
        let t0 = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        m.wrote(0, uid(1), now_ns());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let after = now_ns();
        // A read sent before the write was acknowledged may see either.
        assert!(m.read_ok(0, uid(0), t0));
        assert!(m.read_ok(0, uid(1), t0));
        // A read sent after it must not see the preloaded version.
        assert!(!m.read_ok(0, uid(0), after));
        assert!(m.read_ok(0, uid(1), after));
        // A version nobody wrote is deferred, then wrong.
        assert!(m.read_ok(0, uid(9), after));
        assert_eq!(m.settle(), (1, 1));
        assert!(m.may_be_final(0, uid(1)) && !m.may_be_final(0, uid(0)));
    }
}
