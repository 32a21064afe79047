//! The fork registry and lifecycle engine: [`ForkService`], which drives
//! any [`Backend`] — a single-node [`ForkBase`](crate::api::ForkBase) or
//! a sharded [`Cluster`](crate::cluster::Cluster).
//!
//! The service owns only *registry* state (which forks exist, their
//! leases, which keys each fork has touched and from which base
//! version). All data lives in the backend as ordinary branches named
//! `fork/<id>`, so every existing mechanism — striped head locks, the
//! wire protocol, replication, GC — applies to fork data unchanged.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bytes::Bytes;
use forkbase_types::Value;

use super::diff::{ForkDiff, KeyDiff};
use super::lease::{Lease, LeaseClock};
use crate::api::{CommitResult, GetResult, PutOptions, VersionSpec};
use crate::backend::Backend;
use crate::cluster::MapPage;
use crate::error::{DbError, DbResult};
use crate::fnode::Uid;

/// Default fork lease, in seconds, when the caller names no TTL.
pub const DEFAULT_FORK_TTL_SECS: u64 = 900;

/// Prefix of the namespaced branches a fork writes through. A fork with
/// id `f1` owns branch `fork/f1` on every key it touches.
pub const FORK_BRANCH_PREFIX: &str = "fork/";

/// First line of the persisted `FORKS` registry record.
pub const FORKS_MAGIC: &str = "forkbase-forks-v1";

/// Longest accepted fork id.
const MAX_FORK_ID_LEN: usize = 64;

/// Registry entry for one fork.
#[derive(Clone, Debug)]
pub struct ForkInfo {
    /// The fork id (also the suffix of its branch namespace).
    pub id: String,
    /// The spec the fork was created from. Reads of untouched keys pass
    /// through to this spec live.
    pub base: VersionSpec,
    /// The fork's lease window.
    pub lease: Lease,
    /// Total writes committed through the fork.
    pub writes: u64,
    /// Keys the fork has written, each with the version the key resolved
    /// to when the fork first wrote it (`None` when the key did not
    /// exist in the base).
    pub touched: BTreeMap<String, Option<Uid>>,
}

impl ForkInfo {
    /// The namespaced branch this fork writes through on every touched
    /// key.
    pub fn branch(&self) -> String {
        format!("{FORK_BRANCH_PREFIX}{}", self.id)
    }
}

/// What one reaper pass accomplished.
#[derive(Clone, Debug, Default)]
pub struct ReapReport {
    /// Ids of forks fully reaped (branches dropped, registry entry
    /// removed).
    pub reaped: Vec<String>,
    /// Branches actually deleted across all reaped forks.
    pub branches_dropped: u64,
    /// Expired forks left in the registry because a branch deletion
    /// failed transiently (e.g. a servelet was unreachable); the next
    /// pass retries them.
    pub failed: u64,
}

/// The fork-sandbox service: a lease-governed registry of writable
/// forks layered over any [`Backend`].
///
/// The service is deliberately backend-stateless — every operation
/// takes the backend as an argument — so one `ForkService` can be
/// shared by a gateway that owns its `ForkBase`/`Cluster` behind an
/// `Arc` without generic infection of the service type itself.
#[derive(Debug, Default)]
pub struct ForkService {
    forks: Mutex<BTreeMap<String, ForkInfo>>,
    clock: LeaseClock,
    next_seq: AtomicU64,
    default_ttl_secs: u64,
}

impl ForkService {
    /// A service with the default lease TTL
    /// ([`DEFAULT_FORK_TTL_SECS`]).
    pub fn new() -> Self {
        Self::with_default_ttl(DEFAULT_FORK_TTL_SECS)
    }

    /// A service whose unspecified-TTL forks lease for `ttl_secs`.
    pub fn with_default_ttl(ttl_secs: u64) -> Self {
        ForkService {
            forks: Mutex::new(BTreeMap::new()),
            clock: LeaseClock::new(),
            next_seq: AtomicU64::new(1),
            default_ttl_secs: ttl_secs,
        }
    }

    /// The service clock. Tests fast-forward it with
    /// [`LeaseClock::advance`] to expire leases deterministically.
    pub fn clock(&self) -> &LeaseClock {
        &self.clock
    }

    /// Number of registered forks (live and expired-but-unreaped).
    pub fn len(&self) -> usize {
        self.forks.lock().unwrap().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of forks whose lease is still live right now.
    pub fn live_count(&self) -> usize {
        let now = self.clock.now();
        self.forks
            .lock()
            .unwrap()
            .values()
            .filter(|i| i.lease.live_at(now))
            .count()
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Create a fork of `base`. O(1): no backend work happens until the
    /// first write. `id: None` generates a fresh `f<n>` id;
    /// `ttl_secs: None` uses the service default.
    pub fn create(
        &self,
        base: VersionSpec,
        ttl_secs: Option<u64>,
        id: Option<String>,
    ) -> DbResult<ForkInfo> {
        if let Some(id) = &id {
            validate_fork_id(id)?;
        }
        let ttl = ttl_secs.unwrap_or(self.default_ttl_secs);
        let now = self.clock.now();
        let mut forks = self.forks.lock().unwrap();
        let id = match id {
            Some(id) => {
                if forks.contains_key(&id) {
                    return Err(DbError::InvalidInput(format!(
                        "fork id {id:?} already in use"
                    )));
                }
                id
            }
            None => loop {
                let candidate = format!("f{}", self.next_seq.fetch_add(1, Ordering::Relaxed));
                if !forks.contains_key(&candidate) {
                    break candidate;
                }
            },
        };
        let info = ForkInfo {
            id: id.clone(),
            base,
            lease: Lease {
                created_at: now,
                expires_at: now.saturating_add(ttl),
            },
            writes: 0,
            touched: BTreeMap::new(),
        };
        forks.insert(id, info.clone());
        Ok(info)
    }

    /// Snapshot of every registry entry, in id order (includes expired
    /// forks the reaper has not collected yet).
    pub fn list(&self) -> Vec<ForkInfo> {
        self.forks.lock().unwrap().values().cloned().collect()
    }

    /// Look up a live fork. Expired or unknown ids both yield
    /// [`DbError::ForkExpired`] — after reaping the two states are
    /// indistinguishable, so the API never distinguishes them.
    pub fn info(&self, id: &str) -> DbResult<ForkInfo> {
        let forks = self.forks.lock().unwrap();
        self.live(&forks, id).cloned()
    }

    /// Renew a live fork's lease for `ttl_secs` (default TTL when
    /// `None`) from *now*. Expired forks cannot be resurrected.
    pub fn touch(&self, id: &str, ttl_secs: Option<u64>) -> DbResult<ForkInfo> {
        let ttl = ttl_secs.unwrap_or(self.default_ttl_secs);
        let now = self.clock.now();
        let mut forks = self.forks.lock().unwrap();
        self.live(&forks, id)?;
        let info = forks.get_mut(id).expect("liveness check found it");
        info.lease.expires_at = now.saturating_add(ttl);
        Ok(info.clone())
    }

    /// Explicitly drop a fork: delete its branches and remove the
    /// registry entry. Unlike the data verbs this also accepts a fork
    /// whose lease already expired (DELETE beats the reaper). Returns
    /// the number of branches deleted.
    pub fn drop_fork<B: Backend + ?Sized>(&self, backend: &B, id: &str) -> DbResult<u64> {
        let (branch, keys) = {
            let forks = self.forks.lock().unwrap();
            let info = forks.get(id).ok_or_else(|| DbError::ForkExpired {
                fork: id.to_string(),
            })?;
            (
                info.branch(),
                info.touched.keys().cloned().collect::<Vec<_>>(),
            )
        };
        let dropped = drop_branches(backend, &branch, &keys)?;
        self.forks.lock().unwrap().remove(id);
        Ok(dropped)
    }

    /// One reaper pass: drop the branches of every expired fork and
    /// remove it from the registry. Infallible by design — per-fork
    /// failures are counted and retried on the next pass, so a flaky
    /// servelet cannot wedge the reaper. Call this from the supervisor
    /// tick or any periodic loop.
    pub fn reap_expired<B: Backend + ?Sized>(&self, backend: &B) -> ReapReport {
        let now = self.clock.now();
        let expired: Vec<(String, String, Vec<String>)> = {
            let forks = self.forks.lock().unwrap();
            forks
                .values()
                .filter(|i| !i.lease.live_at(now))
                .map(|i| {
                    (
                        i.id.clone(),
                        i.branch(),
                        i.touched.keys().cloned().collect(),
                    )
                })
                .collect()
        };
        let mut report = ReapReport::default();
        for (id, branch, keys) in expired {
            match drop_branches(backend, &branch, &keys) {
                Ok(n) => {
                    self.forks.lock().unwrap().remove(&id);
                    report.branches_dropped += n;
                    report.reaped.push(id);
                }
                Err(_) => report.failed += 1,
            }
        }
        report
    }

    // ------------------------------------------------------------------
    // Data verbs
    // ------------------------------------------------------------------

    /// Read `key` as the fork sees it: its own branch if the fork has
    /// written the key, otherwise a live pass-through to the base spec.
    pub fn get<B: Backend + ?Sized>(
        &self,
        backend: &B,
        id: &str,
        key: &str,
    ) -> DbResult<GetResult> {
        let spec = self.read_spec(id, key)?;
        backend.get_at(key, &spec)
    }

    /// One page of map entries of `key` as the fork sees it.
    pub fn range<B: Backend + ?Sized>(
        &self,
        backend: &B,
        id: &str,
        key: &str,
        start: Option<Bytes>,
        end: Option<Bytes>,
        limit: u64,
    ) -> DbResult<MapPage> {
        let spec = self.read_spec(id, key)?;
        backend.map_range_at(key, &spec, start, end, limit)
    }

    /// Commit `value` to `key` inside the fork. The first write to a
    /// key lazily forks it: the base spec is resolved once, a
    /// `fork/<id>` branch is created at that version, and the base uid
    /// is recorded so diff-vs-base stays exact even if the base branch
    /// moves on afterwards. `opts.branch` is ignored — the service owns
    /// branch placement.
    pub fn put<B: Backend + ?Sized>(
        &self,
        backend: &B,
        id: &str,
        key: &str,
        value: Value,
        opts: &PutOptions,
    ) -> DbResult<CommitResult> {
        let (branch, base_spec, needs_fork) = {
            let forks = self.forks.lock().unwrap();
            let info = self.live(&forks, id)?;
            (
                info.branch(),
                info.base.clone(),
                !info.touched.contains_key(key),
            )
        };
        if needs_fork {
            // Backend calls happen outside the registry lock so forks
            // write concurrently; a racing first-writer of the same
            // (fork, key) surfaces as a benign BranchExists.
            let base = match backend.resolve_spec(key, &base_spec) {
                Ok(uid) => match backend.branch_from_version(key, &uid, &branch) {
                    Ok(()) | Err(DbError::BranchExists { .. }) => Some(uid),
                    Err(e) => return Err(e),
                },
                // Key absent in the base: the put below creates the
                // fork branch as the key's first branch.
                Err(DbError::NoSuchKey(_)) | Err(DbError::NoSuchBranch { .. }) => None,
                Err(e) => return Err(e),
            };
            let mut forks = self.forks.lock().unwrap();
            if let Some(info) = forks.get_mut(id) {
                info.touched.entry(key.to_string()).or_insert(base);
            }
        }
        let opts = PutOptions {
            branch: branch.clone(),
            author: opts.author.clone(),
            message: opts.message.clone(),
        };
        let res = backend.put_at(key, value, &opts)?;
        let mut forks = self.forks.lock().unwrap();
        match forks.get_mut(id) {
            Some(info) => {
                info.writes += 1;
                info.touched.entry(key.to_string()).or_insert(None);
                Ok(res)
            }
            None => {
                // The reaper (or an explicit drop) won the race and
                // already erased the fork; un-create the branch the put
                // just re-made so no orphan survives.
                drop(forks);
                let _ = backend.delete_branch(key, &branch);
                Err(DbError::ForkExpired {
                    fork: id.to_string(),
                })
            }
        }
    }

    /// Full diff-vs-base: one [`KeyDiff`] per touched key. Keys the
    /// fork created (no base version) carry no value summary.
    pub fn diff<B: Backend + ?Sized>(&self, backend: &B, id: &str) -> DbResult<ForkDiff> {
        let (branch, touched) = {
            let forks = self.forks.lock().unwrap();
            let info = self.live(&forks, id)?;
            (info.branch(), info.touched.clone())
        };
        let fork_spec = VersionSpec::Branch(branch);
        let mut keys = Vec::with_capacity(touched.len());
        for (key, base) in touched {
            let head = backend.resolve_spec(&key, &fork_spec)?;
            let summary = match &base {
                Some(uid) => {
                    Some(backend.diff_specs(&key, &VersionSpec::Version(*uid), &fork_spec)?)
                }
                None => None,
            };
            keys.push(KeyDiff {
                key,
                base,
                head,
                summary,
            });
        }
        Ok(ForkDiff {
            fork: id.to_string(),
            keys,
        })
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Serialize the registry as the `FORKS` record: a magic line, then
    /// one `fork` line per fork and one `key` line per touched key.
    /// Expiry is stored as absolute unix seconds so a later reopen
    /// resumes leases exactly.
    pub fn dump(&self) -> String {
        let forks = self.forks.lock().unwrap();
        let mut out = String::from(FORKS_MAGIC);
        out.push('\n');
        for info in forks.values() {
            let (kind, val) = match &info.base {
                VersionSpec::Branch(b) => ("branch", b.clone()),
                VersionSpec::Version(u) => ("version", u.to_hex()),
            };
            out.push_str(&format!(
                "fork\t{}\t{kind}\t{val}\t{}\t{}\t{}\n",
                info.id, info.lease.created_at, info.lease.expires_at, info.writes
            ));
            for (key, base) in &info.touched {
                let base = base
                    .as_ref()
                    .map(|u| u.to_hex())
                    .unwrap_or_else(|| "-".into());
                // Key last: keys are the one field with a free-form
                // alphabet (same layout bet as `dump_refs`).
                out.push_str(&format!("key\t{}\t{base}\t{key}\n", info.id));
            }
        }
        out
    }

    /// Restore a registry from [`Self::dump`] output, replacing current
    /// contents. Leases resume as persisted — already-expired forks
    /// load too and fall to the next reaper pass (their branches may
    /// still need dropping). Returns the number of forks loaded.
    pub fn load(&self, text: &str) -> DbResult<usize> {
        let mut lines = text.lines();
        match lines.next() {
            Some(FORKS_MAGIC) => {}
            other => {
                return Err(DbError::InvalidInput(format!(
                    "FORKS record: expected magic {FORKS_MAGIC:?}, found {other:?}"
                )))
            }
        }
        let mut loaded: BTreeMap<String, ForkInfo> = BTreeMap::new();
        let mut max_seq: u64 = 0;
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let bad = |what: &str| {
                DbError::InvalidInput(format!("FORKS record line {}: {what}", lineno + 2))
            };
            let mut fields = line.splitn(7, '\t');
            match fields.next() {
                Some("fork") => {
                    let id = fields.next().ok_or_else(|| bad("missing id"))?.to_string();
                    validate_fork_id(&id)?;
                    let kind = fields.next().ok_or_else(|| bad("missing base kind"))?;
                    let val = fields.next().ok_or_else(|| bad("missing base"))?;
                    let base = match kind {
                        "branch" => VersionSpec::Branch(val.to_string()),
                        "version" => VersionSpec::Version(
                            Uid::from_hex(val).ok_or_else(|| bad("bad base version hex"))?,
                        ),
                        _ => return Err(bad("unknown base kind")),
                    };
                    let num = |f: Option<&str>, what: &str| {
                        f.and_then(|s| s.parse::<u64>().ok())
                            .ok_or_else(|| bad(what))
                    };
                    let created_at = num(fields.next(), "bad created_at")?;
                    let expires_at = num(fields.next(), "bad expires_at")?;
                    let writes = num(fields.next(), "bad writes")?;
                    if let Some(rest) = id.strip_prefix('f') {
                        if let Ok(n) = rest.parse::<u64>() {
                            max_seq = max_seq.max(n);
                        }
                    }
                    loaded.insert(
                        id.clone(),
                        ForkInfo {
                            id,
                            base,
                            lease: Lease {
                                created_at,
                                expires_at,
                            },
                            writes,
                            touched: BTreeMap::new(),
                        },
                    );
                }
                Some("key") => {
                    let mut fields = line.splitn(4, '\t').skip(1);
                    let id = fields.next().ok_or_else(|| bad("missing fork id"))?;
                    let base = fields.next().ok_or_else(|| bad("missing base uid"))?;
                    let key = fields.next().ok_or_else(|| bad("missing key"))?.to_string();
                    let base = match base {
                        "-" => None,
                        hex => Some(Uid::from_hex(hex).ok_or_else(|| bad("bad base uid hex"))?),
                    };
                    loaded
                        .get_mut(id)
                        .ok_or_else(|| bad("key line before its fork line"))?
                        .touched
                        .insert(key, base);
                }
                _ => return Err(bad("unknown record tag")),
            }
        }
        let n = loaded.len();
        *self.forks.lock().unwrap() = loaded;
        // Keep generated ids collision-free across the reopen.
        self.next_seq.fetch_max(max_seq + 1, Ordering::Relaxed);
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// The spec a fork read of `key` resolves against.
    fn read_spec(&self, id: &str, key: &str) -> DbResult<VersionSpec> {
        let forks = self.forks.lock().unwrap();
        let info = self.live(&forks, id)?;
        Ok(if info.touched.contains_key(key) {
            VersionSpec::Branch(info.branch())
        } else {
            info.base.clone()
        })
    }

    /// Registry lookup that enforces the lease.
    fn live<'a>(&self, forks: &'a BTreeMap<String, ForkInfo>, id: &str) -> DbResult<&'a ForkInfo> {
        let now = self.clock.now();
        match forks.get(id) {
            Some(info) if info.lease.live_at(now) => Ok(info),
            _ => Err(DbError::ForkExpired {
                fork: id.to_string(),
            }),
        }
    }
}

/// Delete every `branch` head a fork created. Already-gone branches and
/// keys count as success (reaping is idempotent); any other error
/// aborts so the caller can retry the whole fork later.
fn drop_branches<B: Backend + ?Sized>(backend: &B, branch: &str, keys: &[String]) -> DbResult<u64> {
    let mut dropped = 0;
    for key in keys {
        match backend.delete_branch(key, branch) {
            Ok(()) => dropped += 1,
            Err(DbError::NoSuchKey(_)) | Err(DbError::NoSuchBranch { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(dropped)
}

/// Fork ids travel in branch names, URLs, CLI args, and the FORKS
/// record, so the alphabet is strict: `[A-Za-z0-9._-]`, 1..=64 chars.
fn validate_fork_id(id: &str) -> DbResult<()> {
    if id.is_empty() || id.len() > MAX_FORK_ID_LEN {
        return Err(DbError::InvalidInput(format!(
            "fork id must be 1..={MAX_FORK_ID_LEN} chars"
        )));
    }
    if !id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return Err(DbError::InvalidInput(format!(
            "fork id {id:?} has characters outside [A-Za-z0-9._-]"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ForkBase;
    use crate::forks::DiffSummary;
    use forkbase_store::MemStore;
    use forkbase_types::Value;

    fn db() -> ForkBase<MemStore> {
        ForkBase::with_config(MemStore::new(), forkbase_postree::TreeConfig::test_config())
    }

    fn svc() -> ForkService {
        ForkService::with_default_ttl(60)
    }

    #[test]
    fn create_is_o1_and_reads_pass_through_to_base() {
        let db = db();
        let s = svc();
        db.put("k", Value::Str("base".into()), &PutOptions::default())
            .unwrap();
        let f = s
            .create(VersionSpec::Branch("master".into()), None, None)
            .unwrap();
        assert!(f.touched.is_empty());
        let got = s.get(&db, &f.id, "k").unwrap();
        assert_eq!(got.value, Value::Str("base".into()));
        // Base moves on; an untouched key tracks it (live pass-through).
        db.put("k", Value::Str("base2".into()), &PutOptions::default())
            .unwrap();
        assert_eq!(
            s.get(&db, &f.id, "k").unwrap().value,
            Value::Str("base2".into())
        );
    }

    #[test]
    fn first_write_pins_base_and_isolates_both_directions() {
        let db = db();
        let s = svc();
        db.put("k", Value::Str("base".into()), &PutOptions::default())
            .unwrap();
        let f = s
            .create(VersionSpec::Branch("master".into()), None, None)
            .unwrap();
        s.put(
            &db,
            &f.id,
            "k",
            Value::Str("forked".into()),
            &PutOptions::default(),
        )
        .unwrap();
        // Fork sees its write; master does not.
        assert_eq!(
            s.get(&db, &f.id, "k").unwrap().value,
            Value::Str("forked".into())
        );
        assert_eq!(
            db.get("k", "master").unwrap().value,
            Value::Str("base".into())
        );
        // Master moving on no longer affects the touched key.
        db.put("k", Value::Str("base2".into()), &PutOptions::default())
            .unwrap();
        assert_eq!(
            s.get(&db, &f.id, "k").unwrap().value,
            Value::Str("forked".into())
        );
        // Diff-vs-base is against the pinned version, exact.
        let d = s.diff(&db, &f.id).unwrap();
        assert_eq!(d.keys.len(), 1);
        assert!(matches!(
            d.keys[0].summary,
            Some(DiffSummary::Primitive { .. })
        ));
    }

    #[test]
    fn fork_created_keys_have_no_base() {
        let db = db();
        let s = svc();
        let f = s
            .create(VersionSpec::Branch("master".into()), None, None)
            .unwrap();
        s.put(
            &db,
            &f.id,
            "fresh",
            Value::Str("v".into()),
            &PutOptions::default(),
        )
        .unwrap();
        let d = s.diff(&db, &f.id).unwrap();
        assert_eq!(d.keys[0].base, None);
        assert!(d.keys[0].summary.is_none());
        assert_eq!(d.changed_keys(), 1);
        // The key is invisible outside the fork.
        assert!(db.get("fresh", "master").is_err());
    }

    #[test]
    fn expiry_blocks_all_verbs_and_touch_renews() {
        let db = db();
        let s = svc();
        let f = s
            .create(VersionSpec::Branch("master".into()), Some(10), None)
            .unwrap();
        s.clock().advance(5);
        s.touch(&f.id, Some(10)).unwrap(); // renewed to t=15
        s.clock().advance(9);
        assert!(s.info(&f.id).is_ok(), "renewed lease still live at t=14");
        s.clock().advance(1);
        for err in [
            s.info(&f.id).unwrap_err(),
            s.touch(&f.id, None).unwrap_err(),
            s.get(&db, &f.id, "k").unwrap_err(),
            s.put(
                &db,
                &f.id,
                "k",
                Value::Str("v".into()),
                &PutOptions::default(),
            )
            .unwrap_err(),
            s.diff(&db, &f.id).unwrap_err(),
        ] {
            assert!(
                matches!(&err, DbError::ForkExpired { fork } if fork == &f.id),
                "expected ForkExpired, got {err:?}"
            );
        }
    }

    #[test]
    fn reap_drops_branches_and_registry_entries() {
        let db = db();
        let s = svc();
        db.put("k", Value::Str("base".into()), &PutOptions::default())
            .unwrap();
        let f = s
            .create(VersionSpec::Branch("master".into()), Some(10), None)
            .unwrap();
        s.put(
            &db,
            &f.id,
            "k",
            Value::Str("forked".into()),
            &PutOptions::default(),
        )
        .unwrap();
        let branch = f.branch();
        assert!(db
            .list_branches("k")
            .unwrap()
            .iter()
            .any(|b| b.name == branch));
        s.clock().advance(11);
        let report = s.reap_expired(&db);
        assert_eq!(report.reaped, vec![f.id.clone()]);
        assert_eq!(report.branches_dropped, 1);
        assert_eq!(report.failed, 0);
        assert!(!db
            .list_branches("k")
            .unwrap()
            .iter()
            .any(|b| b.name == branch));
        assert_eq!(s.len(), 0);
        // Idempotent: a second pass is a no-op.
        assert!(s.reap_expired(&db).reaped.is_empty());
    }

    #[test]
    fn dump_load_roundtrip_resumes_leases() {
        let db = db();
        let s = svc();
        db.put("k", Value::Str("base".into()), &PutOptions::default())
            .unwrap();
        let base_uid = db.head("k", "master").unwrap();
        let f1 = s
            .create(VersionSpec::Branch("master".into()), Some(100), None)
            .unwrap();
        let f2 = s
            .create(
                VersionSpec::Version(base_uid),
                Some(200),
                Some("pinned".into()),
            )
            .unwrap();
        s.put(
            &db,
            &f1.id,
            "k",
            Value::Str("forked".into()),
            &PutOptions::default(),
        )
        .unwrap();
        let dump = s.dump();

        let restored = ForkService::with_default_ttl(60);
        assert_eq!(restored.load(&dump).unwrap(), 2);
        let g1 = restored.info(&f1.id).unwrap();
        assert_eq!(g1.lease, f1.lease.clone());
        assert_eq!(g1.writes, 1);
        assert_eq!(g1.touched.get("k"), Some(&Some(base_uid)));
        let g2 = restored.info(&f2.id).unwrap();
        assert_eq!(g2.base, VersionSpec::Version(base_uid));
        // Fork reads still work through the restored registry.
        assert_eq!(
            restored.get(&db, &f1.id, "k").unwrap().value,
            Value::Str("forked".into())
        );
        // Generated ids don't collide with restored ones.
        let f3 = restored
            .create(VersionSpec::Branch("master".into()), None, None)
            .unwrap();
        assert_ne!(f3.id, f1.id);
    }

    #[test]
    fn load_rejects_garbage() {
        let s = svc();
        assert!(s.load("not-the-magic\n").is_err());
        assert!(s.load(&format!("{FORKS_MAGIC}\nfork\tid only\n")).is_err());
        assert!(s
            .load(&format!("{FORKS_MAGIC}\nkey\tghost\t-\tk\n"))
            .is_err());
    }

    #[test]
    fn fork_ids_are_validated() {
        let s = svc();
        let base = VersionSpec::Branch("master".into());
        assert!(s
            .create(base.clone(), None, Some("ok-id_1.x".into()))
            .is_ok());
        assert!(s.create(base.clone(), None, Some("".into())).is_err());
        assert!(s
            .create(base.clone(), None, Some("has space".into()))
            .is_err());
        assert!(s
            .create(base.clone(), None, Some("tab\tchar".into()))
            .is_err());
        assert!(s.create(base.clone(), None, Some("x".repeat(65))).is_err());
        // Duplicate ids refused while the fork is registered.
        assert!(s.create(base, None, Some("ok-id_1.x".into())).is_err());
    }

    #[test]
    fn drop_fork_works_even_after_expiry() {
        let db = db();
        let s = svc();
        db.put("k", Value::Str("base".into()), &PutOptions::default())
            .unwrap();
        let f = s
            .create(VersionSpec::Branch("master".into()), Some(5), None)
            .unwrap();
        s.put(
            &db,
            &f.id,
            "k",
            Value::Str("x".into()),
            &PutOptions::default(),
        )
        .unwrap();
        s.clock().advance(10);
        assert_eq!(s.drop_fork(&db, &f.id).unwrap(), 1);
        assert_eq!(s.len(), 0);
        assert!(matches!(
            s.drop_fork(&db, &f.id).unwrap_err(),
            DbError::ForkExpired { .. }
        ));
    }
}
