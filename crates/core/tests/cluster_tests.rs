//! Cluster rebalance and fault-path integration tests.
//!
//! The rebalance and dead-servelet suites are **transport-generic**: each
//! runs once over the in-process channel transport (`Cluster::new`) and
//! once over real loopback TCP (`ServeletServer` + `Cluster::connect`),
//! so the wire protocol is held to exactly the contract the channel
//! transport established. Chaos injection stays in-process-only (see
//! `cluster_chaos_tests.rs`) — the TCP transport ignores fault plans by
//! design, keeping chaos schedules deterministic.
//!
//! The heavy concurrent variant (`stress_…`) is `#[ignore]`d in tier-1 and
//! runs in the CI `stress` job (`cargo test --release -- --ignored stress`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use forkbase::{
    Cluster, ClusterTopology, DbError, DbResult, ForkBase, ForkService, PutOptions, ServeletServer,
    TopoRole, Uid, VersionSpec,
};
use forkbase_postree::TreeConfig;
use forkbase_store::MemStore;

/// Tiny deterministic PRNG (xorshift*) so the "random" workload is
/// reproducible without a dev-dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// Transport-generic harness
// ---------------------------------------------------------------------

enum Backend {
    /// Channel-pair transport: servelets are worker threads inside this
    /// process, maintenance closures run on the node itself.
    InProcess,
    /// Wire-protocol transport: servelets are `ServeletServer`s on
    /// loopback TCP and the cluster is a pure `connect()`-ed router.
    /// Maintenance-closure inspection goes through a side-channel handle
    /// to each servelet's database (same process, same `Arc`), since the
    /// router rightly refuses to ship closures over the network.
    Tcp,
}

struct RemoteServelet {
    /// `None` once killed — the listener is gone, connects are refused.
    server: Option<ServeletServer>,
    db: Arc<ForkBase<MemStore>>,
}

/// A cluster plus enough backend bookkeeping to run the same test body
/// over either transport.
struct TestCluster {
    c: Cluster<MemStore>,
    backend: Backend,
    cfg: TreeConfig,
    remote: Mutex<HashMap<u64, RemoteServelet>>,
}

impl TestCluster {
    fn in_process(n: usize) -> TestCluster {
        TestCluster {
            c: Cluster::new(n, TreeConfig::test_config()),
            backend: Backend::InProcess,
            cfg: TreeConfig::test_config(),
            remote: Mutex::new(HashMap::new()),
        }
    }

    fn tcp(n: usize) -> TestCluster {
        let cfg = TreeConfig::test_config();
        let mut remote = HashMap::new();
        let mut servelet_ids = Vec::new();
        let mut addrs = Vec::new();
        for id in 0..n as u64 {
            let db = Arc::new(ForkBase::with_config(MemStore::new(), cfg));
            let server = ServeletServer::spawn("127.0.0.1:0", Arc::clone(&db), None).unwrap();
            servelet_ids.push(id);
            addrs.push(Some(server.addr().to_string()));
            remote.insert(
                id,
                RemoteServelet {
                    server: Some(server),
                    db,
                },
            );
        }
        let roles = servelet_ids
            .iter()
            .map(|&id| TopoRole::Primary { anchor: id })
            .collect();
        let topology = ClusterTopology {
            servelet_ids,
            addrs,
            roles,
            next_id: n as u64,
        };
        TestCluster {
            c: Cluster::connect(&topology, cfg).unwrap(),
            backend: Backend::Tcp,
            cfg,
            remote: Mutex::new(remote),
        }
    }

    /// Run `f` against the database of the servelet owning `key`.
    fn with_key<R: Send + 'static>(
        &self,
        key: &str,
        f: impl FnOnce(&ForkBase<MemStore>) -> R + Send + 'static,
    ) -> DbResult<R> {
        match self.backend {
            Backend::InProcess => self.c.with_key(key, f),
            Backend::Tcp => {
                let id = self.c.owner_id(key);
                let remote = self.remote.lock().unwrap();
                Ok(f(&remote[&id].db))
            }
        }
    }

    /// Run `f` against the database of the servelet at `slot`.
    fn on_node<R: Send + 'static>(
        &self,
        slot: usize,
        f: impl FnOnce(&ForkBase<MemStore>) -> R + Send + 'static,
    ) -> DbResult<R> {
        match self.backend {
            Backend::InProcess => self.c.on_node(slot, f),
            Backend::Tcp => {
                let id = self.c.ids()[slot];
                let remote = self.remote.lock().unwrap();
                Ok(f(&remote[&id].db))
            }
        }
    }

    /// Grow the cluster by one servelet over the backend's transport.
    fn add_servelet(&self) -> DbResult<u64> {
        match self.backend {
            Backend::InProcess => self.c.add_servelet(MemStore::new()),
            Backend::Tcp => {
                let db = Arc::new(ForkBase::with_config(MemStore::new(), self.cfg));
                let server = ServeletServer::spawn("127.0.0.1:0", Arc::clone(&db), None)?;
                let addr = server.addr().to_string();
                let id = self.c.add_remote_servelet(addr)?;
                self.remote.lock().unwrap().insert(
                    id,
                    RemoteServelet {
                        server: Some(server),
                        db,
                    },
                );
                Ok(id)
            }
        }
    }

    /// Drain and remove servelet `id`; over TCP also stop its server.
    fn remove_servelet(&self, id: u64) -> DbResult<()> {
        self.c.remove_servelet(id)?;
        if let Backend::Tcp = self.backend {
            if let Some(r) = self.remote.lock().unwrap().remove(&id) {
                if let Some(server) = r.server {
                    server.stop();
                }
            }
        }
        Ok(())
    }

    /// Attach a replica to primary `pid` over the backend's transport.
    fn add_replica(&self, pid: u64) -> DbResult<u64> {
        match self.backend {
            Backend::InProcess => self.c.add_replica(pid, MemStore::new()),
            Backend::Tcp => {
                let db = Arc::new(ForkBase::with_config(MemStore::new(), self.cfg));
                let server = ServeletServer::spawn("127.0.0.1:0", Arc::clone(&db), None)?;
                let addr = server.addr().to_string();
                let id = self.c.add_remote_replica(pid, addr)?;
                self.remote.lock().unwrap().insert(
                    id,
                    RemoteServelet {
                        server: Some(server),
                        db,
                    },
                );
                Ok(id)
            }
        }
    }

    /// Kill the servelet at `slot` without removing it from the ring:
    /// in-process that shuts down the worker thread; over TCP it stops
    /// the listener so the router sees connection-refused.
    fn kill(&self, slot: usize) -> DbResult<()> {
        match self.backend {
            Backend::InProcess => self.c.kill_servelet(slot),
            Backend::Tcp => {
                let id = self.c.ids()[slot];
                if let Some(server) = self
                    .remote
                    .lock()
                    .unwrap()
                    .get_mut(&id)
                    .and_then(|r| r.server.take())
                {
                    server.stop();
                }
                Ok(())
            }
        }
    }
}

/// Everything about a key's state that migration must preserve.
#[derive(Debug, PartialEq)]
struct KeyFingerprint {
    /// Branch name → head uid.
    heads: Vec<(String, Uid)>,
    /// Full first-parent history uids on master.
    history: Vec<Uid>,
}

fn fingerprint(h: &TestCluster, key: &str) -> KeyFingerprint {
    let owned = key.to_string();
    h.with_key(key, move |db| {
        let heads = db
            .list_branches(&owned)
            .unwrap()
            .into_iter()
            .map(|b| (b.name, b.head))
            .collect();
        let history = db
            .history(&owned, &VersionSpec::branch("master"))
            .unwrap()
            .into_iter()
            .map(|h| h.uid)
            .collect();
        KeyFingerprint { heads, history }
    })
    .unwrap()
}

/// Build a randomized workload: `n` keys, 1–4 versions each, some extra
/// branches, a couple of map-valued keys for proof checks. Returns the
/// map-valued key names.
fn seed_workload(h: &TestCluster, rng: &mut Rng, n: usize) -> Vec<String> {
    for i in 0..n {
        let key = format!("key-{i:03}");
        for rev in 0..=rng.below(3) {
            h.c.put_string(
                &key,
                format!("contents of {key} rev {rev} pad {}", rng.below(1 << 20)),
                PutOptions::default().author("seed"),
            )
            .unwrap();
        }
        if rng.below(3) == 0 {
            let branch = format!("b{}", rng.below(2));
            h.with_key(&key, {
                let key = key.clone();
                move |db| db.branch(&key, "master", &branch)
            })
            .unwrap()
            .unwrap();
        }
    }
    // Map-valued keys: these support entry proofs, the strongest
    // tamper-evidence check we can replay after migration.
    let mut map_keys = Vec::new();
    for m in 0..4 {
        let key = format!("map-{m}");
        let pairs: Vec<(Bytes, Bytes)> = (0..200)
            .map(|i| {
                (
                    Bytes::from(format!("row{i:04}")),
                    Bytes::from(format!("val{}", rng.below(1 << 30))),
                )
            })
            .collect();
        h.with_key(&key, {
            let key = key.clone();
            move |db| {
                let map = db.new_map(pairs)?;
                db.put(&key, map, &PutOptions::default())
            }
        })
        .unwrap()
        .unwrap();
        map_keys.push(key);
    }
    map_keys
}

/// The rebalance property: after growing and shrinking the cluster under a
/// random workload, every key is still readable with identical version
/// uids and full history, verification and entry proofs still pass on
/// migrated keys, only keys whose ring owner changed moved, and the total
/// stored bytes don't balloon past what migration can legitimately add.
fn rebalance_case(h: &TestCluster) {
    let mut rng = Rng(0x5EED_F08B_A5E5_0001);
    let map_keys = seed_workload(h, &mut rng, 80);

    let all_keys = h.c.list_keys().unwrap();
    let owners_before: Vec<(String, u64)> = all_keys
        .iter()
        .map(|k| (k.clone(), h.c.owner_id(k)))
        .collect();
    let prints_before: Vec<KeyFingerprint> = all_keys.iter().map(|k| fingerprint(h, k)).collect();
    // Entry proofs against the pre-migration head uid.
    let proofs_before: Vec<(String, Uid, forkbase_postree::MerkleProof)> = map_keys
        .iter()
        .map(|key| {
            let owned = key.clone();
            let (proof, uid) = h
                .with_key(key, move |db| {
                    db.prove_entry(&owned, &VersionSpec::branch("master"), b"row0042")
                })
                .unwrap()
                .unwrap();
            (key.clone(), uid, proof)
        })
        .collect();
    let bytes_before = h.c.total_stored_bytes().unwrap();

    // Grow, then shrink: two full migrations.
    let new_id = h.add_servelet().unwrap();
    let removed = h.c.ids()[0];
    h.remove_servelet(removed).unwrap();

    // Membership changed, key set did not.
    assert_eq!(h.c.list_keys().unwrap(), all_keys);

    let mut migrated = 0usize;
    for ((key, owner_before), print_before) in owners_before.iter().zip(&prints_before) {
        let owner_now = h.c.owner_id(key);
        let moved = owner_now != *owner_before;
        if moved {
            migrated += 1;
            // Only two legitimate destinations exist: the added servelet,
            // or (for keys of the removed one) any survivor.
            assert!(
                owner_now == new_id || *owner_before == removed,
                "{key} moved {owner_before}->{owner_now} although its ring owner \
                 should not have changed"
            );
        }
        // Heads, history, and uids are byte-identical wherever it lives.
        assert_eq!(
            &fingerprint(h, key),
            print_before,
            "{key} fingerprint drifted"
        );
        // Tamper evidence survives the move: full-history verification on
        // the (possibly new) owner.
        let owned = key.clone();
        let verified = h
            .with_key(key, move |db| db.verify_branch(&owned, "master"))
            .unwrap()
            .unwrap();
        assert!(verified >= 1);
    }
    assert!(migrated > 0, "add+remove must move some keys");
    assert!(
        migrated < all_keys.len(),
        "consistent hashing must not reshuffle everything"
    );

    // Entry proofs replay against the SAME uid after migration: chunk
    // addresses survived byte-identically.
    for (key, uid, proof) in proofs_before {
        let owned = key.clone();
        let value = h
            .with_key(&key, move |db| {
                let head = db.head(&owned, "master")?;
                assert_eq!(head, uid, "{owned} head uid changed across migration");
                db.verify_entry_proof(&uid, b"row0042", &proof)
            })
            .unwrap()
            .unwrap();
        assert!(value.is_some(), "{key} proof no longer verifies");
    }

    // Dedup economics: migration copies chunks before GC reclaims the
    // source copies, so after a cluster-wide GC the footprint must come
    // back to the pre-rebalance ballpark (placement changed, content did
    // not; only cross-key dedup lost to re-partitioning may add a little).
    let gc = h.c.gc().unwrap();
    assert!(gc.degraded.is_empty(), "every servelet is alive");
    for (_, report) in gc.reports {
        assert_eq!(report.sweep.chunks_rewritten, 0, "MemStore never rewrites");
    }
    let bytes_after = h.c.total_stored_bytes().unwrap();
    assert!(
        bytes_after as f64 <= bytes_before as f64 * 1.10,
        "stored bytes regressed past the dedup ratio: {bytes_before} -> {bytes_after}"
    );
    assert!(
        bytes_after as f64 >= bytes_before as f64 * 0.90,
        "stored bytes shrank implausibly: {bytes_before} -> {bytes_after}"
    );
}

#[test]
fn rebalance_preserves_history_proofs_and_dedup() {
    rebalance_case(&TestCluster::in_process(3));
}

#[test]
fn rebalance_preserves_history_proofs_and_dedup_over_tcp() {
    rebalance_case(&TestCluster::tcp(3));
}

/// Dead-servelet error path: a downed worker yields a structured,
/// machine-readable error on every routed verb, and the rest of the
/// cluster keeps serving.
fn dead_servelet_case(h: &TestCluster) {
    for i in 0..30 {
        h.c.put_string(&format!("k{i}"), format!("v{i}"), PutOptions::default())
            .unwrap();
    }
    let victim_slot = h.c.route("k0");
    h.kill(victim_slot).unwrap();

    // Routed single-key verbs.
    let err = h.c.get("k0", "master").unwrap_err();
    assert_eq!(err.code(), "servelet_unavailable");
    assert!(matches!(err, DbError::ServeletUnavailable { .. }));
    assert!(h
        .c
        .put(
            "k0",
            forkbase_types::Value::string("x"),
            PutOptions::default()
        )
        .is_err());

    // Scatter-gather verbs surface the same structured error instead of
    // hanging or panicking.
    assert_eq!(h.c.list_keys().unwrap_err().code(), "servelet_unavailable");
    assert_eq!(h.c.stats().unwrap_err().code(), "servelet_unavailable");

    // A batch whose groups include the dead servelet fails with the same
    // code; groups routed entirely to live servelets still commit.
    let live_key = (0..)
        .map(|i| format!("probe-{i}"))
        .find(|k| h.c.route(k) != victim_slot)
        .unwrap();
    let mut wb = h.c.write_batch();
    wb.put(
        &live_key,
        forkbase_types::Value::string("ok"),
        &PutOptions::default(),
    );
    wb.put(
        "k0",
        forkbase_types::Value::string("dead"),
        &PutOptions::default(),
    );
    assert_eq!(wb.commit().unwrap_err().code(), "servelet_unavailable");

    // Live servelets keep serving routed traffic.
    h.c.put_string(&live_key, "still here".into(), PutOptions::default())
        .unwrap();
    assert_eq!(
        h.c.get(&live_key, "master").unwrap().value.as_str(),
        Some("still here")
    );
}

#[test]
fn dead_servelet_error_paths_are_structured() {
    dead_servelet_case(&TestCluster::in_process(3));
}

#[test]
fn dead_servelet_error_paths_are_structured_over_tcp() {
    dead_servelet_case(&TestCluster::tcp(3));
}

/// Heavy variant for the CI stress job: clients hammer routed puts/gets
/// while the cluster grows and shrinks repeatedly. Rebalance is
/// stop-the-world for routed verbs, so clients may block but must never
/// fail, lose a write, or observe a key mid-migration.
#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_cluster_rebalance_with_concurrent_clients() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let c = Arc::new(Cluster::new(3, TreeConfig::test_config()));
    let stop = Arc::new(AtomicBool::new(false));
    const CLIENTS: usize = 6;
    const MIN_PUTS_PER_CLIENT: usize = 200;
    const REBALANCE_CYCLES: usize = 6;

    // Clients write (and read back) until the rebalancer has finished all
    // its cycles, so the traffic is guaranteed to overlap every topology
    // change. Each returns how many puts it committed.
    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while i < MIN_PUTS_PER_CLIENT || !stop.load(Ordering::Relaxed) {
                let key = format!("client{t}-key{i}");
                c.put_string(&key, format!("payload {t}/{i}"), PutOptions::default())
                    .unwrap();
                // Read-your-write through the router, even mid-rebalance.
                let got = c.get(&key, "master").unwrap();
                assert_eq!(
                    got.value.as_str(),
                    Some(format!("payload {t}/{i}").as_str())
                );
                i += 1;
            }
            i
        }));
    }

    // Rebalancer: a fixed number of grow/shrink cycles while clients run.
    let rebalancer = {
        let c = Arc::clone(&c);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut added: Vec<u64> = Vec::new();
            for _ in 0..REBALANCE_CYCLES {
                let id = c.add_servelet(MemStore::new()).unwrap();
                added.push(id);
                std::thread::sleep(std::time::Duration::from_millis(10));
                if added.len() > 2 {
                    let victim = added.remove(0);
                    c.remove_servelet(victim).unwrap();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            stop.store(true, Ordering::Relaxed);
        })
    };

    let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    rebalancer.join().unwrap();

    // Every write landed exactly once, wherever it now lives.
    let keys = c.list_keys().unwrap();
    assert_eq!(keys.len(), committed);
    assert!(c.len() > 3, "the added servelets are live cluster members");
    for t in 0..CLIENTS {
        for i in (0..MIN_PUTS_PER_CLIENT).step_by(37) {
            let key = format!("client{t}-key{i}");
            let got = c.get(&key, "master").unwrap();
            assert_eq!(
                got.value.as_str(),
                Some(format!("payload {t}/{i}").as_str())
            );
        }
    }
}

/// Residue of an interrupted rebalance — the same key present on two
/// servelets, diverged by later writes to the real owner — must be healed
/// by the next rebalance (stale copy dropped, authoritative copy kept),
/// not wedge it with an import conflict.
fn residue_case(h: &TestCluster) {
    for i in 0..30 {
        h.c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
            .unwrap();
    }
    // Fabricate the crash-window residue: copy key-0's bundle onto a
    // non-owner servelet, then diverge the authoritative copy.
    let owner = h.c.route("key-0");
    let stale_slot = (owner + 1) % 3;
    let bundle = h
        .on_node(owner, |db| {
            let mut buf = Vec::new();
            forkbase::export_bundle(db, "key-0", &[], &mut buf)?;
            Ok::<_, forkbase::DbError>(buf)
        })
        .unwrap()
        .unwrap();
    h.on_node(stale_slot, move |db| {
        forkbase::import_bundle(db, &mut bundle.as_slice()).map(|_| ())
    })
    .unwrap()
    .unwrap();
    h.c.put_string("key-0", "diverged".into(), PutOptions::default())
        .unwrap();

    // list_keys dedups the transient double listing.
    assert_eq!(h.c.list_keys().unwrap().len(), 30);

    // Grow then shrink: both rebalances must converge and keep serving
    // the diverged (authoritative) value.
    let id = h.add_servelet().unwrap();
    assert_eq!(
        h.c.get("key-0", "master").unwrap().value.as_str(),
        Some("diverged")
    );
    let copies = (0..h.c.len())
        .filter(|&slot| {
            h.on_node(slot, |db| db.list_keys().contains(&"key-0".to_string()))
                .unwrap()
        })
        .count();
    assert_eq!(copies, 1, "stale copy must be gone after the rebalance");
    h.remove_servelet(id).unwrap();
    assert_eq!(
        h.c.get("key-0", "master").unwrap().value.as_str(),
        Some("diverged")
    );
    assert_eq!(h.c.list_keys().unwrap().len(), 30);
}

#[test]
fn interrupted_rebalance_residue_heals_on_next_rebalance() {
    residue_case(&TestCluster::in_process(3));
}

#[test]
fn interrupted_rebalance_residue_heals_on_next_rebalance_over_tcp() {
    residue_case(&TestCluster::tcp(3));
}

// ---------------------------------------------------------------------
// Replication (transport-generic)
// ---------------------------------------------------------------------

/// A replica serves idempotent reads with the staleness bound surfaced:
/// caught up it answers with lag 0; behind it answers stale with the lag
/// stated; after a ship pass it is fresh again.
fn replica_read_case(h: &TestCluster) {
    h.c.put_string("doc", "v1".into(), PutOptions::default())
        .unwrap();
    let pid = h.c.owner_id("doc");
    let rid = h.add_replica(pid).unwrap();

    // The attach-time full sync carried the pre-existing write.
    let read = h.c.get_from_replica("doc", "master").unwrap();
    assert!(read.from_replica);
    assert_eq!(read.servelet, rid);
    assert_eq!(read.lag, 0);
    assert_eq!(read.result.value.as_str(), Some("v1"));

    // An unshipped write shows up as lag; the read is stale and says so.
    h.c.put_string("doc", "v2".into(), PutOptions::default())
        .unwrap();
    let read = h.c.get_from_replica("doc", "master").unwrap();
    assert!(read.from_replica);
    assert_eq!(read.lag, 1);
    assert_eq!(read.result.value.as_str(), Some("v1"));

    // Ship, then the replica is fresh.
    let report = h.c.ship_replication();
    assert!(report.failed.is_empty(), "ship failed: {:?}", report.failed);
    let read = h.c.get_from_replica("doc", "master").unwrap();
    assert_eq!(read.lag, 0);
    assert_eq!(read.result.value.as_str(), Some("v2"));

    // Reads of keys on un-replicated primaries degrade to the primary.
    let unreplicated = (0..)
        .map(|i| format!("probe-{i}"))
        .find(|k| h.c.owner_id(k) != pid)
        .unwrap();
    h.c.put_string(&unreplicated, "p".into(), PutOptions::default())
        .unwrap();
    let read = h.c.get_from_replica(&unreplicated, "master").unwrap();
    assert!(!read.from_replica);
    assert_eq!(read.lag, 0);
}

#[test]
fn replica_serves_reads_with_staleness_bound() {
    replica_read_case(&TestCluster::in_process(3));
}

#[test]
fn replica_serves_reads_with_staleness_bound_over_tcp() {
    replica_read_case(&TestCluster::tcp(3));
}

/// A replica that fell far behind catches up: `catch_up_replica` leaves
/// it at lag 0 mirroring the primary's exact branch heads and histories.
fn replica_catch_up_case(h: &TestCluster) {
    let pid = h.c.ids()[0];
    let rid = h.add_replica(pid).unwrap();
    let mut rng = Rng(0x5EED_F08B_A5E5_0002);
    seed_workload(h, &mut rng, 40);

    h.c.catch_up_replica(rid).unwrap();
    let status = h.c.replication_status();
    let r = status
        .primaries
        .iter()
        .flat_map(|p| p.replicas.iter())
        .find(|r| r.id == rid)
        .unwrap();
    assert_eq!(r.lag, 0);
    assert_eq!(r.pending, 0);
    assert!(!r.needs_full_sync);

    // The mirror is exact: every key the primary owns reads identically
    // (same head uid) from the replica.
    for key in h.c.list_keys().unwrap() {
        if h.c.owner_id(&key) != pid {
            continue;
        }
        let primary_head = h.c.get(&key, "master").unwrap().uid;
        let read = h.c.get_from_replica(&key, "master").unwrap();
        assert!(read.from_replica, "{key} not served by the replica");
        assert_eq!(read.result.uid, primary_head, "{key} head drifted");
    }
}

#[test]
fn lagging_replica_catches_up_exactly() {
    replica_catch_up_case(&TestCluster::in_process(3));
}

#[test]
fn lagging_replica_catches_up_exactly_over_tcp() {
    replica_catch_up_case(&TestCluster::tcp(3));
}

/// The failover property: kill a primary with acked writes still sitting
/// in the ship log, promote its replica, and every acked write — head
/// uid and history — survives, with placement unchanged.
fn promote_preserves_acked_case(h: &TestCluster) {
    for i in 0..40 {
        h.c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
            .unwrap();
    }
    let pid = h.c.ids()[0];
    let slot = 0;
    let rid = h.add_replica(pid).unwrap();

    // Acked writes after the attach, deliberately never shipped: the only
    // copies outside the primary live in the router's ship log.
    let mut acked: Vec<(String, Uid)> = Vec::new();
    for i in 40..90 {
        let key = format!("key-{i}");
        let commit =
            h.c.put_string(&key, format!("v{i}"), PutOptions::default())
                .unwrap();
        acked.push((key, commit.uid));
    }
    let owners_before: Vec<(String, usize)> =
        h.c.list_keys()
            .unwrap()
            .into_iter()
            .map(|k| {
                let slot = h.c.route(&k);
                (k, slot)
            })
            .collect();

    h.kill(slot).unwrap();
    let old = h.c.promote_replica(rid).unwrap();
    assert_eq!(old, pid);
    assert!(h.c.ids().contains(&rid));
    assert!(!h.c.ids().contains(&pid), "the dead id left the topology");

    // Zero key movement: every key still routes to the same slot.
    for (key, slot_before) in owners_before {
        assert_eq!(h.c.route(&key), slot_before, "{key} moved on promotion");
    }
    // Every acked write survived with its exact head uid.
    for (key, uid) in &acked {
        let got = h.c.get(key, "master").unwrap();
        assert_eq!(&got.uid, uid, "{key} lost its acked head");
    }
    // And everything else is still served.
    for i in 0..90 {
        assert!(h.c.get(&format!("key-{i}"), "master").is_ok());
    }
    // The cluster remains writable through the promoted slot.
    h.c.put_string("key-0", "after failover".into(), PutOptions::default())
        .unwrap();
    assert_eq!(
        h.c.get("key-0", "master").unwrap().value.as_str(),
        Some("after failover")
    );
}

#[test]
fn promote_after_kill_preserves_every_acked_write() {
    promote_preserves_acked_case(&TestCluster::in_process(3));
}

#[test]
fn promote_after_kill_preserves_every_acked_write_over_tcp() {
    promote_preserves_acked_case(&TestCluster::tcp(3));
}

/// Replica-aware partial reads: a dead primary's caught-up replica
/// answers `stats_partial`/`list_keys_partial` in its stead (attributed
/// to the primary's id); a *lagging* replica does not — the lag bound
/// keeps degraded-mode answers exact as of the last shipped write.
fn partial_reads_fall_back_to_replica_case(h: &TestCluster) {
    for i in 0..30 {
        h.c.put_string(&format!("key-{i}"), format!("v{i}"), PutOptions::default())
            .unwrap();
    }
    let pid = h.c.ids()[0];
    let _rid = h.add_replica(pid).unwrap();
    // A write to the replicated shard that is acked but never shipped:
    // the replica now lags by one.
    let shard_key = (0..)
        .map(|i| format!("probe-{i}"))
        .find(|k| h.c.owner_id(k) == pid)
        .unwrap();
    h.c.put_string(&shard_key, "unshipped".into(), PutOptions::default())
        .unwrap();
    h.kill(0).unwrap();

    // Lagging replica: the primary stays degraded (lag-bounded refusal).
    let stats = h.c.stats_partial();
    assert_eq!(stats.degraded, vec![pid]);
    assert!(stats.results.iter().all(|(id, _)| *id != pid));

    // Ship log drains without the primary (payloads are self-contained);
    // at lag 0 the replica answers for the dead primary.
    let report = h.c.ship_replication();
    assert!(report.failed.is_empty(), "ship failed: {:?}", report.failed);
    let stats = h.c.stats_partial();
    assert!(stats.degraded.is_empty(), "degraded: {:?}", stats.degraded);
    assert!(stats.results.iter().any(|(id, _)| *id == pid));

    let keys = h.c.list_keys_partial();
    assert!(keys.degraded.is_empty(), "degraded: {:?}", keys.degraded);
    let from_fallback: &Vec<String> = &keys
        .results
        .iter()
        .find(|(id, _)| *id == pid)
        .expect("replica answered for the dead primary")
        .1;
    assert!(
        from_fallback.contains(&shard_key),
        "the shipped write is visible through the fallback"
    );
}

#[test]
fn partial_reads_fall_back_to_caught_up_replica() {
    partial_reads_fall_back_to_replica_case(&TestCluster::in_process(3));
}

#[test]
fn partial_reads_fall_back_to_caught_up_replica_over_tcp() {
    partial_reads_fall_back_to_replica_case(&TestCluster::tcp(3));
}

// ---------------------------------------------------------------------
// Fork sandboxes over the cluster (transport-generic)
// ---------------------------------------------------------------------

/// Fork verbs route like normal verbs: lazy branch-from-version and the
/// fork's writes land on the owning servelet, isolation holds both ways,
/// diff-vs-base crosses the wire as a bounded summary, and expiry +
/// reaping behave identically over both transports.
fn fork_ops_route_like_normal_verbs_case(h: &TestCluster) {
    let svc = ForkService::with_default_ttl(60);
    h.c.put_string("doc", "base".into(), PutOptions::default())
        .unwrap();
    let fork = svc
        .create(VersionSpec::Branch("master".into()), None, None)
        .unwrap();

    // First fork write lazily forks the key on its owning servelet.
    svc.put(
        &h.c,
        &fork.id,
        "doc",
        forkbase_types::Value::string("forked"),
        &PutOptions::default(),
    )
    .unwrap();
    assert_eq!(
        svc.get(&h.c, &fork.id, "doc").unwrap().value.as_str(),
        Some("forked")
    );
    // Isolation: master unchanged; fork branch exists only as fork/<id>.
    assert_eq!(
        h.c.get("doc", "master").unwrap().value.as_str(),
        Some("base")
    );
    let branch = fork.branch();
    let on_owner = {
        let b = branch.clone();
        h.with_key("doc", move |db| {
            db.list_branches("doc")
                .map(|bs| bs.iter().any(|i| i.name == b))
        })
        .unwrap()
        .unwrap()
    };
    assert!(on_owner, "fork branch lives on the owning servelet");

    // A key created inside the fork is invisible outside it.
    svc.put(
        &h.c,
        &fork.id,
        "fresh",
        forkbase_types::Value::string("new"),
        &PutOptions::default(),
    )
    .unwrap();
    // (The key now exists — holding only the fork's branch — so master
    // is a missing *branch*, not a missing key.)
    assert_eq!(
        h.c.get("fresh", "master").unwrap_err().code(),
        "no_such_branch"
    );

    // Diff-vs-base crosses the wire as a summary: one changed key, one
    // created key.
    let diff = svc.diff(&h.c, &fork.id).unwrap();
    assert_eq!(diff.keys.len(), 2);
    assert_eq!(diff.changed_keys(), 2);
    let doc = diff.keys.iter().find(|k| k.key == "doc").unwrap();
    assert!(doc.base.is_some() && doc.summary.is_some());
    let fresh = diff.keys.iter().find(|k| k.key == "fresh").unwrap();
    assert!(fresh.base.is_none() && fresh.summary.is_none());

    // Expiry: every verb answers with the structured code.
    svc.clock().advance(61);
    assert_eq!(
        svc.get(&h.c, &fork.id, "doc").unwrap_err().code(),
        "fork_expired"
    );
    // Reap drops the fork's branches on their owning servelets.
    let report = svc.reap_expired(&h.c);
    assert_eq!(report.reaped, vec![fork.id.clone()]);
    assert_eq!(report.branches_dropped, 2);
    let gone = {
        let b = branch.clone();
        h.with_key("doc", move |db| {
            db.list_branches("doc")
                .map(|bs| bs.iter().all(|i| i.name != b))
        })
        .unwrap()
        .unwrap()
    };
    assert!(
        gone,
        "reap removed the fork branch from the owning servelet"
    );
    assert_eq!(
        h.c.get("doc", "master").unwrap().value.as_str(),
        Some("base")
    );
}

#[test]
fn fork_ops_route_like_normal_verbs() {
    fork_ops_route_like_normal_verbs_case(&TestCluster::in_process(3));
}

#[test]
fn fork_ops_route_like_normal_verbs_over_tcp() {
    fork_ops_route_like_normal_verbs_case(&TestCluster::tcp(3));
}

// ---------------------------------------------------------------------
// Pooled router→servelet connections
// ---------------------------------------------------------------------

/// A byte-forwarding proxy in front of one `ServeletServer`. It counts
/// the connections the router opens and, while `hold` is set, keeps each
/// request back until its partner proxy has one too.
struct Proxy {
    accept: forkbase::AcceptLoop,
    accepts: Arc<std::sync::atomic::AtomicUsize>,
    hold: Arc<std::sync::atomic::AtomicBool>,
}

impl Proxy {
    fn spawn(upstream: std::net::SocketAddr, rendezvous: Arc<std::sync::Barrier>) -> Proxy {
        use std::io::{Read, Write};
        use std::net::{Shutdown, TcpListener, TcpStream};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let accepts = Arc::new(AtomicUsize::new(0));
        let hold = Arc::new(AtomicBool::new(false));
        let (count, held) = (Arc::clone(&accepts), Arc::clone(&hold));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let accept = forkbase::AcceptLoop::spawn(listener, move |mut client, _peer| {
            count.fetch_add(1, Ordering::SeqCst);
            let mut up = TcpStream::connect(upstream).unwrap();
            let (mut replies, mut back) = (up.try_clone().unwrap(), client.try_clone().unwrap());
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut replies, &mut back);
                let _ = back.shutdown(Shutdown::Both);
            });
            let (held, rendezvous) = (Arc::clone(&held), Arc::clone(&rendezvous));
            std::thread::spawn(move || {
                // The requests used here fit one read.
                let mut buf = [0u8; 64 * 1024];
                while let Ok(n @ 1..) = client.read(&mut buf) {
                    if held.load(Ordering::SeqCst) {
                        rendezvous.wait();
                    }
                    if up.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                let _ = up.shutdown(Shutdown::Both);
            });
        })
        .unwrap();
        Proxy {
            accept,
            accepts,
            hold,
        }
    }
}

fn two_remote_primaries(addrs: [String; 2]) -> ClusterTopology {
    ClusterTopology {
        servelet_ids: vec![0, 1],
        addrs: addrs.into_iter().map(Some).collect(),
        roles: vec![
            TopoRole::Primary { anchor: 0 },
            TopoRole::Primary { anchor: 1 },
        ],
        next_id: 2,
    }
}

#[test]
fn routed_calls_share_one_connection_and_scatter_begins_all_before_gathering_over_tcp() {
    use std::sync::atomic::Ordering;
    let cfg = TreeConfig::test_config();
    let servers: Vec<ServeletServer> = (0..2)
        .map(|_| {
            let db = Arc::new(ForkBase::with_config(MemStore::new(), cfg));
            ServeletServer::spawn("127.0.0.1:0", db, None).unwrap()
        })
        .collect();
    let rendezvous = Arc::new(std::sync::Barrier::new(2));
    let proxies: Vec<Proxy> = servers
        .iter()
        .map(|s| Proxy::spawn(s.addr(), Arc::clone(&rendezvous)))
        .collect();
    let topology = two_remote_primaries([
        proxies[0].accept.addr().to_string(),
        proxies[1].accept.addr().to_string(),
    ]);
    let connect = || {
        let c = Cluster::<MemStore>::connect(&topology, cfg).unwrap();
        // A scatter that gathered one node before beginning the next
        // would sit in the held proxy until this deadline, then fail.
        c.set_rpc_config(forkbase::RpcConfig {
            deadline: std::time::Duration::from_secs(2),
            ..forkbase::RpcConfig::default()
        });
        c
    };

    // Sequential routed verbs: one accepted connection per servelet,
    // however many calls.
    let c = connect();
    for i in 0..40 {
        let key = format!("k{i}");
        c.put_string(&key, format!("v{i}"), PutOptions::default())
            .unwrap();
        assert_eq!(
            c.get(&key, "master").unwrap().value.as_str(),
            Some(&*format!("v{i}"))
        );
    }
    for p in &proxies {
        assert_eq!(p.accepts.load(Ordering::SeqCst), 1);
    }

    // Scatter on pooled connections: both requests are on the wire
    // before either reply is awaited.
    for p in &proxies {
        p.hold.store(true, Ordering::SeqCst);
    }
    assert_eq!(c.list_keys().unwrap().len(), 40);
    for p in &proxies {
        assert_eq!(
            p.accepts.load(Ordering::SeqCst),
            1,
            "scatter reused the pool"
        );
    }
    // And from a cold pool, where each attempt has to dial first.
    let cold = connect();
    assert_eq!(cold.list_keys().unwrap().len(), 40);
    for p in &proxies {
        assert_eq!(p.accepts.load(Ordering::SeqCst), 2);
    }
}

#[test]
fn stopped_servelet_is_down_for_a_router_holding_its_connection_over_tcp() {
    let cfg = TreeConfig::test_config();
    let dbs: Vec<Arc<ForkBase<MemStore>>> = (0..2)
        .map(|_| Arc::new(ForkBase::with_config(MemStore::new(), cfg)))
        .collect();
    let mut servers: Vec<ServeletServer> = dbs
        .iter()
        .map(|db| ServeletServer::spawn("127.0.0.1:0", Arc::clone(db), None).unwrap())
        .collect();
    let addrs = [servers[0].addr().to_string(), servers[1].addr().to_string()];
    let c = Cluster::<MemStore>::connect(&two_remote_primaries(addrs.clone()), cfg).unwrap();
    // No retries: an ambiguous outcome on the first attempt would surface.
    c.set_rpc_config(forkbase::RpcConfig {
        retry: forkbase::RetryPolicy::no_retry(),
        ..forkbase::RpcConfig::default()
    });
    let slot = c.route("k");
    c.put_string("k", "before".into(), PutOptions::default())
        .unwrap();

    // The router now holds an open connection to the owner. Stopping the
    // servelet must close it, not leave a side door into a "stopped" node.
    servers[slot].stop();
    let err = c
        .put_string("k", "during".into(), PutOptions::default())
        .unwrap_err();
    assert!(matches!(err, DbError::ServeletUnavailable { .. }), "{err}");
    assert_eq!(
        c.get("k", "master").unwrap_err().code(),
        "servelet_unavailable"
    );
    let head = dbs[slot].get("k", "master").unwrap();
    assert_eq!(head.value.as_str(), Some("before"), "nothing got through");

    // Respawn on the same address: the stale pooled socket is noticed
    // before use, so the very next write goes through on a fresh one.
    servers[slot] = ServeletServer::spawn(&addrs[slot], Arc::clone(&dbs[slot]), None).unwrap();
    c.put_string("k", "after".into(), PutOptions::default())
        .unwrap();
    assert_eq!(c.get("k", "master").unwrap().value.as_str(), Some("after"));
}
