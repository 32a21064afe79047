//! Self-healing cluster tests: RPC deadlines, the ambiguous-write retry
//! rule, supervised restart from durable backends, dead-servelet errors,
//! and the seeded chaos harness.
//!
//! The fast tests here run in tier-1. The seeded property suite is
//! `#[ignore]`d under the `chaos` filter and runs in CI's chaos job; on
//! failure it writes the offending seed to `CHAOS_FAILURE_SEED.txt` so the
//! run replays deterministically.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use forkbase::{BatchOutcome, ChaosPlan, Cluster, DbError, PutOptions, Respawned, Supervisor, Uid};
use forkbase_postree::TreeConfig;
use forkbase_store::{ChunkStore, FaultyStore, FileStore, MemStore, WriteFault};
use parking_lot::Mutex;

/// A cluster whose servelets share `Arc<MemStore>` backends — the
/// in-memory stand-in for a durable store: worker death loses the
/// in-memory refs, the chunks survive in the Arc. The respawn factory
/// reopens the same store and restores the refs last saved to `refs`.
type RefsMap = Arc<Mutex<HashMap<u64, String>>>;
type MemCluster = Arc<Cluster<Arc<MemStore>>>;

fn supervised_mem_cluster(n: u64) -> (MemCluster, Vec<Arc<MemStore>>, RefsMap) {
    let stores: Vec<Arc<MemStore>> = (0..n).map(|_| Arc::new(MemStore::new())).collect();
    let cluster = Cluster::from_stores(
        (0..n).zip(stores.iter().cloned()).collect(),
        TreeConfig::test_config(),
    );
    let refs: Arc<Mutex<HashMap<u64, String>>> = Arc::new(Mutex::new(HashMap::new()));
    let respawn_stores = stores.clone();
    let respawn_refs = Arc::clone(&refs);
    cluster.set_respawn(move |id| {
        Ok(Respawned {
            store: Arc::clone(&respawn_stores[id as usize]),
            refs: respawn_refs.lock().get(&id).cloned(),
            persist: None,
        })
    });
    (Arc::new(cluster), stores, refs)
}

/// Persist every servelet's branch heads into the shared refs map (the
/// moral equivalent of the CLI session's durable `refs` files).
fn save_refs(cluster: &Cluster<Arc<MemStore>>, refs: &Mutex<HashMap<u64, String>>) {
    for (slot, id) in cluster.ids().into_iter().enumerate() {
        let text = cluster.on_node(slot, |db| db.dump_refs()).unwrap();
        refs.lock().insert(id, text);
    }
}

fn fast_rpc(cluster: &Cluster<impl forkbase_store::SweepStore + Send + 'static>) {
    let mut cfg = cluster.rpc_config();
    cfg.deadline = Duration::from_millis(60);
    cfg.retry.base_backoff = Duration::from_millis(2);
    cluster.set_rpc_config(cfg);
}

#[test]
fn deadlines_bound_every_routed_verb() {
    let c = Cluster::new(2, TreeConfig::test_config());
    fast_rpc(&c);
    c.put_string("stuck", "v".into(), PutOptions::default())
        .unwrap();

    // Dropped requests: the outcome is known immediately (compressed
    // simulated time), the error is the structured timeout.
    c.arm_chaos(ChaosPlan::seeded(1).drop_first(u32::MAX));
    let t = Instant::now();
    let err = c.get("stuck", "master").unwrap_err();
    assert_eq!(err.code(), "servelet_timeout");
    assert!(matches!(err, DbError::ServeletTimeout { .. }));
    assert!(t.elapsed() < Duration::from_secs(2), "{:?}", t.elapsed());

    // Scatter verbs are bounded by ONE shared deadline window, not one
    // deadline per servelet.
    let t = Instant::now();
    assert_eq!(c.stats().unwrap_err().code(), "servelet_timeout");
    assert!(t.elapsed() < Duration::from_secs(2), "{:?}", t.elapsed());
    c.disarm_chaos();

    // Delayed replies: the caller really waits out the deadline against a
    // live worker, then gets the same structured timeout.
    c.arm_chaos(ChaosPlan::seeded(2).delays(1000));
    let t = Instant::now();
    let err = c.get("stuck", "master").unwrap_err();
    assert_eq!(err.code(), "servelet_timeout");
    let elapsed = t.elapsed();
    assert!(
        elapsed >= Duration::from_millis(60),
        "a delayed reply must wait out at least one real deadline: {elapsed:?}"
    );
    assert!(elapsed < Duration::from_secs(3), "{elapsed:?}");
    let report = c.disarm_chaos().unwrap();
    assert!(report.delays >= 1);

    // Sanity: disarmed, the cluster serves normally again.
    assert_eq!(c.get("stuck", "master").unwrap().value.as_str(), Some("v"));
}

#[test]
fn writes_never_retry_past_an_ambiguous_outcome() {
    let c = Cluster::new(2, TreeConfig::test_config());
    fast_rpc(&c);
    let retries = c.rpc_config().retry.max_attempts;
    assert!(retries > 1, "test needs a retrying policy");

    // Every reply is lost: each attempt is delivered, applies, and times
    // out — the canonical ambiguous outcome.
    c.arm_chaos(ChaosPlan::seeded(3).delays(1000));
    let err = c
        .put(
            "ambiguous",
            forkbase_types::Value::string("v1"),
            PutOptions::default(),
        )
        .unwrap_err();
    assert_eq!(err.code(), "servelet_timeout");
    let after_put = c.chaos_report().unwrap();
    assert_eq!(
        after_put.rpcs, 1,
        "a write must make exactly ONE attempt when the outcome is ambiguous"
    );

    // An idempotent read retries the full schedule.
    let err = c.get("ambiguous", "master").unwrap_err();
    assert_eq!(err.code(), "servelet_timeout");
    let after_get = c.disarm_chaos().unwrap();
    assert_eq!(
        after_get.rpcs - after_put.rpcs,
        u64::from(retries),
        "idempotent verbs retry per the policy"
    );

    // The ambiguity was real: the timed-out put DID apply. The caller was
    // told "outcome unknown", and a blind auto-retry would have committed
    // a duplicate version.
    let got = c.get("ambiguous", "master").unwrap();
    assert_eq!(got.value.as_str(), Some("v1"));
    let history = c
        .with_key("ambiguous", |db| {
            db.history("ambiguous", &forkbase::VersionSpec::branch("master"))
        })
        .unwrap()
        .unwrap();
    assert_eq!(history.len(), 1, "exactly one commit despite the timeout");
}

#[test]
fn a_seed_replays_its_faults_across_parallel_owner_groups() {
    // Drop-heavy: `heads` groups are idempotent, so most of them retry,
    // each group drawing from its own schedule.
    let run = || {
        let (c, _stores, _refs) = supervised_mem_cluster(4);
        fast_rpc(&c);
        let keys: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
        for key in &keys {
            c.put_string(key, "v".to_string(), PutOptions::default())
                .unwrap();
        }
        let owners: std::collections::BTreeSet<u64> = keys.iter().map(|k| c.owner_id(k)).collect();
        assert_eq!(owners.len(), 4, "the heads read spans every owner");
        let pairs: Vec<(&str, &str)> = keys.iter().map(|k| (k.as_str(), "master")).collect();
        c.arm_chaos(ChaosPlan::seeded(77).drops(500));
        let mut acked = Vec::new();
        // Each round's strict `heads` outcome: the uids, or the error
        // code plus the servelet it names.
        let heads: Vec<_> = (0..8)
            .map(|round| {
                batch_across_every_primary(&c, round, &mut acked);
                c.heads(&pairs).map_err(|e| match e {
                    DbError::ServeletUnavailable { servelet }
                    | DbError::ServeletTimeout { servelet } => (e.code(), Some(servelet)),
                    other => (other.code(), None),
                })
            })
            .collect();
        let acked: Vec<String> = acked.into_iter().map(|(key, _)| key).collect();
        (heads, acked, c.disarm_chaos().unwrap())
    };
    let first = run();
    assert!(
        first.0.iter().any(Result::is_err),
        "some round's heads fails: {first:?}"
    );
    assert_eq!(run(), first, "one seed, one fault schedule and outcome");
}

#[test]
fn supervisor_restarts_a_killed_servelet_to_full_health() {
    let (c, _stores, refs) = supervised_mem_cluster(3);
    fast_rpc(&c);
    let mut acked: Vec<(String, Uid)> = Vec::new();
    for i in 0..30 {
        let key = format!("k{i}");
        let commit = c
            .put_string(&key, format!("v{i}"), PutOptions::default())
            .unwrap();
        acked.push((key, commit.uid));
    }
    save_refs(&c, &refs);
    assert!(c.is_fully_healthy());

    let victim_slot = c.route("k0");
    let victim_id = c.ids()[victim_slot];
    c.kill_servelet(victim_slot).unwrap();
    let health = c.health();
    assert_eq!(health.len(), 3);
    let dead: Vec<u64> = health
        .iter()
        .filter(|h| h.state.as_str() == "dead")
        .map(|h| h.servelet)
        .collect();
    assert_eq!(dead, vec![victim_id]);
    assert!(!c.is_fully_healthy());

    // The background supervisor notices and restarts it.
    let supervisor = Supervisor::spawn(Arc::clone(&c), Duration::from_millis(10));
    let t = Instant::now();
    while !c.is_fully_healthy() {
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "supervisor never healed the cluster"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    supervisor.stop();

    // No acked write lost: every committed version resolves by uid AND by
    // branch head (the respawn factory restored the persisted refs).
    for (key, uid) in &acked {
        let got = c.get(key, "master").unwrap();
        assert_eq!(got.uid, *uid, "{key} head drifted across restart");
        let uid = *uid;
        let by_uid = c
            .with_key(key, move |db| db.get_version(&uid))
            .unwrap()
            .unwrap();
        assert!(by_uid.value.as_str().is_some());
    }
    // And the revived servelet takes writes again.
    c.put_string("k0", "post-restart".into(), PutOptions::default())
        .unwrap();
    assert_eq!(
        c.get("k0", "master").unwrap().value.as_str(),
        Some("post-restart")
    );
}

#[test]
fn strict_scatter_verbs_fail_and_gc_skips_a_dead_servelet() {
    let c = Cluster::new(3, TreeConfig::test_config());
    fast_rpc(&c);
    for i in 0..30 {
        c.put_string(&format!("k{i}"), format!("v{i}"), PutOptions::default())
            .unwrap();
    }
    let victim_slot = c.route("k0");
    let victim_id = c.ids()[victim_slot];
    c.kill_servelet(victim_slot).unwrap();

    // Strict scatter verbs fail wholesale.
    assert_eq!(c.stats().unwrap_err().code(), "servelet_unavailable");
    assert_eq!(c.list_keys().unwrap_err().code(), "servelet_unavailable");

    // gc skips and reports the unreachable servelet.
    let gc = c.gc().unwrap();
    assert_eq!(gc.degraded, vec![victim_id]);
    assert_eq!(gc.reports.len(), 2);
}

#[test]
fn interrupted_rebalance_rolls_back_then_succeeds_after_restart() {
    let (c, _stores, refs) = supervised_mem_cluster(3);
    fast_rpc(&c);
    for i in 0..45 {
        c.put_string(&format!("k{i}"), format!("v{i}"), PutOptions::default())
            .unwrap();
    }
    save_refs(&c, &refs);
    let owners_before: Vec<(String, u64)> = (0..45)
        .map(|i| {
            let k = format!("k{i}");
            let o = c.owner_id(&k);
            (k, o)
        })
        .collect();

    // A dead servelet interrupts the rebalance in its copy phase: the add
    // fails, and placement is exactly as before (rollback).
    c.kill_servelet(0).unwrap();
    let err = c.add_servelet(Arc::new(MemStore::new())).unwrap_err();
    assert_eq!(err.code(), "servelet_unavailable");
    assert_eq!(c.len(), 3, "failed add leaves the membership unchanged");
    for (key, owner) in &owners_before {
        assert_eq!(c.owner_id(key), *owner, "{key} moved during a failed add");
    }

    // Heal, then retry: the id was burned (never reused), the add lands.
    let report = c.supervise_once();
    assert_eq!(report.restarted.len(), 1);
    assert!(c.is_fully_healthy());
    let new_id = c.add_servelet(Arc::new(MemStore::new())).unwrap();
    assert_eq!(c.len(), 4);
    assert!(new_id > 3, "the failed add burned an id: got {new_id}");

    // Every key is still readable, wherever it now lives.
    for (key, _) in &owners_before {
        assert!(c.get(key, "master").is_ok(), "{key} lost in rebalance");
    }
    assert_eq!(c.list_keys().unwrap().len(), 45);
}

/// The PR-3 recovery path driven end-to-end from the cluster layer: a
/// FileStore-backed servelet dies mid-`write_batch` (its store tears the
/// batch like a power cut), the supervisor restarts it by reopening the
/// packs + refs, and every ACKED version is served again — the torn batch
/// was never acked and is gone.
#[test]
fn filestore_servelet_killed_mid_batch_recovers_every_acked_write() {
    let root =
        std::env::temp_dir().join(format!("forkbase-chaos-filestore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let servelet_dir = {
        let root = root.clone();
        move |id: u64| root.join(format!("servelet-{id}"))
    };

    type Store = Arc<FaultyStore<FileStore>>;
    let mut stores: HashMap<u64, Store> = HashMap::new();
    let mut pairs: Vec<(u64, Store)> = Vec::new();
    for id in 0..2u64 {
        let store: Store = Arc::new(FaultyStore::new(
            FileStore::open(servelet_dir(id).join("chunks")).unwrap(),
        ));
        stores.insert(id, Arc::clone(&store));
        pairs.push((id, store));
    }
    let c = Cluster::from_stores(pairs, TreeConfig::test_config());
    fast_rpc(&c);
    let refs: Arc<Mutex<HashMap<u64, String>>> = Arc::new(Mutex::new(HashMap::new()));
    let respawn_refs = Arc::clone(&refs);
    c.set_respawn(move |id| {
        // PR-3 crash recovery for real: a FRESH FileStore::open over the
        // dead servelet's directory (packs recovered, torn tails dropped),
        // plus the refs persisted at the last save.
        let store = FileStore::open(servelet_dir(id).join("chunks"))?;
        Ok(Respawned {
            store: Arc::new(FaultyStore::new(store)),
            refs: respawn_refs.lock().get(&id).cloned(),
            persist: None,
        })
    });

    // Acked writes, through the cluster batch path.
    let mut acked: Vec<(String, Uid)> = Vec::new();
    for round in 0..3 {
        let keys: Vec<String> = (0..10).map(|i| format!("r{round}-k{i}")).collect();
        let mut wb = c.write_batch();
        for (i, key) in keys.iter().enumerate() {
            wb.put(
                key,
                forkbase_types::Value::string(format!("r{round}v{i}")),
                &PutOptions::default(),
            );
        }
        // Outcomes come back in batch order.
        for (key, outcome) in keys.iter().zip(wb.commit().unwrap()) {
            match outcome {
                forkbase::BatchOutcome::Committed(commit) => {
                    acked.push((key.clone(), commit.uid));
                }
                other => panic!("expected a commit for {key}, got {other:?}"),
            }
        }
    }
    assert_eq!(acked.len(), 30);
    // Durability point: sync every store and persist refs (the CLI's
    // `save`), exactly what must survive the crash.
    for (slot, id) in c.ids().into_iter().enumerate() {
        let text = c
            .on_node(slot, |db| {
                ChunkStore::sync(db.store())?;
                Ok::<_, DbError>(db.dump_refs())
            })
            .unwrap()
            .unwrap();
        refs.lock().insert(id, text);
    }

    // Mid-batch crash: the victim's store tears the next batch after two
    // chunks, the commit errors (NOT acked), and we kill the worker — a
    // servelet dying in the middle of a write_batch.
    let victim_key = "r0-k0";
    let victim_slot = c.route(victim_key);
    let victim_id = c.ids()[victim_slot];
    stores[&victim_id].inject_write(WriteFault::FailPutBatchAfter(2));
    // Keys that provably route to the victim, so the torn store is the
    // one its batch group commits through.
    let torn_keys: Vec<String> = (0..)
        .map(|i| format!("torn-{i}"))
        .filter(|k| c.route(k) == victim_slot)
        .take(6)
        .collect();
    let mut wb = c.write_batch();
    for (i, key) in torn_keys.iter().enumerate() {
        wb.put(
            key,
            // Incompressible-ish payloads so the batch spans several chunks.
            forkbase_types::Value::string(format!("torn payload {i} {}", "x".repeat(200))),
            &PutOptions::default(),
        );
    }
    let torn_result = wb.commit();
    assert!(
        torn_result.is_err(),
        "a torn batch must error, never ack: {torn_result:?}"
    );
    c.kill_servelet(victim_slot).unwrap();

    // Release OUR handle on the dead servelet's store so the restart can
    // reopen the directory (FileStore holds an advisory lock).
    stores.remove(&victim_id);
    let report = c.supervise_once();
    assert!(
        report.restarted.contains(&victim_id),
        "supervisor must restart the dead servelet: {report:?}"
    );
    assert!(c.is_fully_healthy());

    // Every acked version is served from the reopened packs: by branch
    // head and by uid.
    for (key, uid) in &acked {
        let got = c.get(key, "master").unwrap();
        assert_eq!(got.uid, *uid, "{key} acked head lost across restart");
        let uid = *uid;
        let by_uid = c
            .with_key(key, move |db| db.get_version(&uid))
            .unwrap()
            .unwrap();
        assert!(by_uid.value.as_str().is_some(), "{key} version unreadable");
    }
    // The torn batch is wholly absent — it was never acked.
    for key in &torn_keys {
        if c.route(key) == victim_slot {
            assert!(
                matches!(c.get(key, "master"), Err(DbError::NoSuchKey(_))),
                "{key} from the torn batch must not exist"
            );
        }
    }
    drop(c);
    let _ = std::fs::remove_dir_all(&root);
}

// ----------------------------------------------------------------------
// Replication failover schedules
// ----------------------------------------------------------------------

/// Kill-primary-during-ship: a primary dies with acked writes still
/// sitting in its replica's ship log (captured, not yet shipped — the
/// ship is mid-flight by construction). The supervisor, past the
/// failover threshold, promotes the replica instead of restarting, and
/// every acked write survives with its exact head.
#[test]
fn kill_primary_during_ship_failover_promotes_and_loses_nothing() {
    let (c, _stores, refs) = supervised_mem_cluster(2);
    fast_rpc(&c);
    // Threshold 1: one failed probe is enough — promote, don't restart.
    c.set_failover_threshold(Some(1));
    let pid = c.ids()[0];
    let rid = c.add_replica(pid, Arc::new(MemStore::new())).unwrap();

    // Acked writes with the ship log deliberately left hot: the captures
    // exist only on the primary and in the router's pending log.
    let mut acked: Vec<(String, Uid)> = Vec::new();
    for i in 0..30 {
        let key = format!("k{i}");
        let commit = c
            .put_string(&key, format!("v{i}"), PutOptions::default())
            .unwrap();
        acked.push((key, commit.uid));
    }
    let lagging = c
        .replication_status()
        .primaries
        .iter()
        .find(|p| p.primary == pid)
        .unwrap()
        .replicas[0]
        .clone();
    assert!(lagging.lag > 0, "the schedule needs a hot ship log");
    save_refs(&c, &refs);

    c.kill_servelet(0).unwrap();
    let report = c.supervise_once();
    assert_eq!(
        report.promoted,
        vec![(pid, rid)],
        "past the threshold the supervisor must fail over, not restart: {report:?}"
    );
    assert!(report.restarted.is_empty());
    assert!(c.is_fully_healthy());
    assert!(!c.ids().contains(&pid));

    // Zero acked writes lost — including the ones that were only in the
    // ship log when the primary died.
    for (key, uid) in &acked {
        let got = c.get(key, "master").unwrap();
        assert_eq!(got.uid, *uid, "{key} lost across kill-during-ship failover");
    }
}

/// Promote-with-lag: promotion of a replica that is *behind* drains its
/// ship log first (the payloads are self-contained), so even a manual
/// promote of a lagging replica under a dead primary loses nothing.
#[test]
fn promote_with_lag_drains_the_ship_log_first() {
    let (c, _stores, _refs) = supervised_mem_cluster(2);
    fast_rpc(&c);
    let pid = c.ids()[0];
    let rid = c.add_replica(pid, Arc::new(MemStore::new())).unwrap();
    let mut acked: Vec<(String, Uid)> = Vec::new();
    for i in 0..25 {
        let key = format!("lag-{i}");
        let commit = c
            .put_string(&key, format!("v{i}"), PutOptions::default())
            .unwrap();
        acked.push((key, commit.uid));
    }
    // The replica is visibly behind, and stays behind: no ship pass runs.
    let status = c.replication_status();
    let r = &status
        .primaries
        .iter()
        .find(|p| p.primary == pid)
        .unwrap()
        .replicas[0];
    assert!(r.lag > 0 && r.pending > 0);

    c.kill_servelet(0).unwrap();
    c.promote_replica(rid).unwrap();
    for (key, uid) in &acked {
        let got = c.get(key, "master").unwrap();
        assert_eq!(got.uid, *uid, "{key} lost in promote-with-lag");
    }
}

/// Split-brain prevention: after a failover the retired primary's id is
/// gone from the topology for good — it cannot be restarted, supervision
/// never resurrects it, and no routed verb can reach it, even though the
/// old process's store still exists.
#[test]
fn failover_retires_the_old_primary_for_good() {
    let (c, _stores, _refs) = supervised_mem_cluster(2);
    fast_rpc(&c);
    c.set_failover_threshold(Some(1));
    let pid = c.ids()[0];
    let rid = c.add_replica(pid, Arc::new(MemStore::new())).unwrap();
    c.put_string("sb", "v1".into(), PutOptions::default())
        .unwrap();
    c.kill_servelet(0).unwrap();
    let report = c.supervise_once();
    assert_eq!(report.promoted, vec![(pid, rid)]);

    // The retired id is unknown everywhere: restart refuses, the topology
    // record no longer carries it, supervision sees a healthy cluster.
    let err = c.restart_servelet(pid).unwrap_err();
    assert!(matches!(err, DbError::InvalidInput(_)), "got {err:?}");
    assert!(!c.topology().servelet_ids.contains(&pid));
    let report = c.supervise_once();
    assert!(report.restarted.is_empty() && report.promoted.is_empty());
    assert_eq!(report.alive, c.ids());

    // Ids are never reused: future members can't collide with the ghost.
    let new_id = c.add_servelet(Arc::new(MemStore::new())).unwrap();
    assert!(new_id > pid && new_id > rid);
    // And writes keep landing on the promoted slot, not the ghost.
    c.put_string("sb", "v2".into(), PutOptions::default())
        .unwrap();
    assert_eq!(c.get("sb", "master").unwrap().value.as_str(), Some("v2"));
}

// ----------------------------------------------------------------------
// Seeded chaos property suite (CI chaos job)
// ----------------------------------------------------------------------

/// One routed `write_batch` of two keys per current primary, so its
/// owner groups commit (and capture) side by side. Every committed
/// outcome joins `acked`; an error acks nothing. Returns in bounded time.
fn batch_across_every_primary(c: &MemCluster, round: u64, acked: &mut Vec<(String, Uid)>) {
    let keys: Vec<String> = c
        .ids()
        .into_iter()
        .flat_map(|pid| {
            (0..)
                .map(move |i| format!("batch-{round}-{i}"))
                .filter(move |k| c.owner_id(k) == pid)
                .take(2)
        })
        .collect();
    let mut wb = c.write_batch();
    for key in &keys {
        wb.put(
            key,
            forkbase_types::Value::string(format!("b{round}")),
            &PutOptions::default(),
        );
    }
    let t = Instant::now();
    if let Ok(outcomes) = wb.commit() {
        for (key, outcome) in keys.iter().zip(outcomes) {
            if let BatchOutcome::Committed(commit) = outcome {
                acked.push((key.clone(), commit.uid));
            }
        }
    }
    assert!(
        t.elapsed() < Duration::from_secs(3),
        "batch exceeded its bound: {:?}",
        t.elapsed()
    );
}

/// Writes the failing seed to `CHAOS_FAILURE_SEED.txt` when a chaos round
/// panics, so CI uploads it and the run replays locally from the seed.
struct SeedGuard(u64);

impl Drop for SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = std::fs::write(
                "CHAOS_FAILURE_SEED.txt",
                format!(
                    "seed {}\nreplay: cargo test --release -- --ignored chaos\n",
                    self.0
                ),
            );
        }
    }
}

fn chaos_round(seed: u64) {
    let _guard = SeedGuard(seed);
    let (c, _stores, refs) = supervised_mem_cluster(4);
    fast_rpc(&c);

    // Phase A: a healthy baseline. These keys are never written again;
    // their heads must survive everything below.
    let mut baseline: Vec<(String, Uid)> = Vec::new();
    for i in 0..40 {
        let key = format!("base-{i}");
        let commit = c
            .put_string(&key, format!("stable {i}"), PutOptions::default())
            .unwrap();
        baseline.push((key, commit.uid));
    }
    save_refs(&c, &refs);

    // Phase B: hammer the cluster under a seeded fault schedule. Crashes
    // are capped so the supervisor can keep up between rounds.
    c.arm_chaos(
        ChaosPlan::seeded(seed)
            .drops(50)
            .delays(40)
            .duplicates(60)
            .crashes_before(15)
            .crashes_after(15)
            .max_crashes(6),
    );
    let bound = Duration::from_secs(3);
    let mut churn_acked: Vec<(String, Uid)> = Vec::new();
    for round in 0..6u64 {
        for i in 0..12 {
            // Reads: any structured outcome is fine; hanging is not.
            let t = Instant::now();
            let _ = c.get(&format!("base-{}", (round * 7 + i) % 40), "master");
            assert!(
                t.elapsed() < bound,
                "get exceeded its bound: {:?}",
                t.elapsed()
            );

            // Writes: ack ⟹ the version must survive. Errors are fine
            // (including ambiguous ones) — but must return in bounded time.
            let key = format!("churn-{round}-{i}");
            let t = Instant::now();
            if let Ok(commit) = c.put_string(&key, format!("c{round}/{i}"), PutOptions::default()) {
                churn_acked.push((key, commit.uid));
            }
            assert!(
                t.elapsed() < bound,
                "put exceeded its bound: {:?}",
                t.elapsed()
            );

            // Scatter verbs fail or answer, never hang.
            let t = Instant::now();
            let _ = c.stats();
            assert!(
                t.elapsed() < bound,
                "stats exceeded its bound: {:?}",
                t.elapsed()
            );
        }
        batch_across_every_primary(&c, round, &mut churn_acked);
        // Supervision between rounds restarts whatever the plan crashed.
        c.supervise_once();
    }
    let report = c.disarm_chaos().unwrap();
    assert!(report.rpcs > 0);

    // Phase C: heal completely, then audit.
    let t = Instant::now();
    while !c.is_fully_healthy() {
        c.supervise_once();
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "cluster never returned to full health (seed {seed})"
        );
    }
    // Baseline heads are intact (their refs were saved before the chaos;
    // restarts restored them).
    for (key, uid) in &baseline {
        let got = c.get(key, "master").unwrap();
        assert_eq!(got.uid, *uid, "baseline head {key} drifted (seed {seed})");
    }
    // No ACKED churn write lost: every acked uid still resolves on its
    // owner. (Branch heads of churn keys may have been reset by a restart
    // — the shared-store chunks and the uid index survive; that is the
    // "no acked write lost" contract.)
    for (key, uid) in &churn_acked {
        let uid = *uid;
        let owner_key = key.clone();
        let got = c
            .with_key(&owner_key, move |db| db.get_version(&uid))
            .unwrap();
        assert!(
            got.is_ok(),
            "acked write {key} (uid {uid}) lost (seed {seed}): {got:?}"
        );
    }
}

#[test]
#[ignore = "chaos: seeded fault-schedule suite; run with --ignored chaos"]
fn chaos_seeded_fault_schedule_suite() {
    for seed in [1, 42, 7_777, 0xDEAD_BEEF] {
        chaos_round(seed);
    }
}

/// One seeded replication-chaos round: every primary carries a replica,
/// the message layer misbehaves per the seed, and primaries are killed
/// mid-stream on a seeded schedule. Supervision (ship pump + threshold
/// failover + restart) must return the cluster to full health with every
/// acked write resolvable and every baseline head intact.
fn replication_chaos_round(seed: u64) {
    let _guard = SeedGuard(seed);
    let (c, _stores, refs) = supervised_mem_cluster(3);
    fast_rpc(&c);
    c.set_failover_threshold(Some(2));
    for pid in c.ids() {
        c.add_replica(pid, Arc::new(MemStore::new())).unwrap();
    }

    // Baseline: written, shipped everywhere, refs saved. These heads must
    // survive every failover below.
    let mut baseline: Vec<(String, Uid)> = Vec::new();
    for i in 0..30 {
        let key = format!("base-{i}");
        let commit = c
            .put_string(&key, format!("stable {i}"), PutOptions::default())
            .unwrap();
        baseline.push((key, commit.uid));
    }
    save_refs(&c, &refs);
    let ship = c.ship_replication();
    assert!(ship.failed.is_empty(), "baseline ship failed: {ship:?}");

    // Seeded xorshift* schedule driver (same generator the cluster tests
    // use), deciding which primary dies after which round.
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    };

    c.arm_chaos(ChaosPlan::seeded(seed).drops(40).delays(30).duplicates(50));
    let bound = Duration::from_secs(3);
    let mut churn_acked: Vec<(String, Uid)> = Vec::new();
    for round in 0..5u64 {
        for i in 0..10u64 {
            let key = format!("churn-{round}-{i}");
            let t = Instant::now();
            if let Ok(commit) = c.put_string(&key, format!("c{round}/{i}"), PutOptions::default()) {
                churn_acked.push((key, commit.uid));
            }
            assert!(t.elapsed() < bound, "put exceeded bound: {:?}", t.elapsed());
            let t = Instant::now();
            let _ = c.get_from_replica(&format!("base-{}", (round * 7 + i) % 30), "master");
            assert!(
                t.elapsed() < bound,
                "replica read exceeded bound: {:?}",
                t.elapsed()
            );
        }
        batch_across_every_primary(&c, round, &mut churn_acked);
        // Kill a seeded-random primary while its ship log is hot.
        if round % 2 == 0 {
            let slot = (next() % c.len() as u64) as usize;
            let _ = c.kill_servelet(slot);
        }
        // Supervision pumps the ship log and, past the threshold, promotes
        // the dead primary's replica (restart-in-place otherwise).
        for _ in 0..3 {
            c.supervise_once();
        }
    }
    c.disarm_chaos().unwrap();

    // Heal completely.
    let t = Instant::now();
    while !c.is_fully_healthy() {
        c.supervise_once();
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "cluster never healed (seed {seed})"
        );
    }
    // Baseline heads intact wherever the slot now points (original
    // primary, restarted primary, or promoted replica).
    for (key, uid) in &baseline {
        let got = c.get(key, "master").unwrap();
        assert_eq!(got.uid, *uid, "baseline {key} drifted (seed {seed})");
    }
    // Zero acked churn writes lost: each resolves by uid on its owner.
    for (key, uid) in &churn_acked {
        let uid = *uid;
        let owner_key = key.clone();
        let got = c
            .with_key(&owner_key, move |db| db.get_version(&uid))
            .unwrap();
        assert!(
            got.is_ok(),
            "acked write {key} (uid {uid}) lost (seed {seed}): {got:?}"
        );
    }
}

#[test]
#[ignore = "chaos_replication: seeded kill-primary schedules; run with --ignored chaos_replication"]
fn chaos_replication_seeded_kill_primary_suite() {
    for seed in [3, 99, 12_345, 0xF0CACC1A] {
        replication_chaos_round(seed);
    }
}
