//! `cluster_tcp_replica`: a routed cluster of real servelet processes over
//! loopback TCP, with a replica.
//!
//! A pure router (`Cluster::connect`, no local store) in the harness, two
//! primary `forkbase serve --servelet` children and one remote replica of
//! primary 0. [`KEYS`] keys of [`VALUE_BYTES`] bytes are preloaded by
//! routed 64-key batches. Open loop on three seeded lanes: [`GET_RATE`]
//! routed `get`s per second (zipfian) shared by [`GET_WORKERS`] workers;
//! [`BATCH_RATE`] `write_batch`es of [`BATCH_KEYS`] keys per second (a
//! block, at a fixed period) from one writer, so no two mutating frames
//! ever reach a servelet at once; and `ship_replication()` every [`SHIP_EVERY_MS`] ms from one
//! shipper, with `replication_status()` sampled just before. Flush policy: the
//! servelet's ack-after-persist (sync and a durable refs rewrite per
//! mutating frame). A traced run ends by writing a backlog with shipping
//! paused and timing its drain; every run ends by comparing the replica's
//! answers with the primary's.
//!
//! This is the only workload where `cluster/{mod,rpc,wire,net,
//! replication}.rs` work: routing, the TLV codec, CRC-framed TCP with a
//! connection per call, the per-write refs rewrite and the ship log.
//! Storage work per operation is small, so a codec, transport or
//! replication win shows here and must not move the embedded workloads.

use std::io::Write;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use forkbase::cluster::wire::{self, Reply, Request, WireOp};
use forkbase::{Cluster, ClusterTopology, PutOptions, TopoRole, Uid};
use forkbase_cli::Session;
use forkbase_postree::TreeConfig;
use forkbase_store::{ChunkStore, MemStore};
use forkbase_types::Value;

use super::{require_bin, timed_set_ups, RunCfg};
use crate::busy;
use crate::layers;
use crate::metrics::Outcome;
use crate::model::Versions;
use crate::openloop::{self, Arrival, Lane};
use crate::procs::{self, Fleet};
use crate::rng::{poisson_schedule, Rng, Zipf};
use crate::stats::{ratio, Samples, Sliced};
use crate::trace;

const KEYS: u64 = 4_000;
const VALUE_BYTES: usize = 256;
/// Frames per second stay far below the servelets' 2000/s per-peer
/// limiter: a batch costs its owner one frame plus, on the replicated
/// primary, one capture frame per key. The get rate is this high because
/// the seed's routed latency is spread flat over the servelet accept
/// loop's 5 ms poll: a steady median needs thousands of samples.
const GET_RATE: f64 = 400.0;
/// One writer at a time: at the seed a servelet fails concurrent mutating
/// frames (both rewrite `refs.tmp`), and a workload must not fail. Blocks
/// leave at a fixed period about twice the seed's ~58 ms per batch, so the
/// writer does not queue behind itself.
const BATCH_RATE: f64 = 8.0;
const BATCH_KEYS: usize = 16;
/// Keys per preload batch, each batch to one servelet. A mutating frame
/// costs its servelet three device flushes before the ack, and on the box
/// that froze this benchmark a flush takes 0.2 ms or 7 ms depending on the
/// host's other tenants; a few large frames keep that out of `setup_s`.
const PRELOAD_BATCH: usize = 512;
const BACKLOG_BATCH: usize = 64;
const SHIP_EVERY_MS: u64 = 500;
const GET_WORKERS: usize = 8;
const WARMUP_GETS: u64 = 50;
const BACKLOG: usize = 400;
const REPLICA_SAMPLE: usize = 200;
const LISTEN_PREFIX: &str = "forkbase servelet listening on ";

enum Op {
    Get(u64),
    Batch(Vec<(u64, String)>),
    Ship,
}

fn key_name(i: u64) -> String {
    format!("c{i:05}")
}

fn value_for(i: u64, n: u64, rng: &mut Rng) -> String {
    let mut v = format!("{}:{n}:", key_name(i));
    let fill = VALUE_BYTES - v.len();
    v.push_str(&rng.text(fill));
    v
}

fn pair_bytes(pairs: &[(u64, String)]) -> u64 {
    pairs
        .iter()
        .map(|(k, v)| (key_name(*k).len() + v.len()) as u64)
        .sum()
}

struct Rig {
    fleet: Fleet,
    pids: Vec<u32>,
    addrs: Vec<String>,
    dirs: Vec<PathBuf>,
    cluster: Cluster<MemStore>,
    versions: Versions,
    user_bytes: u64,
}

/// Commit `pairs` as one routed batch; returns the version of each.
fn write_batch(cluster: &Cluster<MemStore>, pairs: &[(u64, String)]) -> Result<Vec<Uid>, String> {
    let opts = PutOptions::default().author("loadgen");
    let mut batch = cluster.write_batch();
    for (k, v) in pairs {
        batch.put(key_name(*k), Value::Str(v.clone()), &opts);
    }
    batch
        .commit()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|o| {
            o.commit()
                .map(|c| c.uid)
                .ok_or_else(|| "put did not commit".to_string())
        })
        .collect()
}

/// Unshipped entries on the replica of primary 0.
fn pending(cluster: &Cluster<MemStore>) -> u64 {
    cluster
        .replication_status()
        .primaries
        .iter()
        .flat_map(|p| &p.replicas)
        .map(|r| r.pending)
        .sum()
}

fn drain(cluster: &Cluster<MemStore>) -> Result<(), String> {
    for _ in 0..1_000 {
        let report = cluster.ship_replication();
        if let Some((id, e)) = report.failed.first() {
            return Err(format!("ship to replica {id} failed: {e}"));
        }
        if pending(cluster) == 0 {
            return Ok(());
        }
    }
    Err("the ship log never drained".into())
}

/// Start three servelets, connect the router, preload by routed batches,
/// attach the replica, warm up.
fn set_up(cfg: &RunCfg, root: &Path) -> Result<Rig, String> {
    let keys = if cfg.quick { 300 } else { KEYS };
    let bin = require_bin(cfg)?;
    let mut fleet = Fleet::default();
    let (mut pids, mut addrs, mut dirs) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..3 {
        let dir = root.join(format!("servelet-{i}"));
        let log = root.join(format!("servelet-{i}.log"));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let data = dir.to_string_lossy().into_owned();
        pids.push(fleet.spawn(
            bin,
            &["serve", "--servelet", "127.0.0.1:0", "--data", &data],
            &log,
        )?);
        addrs.push(procs::wait_for_line(&log, LISTEN_PREFIX)?);
        dirs.push(dir);
    }
    let topology = ClusterTopology {
        servelet_ids: vec![0, 1],
        addrs: addrs[..2].iter().cloned().map(Some).collect(),
        roles: vec![
            TopoRole::Primary { anchor: 0 },
            TopoRole::Primary { anchor: 1 },
        ],
        next_id: 2,
    };
    let cluster: Cluster<MemStore> =
        Cluster::connect(&topology, TreeConfig::default()).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(cfg.seed, 50);
    let values: Vec<String> = (0..keys).map(|i| value_for(i, 0, &mut rng)).collect();
    // One owner at a time, so that every batch is one frame to one
    // servelet. A client that calls one servelet back to back is accepted
    // at that servelet's next 5 ms poll after its previous reply, whatever
    // the phase; calls that alternate between two servelets take 5 or 10 ms
    // a pair depending on how the two accept loops happen to be offset,
    // which made set-up time flip between two values from run to run.
    // (The warm-up below reads one owner's keys, then the other's, for the
    // same reason.)
    let owner = |k: &u64| cluster.owner_id(&key_name(*k));
    let mut by_owner: Vec<u64> = (0..keys).collect();
    by_owner.sort_by_key(owner);
    let mut preloaded = vec![None; keys as usize];
    let mut user_bytes = 0u64;
    for owned in by_owner.chunk_by(|a, b| owner(a) == owner(b)) {
        for chunk in owned.chunks(PRELOAD_BATCH) {
            let pairs: Vec<_> = chunk
                .iter()
                .map(|&i| (i, values[i as usize].clone()))
                .collect();
            user_bytes += pair_bytes(&pairs);
            for ((k, _), uid) in pairs.iter().zip(write_batch(&cluster, &pairs)?) {
                preloaded[*k as usize] = Some(uid);
            }
        }
    }
    let preloaded: Vec<Uid> = preloaded.into_iter().flatten().collect();
    if preloaded.len() != keys as usize {
        return Err("a preloaded key got no version".into());
    }
    // Attaching after the preload makes the replica's first sync one bundle
    // instead of one capture and one ship frame per preloaded key.
    cluster
        .add_remote_replica(0, addrs[2].clone())
        .map_err(|e| format!("attach replica: {e}"))?;
    drain(&cluster)?;
    let per_owner = WARMUP_GETS as usize / 2;
    let second = by_owner.len() - per_owner;
    for k in by_owner[..per_owner].iter().chain(&by_owner[second..]) {
        cluster
            .get(&key_name(*k), "master")
            .map_err(|e| format!("warm-up get: {e}"))?;
    }
    Ok(Rig {
        fleet,
        pids,
        addrs,
        dirs,
        cluster,
        versions: Versions::new(preloaded),
        user_bytes,
    })
}

/// The three lanes: gets, write batches, ships.
fn lanes(cfg: &RunCfg, keys: u64) -> [Lane<Op>; 3] {
    let mut rng = Rng::new(cfg.seed, 51);
    let zipf = Zipf::new(keys, 0.99);
    let gets = poisson_schedule(&mut rng, GET_RATE, cfg.seconds)
        .into_iter()
        .map(|due_ns| Arrival {
            due_ns,
            op: Op::Get(zipf.pick(&mut rng)),
        })
        .collect();
    let mut written = vec![0u64; keys as usize];
    let period_ns = (1e9 / BATCH_RATE) as u64;
    let phase_ns = rng.below(period_ns);
    let window_ns = (cfg.seconds * 1e9) as u64;
    let batches = (0..)
        .map(|i| phase_ns + i * period_ns)
        .take_while(|t| *t < window_ns)
        .map(|due_ns| {
            let mut picked = Vec::with_capacity(BATCH_KEYS);
            while picked.len() < BATCH_KEYS {
                let k = zipf.pick(&mut rng);
                if !picked.iter().any(|(p, _)| *p == k) {
                    written[k as usize] += 1;
                    picked.push((k, value_for(k, written[k as usize], &mut rng)));
                }
            }
            Arrival {
                due_ns,
                op: Op::Batch(picked),
            }
        })
        .collect();
    let ships = (1..)
        .map(|i| i * SHIP_EVERY_MS * 1_000_000)
        .take_while(|t| *t < window_ns)
        .map(|due_ns| Arrival {
            due_ns,
            op: Op::Ship,
        })
        .collect();
    [
        Lane {
            schedule: gets,
            workers: GET_WORKERS,
        },
        Lane {
            schedule: batches,
            workers: 1,
        },
        Lane {
            schedule: ships,
            workers: 1,
        },
    ]
}

/// What the scheduled ships saw and did.
#[derive(Default)]
struct ShipLog {
    lag_entries: Vec<u64>,
    call_ns: Samples,
    shipped: u64,
}

fn execute(rig: &Rig, ships: &Mutex<ShipLog>, op: &Op, req: u64) -> bool {
    let sent_ns = trace::now_ns();
    match op {
        Op::Get(k) => {
            let _s = trace::span("cluster.get", req);
            match rig.cluster.get(&key_name(*k), "master") {
                Ok(got) => {
                    got.value
                        .as_str()
                        .is_some_and(|v| v.starts_with(&format!("{}:", key_name(*k))))
                        && rig.versions.read_ok(*k as usize, got.uid, sent_ns)
                }
                Err(_) => false,
            }
        }
        Op::Batch(pairs) => {
            let _s = trace::span("cluster.write_batch", req);
            match write_batch(&rig.cluster, pairs) {
                Ok(uids) => {
                    for ((k, _), uid) in pairs.iter().zip(uids) {
                        rig.versions.wrote(*k as usize, uid, sent_ns);
                    }
                    true
                }
                Err(_) => false,
            }
        }
        Op::Ship => {
            let lag = pending(&rig.cluster);
            let start = Instant::now();
            let report = {
                let _s = trace::span("cluster.replication.ship", req);
                rig.cluster.ship_replication()
            };
            let mut log = ships.lock().expect("ship log");
            log.lag_entries.push(lag);
            log.call_ns.push(start.elapsed().as_nanos() as u64);
            log.shipped += report.shipped;
            report.failed.is_empty()
        }
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let root_of = |rep: usize| cfg.dir.join(format!("cluster-{rep}"));
    // All of the set-up waits for the children: wall time on the busy clock.
    let (setup_s, mut rig) = timed_set_ups(
        |rep| busy::waiting(|| set_up(cfg, &root_of(rep))),
        |rep, rig| {
            drop(rig);
            let _ = std::fs::remove_dir_all(root_of(rep));
        },
    )?;
    let root = root_of(super::SETUP_REPS - 1);
    let keys = rig.versions.len() as u64;
    let lanes = lanes(cfg, keys);
    let ships = Mutex::new(ShipLog::default());

    let cpu_before: u64 = rig.pids.iter().map(|p| procs::cpu_us(*p)).sum();
    let (done, traced) = openloop::run(&lanes, cfg.trace, |op, req| execute(&rig, &ships, op, req));
    let cpu_us = rig.pids.iter().map(|p| procs::cpu_us(*p)).sum::<u64>() - cpu_before;

    let mut out = Outcome::default();
    let mut lat = [Sliced::default(), Sliced::default()];
    let mut late = Samples::default();
    let mut user_bytes = rig.user_bytes;
    for d in &done {
        out.check(d.ok);
        // Generator health is judged on the shared lane; the one-worker
        // lanes run behind by design when an operation outlasts its period.
        if d.lane == 0 {
            late.push(d.late_ns);
        }
        let kind = match &lanes[d.lane].schedule[d.index].op {
            Op::Get(_) => 0,
            Op::Batch(pairs) => {
                user_bytes += pair_bytes(pairs);
                1
            }
            Op::Ship => continue,
        };
        if d.ok {
            lat[kind].push(d.traced, d.latency_ns);
        }
    }
    let (late_judged, late_wrong) = rig.versions.settle();
    out.attempted += late_judged;
    out.failed += late_wrong;
    let ships = ships.into_inner().expect("ship log");

    // A traced run pauses shipping, writes a backlog of distinct keys of
    // the replicated primary, and times the drain.
    let mut ship_rate = None;
    if cfg.trace {
        drain(&rig.cluster)?;
        let mut rng = Rng::new(cfg.seed, 52);
        let backlog = if cfg.quick { 100 } else { BACKLOG };
        let owned: Vec<u64> = (0..keys)
            .filter(|k| rig.cluster.owner_id(&key_name(*k)) == 0)
            .take(backlog)
            .collect();
        for chunk in owned.chunks(BACKLOG_BATCH) {
            let pairs: Vec<_> = chunk
                .iter()
                .map(|&k| (k, value_for(k, 9_999, &mut rng)))
                .collect();
            user_bytes += pair_bytes(&pairs);
            let sent_ns = trace::now_ns();
            let written = write_batch(&rig.cluster, &pairs);
            out.check(written.is_ok());
            for ((k, _), uid) in pairs.iter().zip(written.unwrap_or_default()) {
                rig.versions.wrote(*k as usize, uid, sent_ns);
            }
        }
        let entries = pending(&rig.cluster);
        let start = Instant::now();
        let drained = drain(&rig.cluster);
        ship_rate = Some((entries, start.elapsed().as_secs_f64()));
        out.check(drained.is_ok());
    } else {
        out.check(drain(&rig.cluster).is_ok());
    }

    // The replica must answer what the primary answers.
    let mut from_replica = 0usize;
    let sample: Vec<u64> = (0..keys)
        .filter(|k| rig.cluster.owner_id(&key_name(*k)) == 0)
        .take(REPLICA_SAMPLE)
        .collect();
    for k in &sample {
        let replica = rig.cluster.get_from_replica(&key_name(*k), "master");
        let primary = rig.cluster.get(&key_name(*k), "master");
        let agree = match (&replica, &primary) {
            (Ok(r), Ok(p)) => {
                from_replica += r.from_replica as usize;
                r.result.uid == p.uid && rig.versions.may_be_final(*k as usize, p.uid)
            }
            _ => false,
        };
        out.check(agree);
    }
    out.check(from_replica == sample.len());

    let rss: f64 = rig.pids.iter().map(|p| procs::rss_peak_mib(*p)).sum();
    let transport_probe = cfg.trace.then(|| probe_rtt(&rig.addrs[1]));
    let route_ns = cfg.trace.then(|| route_cost(&rig.cluster, keys));
    let fanout = {
        let batches = &lanes[1].schedule;
        let owners: usize = batches
            .iter()
            .filter_map(|a| match &a.op {
                Op::Batch(pairs) => Some(pairs),
                _ => None,
            })
            .map(|pairs| {
                let mut ids: Vec<u64> = pairs
                    .iter()
                    .map(|(k, _)| rig.cluster.owner_id(&key_name(*k)))
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            })
            .sum();
        ratio(owners as f64, batches.len() as f64)
    };
    rig.fleet.stop();
    let disk_bytes: u64 = rig.dirs.iter().map(|d| procs::dir_bytes(d)).sum();
    // Every acknowledged write was persisted before its ack: the primaries
    // must reopen at the versions the model holds.
    for (slot, dir) in rig.dirs.iter().take(2).enumerate() {
        let reopened = Session::open(dir).map_err(|e| format!("reopen servelet {slot}: {e}"))?;
        for k in (0..keys)
            .filter(|k| rig.cluster.owner_id(&key_name(*k)) == slot as u64)
            .take(100)
        {
            let head = reopened.db().head(&key_name(k), "master").ok();
            out.check(head.is_some_and(|uid| rig.versions.may_be_final(k as usize, uid)));
        }
    }

    let [gets, batches] = [lat[0].all(), lat[1].all()];
    out.set("setup_s", setup_s);
    out.set_n("write_p50_us", batches.p50_us(), batches.len());
    out.set_n("read_p50_us", gets.p50_us(), gets.len());
    out.set("space_amp", ratio(disk_bytes as f64, user_bytes as f64));
    out.note(format!(
        "gets={} batches={} ships={} late_p99_us={:.0} from_replica={from_replica}/{} disk_bytes={disk_bytes}",
        gets.len(),
        batches.len(),
        ships.call_ns.len(),
        late.percentile_us(99.0),
        sample.len()
    ));
    if !cfg.trace {
        let _ = std::fs::remove_dir_all(&root);
        return Ok(out);
    }

    // ---- per-layer figures (traced run) ----
    out.set(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.set_n("read_p99_us", gets.percentile_us(99.0), gets.len());
    let (tail, tail_name) = gets.tail_us();
    out.note(format!(
        "highest get percentile with 10 samples beyond it: {tail_name} = {tail:.1} us"
    ));
    if let Some((entries, secs)) = ship_rate {
        out.set_n(
            "replica_ship_per_s",
            ratio(entries as f64, secs),
            entries as usize,
        );
    }
    let mut lags = ships.lag_entries.clone();
    lags.sort_unstable();
    out.set_n(
        "cluster.replication.lag_entries_p50",
        lags.get(lags.len() / 2).copied().unwrap_or(0) as f64,
        lags.len(),
    );
    out.set(
        "cluster.replication.lag_entries_max",
        lags.last().copied().unwrap_or(0) as f64,
    );
    out.set(
        "cluster.replication.ship_call_us_p50",
        ships.call_ns.p50_us(),
    );
    out.set(
        "cluster.replication.entries_per_ship",
        ratio(ships.shipped as f64, ships.call_ns.len() as f64),
    );
    out.set("cluster.batch_fanout", fanout);
    if let Some(ns) = route_ns {
        out.set("cluster.route_ns", ns);
    }
    if let Some(Ok(rtt)) = &transport_probe {
        out.set_n("cluster.net.probe_rtt_us_p50", rtt.p50_us(), rtt.len());
    }
    replay_twin(cfg, &mut out, &lanes, keys, gets.p50_us(), batches.p50_us())?;
    out.set(
        "proc.cpu_us_per_op",
        ratio(cpu_us as f64, done.len() as f64),
    );
    out.set("proc.rss_peak_mib", rss);
    out.set_n("loadgen.late_p99_us", late.percentile_us(99.0), late.len());
    layers::report_overhead(&mut out, &[lat[0].overhead_pair(), lat[1].overhead_pair()]);
    super::write_trace(cfg, "cluster_tcp_replica", &traced);
    let _ = std::fs::remove_dir_all(&root);
    Ok(out)
}

/// Round trips of a pre-encoded `Probe` frame on one raw connection to a
/// servelet: the wire and the servelet's dispatch without the router.
fn probe_rtt(addr: &str) -> Result<Samples, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let frame = wire::encode_frame(&Request::Probe.encode());
    let mut rtt = Samples::default();
    for _ in 0..300 {
        let start = Instant::now();
        conn.write_all(&frame).map_err(|e| e.to_string())?;
        let body = wire::read_frame(&mut conn).map_err(|e| e.to_string())?;
        rtt.push(start.elapsed().as_nanos() as u64);
        Reply::decode(&body)
            .and_then(Reply::expect_unit)
            .map_err(|e| e.to_string())?;
    }
    Ok(rtt)
}

/// Nanoseconds per `Cluster::route` call.
fn route_cost(cluster: &Cluster<MemStore>, keys: u64) -> f64 {
    let names: Vec<String> = (0..keys).map(key_name).collect();
    let start = Instant::now();
    let mut acc = 0usize;
    for _ in 0..25 {
        for name in &names {
            acc = acc.wrapping_add(cluster.route(std::hint::black_box(name)));
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / (25 * names.len()) as f64
}

/// [D] + [R]: the window's requests again on an in-process twin (a
/// `Session` preloaded with the same keys), through `wire::dispatch`, and
/// their frames through the codec alone.
fn replay_twin(
    cfg: &RunCfg,
    out: &mut Outcome,
    lanes: &[Lane<Op>; 3],
    keys: u64,
    routed_get_us: f64,
    routed_batch_us: f64,
) -> Result<(), String> {
    let root = cfg.dir.join("cluster-twin");
    let twin = Session::open(&root).map_err(|e| e.to_string())?;
    let opts = PutOptions::default().author("loadgen");
    let mut rng = Rng::new(cfg.seed, 50);
    for chunk in (0..keys).collect::<Vec<_>>().chunks(PRELOAD_BATCH) {
        let mut batch = twin.db().write_batch();
        for &i in chunk {
            batch.put(key_name(i), Value::Str(value_for(i, 0, &mut rng)), &opts);
        }
        batch.commit().map_err(|e| e.to_string())?;
    }
    twin.save().map_err(|e| e.to_string())?;

    let (mut gets, mut batches) = (Samples::default(), Samples::default());
    let mut exchanges: Vec<(Request, Reply)> = Vec::new();
    for a in lanes[0]
        .schedule
        .iter()
        .take(2_000)
        .chain(&lanes[1].schedule)
    {
        let (req, sink, sync) = match &a.op {
            Op::Get(k) => (
                Request::Get {
                    key: key_name(*k),
                    branch: "master".into(),
                },
                &mut gets,
                false,
            ),
            Op::Batch(pairs) => (
                Request::Batch {
                    ops: pairs
                        .iter()
                        .map(|(k, v)| WireOp::Put {
                            key: key_name(*k),
                            value: Value::Str(v.clone()),
                            opts: opts.clone(),
                        })
                        .collect(),
                },
                &mut batches,
                true,
            ),
            Op::Ship => continue,
        };
        let start = Instant::now();
        let reply = wire::dispatch(twin.db(), req.clone());
        if sync {
            twin.db().store().sync().map_err(|e| e.to_string())?;
        }
        sink.push(start.elapsed().as_nanos() as u64);
        if matches!(reply, Reply::Err(_)) {
            return Err("the in-process twin refused a request of the window".into());
        }
        exchanges.push((req, reply));
    }
    drop(twin);
    let _ = std::fs::remove_dir_all(&root);

    // The codec alone, over the same exchanges.
    let start = Instant::now();
    let frames: Vec<(Vec<u8>, Vec<u8>)> = exchanges
        .iter()
        .map(|(req, reply)| {
            (
                wire::encode_frame(&req.encode()),
                wire::encode_frame(&reply.encode()),
            )
        })
        .collect();
    let encode_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    for (req, reply) in &frames {
        let body = wire::read_frame(&mut req.as_slice()).map_err(|e| e.to_string())?;
        std::hint::black_box(Request::decode(&body).map_err(|e| e.to_string())?);
        let body = wire::read_frame(&mut reply.as_slice()).map_err(|e| e.to_string())?;
        std::hint::black_box(Reply::decode(&body).map_err(|e| e.to_string())?);
    }
    let decode_ns = start.elapsed().as_nanos() as f64;
    let n = frames.len() as f64;
    let bytes: usize = frames.iter().map(|(a, b)| a.len() + b.len()).sum();
    out.set_n(
        "cluster.wire.encode_ns_per_req",
        ratio(encode_ns, n),
        frames.len(),
    );
    out.set_n(
        "cluster.wire.decode_ns_per_req",
        ratio(decode_ns, n),
        frames.len(),
    );
    out.set("cluster.wire.bytes_per_req", ratio(bytes as f64, n));

    let codec_us = ratio(encode_ns + decode_ns, n) / 1e3;
    out.set_n("core.api.get_us_p50", gets.p50_us(), gets.len());
    out.set_n(
        "core.api.write_batch_us_p50",
        batches.p50_us(),
        batches.len(),
    );
    out.set(
        "cluster.net.transport_self_us_p50",
        routed_get_us - gets.p50_us() - codec_us,
    );
    out.set(
        "cluster.servelet_write_self_us_p50",
        routed_batch_us - batches.p50_us(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_against_real_servelets() {
        let Some(bin) = procs::forkbase_bin() else {
            eprintln!("skipped: no forkbase binary (set FORKBASE_BIN)");
            return;
        };
        let dir = crate::workloads::test_dir("cluster");
        let cfg = RunCfg {
            seed: 5,
            seconds: 1.5,
            trace: true,
            quick: true,
            dir: dir.clone(),
            bin: Some(bin),
        };
        let out = run(&cfg).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        assert!(out.get("replica_ship_per_s").unwrap() > 0.0);
        assert!(out.get("cluster.wire.bytes_per_req").unwrap() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
