//! `rest_point_ops`: point reads, small writes and short scans against a
//! real `forkbase serve` child over HTTP.
//!
//! The data directory is preloaded through `Session` ([`KEYS`] string keys
//! of [`VALUE_BYTES`] bytes and one [`MAP_ENTRIES`]-entry map), then
//! `forkbase --data D serve 0` is started on an OS-assigned port. Open
//! loop at [`RATE`] requests per second on a seeded Poisson schedule
//! shared by [`WORKERS`] connection workers: [`GET_SHARE`] `GET /get/<k>`
//! (zipfian), [`PUT_SHARE`] `PUT /put/<k>`, the rest 100-entry
//! `GET /v1/<map>/range` pages. Flush policy: the server's own 5 s persist
//! beat. A traced run adds an overload phase after the window.
//!
//! Values are tiny, so hashing, chunking and tree work are negligible and
//! the gateway (`crates/cli/src/rest.rs`: accept loop, a thread and a TCP
//! connection per request, HTTP parse) owns the latency. This is where
//! keep-alive, a blocking accept or a pooled gateway must show, and where
//! they must not on `ledger_embedded`.
//!
//! Every answer is checked against the version model in `model.rs`: a
//! `GET` must return a version of the key that was really written and not
//! one that was already overwritten when the request was sent.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use forkbase::{PutOptions, Uid};
use forkbase_cli::Session;
use forkbase_types::Value;

use super::{require_bin, timed_set_ups, RunCfg};
use crate::busy;
use crate::http;
use crate::json::{self, Json};
use crate::layers;
use crate::metrics::Outcome;
use crate::model::Versions;
use crate::openloop::{self, Arrival, Lane};
use crate::procs::{self, Fleet};
use crate::rng::{poisson_schedule, Rng, Zipf};
use crate::stats::{ratio, Samples, Sliced};
use crate::trace;

const KEYS: u64 = 20_000;
const VALUE_BYTES: usize = 1024;
const MAP_KEY: &str = "catalog";
const MAP_ENTRIES: u64 = 50_000;
const PAGE: u64 = 100;
/// Requests per second: under the gateway's 500/s per-peer limiter, and a
/// small share of what [`WORKERS`] connections can offer at the seed's
/// 0-5 ms service time, so the generator is never the queue. The rate is
/// this high because the seed's latency is spread flat over the accept
/// loop's 5 ms poll: a steady median needs thousands of samples.
const RATE: f64 = 400.0;
const GET_SHARE: f64 = 0.70;
const PUT_SHARE: f64 = 0.25;
const WORKERS: usize = 8;
const WARMUP_REQUESTS: usize = 40;
const OVERLOAD_WORKERS: usize = 16;
const OVERLOAD_SECONDS: f64 = 2.5;
const LISTEN_PREFIX: &str = "forkbase REST server listening on http://";

enum Op {
    Get(u64),
    Put(u64, String),
    Scan(u64),
}

fn key_name(i: u64) -> String {
    format!("k{i:05}")
}

fn map_entries(cfg: &RunCfg) -> u64 {
    if cfg.quick {
        2_000
    } else {
        MAP_ENTRIES
    }
}

fn entry_name(i: u64) -> String {
    format!("e{i:06}")
}

/// Version `n` of key `i`: a checkable prefix, then seeded filler.
fn value_for(i: u64, n: u64, rng: &mut Rng) -> String {
    let mut v = format!("{}:{n}:", key_name(i));
    let fill = VALUE_BYTES - v.len();
    v.push_str(&rng.text(fill));
    v
}

/// What the harness knows was written.
struct Model {
    versions: Versions,
    map_uid: Uid,
    user_bytes: u64,
}

/// Preload a data directory through `Session`, the way a user would with
/// the CLI, and leave it closed.
fn preload(cfg: &RunCfg, root: &Path) -> Result<Model, String> {
    let keys = if cfg.quick { 500 } else { KEYS };
    let entries = map_entries(cfg);
    let session = Session::open(root).map_err(|e| e.to_string())?;
    let db = session.db();
    let opts = PutOptions::default().author("preload");
    let mut rng = Rng::new(cfg.seed, 30);
    let mut history = Vec::with_capacity(keys as usize);
    let mut user_bytes = 0u64;
    for chunk in (0..keys).collect::<Vec<_>>().chunks(256) {
        let mut batch = db.write_batch();
        for &i in chunk {
            let value = value_for(i, 0, &mut rng);
            user_bytes += (key_name(i).len() + value.len()) as u64;
            batch.put(key_name(i), Value::Str(value), &opts);
        }
        for outcome in batch.commit().map_err(|e| e.to_string())? {
            let uid = outcome.commit().ok_or("preload put did not commit")?.uid;
            history.push(uid);
        }
    }
    let pairs: Vec<_> = (0..entries)
        .map(|i| {
            let (k, v) = (entry_name(i), format!("item-{i}-{}", rng.text(40)));
            user_bytes += (k.len() + v.len()) as u64;
            (bytes::Bytes::from(k), bytes::Bytes::from(v))
        })
        .collect();
    let map = db.new_map(pairs).map_err(|e| e.to_string())?;
    let map_uid = db.put(MAP_KEY, map, &opts).map_err(|e| e.to_string())?.uid;
    session.save().map_err(|e| e.to_string())?;
    Ok(Model {
        versions: Versions::new(history),
        map_uid,
        user_bytes,
    })
}

struct Server {
    fleet: Fleet,
    pid: u32,
    addr: SocketAddr,
}

/// Preload (in process: on-CPU time on the busy clock), then start the
/// server, wait until it listens and warm it up (waits for the child: wall
/// time).
fn set_up(cfg: &RunCfg, root: &Path, log: &Path) -> Result<(Model, Server), String> {
    let model = preload(cfg, root)?;
    let server = busy::waiting(|| serve(cfg, root, log, model.versions.len() as u64))?;
    Ok((model, server))
}

fn serve(cfg: &RunCfg, root: &Path, log: &Path, keys: u64) -> Result<Server, String> {
    let mut fleet = Fleet::default();
    let data = root.to_string_lossy();
    let pid = fleet.spawn(require_bin(cfg)?, &["--data", &data, "serve", "0"], log)?;
    let addr: SocketAddr = procs::wait_for_line(log, LISTEN_PREFIX)?
        .parse()
        .map_err(|e| format!("server address: {e}"))?;
    for i in 0..WARMUP_REQUESTS as u64 {
        let path = format!("/get/{}", key_name(i % keys));
        let resp =
            http::request(addr, "GET", &path, b"", 0).map_err(|e| format!("warm-up: {e}"))?;
        if resp.status != 200 {
            return Err(format!("warm-up GET answered {}", resp.status));
        }
    }
    Ok(Server { fleet, pid, addr })
}

fn schedule(cfg: &RunCfg, keys: u64, entries: u64) -> Vec<Arrival<Op>> {
    let mut rng = Rng::new(cfg.seed, 31);
    let zipf = Zipf::new(keys, 0.99);
    let mut versions = vec![0u64; keys as usize];
    poisson_schedule(&mut rng, RATE, cfg.seconds)
        .into_iter()
        .map(|due_ns| {
            let kind = rng.unit();
            let op = if kind < GET_SHARE {
                Op::Get(zipf.pick(&mut rng))
            } else if kind < GET_SHARE + PUT_SHARE {
                let k = zipf.pick(&mut rng);
                versions[k as usize] += 1;
                Op::Put(k, value_for(k, versions[k as usize], &mut rng))
            } else {
                Op::Scan(rng.below(entries - PAGE))
            };
            Arrival { due_ns, op }
        })
        .collect()
}

fn version_in(body: &str) -> Option<Uid> {
    Uid::from_base32(body.rsplit_once("version: ")?.1.trim())
}

fn execute(addr: SocketAddr, model: &Model, op: &Op, req: u64) -> bool {
    let sent_ns = trace::now_ns();
    match op {
        Op::Get(k) => {
            let Ok(resp) = http::request(addr, "GET", &format!("/get/{}", key_name(*k)), b"", req)
            else {
                return false;
            };
            let Some(uid) = version_in(&resp.body) else {
                return false;
            };
            resp.status == 200
                && resp.body.starts_with(&format!("\"{}:", key_name(*k)))
                && model.versions.read_ok(*k as usize, uid, sent_ns)
        }
        Op::Put(k, value) => {
            let path = format!("/put/{}", key_name(*k));
            let Ok(resp) = http::request(addr, "PUT", &path, value.as_bytes(), req) else {
                return false;
            };
            match (resp.status, Uid::from_base32(resp.body.trim())) {
                (200, Some(uid)) => {
                    model.versions.wrote(*k as usize, uid, sent_ns);
                    true
                }
                _ => false,
            }
        }
        Op::Scan(start) => {
            let path = format!(
                "/v1/{MAP_KEY}/range?start={}&limit={PAGE}",
                entry_name(*start)
            );
            let Ok(resp) = http::request(addr, "GET", &path, b"", req) else {
                return false;
            };
            let Ok(page) = json::parse(&resp.body) else {
                return false;
            };
            let first = page
                .get("entries")
                .and_then(Json::as_array)
                .and_then(|e| e.first())
                .and_then(|e| e.get("key"))
                .and_then(Json::as_str);
            resp.status == 200
                && page.get("count").and_then(Json::as_f64) == Some(PAGE as f64)
                && first == Some(entry_name(*start).as_str())
                && page.get("version").and_then(Json::as_str) == Some(&model.map_uid.to_string())
        }
    }
}

/// As many `GET`s as [`OVERLOAD_WORKERS`] closed-loop clients can send for
/// [`OVERLOAD_SECONDS`]: several times the limiter's rate. Returns
/// `(attempts, 200s, 429s)`.
fn overload(addr: SocketAddr, keys: u64, seed: u64) -> (u64, u64, u64) {
    let deadline = Instant::now() + Duration::from_secs_f64(OVERLOAD_SECONDS);
    let mut totals = (0u64, 0u64, 0u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..OVERLOAD_WORKERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 40 + w as u64);
                    let (mut n, mut ok, mut shed) = (0u64, 0u64, 0u64);
                    while Instant::now() < deadline {
                        let path = format!("/get/{}", key_name(rng.below(keys)));
                        n += 1;
                        match http::request(addr, "GET", &path, b"", 0).map(|r| r.status) {
                            Ok(200) => ok += 1,
                            Ok(429) => shed += 1,
                            _ => {}
                        }
                    }
                    (n, ok, shed)
                })
            })
            .collect();
        for h in handles {
            let (n, ok, shed) = h.join().expect("overload client panicked");
            totals = (totals.0 + n, totals.1 + ok, totals.2 + shed);
        }
    });
    totals
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let root_of = |rep: usize| cfg.dir.join(format!("rest-{rep}"));
    let mut twin_root = None;
    let (setup_s, (model, mut server)) = timed_set_ups(
        |rep| set_up(cfg, &root_of(rep), &cfg.dir.join(format!("rest-{rep}.log"))),
        |rep, made| {
            drop(made);
            // A traced run keeps one finished set-up as the in-process
            // twin: same seed, same preload, nobody serving it.
            if cfg.trace && twin_root.is_none() {
                twin_root = Some(root_of(rep));
            } else {
                let _ = std::fs::remove_dir_all(root_of(rep));
            }
        },
    )?;
    let root = root_of(super::SETUP_REPS - 1);
    let keys = model.versions.len() as u64;
    let entries = map_entries(cfg);
    let lane = Lane {
        schedule: schedule(cfg, keys, entries),
        workers: WORKERS,
    };

    let cpu_before = procs::cpu_us(server.pid);
    let addr = server.addr;
    let (done, traced) = openloop::run(std::slice::from_ref(&lane), cfg.trace, |op, req| {
        execute(addr, &model, op, req)
    });
    let plan = &lane.schedule;
    let cpu_us = procs::cpu_us(server.pid) - cpu_before;

    let mut out = Outcome::default();
    let mut lat = [Sliced::default(), Sliced::default(), Sliced::default()];
    let mut late = Samples::default();
    let mut put_bytes = 0u64;
    for d in &done {
        out.check(d.ok);
        late.push(d.late_ns);
        let kind = match &plan[d.index].op {
            Op::Get(_) => 0,
            Op::Put(k, v) => {
                put_bytes += (key_name(*k).len() + v.len()) as u64;
                1
            }
            Op::Scan(_) => 2,
        };
        if d.ok {
            lat[kind].push(d.traced, d.latency_ns);
        }
    }
    let (late_judged, late_wrong) = model.versions.settle();
    out.attempted += late_judged;
    out.failed += late_wrong;

    let overloaded = cfg.trace.then(|| overload(addr, keys, cfg.seed));
    let rss = procs::rss_peak_mib(server.pid);
    server.fleet.stop();
    let disk_bytes = procs::dir_bytes(&root);
    // Whatever the server had flushed must still open cleanly.
    out.check(Session::open(&root).is_ok());

    let [gets, puts, scans] = [lat[0].all(), lat[1].all(), lat[2].all()];
    out.set("setup_s", setup_s);
    out.set_n("write_p50_us", puts.p50_us(), puts.len());
    out.set_n("read_p50_us", gets.p50_us(), gets.len());
    out.set(
        "space_amp",
        ratio(disk_bytes as f64, (model.user_bytes + put_bytes) as f64),
    );
    out.note(format!(
        "requests={} gets={} puts={} scans={} late_p99_us={:.0} disk_bytes={disk_bytes}",
        done.len(),
        gets.len(),
        puts.len(),
        scans.len(),
        late.percentile_us(99.0)
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
        "highest GET percentile with 10 samples beyond it: {tail_name} = {tail:.1} us"
    ));
    out.set_n("scan_p50_us", scans.p50_us(), scans.len());
    out.set_n(
        "cli.rest.connect_us_p50",
        traced.p50_us("cli.rest.connect"),
        traced.agg("cli.rest.connect").durations.len(),
    );
    out.set("cli.rest.ttfb_us_p50", traced.p50_us("cli.rest.ttfb"));
    if let Some((attempts, ok, shed)) = overloaded {
        out.set_n(
            "cli.rest.shed_share",
            ratio(shed as f64, attempts as f64),
            attempts as usize,
        );
        out.set(
            "cli.rest.overload_goodput_per_s",
            ok as f64 / OVERLOAD_SECONDS,
        );
    }
    // [D] The same GETs in process, on the twin directory: what is left of
    // the HTTP latency is the gateway's.
    if let Some(twin_root) = &twin_root {
        let twin = Session::open(twin_root).map_err(|e| format!("open twin: {e}"))?;
        let mut in_process = Samples::default();
        for a in plan
            .iter()
            .filter(|a| matches!(a.op, Op::Get(_)))
            .take(2_000)
        {
            let Op::Get(k) = &a.op else { continue };
            let start = Instant::now();
            let answer = twin
                .db()
                .get(&key_name(*k), "master")
                .map(|g| format!("{}\nversion: {}", g.value.summary(), g.uid));
            in_process.push(start.elapsed().as_nanos() as u64);
            std::hint::black_box(answer.is_ok());
        }
        out.set_n("core.api.get_us_p50", in_process.p50_us(), in_process.len());
        out.set(
            "cli.rest.gateway_self_us_p50",
            gets.p50_us() - in_process.p50_us(),
        );
        drop(twin);
        let _ = std::fs::remove_dir_all(twin_root);
    }
    out.set(
        "proc.cpu_us_per_op",
        ratio(cpu_us as f64, done.len() as f64),
    );
    out.set("proc.rss_peak_mib", rss);
    out.set_n("loadgen.late_p99_us", late.percentile_us(99.0), late.len());
    layers::report_overhead(&mut out, &[lat[0].overhead_pair(), lat[1].overhead_pair()]);
    super::write_trace(cfg, "rest_point_ops", &traced);
    let _ = std::fs::remove_dir_all(&root);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_against_a_real_server() {
        let Some(bin) = procs::forkbase_bin() else {
            eprintln!("skipped: no forkbase binary (set FORKBASE_BIN)");
            return;
        };
        let dir = crate::workloads::test_dir("rest");
        let cfg = RunCfg {
            seed: 5,
            seconds: 1.0,
            trace: false,
            quick: true,
            dir: dir.clone(),
            bin: Some(bin),
        };
        let out = run(&cfg).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.notes);
        assert!(out.get("read_p50_us").unwrap() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let cfg = |seed| RunCfg {
            seed,
            seconds: 2.0,
            trace: false,
            quick: true,
            dir: std::path::PathBuf::new(),
            bin: None,
        };
        let fingerprint = |plan: &[Arrival<Op>]| -> Vec<(u64, u64)> {
            plan.iter()
                .map(|a| match &a.op {
                    Op::Get(k) => (a.due_ns, *k),
                    Op::Put(k, v) => (a.due_ns, k + v.len() as u64 * 1_000_000),
                    Op::Scan(s) => (a.due_ns, s + 9_000_000_000),
                })
                .collect()
        };
        let a = fingerprint(&schedule(&cfg(1), 500, 2_000));
        assert_eq!(a, fingerprint(&schedule(&cfg(1), 500, 2_000)));
        assert_ne!(a, fingerprint(&schedule(&cfg(2), 500, 2_000)));
    }
}
