//! Crash-after-ack tests for a servelet's persist path, one per servelet
//! kind. A real `forkbase serve --servelet` child process, or a
//! `forkbase cluster serve` gateway over a local cluster with a replica,
//! takes puts from several connections at once and is SIGKILLed the
//! moment one of them is acked, while the others are still being applied
//! and persisted. The data directory must reopen, with every acked write
//! present.
//!
//! The persist runs on the connection's thread while other connections
//! publish heads, so a head published by one connection can be written
//! to the durable ref record by another connection's persist. That record
//! must never name a chunk the chunk store has not yet flushed: a reopen
//! would fail with "no such version" and the whole directory would be
//! unreadable. Servelet output lands in `target/persist-crash/`; a
//! failing run leaves its data directory there.

use std::fs::OpenOptions;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use forkbase::{Cluster, ClusterTopology, PutOptions, TopoRole};
use forkbase_cli::Session;
use forkbase_postree::TreeConfig;
use forkbase_store::MemStore;
use forkbase_types::Value;

/// Rounds: each restarts the servelet over the directory the last left.
const ROUNDS: usize = 8;
const WRITERS: usize = 4;
/// Acks after which a round's child is killed.
const ACKS_PER_ROUND: usize = 120;
/// Keys loaded before the first round, so a persist has a table to write.
const PRELOAD: usize = 2_000;

fn spawn_servelet(data: &Path, log: &Path) -> Child {
    let logf = OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .expect("open servelet log");
    Command::new(env!("CARGO_BIN_EXE_forkbase"))
        .args(["serve", "--servelet", "127.0.0.1:0", "--data"])
        .arg(data)
        .stdin(Stdio::null())
        .stdout(Stdio::from(logf.try_clone().expect("clone log handle")))
        .stderr(Stdio::from(logf))
        .spawn()
        .expect("spawn servelet process")
}

/// Poll the log (fresh per round) until the servelet prints its address.
fn wait_for_addr(log: &Path) -> String {
    wait_for_line(log, "forkbase servelet listening on ")
}

/// Poll the log until a line starts with `LISTENING`; what follows it.
fn wait_for_line(log: &Path, listening: &str) -> String {
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        if let Some(line) = text.lines().find(|l| l.starts_with(listening)) {
            return line.trim_start_matches(listening).trim().to_string();
        }
        assert!(Instant::now() < give_up, "no address in {log:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn router(addr: String) -> Cluster<MemStore> {
    let topology = ClusterTopology {
        servelet_ids: vec![0],
        addrs: vec![Some(addr)],
        roles: vec![TopoRole::Primary { anchor: 0 }],
        next_id: 1,
    };
    Cluster::connect(&topology, TreeConfig::default()).expect("connect router")
}

/// Kills the child on drop, so a failing assert leaks no process.
struct Killed(Arc<Mutex<Child>>);

impl Drop for Killed {
    fn drop(&mut self) {
        let mut child = self.0.lock().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }
}

#[test]
fn servelet_killed_right_after_an_ack_reopens_with_every_acked_write() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/persist-crash")
        .join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let data: PathBuf = root.join("servelet");
    let mut acked: Vec<(String, String)> = Vec::new();

    for round in 0..ROUNDS {
        let log = root.join(format!("servelet-{round}.log"));
        let child = Arc::new(Mutex::new(spawn_servelet(&data, &log)));
        let guard = Killed(Arc::clone(&child));
        let cluster = router(wait_for_addr(&log));
        if round == 0 {
            let mut batch = cluster.write_batch();
            for i in 0..PRELOAD {
                batch.put(
                    format!("pre-{i:04}"),
                    Value::Int(i as i64),
                    &PutOptions::default(),
                );
            }
            batch.commit().expect("preload batch");
        }

        let this_round = Mutex::new(Vec::new());
        let killed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (cluster, this_round, killed, child) = (&cluster, &this_round, &killed, &child);
                scope.spawn(move || {
                    for i in 0.. {
                        if killed.load(Ordering::SeqCst) {
                            return;
                        }
                        let key = format!("r{round}-w{w}-{i}");
                        let value = format!("v{round}.{w}.{i}");
                        let put = cluster.put_string(&key, value.clone(), PutOptions::default());
                        if put.is_err() {
                            // Only after the kill may a put fail.
                            assert!(killed.load(Ordering::SeqCst), "{key}: {put:?}");
                            return;
                        }
                        let mut acks = this_round.lock().unwrap();
                        acks.push((key, value));
                        if acks.len() == ACKS_PER_ROUND {
                            killed.store(true, Ordering::SeqCst);
                            // SIGKILL: no destructor, no final flush.
                            child.lock().unwrap().kill().expect("kill servelet");
                            return;
                        }
                    }
                });
            }
        });
        drop(guard);
        drop(cluster);
        acked.extend(this_round.into_inner().unwrap());

        let reopened = Session::open(&data)
            .unwrap_or_else(|e| panic!("round {round}: the directory no longer opens: {e}"));
        for (key, value) in &acked {
            let got = reopened
                .db()
                .get(key, "master")
                .unwrap_or_else(|e| panic!("round {round}: acked {key} lost: {e}"));
            assert_eq!(
                got.value,
                Value::string(value.clone()),
                "round {round}: {key}"
            );
        }
    }
    std::fs::remove_dir_all(&root).unwrap();
}

/// Acks after which the gateway is killed, and the least time it takes
/// puts first: past the supervisor's first 2 s ship to the replica, and
/// short of the session's first 5 s save.
const GATEWAY_ACKS: usize = 40;
const GATEWAY_WRITING: Duration = Duration::from_millis(2_500);

/// Run one CLI verb against `data` to completion.
fn forkbase(data: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_forkbase"))
        .arg("--data")
        .arg(data)
        .args(args)
        .output()
        .expect("run forkbase");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "forkbase {args:?}: {err}");
}

/// `PUT /put/<key>` on a connection of its own; the reply's status, 0
/// when none came.
fn http_put(addr: &str, key: &str, value: &str) -> u16 {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return 0;
    };
    let req = format!(
        "PUT /put/{key} HTTP/1.1\r\nhost: test\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{value}",
        value.len()
    );
    let mut reply = String::new();
    let _ = conn
        .write_all(req.as_bytes())
        .and_then(|()| conn.read_to_string(&mut reply));
    let status = reply.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    status.unwrap_or(0)
}

#[test]
fn local_cluster_gateway_killed_right_after_an_ack_reopens_with_every_acked_write() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/persist-crash")
        .join(format!("cluster-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let data = root.join("data");
    forkbase(&data, &["cluster", "init", "2"]);
    forkbase(&data, &["cluster", "add-replica", "0"]);

    let log = root.join("gateway.log");
    let logf = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .expect("open gateway log");
    let child = Command::new(env!("CARGO_BIN_EXE_forkbase"))
        .arg("--data")
        .arg(&data)
        .args(["cluster", "serve", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::from(logf.try_clone().expect("clone log handle")))
        .stderr(Stdio::from(logf))
        .spawn()
        .expect("spawn gateway process");
    let child = Arc::new(Mutex::new(child));
    let guard = Killed(Arc::clone(&child));
    let addr = wait_for_line(&log, "forkbase cluster gateway listening on http://");
    let started = Instant::now();

    let acked = Mutex::new(Vec::new());
    let killed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (addr, acked, killed, child) = (&addr, &acked, &killed, &child);
            scope.spawn(move || {
                for i in 0.. {
                    if killed.load(Ordering::SeqCst) {
                        return;
                    }
                    // Paced under the gateway's per-peer admission rate.
                    std::thread::sleep(Duration::from_millis(10));
                    let (key, value) = (format!("w{w}-{i}"), format!("v{w}.{i}"));
                    match http_put(addr, &key, &value) {
                        200 => {}
                        429 => continue,
                        status => {
                            // Only after the kill may a put fail.
                            assert!(killed.load(Ordering::SeqCst), "{key}: status {status}");
                            return;
                        }
                    }
                    let mut acks = acked.lock().unwrap();
                    acks.push((key, value));
                    if acks.len() >= GATEWAY_ACKS
                        && started.elapsed() >= GATEWAY_WRITING
                        && !killed.swap(true, Ordering::SeqCst)
                    {
                        // SIGKILL: no destructor, no final save.
                        child.lock().unwrap().kill().expect("kill gateway");
                        return;
                    }
                }
            });
        }
    });
    drop(guard);
    let acked = acked.into_inner().unwrap();

    let reopened =
        Session::open_cluster(&data).unwrap_or_else(|e| panic!("the cluster no longer opens: {e}"));
    let lost: Vec<&String> = acked
        .iter()
        .filter(|(key, value)| {
            let got = reopened.cluster().get(key, "master");
            got.map_or(true, |g| g.value != Value::string(value.clone()))
        })
        .map(|(key, _)| key)
        .collect();
    assert!(
        lost.is_empty(),
        "{} of {} acked puts lost, first {:?}",
        lost.len(),
        acked.len(),
        &lost[..lost.len().min(5)]
    );
    let replicas = reopened.cluster().replica_ids();
    assert!(!replicas.is_empty(), "the replica is still attached");
    drop(reopened);
    for (rid, _) in replicas {
        let dir = data.join(format!("cluster/servelet-{rid}"));
        Session::open(&dir).unwrap_or_else(|e| panic!("replica {rid}'s refs.log: {e}"));
    }
    std::fs::remove_dir_all(&root).unwrap();
}
