//! True end-to-end smoke tests: drive the compiled `forkbase` binary as a
//! subprocess against a durable on-disk store, exactly as a user would.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn temp_data(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fkb-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(data: &std::path::Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_forkbase"))
        .arg("--data")
        .arg(data)
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_workflow_across_process_restarts() {
    let data = temp_data("workflow");

    // Each command is a separate PROCESS: state must round-trip disk.
    let (ok, out, err) = run(&data, &["put", "greeting", "hello from process 1"]);
    assert!(ok, "put failed: {err}");
    assert!(out.contains("master -> "));

    let (ok, out, _) = run(&data, &["get", "greeting"]);
    assert!(ok);
    assert!(out.contains("hello from process 1"));

    let (ok, _, _) = run(&data, &["branch", "greeting", "dev"]);
    assert!(ok);
    let (ok, _, _) = run(
        &data,
        &["put", "greeting", "dev version", "--branch", "dev"],
    );
    assert!(ok);

    let (ok, out, _) = run(&data, &["diff", "greeting", "dev"]);
    assert!(ok);
    assert!(out.contains("dev version"));

    let (ok, out, _) = run(&data, &["history", "greeting", "--branch", "dev"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 2, "history: {out}");

    let (ok, out, _) = run(&data, &["verify", "greeting", "--branch", "dev"]);
    assert!(ok);
    assert!(out.contains("OK: verified 2"));

    let (ok, out, _) = run(&data, &["stat"]);
    assert!(ok);
    assert!(out.contains("keys:          1"));

    std::fs::remove_dir_all(&data).unwrap();
}

#[test]
fn csv_file_loading_via_at_syntax() {
    let data = temp_data("csvfile");
    let csv_path = std::env::temp_dir().join(format!("fkb-bin-csv-{}.csv", std::process::id()));
    std::fs::write(&csv_path, "id,name\n1,alpha\n2,beta\n").unwrap();

    let (ok, out, err) = run(
        &data,
        &["load-csv", "ds", &format!("@{}", csv_path.display())],
    );
    assert!(ok, "load-csv failed: {err}");
    assert!(out.contains("loaded -> "));

    let (ok, out, _) = run(&data, &["export-csv", "ds"]);
    assert!(ok);
    assert!(out.contains("1,alpha"));
    assert!(out.contains("2,beta"));

    let (ok, out, _) = run(&data, &["prove", "ds", "2"]);
    assert!(ok, "prove failed");
    assert!(out.contains("present"));

    std::fs::remove_file(&csv_path).unwrap();
    std::fs::remove_dir_all(&data).unwrap();
}

#[test]
fn bundle_transfer_between_data_dirs() {
    let src = temp_data("bundle-src");
    let dst = temp_data("bundle-dst");
    let bundle = std::env::temp_dir().join(format!("fkb-bin-bundle-{}", std::process::id()));

    run(&src, &["put", "doc", "shared document"]);
    let (ok, _, err) = run(&src, &["bundle-export", "doc", bundle.to_str().unwrap()]);
    assert!(ok, "export failed: {err}");

    let (ok, out, err) = run(&dst, &["bundle-import", bundle.to_str().unwrap()]);
    assert!(ok, "import failed: {err}");
    assert!(out.contains("doc@master"));

    let (ok, out, _) = run(&dst, &["get", "doc"]);
    assert!(ok);
    assert!(out.contains("shared document"));

    std::fs::remove_file(&bundle).unwrap();
    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&dst).unwrap();
}

#[test]
fn bad_usage_exits_nonzero() {
    let data = temp_data("badusage");
    let (ok, _, err) = run(&data, &["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage"));
    let (ok, _, err) = run(&data, &["get", "missing-key"]);
    assert!(!ok);
    assert!(err.contains("no such key"));
    std::fs::remove_dir_all(&data).unwrap();
}

#[test]
fn cluster_workflow_across_process_restarts() {
    let data = temp_data("cluster");

    let (ok, out, err) = run(&data, &["cluster", "init", "3"]);
    assert!(ok, "init failed: {err}");
    assert!(out.contains("initialized 3-servelet cluster"));
    // Re-init is refused.
    let (ok, _, err) = run(&data, &["cluster", "init", "2"]);
    assert!(!ok, "double init must fail");
    assert!(err.contains("already initialized"));

    // Each command is a separate PROCESS: topology, refs, and chunks must
    // all round-trip disk, and routing must stay identical.
    for i in 0..12 {
        let (ok, out, err) = run(
            &data,
            &[
                "cluster",
                "put",
                &format!("doc-{i}"),
                &format!("payload {i}"),
            ],
        );
        assert!(ok, "cluster put failed: {err}");
        assert!(out.contains("servelet "), "{out}");
    }
    let (ok, out, _) = run(&data, &["cluster", "keys"]);
    assert!(ok);
    assert_eq!(out.trim().lines().count(), 12);

    // Atomic per-servelet batch from a fresh process.
    let (ok, out, _) = run(
        &data,
        &["cluster", "batch", "put:doc-0=edited", "put:extra=new"],
    );
    assert!(ok, "{out}");

    // Live rebalance: grow, then shrink, across process boundaries.
    let (ok, out, err) = run(&data, &["cluster", "add"]);
    assert!(ok, "add failed: {err}");
    assert!(out.contains("servelet 3 joined"), "{out}");
    let (ok, out, err) = run(&data, &["cluster", "remove", "0"]);
    assert!(ok, "remove failed: {err}");
    assert!(out.contains("servelet 0 drained"), "{out}");

    // Every key survived the moves and still reads correctly.
    let (ok, out, _) = run(&data, &["cluster", "get", "doc-0"]);
    assert!(ok);
    assert!(out.contains("edited"), "{out}");
    for i in 1..12 {
        let (ok, out, _) = run(&data, &["cluster", "get", &format!("doc-{i}")]);
        assert!(ok);
        assert!(out.contains(&format!("payload {i}")), "{out}");
    }
    let (ok, out, _) = run(&data, &["cluster", "stats"]);
    assert!(ok);
    assert!(out.contains("cluster: 3 servelet(s), 13 key(s)"), "{out}");

    // The single-node verbs still work beside the cluster tree.
    let (ok, _, _) = run(&data, &["put", "solo", "standalone"]);
    assert!(ok);

    std::fs::remove_dir_all(&data).unwrap();
}

/// Kills the child on drop, so a failing assert leaks no process.
struct Killed(Child);

impl Drop for Killed {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One request on a fresh connection, as `connection: close` clients
/// send it; the status and body back.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect to the gateway");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nhost: smoke\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn node_gateway_serves_puts_and_gets_over_http() {
    let data = temp_data("serve");
    let child = Command::new(env!("CARGO_BIN_EXE_forkbase"))
        .arg("--data")
        .arg(&data)
        .args(["serve", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the gateway");
    let mut child = Killed(child);
    let stdout = child.0.stdout.take().expect("piped stdout");
    const LISTENING: &str = "forkbase REST server listening on http://";
    // Kept open until the end: a child printing to a closed pipe fails.
    let mut lines = BufReader::new(stdout).lines();
    let addr = lines
        .by_ref()
        .map_while(Result::ok)
        .find_map(|line| line.strip_prefix(LISTENING).map(str::to_string))
        .expect("the gateway prints its address");

    let (status, uid) = http(&addr, "PUT", "/put/greeting", "hello smoke");
    assert_eq!(status, 200, "{uid}");
    let uid = uid.trim().to_string();
    assert!(!uid.is_empty());
    let (status, body) = http(&addr, "GET", "/get/greeting", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("hello smoke"), "{body}");
    assert!(body.contains(&format!("version: {uid}")), "{body}");
    let (status, head) = http(&addr, "GET", "/head/greeting", "");
    assert_eq!((status, head.trim()), (200, uid.as_str()));
    let (status, body) = http(&addr, "GET", "/get/missing", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("\"code\":\"no_such_key\""), "{body}");

    drop(child);
    drop(lines);
    let _ = std::fs::remove_dir_all(&data);
}
