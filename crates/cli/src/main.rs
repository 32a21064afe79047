#![forbid(unsafe_code)]
//! The `forkbase` command-line tool.
//!
//! ```text
//! forkbase --data DIR <verb> [args…]        run one verb against a durable store
//! forkbase --data DIR fork <sub> [args…]    manage leased fork sandboxes
//!                                           (create | list | info | touch | drop |
//!                                            diff | get | put)
//! forkbase --data DIR serve [PORT]          start the REST server
//! forkbase serve --servelet ADDR --data DIR run a standalone servelet process
//!                                           (wire protocol on ADDR, FileStore at DIR)
//! forkbase --data DIR cluster <sub> [args]  drive the elastic sharded cluster
//!                                           (init N | put | get | batch | range |
//!                                            add | add-remote ADDR | remove ID |
//!                                            add-replica PID | add-remote-replica PID ADDR |
//!                                            promote ID | replication-status |
//!                                            keys | stats | gc | topology |
//!                                            health | restart ID | serve [PORT] |
//!                                            fork <sub> …)
//! ```
//!
//! Run with no arguments for the verb list. The data directory defaults to
//! `.forkbase` (or `$FORKBASE_DATA`).

use std::process::ExitCode;

use forkbase_cli::{
    run_cluster_command, run_command, run_fork_command, ClusterSession, RestServer, Session,
};

/// Default per-peer admission policy for the REST gateways: generous
/// enough that a human or a well-behaved script never sees it, tight
/// enough that one runaway client cannot monopolize the thread-per-
/// connection server. Shed requests answer `429` + `retry-after`.
fn gateway_rate_limiter() -> std::sync::Arc<forkbase::RateLimiter> {
    std::sync::Arc::new(forkbase::RateLimiter::new(forkbase::RateLimit::new(
        500.0, 1000.0,
    )))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut data_dir = std::env::var("FORKBASE_DATA").unwrap_or_else(|_| ".forkbase".into());
    let mut rest: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--data" {
            match it.next() {
                Some(d) => data_dir = d.clone(),
                None => {
                    eprintln!("--data needs a directory");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            rest.push(a.as_str());
        }
    }

    // The cluster verb family manages its own multi-servelet layout under
    // the data directory; it never opens the single-node store.
    if rest.first().copied() == Some("cluster") {
        return cluster_main(&data_dir, &rest[1..]);
    }

    // A standalone servelet process: no REST, no routing — just the wire
    // protocol on a socket over its own durable store. Routers reach it
    // via `cluster add-remote ADDR` or a TOPOLOGY record with addresses.
    if rest.first().copied() == Some("serve") && rest.get(1).copied() == Some("--servelet") {
        let Some(addr) = rest.get(2) else {
            eprintln!("error: serve --servelet needs an address (e.g. 127.0.0.1:8700)");
            return ExitCode::FAILURE;
        };
        let server = match forkbase_cli::serve_servelet(addr, &data_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to start servelet on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("forkbase servelet listening on {}", server.addr());
        println!("data directory: {data_dir}");
        println!("press Ctrl-C to stop");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(60));
        }
    }

    let session = match Session::open(&data_dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to open database at {data_dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if rest.first().copied() == Some("serve") {
        let port: u16 = rest.get(1).and_then(|p| p.parse().ok()).unwrap_or(8642);
        let server = match RestServer::start(
            session.db_arc(),
            port,
            session.forks_arc(),
            Some(gateway_rate_limiter()),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to bind port {port}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("forkbase REST server listening on http://{}", server.addr());
        println!("data directory: {data_dir}");
        println!("press Ctrl-C to stop");
        // Persist refs periodically so a Ctrl-C loses at most 5 s of head
        // movement (chunks themselves are always durable). The same beat
        // reaps expired fork sandboxes — their branches are deleted and
        // the next `gc` reclaims their chunks.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(5));
            let report = session.forks().reap_expired(session.db());
            if !report.reaped.is_empty() {
                println!(
                    "reaped {} expired fork(s): {}",
                    report.reaped.len(),
                    report.reaped.join(", ")
                );
            }
            if let Err(e) = session.save() {
                eprintln!("warning: failed to persist refs: {e}");
            }
        }
    }

    let output = match rest.split_first() {
        Some((&"fork", sub)) => run_fork_command(session.forks(), session.db(), sub),
        _ => run_command(session.db(), &rest),
    };
    match output {
        Ok(output) => {
            if !output.is_empty() {
                println!("{output}");
            }
            if let Err(e) = session.save() {
                eprintln!("warning: failed to persist state: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cluster_main(data_dir: &str, args: &[&str]) -> ExitCode {
    let session = if args.first().copied() == Some("init") {
        let Some(n) = args.get(1).and_then(|n| n.parse::<usize>().ok()) else {
            eprintln!("error: cluster init needs a servelet count (cluster init N)");
            return ExitCode::FAILURE;
        };
        match ClusterSession::init(data_dir, n) {
            Ok(s) => {
                println!("initialized {n}-servelet cluster under {data_dir}/cluster");
                s
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match ClusterSession::open(data_dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    if args.first().copied() == Some("serve") {
        let port: u16 = args.get(1).and_then(|p| p.parse().ok()).unwrap_or(8643);
        let server = match RestServer::start_cluster(
            session.cluster_arc(),
            port,
            session.forks_arc(),
            Some(gateway_rate_limiter()),
        ) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("failed to bind port {port}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Self-heal while serving: probe every 2 s and restart dead
        // servelets from their durable backends (packs + refs files).
        // After 5 consecutive failed probes (~10 s down) a primary with a
        // caught-up replica is failed over instead of restarted in place.
        // The fork-sandbox reaper rides the same tick: expired leases are
        // collected every pass, their branches dropped cluster-wide.
        session.cluster_arc().set_failover_threshold(Some(5));
        let reaper_forks = session.forks_arc();
        let _supervisor = forkbase::Supervisor::spawn_with_tick(
            session.cluster_arc(),
            std::time::Duration::from_secs(2),
            move |cluster| {
                let _ = reaper_forks.reap_expired(cluster);
            },
        );
        println!(
            "forkbase cluster gateway listening on http://{}",
            server.addr()
        );
        println!("data directory: {data_dir}/cluster (supervised)");
        println!("press Ctrl-C to stop");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(5));
            if let Err(e) = session.save() {
                eprintln!("warning: failed to persist cluster state: {e}");
            }
        }
    }

    let output = if args.first().copied() == Some("init") {
        Ok(String::new())
    } else {
        run_cluster_command(&session, args)
    };
    // Persist even when the command failed: a routed batch commits per
    // servelet (groups on earlier slots stay committed on error by
    // contract), and those heads must survive the process. A successful
    // `remove` already saved (it must, before deleting the drained
    // directory) — don't repeat the full sync.
    let saved = if args.first().copied() == Some("remove") && output.is_ok() {
        Ok(())
    } else {
        session.save()
    };
    match output {
        Ok(output) => {
            if !output.is_empty() {
                println!("{output}");
            }
            if let Err(e) = saved {
                eprintln!("warning: failed to persist cluster state: {e}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            if let Err(e) = saved {
                eprintln!("warning: failed to persist cluster state: {e}");
            }
            ExitCode::FAILURE
        }
    }
}
