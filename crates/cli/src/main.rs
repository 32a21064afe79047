#![forbid(unsafe_code)]
//! The `forkbase` command-line tool.
//!
//! ```text
//! forkbase --data DIR <verb> [args…]          run one verb against a single node
//! forkbase --data DIR cluster <verb> [args…]  the same against the sharded cluster
//!                                             under DIR/cluster (`cluster init N`
//!                                             creates it)
//! forkbase --data DIR [cluster] serve [PORT]  serve the REST gateway
//! forkbase serve --servelet ADDR --data DIR   run a standalone servelet process
//!                                             (wire protocol on ADDR, FileStore at DIR)
//! ```
//!
//! Run with no arguments for the verb list (`forkbase_cli`'s `commands`
//! module has the table). The data directory defaults to `.forkbase` (or
//! `$FORKBASE_DATA`).

use std::process::ExitCode;

use forkbase_cli::Session;

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

    let opened = match rest.as_slice() {
        // A standalone servelet process: no REST, no routing — just the
        // wire protocol on a socket over its own durable store. Routers
        // reach it via `cluster add-remote ADDR` or a topology record.
        ["serve", "--servelet", addr @ ..] => return servelet(addr.first(), &data_dir),
        ["cluster", "init", n @ ..] => {
            let Some(n) = n.first().and_then(|n| n.parse::<usize>().ok()) else {
                eprintln!("error: cluster init needs a servelet count (cluster init N)");
                return ExitCode::FAILURE;
            };
            Session::init_cluster(&data_dir, n)
                .and_then(|s| s.save())
                .map(|()| {
                    println!("initialized {n}-servelet cluster under {data_dir}/cluster");
                    ExitCode::SUCCESS
                })
        }
        ["cluster", args @ ..] => Session::open_cluster(&data_dir).map(|s| s.run_cli(args)),
        args => Session::open(&data_dir).map(|s| s.run_cli(args)),
    };
    opened.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn servelet(addr: Option<&&str>, data_dir: &str) -> ExitCode {
    let Some(addr) = addr else {
        eprintln!("error: serve --servelet needs an address (e.g. 127.0.0.1:8700)");
        return ExitCode::FAILURE;
    };
    let server = match forkbase_cli::serve_servelet(addr, data_dir) {
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
