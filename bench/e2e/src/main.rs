#![forbid(unsafe_code)]
//! `forkbase-loadgen`: the end-to-end + per-layer benchmark of record.
//!
//! ```text
//! forkbase-loadgen --workload W --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of stdout is the result
//!     object `BENCHMARK.json` describes (`--trace 0`: the gated
//!     end-to-end metrics, `--trace 1`: the per-layer metrics)
//! forkbase-loadgen all --seed N [--seconds S] --out FILE
//!     every workload, untraced then traced, into one result file
//! forkbase-loadgen compare A.json[,A2.json…] B.json[,B2.json…]
//!     both sides' medians, the ratio with its base, the bound, a verdict
//! ```
//!
//! See `bench/e2e/README.md` for what each workload stresses and which
//! layer metric should move which end-to-end metric.

mod busy;
mod embed;
mod http;
mod json;
mod layers;
mod metrics;
mod model;
mod openloop;
mod procs;
mod report;
mod rng;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Kind;
use workloads::{RunCfg, WORKLOADS};

/// Window length when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number of seconds in (0, 600]")?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ if args.command.is_none() && args.workload.is_none() => args.command = Some(a),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

/// `$CARGO_TARGET_DIR/loadgen`, else `target/loadgen` under the current
/// directory.
fn workdir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("loadgen")
}

fn run_one(workload: &str, args: &Args, trace: bool) -> Result<metrics::Outcome, String> {
    let dir = workdir().join(format!("run-{}-{workload}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        quick: args.quick,
        dir: dir.clone(),
        bin: procs::forkbase_bin(),
    };
    let out = workloads::run(workload, &cfg)?;
    // Data and child logs stay behind only when something went wrong.
    if out.failed == 0 {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        eprintln!("failures: data and logs kept in {}", dir.display());
    }
    Ok(out)
}

fn main_inner() -> Result<ExitCode, String> {
    let args = parse_args()?;
    match args.command.as_deref() {
        None => {
            let workload = args.workload.as_deref().ok_or("--workload is required")?;
            let kind = if args.trace {
                Kind::Layer
            } else {
                Kind::EndToEnd
            };
            let out = run_one(workload, &args, args.trace)?;
            let line = report::result_json(&out, kind, false)?;
            report::print_table(workload, &out, kind);
            println!("{line}");
            Ok(if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("all") => {
            let path = args.out.as_deref().ok_or("all needs --out FILE")?;
            let mut any_failed = false;
            let mut sections = Vec::new();
            for workload in WORKLOADS {
                let mut modes = Vec::new();
                for (trace, kind, key) in [
                    (false, Kind::EndToEnd, "end_to_end"),
                    (true, Kind::Layer, "per_layer"),
                ] {
                    let out = run_one(workload, &args, trace)?;
                    report::print_table(workload, &out, kind);
                    any_failed |= out.failed > 0;
                    modes.push(format!(
                        "\"{key}\":{}",
                        report::result_json(&out, kind, true)?
                    ));
                }
                sections.push(format!("\"{workload}\":{{{}}}", modes.join(",")));
            }
            let doc = format!(
                "{{\"runner\":{},\n\"workloads\":{{\n{}\n}}}}\n",
                report::runner_json(args.seed, args.seconds),
                sections.join(",\n")
            );
            std::fs::write(path, doc).map_err(|e| format!("write {path}: {e}"))?;
            println!("wrote {path}");
            Ok(if any_failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare takes two result files (or comma-separated sets)".into());
            };
            let bounds = report::load_bounds("BENCHMARK.json")?;
            let worse = report::compare(a, b, &bounds)?;
            Ok(if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some(other) => Err(format!("unknown command {other:?} (try: all, compare)")),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("forkbase-loadgen: {e}");
            ExitCode::from(2)
        }
    }
}
