//! The four workloads. Their rates, counts and sizes are constants, frozen
//! with this benchmark; `--seed` is the only input that varies the data.

use std::path::PathBuf;

use crate::busy;
use crate::metrics::Outcome;
use crate::stats::median;
use crate::trace::ThreadTrace;

pub mod cluster;
pub mod dataset;
pub mod ledger;
pub mod rest;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

pub const WORKLOADS: &[&str] = &[
    "ledger_embedded",
    "dataset_versions",
    "rest_point_ops",
    "cluster_tcp_replica",
];

pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of the gated ones.
    pub trace: bool,
    /// Test scale: small data, same code paths.
    pub quick: bool,
    /// Scratch directory of this run (data, child logs); removed on
    /// success.
    pub dir: PathBuf,
    /// The `forkbase` binary the served workloads start.
    pub bin: Option<PathBuf>,
}

pub fn run(workload: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match workload {
        "ledger_embedded" => ledger::run(cfg),
        "dataset_versions" => dataset::run(cfg),
        "rest_point_ops" => rest::run(cfg),
        "cluster_tcp_replica" => cluster::run(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Run `set_up` [`SETUP_REPS`] times, timing each on the busy clock (the
/// thread's on-CPU time plus the waits `set_up` declares with
/// `busy::waiting`), and hand every result but the last to `discard`
/// (outside the timing, before the next set-up starts). Returns `setup_s`,
/// the median time, and the last result, on which the window then runs.
pub fn timed_set_ups<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(usize, T),
) -> Result<(f64, T), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            discard(rep - 1, previous);
        }
        let (made, ns) = busy::timed(|| set_up(rep));
        last = Some(made?);
        secs.push(ns as f64 / 1e9);
    }
    Ok((median(&secs), last.expect("SETUP_REPS is not 0")))
}

/// Write the retained spans beside the run's scratch directory, as
/// `trace-<workload>.json`.
pub fn write_trace(cfg: &RunCfg, workload: &str, t: &ThreadTrace) {
    let Some(parent) = cfg.dir.parent() else {
        return;
    };
    let path = parent.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, t.spans_json()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// The `forkbase` binary, or why the served workloads cannot run.
pub fn require_bin(cfg: &RunCfg) -> Result<&std::path::Path, String> {
    cfg.bin.as_deref().ok_or_else(|| {
        "the forkbase binary was not found: build it (`cargo build --release -p forkbase_cli`) \
         and set FORKBASE_BIN, or use bench/e2e/run.sh"
            .to_string()
    })
}

#[cfg(test)]
pub fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("forkbase-loadgen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
