#![forbid(unsafe_code)]
//! Bench-regression gate: diff a fresh `BENCH_*.json` (JSON-lines, one
//! object per benchmark, written by the criterion shim when
//! `BENCH_JSON_PATH` is set) against a committed baseline and fail on
//! large throughput regressions in the gated benchmark groups.
//!
//! ```text
//! bench_compare <baseline.json> <current.json> [--threshold 0.25]
//! ```
//!
//! Only the *gated* groups fail the run — `chunk_throughput/*`,
//! `db/concurrent_commits/*`, `db/cluster_put/*`,
//! `replication/ship_drain/*` and `postree/apply/*`, the numbers the
//! ROADMAP bench history tracks; everything else is reported
//! informationally. A gated bench
//! missing from the current run also fails (a silently dropped bench must
//! not read as green). Shared CI runners are noisy, so the CI job runs
//! this with `continue-on-error` and uploads the diff as an artifact; the
//! gate is a tripwire for big (>25%) regressions, not a microbenchmark
//! police.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Benchmark groups whose regressions fail the gate.
const GATED_PREFIXES: &[&str] = &[
    "chunk_throughput",
    "db/concurrent_commits",
    "db/cluster_put",
    "replication/ship_drain",
    "postree/apply",
];
const DEFAULT_THRESHOLD: f64 = 0.25;

/// One parsed benchmark result line.
#[derive(Clone, Debug, PartialEq)]
struct BenchResult {
    ns_per_iter: f64,
    /// Preferred comparison metric, higher-is-better: MiB/s, elem/s, or
    /// (lacking a declared throughput) iterations/s.
    throughput: f64,
    unit: &'static str,
}

/// Extract the string value of `"key":"…"` from a JSON object line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    // Bench names never contain escaped quotes (the shim escapes them, but
    // group/function names in this workspace are plain identifiers).
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extract the numeric value of `"key":N` from a JSON object line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E' && !c.is_ascii_digit()
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_jsonl(text: &str) -> BTreeMap<String, BenchResult> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(bench) = json_str(line, "bench") else {
            continue;
        };
        let Some(ns) = json_num(line, "ns_per_iter") else {
            continue;
        };
        let (throughput, unit) = if let Some(mibps) = json_num(line, "mib_per_s") {
            (mibps, "MiB/s")
        } else if let Some(eps) = json_num(line, "elem_per_s") {
            (eps, "elem/s")
        } else {
            (1e9 / ns.max(1e-9), "iter/s")
        };
        out.insert(
            bench.to_string(),
            BenchResult {
                ns_per_iter: ns,
                throughput,
                unit,
            },
        );
    }
    out
}

fn is_gated(bench: &str) -> bool {
    GATED_PREFIXES.iter().any(|p| bench.starts_with(p))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threshold" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("--threshold needs a numeric value");
                return ExitCode::from(2);
            };
            threshold = v;
        } else {
            files.push(a.clone());
        }
    }
    let [baseline_path, current_path] = files.as_slice() else {
        eprintln!("usage: bench_compare <baseline.json> <current.json> [--threshold 0.25]");
        return ExitCode::from(2);
    };

    let read = |path: &str| -> Option<BTreeMap<String, BenchResult>> {
        match std::fs::read_to_string(path) {
            Ok(text) => Some(parse_jsonl(&text)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                None
            }
        }
    };
    let (Some(baseline), Some(current)) = (read(baseline_path), read(current_path)) else {
        return ExitCode::from(2);
    };

    println!("bench-compare: {current_path} vs baseline {baseline_path}");
    println!(
        "gate: >{:.0}% regression in {GATED_PREFIXES:?}\n",
        threshold * 100.0
    );
    println!(
        "{:<56} {:>12} {:>12} {:>8}  verdict",
        "benchmark", "baseline", "current", "delta"
    );

    let mut failures = Vec::new();
    for (bench, base) in &baseline {
        let gated = is_gated(bench);
        match current.get(bench) {
            Some(cur) => {
                // Positive delta = faster than baseline.
                let delta = (cur.throughput - base.throughput) / base.throughput;
                let regressed = delta < -threshold;
                let verdict = match (gated, regressed) {
                    (true, true) => "FAIL",
                    (true, false) => "ok (gated)",
                    (false, true) => "regressed (ungated)",
                    (false, false) => "ok",
                };
                println!(
                    "{bench:<56} {:>9.1} {u} {:>9.1} {u} {delta:>+7.1}%  {verdict}",
                    base.throughput,
                    cur.throughput,
                    u = base.unit,
                    delta = delta * 100.0,
                );
                if gated && regressed {
                    failures.push(format!(
                        "{bench}: {:.1} -> {:.1} {} ({:+.1}%)",
                        base.throughput,
                        cur.throughput,
                        base.unit,
                        delta * 100.0
                    ));
                }
            }
            None => {
                let verdict = if gated { "FAIL (missing)" } else { "missing" };
                println!(
                    "{bench:<56} {:>9.1} {u} {:>12} {:>8}  {verdict}",
                    base.throughput,
                    "-",
                    "-",
                    u = base.unit
                );
                if gated {
                    failures.push(format!("{bench}: present in baseline, missing from run"));
                }
            }
        }
    }
    for bench in current.keys() {
        if !baseline.contains_key(bench) {
            println!("{bench:<56} {:>12} (new — no baseline)", "-");
        }
    }

    if failures.is_empty() {
        println!(
            "\nPASS: no gated benchmark regressed more than {:.0}%",
            threshold * 100.0
        );
        ExitCode::SUCCESS
    } else {
        println!("\nFAIL: {} gated regression(s):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
{"bench":"chunk_throughput/ingest_64MiB/bulk_scan_zero_copy","ns_per_iter":50000000.0,"bytes_per_iter":67108864,"mib_per_s":1280.0}
{"bench":"db/concurrent_commits/striped/disjoint/2thr","ns_per_iter":400000.0,"elements_per_iter":300,"elem_per_s":750000}
{"bench":"store/compaction/ingest_delete_compact_reread","ns_per_iter":9000000.0}
"#;

    #[test]
    fn parses_all_metric_shapes() {
        let parsed = parse_jsonl(SAMPLE);
        assert_eq!(parsed.len(), 3);
        let ingest = &parsed["chunk_throughput/ingest_64MiB/bulk_scan_zero_copy"];
        assert_eq!(ingest.unit, "MiB/s");
        assert!((ingest.throughput - 1280.0).abs() < 1e-9);
        let commits = &parsed["db/concurrent_commits/striped/disjoint/2thr"];
        assert_eq!(commits.unit, "elem/s");
        assert!((commits.throughput - 750000.0).abs() < 1e-9);
        let compaction = &parsed["store/compaction/ingest_delete_compact_reread"];
        assert_eq!(compaction.unit, "iter/s");
        assert!((compaction.throughput - 1e9 / 9000000.0).abs() < 1e-6);
        assert!((compaction.ns_per_iter - 9e6).abs() < 1e-3);
    }

    #[test]
    fn gating_covers_exactly_the_tracked_groups() {
        assert!(is_gated("chunk_throughput/boundaries_64MiB/bulk_scan"));
        assert!(is_gated(
            "db/concurrent_commits/global_baseline/contended/8thr"
        ));
        assert!(is_gated("db/cluster_put/routed_4servelets_64keys"));
        assert!(is_gated("replication/ship_drain/drain_64keys/1replica"));
        assert!(is_gated("postree/apply/batch100_edits_8k"));
        assert!(!is_gated("postree/get/100000"));
        assert!(!is_gated("store/compaction/ingest_delete_compact_reread"));
        assert!(!is_gated("db/write_batch/batch_16keys"));
        assert!(!is_gated("crypto/sha256/4096"));
    }

    #[test]
    fn json_num_handles_scientific_and_trailing_fields() {
        assert_eq!(json_num(r#"{"a":1.5e3,"b":2}"#, "a"), Some(1500.0));
        assert_eq!(json_num(r#"{"a":1.5,"b":2}"#, "b"), Some(2.0));
        assert_eq!(json_num(r#"{"a":1}"#, "missing"), None);
    }
}
