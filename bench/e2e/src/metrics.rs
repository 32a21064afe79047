//! The metric registry: every name the harness prints, with its unit.
//! `BENCHMARK.json` lists the same names (a unit test keeps them equal).
//!
//! The driver's schema wants every gated (`end_to_end`) metric from every
//! workload, so only the four metrics that all workloads define are gated.
//! The workload-specific figures a user also sees (throughputs, tails,
//! diff/merge/scan/ship timings) are reported, ungated, with the per-layer
//! set; `bench/e2e/README.md` says which workload defines which.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Printed with `--trace 0`, gated by `BENCHMARK.json`.
    EndToEnd,
    /// Printed with `--trace 1`, reported without a bound.
    Layer,
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        kind: Kind::EndToEnd,
        better,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        kind: Kind::Layer,
        better,
    }
}

pub const METRICS: &[Def] = &[
    e2e("write_p50_us", "us", "lower"),
    e2e("read_p50_us", "us", "lower"),
    e2e("space_amp", "ratio", "lower"),
    e2e("setup_s", "s", "lower"),
    // Workload-specific end-to-end figures, reported ungated.
    layer("failed_share", "ratio", "lower"),
    layer("write_per_s", "edits/s", "higher"),
    layer("read_per_s", "ops/s", "higher"),
    layer("read_p99_us", "us", "lower"),
    layer("scan_p50_us", "us", "lower"),
    layer("ingest_mib_per_s", "MiB/s", "higher"),
    layer("readback_mib_per_s", "MiB/s", "higher"),
    layer("diff_p50_us", "us", "lower"),
    layer("merge_p50_us", "us", "lower"),
    layer("replica_ship_per_s", "entries/s", "higher"),
    // crates/crypto
    layer("crypto.sha256_mib_per_s", "MiB/s", "higher"),
    layer("crypto.busy_share", "ratio", "lower"),
    // crates/chunk
    layer("chunk.scan_mib_per_s", "MiB/s", "higher"),
    layer("chunk.busy_share", "ratio", "lower"),
    layer("chunk.avg_chunk_bytes", "bytes", "higher"),
    // crates/postree
    layer("postree.build_us_per_edit", "us", "lower"),
    layer("postree.chunks_written_per_edit", "count", "lower"),
    layer("postree.bytes_written_per_edit_byte", "ratio", "lower"),
    layer("postree.lookup_us_p50", "us", "lower"),
    layer("postree.nodes_read_per_lookup", "count", "lower"),
    layer("postree.diff_us_p50", "us", "lower"),
    layer("postree.merge_us_p50", "us", "lower"),
    layer("postree.proof_us_p50", "us", "lower"),
    // crates/store
    layer("store.put_batch_us_p50", "us", "lower"),
    layer("store.put_calls", "count", "lower"),
    layer("store.bytes_appended", "bytes", "lower"),
    layer("store.dedup_hit_share", "ratio", "higher"),
    layer("store.get_us_p50", "us", "lower"),
    layer("store.get_calls", "count", "lower"),
    layer("store.get_busy_share", "ratio", "lower"),
    layer("store.sync_us_p50", "us", "lower"),
    layer("store.sync_calls", "count", "lower"),
    layer("store.sync_busy_share", "ratio", "lower"),
    layer("store.disk_bytes_per_stored_byte", "ratio", "lower"),
    layer("store.compact_s", "s", "lower"),
    layer("store.compact_bytes_rewritten", "bytes", "lower"),
    // crates/core
    layer("core.api.put_map_edits_us_p50", "us", "lower"),
    layer("core.api.get_us_p50", "us", "lower"),
    layer("core.api.write_batch_us_p50", "us", "lower"),
    layer("core.api.self_share", "ratio", "lower"),
    layer("core.gc.collect_s", "s", "lower"),
    layer("core.gc.bytes_reclaimed", "bytes", "higher"),
    layer("core.gc.writer_stall_us_max", "us", "lower"),
    // crates/cli (REST gateway)
    layer("cli.rest.connect_us_p50", "us", "lower"),
    layer("cli.rest.ttfb_us_p50", "us", "lower"),
    layer("cli.rest.gateway_self_us_p50", "us", "lower"),
    layer("cli.rest.shed_share", "ratio", "lower"),
    layer("cli.rest.overload_goodput_per_s", "1/s", "higher"),
    // crates/core/src/cluster
    layer("cluster.wire.encode_ns_per_req", "ns", "lower"),
    layer("cluster.wire.decode_ns_per_req", "ns", "lower"),
    layer("cluster.wire.bytes_per_req", "bytes", "lower"),
    layer("cluster.net.probe_rtt_us_p50", "us", "lower"),
    layer("cluster.net.transport_self_us_p50", "us", "lower"),
    layer("cluster.route_ns", "ns", "lower"),
    layer("cluster.batch_fanout", "count", "lower"),
    layer("cluster.servelet_write_self_us_p50", "us", "lower"),
    layer("cluster.replication.lag_entries_p50", "count", "lower"),
    layer("cluster.replication.lag_entries_max", "count", "lower"),
    layer("cluster.replication.ship_call_us_p50", "us", "lower"),
    layer("cluster.replication.entries_per_ship", "count", "higher"),
    // processes and the generator itself
    layer("proc.cpu_us_per_op", "us", "lower"),
    layer("proc.rss_peak_mib", "MiB", "lower"),
    layer("loadgen.late_p99_us", "us", "lower"),
    layer("loadgen.trace_overhead_share", "ratio", "lower"),
];

pub fn def(name: &str) -> Option<&'static Def> {
    METRICS.iter().find(|d| d.name == name)
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, u64>,
    /// Free-form lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric; the name must be in [`METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Record a metric together with the number of samples behind it.
    pub fn set_n(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name, samples as u64);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn samples(&self, name: &str) -> Option<u64> {
        self.samples.get(name).copied()
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_schema() {
        let mut seen = std::collections::HashSet::new();
        for d in METRICS {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(METRICS.iter().filter(|d| d.kind == Kind::Layer).count() <= 128);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = crate::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let registry: Vec<(String, String, String)> = METRICS
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect();
            assert_eq!(listed, registry, "{key} differs from metrics.rs");
        }
    }
}
