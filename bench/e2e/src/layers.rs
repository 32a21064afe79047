//! Per-layer metrics shared by several workloads: what `TimedStore` saw,
//! the SHA-256 replay over the chunk payloads it sampled, and the verb
//! layer's self time.

use std::time::Instant;

use forkbase_store::StoreStats;

use crate::metrics::Outcome;
use crate::stats::ratio;
use crate::trace::ThreadTrace;

/// Store counters around a measured window.
pub struct StoreWindow {
    pub before: StoreStats,
    pub after: StoreStats,
    /// `FileStore::disk_bytes` at the end of the window.
    pub disk_bytes: u64,
}

/// Thread-seconds the workers spent with tracing on: the denominator of
/// every `*_busy_share`.
fn traced_s(t: &ThreadTrace) -> f64 {
    t.on_ns as f64 / 1e9
}

/// `store.*` from the `TimedStore` spans and the `StoreStats` deltas.
pub fn report_store(out: &mut Outcome, t: &ThreadTrace, w: &StoreWindow) {
    let (put, get, sync, sweep) = (
        t.agg("store.put"),
        t.agg("store.get"),
        t.agg("store.sync"),
        t.agg("store.sweep"),
    );
    out.set_n(
        "store.put_batch_us_p50",
        put.durations.p50_us(),
        put.durations.len(),
    );
    out.set("store.put_calls", put.count() as f64);
    out.set_n(
        "store.get_us_p50",
        get.durations.p50_us(),
        get.durations.len(),
    );
    out.set("store.get_calls", get.count() as f64);
    out.set(
        "store.get_busy_share",
        ratio(get.total_ns as f64 / 1e9, traced_s(t)),
    );
    out.set_n(
        "store.sync_us_p50",
        sync.durations.p50_us(),
        sync.durations.len(),
    );
    out.set("store.sync_calls", sync.count() as f64);
    out.set(
        "store.sync_busy_share",
        ratio(sync.total_ns as f64 / 1e9, traced_s(t)),
    );
    out.set("store.compact_s", sweep.total_ns as f64 / 1e9);

    let (a, b) = (&w.after, &w.before);
    let new_bytes =
        (a.logical_bytes - a.dedup_saved_bytes) - (b.logical_bytes - b.dedup_saved_bytes);
    out.set("store.bytes_appended", new_bytes as f64);
    out.set(
        "store.dedup_hit_share",
        ratio(
            (a.dedup_hits - b.dedup_hits) as f64,
            (a.puts - b.puts) as f64,
        ),
    );
    out.set(
        "store.compact_bytes_rewritten",
        (a.compaction_bytes_rewritten - b.compaction_bytes_rewritten) as f64,
    );
    out.set(
        "store.disk_bytes_per_stored_byte",
        ratio(w.disk_bytes as f64, a.stored_bytes as f64),
    );
}

/// `crypto.*`: hash the sampled chunk payloads again, alone and on one
/// thread, then charge every byte the store hashed (each chunk written and
/// each chunk `FileStore::get` returned and re-verified) at that rate.
pub fn report_crypto(out: &mut Outcome, t: &ThreadTrace) {
    let bytes: usize = t.payloads.iter().map(|p| p.len()).sum();
    if bytes == 0 {
        return;
    }
    let start = Instant::now();
    for p in &t.payloads {
        std::hint::black_box(forkbase_crypto::sha256(std::hint::black_box(p)));
    }
    let secs = start.elapsed().as_secs_f64();
    let rate = bytes as f64 / secs;
    out.set_n(
        "crypto.sha256_mib_per_s",
        rate / (1 << 20) as f64,
        t.payloads.len(),
    );
    let hashed = (t.store.put_bytes + t.store.get_bytes) as f64;
    out.set("crypto.busy_share", ratio(hashed / rate, traced_s(t)));
}

/// `core.api.self_share`: the part of the verb spans' time that was not
/// spent inside the store.
pub fn report_core_self(out: &mut Outcome, t: &ThreadTrace) {
    let (mut total, mut own) = (0u64, 0u64);
    for (name, agg) in &t.aggs {
        if name.starts_with("core.api.") {
            total += agg.total_ns;
            own += agg.self_ns;
        }
    }
    out.set("core.api.self_share", ratio(own as f64, total as f64));
}

/// `loadgen.trace_overhead_share`: the worst relative slowdown of the
/// traced slices against the untraced slices of the same run, over the
/// given `(traced p50, untraced p50)` pairs.
pub fn report_overhead(out: &mut Outcome, pairs: &[(f64, f64)]) {
    let worst = pairs
        .iter()
        .filter(|(_, off)| *off > 0.0)
        .map(|(on, off)| (on - off) / off)
        .fold(f64::NEG_INFINITY, f64::max);
    out.set(
        "loadgen.trace_overhead_share",
        if worst.is_finite() { worst } else { 0.0 },
    );
}
