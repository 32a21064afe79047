//! Store-level counters backing the paper's `Stat` verb and the Fig. 4
//! deduplication experiment.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of a store's counters.
///
/// `logical_bytes` counts every byte *presented* to the store, while
/// `stored_bytes` counts unique bytes actually kept — the gap between the
/// two is what the paper demonstrates in Fig. 4 (a 338.54 KB dataset whose
/// near-duplicate costs only 0.04 KB).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Unique chunks resident.
    pub unique_chunks: u64,
    /// Unique (deduplicated) payload bytes resident.
    pub stored_bytes: u64,
    /// Total put operations, including dedup hits.
    pub puts: u64,
    /// Total bytes presented across all puts.
    pub logical_bytes: u64,
    /// Puts that found the chunk already present.
    pub dedup_hits: u64,
    /// Bytes saved by deduplication (sum of sizes of dedup-hit chunks).
    pub dedup_saved_bytes: u64,
    /// Get operations served.
    pub gets: u64,
    /// Gets that found no chunk.
    pub misses: u64,
    /// Live chunks physically rewritten by compaction. Tracked separately
    /// from `puts` so compaction churn never inflates dedup-ratio metrics.
    pub compaction_chunks_rewritten: u64,
    /// Payload bytes physically rewritten by compaction (write
    /// amplification), excluded from `logical_bytes`/`stored_bytes`.
    pub compaction_bytes_rewritten: u64,
    /// Chunks physically reclaimed by sweep/compaction.
    pub sweep_chunks_reclaimed: u64,
    /// Payload bytes physically reclaimed by sweep/compaction.
    pub sweep_bytes_reclaimed: u64,
}

impl StoreStats {
    /// Deduplication ratio: logical bytes / stored bytes (≥ 1.0 once data
    /// exists; 1.0 means no sharing at all).
    pub fn dedup_ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// Difference in *stored* footprint relative to an earlier snapshot —
    /// "loading the second dataset only increases 0.04 KB" (Fig. 4).
    pub fn stored_delta(&self, earlier: &StoreStats) -> u64 {
        self.stored_bytes.saturating_sub(earlier.stored_bytes)
    }

    /// Difference in unique chunk count relative to an earlier snapshot.
    pub fn chunk_delta(&self, earlier: &StoreStats) -> u64 {
        self.unique_chunks.saturating_sub(earlier.unique_chunks)
    }
}

/// Internal thread-safe accumulator used by store implementations.
#[derive(Default)]
pub struct StatsCell {
    unique_chunks: AtomicU64,
    stored_bytes: AtomicU64,
    puts: AtomicU64,
    logical_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_saved_bytes: AtomicU64,
    gets: AtomicU64,
    misses: AtomicU64,
    compaction_chunks_rewritten: AtomicU64,
    compaction_bytes_rewritten: AtomicU64,
    sweep_chunks_reclaimed: AtomicU64,
    sweep_bytes_reclaimed: AtomicU64,
}

impl StatsCell {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a whole batch of puts with one atomic add per counter.
    ///
    /// `puts`/`logical_bytes` cover every chunk presented (including dedup
    /// hits) and `new_chunks`/`new_bytes` the newly stored subset; the
    /// rest are dedup hits, so each chunk is counted exactly once. A
    /// single put is a batch of one.
    pub fn record_put_batch(&self, puts: u64, logical_bytes: u64, new_chunks: u64, new_bytes: u64) {
        self.puts.fetch_add(puts, Ordering::Relaxed);
        self.logical_bytes
            .fetch_add(logical_bytes, Ordering::Relaxed);
        self.unique_chunks.fetch_add(new_chunks, Ordering::Relaxed);
        self.stored_bytes.fetch_add(new_bytes, Ordering::Relaxed);
        self.dedup_hits
            .fetch_add(puts - new_chunks, Ordering::Relaxed);
        self.dedup_saved_bytes
            .fetch_add(logical_bytes - new_bytes, Ordering::Relaxed);
    }

    /// Record a get; `hit` is whether the chunk existed.
    pub fn record_get(&self, hit: bool) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        if !hit {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bulk-register chunks discovered during recovery (no logical puts).
    pub fn record_recovered(&self, chunks: u64, bytes: u64) {
        self.unique_chunks.fetch_add(chunks, Ordering::Relaxed);
        self.stored_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record chunks physically reclaimed by a sweep: resident counters go
    /// down, and the sweep counters record the reclamation itself.
    pub fn record_swept(&self, chunks: u64, bytes: u64) {
        self.unique_chunks.fetch_sub(chunks, Ordering::Relaxed);
        self.stored_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.sweep_chunks_reclaimed
            .fetch_add(chunks, Ordering::Relaxed);
        self.sweep_bytes_reclaimed
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record live chunks rewritten by compaction. Deliberately does NOT
    /// touch `puts`/`logical_bytes`/`stored_bytes`: the chunk stays
    /// resident, only its physical location changed, and counting the
    /// rewrite as a put would inflate the dedup ratio with churn.
    pub fn record_compaction(&self, chunks: u64, bytes: u64) {
        self.compaction_chunks_rewritten
            .fetch_add(chunks, Ordering::Relaxed);
        self.compaction_bytes_rewritten
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Current snapshot.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            unique_chunks: self.unique_chunks.load(Ordering::Relaxed),
            stored_bytes: self.stored_bytes.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            dedup_saved_bytes: self.dedup_saved_bytes.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compaction_chunks_rewritten: self.compaction_chunks_rewritten.load(Ordering::Relaxed),
            compaction_bytes_rewritten: self.compaction_bytes_rewritten.load(Ordering::Relaxed),
            sweep_chunks_reclaimed: self.sweep_chunks_reclaimed.load(Ordering::Relaxed),
            sweep_bytes_reclaimed: self.sweep_bytes_reclaimed.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "chunks:        {}", self.unique_chunks)?;
        writeln!(f, "stored bytes:  {}", self.stored_bytes)?;
        writeln!(f, "logical bytes: {}", self.logical_bytes)?;
        writeln!(
            f,
            "dedup:         {} hits, {} bytes saved, ratio {:.2}x",
            self.dedup_hits,
            self.dedup_saved_bytes,
            self.dedup_ratio()
        )?;
        writeln!(f, "gets:          {} ({} misses)", self.gets, self.misses)?;
        write!(
            f,
            "gc:            {} chunks / {} bytes reclaimed, {} bytes rewritten by compaction",
            self.sweep_chunks_reclaimed,
            self.sweep_bytes_reclaimed,
            self.compaction_bytes_rewritten
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record one put of `len` bytes as a batch of one; `newly_stored` is
    /// false on a dedup hit.
    fn put_one(cell: &StatsCell, len: u64, newly_stored: bool) {
        let (new_chunks, new_bytes) = if newly_stored { (1, len) } else { (0, 0) };
        cell.record_put_batch(1, len, new_chunks, new_bytes);
    }

    #[test]
    fn put_accounting() {
        let cell = StatsCell::new();
        put_one(&cell, 100, true);
        put_one(&cell, 100, false); // dedup hit
        put_one(&cell, 50, true);
        let s = cell.snapshot();
        assert_eq!(s.unique_chunks, 2);
        assert_eq!(s.stored_bytes, 150);
        assert_eq!(s.logical_bytes, 250);
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.dedup_saved_bytes, 100);
        assert!((s.dedup_ratio() - 250.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn batch_accounting_matches_sequential() {
        let seq = StatsCell::new();
        put_one(&seq, 100, true);
        put_one(&seq, 100, false);
        put_one(&seq, 40, true);
        let batched = StatsCell::new();
        batched.record_put_batch(3, 240, 2, 140);
        assert_eq!(seq.snapshot(), batched.snapshot());
    }

    #[test]
    fn get_accounting() {
        let cell = StatsCell::new();
        cell.record_get(true);
        cell.record_get(false);
        let s = cell.snapshot();
        assert_eq!(s.gets, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn deltas() {
        let cell = StatsCell::new();
        put_one(&cell, 1000, true);
        let before = cell.snapshot();
        put_one(&cell, 1000, false);
        put_one(&cell, 40, true);
        let after = cell.snapshot();
        assert_eq!(after.stored_delta(&before), 40);
        assert_eq!(after.chunk_delta(&before), 1);
    }

    #[test]
    fn sweep_and_compaction_accounting_stay_separate() {
        let cell = StatsCell::new();
        put_one(&cell, 100, true);
        put_one(&cell, 60, true);
        let before = cell.snapshot();
        // Compaction rewrites the 100-byte chunk and sweeps the 60-byte one.
        cell.record_swept(1, 60);
        cell.record_compaction(1, 100);
        let s = cell.snapshot();
        assert_eq!(s.unique_chunks, 1);
        assert_eq!(s.stored_bytes, 100);
        assert_eq!(s.sweep_chunks_reclaimed, 1);
        assert_eq!(s.sweep_bytes_reclaimed, 60);
        assert_eq!(s.compaction_chunks_rewritten, 1);
        assert_eq!(s.compaction_bytes_rewritten, 100);
        // The user-visible put counters are untouched by GC churn, so the
        // dedup ratio cannot be inflated by compaction rewrites.
        assert_eq!(s.puts, before.puts);
        assert_eq!(s.logical_bytes, before.logical_bytes);
        assert_eq!(s.dedup_hits, before.dedup_hits);
    }

    #[test]
    fn empty_ratio_is_one() {
        assert_eq!(StoreStats::default().dedup_ratio(), 1.0);
    }

    #[test]
    fn display_contains_key_fields() {
        let cell = StatsCell::new();
        put_one(&cell, 10, true);
        let text = cell.snapshot().to_string();
        assert!(text.contains("chunks:"));
        assert!(text.contains("ratio"));
    }
}
