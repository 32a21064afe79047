//! `dataset_versions`: archiving many versions of one dataset, the paper's
//! headline use (dedup for archival, diff/merge for collaboration).
//!
//! One client, count-based. Key `archive` holds a product CSV as a blob
//! (`put_blob`); key `table` holds the same rows as a map, without the
//! free-text `description` column. Each version rewrites [`REWRITE_SHARE`]
//! of the rows in [`REGIONS`] clustered regions and inserts
//! [`INSERT_SHARE`] new ones, commits the table, then the archive, and
//! syncs once. The gated write is the archive's `put_blob` + `sync`, the
//! gated read is streaming one archive version back, so both stay on the
//! bulk-byte path; the table's commits, diffs and merges are timed apart
//! and reported with the per-layer set. Every operation is timed on the
//! busy clock (`busy.rs`): the thread's on-CPU time, device waits left out.
//! Every [`BRANCH_EVERY`]th version an `analyst-k` branch of the table
//! diverges and is merged back two versions later. Then: `diff` between
//! consecutive versions and first↔last, a full read-back (`blob_reader`,
//! `map_iter`) of the head and several historical versions compared byte
//! for byte with what was written, and `verify_branch` on both keys.
//!
//! Content-defined chunking and SHA-256 over bulk bytes do most of the
//! work on ingest; `FileStore::get` and re-hashing do most of it on
//! read-back: the same store and hash layers used the opposite way. Point
//! lookups, HTTP and the wire do nothing here. One deterministic client,
//! so chunk counts and `space_amp` repeat exactly for a seed.
//!
//! The number of versions is [`VERSIONS_PER_SECOND`] × `--seconds`, sized
//! so the measured part takes about `--seconds` at the commit that froze
//! this benchmark.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Read;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use forkbase::{ForkBase, PutOptions, Uid, ValueDiff, VersionSpec};
use forkbase_chunk::{chunk_boundaries, ChunkerConfig};
use forkbase_postree::{MapEdit, MergePolicy};
use forkbase_store::{ChunkStore, MemStore};
use forkbase_types::Value;

use super::{timed_set_ups, RunCfg};
use crate::busy;
use crate::embed::{self, Db};
use crate::layers::{self, StoreWindow};
use crate::metrics::Outcome;
use crate::rng::Rng;
use crate::stats::{ratio, Samples, Sliced};
use crate::trace;

const BLOB_KEY: &str = "archive";
const TABLE_KEY: &str = "table";
const HEADER: &str = "id,name,category,price,stock,notes,description\n";
const VERSIONS_PER_SECOND: f64 = 1.4;
const REWRITE_SHARE: f64 = 0.005;
const REGIONS: usize = 3;
const INSERT_SHARE: f64 = 0.001;
const ANALYST_SHARE: f64 = 0.002;
const BRANCH_EVERY: usize = 5;
const MERGE_AFTER: usize = 2;
const READBACKS: usize = 8;
const DESCRIPTION_LEN: usize = 96;
const MIB: f64 = (1 << 20) as f64;

fn rows_at_start(cfg: &RunCfg) -> usize {
    if cfg.quick {
        4_000
    } else {
        100_000
    }
}

fn versions(cfg: &RunCfg) -> usize {
    ((cfg.seconds * VERSIONS_PER_SECOND).round() as usize).max(MERGE_AFTER + 4)
}

/// The dataset as the harness knows it: CSV rows sorted by key. Rows from
/// `tail_key` on are the analysts' (master never edits them, so the
/// three-way merges cannot conflict).
struct Model {
    /// `(id, table columns, description)`.
    rows: Vec<(String, String, String)>,
    tail_key: String,
    rng: Rng,
}

impl Model {
    fn new(cfg: &RunCfg) -> Model {
        let n = rows_at_start(cfg);
        let mut rng = Rng::new(cfg.seed, 20);
        let rows = (0..n)
            .map(|i| {
                let (cols, desc) = Self::rest(&mut rng, i);
                (format!("{i:08}"), cols, desc)
            })
            .collect();
        Model {
            rows,
            tail_key: format!("{:08}", n * 9 / 10),
            rng,
        }
    }

    /// Fresh table columns and description for row `i`.
    fn rest(rng: &mut Rng, i: usize) -> (String, String) {
        let cols = format!(
            "product-{i},cat-{:02},{}.{:02},{},batch{} vendor{}",
            rng.below(24),
            1 + rng.below(499),
            rng.below(100),
            rng.below(1000),
            rng.below(50),
            rng.below(9),
        );
        (cols, rng.text(DESCRIPTION_LEN))
    }

    /// The table as CSV text, one `id,columns` line per row.
    fn table_text(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 64);
        for (k, cols, _) in &self.rows {
            out.push_str(k);
            out.push(',');
            out.push_str(cols);
            out.push('\n');
        }
        out
    }

    /// The archive: header plus one `id,columns,description` line per row.
    fn blob(&self) -> Bytes {
        let mut text = String::with_capacity(self.rows.len() * (72 + DESCRIPTION_LEN));
        text.push_str(HEADER);
        for (k, cols, desc) in &self.rows {
            text.push_str(k);
            text.push(',');
            text.push_str(cols);
            text.push(',');
            text.push_str(desc);
            text.push('\n');
        }
        Bytes::from(text.into_bytes())
    }

    fn pairs(&self) -> Vec<(Bytes, Bytes)> {
        self.rows
            .iter()
            .map(|(k, cols, _)| (Bytes::from(k.clone()), Bytes::from(cols.clone())))
            .collect()
    }

    fn table_bytes(&self) -> u64 {
        self.rows
            .iter()
            .map(|(k, c, _)| (k.len() + c.len()) as u64)
            .sum()
    }

    /// Rows before the analysts' tail.
    fn master_rows(&self) -> usize {
        self.rows.partition_point(|(k, _, _)| *k < self.tail_key)
    }

    /// Master's edits of version `v`: clustered rewrites plus inserts.
    /// Returns the edits and the `(modified, added)` row counts.
    fn next_version(&mut self, v: usize) -> (Vec<MapEdit>, usize, usize) {
        let span = self.master_rows();
        let per_region = ((span as f64 * REWRITE_SHARE) / REGIONS as f64).ceil() as usize;
        let mut touched = BTreeSet::new();
        for _ in 0..REGIONS {
            let start = self.rng.below((span - per_region) as u64) as usize;
            touched.extend(start..start + per_region);
        }
        let mut edits = Vec::with_capacity(touched.len() + 8);
        for &i in &touched {
            (self.rows[i].1, self.rows[i].2) = Self::rest(&mut self.rng, i + v * 1_000_000);
            edits.push(self.edit(i));
        }
        let inserts = ((span as f64 * INSERT_SHARE).ceil() as usize).max(1);
        for j in 0..inserts {
            let after = self.rng.below(span as u64) as usize;
            let key = format!("{}.{v:03}{j:04}", &self.rows[after].0[..8]);
            let (cols, desc) = Self::rest(&mut self.rng, j + v * 1_000_000);
            self.rows.push((key, cols, desc));
            edits.push(self.edit(self.rows.len() - 1));
        }
        self.rows.sort_by(|a, b| a.0.cmp(&b.0));
        (edits, touched.len(), inserts)
    }

    /// An analyst's edits: rewritten table columns in the tail, applied to
    /// the model only when the branch is merged.
    fn analyst_edits(&mut self, v: usize) -> Vec<(String, String)> {
        let first = self.master_rows();
        let tail = self.rows.len() - first;
        let count = ((self.rows.len() as f64 * ANALYST_SHARE).ceil() as usize).min(tail);
        let picked: BTreeSet<usize> = (0..count)
            .map(|_| first + self.rng.below(tail as u64) as usize)
            .collect();
        picked
            .into_iter()
            .map(|i| {
                let (cols, _) = Self::rest(&mut self.rng, i + v * 1_000_000);
                (self.rows[i].0.clone(), format!("{cols} reviewed"))
            })
            .collect()
    }

    fn apply(&mut self, edits: &[(String, String)]) {
        for (key, cols) in edits {
            if let Ok(i) = self.rows.binary_search_by(|(k, _, _)| k.cmp(key)) {
                self.rows[i].1 = cols.clone();
            }
        }
    }

    fn edit(&self, i: usize) -> MapEdit {
        let (k, cols, _) = &self.rows[i];
        MapEdit::put(Bytes::from(k.clone()), Bytes::from(cols.clone()))
    }
}

fn to_edits(pairs: &[(String, String)]) -> Vec<MapEdit> {
    pairs
        .iter()
        .map(|(k, r)| MapEdit::put(Bytes::from(k.clone()), Bytes::from(r.clone())))
        .collect()
}

fn edit_bytes(edits: &[MapEdit]) -> u64 {
    edits
        .iter()
        .map(|e| (e.key.len() + e.value.as_ref().map_or(0, |v| v.len())) as u64)
        .sum()
}

/// What the table went through, for the POS-Tree replay.
enum TableOp {
    Master(Vec<MapEdit>),
    Branch(String, Vec<MapEdit>),
    Merge(String),
}

/// Open a fresh directory and load version 0 of both keys.
fn set_up(root: &Path, blob: &Bytes, pairs: &[(Bytes, Bytes)]) -> Result<(Db, Uid, Uid), String> {
    let db = embed::open(root)?;
    let opts = PutOptions::default().author("loader").message("v0");
    let blob_uid = db
        .put_blob(BLOB_KEY, blob.clone(), &opts)
        .map_err(|e| e.to_string())?
        .uid;
    let table = db.new_map(pairs.to_vec()).map_err(|e| e.to_string())?;
    let table_uid = db
        .put(TABLE_KEY, table, &opts)
        .map_err(|e| e.to_string())?
        .uid;
    embed::save(&db, root)?;
    Ok((db, blob_uid, table_uid))
}

/// One version read back in full: the archive streamed through
/// `blob_reader`, the table through `map_iter`, each timed on its own.
struct ReadBack {
    blob: Vec<u8>,
    blob_ns: u64,
    table: String,
    table_ns: u64,
}

fn read_back(
    db: &Db,
    blob: &VersionSpec,
    table: &VersionSpec,
    req: u64,
) -> Result<ReadBack, String> {
    let start = busy::now_ns();
    let mut bytes = Vec::new();
    {
        let _s = trace::span("core.api.blob_read", req);
        db.snapshot(BLOB_KEY, blob)
            .and_then(|s| s.blob_reader())
            .map_err(|e| e.to_string())?
            .read_to_end(&mut bytes)
            .map_err(|e| e.to_string())?;
    }
    let blob_ns = busy::now_ns() - start;

    let start = busy::now_ns();
    let mut text = String::with_capacity(bytes.len());
    {
        let _s = trace::span("core.api.map_iter", req);
        let snap = db.snapshot(TABLE_KEY, table).map_err(|e| e.to_string())?;
        for entry in snap.map_iter().map_err(|e| e.to_string())? {
            let (k, v) = entry.map_err(|e| e.to_string())?;
            text.push_str(&String::from_utf8_lossy(&k));
            text.push(',');
            text.push_str(&String::from_utf8_lossy(&v));
            text.push('\n');
        }
    }
    Ok(ReadBack {
        blob: bytes,
        blob_ns,
        table: text,
        table_ns: busy::now_ns() - start,
    })
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let last = versions(cfg);
    let mut model = Model::new(cfg);
    let blob0 = model.blob();
    let pairs0 = model.pairs();
    let mut user_bytes = blob0.len() as u64 + model.table_bytes();

    let root_of = |rep: usize| cfg.dir.join(format!("dataset-{rep}"));
    let (setup_s, (db, blob_uid0, table_uid0)) = timed_set_ups(
        |rep| set_up(&root_of(rep), &blob0, &pairs0),
        |rep, made| {
            drop(made);
            let _ = std::fs::remove_dir_all(root_of(rep));
        },
    )?;
    let root = root_of(super::SETUP_REPS - 1);

    // Versions whose full content is kept for the byte-for-byte read-back.
    let checkpoints: BTreeSet<usize> = (0..READBACKS).map(|i| i * last / (READBACKS - 1)).collect();
    let mut expected: BTreeMap<usize, (Bytes, String)> = BTreeMap::new();
    expected.insert(0, (blob0.clone(), model.table_text()));

    let mut out = Outcome::default();
    let (mut blob_uids, mut table_uids) = (vec![blob_uid0], vec![table_uid0]);
    let mut diff_counts = vec![(0usize, 0usize)];
    let mut commits = Sliced::default();
    let mut merges = Samples::default();
    let mut ops: Vec<TableOp> = Vec::new();
    let mut pending: BTreeMap<usize, (String, Vec<(String, String)>)> = BTreeMap::new();
    let (mut ingest_ns, mut ingest_bytes) = (0u64, 0u64);
    let (mut table_chunks, mut table_chunk_bytes, mut table_edits, mut table_edit_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    let mut traced_blob_bytes = 0u64;
    let mut carried = 0usize;

    let stats_before = db.store().stats();
    let cpu_before = crate::procs::cpu_us(0);
    let window = Instant::now();
    for v in 1..=last {
        // Inputs first, outside the timed part.
        let (edits, modified, added) = model.next_version(v);
        let blob = model.blob();
        let bytes = blob.len() as u64 + edit_bytes(&edits);
        if checkpoints.contains(&v) {
            expected.insert(v, (blob.clone(), model.table_text()));
        }
        diff_counts.push((modified + carried, added));
        carried = 0;
        if cfg.trace {
            ops.push(TableOp::Master(edits.clone()));
        }

        let traced = cfg.trace && v % 2 == 1;
        trace::set_on(traced);
        let opts = PutOptions::default()
            .author("loader")
            .message(format!("v{v}"));
        let n_edits = edits.len() as u64;
        let e_bytes = edit_bytes(&edits);
        // The table first, then the archive and the version's one sync:
        // the gated write is `put_blob` + `sync`.
        let counts_before = trace::store_counts();
        let (table_res, table_ns) = busy::timed(|| {
            let _s = trace::span("core.api.put_map_edits", v as u64);
            db.put_map_edits(TABLE_KEY, edits, &opts)
        });
        let counts_after = trace::store_counts();
        let ((blob_res, synced), blob_ns) = busy::timed(|| {
            let blob_res = {
                let _s = trace::span("core.api.put_blob", v as u64);
                db.put_blob(BLOB_KEY, blob, &opts)
            };
            let _s = trace::span("core.api.sync", v as u64);
            (blob_res, db.store().sync())
        });
        commits.push(traced, blob_ns);
        ingest_ns += table_ns + blob_ns;
        ingest_bytes += bytes;
        if traced {
            traced_blob_bytes += bytes - e_bytes;
            table_chunks += counts_after.put_chunks - counts_before.put_chunks;
            table_chunk_bytes += counts_after.put_bytes - counts_before.put_bytes;
            table_edits += n_edits;
            table_edit_bytes += e_bytes;
        }
        out.check(blob_res.is_ok() && table_res.is_ok() && synced.is_ok());
        let (Ok(b), Ok(t)) = (blob_res, table_res) else {
            return Err(format!("version {v} failed to commit"));
        };
        blob_uids.push(b.uid);
        table_uids.push(t.uid);

        // An analyst branches off, edits the tail, and is merged back
        // MERGE_AFTER versions later.
        if v % BRANCH_EVERY == 1 && v + MERGE_AFTER < last {
            let branch = format!("analyst-{v}");
            let edits = model.analyst_edits(v);
            let map_edits = to_edits(&edits);
            let bytes = edit_bytes(&map_edits);
            if cfg.trace {
                ops.push(TableOp::Branch(branch.clone(), map_edits.clone()));
            }
            let ((made, wrote, synced), ns) = busy::timed(|| {
                let made = db.branch(TABLE_KEY, "master", &branch);
                let wrote = db.put_map_edits(
                    TABLE_KEY,
                    map_edits,
                    &PutOptions::on_branch(branch.clone()).author("analyst"),
                );
                (made, wrote, db.store().sync())
            });
            ingest_ns += ns;
            ingest_bytes += bytes;
            out.check(made.is_ok() && wrote.is_ok() && synced.is_ok());
            pending.insert(v + MERGE_AFTER, (branch, edits));
        }
        if let Some((branch, edits)) = pending.remove(&v) {
            if cfg.trace {
                ops.push(TableOp::Merge(branch.clone()));
            }
            let (merged, ns) = busy::timed(|| {
                let _s = trace::span("core.api.merge", v as u64);
                db.merge(
                    TABLE_KEY,
                    "master",
                    &branch,
                    MergePolicy::Fail,
                    &PutOptions::default().author("loader").message("merge"),
                )
            });
            merges.push(ns);
            out.check(merged.is_ok() && db.store().sync().is_ok());
            model.apply(&edits);
            carried = edits.len();
        }
    }
    user_bytes += ingest_bytes;

    // Diffs between consecutive versions, checked against the edit counts.
    trace::set_on(cfg.trace);
    let mut diffs = Samples::default();
    for v in 1..=last {
        let (from, to) = (
            VersionSpec::Version(table_uids[v - 1]),
            VersionSpec::Version(table_uids[v]),
        );
        let (d, ns) = busy::timed(|| {
            let _s = trace::span("core.api.diff", v as u64);
            db.diff(TABLE_KEY, &from, &to)
        });
        diffs.push(ns);
        let counts = match d {
            Ok(ValueDiff::Map(m)) => Some(m.counts()),
            _ => None,
        };
        let (modified, added) = diff_counts[v];
        out.check(counts == Some((added, 0, modified)));
    }
    let ends = db.diff(
        BLOB_KEY,
        &VersionSpec::Version(blob_uids[0]),
        &VersionSpec::Version(blob_uids[last]),
    );
    out.check(matches!(
        ends,
        Ok(ValueDiff::Chunked { from_len, to_len, .. })
            if from_len == expected[&0].0.len() as u64 && to_len == expected[&last].0.len() as u64
    ));

    // Full read-back of the head (by branch) and the historical
    // checkpoints (by uid), byte for byte.
    let mut readbacks = Sliced::default();
    let (mut read_bytes, mut readback_ns) = (0u64, 0u64);
    let head = VersionSpec::branch("master");
    for (i, (&v, (want_blob, want_table))) in expected.iter().rev().enumerate() {
        let traced = cfg.trace && i % 2 == 1;
        trace::set_on(traced);
        let specs = if v == last {
            (head.clone(), head.clone())
        } else {
            (
                VersionSpec::Version(blob_uids[v]),
                VersionSpec::Version(table_uids[v]),
            )
        };
        match read_back(&db, &specs.0, &specs.1, v as u64 + 1) {
            Ok(rb) => {
                readbacks.push(traced, rb.blob_ns);
                readback_ns += rb.blob_ns + rb.table_ns;
                read_bytes += (rb.blob.len() + rb.table.len()) as u64;
                out.check(rb.blob == want_blob.as_slice());
                out.check(rb.table == *want_table);
            }
            Err(e) => {
                out.note(format!("read-back of v{v} failed: {e}"));
                out.check(false);
            }
        }
    }

    trace::set_on(cfg.trace);
    for key in [BLOB_KEY, TABLE_KEY] {
        let _s = trace::span("core.api.verify_branch", 0);
        out.check(db.verify_branch(key, "master").is_ok());
    }
    let traced = trace::take();
    let window_s = window.elapsed().as_secs_f64();
    let cpu_us = crate::procs::cpu_us(0) - cpu_before;
    let stats_after = db.store().stats();

    embed::save(&db, &root)?;
    let disk_bytes = crate::procs::dir_bytes(&root);
    let store_disk = db.store().inner().disk_bytes().unwrap_or(0);
    drop(db);
    let reopened = forkbase_cli::Session::open(&root).map_err(|e| format!("reopen: {e}"))?;
    out.check(reopened.db().head(BLOB_KEY, "master").ok() == Some(blob_uids[last]));
    out.check(reopened.db().head(TABLE_KEY, "master").ok() == Some(table_uids[last]));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&root);

    let (writes, reads) = (
        commits.undisturbed(cfg.trace),
        readbacks.undisturbed(cfg.trace),
    );
    out.set("setup_s", setup_s);
    out.set_n("write_p50_us", writes.p50_us(), writes.len());
    out.set_n("read_p50_us", reads.p50_us(), reads.len());
    out.set("space_amp", ratio(disk_bytes as f64, user_bytes as f64));
    out.note(format!(
        "versions={last} rows={} measured_s={window_s:.2} disk_bytes={disk_bytes} user_bytes={user_bytes}",
        model.rows.len()
    ));
    out.note(busy::describe());
    if !cfg.trace {
        return Ok(out);
    }

    // ---- per-layer figures (traced run) ----
    out.set(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.set_n(
        "ingest_mib_per_s",
        ratio(ingest_bytes as f64 / MIB, ingest_ns as f64 / 1e9),
        last,
    );
    out.set_n(
        "readback_mib_per_s",
        ratio(read_bytes as f64 / MIB, readback_ns as f64 / 1e9),
        expected.len(),
    );
    out.set_n("diff_p50_us", diffs.p50_us(), diffs.len());
    out.set_n("merge_p50_us", merges.p50_us(), merges.len());
    let store_window = StoreWindow {
        before: stats_before,
        after: stats_after,
        disk_bytes: store_disk,
    };
    layers::report_store(&mut out, &traced, &store_window);
    layers::report_crypto(&mut out, &traced);
    layers::report_core_self(&mut out, &traced);
    out.set(
        "core.api.put_map_edits_us_p50",
        traced.p50_us("core.api.put_map_edits"),
    );
    out.set(
        "postree.chunks_written_per_edit",
        ratio(table_chunks as f64, table_edits as f64),
    );
    out.set(
        "postree.bytes_written_per_edit_byte",
        ratio(table_chunk_bytes as f64, table_edit_bytes as f64),
    );
    replay_chunker(&mut out, &expected, traced_blob_bytes, traced.on_ns);
    replay_postree(&mut out, &pairs0, &ops);
    out.set(
        "proc.cpu_us_per_op",
        ratio(cpu_us as f64, out.attempted as f64),
    );
    out.set("proc.rss_peak_mib", crate::procs::rss_peak_mib(0));
    layers::report_overhead(
        &mut out,
        &[commits.overhead_pair(), readbacks.overhead_pair()],
    );
    super::write_trace(cfg, "dataset_versions", &traced);
    Ok(out)
}

/// [R] The content-defined chunker alone over the first and last blobs.
fn replay_chunker(
    out: &mut Outcome,
    expected: &BTreeMap<usize, (Bytes, String)>,
    traced_blob_bytes: u64,
    traced_ns: u64,
) {
    let blobs: Vec<&Bytes> = expected
        .values()
        .take(1)
        .chain(expected.values().last())
        .map(|(b, _)| b)
        .collect();
    let (mut bytes, mut chunks) = (0usize, 0usize);
    let start = Instant::now();
    for blob in &blobs {
        let ends = chunk_boundaries(std::hint::black_box(blob), ChunkerConfig::data_default());
        bytes += blob.len();
        chunks += ends.len();
    }
    let rate = bytes as f64 / start.elapsed().as_secs_f64();
    out.set_n("chunk.scan_mib_per_s", rate / MIB, blobs.len());
    out.set("chunk.avg_chunk_bytes", ratio(bytes as f64, chunks as f64));
    out.set(
        "chunk.busy_share",
        ratio(traced_blob_bytes as f64 / rate, traced_ns as f64 / 1e9),
    );
}

/// [R] The table's edit batches, diffs and merges again, through the
/// POS-Tree alone: a `MemStore` twin, nothing else running.
fn replay_postree(out: &mut Outcome, pairs0: &[(Bytes, Bytes)], ops: &[TableOp]) {
    let twin = ForkBase::new(MemStore::new());
    let opts = PutOptions::default();
    let Ok(v0) = twin.new_map(pairs0.to_vec()) else {
        return;
    };
    if twin.put(TABLE_KEY, v0.clone(), &opts).is_err() {
        return;
    }
    let (mut build_ns, mut built) = (0u64, 0usize);
    let (mut diffs, mut merges) = (Samples::default(), Samples::default());
    let mut prev: Value = v0;
    for op in ops.iter().take(24) {
        match op {
            TableOp::Master(edits) => {
                built += edits.len();
                let start = Instant::now();
                let applied = twin.put_map_edits(TABLE_KEY, edits.clone(), &opts);
                build_ns += start.elapsed().as_nanos() as u64;
                let Ok(next) = applied.and_then(|c| twin.get_version(&c.uid)) else {
                    return;
                };
                let start = Instant::now();
                let _ = std::hint::black_box(twin.diff_values(&prev, &next.value));
                diffs.push(start.elapsed().as_nanos() as u64);
                prev = next.value;
            }
            TableOp::Branch(name, edits) => {
                let on = PutOptions::on_branch(name.clone());
                if twin.branch(TABLE_KEY, "master", name).is_err()
                    || twin.put_map_edits(TABLE_KEY, edits.clone(), &on).is_err()
                {
                    return;
                }
            }
            TableOp::Merge(name) => {
                let start = Instant::now();
                let merged = twin.merge(TABLE_KEY, "master", name, MergePolicy::Fail, &opts);
                merges.push(start.elapsed().as_nanos() as u64);
                let Ok(next) = merged.and_then(|c| twin.get_version(&c.uid)) else {
                    return;
                };
                prev = next.value;
            }
        }
    }
    out.set_n(
        "postree.build_us_per_edit",
        ratio(build_ns as f64 / 1e3, built as f64),
        built,
    );
    out.set_n("postree.diff_us_p50", diffs.p50_us(), diffs.len());
    out.set_n("postree.merge_us_p50", merges.p50_us(), merges.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_correct_and_reports_the_gated_metrics() {
        let dir = crate::workloads::test_dir("dataset");
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 5,
                seconds: 4.0,
                trace,
                quick: true,
                dir: dir.clone(),
                bin: None,
            };
            let out = run(&cfg).unwrap();
            assert_eq!(out.failed, 0, "{:?}", out.notes);
            for m in ["setup_s", "write_p50_us", "read_p50_us", "space_amp"] {
                assert!(out.get(m).unwrap() > 0.0, "{m}");
            }
            if trace {
                assert!(out.get("merge_p50_us").unwrap() > 0.0);
                assert!(out.get("chunk.avg_chunk_bytes").unwrap() > 0.0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_seed_same_dataset() {
        let cfg = |seed| RunCfg {
            seed,
            seconds: 1.0,
            trace: false,
            quick: true,
            dir: std::path::PathBuf::new(),
            bin: None,
        };
        let (mut a, mut b, mut c) = (
            Model::new(&cfg(1)),
            Model::new(&cfg(1)),
            Model::new(&cfg(2)),
        );
        assert_eq!(a.next_version(1).0, b.next_version(1).0);
        assert_eq!(a.blob(), b.blob());
        assert_ne!(a.blob(), {
            c.next_version(1);
            c.blob()
        });
        // Sorted, unique keys after inserts: the blob and the map agree.
        assert!(a.rows.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
