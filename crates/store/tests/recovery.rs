//! Crash-recovery tests for the segmented pack-file store.
//!
//! The compaction protocol (see `file.rs` module docs) has a small number
//! of crash windows: before the temp segments are renamed, between the
//! renames and the manifest swap, and between the swap and the victim
//! deletion. These tests construct each on-disk state a `kill -9` could
//! leave behind — by snapshotting a real compaction's before/after
//! directories and mixing them — and assert that reopening never loses an
//! acked chunk. The property test at the bottom extends PR 2's torn-tail
//! model to the multi-segment world: any prefix truncation of the active
//! segment, combined with any crashed-compaction debris, recovers to
//! exactly the expected chunk set.
//!
//! All test names contain `recovery` so CI can run this file's suite with
//! `cargo test --release -p forkbase_store -- recovery`.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use forkbase_crypto::{crc32, sha256, Hash};
use forkbase_store::{ChunkStore, FileStore, FileStoreConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "forkbase-recovery-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn chunk(tag: &str, i: u32, len: usize) -> Bytes {
    let mut v = format!("{tag}-{i:06}-").into_bytes();
    v.resize(len.max(v.len()), b'a' + (i % 23) as u8);
    Bytes::from(v)
}

fn small_cfg() -> FileStoreConfig {
    FileStoreConfig {
        segment_bytes: 4096,
        sync_every_put: false,
        ..Default::default()
    }
}

/// Copy every regular file of `src` into `dst` (fresh).
fn snapshot_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Assert the reopened store at `dir` contains exactly `expect` (hash →
/// payload) and stays usable for new writes and another reopen.
fn assert_recovers_to(dir: &Path, expect: &HashMap<Hash, Bytes>) {
    let s = FileStore::open_with(dir, small_cfg()).unwrap();
    assert_eq!(
        s.chunk_count(),
        expect.len(),
        "recovered chunk set has the wrong size"
    );
    for (h, payload) in expect {
        assert_eq!(
            s.get(h).unwrap().as_ref(),
            Some(payload),
            "acked chunk lost or corrupted by recovery"
        );
    }
    // The store must remain writable after recovery...
    let extra = s.put(Bytes::from_static(b"post-recovery write")).unwrap();
    s.sync().unwrap();
    drop(s);
    // ...and recovery must be idempotent across another open.
    let s = FileStore::open_with(dir, small_cfg()).unwrap();
    assert_eq!(s.chunk_count(), expect.len() + 1);
    assert!(s.get(&extra).unwrap().is_some());
}

/// Build a store with `total` 300-byte chunks across several segments,
/// then compact keeping every `keep_mod`-th chunk. Returns the live set
/// (hash → payload) and the dir snapshots before/after compaction.
struct CompactionFixture {
    dir: PathBuf,
    before: PathBuf,
    after: PathBuf,
    live: HashMap<Hash, Bytes>,
    all: HashMap<Hash, Bytes>,
}

fn compaction_fixture(tag: &str, total: u32, keep_mod: u32) -> CompactionFixture {
    let dir = temp_dir(tag);
    let s = FileStore::open_with(&dir, small_cfg()).unwrap();
    let mut all = HashMap::new();
    let mut live = HashMap::new();
    for i in 0..total {
        let c = chunk(tag, i, 300);
        let h = s.put(c.clone()).unwrap();
        all.insert(h, c.clone());
        if i % keep_mod == 0 {
            live.insert(h, c);
        }
    }
    s.sync().unwrap();
    let before = temp_dir(&format!("{tag}-before"));
    snapshot_dir(&dir, &before);

    let live_set: HashSet<Hash> = live.keys().copied().collect();
    let report = s.compact(&live_set).unwrap();
    assert!(report.segments_deleted > 0, "fixture must actually compact");
    drop(s);
    let after = temp_dir(&format!("{tag}-after"));
    snapshot_dir(&dir, &after);

    CompactionFixture {
        dir,
        before,
        after,
        live,
        all,
    }
}

fn cleanup(f: &CompactionFixture) {
    let _ = fs::remove_dir_all(&f.dir);
    let _ = fs::remove_dir_all(&f.before);
    let _ = fs::remove_dir_all(&f.after);
}

/// Kill window 1: crash while temp segments are being written — the old
/// manifest still rules, `.tmp` files are debris. Nothing acked is lost
/// (the dead chunks resurrect until the next GC, which is fine: GC is
/// idempotent).
#[test]
fn recovery_from_kill_during_temp_segment_write() {
    let f = compaction_fixture("killtmp", 40, 4);
    let staged = temp_dir("killtmp-staged");
    snapshot_dir(&f.before, &staged);
    // Debris: a partial temp segment (here: half of a real new pack file).
    let new_pack = fs::read_dir(&f.after)
        .unwrap()
        .map(|e| e.unwrap())
        .find(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("pack-") && !f.before.join(&name).exists()
        })
        .expect("compaction created a new pack");
    let bytes = fs::read(new_pack.path()).unwrap();
    fs::write(
        staged.join(format!("{}.tmp", new_pack.file_name().to_string_lossy())),
        &bytes[..bytes.len() / 2],
    )
    .unwrap();

    assert_recovers_to(&staged, &f.all);
    // The debris itself must be gone after recovery.
    for e in fs::read_dir(&staged).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.ends_with(".fbk.tmp"), "tmp debris survived: {name}");
    }
    let _ = fs::remove_dir_all(&staged);
    cleanup(&f);
}

/// Kill window 2: crash after the temp→pack renames but before the
/// manifest swap — the new packs exist but are unlisted orphans. The old
/// manifest still names every victim, so nothing is lost; the orphans are
/// deleted.
#[test]
fn recovery_from_kill_before_manifest_swap() {
    let f = compaction_fixture("killswap", 40, 4);
    let staged = temp_dir("killswap-staged");
    snapshot_dir(&f.before, &staged);
    // Debris: every new pack file from the completed compaction, renamed
    // into place but not yet committed to the manifest.
    for e in fs::read_dir(&f.after).unwrap() {
        let e = e.unwrap();
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("pack-") && !f.before.join(&name).exists() {
            fs::copy(e.path(), staged.join(&name)).unwrap();
        }
    }
    assert_recovers_to(&staged, &f.all);
    let _ = fs::remove_dir_all(&staged);
    cleanup(&f);
}

/// Kill window 3: crash after the manifest swap but before the victims
/// are deleted — the victims are unlisted and must be swept on open; the
/// store now contains exactly the live set.
#[test]
fn recovery_from_kill_before_victim_deletion() {
    let f = compaction_fixture("killvictim", 40, 4);
    let staged = temp_dir("killvictim-staged");
    snapshot_dir(&f.after, &staged);
    // Debris: resurrect every victim segment next to the new manifest.
    for e in fs::read_dir(&f.before).unwrap() {
        let e = e.unwrap();
        let name = e.file_name().to_string_lossy().into_owned();
        if name.starts_with("pack-") && !staged.join(&name).exists() {
            fs::copy(e.path(), staged.join(&name)).unwrap();
        }
    }
    assert_recovers_to(&staged, &f.live);
    // The victims must have been deleted by recovery.
    let survivors: Vec<String> = fs::read_dir(&staged)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for e in fs::read_dir(&f.before).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with("pack-")
            && fs::read_dir(&f.after)
                .unwrap()
                .all(|a| a.unwrap().file_name().to_string_lossy() != name.as_str())
        {
            assert!(
                !survivors.contains(&name),
                "victim {name} not deleted on recovery"
            );
        }
    }
    let _ = fs::remove_dir_all(&staged);
    cleanup(&f);
}

/// A stale `MANIFEST.tmp` (even pure garbage) must never shadow the
/// committed manifest.
#[test]
fn recovery_ignores_stale_manifest_tmp() {
    let dir = temp_dir("staletmp");
    let mut expect = HashMap::new();
    {
        let s = FileStore::open_with(&dir, small_cfg()).unwrap();
        for i in 0..10 {
            let c = chunk("staletmp", i, 200);
            expect.insert(s.put(c.clone()).unwrap(), c);
        }
        s.sync().unwrap();
    }
    fs::write(dir.join("MANIFEST.tmp"), b"garbage from a dying process").unwrap();
    assert_recovers_to(&dir, &expect);
    assert!(!dir.join("MANIFEST.tmp").exists());
    let _ = fs::remove_dir_all(&dir);
}

/// Compacting twice in a row (e.g. a GC retried after a crash) is
/// idempotent and keeps serving the live set.
#[test]
fn recovery_gc_retry_after_compaction_is_idempotent() {
    let f = compaction_fixture("retry", 40, 4);
    let s = FileStore::open_with(&f.dir, small_cfg()).unwrap();
    let live_set: HashSet<Hash> = f.live.keys().copied().collect();
    let report = s.compact(&live_set).unwrap();
    assert_eq!(report.chunks_reclaimed, 0, "second pass finds no garbage");
    for (h, payload) in &f.live {
        assert_eq!(s.get(h).unwrap().as_ref(), Some(payload));
    }
    drop(s);
    cleanup(&f);
}

/// A sweep must be durable even when no segment is worth compacting: a
/// dead chunk inside a well-utilized (retained) segment must NOT
/// resurrect on reopen. This is what the TOMBSTONES file exists for.
#[test]
fn recovery_swept_chunks_stay_dead_across_reopen() {
    let dir = temp_dir("tombstone");
    let mut payloads = Vec::new();
    let dead;
    {
        // One big segment, 10 equal chunks, 9 live → utilization 0.9 is
        // above the 0.8 threshold, so compaction rewrites nothing.
        let s = FileStore::open(&dir).unwrap();
        for i in 0..10u32 {
            let c = chunk("tomb", i, 400);
            payloads.push((s.put(c.clone()).unwrap(), c));
        }
        s.sync().unwrap();
        dead = payloads[3].0;
        let live: HashSet<Hash> = payloads
            .iter()
            .map(|(h, _)| *h)
            .filter(|h| *h != dead)
            .collect();
        let report = s.compact(&live).unwrap();
        assert_eq!(report.chunks_reclaimed, 1);
        assert_eq!(report.segments_deleted, 0, "well-utilized: no rewrite");
        assert_eq!(s.get(&dead).unwrap(), None);
    }
    // Reopen: the swept chunk must stay dead and stay uncounted.
    let s = FileStore::open(&dir).unwrap();
    assert_eq!(s.chunk_count(), 9, "swept chunk resurrected on reopen");
    assert_eq!(s.get(&dead).unwrap(), None);
    assert!(!s.contains(&dead).unwrap());
    for (h, c) in payloads.iter().filter(|(h, _)| *h != dead) {
        assert_eq!(s.get(h).unwrap().as_ref(), Some(c));
    }
    // A second GC pass finds nothing new to reclaim (no double counting).
    let live: HashSet<Hash> = payloads
        .iter()
        .map(|(h, _)| *h)
        .filter(|h| *h != dead)
        .collect();
    assert_eq!(s.compact(&live).unwrap().chunks_reclaimed, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// Re-putting previously swept content writes a fresh frame; stale
/// tombstones (which are frame-granular, not hash-granular) must never
/// shadow it across a reopen.
#[test]
fn recovery_reput_after_sweep_survives_reopen() {
    let dir = temp_dir("reput");
    let doomed = chunk("reput", 0, 300);
    let keeper = chunk("reput", 1, 300);
    let h_doomed;
    {
        let s = FileStore::open(&dir).unwrap();
        h_doomed = s.put(doomed.clone()).unwrap();
        let h_keeper = s.put(keeper.clone()).unwrap();
        s.sync().unwrap();
        // Sweep the first chunk (retained segment → tombstone), then put
        // the identical content back.
        let live: HashSet<Hash> = [h_keeper].into_iter().collect();
        // keeper alone is 50% of the segment — force the no-rewrite path
        // by a store whose only segment is above threshold: put filler
        // first so utilization stays high.
        let filler: Vec<Hash> = (2..10u32)
            .map(|i| s.put(chunk("reput", i, 300)).unwrap())
            .collect();
        s.sync().unwrap();
        let live: HashSet<Hash> = live.into_iter().chain(filler).collect();
        let report = s.compact(&live).unwrap();
        assert_eq!(report.chunks_reclaimed, 1);
        assert_eq!(report.segments_deleted, 0);
        assert!(s.put_with_hash(h_doomed, doomed.clone()).unwrap(), "re-put");
        s.sync().unwrap();
    }
    let s = FileStore::open(&dir).unwrap();
    assert_eq!(
        s.get(&h_doomed).unwrap(),
        Some(doomed),
        "re-put chunk shadowed by a stale tombstone"
    );
    assert_eq!(s.chunk_count(), 10);
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Property: torn active tail × crashed-compaction debris.
// ---------------------------------------------------------------------

const FRAME_HEADER: usize = 4 + 4 + 32;
const FRAME_TRAILER: usize = 4;

/// Encode one CRC frame exactly as the store does (layout documented in
/// `file.rs`; pinned by `recovery_handwritten_frame_matches_store_format`).
fn encode_frame(hash: &Hash, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len() + FRAME_TRAILER);
    out.extend_from_slice(b"FKB1");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(hash.as_bytes());
    out.extend_from_slice(payload);
    let mut crc_input = Vec::with_capacity(32 + payload.len());
    crc_input.extend_from_slice(hash.as_bytes());
    crc_input.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    out
}

/// Parse the frames of a segment file, returning `(hash, frame_end)` for
/// every complete frame. Mirrors the store's replay logic.
fn scan_frames(bytes: &[u8]) -> Vec<(Hash, usize)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + FRAME_HEADER + FRAME_TRAILER <= bytes.len() && &bytes[pos..pos + 4] == b"FKB1" {
        let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let end = pos + FRAME_HEADER + len + FRAME_TRAILER;
        if end > bytes.len() {
            break;
        }
        let hash = Hash::from_slice(&bytes[pos + 8..pos + 40]).unwrap();
        out.push((hash, end));
        pos = end;
    }
    out
}

#[test]
fn recovery_handwritten_frame_matches_store_format() {
    // Guards the test-local frame encoder against format drift: a chunk
    // written by the store must be byte-identical to `encode_frame`.
    let dir = temp_dir("frameformat");
    let payload = Bytes::from_static(b"format pin payload");
    let h;
    {
        let s = FileStore::open(&dir).unwrap();
        h = s.put(payload.clone()).unwrap();
        s.sync().unwrap();
    }
    let seg = fs::read(dir.join("pack-00000000.fbk")).unwrap();
    assert_eq!(seg, encode_frame(&h, &payload));
    let _ = fs::remove_dir_all(&dir);
}

/// Find the active segment named by the MANIFEST file of `dir`.
fn manifest_active_pack(dir: &Path) -> PathBuf {
    let text = fs::read_to_string(dir.join("MANIFEST")).unwrap();
    let active: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("active "))
        .expect("manifest has an active line")
        .trim()
        .parse()
        .unwrap();
    dir.join(format!("pack-{active:08}.fbk"))
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Extend the torn-tail property to the multi-segment world: start
    /// from any acked multi-segment store, append an unsynced tail,
    /// truncate the active segment at ANY point past the acked boundary,
    /// scatter any subset of crashed-compaction debris (orphan packs with
    /// ghost chunks, partial temp segments), and the store must open to
    /// EXACTLY the acked chunks plus the tail frames that survived whole
    /// — ghosts and debris must vanish.
    #[test]
    fn recovery_truncation_and_orphans_yield_exactly_the_acked_chunks(
        n_acked in 4usize..24,
        n_tail in 0usize..8,
        cut_frac in 0u32..=1000,
        n_ghosts in 0usize..3,
        with_tmp_debris in proptest::bool::ANY,
    ) {
        let dir = temp_dir("prop");
        let mut acked: HashMap<Hash, Bytes> = HashMap::new();
        let mut tail: Vec<(Hash, Bytes)> = Vec::new();
        {
            let s = FileStore::open_with(&dir, small_cfg()).unwrap();
            for i in 0..n_acked {
                let c = chunk("acked", i as u32, 200 + (i % 5) * 150);
                acked.insert(s.put(c.clone()).unwrap(), c);
            }
            s.sync().unwrap(); // ← the ack boundary
            for i in 0..n_tail {
                let c = chunk("tail", i as u32, 150 + (i % 4) * 120);
                tail.push((s.put(c.clone()).unwrap(), c));
            }
            // Dropping the store flushes buffers without fsync — the
            // kernel-visible file contents are what a crash preserves.
        }

        // Truncate the active segment anywhere at or past the acked
        // boundary. Frames fsynced by `sync` or by segment rotation are
        // durable; only the active tail is at the crash's mercy.
        let active_path = manifest_active_pack(&dir);
        let active_bytes = fs::read(&active_path).unwrap();
        let acked_end = scan_frames(&active_bytes)
            .iter()
            .filter(|(h, _)| acked.contains_key(h))
            .map(|(_, end)| *end)
            .max()
            .unwrap_or(0);
        let cut = acked_end
            + ((active_bytes.len() - acked_end) as u64 * u64::from(cut_frac) / 1000) as usize;
        let surviving_tail: HashSet<Hash> = scan_frames(&active_bytes[..cut])
            .into_iter()
            .map(|(h, _)| h)
            .collect();
        fs::write(&active_path, &active_bytes[..cut]).unwrap();

        // Crashed-compaction debris: an unlisted orphan pack holding ghost
        // chunks (plus a copy of an acked chunk — deleting the orphan must
        // not delete the chunk), and a torn temp segment.
        let mut ghosts: Vec<Hash> = Vec::new();
        if n_ghosts > 0 {
            let mut orphan = Vec::new();
            for g in 0..n_ghosts {
                let c = chunk("ghost", g as u32, 180);
                let h = sha256(&c);
                orphan.extend_from_slice(&encode_frame(&h, &c));
                ghosts.push(h);
            }
            if let Some((h, c)) = acked.iter().next() {
                orphan.extend_from_slice(&encode_frame(h, c));
            }
            fs::write(dir.join("pack-00009999.fbk"), &orphan).unwrap();
        }
        if with_tmp_debris {
            fs::write(dir.join("pack-00009998.fbk.tmp"), b"torn temp segment").unwrap();
        }

        // Reopen: exactly acked ∪ surviving-tail; every payload intact.
        let s = FileStore::open_with(&dir, small_cfg()).unwrap();
        let mut expect: HashMap<Hash, Bytes> = acked.clone();
        for (h, c) in &tail {
            // Tail chunks not in the truncated active segment were pushed
            // into sealed segments by rotation (durable); the rest live or
            // die by the cut point.
            let in_active = scan_frames(&active_bytes).iter().any(|(fh, _)| fh == h);
            if !in_active || surviving_tail.contains(h) {
                expect.insert(*h, c.clone());
            }
        }
        prop_assert_eq!(s.chunk_count(), expect.len());
        for (h, payload) in &expect {
            let got = s.get(h).unwrap();
            prop_assert_eq!(got.as_ref(), Some(payload));
        }
        for g in &ghosts {
            prop_assert!(!s.contains(g).unwrap(), "ghost chunk resurrected");
        }
        prop_assert!(!dir.join("pack-00009999.fbk").exists());
        prop_assert!(!dir.join("pack-00009998.fbk.tmp").exists());
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }
}
