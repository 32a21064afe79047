//! Counter agreement: every store's running counters restate its index.
//!
//! A store keeps two views of what it holds: its index (`MemStore`'s
//! shards, `FileStore`'s slot map) and the running [`StoreStats`]
//! counters that every put, batch and sweep updates incrementally. These
//! properties drive `MemStore`, `FileStore` and `FaultyStore<MemStore>`
//! with random single puts, caller-hashed puts, batches with in-batch
//! duplicates and sweeps against random live sets. After every step they
//! check both views against a model of the resident set:
//! `stats().unique_chunks == chunk_count()`, `stats().stored_bytes ==
//! utilization().live_bytes`, the index holds exactly the model's chunks,
//! and every write reports the dedup outcome the model predicts.
//! `FileStore` also reopens mid-sequence, so recovery over tombstoned
//! frames must rebuild the same counters. This agreement is what lets
//! `ChunkStore` derive `chunk_count` and `stored_bytes` from `stats()`.
//!
//! The `FileStore` tests' names contain `recovery`, so CI's release crash
//! recovery job (`cargo test --release -p forkbase_store -- recovery`)
//! runs them too.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};
use forkbase_store::{ChunkStore, FaultyStore, FileStore, FileStoreConfig, MemStore, SweepStore};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "forkbase-counters-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Payloads the operations draw from: few enough that puts collide
/// often, sized 40–610 bytes so a small segment holds a handful.
const POOL: usize = 24;

fn pool() -> Vec<(Hash, Bytes)> {
    (0..POOL)
        .map(|i| {
            let mut v = format!("pool-{i:02}-").into_bytes();
            v.resize(40 + (i * 97) % 571, b'a' + i as u8);
            let b = Bytes::from(v);
            (sha256(&b), b)
        })
        .collect()
}

/// Small segments, so a random run rotates, compacts victims and leaves
/// tombstones in retained segments.
fn small_cfg() -> FileStoreConfig {
    FileStoreConfig {
        segment_bytes: 2048,
        ..Default::default()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Put(usize),
    PutWithHash(usize),
    /// Pool indices; repeats are in-batch duplicates.
    Batch(Vec<usize>),
    /// Bit `i` set: pool item `i` is live.
    Sweep(u64),
    /// Close and reopen the store (`FileStore` only; a no-op elsewhere).
    Reopen,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            (0u8..12, 0usize..POOL),
            proptest::num::u64::ANY,
            proptest::num::u64::ANY,
            proptest::collection::vec(0usize..POOL, 0..10),
        )
            .prop_map(|((kind, i), a, b, batch)| match kind {
                0..=2 => Op::Put(i),
                3 | 4 => Op::PutWithHash(i),
                5..=7 => Op::Batch(batch),
                8 => Op::Sweep(a),      // about half live
                9 => Op::Sweep(a | b),  // about three quarters live
                10 => Op::Sweep(a & b), // about a quarter live
                _ => Op::Reopen,
            }),
        1..40,
    )
}

/// The resident set a correct store holds: hash → payload length.
type Model = HashMap<Hash, u64>;

/// Apply one write or sweep to `s` and `model`, asserting the outcome the
/// store reports. `Reopen` is the caller's.
fn apply<S: SweepStore>(s: &S, op: &Op, pool: &[(Hash, Bytes)], model: &mut Model) {
    match op {
        Op::Put(i) => {
            let (h, b) = &pool[*i];
            assert_eq!(s.put(b.clone()).unwrap(), *h);
            model.insert(*h, b.len() as u64);
        }
        Op::PutWithHash(i) => {
            let (h, b) = &pool[*i];
            let newly = s.put_with_hash(*h, b.clone()).unwrap();
            assert_eq!(newly, !model.contains_key(h), "put_with_hash outcome");
            model.insert(*h, b.len() as u64);
        }
        Op::Batch(idx) => {
            let mut expect_new = 0;
            for &i in idx {
                let (h, b) = &pool[i];
                if model.insert(*h, b.len() as u64).is_none() {
                    expect_new += 1;
                }
            }
            let batch = idx.iter().map(|&i| pool[i].clone()).collect();
            assert_eq!(s.put_batch(batch).unwrap(), expect_new, "put_batch outcome");
        }
        Op::Sweep(mask) => {
            let live: HashSet<Hash> = (0..POOL)
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| pool[i].0)
                .collect();
            let dead: Vec<u64> = model
                .iter()
                .filter(|(h, _)| !live.contains(h))
                .map(|(_, len)| *len)
                .collect();
            let report = s.sweep(&|h| live.contains(h)).unwrap();
            assert_eq!(report.chunks_reclaimed, dead.len() as u64);
            assert_eq!(report.bytes_reclaimed, dead.iter().sum::<u64>());
            model.retain(|h, _| live.contains(h));
        }
        Op::Reopen => {}
    }
}

/// Both views of `s` agree with each other and with `model`.
/// `index_len` counts the store's index without going through its
/// counters.
fn check<S: SweepStore>(s: &S, pool: &[(Hash, Bytes)], model: &Model, index_len: usize, at: &str) {
    let stats = s.stats();
    let model_bytes: u64 = model.values().sum();
    assert_eq!(index_len, model.len(), "{at}: index size");
    assert_eq!(
        stats.unique_chunks,
        model.len() as u64,
        "{at}: unique_chunks"
    );
    assert_eq!(
        stats.unique_chunks,
        s.chunk_count() as u64,
        "{at}: chunk_count"
    );
    assert_eq!(stats.stored_bytes, model_bytes, "{at}: stored_bytes");
    assert_eq!(
        stats.stored_bytes,
        s.utilization().unwrap().live_bytes,
        "{at}: utilization"
    );
    for (h, _) in pool {
        assert_eq!(
            s.contains(h).unwrap(),
            model.contains_key(h),
            "{at}: contains"
        );
    }
}

fn shard_count(s: &MemStore) -> usize {
    let mut n = 0;
    s.for_each_chunk(|_, _| n += 1);
    n
}

/// `FileStore`'s index size, read through `contains` (an index lookup)
/// for every payload the run can have written.
fn indexed(s: &FileStore, pool: &[(Hash, Bytes)]) -> usize {
    pool.iter().filter(|(h, _)| s.contains(h).unwrap()).count()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn memstore_counters_agree_with_its_shards(ops in ops()) {
        let pool = pool();
        let s = MemStore::new();
        let mut model = Model::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&s, op, &pool, &mut model);
            check(&s, &pool, &model, shard_count(&s), &format!("step {step} {op:?}"));
        }
    }

    #[test]
    fn faulty_memstore_counters_agree_with_its_shards(ops in ops()) {
        let pool = pool();
        let s = FaultyStore::new(MemStore::new());
        let mut model = Model::new();
        for (step, op) in ops.iter().enumerate() {
            apply(&s, op, &pool, &mut model);
            let n = shard_count(s.inner());
            check(&s, &pool, &model, n, &format!("step {step} {op:?}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn filestore_counters_agree_with_its_index_across_recovery(ops in ops()) {
        let pool = pool();
        let dir = temp_dir("prop");
        let mut s = FileStore::open_with(&dir, small_cfg()).unwrap();
        let mut model = Model::new();
        for (step, op) in ops.iter().enumerate() {
            if let Op::Reopen = op {
                drop(s);
                s = FileStore::open_with(&dir, small_cfg()).unwrap();
            } else {
                apply(&s, op, &pool, &mut model);
            }
            let n = indexed(&s, &pool);
            check(&s, &pool, &model, n, &format!("step {step} {op:?}"));
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn dead_frames_recorded(dir: &Path) -> usize {
    std::fs::read_to_string(dir.join("TOMBSTONES"))
        .map(|text| text.lines().filter(|l| l.starts_with("dead ")).count())
        .unwrap_or(0)
}

/// The reopen half, made deterministic: a sweep that leaves dead frames
/// inside a retained segment (tombstoned, not rewritten), a reopen that
/// must skip them, and a second sweep that compacts the segment away.
#[test]
fn recovery_counters_agree_after_reopen_over_tombstoned_frames() {
    let pool = pool();
    let dir = temp_dir("tombs");
    let mut model = Model::new();
    let s = FileStore::open(&dir).unwrap();
    apply(&s, &Op::Batch((0..10).collect()), &pool, &mut model);
    // Pool item 0 is the smallest: its segment stays ≥ 80% live.
    apply(&s, &Op::Sweep(!1), &pool, &mut model);
    assert_eq!(s.segment_count(), 1, "the segment was retained");
    assert_eq!(
        dead_frames_recorded(&dir),
        1,
        "the dead frame is tombstoned"
    );
    check(
        &s,
        &pool,
        &model,
        indexed(&s, &pool),
        "after a tombstoning sweep",
    );
    drop(s);

    let s = FileStore::open(&dir).unwrap();
    check(
        &s,
        &pool,
        &model,
        indexed(&s, &pool),
        "reopened over a tombstone",
    );
    // Re-put the swept chunk (a fresh frame no tombstone shadows), then
    // kill most of the segment so it is compacted away.
    apply(&s, &Op::PutWithHash(0), &pool, &mut model);
    apply(&s, &Op::Sweep(0b11), &pool, &mut model);
    assert_eq!(
        dead_frames_recorded(&dir),
        0,
        "the victim's tombstones went with it"
    );
    check(
        &s,
        &pool,
        &model,
        indexed(&s, &pool),
        "after a compacting sweep",
    );
    drop(s);

    let s = FileStore::open(&dir).unwrap();
    check(
        &s,
        &pool,
        &model,
        indexed(&s, &pool),
        "reopened after compaction",
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}
