//! Concurrency stress tests for the commit pipeline: striped head locks,
//! batched chunk writes, and the GC gate.
//!
//! The light `*_smoke` tests run in tier-1 (`cargo test`). The heavy
//! `stress_*` tests are `#[ignore]`d and exercised by CI's dedicated
//! stress job in release mode, where races actually surface:
//!
//! ```text
//! cargo test --release -- --ignored stress
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use forkbase::db::VersionSpec;
use forkbase::{gc, DbError, ForkBase, PutOptions};
use forkbase_postree::merge::MergePolicy;
use forkbase_postree::{MapEdit, TreeConfig};
use forkbase_store::{ChunkStore, MemStore, StoreResult, StoreStats};
use forkbase_types::Value;

fn db() -> ForkBase<MemStore> {
    ForkBase::with_config(MemStore::new(), TreeConfig::test_config())
}

fn pseudo_random(len: usize, seed: u64) -> Bytes {
    let mut s = seed | 1;
    Bytes::from(
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 0xff) as u8
            })
            .collect::<Vec<u8>>(),
    )
}

/// N threads commit to disjoint keys; every branch must end up a linear
/// chain of exactly the commits that thread made.
fn run_disjoint_puts(threads: usize, commits: usize) {
    let db = db();
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            s.spawn(move || {
                let key = format!("key-{t}");
                for i in 0..commits {
                    // Alternate cheap string commits with blob commits so
                    // the batched chunk path runs under contention too.
                    if i % 4 == 3 {
                        db.put_blob(
                            &key,
                            pseudo_random(20_000, (t * 1000 + i) as u64),
                            &PutOptions::default(),
                        )
                        .unwrap();
                    } else {
                        db.put(
                            &key,
                            Value::string(format!("v-{t}-{i}")),
                            &PutOptions::default(),
                        )
                        .unwrap();
                    }
                }
            });
        }
    });
    for t in 0..threads {
        let key = format!("key-{t}");
        let history = db.history(&key, &VersionSpec::branch("master")).unwrap();
        assert_eq!(history.len(), commits, "key-{t} must be a linear chain");
        db.verify_branch(&key, "master").unwrap();
    }
}

/// N threads hammer the same (key, branch): the striped head lock must make
/// each commit's base the previous head, so the final history length equals
/// the total number of commits — no lost updates.
fn run_contended_puts(threads: usize, commits: usize) {
    let db = db();
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            s.spawn(move || {
                for i in 0..commits {
                    db.put(
                        "hot",
                        Value::string(format!("v-{t}-{i}")),
                        &PutOptions::default(),
                    )
                    .unwrap();
                }
            });
        }
    });
    let history = db.history("hot", &VersionSpec::branch("master")).unwrap();
    assert_eq!(
        history.len(),
        threads * commits,
        "every commit must appear in the chain exactly once"
    );
    db.verify_branch("hot", "master").unwrap();
}

#[test]
fn concurrent_puts_smoke() {
    run_disjoint_puts(4, 20);
    run_contended_puts(4, 25);
}

#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_concurrent_puts_disjoint_keys() {
    run_disjoint_puts(8, 300);
}

#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_concurrent_puts_contended_branch() {
    run_contended_puts(8, 250);
}

/// Each thread branches off master, edits its own disjoint key range via
/// `put_map_edits`, and merges back. All edits must survive into master.
fn run_branch_merge(threads: usize, edits_per_thread: usize) {
    let db = db();
    let base: Vec<(Bytes, Bytes)> = (0..100)
        .map(|i| {
            (
                Bytes::from(format!("base-{i:04}")),
                Bytes::from_static(b"seed"),
            )
        })
        .collect();
    let map = db.new_map(base).unwrap();
    db.put("doc", map, &PutOptions::default()).unwrap();

    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            s.spawn(move || {
                let branch = format!("fork-{t}");
                db.branch("doc", "master", &branch).unwrap();
                for i in 0..edits_per_thread {
                    db.put_map_edits(
                        "doc",
                        vec![MapEdit::put(
                            Bytes::from(format!("t{t}-k{i:04}")),
                            Bytes::from(format!("t{t}-v{i}")),
                        )],
                        &PutOptions::on_branch(&branch),
                    )
                    .unwrap();
                }
                db.merge(
                    "doc",
                    "master",
                    &branch,
                    MergePolicy::Fail,
                    &PutOptions::default(),
                )
                .unwrap();
            });
        }
    });

    let head = db.get("doc", "master").unwrap();
    db.verify_branch("doc", "master").unwrap();
    for t in 0..threads {
        for i in 0..edits_per_thread {
            let got = db
                .map_get(&head.value, format!("t{t}-k{i:04}").as_bytes())
                .unwrap();
            assert_eq!(
                got,
                Some(Bytes::from(format!("t{t}-v{i}"))),
                "edit t{t}-k{i:04} lost in merge"
            );
        }
    }
}

#[test]
fn concurrent_branch_merge_smoke() {
    run_branch_merge(3, 5);
}

#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_concurrent_branch_merge() {
    run_branch_merge(8, 40);
}

/// Writers commit (strings, blobs, map edits) and churn scratch branches
/// while a collector thread runs mark-and-sweep in a loop. Nothing
/// reachable may ever be swept: every branch must fully verify afterwards.
fn run_gc_vs_commits(threads: usize, rounds: usize, gc_runs: usize) {
    let db = Arc::new(db());
    // Seed a map key for the put_map_edits traffic.
    let map = db
        .new_map(vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))])
        .unwrap();
    db.put("table", map, &PutOptions::default()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut runs = 0usize;
            let mut reclaimed = 0u64;
            while runs < gc_runs && !stop.load(Ordering::Relaxed) {
                let report = gc::collect(&db).unwrap();
                reclaimed += report.sweep.chunks_reclaimed;
                runs += 1;
                std::thread::yield_now();
            }
            reclaimed
        })
    };

    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            s.spawn(move || {
                let key = format!("w-{t}");
                for i in 0..rounds {
                    match i % 4 {
                        0 => {
                            db.put(&key, Value::string(format!("r{i}")), &PutOptions::default())
                                .unwrap();
                        }
                        1 => {
                            db.put_blob(
                                &key,
                                pseudo_random(30_000, (t * 7919 + i) as u64),
                                &PutOptions::default(),
                            )
                            .unwrap();
                        }
                        2 => {
                            db.put_map_edits(
                                "table",
                                vec![MapEdit::put(
                                    Bytes::from(format!("t{t}-r{i}")),
                                    Bytes::from_static(b"x"),
                                )],
                                &PutOptions::default(),
                            )
                            .unwrap();
                        }
                        _ => {
                            // Create garbage for the collector: a scratch
                            // branch with a divergent blob, then drop it.
                            let scratch = format!("scratch-{t}-{i}");
                            db.branch(&key, "master", &scratch).unwrap();
                            db.put_blob(
                                &key,
                                pseudo_random(25_000, (t * 104729 + i) as u64),
                                &PutOptions::on_branch(&scratch),
                            )
                            .unwrap();
                            db.delete_branch(&key, &scratch).unwrap();
                        }
                    }
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    collector.join().unwrap();

    // One final sweep with everything quiescent, then full verification:
    // GC must never have collected a chunk reachable from a live head.
    gc::collect(&db).unwrap();
    for t in 0..threads {
        let key = format!("w-{t}");
        db.verify_branch(&key, "master").unwrap();
        // Per 4-round block a writer commits to its own master twice
        // (cases 0 and 1); `rounds` is kept divisible by 4.
        let history = db.history(&key, &VersionSpec::branch("master")).unwrap();
        assert_eq!(history.len(), rounds / 2, "w-{t} chain intact");
    }
    db.verify_branch("table", "master").unwrap();
}

#[test]
fn gc_vs_commits_smoke() {
    run_gc_vs_commits(3, 16, 10);
}

#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_gc_vs_concurrent_put_branch_merge() {
    run_gc_vs_commits(8, 120, 200);
}

/// Write-batch atomicity under concurrent readers: writers commit batches
/// that put the **same** marker value to every key; readers grab all heads
/// in one consistent [`ForkBase::heads`] read and resolve them. If a batch
/// were ever observable half-applied, a reader would see two different
/// markers across keys.
fn run_write_batch_atomicity(writers: usize, batches: usize, keys: usize) {
    let db = db();
    let key_names: Vec<String> = (0..keys).map(|i| format!("acct-{i}")).collect();
    // Seed all keys with marker "seed" in one batch so readers always find
    // every head.
    {
        let mut seed = db.write_batch();
        for key in &key_names {
            seed.put(key.clone(), Value::string("seed"), &PutOptions::default());
        }
        seed.commit().unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Readers: every observation must be a single batch's marker
        // across ALL keys.
        let mut readers = Vec::new();
        for _ in 0..2 {
            let db = &db;
            let stop = Arc::clone(&stop);
            let torn = Arc::clone(&torn);
            let key_names = &key_names;
            readers.push(s.spawn(move || {
                let pairs: Vec<(&str, &str)> = key_names
                    .iter()
                    .map(|key| (key.as_str(), "master"))
                    .collect();
                while !stop.load(Ordering::Relaxed) {
                    let heads = db.heads(&pairs).unwrap();
                    let markers: Vec<String> = heads
                        .iter()
                        .map(|uid| {
                            db.get_version(uid)
                                .unwrap()
                                .value
                                .as_str()
                                .expect("marker values are strings")
                                .to_string()
                        })
                        .collect();
                    if markers.iter().any(|m| m != &markers[0]) {
                        torn.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }));
        }
        // Writers: each batch stamps one marker onto every key.
        let mut writer_handles = Vec::new();
        for w in 0..writers {
            let db = &db;
            let key_names = &key_names;
            writer_handles.push(s.spawn(move || {
                for i in 0..batches {
                    let marker = format!("w{w}-b{i}");
                    let mut batch = db.write_batch();
                    for key in key_names {
                        batch.put(key.clone(), Value::string(&marker), &PutOptions::default());
                    }
                    batch.commit().unwrap();
                }
            }));
        }
        // Join writers, then release the readers before the scope joins
        // them.
        for h in writer_handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(
        !torn.load(Ordering::Relaxed),
        "a reader observed a torn multi-key batch"
    );
    // Every key converged to some writer's final marker, and each chain
    // verifies end to end.
    for key in &key_names {
        db.verify_branch(key, "master").unwrap();
        let history = db.history(key, &VersionSpec::branch("master")).unwrap();
        assert_eq!(history.len(), writers * batches + 1, "{key} chain length");
    }
}

#[test]
fn write_batch_atomicity_smoke() {
    run_write_batch_atomicity(2, 12, 4);
}

#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_write_batch_atomicity() {
    run_write_batch_atomicity(4, 150, 8);
}

/// Batches and merges take overlapping stripe sets concurrently; ordered
/// acquisition must keep them deadlock-free (the test simply completing
/// is the assertion, plus converged chains verifying).
#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_write_batch_vs_merge_no_deadlock() {
    let db = db();
    for key in ["m-0", "m-1", "m-2", "m-3"] {
        let map = db
            .new_map(vec![(
                Bytes::from_static(b"init"),
                Bytes::from_static(b"0"),
            )])
            .unwrap();
        db.put(key, map, &PutOptions::default()).unwrap();
        db.branch(key, "master", "side").unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..4 {
            let db = &db;
            s.spawn(move || {
                for i in 0..60 {
                    if t % 2 == 0 {
                        // Batch across all four keys, both branches.
                        let mut batch = db.write_batch();
                        for key in ["m-0", "m-1", "m-2", "m-3"] {
                            batch.map_edits(
                                key,
                                vec![MapEdit::put(
                                    Bytes::from(format!("t{t}")),
                                    Bytes::from(format!("{i}")),
                                )],
                                &PutOptions::on_branch(if i % 2 == 0 { "master" } else { "side" }),
                            );
                        }
                        batch.commit().unwrap();
                    } else {
                        // Merges crossing the same stripes in both
                        // directions.
                        let key = format!("m-{}", i % 4);
                        let (dst, src) = if i % 2 == 0 {
                            ("master", "side")
                        } else {
                            ("side", "master")
                        };
                        let _ = db.merge(&key, dst, src, MergePolicy::Ours, &PutOptions::default());
                    }
                }
            });
        }
    });
    for key in ["m-0", "m-1", "m-2", "m-3"] {
        db.verify_branch(key, "master").unwrap();
        db.verify_branch(key, "side").unwrap();
    }
}

/// A 64 MiB blob must stream through `Snapshot::blob_reader` without being
/// materialized: the reader only ever holds one data chunk, and the bytes
/// coming out are identical to the bytes that went in.
#[test]
#[ignore = "heavy; run by the CI stress job in release mode"]
fn stress_blob_reader_streams_64mib() {
    use std::io::Read as _;
    let db = ForkBase::new(MemStore::new()); // default (production) chunking
    let content = pseudo_random(64 * 1024 * 1024, 0xb10b);
    db.put_blob("big", content.clone(), &PutOptions::default())
        .unwrap();
    let snap = db.snapshot("big", &VersionSpec::branch("master")).unwrap();
    let mut reader = snap.blob_reader().unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    let mut pos = 0usize;
    loop {
        let n = reader.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        assert_eq!(
            &content[pos..pos + n],
            &buf[..n],
            "stream diverges at offset {pos}"
        );
        pos += n;
    }
    assert_eq!(pos, content.len(), "every byte streamed exactly once");
}

/// Run `trials` rounds of a two-writer race on two long-lived threads:
/// `setup(i)` runs first, then `a(i)` (this thread) and `b(i)` (a helper
/// that polls for the round, so it is running, not parked, when the
/// round opens) start together. One side starts after a lag that varies
/// with `i` (`a` on odd sweeps, `b` on even), so the rounds sweep each
/// call across the other. Each round uses its own names, so
/// `violated(i, a, b)` judges every round once both threads are done;
/// returns the number of violating rounds.
fn race<A, B: Send>(
    trials: usize,
    setup: impl Fn(usize),
    a: impl Fn(usize) -> A,
    b: impl Fn(usize) -> B + Sync,
    violated: impl Fn(usize, A, B) -> bool,
) -> usize {
    let opened = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    let rounds: Vec<(A, B)> = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..trials {
                while opened.load(Ordering::Acquire) <= i {
                    std::thread::yield_now();
                }
                lag(i, 0);
                tx.send(b(i)).unwrap();
            }
        });
        (0..trials)
            .map(|i| {
                setup(i);
                opened.store(i + 1, Ordering::Release);
                lag(i, 1);
                (a(i), rx.recv().unwrap())
            })
            .collect()
    });
    let rounds = rounds.into_iter().enumerate();
    rounds
        .map(|(i, (a, b))| violated(i, a, b))
        .filter(|&v| v)
        .count()
}

/// Round `i`'s lag, if it falls on `side` (0 or 1): up to 252 µs in 4 µs
/// steps, yielding, so the other side runs even on a shared core.
fn lag(i: usize, side: usize) {
    if i / 64 % 2 == side {
        let until = std::time::Instant::now() + std::time::Duration::from_micros(i as u64 % 64 * 4);
        while std::time::Instant::now() < until {
            std::thread::yield_now();
        }
    }
}

/// A `MemStore` whose writes sleep 50 µs: an unserialized commit's head
/// read and head swing, with its version write between them, then stay
/// apart long enough for a racer to land in the gap, and the sleep hands
/// the racer a core even when the test threads outnumber them.
struct SlowWrites(MemStore);

impl SlowWrites {
    fn stall() {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

impl ChunkStore for SlowWrites {
    fn put_batch(&self, chunks: Vec<(forkbase::Uid, Bytes)>) -> StoreResult<usize> {
        Self::stall();
        self.0.put_batch(chunks)
    }
    fn get(&self, hash: &forkbase::Uid) -> StoreResult<Option<Bytes>> {
        self.0.get(hash)
    }
    fn stats(&self) -> StoreStats {
        self.0.stats()
    }
}

fn race_db() -> ForkBase<SlowWrites> {
    ForkBase::with_config(SlowWrites(MemStore::new()), TreeConfig::test_config())
}

/// The bases of the version a branch head points at, if the branch exists.
fn head_bases(db: &ForkBase<SlowWrites>, key: &str, branch: &str) -> Option<Vec<forkbase::Uid>> {
    let head = db.head(key, branch).ok()?;
    Some(db.meta(&head).unwrap().bases)
}

const RACE_TRIALS: usize = 5_000;

/// `delete_branch` racing a `put` on the same branch: either the put lands
/// first and the delete removes the branch, or the delete lands first and
/// the put starts a new branch with no base. A put based on the deleted
/// head surviving the delete is a lost delete.
#[test]
fn delete_branch_racing_put_loses_no_delete_smoke() {
    let db = race_db();
    let branch = |i: usize| format!("d{i}");
    let lost = race(
        RACE_TRIALS,
        |i| {
            db.put("k", Value::Int(0), &PutOptions::on_branch(branch(i)))
                .unwrap();
        },
        |i| db.delete_branch("k", &branch(i)),
        |i| db.put("k", Value::Int(i as i64), &PutOptions::on_branch(branch(i))),
        |i, deleted, put| {
            deleted.unwrap();
            put.unwrap();
            head_bases(&db, "k", &branch(i)).is_some_and(|b| !b.is_empty())
        },
    );
    assert_eq!(lost, 0, "{lost} deletes lost to a racing put");
}

/// `branch_from_version` racing a `put` on the new branch: either the
/// branch lands first and the put builds on its version, or the put
/// creates the branch and the branch call fails with `BranchExists`. Both
/// succeeding with a base-less put overwrote the new branch.
#[test]
fn branch_from_version_racing_put_overwrites_no_branch_smoke() {
    let db = race_db();
    let root = db.put("k", Value::Int(0), &PutOptions::default()).unwrap();
    let branch = |i: usize| format!("b{i}");
    let overwritten = race(
        RACE_TRIALS,
        |_| {},
        |i| db.branch_from_version("k", &root.uid, &branch(i)),
        |i| db.put("k", Value::Int(i as i64), &PutOptions::on_branch(branch(i))),
        |_, branched, put| {
            let put = put.unwrap();
            branched.is_ok() && db.meta(&put.uid).unwrap().bases.is_empty()
        },
    );
    assert_eq!(overwritten, 0, "{overwritten} new branches overwritten");
}

/// `rename_branch` racing a `put` on the old name: the put lands on the
/// old branch before the rename moves it, or after, on a new branch of
/// that name with no base. The old name coming back with a base means the
/// put's version was lost from the renamed branch.
#[test]
fn rename_branch_racing_put_recreates_no_old_branch_smoke() {
    let db = race_db();
    let (old, new) = (|i: usize| format!("o{i}"), |i: usize| format!("n{i}"));
    let recreated = race(
        RACE_TRIALS,
        |i| {
            db.put("k", Value::Int(0), &PutOptions::on_branch(old(i)))
                .unwrap();
        },
        |i| db.rename_branch("k", &old(i), &new(i)),
        |i| db.put("k", Value::Int(i as i64), &PutOptions::on_branch(old(i))),
        |i, renamed, put| {
            renamed.unwrap();
            put.unwrap();
            head_bases(&db, "k", &old(i)).is_some_and(|b| !b.is_empty())
        },
    );
    assert_eq!(
        recreated, 0,
        "{recreated} old branches recreated with a base"
    );
}

/// `merge` racing the deletion of both its branches: the merge holds both
/// stripes, so the deletions land wholly before it (the merge fails with
/// a missing key) or wholly after. It must never panic.
#[test]
fn merge_racing_deletion_of_both_branches_never_panics_smoke() {
    let db = race_db();
    let rows = (0..200)
        .map(|r| (Bytes::from(format!("r{r:03}")), Bytes::from_static(b"x")))
        .collect();
    let base = db.new_map(rows).unwrap();
    let key = |i: usize| format!("m{i}");
    let panics = race(
        RACE_TRIALS,
        |i| {
            db.put(&key(i), base.clone(), &PutOptions::default())
                .unwrap();
            db.branch(&key(i), "master", "dev").unwrap();
            // Disjoint edits on diverged heads: a real three-way map
            // merge, which keeps the window for the deletions open.
            for branch in ["master", "dev"] {
                let edit = MapEdit::put(Bytes::from(branch), Bytes::from_static(b"y"));
                db.put_map_edits(&key(i), vec![edit], &PutOptions::on_branch(branch))
                    .unwrap();
            }
        },
        |i| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                db.merge(
                    &key(i),
                    "master",
                    "dev",
                    MergePolicy::Fail,
                    &PutOptions::default(),
                )
            }))
        },
        |i| {
            let master = db.delete_branch(&key(i), "master");
            (master, db.delete_branch(&key(i), "dev"))
        },
        |_, merged, _| merged.is_err(),
    );
    assert_eq!(panics, 0, "{panics} merges panicked");
}

const IMPORT_TRIALS: usize = 1_000;

/// A bundle of `branch` of `key` holding one version, from a source
/// database of its own, and that version's uid.
fn one_version_bundle(key: &str, branch: &str) -> (Vec<u8>, forkbase::Uid) {
    let src = db();
    let c = src
        .put(key, Value::Int(-1), &PutOptions::on_branch(branch))
        .unwrap();
    let mut bundle = Vec::new();
    forkbase::export_bundle(&src, key, &[], &mut bundle).unwrap();
    (bundle, c.uid)
}

/// `import_bundle` of a one-version branch racing a `put` on it: either
/// the import lands first and the put builds on the imported head, or the
/// put creates the branch and the import is refused as `BranchExists`.
/// Any other outcome lost the acked put or overwrote the imported head
/// with a version that has no base.
#[test]
fn import_bundle_racing_put_overwrites_neither_smoke() {
    let db = race_db();
    let branch = |i: usize| format!("i{i}");
    let bundles: Vec<_> = (0..IMPORT_TRIALS)
        .map(|i| one_version_bundle("k", &branch(i)))
        .collect();
    let violated = race(
        IMPORT_TRIALS,
        |_| {},
        |i| forkbase::import_bundle(&db, &mut bundles[i].0.as_slice()),
        |i| db.put("k", Value::Int(i as i64), &PutOptions::on_branch(branch(i))),
        |i, imported, put| {
            let put = put.unwrap();
            let serialized = match imported {
                Err(DbError::BranchExists { .. }) => true,
                Ok(_) => db.meta(&put.uid).unwrap().bases == [bundles[i].1],
                Err(e) => panic!("{e}"),
            };
            !serialized || db.head("k", &branch(i)).unwrap() != put.uid
        },
    );
    assert_eq!(violated, 0, "{violated} imports overwrote or lost a put");
}

/// `import_bundle` racing a `put` on the imported branch: a put whose
/// base is the imported head carries a logical time above that head's,
/// however close behind the import's commit it lands. Each bundle's head
/// is stamped ahead of this database's clock (its source writes three
/// filler versions per round, this database one put), so a put that
/// reads the clock before the import advances it stamps a lower time.
#[test]
fn import_bundle_racing_put_stamps_above_the_imported_head_smoke() {
    let src = db();
    let db = race_db();
    let branch = |i: usize| format!("t{i}");
    let bundles: Vec<_> = (0..IMPORT_TRIALS)
        .map(|i| {
            for _ in 0..3 {
                src.put("filler", Value::Int(0), &PutOptions::default())
                    .unwrap();
            }
            let head = src
                .put("k", Value::Int(-1), &PutOptions::on_branch(branch(i)))
                .unwrap();
            let mut bundle = Vec::new();
            forkbase::export_bundle(&src, "k", &[branch(i).as_str()], &mut bundle).unwrap();
            (bundle, src.meta(&head.uid).unwrap())
        })
        .collect();
    let violated = race(
        IMPORT_TRIALS,
        |_| {},
        |i| forkbase::import_bundle(&db, &mut bundles[i].0.as_slice()),
        |i| db.put("k", Value::Int(i as i64), &PutOptions::on_branch(branch(i))),
        |i, _, put| {
            let put = db.meta(&put.unwrap().uid).unwrap();
            let head = &bundles[i].1;
            put.bases == [head.uid] && put.logical_time <= head.logical_time
        },
    );
    assert_eq!(
        violated, 0,
        "{violated} puts stamped at or below their base"
    );
}

/// The refs of `key` after a round of a replace-import race: exactly the
/// bundle's, or the bundle's followed by `local` — the later local op's
/// effect on the bundle's branch set.
fn replaced_or_after(
    db: &ForkBase<SlowWrites>,
    key: &str,
    bundle: &[(String, forkbase::Uid)],
    local: impl FnOnce(&mut Vec<(String, forkbase::Uid)>),
) -> bool {
    let now: Vec<(String, forkbase::Uid)> = db
        .latest(key)
        .map(|bs| bs.into_iter().map(|b| (b.name, b.head)).collect())
        .unwrap_or_default();
    let mut after = bundle.to_vec();
    local(&mut after);
    now == bundle || now == after
}

/// `import_bundle_replace` (replica apply) racing a `put` on the same
/// branch: the key's branch set must be the bundle's (the put landed
/// first and the replace dropped it) or the bundle's with the put on top
/// of the imported head — never the put's version without that base.
#[test]
fn import_bundle_replace_racing_put_mixes_no_branch_set_smoke() {
    let db = race_db();
    let key = |i: usize| format!("r{i}");
    let bundles: Vec<_> = (0..IMPORT_TRIALS)
        .map(|i| one_version_bundle(&key(i), "master"))
        .collect();
    let mixed = race(
        IMPORT_TRIALS,
        |_| {},
        |i| forkbase::import_bundle_replace(&db, &mut bundles[i].0.as_slice()),
        |i| db.put(&key(i), Value::Int(i as i64), &PutOptions::default()),
        |i, replaced, put| {
            replaced.unwrap();
            let put = put.unwrap();
            let imported = bundles[i].1;
            let bundle = [("master".to_string(), imported)];
            let on_top = db.meta(&put.uid).unwrap().bases == [imported];
            !replaced_or_after(&db, &key(i), &bundle, |refs| {
                if on_top {
                    refs[0].1 = put.uid;
                }
            })
        },
    );
    assert_eq!(mixed, 0, "{mixed} replace imports mixed with a put");
}

/// `import_bundle_replace` racing a `delete_branch` of a local branch the
/// bundle also names: the key's branch set is the bundle's (the delete
/// landed first) or the bundle's without that branch (it landed after).
#[test]
fn import_bundle_replace_racing_delete_mixes_no_branch_set_smoke() {
    let db = race_db();
    let key = |i: usize| format!("x{i}");
    let bundles: Vec<_> = (0..IMPORT_TRIALS)
        .map(|i| {
            let src = db_with_two_branches(&key(i));
            let mut bundle = Vec::new();
            forkbase::export_bundle(&src, &key(i), &[], &mut bundle).unwrap();
            (bundle, src.latest(&key(i)).unwrap())
        })
        .collect();
    let mixed = race(
        IMPORT_TRIALS,
        |i| {
            db.put(&key(i), Value::Int(0), &PutOptions::default())
                .unwrap();
        },
        |i| forkbase::import_bundle_replace(&db, &mut bundles[i].0.as_slice()),
        |i| db.delete_branch(&key(i), "master"),
        |i, replaced, deleted| {
            replaced.unwrap();
            deleted.unwrap();
            let bundle: Vec<_> = bundles[i]
                .1
                .iter()
                .map(|b| (b.name.clone(), b.head))
                .collect();
            !replaced_or_after(&db, &key(i), &bundle, |refs| {
                refs.retain(|(name, _)| name != "master")
            })
        },
    );
    assert_eq!(mixed, 0, "{mixed} replace imports mixed with a delete");
}

/// A source database whose `key` has branches `dev` and `master`.
fn db_with_two_branches(key: &str) -> ForkBase<MemStore> {
    let src = db();
    src.put(key, Value::Int(-1), &PutOptions::default())
        .unwrap();
    src.branch(key, "master", "dev").unwrap();
    src
}
