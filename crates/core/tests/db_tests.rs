//! End-to-end tests of the ForkBase verb set (paper Fig. 1 API layer):
//! Put, Get, List, Branch, Merge, Select, Stat, Export, Diff, Head,
//! Rename, Latest, Meta — plus tamper evidence under a malicious store.

use bytes::Bytes;
use forkbase::db::DbStat;
use forkbase::{DbError, ForkBase, PutOptions, ValueDiff, VersionSpec, DEFAULT_BRANCH};
use forkbase_postree::{MapEdit, MergePolicy, TreeConfig};
use forkbase_store::{ChunkStore, FaultMode, FaultyStore, MemStore};
use forkbase_types::Value;

fn db() -> ForkBase<MemStore> {
    ForkBase::with_config(MemStore::new(), TreeConfig::test_config())
}

fn sample_pairs(n: u32) -> Vec<(Bytes, Bytes)> {
    (0..n)
        .map(|i| {
            (
                Bytes::from(format!("row-{i:06}")),
                Bytes::from(format!("data for row {i}")),
            )
        })
        .collect()
}

#[test]
fn put_get_head_on_default_branch() {
    let db = db();
    let commit = db
        .put("greeting", Value::string("hello"), &PutOptions::default())
        .unwrap();
    let got = db.get("greeting", DEFAULT_BRANCH).unwrap();
    assert_eq!(got.value.as_str(), Some("hello"));
    assert_eq!(got.uid, commit.uid);
    assert_eq!(db.head("greeting", DEFAULT_BRANCH).unwrap(), commit.uid);
}

#[test]
fn put_appends_history() {
    let db = db();
    let c1 = db
        .put(
            "doc",
            Value::string("v1"),
            &PutOptions::default().message("first"),
        )
        .unwrap();
    let c2 = db
        .put(
            "doc",
            Value::string("v2"),
            &PutOptions::default().message("second"),
        )
        .unwrap();
    assert_ne!(c1.uid, c2.uid);

    let history = db.history("doc", &VersionSpec::branch("master")).unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].uid, c2.uid);
    assert_eq!(history[0].message, "second");
    assert_eq!(history[0].bases, vec![c1.uid]);
    assert_eq!(history[1].uid, c1.uid);
    assert!(history[1].bases.is_empty());
    // Logical clock is monotone.
    assert!(history[0].logical_time > history[1].logical_time);
}

#[test]
fn get_version_retrieves_old_values() {
    let db = db();
    let c1 = db
        .put("doc", Value::string("old"), &PutOptions::default())
        .unwrap();
    db.put("doc", Value::string("new"), &PutOptions::default())
        .unwrap();
    let old = db.get_version(&c1.uid).unwrap();
    assert_eq!(old.value.as_str(), Some("old"));
}

#[test]
fn missing_key_and_branch_errors() {
    let db = db();
    assert!(matches!(
        db.get("ghost", "master"),
        Err(DbError::NoSuchKey(_))
    ));
    db.put("real", Value::Int(1), &PutOptions::default())
        .unwrap();
    assert!(matches!(
        db.get("real", "ghost-branch"),
        Err(DbError::NoSuchBranch { .. })
    ));
    assert!(matches!(
        db.get_version(&forkbase_crypto::sha256(b"nonexistent")),
        Err(DbError::NoSuchVersion(_))
    ));
}

#[test]
fn branch_fork_and_isolation() {
    let db = db();
    db.put("data", Value::string("base"), &PutOptions::default())
        .unwrap();
    db.branch("data", "master", "vendor-x").unwrap();

    // Both branches see the same head initially.
    assert_eq!(
        db.head("data", "master").unwrap(),
        db.head("data", "vendor-x").unwrap()
    );

    // Writes diverge.
    db.put(
        "data",
        Value::string("vendor version"),
        &PutOptions::on_branch("vendor-x"),
    )
    .unwrap();
    assert_eq!(
        db.get("data", "master").unwrap().value.as_str(),
        Some("base")
    );
    assert_eq!(
        db.get("data", "vendor-x").unwrap().value.as_str(),
        Some("vendor version")
    );
}

#[test]
fn branch_errors() {
    let db = db();
    db.put("k", Value::Int(1), &PutOptions::default()).unwrap();
    db.branch("k", "master", "dev").unwrap();
    assert!(matches!(
        db.branch("k", "master", "dev"),
        Err(DbError::BranchExists { .. })
    ));
    assert!(matches!(
        db.branch("k", "nope", "dev2"),
        Err(DbError::NoSuchBranch { .. })
    ));
    assert!(matches!(
        db.branch("ghost", "master", "dev"),
        Err(DbError::NoSuchKey(_))
    ));
}

#[test]
fn branch_from_historical_version() {
    let db = db();
    let c1 = db
        .put("k", Value::string("v1"), &PutOptions::default())
        .unwrap();
    db.put("k", Value::string("v2"), &PutOptions::default())
        .unwrap();
    db.branch_from_version("k", &c1.uid, "archaeology").unwrap();
    assert_eq!(
        db.get("k", "archaeology").unwrap().value.as_str(),
        Some("v1")
    );
}

#[test]
fn branch_from_wrong_key_version_rejected() {
    let db = db();
    let c = db.put("a", Value::Int(1), &PutOptions::default()).unwrap();
    db.put("b", Value::Int(2), &PutOptions::default()).unwrap();
    assert!(matches!(
        db.branch_from_version("b", &c.uid, "bad"),
        Err(DbError::InvalidInput(_))
    ));
}

#[test]
fn rename_and_delete_branch() {
    let db = db();
    db.put("k", Value::Int(1), &PutOptions::default()).unwrap();
    db.branch("k", "master", "temp").unwrap();
    db.rename_branch("k", "temp", "permanent").unwrap();
    assert!(db.head("k", "permanent").is_ok());
    assert!(matches!(
        db.head("k", "temp"),
        Err(DbError::NoSuchBranch { .. })
    ));
    assert!(matches!(
        db.rename_branch("k", "permanent", "master"),
        Err(DbError::BranchExists { .. })
    ));
    db.delete_branch("k", "permanent").unwrap();
    assert!(matches!(
        db.head("k", "permanent"),
        Err(DbError::NoSuchBranch { .. })
    ));
}

#[test]
fn list_and_latest() {
    let db = db();
    db.put("alpha", Value::Int(1), &PutOptions::default())
        .unwrap();
    db.put("beta", Value::Int(2), &PutOptions::default())
        .unwrap();
    db.branch("alpha", "master", "dev").unwrap();
    assert_eq!(
        db.list_keys(),
        vec!["alpha".to_string(), "beta".to_string()]
    );

    let latest = db.latest("alpha").unwrap();
    assert_eq!(latest.len(), 2);
    let names: Vec<_> = latest.iter().map(|b| b.name.as_str()).collect();
    assert_eq!(names, vec!["dev", "master"]);
}

#[test]
fn meta_exposes_commit_info() {
    let db = db();
    let c = db
        .put(
            "k",
            Value::Int(42),
            &PutOptions::default().author("alice").message("answer"),
        )
        .unwrap();
    let meta = db.meta(&c.uid).unwrap();
    assert_eq!(meta.author, "alice");
    assert_eq!(meta.message, "answer");
    assert_eq!(meta.value_type, forkbase_types::ValueType::Int);
}

#[test]
fn map_values_roundtrip_and_select() {
    let db = db();
    let map = db.new_map(sample_pairs(500)).unwrap();
    db.put("table", map, &PutOptions::default()).unwrap();
    let got = db.get("table", "master").unwrap();

    assert_eq!(
        db.map_get(&got.value, b"row-000123").unwrap(),
        Some(Bytes::from("data for row 123"))
    );
    assert_eq!(db.map_get(&got.value, b"missing").unwrap(), None);

    // Select: a key range (the paper's Select verb).
    let selected = db
        .map_select(&got.value, Some(b"row-000100"), Some(b"row-000110"))
        .unwrap();
    assert_eq!(selected.len(), 10);
    assert_eq!(selected[0].0, Bytes::from("row-000100"));

    let all = db.map_entries(&got.value).unwrap();
    assert_eq!(all.len(), 500);
}

#[test]
fn put_map_edits_commits_incrementally() {
    let db = db();
    let map = db.new_map(sample_pairs(300)).unwrap();
    db.put("table", map, &PutOptions::default()).unwrap();
    let chunks_before = db.store().chunk_count();

    db.put_map_edits(
        "table",
        vec![
            MapEdit::put(
                Bytes::from_static(b"row-000001"),
                Bytes::from_static(b"updated"),
            ),
            MapEdit::delete(Bytes::from_static(b"row-000002")),
        ],
        &PutOptions::default(),
    )
    .unwrap();

    let got = db.get("table", "master").unwrap();
    assert_eq!(
        db.map_get(&got.value, b"row-000001").unwrap(),
        Some(Bytes::from_static(b"updated"))
    );
    assert_eq!(db.map_get(&got.value, b"row-000002").unwrap(), None);

    // SIRI property 2 at the database level: the commit added few chunks.
    let added = db.store().chunk_count() - chunks_before;
    assert!(added < 20, "incremental commit created {added} chunks");
}

#[test]
fn blob_and_list_values() {
    let db = db();
    let content: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    let blob = db.new_blob(&content).unwrap();
    db.put("file", blob, &PutOptions::default()).unwrap();
    let got = db.get("file", "master").unwrap();
    assert_eq!(db.blob_read(&got.value).unwrap(), content);

    let list = db
        .new_list((0..100).map(|i| Bytes::from(format!("item-{i}"))).collect())
        .unwrap();
    db.put("log", list, &PutOptions::default()).unwrap();
    let got = db.get("log", "master").unwrap();
    let elements = db.list_elements(&got.value).unwrap();
    assert_eq!(elements.len(), 100);
    assert_eq!(elements[7], Bytes::from_static(b"item-7"));
}

#[test]
fn type_mismatch_errors() {
    let db = db();
    db.put("s", Value::string("text"), &PutOptions::default())
        .unwrap();
    let got = db.get("s", "master").unwrap();
    assert!(matches!(
        db.map_get(&got.value, b"x"),
        Err(DbError::TypeMismatch { .. })
    ));
    assert!(matches!(
        db.blob_read(&got.value),
        Err(DbError::TypeMismatch { .. })
    ));
    assert!(matches!(
        db.list_elements(&got.value),
        Err(DbError::TypeMismatch { .. })
    ));
}

#[test]
fn diff_map_versions_across_branches() {
    let db = db();
    let map = db.new_map(sample_pairs(400)).unwrap();
    db.put("ds", map, &PutOptions::default()).unwrap();
    db.branch("ds", "master", "vendor-x").unwrap();
    db.put_map_edits(
        "ds",
        vec![
            MapEdit::put(
                Bytes::from_static(b"row-000007"),
                Bytes::from_static(b"changed"),
            ),
            MapEdit::put(
                Bytes::from_static(b"row-999999"),
                Bytes::from_static(b"added"),
            ),
        ],
        &PutOptions::on_branch("vendor-x"),
    )
    .unwrap();

    let diff = db
        .diff(
            "ds",
            &VersionSpec::branch("master"),
            &VersionSpec::branch("vendor-x"),
        )
        .unwrap();
    match diff {
        ValueDiff::Map(d) => {
            assert_eq!(d.counts(), (1, 0, 1)); // one added, one modified
        }
        other => panic!("expected map diff, got {other:?}"),
    }

    // Identical branches diff to Identical.
    db.branch("ds", "master", "copy").unwrap();
    let diff = db
        .diff(
            "ds",
            &VersionSpec::branch("master"),
            &VersionSpec::branch("copy"),
        )
        .unwrap();
    assert!(diff.is_identical());
}

#[test]
fn diff_blob_versions_reports_sharing() {
    let db = db();
    let content: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
    let blob = db.new_blob(&content).unwrap();
    db.put("f", blob, &PutOptions::default()).unwrap();

    let mut edited = content.clone();
    for b in &mut edited[50_000..50_010] {
        *b ^= 0xff;
    }
    let blob2 = db.new_blob(&edited).unwrap();
    db.put("f", blob2, &PutOptions::default()).unwrap();

    let history = db.history("f", &VersionSpec::branch("master")).unwrap();
    let diff = db
        .diff(
            "f",
            &VersionSpec::Version(history[1].uid),
            &VersionSpec::Version(history[0].uid),
        )
        .unwrap();
    match diff {
        ValueDiff::Chunked {
            from_len,
            to_len,
            shared_bytes,
            from_chunks,
            ..
        } => {
            assert_eq!(from_len, 100_000);
            assert_eq!(to_len, 100_000);
            assert!(from_chunks > 1);
            assert!(
                shared_bytes > 90_000,
                "tiny edit must share most chunks, shared only {shared_bytes}"
            );
        }
        other => panic!("expected chunked diff, got {other:?}"),
    }
}

#[test]
fn merge_disjoint_branch_edits() {
    let db = db();
    let map = db.new_map(sample_pairs(1000)).unwrap();
    db.put("ds", map, &PutOptions::default()).unwrap();
    db.branch("ds", "master", "team-a").unwrap();

    // Divergent edits on both branches, different rows.
    db.put_map_edits(
        "ds",
        vec![MapEdit::put(
            Bytes::from_static(b"row-000010"),
            Bytes::from_static(b"A"),
        )],
        &PutOptions::on_branch("team-a"),
    )
    .unwrap();
    db.put_map_edits(
        "ds",
        vec![MapEdit::put(
            Bytes::from_static(b"row-000990"),
            Bytes::from_static(b"M"),
        )],
        &PutOptions::default(),
    )
    .unwrap();

    let merged = db
        .merge(
            "ds",
            "master",
            "team-a",
            MergePolicy::Fail,
            &PutOptions::default(),
        )
        .unwrap();
    let meta = db.meta(&merged.uid).unwrap();
    assert_eq!(meta.bases.len(), 2, "merge node has two bases");

    let got = db.get("ds", "master").unwrap();
    assert_eq!(
        db.map_get(&got.value, b"row-000010").unwrap(),
        Some(Bytes::from_static(b"A"))
    );
    assert_eq!(
        db.map_get(&got.value, b"row-000990").unwrap(),
        Some(Bytes::from_static(b"M"))
    );
}

#[test]
fn merge_fast_forward() {
    let db = db();
    db.put("k", Value::string("base"), &PutOptions::default())
        .unwrap();
    db.branch("k", "master", "ahead").unwrap();
    let c2 = db
        .put(
            "k",
            Value::string("advanced"),
            &PutOptions::on_branch("ahead"),
        )
        .unwrap();
    // master has not moved: merging "ahead" in is a fast-forward.
    let merged = db
        .merge(
            "k",
            "master",
            "ahead",
            MergePolicy::Fail,
            &PutOptions::default(),
        )
        .unwrap();
    assert_eq!(merged.uid, c2.uid, "fast-forward reuses the head");
    assert_eq!(
        db.get("k", "master").unwrap().value.as_str(),
        Some("advanced")
    );

    // Merging again is a no-op.
    let again = db
        .merge(
            "k",
            "master",
            "ahead",
            MergePolicy::Fail,
            &PutOptions::default(),
        )
        .unwrap();
    assert_eq!(again.uid, c2.uid);
}

#[test]
fn merge_conflict_detection_and_policies() {
    let db = db();
    let map = db.new_map(sample_pairs(100)).unwrap();
    db.put("ds", map, &PutOptions::default()).unwrap();
    db.branch("ds", "master", "other").unwrap();

    db.put_map_edits(
        "ds",
        vec![MapEdit::put(
            Bytes::from_static(b"row-000050"),
            Bytes::from_static(b"mine"),
        )],
        &PutOptions::default(),
    )
    .unwrap();
    db.put_map_edits(
        "ds",
        vec![MapEdit::put(
            Bytes::from_static(b"row-000050"),
            Bytes::from_static(b"theirs"),
        )],
        &PutOptions::on_branch("other"),
    )
    .unwrap();

    assert!(matches!(
        db.merge(
            "ds",
            "master",
            "other",
            MergePolicy::Fail,
            &PutOptions::default()
        ),
        Err(DbError::MergeConflicts(_))
    ));

    let merged = db
        .merge(
            "ds",
            "master",
            "other",
            MergePolicy::Theirs,
            &PutOptions::default(),
        )
        .unwrap();
    let got = db.get_version(&merged.uid).unwrap();
    assert_eq!(
        db.map_get(&got.value, b"row-000050").unwrap(),
        Some(Bytes::from_static(b"theirs"))
    );
}

#[test]
fn merge_primitive_values() {
    let db = db();
    db.put("k", Value::string("base"), &PutOptions::default())
        .unwrap();
    db.branch("k", "master", "b").unwrap();
    db.put("k", Value::string("ours"), &PutOptions::default())
        .unwrap();
    db.put("k", Value::string("theirs"), &PutOptions::on_branch("b"))
        .unwrap();

    assert!(matches!(
        db.merge(
            "k",
            "master",
            "b",
            MergePolicy::Fail,
            &PutOptions::default()
        ),
        Err(DbError::MergeConflicts(_))
    ));
    let m = db
        .merge(
            "k",
            "master",
            "b",
            MergePolicy::Ours,
            &PutOptions::default(),
        )
        .unwrap();
    assert_eq!(db.get_version(&m.uid).unwrap().value.as_str(), Some("ours"));
}

#[test]
fn export_writes_content() {
    let db = db();
    db.put("s", Value::string("exported text"), &PutOptions::default())
        .unwrap();
    let mut buf = Vec::new();
    let n = db
        .export("s", &VersionSpec::branch("master"), &mut buf)
        .unwrap();
    assert_eq!(buf, b"exported text");
    assert_eq!(n, 13);

    let map = db
        .new_map(vec![(Bytes::from_static(b"k1"), Bytes::from_static(b"v1"))])
        .unwrap();
    db.put("m", map, &PutOptions::default()).unwrap();
    let mut buf = Vec::new();
    db.export("m", &VersionSpec::branch("master"), &mut buf)
        .unwrap();
    assert_eq!(buf, b"k1\tv1\n");
}

#[test]
fn stat_counts_keys_and_branches() {
    let db = db();
    db.put("a", Value::Int(1), &PutOptions::default()).unwrap();
    db.put("b", Value::Int(2), &PutOptions::default()).unwrap();
    db.branch("a", "master", "dev").unwrap();
    let stat: DbStat = db.stat();
    assert_eq!(stat.keys, 2);
    assert_eq!(stat.branches, 3);
    assert!(stat.store.unique_chunks > 0);
    assert!(stat.to_string().contains("keys:"));
}

#[test]
fn verify_branch_walks_full_history() {
    let db = db();
    let map = db.new_map(sample_pairs(200)).unwrap();
    db.put("ds", map, &PutOptions::default()).unwrap();
    for i in 0..5 {
        db.put_map_edits(
            "ds",
            vec![MapEdit::put(
                Bytes::from(format!("row-{i:06}")),
                Bytes::from(format!("edit {i}")),
            )],
            &PutOptions::default(),
        )
        .unwrap();
    }
    let checked = db.verify_branch("ds", "master").unwrap();
    assert_eq!(checked, 6);
}

#[test]
fn tampered_value_chunk_is_detected_by_verification() {
    // The §II-D threat model end-to-end: a malicious store flips one bit
    // in a value chunk; the client's verify pass must catch it.
    let inner = MemStore::new();
    let db = ForkBase::with_config(FaultyStore::new(inner), TreeConfig::test_config());
    let map = db.new_map(sample_pairs(500)).unwrap();
    let commit = db.put("ds", map, &PutOptions::default()).unwrap();
    assert!(db.verify_version(&commit.uid).is_ok());
    // Read every key first, so any page a reader keeps decoded is warm:
    // verification must still re-read the store, not trust earlier reads.
    let value = db.get("ds", DEFAULT_BRANCH).unwrap().value;
    for (k, v) in sample_pairs(500) {
        assert_eq!(db.map_get(&value, &k).unwrap(), Some(v));
    }

    // Corrupt every chunk in turn; detection must be 100%.
    let mut victims = Vec::new();
    db.store().inner().for_each_chunk(|h, _| victims.push(*h));
    let mut detected = 0;
    for v in &victims {
        db.store().inject(*v, FaultMode::FlipBit { byte: 0 });
        if db.verify_version(&commit.uid).is_err() {
            detected += 1;
        }
        db.store().heal_all();
    }
    assert_eq!(
        detected,
        victims.len(),
        "every corrupted chunk must be detected"
    );
}

#[test]
fn page_first_read_while_tampered_errors_and_is_not_kept() {
    // A reader that meets a tampered page must fail, and must not keep
    // what it read: once the store heals the same read succeeds, and a
    // re-flip is still caught by verification.
    let pairs = sample_pairs(150);
    let open = || {
        let db =
            ForkBase::with_config(FaultyStore::new(MemStore::new()), TreeConfig::test_config());
        let map = db.new_map(pairs.clone()).unwrap();
        let uid = db.put("ds", map, &PutOptions::default()).unwrap().uid;
        (db, uid)
    };
    let (db, uid) = open();
    let mut victims = Vec::new();
    db.store().inner().for_each_chunk(|h, _| victims.push(*h));
    victims.retain(|h| *h != uid);
    assert!(victims.len() > 3, "test needs a multi-page tree");
    for victim in victims {
        let (db, uid) = open();
        let value = db.get("ds", DEFAULT_BRANCH).unwrap().value;
        db.store().inject(victim, FaultMode::FlipBit { byte: 0 });
        let failed = pairs
            .iter()
            .filter(|(k, _)| db.map_get(&value, k).is_err())
            .count();
        assert!(failed > 0, "a tampered page must fail the reads through it");
        db.store().heal_all();
        for (k, v) in &pairs {
            assert_eq!(db.map_get(&value, k).unwrap().as_ref(), Some(v));
        }
        db.store().inject(victim, FaultMode::FlipBit { byte: 0 });
        assert!(db.verify_version(&uid).is_err());
    }
}

fn snapshot_swept_by_gc_reads_as_missing<S: forkbase_store::SweepStore>(store: S) {
    let db = ForkBase::with_config(store, TreeConfig::test_config());
    let master = db.new_map(sample_pairs(200)).unwrap();
    db.put("ds", master, &PutOptions::default()).unwrap();
    db.branch("ds", DEFAULT_BRANCH, "scratch").unwrap();
    let scratch: Vec<(Bytes, Bytes)> = (0..200)
        .map(|i| (Bytes::from(format!("x{i:05}")), Bytes::from(vec![7u8; 64])))
        .collect();
    let scratch = db.new_map(scratch).unwrap();
    db.put("ds", scratch, &PutOptions::on_branch("scratch"))
        .unwrap();
    let snap = db.snapshot("ds", &VersionSpec::branch("scratch")).unwrap();
    let root = match snap.value() {
        Value::Map(t) => t.root,
        other => panic!("expected a map, got {other:?}"),
    };
    assert!(snap.map_get(b"x00007").unwrap().is_some());

    db.delete_branch("ds", "scratch").unwrap();
    db.gc().unwrap();
    assert!(
        !db.store().contains(&root).unwrap(),
        "gc must sweep the root"
    );
    match snap.map_get(b"x00007") {
        Err(DbError::Node(forkbase_postree::NodeError::Missing(h))) => assert_eq!(h, root),
        other => panic!("a swept page must read as missing, got {other:?}"),
    }
    // The live branch is untouched.
    let head = db.get("ds", DEFAULT_BRANCH).unwrap().value;
    assert!(db.map_get(&head, b"row-000007").unwrap().is_some());
}

#[test]
fn snapshot_held_across_gc_reads_swept_pages_as_missing() {
    snapshot_swept_by_gc_reads_as_missing(MemStore::new());
    let dir = std::env::temp_dir().join(format!(
        "forkbase-db-tests-swept-snapshot-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    snapshot_swept_by_gc_reads_as_missing(forkbase_store::FileStore::open(&dir).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_history_is_detected() {
    let inner = MemStore::new();
    let db = ForkBase::with_config(FaultyStore::new(inner), TreeConfig::test_config());
    db.put("doc", Value::string("v1"), &PutOptions::default())
        .unwrap();
    let c2 = db
        .put("doc", Value::string("v2"), &PutOptions::default())
        .unwrap();

    // Tamper with the *parent* FNode: walking history from the head must
    // fail loudly, proving the hash chain covers ancestry.
    let parent = db.meta(&c2.uid).unwrap().bases[0];
    db.store().inject(parent, FaultMode::FlipBit { byte: 5 });
    assert!(db.history("doc", &VersionSpec::branch("master")).is_err());
    assert!(db.verify_branch("doc", "master").is_err());
}

#[test]
fn dropped_chunk_is_detected_not_silently_ignored() {
    let inner = MemStore::new();
    let db = ForkBase::with_config(FaultyStore::new(inner), TreeConfig::test_config());
    let map = db.new_map(sample_pairs(500)).unwrap();
    let commit = db.put("ds", map, &PutOptions::default()).unwrap();

    let mut victims = Vec::new();
    db.store().inner().for_each_chunk(|h, _| victims.push(*h));
    // Drop an arbitrary non-FNode chunk (pick one that isn't the commit).
    let victim = victims.into_iter().find(|h| *h != commit.uid).unwrap();
    db.store().inject(victim, FaultMode::Drop);
    assert!(db.verify_version(&commit.uid).is_err());
}

#[test]
fn identical_values_share_uid_only_with_identical_history() {
    // §II-D: "Two FNodes are considered equivalent, i.e., having the same
    // uid, when they have both the same value and derivation history."
    let db1 = db();
    let db2 = db();
    let c1 = db1
        .put("k", Value::string("same"), &PutOptions::default())
        .unwrap();
    let c2 = db2
        .put("k", Value::string("same"), &PutOptions::default())
        .unwrap();
    assert_eq!(
        c1.uid, c2.uid,
        "same value, same (empty) history, same clock"
    );

    // Adding history changes the uid even if the value returns to "same".
    db1.put("k", Value::string("other"), &PutOptions::default())
        .unwrap();
    let c3 = db1
        .put("k", Value::string("same"), &PutOptions::default())
        .unwrap();
    assert_ne!(c3.uid, c1.uid);
}

#[test]
fn concurrent_puts_on_distinct_keys() {
    let db = std::sync::Arc::new(db());
    let mut handles = Vec::new();
    for t in 0..8 {
        let db = std::sync::Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                db.put(
                    &format!("key-{t}-{i}"),
                    Value::Int(i),
                    &PutOptions::default(),
                )
                .unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.list_keys().len(), 400);
}

#[test]
fn invalid_names_rejected() {
    let db = db();
    assert!(matches!(
        db.put("", Value::Int(1), &PutOptions::default()),
        Err(DbError::InvalidInput(_))
    ));
    assert!(matches!(
        db.put("k", Value::Int(1), &PutOptions::on_branch("")),
        Err(DbError::InvalidInput(_))
    ));
}

#[test]
fn light_client_entry_proofs() {
    let db = db();
    let map = db.new_map(sample_pairs(2000)).unwrap();
    let commit = db.put("state", map, &PutOptions::default()).unwrap();

    // Server side: produce a proof for one entry.
    let (proof, uid) = db
        .prove_entry("state", &VersionSpec::branch("master"), b"row-000777")
        .unwrap();
    assert_eq!(uid, commit.uid);

    // Client side: verify against the remembered uid only.
    let value = db.verify_entry_proof(&uid, b"row-000777", &proof).unwrap();
    assert_eq!(value, Some(Bytes::from("data for row 777")));

    // Absence proof.
    let (proof, _) = db
        .prove_entry("state", &VersionSpec::branch("master"), b"row-999999")
        .unwrap();
    assert_eq!(
        db.verify_entry_proof(&commit.uid, b"row-999999", &proof)
            .unwrap(),
        None
    );

    // A proof for a DIFFERENT version does not verify against this uid.
    let updated = db
        .put_map_edits(
            "state",
            vec![MapEdit::put(
                Bytes::from_static(b"row-000777"),
                Bytes::from_static(b"forged"),
            )],
            &PutOptions::default(),
        )
        .unwrap();
    let (forged_proof, _) = db
        .prove_entry("state", &VersionSpec::Version(updated.uid), b"row-000777")
        .unwrap();
    assert!(db
        .verify_entry_proof(&commit.uid, b"row-000777", &forged_proof)
        .is_err());
}

#[test]
fn bundle_ships_a_branch_between_databases() {
    let src = db();
    let map = src.new_map(sample_pairs(500)).unwrap();
    src.put("ds", map, &PutOptions::default().message("v1"))
        .unwrap();
    src.put_map_edits(
        "ds",
        vec![MapEdit::put(
            Bytes::from_static(b"row-000004"),
            Bytes::from_static(b"x"),
        )],
        &PutOptions::default().message("v2"),
    )
    .unwrap();

    let mut bundle = Vec::new();
    forkbase::export_bundle(&src, "ds", &[], &mut bundle).unwrap();

    let dst = db();
    let refs = forkbase::import_bundle(&dst, &mut bundle.as_slice()).unwrap();
    assert_eq!(refs.len(), 1);
    assert_eq!(dst.verify_branch("ds", "master").unwrap(), 2);
    assert_eq!(
        dst.head("ds", "master").unwrap(),
        src.head("ds", "master").unwrap()
    );
}

#[test]
fn load_refs_refuses_contradicting_lines_and_installs_nothing() {
    let src = db();
    let j = src.put("j", Value::Int(0), &PutOptions::default()).unwrap();
    let v1 = src.put("k", Value::Int(1), &PutOptions::default()).unwrap();
    let v2 = src.put("k", Value::Int(2), &PutOptions::default()).unwrap();
    let text = format!(
        "j\tmaster\t{}\nk\tmaster\t{}\nk\tmaster\t{}\n",
        j.uid.to_hex(),
        v1.uid.to_hex(),
        v2.uid.to_hex()
    );
    // The refs file is one commit: the contradicting second line for
    // k@master refuses the whole file, including the earlier j line.
    let fresh = ForkBase::with_config(src.store(), TreeConfig::test_config());
    let err = fresh.load_refs(&text).unwrap_err();
    assert!(matches!(err, DbError::BranchExists { .. }), "{err:?}");
    assert!(fresh.list_keys().is_empty());
}

#[test]
fn load_refs_twice_is_ok() {
    let src = db();
    src.put("k", Value::Int(1), &PutOptions::default()).unwrap();
    src.branch("k", "master", "dev").unwrap();
    src.put("k", Value::Int(2), &PutOptions::on_branch("dev"))
        .unwrap();
    let text = src.dump_refs();
    // A retried load (the `LoadRefs` servelet verb) finds its own heads.
    let fresh = ForkBase::with_config(src.store(), TreeConfig::test_config());
    fresh.load_refs(&text).unwrap();
    fresh.load_refs(&text).unwrap();
    assert_eq!(fresh.dump_refs(), text);
}
