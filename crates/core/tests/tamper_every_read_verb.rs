//! Tamper evidence on a durable store, verb by verb.
//!
//! Each case damages one pack-file frame in place, under a live
//! `FileStore`, in one of two ways:
//!
//! * **Rewrite** — a payload byte changes and the frame CRC is recomputed,
//!   so the frame is well formed and only the SHA-256 address can tell;
//! * **Bit rot** — a payload byte flips and the CRC is left stale.
//!
//! The same cases run on a `FaultyStore` over a `MemStore`, which flips a
//! bit of what it serves (**Injected**): no store below the reader checks
//! anything there.
//!
//! Every read verb that reaches the damaged chunk must return an error,
//! never a value and never a panic. A map page that failed to read must
//! not be kept by the database's page cache: a repeat read fails again,
//! and once the frame is restored the same reader returns the right data.

use std::fs::{self, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use forkbase::{DbError, ForkBase, PutOptions, VersionSpec, DEFAULT_BRANCH};
use forkbase_crypto::Hash;
use forkbase_postree::{MapEdit, Node, TreeConfig};
use forkbase_store::crc::crc32;
use forkbase_store::{ChunkStore, FaultMode, FaultyStore, FileStore, MemStore};
use forkbase_types::Value;

const HEADER_LEN: usize = 4 + 4 + 32; // magic, len, hash
const CRC_LEN: usize = 4;

#[derive(Clone, Copy, Debug)]
enum Damage {
    Rewrite,
    BitRot,
    Injected,
}

/// A store whose chunks a test can damage, and later repair.
trait Damageable: ChunkStore {
    /// Damage `victim` and return what undoes it.
    fn damage(&self, victim: &Hash, how: Damage) -> Box<dyn FnOnce() + '_>;
}

impl Damageable for FileStore {
    fn damage(&self, victim: &Hash, how: Damage) -> Box<dyn FnOnce() + '_> {
        let (frame, original) = damage_frame(self.dir(), victim, how);
        Box::new(move || restore(&frame, &original))
    }
}

impl Damageable for FaultyStore<MemStore> {
    fn damage(&self, victim: &Hash, how: Damage) -> Box<dyn FnOnce() + '_> {
        assert!(matches!(how, Damage::Injected));
        self.inject(*victim, FaultMode::FlipBit { byte: 0 });
        Box::new(move || self.heal_all())
    }
}

/// One frame of a pack file: where it starts and how long its payload is.
struct Frame {
    path: PathBuf,
    offset: u64,
    len: usize,
}

/// Find the frame holding `hash` by walking every pack file's frames.
fn frame_of(dir: &Path, hash: &Hash) -> Frame {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("fbk") {
            continue;
        }
        let bytes = fs::read(&path).unwrap();
        let mut pos = 0usize;
        while pos + HEADER_LEN + CRC_LEN <= bytes.len() {
            assert_eq!(&bytes[pos..pos + 4], b"FKB1", "frame magic");
            let len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
            if &bytes[pos + 8..pos + HEADER_LEN] == hash.as_bytes() {
                return Frame {
                    path,
                    offset: pos as u64,
                    len,
                };
            }
            pos += HEADER_LEN + len + CRC_LEN;
        }
    }
    panic!("no frame holds {hash:?}");
}

/// Damage the frame of `hash` in place and return its original bytes.
fn damage_frame(dir: &Path, hash: &Hash, how: Damage) -> (Frame, Vec<u8>) {
    let frame = frame_of(dir, hash);
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&frame.path)
        .unwrap();
    let mut bytes = vec![0u8; HEADER_LEN + frame.len + CRC_LEN];
    file.read_exact_at(&mut bytes, frame.offset).unwrap();
    let original = bytes.clone();
    bytes[HEADER_LEN + frame.len / 2] ^= 0x01;
    if let Damage::Rewrite = how {
        let crc = crc32(&bytes[8..HEADER_LEN + frame.len]);
        bytes[HEADER_LEN + frame.len..].copy_from_slice(&crc.to_le_bytes());
    }
    file.write_all_at(&bytes, frame.offset).unwrap();
    (frame, original)
}

fn restore(frame: &Frame, original: &[u8]) {
    let file = OpenOptions::new().write(true).open(&frame.path).unwrap();
    file.write_all_at(original, frame.offset).unwrap();
}

/// The error must be one of the integrity failures, not anything else.
fn assert_integrity_error(verb: &str, how: Damage, err: &DbError) {
    use forkbase_postree::NodeError;
    use forkbase_store::StoreError;
    let ok = matches!(
        err,
        DbError::TamperDetected(_)
            | DbError::Store(StoreError::BadFrame { .. })
            | DbError::Node(NodeError::HashMismatch { .. })
            | DbError::Node(NodeError::Store(StoreError::BadFrame { .. }))
    );
    assert!(ok, "{verb} under {how:?}: not an integrity error: {err:?}");
}

fn expect_err<T: std::fmt::Debug>(verb: &str, how: Damage, r: Result<T, DbError>) {
    match r {
        Ok(v) => panic!("{verb} under {how:?} returned a value: {v:?}"),
        Err(e) => assert_integrity_error(verb, how, &e),
    }
}

fn pairs(n: u32) -> Vec<(Bytes, Bytes)> {
    (0..n)
        .map(|i| {
            (
                Bytes::from(format!("row-{i:05}")),
                Bytes::from(format!("value of row {i}")),
            )
        })
        .collect()
}

fn blob_content() -> Vec<u8> {
    let mut x = 0x9E37_79B9u32;
    (0..48 * 1024)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as u8
        })
        .collect()
}

/// Hashes of the nodes `levels` below `root` (0 = the root itself).
fn descend(store: &impl ChunkStore, root: Hash, levels: u8) -> Vec<Hash> {
    let mut frontier = vec![root];
    for _ in 0..levels {
        let mut next = Vec::new();
        for h in frontier {
            match Node::load(store, &h).unwrap() {
                Node::Index { children, .. } => next.extend(children.iter().map(|c| c.hash)),
                Node::Leaf(_) => panic!("descended past the leaves"),
            }
        }
        frontier = next;
    }
    frontier
}

fn tree_root(v: &Value) -> Hash {
    match v {
        Value::Map(t) => t.root,
        other => panic!("expected a map, got {other:?}"),
    }
}

/// Leaf pages of a map tree.
fn leaves(store: &impl ChunkStore, v: &Value) -> Vec<Hash> {
    let root = tree_root(v);
    let level = Node::load(store, &root).unwrap().level();
    descend(store, root, level)
}

/// A store holding a string key, a map key with two versions and a
/// multi-chunk blob key, all flushed.
struct Fixture<S> {
    store: S,
    /// Removed when the fixture drops.
    dir: Option<PathBuf>,
    refs: String,
    doc: Hash,
    ds_v1: Hash,
    ds_v2: Hash,
    /// A leaf of the head map version.
    head_leaf: Hash,
    /// A leaf only the head map version holds.
    changed_leaf: Hash,
    /// A leaf only the first map version holds.
    history_leaf: Hash,
    /// A raw data chunk in the middle of the blob.
    blob_chunk: Hash,
}

impl<S: Damageable> Fixture<S> {
    fn new(store: S, dir: Option<PathBuf>) -> Fixture<S> {
        let (refs, doc, ds_v1, ds_v2, blob) = {
            let db = ForkBase::with_config(&store, TreeConfig::test_config());
            let opts = PutOptions::default();
            let doc = db.put("doc", Value::string("hello"), &opts).unwrap().uid;
            let map = db.new_map(pairs(400)).unwrap();
            let ds_v1 = db.put("ds", map, &opts).unwrap().uid;
            let edits = vec![MapEdit::put(
                Bytes::from_static(b"row-00200"),
                Bytes::from_static(b"edited"),
            )];
            let ds_v2 = db.put_map_edits("ds", edits, &opts).unwrap().uid;
            let blob = db.new_blob(&blob_content()).unwrap();
            db.put("blob", blob.clone(), &opts).unwrap();
            (db.dump_refs(), doc, ds_v1, ds_v2, blob)
        };
        store.sync().unwrap();

        let value_of = |uid: &Hash| {
            let db = ForkBase::with_config(&store, TreeConfig::test_config());
            db.get_version(uid).unwrap().value
        };
        let (v1, v2) = (value_of(&ds_v1), value_of(&ds_v2));
        let (old, new) = (leaves(&store, &v1), leaves(&store, &v2));
        assert!(new.len() > 3, "test needs a multi-leaf map");
        let changed_leaf = *new.iter().find(|h| !old.contains(h)).unwrap();
        let history_leaf = *old.iter().find(|h| !new.contains(h)).unwrap();
        let head_leaf = new[new.len() / 2];
        let Value::Blob(b) = blob else {
            panic!("expected a blob");
        };
        let chunks = descend(&store, b.root, b.depth);
        assert!(chunks.len() > 3, "test needs a multi-chunk blob");
        Fixture {
            store,
            dir,
            refs,
            doc,
            ds_v1,
            ds_v2,
            head_leaf,
            changed_leaf,
            history_leaf,
            blob_chunk: chunks[chunks.len() / 2],
        }
    }

    /// A fresh database over the store: it has read nothing yet, so its
    /// page cache is empty and every read reaches the store.
    fn reader(&self) -> ForkBase<&S> {
        let db = ForkBase::with_config(&self.store, TreeConfig::test_config());
        db.load_refs(&self.refs).unwrap();
        db
    }

    /// Damage `victim`, run `check` on a fresh reader, repair the chunk,
    /// then run `after` on the same reader.
    fn case(
        &self,
        victim: Hash,
        how: Damage,
        check: impl Fn(&ForkBase<&S>),
        after: impl Fn(&ForkBase<&S>),
    ) {
        let db = self.reader();
        let repair = self.store.damage(&victim, how);
        check(&db);
        repair();
        after(&db);
    }
}

impl<S> Drop for Fixture<S> {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// A fixture over a fresh `FileStore` in a temp directory.
fn file_fixture(tag: &str) -> Fixture<FileStore> {
    let dir = std::env::temp_dir().join(format!(
        "forkbase-filestore-tamper-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    Fixture::new(FileStore::open(&dir).unwrap(), Some(dir))
}

fn run_every_verb<S: Damageable>(f: &Fixture<S>, how: Damage) {
    let nothing = |_: &ForkBase<&S>| {};

    // get / get_version read the head FNode.
    f.case(
        f.doc,
        how,
        |db| {
            expect_err("get", how, db.get("doc", DEFAULT_BRANCH));
            expect_err("get_version", how, db.get_version(&f.doc));
        },
        |db| assert_eq!(db.get("doc", DEFAULT_BRANCH).unwrap().uid, f.doc),
    );

    // map_get through a damaged leaf: it fails every time, so the page
    // was not kept, and succeeds once the frame is whole again.
    let wanted: Vec<(Bytes, Bytes)> = {
        let db = f.reader();
        let v = db.get_version(&f.ds_v2).unwrap().value;
        db.map_entries(&v).unwrap()
    };
    f.case(
        f.head_leaf,
        how,
        |db| {
            let v = db.get_version(&f.ds_v2).unwrap().value;
            for _ in 0..2 {
                let failed = wanted
                    .iter()
                    .filter_map(|(k, _)| db.map_get(&v, k).err())
                    .inspect(|e| assert_integrity_error("map_get", how, e))
                    .count();
                assert!(failed > 0, "map_get under {how:?} never met the page");
            }
        },
        |db| {
            let v = db.get_version(&f.ds_v2).unwrap().value;
            for (k, val) in &wanted {
                assert_eq!(db.map_get(&v, k).unwrap().as_ref(), Some(val));
            }
        },
    );

    // map_range streams across the damaged leaf.
    f.case(
        f.head_leaf,
        how,
        |db| {
            let snap = db.snapshot_version(&f.ds_v2).unwrap();
            for _ in 0..2 {
                let scan: Result<Vec<_>, _> = snap.map_range::<&[u8], _>(..).unwrap().collect();
                expect_err("map_range", how, scan);
            }
        },
        |db| {
            let snap = db.snapshot_version(&f.ds_v2).unwrap();
            let scan: Result<Vec<_>, _> = snap.map_range::<&[u8], _>(..).unwrap().collect();
            assert_eq!(scan.unwrap(), wanted);
        },
    );

    // blob_reader streams a damaged raw data chunk.
    f.case(
        f.blob_chunk,
        how,
        |db| {
            let snap = db.snapshot("blob", &VersionSpec::default()).unwrap();
            let mut out = Vec::new();
            let err = snap
                .blob_reader()
                .unwrap()
                .read_to_end(&mut out)
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{how:?}");
            expect_err("blob_read", how, snap.blob_read());
        },
        |db| {
            let snap = db.snapshot("blob", &VersionSpec::default()).unwrap();
            assert_eq!(snap.blob_read().unwrap(), blob_content());
        },
    );

    // diff descends into the one leaf that changed.
    let v1 = VersionSpec::Version(f.ds_v1);
    let v2 = VersionSpec::Version(f.ds_v2);
    f.case(
        f.changed_leaf,
        how,
        |db| {
            for _ in 0..2 {
                expect_err("diff", how, db.diff("ds", &v1, &v2));
            }
        },
        |db| assert!(!db.diff("ds", &v1, &v2).unwrap().is_identical()),
    );

    // verify_branch walks history down to a leaf only the old version has.
    f.case(
        f.history_leaf,
        how,
        |db| expect_err("verify_branch", how, db.verify_branch("ds", DEFAULT_BRANCH)),
        |db| assert_eq!(db.verify_branch("ds", DEFAULT_BRANCH).unwrap(), 2),
    );

    // A bundle exported over a damaged page or blob chunk never imports.
    for (key, victim) in [("ds", f.history_leaf), ("blob", f.blob_chunk)] {
        f.case(
            victim,
            how,
            |db| {
                let mut bundle = Vec::new();
                let shipped = forkbase::export_bundle(db, key, &[], &mut bundle).and_then(|_| {
                    let dst = ForkBase::with_config(MemStore::new(), TreeConfig::test_config());
                    forkbase::import_bundle(&dst, &mut bundle.as_slice())
                });
                expect_err("export_bundle→import_bundle", how, shipped);
            },
            nothing,
        );
    }
}

#[test]
fn rewritten_frame_with_matching_crc_fails_every_read_verb() {
    run_every_verb(&file_fixture("rewrite"), Damage::Rewrite);
}

#[test]
fn bit_rot_with_stale_crc_fails_every_read_verb() {
    run_every_verb(&file_fixture("bitrot"), Damage::BitRot);
}

#[test]
fn injected_flip_on_a_memstore_fails_every_read_verb() {
    let f = Fixture::new(FaultyStore::new(MemStore::new()), None);
    run_every_verb(&f, Damage::Injected);
}
