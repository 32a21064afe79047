//! One SHA-256 per chunk read, by count.
//!
//! Tamper evidence is the addressed reader's job: `fetch_verified` and
//! `FNode::load` hash what the store returns and compare it with the uid
//! they asked for. A `FileStore` checks only its frames (stored hash and
//! CRC-32), so a cold read costs exactly one digest per store `get` — no
//! second hash in the store, and none skipped. Each case runs one read verb
//! on a fresh `ForkBase` (empty page cache) over a durable store and
//! compares the two deltas.

use std::fs;
use std::path::PathBuf;

use bytes::Bytes;
use forkbase::{ForkBase, PutOptions, DEFAULT_BRANCH};
use forkbase_crypto::digests_on_this_thread;
use forkbase_postree::TreeConfig;
use forkbase_store::{ChunkStore, FileStore};
use forkbase_types::Value;

struct Fixture {
    dir: PathBuf,
    store: FileStore,
    refs: String,
}

impl Fixture {
    /// A durable store holding a string key, a multi-level map key and a
    /// multi-chunk blob key.
    fn new() -> Fixture {
        let dir = std::env::temp_dir().join(format!(
            "forkbase-one-digest-per-read-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = FileStore::open(&dir).unwrap();
        let refs = {
            let db = ForkBase::with_config(&store, TreeConfig::test_config());
            let opts = PutOptions::default();
            db.put("doc", Value::string("hello"), &opts).unwrap();
            let rows = (0..2000u32).map(|i| {
                (
                    Bytes::from(format!("row-{i:05}")),
                    Bytes::from(format!("value of row {i}")),
                )
            });
            let map = db.new_map(rows.collect()).unwrap();
            db.put("ds", map, &opts).unwrap();
            let mut x = 0x2545_F491u32;
            let content: Vec<u8> = (0..64 * 1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    x as u8
                })
                .collect();
            let blob = db.new_blob(&content).unwrap();
            db.put("blob", blob, &opts).unwrap();
            db.dump_refs()
        };
        store.sync().unwrap();
        Fixture { dir, store, refs }
    }

    /// A database that has read nothing yet: every page read reaches the store.
    fn reader(&self) -> ForkBase<&FileStore> {
        let db = ForkBase::with_config(&self.store, TreeConfig::test_config());
        db.load_refs(&self.refs).unwrap();
        db
    }

    /// Run `read` and return (store gets, digests) it cost on this thread.
    fn count<T>(&self, read: impl FnOnce() -> T) -> (u64, u64) {
        let (gets, digests) = (self.store.stats().gets, digests_on_this_thread());
        read();
        (
            self.store.stats().gets - gets,
            digests_on_this_thread() - digests,
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn a_cold_read_hashes_each_chunk_it_gets_once() {
    let f = Fixture::new();

    let db = f.reader();
    let (gets, digests) = f.count(|| db.get("doc", DEFAULT_BRANCH).unwrap());
    assert_eq!(gets, 1, "get reads the head FNode");
    assert_eq!(digests, gets, "get");

    let db = f.reader();
    let map = db.get("ds", DEFAULT_BRANCH).unwrap().value;
    let (gets, digests) = f.count(|| {
        let got = db.map_get(&map, b"row-01234").unwrap();
        assert_eq!(got.as_deref(), Some(&b"value of row 1234"[..]));
    });
    assert!(gets >= 2, "map_get should descend an index level: {gets}");
    assert_eq!(digests, gets, "map_get");

    let db = f.reader();
    let blob = db.get("blob", DEFAULT_BRANCH).unwrap().value;
    let (gets, digests) = f.count(|| {
        assert_eq!(db.blob_read(&blob).unwrap().len(), 64 * 1024);
    });
    assert!(gets > 4, "blob_read should read several chunks: {gets}");
    assert_eq!(digests, gets, "blob_read");
}
