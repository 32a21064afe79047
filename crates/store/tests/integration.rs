//! Cross-implementation store tests: concurrency on the durable store
//! and store-equivalence properties.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use forkbase_store::{ChunkStore, FileStore, MemStore};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "forkbase-store-it-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn payload(tag: u64, i: u64) -> Bytes {
    Bytes::from(format!("payload-{tag}-{i}-{}", (tag * 31 + i) % 9973))
}

#[test]
fn concurrent_writers_on_filestore() {
    let dir = temp_dir("concurrent");
    let store = Arc::new(FileStore::open(&dir).unwrap());
    let mut handles = Vec::new();
    for t in 0..8u64 {
        let store = Arc::clone(&store);
        handles.push(std::thread::spawn(move || {
            let mut hashes = Vec::new();
            for i in 0..100u64 {
                // Half the chunks are shared across threads (dedup races),
                // half are thread-private.
                let data = if i % 2 == 0 {
                    payload(0, i)
                } else {
                    payload(t + 1, i)
                };
                hashes.push((store.put(data.clone()).unwrap(), data));
            }
            hashes
        }));
    }
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    // Every write is readable with the right content.
    for (hash, data) in &all {
        assert_eq!(store.get(hash).unwrap().as_ref(), Some(data));
    }
    // Shared chunks deduped: 50 shared + 8×50 private = 450 unique.
    assert_eq!(store.chunk_count(), 450);

    // And everything survives a reopen.
    store.sync().unwrap();
    drop(all);
    drop(store);
    let reopened = FileStore::open(&dir).unwrap();
    assert_eq!(reopened.chunk_count(), 450);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mem_and_file_stores_agree_bit_for_bit() {
    // The same logical workload must produce identical hash sets on both
    // implementations (the store is interchangeable under the engine).
    let dir = temp_dir("agree");
    let mem = MemStore::new();
    let file = FileStore::open(&dir).unwrap();
    let mut mem_hashes = Vec::new();
    let mut file_hashes = Vec::new();
    for i in 0..200u64 {
        let data = payload(5, i % 77); // duplicates included
        mem_hashes.push(mem.put(data.clone()).unwrap());
        file_hashes.push(file.put(data).unwrap());
    }
    assert_eq!(mem_hashes, file_hashes);
    assert_eq!(mem.chunk_count(), file.chunk_count());
    for h in &mem_hashes {
        assert_eq!(mem.get(h).unwrap(), file.get(h).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn filestore_full_database_workload() {
    // Run an actual POS-Tree workload through the durable store to cover
    // mixed chunk sizes and read-back during construction.
    use forkbase_chunk::ChunkerConfig;
    use forkbase_postree::{MapEdit, PosMap};

    let dir = temp_dir("dbload");
    let store = FileStore::open(&dir).unwrap();
    let m = PosMap::build_from_sorted(
        &store,
        ChunkerConfig::test_small(),
        (0..3000).map(|i| {
            (
                Bytes::from(format!("key-{i:06}")),
                Bytes::from(format!("value-{i}")),
            )
        }),
    )
    .unwrap();
    let m2 = m
        .apply((0..50).map(|i| {
            MapEdit::put(
                Bytes::from(format!("key-{:06}", i * 60)),
                Bytes::from_static(b"updated"),
            )
        }))
        .unwrap();
    assert_eq!(
        m2.get(b"key-000060").unwrap(),
        Some(Bytes::from_static(b"updated"))
    );
    store.sync().unwrap();

    // Reopen and keep reading the same trees.
    let tree = m2.tree();
    let _ = (m, m2); // release borrows of `store`
    drop(store);
    let store = FileStore::open(&dir).unwrap();
    let reopened = PosMap::open(&store, ChunkerConfig::test_small(), tree);
    assert_eq!(reopened.len(), 3000);
    assert_eq!(
        reopened.get(b"key-000060").unwrap(),
        Some(Bytes::from_static(b"updated"))
    );
    forkbase_postree::verify::verify_map(&store, tree, ChunkerConfig::test_small(), true).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
