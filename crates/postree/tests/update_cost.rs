//! Update-cost regressions: one edit near the front of a large tree must
//! cost the leaves around it plus the index levels above, not a pass over
//! every leaf. Content addressing would hide a full re-chunk from a count
//! of *new* chunks (every re-emitted leaf is a dedup hit), so these tests
//! count every chunk presented to the store and every leaf read from it.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use forkbase_chunk::ChunkerConfig;
use forkbase_crypto::Hash;
use forkbase_postree::{Node, PosList, PosMap};
use forkbase_store::{ChunkStore, MemStore, StoreResult, StoreStats};

/// A `MemStore` that counts the leaf nodes read through it.
#[derive(Default)]
struct LeafReads {
    inner: MemStore,
    leaves: AtomicU64,
}

impl ChunkStore for LeafReads {
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        self.inner.put_batch(chunks)
    }

    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        let got = self.inner.get(hash)?;
        if let Some(Ok(node)) = got.as_ref().map(Node::decode) {
            if node.level() == 0 {
                self.leaves.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(got)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

impl LeafReads {
    /// `(chunks presented, leaves read)` so far, dedup hits included.
    fn counts(&self) -> (u64, u64) {
        (self.stats().puts, self.leaves.load(Ordering::Relaxed))
    }

    /// Height of the tree rooted at `root` (0 = a single leaf).
    fn height(&self, root: &Hash) -> u64 {
        u64::from(Node::load(&self.inner, root).unwrap().level())
    }
}

const N: u32 = 20_000;

fn cfg() -> ChunkerConfig {
    ChunkerConfig::node_default()
}

/// Assert one update cost at most the path copy: ≤ 2 chunks per level
/// (the touched node and one boundary shift) and ≤ 3 leaves read.
fn assert_path_copy(store: &LeafReads, height: u64, before: (u64, u64), what: &str) {
    let (puts, leaves) = store.counts();
    let (presented, read) = (puts - before.0, leaves - before.1);
    assert!(
        presented <= 2 * (height + 1),
        "{what}: presented {presented} chunks to the store for a height-{height} tree"
    );
    assert!(read <= 3, "{what}: read {read} leaves");
}

#[test]
fn map_edit_near_the_front_copies_only_its_path() {
    let store = LeafReads::default();
    let key = |i: u32| Bytes::from(format!("key-{i:08}"));
    let map = PosMap::build_from_sorted(
        &store,
        cfg(),
        (0..N).map(|i| (key(i), Bytes::from(format!("value-{i}")))),
    )
    .unwrap();
    let height = store.height(&map.root());
    assert!(height >= 1, "the map spans several leaves");

    let before = store.counts();
    let edited = map.insert(key(3), Bytes::from_static(b"edited")).unwrap();
    assert_path_copy(&store, height, before, "PosMap::apply");
    assert_eq!(edited.len(), u64::from(N));
}

#[test]
fn list_splice_near_the_front_copies_only_its_path() {
    let store = LeafReads::default();
    let list = PosList::build(
        &store,
        cfg(),
        (0..N).map(|i| Bytes::from(format!("element-{i:06}"))),
    )
    .unwrap();
    let height = store.height(&list.root());
    assert!(height >= 1, "the list spans several leaves");

    let before = store.counts();
    let spliced = list.splice(10, 1, [Bytes::from_static(b"mid")]).unwrap();
    assert_path_copy(&store, height, before, "PosList::splice");
    assert_eq!(spliced.len(), u64::from(N));
}
