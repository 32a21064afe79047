//! A byte-bounded cache of verified, decoded POS-Tree nodes.
//!
//! A node is immutable and named by the SHA-256 of its encoding, so once
//! its bytes have hashed back to their address the decoded node stays
//! correct for as long as anyone holds it: content addressing needs no
//! invalidation. The one exception is garbage collection, which deletes
//! pages; its owner drops the swept ones with [`NodeCache::retain`].
//!
//! A node enters through one door, `load_node`: a miss fetches the chunk,
//! checks its SHA-256 against the address ([`Node::load`]'s check) and
//! decodes it. [`crate::TreeBuilder`] inserts nothing: a page it has just
//! written is first read, like any other page, through this miss path, so
//! a build never pays to decode pages nobody reads and every cached node
//! is one whose stored bytes were checked.
//!
//! Readers share entries as `Arc<Node>`. The cache bounds the sum of the
//! entries' chunk bytes plus their decoded struct sizes. Each of
//! `SHARDS` shards has its own lock and its own slice of the budget, and
//! evicts by CLOCK (second chance): a hit sets an entry's reference bit,
//! and the hand passes over a referenced entry once, clearing the bit,
//! before it evicts it.
//!
//! What this cache does **not** do is re-check pages it already holds.
//! Tampering with the store after a page was read is caught by the
//! `verify_*` walks ([`crate::verify`]), which always read the store and
//! re-hash every page.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use forkbase_crypto::Hash;
use forkbase_store::ChunkStore;
use parking_lot::Mutex;

use crate::node::{fetch_verified, IndexEntry, LeafEntry, Node, NodeResult};

/// Total budget of one cache, in chunk bytes plus decoded struct sizes.
const BUDGET_BYTES: usize = 32 * 1024 * 1024;

/// Independent lock domains; a power of two so a hash byte picks one.
const SHARDS: usize = 16;

/// Per-entry bookkeeping outside the node itself: the map slot (key,
/// value, control bytes) and the CLOCK ring's copy of the key.
const ENTRY_OVERHEAD: usize = std::mem::size_of::<(Hash, Slot)>() + 8 + std::mem::size_of::<Hash>();

struct Slot {
    node: Arc<Node>,
    cost: usize,
    referenced: bool,
}

#[derive(Default)]
struct Shard {
    map: HashMap<Hash, Slot>,
    /// Every key of `map` exactly once; the CLOCK hand is the front.
    ring: VecDeque<Hash>,
    bytes: usize,
}

impl Shard {
    fn evict_to(&mut self, budget: usize) {
        while self.bytes > budget {
            let Some(hash) = self.ring.pop_front() else {
                return;
            };
            let slot = self.map.get_mut(&hash).expect("ring keys are map keys");
            if slot.referenced {
                slot.referenced = false;
                self.ring.push_back(hash);
            } else {
                self.bytes -= slot.cost;
                self.map.remove(&hash);
            }
        }
    }
}

/// Verified, decoded POS-Tree nodes shared by one database's readers.
pub struct NodeCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    /// Bumped by every [`Self::retain`]. A reader notes it before it
    /// fetches a page and inserts only if it has not moved, so a page
    /// fetched before a sweep cannot be inserted after the sweep's
    /// [`Self::retain`] has run.
    epoch: AtomicU64,
}

impl Default for NodeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl NodeCache {
    /// An empty cache with the fixed budget.
    pub fn new() -> Self {
        Self::with_budget(BUDGET_BYTES)
    }

    fn with_budget(budget: usize) -> Self {
        NodeCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: budget / SHARDS,
            epoch: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: &Hash) -> &Mutex<Shard> {
        &self.shards[usize::from(hash.as_bytes()[0]) % SHARDS]
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    #[cfg(test)]
    fn charged_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, hash: &Hash) -> bool {
        self.shard(hash).lock().map.contains_key(hash)
    }

    pub(crate) fn get(&self, hash: &Hash) -> Option<Arc<Node>> {
        let mut shard = self.shard(hash).lock();
        let slot = shard.map.get_mut(hash)?;
        slot.referenced = true;
        Some(Arc::clone(&slot.node))
    }

    /// The value to pass to [`Self::insert`] for a page fetched or stored
    /// after this call.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Cache `node`, decoded from a `chunk_len`-byte chunk at `hash` that
    /// has been verified or was built here. Skipped when a
    /// [`Self::retain`] ran since `epoch` was read, or when the node alone
    /// exceeds a shard's budget.
    pub(crate) fn insert(&self, hash: Hash, node: Arc<Node>, chunk_len: usize, epoch: u64) {
        let cost = chunk_len + footprint(&node);
        if cost > self.shard_budget {
            return;
        }
        let mut shard = self.shard(&hash).lock();
        // Read under the shard lock: `retain` bumps the epoch before it
        // takes any shard lock, so either this sees the bump or `retain`
        // visits this shard after the insert.
        if self.epoch.load(Ordering::SeqCst) != epoch || shard.map.contains_key(&hash) {
            return;
        }
        shard.map.insert(
            hash,
            Slot {
                node,
                cost,
                referenced: false,
            },
        );
        shard.ring.push_back(hash);
        shard.bytes += cost;
        shard.evict_to(self.shard_budget);
    }

    /// Drop every cached node whose hash `keep` rejects. Garbage
    /// collection calls this after its sweep with the live set, so a swept
    /// page is never served from here.
    pub fn retain(&self, keep: impl Fn(&Hash) -> bool) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for shard in &self.shards {
            let mut shard = shard.lock();
            let Shard { map, ring, bytes } = &mut *shard;
            map.retain(|h, slot| {
                let kept = keep(h);
                if !kept {
                    *bytes -= slot.cost;
                }
                kept
            });
            ring.retain(|h| map.contains_key(h));
        }
    }
}

/// Decoded size of `node` beyond its chunk bytes, which its entries view.
fn footprint(node: &Node) -> usize {
    let entries = match node {
        Node::Leaf(e) => e.len() * std::mem::size_of::<LeafEntry>(),
        Node::Index { children, .. } => children.len() * std::mem::size_of::<IndexEntry>(),
    };
    ENTRY_OVERHEAD + std::mem::size_of::<Node>() + entries
}

/// The node at `hash`, from `cache` when it holds it. A miss, or no cache,
/// reads the store and checks the SHA-256 as [`Node::load`] does; with a
/// cache, the verified node is then kept.
pub(crate) fn load_node<S: ChunkStore>(
    store: &S,
    cache: Option<&NodeCache>,
    hash: &Hash,
) -> NodeResult<Arc<Node>> {
    let Some(cache) = cache else {
        return Ok(Arc::new(Node::load(store, hash)?));
    };
    if let Some(node) = cache.get(hash) {
        return Ok(node);
    }
    let epoch = cache.epoch();
    let chunk = fetch_verified(store, hash)?;
    let node = Arc::new(Node::decode(&chunk)?);
    cache.insert(*hash, Arc::clone(&node), chunk.len(), epoch);
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use forkbase_crypto::sha256;
    use forkbase_store::{FaultMode, FaultyStore, MemStore};

    /// A leaf of one entry whose encoding is `value_len + 15` bytes.
    fn leaf(i: u32, value_len: usize) -> (Hash, Node, usize) {
        let node = Node::Leaf(vec![LeafEntry::new(
            Bytes::from(i.to_be_bytes().to_vec()),
            Bytes::from(vec![7u8; value_len]),
        )]);
        let bytes = node.encode();
        (sha256(&bytes), node, bytes.len())
    }

    fn cost(node: &Node, chunk_len: usize) -> usize {
        chunk_len + footprint(node)
    }

    #[test]
    fn charges_chunk_bytes_plus_struct_sizes() {
        let cache = NodeCache::new();
        let (h, node, len) = leaf(1, 1000);
        let expected = cost(&node, len);
        assert!(expected > len + std::mem::size_of::<LeafEntry>());
        cache.insert(h, Arc::new(node), len, cache.epoch());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.charged_bytes(), expected);
        // A second insert of the same page charges nothing.
        let (h2, node2, len2) = leaf(1, 1000);
        assert_eq!(h, h2);
        cache.insert(h2, Arc::new(node2), len2, cache.epoch());
        assert_eq!(cache.charged_bytes(), expected);
    }

    #[test]
    fn stays_within_its_byte_bound() {
        let budget = 64 * 1024;
        let cache = NodeCache::with_budget(budget);
        for i in 0..2000 {
            let (h, node, len) = leaf(i, 200);
            cache.insert(h, Arc::new(node), len, cache.epoch());
            assert!(cache.charged_bytes() <= budget, "over budget at {i}");
        }
        // The bound is per shard, so the cache fills close to it.
        assert!(cache.charged_bytes() > budget / 2);
        assert!(cache.len() < 2000);
    }

    #[test]
    fn a_node_larger_than_a_shard_is_not_kept() {
        let cache = NodeCache::with_budget(SHARDS * 512);
        let (h, node, len) = leaf(1, 1024);
        cache.insert(h, Arc::new(node), len, cache.epoch());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn clock_evicts_unreferenced_entries_first() {
        // Keys that all land in one shard, each costing a third of it.
        let mut same_shard = (0u32..)
            .map(|i| leaf(i, 300))
            .filter(|(h, _, _)| usize::from(h.as_bytes()[0]).is_multiple_of(SHARDS));
        let (_, probe, probe_len) = leaf(0, 300);
        let shard_budget = 3 * cost(&probe, probe_len) + 10;
        let cache = NodeCache::with_budget(shard_budget * SHARDS);
        let (a, na, la) = same_shard.next().unwrap();
        let (b, nb, lb) = same_shard.next().unwrap();
        let (c, nc, lc) = same_shard.next().unwrap();
        let (d, nd, ld) = same_shard.next().unwrap();
        cache.insert(a, Arc::new(na), la, cache.epoch());
        cache.insert(b, Arc::new(nb), lb, cache.epoch());
        cache.insert(c, Arc::new(nc), lc, cache.epoch());
        assert_eq!(cache.len(), 3);
        // `a` is read again, so the hand passes it over and takes `b`.
        assert!(cache.get(&a).is_some());
        cache.insert(d, Arc::new(nd), ld, cache.epoch());
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&a));
        assert!(!cache.contains(&b));
        assert!(cache.contains(&c));
        assert!(cache.contains(&d));
    }

    #[test]
    fn retain_drops_rejected_pages_and_refuses_stale_inserts() {
        let cache = NodeCache::new();
        let (a, na, la) = leaf(1, 10);
        let (b, nb, lb) = leaf(2, 10);
        let before = cache.epoch();
        cache.insert(a, Arc::new(na), la, before);
        cache.retain(|h| *h != a);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.charged_bytes(), 0);
        // A page fetched before the retain is not inserted after it.
        cache.insert(b, Arc::new(nb), lb, before);
        assert!(!cache.contains(&b));
    }

    #[test]
    fn load_keeps_only_verified_pages() {
        let inner = MemStore::new();
        let (h, node, _) = leaf(1, 10);
        assert_eq!(node.store(&inner).unwrap(), h);
        let store = FaultyStore::new(inner);
        let cache = NodeCache::new();
        store.inject(h, FaultMode::FlipBit { byte: 5 });
        assert!(load_node(&store, Some(&cache), &h).is_err());
        assert!(!cache.contains(&h));
        store.heal_all();
        assert_eq!(*load_node(&store, Some(&cache), &h).unwrap(), node);
        assert!(cache.contains(&h));
        // Later tampering is not seen by cached reads; `verify` sees it.
        store.inject(h, FaultMode::FlipBit { byte: 5 });
        assert_eq!(*load_node(&store, Some(&cache), &h).unwrap(), node);
        assert!(Node::load(&store, &h).is_err());
    }
}
