//! Property-based tests for the POS-Tree.
//!
//! These pin down the SIRI definition (paper Def. 1) and the algebraic
//! laws the rest of ForkBase relies on:
//!
//! * maps behave exactly like `BTreeMap` under arbitrary edit batches;
//! * the root hash is a pure function of the record set — regardless of
//!   how the set was reached (structural invariance, property 1);
//! * `diff` then `apply` reconstructs the target tree exactly;
//! * lists behave like `Vec` under arbitrary splices;
//! * an incremental update of a multi-level tree (`PosMap::apply`,
//!   `PosList::splice`) yields exactly the root of a full rebuild;
//! * blobs round-trip arbitrary byte strings and serve correct ranges;
//! * differentially, every map and list the builder makes — bulk builds
//!   and incremental applies and splices, under both node configs — is
//!   the canonical tree by `verify_map`'s per-entry `EntryChunker`
//!   reference, which shares no code with the builder's page scan.

use std::collections::BTreeMap;

use bytes::Bytes;
use forkbase_chunk::ChunkerConfig;
use forkbase_crypto::Hash;
use forkbase_postree::diff::diff_maps;
use forkbase_postree::{
    verify_map, DiffEntry, MapEdit, Node, PosBlob, PosList, PosMap, TreeConfig,
};
use forkbase_store::MemStore;
use proptest::prelude::*;

fn cfg() -> ChunkerConfig {
    ChunkerConfig::test_small()
}

/// Key/value generator: short byte strings with plenty of collisions so
/// inserts, updates and deletes all get exercised.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::num::u8::ANY, 1..12)
}

fn value_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::num::u8::ANY, 0..40)
}

/// A batch of edits: Some(value) = put, None = delete.
fn edits_strategy() -> impl Strategy<Value = Vec<(Vec<u8>, Option<Vec<u8>>)>> {
    proptest::collection::vec(
        (key_strategy(), proptest::option::of(value_strategy())),
        0..60,
    )
}

/// Base-map key `i`, fixed width so numeric order is byte order. Base maps
/// hold the keys `10, 20, …, 10·n`, leaving room between, before and after
/// them.
fn base_key(i: u32) -> Bytes {
    Bytes::from(format!("k{i:07}"))
}

/// Base tree size: sometimes a single root leaf (or empty), mostly 3–4
/// levels deep under `test_small`.
fn base_size() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, 0u32..3_000]
}

/// Edit-batch ingredients `(kind, anchor, span, value salt)`, expanded
/// against the base size by [`expand_edits`]; a `None` salt deletes.
type EditOp = (u8, u32, u32, Option<u8>);

fn edit_ops() -> impl Strategy<Value = Vec<EditOp>> {
    proptest::collection::vec(
        (
            0u8..6,
            0u32..3_000,
            1u32..200,
            proptest::option::of(proptest::num::u8::ANY),
        ),
        1..12,
    )
}

/// Turn [`EditOp`]s into a batch over a base map of `n` keys: scattered
/// keys, clustered runs, keys before the first and after the last, deletes
/// spanning whole leaves, and repeats of earlier keys (last one wins).
fn expand_edits(n: u32, ops: &[EditOp]) -> Vec<MapEdit> {
    let edit = |key: Bytes, salt: Option<u8>, i: u32| match salt {
        Some(s) => MapEdit::put(key, Bytes::from(format!("new-{s}-{i}"))),
        None => MapEdit::delete(key),
    };
    let existing = |i: u32| base_key(10 + 10 * i);
    let mut out: Vec<MapEdit> = Vec::new();
    for &(kind, anchor, span, salt) in ops {
        let at = anchor % n.max(1);
        match kind {
            // An existing key, or the gap just after it.
            0 => out.push(edit(base_key(10 + 10 * at + (span % 2) * 5), salt, at)),
            // A clustered run of consecutive existing keys.
            1 => out.extend((at..(at + span % 40).min(n)).map(|i| edit(existing(i), salt, i))),
            // Before the first key.
            2 => out.push(edit(base_key(span % 10), salt, span)),
            // After the last key.
            3 => out.push(edit(base_key(10 + 10 * n + span), salt, span)),
            // A delete run long enough to span whole leaves.
            4 => out.extend((at..(at + span).min(n)).map(|i| MapEdit::delete(existing(i)))),
            // An earlier edit's key again, with a different outcome.
            _ => {
                if !out.is_empty() {
                    let key = out[anchor as usize % out.len()].key.clone();
                    out.push(edit(key, salt.map(|s| s.wrapping_add(1)), span));
                }
            }
        }
    }
    out
}

/// The two node configs whose pages the differential tests check.
fn node_configs() -> [ChunkerConfig; 2] {
    [ChunkerConfig::node_default(), ChunkerConfig::test_small()]
}

/// A two-byte key; the gaps between consecutive keys leave room for
/// inserts (see [`key_after`]).
fn short_key(i: usize) -> Bytes {
    Bytes::from(((i as u16 + 1) * 4).to_be_bytes().to_vec())
}

/// The smallest key above `key`: an insert right after it.
fn key_after(key: &Bytes) -> Bytes {
    let mut k = key.to_vec();
    k.push(0);
    Bytes::from(k)
}

/// A value whose entry lands on one side of one of `cfg`'s size
/// thresholds: shorter than the rolling window, straddling `min_size` or
/// the window, or (rarely) longer than `max_size`. The bytes are mixed so
/// patterns fire at arbitrary offsets, except in the rare runs of one
/// repeated byte, where no pattern fires and `max_size` ends the page.
fn sized_value(cfg: ChunkerConfig, bucket: u8, salt: u8) -> Bytes {
    let jitter = usize::from(salt % 24);
    let len = match bucket % 8 {
        0 | 1 => jitter % 4,
        2 | 3 => (cfg.min_size + jitter).saturating_sub(22),
        4 => (cfg.window + jitter).saturating_sub(22),
        5 | 6 => jitter * 3,
        _ if salt.is_multiple_of(8) => cfg.max_size + jitter,
        _ if salt % 8 == 1 => return Bytes::from(vec![salt; cfg.max_size / 3 + jitter]),
        _ => cfg.min_size / 2 + jitter,
    };
    let mut x = u32::from(salt) | u32::from(bucket) << 8 | 0x9E37_0000;
    Bytes::from(
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect::<Vec<u8>>(),
    )
}

/// The keys of every leaf of the tree at `root`, leaf by leaf (list
/// leaves give empty keys, one per element).
fn leaf_keys(store: &MemStore, root: &Hash) -> Vec<Vec<Bytes>> {
    match Node::load(store, root).unwrap() {
        Node::Leaf(entries) => vec![entries.into_iter().map(|e| e.key).collect()],
        Node::Index { children, .. } => children
            .iter()
            .flat_map(|c| leaf_keys(store, &c.hash))
            .collect(),
    }
}

/// A differential edit `(kind, anchor, bucket, salt)`.
type SizedEdit = (u8, u16, u8, u8);

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Maps agree with a BTreeMap model across a sequence of edit batches.
    #[test]
    fn map_matches_btreemap_model(batches in proptest::collection::vec(edits_strategy(), 1..5)) {
        let store = MemStore::new();
        let mut map = PosMap::empty(&store, cfg()).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for batch in &batches {
            let edits: Vec<MapEdit> = batch
                .iter()
                .map(|(k, v)| match v {
                    Some(v) => MapEdit::put(Bytes::from(k.clone()), Bytes::from(v.clone())),
                    None => MapEdit::delete(Bytes::from(k.clone())),
                })
                .collect();
            map = map.apply(edits).unwrap();
            for (k, v) in batch {
                match v {
                    Some(v) => { model.insert(k.clone(), v.clone()); }
                    None => { model.remove(k); }
                }
            }
            prop_assert_eq!(map.len(), model.len() as u64);
        }

        // Full scan equality.
        let got = map.to_vec().unwrap();
        let want: Vec<(Bytes, Bytes)> = model
            .iter()
            .map(|(k, v)| (Bytes::from(k.clone()), Bytes::from(v.clone())))
            .collect();
        prop_assert_eq!(got, want);

        // Point lookups for every model key plus some misses.
        for (k, v) in model.iter().take(20) {
            prop_assert_eq!(map.get(k).unwrap(), Some(Bytes::from(v.clone())));
        }
        prop_assert_eq!(map.get(b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff").unwrap(), None);
    }

    /// Structural invariance: the root depends only on the final record
    /// set, not on the path taken to it.
    #[test]
    fn root_is_history_independent(edits in edits_strategy()) {
        let store = MemStore::new();

        // Path 1: apply everything as one batch to an empty map.
        let m1 = PosMap::empty(&store, cfg()).unwrap().apply(
            edits.iter().map(|(k, v)| match v {
                Some(v) => MapEdit::put(Bytes::from(k.clone()), Bytes::from(v.clone())),
                None => MapEdit::delete(Bytes::from(k.clone())),
            })
        ).unwrap();

        // Path 2: rebuild the resulting record set from scratch.
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in &edits {
            match v {
                Some(v) => { model.insert(k.clone(), v.clone()); }
                None => { model.remove(k); }
            }
        }
        let m2 = PosMap::build_from_sorted(
            &store,
            cfg(),
            model.iter().map(|(k, v)| (Bytes::from(k.clone()), Bytes::from(v.clone()))),
        ).unwrap();

        // Path 3: one edit at a time, in reverse key order.
        let mut m3 = PosMap::empty(&store, cfg()).unwrap();
        let mut dedup: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for (k, v) in edits.iter().rev() {
            if !dedup.iter().any(|(dk, _)| dk == k) {
                dedup.push((k.clone(), v.clone()));
            }
        }
        for (k, v) in &dedup {
            let edit = match v {
                Some(v) => MapEdit::put(Bytes::from(k.clone()), Bytes::from(v.clone())),
                None => MapEdit::delete(Bytes::from(k.clone())),
            };
            m3 = m3.apply([edit]).unwrap();
        }

        prop_assert_eq!(m1.root(), m2.root());
        prop_assert_eq!(m1.root(), m3.root());
    }

    /// diff then patch reconstructs the target exactly.
    #[test]
    fn diff_patch_roundtrip(base_edits in edits_strategy(), target_edits in edits_strategy()) {
        let store = MemStore::new();
        let to_batch = |edits: &[(Vec<u8>, Option<Vec<u8>>)]| -> Vec<MapEdit> {
            edits.iter().map(|(k, v)| match v {
                Some(v) => MapEdit::put(Bytes::from(k.clone()), Bytes::from(v.clone())),
                None => MapEdit::delete(Bytes::from(k.clone())),
            }).collect()
        };
        let a = PosMap::empty(&store, cfg()).unwrap().apply(to_batch(&base_edits)).unwrap();
        let b = a.apply(to_batch(&target_edits)).unwrap();

        let d = diff_maps(&store, a.tree(), b.tree()).unwrap();
        let patch: Vec<MapEdit> = d.entries.iter().map(|e| match e {
            DiffEntry::Added { key, value } => MapEdit::put(key.clone(), value.clone()),
            DiffEntry::Modified { key, to, .. } => MapEdit::put(key.clone(), to.clone()),
            DiffEntry::Removed { key, .. } => MapEdit::delete(key.clone()),
        }).collect();
        let patched = a.apply(patch).unwrap();
        prop_assert_eq!(patched.root(), b.root());
    }

    /// Lists agree with a Vec model across random splices.
    #[test]
    fn list_matches_vec_model(
        initial in proptest::collection::vec(value_strategy(), 0..40),
        splices in proptest::collection::vec(
            (0usize..50, 0usize..10, proptest::collection::vec(value_strategy(), 0..8)),
            0..6,
        ),
    ) {
        let store = MemStore::new();
        let mut list = PosList::build(
            &store,
            cfg(),
            initial.iter().map(|v| Bytes::from(v.clone())),
        ).unwrap();
        let mut model: Vec<Vec<u8>> = initial.clone();

        for (start, remove, insert) in &splices {
            let s = (*start).min(model.len());
            let r = (*remove).min(model.len() - s);
            list = list.splice(
                s as u64,
                r as u64,
                insert.iter().map(|v| Bytes::from(v.clone())),
            ).unwrap();
            model.splice(s..s + r, insert.iter().cloned());
            prop_assert_eq!(list.len(), model.len() as u64);
        }

        let got = list.to_vec().unwrap();
        let want: Vec<Bytes> = model.iter().map(|v| Bytes::from(v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    /// `apply` on a multi-level map yields the root and length of a full
    /// rebuild of the resulting record set: splicing reused leaves never
    /// changes a chunk boundary.
    #[test]
    fn apply_root_equals_rebuild(n in base_size(), salt in 0u32..7, ops in edit_ops()) {
        let store = MemStore::new();
        let mut model: BTreeMap<Bytes, Bytes> = (0..n)
            .map(|i| (base_key(10 + 10 * i), Bytes::from(format!("v{i}{}", "x".repeat(((i + salt) % 7) as usize)))))
            .collect();
        let base = PosMap::build_from_sorted(&store, cfg(), model.clone()).unwrap();
        let edits = expand_edits(n, &ops);
        let applied = base.apply(edits.clone()).unwrap();

        for e in &edits {
            match &e.value {
                Some(v) => { model.insert(e.key.clone(), v.clone()); }
                None => { model.remove(&e.key); }
            }
        }
        let fresh = MemStore::new();
        let rebuilt = PosMap::build_from_sorted(&fresh, cfg(), model).unwrap();
        prop_assert_eq!(applied.root(), rebuilt.root());
        prop_assert_eq!(applied.len(), rebuilt.len());
    }

    /// `splice` on a multi-level list yields the root and length of
    /// `PosList::build` over the resulting elements, splice after splice.
    #[test]
    fn splice_root_equals_rebuild(
        n in base_size(),
        splices in proptest::collection::vec(
            (0u32..3_100, prop_oneof![0u32..4, 0u32..300], 0u32..40),
            1..4,
        ),
    ) {
        let store = MemStore::new();
        let element = |tag: &str, i: u32| Bytes::from(format!("{tag}{i}{}", "-".repeat(i as usize % 5)));
        let mut model: Vec<Bytes> = (0..n).map(|i| element("e", i)).collect();
        let mut list = PosList::build(&store, cfg(), model.clone()).unwrap();

        for (round, &(anchor, remove, insert)) in splices.iter().enumerate() {
            // Mostly inside the list, sometimes past its end (clamped).
            let start = anchor % (model.len() as u32 + 10);
            let inserted: Vec<Bytes> = (0..insert).map(|i| element(&format!("r{round}-"), i)).collect();
            list = list.splice(start as u64, remove as u64, inserted.clone()).unwrap();
            let s = (start as usize).min(model.len());
            let r = (remove as usize).min(model.len() - s);
            model.splice(s..s + r, inserted);

            let fresh = MemStore::new();
            let rebuilt = PosList::build(&fresh, cfg(), model.clone()).unwrap();
            prop_assert_eq!(list.root(), rebuilt.root());
            prop_assert_eq!(list.len(), rebuilt.len());
        }
    }

    /// Maps built and edited through the builder's byte pages are
    /// canonical by the per-entry reference and equal a full rebuild,
    /// under both configs. Edits land on a leaf's first key (the run
    /// before it ends exactly at the previous leaf's last entry), right
    /// after a leaf's last key, across whole leaves and past the last key.
    #[test]
    fn maps_are_canonical_by_the_entry_chunker_reference(
        entries in proptest::collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 0..300),
        edits in proptest::collection::vec((0u8..8, proptest::num::u16::ANY, proptest::num::u8::ANY, proptest::num::u8::ANY), 1..16),
    ) {
        for cfg in node_configs() {
            let store = MemStore::new();
            let mut model: BTreeMap<Bytes, Bytes> = entries
                .iter()
                .enumerate()
                .map(|(i, &(bucket, salt))| (short_key(i), sized_value(cfg, bucket, salt)))
                .collect();
            let base = PosMap::build_from_sorted(&store, cfg, model.clone()).unwrap();
            prop_assert!(verify_map(&store, base.tree(), cfg, true).is_ok());

            let leaves = leaf_keys(&store, &base.root());
            let mut batch = Vec::new();
            for &(kind, anchor, bucket, salt) in &edits as &[SizedEdit] {
                let existing = short_key(usize::from(anchor) % entries.len().max(1));
                let leaf = &leaves[usize::from(anchor) % leaves.len()];
                let value = sized_value(cfg, bucket, salt);
                match (kind, leaf.first(), leaf.last()) {
                    (0, ..) => batch.push(MapEdit::put(existing, value)),
                    (1, ..) => batch.push(MapEdit::put(key_after(&existing), value)),
                    (2, ..) => batch.push(MapEdit::delete(existing)),
                    (3, Some(first), _) => batch.push(MapEdit::put(first.clone(), value)),
                    (4, _, Some(last)) => batch.push(MapEdit::put(key_after(last), value)),
                    (5, Some(first), _) => batch.push(MapEdit::delete(first.clone())),
                    (6, ..) => batch.extend(leaf.iter().cloned().map(MapEdit::delete)),
                    (7, ..) => {
                        // Past the last key: the old final leaf is copied
                        // mid-stream, where its own end is no boundary.
                        let last = leaves.iter().rev().find_map(|l| l.last());
                        let key = last.map_or_else(|| short_key(0), key_after);
                        batch.push(MapEdit::put(key, value));
                    }
                    _ => batch.push(MapEdit::put(key_after(&existing), value)),
                }
            }
            let applied = base.apply(batch.clone()).unwrap();
            for e in &batch {
                match &e.value {
                    Some(v) => { model.insert(e.key.clone(), v.clone()); }
                    None => { model.remove(&e.key); }
                }
            }
            let verified = verify_map(&store, applied.tree(), cfg, true);
            prop_assert!(verified.is_ok(), "{:?}", verified);
            let fresh = MemStore::new();
            let rebuilt = PosMap::build_from_sorted(&fresh, cfg, model).unwrap();
            prop_assert_eq!(applied.root(), rebuilt.root());
            prop_assert_eq!(applied.len(), rebuilt.len());
        }
    }

    /// Lists built and spliced through the builder's byte pages are
    /// canonical by the per-entry reference and equal a full rebuild,
    /// under both configs; some splices start exactly at a leaf's first
    /// element.
    #[test]
    fn lists_are_canonical_by_the_entry_chunker_reference(
        elements in proptest::collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 0..300),
        splices in proptest::collection::vec((proptest::bool::ANY, proptest::num::u16::ANY, 0u16..40, proptest::collection::vec((proptest::num::u8::ANY, proptest::num::u8::ANY), 0..8)), 1..4),
    ) {
        for cfg in node_configs() {
            let store = MemStore::new();
            let mut model: Vec<Bytes> = elements
                .iter()
                .map(|&(bucket, salt)| sized_value(cfg, bucket, salt))
                .collect();
            let mut list = PosList::build(&store, cfg, model.clone()).unwrap();
            prop_assert!(verify_map(&store, list.tree(), cfg, true).is_ok());

            for (at_leaf_start, anchor, remove, inserted) in &splices {
                let start = if *at_leaf_start {
                    let leaves = leaf_keys(&store, &list.root());
                    let j = usize::from(*anchor) % leaves.len();
                    leaves[..j].iter().map(Vec::len).sum()
                } else {
                    usize::from(*anchor) % (model.len() + 1)
                };
                let remove = usize::from(*remove).min(model.len() - start);
                let inserted: Vec<Bytes> = inserted
                    .iter()
                    .map(|&(bucket, salt)| sized_value(cfg, bucket, salt))
                    .collect();
                list = list.splice(start as u64, remove as u64, inserted.clone()).unwrap();
                model.splice(start..start + remove, inserted);

                let verified = verify_map(&store, list.tree(), cfg, true);
                prop_assert!(verified.is_ok(), "{:?}", verified);
                let fresh = MemStore::new();
                let rebuilt = PosList::build(&fresh, cfg, model.clone()).unwrap();
                prop_assert_eq!(list.root(), rebuilt.root());
                prop_assert_eq!(list.len(), rebuilt.len());
            }
        }
    }

    /// Blob round-trip and random range reads.
    #[test]
    fn blob_roundtrip_and_ranges(
        content in proptest::collection::vec(proptest::num::u8::ANY, 0..30_000),
        ranges in proptest::collection::vec((0u64..40_000, 0u64..5_000), 0..5),
    ) {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, TreeConfig::test_config());
        let r = blob.write(&content).unwrap();
        prop_assert_eq!(r.len, content.len() as u64);
        prop_assert_eq!(blob.read_all(&r).unwrap(), content.clone());
        for (off, len) in &ranges {
            let got = blob.read_range(&r, *off, *len).unwrap();
            let s = (*off as usize).min(content.len());
            let e = ((*off + *len) as usize).min(content.len());
            prop_assert_eq!(got, content[s..e].to_vec());
        }
    }

    /// Writing the same blob twice stores nothing new; equal content gives
    /// equal refs (dedup, Fig. 4's foundation).
    #[test]
    fn blob_dedup_is_total(content in proptest::collection::vec(proptest::num::u8::ANY, 0..20_000)) {
        let store = MemStore::new();
        let blob = PosBlob::new(&store, TreeConfig::test_config());
        let r1 = blob.write(&content).unwrap();
        let stored = forkbase_store::ChunkStore::stored_bytes(&store);
        let r2 = blob.write(&content).unwrap();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(forkbase_store::ChunkStore::stored_bytes(&store), stored);
    }
}
