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
//! * blobs round-trip arbitrary byte strings and serve correct ranges.

use std::collections::BTreeMap;

use bytes::Bytes;
use forkbase_chunk::ChunkerConfig;
use forkbase_postree::diff::diff_maps;
use forkbase_postree::{DiffEntry, MapEdit, PosBlob, PosList, PosMap, TreeConfig};
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
