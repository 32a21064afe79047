//! Cost pins by count: each history walk's store reads as a bound.
//!
//! Timings on a small box cannot pin asymptotics; the store's `gets`
//! counter can, deterministically. Every row builds a fixture in a
//! `MemStore`, opens a **fresh** `ForkBase` over it (so no page is served
//! from a node cache), runs one verb, and asserts on the `gets` delta.
//!
//! Fixtures:
//! - a map key with V ∈ {10, 100} versions of one-entry edits;
//! - a blob key whose versions share most raw chunks;
//! - a map key whose three branches share a 20-version trunk;
//! - a criss-cross history: two branches merged into each other twice;
//! - one-version map keys of N ∈ {1 k, 64 k} entries, for
//!   `put_map_edits` of D ∈ {1, 100} edits.
//!
//! A distinct page is a chunk reachable from some head: an FNode, a tree
//! page, or a raw blob chunk. The walks that only mark (GC, bundle
//! export) read every reachable chunk except raw blob chunks, which are
//! leaves by construction (depth 0) and are never opened.

use std::collections::HashSet;

use bytes::Bytes;
use forkbase::{gc, ForkBase, PutOptions, Uid, VersionSpec};
use forkbase_postree::{MapEdit, MergePolicy, Node, PosBlob, TreeConfig};
use forkbase_store::{ChunkStore, MemStore};

struct Fixture {
    store: MemStore,
    refs: String,
    key: &'static str,
}

impl Fixture {
    /// Build with `build` on a scratch `ForkBase`, then keep only the
    /// store and the ref table.
    fn new(key: &'static str, build: impl FnOnce(&ForkBase<&MemStore>)) -> Fixture {
        let store = MemStore::new();
        let refs = {
            let db = ForkBase::with_config(&store, TreeConfig::test_config());
            build(&db);
            db.dump_refs()
        };
        Fixture { store, refs, key }
    }

    /// A database that has read nothing yet.
    fn fresh(&self) -> ForkBase<&MemStore> {
        let db = ForkBase::with_config(&self.store, TreeConfig::test_config());
        db.load_refs(&self.refs).unwrap();
        db
    }

    /// Store gets `f` costs on a fresh database, with its result.
    fn gets<T>(&self, f: impl FnOnce(&ForkBase<&MemStore>) -> T) -> (u64, T) {
        let db = self.fresh();
        let before = self.store.stats().gets;
        let out = f(&db);
        (self.store.stats().gets - before, out)
    }

    /// Every version reachable from some head of the key (first-parent
    /// walks suffice: the fixtures that use this have no merges).
    fn versions(&self) -> Vec<Uid> {
        let db = self.fresh();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for b in db.list_branches(self.key).unwrap() {
            for h in db.history(self.key, &VersionSpec::branch(&b.name)).unwrap() {
                if seen.insert(h.uid) {
                    out.push(h.uid);
                }
            }
        }
        out
    }

    /// Sum of the gets of verifying each distinct version on its own.
    fn per_version_verify_gets(&self) -> u64 {
        self.versions()
            .iter()
            .map(|uid| self.gets(|db| db.verify_version(uid).unwrap()).0)
            .sum()
    }

    /// Distinct raw blob chunks across every version of the key.
    fn raw_blob_chunks(&self) -> u64 {
        let db = self.fresh();
        let mut raw = HashSet::new();
        for uid in self.versions() {
            if let Some(r) = db.get_version(&uid).unwrap().value.blob_ref() {
                let blob = PosBlob::new(&self.store, TreeConfig::test_config());
                raw.extend(blob.chunk_refs(&r).unwrap().into_iter().map(|(h, _)| h));
            }
        }
        raw.len() as u64
    }
}

fn rows(n: u32) -> Vec<(Bytes, Bytes)> {
    (0..n)
        .map(|i| {
            (
                Bytes::from(format!("acct-{i:05}")),
                Bytes::from(format!("balance {i}")),
            )
        })
        .collect()
}

fn edit(i: u32) -> Vec<MapEdit> {
    vec![MapEdit::put(
        format!("acct-{:05}", (i * 37) % 1000),
        format!("edit {i}"),
    )]
}

/// A 1 000-entry map key with `versions` versions of one-entry edits.
fn map_history(versions: u32) -> Fixture {
    Fixture::new("ledger", |db| {
        let map = db.new_map(rows(1000)).unwrap();
        db.put("ledger", map, &PutOptions::default()).unwrap();
        for i in 1..versions {
            db.put_map_edits("ledger", edit(i), &PutOptions::default())
                .unwrap();
        }
    })
}

/// Four versions of a 64 KiB blob, each with a few bytes rewritten.
fn blob_history() -> Fixture {
    Fixture::new("archive", |db| {
        let mut x = 0x2545_F491u32;
        let mut content: Vec<u8> = (0..64 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for v in 0..4usize {
            content[v * 16_000 + 500] ^= 0xFF;
            db.put_blob(
                "archive",
                Bytes::from(content.clone()),
                &PutOptions::default(),
            )
            .unwrap();
        }
    })
}

/// A 20-version trunk, then `master`, `b1` and `b2` three versions each.
fn three_branches() -> Fixture {
    Fixture::new("shared", |db| {
        let map = db.new_map(rows(1000)).unwrap();
        db.put("shared", map, &PutOptions::default()).unwrap();
        for i in 1..20 {
            db.put_map_edits("shared", edit(i), &PutOptions::default())
                .unwrap();
        }
        db.branch("shared", "master", "b1").unwrap();
        db.branch("shared", "master", "b2").unwrap();
        for (n, branch) in ["master", "b1", "b2"].into_iter().enumerate() {
            for i in 0..3 {
                let i = 100 + 10 * n as u32 + i;
                db.put_map_edits("shared", edit(i), &PutOptions::on_branch(branch))
                    .unwrap();
            }
        }
    })
}

fn all_fixtures() -> Vec<Fixture> {
    vec![
        map_history(10),
        map_history(100),
        blob_history(),
        three_branches(),
    ]
}

#[test]
fn gc_mark_loads_each_distinct_page_once() {
    for fx in all_fixtures() {
        let (gets, live) = fx.gets(|db| gc::mark(db).unwrap());
        assert_eq!(
            gets,
            live.len() as u64 - fx.raw_blob_chunks(),
            "{}: every live chunk but raw blob chunks, once",
            fx.key
        );
    }
}

#[test]
fn export_bundle_is_the_mark_plus_one_read_per_chunk() {
    for fx in all_fixtures() {
        let (mark_gets, live) = fx.gets(|db| gc::mark(db).unwrap());
        let (gets, chunks) =
            fx.gets(|db| forkbase::export_bundle(db, fx.key, &[], &mut Vec::new()).unwrap());
        assert_eq!(chunks, live.len() as u64, "{}: ships the live set", fx.key);
        assert_eq!(gets, mark_gets + chunks, "{}", fx.key);
    }
}

#[test]
fn verify_branch_verifies_each_version_independently() {
    // Today's cost: every version's tree is verified on its own, so a page
    // shared by k versions is read k times (ROADMAP § 15(b) removes this).
    for fx in [map_history(10), map_history(100), blob_history()] {
        let (gets, checked) = fx.gets(|db| db.verify_branch(fx.key, "master").unwrap());
        assert_eq!(checked, fx.versions().len() as u64, "{}", fx.key);
        assert_eq!(gets, fx.per_version_verify_gets(), "{}", fx.key);
    }
}

#[test]
fn import_bundle_verifies_each_version_once() {
    // Each branch reaches 23 versions, 20 of them on the shared trunk; the
    // 29 distinct versions are verified once each, not once per branch.
    let fx = three_branches();
    let mut bundle = Vec::new();
    forkbase::export_bundle(&fx.fresh(), fx.key, &[], &mut bundle).unwrap();
    let once = fx.per_version_verify_gets();
    for replace in [false, true] {
        let dst = MemStore::new();
        let db = ForkBase::with_config(&dst, TreeConfig::test_config());
        let before = dst.stats().gets;
        let refs = if replace {
            forkbase::import_bundle_replace(&db, &mut bundle.as_slice())
        } else {
            forkbase::import_bundle(&db, &mut bundle.as_slice())
        };
        assert_eq!(refs.unwrap().len(), 3);
        assert_eq!(dst.stats().gets - before, once, "replace: {replace}");
    }
}

#[test]
#[ignore = "ROADMAP § 15(b): measured 47 225 gets against 1 519 distinct pages"]
fn verify_branch_reads_each_distinct_page_once() {
    let fx = map_history(100);
    let (mark_gets, _) = fx.gets(|db| gc::mark(db).unwrap());
    let (gets, _) = fx.gets(|db| db.verify_branch(fx.key, "master").unwrap());
    assert!(gets <= mark_gets, "{gets} gets against {mark_gets} pages");
}

/// A map key holding `n` rows in one version, and its tree's height.
fn one_version_map(n: u32) -> (Fixture, u64) {
    let fx = Fixture::new("accounts", |db| {
        let map = db.new_map(rows(n)).unwrap();
        db.put("accounts", map, &PutOptions::default()).unwrap();
    });
    let tree = fx
        .fresh()
        .get("accounts", "master")
        .unwrap()
        .value
        .tree_ref();
    let root = Node::load(&fx.store, &tree.unwrap().root).unwrap();
    (fx, u64::from(root.level()))
}

#[test]
#[ignore = "ROADMAP § 7(c): measured 161 gets / 161 puts at N 1 k, D 1 and 11 246 / 11 243 at N 64 k, D 1 (11 365 / 11 390 at D 100): every level-1 index page is read and re-put"]
fn put_map_edits_reads_and_writes_d_root_to_leaf_paths() {
    let mut rows = Vec::new();
    let mut within = true;
    for n in [1_000, 64_000] {
        let (fx, height) = one_version_map(n);
        for d in [1, 100] {
            // D puts spread evenly over the key space, half updates, half
            // inserts between existing keys.
            let edits: Vec<MapEdit> = (0..d)
                .map(|i| {
                    let at = i * (n / d) + n / (2 * d);
                    let key = if i % 2 == 0 {
                        format!("acct-{at:05}")
                    } else {
                        format!("acct-{at:05}-new")
                    };
                    MapEdit::put(key, format!("edit {i}"))
                })
                .collect();
            let puts_before = fx.store.stats().puts;
            let (gets, _) = fx.gets(|db| {
                db.put_map_edits("accounts", edits, &PutOptions::default())
                    .unwrap()
            });
            let puts = fx.store.stats().puts - puts_before;
            // Per edit: the index pages on its root-to-leaf path, the leaf
            // it lands in, and up to two leaves re-chunked after it before
            // the boundaries line up again. Plus the head's FNode (read)
            // and the new FNode (written).
            let bound = 1 + u64::from(d) * (height + 3);
            rows.push(format!(
                "N {n}, D {d}, height {height}: {gets} gets, {puts} puts, bound {bound}"
            ));
            within &= gets <= bound && puts <= bound;
        }
    }
    assert!(within, "{}", rows.join("\n"));
}

/// Two branches merged into each other twice:
///
/// ```text
/// root ─ a1 ─ a2=merge(a1,b1) ─ a3 ─ merge(a3,b3)
///     └─ b1 ─ b2=merge(b1,a1) ─ b3 ─┘
/// ```
///
/// `a2` and `b2` both have `a1` and `b1` as lowest common ancestors; the
/// breadth-first search from `b3` meets `b1` first (a merge lists its
/// own branch's parent first).
fn criss_cross() -> (Fixture, [Uid; 2]) {
    let mut lca = [Uid::from_bytes([0; 32]); 2];
    let fx = Fixture::new("cc", |db| {
        let on = PutOptions::on_branch;
        let map = db.new_map(rows(1000)).unwrap();
        db.put("cc", map, &on("a")).unwrap();
        db.branch("cc", "a", "b").unwrap();
        let a1 = db.put_map_edits("cc", edit(1), &on("a")).unwrap().uid;
        let b1 = db.put_map_edits("cc", edit(2), &on("b")).unwrap().uid;
        db.branch("cc", "a", "a1").unwrap();
        db.merge("cc", "a", "b", MergePolicy::Fail, &on("a"))
            .unwrap();
        db.merge("cc", "b", "a1", MergePolicy::Fail, &on("b"))
            .unwrap();
        db.delete_branch("cc", "a1").unwrap();
        db.put_map_edits("cc", edit(3), &on("a")).unwrap();
        db.put_map_edits("cc", edit(4), &on("b")).unwrap();
        lca = [a1, b1];
    });
    (fx, lca)
}

#[test]
fn common_ancestor_on_a_criss_cross_history() {
    let (fx, [_a1, b1]) = criss_cross();
    let db = fx.fresh();
    let (a3, b3) = (db.head("cc", "a").unwrap(), db.head("cc", "b").unwrap());
    let (gets, base) = fx.gets(|db| db.common_ancestor(&a3, &b3).unwrap());
    assert_eq!(base, Some(b1));
    // The five ancestors of a3 (a3 a2 a1 b1 root), then b3 and b2.
    assert!(gets <= 7, "{gets} FNode reads");
}

#[test]
fn merge_on_a_criss_cross_history() {
    let (fx, _) = criss_cross();
    let (gets, merged) = fx.gets(|db| {
        db.merge(
            "cc",
            "a",
            "b",
            MergePolicy::Fail,
            &PutOptions::on_branch("a"),
        )
        .unwrap()
    });
    assert_eq!(
        merged.uid.to_string(),
        "NJMJOAUTZL6CRGPSZJMKFXUTGRUOVAZLN2THUZ33NN5CYYTJKJEA====",
        "the merge base, and so the merged version, are unchanged"
    );
    // One walk of each history: a3's five ancestors, then b3 and b2 (the
    // versions of b3's history outside them) — 7 FNode reads where
    // checking containment, fast-forward and merge base apart read 17.
    assert!(gets <= 200, "{gets} gets");
}
