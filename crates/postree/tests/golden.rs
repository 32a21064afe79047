//! Golden page pins for the POS-Tree builder.
//!
//! Every other POS-Tree test compares two trees made by the same builder
//! (an applied batch against a rebuild, one history against another), so a
//! change to where pages end would move both sides together and still
//! pass. These constants pin the page boundaries themselves: the root hash,
//! which covers every page's bytes, and the number of pages at each level,
//! for fixed maps and lists under both `node_default` and `test_small`.
//! They were computed once; a builder change that moves them is a format
//! change, not a refactor.

use std::collections::VecDeque;

use bytes::Bytes;
use forkbase_chunk::ChunkerConfig;
use forkbase_crypto::Hash;
use forkbase_postree::{MapEdit, Node, PosList, PosMap};
use forkbase_store::MemStore;

/// `(case, root hash, pages per level from the leaves up)`.
type Pin = (&'static str, &'static str, &'static [usize]);

#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    ("default/ledger/genesis", "83cae96cf677542e6584eb8c1c2559baf9eecae1795236217b61054e76ad7d76", &[90, 1]),
    ("default/ledger/block20", "6034f452676ece3eebc2c43fc6dde8f29193454d2e661c9fea3545348372a41b", &[93, 3, 1]),
    ("default/edit/first-of-leaf", "ffd90adec4173a40e1aa01eacca9b6ac45004dbb54dfccc2fb8126ae1b01b793", &[90, 1]),
    ("default/edit/last-leaf", "5f46e7ab5a1591dbe3300acc0772b6d4a33a096229fa8c0c66948e47990e1366", &[90, 1]),
    ("default/edit/empty-a-leaf", "0e32f1da5ee01ce52bc91ca76d99034e69a2ee7e1a61b54725a71261f5eb663d", &[89, 1]),
    ("small/ledger/genesis", "4738e153f18ea32c930b21f5e7d85b5d3449de42e9274d627b2e42785c32ce41", &[4026, 1382, 465, 167, 63, 18, 7, 4, 2, 1]),
    ("small/ledger/block20", "46704d02d1d96b62f22a81b610c947e470b4808f44e6e398c298b8577abf427a", &[4109, 1368, 461, 172, 57, 22, 7, 4, 2, 1]),
    ("small/edit/first-of-leaf", "969fb78aa690e6600ef275c238aabe10687808a6554c12588fe12d220f734a4f", &[4026, 1382, 465, 166, 62, 18, 8, 5, 2, 1]),
    ("small/edit/last-leaf", "e30379a43dece0c0734aa7c3d3d094c075f9b7dc949ac0feca21c462d62ba070", &[4026, 1382, 465, 167, 63, 18, 7, 4, 2, 1]),
    ("small/edit/empty-a-leaf", "61ff037a819109580444511be52f3fa30c37a39a5bf13f1cf3f5e004ffbc0bec", &[4025, 1381, 465, 168, 62, 17, 8, 5, 3, 1]),
    ("default/list/built", "4bc275134d22aceb3a0a65f4c344b9f285608f6af99b1f1c82f655e8988df5a8", &[64, 1]),
    ("default/list/spliced", "2d7fb5fc4faccfd8be0e8a53a61b138ae27de46ecc1fc6255ab094f12016d26d", &[63, 2, 1]),
    ("small/list/built", "bfb817651d0ec6693011adca1a86e9156a61d8c4a52ce68539f3bd6bb983ac4a", &[1525, 542, 196, 75, 24, 5, 2, 1]),
    ("small/list/spliced", "c5df80725bc16ce9c8d324a6438efec2752bb90398983f3f23b71be25083ce3f", &[1517, 541, 196, 74, 25, 6, 2, 1]),
    ("default/odd-sizes/built", "7de1d7afa5b9531299ff7ba0145686f100bec84428047b93463f41007247fd94", &[18, 1]),
    ("default/odd-sizes/edited", "c30833e26a8830774ef68e77c59f6732c0a509127c0d9ea6f58ca2f5aef50a15", &[18, 1]),
    ("small/odd-sizes/built", "3e8f7de7fdfb3412e8d9141f1a101b309601f22d6c31a740b0efbfb576acce6e", &[117, 42, 13, 4, 2, 2, 1, 1]),
    ("small/odd-sizes/edited", "962511e1509299bf67901834170640ff70d10acc4a493d8a660afeb82f8035e7", &[117, 43, 11, 4, 2, 1]),
];

fn configs() -> [(&'static str, ChunkerConfig); 2] {
    [
        ("default", ChunkerConfig::node_default()),
        ("small", ChunkerConfig::test_small()),
    ]
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A ledger account address: 16 hex digits, scattered over the key space.
fn account_key(id: u64) -> Bytes {
    Bytes::from(format!("{:016x}", mix(id)))
}

/// 32 bytes: balance, nonce and a fixed per-account tail.
fn account_value(id: u64, balance: u64, nonce: u64) -> Bytes {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&balance.to_le_bytes());
    v.extend_from_slice(&nonce.to_le_bytes());
    v.extend_from_slice(&mix(!id).to_le_bytes());
    v.extend_from_slice(&id.to_le_bytes());
    Bytes::from(v)
}

const ACCOUNTS: u64 = 8_000;

fn genesis<'s>(store: &'s MemStore, cfg: ChunkerConfig) -> PosMap<'s, MemStore> {
    let pairs = (0..ACCOUNTS)
        .map(|id| (account_key(id), account_value(id, 1_000_000, 0)))
        .collect();
    PosMap::build_from_pairs(store, cfg, pairs).unwrap()
}

/// Block `b`'s 100 edits: skewed updates of existing accounts, with every
/// tenth edit opening a new account and every 25th closing one.
fn block(b: u64) -> Vec<MapEdit> {
    (0..100u64)
        .map(|i| {
            let r = mix(b * 1_000 + i);
            let u = (r >> 11) as f64 / (1u64 << 53) as f64;
            let id = (u * u * ACCOUNTS as f64) as u64;
            if i % 25 == 24 {
                MapEdit::delete(account_key(id))
            } else if i % 10 == 9 {
                let id = ACCOUNTS + b * 100 + i;
                MapEdit::put(account_key(id), account_value(id, r % 1_000, 1))
            } else {
                MapEdit::put(account_key(id), account_value(id, r % 1_000_000, b + 1))
            }
        })
        .collect()
}

/// The keys of every leaf of `root`, leaf by leaf.
fn leaves(store: &MemStore, root: &Hash) -> Vec<Vec<Bytes>> {
    match Node::load(store, root).unwrap() {
        Node::Leaf(entries) => vec![entries.into_iter().map(|e| e.key).collect()],
        Node::Index { children, .. } => children
            .iter()
            .flat_map(|c| leaves(store, &c.hash))
            .collect(),
    }
}

/// Pages per level of the tree at `root`, leaves first.
fn pages_per_level(store: &MemStore, root: &Hash) -> Vec<usize> {
    let mut counts: Vec<usize> = Vec::new();
    let mut queue = VecDeque::from([*root]);
    while let Some(hash) = queue.pop_front() {
        let node = Node::load(store, &hash).unwrap();
        let level = node.level() as usize;
        if counts.len() <= level {
            counts.resize(level + 1, 0);
        }
        counts[level] += 1;
        if let Node::Index { children, .. } = node {
            queue.extend(children.iter().map(|c| c.hash));
        }
    }
    counts
}

fn pin(out: &mut Vec<(String, String, Vec<usize>)>, case: String, store: &MemStore, root: Hash) {
    out.push((case, root.to_hex(), pages_per_level(store, &root)));
}

fn ledger_cases(out: &mut Vec<(String, String, Vec<usize>)>) {
    for (name, cfg) in configs() {
        let store = MemStore::new();
        let base = genesis(&store, cfg);
        pin(out, format!("{name}/ledger/genesis"), &store, base.root());

        let mut map = base.clone();
        for b in 0..20 {
            map = map.apply(block(b)).unwrap();
        }
        pin(out, format!("{name}/ledger/block20"), &store, map.root());

        let leaves = leaves(&store, &base.root());
        assert!(leaves.len() > 4, "{name}: the ledger map spans many leaves");
        let mid = &leaves[leaves.len() / 2];
        let first_of_leaf = base
            .apply([MapEdit::put(mid[0].clone(), Bytes::from_static(b"edited"))])
            .unwrap();
        pin(
            out,
            format!("{name}/edit/first-of-leaf"),
            &store,
            first_of_leaf.root(),
        );

        let last = leaves.last().unwrap();
        let in_last_leaf = base
            .apply([
                MapEdit::put(last[last.len() / 2].clone(), Bytes::from_static(b"edited")),
                MapEdit::put(Bytes::from_static(b"~after-every-key"), Bytes::new()),
            ])
            .unwrap();
        pin(
            out,
            format!("{name}/edit/last-leaf"),
            &store,
            in_last_leaf.root(),
        );

        let emptied = &leaves[leaves.len() / 3];
        let empty_a_leaf = base
            .apply(emptied.iter().cloned().map(MapEdit::delete))
            .unwrap();
        pin(
            out,
            format!("{name}/edit/empty-a-leaf"),
            &store,
            empty_a_leaf.root(),
        );
    }
}

fn list_cases(out: &mut Vec<(String, String, Vec<usize>)>) {
    for (name, cfg) in configs() {
        let store = MemStore::new();
        let element = |i: u64| Bytes::from(vec![(i % 251) as u8; (mix(i) % 90) as usize]);
        let list = PosList::build(&store, cfg, (0..6_000).map(element)).unwrap();
        pin(out, format!("{name}/list/built"), &store, list.root());
        let spliced = list
            .splice(2_500, 40, (0..25).map(|i| element(10_000 + i)))
            .unwrap();
        pin(out, format!("{name}/list/spliced"), &store, spliced.root());
    }
}

/// Entries longer than `max_size` among entries shorter than the rolling
/// window (and some in between).
fn odd_size_cases(out: &mut Vec<(String, String, Vec<usize>)>) {
    for (name, cfg) in configs() {
        let store = MemStore::new();
        let pairs = (0..600u64)
            .map(|i| {
                let len = match i % 41 {
                    0 => 70_000,
                    7 => 1_500,
                    13 | 29 => 40 + (mix(i) % 200) as usize,
                    _ => (i % 3) as usize,
                };
                (
                    Bytes::from(format!("{i:03}")),
                    Bytes::from(vec![(mix(i) >> 8) as u8; len]),
                )
            })
            .collect();
        let map = PosMap::build_from_pairs(&store, cfg, pairs).unwrap();
        pin(out, format!("{name}/odd-sizes/built"), &store, map.root());
        let edited = map
            .apply([
                MapEdit::put(Bytes::from_static(b"205"), Bytes::from(vec![9u8; 70_000])),
                MapEdit::delete(Bytes::from_static(b"246")),
                MapEdit::put(Bytes::from_static(b"3000"), Bytes::from_static(b"x")),
            ])
            .unwrap();
        pin(
            out,
            format!("{name}/odd-sizes/edited"),
            &store,
            edited.root(),
        );
    }
}

#[test]
fn page_roots_and_counts_match_the_golden_pins() {
    let mut got = Vec::new();
    ledger_cases(&mut got);
    list_cases(&mut got);
    odd_size_cases(&mut got);
    let table: String = got
        .iter()
        .map(|(case, root, pages)| format!("    (\"{case}\", \"{root}\", &{pages:?}),\n"))
        .collect();
    let want: Vec<(String, String, Vec<usize>)> = GOLDEN
        .iter()
        .map(|(c, r, p)| (c.to_string(), r.to_string(), p.to_vec()))
        .collect();
    assert_eq!(
        got, want,
        "page pins moved; the pins this build computes:\n{table}"
    );
}
