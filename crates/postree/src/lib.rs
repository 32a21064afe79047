#![forbid(unsafe_code)]
//! POS-Tree: the Pattern-Oriented-Split Tree (paper §II-A).
//!
//! The POS-Tree is ForkBase's core contribution — a single structure that is
//! simultaneously:
//!
//! * a **B+-tree**: index nodes hold `(split_key, child)` entries and
//!   lookups descend by split key in `O(log N)`;
//! * a **Merkle tree**: children are referenced by the SHA-256 hash of
//!   their content, so the root hash authenticates the whole tree;
//! * a **SIRI** (Structurally-Invariant Reusable Index, Def. 1): node
//!   boundaries are *patterns* detected by a rolling hash over the entry
//!   stream, so the page layout is a pure function of the record set —
//!   independent of insertion order or edit history. Logically equal trees
//!   are physically identical; overlapping trees share pages.
//!
//! Three value shapes are built on the same node machinery:
//!
//! * [`map`] — ordered byte-key → byte-value maps (also backs sets and
//!   relational tables);
//! * [`list`] — positional sequences of byte elements;
//! * [`blob`] — large byte strings chunked at byte granularity.
//!
//! Cross-cutting operations:
//!
//! * [`diff`] — recursive difference that prunes equal-hash sub-trees,
//!   `O(D log N)` (paper §II-B);
//! * [`merge`] — three-way merge that re-uses disjointly modified
//!   sub-trees instead of walking elements (paper Fig. 3);
//! * [`verify`] — full structural + cryptographic re-validation, the
//!   mechanism behind tamper evidence (paper §II-D);
//! * [`proof`] — compact Merkle proofs so light clients can check single
//!   entries against a trusted root hash;
//! * [`cache`] — a byte-bounded cache of verified, decoded nodes that a
//!   database shares among its map readers.

pub mod blob;
pub mod builder;
pub mod cache;
pub mod cursor;
pub mod diff;
pub mod encoding;
pub mod list;
pub mod map;
pub mod merge;
pub mod node;
pub mod proof;
pub mod verify;

use forkbase_crypto::Hash;

pub use blob::{BlobCursor, BlobRef, PosBlob};
pub use builder::TreeBuilder;
pub use cache::NodeCache;
pub use cursor::TreeCursor;
pub use diff::{DiffEntry, DiffStats, MapDiff};
pub use list::PosList;
pub use map::{MapEdit, PosMap};
pub use merge::{merge_maps, MergeOutcome, MergePolicy, MergeReport};
pub use node::{IndexEntry, LeafEntry, Node, NodeError, TreeConfig};
pub use proof::{prove_key, verify_proof, MerkleProof, ProofError};
pub use verify::{verify_map, VerifyError, VerifyReport};

/// A reference to a POS-Tree: root node hash plus cached entry count.
///
/// Two trees with the same record set have the same `root` — that is the
/// structural-invariance property the whole system leans on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TreeRef {
    /// Hash of the root node's canonical encoding.
    pub root: Hash,
    /// Total number of leaf entries in the tree.
    pub count: u64,
}

impl TreeRef {
    /// Reference to a tree with the given root and count.
    pub fn new(root: Hash, count: u64) -> Self {
        TreeRef { root, count }
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}
