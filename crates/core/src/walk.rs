//! The one history walk. GC's mark, bundle export and import,
//! `verify_branch` and the merge-base search all follow the derivation
//! DAG and descend value trees through these two functions; they differ
//! only in what they do per version and where they stop.
//!
//! - [`versions`] visits the FNodes reachable from its roots through
//!   `bases`, breadth-first: the roots in order, then level by level, each
//!   FNode's bases in listed order. The merge base is the first common
//!   version this order meets from `theirs`, which need not be a lowest
//!   common ancestor (ROADMAP § 20).
//! - [`pages`] visits a value's pages breadth-first from the root: map,
//!   set and list pages down to their leaves, blob index pages down to
//!   depth 1. A blob's raw chunks (depth 0) are visited but never read.
//!
//! The caller owns the seen set: a walk skips every hash already in it and
//! inserts each hash it visits, so one set can span many walks (GC's live
//! set spans them all, and a page shared by many versions is read once).
//! Both walks read the store, never the node cache: each chunk is fetched
//! and hashed against its address, and nothing is added to the cache.

use std::collections::{HashSet, VecDeque};

use forkbase_crypto::Hash;
use forkbase_postree::node::Node;
use forkbase_store::ChunkStore;
use forkbase_types::Value;

use crate::error::DbResult;
use crate::fnode::{FNode, Uid};

/// Visit each FNode reachable from `roots` and not yet in `seen`, once.
/// `visit` gets the uid, the FNode and `seen` (to hand on to [`pages`]);
/// returning `Some(uid)` ends the walk with that uid.
pub(crate) fn versions<S: ChunkStore>(
    store: &S,
    roots: impl IntoIterator<Item = Uid>,
    seen: &mut HashSet<Hash>,
    mut visit: impl FnMut(&Uid, &FNode, &mut HashSet<Hash>) -> DbResult<Option<Uid>>,
) -> DbResult<Option<Uid>> {
    let mut queue: VecDeque<Uid> = roots.into_iter().collect();
    while let Some(uid) = queue.pop_front() {
        if !seen.insert(uid) {
            continue;
        }
        let fnode = FNode::load(store, &uid)?;
        if let Some(found) = visit(&uid, &fnode, seen)? {
            return Ok(Some(found));
        }
        queue.extend(fnode.bases);
    }
    Ok(None)
}

/// Visit each page of `value`'s trees not yet in `seen`, once.
pub(crate) fn pages<S: ChunkStore>(
    store: &S,
    value: &Value,
    seen: &mut HashSet<Hash>,
    mut visit: impl FnMut(&Hash),
) -> DbResult<()> {
    // A page and, for a blob, its height above the raw chunks.
    let root = match value {
        Value::Map(t) | Value::Set(t) | Value::List(t) => (t.root, None),
        Value::Blob(r) => (r.root, Some(r.depth)),
        _ => return Ok(()),
    };
    let mut queue = VecDeque::from([root]);
    while let Some((hash, depth)) = queue.pop_front() {
        if !seen.insert(hash) {
            continue;
        }
        visit(&hash);
        if depth == Some(0) {
            continue; // a raw blob chunk
        }
        if let Node::Index { children, .. } = Node::load(store, &hash)? {
            let depth = depth.map(|d| d - 1);
            queue.extend(children.into_iter().map(|c| (c.hash, depth)));
        }
    }
    Ok(())
}
