//! [`WriteBatch`]: atomic multi-key commits.
//!
//! A batch collects puts, compound map edits, and branch deletions across
//! any number of `(key, branch)` pairs, then commits them in one step:
//!
//! 1. every touched head stripe is locked in **stripe-index order**
//!    (deduplicated), the same deadlock-free discipline `merge` uses for
//!    its two stripes — so concurrent batches and merges can never wait on
//!    each other in a cycle;
//! 2. all new FNodes are built against the locked heads and staged;
//! 3. the staged chunks land in the store through a **single
//!    [`ChunkStore::put_batch`]** round-trip (one lock acquisition per
//!    shard, at most one fsync on a `FileStore`);
//! 4. every head is swung inside **one** ref-table write section — or, if
//!    any step failed, none are.
//!
//! Readers that look at multiple heads through [`ForkBase::heads`] (one
//! consistent read of the ref table) therefore observe either all of a
//! batch's updates or none of them: no torn multi-key states. The
//! already-written FNode chunks of a failed batch are unreferenced and
//! reclaimed by the next [`crate::gc::collect`].

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use forkbase_postree::{MapEdit, PosBlob, PosMap};
use forkbase_store::ChunkStore;
use forkbase_types::Value;
use parking_lot::MutexGuard;

use super::{expect_map, CommitResult, ForkBase, PutOptions};
use crate::error::{DbError, DbResult};
use crate::fnode::{self, FNode, Uid};
use std::sync::atomic::Ordering;

/// One staged operation of a [`WriteBatch`].
///
/// Options are staged behind an [`Arc`] interned per batch (see
/// [`WriteBatch::intern_opts`]): staging an op costs one refcount bump, not
/// three `String` clones, which is what made a 16-key MemStore batch lose
/// to sequential puts before.
enum BatchOp {
    /// Commit a value as the new head of `(key, opts.branch)`.
    Put {
        key: String,
        value: Value,
        opts: Arc<PutOptions>,
    },
    /// Chunk `content` into a blob value at commit time, then commit it.
    PutBlob {
        key: String,
        content: Bytes,
        opts: Arc<PutOptions>,
    },
    /// Apply map edits to the head value of `(key, opts.branch)`.
    MapEdits {
        key: String,
        edits: Vec<MapEdit>,
        opts: Arc<PutOptions>,
    },
    /// Delete a branch ref (versions remain, like `delete_branch`).
    DeleteBranch { key: String, branch: String },
}

impl BatchOp {
    fn key_branch(&self) -> (&str, &str) {
        match self {
            BatchOp::Put { key, opts, .. }
            | BatchOp::PutBlob { key, opts, .. }
            | BatchOp::MapEdits { key, opts, .. } => (key, &opts.branch),
            BatchOp::DeleteBranch { key, branch } => (key, branch),
        }
    }
}

/// Per-operation outcome of a committed [`WriteBatch`], in batch order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// A put/map-edit landed this commit.
    Committed(CommitResult),
    /// A branch ref was removed.
    Deleted {
        /// The key whose branch was deleted.
        key: String,
        /// The deleted branch.
        branch: String,
    },
}

impl BatchOutcome {
    /// The commit result, if this outcome was a commit.
    pub fn commit(&self) -> Option<&CommitResult> {
        match self {
            BatchOutcome::Committed(c) => Some(c),
            BatchOutcome::Deleted { .. } => None,
        }
    }
}

/// A collection of writes across many keys, committed atomically.
///
/// Build with [`ForkBase::write_batch`], stage operations, then
/// [`WriteBatch::commit`]. Operations on the **same** `(key, branch)`
/// chain within the batch: a later put's base is the earlier put's
/// freshly created version.
///
/// ```
/// use forkbase::{ForkBase, PutOptions};
/// use forkbase_store::MemStore;
/// use forkbase_types::Value;
///
/// let db = ForkBase::new(MemStore::new());
/// let mut batch = db.write_batch();
/// batch
///     .put("account/alice", Value::Int(90), &PutOptions::default())
///     .put("account/bob", Value::Int(110), &PutOptions::default());
/// let outcomes = batch.commit().unwrap();
/// assert_eq!(outcomes.len(), 2);
/// // Both heads moved together: a concurrent reader using `db.heads`
/// // sees either neither commit or both, never a torn transfer.
/// assert_eq!(
///     db.heads(&[("account/alice", "master"), ("account/bob", "master")])
///         .unwrap()
///         .len(),
///     2
/// );
/// ```
pub struct WriteBatch<'db, S> {
    db: &'db ForkBase<S>,
    ops: Vec<BatchOp>,
    /// Distinct option sets staged so far, most recent last. Almost every
    /// batch uses one (or very few) option sets, so staging an op is a
    /// short scan plus an `Arc` clone instead of cloning three `String`s.
    opts_pool: Vec<Arc<PutOptions>>,
}

/// How many recent distinct option sets [`WriteBatch::intern_opts`]
/// compares against before giving up and allocating a fresh `Arc`. Keeps
/// staging O(1) even for adversarial batches where every op carries
/// different options.
const OPTS_POOL_SCAN: usize = 8;

/// A fast, non-cryptographic string hasher (FxHash-style multiply-xor)
/// for the per-op pair index. SipHash (the `HashMap` default) costs more
/// than the lookup it guards on short keys; nothing here is
/// attacker-controlled state that outlives the batch.
#[derive(Default)]
struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl<S: ChunkStore> ForkBase<S> {
    /// Start collecting an atomic multi-key write batch.
    pub fn write_batch(&self) -> WriteBatch<'_, S> {
        WriteBatch {
            db: self,
            ops: Vec::new(),
            opts_pool: Vec::new(),
        }
    }
}

impl<'db, S: ChunkStore> WriteBatch<'db, S> {
    /// Intern `opts` behind an `Arc`: ops staged with the same options
    /// share one allocation instead of each cloning the strings.
    fn intern_opts(&mut self, opts: &PutOptions) -> Arc<PutOptions> {
        let pool = &mut self.opts_pool;
        if let Some(hit) = pool
            .iter()
            .rev()
            .take(OPTS_POOL_SCAN)
            .find(|o| ***o == *opts)
        {
            return Arc::clone(hit);
        }
        let interned = Arc::new(opts.clone());
        pool.push(Arc::clone(&interned));
        interned
    }

    /// Stage a `Put` of `value` on `(key, opts.branch)`.
    pub fn put(&mut self, key: impl Into<String>, value: Value, opts: &PutOptions) -> &mut Self {
        let opts = self.intern_opts(opts);
        self.ops.push(BatchOp::Put {
            key: key.into(),
            value,
            opts,
        });
        self
    }

    /// Stage a blob commit: `content` is chunked at commit time (under the
    /// GC gate, like [`ForkBase::put_blob`]).
    pub fn put_blob(
        &mut self,
        key: impl Into<String>,
        content: Bytes,
        opts: &PutOptions,
    ) -> &mut Self {
        let opts = self.intern_opts(opts);
        self.ops.push(BatchOp::PutBlob {
            key: key.into(),
            content,
            opts,
        });
        self
    }

    /// Stage a compound map edit against the head of `(key, opts.branch)`
    /// (read head value → apply edits → commit), like
    /// [`ForkBase::put_map_edits`].
    pub fn map_edits(
        &mut self,
        key: impl Into<String>,
        edits: Vec<MapEdit>,
        opts: &PutOptions,
    ) -> &mut Self {
        let opts = self.intern_opts(opts);
        self.ops.push(BatchOp::MapEdits {
            key: key.into(),
            edits,
            opts,
        });
        self
    }

    /// Stage a branch deletion.
    pub fn delete_branch(
        &mut self,
        key: impl Into<String>,
        branch: impl Into<String>,
    ) -> &mut Self {
        self.ops.push(BatchOp::DeleteBranch {
            key: key.into(),
            branch: branch.into(),
        });
        self
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch has no staged operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Commit every staged operation atomically; returns per-operation
    /// outcomes in batch order.
    ///
    /// All touched head stripes are acquired in index order, all new
    /// FNodes are staged through one [`ChunkStore::put_batch`], and every
    /// head swings inside a single ref-table write section — or none do,
    /// if any operation fails. See the module docs for the protocol.
    pub fn commit(self) -> DbResult<Vec<BatchOutcome>> {
        let db = self.db;
        let mut ops = self.ops;
        if ops.is_empty() {
            return Ok(Vec::new());
        }
        // Validate names before touching any lock.
        for op in &ops {
            let (key, branch) = op.key_branch();
            ForkBase::<S>::validate_name("key", key)?;
            ForkBase::<S>::validate_name("branch", branch)?;
        }

        let _gc = db.gc_gate.read();

        // Chunk blob contents BEFORE any head stripe is taken: chunking is
        // content-addressed and independent of heads, and a large blob
        // would otherwise stall every writer sharing a stripe with this
        // batch for the whole chunking run (the non-batch `put_blob` makes
        // the same choice). Must happen under the GC gate, so the freshly
        // written trees cannot be swept before the heads swing.
        for op in &mut ops {
            if let BatchOp::PutBlob { key, content, opts } = op {
                let blob = PosBlob::new(&db.store, db.cfg);
                let value = Value::Blob(blob.write_bytes(std::mem::take(content))?);
                *op = BatchOp::Put {
                    key: std::mem::take(key),
                    value,
                    opts: Arc::clone(opts),
                };
            }
        }

        // Detach map-edit lists before the ops are (immutably) borrowed
        // for the rest of the commit: `PosMap::apply` consumes its edits,
        // and cloning a large edit list at commit time would reintroduce
        // exactly the per-op copying this path avoids. Only allocated when
        // a map-edit op exists, so the common all-puts batch skips it.
        let mut edit_lists: Vec<Option<Vec<MapEdit>>> = Vec::new();
        if ops.iter().any(|op| matches!(op, BatchOp::MapEdits { .. })) {
            edit_lists = ops
                .iter_mut()
                .map(|op| match op {
                    BatchOp::MapEdits { edits, .. } => Some(std::mem::take(edits)),
                    _ => None,
                })
                .collect();
        }

        // Index the distinct (key, branch) pairs once (cheap FxHash — this
        // runs per op), so the per-op work below is a vector index instead
        // of a repeated lookup. `distinct` borrows straight from the ops;
        // no owned pair strings exist anywhere in the commit path — the op
        // loop encodes versions from borrowed parts and the final
        // ref-table write allocates only for genuinely new keys/branches.
        let (distinct, op_pair): (Vec<(&str, &str)>, Vec<usize>) = {
            let mut pair_index: HashMap<(&str, &str), usize, FxBuildHasher> =
                HashMap::with_capacity_and_hasher(ops.len(), FxBuildHasher::default());
            let mut distinct: Vec<(&str, &str)> = Vec::with_capacity(ops.len());
            let op_pair: Vec<usize> = ops
                .iter()
                .map(|op| {
                    let pair = op.key_branch();
                    *pair_index.entry(pair).or_insert_with(|| {
                        distinct.push(pair);
                        distinct.len() - 1
                    })
                })
                .collect();
            (distinct, op_pair)
        };

        // Lock every touched stripe in index order (deduplicated): the
        // same total order merge uses, so no lock cycle can form.
        let mut stripes: Vec<usize> = distinct
            .iter()
            .map(|(key, branch)| ForkBase::<S>::head_stripe(key, branch))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        let _guards: Vec<MutexGuard<'_, ()>> =
            stripes.iter().map(|&i| db.head_locks[i].lock()).collect();

        // One consistent read of the current heads (the stripes are held,
        // so these cannot move under the batch).
        let (mut heads, key_existed): (Vec<Option<Uid>>, Vec<bool>) = {
            let branches = db.branches.read();
            distinct
                .iter()
                .map(|(key, branch)| {
                    let kb = branches.get(*key);
                    (kb.and_then(|m| m.get(*branch)).copied(), kb.is_some())
                })
                .unzip()
        };

        // Build every new version against the locked heads. The ops are
        // only borrowed: FNode encodings are produced straight from
        // borrowed parts ([`fnode::encode_parts_with_uid`]) — no owned
        // `FNode` is materialized and no key/author/message string is
        // cloned per op. `heads` tracks in-batch chaining: a later op on
        // the same (key, branch) bases on the earlier op's version; `None`
        // marks a (possibly in-batch) deleted or absent branch.
        let mut keys_created: Vec<usize> = Vec::new(); // pair indices of new keys put to
        let mut staged_chunks: Vec<(Uid, Bytes)> = Vec::with_capacity(ops.len());
        let mut outcomes: Vec<BatchOutcome> = Vec::with_capacity(ops.len());
        // Per-pair value of the latest in-batch commit: later map-edit ops
        // on the same branch must read the staged head's value from here —
        // its FNode chunk is not in the store until the put_batch below.
        // Only tracked for pairs some map-edit op actually targets, so the
        // common all-puts batch never clones a value.
        let mut staged_values: Vec<Option<Value>> = vec![None; distinct.len()];
        let mut needs_value: Vec<bool> = vec![false; distinct.len()];
        for (op, &p) in ops.iter().zip(&op_pair) {
            if matches!(op, BatchOp::MapEdits { .. }) {
                needs_value[p] = true;
            }
        }

        // Classify a missing head the way `delete_branch` does: missing
        // key vs missing branch, where a key counts as present if an
        // earlier batch op created it.
        let missing_head_err =
            |created: &[usize], pair: usize, key: &str, branch: &str| -> DbError {
                if !key_existed[pair] && !created.iter().any(|&p| distinct[p].0 == key) {
                    DbError::NoSuchKey(key.to_string())
                } else {
                    DbError::NoSuchBranch {
                        key: key.to_string(),
                        branch: branch.to_string(),
                    }
                }
            };

        for ((op_idx, op), &pair) in ops.iter().enumerate().zip(&op_pair) {
            match op {
                BatchOp::DeleteBranch { key, branch } => {
                    if heads[pair].is_none() {
                        return Err(missing_head_err(&keys_created, pair, key, branch));
                    }
                    heads[pair] = None;
                    staged_values[pair] = None;
                    outcomes.push(BatchOutcome::Deleted {
                        key: key.clone(),
                        branch: branch.clone(),
                    });
                }
                BatchOp::Put { key, value, opts } => {
                    let (uid, branch) =
                        commit_one(db, &mut staged_chunks, key, value, heads[pair], opts);
                    if needs_value[pair] {
                        staged_values[pair] = Some(value.clone());
                    }
                    heads[pair] = Some(uid);
                    if !key_existed[pair] {
                        keys_created.push(pair);
                    }
                    outcomes.push(BatchOutcome::Committed(CommitResult { uid, branch }));
                }
                BatchOp::PutBlob { .. } => {
                    unreachable!("blob ops were rewritten to puts before locking")
                }
                BatchOp::MapEdits { key, opts, .. } => {
                    if heads[pair].is_none() {
                        return Err(missing_head_err(&keys_created, pair, key, &opts.branch));
                    }
                    // Base value: the in-batch staged head if one exists
                    // (its FNode is not in the store yet), else the stored
                    // head's.
                    let base_value = match &staged_values[pair] {
                        Some(v) => v.clone(),
                        None => FNode::load(&db.store, &heads[pair].expect("checked above"))?.value,
                    };
                    let tree = expect_map(&base_value)?;
                    let edits = edit_lists[op_idx].take().expect("detached in pre-pass");
                    let updated = PosMap::open(&db.store, db.cfg.node, tree).apply(edits)?;
                    let value = match base_value {
                        Value::Set(_) => Value::Set(updated.tree()),
                        _ => Value::Map(updated.tree()),
                    };
                    let (uid, branch) =
                        commit_one(db, &mut staged_chunks, key, &value, heads[pair], opts);
                    staged_values[pair] = Some(value);
                    heads[pair] = Some(uid);
                    outcomes.push(BatchOutcome::Committed(CommitResult { uid, branch }));
                }
            }
        }

        // One store round-trip for every new FNode (value trees were
        // batched by their own builders above).
        db.store.put_batch(staged_chunks)?;

        // The commit point: swing every head (or drop every deleted ref)
        // inside a single write section. A reader holding the ref table —
        // `heads`, `dump_refs` — sees all of these updates or none.
        // Steady-state head swings mutate in place; owned strings are
        // allocated only for keys/branches that did not exist before.
        let mut branches = db.branches.write();
        for (&(key, branch), head) in distinct.iter().zip(&heads) {
            let key_emptied = match (head, branches.get_mut(key)) {
                (Some(uid), Some(kb)) => {
                    if let Some(slot) = kb.get_mut(branch) {
                        *slot = *uid;
                    } else {
                        kb.insert(branch.to_string(), *uid);
                    }
                    false
                }
                (Some(uid), None) => {
                    branches.insert(
                        key.to_string(),
                        BTreeMap::from([(branch.to_string(), *uid)]),
                    );
                    false
                }
                (None, Some(kb)) => {
                    kb.remove(branch);
                    kb.is_empty()
                }
                (None, None) => false,
            };
            // Same rule as `delete_branch`: a key with no branches left
            // ceases to exist, so `list_keys` never reports phantom names
            // after branch-heavy churn (e.g. the fork-sandbox reaper).
            if key_emptied {
                branches.remove(key);
            }
        }
        Ok(outcomes)
    }
}

/// Encode one commit version against `head` straight from borrowed parts
/// — no owned `FNode`, no string clones — stage its chunk, and return the
/// uid plus the target branch for the outcome. Byte-identical to what
/// `FNode::encode_with_uid` would produce (pinned by
/// `fnode::tests::borrowed_encoding_is_byte_identical`).
fn commit_one<S: ChunkStore>(
    db: &ForkBase<S>,
    staged_chunks: &mut Vec<(Uid, Bytes)>,
    key: &str,
    value: &Value,
    head: Option<Uid>,
    opts: &PutOptions,
) -> (Uid, String) {
    let base;
    let bases: &[Uid] = match head {
        Some(uid) => {
            base = [uid];
            &base
        }
        None => &[],
    };
    let (uid, bytes) = fnode::encode_parts_with_uid(
        key,
        value,
        bases,
        &opts.author,
        &opts.message,
        db.clock.fetch_add(1, Ordering::Relaxed),
    );
    staged_chunks.push((uid, Bytes::from(bytes)));
    (uid, opts.branch.clone())
}
