//! [`WriteBatch`]: atomic multi-key commits, and the one writer of the ref
//! table: the single-op verbs commit one-op batches (a rename is a branch
//! creation plus a deletion), and `merge` and the verified imports (bundle,
//! replica, refs file, rebalance's forget) land through the same `publish`.
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
//! A `ReplaceKey` (replica import, rebalance's forget) replaces every
//! branch of its key, even one created while it waits (forks add branches
//! at any time), so a batch holding one locks **every** stripe, in order,
//! and reads the key's branch set under them: rare ops, never on a
//! primary's write path, so no retry loop or per-key lock rule is needed.
//!
//! Readers that look at multiple heads through [`ForkBase::heads`] (one
//! consistent read of the ref table) therefore observe either all of a
//! batch's updates or none of them: no torn multi-key states. The
//! already-written FNode chunks of a failed batch are unreferenced and
//! reclaimed by the next [`crate::gc::collect`].

use std::collections::{BTreeMap, HashMap};
use std::iter;
use std::sync::Arc;

use bytes::Bytes;
use forkbase_postree::{MapEdit, PosBlob};
use forkbase_store::ChunkStore;
use forkbase_types::Value;
use parking_lot::{MutexGuard, RwLockReadGuard};

use super::{expect_map, CommitResult, ForkBase, PutOptions, HEAD_STRIPES};
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
    /// Create `branch` at `at`. Staged only by the branch verbs and the
    /// imports: the public [`WriteBatch`] surface has no way to stage it.
    Branch {
        key: String,
        branch: String,
        at: BranchAt,
    },
    /// Make `refs`, verified versions of `key`, its whole branch set.
    ReplaceKey {
        key: String,
        refs: BTreeMap<String, Uid>,
    },
}

/// Where a [`BatchOp::Branch`] points its new branch.
pub(crate) enum BranchAt {
    /// A version, which must load as one of the key's.
    Version(Uid),
    /// Another branch's head, read under that branch's stripe.
    Head(String),
    /// A version of the key the caller verified (imports): not reloaded,
    /// and an existing head equal to it is accepted.
    Verified(Uid),
}

impl BatchOp {
    /// The `(key, branch)` whose head the op moves, then the one whose head
    /// it reads: the same pair, unless a `Branch` op copies another head.
    fn pairs(&self) -> [(&str, &str); 2] {
        match self {
            BatchOp::Put { key, opts, .. }
            | BatchOp::PutBlob { key, opts, .. }
            | BatchOp::MapEdits { key, opts, .. } => [(key, &opts.branch); 2],
            BatchOp::Branch {
                key,
                branch,
                at: BranchAt::Head(from),
            } => [(key, branch), (key, from)],
            BatchOp::DeleteBranch { key, branch } | BatchOp::Branch { key, branch, .. } => {
                [(key, branch); 2]
            }
            // Never paired: it is lowered first (`lower_key_wide`).
            BatchOp::ReplaceKey { key, .. } => [(key, ""); 2],
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

    /// Stage the creation of `branch` at `at` (the branch verbs and the
    /// imports).
    pub(crate) fn branch_at(&mut self, key: &str, branch: &str, at: BranchAt) -> &mut Self {
        self.ops.push(BatchOp::Branch {
            key: key.to_string(),
            branch: branch.to_string(),
            at,
        });
        self
    }

    /// Stage `ReplaceKey` (no refs forgets the key); at most one per key.
    pub(crate) fn replace_key(&mut self, key: &str, refs: BTreeMap<String, Uid>) -> &mut Self {
        self.ops.push(BatchOp::ReplaceKey {
            key: key.to_string(),
            refs,
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
        // Validate names before touching any lock.
        for op in &self.ops {
            let [(key, branch), _] = op.pairs();
            ForkBase::<S>::validate_name("key", key)?;
            ForkBase::<S>::validate_name("branch", branch)?;
        }
        self.commit_unchecked()
    }

    /// [`Self::commit`] without the name checks: the branch verbs keep the
    /// checks (and error order) they have always had.
    pub(crate) fn commit_unchecked(self) -> DbResult<Vec<BatchOutcome>> {
        let gc = self.db.gc_gate.read();
        self.commit_gated(&gc)
    }

    /// The committer, under the caller's shared hold of the GC gate: the
    /// imports hold it across verify and commit, and it is not re-entrant.
    pub(crate) fn commit_gated(self, _gc: &RwLockReadGuard<'_, ()>) -> DbResult<Vec<BatchOutcome>> {
        let (db, mut ops) = (self.db, self.ops);
        if ops.is_empty() {
            return Ok(Vec::new());
        }

        // Chunk blob contents BEFORE any head stripe is taken: chunking is
        // content-addressed and independent of heads, and a large blob
        // would otherwise stall every writer sharing a stripe with this
        // batch for the whole chunking run. Must happen under the GC gate,
        // so the freshly written trees cannot be swept before the heads
        // swing.
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

        // Lock every touched stripe in index order (deduplicated): the
        // same total order merge uses, so no lock cycle can form. A
        // key-wide batch locks all of them (module docs).
        let key_wide = ops
            .iter()
            .any(|op| matches!(op, BatchOp::ReplaceKey { .. }));
        let mut stripes: Vec<usize> = if key_wide {
            (0..HEAD_STRIPES).collect()
        } else {
            let pairs = ops.iter().map(BatchOp::pairs);
            pairs
                .flat_map(|[pair, from]| iter::once(pair).chain(Some(from).filter(|&f| f != pair)))
                .map(|(key, branch)| ForkBase::<S>::head_stripe(key, branch))
                .collect()
        };
        stripes.sort_unstable();
        stripes.dedup();
        let _guards: Vec<MutexGuard<'_, ()>> =
            stripes.iter().map(|&i| db.head_locks[i].lock()).collect();
        if key_wide {
            ops = lower_key_wide(ops, &db.branches.read());
        }

        // Detach the edit lists `PosMap::apply` consumes before the ops are
        // borrowed for the rest of the commit: cloning them at commit time
        // would copy every edit.
        let mut edit_lists: Vec<Vec<MapEdit>> = ops
            .iter_mut()
            .map(|op| match op {
                BatchOp::MapEdits { edits, .. } => std::mem::take(edits),
                _ => Vec::new(),
            })
            .collect();

        // Index the distinct (key, branch) pairs once (cheap FxHash — this
        // runs per op), so the per-op work below is a vector index instead
        // of a repeated lookup. `distinct` borrows straight from the ops:
        // the commit path owns no pair strings.
        let (distinct, op_pairs): (Vec<(&str, &str)>, Vec<[usize; 2]>) = {
            let mut pair_index: HashMap<(&str, &str), usize, FxBuildHasher> =
                HashMap::with_capacity_and_hasher(ops.len(), FxBuildHasher::default());
            let mut distinct: Vec<(&str, &str)> = Vec::with_capacity(ops.len());
            let op_pairs = ops
                .iter()
                .map(|op| {
                    op.pairs().map(|pair| {
                        *pair_index.entry(pair).or_insert_with(|| {
                            distinct.push(pair);
                            distinct.len() - 1
                        })
                    })
                })
                .collect();
            (distinct, op_pairs)
        };

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

        // Build every new version against the locked heads, from borrowed
        // parts (`commit_one`). `heads` tracks in-batch chaining: a later op
        // on the same pair bases on the earlier op's version, and `None`
        // marks a (possibly in-batch) deleted or absent branch. A pair's
        // in-batch head is not in the store until `publish`; `staged_at`
        // says where in `staged` it is.
        let mut staged: Vec<(Uid, Bytes)> = Vec::with_capacity(ops.len());
        let mut staged_at: Vec<Option<usize>> = vec![None; distinct.len()];
        let mut outcomes: Vec<BatchOutcome> = Vec::with_capacity(ops.len());
        let mut keys_created: Vec<usize> = Vec::new(); // pairs whose put created their key

        // A key exists if it did when the stripes were taken or an earlier
        // op put to it; a missing head is a missing key or a missing branch.
        let key_exists = |created: &[usize], pair: usize| {
            key_existed[pair] || created.iter().any(|&p| distinct[p].0 == distinct[pair].0)
        };
        let missing_head_err = |created: &[usize], pair: usize| -> DbError {
            let (key, branch) = distinct[pair];
            if key_exists(created, pair) {
                DbError::NoSuchBranch {
                    key: key.to_string(),
                    branch: branch.to_string(),
                }
            } else {
                DbError::NoSuchKey(key.to_string())
            }
        };

        for ((op_idx, op), &[pair, from]) in ops.iter().enumerate().zip(&op_pairs) {
            let outcome = match op {
                BatchOp::DeleteBranch { key, branch } => {
                    if heads[pair].take().is_none() {
                        return Err(missing_head_err(&keys_created, pair));
                    }
                    BatchOutcome::Deleted {
                        key: key.clone(),
                        branch: branch.clone(),
                    }
                }
                BatchOp::Put { key, value, opts } => {
                    if !key_existed[pair] {
                        keys_created.push(pair);
                    }
                    staged_at[pair] = Some(staged.len());
                    let c = commit_one(db, &mut staged, key, value, heads[pair].as_slice(), opts);
                    heads[pair] = Some(c.uid);
                    BatchOutcome::Committed(c)
                }
                BatchOp::PutBlob { .. } | BatchOp::ReplaceKey { .. } => {
                    return Err(DbError::InvalidInput(
                        "an op reached the head swings unlowered".into(),
                    ))
                }
                BatchOp::MapEdits { key, opts, .. } => {
                    let Some(head) = heads[pair] else {
                        return Err(missing_head_err(&keys_created, pair));
                    };
                    let base_value = match staged_at[pair] {
                        Some(i) => FNode::decode(&staged[i].1)?.value,
                        None => FNode::load(&db.store, &head)?.value,
                    };
                    let tree = expect_map(&base_value)?;
                    let updated = db
                        .map(tree)
                        .apply(std::mem::take(&mut edit_lists[op_idx]))?;
                    let value = match base_value {
                        Value::Set(_) => Value::Set(updated.tree()),
                        _ => Value::Map(updated.tree()),
                    };
                    staged_at[pair] = Some(staged.len());
                    let c = commit_one(db, &mut staged, key, &value, &[head], opts);
                    heads[pair] = Some(c.uid);
                    BatchOutcome::Committed(c)
                }
                BatchOp::Branch { key, branch, at } => {
                    let verified = matches!(at, BranchAt::Verified(_));
                    let (at, at_staged) = match at {
                        BranchAt::Version(uid) => {
                            let fnode = FNode::load(&db.store, uid)?;
                            if fnode.key != *key {
                                return Err(DbError::InvalidInput(format!(
                                    "version {uid} belongs to key {:?}, not {key:?}",
                                    fnode.key
                                )));
                            }
                            (Some(*uid), None)
                        }
                        BranchAt::Head(_) => (heads[from], staged_at[from]),
                        BranchAt::Verified(uid) => (Some(*uid), None),
                    };
                    // An existing branch implies its key; a version needs
                    // its key to exist, unless it is an import's, which
                    // brings its key along.
                    if heads[pair].is_some_and(|head| !verified || at != Some(head)) {
                        return Err(DbError::BranchExists {
                            key: key.clone(),
                            branch: branch.clone(),
                        });
                    }
                    let Some(uid) = at.filter(|_| verified || key_exists(&keys_created, pair))
                    else {
                        return Err(missing_head_err(&keys_created, from));
                    };
                    heads[pair] = Some(uid);
                    staged_at[pair] = at_staged;
                    BatchOutcome::Committed(CommitResult {
                        uid,
                        branch: branch.clone(),
                    })
                }
            };
            outcomes.push(outcome);
        }
        db.publish(staged, &distinct, &heads)?;
        Ok(outcomes)
    }

    /// Commit a batch of one put, blob put or map edit and return its
    /// commit: the single-op verbs.
    pub(super) fn commit_single(self) -> DbResult<CommitResult> {
        match self.commit()?.pop() {
            Some(BatchOutcome::Committed(c)) => Ok(c),
            other => Err(DbError::InvalidInput(format!(
                "a one-op commit yielded {other:?}"
            ))),
        }
    }
}

impl<S: ChunkStore> ForkBase<S> {
    /// The commit point of every head move: land the staged FNodes through
    /// one [`ChunkStore::put_batch`], then set each pair's head (`None`
    /// drops the ref) inside a single write section. A reader holding the
    /// ref table — `heads`, `dump_refs` — sees all of these updates or
    /// none. The caller holds the GC gate and the stripe of every pair.
    pub(super) fn publish(
        &self,
        staged: Vec<(Uid, Bytes)>,
        pairs: &[(&str, &str)],
        heads: &[Option<Uid>],
    ) -> DbResult<()> {
        if !staged.is_empty() {
            self.store.put_batch(staged)?;
        }
        // Steady-state head swings mutate in place; owned strings are
        // allocated only for keys/branches that did not exist before.
        let mut branches = self.branches.write();
        for (&(key, branch), head) in pairs.iter().zip(heads) {
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
            // Deleting the last branch deletes the key: a branchless key is
            // unreachable through every verb, and leaving the empty entry
            // would let high-churn branch users (the fork-sandbox reaper in
            // particular) grow `list_keys` with phantom names forever.
            if key_emptied {
                branches.remove(key);
            }
        }
        Ok(())
    }
}

/// Lower each `ReplaceKey` into the ops it stands for, every stripe held:
/// delete each branch its key has in `table`, then create each ref.
fn lower_key_wide(
    ops: Vec<BatchOp>,
    table: &HashMap<String, BTreeMap<String, Uid>>,
) -> Vec<BatchOp> {
    let mut lowered = Vec::with_capacity(ops.len());
    for op in ops {
        let BatchOp::ReplaceKey { key, refs } = op else {
            lowered.push(op);
            continue;
        };
        for branch in table.get(&key).into_iter().flat_map(BTreeMap::keys) {
            let (key, branch) = (key.clone(), branch.clone());
            lowered.push(BatchOp::DeleteBranch { key, branch });
        }
        for (branch, uid) in refs {
            let (key, at) = (key.clone(), BranchAt::Verified(uid));
            lowered.push(BatchOp::Branch { key, branch, at });
        }
    }
    lowered
}

/// Encode one version of `key` on `bases` straight from borrowed parts —
/// no owned `FNode`, no string clones — stage its chunk, and return the
/// commit it makes on `opts.branch`. Byte-identical to what
/// `FNode::encode_with_uid` would produce (pinned by
/// `fnode::tests::borrowed_encoding_is_byte_identical`).
pub(super) fn commit_one<S: ChunkStore>(
    db: &ForkBase<S>,
    staged: &mut Vec<(Uid, Bytes)>,
    key: &str,
    value: &Value,
    bases: &[Uid],
    opts: &PutOptions,
) -> CommitResult {
    let (uid, bytes) = fnode::encode_parts_with_uid(
        key,
        value,
        bases,
        &opts.author,
        &opts.message,
        db.clock.fetch_add(1, Ordering::Relaxed),
    );
    staged.push((uid, Bytes::from(bytes)));
    CommitResult {
        uid,
        branch: opts.branch.clone(),
    }
}
