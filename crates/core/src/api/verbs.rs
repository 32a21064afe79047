//! The Git-like verb set of the paper's API layer (Fig. 1):
//! `Put Get List Branch Merge Select Stat Export Diff Head Rename Latest
//! Meta`.
//!
//! Every read verb here is a thin wrapper: point reads resolve a
//! [`Snapshot`](super::Snapshot) and delegate, and scans (`map_entries`,
//! `map_select`, `list_elements`, `blob_read`) drive the streaming cursors
//! of [`super::cursor_ext`]. Every write verb commits through
//! [`super::batch`], the one code path that moves a branch head.

use std::collections::HashSet;
use std::io::Write;

use bytes::Bytes;
use forkbase_postree::merge::{merge_maps, MergePolicy};
use forkbase_postree::{MapDiff, MapEdit, PosBlob, PosList, PosMap};
use forkbase_store::ChunkStore;
use forkbase_types::Value;

use super::batch::{commit_one, BranchAt};
use super::{cursor_ext, expect_map};
use super::{CommitResult, ForkBase, GetResult, HistoryEntry, PutOptions, VersionSpec};
use crate::error::{DbError, DbResult};
use crate::fnode::{FNode, Uid};
use crate::walk;

/// Differences between two versions of a key.
#[derive(Clone, Debug)]
pub enum ValueDiff {
    /// The versions hold identical values.
    Identical,
    /// Primitive (or type-changed) values; shown whole.
    Primitive {
        /// Value on the "from" side.
        from: Value,
        /// Value on the "to" side.
        to: Value,
    },
    /// Entry-level differences of map/set values.
    Map(MapDiff),
    /// Chunk-level similarity summary of blob/list values.
    Chunked {
        /// Byte (blob) or element (list) count on the "from" side.
        from_len: u64,
        /// Byte or element count on the "to" side.
        to_len: u64,
        /// Chunks of "from" also present in "to".
        shared_chunks: u64,
        /// Bytes of "from" shared with "to".
        shared_bytes: u64,
        /// Total chunks on the "from" side.
        from_chunks: u64,
        /// Total chunks on the "to" side.
        to_chunks: u64,
    },
}

/// How `theirs` relates to `ours` (see `ForkBase::ancestry`), with the
/// merge base where one was met.
enum Ancestry {
    /// `theirs` is `ours` or one of its ancestors.
    Contained,
    /// `ours` is an ancestor of `theirs`.
    FastForward(Option<Uid>),
    /// Neither contains the other.
    Diverged(Option<Uid>),
}

impl ValueDiff {
    /// Whether the two versions were identical.
    pub fn is_identical(&self) -> bool {
        matches!(self, ValueDiff::Identical)
    }
}

impl<S: ChunkStore> ForkBase<S> {
    // ------------------------------------------------------------------
    // Core verbs
    // ------------------------------------------------------------------

    /// `Put`: commit `value` as the new head of `opts.branch`, creating the
    /// branch if needed. Returns the new version uid.
    ///
    /// Commits to distinct `(key, branch)` pairs proceed in parallel;
    /// commits to the same branch serialize on its head-lock stripe.
    pub fn put(&self, key: &str, value: Value, opts: &PutOptions) -> DbResult<CommitResult> {
        let mut batch = self.write_batch();
        batch.put(key, value, opts);
        batch.commit_single()
    }

    /// Compound commit: chunk `content` into a `Blob` value and commit it
    /// in one step. The whole pipeline — content-defined chunking, batched
    /// chunk stores, head update — runs under a single GC gate, so it is
    /// safe against a concurrent [`crate::gc::collect`], unlike a separate
    /// [`Self::new_blob_bytes`] + [`Self::put`] sequence.
    pub fn put_blob(&self, key: &str, content: Bytes, opts: &PutOptions) -> DbResult<CommitResult> {
        let mut batch = self.write_batch();
        batch.put_blob(key, content, opts);
        batch.commit_single()
    }

    /// `Get`: the value at a branch head.
    pub fn get(&self, key: &str, branch: &str) -> DbResult<GetResult> {
        Ok(self
            .snapshot(key, &VersionSpec::Branch(branch.to_string()))?
            .into_get_result())
    }

    /// `Get` by explicit version uid (any historical version).
    pub fn get_version(&self, uid: &Uid) -> DbResult<GetResult> {
        Ok(self.snapshot_version(uid)?.into_get_result())
    }

    /// `Meta`: commit metadata of a version.
    pub fn meta(&self, uid: &Uid) -> DbResult<HistoryEntry> {
        Ok(self.snapshot_version(uid)?.meta())
    }

    /// `Branch`: create `new_branch` pointing at the head of `from_branch`.
    pub fn branch(&self, key: &str, from_branch: &str, new_branch: &str) -> DbResult<()> {
        Self::validate_name("branch", new_branch)?;
        // A missing source outranks an existing target, and the source
        // head must load; the commit re-reads it under its stripe.
        FNode::load(&self.store, &self.head(key, from_branch)?)?;
        let mut batch = self.write_batch();
        batch.branch_at(key, new_branch, BranchAt::Head(from_branch.to_string()));
        batch.commit_unchecked().map(drop)
    }

    /// `Branch` from an explicit historical version.
    pub fn branch_from_version(&self, key: &str, uid: &Uid, new_branch: &str) -> DbResult<()> {
        Self::validate_name("branch", new_branch)?;
        let mut batch = self.write_batch();
        batch.branch_at(key, new_branch, BranchAt::Version(*uid));
        batch.commit_unchecked().map(drop)
    }

    /// `Rename`: rename a branch.
    pub fn rename_branch(&self, key: &str, old: &str, new: &str) -> DbResult<()> {
        Self::validate_name("branch", new)?;
        let mut batch = self.write_batch();
        batch
            .branch_at(key, new, BranchAt::Head(old.to_string()))
            .delete_branch(key, old);
        batch.commit_unchecked().map(drop)
    }

    /// Delete a branch (the versions remain; only the ref goes away).
    pub fn delete_branch(&self, key: &str, branch: &str) -> DbResult<()> {
        let mut batch = self.write_batch();
        batch.delete_branch(key, branch);
        batch.commit_unchecked().map(drop)
    }

    /// Walk history from a version, following first parents.
    pub fn history(&self, key: &str, spec: &VersionSpec) -> DbResult<Vec<HistoryEntry>> {
        let mut uid = self.resolve(key, spec)?;
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        loop {
            if !seen.insert(uid) {
                return Err(DbError::TamperDetected(format!(
                    "cycle in version history at {uid}"
                )));
            }
            let entry = self.meta(&uid)?;
            let next = entry.bases.first().copied();
            out.push(entry);
            match next {
                Some(parent) => uid = parent,
                None => break,
            }
        }
        Ok(out)
    }

    /// Produce a Merkle proof that `entry_key` maps to its value (or is
    /// absent) in the map value at `spec`. A light client holding only the
    /// version uid can check the result with [`ForkBase::verify_entry_proof`].
    pub fn prove_entry(
        &self,
        key: &str,
        spec: &VersionSpec,
        entry_key: &[u8],
    ) -> DbResult<(forkbase_postree::MerkleProof, Uid)> {
        let snap = self.snapshot(key, spec)?;
        let proof = snap.prove_entry(entry_key)?;
        Ok((proof, snap.uid()))
    }

    /// Light-client verification: given a trusted version `uid`, check an
    /// entry proof without trusting the store. Fetches only the FNode (hash
    /// checked against `uid`) and replays the proof against the value root.
    pub fn verify_entry_proof(
        &self,
        uid: &Uid,
        entry_key: &[u8],
        proof: &forkbase_postree::MerkleProof,
    ) -> DbResult<Option<Bytes>> {
        let fnode = FNode::load(&self.store, uid)?; // authenticated by uid
        let tree = expect_map(&fnode.value)?;
        forkbase_postree::verify_proof(&tree.root, entry_key, proof)
            .map_err(|e| DbError::TamperDetected(e.to_string()))
    }

    // ------------------------------------------------------------------
    // Collection value constructors and accessors
    // ------------------------------------------------------------------

    /// Build a `Map` value from key/value pairs.
    ///
    /// The returned value is unreferenced until committed with
    /// [`Self::put`]; if a concurrent [`crate::gc::collect`] may run, use a
    /// compound verb ([`Self::put_map_edits`], [`Self::put_blob`]) instead
    /// of a two-step construct-then-put (see README "Concurrency model").
    /// The same caveat applies to every `new_*` constructor below.
    pub fn new_map(&self, pairs: Vec<(Bytes, Bytes)>) -> DbResult<Value> {
        let map = PosMap::build_from_pairs(&self.store, self.cfg.node, pairs)?;
        Ok(Value::Map(map.tree()))
    }

    /// Build a `Set` value from members.
    pub fn new_set(&self, members: Vec<Bytes>) -> DbResult<Value> {
        let pairs = members.into_iter().map(|m| (m, Bytes::new())).collect();
        let map = PosMap::build_from_pairs(&self.store, self.cfg.node, pairs)?;
        Ok(Value::Set(map.tree()))
    }

    /// Build a `List` value from elements.
    pub fn new_list(&self, elements: Vec<Bytes>) -> DbResult<Value> {
        let list = PosList::build(&self.store, self.cfg.node, elements)?;
        Ok(Value::List(list.tree()))
    }

    /// Build a `Blob` value from raw content (copies once; prefer
    /// [`Self::new_blob_bytes`] when a `Bytes` is already at hand).
    pub fn new_blob(&self, content: &[u8]) -> DbResult<Value> {
        self.new_blob_bytes(Bytes::copy_from_slice(content))
    }

    /// Build a `Blob` value from shared content, zero-copy: every stored
    /// chunk is a slice view of `content`, and boundary detection uses the
    /// bulk scanner instead of the per-byte state machine.
    pub fn new_blob_bytes(&self, content: Bytes) -> DbResult<Value> {
        let blob = PosBlob::new(&self.store, self.cfg);
        Ok(Value::Blob(blob.write_bytes(content)?))
    }

    /// Look up one entry of a `Map` value.
    pub fn map_get(&self, value: &Value, entry_key: &[u8]) -> DbResult<Option<Bytes>> {
        let tree = expect_map(value)?;
        Ok(self.map(tree).get(entry_key)?)
    }

    /// All entries of a `Map` value (O(N) output; the scan itself streams
    /// through [`super::MapRange`] in O(chunk) working memory).
    pub fn map_entries(&self, value: &Value) -> DbResult<Vec<(Bytes, Bytes)>> {
        let tree = expect_map(value)?;
        cursor_ext::MapRange::open(&self.map(tree), None, None)?.collect()
    }

    /// `Select`: entries of a `Map` value with `start ≤ key < end`.
    pub fn map_select(
        &self,
        value: &Value,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> DbResult<Vec<(Bytes, Bytes)>> {
        let tree = expect_map(value)?;
        cursor_ext::MapRange::open(&self.map(tree), start, end)?.collect()
    }

    /// Apply edits to a `Map`/`Set` value, returning the updated value.
    /// Same GC caveat as [`Self::new_map`]: commit the result before a
    /// collector can run, or use [`Self::put_map_edits`].
    pub fn map_apply(&self, value: &Value, edits: Vec<MapEdit>) -> DbResult<Value> {
        let tree = expect_map(value)?;
        let updated = self.map(tree).apply(edits)?;
        Ok(match value {
            Value::Set(_) => Value::Set(updated.tree()),
            _ => Value::Map(updated.tree()),
        })
    }

    /// Read a whole `Blob` value (O(N) output; streams chunk-at-a-time
    /// through [`forkbase_postree::BlobCursor`] — use
    /// [`super::Snapshot::blob_reader`] to avoid materializing at all).
    pub fn blob_read(&self, value: &Value) -> DbResult<Vec<u8>> {
        let r = value.blob_ref().ok_or(DbError::TypeMismatch {
            expected: "blob",
            found: value.value_type().name(),
        })?;
        cursor_ext::read_blob_to_vec(&self.store, &r)
    }

    /// Elements of a `List` value (O(N) output; the scan streams through
    /// [`super::ListStream`]).
    pub fn list_elements(&self, value: &Value) -> DbResult<Vec<Bytes>> {
        match value {
            Value::List(t) => cursor_ext::ListStream::open(&self.store, *t)?.collect(),
            other => Err(DbError::TypeMismatch {
                expected: "list",
                found: other.value_type().name(),
            }),
        }
    }

    /// Commit a batch of map edits on a branch head in one step: read the
    /// head map value, apply, put. The workhorse of the table layer.
    ///
    /// The head stripe is held across the read-apply-commit sequence, so
    /// two concurrent edit batches on the same branch serialize instead of
    /// silently dropping one another's updates, and the GC gate is held
    /// throughout so the freshly built tree cannot be swept before the
    /// head advances to it.
    pub fn put_map_edits(
        &self,
        key: &str,
        edits: Vec<MapEdit>,
        opts: &PutOptions,
    ) -> DbResult<CommitResult> {
        let mut batch = self.write_batch();
        batch.map_edits(key, edits, opts);
        batch.commit_single()
    }

    // ------------------------------------------------------------------
    // Diff / Merge
    // ------------------------------------------------------------------

    /// `Diff`: differences between two versions of a key (§III-B).
    pub fn diff(&self, key: &str, from: &VersionSpec, to: &VersionSpec) -> DbResult<ValueDiff> {
        let from_uid = self.resolve(key, from)?;
        let to_uid = self.resolve(key, to)?;
        if from_uid == to_uid {
            return Ok(ValueDiff::Identical);
        }
        let from_snap = self.snapshot_version(&from_uid)?;
        let to_snap = self.snapshot_version(&to_uid)?;
        from_snap.diff(&to_snap)
    }

    /// Diff two values directly.
    pub fn diff_values(&self, from: &Value, to: &Value) -> DbResult<ValueDiff> {
        if from == to {
            return Ok(ValueDiff::Identical);
        }
        match (from, to) {
            (Value::Map(a), Value::Map(b)) | (Value::Set(a), Value::Set(b)) => {
                Ok(ValueDiff::Map(self.map(*a).diff(*b)?))
            }
            (Value::Blob(a), Value::Blob(b)) => {
                let blob = PosBlob::new(&self.store, self.cfg);
                let refs_a = blob.chunk_refs(a)?;
                let refs_b = blob.chunk_refs(b)?;
                let (shared_chunks, shared_bytes) = blob.shared_chunks(a, b)?;
                Ok(ValueDiff::Chunked {
                    from_len: a.len,
                    to_len: b.len,
                    shared_chunks,
                    shared_bytes,
                    from_chunks: refs_a.len() as u64,
                    to_chunks: refs_b.len() as u64,
                })
            }
            (Value::List(a), Value::List(b)) => {
                // Lists diff at chunk granularity (leaf-node hashes).
                let la = PosList::open(&self.store, self.cfg.node, *a);
                let lb = PosList::open(&self.store, self.cfg.node, *b);
                let chunks_a = list_leaf_hashes(&la)?;
                let chunks_b: HashSet<_> = list_leaf_hashes(&lb)?.into_iter().collect();
                let shared = chunks_a.iter().filter(|h| chunks_b.contains(*h)).count() as u64;
                Ok(ValueDiff::Chunked {
                    from_len: a.count,
                    to_len: b.count,
                    shared_chunks: shared,
                    shared_bytes: 0,
                    from_chunks: chunks_a.len() as u64,
                    to_chunks: chunks_b.len() as u64,
                })
            }
            (a, b) => Ok(ValueDiff::Primitive {
                from: a.clone(),
                to: b.clone(),
            }),
        }
    }

    /// Find the lowest common ancestor of two versions by walking bases.
    pub fn common_ancestor(&self, a: &Uid, b: &Uid) -> DbResult<Option<Uid>> {
        Ok(match self.ancestry(a, b)? {
            Ancestry::Contained => Some(*b),
            Ancestry::FastForward(base) | Ancestry::Diverged(base) => base,
        })
    }

    /// How `theirs` relates to `ours`, from one walk of each history: every
    /// ancestor of `ours`, then the versions of `theirs` outside that set.
    /// The merge base is the first of `ours`' ancestors the breadth-first
    /// walk from `theirs` meets, which makes it a lowest common ancestor.
    fn ancestry(&self, ours: &Uid, theirs: &Uid) -> DbResult<Ancestry> {
        let mut ancestors = HashSet::new();
        let contained = ours == theirs
            || walk::versions(&self.store, [*ours], &mut ancestors, |_, f, _| {
                Ok(f.bases.contains(theirs).then_some(*theirs))
            })?
            .is_some();
        if contained {
            return Ok(Ancestry::Contained);
        }
        // Seeding the walk's seen set with `ours`' ancestors keeps it out
        // of them: a path from `theirs` to `ours` crosses none of them.
        let mut base = None;
        let fast_forward =
            walk::versions(&self.store, [*theirs], &mut ancestors.clone(), |_, f, _| {
                base = base.or_else(|| f.bases.iter().find(|u| ancestors.contains(*u)).copied());
                Ok(f.bases.contains(ours).then_some(*ours))
            })?;
        Ok(match fast_forward {
            Some(_) => Ancestry::FastForward(base),
            None => Ancestry::Diverged(base),
        })
    }

    /// `Merge`: three-way merge `src_branch` into `dst_branch` (§II-B).
    ///
    /// Fast-forwards when one head is an ancestor of the other. Otherwise
    /// the values are merged (maps/sets: POS-Tree sub-tree merge;
    /// primitives/blobs: must agree or the policy picks a side) and a
    /// merge FNode with two bases is committed to `dst_branch`.
    pub fn merge(
        &self,
        key: &str,
        dst_branch: &str,
        src_branch: &str,
        policy: MergePolicy,
        opts: &PutOptions,
    ) -> DbResult<CommitResult> {
        let _gc = self.gc_gate.read();
        // Lock both branches' stripes in index order (deduplicated when
        // they collide) so concurrent merges in opposite directions cannot
        // deadlock. Holding the src stripe keeps the source head from
        // advancing mid-merge.
        let si = Self::head_stripe(key, dst_branch);
        let sj = Self::head_stripe(key, src_branch);
        let (lo, hi) = (si.min(sj), si.max(sj));
        let _lo_guard = self.head_locks[lo].lock();
        let _hi_guard = (hi != lo).then(|| self.head_locks[hi].lock());
        let ours_uid = self.head(key, dst_branch)?;
        let theirs_uid = self.head(key, src_branch)?;
        let mut staged = Vec::new();
        let uid = match self.ancestry(&ours_uid, &theirs_uid)? {
            // src already contained in dst.
            Ancestry::Contained => ours_uid,
            // Fast-forward dst to src.
            Ancestry::FastForward(_) => theirs_uid,
            Ancestry::Diverged(base) => {
                let base_uid = base.ok_or(DbError::NoCommonAncestor(ours_uid, theirs_uid))?;
                let ours = FNode::load(&self.store, &ours_uid)?.value;
                let theirs = FNode::load(&self.store, &theirs_uid)?.value;
                let base = FNode::load(&self.store, &base_uid)?.value;
                let merged_value = self.merge_values(&base, &ours, &theirs, policy)?;
                let message = match opts.message.as_str() {
                    "" => format!("merge {src_branch} into {dst_branch}"),
                    m => m.to_string(),
                };
                let opts = PutOptions::on_branch(dst_branch)
                    .author(opts.author.clone())
                    .message(message);
                let bases = [ours_uid, theirs_uid];
                commit_one(self, &mut staged, key, &merged_value, &bases, &opts).uid
            }
        };
        if uid != ours_uid {
            self.publish(staged, &[(key, dst_branch)], &[Some(uid)])?;
        }
        Ok(CommitResult {
            uid,
            branch: dst_branch.to_string(),
        })
    }

    fn merge_values(
        &self,
        base: &Value,
        ours: &Value,
        theirs: &Value,
        policy: MergePolicy,
    ) -> DbResult<Value> {
        match (base, ours, theirs) {
            (Value::Map(b), Value::Map(o), Value::Map(t))
            | (Value::Set(b), Value::Set(o), Value::Set(t)) => {
                let out = merge_maps(&self.map(*b), &self.map(*o), &self.map(*t), policy)?;
                Ok(match base {
                    Value::Set(_) => Value::Set(out.merged.tree()),
                    _ => Value::Map(out.merged.tree()),
                })
            }
            _ => {
                // Non-mergeable types: both sides must agree, or the policy
                // picks one wholesale.
                if ours == theirs {
                    Ok(ours.clone())
                } else {
                    match policy {
                        MergePolicy::Ours => Ok(ours.clone()),
                        MergePolicy::Theirs => Ok(theirs.clone()),
                        MergePolicy::Fail => Err(DbError::MergeConflicts(vec![
                            forkbase_postree::merge::MergeConflict {
                                key: Bytes::from_static(b"<whole value>"),
                                base: Some(Bytes::from(base.encode())),
                                ours: Some(Bytes::from(ours.encode())),
                                theirs: Some(Bytes::from(theirs.encode())),
                            },
                        ])),
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Export / verification
    // ------------------------------------------------------------------

    /// `Export`: write a version's content to `out`. Blobs and strings are
    /// written raw; maps/sets/lists as line-oriented text. Returns bytes
    /// written.
    pub fn export(&self, key: &str, spec: &VersionSpec, out: &mut dyn Write) -> DbResult<u64> {
        self.snapshot(key, spec)?.export(out)
    }

    /// Verify a single version: the FNode authenticates against its uid
    /// and its value trees fully verify (§II-D, §III-C).
    pub fn verify_version(&self, uid: &Uid) -> DbResult<()> {
        let fnode = FNode::load(&self.store, uid)?; // uid ↔ content check
        self.verify_value(&fnode.value)
    }

    /// Verify a value's underlying trees.
    pub fn verify_value(&self, value: &Value) -> DbResult<()> {
        match value {
            // Lists reuse the map walk minus key ordering, which the
            // verifier relaxes for empty keys.
            Value::Map(t) | Value::Set(t) | Value::List(t) => {
                forkbase_postree::verify::verify_map(&self.store, *t, self.cfg.node, false)?;
            }
            Value::Blob(r) => {
                PosBlob::new(&self.store, self.cfg).verify(r)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Verify a whole branch: head version, full ancestry chain, and every
    /// ancestor's value trees. Returns the number of versions checked.
    pub fn verify_branch(&self, key: &str, branch: &str) -> DbResult<u64> {
        Ok(self.verify_history(key, [self.head(key, branch)?])?.0)
    }

    /// Verify every version reachable from `heads`, each once: it must be
    /// a version of `key`, and its value trees must verify. Returns the
    /// number of versions checked and the highest logical time among them.
    /// Shared by [`Self::verify_branch`] and bundle import.
    pub(crate) fn verify_history(
        &self,
        key: &str,
        heads: impl IntoIterator<Item = Uid>,
    ) -> DbResult<(u64, u64)> {
        let (mut checked, mut max_time) = (0u64, 0u64);
        walk::versions(&self.store, heads, &mut HashSet::new(), |uid, fnode, _| {
            if fnode.key != key {
                return Err(DbError::TamperDetected(format!(
                    "version {uid} claims key {:?} on branch of {key:?}",
                    fnode.key
                )));
            }
            self.verify_value(&fnode.value)?;
            checked += 1;
            max_time = max_time.max(fnode.logical_time);
            Ok(None)
        })?;
        Ok((checked, max_time))
    }
}

pub(crate) fn list_leaf_hashes<S: ChunkStore>(
    list: &PosList<'_, S>,
) -> DbResult<Vec<forkbase_crypto::Hash>> {
    // Walk leaf node hashes via the cursor.
    let mut cursor = forkbase_postree::cursor::LeafCursor::new(list.store_ref(), list.tree())?;
    let mut out = Vec::new();
    while let Some(r) = cursor.leaf_ref() {
        out.push(r.hash);
        if cursor.leaf_is_last() {
            break;
        }
        cursor.skip_leaf()?;
    }
    Ok(out)
}
