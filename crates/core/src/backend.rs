//! [`Backend`]: the verb set every deployment shape serves, so the fork
//! service and the REST gateway are written once. [`ForkBase`] answers
//! directly; [`Cluster`] routes each call to the owning servelet,
//! inheriting the cluster's retries, deadlines and persist-before-ack.

use bytes::Bytes;
use forkbase_store::{ChunkStore, SweepStore};
use forkbase_types::Value;

use crate::api::{BatchOutcome, CommitResult, ForkBase, GetResult, PutOptions, VersionSpec};
use crate::cluster::wire::WireOp;
use crate::cluster::{Cluster, ClusterWriteBatch, MapPage};
use crate::error::DbResult;
use crate::fnode::Uid;
use crate::forks::DiffSummary;

/// The storage operations shared by a single node and a cluster.
pub trait Backend {
    /// Resolve a spec to a concrete version uid.
    fn resolve_spec(&self, key: &str, spec: &VersionSpec) -> DbResult<Uid>;
    /// Read the value a spec resolves to.
    fn get_at(&self, key: &str, spec: &VersionSpec) -> DbResult<GetResult>;
    /// Commit a value on `opts.branch`.
    fn put_at(&self, key: &str, value: Value, opts: &PutOptions) -> DbResult<CommitResult>;
    /// Create `new_branch` pointing at an existing version.
    fn branch_from_version(&self, key: &str, uid: &Uid, new_branch: &str) -> DbResult<()>;
    /// Delete a branch head (versions stay until GC).
    fn delete_branch(&self, key: &str, branch: &str) -> DbResult<()>;
    /// Summarized diff between two specs of one key.
    fn diff_specs(&self, key: &str, from: &VersionSpec, to: &VersionSpec) -> DbResult<DiffSummary>;
    /// One page of map entries at a spec, `[start, end)`, at most
    /// `limit` entries.
    fn map_range_at(
        &self,
        key: &str,
        spec: &VersionSpec,
        start: Option<Bytes>,
        end: Option<Bytes>,
        limit: u64,
    ) -> DbResult<MapPage>;
    /// Every key, sorted (a cluster fails if any servelet is down).
    fn list_keys(&self) -> DbResult<Vec<String>>;
    /// Commit `ops` as one write batch: atomic on a node, atomic per
    /// servelet on a cluster. Outcomes come back in op order.
    fn commit_batch(&self, ops: Vec<WireOp>) -> DbResult<Vec<BatchOutcome>>;
}

impl<S: ChunkStore> Backend for ForkBase<S> {
    fn resolve_spec(&self, key: &str, spec: &VersionSpec) -> DbResult<Uid> {
        self.resolve(key, spec)
    }

    fn get_at(&self, key: &str, spec: &VersionSpec) -> DbResult<GetResult> {
        let uid = self.resolve(key, spec)?;
        self.get_version(&uid)
    }

    fn put_at(&self, key: &str, value: Value, opts: &PutOptions) -> DbResult<CommitResult> {
        self.put(key, value, opts)
    }

    fn branch_from_version(&self, key: &str, uid: &Uid, new_branch: &str) -> DbResult<()> {
        ForkBase::branch_from_version(self, key, uid, new_branch)
    }

    fn delete_branch(&self, key: &str, branch: &str) -> DbResult<()> {
        ForkBase::delete_branch(self, key, branch)
    }

    fn diff_specs(&self, key: &str, from: &VersionSpec, to: &VersionSpec) -> DbResult<DiffSummary> {
        Ok(DiffSummary::from_value_diff(&self.diff(key, from, to)?))
    }

    fn map_range_at(
        &self,
        key: &str,
        spec: &VersionSpec,
        start: Option<Bytes>,
        end: Option<Bytes>,
        limit: u64,
    ) -> DbResult<MapPage> {
        use std::ops::Bound;
        let snap = self.snapshot(key, spec)?;
        let start_bound = match &start {
            Some(s) => Bound::Included(s.as_ref()),
            None => Bound::Unbounded,
        };
        let end_bound = match &end {
            Some(e) => Bound::Excluded(e.as_ref()),
            None => Bound::Unbounded,
        };
        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
        let mut range = snap.map_range::<&[u8], _>((start_bound, end_bound))?;
        let mut entries = Vec::new();
        let mut truncated = false;
        for item in &mut range {
            let (k, v) = item?;
            if entries.len() == limit {
                truncated = true;
                break;
            }
            entries.push((k, v));
        }
        Ok(MapPage {
            entries,
            truncated,
            version: snap.uid(),
        })
    }

    fn list_keys(&self) -> DbResult<Vec<String>> {
        Ok(ForkBase::list_keys(self))
    }

    fn commit_batch(&self, ops: Vec<WireOp>) -> DbResult<Vec<BatchOutcome>> {
        let mut wb = self.write_batch();
        for op in ops {
            match op {
                WireOp::Put { key, value, opts } => wb.put(key, value, &opts),
                WireOp::DeleteBranch { key, branch } => wb.delete_branch(key, branch),
            };
        }
        wb.commit()
    }
}

impl<S: SweepStore + Send + 'static> Backend for Cluster<S> {
    fn resolve_spec(&self, key: &str, spec: &VersionSpec) -> DbResult<Uid> {
        // One routed RPC; `GetAt` already returns the resolved uid.
        Cluster::get_at(self, key, spec).map(|g| g.uid)
    }

    fn get_at(&self, key: &str, spec: &VersionSpec) -> DbResult<GetResult> {
        Cluster::get_at(self, key, spec)
    }

    fn put_at(&self, key: &str, value: Value, opts: &PutOptions) -> DbResult<CommitResult> {
        Cluster::put(self, key, value, opts.clone())
    }

    fn branch_from_version(&self, key: &str, uid: &Uid, new_branch: &str) -> DbResult<()> {
        Cluster::branch_from_version(self, key, uid, new_branch)
    }

    fn delete_branch(&self, key: &str, branch: &str) -> DbResult<()> {
        Cluster::delete_branch(self, key, branch)
    }

    fn diff_specs(&self, key: &str, from: &VersionSpec, to: &VersionSpec) -> DbResult<DiffSummary> {
        Cluster::diff_specs(self, key, from, to)
    }

    fn map_range_at(
        &self,
        key: &str,
        spec: &VersionSpec,
        start: Option<Bytes>,
        end: Option<Bytes>,
        limit: u64,
    ) -> DbResult<MapPage> {
        Cluster::map_range_at(self, key, spec, start, end, limit)
    }

    fn list_keys(&self) -> DbResult<Vec<String>> {
        Cluster::list_keys(self)
    }

    fn commit_batch(&self, ops: Vec<WireOp>) -> DbResult<Vec<BatchOutcome>> {
        ClusterWriteBatch { cluster: self, ops }.commit()
    }
}
