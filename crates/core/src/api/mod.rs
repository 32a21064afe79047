//! The ForkBase data-access API: keys, branches, versions, and the verb
//! set of the paper's API layer (Fig. 1), organized in four layers:
//!
//! * [`mod@self`] — the [`ForkBase`] engine itself: branch-head state, the
//!   striped commit locks, the GC gate, and ref persistence;
//! * [`verbs`] — the Git-like verb set (`Put Get List Branch Merge Select
//!   Stat Export Diff Head Rename Latest Meta`);
//! * [`snapshot`] — [`Snapshot`]: an immutable, cheaply-clonable view of
//!   one version, the basis every read verb is built on;
//! * [`cursor_ext`] — streaming reads ([`MapRange`], [`ListStream`],
//!   [`BlobReader`]) that scan large values in O(chunk) memory;
//! * [`batch`] — [`WriteBatch`]: atomic multi-key commits.
//!
//! # Model
//!
//! * every **key** names an object;
//! * a key has one or more **branches**; each branch has a mutable *head*
//!   pointing at an immutable **version** (an [`FNode`] in the chunk
//!   store, identified by its tamper-evident uid);
//! * `Put` appends a version to a branch (bases = previous head);
//! * `Merge` joins two branches with a three-way POS-Tree merge, creating
//!   a version with two bases;
//! * branch heads are the only mutable state — everything else is
//!   immutable and content-addressed, exactly like Git refs vs objects.

pub mod batch;
pub mod cursor_ext;
pub mod snapshot;
pub mod verbs;

pub use batch::{BatchOutcome, WriteBatch};
pub use cursor_ext::{BlobReader, ListStream, MapRange};
pub use snapshot::Snapshot;
pub use verbs::ValueDiff;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use forkbase_postree::{NodeCache, PosMap, TreeConfig, TreeRef};
use forkbase_store::{ChunkStore, StoreStats, SweepStore};
use forkbase_types::{Value, ValueType};
use parking_lot::{Mutex, RwLock};

use crate::error::{DbError, DbResult};
use crate::fnode::{FNode, Uid};

/// The branch created implicitly by the first `Put` on a key.
pub const DEFAULT_BRANCH: &str = "master";

/// Options accompanying a `Put`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PutOptions {
    /// Target branch (created implicitly if absent).
    pub branch: String,
    /// Author recorded in the FNode.
    pub author: String,
    /// Commit message recorded in the FNode.
    pub message: String,
}

impl Default for PutOptions {
    fn default() -> Self {
        PutOptions {
            branch: DEFAULT_BRANCH.to_string(),
            author: "anonymous".to_string(),
            message: String::new(),
        }
    }
}

impl PutOptions {
    /// Options targeting `branch` with default author/message.
    #[must_use = "builds options by value; assign or pass the result"]
    pub fn on_branch(branch: impl Into<String>) -> Self {
        PutOptions {
            branch: branch.into(),
            ..Default::default()
        }
    }

    /// Set the author.
    #[must_use = "returns the modified options; the original is consumed"]
    pub fn author(mut self, author: impl Into<String>) -> Self {
        self.author = author.into();
        self
    }

    /// Set the commit message.
    #[must_use = "returns the modified options; the original is consumed"]
    pub fn message(mut self, message: impl Into<String>) -> Self {
        self.message = message.into();
        self
    }
}

/// Result of a successful commit (`Put` or `Merge`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitResult {
    /// The new version's uid.
    pub uid: Uid,
    /// The branch whose head now points at `uid`.
    pub branch: String,
}

/// Result of a `Get`.
#[derive(Clone, Debug, PartialEq)]
pub struct GetResult {
    /// The value at the requested version.
    pub value: Value,
    /// The version uid it came from.
    pub uid: Uid,
}

/// Identifies a version: by branch head or explicitly by uid.
///
/// The default is the head of [`DEFAULT_BRANCH`] (`master`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VersionSpec {
    /// The head of a branch.
    Branch(String),
    /// An explicit version uid.
    Version(Uid),
}

impl Default for VersionSpec {
    fn default() -> Self {
        VersionSpec::Branch(DEFAULT_BRANCH.to_string())
    }
}

impl VersionSpec {
    /// Convenience constructor from a branch name.
    #[must_use = "builds a spec by value; assign or pass the result"]
    pub fn branch(name: impl Into<String>) -> Self {
        VersionSpec::Branch(name.into())
    }
}

/// A branch and its current head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BranchInfo {
    /// Branch name.
    pub name: String,
    /// Head version uid.
    pub head: Uid,
}

/// One entry of a version history walk.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryEntry {
    /// Version uid.
    pub uid: Uid,
    /// Author recorded at commit time.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// Logical commit counter.
    pub logical_time: u64,
    /// Parent uids.
    pub bases: Vec<Uid>,
    /// Type of the value at this version.
    pub value_type: ValueType,
}

/// Database statistics (the `Stat` verb).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DbStat {
    /// Number of keys.
    pub keys: u64,
    /// Total branches across keys.
    pub branches: u64,
    /// Chunk-store counters.
    pub store: StoreStats,
}

impl std::fmt::Display for DbStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "keys:          {}", self.keys)?;
        writeln!(f, "branches:      {}", self.branches)?;
        write!(f, "{}", self.store)
    }
}

/// Number of striped head locks. Power of two and comfortably above the
/// bench thread counts, so commits to distinct (key, branch) pairs rarely
/// share a stripe.
const HEAD_STRIPES: usize = 64;

/// The ForkBase database engine.
///
/// Generic over the chunk store so the same engine runs on [`forkbase_store::MemStore`],
/// [`forkbase_store::FileStore`], or any custom backend.
///
/// # Concurrency model
///
/// * Every head move holds one of `HEAD_STRIPES` (64) striped locks per
///   `(key, branch)` it touches, selected by hashing the pair. Commits to
///   different keys or branches proceed in parallel; commits to the same
///   branch serialize, which is what makes each branch a linear chain.
/// * Every write to the ref table — each verb's head move, `merge`, the
///   bundle, replica and refs-file imports, rebalance's forget — lands
///   through [`WriteBatch`]'s `publish` (single verbs are one-op
///   batches); batches and `merge` lock their stripes in stripe-index
///   order, so crossing multi-stripe writers cannot deadlock.
/// * Every mutating verb holds the GC gate shared; [`crate::gc::collect`]
///   holds it exclusive, so mark-and-sweep sees quiescent heads and never
///   races an in-flight commit's freshly written chunks.
///
/// # Decoded pages
///
/// Each database owns a [`NodeCache`]: map lookups, range scans, diff,
/// merge and map edits read POS-Tree pages through it, and map edits add
/// the pages they build once the store holds them. A page enters only
/// after its SHA-256 matched its address or after this database built
/// it; FNodes and blob data are never cached. `verify_*`, proofs, bundle
/// import and GC mark bypass it and re-read the store, so tampering with
/// the store after a page was cached is caught by verification, not by
/// cached reads. GC drops swept pages from it under the exclusive gate.
pub struct ForkBase<S> {
    pub(crate) store: S,
    pub(crate) cfg: TreeConfig,
    /// key → branch → head uid. The only mutable state.
    pub(crate) branches: RwLock<HashMap<String, BTreeMap<String, Uid>>>,
    /// Monotone logical clock stamped into FNodes.
    pub(crate) clock: AtomicU64,
    /// Striped per-(key, branch) commit locks (head read-modify-write).
    pub(crate) head_locks: Vec<Mutex<()>>,
    /// Commits hold this shared; GC holds it exclusive. Not re-entrant: an
    /// import holding it commits through `WriteBatch::commit_gated`.
    pub(crate) gc_gate: RwLock<()>,
    /// Verified, decoded POS-Tree pages shared by this database's map
    /// readers.
    pub(crate) nodes: NodeCache,
}

impl<S: ChunkStore> ForkBase<S> {
    /// Open a database over `store` with default chunking.
    pub fn new(store: S) -> Self {
        Self::with_config(store, TreeConfig::default_config())
    }

    /// Open with explicit chunking configuration.
    pub fn with_config(store: S, cfg: TreeConfig) -> Self {
        ForkBase {
            store,
            cfg,
            branches: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(1),
            head_locks: (0..HEAD_STRIPES).map(|_| Mutex::new(())).collect(),
            gc_gate: RwLock::new(()),
            nodes: NodeCache::new(),
        }
    }

    /// The map or set tree `tree`, read through this database's node
    /// cache.
    pub(crate) fn map(&self, tree: TreeRef) -> PosMap<'_, S> {
        PosMap::open(&self.store, self.cfg.node, tree).with_cache(&self.nodes)
    }

    /// The stripe guarding the head of `(key, branch)`.
    pub(crate) fn head_stripe(key: &str, branch: &str) -> usize {
        use std::hash::{Hash as _, Hasher as _};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        branch.hash(&mut h);
        h.finish() as usize % HEAD_STRIPES
    }

    /// The underlying chunk store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The chunking configuration.
    pub fn config(&self) -> TreeConfig {
        self.cfg
    }

    pub(crate) fn validate_name(kind: &str, name: &str) -> DbResult<()> {
        if name.is_empty() {
            return Err(DbError::InvalidInput(format!("{kind} must not be empty")));
        }
        if name.len() > 4096 {
            return Err(DbError::InvalidInput(format!("{kind} too long")));
        }
        Ok(())
    }

    /// Resolve a [`VersionSpec`] against a key.
    pub fn resolve(&self, key: &str, spec: &VersionSpec) -> DbResult<Uid> {
        match spec {
            VersionSpec::Branch(b) => self.head(key, b),
            VersionSpec::Version(u) => Ok(*u),
        }
    }

    /// `Head`: the uid a branch currently points at.
    pub fn head(&self, key: &str, branch: &str) -> DbResult<Uid> {
        let branches = self.branches.read();
        let key_branches = branches
            .get(key)
            .ok_or_else(|| DbError::NoSuchKey(key.to_string()))?;
        key_branches
            .get(branch)
            .copied()
            .ok_or_else(|| DbError::NoSuchBranch {
                key: key.to_string(),
                branch: branch.to_string(),
            })
    }

    /// Read several branch heads under one consistent view of the ref
    /// table: the returned uids all coexisted at a single instant, so a
    /// concurrent [`WriteBatch::commit`] is observed either entirely or
    /// not at all — never torn across keys.
    pub fn heads(&self, pairs: &[(&str, &str)]) -> DbResult<Vec<Uid>> {
        let branches = self.branches.read();
        pairs
            .iter()
            .map(|(key, branch)| {
                branches
                    .get(*key)
                    .ok_or_else(|| DbError::NoSuchKey(key.to_string()))?
                    .get(*branch)
                    .copied()
                    .ok_or_else(|| DbError::NoSuchBranch {
                        key: key.to_string(),
                        branch: branch.to_string(),
                    })
            })
            .collect()
    }

    /// `Latest`: every branch head of a key.
    pub fn latest(&self, key: &str) -> DbResult<Vec<BranchInfo>> {
        let branches = self.branches.read();
        let key_branches = branches
            .get(key)
            .ok_or_else(|| DbError::NoSuchKey(key.to_string()))?;
        Ok(key_branches
            .iter()
            .map(|(name, head)| BranchInfo {
                name: name.clone(),
                head: *head,
            })
            .collect())
    }

    /// `List`: all keys, sorted.
    pub fn list_keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.branches.read().keys().cloned().collect();
        keys.sort();
        keys
    }

    /// All branches of a key, sorted by name.
    pub fn list_branches(&self, key: &str) -> DbResult<Vec<BranchInfo>> {
        self.latest(key)
    }

    /// `Stat`: database and store statistics.
    pub fn stat(&self) -> DbStat {
        let branches = self.branches.read();
        DbStat {
            keys: branches.len() as u64,
            branches: branches.values().map(|b| b.len() as u64).sum(),
            store: self.store.stats(),
        }
    }

    /// Run a full garbage-collection pass: mark every chunk reachable from
    /// a branch head, sweep the rest, and — on segmented stores like
    /// [`forkbase_store::FileStore`] — physically compact low-utilization
    /// segments so the reclaimed bytes are returned to the operating
    /// system. Stops the world for writers (see [`crate::gc::collect`]);
    /// readers keep running. The report includes reclaimed chunk/byte
    /// counts and the on-disk footprint before and after.
    pub fn gc(&self) -> DbResult<crate::gc::GcReport>
    where
        S: SweepStore,
    {
        crate::gc::collect(self)
    }

    /// Advance the logical clock past `time` (no-op if already ahead).
    /// Bundle import and refs loading call this so commits made after
    /// adopting external history are never stamped earlier than it.
    pub(crate) fn bump_clock_past(&self, time: u64) {
        self.clock.fetch_max(time + 1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // Ref persistence (CLI / restart support)
    // ------------------------------------------------------------------

    /// Serialize all branch heads as stable text (`key\tbranch\tuid_hex`
    /// lines, sorted). Branch heads are the only mutable state, so this
    /// plus the chunk store is a complete database image.
    pub fn dump_refs(&self) -> String {
        let branches = self.branches.read();
        let mut keys: Vec<&String> = branches.keys().collect();
        keys.sort();
        let mut out = String::new();
        for key in keys {
            for (branch, head) in &branches[key] {
                out.push_str(key);
                out.push('\t');
                out.push_str(branch);
                out.push('\t');
                out.push_str(&head.to_hex());
                out.push('\n');
            }
        }
        out
    }

    /// Restore branch heads from [`Self::dump_refs`] output in one commit.
    /// Each head is validated to exist in the chunk store (a malicious/
    /// corrupt refs file cannot point at garbage silently); a line that
    /// moves a head already present is `BranchExists` and installs nothing.
    /// Also advances the logical clock past every referenced commit, even
    /// when the load is refused (the clock need only be monotone).
    pub fn load_refs(&self, text: &str) -> DbResult<()> {
        // Hold the GC gate across validation AND the commit: a collector
        // running in the gap could sweep the (still unreferenced) FNodes
        // this refs file points at, leaving dangling refs.
        let gc = self.gc_gate.read();
        let mut batch = self.write_batch();
        let mut max_time = 0u64;
        for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let mut parts = line.splitn(3, '\t');
            let (Some(key), Some(branch), Some(hex)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(DbError::InvalidInput(format!(
                    "refs line {} is malformed",
                    i + 1
                )));
            };
            let uid = Uid::from_hex(hex)
                .ok_or_else(|| DbError::InvalidInput(format!("refs line {}: bad uid", i + 1)))?;
            let fnode = FNode::load(&self.store, &uid)?;
            if fnode.key != key {
                return Err(DbError::TamperDetected(format!(
                    "refs line {}: uid belongs to key {:?}, not {key:?}",
                    i + 1,
                    fnode.key
                )));
            }
            max_time = max_time.max(fnode.logical_time);
            batch.branch_at(key, branch, batch::BranchAt::Verified(uid));
        }
        // Advance the clock before the heads publish, so a put on a
        // loaded head is never stamped below it.
        self.bump_clock_past(max_time);
        batch.commit_gated(&gc)?;
        Ok(())
    }
}

/// The map/set tree reference inside a value, or a type-mismatch error.
pub(crate) fn expect_map(value: &Value) -> DbResult<TreeRef> {
    match value {
        Value::Map(t) | Value::Set(t) => Ok(*t),
        other => Err(DbError::TypeMismatch {
            expected: "map or set",
            found: other.value_type().name(),
        }),
    }
}

/// Wrap an I/O error from an export sink as a store error.
pub(crate) fn store_io(e: std::io::Error) -> DbError {
    DbError::Store(forkbase_store::StoreError::Io(e))
}
