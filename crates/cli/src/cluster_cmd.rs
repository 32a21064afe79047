//! The `cluster` verb family: an elastic sharded ForkBase over a
//! directory of durable [`FileStore`] servelets.
//!
//! Layout under `<root>/cluster/`:
//!
//! ```text
//! <root>/cluster/TOPOLOGY               — servelet ids, roles + next id (stable routing)
//! <root>/cluster/FORKS                  — fork-sandbox registry (leases resume on reopen)
//! <root>/cluster/REPLICAS_SYNCED        — replicas proven caught-up at last clean save
//! <root>/cluster/servelet-<id>/chunks/  — that servelet's pack files
//! <root>/cluster/servelet-<id>/refs     — that servelet's branch heads
//! ```
//!
//! Every servelet runs its own worker thread with a private
//! `ForkBase<FileStore>`; the topology record makes routing a pure
//! function of the persisted ring anchors, so reopening the directory
//! routes every key exactly as before. `add`/`remove` rebalance live:
//! only the keys whose ring owner changed migrate, each with its full
//! branch/version history and byte-identical chunk addresses. Replicas
//! (`add-replica`, `promote`, `replication-status`) use the same
//! `servelet-<id>/` layout and are re-attached on reopen.
//!
//! `REPLICAS_SYNCED` is the cross-process half of the zero-acked-write-
//! loss story: a (re)attached replica is conservatively marked for full
//! resync, which needs a live primary — so promoting a dead primary's
//! replica from a *fresh* process would be refused. The marker, written
//! durably at every clean [`ClusterSession::save`] for exactly the
//! replicas the ship left at lag 0 (refs already persisted), and
//! **consumed (deleted) on open**, lets those replicas re-attach
//! caught-up: `cluster promote` then works with the primary dead,
//! draining an empty log. Any unclean exit leaves no marker and the next
//! open falls back to the conservative resync.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use forkbase::{Cluster, ClusterTopology, DbError, DbResult, PutOptions};
use forkbase_store::FileStore;
use forkbase_types::Value;

fn io_err(e: std::io::Error) -> DbError {
    DbError::Store(forkbase_store::StoreError::Io(e))
}

/// First line of the `REPLICAS_SYNCED` marker; an unrecognized magic is
/// ignored (conservative: the replicas just resync in full).
const SYNCED_MARKER_MAGIC: &str = "forkbase-cluster-replicas-synced-v1";

/// Durably replace `path` with `contents`: write a tmp file, fsync it,
/// atomically rename it into place, then fsync the parent directory —
/// the same protocol the chunk store uses for its MANIFEST. Required
/// here because cluster rebalance deletes the migrated keys' previous
/// on-disk copy right after these files are written.
fn write_durable(path: &Path, contents: &str) -> DbResult<()> {
    let tmp = path.with_extension("tmp");
    (|| -> std::io::Result<()> {
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, contents.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })()
    .map_err(io_err)
}

/// Start a standalone servelet process: a [`forkbase::ServeletServer`]
/// executing wire requests against a durable [`FileStore`] under `root`
/// (layout `<root>/chunks` + `<root>/refs`, the single-node session
/// layout). Every mutating request syncs the store and durably rewrites
/// the refs file **before** it is acked — kill -9 after an ack never
/// loses the write. This is what `forkbase serve --servelet ADDR` runs.
pub fn serve_servelet(addr: &str, root: impl AsRef<Path>) -> DbResult<forkbase::ServeletServer> {
    let root = root.as_ref().to_path_buf();
    let store = FileStore::open(root.join("chunks"))?;
    let db = Arc::new(forkbase::ForkBase::new(store));
    let refs_path = root.join("refs");
    if refs_path.exists() {
        let text = std::fs::read_to_string(&refs_path).map_err(io_err)?;
        db.load_refs(&text)?;
    }
    // Connections are served on a thread each, and `write_durable` goes
    // through one fixed temporary file: one sync + refs rewrite at a time.
    // The refs are dumped inside the lock, so the file never goes back to
    // an older set of heads than an earlier ack already made durable.
    let persisting = std::sync::Mutex::new(());
    let persist: forkbase::PersistFn<FileStore> = Arc::new(move |db| {
        let _one_at_a_time = persisting
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        forkbase_store::ChunkStore::sync(db.store())?;
        write_durable(&refs_path, &db.dump_refs())
    });
    // Per-peer admission control: a chatty router cannot monopolize the
    // servelet's worker threads; shed frames answer a structured
    // `WireError::RateLimited` with a retry hint, connection kept open.
    let limiter = Arc::new(forkbase::RateLimiter::new(forkbase::RateLimit::new(
        2000.0, 4000.0,
    )));
    forkbase::ServeletServer::spawn_limited(addr, db, Some(persist), Some(limiter))
}

/// A durable cluster bound to an on-disk directory.
pub struct ClusterSession {
    cluster: Arc<Cluster<FileStore>>,
    forks: Arc<forkbase::ForkService>,
    root: PathBuf,
}

impl ClusterSession {
    fn cluster_dir(root: &Path) -> PathBuf {
        root.join("cluster")
    }

    fn topology_path(root: &Path) -> PathBuf {
        Self::cluster_dir(root).join("TOPOLOGY")
    }

    fn forks_path(root: &Path) -> PathBuf {
        Self::cluster_dir(root).join("FORKS")
    }

    fn servelet_dir(root: &Path, id: u64) -> PathBuf {
        Self::cluster_dir(root).join(format!("servelet-{id}"))
    }

    fn synced_marker_path(root: &Path) -> PathBuf {
        Self::cluster_dir(root).join("REPLICAS_SYNCED")
    }

    /// Initialize a fresh cluster of `n` servelets under `root`. Refuses
    /// to clobber an existing topology.
    pub fn init(root: impl AsRef<Path>, n: usize) -> DbResult<ClusterSession> {
        let root = root.as_ref();
        if n == 0 {
            return Err(DbError::InvalidInput(
                "a cluster needs at least one servelet".into(),
            ));
        }
        let topo_path = Self::topology_path(root);
        if topo_path.exists() {
            return Err(DbError::InvalidInput(format!(
                "cluster already initialized at {}",
                topo_path.display()
            )));
        }
        std::fs::create_dir_all(Self::cluster_dir(root)).map_err(io_err)?;
        let topology = ClusterTopology::local((0..n as u64).collect(), n as u64);
        std::fs::write(&topo_path, topology.encode()).map_err(io_err)?;
        Self::open(root)
    }

    /// Open the cluster persisted under `root`.
    pub fn open(root: impl AsRef<Path>) -> DbResult<ClusterSession> {
        let root = root.as_ref().to_path_buf();
        let topo_path = Self::topology_path(&root);
        let text = std::fs::read_to_string(&topo_path).map_err(|e| {
            DbError::InvalidInput(format!(
                "no cluster at {} ({e}); run `cluster init N` first",
                topo_path.display()
            ))
        })?;
        let topology = ClusterTopology::parse(&text)?;
        let open_root = root.clone();
        let cluster = Cluster::from_topology(
            &topology,
            forkbase_postree::TreeConfig::default_config(),
            move |id| {
                Ok(FileStore::open(
                    Self::servelet_dir(&open_root, id).join("chunks"),
                )?)
            },
        )?;
        // Load each LOCAL servelet's branch heads (validated against its
        // store). Remote servelets own their stores and refs — their
        // `forkbase serve` process loads them on startup.
        for slot in 0..cluster.len() {
            let id = cluster.ids()[slot];
            if cluster.servelet_addr(id).is_some() {
                continue;
            }
            let refs_path = Self::servelet_dir(&root, id).join("refs");
            if refs_path.exists() {
                let text = std::fs::read_to_string(&refs_path).map_err(io_err)?;
                cluster.on_node(slot, move |db| db.load_refs(&text))??;
            }
        }
        // Local replicas restore their mirrored heads the same way — the
        // catch-up marker below can only vouch for a replica whose
        // persisted refs are actually loaded.
        for (rid, _) in cluster.replica_ids() {
            if cluster.servelet_addr(rid).is_some() {
                continue;
            }
            let refs_path = Self::servelet_dir(&root, rid).join("refs");
            if refs_path.exists() {
                let text = std::fs::read_to_string(&refs_path).map_err(io_err)?;
                cluster.on_replica(rid, move |db| db.load_refs(&text))??;
            }
        }
        // Consume the catch-up marker: replicas the last clean save
        // proved at lag 0 (with refs persisted) re-attach caught-up, so
        // `promote` works even when their primary never comes back. The
        // marker is deleted BEFORE any command runs — a crash from here
        // on leaves no marker, and the next open resyncs conservatively.
        let marker_path = Self::synced_marker_path(&root);
        match std::fs::read_to_string(&marker_path) {
            Ok(text) => {
                let mut lines = text.lines();
                if lines.next() == Some(SYNCED_MARKER_MAGIC) {
                    let attached: Vec<u64> =
                        cluster.replica_ids().iter().map(|&(rid, _)| rid).collect();
                    for line in lines {
                        if let Ok(rid) = line.trim().parse::<u64>() {
                            if attached.contains(&rid) {
                                cluster.mark_replica_synced(rid)?;
                            }
                        }
                    }
                }
                std::fs::remove_file(&marker_path).map_err(io_err)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }
        // Supervised restarts reopen the packs AND restore the persisted
        // branch heads — richer than the bare `open` factory above.
        let respawn_root = root.clone();
        cluster.set_respawn(move |id| {
            let dir = Self::servelet_dir(&respawn_root, id);
            let store = FileStore::open(dir.join("chunks"))?;
            let refs = match std::fs::read_to_string(dir.join("refs")) {
                Ok(text) => Some(text),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(io_err(e)),
            };
            Ok(forkbase::Respawned { store, refs })
        });
        // Resume fork leases from the FORKS record next to TOPOLOGY —
        // absolute unix-second leases keep their promised expiry across
        // a gateway restart.
        let forks = Arc::new(forkbase::ForkService::new());
        let forks_path = Self::forks_path(&root);
        if forks_path.exists() {
            let text = std::fs::read_to_string(&forks_path).map_err(io_err)?;
            forks.load(&text)?;
        }
        Ok(ClusterSession {
            cluster: Arc::new(cluster),
            forks,
            root,
        })
    }

    /// The cluster handle.
    pub fn cluster(&self) -> &Cluster<FileStore> {
        &self.cluster
    }

    /// A shared handle to the cluster — what the REST gateway and the
    /// supervisor hold while the session keeps persisting state.
    pub fn cluster_arc(&self) -> Arc<Cluster<FileStore>> {
        Arc::clone(&self.cluster)
    }

    /// The fork-sandbox registry this session persists.
    pub fn forks(&self) -> &forkbase::ForkService {
        &self.forks
    }

    /// Shared handle to the fork registry (held by the gateway and the
    /// supervisor's reaper tick).
    pub fn forks_arc(&self) -> Arc<forkbase::ForkService> {
        Arc::clone(&self.forks)
    }

    /// Persist the topology record plus every servelet's branch heads,
    /// syncing each chunk store first. Ships the replication log first
    /// (best-effort), so replicas are as fresh as possible at the
    /// durability point.
    pub fn save(&self) -> DbResult<()> {
        let _ = self.cluster.ship_replication();
        let topology = self.cluster.topology();
        // Primaries, by slot (the topology record lists primaries in slot
        // order, replicas after them).
        for (slot, id) in self.cluster.ids().into_iter().enumerate() {
            // Remote servelets persist on their own side (ack-implies-
            // durable); only the topology entry is ours to record.
            if topology.addr_of(id).is_some() {
                continue;
            }
            let refs = self.cluster.on_node(slot, |db| {
                forkbase_store::ChunkStore::sync(db.store())?;
                Ok::<_, DbError>(db.dump_refs())
            })??;
            let dir = Self::servelet_dir(&self.root, id);
            std::fs::create_dir_all(&dir).map_err(io_err)?;
            write_durable(&dir.join("refs"), &refs)?;
        }
        // Local replicas persist their mirrors the same way.
        for (rid, _) in self.cluster.replica_ids() {
            if topology.addr_of(rid).is_some() {
                continue;
            }
            let refs = self.cluster.on_replica(rid, |db| {
                forkbase_store::ChunkStore::sync(db.store())?;
                Ok::<_, DbError>(db.dump_refs())
            })??;
            let dir = Self::servelet_dir(&self.root, rid);
            std::fs::create_dir_all(&dir).map_err(io_err)?;
            write_durable(&dir.join("refs"), &refs)?;
        }
        write_durable(&Self::topology_path(&self.root), &topology.encode())?;
        write_durable(&Self::forks_path(&self.root), &self.forks.dump())?;
        // Record which replicas this save proved caught-up (shipped to
        // lag 0 above, refs now durable): they may re-attach without a
        // full resync on the next open — see the module doc. Written
        // last: the marker must never assert more than what is on disk.
        let caught_up: Vec<String> = self
            .cluster
            .replication_status()
            .primaries
            .iter()
            .flat_map(|p| &p.replicas)
            .filter(|r| r.lag == 0 && r.pending == 0 && !r.needs_full_sync)
            .map(|r| r.id.to_string())
            .collect();
        let marker_path = Self::synced_marker_path(&self.root);
        if caught_up.is_empty() {
            match std::fs::remove_file(&marker_path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(e)),
            }
        } else {
            write_durable(
                &marker_path,
                &format!("{SYNCED_MARKER_MAGIC}\n{}\n", caught_up.join("\n")),
            )?;
        }
        Ok(())
    }

    /// Add a servelet (provisioning its data directory) and migrate the
    /// keys it now owns. Returns the new servelet's id.
    pub fn add_servelet(&self) -> DbResult<u64> {
        let id = self.cluster.next_servelet_id();
        let dir = Self::servelet_dir(&self.root, id);
        let store = FileStore::open(dir.join("chunks"))?;
        let assigned = match self.cluster.add_servelet(store) {
            Ok(assigned) => assigned,
            Err(e) => {
                // The id is burned (ids are never reused) and migration
                // rolled back; drop the freshly provisioned directory so a
                // failed add does not leak partial packs on disk.
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        debug_assert_eq!(assigned, id);
        // Durability order matters: the new servelet's refs (it holds the
        // migrated keys now) and the TOPOLOGY that makes reopen load it
        // must be on disk BEFORE any source refs lacking those keys are
        // rewritten (the caller's save()). A crash between here and that
        // save leaves at worst a shadowed duplicate on the sources —
        // routing prefers the new owner — never a lost key.
        let slot = self
            .cluster
            .ids()
            .iter()
            .position(|&i| i == assigned)
            .expect("just added");
        let refs = self.cluster.on_node(slot, |db| {
            forkbase_store::ChunkStore::sync(db.store())?;
            Ok::<_, DbError>(db.dump_refs())
        })??;
        write_durable(&dir.join("refs"), &refs)?;
        write_durable(
            &Self::topology_path(&self.root),
            &self.cluster.topology().encode(),
        )?;
        Ok(assigned)
    }

    /// Join a **remote** servelet process (already listening via
    /// `forkbase serve --servelet ADDR`) and migrate the keys it now
    /// owns across the wire. Persists the updated topology so a reopen
    /// routes to it again.
    pub fn add_remote_servelet(&self, addr: &str) -> DbResult<u64> {
        let id = self.cluster.add_remote_servelet(addr)?;
        write_durable(
            &Self::topology_path(&self.root),
            &self.cluster.topology().encode(),
        )?;
        Ok(id)
    }

    /// Attach a new local replica (provisioning its data directory) to
    /// primary `primary_id`, fully synced before this returns. Persists
    /// the topology so a reopen re-attaches it.
    pub fn add_replica(&self, primary_id: u64) -> DbResult<u64> {
        let id = self.cluster.next_servelet_id();
        let dir = Self::servelet_dir(&self.root, id);
        let store = FileStore::open(dir.join("chunks"))?;
        let assigned = match self.cluster.add_replica(primary_id, store) {
            Ok(assigned) => assigned,
            Err(e) => {
                // The id is burned; drop the freshly provisioned directory.
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        debug_assert_eq!(assigned, id);
        let refs = self.cluster.on_replica(assigned, |db| {
            forkbase_store::ChunkStore::sync(db.store())?;
            Ok::<_, DbError>(db.dump_refs())
        })??;
        write_durable(&dir.join("refs"), &refs)?;
        write_durable(
            &Self::topology_path(&self.root),
            &self.cluster.topology().encode(),
        )?;
        Ok(assigned)
    }

    /// Attach a **remote** replica process (already listening via
    /// `forkbase serve --servelet ADDR`) to primary `primary_id` and
    /// persist the topology.
    pub fn add_remote_replica(&self, primary_id: u64, addr: &str) -> DbResult<u64> {
        let id = self.cluster.add_remote_replica(primary_id, addr)?;
        write_durable(
            &Self::topology_path(&self.root),
            &self.cluster.topology().encode(),
        )?;
        Ok(id)
    }

    /// Promote replica `id` to primary of its slot (see
    /// [`Cluster::promote_replica`]) and persist the swung topology.
    /// The retired primary's data directory is left on disk — its id is
    /// burned, so nothing will ever route to it; delete it by hand once
    /// you no longer want the forensic copy. Returns the retired id.
    pub fn promote_replica(&self, id: u64) -> DbResult<u64> {
        let old = self.cluster.promote_replica(id)?;
        self.save()?;
        Ok(old)
    }

    /// Remove servelet `id` after migrating its keys away, then delete its
    /// drained data directory.
    pub fn remove_servelet(&self, id: u64) -> DbResult<()> {
        self.cluster.remove_servelet(id)?;
        // Make the migrated keys durable on their destinations (sync +
        // refs + topology) BEFORE deleting the victim's directory — until
        // this save the victim held the only on-disk copy.
        self.save()?;
        let dir = Self::servelet_dir(&self.root, id);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io_err)?;
        }
        Ok(())
    }
}

/// Run one `cluster` subcommand against `session`, returning its textual
/// output. `args` excludes the leading `cluster` (e.g. `["put", "k", "v"]`).
pub fn run_cluster_command(session: &ClusterSession, args: &[&str]) -> DbResult<String> {
    let usage = || -> DbError {
        DbError::InvalidInput(
            "usage: cluster init N | put KEY VALUE | get KEY | batch put:K=V|del:K … | \
             range KEY [START [END]] [--limit N] | add | add-remote ADDR | remove ID | \
             add-replica PRIMARY_ID | add-remote-replica PRIMARY_ID ADDR | \
             promote REPLICA_ID | replication-status | keys | stats | gc | topology | \
             health | restart ID | serve [PORT] | fork <sub> … \
             [--branch B --author A --message M] (see README \"Sharding & elasticity\")"
                .into(),
        )
    };
    let Some((&verb, rest)) = args.split_first() else {
        return Err(usage());
    };
    // The fork family parses its own flags (`--ttl`, `--id`, …) — hand
    // it the raw argument tail before the generic flag pass consumes
    // anything. Fork verbs route through the cluster like normal verbs.
    if verb == "fork" {
        return crate::fork_cmd::run_fork_command(session.forks(), session.cluster(), rest);
    }
    let mut positional = Vec::new();
    let mut branch = "master".to_string();
    let mut author = "cli".to_string();
    let mut message = String::new();
    let mut limit = 1000usize;
    let mut it = rest.iter();
    while let Some(&a) = it.next() {
        let mut flag = |name: &str| -> DbResult<String> {
            it.next()
                .map(|s| s.to_string())
                .ok_or_else(|| DbError::InvalidInput(format!("{name} needs a value")))
        };
        match a {
            "--branch" => branch = flag("--branch")?,
            "--author" => author = flag("--author")?,
            "--message" => message = flag("--message")?,
            "--limit" => {
                limit = flag("--limit")?
                    .parse()
                    .map_err(|_| DbError::InvalidInput("--limit must be a number".into()))?;
            }
            other => positional.push(other),
        }
    }
    let opts = PutOptions {
        branch: branch.clone(),
        author,
        message,
    };
    let pos = |i: usize| -> DbResult<&str> { positional.get(i).copied().ok_or_else(usage) };
    let cluster = session.cluster();

    match verb {
        "put" => {
            let key = pos(0)?;
            let value = pos(1)?;
            let commit = cluster.put(key, Value::string(value), opts)?;
            Ok(format!(
                "servelet {} {} -> {}",
                cluster.owner_id(key),
                commit.branch,
                commit.uid
            ))
        }
        "get" => {
            let key = pos(0)?;
            let got = cluster.get(key, &branch)?;
            Ok(format!(
                "{}\n(version {} on servelet {})",
                got.value.summary(),
                got.uid,
                cluster.owner_id(key)
            ))
        }
        "batch" => {
            // Same spec syntax as the single-node `batch` verb; ops are
            // grouped per owning servelet and each group commits
            // atomically there (no cross-servelet atomicity — see README).
            if positional.is_empty() {
                return Err(DbError::InvalidInput(
                    "batch needs at least one op: put:KEY=VALUE or del:KEY".into(),
                ));
            }
            let mut wb = cluster.write_batch();
            for spec in &positional {
                if let Some(rest) = spec.strip_prefix("put:") {
                    let (key, value) = rest.split_once('=').ok_or_else(|| {
                        DbError::InvalidInput(format!("batch put op needs KEY=VALUE: {spec:?}"))
                    })?;
                    wb.put(key, Value::string(value), &opts);
                } else if let Some(key) = spec.strip_prefix("del:") {
                    wb.delete_branch(key, &branch);
                } else {
                    return Err(DbError::InvalidInput(format!(
                        "unknown batch op {spec:?} (put:KEY=VALUE | del:KEY)"
                    )));
                }
            }
            let outcomes = wb.commit()?;
            let mut out = String::new();
            for o in outcomes {
                match o {
                    forkbase::BatchOutcome::Committed(c) => {
                        out.push_str(&format!("{} -> {}\n", c.branch, c.uid));
                    }
                    forkbase::BatchOutcome::Deleted { key, branch } => {
                        out.push_str(&format!("deleted {key}@{branch}\n"));
                    }
                }
            }
            Ok(out)
        }
        "range" => {
            let key = pos(0)?;
            let start = positional.get(1).map(|s| bytes::Bytes::from(s.to_string()));
            let end = positional.get(2).map(|s| bytes::Bytes::from(s.to_string()));
            let page = cluster.map_range(key, &branch, start, end, limit)?;
            let mut out = String::new();
            for (k, v) in &page.entries {
                out.push_str(&format!(
                    "{}\t{}\n",
                    String::from_utf8_lossy(k),
                    String::from_utf8_lossy(v)
                ));
            }
            if page.truncated {
                out.push_str("… (truncated; raise --limit or narrow the range)\n");
            }
            Ok(out)
        }
        "add" => {
            let id = session.add_servelet()?;
            Ok(format!(
                "servelet {id} joined; keys per servelet now {:?}",
                cluster.key_distribution()?
            ))
        }
        "add-remote" => {
            let addr = pos(0)?;
            let id = session.add_remote_servelet(addr)?;
            Ok(format!(
                "remote servelet {id} ({addr}) joined; keys per servelet now {:?}",
                cluster.key_distribution()?
            ))
        }
        "topology" => {
            // Columns 1–2 (and the remote address) are unchanged from the
            // pre-replication output; the role is appended as a NEW last
            // column so existing consumers keep parsing by prefix.
            let topo = cluster.topology();
            let mut out = String::new();
            for id in &topo.servelet_ids {
                match topo.addr_of(*id) {
                    Some(addr) => out.push_str(&format!("servelet {id}\tremote\t{addr}")),
                    None => out.push_str(&format!("servelet {id}\tin-process")),
                }
                match topo.role_of(*id) {
                    Some(forkbase::TopoRole::Primary { anchor }) if anchor == id => {
                        out.push_str("\tprimary")
                    }
                    Some(forkbase::TopoRole::Primary { anchor }) => {
                        out.push_str(&format!("\tprimary (anchor {anchor})"))
                    }
                    Some(forkbase::TopoRole::Replica { primary }) => {
                        out.push_str(&format!("\treplica of {primary}"))
                    }
                    None => {}
                }
                out.push('\n');
            }
            Ok(out)
        }
        "add-replica" => {
            let primary: u64 = pos(0)?
                .parse()
                .map_err(|_| DbError::InvalidInput("add-replica needs a primary id".into()))?;
            let id = session.add_replica(primary)?;
            Ok(format!(
                "replica {id} attached to primary {primary} (synced)"
            ))
        }
        "add-remote-replica" => {
            let primary: u64 = pos(0)?.parse().map_err(|_| {
                DbError::InvalidInput("add-remote-replica needs a primary id".into())
            })?;
            let addr = pos(1)?;
            let id = session.add_remote_replica(primary, addr)?;
            Ok(format!(
                "remote replica {id} ({addr}) attached to primary {primary} (synced)"
            ))
        }
        "promote" => {
            let id: u64 = pos(0)?
                .parse()
                .map_err(|_| DbError::InvalidInput("promote needs a replica id".into()))?;
            let old = session.promote_replica(id)?;
            Ok(format!(
                "replica {id} promoted; primary {old} retired (its id is burned; \
                 its directory remains on disk until you delete it)"
            ))
        }
        "replication-status" => {
            let status = cluster.replication_status();
            let mut out = String::new();
            for p in &status.primaries {
                out.push_str(&format!(
                    "primary {}\tanchor {}\tseq {}\n",
                    p.primary, p.anchor, p.seq
                ));
                for r in &p.replicas {
                    out.push_str(&format!(
                        "  replica {}\tlag {}\tpending {}{}{}\n",
                        r.id,
                        r.lag,
                        r.pending,
                        if r.needs_full_sync { "\tresyncing" } else { "" },
                        match &r.addr {
                            Some(a) => format!("\t{a}"),
                            None => String::new(),
                        },
                    ));
                }
                if p.replicas.is_empty() {
                    out.push_str("  (no replicas)\n");
                }
            }
            Ok(out)
        }
        "remove" => {
            let id: u64 = pos(0)?
                .parse()
                .map_err(|_| DbError::InvalidInput("remove needs a servelet id".into()))?;
            session.remove_servelet(id)?;
            Ok(format!(
                "servelet {id} drained and removed; keys per servelet now {:?}",
                cluster.key_distribution()?
            ))
        }
        "keys" => Ok(cluster.list_keys()?.join("\n")),
        "stats" => Ok(cluster.stats()?.to_string()),
        "gc" => {
            let report = cluster.gc()?;
            let mut out = String::new();
            for (id, report) in report.reports {
                out.push_str(&format!("servelet {id}:\n{report}\n"));
            }
            if !report.degraded.is_empty() {
                out.push_str(&format!(
                    "skipped unreachable servelet(s) {:?}; their dead chunks survive \
                     until a later pass finds them alive\n",
                    report.degraded
                ));
            }
            Ok(out)
        }
        "health" => {
            let mut out = String::new();
            for h in cluster.health() {
                out.push_str(&format!("servelet {}\t{}", h.servelet, h.state.as_str()));
                if h.consecutive_failures > 0 {
                    out.push_str(&format!("\tfailures={}", h.consecutive_failures));
                }
                if let Some(err) = &h.last_error {
                    out.push_str(&format!("\t{err}"));
                }
                out.push('\n');
            }
            Ok(out)
        }
        "restart" => {
            let id: u64 = pos(0)?
                .parse()
                .map_err(|_| DbError::InvalidInput("restart needs a servelet id".into()))?;
            cluster.restart_servelet(id)?;
            Ok(format!("servelet {id} restarted from its durable backend"))
        }
        _ => Err(usage()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forkbase-cluster-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cluster_state_survives_reopen_and_routes_identically() {
        let root = temp_root("reopen");
        let owners: Vec<(String, u64)>;
        {
            let s = ClusterSession::init(&root, 3).unwrap();
            for i in 0..30 {
                run_cluster_command(&s, &["put", &format!("k{i}"), &format!("v{i}")]).unwrap();
            }
            owners = (0..30)
                .map(|i| {
                    let k = format!("k{i}");
                    let owner = s.cluster().owner_id(&k);
                    (k, owner)
                })
                .collect();
            s.save().unwrap();
        }
        let s = ClusterSession::open(&root).unwrap();
        for (key, owner) in owners {
            assert_eq!(
                s.cluster().owner_id(&key),
                owner,
                "routing drifted for {key}"
            );
            let out = run_cluster_command(&s, &["get", &key]).unwrap();
            assert!(out.contains(&format!("servelet {owner}")));
        }
        // Double-init is refused.
        assert!(ClusterSession::init(&root, 2).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cluster_rebalance_via_commands() {
        let root = temp_root("rebalance");
        let s = ClusterSession::init(&root, 2).unwrap();
        for i in 0..40 {
            run_cluster_command(&s, &["put", &format!("k{i}"), &format!("v{i}")]).unwrap();
        }
        let out = run_cluster_command(&s, &["add"]).unwrap();
        assert!(out.contains("servelet 2 joined"), "{out}");
        assert!(ClusterSession::servelet_dir(&root, 2).exists());
        let keys = run_cluster_command(&s, &["keys"]).unwrap();
        assert_eq!(keys.lines().count(), 40);

        let out = run_cluster_command(&s, &["remove", "0"]).unwrap();
        assert!(out.contains("servelet 0 drained"), "{out}");
        assert!(
            !ClusterSession::servelet_dir(&root, 0).exists(),
            "drained directory deleted"
        );
        for i in 0..40 {
            let got = run_cluster_command(&s, &["get", &format!("k{i}")]).unwrap();
            assert!(got.contains(&format!("\"v{i}\"")), "{got}");
        }
        let stats = run_cluster_command(&s, &["stats"]).unwrap();
        assert!(
            stats.contains("cluster: 2 servelet(s), 40 key(s)"),
            "{stats}"
        );
        s.save().unwrap();

        // Reopen after elasticity: topology reflects the changes.
        drop(s);
        let s = ClusterSession::open(&root).unwrap();
        assert_eq!(s.cluster().ids(), vec![1, 2]);
        assert_eq!(
            run_cluster_command(&s, &["keys"]).unwrap().lines().count(),
            40
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn replication_via_commands_survives_reopen_and_promotes() {
        let root = temp_root("replication");
        let s = ClusterSession::init(&root, 2).unwrap();
        for i in 0..20 {
            run_cluster_command(&s, &["put", &format!("k{i}"), &format!("v{i}")]).unwrap();
        }
        let pid = s.cluster().ids()[0];
        let out = run_cluster_command(&s, &["add-replica", &pid.to_string()]).unwrap();
        assert!(out.contains(&format!("attached to primary {pid}")), "{out}");
        let rid = s.cluster().replica_ids()[0].0;
        assert!(ClusterSession::servelet_dir(&root, rid).exists());

        // The topology output renders the new role column after the
        // unchanged legacy columns.
        let topo = run_cluster_command(&s, &["topology"]).unwrap();
        assert!(
            topo.contains(&format!("servelet {pid}\tin-process\tprimary\n")),
            "{topo}"
        );
        assert!(
            topo.contains(&format!("servelet {rid}\tin-process\treplica of {pid}\n")),
            "{topo}"
        );
        let status = run_cluster_command(&s, &["replication-status"]).unwrap();
        assert!(
            status.contains(&format!("replica {rid}\tlag 0")),
            "{status}"
        );
        s.save().unwrap();
        // The clean save proved the replica caught-up and recorded it.
        let marker = std::fs::read_to_string(ClusterSession::synced_marker_path(&root)).unwrap();
        assert!(marker.contains(&rid.to_string()), "{marker}");
        drop(s);

        // Reopen re-attaches the replica. The catch-up marker is consumed
        // (deleted) and the replica re-attaches already caught-up — no
        // full resync, so the dead-primary promote below can work.
        let s = ClusterSession::open(&root).unwrap();
        assert!(!ClusterSession::synced_marker_path(&root).exists());
        assert_eq!(s.cluster().replica_ids(), vec![(rid, pid)]);
        let status = s.cluster().replication_status();
        assert!(
            !status.primaries[0].replicas[0].needs_full_sync,
            "{status:?}"
        );

        // Kill the primary FIRST, then promote via the CLI — the runbook
        // scenario: the primary never comes back, and the fresh process
        // can still fail over because the marker vouched for the replica.
        let slot = s.cluster().ids().iter().position(|&i| i == pid).unwrap();
        s.cluster().kill_servelet(slot).unwrap();
        let out = run_cluster_command(&s, &["promote", &rid.to_string()]).unwrap();
        assert!(out.contains(&format!("replica {rid} promoted")), "{out}");
        for i in 0..20 {
            let got = run_cluster_command(&s, &["get", &format!("k{i}")]).unwrap();
            assert!(got.contains(&format!("\"v{i}\"")), "{got}");
        }
        drop(s);

        // The swung topology persisted: a fresh open routes through the
        // promoted servelet, with the retired id gone for good.
        let s = ClusterSession::open(&root).unwrap();
        assert!(s.cluster().ids().contains(&rid));
        assert!(!s.cluster().ids().contains(&pid));
        for i in 0..20 {
            let got = run_cluster_command(&s, &["get", &format!("k{i}")]).unwrap();
            assert!(got.contains(&format!("\"v{i}\"")), "{got}");
        }
        // Bad inputs stay structured errors.
        assert!(run_cluster_command(&s, &["add-replica", "nope"]).is_err());
        assert!(run_cluster_command(&s, &["promote", "999"]).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Two routers' worth of mutating frames on two connections at once:
    /// the persist hook used to race on `refs.tmp` and fail a write that
    /// had already applied with "No such file or directory".
    #[test]
    fn concurrent_mutating_connections_all_ack_and_reopen() {
        use forkbase::{ClusterTopology, TopoRole};
        const WRITERS: usize = 2;
        const PUTS: usize = 40;
        let root = temp_root("servelet-concurrent");
        let router = |server: &forkbase::ServeletServer| {
            let topology = ClusterTopology {
                servelet_ids: vec![0],
                addrs: vec![Some(server.addr().to_string())],
                roles: vec![TopoRole::Primary { anchor: 0 }],
                next_id: 1,
            };
            Cluster::<forkbase_store::MemStore>::connect(
                &topology,
                forkbase_postree::TreeConfig::default_config(),
            )
            .unwrap()
        };
        let server = serve_servelet("127.0.0.1:0", &root).unwrap();
        let cluster = router(&server);
        let start = std::sync::Barrier::new(WRITERS);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (cluster, start) = (&cluster, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PUTS {
                        cluster
                            .put_string(
                                &format!("w{w}-k{i}"),
                                format!("v{i}"),
                                PutOptions::default(),
                            )
                            .unwrap_or_else(|e| panic!("writer {w} put {i}: {e}"));
                    }
                });
            }
        });
        drop(cluster);
        drop(server);
        // Every ack was persisted: a fresh servelet over the same
        // directory has every key.
        let server = serve_servelet("127.0.0.1:0", &root).unwrap();
        let cluster = router(&server);
        for w in 0..WRITERS {
            for i in 0..PUTS {
                let got = cluster.get(&format!("w{w}-k{i}"), "master").unwrap();
                assert_eq!(got.value, Value::string(format!("v{i}")));
            }
        }
        drop(cluster);
        drop(server);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn batch_range_and_errors() {
        let root = temp_root("batch");
        let s = ClusterSession::init(&root, 2).unwrap();
        let out = run_cluster_command(&s, &["batch", "put:a=1", "put:b=2", "put:a=1b"]).unwrap();
        assert_eq!(out.lines().count(), 3);
        let got = run_cluster_command(&s, &["get", "a"]).unwrap();
        assert!(got.contains("1b"));

        // A table-ish map for range.
        s.cluster()
            .with_key("tbl", |db| {
                let pairs = (0..50)
                    .map(|i| {
                        (
                            bytes::Bytes::from(format!("r{i:03}")),
                            bytes::Bytes::from(format!("x{i}")),
                        )
                    })
                    .collect();
                let map = db.new_map(pairs)?;
                db.put("tbl", map, &PutOptions::default())
            })
            .unwrap()
            .unwrap();
        let page =
            run_cluster_command(&s, &["range", "tbl", "r010", "r020", "--limit", "5"]).unwrap();
        assert!(page.contains("r010\t"));
        assert!(page.contains("truncated"), "{page}");

        assert!(run_cluster_command(&s, &[]).is_err());
        assert!(run_cluster_command(&s, &["bogus"]).is_err());
        assert!(run_cluster_command(&s, &["get", "missing"]).is_err());
        assert!(run_cluster_command(&s, &["remove", "not-a-number"]).is_err());
        assert!(run_cluster_command(&s, &["batch", "zap:x"]).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
