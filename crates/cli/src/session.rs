//! A CLI session: one deployment shape's durable state in a directory,
//! opened, saved and served the same way for a node and a cluster.
//!
//! A node keeps its records in the data directory itself; a cluster
//! keeps them in `<data>/cluster/`:
//!
//! ```text
//! <data>/chunks/MANIFEST            — node: chunk-store segment list (atomic swap)
//! <data>/chunks/pack-*.fbk          — node: the chunk store (append-only pack files)
//! <data>/refs.log                   — node: branch heads (a checkpoint plus
//!                                     appended swings; see [`crate::reflog`])
//! <data>/refs                       — node: legacy text heads, adopted on
//!                                     open, deleted by the first save
//! <data>/FORKS                      — node: fork-sandbox registry (leases resume on reopen)
//! <data>/cluster/TOPOLOGY           — servelet ids, roles + next id (stable routing)
//! <data>/cluster/FORKS              — cluster: fork-sandbox registry
//! <data>/cluster/REPLICAS_SYNCED    — replicas proven caught-up at last clean save
//! <data>/cluster/servelet-<id>/     — one servelet's `chunks/` and `refs.log`, a node's layout
//! ```
//!
//! Every cluster servelet runs its own worker thread with a private
//! `ForkBase<FileStore>`; the topology record makes routing a pure
//! function of the persisted ring anchors, so reopening the directory
//! routes every key exactly as before. `add`/`remove` rebalance live:
//! only the keys whose ring owner changed migrate, each with its full
//! branch/version history and byte-identical chunk addresses. Replicas
//! use the same `servelet-<id>/` layout and are re-attached on reopen.
//!
//! # Durability
//!
//! Every servelet, local or remote, persists its own acks through one
//! constructor, [`persist_to`]: a mutating request's head swings reach
//! its `refs.log` (chunk store synced first) before the ack. The session
//! persists no servelet heads; the cluster's placement hook rewrites
//! `TOPOLOGY` after every join, removal, promotion and replica attach or
//! detach, before any source forgets a key it handed over. A single
//! node persists on the serve loop's 5 s beat and after every verb (a
//! per-ack flush would cost every REST `PUT` a device flush), so a
//! killed node gateway loses up to 5 s of chunks and heads.
//!
//! `REPLICAS_SYNCED` is the cross-process half of the zero-acked-write-
//! loss story: a (re)attached replica is conservatively marked for full
//! resync, which needs a live primary — so promoting a dead primary's
//! replica from a *fresh* process would be refused. The marker, written
//! durably at every clean save for exactly the replicas the ship left at
//! lag 0 (refs already persisted), and **consumed (deleted) on open**,
//! lets those replicas re-attach caught-up: `cluster promote` then works
//! with the primary dead, draining an empty log. Any unclean exit leaves
//! no marker and the next open falls back to the conservative resync.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use forkbase::{
    Backend, Cluster, ClusterTopology, DbError, DbResult, ForkBase, ForkService, PersistFn,
    RateLimit, RateLimiter, Respawned, ServeletServer, Supervisor,
};
use forkbase_store::{FileStore, SweepStore};
use parking_lot::Mutex;

use crate::commands::{cluster_verb, node_verb, run_command, Flags};
use crate::reflog;
use crate::rest::RestServer;

/// First line of the `REPLICAS_SYNCED` marker; an unrecognized magic is
/// ignored (conservative: the replicas just resync in full).
const SYNCED_MARKER_MAGIC: &str = "forkbase-cluster-replicas-synced-v1";

/// One deployment shape's durable state, bound to a directory: a single
/// node (the default) or a [`Cluster`].
pub struct Session<B = ForkBase<FileStore>> {
    pub(crate) backend: Arc<B>,
    pub(crate) forks: Arc<ForkService>,
    /// Where this shape's records live: the data directory for a node,
    /// `<data>/cluster` for a cluster.
    pub(crate) dir: PathBuf,
}

/// What one deployment shape adds to the shared session and verb table.
/// Its module is private, so no other crate can name or implement it.
/// (The REST gateway's own hook also serves in-memory clusters; this
/// one persists, so its cluster is file-backed.)
pub trait Shape: Backend + Send + Sync + Sized + 'static {
    /// Default gateway port.
    const PORT: u16;
    /// How the gateway names itself when it starts.
    const GATEWAY: &'static str;

    /// The servelet owning `key`, named beside `put` and `get` output.
    fn owner(&self, _key: &str) -> Option<u64> {
        None
    }

    /// Run a verb only this shape has, or answer the usage error.
    fn own_verb(session: &Session<Self>, verb: &str, flags: &Flags) -> DbResult<String>;

    /// Make the shape's own records durable under `dir` (the session
    /// writes `FORKS`).
    fn save(&self, dir: &Path) -> DbResult<()>;

    /// Start the REST gateway, and whatever keeps the shape healthy
    /// while it serves.
    fn serve(
        session: &Session<Self>,
        port: u16,
        limiter: Arc<RateLimiter>,
    ) -> std::io::Result<(RestServer, Option<Supervisor>)>;

    /// The serving loop's periodic work, done before each save.
    fn beat(&self, _forks: &ForkService) {}
}

impl<S: SweepStore + 'static> Shape for ForkBase<S> {
    const PORT: u16 = 8642;
    const GATEWAY: &'static str = "forkbase REST server";

    fn own_verb(session: &Session<Self>, verb: &str, flags: &Flags) -> DbResult<String> {
        node_verb(&session.backend, verb, flags)
    }

    fn save(&self, dir: &Path) -> DbResult<()> {
        reflog::commit(dir, self)
    }

    fn serve(
        session: &Session<Self>,
        port: u16,
        limiter: Arc<RateLimiter>,
    ) -> std::io::Result<(RestServer, Option<Supervisor>)> {
        let forks = Arc::clone(&session.forks);
        let server = RestServer::start(Arc::clone(&session.backend), port, forks, Some(limiter))?;
        Ok((server, None))
    }

    /// Reap expired fork sandboxes: their branches are deleted and the
    /// next `gc` reclaims their chunks.
    fn beat(&self, forks: &ForkService) {
        let report = forks.reap_expired(self);
        if !report.reaped.is_empty() {
            println!(
                "reaped {} expired fork(s): {}",
                report.reaped.len(),
                report.reaped.join(", ")
            );
        }
    }
}

impl Shape for Cluster<FileStore> {
    const PORT: u16 = 8643;
    const GATEWAY: &'static str = "forkbase cluster gateway";

    fn owner(&self, key: &str) -> Option<u64> {
        Some(self.owner_id(key))
    }

    fn own_verb(session: &Session<Self>, verb: &str, flags: &Flags) -> DbResult<String> {
        cluster_verb(session, verb, flags)
    }

    /// Ship the replication log (best-effort), so replicas are as fresh
    /// as possible, then record which replicas it left caught up. The
    /// servelets persist their own heads on every ack and the placement
    /// hook records `TOPOLOGY` (see the module doc).
    fn save(&self, dir: &Path) -> DbResult<()> {
        let _ = self.ship_replication();
        // Record which replicas this save proved caught-up (shipped to
        // lag 0 above; each applied ship was persisted before its ack):
        // they may re-attach without a full resync on the next open — see
        // the module doc.
        let caught_up: Vec<String> = self
            .replication_status()
            .primaries
            .iter()
            .flat_map(|p| &p.replicas)
            .filter(|r| r.lag == 0 && r.pending == 0 && !r.needs_full_sync)
            .map(|r| r.id.to_string())
            .collect();
        let marker_path = dir.join("REPLICAS_SYNCED");
        if caught_up.is_empty() {
            match std::fs::remove_file(&marker_path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(e)),
                _ => Ok(()),
            }
        } else {
            write_durable(
                &marker_path,
                format!("{SYNCED_MARKER_MAGIC}\n{}\n", caught_up.join("\n")),
            )
        }
    }

    fn serve(
        session: &Session<Self>,
        port: u16,
        limiter: Arc<RateLimiter>,
    ) -> std::io::Result<(RestServer, Option<Supervisor>)> {
        let cluster = Arc::clone(&session.backend);
        let forks = Arc::clone(&session.forks);
        let server = RestServer::start_cluster(Arc::clone(&cluster), port, forks, Some(limiter))?;
        // Self-heal while serving: probe every 2 s and restart dead
        // servelets from their durable backends (packs + refs files).
        // After 5 consecutive failed probes (~10 s down) a primary with a
        // caught-up replica is failed over instead of restarted in place.
        // The fork-sandbox reaper rides the same tick: expired leases are
        // collected every pass, their branches dropped cluster-wide.
        cluster.set_failover_threshold(Some(5));
        let forks = Arc::clone(&session.forks);
        let supervisor =
            Supervisor::spawn_with_tick(cluster, Duration::from_secs(2), move |cluster| {
                let _ = forks.reap_expired(cluster);
            });
        Ok((server, Some(supervisor)))
    }
}

impl<B: Shape> Session<B> {
    /// A session over a loaded `backend` whose records live in `dir`,
    /// resuming fork leases from `dir/FORKS`. Leases are absolute unix
    /// seconds, so a fork created before a restart keeps exactly the
    /// expiry it was promised.
    fn resume(backend: B, dir: PathBuf) -> DbResult<Self> {
        let forks = ForkService::new();
        if let Some(text) = read_if_present(&dir.join("FORKS"))? {
            forks.load(&text)?;
        }
        Ok(Session {
            backend: Arc::new(backend),
            forks: Arc::new(forks),
            dir,
        })
    }

    /// The fork-sandbox registry this session persists.
    pub fn forks(&self) -> &ForkService {
        &self.forks
    }

    /// Persist the shape's records and the fork registry durably: a
    /// node's heads (its chunk store flushed first), a cluster's ship.
    pub fn save(&self) -> DbResult<()> {
        self.backend.save(&self.dir)?;
        write_durable(&self.dir.join("FORKS"), self.forks.dump())
    }

    /// Run one invocation's arguments (the verb and its arguments, after
    /// `--data DIR` and any leading `cluster`). `serve [PORT]` serves the
    /// REST gateway until the process is killed; any other verb runs
    /// once, and then the session is saved whether or not the verb
    /// succeeded — a routed batch that fails on one servelet stays
    /// committed on the others, and those heads must survive the process.
    pub fn run_cli(&self, args: &[&str]) -> ExitCode {
        if let Some((&"serve", port)) = args.split_first() {
            return self.serve(port.first().and_then(|p| p.parse().ok()).unwrap_or(B::PORT));
        }
        let output = run_command(self, args);
        let code = match &output {
            Ok(text) => {
                if !text.is_empty() {
                    println!("{text}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
        match self.save() {
            Ok(()) => code,
            Err(e) => {
                eprintln!("warning: failed to persist state: {e}");
                ExitCode::FAILURE
            }
        }
    }

    /// Serve the REST gateway on `port` until the process is killed,
    /// saving every 5 s. On a node that save is the only persist, so a
    /// kill loses up to 5 s of writes: chunks wait in the `FileStore`'s
    /// write buffer until its sync, heads until the ref log's append. A
    /// cluster's servelets persist every ack themselves.
    fn serve(&self, port: u16) -> ExitCode {
        // Per-peer admission: generous enough that a human or a
        // well-behaved script never sees it, tight enough that one
        // runaway client cannot monopolize the gateway's 64 handler
        // threads. Shed requests answer `429` + `retry-after`.
        let limiter = Arc::new(RateLimiter::new(RateLimit::new(500.0, 1000.0)));
        let (server, supervisor) = match B::serve(self, port, limiter) {
            Ok(serving) => serving,
            Err(e) => {
                eprintln!("failed to bind port {port}: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{} listening on http://{}", B::GATEWAY, server.addr());
        let note = if supervisor.is_some() {
            " (supervised)"
        } else {
            ""
        };
        println!("data directory: {}{note}", self.dir.display());
        println!("press Ctrl-C to stop");
        loop {
            std::thread::sleep(Duration::from_secs(5));
            self.backend.beat(&self.forks);
            if let Err(e) = self.save() {
                eprintln!("warning: failed to persist state: {e}");
            }
        }
    }
}

impl Session {
    /// Open (or initialize) a single node under `root`.
    pub fn open(root: impl AsRef<Path>) -> DbResult<Session> {
        let root = root.as_ref();
        let db = ForkBase::new(FileStore::open(root.join("chunks"))?);
        if let Some(text) = reflog::read(root)? {
            db.load_refs(&text)?;
        }
        Session::resume(db, root.to_path_buf())
    }

    /// The database handle.
    pub fn db(&self) -> &ForkBase<FileStore> {
        &self.backend
    }
}

impl Session<Cluster<FileStore>> {
    /// Initialize a fresh cluster of `n` servelets under `<root>/cluster`.
    /// Refuses to clobber an existing topology.
    pub fn init_cluster(root: impl AsRef<Path>, n: usize) -> DbResult<Self> {
        let dir = root.as_ref().join("cluster");
        if n == 0 {
            return Err(DbError::InvalidInput(
                "a cluster needs at least one servelet".into(),
            ));
        }
        let topo_path = dir.join("TOPOLOGY");
        if topo_path.exists() {
            return Err(DbError::InvalidInput(format!(
                "cluster already initialized at {}",
                topo_path.display()
            )));
        }
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let topology = ClusterTopology::local((0..n as u64).collect(), n as u64);
        write_durable(&topo_path, topology.encode())?;
        Self::open_cluster(root)
    }

    /// Open the cluster persisted under `<root>/cluster`.
    pub fn open_cluster(root: impl AsRef<Path>) -> DbResult<Self> {
        Self::open_cluster_with(root, persist_to)
    }

    /// [`Self::open_cluster`] with `persist` constructing each opened
    /// local servelet's persist hook from its directory.
    fn open_cluster_with(
        root: impl AsRef<Path>,
        persist: impl Fn(PathBuf) -> PersistFn<FileStore> + Send + Sync + 'static,
    ) -> DbResult<Self> {
        let dir = root.as_ref().join("cluster");
        let topo_path = dir.join("TOPOLOGY");
        let text = std::fs::read_to_string(&topo_path).map_err(|e| {
            DbError::InvalidInput(format!(
                "no cluster at {} ({e}); run `cluster init N` first",
                topo_path.display()
            ))
        })?;
        let topology = ClusterTopology::parse(&text)?;
        // Local servelets open with their persisted heads and persist
        // hook; the opener is also the supervisor's respawn factory.
        // Remote servelets own their stores and refs.
        let open_dir = dir.clone();
        let cluster = Cluster::from_topology(
            &topology,
            forkbase_postree::TreeConfig::default_config(),
            move |id| {
                let servelet = servelet_dir(&open_dir, id);
                open_servelet(&servelet, persist(servelet.clone()))
            },
        )?;
        cluster.set_placement_hook(move |topology| write_durable(&topo_path, topology.encode()));
        // Consume the catch-up marker: replicas the last clean save
        // proved at lag 0 (with refs persisted) re-attach caught-up, so
        // `promote` works even when their primary never comes back. The
        // marker is deleted BEFORE any command runs — a crash from here
        // on leaves no marker, and the next open resyncs conservatively.
        let marker_path = dir.join("REPLICAS_SYNCED");
        if let Some(text) = read_if_present(&marker_path)? {
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
        Session::resume(cluster, dir)
    }

    /// The cluster handle.
    pub fn cluster(&self) -> &Cluster<FileStore> {
        &self.backend
    }

    /// Provision the next servelet id's data directory and hand the
    /// opened servelet to `join` (`add_servelet` or `add_replica`), which
    /// returns the id the cluster assigned. A join that failed before
    /// placing the servelet drops the fresh directory, so it leaks no
    /// partial packs on disk.
    pub(crate) fn provision(
        &self,
        join: impl FnOnce(Respawned<FileStore>) -> DbResult<u64>,
    ) -> DbResult<u64> {
        let id = self.backend.next_servelet_id();
        let dir = servelet_dir(&self.dir, id);
        let joined = join(open_servelet(&dir, persist_to(dir.clone()))?);
        if joined.is_err() && !self.backend.topology().servelet_ids.contains(&id) {
            let _ = std::fs::remove_dir_all(&dir);
        }
        joined
    }

    /// Remove servelet `id` after migrating its keys away, then delete its
    /// drained data directory: its keys are durable on their new owners
    /// (each import was persisted before its ack) and `TOPOLOGY` no
    /// longer names it.
    pub(crate) fn remove_servelet(&self, id: u64) -> DbResult<()> {
        self.backend.remove_servelet(id)?;
        let dir = servelet_dir(&self.dir, id);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io_err)?;
        }
        Ok(())
    }
}

/// Start a standalone servelet process: a [`ServeletServer`] executing
/// wire requests against a durable [`FileStore`] under `root` (a node's
/// layout), persisting every ack through `persist_to` — kill -9 after
/// an ack never loses the write. This is what `forkbase serve
/// --servelet ADDR` runs.
pub fn serve_servelet(addr: &str, root: impl AsRef<Path>) -> DbResult<ServeletServer> {
    let root = root.as_ref().to_path_buf();
    let db = Session::open(&root)?.backend;
    // Per-peer admission control: a chatty router cannot monopolize the
    // servelet's worker threads; shed frames answer a structured
    // `WireError::RateLimited` with a retry hint, connection kept open.
    let limiter = Arc::new(RateLimiter::new(RateLimit::new(2000.0, 4000.0)));
    ServeletServer::spawn_limited(addr, db, Some(persist_to(root)), Some(limiter))
}

/// The persist hook of the servelet whose records live in `dir`, local
/// or remote: each mutating request's head swings are appended to
/// `dir/refs.log`, the chunk store synced first ([`reflog::commit`]),
/// before the request is acked.
fn persist_to(dir: PathBuf) -> PersistFn<FileStore> {
    // A TCP servelet serves each connection on a thread of its own; one
    // commit at a time, so each drain of the ref journal is appended
    // before the next is taken and the log never goes back to older
    // heads than an earlier ack already made durable.
    let persisting = Mutex::new(());
    Arc::new(move |db| {
        let _one_at_a_time = persisting.lock();
        reflog::commit(&dir, db)
    })
}

/// Open the local servelet whose records live in `dir`: its chunk store,
/// its persisted heads, and `persist`.
fn open_servelet(dir: &Path, persist: PersistFn<FileStore>) -> DbResult<Respawned<FileStore>> {
    Ok(Respawned {
        store: FileStore::open(dir.join("chunks"))?,
        refs: reflog::read(dir)?,
        persist: Some(persist),
    })
}

/// A cluster servelet's data directory under the cluster's `dir`.
fn servelet_dir(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("servelet-{id}"))
}

pub(crate) fn io_err(e: std::io::Error) -> DbError {
    DbError::Store(forkbase_store::StoreError::Io(e))
}

/// The contents of the record at `path`, `None` when there is none.
pub(crate) fn read_if_present(path: &Path) -> DbResult<Option<String>> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(e)),
    }
}

/// Durably replace `path` with `contents`: write a tmp file, fsync it,
/// atomically rename it into place, then fsync the parent directory —
/// the same protocol the chunk store uses for its MANIFEST. Every record
/// the CLI persists (`FORKS`, `TOPOLOGY`, the replica marker, a fresh
/// `refs.log` checkpoint) goes through here, so a crash leaves either the
/// old file or the new one.
pub(crate) fn write_durable(path: &Path, contents: impl AsRef<[u8]>) -> DbResult<()> {
    let tmp = path.with_extension("tmp");
    (|| -> std::io::Result<()> {
        {
            let mut f = std::fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut f, contents.as_ref())?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase::{PutOptions, VersionSpec};
    use forkbase_types::Value;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forkbase-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn state_survives_reopen() {
        let root = temp_root("reopen");
        {
            let s = Session::open(&root).unwrap();
            s.db()
                .put("doc", Value::string("persisted"), &PutOptions::default())
                .unwrap();
            s.db().branch("doc", "master", "dev").unwrap();
            s.save().unwrap();
        }
        let s = Session::open(&root).unwrap();
        assert_eq!(
            s.db().get("doc", "master").unwrap().value.as_str(),
            Some("persisted")
        );
        assert_eq!(s.db().list_branches("doc").unwrap().len(), 2);
        // History intact and verifiable after restart.
        s.db().verify_branch("doc", "master").unwrap();
        let h = s
            .db()
            .history("doc", &VersionSpec::branch("master"))
            .unwrap();
        assert_eq!(h.len(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn logical_clock_advances_after_reload() {
        let root = temp_root("clock");
        let first_time;
        {
            let s = Session::open(&root).unwrap();
            let c = s
                .db()
                .put("k", Value::Int(1), &PutOptions::default())
                .unwrap();
            first_time = s.db().meta(&c.uid).unwrap().logical_time;
            s.save().unwrap();
        }
        let s = Session::open(&root).unwrap();
        let c2 = s
            .db()
            .put("k", Value::Int(2), &PutOptions::default())
            .unwrap();
        assert!(s.db().meta(&c2.uid).unwrap().logical_time > first_time);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fork_leases_survive_reopen() {
        let root = temp_root("forks");
        let fork_id;
        {
            let s = Session::open(&root).unwrap();
            s.db()
                .put("doc", Value::string("base"), &PutOptions::default())
                .unwrap();
            let info = s
                .forks()
                .create(VersionSpec::branch("master"), Some(3600), None)
                .unwrap();
            fork_id = info.id.clone();
            s.forks()
                .put(
                    s.db(),
                    &fork_id,
                    "doc",
                    Value::string("forked"),
                    &PutOptions::default(),
                )
                .unwrap();
            s.save().unwrap();
        }
        let s = Session::open(&root).unwrap();
        // The lease, the pinned base, and the touched-key set all resume.
        let info = s.forks().info(&fork_id).unwrap();
        assert_eq!(info.writes, 1);
        assert_eq!(info.touched.len(), 1);
        let got = s.forks().get(s.db(), &fork_id, "doc").unwrap();
        assert_eq!(got.value.as_str(), Some("forked"));
        let diff = s.forks().diff(s.db(), &fork_id).unwrap();
        assert_eq!(diff.changed_keys(), 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupted_refs_rejected() {
        let root = temp_root("badrefs");
        {
            let s = Session::open(&root).unwrap();
            s.db()
                .put("k", Value::Int(1), &PutOptions::default())
                .unwrap();
            s.save().unwrap();
        }
        // Point the ref at a nonexistent uid, in a text refs file adopted
        // in place of the log (`reflog`'s tests cover the log itself).
        std::fs::remove_file(root.join("refs.log")).unwrap();
        let refs = root.join("refs");
        std::fs::write(&refs, format!("k\tmaster\t{}\n", "ab".repeat(32))).unwrap();
        assert!(Session::open(&root).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cluster_state_survives_reopen_and_routes_identically() {
        let root = temp_root("cluster-reopen");
        let owners: Vec<(String, u64)>;
        {
            let s = Session::init_cluster(&root, 3).unwrap();
            for i in 0..30 {
                run_command(&s, &["put", &format!("k{i}"), &format!("v{i}")]).unwrap();
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
        let s = Session::open_cluster(&root).unwrap();
        for (key, owner) in owners {
            assert_eq!(
                s.cluster().owner_id(&key),
                owner,
                "routing drifted for {key}"
            );
            let out = run_command(&s, &["get", &key]).unwrap();
            assert!(out.contains(&format!("servelet {owner}")));
        }
        // Double-init is refused.
        assert!(Session::init_cluster(&root, 2).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cluster_rebalance_via_commands() {
        let root = temp_root("cluster-rebalance");
        let s = Session::init_cluster(&root, 2).unwrap();
        for i in 0..40 {
            run_command(&s, &["put", &format!("k{i}"), &format!("v{i}")]).unwrap();
        }
        let out = run_command(&s, &["add"]).unwrap();
        assert!(out.contains("servelet 2 joined"), "{out}");
        assert!(servelet_dir(&root.join("cluster"), 2).exists());
        let keys = run_command(&s, &["keys"]).unwrap();
        assert_eq!(keys.lines().count(), 40);

        let out = run_command(&s, &["remove", "0"]).unwrap();
        assert!(out.contains("servelet 0 drained"), "{out}");
        assert!(
            !servelet_dir(&root.join("cluster"), 0).exists(),
            "drained directory deleted"
        );
        for i in 0..40 {
            let got = run_command(&s, &["get", &format!("k{i}")]).unwrap();
            assert!(got.contains(&format!("\"v{i}\"")), "{got}");
        }
        let stats = run_command(&s, &["stats"]).unwrap();
        assert!(
            stats.contains("cluster: 2 servelet(s), 40 key(s)"),
            "{stats}"
        );
        s.save().unwrap();

        // Reopen after elasticity: topology reflects the changes.
        drop(s);
        let s = Session::open_cluster(&root).unwrap();
        assert_eq!(s.cluster().ids(), vec![1, 2]);
        assert_eq!(run_command(&s, &["keys"]).unwrap().lines().count(), 40);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn replication_via_commands_survives_reopen_and_promotes() {
        let root = temp_root("cluster-replication");
        let s = Session::init_cluster(&root, 2).unwrap();
        for i in 0..20 {
            run_command(&s, &["put", &format!("k{i}"), &format!("v{i}")]).unwrap();
        }
        let pid = s.cluster().ids()[0];
        let out = run_command(&s, &["add-replica", &pid.to_string()]).unwrap();
        assert!(out.contains(&format!("attached to primary {pid}")), "{out}");
        let rid = s.cluster().replica_ids()[0].0;
        assert!(servelet_dir(&root.join("cluster"), rid).exists());

        // The topology output renders the new role column after the
        // unchanged legacy columns.
        let topo = run_command(&s, &["topology"]).unwrap();
        assert!(
            topo.contains(&format!("servelet {pid}\tin-process\tprimary\n")),
            "{topo}"
        );
        assert!(
            topo.contains(&format!("servelet {rid}\tin-process\treplica of {pid}\n")),
            "{topo}"
        );
        let status = run_command(&s, &["replication-status"]).unwrap();
        assert!(
            status.contains(&format!("replica {rid}\tlag 0")),
            "{status}"
        );
        s.save().unwrap();
        // The clean save proved the replica caught-up and recorded it.
        let marker = std::fs::read_to_string(root.join("cluster/REPLICAS_SYNCED")).unwrap();
        assert!(marker.contains(&rid.to_string()), "{marker}");
        drop(s);

        // Reopen re-attaches the replica. The catch-up marker is consumed
        // (deleted) and the replica re-attaches already caught-up — no
        // full resync, so the dead-primary promote below can work.
        let s = Session::open_cluster(&root).unwrap();
        assert!(!root.join("cluster/REPLICAS_SYNCED").exists());
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
        let out = run_command(&s, &["promote", &rid.to_string()]).unwrap();
        assert!(out.contains(&format!("replica {rid} promoted")), "{out}");
        for i in 0..20 {
            let got = run_command(&s, &["get", &format!("k{i}")]).unwrap();
            assert!(got.contains(&format!("\"v{i}\"")), "{got}");
        }
        drop(s);

        // The swung topology persisted: a fresh open routes through the
        // promoted servelet, with the retired id gone for good.
        let s = Session::open_cluster(&root).unwrap();
        assert!(s.cluster().ids().contains(&rid));
        assert!(!s.cluster().ids().contains(&pid));
        for i in 0..20 {
            let got = run_command(&s, &["get", &format!("k{i}")]).unwrap();
            assert!(got.contains(&format!("\"v{i}\"")), "{got}");
        }
        // Bad inputs stay structured errors.
        assert!(run_command(&s, &["add-replica", "nope"]).is_err());
        assert!(run_command(&s, &["promote", "999"]).is_err());
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

    /// Copy the directory tree `from` to `to`.
    fn copy_tree(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_tree(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), target).unwrap();
            }
        }
    }

    /// Placement order: a source forgets the keys it handed over only
    /// after `TOPOLOGY` names their new owner. Every persist of a
    /// servelet the session opens takes a crash copy of `<data>/cluster`
    /// right after it committed — a source's `ForgetKeys` included — and
    /// each copy must reopen with every key readable at its routed owner,
    /// through a local `add`, an `add-remote` and a `remove`.
    #[test]
    fn placement_is_recorded_before_any_source_forgets() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let root = temp_root("placement-order");
        let data = root.join("data");
        let keys: Vec<(String, String)> = (0..40)
            .map(|i| (format!("k{i}"), format!("v{i}")))
            .collect();
        let s = Session::init_cluster(&data, 2).unwrap();
        for (key, value) in &keys {
            run_command(&s, &["put", key, value]).unwrap();
        }
        drop(s);
        let taken = Arc::new(AtomicUsize::new(0));
        let (cluster_dir, copies) = (data.join("cluster"), root.join("copies"));
        let (counter, into) = (Arc::clone(&taken), copies.clone());
        let crash_copies = move |dir: PathBuf| -> PersistFn<FileStore> {
            let persist = persist_to(dir);
            let (cluster, into, taken) = (cluster_dir.clone(), into.clone(), Arc::clone(&counter));
            Arc::new(move |db| {
                persist(db)?;
                let n = taken.fetch_add(1, Ordering::SeqCst);
                copy_tree(&cluster, &into.join(n.to_string()).join("cluster"));
                Ok(())
            })
        };
        let remote = serve_servelet("127.0.0.1:0", root.join("remote")).unwrap();
        let remote_addr = remote.addr().to_string();
        let mut lost = Vec::new();
        for verb in [
            vec!["add"],
            vec!["add-remote", &remote_addr],
            vec!["remove", "0"],
        ] {
            // Each verb in a session of its own, as each CLI invocation is,
            // so every servelet the verb touches was opened with the copier.
            let before = taken.load(Ordering::SeqCst);
            let s = Session::open_cluster_with(&data, crash_copies.clone()).unwrap();
            run_command(&s, &verb).unwrap();
            drop(s);
            let after = taken.load(Ordering::SeqCst);
            assert!(after > before, "{verb:?} persisted nothing");
            // Checked after the verb: the remote servelet only gains keys.
            for n in before..after {
                let copy = copies.join(n.to_string());
                let s = Session::open_cluster(&copy)
                    .unwrap_or_else(|e| panic!("crash copy {n} does not open: {e}"));
                let missing = keys.iter().filter(|(key, value)| {
                    let got = s.cluster().get(key, "master");
                    got.map_or(true, |g| g.value != Value::string(value.clone()))
                });
                if let Some((key, _)) = missing.clone().next() {
                    let count = missing.count();
                    lost.push(format!("{verb:?}: copy {n} lost {count} keys, {key} first"));
                }
            }
        }
        assert!(lost.is_empty(), "{lost:#?}");
        drop(remote);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn batch_range_and_errors() {
        let root = temp_root("cluster-batch");
        let s = Session::init_cluster(&root, 2).unwrap();
        let out = run_command(&s, &["batch", "put:a=1", "put:b=2", "put:a=1b"]).unwrap();
        assert_eq!(out.lines().count(), 3);
        let got = run_command(&s, &["get", "a"]).unwrap();
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
        let page = run_command(&s, &["range", "tbl", "r010", "r020", "--limit", "5"]).unwrap();
        assert!(page.contains("r010\t"));
        assert!(page.contains("truncated"), "{page}");

        assert!(run_command(&s, &[]).is_err());
        assert!(run_command(&s, &["bogus"]).is_err());
        assert!(run_command(&s, &["get", "missing"]).is_err());
        assert!(run_command(&s, &["remove", "not-a-number"]).is_err());
        assert!(run_command(&s, &["batch", "zap:x"]).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
