//! A CLI session: one deployment shape's durable state in a directory,
//! opened, saved and served the same way for a node and a cluster.
//!
//! A node keeps its records in the data directory itself; a cluster
//! keeps them in `<data>/cluster/`. Each directory keeps every record in
//! one log, [`crate::reflog`]'s `refs.log`:
//!
//! ```text
//! <data>/chunks/MANIFEST            — node: chunk-store segment list (atomic swap)
//! <data>/chunks/pack-*.fbk          — node: the chunk store (append-only pack files)
//! <data>/refs.log                   — node: branch heads and the fork registry
//! <data>/cluster/refs.log           — servelet ids, roles + next id (stable routing),
//!                                     the fork registry, the caught-up replicas
//! <data>/cluster/servelet-<id>/     — one servelet's `chunks/` and `refs.log` (heads)
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
//! its `refs.log` (chunk store synced first) before the ack. The
//! cluster's placement hook appends the topology after every placement
//! change (a join first as soon as it takes its id), before any source
//! forgets a key it handed over. A single node appends its heads and
//! fork registry in one write on the serve loop's 5 s beat and after
//! every verb (a per-ack flush would cost every REST `PUT` a device
//! flush), so a killed node gateway loses up to 5 s of chunks and heads.
//!
//! A clean cluster save records the replicas its ship left caught up
//! ([`Cluster::synced_record`]); the next open lets them re-attach
//! without a full resync, so `cluster promote` works with their primary
//! dead, and empties the record before any command runs, so after an
//! unclean exit every replica resyncs conservatively.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use forkbase::{
    Backend, Cluster, ClusterTopology, DbError, DbResult, ForkBase, ForkService, PersistFn,
    RateLimit, RateLimiter, Respawned, ServeletServer, Supervisor,
};
use forkbase_store::{FileStore, SweepStore};

use crate::commands::{cluster_verb, node_verb, run_command, Flags};
use crate::reflog::{Log, FORKS, SYNCED, TOPOLOGY};
use crate::rest::RestServer;

/// One deployment shape's durable state, bound to a directory: a single
/// node (the default) or a [`Cluster`].
pub struct Session<B = ForkBase<FileStore>> {
    pub(crate) backend: Arc<B>,
    pub(crate) forks: Arc<ForkService>,
    /// The log of the directory this shape's records live in: the data
    /// directory for a node, `<data>/cluster` for a cluster.
    pub(crate) log: Arc<Log>,
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

    /// Make the shape's own records durable in `log`, the fork
    /// registry's `forks` text in the same commit.
    fn save(&self, log: &Log, forks: String) -> DbResult<()>;

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

    fn save(&self, log: &Log, forks: String) -> DbResult<()> {
        log.commit(Some(self), &[(FORKS, forks)])
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

    /// Ship the replication log (best-effort), then record which replicas
    /// it left caught up; the servelets persist their own heads on every
    /// ack and the placement hook the topology (see the module doc).
    fn save(&self, log: &Log, forks: String) -> DbResult<()> {
        let _ = self.ship_replication();
        log.record(&[(FORKS, forks), (SYNCED, self.synced_record())])
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
    /// A session over a loaded `backend` whose records live in `log`,
    /// resuming fork leases from its fork registry. Leases are absolute
    /// unix seconds, so a fork created before a restart keeps exactly the
    /// expiry it was promised.
    fn resume(backend: B, log: Arc<Log>) -> DbResult<Self> {
        let forks = ForkService::new();
        if let Some(text) = log.body(FORKS) {
            forks.load(&text)?;
        }
        Ok(Session {
            backend: Arc::new(backend),
            forks: Arc::new(forks),
            log,
        })
    }

    /// The fork-sandbox registry this session persists.
    pub fn forks(&self) -> &ForkService {
        &self.forks
    }

    /// Persist the shape's records and the fork registry durably in one
    /// commit: a node's heads (its chunk store flushed first), a
    /// cluster's ship.
    pub fn save(&self) -> DbResult<()> {
        self.backend.save(&self.log, self.forks.dump())
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
        println!("data directory: {}{note}", self.log.dir.display());
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
        let (log, heads) = Log::open(root)?;
        if let Some(text) = heads {
            db.load_refs(&text)?;
        }
        Session::resume(db, Arc::new(log))
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
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let (log, _) = Log::open(&dir)?;
        if log.body(TOPOLOGY).is_some() {
            return Err(DbError::InvalidInput(format!(
                "cluster already initialized at {}",
                dir.display()
            )));
        }
        let topology = ClusterTopology::local((0..n as u64).collect(), n as u64);
        log.record(&[(TOPOLOGY, topology.encode())])?;
        Self::open_cluster(root)
    }

    /// Open the cluster persisted under `<root>/cluster`.
    pub fn open_cluster(root: impl AsRef<Path>) -> DbResult<Self> {
        Self::open_cluster_with(root, persist_to)
    }

    /// [`Self::open_cluster`] with `persist` constructing each opened
    /// local servelet's persist hook from its log.
    fn open_cluster_with(
        root: impl AsRef<Path>,
        persist: impl Fn(Arc<Log>) -> PersistFn<FileStore> + Send + Sync + 'static,
    ) -> DbResult<Self> {
        let dir = root.as_ref().join("cluster");
        let log = Arc::new(Log::open(&dir)?.0);
        let text = log.body(TOPOLOGY).ok_or_else(|| {
            DbError::InvalidInput(format!(
                "no cluster at {}; run `cluster init N` first",
                dir.display()
            ))
        })?;
        let topology = ClusterTopology::parse(&text)?;
        // Local servelets open with their persisted heads and persist
        // hook; the opener is also the supervisor's respawn factory.
        // Remote servelets own their stores and refs.
        let cluster = Cluster::from_topology(
            &topology,
            forkbase_postree::TreeConfig::default_config(),
            move |id| open_servelet(&servelet_dir(&dir, id), &persist),
        )?;
        let placed = Arc::clone(&log);
        cluster.set_placement_hook(move |topology| placed.record(&[(TOPOLOGY, topology.encode())]));
        // Consume the catch-up record before any command runs (see the
        // module doc).
        if let Some(text) = log.body(SYNCED) {
            cluster.resume_synced(&text);
            log.record(&[(SYNCED, String::new())])?;
        }
        Session::resume(cluster, log)
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
        let dir = servelet_dir(&self.log.dir, id);
        let joined = join(open_servelet(&dir, persist_to)?);
        if joined.is_err() && !self.backend.topology().servelet_ids.contains(&id) {
            let _ = std::fs::remove_dir_all(&dir);
        }
        joined
    }

    /// Remove servelet `id` after migrating its keys away, then delete its
    /// drained data directory: its keys are durable on their new owners
    /// (each import was persisted before its ack) and the recorded
    /// topology no longer names it.
    pub(crate) fn remove_servelet(&self, id: u64) -> DbResult<()> {
        self.backend.remove_servelet(id)?;
        let dir = servelet_dir(&self.log.dir, id);
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
    let session = Session::open(root)?;
    // Per-peer admission control: a chatty router cannot monopolize the
    // servelet's worker threads; shed frames answer a structured
    // `WireError::RateLimited` with a retry hint, connection kept open.
    let limiter = Arc::new(RateLimiter::new(RateLimit::new(2000.0, 4000.0)));
    let persist = persist_to(session.log);
    ServeletServer::spawn(addr, session.backend, Some(persist), Some(limiter))
}

/// The persist hook of the servelet whose records live in `log`, local
/// or remote: each mutating request's head swings are appended to the
/// log, the chunk store synced first ([`Log::commit`], one at a time),
/// before the request is acked.
fn persist_to(log: Arc<Log>) -> PersistFn<FileStore> {
    Arc::new(move |db| log.commit(Some(db), &[]))
}

/// Open the local servelet whose records live in `dir`: its chunk store,
/// its persisted heads, and the persist hook `persist` makes of its log.
fn open_servelet(
    dir: &Path,
    persist: impl Fn(Arc<Log>) -> PersistFn<FileStore>,
) -> DbResult<Respawned<FileStore>> {
    let (log, refs) = Log::open(dir)?;
    let persist = Some(persist(Arc::new(log)));
    let store = FileStore::open(dir.join("chunks"))?;
    Ok(Respawned {
        store,
        refs,
        persist,
    })
}

/// A cluster servelet's data directory under the cluster's `dir`.
fn servelet_dir(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("servelet-{id}"))
}

pub(crate) fn io_err(e: std::io::Error) -> DbError {
    DbError::Store(forkbase_store::StoreError::Io(e))
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

    /// The latest text of record `kind` in `dir`'s log.
    fn logged(dir: &Path, kind: u8) -> Option<String> {
        Log::open(dir).unwrap().0.body(kind)
    }

    /// The names in `dir`, sorted, with every `servelet-<id>` as one
    /// `servelet-*`.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .map(|n| match n.starts_with("servelet-") {
                true => "servelet-*".to_string(),
                false => n,
            })
            .collect();
        names.sort();
        names.dedup();
        names
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
            // Heads and registry are in the log, and nothing beside it.
            assert_eq!(logged(&root, FORKS), Some(s.forks().dump()));
            assert_eq!(listing(&root), ["chunks", "refs.log"]);
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
        let dir = root.join("cluster");
        let marker = logged(&dir, SYNCED).unwrap();
        assert!(marker.contains(&rid.to_string()), "{marker}");
        assert_eq!(listing(&dir), ["refs.log", "servelet-*"]);
        drop(s);

        // Reopen re-attaches the replica. The catch-up record is consumed
        // (emptied) and the replica re-attaches already caught-up — no
        // full resync, so the dead-primary promote below can work.
        let s = Session::open_cluster(&root).unwrap();
        assert_eq!(logged(&dir, SYNCED), None);
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
    /// after the recorded topology names their new owner. Every persist of a
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
        let crash_copies = move |log: Arc<Log>| -> PersistFn<FileStore> {
            let persist = persist_to(log);
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

    /// Adoption: directories holding the text records the log replaces
    /// (every historical `TOPOLOGY` layout, a `FORKS` file, a synced-
    /// replica marker, a text `refs`) open with the state those hold.
    /// The first commit folds them into the log and deletes them, and a
    /// reopen gives the same state again.
    #[test]
    fn legacy_text_records_are_adopted_then_folded_into_the_log() {
        let root = temp_root("legacy-records");
        let remote = serve_servelet("127.0.0.1:0", root.join("remote")).unwrap();
        let addr = remote.addr().to_string();
        let magic = ClusterTopology::local(vec![], 0).encode();
        let layouts = [
            // Local servelets only, one column.
            ("next-id\t4\nservelet\t0\nservelet\t2\n".to_string(), None),
            // An address column.
            (
                format!("next-id\t2\nservelet\t0\t{addr}\nservelet\t1\n"),
                None,
            ),
            // The role column, a re-anchored primary and its replica.
            (
                "next-id\t5\nservelet\t3\t-\tprimary:0\nservelet\t4\t-\treplica:3\n".into(),
                Some(4),
            ),
            // A bare `primary`, remote, with a local replica.
            (
                format!("next-id\t3\nservelet\t1\t{addr}\tprimary\nservelet\t2\t-\treplica:1\n"),
                Some(2),
            ),
        ];
        for (n, (layout, replica)) in layouts.into_iter().enumerate() {
            let data = root.join(format!("layout-{n}"));
            let dir = data.join("cluster");
            std::fs::create_dir_all(&dir).unwrap();
            let text = format!("{}\n{layout}", magic.lines().next().unwrap_or_default());
            let topology = ClusterTopology::parse(&text).unwrap();
            let forks = ForkService::new();
            let id = Some(format!("legacy{n}"));
            forks
                .create(VersionSpec::branch("master"), Some(3600), id)
                .unwrap();
            std::fs::write(dir.join("TOPOLOGY"), &text).unwrap();
            std::fs::write(dir.join("FORKS"), forks.dump()).unwrap();
            if let Some(rid) = replica {
                let marker = format!("forkbase-cluster-replicas-synced-v1\n{rid}\n");
                std::fs::write(dir.join("REPLICAS_SYNCED"), marker).unwrap();
            }
            for pass in 0..2 {
                let s = Session::open_cluster(&data).unwrap();
                assert_eq!(s.cluster().topology(), topology, "layout {n} pass {pass}");
                assert_eq!(s.forks().dump(), forks.dump(), "layout {n} pass {pass}");
                let synced: Vec<u64> = s
                    .cluster()
                    .replication_status()
                    .primaries
                    .iter()
                    .flat_map(|p| &p.replicas)
                    .filter(|r| !r.needs_full_sync)
                    .map(|r| r.id)
                    .collect();
                assert_eq!(synced, Vec::from_iter(replica), "layout {n} pass {pass}");
                s.save().unwrap();
                drop(s);
                assert_eq!(listing(&dir), ["refs.log", "servelet-*"], "layout {n}");
            }
        }
        // A node: text heads and a `FORKS` file.
        let node = root.join("node");
        let (heads, forks) = {
            let s = Session::open(&node).unwrap();
            run_command(&s, &["put", "doc", "v"]).unwrap();
            run_command(&s, &["fork", "create", "--ttl", "3600"]).unwrap();
            s.save().unwrap();
            (s.db().dump_refs(), s.forks().dump())
        };
        std::fs::remove_file(node.join("refs.log")).unwrap();
        std::fs::write(node.join("refs"), &heads).unwrap();
        std::fs::write(node.join("FORKS"), &forks).unwrap();
        for _ in 0..2 {
            let s = Session::open(&node).unwrap();
            assert_eq!(
                (s.db().dump_refs(), s.forks().dump()),
                (heads.clone(), forks.clone())
            );
            s.save().unwrap();
            drop(s);
            assert_eq!(listing(&node), ["chunks", "refs.log"]);
        }
        drop(remote);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The placement hook's appends on one thread racing `Session::save`
    /// on another lose no frame: the directory log's mutex serializes
    /// them, folds included, so a reopen sees the last topology and the
    /// last fork registry.
    #[test]
    fn placement_records_racing_saves_lose_no_frame() {
        let root = temp_root("placement-race");
        let s = Session::init_cluster(&root, 1).unwrap();
        run_command(&s, &["put", "k", "v"]).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..8 {
                    let cluster = s.cluster();
                    let rid = s.provision(|servelet| cluster.add_replica(0, servelet));
                    cluster.remove_replica(rid.unwrap()).unwrap();
                }
            });
            for _ in 0..40 {
                let base = VersionSpec::branch("master");
                s.forks().create(base, Some(3600), None).unwrap();
                s.save().unwrap();
            }
        });
        let (topology, forks) = (s.cluster().topology(), s.forks().dump());
        drop(s);
        let s = Session::open_cluster(&root).unwrap();
        assert_eq!(s.cluster().topology(), topology);
        assert_eq!(s.forks().dump(), forks);
        assert_eq!(listing(&root.join("cluster")), ["refs.log", "servelet-*"]);
        drop(s);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A join records the id it takes before the joiner exists, so a
    /// failed `add-remote` burns its id for every later session too.
    #[test]
    fn a_failed_join_burns_its_id_for_every_later_session() {
        let root = temp_root("burned-id");
        let s = Session::init_cluster(&root, 2).unwrap();
        let closed = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .unwrap()
            .to_string();
        assert!(run_command(&s, &["add-remote", &closed]).is_err());
        drop(s);
        let s = Session::open_cluster(&root).unwrap();
        let out = run_command(&s, &["add"]).unwrap();
        assert!(out.contains("servelet 3 joined"), "{out}");
        drop(s);
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
