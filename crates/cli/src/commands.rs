//! The command-line verb set: one table for both deployment shapes, the
//! way `rest.rs` serves both from one route table. Unmarked verbs go
//! through [`Backend`] and behave alike on a node (`forkbase VERB …`) and
//! a cluster (`forkbase cluster VERB …`); rows marked *node* or *cluster*
//! exist on that shape only.
//!
//! ```text
//! put KEY VALUE                    commit a string value (a cluster names the owner)
//! get KEY                          the head value and version (likewise)
//! head KEY                         the head version uid
//! batch put:K=V|del:K …            one write batch (atomic per servelet on a cluster)
//! list | keys                      every key
//! range KEY [START [END]]          one page of map entries (`--limit N`, default 1000)
//! fork <sub> …                     leased sandboxes (see `fork_cmd`)
//! latest KEY | history KEY         branch heads; version history           node
//! meta UID | verify KEY | export KEY                                        node
//! branches KEY | branch KEY NEW | rename-branch KEY OLD NEW                 node
//! delete-branch KEY B | merge KEY SRC [fail|ours|theirs] | diff KEY OTHER   node
//! select KEY [START [END]] | stat | gc                                      node
//! load-csv KEY CSV|@FILE [COL] | export-csv KEY | diff-csv KEY OTHER        node
//! bundle-export KEY FILE [BRANCH…] | bundle-import FILE | prove KEY ENTRY   node
//! add | add-remote ADDR | remove ID | restart ID                         cluster
//! add-replica PID | add-remote-replica PID ADDR | promote ID             cluster
//! stats | gc | topology | health | replication-status                    cluster
//! ```
//!
//! Every verb reads `--branch B` (default `master`); writes also take
//! `--author A` and `--message M`. The node verbs mirror the paper's API
//! layer (Fig. 1) plus `gc` (mark-and-sweep with physical compaction) and
//! the dataset verbs that exercise the table layer the way the demo's Web
//! UI does. Verbs return their output as text, so tests drive the same
//! code path the binary does.

use bytes::Bytes;
use forkbase::cluster::wire::WireOp;
use forkbase::{BatchOutcome, Cluster, DbError, DbResult, ForkBase, PutOptions, VersionSpec};
use forkbase_postree::MergePolicy;
use forkbase_store::{FileStore, SweepStore};
use forkbase_table::TableStore;
use forkbase_types::Value;

use crate::fork_cmd::run_fork_command;
use crate::session::{Session, Shape};

fn usage() -> DbError {
    DbError::InvalidInput(
        "usage: [cluster] put|get|head|batch|list|keys|range|fork|serve [PORT] …; \
         node: latest|meta|history|branches|branch|rename-branch|delete-branch|merge|diff|\
         select|stat|gc|export|verify|load-csv|export-csv|diff-csv|bundle-export|\
         bundle-import|prove …; cluster: init N|add|add-remote ADDR|remove ID|\
         add-replica PID|add-remote-replica PID ADDR|promote ID|replication-status|stats|gc|\
         topology|health|restart ID … [--branch B --author A --message M] (see README)"
            .into(),
    )
}

/// Run one command against `session`, returning its textual output.
///
/// `args` excludes the program name and, on a cluster, the leading
/// `cluster` (e.g. `["put", "key", "value"]`).
pub fn run_command<B: Shape>(session: &Session<B>, args: &[&str]) -> DbResult<String> {
    let Some((&verb, rest)) = args.split_first() else {
        return Err(usage());
    };
    let backend = &*session.backend;
    // The fork family parses its own flags (`--ttl`, `--id`, …) — hand
    // it the raw argument tail before the generic flag pass consumes
    // anything.
    if verb == "fork" {
        return run_fork_command(&session.forks, backend, rest);
    }
    let flags = Flags::parse(rest)?;
    let branch = VersionSpec::Branch(flags.opts.branch.clone());
    match verb {
        "put" => {
            let key = flags.pos(0)?;
            let commit = backend.put_at(key, Value::string(flags.pos(1)?), &flags.opts)?;
            let owner = backend.owner(key);
            let servelet = owner.map_or(String::new(), |id| format!("servelet {id} "));
            Ok(format!("{servelet}{} -> {}", commit.branch, commit.uid))
        }
        "get" => {
            let key = flags.pos(0)?;
            let got = backend.get_at(key, &branch)?;
            let owner = backend.owner(key);
            let on = owner.map_or(String::new(), |id| format!(" on servelet {id}"));
            Ok(format!(
                "{}\n(version {}{on})",
                got.value.summary(),
                got.uid
            ))
        }
        "head" => Ok(backend.resolve_spec(flags.pos(0)?, &branch)?.to_string()),
        "batch" => {
            // batch put:KEY=VALUE… del:KEY… [--branch B]: string puts and
            // branch deletions across any number of keys. A node commits
            // them atomically; a cluster groups them per owning servelet
            // and each group commits atomically there (see README).
            let mut out = String::new();
            for outcome in backend.commit_batch(parse_batch(&flags)?)? {
                out.push_str(&match outcome {
                    BatchOutcome::Committed(c) => format!("{} -> {}\n", c.branch, c.uid),
                    BatchOutcome::Deleted { key, branch } => format!("deleted {key}@{branch}\n"),
                });
            }
            Ok(out)
        }
        "list" | "keys" => Ok(backend.list_keys()?.join("\n")),
        "range" => {
            let bound = |i: usize| flags.positional.get(i).map(|s| Bytes::from(s.to_string()));
            let (key, limit) = (flags.pos(0)?, flags.limit);
            let page = backend.map_range_at(key, &branch, bound(1), bound(2), limit)?;
            let mut out = render_entries(&page.entries);
            if page.truncated {
                out.push_str("… (truncated; raise --limit or narrow the range)\n");
            }
            Ok(out)
        }
        _ => B::own_verb(session, verb, &flags),
    }
}

/// The flags every verb shares — `--branch`, `--author`, `--message` and
/// `--limit N` — and the positionals they leave.
pub struct Flags<'a> {
    positional: Vec<&'a str>,
    opts: PutOptions,
    limit: u64,
}

impl<'a> Flags<'a> {
    fn parse(args: &[&'a str]) -> DbResult<Flags<'a>> {
        let mut flags = Flags {
            positional: Vec::new(),
            opts: PutOptions::on_branch("master").author("cli"),
            limit: 1000,
        };
        let mut it = args.iter();
        while let Some(&a) = it.next() {
            let mut value = || -> DbResult<String> {
                it.next()
                    .map(|s| s.to_string())
                    .ok_or_else(|| DbError::InvalidInput(format!("{a} needs a value")))
            };
            match a {
                "--branch" => flags.opts.branch = value()?,
                "--author" => flags.opts.author = value()?,
                "--message" => flags.opts.message = value()?,
                "--limit" => {
                    flags.limit = value()?
                        .parse()
                        .map_err(|_| DbError::InvalidInput("--limit must be a number".into()))?;
                }
                other => flags.positional.push(other),
            }
        }
        Ok(flags)
    }

    /// The `i`th positional argument, or the usage error.
    fn pos(&self, i: usize) -> DbResult<&'a str> {
        self.positional.get(i).copied().ok_or_else(usage)
    }

    /// The `i`th positional argument parsed as a number; `what` names it
    /// in the error.
    fn id(&self, i: usize, what: &str) -> DbResult<u64> {
        self.pos(i)?
            .parse()
            .map_err(|_| DbError::InvalidInput(what.to_string()))
    }
}

/// The `batch` op specs: `put:KEY=VALUE` stages a string put with the
/// flags' options, `del:KEY` deletes the flags' branch of KEY.
fn parse_batch(flags: &Flags) -> DbResult<Vec<WireOp>> {
    if flags.positional.is_empty() {
        return Err(DbError::InvalidInput(
            "batch needs at least one op: put:KEY=VALUE or del:KEY".into(),
        ));
    }
    flags
        .positional
        .iter()
        .map(|spec| {
            if let Some(rest) = spec.strip_prefix("put:") {
                let (key, value) = rest.split_once('=').ok_or_else(|| {
                    DbError::InvalidInput(format!("batch put op needs KEY=VALUE: {spec:?}"))
                })?;
                Ok(WireOp::Put {
                    key: key.into(),
                    value: Value::string(value),
                    opts: flags.opts.clone(),
                })
            } else if let Some(key) = spec.strip_prefix("del:") {
                Ok(WireOp::DeleteBranch {
                    key: key.into(),
                    branch: flags.opts.branch.clone(),
                })
            } else {
                Err(DbError::InvalidInput(format!(
                    "unknown batch op {spec:?} (put:KEY=VALUE | del:KEY)"
                )))
            }
        })
        .collect()
}

/// One `KEY\tVALUE` line per map entry.
fn render_entries(entries: &[(Bytes, Bytes)]) -> String {
    let mut out = String::new();
    for (k, v) in entries {
        out.push_str(&format!(
            "{}\t{}\n",
            String::from_utf8_lossy(k),
            String::from_utf8_lossy(v)
        ));
    }
    out
}

/// The verbs only a node has.
pub(crate) fn node_verb<S: SweepStore>(
    db: &ForkBase<S>,
    verb: &str,
    flags: &Flags,
) -> DbResult<String> {
    let branch = &flags.opts.branch;
    let at = |b: &str| VersionSpec::Branch(b.to_string());
    let pos = |i: usize| flags.pos(i);
    match verb {
        "latest" => {
            let mut out = String::new();
            for b in db.latest(pos(0)?)? {
                out.push_str(&format!("{}\t{}\n", b.name, b.head));
            }
            Ok(out)
        }
        "meta" => {
            let m = db.meta(&parse_uid(pos(0)?)?)?;
            Ok(format!(
                "uid:     {}\ntype:    {}\nauthor:  {}\nmessage: {}\ntime:    {}\nbases:   {}",
                m.uid,
                m.value_type,
                m.author,
                m.message,
                m.logical_time,
                m.bases
                    .iter()
                    .map(|b| b.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        }
        "history" => {
            let mut out = String::new();
            for h in db.history(pos(0)?, &at(branch))? {
                let message = if h.message.is_empty() {
                    "(no message)"
                } else {
                    &h.message
                };
                out.push_str(&format!(
                    "{}  [{}] {} — {message}\n",
                    h.uid, h.logical_time, h.author
                ));
            }
            Ok(out)
        }
        "branches" => Ok(db
            .list_branches(pos(0)?)?
            .into_iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
            .join("\n")),
        "branch" => {
            let new_branch = pos(1)?;
            db.branch(pos(0)?, branch, new_branch)?;
            Ok(format!("created branch {new_branch} from {branch}"))
        }
        "rename-branch" => {
            let (old, new) = (pos(1)?, pos(2)?);
            db.rename_branch(pos(0)?, old, new)?;
            Ok(format!("renamed {old} -> {new}"))
        }
        "delete-branch" => {
            let name = pos(1)?;
            db.delete_branch(pos(0)?, name)?;
            Ok(format!("deleted branch {name}"))
        }
        "merge" => {
            let (key, src) = (pos(0)?, pos(1)?);
            let policy = match flags.positional.get(2).copied() {
                None | Some("fail") => MergePolicy::Fail,
                Some("ours") => MergePolicy::Ours,
                Some("theirs") => MergePolicy::Theirs,
                Some(p) => {
                    return Err(DbError::InvalidInput(format!(
                        "unknown merge policy {p:?} (fail|ours|theirs)"
                    )))
                }
            };
            let commit = db.merge(key, branch, src, policy, &flags.opts)?;
            Ok(format!("merged {src} into {branch} -> {}", commit.uid))
        }
        "diff" => {
            let diff = db.diff(pos(0)?, &at(branch), &at(pos(1)?))?;
            Ok(render_value_diff(&diff))
        }
        "select" => {
            let got = db.get(pos(0)?, branch)?;
            let bound = |i: usize| flags.positional.get(i).map(|s| s.as_bytes());
            Ok(render_entries(&db.map_select(
                &got.value,
                bound(1),
                bound(2),
            )?))
        }
        "stat" => Ok(db.stat().to_string()),
        // Mark-and-sweep plus physical compaction (the store seals its
        // own log first); stops the world for writers only.
        "gc" => Ok(db.gc()?.to_string()),
        "export" => {
            let mut buf = Vec::new();
            db.export(pos(0)?, &at(branch), &mut buf)?;
            Ok(String::from_utf8_lossy(&buf).into_owned())
        }
        "verify" => {
            let key = pos(0)?;
            let n = db.verify_branch(key, branch)?;
            Ok(format!("OK: verified {n} version(s) of {key}@{branch}"))
        }
        "load-csv" => {
            let key = pos(0)?;
            let csv = pos(1)?; // inline CSV text (REST/test path) or @file
            let text = match csv.strip_prefix('@') {
                Some(path) => std::fs::read_to_string(path).map_err(crate::session::io_err)?,
                None => csv.to_string(),
            };
            let key_col: usize = flags
                .positional
                .get(2)
                .map(|s| s.parse())
                .transpose()
                .map_err(|_| DbError::InvalidInput("key column must be a number".into()))?
                .unwrap_or(0);
            let commit = TableStore::new(db).load_csv(key, &text, key_col, &flags.opts)?;
            Ok(format!("loaded -> {}", commit.uid))
        }
        "export-csv" => TableStore::new(db).export_csv(pos(0)?, &at(branch)),
        "diff-csv" => {
            let diff = TableStore::new(db).diff(pos(0)?, &at(branch), &at(pos(1)?))?;
            Ok(diff.render())
        }
        "bundle-export" => {
            let (key, path) = (pos(0)?, pos(1)?);
            let branches: Vec<&str> = flags.positional[2..].to_vec();
            let mut file = std::fs::File::create(path).map_err(crate::session::io_err)?;
            let chunks = forkbase::export_bundle(db, key, &branches, &mut file)?;
            Ok(format!("wrote {chunks} chunk(s) to {path}"))
        }
        "bundle-import" => {
            let mut file = std::fs::File::open(pos(0)?).map_err(crate::session::io_err)?;
            let mut out = String::new();
            for r in forkbase::import_bundle(db, &mut file)? {
                out.push_str(&format!("{}@{} -> {}\n", r.key, r.branch, r.uid));
            }
            Ok(out)
        }
        "prove" => {
            // prove <key> <entry-key> [--branch B]: emit a light-client
            // proof and immediately check it against the head uid.
            let entry_key = pos(1)?.as_bytes();
            let (proof, uid) = db.prove_entry(pos(0)?, &at(branch), entry_key)?;
            let value = db.verify_entry_proof(&uid, entry_key, &proof)?;
            Ok(format!(
                "version: {uid}\nproof:   {} node(s), {} bytes\nresult:  {}",
                proof.nodes.len(),
                proof.size_bytes(),
                match value {
                    Some(v) => format!("present, value = {:?}", String::from_utf8_lossy(&v)),
                    None => "absent (absence proven)".to_string(),
                }
            ))
        }
        _ => Err(usage()),
    }
}

/// The verbs only a cluster has.
pub(crate) fn cluster_verb(
    session: &Session<Cluster<FileStore>>,
    verb: &str,
    flags: &Flags,
) -> DbResult<String> {
    let cluster = session.cluster();
    match verb {
        "add" => {
            let id = session.provision(|servelet| cluster.add_servelet(servelet))?;
            Ok(format!(
                "servelet {id} joined; keys per servelet now {:?}",
                cluster.key_distribution()?
            ))
        }
        "add-remote" => {
            let addr = flags.pos(0)?;
            let id = cluster.add_remote_servelet(addr)?;
            Ok(format!(
                "remote servelet {id} ({addr}) joined; keys per servelet now {:?}",
                cluster.key_distribution()?
            ))
        }
        "add-replica" => {
            let primary = flags.id(0, "add-replica needs a primary id")?;
            let id = session.provision(|servelet| cluster.add_replica(primary, servelet))?;
            Ok(format!(
                "replica {id} attached to primary {primary} (synced)"
            ))
        }
        "add-remote-replica" => {
            let primary = flags.id(0, "add-remote-replica needs a primary id")?;
            let addr = flags.pos(1)?;
            let id = cluster.add_remote_replica(primary, addr)?;
            Ok(format!(
                "remote replica {id} ({addr}) attached to primary {primary} (synced)"
            ))
        }
        "promote" => {
            let id = flags.id(0, "promote needs a replica id")?;
            let old = cluster.promote_replica(id)?;
            Ok(format!(
                "replica {id} promoted; primary {old} retired (its id is burned; \
                 its directory remains on disk until you delete it)"
            ))
        }
        "remove" => {
            let id = flags.id(0, "remove needs a servelet id")?;
            session.remove_servelet(id)?;
            Ok(format!(
                "servelet {id} drained and removed; keys per servelet now {:?}",
                cluster.key_distribution()?
            ))
        }
        "restart" => {
            let id = flags.id(0, "restart needs a servelet id")?;
            cluster.restart_servelet(id)?;
            Ok(format!("servelet {id} restarted from its durable backend"))
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
        "replication-status" => {
            let mut out = String::new();
            for p in &cluster.replication_status().primaries {
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
        _ => Err(usage()),
    }
}

/// A version uid in base32 (as printed) or hex.
pub(crate) fn parse_uid(s: &str) -> DbResult<forkbase::Uid> {
    forkbase::Uid::from_base32(s)
        .or_else(|| forkbase::Uid::from_hex(s))
        .ok_or_else(|| DbError::InvalidInput(format!("not a version id: {s:?}")))
}

fn render_value_diff(diff: &forkbase::ValueDiff) -> String {
    match diff {
        forkbase::ValueDiff::Identical => "identical".to_string(),
        forkbase::ValueDiff::Primitive { from, to } => {
            format!("- {}\n+ {}", from.summary(), to.summary())
        }
        forkbase::ValueDiff::Map(d) => {
            let (a, r, m) = d.counts();
            let mut out = format!("+{a} -{r} ~{m} entr(ies)\n");
            for e in &d.entries {
                match e {
                    forkbase_postree::DiffEntry::Added { key, value } => out.push_str(&format!(
                        "+ {}\t{}\n",
                        String::from_utf8_lossy(key),
                        String::from_utf8_lossy(value)
                    )),
                    forkbase_postree::DiffEntry::Removed { key, value } => out.push_str(&format!(
                        "- {}\t{}\n",
                        String::from_utf8_lossy(key),
                        String::from_utf8_lossy(value)
                    )),
                    forkbase_postree::DiffEntry::Modified { key, from, to } => {
                        out.push_str(&format!(
                            "~ {}\t{} -> {}\n",
                            String::from_utf8_lossy(key),
                            String::from_utf8_lossy(from),
                            String::from_utf8_lossy(to)
                        ))
                    }
                }
            }
            out
        }
        forkbase::ValueDiff::Chunked {
            from_len,
            to_len,
            shared_chunks,
            shared_bytes,
            from_chunks,
            to_chunks,
        } => format!(
            "chunked value: {from_len} -> {to_len} bytes/items; \
             {shared_chunks} of {from_chunks}/{to_chunks} chunks shared ({shared_bytes} bytes)"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_postree::TreeConfig;
    use forkbase_store::MemStore;

    /// An in-memory node session (never saved).
    pub(crate) fn db() -> Session<ForkBase<MemStore>> {
        Session {
            backend: std::sync::Arc::new(ForkBase::with_config(
                MemStore::new(),
                TreeConfig::test_config(),
            )),
            forks: std::sync::Arc::default(),
            log: std::sync::Arc::default(),
        }
    }

    #[test]
    fn put_get_head_cycle() {
        let db = db();
        let out = run_command(&db, &["put", "greeting", "hello"]).unwrap();
        assert!(out.starts_with("master -> "));
        let out = run_command(&db, &["get", "greeting"]).unwrap();
        assert!(out.contains("\"hello\""));
        let head = run_command(&db, &["head", "greeting"]).unwrap();
        assert!(out.contains(head.trim()));
    }

    #[test]
    fn branch_and_diff_via_cli() {
        let db = db();
        run_command(&db, &["put", "k", "base"]).unwrap();
        run_command(&db, &["branch", "k", "dev"]).unwrap();
        run_command(&db, &["put", "k", "changed", "--branch", "dev"]).unwrap();
        let diff = run_command(&db, &["diff", "k", "dev"]).unwrap();
        assert!(diff.contains("base"));
        assert!(diff.contains("changed"));
        let branches = run_command(&db, &["branches", "k"]).unwrap();
        assert_eq!(branches, "dev\nmaster");
    }

    #[test]
    fn history_meta_and_verify() {
        let db = db();
        run_command(
            &db,
            &["put", "k", "v1", "--message", "first", "--author", "alice"],
        )
        .unwrap();
        run_command(&db, &["put", "k", "v2", "--message", "second"]).unwrap();
        let hist = run_command(&db, &["history", "k"]).unwrap();
        assert!(hist.contains("first"));
        assert!(hist.contains("second"));
        assert!(hist.contains("alice"));

        let head = run_command(&db, &["head", "k"]).unwrap();
        let meta = run_command(&db, &["meta", head.trim()]).unwrap();
        assert!(meta.contains("type:    string"));

        let ok = run_command(&db, &["verify", "k"]).unwrap();
        assert!(ok.contains("OK: verified 2"));
    }

    #[test]
    fn csv_workflow_via_cli() {
        let db = db();
        let csv = "id,name\n1,one\n2,two\n";
        run_command(&db, &["load-csv", "ds", csv]).unwrap();
        run_command(&db, &["branch", "ds", "vendor"]).unwrap();

        let exported = run_command(&db, &["export-csv", "ds"]).unwrap();
        assert!(exported.contains("1,one"));

        // Edit on vendor branch by re-loading a changed CSV... easier: use
        // table layer directly for the edit, then CLI diff.
        let tables = TableStore::new(&*db.backend);
        tables
            .update_cell("ds", "2", "name", "TWO", &PutOptions::on_branch("vendor"))
            .unwrap();
        let diff = run_command(&db, &["diff-csv", "ds", "vendor"]).unwrap();
        assert!(diff.contains("~ 2"));
        assert!(diff.contains("name"));
    }

    #[test]
    fn select_and_stat() {
        let db = db();
        let csv = "id,val\na,1\nb,2\nc,3\n";
        run_command(&db, &["load-csv", "ds", csv]).unwrap();
        let out = run_command(&db, &["select", "ds", "a", "c"]).unwrap();
        assert!(out.contains("a\t"));
        assert!(out.contains("b\t"));
        assert!(!out.contains("c\t"));
        let stat = run_command(&db, &["stat"]).unwrap();
        assert!(stat.contains("keys:"));
    }

    #[test]
    fn gc_reports_reclamation() {
        let db = db();
        run_command(&db, &["put", "doc", "keep me"]).unwrap();
        run_command(&db, &["branch", "doc", "scratch"]).unwrap();
        run_command(
            &db,
            &["put", "doc", "junk junk junk", "--branch", "scratch"],
        )
        .unwrap();
        run_command(&db, &["delete-branch", "doc", "scratch"]).unwrap();
        let out = run_command(&db, &["gc"]).unwrap();
        assert!(out.contains("live chunks:"), "report header: {out}");
        assert!(out.contains("reclaimed:"), "report body: {out}");
        // Survivor still readable after the sweep.
        let got = run_command(&db, &["get", "doc"]).unwrap();
        assert!(got.contains("keep me"));
    }

    #[test]
    fn merge_via_cli() {
        let db = db();
        let csv = "id,v\n1,a\n2,b\n3,c\n";
        run_command(&db, &["load-csv", "ds", csv]).unwrap();
        run_command(&db, &["branch", "ds", "dev"]).unwrap();
        let tables = TableStore::new(&*db.backend);
        tables
            .update_cell("ds", "1", "v", "dev-edit", &PutOptions::on_branch("dev"))
            .unwrap();
        let out = run_command(&db, &["merge", "ds", "dev"]).unwrap();
        assert!(out.contains("merged dev into master"));
        let row = tables
            .row("ds", &VersionSpec::branch("master"), "1")
            .unwrap()
            .unwrap();
        assert_eq!(row[1], "dev-edit");
    }

    #[test]
    fn batch_verb_commits_atomically() {
        let db = db();
        let out = run_command(
            &db,
            &["batch", "put:a=1", "put:b=2", "put:a=1b", "--author", "ops"],
        )
        .unwrap();
        assert_eq!(out.lines().count(), 3);
        // In-batch chaining: the second put on `a` based on the first.
        let hist = run_command(&db, &["history", "a"]).unwrap();
        assert_eq!(hist.lines().count(), 2);
        let got = run_command(&db, &["get", "a"]).unwrap();
        assert!(got.contains("1b"));

        // Deletions ride the same batch.
        run_command(&db, &["branch", "b", "scratch"]).unwrap();
        let out = run_command(
            &db,
            &["batch", "put:b=3", "del:scratch-key", "--branch", "x"],
        );
        assert!(out.is_err(), "bad del target must fail the whole batch");
        let out = run_command(&db, &["batch", "del:b", "--branch", "scratch"]).unwrap();
        assert!(out.contains("deleted b@scratch"));
        assert_eq!(run_command(&db, &["branches", "b"]).unwrap(), "master");

        // Atomicity on error: nothing from a failed batch lands.
        let before = run_command(&db, &["head", "a"]).unwrap();
        assert!(run_command(&db, &["batch", "put:a=new", "del:ghost"]).is_err());
        assert_eq!(run_command(&db, &["head", "a"]).unwrap(), before);

        // Malformed specs are rejected.
        assert!(run_command(&db, &["batch"]).is_err());
        assert!(run_command(&db, &["batch", "put:no-equals"]).is_err());
        assert!(run_command(&db, &["batch", "zap:a"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        let db = db();
        assert!(run_command(&db, &[]).is_err());
        assert!(run_command(&db, &["unknown-verb"]).is_err());
        assert!(run_command(&db, &["get", "missing"]).is_err());
        assert!(run_command(&db, &["put", "k"]).is_err(), "missing value");
        assert!(run_command(&db, &["meta", "not-a-uid"]).is_err());
        assert!(run_command(&db, &["merge", "k", "dev", "bogus-policy"]).is_err());
    }

    #[test]
    fn bundle_and_prove_verbs() {
        let db1 = db();
        let csv = "id,v\n1,one\n2,two\n3,three\n";
        run_command(&db1, &["load-csv", "ds", csv]).unwrap();

        let path = std::env::temp_dir().join(format!("fkb-cli-bundle-{}", std::process::id()));
        let path_str = path.to_str().unwrap();
        let out = run_command(&db1, &["bundle-export", "ds", path_str]).unwrap();
        assert!(out.contains("chunk(s)"));

        let db2 = db();
        let out = run_command(&db2, &["bundle-import", path_str]).unwrap();
        assert!(out.contains("ds@master"));
        let exported = run_command(&db2, &["export-csv", "ds"]).unwrap();
        assert!(exported.contains("2,two"));
        std::fs::remove_file(&path).unwrap();

        // Proofs: present and absent entries.
        let out = run_command(&db1, &["prove", "ds", "2"]).unwrap();
        assert!(out.contains("present"));
        let out = run_command(&db1, &["prove", "ds", "404"]).unwrap();
        assert!(out.contains("absence proven"));
    }

    #[test]
    fn rename_and_delete_branch() {
        let db = db();
        run_command(&db, &["put", "k", "v"]).unwrap();
        run_command(&db, &["branch", "k", "tmp"]).unwrap();
        run_command(&db, &["rename-branch", "k", "tmp", "kept"]).unwrap();
        assert_eq!(
            run_command(&db, &["branches", "k"]).unwrap(),
            "kept\nmaster"
        );
        run_command(&db, &["delete-branch", "k", "kept"]).unwrap();
        assert_eq!(run_command(&db, &["branches", "k"]).unwrap(), "master");
    }
}

/// Every verb of both shapes, run in order against one in-memory node
/// and one 3-servelet cluster in a temp directory. Each output — or the
/// code of each error — is pinned in `tests/golden/verb_table.txt`; run
/// with `FORKBASE_BLESS=1` to rewrite that file after a deliberate change.
#[cfg(test)]
mod pins {
    use std::path::{Path, PathBuf};

    use forkbase::PutOptions;

    use crate::{run_command, serve_servelet, Session};

    const CSV: &str = "id,name\n1,one\n2,two\n3,three\n";
    const CSV_VENDOR: &str = "id,name\n1,one\n2,TWO\n3,three\n4,four\n";

    /// Node rows. `$HEAD` is the output of the last `head` row; `$TMP` a
    /// scratch directory.
    const NODE: &[&[&str]] = &[
        &[],
        &["bogus"],
        &["put", "greeting", "hello"],
        &[
            "put",
            "greeting",
            "hello again",
            "--message",
            "second",
            "--author",
            "alice",
        ],
        &["put", "k"],
        &["get", "greeting"],
        &["get", "missing"],
        &["head", "greeting"],
        &["meta", "$HEAD"],
        &["meta", "not-a-uid"],
        &["latest", "greeting"],
        &["history", "greeting"],
        &["list"],
        &["keys"],
        &["branch", "greeting", "dev"],
        &["branches", "greeting"],
        &["put", "greeting", "dev edit", "--branch", "dev"],
        &["diff", "greeting", "dev"],
        &["merge", "greeting", "dev"],
        &["merge", "greeting", "dev", "bogus-policy"],
        &["rename-branch", "greeting", "dev", "feature"],
        &["delete-branch", "greeting", "feature"],
        &["verify", "greeting"],
        &["export", "greeting"],
        &["load-csv", "ds", CSV],
        &["export-csv", "ds"],
        &["select", "ds", "1", "3"],
        &["branch", "ds", "vendor"],
        &["load-csv", "ds", CSV_VENDOR, "0", "--branch", "vendor"],
        &["diff-csv", "ds", "vendor"],
        &["diff", "ds", "vendor"],
        &["merge", "ds", "vendor"],
        &["range", "ds"],
        &["range", "ds", "1", "3", "--limit", "1"],
        &["prove", "ds", "2"],
        &["prove", "ds", "404"],
        &["batch", "put:a=1", "put:b=2", "put:a=1b", "--author", "ops"],
        &["batch", "del:b", "--branch", "nope"],
        &["batch", "zap:x"],
        &["bundle-export", "ds", "$TMP/ds.bundle"],
        &["bundle-import", "$TMP/ds.bundle"],
        &["stat"],
        &["gc"],
        &["fork", "create", "--id", "scratch", "--ttl", "300"],
        &["fork", "put", "scratch", "greeting", "forked"],
        &["fork", "get", "scratch", "greeting"],
        &["fork", "diff", "scratch"],
        &["fork", "list"],
        &["fork", "info", "scratch"],
        &["fork", "touch", "scratch", "--ttl", "900"],
        &["fork", "drop", "scratch"],
        &["fork", "get", "ghost", "k"],
        &["fork", "bogus"],
    ];

    /// Cluster rows (`forkbase cluster …`). `tbl` is a 50-entry map put
    /// there beforehand; `$ADDR1` and `$ADDR2` are servelet processes.
    const CLUSTER: &[&[&str]] = &[
        &[],
        &["bogus"],
        &["init", "3"],
        &["put", "alpha", "1"],
        &["put", "beta", "2"],
        &["put", "gamma", "3"],
        &["put", "delta", "4", "--branch", "dev", "--author", "ops"],
        &["put", "k"],
        &["get", "alpha"],
        &["get", "delta", "--branch", "dev"],
        &["get", "missing"],
        &["head", "alpha"],
        &["batch", "put:alpha=1b", "put:beta=2b", "put:epsilon=5"],
        &["batch", "del:delta", "--branch", "dev"],
        &["batch", "zap:x"],
        &["keys"],
        &["list"],
        &["range", "tbl", "r010", "r020", "--limit", "5"],
        &["range", "tbl", "r045"],
        &["range", "alpha"],
        &["stats"],
        &["topology"],
        &["health"],
        &["replication-status"],
        &["add"],
        &["add-replica", "0"],
        &["add-replica", "nope"],
        &["replication-status"],
        &["topology"],
        &["promote", "4"],
        &["promote", "999"],
        &["topology"],
        &["remove", "1"],
        &["remove", "not-a-number"],
        &["restart", "2"],
        &["add-remote", "$ADDR1"],
        &["add-remote-replica", "5", "$ADDR2"],
        &["topology"],
        &["replication-status"],
        &["get", "alpha"],
        &["get", "epsilon"],
        &["keys"],
        &["gc"],
        &["fork", "create", "--id", "sbx", "--ttl", "300"],
        &["fork", "put", "sbx", "alpha", "forked"],
        &["fork", "get", "sbx", "alpha"],
        &["fork", "diff", "sbx"],
        &["fork", "list"],
        &["fork", "drop", "sbx"],
        &["stats"],
    ];

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forkbase-verb-table-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Run `rows` in order through `run`, substituting `vars` into the
    /// arguments and back out of the outputs; one transcript entry each.
    fn transcript(
        shape: &str,
        rows: &[&[&str]],
        vars: &[(&str, String)],
        mut run: impl FnMut(&[&str]) -> forkbase::DbResult<String>,
    ) -> String {
        let mut out = String::new();
        let mut head = String::new();
        for row in rows {
            let args: Vec<String> = row
                .iter()
                .map(|a| {
                    vars.iter()
                        .fold(a.replace("$HEAD", &head), |a, (k, v)| a.replace(k, v))
                })
                .collect();
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            let shown: Vec<String> = row
                .iter()
                .map(|a| {
                    if a.is_empty() || a.contains(char::is_whitespace) {
                        format!("{a:?}")
                    } else {
                        a.to_string()
                    }
                })
                .collect();
            out.push_str(&format!("$ {shape} {}\n", shown.join(" ")));
            match run(&refs) {
                Ok(text) => {
                    if row.first() == Some(&"head") {
                        head = text.clone();
                    }
                    let text = vars.iter().fold(text, |t, (k, v)| t.replace(v.as_str(), k));
                    for line in text.lines() {
                        out.push_str(&normalize_line(line));
                        out.push('\n');
                    }
                }
                Err(e) => out.push_str(&format!("error: {}\n", e.code())),
            }
        }
        out
    }

    /// Lease countdowns (`N s`) depend on the wall clock: blank their
    /// digits. Control bytes (encoded table rows) are escaped so the
    /// golden file stays text.
    fn normalize_line(line: &str) -> String {
        let mut out = String::new();
        let mut rest = line;
        while let Some(c) = rest.chars().next() {
            let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            if digits == 0 {
                if c.is_control() && c != '\t' {
                    out.extend(c.escape_unicode());
                } else {
                    out.push(c);
                }
                rest = &rest[c.len_utf8()..];
                continue;
            }
            let after = &rest[digits..];
            let seconds = after.starts_with(" s") && !after[2..].starts_with(char::is_alphanumeric);
            out.push_str(&if seconds {
                "#".repeat(digits)
            } else {
                rest[..digits].to_string()
            });
            rest = after;
        }
        out
    }

    fn node_transcript(tmp: &Path) -> String {
        let session = super::tests::db();
        let vars = [("$TMP", tmp.display().to_string())];
        transcript("node", NODE, &vars, |args| run_command(&session, args))
    }

    fn cluster_transcript(root: &Path) -> String {
        let remote1 = serve_servelet("127.0.0.1:0", root.join("remote-1")).unwrap();
        let remote2 = serve_servelet("127.0.0.1:0", root.join("remote-2")).unwrap();
        let session = Session::init_cluster(root.join("data"), 3).unwrap();
        session
            .cluster()
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
        let vars = [
            ("$ADDR1", remote1.addr().to_string()),
            ("$ADDR2", remote2.addr().to_string()),
        ];
        let out = transcript("cluster", CLUSTER, &vars, |args| {
            run_command(&session, args)
        });
        drop(session);
        drop((remote1, remote2));
        out
    }

    #[test]
    fn every_verb_of_both_shapes_matches_its_pinned_output() {
        let root = temp_root("pins");
        std::fs::create_dir_all(&root).unwrap();
        let got = node_transcript(&root) + &cluster_transcript(&root);
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verb_table.txt");
        if std::env::var_os("FORKBASE_BLESS").is_some() {
            std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
            std::fs::write(&golden, &got).unwrap();
        }
        let want = std::fs::read_to_string(&golden).unwrap();
        for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first difference at line {}", n + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
