//! The command-line verb set.
//!
//! Mirrors the paper's API layer verbs (Fig. 1): `put get list branch
//! merge select stat export diff head rename latest meta history verify`
//! plus `gc` (mark-and-sweep with physical compaction) and dataset
//! commands (`load-csv`, `export-csv`, `diff-csv`) that exercise the
//! table layer the way the demo's Web UI does.
//!
//! Implemented as a pure function over any [`ForkBase`] instance so tests
//! and the REST layer reuse it without spawning processes. The store must
//! support [`SweepStore`] (all shipped stores do) so the `gc` verb can
//! physically reclaim space.

use forkbase::{BatchOutcome, DbError, DbResult, ForkBase, PutOptions, VersionSpec};
use forkbase_postree::MergePolicy;
use forkbase_store::SweepStore;
use forkbase_table::TableStore;
use forkbase_types::Value;

/// Run one command against `db`, returning its textual output.
///
/// `args` excludes the program name (e.g. `["put", "key", "value"]`).
pub fn run_command<S: SweepStore>(db: &ForkBase<S>, args: &[&str]) -> DbResult<String> {
    let usage = || -> DbError {
        DbError::InvalidInput(
            "usage: put|batch|get|head|latest|meta|history|list|branches|branch|rename-branch|\
             delete-branch|merge|diff|select|stat|gc|export|verify|load-csv|export-csv|diff-csv|\
             bundle-export|bundle-import|prove \
             … (see README; `forkbase cluster …` drives the sharded cluster)"
                .into(),
        )
    };
    let Some((&verb, rest)) = args.split_first() else {
        return Err(usage());
    };
    let Flags {
        positional, opts, ..
    } = Flags::parse(rest, false)?;
    let branch = opts.branch.clone();
    let pos = |i: usize| -> DbResult<&str> { positional.get(i).copied().ok_or_else(usage) };

    match verb {
        "put" => {
            let key = pos(0)?;
            let value = pos(1)?;
            let commit = db.put(key, Value::string(value), &opts)?;
            Ok(format!("{} -> {}", commit.branch, commit.uid))
        }
        "batch" => {
            // batch put:KEY=VALUE… del:KEY… [--branch B]: stage string puts
            // and branch deletions across any number of keys, committed
            // atomically — every head swings together or none do.
            let mut wb = db.write_batch();
            for (key, value) in parse_batch(&positional)? {
                match value {
                    Some(value) => wb.put(key, Value::string(value), &opts),
                    None => wb.delete_branch(key, &branch),
                };
            }
            Ok(render_outcomes(wb.commit()?))
        }
        "get" => {
            let key = pos(0)?;
            let got = db.get(key, &branch)?;
            Ok(format!("{}\n(version {})", got.value.summary(), got.uid))
        }
        "head" => {
            let key = pos(0)?;
            Ok(db.head(key, &branch)?.to_string())
        }
        "latest" => {
            let key = pos(0)?;
            let mut out = String::new();
            for b in db.latest(key)? {
                out.push_str(&format!("{}\t{}\n", b.name, b.head));
            }
            Ok(out)
        }
        "meta" => {
            let uid = parse_uid(pos(0)?)?;
            let m = db.meta(&uid)?;
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
            let key = pos(0)?;
            let mut out = String::new();
            for h in db.history(key, &VersionSpec::Branch(branch.clone()))? {
                out.push_str(&format!(
                    "{}  [{}] {} — {}\n",
                    h.uid,
                    h.logical_time,
                    h.author,
                    if h.message.is_empty() {
                        "(no message)"
                    } else {
                        &h.message
                    }
                ));
            }
            Ok(out)
        }
        "list" => Ok(db.list_keys().join("\n")),
        "branches" => {
            let key = pos(0)?;
            Ok(db
                .list_branches(key)?
                .into_iter()
                .map(|b| b.name)
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "branch" => {
            let key = pos(0)?;
            let new_branch = pos(1)?;
            db.branch(key, &branch, new_branch)?;
            Ok(format!("created branch {new_branch} from {branch}"))
        }
        "rename-branch" => {
            let key = pos(0)?;
            let old = pos(1)?;
            let new = pos(2)?;
            db.rename_branch(key, old, new)?;
            Ok(format!("renamed {old} -> {new}"))
        }
        "delete-branch" => {
            let key = pos(0)?;
            let name = pos(1)?;
            db.delete_branch(key, name)?;
            Ok(format!("deleted branch {name}"))
        }
        "merge" => {
            let key = pos(0)?;
            let src = pos(1)?;
            let policy = match positional.get(2).copied() {
                None | Some("fail") => MergePolicy::Fail,
                Some("ours") => MergePolicy::Ours,
                Some("theirs") => MergePolicy::Theirs,
                Some(p) => {
                    return Err(DbError::InvalidInput(format!(
                        "unknown merge policy {p:?} (fail|ours|theirs)"
                    )))
                }
            };
            let commit = db.merge(key, &branch, src, policy, &opts)?;
            Ok(format!("merged {src} into {branch} -> {}", commit.uid))
        }
        "diff" => {
            let key = pos(0)?;
            let other = pos(1)?;
            let diff = db.diff(
                key,
                &VersionSpec::Branch(branch.clone()),
                &VersionSpec::Branch(other.to_string()),
            )?;
            Ok(render_value_diff(&diff))
        }
        "select" => {
            let key = pos(0)?;
            let start = positional.get(1).copied();
            let end = positional.get(2).copied();
            let got = db.get(key, &branch)?;
            let entries =
                db.map_select(&got.value, start.map(str::as_bytes), end.map(str::as_bytes))?;
            let mut out = String::new();
            for (k, v) in entries {
                out.push_str(&format!(
                    "{}\t{}\n",
                    String::from_utf8_lossy(&k),
                    String::from_utf8_lossy(&v)
                ));
            }
            Ok(out)
        }
        "stat" => Ok(db.stat().to_string()),
        "gc" => {
            // Mark-and-sweep plus physical compaction (the store seals its
            // own log first); stops the world for writers only.
            let report = db.gc()?;
            Ok(report.to_string())
        }
        "export" => {
            let key = pos(0)?;
            let mut buf = Vec::new();
            db.export(key, &VersionSpec::Branch(branch.clone()), &mut buf)?;
            Ok(String::from_utf8_lossy(&buf).into_owned())
        }
        "verify" => {
            let key = pos(0)?;
            let n = db.verify_branch(key, &branch)?;
            Ok(format!("OK: verified {n} version(s) of {key}@{branch}"))
        }
        "load-csv" => {
            let key = pos(0)?;
            let csv = pos(1)?; // inline CSV text (REST/test path) or @file
            let text = if let Some(path) = csv.strip_prefix('@') {
                std::fs::read_to_string(path)
                    .map_err(|e| DbError::Store(forkbase_store::StoreError::Io(e)))?
            } else {
                csv.to_string()
            };
            let key_col: usize = positional
                .get(2)
                .map(|s| s.parse())
                .transpose()
                .map_err(|_| DbError::InvalidInput("key column must be a number".into()))?
                .unwrap_or(0);
            let commit = TableStore::new(db).load_csv(key, &text, key_col, &opts)?;
            Ok(format!("loaded -> {}", commit.uid))
        }
        "export-csv" => {
            let key = pos(0)?;
            TableStore::new(db).export_csv(key, &VersionSpec::Branch(branch.clone()))
        }
        "diff-csv" => {
            let key = pos(0)?;
            let other = pos(1)?;
            let diff = TableStore::new(db).diff(
                key,
                &VersionSpec::Branch(branch.clone()),
                &VersionSpec::Branch(other.to_string()),
            )?;
            Ok(diff.render())
        }
        "bundle-export" => {
            let key = pos(0)?;
            let path = pos(1)?;
            let branches: Vec<&str> = positional[2..].to_vec();
            let mut file = std::fs::File::create(path)
                .map_err(|e| DbError::Store(forkbase_store::StoreError::Io(e)))?;
            let chunks = forkbase::export_bundle(db, key, &branches, &mut file)?;
            Ok(format!("wrote {chunks} chunk(s) to {path}"))
        }
        "bundle-import" => {
            let path = pos(0)?;
            let mut file = std::fs::File::open(path)
                .map_err(|e| DbError::Store(forkbase_store::StoreError::Io(e)))?;
            let refs = forkbase::import_bundle(db, &mut file)?;
            let mut out = String::new();
            for r in refs {
                out.push_str(&format!("{}@{} -> {}\n", r.key, r.branch, r.uid));
            }
            Ok(out)
        }
        "prove" => {
            // prove <key> <entry-key> [--branch B]: emit a light-client
            // proof and immediately check it against the head uid.
            let key = pos(0)?;
            let entry_key = pos(1)?;
            let (proof, uid) = db.prove_entry(
                key,
                &VersionSpec::Branch(branch.clone()),
                entry_key.as_bytes(),
            )?;
            let value = db.verify_entry_proof(&uid, entry_key.as_bytes(), &proof)?;
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

/// The flags every verb family shares — `--branch`, `--author`,
/// `--message`, and where the family takes it `--limit N` — and the
/// positionals they leave.
pub(crate) struct Flags<'a> {
    pub positional: Vec<&'a str>,
    pub opts: PutOptions,
    pub limit: usize,
}

impl<'a> Flags<'a> {
    /// Parse `args`; with `with_limit` unset, `--limit` is a positional.
    pub(crate) fn parse(args: &[&'a str], with_limit: bool) -> DbResult<Flags<'a>> {
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
                "--limit" if with_limit => {
                    flags.limit = value()?
                        .parse()
                        .map_err(|_| DbError::InvalidInput("--limit must be a number".into()))?;
                }
                other => flags.positional.push(other),
            }
        }
        Ok(flags)
    }
}

/// Parse `batch` op specs: `put:KEY=VALUE` as `(KEY, Some(VALUE))`,
/// `del:KEY` (delete the batch's branch) as `(KEY, None)`.
pub(crate) fn parse_batch<'a>(specs: &[&'a str]) -> DbResult<Vec<(&'a str, Option<&'a str>)>> {
    if specs.is_empty() {
        return Err(DbError::InvalidInput(
            "batch needs at least one op: put:KEY=VALUE or del:KEY".into(),
        ));
    }
    specs
        .iter()
        .map(|spec| {
            if let Some(rest) = spec.strip_prefix("put:") {
                let (key, value) = rest.split_once('=').ok_or_else(|| {
                    DbError::InvalidInput(format!("batch put op needs KEY=VALUE: {spec:?}"))
                })?;
                Ok((key, Some(value)))
            } else if let Some(key) = spec.strip_prefix("del:") {
                Ok((key, None))
            } else {
                Err(DbError::InvalidInput(format!(
                    "unknown batch op {spec:?} (put:KEY=VALUE | del:KEY)"
                )))
            }
        })
        .collect()
}

/// One line per committed `batch` op.
pub(crate) fn render_outcomes(outcomes: Vec<BatchOutcome>) -> String {
    let mut out = String::new();
    for o in outcomes {
        match o {
            BatchOutcome::Committed(c) => out.push_str(&format!("{} -> {}\n", c.branch, c.uid)),
            BatchOutcome::Deleted { key, branch } => {
                out.push_str(&format!("deleted {key}@{branch}\n"))
            }
        }
    }
    out
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

    fn db() -> ForkBase<MemStore> {
        ForkBase::with_config(MemStore::new(), TreeConfig::test_config())
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
        let tables = TableStore::new(&db);
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
        let tables = TableStore::new(&db);
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
