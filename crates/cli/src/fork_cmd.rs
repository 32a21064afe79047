//! The `forkbase fork …` verb family: leased writable sandboxes.
//!
//! ```text
//! fork create [--base BRANCH | --version UID] [--ttl SECS] [--id ID]
//! fork list
//! fork info ID
//! fork touch ID [--ttl SECS]
//! fork drop ID
//! fork diff ID
//! fork get ID KEY
//! fork put ID KEY VALUE [--author A] [--message M]
//! ```
//!
//! Implemented as a pure function over any [`Backend`], so the same
//! code path drives a single-node [`forkbase::ForkBase`] session and a
//! [`forkbase::Cluster`] session (`forkbase cluster fork …`). The fork
//! registry itself lives in the caller's [`ForkService`], which the CLI
//! sessions persist in the `refs.log` that holds the branch heads — a
//! reopened session resumes every lease where it left off.

use forkbase::{Backend, DbError, DbResult, ForkInfo, ForkService, PutOptions, VersionSpec};
use forkbase_types::Value;

/// Run one `fork` subcommand against `backend`, returning its textual
/// output. `args` excludes the `fork` verb itself.
pub fn run_fork_command<B: Backend + ?Sized>(
    forks: &ForkService,
    backend: &B,
    args: &[&str],
) -> DbResult<String> {
    let usage = || -> DbError {
        DbError::InvalidInput(
            "usage: fork create [--base BRANCH | --version UID] [--ttl SECS] [--id ID] | \
             fork list | fork info ID | fork touch ID [--ttl SECS] | fork drop ID | \
             fork diff ID | fork get ID KEY | fork put ID KEY VALUE"
                .into(),
        )
    };
    let Some((&verb, rest)) = args.split_first() else {
        return Err(usage());
    };
    // Flag parsing mirrors the main verb set: positionals plus
    // `--base/--version/--ttl/--id/--author/--message` options.
    let mut positional = Vec::new();
    let mut base: Option<String> = None;
    let mut version: Option<String> = None;
    let mut ttl: Option<u64> = None;
    let mut id_flag: Option<String> = None;
    let mut author = "cli".to_string();
    let mut message = String::new();
    let mut it = rest.iter();
    while let Some(&a) = it.next() {
        let mut value = |flag: &str| -> DbResult<String> {
            it.next()
                .map(|v| v.to_string())
                .ok_or_else(|| DbError::InvalidInput(format!("{flag} needs a value")))
        };
        match a {
            "--base" => base = Some(value("--base")?),
            "--version" => version = Some(value("--version")?),
            "--ttl" => {
                ttl = Some(value("--ttl")?.parse().map_err(|_| {
                    DbError::InvalidInput("--ttl must be a number of seconds".into())
                })?)
            }
            "--id" => id_flag = Some(value("--id")?),
            "--author" => author = value("--author")?,
            "--message" => message = value("--message")?,
            other => positional.push(other),
        }
    }
    let pos = |i: usize| -> DbResult<&str> { positional.get(i).copied().ok_or_else(usage) };
    let now = forks.clock().now();

    match verb {
        "create" => {
            let base = match (version, base) {
                (Some(v), _) => VersionSpec::Version(crate::commands::parse_uid(&v)?),
                (None, b) => VersionSpec::Branch(b.unwrap_or_else(|| "master".to_string())),
            };
            let info = forks.create(base, ttl, id_flag)?;
            Ok(format!(
                "created fork {} (branch {}, expires in {} s)",
                info.id,
                info.branch(),
                info.lease.remaining_at(now)
            ))
        }
        "list" => {
            let mut out = String::new();
            for info in forks.list() {
                out.push_str(&render_info(&info, now));
                out.push('\n');
            }
            Ok(out)
        }
        "info" => Ok(render_info(&forks.info(pos(0)?)?, now)),
        "touch" => {
            let info = forks.touch(pos(0)?, ttl)?;
            Ok(format!(
                "fork {} renewed, expires in {} s",
                info.id,
                info.lease.remaining_at(now)
            ))
        }
        "drop" => {
            let id = pos(0)?;
            let n = forks.drop_fork(backend, id)?;
            Ok(format!("dropped fork {id} ({n} branch(es) deleted)"))
        }
        "diff" => {
            let diff = forks.diff(backend, pos(0)?)?;
            let mut out = format!(
                "fork {}: {} changed key(s) of {}\n",
                diff.fork,
                diff.changed_keys(),
                diff.keys.len()
            );
            for k in &diff.keys {
                let what = match (&k.base, &k.summary) {
                    (None, _) => "created".to_string(),
                    (Some(_), Some(s)) if s.is_identical() => "identical".to_string(),
                    (Some(_), Some(s)) => match s.map_changes() {
                        Some(n) => format!("{n} entr(ies) changed"),
                        None => "modified".to_string(),
                    },
                    (Some(_), None) => "modified".to_string(),
                };
                out.push_str(&format!("{}\t{}\t{}\n", k.key, k.head, what));
            }
            Ok(out)
        }
        "get" => {
            let got = forks.get(backend, pos(0)?, pos(1)?)?;
            Ok(format!("{}\n(version {})", got.value.summary(), got.uid))
        }
        "put" => {
            let opts = PutOptions {
                branch: String::new(), // the service owns branch placement
                author,
                message,
            };
            let commit = forks.put(backend, pos(0)?, pos(1)?, Value::string(pos(2)?), &opts)?;
            Ok(format!("{} -> {}", commit.branch, commit.uid))
        }
        _ => Err(usage()),
    }
}

/// One registry line: id, branch, liveness, lease budget, write count.
fn render_info(info: &ForkInfo, now: u64) -> String {
    let state = if info.lease.live_at(now) {
        format!("live, {} s left", info.lease.remaining_at(now))
    } else {
        "expired (awaiting reaper)".to_string()
    };
    let base = match &info.base {
        VersionSpec::Branch(b) => format!("branch {b}"),
        VersionSpec::Version(u) => format!("version {u}"),
    };
    format!(
        "{}\t{}\tbase {}\t{}\t{} write(s), {} key(s)",
        info.id,
        info.branch(),
        base,
        state,
        info.writes,
        info.touched.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase::ForkBase;
    use forkbase_postree::TreeConfig;
    use forkbase_store::MemStore;

    fn db() -> ForkBase<MemStore> {
        ForkBase::with_config(MemStore::new(), TreeConfig::test_config())
    }

    #[test]
    fn fork_verb_family_end_to_end() {
        let db = db();
        let forks = ForkService::new();
        db.put("doc", Value::string("base"), &PutOptions::default())
            .unwrap();

        let out =
            run_fork_command(&forks, &db, &["create", "--id", "scratch", "--ttl", "300"]).unwrap();
        assert!(out.contains("created fork scratch"), "{out}");
        assert!(out.contains("fork/scratch"), "{out}");

        // Pass-through read, then an isolated write.
        let out = run_fork_command(&forks, &db, &["get", "scratch", "doc"]).unwrap();
        assert!(out.contains("base"), "{out}");
        let out = run_fork_command(&forks, &db, &["put", "scratch", "doc", "edited"]).unwrap();
        assert!(out.starts_with("fork/scratch -> "), "{out}");
        assert_eq!(
            db.get("doc", "master").unwrap().value.as_str(),
            Some("base")
        );

        let out = run_fork_command(&forks, &db, &["list"]).unwrap();
        assert!(out.contains("scratch") && out.contains("live"), "{out}");
        let out = run_fork_command(&forks, &db, &["diff", "scratch"]).unwrap();
        assert!(out.contains("1 changed key(s) of 1"), "{out}");

        let out = run_fork_command(&forks, &db, &["touch", "scratch", "--ttl", "900"]).unwrap();
        assert!(out.contains("900"), "{out}");
        let out = run_fork_command(&forks, &db, &["drop", "scratch"]).unwrap();
        assert!(out.contains("1 branch(es) deleted"), "{out}");
        assert!(db.list_branches("doc").unwrap().len() == 1);
    }

    #[test]
    fn fork_errors_are_reported() {
        let db = db();
        let forks = ForkService::new();
        assert!(run_fork_command(&forks, &db, &[]).is_err());
        assert!(run_fork_command(&forks, &db, &["bogus"]).is_err());
        assert!(run_fork_command(&forks, &db, &["create", "--ttl", "abc"]).is_err());
        assert!(run_fork_command(&forks, &db, &["create", "--version", "zz"]).is_err());
        let err = run_fork_command(&forks, &db, &["get", "ghost", "k"]).unwrap_err();
        assert_eq!(err.code(), "fork_expired");
    }
}
