//! P3 — capability lint.
//!
//! Two rule groups, both scanned over shipped (non-`#[cfg(test)]`) code:
//!
//! * **Privileged verbs** are only legal from an allowlisted set of
//!   modules: ref-table writes (`branches.write()`: only the batch
//!   committer's `publish`, which every verb, merge, import and
//!   rebalance forget commits through),
//!   chunk installs (everything goes through `put_batch`, and only the
//!   batch committer and the bundle importer may call it; raw
//!   single-chunk `store.put(…)` is legal nowhere in core/cli), and
//!   encoding the topology and fork-registry records the session
//!   appends to its directory's log, and the cluster's
//!   maintenance closures (`on_node`, `with_key`, `on_replica`): a
//!   closure runs on a local servelet's thread outside the request path,
//!   so nothing it changes is persisted. They stay public for tests and
//!   are legal nowhere in shipped code (a lint rule rather than a Cargo
//!   feature, which would add a build option).
//! * **No panics in request paths**: `unwrap()` / `expect(` / `panic!`
//!   are denied in the cluster router, RPC, net, wire, replication,
//!   rate-limit, accept loop, REST gateway and CLI session modules, where
//!   a panicking thread kills a servelet worker, a listener or a routed
//!   call, or a save leaves records half-written; and in the history
//!   walk, GC and bundle modules, which parse and walk bytes shipped from
//!   another process (replica `Replicate`, rebalance); in the verb
//!   and commit modules every servelet request ends in; and in the
//!   supervisor, chaos hooks and `Backend` adapter the router and both
//!   gateways run on; and in the fork registry every fork verb of both
//!   gateways locks. A genuinely unreachable case can carry a
//!   `// forkbase-lint: allow(no-panic): <why>` waiver on its own or
//!   the preceding line.
//! * **Locks through the shim**: shipped code under `crates/cli/src` and
//!   `crates/core/src` names no `std::sync::{Mutex, RwLock, Condvar}` (as
//!   a path or in a `use` list); it takes the vendored `parking_lot`
//!   ones, which do not poison, so no lock call needs an `unwrap` or a
//!   poison arm. A deliberate exception carries
//!   `// forkbase-lint: allow(std-lock)`.

use std::path::Path;

use crate::lexer::{find_pattern_ws, Masked};
use crate::{rust_files_under, Finding};

const PASS: &str = "P3/caps";

/// Request-path modules where a panic kills a servelet worker, an
/// accept loop, a gateway connection handler, or a routed call (the
/// cluster router) — the CLI session, which serves servelets and
/// persists every record, the directory log every ack appends to, the
/// verbs and commit path a servelet applies every request through, the
/// supervisor loop and chaos hooks every routed call consults, and the
/// fork registry both gateways' fork routes lock.
const NO_PANIC_FILES: &[&str] = &[
    "crates/core/src/accept.rs",
    "crates/cli/src/rest.rs",
    "crates/cli/src/session.rs",
    "crates/cli/src/reflog.rs",
    "crates/core/src/cluster/mod.rs",
    "crates/core/src/cluster/rpc.rs",
    "crates/core/src/cluster/net.rs",
    "crates/core/src/cluster/wire.rs",
    "crates/core/src/cluster/replication.rs",
    "crates/core/src/cluster/ratelimit.rs",
    "crates/core/src/walk.rs",
    "crates/core/src/gc.rs",
    "crates/core/src/bundle.rs",
    "crates/core/src/api/verbs.rs",
    "crates/core/src/api/batch.rs",
    "crates/core/src/api/mod.rs",
    "crates/core/src/backend.rs",
    "crates/core/src/cluster/supervisor.rs",
    "crates/core/src/cluster/chaos.rs",
    "crates/core/src/forks/manager.rs",
];

const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// Privileged patterns (whitespace-insensitive) and the module
/// allowlists they are legal from.
const CAPABILITIES: &[(&str, &str, &[&str])] = &[
    (
        "branches.write()",
        "raw ref-table head swing",
        &["crates/core/src/api/batch.rs"],
    ),
    (
        ".put_batch(",
        "chunk install",
        &["crates/core/src/api/batch.rs", "crates/core/src/bundle.rs"],
    ),
    (
        "store.put(",
        "raw single-chunk install (use put_batch)",
        &[],
    ),
    (
        "store().put(",
        "raw single-chunk install (use put_batch)",
        &[],
    ),
    (
        "topology().encode()",
        "TOPOLOGY record write",
        &["crates/cli/src/session.rs"],
    ),
    (
        "topology.encode()",
        "TOPOLOGY record write",
        &["crates/cli/src/session.rs"],
    ),
    (
        "forks.dump()",
        "FORKS record write",
        &["crates/cli/src/session.rs"],
    ),
    (
        ".on_node(",
        "maintenance closure (unpersisted; tests only)",
        &[],
    ),
    (
        ".with_key(",
        "maintenance closure (unpersisted; tests only)",
        &[],
    ),
    (
        ".on_replica(",
        "maintenance closure (unpersisted; tests only)",
        &[],
    ),
];

/// The sources whose shipped code takes its locks from the `parking_lot`
/// shim.
const SHIM_LOCK_DIRS: &[&str] = &["crates/cli/src", "crates/core/src"];

/// The `std::sync` names the shim replaces.
const STD_LOCKS: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// The identifiers a `std::sync::` path at `at` names: the one segment
/// after it, or every identifier in a following `{…}` use list.
fn names_after_std_sync(code: &str, at: usize) -> Vec<&str> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let rest = code[at..].split_once("sync").map_or("", |(_, r)| r);
    let rest = rest.trim_start().trim_start_matches(':').trim_start();
    let named = if rest.starts_with('{') {
        rest.split(';').next().unwrap_or("")
    } else {
        &rest[..rest.find(|c| !ident(c)).unwrap_or(rest.len())]
    };
    named
        .split(|c| !ident(c))
        .filter(|w| !w.is_empty())
        .collect()
}

/// Run the pass over `crates/core` and `crates/cli` sources.
pub fn run(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    for rel in NO_PANIC_FILES {
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            continue; // absence is P1/P2's concern, not a panic risk
        };
        let m = Masked::new(text);
        let shipped = m.code_without_tests();
        for token in PANIC_TOKENS {
            for off in find_pattern_ws(&shipped, token) {
                let line = m.line_of(off);
                if m.has_waiver(line, "no-panic") {
                    continue;
                }
                findings.push(Finding::new(
                    *rel,
                    line,
                    PASS,
                    format!(
                        "`{}` in a request path — return a DbError instead (a panic \
                         kills the worker); a provably unreachable case may carry \
                         `// forkbase-lint: allow(no-panic): <why>`",
                        token.trim_start_matches('.')
                    ),
                ));
            }
        }
    }

    let mut files = rust_files_under(root, "crates/core/src");
    files.extend(rust_files_under(root, "crates/cli/src"));
    for rel in &files {
        let Ok(text) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let m = Masked::new(text);
        let shipped = m.code_without_tests();
        for (pattern, what, allowed) in CAPABILITIES {
            if allowed.contains(&rel.as_str()) {
                continue;
            }
            for off in find_pattern_ws(&shipped, pattern) {
                let line = m.line_of(off);
                if m.has_waiver(line, "caps") {
                    continue;
                }
                findings.push(Finding::new(
                    rel.clone(),
                    line,
                    PASS,
                    format!(
                        "{what} (`{pattern}`) outside its allowlisted modules [{}]",
                        allowed.join(", ")
                    ),
                ));
            }
        }
    }

    for rel in SHIM_LOCK_DIRS
        .iter()
        .flat_map(|dir| rust_files_under(root, dir))
    {
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let m = Masked::new(text);
        let shipped = m.code_without_tests();
        for off in find_pattern_ws(&shipped, "std::sync::") {
            let line = m.line_of(off);
            if m.has_waiver(line, "std-lock") {
                continue;
            }
            for name in names_after_std_sync(&shipped, off) {
                if STD_LOCKS.contains(&name) {
                    findings.push(Finding::new(
                        rel.clone(),
                        line,
                        PASS,
                        format!(
                            "`std::sync::{name}` in shipped code — use \
                             `parking_lot::{name}` (the vendored shim does not poison)"
                        ),
                    ));
                }
            }
        }
    }
    findings
}
