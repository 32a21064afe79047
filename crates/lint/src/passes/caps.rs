//! P3 — capability lint.
//!
//! Two rule groups, both scanned over shipped (non-`#[cfg(test)]`) code:
//!
//! * **Privileged verbs** are only legal from an allowlisted set of
//!   modules: direct ref-table head swings (`branches.write()`),
//!   chunk installs (everything goes through `put_batch`, and only the
//!   batch committer and the bundle importer may call it; raw
//!   single-chunk `store.put(…)` is legal nowhere in core/cli),
//!   `install_ref` (hash-verified bundle import only), and persisting
//!   the `TOPOLOGY` / `FORKS` records.
//! * **No panics in request paths**: `unwrap()` / `expect(` / `panic!`
//!   are denied in the RPC, net, wire, replication, rate-limit, accept
//!   loop, REST gateway and CLI session modules, where a panicking thread
//!   kills a servelet worker or a listener, or a save leaves records
//!   half-written. A
//!   genuinely unreachable case can carry a
//!   `// forkbase-lint: allow(no-panic): <why>` waiver on its own or
//!   the preceding line.

use std::path::Path;

use crate::lexer::{find_pattern_ws, Masked};
use crate::{rust_files_under, Finding};

const PASS: &str = "P3/caps";

/// Request-path modules where a panic kills a servelet worker, an
/// accept loop, or a gateway connection handler — and the CLI session,
/// which serves servelets and persists every record.
const NO_PANIC_FILES: &[&str] = &[
    "crates/core/src/accept.rs",
    "crates/cli/src/rest.rs",
    "crates/cli/src/session.rs",
    "crates/core/src/cluster/rpc.rs",
    "crates/core/src/cluster/net.rs",
    "crates/core/src/cluster/wire.rs",
    "crates/core/src/cluster/replication.rs",
    "crates/core/src/cluster/ratelimit.rs",
];

const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!"];

/// Privileged patterns (whitespace-insensitive) and the module
/// allowlists they are legal from.
const CAPABILITIES: &[(&str, &str, &[&str])] = &[
    (
        "branches.write()",
        "raw ref-table head swing",
        &[
            "crates/core/src/api/mod.rs",
            "crates/core/src/api/verbs.rs",
            "crates/core/src/api/batch.rs",
        ],
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
        "install_ref(",
        "direct branch-ref install",
        &["crates/core/src/api/mod.rs", "crates/core/src/bundle.rs"],
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
];

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
                // Skip the definition site (`fn install_ref(`): a
                // capability is about *calls*.
                if is_definition(&shipped, off) {
                    continue;
                }
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
    findings
}

/// Is the pattern occurrence at `off` a `fn name(` definition rather
/// than a call?
fn is_definition(code: &str, off: usize) -> bool {
    let before = &code.as_bytes()[..off];
    let mut i = before.len();
    while i > 0 && (before[i - 1].is_ascii_whitespace()) {
        i -= 1;
    }
    i >= 2
        && &before[i - 2..i] == b"fn"
        && (i == 2 || !(before[i - 3].is_ascii_alphanumeric() || before[i - 3] == b'_'))
}
