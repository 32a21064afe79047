#![forbid(unsafe_code)]
//! `forkbase-lint`: the workspace invariant checker.
//!
//! The repo carries invariants that `rustc` cannot see: wire tags are
//! frozen (PROTOCOL.md § Compatibility), chunk/format constants are
//! on-disk format (ROADMAP "Format invariants"), stripe locks must be
//! taken in index order under the GC gate, privileged storage verbs are
//! only legal from a handful of modules, and every `DbError` must map
//! consistently onto a wire error, an HTTP status, and the documented
//! code tables. Each pass checks one of those surfaces against the
//! sources, the docs, and a committed lockfile snapshot, and reports
//! machine-readable findings (`file:line: [pass/rule] text`).
//!
//! Passes:
//!
//! * **P1 `wire`** — wire-protocol drift: `wire_enum!` tag rows and
//!   versions in `cluster/wire.rs` vs `PROTOCOL.md` vs `lint/wire.lock`.
//! * **P2 `format`** — format-constant freeze: `GAMMA_SEED`, frame
//!   layout, `HEAD_STRIPES`, ring derivation, record magics vs
//!   `lint/format.lock`; plus the `#![forbid(unsafe_code)]` crate-root
//!   check.
//! * **P3 `caps`** — capability lint: privileged verbs only from
//!   allowlisted modules; no `unwrap`/`expect`/`panic!` in the
//!   RPC/net/replication request paths.
//! * **P4 `locks`** — lock-order: two head stripes only via the
//!   index-ordering idiom; never a stripe before the GC gate.
//! * **P5 `errors`** — error-taxonomy consistency across `DbError`,
//!   the wire codec, the REST status map, and the doc tables.
//!
//! Lockfiles are regenerated with `--bless` (in its own commit — see
//! README § Static analysis for the unlock procedure).

pub mod lexer;
pub mod passes;

use std::path::{Path, PathBuf};

/// One rule violation, printable as `file:line: [pass/rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-root-relative path of the offending file.
    pub file: String,
    /// 1-based line (0 when the finding is file- or table-level).
    pub line: usize,
    /// Pass id, e.g. `P3/no-panic`.
    pub pass: String,
    /// Human-readable rule text.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.pass, self.message
        )
    }
}

impl Finding {
    pub(crate) fn new(
        file: impl Into<String>,
        line: usize,
        pass: &str,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            file: file.into(),
            line,
            pass: pass.to_string(),
            message: message.into(),
        }
    }
}

/// Run every pass over the workspace at `root`. With `bless`, the
/// lockfiles are rewritten to match the current sources instead of being
/// diffed against them (doc/source consistency checks still run).
pub fn run_all(root: &Path, bless: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(passes::wire::run(root, bless));
    findings.extend(passes::format::run(root, bless));
    findings.extend(passes::caps::run(root));
    findings.extend(passes::locks::run(root));
    findings.extend(passes::errors::run(root));
    findings
}

/// Read a workspace file into a [`lexer::Masked`] view, or report its
/// absence as a finding (a moved invariant-bearing file must update the
/// lint, not silently drop out of coverage).
pub(crate) fn read_masked(
    root: &Path,
    rel: &str,
    pass: &str,
    findings: &mut Vec<Finding>,
) -> Option<lexer::Masked> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => Some(lexer::Masked::new(text)),
        Err(e) => {
            findings.push(Finding::new(
                rel,
                0,
                pass,
                format!("cannot read invariant-bearing file: {e} (moved it? update crates/lint)"),
            ));
            None
        }
    }
}

/// Every `.rs` file under `root/<rel>` (recursive, sorted), as
/// root-relative path strings.
pub(crate) fn rust_files_under(root: &Path, rel: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join(rel)];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
