//! P2 — format-constant freeze.
//!
//! The constants pinned here are **on-disk format** (ROADMAP "Format
//! invariants"): changing any of them strands or corrupts every existing
//! store. They are snapshotted in `lint/format.lock`; any drift without
//! an explicit `--bless` (the documented unlock procedure) is a hard
//! failure:
//!
//! * `GAMMA_SEED` — seeds the Γ table; moves every chunk boundary.
//! * The CRC frame layout constants in the pack-file store
//!   (`FRAME_MAGIC`, `HEADER_LEN` = magic(4) len(4) hash(32)) plus the
//!   manifest/tombstone record magics.
//! * `HEAD_STRIPES` — the stripe count the lock-order pass (P4) and the
//!   striped-commit design assume.
//! * The consistent-hash ring-point derivation domain string — moving it
//!   re-routes every key in every persisted topology.
//! * The topology and fork-registry text magics.
//! * The directory log's `LOG_MAGIC` and its record `kind` bytes
//!   (checkpoint, delta, topology, forks, synced replicas): a retagged
//!   kind replays every existing `refs.log` wrong.
//!
//! The pass also enforces the crate-root hygiene rule that rides along
//! with the freeze: every non-vendor crate root carries
//! `#![forbid(unsafe_code)]`. The crate roots in `UNSAFE_ALLOWLIST` may
//! instead say `#![deny(unsafe_code)]` with an inline rationale comment,
//! and `allow(unsafe_code)` may appear only in the kernel files each entry
//! names — nowhere else outside `crates/vendor/`.

use std::collections::BTreeMap;
use std::path::Path;

use super::lockfile;
use super::rust_src;
use crate::{read_masked, rust_files_under, Finding};

const PASS: &str = "P2/format-freeze";
pub(crate) const LOCK: &str = "lint/format.lock";

/// (file, constant) pairs frozen into the lockfile.
const FROZEN: &[(&str, &str)] = &[
    ("crates/chunk/src/rolling.rs", "GAMMA_SEED"),
    ("crates/store/src/file.rs", "FRAME_MAGIC"),
    ("crates/store/src/file.rs", "HEADER_LEN"),
    ("crates/store/src/file.rs", "MANIFEST_MAGIC"),
    ("crates/store/src/file.rs", "TOMBSTONES_MAGIC"),
    ("crates/core/src/api/mod.rs", "HEAD_STRIPES"),
    ("crates/core/src/cluster/mod.rs", "TOPOLOGY_MAGIC"),
    ("crates/core/src/forks/manager.rs", "FORKS_MAGIC"),
    ("crates/cli/src/reflog.rs", "LOG_MAGIC"),
    ("crates/cli/src/reflog.rs", "CHECKPOINT"),
    ("crates/cli/src/reflog.rs", "DELTA"),
    ("crates/cli/src/reflog.rs", "TOPOLOGY"),
    ("crates/cli/src/reflog.rs", "FORKS"),
    ("crates/cli/src/reflog.rs", "SYNCED"),
];

/// (crate root, the kernel files under it that may `allow(unsafe_code)`):
/// the crates allowed to deny `unsafe_code` instead of forbidding it.
/// `crates/crypto` calls its SHA-NI and carry-less-multiply CRC-32
/// kernels after runtime CPU detection.
const UNSAFE_ALLOWLIST: &[(&str, &[&str])] = &[(
    "crates/crypto/src/lib.rs",
    &["crates/crypto/src/sha256.rs", "crates/crypto/src/crc32.rs"],
)];

/// The ring-point derivation domain prefix: the full literal is captured
/// from the source and locked.
const RING_FILE: &str = "crates/core/src/cluster/mod.rs";
const RING_PREFIX: &str = "b\"forkbase-ring-";

const LOCK_HEADER: &str = "forkbase-lint P2: frozen on-disk format constants.\n\
These values determine chunk boundaries, frame bytes, and key routing in\n\
every existing store. Regenerate ONLY with `cargo run -p forkbase-lint --\n\
--bless` in its own commit, and only for a deliberate, documented format\n\
break (new store-format version + migration story — see README \u{a7} Static\n\
analysis for the unlock procedure).";

const UNLOCK_HINT: &str = "changing an on-disk format constant is a breaking format change; the \
unlock procedure (README \u{a7} Static analysis) requires a deliberate migration story and a \
`--bless`ed lint/format.lock in its own commit";

/// Run the pass. `bless` rewrites the lockfile instead of diffing it.
pub fn run(root: &Path, bless: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut lock: BTreeMap<String, String> = BTreeMap::new();

    let mut files: Vec<&str> = FROZEN.iter().map(|(f, _)| *f).collect();
    files.dedup();
    for file in files {
        let Some(m) = read_masked(root, file, PASS, &mut findings) else {
            continue;
        };
        let consts = rust_src::consts(&m);
        for (_, name) in FROZEN.iter().filter(|(f, _)| *f == file) {
            match consts.iter().find(|c| c.name == *name) {
                Some(c) => {
                    lock.insert(format!("{file} {name}"), c.value.clone());
                }
                None => findings.push(Finding::new(
                    file,
                    0,
                    PASS,
                    format!(
                        "frozen format constant `{name}` not found (renamed? update crates/lint)"
                    ),
                )),
            }
        }
        if file == RING_FILE {
            match extract_literal(&m.raw, RING_PREFIX) {
                Some(lit) => {
                    lock.insert(format!("{file} RING_DOMAIN"), lit);
                }
                None => findings.push(Finding::new(
                    file,
                    0,
                    PASS,
                    format!("ring-point domain literal `{RING_PREFIX}…\"` not found (derivation moved? update crates/lint)"),
                )),
            }
        }
    }

    lockfile::check(
        root,
        LOCK,
        PASS,
        LOCK_HEADER,
        &lock,
        bless,
        UNLOCK_HINT,
        &mut findings,
    );
    forbid_unsafe(root, &mut findings);
    allow_unsafe_only_where_listed(root, &mut findings);
    findings
}

/// Capture the full string literal starting with `prefix` (through its
/// closing quote) from raw source text.
fn extract_literal(raw: &str, prefix: &str) -> Option<String> {
    let start = raw.find(prefix)?;
    let rest = &raw[start + prefix.len()..];
    let end = rest.find('"')?;
    Some(format!("{prefix}{}\"", &rest[..end]))
}

/// Crate-root hygiene: `#![forbid(unsafe_code)]` on every non-vendor
/// crate root (libs and binaries), or a commented `#![deny(unsafe_code)]`
/// on an allowlisted one.
fn forbid_unsafe(root: &Path, findings: &mut Vec<Finding>) {
    let mut roots: Vec<String> = Vec::new();
    if root.join("src/lib.rs").exists() {
        roots.push("src/lib.rs".into());
    }
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut crate_dirs: Vec<_> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "vendor"))
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let name = dir
                .file_name()
                .unwrap_or_default()
                .to_string_lossy()
                .to_string();
            for candidate in ["src/lib.rs", "src/main.rs"] {
                if dir.join(candidate).exists() {
                    roots.push(format!("crates/{name}/{candidate}"));
                }
            }
            if let Ok(bins) = std::fs::read_dir(dir.join("src/bin")) {
                let mut bin_files: Vec<_> = bins
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                    .collect();
                bin_files.sort();
                for bin in bin_files {
                    let file = bin
                        .file_name()
                        .unwrap_or_default()
                        .to_string_lossy()
                        .to_string();
                    roots.push(format!("crates/{name}/src/bin/{file}"));
                }
            }
        }
    }
    for rel in roots {
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        if text.contains("#![forbid(unsafe_code)]") {
            continue;
        }
        if let Some(line) = text.lines().find(|l| l.contains("#![deny(unsafe_code)]")) {
            if !UNSAFE_ALLOWLIST.iter().any(|(r, _)| *r == rel) {
                findings.push(Finding::new(
                    rel,
                    0,
                    PASS,
                    "`#![deny(unsafe_code)]` on a crate root outside the unsafe allowlist; use `#![forbid(unsafe_code)]`",
                ));
                continue;
            }
            if line.contains("//") {
                continue; // deny with an inline allowlist rationale
            }
            findings.push(Finding::new(
                rel,
                0,
                PASS,
                "`#![deny(unsafe_code)]` needs an inline comment explaining why `forbid` is impossible",
            ));
            continue;
        }
        findings.push(Finding::new(
            rel,
            0,
            PASS,
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }
}

/// `allow(unsafe_code)` (or `expect`) only in the allowlisted files: every
/// other non-vendor Rust file is flagged where it says it.
fn allow_unsafe_only_where_listed(root: &Path, findings: &mut Vec<Finding>) {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates", "bench"] {
        files.extend(rust_files_under(root, dir));
    }
    files.retain(|f| !f.starts_with("crates/vendor/") && !f.contains("/target/"));
    for rel in files {
        if UNSAFE_ALLOWLIST
            .iter()
            .any(|(_, files)| files.contains(&rel.as_str()))
        {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let m = crate::lexer::Masked::new(text);
        let mut from = 0;
        while let Some(pos) = rust_src::find_word(&m.code, "unsafe_code", from) {
            from = pos + "unsafe_code".len();
            let attr: String = m.code[m.code[..pos].rfind('[').unwrap_or(0)..pos]
                .split_whitespace()
                .collect();
            if attr.contains("allow(") || attr.contains("expect(") {
                findings.push(Finding::new(
                    rel.as_str(),
                    m.line_of(pos),
                    PASS,
                    "`allow(unsafe_code)` outside the unsafe allowlist (crates/lint P2 `UNSAFE_ALLOWLIST`)",
                ));
            }
        }
    }
}
