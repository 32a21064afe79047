//! Per-pass fixture tests: build a minimal synthetic workspace in a
//! temp dir, bless its lockfiles, then seed one violation at a time and
//! assert the right pass flags it (and that the clean tree stays clean).

use std::fs;
use std::path::{Path, PathBuf};

use forkbase_lint::run_all;

/// Write `text` at `root/rel`, creating parent directories.
fn put(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

const WIRE_RS: &str = "crates/core/src/cluster/wire.rs";

/// The directory log's frozen constants: its magic and its kind bytes.
const REFLOG_SRC: &str = "const LOG_MAGIC: &[u8; 8] = b\"FBREFS01\";\n\
    const CHECKPOINT: u8 = 0;\nconst DELTA: u8 = 1;\npub const TOPOLOGY: u8 = 2;\n\
    pub const FORKS: u8 = 3;\npub const SYNCED: u8 = 4;\n";

const WIRE_SRC: &str = r#"
pub const WIRE_VERSION: u8 = 0x02;
pub const MIN_WIRE_VERSION: u8 = 0x01;
pub const MAX_FRAME_LEN: u32 = 1024;

wire_enum! {
    /// Requests.
    #[derive(Clone, Debug)]
    pub enum Request ("request") {
        0x01 => Get { key: String },
        0x02 => Put { key: String, value: Value },
    }
}

wire_enum! {
    pub enum WireError ("error") {
        0x01 => NoSuchKey(key: String),
        0x0b => Remote { code: String, message: String },
    }
}

wire_enum! {
    pub enum Reply ("reply") {
        0x80 => Value(value: Value) expect_value "a value",
    }
}

wire_enum! {
    pub enum WireOp ("batch op") {
        0x01 => Put { key: String },
    }
}

wire_enum! {
    impl BatchOutcome ("outcome") {
        0x01 => Committed(c: CommitResult),
    }
}

wire_enum! {
    impl DiffSummary ("diff") {
        0x01 => Identical,
    }
}

wire_enum! {
    impl VersionSpec ("version-spec") {
        0x00 => Head,
    }
}

pub fn encode_err(e: &DbError) -> WireError {
    match e {
        DbError::NoSuchKey(k) => WireError::NoSuchKey(k.clone()),
        DbError::Remote { code, message } => WireError::Remote { code, message },
    }
}
"#;

const PROTOCOL_MD: &str = r#"# Protocol

Frame: version byte is WIRE_VERSION 0x02; receivers accept 0x01..=0x02.

| tag  | request |
|------|---------|
| 0x01 | Get     |
| 0x02 | Put     |

| tag  | reply |
|------|-------|
| 0x80 | Value |

| tag  | op  |
|------|-----|
| 0x01 | Put |

| tag  | outcome   |
|------|-----------|
| 0x01 | Committed |

| tag  | diff      |
|------|-----------|
| 0x01 | Identical |

| tag  | error     | code           |
|------|-----------|----------------|
| 0x01 | NoSuchKey | `no_such_key`  |
| 0x0B | Remote    | `remote_error` |

## Version history

| version | notes   |
|---------|---------|
| 1       | initial |
| 2       | current |
"#;

const ERROR_RS: &str = r#"
pub enum DbError {
    NoSuchKey(String),
    Remote { code: String, message: String },
}

impl DbError {
    pub fn code(&self) -> &str {
        match self {
            DbError::NoSuchKey(_) => "no_such_key",
            DbError::Remote { code, .. } => match code.as_str() {
                "no_such_key" => "no_such_key",
                _ => "remote_error",
            },
        }
    }
}
"#;

const REST_RS: &str = r#"
fn respond_error(e: &DbError) -> u16 {
    match e {
        DbError::NoSuchKey(_) => 404,
        DbError::Remote { .. } => 500,
    }
}
"#;

const README_MD: &str = r#"# Fixture

## Error taxonomy

| code | HTTP |
|------|------|
| `no_such_key` | 404 |
| `remote_error` | 500 |
"#;

/// Build a complete minimal workspace that passes every lint, bless its
/// lockfiles, and return its root.
fn fixture(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "forkbase-lint-fixture-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();

    put(&root, "Cargo.toml", "[workspace]\nmembers = []\n");
    put(&root, WIRE_RS, WIRE_SRC);
    put(&root, "PROTOCOL.md", PROTOCOL_MD);
    put(&root, "README.md", README_MD);
    put(&root, "crates/core/src/error.rs", ERROR_RS);
    put(&root, "crates/cli/src/rest.rs", REST_RS);
    put(
        &root,
        "crates/chunk/src/rolling.rs",
        "pub const GAMMA_SEED: u64 = 0x1234;\n",
    );
    put(
        &root,
        "crates/store/src/file.rs",
        "pub const FRAME_MAGIC: &[u8; 4] = b\"FKB1\";\n\
         pub const HEADER_LEN: usize = 4 + 4 + 32;\n\
         pub const MANIFEST_MAGIC: &str = \"packs v1\";\n\
         pub const TOMBSTONES_MAGIC: &str = \"tombs v1\";\n",
    );
    put(
        &root,
        "crates/core/src/api/mod.rs",
        "pub const HEAD_STRIPES: usize = 64;\n",
    );
    put(
        &root,
        "crates/core/src/cluster/mod.rs",
        "pub const TOPOLOGY_MAGIC: &str = \"topology v1\";\n\
         pub fn ring_domain() -> &'static [u8] {\n    b\"forkbase-ring-v1\"\n}\n",
    );
    put(
        &root,
        "crates/core/src/forks/manager.rs",
        "pub const FORKS_MAGIC: &str = \"forks v1\";\n",
    );
    put(&root, "crates/cli/src/reflog.rs", REFLOG_SRC);

    let blessed = run_all(&root, true);
    assert!(blessed.is_empty(), "bless of clean fixture: {blessed:?}");
    root
}

fn findings_of(root: &Path, pass_prefix: &str) -> Vec<String> {
    run_all(root, false)
        .into_iter()
        .filter(|f| f.pass.starts_with(pass_prefix))
        .map(|f| f.to_string())
        .collect()
}

#[test]
fn clean_fixture_has_no_findings() {
    let root = fixture("clean");
    let findings = run_all(&root, false);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn p1_retag_without_version_bump_is_flagged() {
    let root = fixture("p1-retag");
    // Re-tag Request::Get and keep the docs in step, but do NOT bump
    // WIRE_VERSION: the lockfile diff plus the sharper no-bump finding
    // must both fire.
    put(
        &root,
        WIRE_RS,
        &WIRE_SRC.replace("0x01 => Get", "0x05 => Get"),
    );
    put(
        &root,
        "PROTOCOL.md",
        &PROTOCOL_MD.replace("| 0x01 | Get     |", "| 0x05 | Get     |"),
    );
    let findings = findings_of(&root, "P1");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("wire.lock") && f.contains("REQ_GET")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("WITHOUT a WIRE_VERSION bump")),
        "{findings:?}"
    );
}

#[test]
fn p1_doc_drift_is_flagged_both_directions() {
    let root = fixture("p1-doc");
    put(
        &root,
        "PROTOCOL.md",
        &PROTOCOL_MD.replace("| 0x01 | Get     |", "| 0x01 | Fetch   |"),
    );
    let findings = findings_of(&root, "P1");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("`Get`") && f.contains("no matching")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("`Fetch`") && f.contains("stale")),
        "{findings:?}"
    );
}

#[test]
fn p1_duplicate_tag_is_flagged() {
    let root = fixture("p1-dup");
    put(
        &root,
        WIRE_RS,
        &WIRE_SRC.replace("0x02 => Put", "0x01 => Put"),
    );
    let findings = findings_of(&root, "P1");
    assert!(
        findings.iter().any(|f| f.contains("duplicate tag")),
        "{findings:?}"
    );
}

#[test]
fn p1_bless_roundtrip_accepts_the_new_surface() {
    let root = fixture("p1-bless");
    put(
        &root,
        WIRE_RS,
        &WIRE_SRC
            .replace("0x01 => Get", "0x05 => Get")
            .replace("WIRE_VERSION: u8 = 0x02", "WIRE_VERSION: u8 = 0x03"),
    );
    put(
        &root,
        "PROTOCOL.md",
        &PROTOCOL_MD
            .replace("| 0x01 | Get     |", "| 0x05 | Get     |")
            .replace("WIRE_VERSION 0x02", "WIRE_VERSION 0x03")
            .replace("0x01..=0x02", "0x01..=0x03")
            .replace(
                "| 2       | current |",
                "| 2       | old |\n| 3       | current |",
            ),
    );
    assert!(!findings_of(&root, "P1").is_empty());
    let blessed = run_all(&root, true);
    assert!(blessed.is_empty(), "{blessed:?}");
    let after = run_all(&root, false);
    assert!(after.is_empty(), "{after:?}");
}

#[test]
fn p2_format_constant_drift_is_flagged() {
    let root = fixture("p2-gamma");
    put(
        &root,
        "crates/chunk/src/rolling.rs",
        "pub const GAMMA_SEED: u64 = 0x9999;\n",
    );
    let findings = findings_of(&root, "P2");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("GAMMA_SEED") && f.contains("changed")),
        "{findings:?}"
    );
}

#[test]
fn p2_ref_log_magic_drift_is_flagged_until_blessed() {
    // A new magic, and a retagged record kind.
    for (from, to, name) in [
        ("FBREFS01", "FBREFS02", "LOG_MAGIC"),
        ("FORKS: u8 = 3", "FORKS: u8 = 5", "FORKS"),
    ] {
        let root = fixture("p2-reflog");
        put(
            &root,
            "crates/cli/src/reflog.rs",
            &REFLOG_SRC.replace(from, to),
        );
        let findings = findings_of(&root, "P2");
        assert!(
            findings
                .iter()
                .any(|f| f.contains(&format!("reflog.rs {name}` changed"))),
            "{findings:?}"
        );
        assert!(run_all(&root, true).is_empty());
        assert!(findings_of(&root, "P2").is_empty());
    }
}

#[test]
fn p2_ring_domain_drift_is_flagged() {
    let root = fixture("p2-ring");
    put(
        &root,
        "crates/core/src/cluster/mod.rs",
        "pub const TOPOLOGY_MAGIC: &str = \"topology v1\";\n\
         pub fn ring_domain() -> &'static [u8] {\n    b\"forkbase-ring-v2\"\n}\n",
    );
    let findings = findings_of(&root, "P2");
    assert!(
        findings.iter().any(|f| f.contains("RING_DOMAIN")),
        "{findings:?}"
    );
}

#[test]
fn p2_missing_forbid_unsafe_is_flagged() {
    let root = fixture("p2-unsafe");
    put(&root, "crates/core/src/lib.rs", "pub mod api;\n");
    let findings = findings_of(&root, "P2");
    assert!(
        findings.iter().any(|f| f.contains("forbid(unsafe_code)")),
        "{findings:?}"
    );
    put(
        &root,
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod api;\n",
    );
    assert!(findings_of(&root, "P2").is_empty());
}

#[test]
fn p2_deny_unsafe_only_on_allowlisted_crate_roots() {
    let root = fixture("p2-deny-unsafe");
    // A commented `deny` is accepted on the crypto crate root only.
    put(
        &root,
        "crates/crypto/src/lib.rs",
        "#![deny(unsafe_code)] // one call into a detected CPU kernel\npub mod sha256;\n",
    );
    put(
        &root,
        "crates/crypto/src/sha256.rs",
        "pub fn f() {\n    // SAFETY: detected\n    #[allow(unsafe_code)]\n    unsafe { g() }\n}\n",
    );
    assert!(findings_of(&root, "P2").is_empty());

    put(
        &root,
        "crates/core/src/lib.rs",
        "#![deny(unsafe_code)] // would like raw pointers\npub mod api;\n",
    );
    let findings = findings_of(&root, "P2");
    assert!(
        findings
            .iter()
            .any(|f| f.starts_with("crates/core/src/lib.rs") && f.contains("allowlist")),
        "{findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.starts_with("crates/crypto")),
        "{findings:?}"
    );
}

#[test]
fn p2_allow_unsafe_only_in_the_crypto_kernel_files() {
    let root = fixture("p2-kernel-files");
    const ALLOW: &str =
        "pub fn f() {\n    // SAFETY: detected\n    #[allow(unsafe_code)]\n    unsafe { g() }\n}\n";
    put(
        &root,
        "crates/crypto/src/lib.rs",
        "#![deny(unsafe_code)] // calls into detected CPU kernels\npub mod crc32;\npub mod sha256;\n",
    );
    put(&root, "crates/crypto/src/sha256.rs", ALLOW);
    put(&root, "crates/crypto/src/crc32.rs", ALLOW);
    assert!(findings_of(&root, "P2").is_empty());

    // The same line in the store, which uses the CRC, is still a finding.
    put(&root, "crates/store/src/crc.rs", ALLOW);
    let findings = findings_of(&root, "P2");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].starts_with("crates/store/src/crc.rs:3:"),
        "{findings:?}"
    );
    put(&root, "crates/store/src/crc.rs", "pub fn f() {}\n");

    // So is a commented `deny` on the store's crate root.
    put(
        &root,
        "crates/store/src/lib.rs",
        "#![deny(unsafe_code)] // the CRC kernel lives here\npub mod crc;\n",
    );
    let findings = findings_of(&root, "P2");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].starts_with("crates/store/src/lib.rs") && findings[0].contains("allowlist"),
        "{findings:?}"
    );
    put(
        &root,
        "crates/store/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod crc;\n",
    );
    assert!(findings_of(&root, "P2").is_empty());
}

#[test]
fn p2_allow_unsafe_outside_the_allowlisted_file_is_flagged() {
    let root = fixture("p2-allow-unsafe");
    put(
        &root,
        "crates/crypto/src/hash.rs",
        "// allow(unsafe_code) in a comment is fine\n\
         pub const S: &str = \"allow(unsafe_code)\";\n\
         #[allow(dead_code, unsafe_code)]\n\
         fn h() {}\n",
    );
    let findings = findings_of(&root, "P2");
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].starts_with("crates/crypto/src/hash.rs:3:"),
        "{findings:?}"
    );

    put(&root, "crates/crypto/src/hash.rs", "fn h() {}\n");
    put(
        &root,
        "crates/core/tests/t.rs",
        "#[expect(unsafe_code)]\nfn t() {}\n",
    );
    let findings = findings_of(&root, "P2");
    assert!(
        findings
            .iter()
            .any(|f| f.starts_with("crates/core/tests/t.rs:1:")),
        "{findings:?}"
    );
    put(&root, "crates/core/tests/t.rs", "fn t() {}\n");
    assert!(findings_of(&root, "P2").is_empty());
}

#[test]
fn p3_panic_in_request_path_is_flagged_waiver_and_tests_are_not() {
    let root = fixture("p3-panic");
    let bad = format!(
        "{WIRE_SRC}\npub fn decode(b: &[u8]) -> u8 {{\n    b.first().copied().unwrap()\n}}\n"
    );
    put(&root, WIRE_RS, &bad);
    let findings = findings_of(&root, "P3");
    assert!(
        findings.iter().any(|f| f.contains("unwrap()")),
        "{findings:?}"
    );

    let waived = format!(
        "{WIRE_SRC}\npub fn decode(b: &[u8]) -> u8 {{\n    \
         // forkbase-lint: allow(no-panic): caller checked non-empty\n    \
         b.first().copied().unwrap()\n}}\n"
    );
    put(&root, WIRE_RS, &waived);
    assert!(findings_of(&root, "P3").is_empty());

    let in_tests = format!(
        "{WIRE_SRC}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        \
         Some(1).unwrap();\n    }}\n}}\n"
    );
    put(&root, WIRE_RS, &in_tests);
    assert!(findings_of(&root, "P3").is_empty());

    // The REST gateway's connection handler is a request path too.
    let rest_rs = root.join("crates/cli/src/rest.rs");
    let clean_rest = fs::read_to_string(&rest_rs).unwrap();
    put(
        &root,
        "crates/cli/src/rest.rs",
        &format!("{clean_rest}\nfn port(s: &str) -> u16 {{\n    s.parse().expect(\"port\")\n}}\n"),
    );
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("rest.rs") && f.contains("expect(")),
        "{findings:?}"
    );

    // So is the cluster router: every routed verb runs through it.
    put(
        &root,
        "crates/core/src/cluster/mod.rs",
        "fn point(h: &[u8]) -> u64 {\n    u64::from_le_bytes(h[..8].try_into().expect(\"8\"))\n}\n",
    );
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("cluster/mod.rs") && f.contains("expect(")),
        "{findings:?}"
    );

    // So is the CLI session: it serves servelets and writes every record.
    put(
        &root,
        "crates/cli/src/session.rs",
        "fn save(p: &str) {\n    std::fs::write(p, \"\").unwrap();\n}\n",
    );
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("session.rs") && f.contains("unwrap()")),
        "{findings:?}"
    );

    // So is the supervisor: a panic there stops every restart and failover.
    put(
        &root,
        "crates/core/src/cluster/supervisor.rs",
        "fn tick(h: &Mutex<u64>) {\n    h.lock().expect(\"poisoned\");\n}\n",
    );
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("supervisor.rs") && f.contains("expect(")),
        "{findings:?}"
    );
}

#[test]
fn p3_capability_outside_allowlist_is_flagged() {
    let root = fixture("p3-caps");
    put(
        &root,
        "crates/core/src/gc.rs",
        "pub fn sneak(db: &Db) {\n    let mut b = db.branches.write();\n    b.clear();\n}\n",
    );
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("gc.rs") && f.contains("head swing")),
        "{findings:?}"
    );
    // The same verb from the batch committer is legal.
    put(
        &root,
        "crates/core/src/api/batch.rs",
        "pub fn publish(db: &Db) {\n    let mut b = db.branches.write();\n    b.clear();\n}\n",
    );
    fs::remove_file(root.join("crates/core/src/gc.rs")).unwrap();
    assert!(findings_of(&root, "P3").is_empty());

    // The verbs and the engine's own imports write refs only through the
    // batch committer.
    let swing = "pub fn swing(db: &Db) {\n    db.branches.write().clear();\n}\n";
    put(&root, "crates/core/src/api/verbs.rs", swing);
    let engine = "pub const HEAD_STRIPES: usize = 64;\n";
    put(
        &root,
        "crates/core/src/api/mod.rs",
        &format!("{engine}{swing}"),
    );
    let findings = findings_of(&root, "P3");
    for file in ["api/verbs.rs", "api/mod.rs"] {
        let at = format!("crates/core/src/{file}:");
        assert!(
            findings
                .iter()
                .any(|f| f.starts_with(&at) && f.contains("head swing")),
            "{findings:?}"
        );
    }
    fs::remove_file(root.join("crates/core/src/api/verbs.rs")).unwrap();
    put(&root, "crates/core/src/api/mod.rs", engine);

    // The FORKS record has exactly one writer: the session.
    let write_forks = "pub fn save(s: &Session) {\n    write(&s.forks.dump());\n}\n";
    put(&root, "crates/cli/src/commands.rs", write_forks);
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("commands.rs") && f.contains("FORKS record write")),
        "{findings:?}"
    );
    fs::remove_file(root.join("crates/cli/src/commands.rs")).unwrap();
    put(&root, "crates/cli/src/session.rs", write_forks);
    assert!(findings_of(&root, "P3").is_empty());

    // Maintenance closures bypass a servelet's persist hook: no shipped
    // module may call one, the session included.
    let dump = "pub fn dump(c: &Cluster) {\n    c.on_node(0, |db| db.dump_refs());\n}\n";
    put(
        &root,
        "crates/cli/src/session.rs",
        &format!("{write_forks}{dump}"),
    );
    let findings = findings_of(&root, "P3");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("session.rs") && f.contains("maintenance closure")),
        "{findings:?}"
    );
    put(&root, "crates/cli/src/session.rs", write_forks);
    assert!(findings_of(&root, "P3").is_empty());
}

#[test]
fn p3_std_lock_in_cli_or_core_is_flagged_shim_and_tests_are_not() {
    let root = fixture("p3-std-lock");
    let clean = "use parking_lot::Mutex;\nuse std::sync::{atomic::AtomicBool, mpsc, Arc};\n\
         static M: Mutex<u8> = Mutex::new(0);\n\
         // forkbase-lint: allow(std-lock): needs std's poisoning\n\
         static P: std::sync::Mutex<u8> = std::sync::Mutex::new(0);\n\
         #[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
    for rel in ["crates/cli/src/session.rs", "crates/core/src/gc.rs"] {
        for (src, name) in [
            (
                "static M: std::sync::Mutex<u8> = std::sync::Mutex::new(0);\n",
                "Mutex",
            ),
            ("use std::sync::{Arc, RwLock};\n", "RwLock"),
            (
                "use std::sync::{atomic::{AtomicBool, Ordering},\n    Condvar as Cv};\n",
                "Condvar",
            ),
        ] {
            put(&root, rel, src);
            let findings = findings_of(&root, "P3");
            assert!(
                findings
                    .iter()
                    .any(|f| f.starts_with(rel) && f.contains(&format!("std::sync::{name}"))),
                "{src}: {findings:?}"
            );
        }
        // The shim's lock, std's other sync items, a test module and a
        // waiver are all clean.
        put(&root, rel, clean);
    }
    // So is a std lock outside the shipped crates' sources.
    put(
        &root,
        "crates/core/tests/stress.rs",
        "use std::sync::Mutex;\n",
    );
    let findings = findings_of(&root, "P3");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn p4_unordered_double_stripe_is_flagged() {
    let root = fixture("p4-order");
    put(
        &root,
        "crates/core/src/api/merge.rs",
        "pub fn cross(db: &Db, a: usize, b: usize) {\n    \
         let _ga = db.head_locks[a].lock();\n    \
         let _gb = db.head_locks[b].lock();\n}\n",
    );
    let findings = findings_of(&root, "P4");
    assert!(
        findings.iter().any(|f| f.contains("index-ordering")),
        "{findings:?}"
    );
    // Sorting the stripe set first is the sanctioned idiom.
    put(
        &root,
        "crates/core/src/api/merge.rs",
        "pub fn cross(db: &Db, stripes: &mut Vec<usize>) {\n    \
         stripes.sort_unstable();\n    \
         for s in stripes.iter() {\n        let _g = db.head_locks[*s].lock();\n    }\n    \
         let _g2 = db.head_locks[0].lock();\n}\n",
    );
    assert!(findings_of(&root, "P4").is_empty());
}

#[test]
fn p4_stripe_before_gate_is_flagged() {
    let root = fixture("p4-gate");
    put(
        &root,
        "crates/core/src/api/commit.rs",
        "pub fn inverted(db: &Db, s: usize) {\n    \
         let _g = db.head_locks[s].lock();\n    \
         let _gate = db.gc_gate.read();\n}\n",
    );
    let findings = findings_of(&root, "P4");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("before the GC/rebalance gate")),
        "{findings:?}"
    );
    // Gate first is the sanctioned order.
    put(
        &root,
        "crates/core/src/api/commit.rs",
        "pub fn upright(db: &Db, s: usize) {\n    \
         let _gate = db.gc_gate.read();\n    \
         let _g = db.head_locks[s].lock();\n}\n",
    );
    assert!(findings_of(&root, "P4").is_empty());
}

#[test]
fn p5_variant_without_code_arm_is_flagged() {
    let root = fixture("p5-arm");
    put(
        &root,
        "crates/core/src/error.rs",
        &ERROR_RS.replace(
            "pub enum DbError {",
            "pub enum DbError {\n    BranchExists(String),",
        ),
    );
    let findings = findings_of(&root, "P5");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("BranchExists") && f.contains("no arm")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("BranchExists") && f.contains("HTTP mapping")),
        "{findings:?}"
    );
}

#[test]
fn p5_duplicate_code_is_flagged() {
    let root = fixture("p5-dup");
    put(
        &root,
        "crates/core/src/error.rs",
        &ERROR_RS
            .replace(
                "pub enum DbError {",
                "pub enum DbError {\n    Shadow(String),",
            )
            .replace(
                "match self {",
                "match self {\n            DbError::Shadow(_) => \"no_such_key\",",
            ),
    );
    let findings = findings_of(&root, "P5");
    assert!(
        findings.iter().any(|f| f.contains("collides")),
        "{findings:?}"
    );
}

#[test]
fn p5_readme_rows_must_match_live_codes() {
    let root = fixture("p5-readme");
    put(
        &root,
        "README.md",
        &README_MD.replace("| `remote_error` | 500 |", "| `gone_error` | 500 |"),
    );
    let findings = findings_of(&root, "P5");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("`remote_error`") && f.contains("no row")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.contains("`gone_error`") && f.contains("stale")),
        "{findings:?}"
    );
    put(&root, "README.md", "# Fixture\n\nno table here\n");
    let findings = findings_of(&root, "P5");
    assert!(
        findings
            .iter()
            .any(|f| f.contains("no \"Error taxonomy\" section")),
        "{findings:?}"
    );
}

#[test]
fn lockfile_drift_reports_new_changed_and_removed_keys() {
    let root = fixture("lockdrift");
    // Hand-edit the committed lockfile: the sources are now "ahead".
    let lock_path = root.join("lint/format.lock");
    let text = fs::read_to_string(&lock_path).unwrap();
    let edited = text.replace(
        "crates/chunk/src/rolling.rs GAMMA_SEED = 0x1234",
        "crates/chunk/src/rolling.rs GAMMA_SEED = 0xdead\nold/file.rs GONE = 1",
    );
    fs::write(&lock_path, edited).unwrap();
    let findings = findings_of(&root, "P2");
    assert!(
        findings.iter().any(|f| f.contains("changed")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.contains("gone from the sources")),
        "{findings:?}"
    );
}

#[test]
fn missing_lockfiles_are_reported() {
    let root = fixture("nolock");
    fs::remove_file(root.join("lint/wire.lock")).unwrap();
    fs::remove_file(root.join("lint/format.lock")).unwrap();
    let findings = run_all(&root, false);
    assert!(
        findings
            .iter()
            .any(|f| f.pass.starts_with("P1") && f.message.contains("lockfile missing")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.pass.starts_with("P2") && f.message.contains("lockfile missing")),
        "{findings:?}"
    );
}
