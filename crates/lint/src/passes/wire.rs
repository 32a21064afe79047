//! P1 — wire-protocol drift.
//!
//! Extracts every `TAG => Variant` row of the seven `wire_enum!` blocks
//! (`Request`, `Reply`, `WireError`, batch op, outcome, diff, spec) plus
//! `WIRE_VERSION`/`MIN_WIRE_VERSION`/`MAX_FRAME_LEN` from
//! `crates/core/src/cluster/wire.rs`, then checks:
//!
//! * tag uniqueness within each family;
//! * presence and value agreement against `PROTOCOL.md`'s tag tables,
//!   in both directions (a stale doc row is as much a finding as a
//!   missing one);
//! * the PROTOCOL.md version lines agree with the constants, and the
//!   version-history table has a row for the current `WIRE_VERSION`;
//! * byte-for-byte agreement with the committed `lint/wire.lock`
//!   snapshot, so a tag/encoding change without a `--bless` (and the
//!   version bump the bless procedure demands) is a hard failure.

use std::collections::BTreeMap;
use std::path::Path;

use super::lockfile;
use super::rust_src;
use crate::lexer::Masked;
use crate::{read_masked, Finding};

const PASS: &str = "P1/wire-drift";
pub(crate) const WIRE_RS: &str = "crates/core/src/cluster/wire.rs";
const PROTOCOL_MD: &str = "PROTOCOL.md";
pub(crate) const LOCK: &str = "lint/wire.lock";

/// Tag families: the `wire_enum!` enum, lockfile prefix, entry prefix,
/// and whether PROTOCOL.md documents the family as `| 0xNN | Name |`
/// table rows. An entry is named `<PREFIX>_<SCREAMING_SNAKE(variant)>`.
const FAMILIES: &[(&str, &str, &str, bool)] = &[
    ("Request", "req", "REQ", true),
    ("WireError", "err", "ERR", true),
    ("Reply", "rep", "REP", true),
    ("WireOp", "op", "OP", true),
    ("BatchOutcome", "outcome", "OUTCOME", true),
    ("DiffSummary", "diff", "DIFF", true),
    // Spec discriminants are documented prose-style in the type table,
    // not as a tag table, so they are locked but not row-checked.
    ("VersionSpec", "spec", "SPEC", false),
];

const LOCK_HEADER: &str = "forkbase-lint P1: frozen wire surface (tags, versions, frame cap).\n\
Regenerate ONLY with `cargo run -p forkbase-lint -- --bless`, in its own\n\
commit, together with a WIRE_VERSION bump and a PROTOCOL.md version-history\n\
row (see PROTOCOL.md \u{a7} Compatibility and README \u{a7} Static analysis).";

const UNLOCK_HINT: &str = "a wire-surface change requires a WIRE_VERSION bump, a PROTOCOL.md \
history row, and a `--bless`ed lint/wire.lock in its own commit";

/// Run the pass. `bless` rewrites the lockfile instead of diffing it.
pub fn run(root: &Path, bless: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(wire) = read_masked(root, WIRE_RS, PASS, &mut findings) else {
        return findings;
    };
    let Some(proto) = std::fs::read_to_string(root.join(PROTOCOL_MD)).ok() else {
        findings.push(Finding::new(
            PROTOCOL_MD,
            0,
            PASS,
            "cannot read PROTOCOL.md",
        ));
        return findings;
    };

    let consts = rust_src::consts(&wire);
    let mut lock: BTreeMap<String, String> = BTreeMap::new();

    // Versions and the frame cap.
    let mut wire_version: Option<u8> = None;
    let mut min_version: Option<u8> = None;
    for want in ["WIRE_VERSION", "MIN_WIRE_VERSION", "MAX_FRAME_LEN"] {
        match consts.iter().find(|c| c.name == want) {
            Some(c) => {
                lock.insert(format!("version {want}"), c.value.clone());
                if want != "MAX_FRAME_LEN" {
                    match rust_src::parse_u8(&c.value) {
                        Some(v) if want == "WIRE_VERSION" => wire_version = Some(v),
                        Some(v) => min_version = Some(v),
                        None => findings.push(Finding::new(
                            WIRE_RS,
                            c.line,
                            PASS,
                            format!("`{want}` must be a literal u8, found `{}`", c.value),
                        )),
                    }
                }
            }
            None => findings.push(Finding::new(
                WIRE_RS,
                0,
                PASS,
                format!("`{want}` constant not found (renamed? update crates/lint)"),
            )),
        }
    }

    // Tag families: collect, check uniqueness, build the lock image and
    // the set of (tag, name) pairs the docs must agree with.
    let rows = wire_rows(&wire);
    let mut documented_pairs: Vec<(u8, String, usize)> = Vec::new();
    for (family, lock_prefix, entry_prefix, in_docs) in FAMILIES {
        let mut seen: BTreeMap<u8, &str> = BTreeMap::new();
        for row in rows.iter().filter(|r| r.family == *family) {
            let Some(tag) = rust_src::parse_u8(&row.tag) else {
                findings.push(Finding::new(
                    WIRE_RS,
                    row.line,
                    PASS,
                    format!(
                        "tag `{}` of `{family}::{}` is not a u8 literal",
                        row.tag, row.variant
                    ),
                ));
                continue;
            };
            if let Some(other) = seen.get(&tag) {
                findings.push(Finding::new(
                    WIRE_RS,
                    row.line,
                    PASS,
                    format!(
                        "duplicate tag {tag:#04x} in `{family}`: `{}` collides with `{other}`",
                        row.variant
                    ),
                ));
            } else {
                seen.insert(tag, &row.variant);
            }
            let entry = format!("{entry_prefix}_{}", screaming_snake(&row.variant));
            lock.insert(format!("{lock_prefix} {entry}"), format!("{tag:#04x}"));
            if *in_docs {
                documented_pairs.push((tag, row.variant.clone(), row.line));
            }
        }
        if seen.is_empty() {
            findings.push(Finding::new(
                WIRE_RS,
                0,
                PASS,
                format!("no `wire_enum!` rows for `{family}` found (renamed? update crates/lint)"),
            ));
        }
    }

    // PROTOCOL.md tag-table rows: `| 0xNN | Name | ... |`.
    let doc_rows = protocol_tag_rows(&proto);
    for (tag, name, line) in &documented_pairs {
        if !doc_rows.iter().any(|(t, n, _)| t == tag && n == name) {
            findings.push(Finding::new(
                WIRE_RS,
                *line,
                PASS,
                format!("tag {tag:#04x} `{name}` has no matching `| {tag:#04x} | {name} |` row in PROTOCOL.md"),
            ));
        }
    }
    for (tag, name, doc_line) in &doc_rows {
        if !documented_pairs
            .iter()
            .any(|(t, n, _)| t == tag && n == name)
        {
            findings.push(Finding::new(
                PROTOCOL_MD,
                *doc_line,
                PASS,
                format!("documented tag {tag:#04x} `{name}` has no matching `wire_enum!` row in {WIRE_RS} (stale row?)"),
            ));
        }
    }

    // Version lines: the frame-layout spec must name the current version
    // and accept range, and the history table must have a row for it.
    if let (Some(v), Some(min)) = (wire_version, min_version) {
        let accept = format!("0x{min:02x}..=0x{v:02x}");
        if !proto
            .lines()
            .any(|l| l.contains("WIRE_VERSION") && l.contains(&format!("0x{v:02x}")))
        {
            findings.push(Finding::new(
                PROTOCOL_MD,
                0,
                PASS,
                format!("no frame-spec line states version 0x{v:02x} (WIRE_VERSION)"),
            ));
        }
        if !proto.contains(&accept) {
            findings.push(Finding::new(
                PROTOCOL_MD,
                0,
                PASS,
                format!("accepted-version range `{accept}` not documented"),
            ));
        }
        let has_history_row = proto.lines().any(|l| {
            let mut cells = l.split('|').map(str::trim);
            cells.next() == Some("") && cells.next() == Some(&v.to_string())
        });
        if !has_history_row {
            findings.push(Finding::new(
                PROTOCOL_MD,
                0,
                PASS,
                format!("version-history table has no row for wire version {v}"),
            ));
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
    // The sharper message when the surface moved but the version did not:
    // compare the blessed/committed WIRE_VERSION against the live one.
    if !bless {
        if let (Some(live), Ok(text)) = (wire_version, std::fs::read_to_string(root.join(LOCK))) {
            let committed = lockfile::parse(&text);
            let lock_version = committed
                .get("version WIRE_VERSION")
                .and_then(|v| rust_src::parse_u8(v));
            let surface_drifted = findings.iter().any(|f| f.file == LOCK);
            if surface_drifted && lock_version == Some(live) {
                findings.push(Finding::new(
                    WIRE_RS,
                    0,
                    PASS,
                    "wire surface changed WITHOUT a WIRE_VERSION bump — re-tagging silently is a \
                     format break (PROTOCOL.md \u{a7} Compatibility)",
                ));
            }
        }
    }
    findings
}

/// One `TAG => Variant` row of a `wire_enum!` block.
struct Row {
    /// The enum the block declares or implements.
    family: String,
    /// The tag literal as written.
    tag: String,
    variant: String,
    line: usize,
}

/// Every row of every `wire_enum!` invocation: the enum named after the
/// block's `enum` or `impl`, and each `TAG => Variant` at the depth of
/// the rows' braces. The macro's own recursive call names `$name`, not
/// an enum, and is skipped.
fn wire_rows(m: &Masked) -> Vec<Row> {
    let code = &m.code;
    // The identifier starting at the first non-blank byte from `at`.
    let word = |at: usize| {
        let start = code.len() - code[at..].trim_start().len();
        let len = code[start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(code.len() - start);
        (start, start + len)
    };
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = rust_src::find_word(code, "wire_enum", from) {
        from = pos + "wire_enum".len();
        let Some(open) = code[from..].find('{').map(|p| from + p) else {
            break;
        };
        let keyword = ["enum", "impl"]
            .iter()
            .filter_map(|w| rust_src::find_word(code, w, open).map(|p| p + w.len()))
            .min();
        let (name_start, name_end) = word(keyword.unwrap_or(open));
        let body = code[name_end..]
            .find('{')
            .map_or(code.len(), |p| name_end + p + 1);
        if !code[from..].trim_start().starts_with('!') || name_start == name_end {
            continue; // the `macro_rules!` definition or its recursive call
        }
        let mut depth = 0i32;
        let mut i = body;
        while i < code.len() && depth >= 0 {
            match code.as_bytes()[i] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => depth -= 1,
                b'=' if depth == 0 && code[i..].starts_with("=>") => {
                    let before = code[..i].trim_end();
                    let tag_start = before
                        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .map_or(0, |p| p + 1);
                    let (variant_start, variant_end) = word(i + 2);
                    out.push(Row {
                        family: code[name_start..name_end].to_string(),
                        tag: before[tag_start..].to_string(),
                        variant: code[variant_start..variant_end].to_string(),
                        line: m.line_of(tag_start),
                    });
                }
                _ => {}
            }
            i += 1;
        }
        from = i;
    }
    out
}

/// `GetAt` → `GET_AT`.
fn screaming_snake(pascal: &str) -> String {
    let mut out = String::new();
    for (i, c) in pascal.chars().enumerate() {
        if i > 0 && c.is_ascii_uppercase() {
            out.push('_');
        }
        out.push(c.to_ascii_uppercase());
    }
    out
}

/// Extract `(tag, name, line)` from every markdown table row whose first
/// cell is a `0xNN` byte and second cell a bare identifier.
fn protocol_tag_rows(proto: &str) -> Vec<(u8, String, usize)> {
    let mut out = Vec::new();
    for (idx, line) in proto.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 {
            continue;
        }
        let Some(hex) = cells[0].strip_prefix("0x") else {
            continue;
        };
        let Ok(tag) = u8::from_str_radix(hex, 16) else {
            continue;
        };
        let name = cells[1];
        if !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && name.chars().all(|c| c.is_ascii_alphanumeric())
        {
            out.push((tag, name.to_string(), idx + 1));
        }
    }
    out
}
