//! Shared helpers for pulling declarations out of a masked source view.

use crate::lexer::Masked;

/// A `const NAME: TYPE = VALUE;` extracted from a source file.
pub struct ConstDecl {
    pub name: String,
    /// Right-hand side, whitespace-normalized, read from the *raw*
    /// source so string/byte literals keep their contents.
    pub value: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// Every `const` item in the file (masked scan, raw values).
pub fn consts(m: &Masked) -> Vec<ConstDecl> {
    let code = m.code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(pos) = find_word(&m.code, "const", i) {
        i = pos + 5;
        let mut j = i;
        while j < code.len() && code[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < code.len() && (code[j].is_ascii_alphanumeric() || code[j] == b'_') {
            j += 1;
        }
        let name = m.code[name_start..j].to_string();
        if name.is_empty() || name == "fn" {
            continue; // `const fn`
        }
        // Expect `: TYPE = VALUE;` — scan (in masked text) to `=` then `;`.
        while j < code.len() && code[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= code.len() || code[j] != b':' {
            continue; // not a const item (e.g. `const` in a path)
        }
        let Some(eq) = m.code[j..].find('=').map(|p| p + j) else {
            continue;
        };
        // Find the terminating `;` at bracket depth 0 in the masked view.
        let mut depth = 0i32;
        let mut end = None;
        for (off, b) in code[eq + 1..].iter().enumerate() {
            match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth == 0 => {
                    end = Some(eq + 1 + off);
                    break;
                }
                _ => {}
            }
        }
        let Some(end) = end else { continue };
        out.push(ConstDecl {
            name,
            value: normalize_ws(&m.raw[eq + 1..end]),
            line: m.line_of(name_start),
        });
        i = end;
    }
    out
}

/// Find `word` at `from` or later, requiring identifier boundaries on
/// both sides.
pub fn find_word(code: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut i = from;
    while let Some(p) = code.get(i..)?.find(word) {
        let pos = i + p;
        let left_ok =
            pos == 0 || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_');
        let after = pos + word.len();
        let right_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if left_ok && right_ok {
            return Some(pos);
        }
        i = pos + word.len();
    }
    None
}

/// Collapse whitespace runs to single spaces and trim.
pub fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Parse a `u8` tag literal like `0x2A` or `42` (underscores allowed).
pub fn parse_u8(value: &str) -> Option<u8> {
    let v = value.replace('_', "");
    if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        v.parse().ok()
    }
}
