//! The `Value` enum and its canonical byte encoding.

use forkbase_postree::{BlobRef, TreeRef};

/// Type of a [`Value`], used by the `Meta` verb and schema checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Boolean primitive.
    Bool,
    /// Signed 64-bit integer primitive.
    Int,
    /// IEEE-754 double primitive.
    Float,
    /// UTF-8 string primitive.
    Str,
    /// Byte string (possibly large, chunked).
    Blob,
    /// Positional list of byte elements.
    List,
    /// Ordered key→value map.
    Map,
    /// Ordered set of byte keys.
    Set,
}

impl ValueType {
    /// Stable one-byte tag used in the canonical encoding.
    pub fn tag(self) -> u8 {
        match self {
            ValueType::Bool => 0x01,
            ValueType::Int => 0x02,
            ValueType::Float => 0x03,
            ValueType::Str => 0x04,
            ValueType::Blob => 0x10,
            ValueType::List => 0x11,
            ValueType::Map => 0x12,
            ValueType::Set => 0x13,
        }
    }

    /// Inverse of [`ValueType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0x01 => ValueType::Bool,
            0x02 => ValueType::Int,
            0x03 => ValueType::Float,
            0x04 => ValueType::Str,
            0x10 => ValueType::Blob,
            0x11 => ValueType::List,
            0x12 => ValueType::Map,
            0x13 => ValueType::Set,
            _ => return None,
        })
    }

    /// Human-readable name (CLI / REST output).
    pub fn name(self) -> &'static str {
        match self {
            ValueType::Bool => "bool",
            ValueType::Int => "int",
            ValueType::Float => "float",
            ValueType::Str => "string",
            ValueType::Blob => "blob",
            ValueType::List => "list",
            ValueType::Map => "map",
            ValueType::Set => "set",
        }
    }
}

impl std::fmt::Display for ValueType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed ForkBase value.
///
/// Collection variants store *references*; the data lives in the chunk
/// store as POS-Trees. Equality is value equality: thanks to structural
/// invariance, two collections are equal iff their references are.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// IEEE-754 double. Encoded by raw bits; NaNs are canonicalized to the
    /// quiet NaN bit pattern so equal-looking values encode identically.
    Float(f64),
    /// UTF-8 string (stored inline; use `Blob` for large payloads).
    Str(String),
    /// Chunked byte string.
    Blob(BlobRef),
    /// Positional list.
    List(TreeRef),
    /// Ordered map.
    Map(TreeRef),
    /// Ordered set.
    Set(TreeRef),
}

/// Error decoding a value from canonical bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueDecodeError(pub String);

impl std::fmt::Display for ValueDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "value decode error: {}", self.0)
    }
}

impl std::error::Error for ValueDecodeError {}

const QNAN_BITS: u64 = 0x7ff8_0000_0000_0000;

impl Value {
    /// This value's type.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::Blob(_) => ValueType::Blob,
            Value::List(_) => ValueType::List,
            Value::Map(_) => ValueType::Map,
            Value::Set(_) => ValueType::Set,
        }
    }

    /// Canonical encoding: `tag | payload`. Deterministic and total; feeds
    /// the FNode hash.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(self.value_type().tag());
        match self {
            Value::Bool(b) => out.push(u8::from(*b)),
            Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
            Value::Float(f) => {
                let bits = if f.is_nan() { QNAN_BITS } else { f.to_bits() };
                out.extend_from_slice(&bits.to_le_bytes());
            }
            Value::Str(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Blob(r) => {
                out.extend_from_slice(r.root.as_bytes());
                out.extend_from_slice(&r.len.to_le_bytes());
                out.push(r.depth);
            }
            Value::List(t) | Value::Map(t) | Value::Set(t) => {
                out.extend_from_slice(t.root.as_bytes());
                out.extend_from_slice(&t.count.to_le_bytes());
            }
        }
        out
    }

    /// Decode the canonical encoding.
    pub fn decode(bytes: &[u8]) -> Result<Value, ValueDecodeError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| ValueDecodeError("empty input".into()))?;
        let vt = ValueType::from_tag(tag)
            .ok_or_else(|| ValueDecodeError(format!("unknown tag 0x{tag:02x}")))?;
        let take = |n: usize| -> Result<&[u8], ValueDecodeError> {
            rest.get(..n)
                .ok_or_else(|| ValueDecodeError(format!("truncated {vt} payload")))
        };
        let exact = |n: usize| -> Result<&[u8], ValueDecodeError> {
            if rest.len() != n {
                return Err(ValueDecodeError(format!(
                    "{vt} payload length {} != {n}",
                    rest.len()
                )));
            }
            Ok(rest)
        };
        Ok(match vt {
            ValueType::Bool => {
                let b = exact(1)?[0];
                if b > 1 {
                    return Err(ValueDecodeError(format!("bad bool byte {b}")));
                }
                Value::Bool(b == 1)
            }
            ValueType::Int => {
                Value::Int(i64::from_le_bytes(exact(8)?.try_into().expect("8 bytes")))
            }
            ValueType::Float => Value::Float(f64::from_bits(u64::from_le_bytes(
                exact(8)?.try_into().expect("8 bytes"),
            ))),
            ValueType::Str => {
                let len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
                let body = rest
                    .get(4..4 + len)
                    .ok_or_else(|| ValueDecodeError("truncated string".into()))?;
                if rest.len() != 4 + len {
                    return Err(ValueDecodeError("trailing bytes after string".into()));
                }
                Value::Str(
                    String::from_utf8(body.to_vec())
                        .map_err(|e| ValueDecodeError(format!("invalid UTF-8: {e}")))?,
                )
            }
            ValueType::Blob => {
                let body = exact(32 + 8 + 1)?;
                Value::Blob(BlobRef {
                    root: forkbase_crypto::Hash::from_slice(&body[..32]).expect("32 bytes"),
                    len: u64::from_le_bytes(body[32..40].try_into().expect("8 bytes")),
                    depth: body[40],
                })
            }
            ValueType::List | ValueType::Map | ValueType::Set => {
                let body = exact(32 + 8)?;
                let t = TreeRef::new(
                    forkbase_crypto::Hash::from_slice(&body[..32]).expect("32 bytes"),
                    u64::from_le_bytes(body[32..40].try_into().expect("8 bytes")),
                );
                match vt {
                    ValueType::List => Value::List(t),
                    ValueType::Map => Value::Map(t),
                    _ => Value::Set(t),
                }
            }
        })
    }

    /// Short human-readable rendering for CLI output. Collections show
    /// their root id prefix and size rather than content.
    pub fn summary(&self) -> String {
        match self {
            Value::Bool(b) => format!("{b}"),
            Value::Int(i) => format!("{i}"),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => {
                if s.len() <= 64 {
                    format!("{s:?}")
                } else {
                    // Cut on a char boundary: byte 61 may fall inside a
                    // multi-byte code point.
                    let cut = s
                        .char_indices()
                        .map(|(i, _)| i)
                        .take_while(|&i| i <= 61)
                        .last()
                        .unwrap_or(0);
                    format!("{:?}… ({} bytes)", &s[..cut], s.len())
                }
            }
            Value::Blob(r) => format!("blob<{} bytes, root {}>", r.len, r.root.short()),
            Value::List(t) => format!("list<{} items, root {}>", t.count, t.root.short()),
            Value::Map(t) => format!("map<{} entries, root {}>", t.count, t.root.short()),
            Value::Set(t) => format!("set<{} members, root {}>", t.count, t.root.short()),
        }
    }

    /// Convenience constructor: inline string.
    pub fn string(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The raw bytes if this is a `Str` (CLI convenience).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The tree reference if this is a collection.
    pub fn tree_ref(&self) -> Option<TreeRef> {
        match self {
            Value::List(t) | Value::Map(t) | Value::Set(t) => Some(*t),
            _ => None,
        }
    }

    /// The blob reference if this is a blob.
    pub fn blob_ref(&self) -> Option<BlobRef> {
        match self {
            Value::Blob(r) => Some(*r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::sha256;

    fn roundtrip(v: Value) {
        let enc = v.encode();
        let dec = Value::decode(&enc).unwrap();
        assert_eq!(dec, v);
        assert_eq!(dec.encode(), enc, "re-encoding must be stable");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(Value::Bool(true));
        roundtrip(Value::Bool(false));
        roundtrip(Value::Int(0));
        roundtrip(Value::Int(i64::MIN));
        roundtrip(Value::Int(i64::MAX));
        roundtrip(Value::Float(0.0));
        roundtrip(Value::Float(-1234.5678));
        roundtrip(Value::Float(f64::INFINITY));
        roundtrip(Value::Str(String::new()));
        roundtrip(Value::string("hello world"));
        roundtrip(Value::string("unicode: 日本語 ✓"));
    }

    #[test]
    fn nan_is_canonicalized() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(-f64::NAN);
        assert_eq!(a.encode(), b.encode());
        // Decoded NaN re-encodes identically.
        let dec = Value::decode(&a.encode()).unwrap();
        assert_eq!(dec.encode(), a.encode());
    }

    #[test]
    fn references_roundtrip() {
        roundtrip(Value::Blob(forkbase_postree::BlobRef {
            root: sha256(b"blob"),
            len: 12345,
            depth: 3,
        }));
        roundtrip(Value::List(TreeRef::new(sha256(b"list"), 42)));
        roundtrip(Value::Map(TreeRef::new(sha256(b"map"), 7)));
        roundtrip(Value::Set(TreeRef::new(sha256(b"set"), 0)));
    }

    #[test]
    fn type_tags_are_stable() {
        // These are on-disk format constants. Changing them breaks every
        // existing store — the test exists to make that loud.
        assert_eq!(ValueType::Bool.tag(), 0x01);
        assert_eq!(ValueType::Int.tag(), 0x02);
        assert_eq!(ValueType::Float.tag(), 0x03);
        assert_eq!(ValueType::Str.tag(), 0x04);
        assert_eq!(ValueType::Blob.tag(), 0x10);
        assert_eq!(ValueType::List.tag(), 0x11);
        assert_eq!(ValueType::Map.tag(), 0x12);
        assert_eq!(ValueType::Set.tag(), 0x13);
        for vt in [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Float,
            ValueType::Str,
            ValueType::Blob,
            ValueType::List,
            ValueType::Map,
            ValueType::Set,
        ] {
            assert_eq!(ValueType::from_tag(vt.tag()), Some(vt));
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(Value::decode(&[]).is_err());
        assert!(Value::decode(&[0xEE]).is_err(), "unknown tag");
        assert!(Value::decode(&[0x01, 2]).is_err(), "bad bool");
        assert!(Value::decode(&[0x02, 1, 2]).is_err(), "short int");
        let mut s = Value::string("abc").encode();
        s.push(0);
        assert!(Value::decode(&s).is_err(), "trailing bytes");
        let bad_utf8 = [0x04, 2, 0, 0, 0, 0xff, 0xfe];
        assert!(Value::decode(&bad_utf8).is_err(), "invalid utf8");
    }

    #[test]
    fn distinct_values_encode_distinctly() {
        let values = [
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::Str(String::new()),
            Value::Int(1),
            Value::Bool(true),
        ];
        let encodings: Vec<Vec<u8>> = values.iter().map(Value::encode).collect();
        for i in 0..encodings.len() {
            for j in i + 1..encodings.len() {
                assert_ne!(encodings[i], encodings[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn summary_is_compact() {
        assert_eq!(Value::Int(5).summary(), "5");
        assert!(Value::string("x".repeat(200))
            .summary()
            .contains("200 bytes"));
        let blob = Value::Blob(forkbase_postree::BlobRef {
            root: sha256(b"b"),
            len: 10,
            depth: 0,
        });
        assert!(blob.summary().starts_with("blob<10 bytes"));
    }

    #[test]
    fn value_type_display() {
        assert_eq!(ValueType::Map.to_string(), "map");
        assert_eq!(ValueType::Blob.to_string(), "blob");
    }
}
