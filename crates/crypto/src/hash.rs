//! The 32-byte content address used throughout ForkBase.
//!
//! Every immutable chunk (POS-Tree node, blob chunk, FNode) is identified by
//! the SHA-256 digest of its canonical encoding. Version identifiers shown to
//! users are the Base32 rendering of the same digest (paper §III-C).

use std::fmt;

use crate::base32;
use crate::hex;

/// Number of bytes in a [`struct@Hash`].
pub const HASH_LEN: usize = 32;

/// A 32-byte SHA-256 content address.
///
/// `Hash` is `Copy` and orders lexicographically, which lets stores keep
/// chunks in ordered maps and lets tests make deterministic assertions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash([u8; HASH_LEN]);

impl Hash {
    /// The all-zero hash, used as a sentinel for "no value" in a few
    /// persistent structures (never a valid SHA-256 output in practice).
    pub const ZERO: Hash = Hash([0u8; HASH_LEN]);

    /// Wrap raw digest bytes.
    pub const fn from_bytes(bytes: [u8; HASH_LEN]) -> Self {
        Hash(bytes)
    }

    /// Borrow the digest bytes.
    pub fn as_bytes(&self) -> &[u8; HASH_LEN] {
        &self.0
    }

    /// Parse from a byte slice; fails unless it is exactly 32 bytes.
    pub fn from_slice(slice: &[u8]) -> Option<Self> {
        if slice.len() != HASH_LEN {
            return None;
        }
        let mut b = [0u8; HASH_LEN];
        b.copy_from_slice(slice);
        Some(Hash(b))
    }

    /// True if this is the [`Hash::ZERO`] sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; HASH_LEN]
    }

    /// Lowercase hex rendering (64 chars).
    pub fn to_hex(&self) -> String {
        hex::hex_encode(&self.0)
    }

    /// Parse a 64-char hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = hex::hex_decode(s)?;
        Self::from_slice(&bytes)
    }

    /// RFC 4648 Base32 rendering — the user-facing version id format
    /// shown in the paper's Fig. 6 (52 chars + padding trimmed).
    pub fn to_base32(&self) -> String {
        base32::base32_encode(&self.0)
    }

    /// Parse a Base32 version id produced by [`Hash::to_base32`].
    pub fn from_base32(s: &str) -> Option<Self> {
        let bytes = base32::base32_decode(s)?;
        Self::from_slice(&bytes)
    }

    /// Short prefix (first 8 hex chars) for logs and UI listings.
    pub fn short(&self) -> String {
        hex::hex_encode(&self.0[..4])
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({})", self.short())
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_base32())
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; HASH_LEN]> for Hash {
    fn from(b: [u8; HASH_LEN]) -> Self {
        Hash(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;

    #[test]
    fn zero_sentinel() {
        assert!(Hash::ZERO.is_zero());
        assert!(!sha256(b"x").is_zero());
    }

    #[test]
    fn slice_roundtrip() {
        let h = sha256(b"roundtrip");
        assert_eq!(Hash::from_slice(h.as_bytes()), Some(h));
        assert_eq!(Hash::from_slice(&h.as_bytes()[..31]), None);
        assert_eq!(Hash::from_slice(&[0u8; 33]), None);
    }

    #[test]
    fn hex_roundtrip() {
        let h = sha256(b"hex");
        assert_eq!(Hash::from_hex(&h.to_hex()), Some(h));
        assert_eq!(h.to_hex().len(), 64);
        assert_eq!(Hash::from_hex("zz"), None);
    }

    #[test]
    fn base32_roundtrip() {
        let h = sha256(b"base32");
        let s = h.to_base32();
        assert_eq!(Hash::from_base32(&s), Some(h));
        // 32 bytes -> ceil(32*8/5) = 52 base32 chars (unpadded; the encoder
        // emits padding to a multiple of 8, i.e. 56 chars total).
        assert!(s.len() == 52 || s.len() == 56, "len = {}", s.len());
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Hash::from_bytes([0u8; 32]);
        let mut b2 = [0u8; 32];
        b2[31] = 1;
        let b = Hash::from_bytes(b2);
        assert!(a < b);
    }

    #[test]
    fn display_and_debug() {
        let h = sha256(b"fmt");
        assert_eq!(format!("{h}"), h.to_base32());
        assert!(format!("{h:?}").starts_with("Hash("));
        assert_eq!(h.short().len(), 8);
    }
}
