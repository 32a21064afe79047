//! Canonical binary encoding primitives.
//!
//! Every byte written here feeds SHA-256 content addressing, so encodings
//! must be total, unambiguous and byte-stable forever. Integers are
//! little-endian fixed width; byte strings are length-prefixed. No varints:
//! a varint saves a few bytes but creates two encodings of small numbers in
//! careless hands, and content addressing cannot afford ambiguity.

/// Append a `u32` (LE).
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (LE).
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string (`u32` length + bytes).
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Sequential reader over a byte slice with explicit error reporting.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// What was being decoded.
    pub what: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decode error at byte {}: truncated {}",
            self.at, self.what
        )
    }
}

impl std::error::Error for DecodeError {}

impl<'a> Reader<'a> {
    /// Start reading at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError { at: self.pos, what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a `u32` (LE).
    pub fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Read a `u64` (LE).
    pub fn u64(&mut self, what: &'static str) -> Result<u64, DecodeError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Read `n` raw bytes.
    pub fn raw(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], DecodeError> {
        self.take(n, what)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &'static str) -> Result<&'a [u8], DecodeError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ints_and_bytes() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, 0x0123_4567_89ab_cdef);
        put_bytes(&mut out, b"payload");
        out.push(0x7f);

        let mut r = Reader::new(&out);
        assert_eq!(r.u32("a").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("b").unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.bytes("c").unwrap(), b"payload");
        assert_eq!(r.u8("d").unwrap(), 0x7f);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        let mut r = Reader::new(&out[..6]); // length says 5 but only 2 present
        let err = r.bytes("field").unwrap_err();
        assert_eq!(err.what, "field");
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn empty_byte_string() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"");
        let mut r = Reader::new(&out);
        assert_eq!(r.bytes("e").unwrap(), b"");
        assert!(r.is_empty());
    }

    #[test]
    fn position_tracking() {
        let data = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&data);
        assert_eq!(r.pos(), 0);
        r.u8("x").unwrap();
        assert_eq!(r.pos(), 1);
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.raw(4, "rest").unwrap(), &[2, 3, 4, 5]);
        assert!(r.u8("past end").is_err());
    }
}
