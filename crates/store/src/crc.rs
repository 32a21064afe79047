//! CRC-32 (IEEE 802.3 polynomial) for segment-file frame integrity.
//!
//! Distinct from the SHA-256 content address: the CRC guards against torn
//! writes and media bit-rot at the *framing* level so recovery can skip a
//! damaged tail, while the SHA-256 address guards end-to-end integrity.

/// Reflected polynomial for CRC-32/ISO-HDLC (the zlib/PNG/Ethernet CRC).
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// Incremental CRC-32: the CRC of several slices, as if concatenated,
/// without copying them together.
///
/// ```
/// use forkbase_store::crc::{crc32, Crc32};
/// assert_eq!(Crc32::new().update(b"1234").update(b"56789").finish(), crc32(b"123456789"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any byte.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Feed the next `data` bytes.
    #[must_use = "returns the advanced state"]
    pub fn update(self, data: &[u8]) -> Self {
        let mut crc = self.0;
        for &b in data {
            let idx = ((crc ^ b as u32) & 0xff) as usize;
            crc = (crc >> 8) ^ TABLE[idx];
        }
        Crc32(crc)
    }

    /// The CRC-32 of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // Canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot_at_every_split() {
        let data = b"The quick brown fox jumps over the lazy dog";
        for at in 0..=data.len() {
            let (a, b) = data.split_at(at);
            assert_eq!(Crc32::new().update(a).update(b).finish(), crc32(data));
        }
        assert_eq!(Crc32::new().finish(), crc32(b""));
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = vec![0x37u8; 1024];
        let base = crc32(&data);
        for byte in [0usize, 511, 1023] {
            for bit in 0..8 {
                let mut copy = data.clone();
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), base, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
