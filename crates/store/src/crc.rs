//! CRC-32 (IEEE 802.3 polynomial) for segment-file frame integrity.
//!
//! Distinct from the SHA-256 content address: the CRC guards against torn
//! writes and media bit-rot at the *framing* level, so recovery can skip a
//! damaged tail and `FileStore::get` can refuse a damaged frame, while the
//! SHA-256 address, checked by the reader that asked for it, guards
//! end-to-end integrity.
//!
//! The CRC runs on every frame read and written, so it must cost far less
//! than the SHA-256 it sits beside. [`Crc32::update`] is slicing-by-8: eight
//! tables, built at compile time, fold eight input bytes per step. It
//! computes the same values as the classic byte-at-a-time table loop,
//! which the tests keep as their oracle.

/// Reflected polynomial for CRC-32/ISO-HDLC (the zlib/PNG/Ethernet CRC).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table. `TABLES[k][b]` is the CRC
/// state after feeding byte `b` followed by `k` zero bytes, so eight
/// lookups, one per byte of a word, advance the state by eight bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

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
        let t = &TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
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
    use proptest::prelude::*;

    /// The byte-at-a-time table loop: the oracle slicing-by-8 must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    /// Deterministic filler bytes (xorshift), so the sweeps repeat exactly.
    fn filler(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491u32;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn matches_bytewise_at_every_length() {
        let data = filler(4100);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), crc32_bytewise(&data[..len]), "{len}");
        }
        // Unaligned starts, too: the word loop must not assume alignment.
        for start in 1..8 {
            let d = &data[start..];
            assert_eq!(crc32(d), crc32_bytewise(d), "start {start}");
        }
    }

    #[test]
    fn matches_bytewise_at_every_update_split() {
        let data = filler(4100);
        for len in (0..=64).chain([4095, 4096, 4100]) {
            let d = &data[..len];
            let want = crc32_bytewise(d);
            for at in 0..=len {
                let (a, b) = d.split_at(at);
                assert_eq!(
                    Crc32::new().update(a).update(b).finish(),
                    want,
                    "{len}/{at}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn slicing_by_8_matches_bytewise(
            data in proptest::collection::vec(proptest::num::u8::ANY, 0..=4100),
            cuts in proptest::collection::vec(proptest::num::u64::ANY, 0..4),
        ) {
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
            at.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &to in &at {
                crc = crc.update(&data[from..to]);
                from = to;
            }
            crc = crc.update(&data[from..]);
            prop_assert_eq!(crc.finish(), crc32_bytewise(&data));
        }
    }

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
