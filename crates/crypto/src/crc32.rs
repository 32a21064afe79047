//! CRC-32 (IEEE 802.3 polynomial) for frame integrity.
//!
//! Distinct from the SHA-256 content address: the CRC guards against torn
//! writes and media bit-rot at the *framing* level — pack-file frames, the
//! store's MANIFEST and TOMBSTONES files, and the TCP wire's frames — so
//! recovery can skip a damaged tail and a store read can refuse a damaged
//! frame, while the SHA-256 address, checked by the reader that asked for
//! it, guards end-to-end integrity.
//!
//! The CRC runs on every frame read and written, so it must cost far less
//! than the SHA-256 it sits beside. [`Crc32::update`] has two backends that
//! compute the same values:
//!
//! * On x86_64 CPUs that report `pclmulqdq` and SSE4.1, an input of 64
//!   bytes or more goes to a kernel that folds with carry-less multiply:
//!   four 128-bit lanes fold 64 input bytes per step, the lanes fold into
//!   one, the remaining 16-byte blocks fold into that, and a Barrett
//!   reduction brings the remainder down to 32 bits. This is the method of
//!   Gopal et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ Instruction" (Intel, 2009), with the reflected CRC-32
//!   constants zlib's `crc32_simd` and crc32fast use.
//! * Everything else — the kernel's tail under 16 bytes, every shorter
//!   input, every other CPU — runs slicing-by-8: eight tables, built at
//!   compile time, fold eight input bytes per step.
//!
//! The tests run both backends against the classic byte-at-a-time table
//! loop, which they keep as the oracle, on every length, split and
//! alignment, so a CRC written on one CPU checks on any other.
//!
//! The call into the kernel is one `unsafe` expression, as for SHA-256: a
//! `#[target_feature]` function may only be called once the CPU is known
//! to have those features, and a `Clmul` token exists only after runtime
//! detection has said so.

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

/// The shortest input the folding kernel takes: one 16-byte block per lane.
const FOLD_MIN: usize = 64;

/// Incremental CRC-32: the CRC of several slices, as if concatenated,
/// without copying them together.
///
/// ```
/// use forkbase_crypto::crc32::{crc32, Crc32};
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

    /// Feed the next `data` bytes, on the fastest backend this CPU runs.
    #[must_use = "returns the advanced state"]
    pub fn update(self, data: &[u8]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= FOLD_MIN {
            if let Some(clmul) = clmul::Clmul::detect() {
                return Crc32(clmul.update(self.0, data));
            }
        }
        Crc32(update_slicing_by_8(self.0, data))
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

/// The portable backend: advance the CRC register `crc` over `data`.
fn update_slicing_by_8(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
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
    crc
}

/// The carry-less multiply backend.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    use super::update_slicing_by_8;

    // Folding constants for the reflected polynomial: each is x^n mod P(x),
    // bit-reflected and shifted left by one, for the distance it folds.
    /// x^(4·128+32) and x^(4·128−32): fold a lane across the next 64 bytes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128−32): fold across the next 16 bytes.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// x^64: fold the low 32 bits of the 96-bit remainder onto the rest.
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) itself and μ = ⌊x^64 / P(x)⌋, reflected, for the Barrett step.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Proof that this CPU runs the kernel: only [`Clmul::detect`] makes one.
    #[derive(Clone, Copy)]
    pub(super) struct Clmul(());

    impl Clmul {
        /// `Some` when the CPU reports every feature the kernel is built for
        /// (SSE2 is part of x86_64 itself).
        pub(super) fn detect() -> Option<Clmul> {
            let found = is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1");
            found.then_some(Clmul(()))
        }

        /// Advance the CRC register `crc` over `data`: the kernel folds its
        /// whole 16-byte blocks, slicing-by-8 the tail. Inputs too short to
        /// fill the four lanes go to slicing-by-8 whole.
        pub(super) fn update(self, crc: u32, data: &[u8]) -> u32 {
            let (blocks, tail) = data.as_chunks::<16>();
            let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
                return update_slicing_by_8(crc, data);
            };
            // SAFETY: `kernel` is compiled for pclmulqdq, sse2 and sse4.1,
            // and a `Clmul` exists only after `detect` saw the running CPU
            // report each of them.
            #[allow(unsafe_code)]
            let crc = unsafe { kernel(crc, first, rest) };
            update_slicing_by_8(crc, tail)
        }
    }

    /// One 16-byte block as a vector, byte 0 in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (halves, _) = block.as_chunks::<8>();
        _mm_set_epi64x(i64::from_le_bytes(halves[1]), i64::from_le_bytes(halves[0]))
    }

    /// `acc` carried forward by the distance `keys` encode, onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    /// The register after the four lane-filling blocks `first`, then
    /// every block of `rest`. The caller splits them off, so the kernel
    /// has no bounds check to fail and calls nothing.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn kernel(crc: u32, first: &[[u8; 16]; 4], rest: &[[u8; 16]]) -> u32 {
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        // Unrolled by hand, like SHA-256's message loads: no closure or
        // iterator adapter for codegen to leave out of line.
        for quad in quads {
            lanes[0] = fold(lanes[0], load(&quad[0]), k1k2);
            lanes[1] = fold(lanes[1], load(&quad[1]), k1k2);
            lanes[2] = fold(lanes[2], load(&quad[2]), k1k2);
            lanes[3] = fold(lanes[3], load(&quad[3]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        for block in singles {
            x = fold(x, load(block), k3k4);
        }

        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett reduction, reflected: the register is the high half of
        // the 64-bit remainder.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The CRC-32 polynomial in normal bit order, with its x^32 term.
        const P: u64 = 0x1_04C1_1DB7;

        /// x^n mod P(x), reflected and shifted left by one, as the kernel
        /// multiplies it.
        fn key(n: u32) -> i64 {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            (u64::from((r as u32).reverse_bits()) << 1) as i64
        }

        /// A 33-bit polynomial, reflected.
        fn reflect33(v: u64) -> i64 {
            (v.reverse_bits() >> 31) as i64
        }

        #[test]
        fn folding_constants_derive_from_the_polynomial() {
            assert_eq!([K1, K2], [key(4 * 128 + 32), key(4 * 128 - 32)]);
            assert_eq!([K3, K4], [key(128 + 32), key(128 - 32)]);
            assert_eq!(K5, key(64));
            // μ = ⌊x^64 / P(x)⌋ by long division.
            let (mut rem, mut mu) = (1u128 << 64, 0u64);
            for bit in (32..=64).rev() {
                if rem >> bit & 1 != 0 {
                    rem ^= u128::from(P) << (bit - 32);
                    mu |= 1 << (bit - 32);
                }
            }
            assert_eq!([P_X, MU], [reflect33(P), reflect33(mu)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A backend under test: advances a CRC register over a slice.
    type Update = Box<dyn Fn(u32, &[u8]) -> u32>;

    /// Every backend this CPU runs, slicing-by-8 first. An accelerated
    /// backend that cannot run here is reported, not silently skipped.
    fn backends() -> Vec<(&'static str, Update)> {
        let mut out: Vec<(&'static str, Update)> =
            vec![("slicing-by-8", Box::new(update_slicing_by_8))];
        #[cfg(target_arch = "x86_64")]
        match clmul::Clmul::detect() {
            Some(k) => out.push(("clmul", Box::new(move |crc, d| k.update(crc, d)))),
            None => eprintln!("clmul backend did not run: this CPU lacks pclmulqdq/sse4.1"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("clmul backend did not run: not an x86_64 target");
        out
    }

    /// The CRC-32 of `data` on one backend.
    fn crc_with(update: &dyn Fn(u32, &[u8]) -> u32, data: &[u8]) -> u32 {
        !update(0xFFFF_FFFF, data)
    }

    /// The byte-at-a-time table loop: the oracle every backend must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
        }
        !crc
    }

    /// `data` has CRC `want` through [`crc32`] and through every backend.
    fn assert_crc(data: &[u8], want: u32) {
        assert_eq!(crc32(data), want, "crc32, {} bytes", data.len());
        for (name, update) in backends() {
            assert_eq!(
                crc_with(&update, data),
                want,
                "{name}, {} bytes",
                data.len()
            );
        }
    }

    /// Deterministic filler bytes (xorshift), so the sweeps repeat exactly.
    fn filler(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed | 1;
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
    fn reports_backend() {
        // `Crc32::update` runs the last backend listed on inputs of at
        // least `FOLD_MIN` bytes: the accelerated one when the CPU has it.
        let (name, _) = backends().pop().expect("slicing-by-8 is always listed");
        println!("crc32 backend on this CPU for inputs of {FOLD_MIN}+ bytes: {name}");
    }

    #[test]
    fn check_value() {
        // Canonical CRC-32 check value.
        assert_crc(b"123456789", 0xCBF4_3926);
    }

    #[test]
    fn known_vectors() {
        assert_crc(b"", 0);
        assert_crc(b"a", 0xE8B7_BE43);
        assert_crc(b"abc", 0x3524_41C2);
        assert_crc(b"The quick brown fox jumps over the lazy dog", 0x414F_A339);
        // Long enough for the folding kernel: 64 and 100 bytes.
        assert_crc(&[0u8; 64], 0x758D_6336);
        assert_crc(&[0xFFu8; 100], 0x03D2_8681);
    }

    #[test]
    fn matches_bytewise_at_every_length() {
        let backends = backends();
        let data = filler(4100 + 16, 0x2545_F491);
        for len in 0..=4100 {
            let d = &data[..len];
            let want = crc32_bytewise(d);
            assert_eq!(crc32(d), want, "crc32, length {len}");
            for (name, update) in &backends {
                assert_eq!(crc_with(update, d), want, "{name}, length {len}");
            }
        }
        // Unaligned starts, too: no backend may assume alignment.
        for start in 1..16 {
            for len in (0..=300).chain([4095, 4096, 4100]) {
                let d = &data[start..start + len];
                let want = crc32_bytewise(d);
                for (name, update) in &backends {
                    assert_eq!(
                        crc_with(update, d),
                        want,
                        "{name}, start {start}, length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_bytewise_at_every_update_split() {
        // Pieces fall on both sides of `FOLD_MIN`, so a kernel run's
        // register feeds slicing-by-8 and the other way round.
        let backends = backends();
        let data = filler(4100, 0x9E37_79B9);
        for len in (0..=200).chain([4095, 4096, 4100]) {
            let d = &data[..len];
            let want = crc32_bytewise(d);
            for at in 0..=len {
                let (a, b) = d.split_at(at);
                assert_eq!(
                    Crc32::new().update(a).update(b).finish(),
                    want,
                    "Crc32, {len}/{at}"
                );
                for (name, update) in &backends {
                    assert_eq!(!update(update(!0, a), b), want, "{name}, {len}/{at}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn backends_match_bytewise_at_random_splits(
            len in 0usize..=64 * 1024,
            seed in proptest::num::u32::ANY,
            cuts in proptest::collection::vec(proptest::num::u64::ANY, 0..4),
        ) {
            let data = filler(len, seed);
            let want = crc32_bytewise(&data);
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
            at.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &to in &at {
                crc = crc.update(&data[from..to]);
                from = to;
            }
            crc = crc.update(&data[from..]);
            prop_assert_eq!(crc.finish(), want);
            for (_, update) in &backends() {
                prop_assert_eq!(crc_with(update, &data), want);
            }
        }
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
