//! SHA-256 per FIPS 180-4.
//!
//! A streaming implementation: feed arbitrary byte slices with
//! [`Sha256::update`] and finish with [`Sha256::finalize`]. The one-shot
//! helper [`sha256`] covers the common case.
//!
//! Every whole 64-byte block goes through one function, `compress_blocks`,
//! which picks its backend on each call. On x86_64 CPUs that report the SHA
//! extensions (plus SSSE3 and SSE4.1) it runs a kernel built on the
//! `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions, four rounds per
//! step; everywhere else it runs the portable scalar loop. The scalar loop
//! is also the oracle: the unit tests run the NIST and FIPS vectors through
//! both backends and check that they agree on every length, split and
//! alignment, so the digests — and with them every chunk address — are the
//! same on every CPU.
//!
//! The call into the kernel is one of the crate's two `unsafe` expressions
//! (the other enters the CRC-32 kernel in [`mod@crate::crc32`]): a
//! `#[target_feature]` function may only be called once the CPU is known to
//! have those features, and a `ShaNi` token exists only after runtime
//! detection has said so.

use crate::hash::Hash;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes (the padding encodes it in bits).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Top up a partially-filled block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            } else {
                // Buffer still partial and input exhausted; nothing more to do.
                return;
            }
        }

        // Whole blocks straight from the input, in one call.
        let whole = rest.len() - rest.len() % 64;
        let (blocks, tail) = rest.split_at(whole);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish the computation, producing the digest.
    pub fn finalize(mut self) -> Hash {
        let bit_len = self.len.wrapping_mul(8);

        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Room needed after current buffer: 1 pad byte + zeros + 8 length bytes,
        // such that (buf_len + pad_len) % 64 == 0.
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_no_len(&pad[..pad_len + 8]);

        #[cfg(any(test, feature = "test-support"))]
        DIGESTS.with(|n| n.set(n.get() + 1));

        digest(&self.state)
    }

    /// `update` without length accounting, used only for the final padding.
    fn update_no_len(&mut self, data: &[u8]) {
        let saved = self.len;
        self.update(data);
        self.len = saved;
    }
}

/// The digest a final `state` spells, big-endian word by word.
fn digest(state: &[u32; 8]) -> Hash {
    let mut out = [0u8; 32];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
    Hash::from_bytes(out)
}

/// Compress every 64-byte block of `blocks` (a whole number of them) into
/// `state`, on the fastest backend this CPU runs.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if let Some(sha) = shani::ShaNi::detect() {
        return sha.compress_blocks(state, blocks);
    }
    compress_blocks_scalar(state, blocks);
}

/// The portable backend, one FIPS 180-4 round at a time.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.as_chunks::<64>().0 {
        compress(state, block);
    }
}

#[inline]
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The x86 SHA extensions backend.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::K;

    /// Proof that this CPU runs the kernel: only [`ShaNi::detect`] makes one.
    #[derive(Clone, Copy)]
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` when the CPU reports every feature the kernel is built for
        /// (SSE2 is part of x86_64 itself).
        pub(super) fn detect() -> Option<ShaNi> {
            let found = is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1");
            found.then_some(ShaNi(()))
        }

        pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
            // SAFETY: `kernel` is compiled for sha, sse2, ssse3 and sse4.1,
            // and a `ShaNi` exists only after `detect` saw the running CPU
            // report each of them.
            #[allow(unsafe_code)]
            unsafe {
                kernel(state, blocks)
            }
        }
    }

    /// Four `u32` lanes, `w[0]` in the lowest.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Message words `4j..4j + 4` of `block`, big-endian as FIPS 180-4 reads them.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn message(block: &[u8; 64], j: usize) -> __m128i {
        let be = |at: usize| {
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        let at = 16 * j;
        lanes([be(at), be(at + 4), be(at + 8), be(at + 12)])
    }

    /// The next four schedule words from the previous sixteen, `w0` oldest.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds `4i..4i + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let wk = _mm_add_epi32(w, lanes(K.as_chunks::<4>().0[i]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], blocks: &[u8]) {
        // `sha256rnds2` keeps the working variables as ABEF and CDGH, A in
        // the highest lane.
        let cdab = _mm_shuffle_epi32::<0xB1>(lanes([state[0], state[1], state[2], state[3]]));
        let efgh = _mm_shuffle_epi32::<0x1B>(lanes([state[4], state[5], state[6], state[7]]));
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

        for block in blocks.as_chunks::<64>().0 {
            let (abef0, cdgh0) = (abef, cdgh);
            // Written out rather than `[0, 1, 2, 3].map(..)`: codegen may
            // leave that closure out of line, a call per load that cost a
            // quarter of the kernel's rate.
            let mut w0 = message(block, 0);
            let mut w1 = message(block, 1);
            let mut w2 = message(block, 2);
            let mut w3 = message(block, 3);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef0);
            cdgh = _mm_add_epi32(cdgh, cdgh0);
        }

        let feba = _mm_shuffle_epi32::<0x1B>(abef);
        let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
        let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
        let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
        *state = [
            _mm_extract_epi32::<0>(dcba) as u32,
            _mm_extract_epi32::<1>(dcba) as u32,
            _mm_extract_epi32::<2>(dcba) as u32,
            _mm_extract_epi32::<3>(dcba) as u32,
            _mm_extract_epi32::<0>(hgfe) as u32,
            _mm_extract_epi32::<1>(hgfe) as u32,
            _mm_extract_epi32::<2>(hgfe) as u32,
            _mm_extract_epi32::<3>(hgfe) as u32,
        ];
    }
}

/// One-shot SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(any(test, feature = "test-support"))]
thread_local! {
    static DIGESTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Digests this thread has finished so far. Count pins take the delta
/// around one operation; built only for tests.
#[cfg(any(test, feature = "test-support"))]
pub fn digests_on_this_thread() -> u64 {
    DIGESTS.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A `compress_blocks` backend under test.
    type Compress = Box<dyn Fn(&mut [u32; 8], &[u8])>;

    /// Every backend this CPU runs, the scalar oracle first. An accelerated
    /// backend that cannot run here is reported, not silently skipped.
    fn backends() -> Vec<(&'static str, Compress)> {
        let mut out: Vec<(&'static str, Compress)> =
            vec![("scalar", Box::new(compress_blocks_scalar))];
        #[cfg(target_arch = "x86_64")]
        match shani::ShaNi::detect() {
            Some(sha) => out.push(("sha-ni", Box::new(move |s, b| sha.compress_blocks(s, b)))),
            None => eprintln!("sha-ni backend did not run: this CPU lacks sha/ssse3/sse4.1"),
        }
        #[cfg(not(target_arch = "x86_64"))]
        eprintln!("sha-ni backend did not run: not an x86_64 target");
        out
    }

    /// One-shot digest of `data` on one backend: pad the whole message,
    /// then compress every block in one call.
    fn digest_with(compress: &dyn Fn(&mut [u32; 8], &[u8]), data: &[u8]) -> Hash {
        let mut msg = data.to_vec();
        msg.push(0x80);
        msg.resize((msg.len() + 8).next_multiple_of(64) - 8, 0);
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &msg);
        digest(&state)
    }

    /// The oracle: the scalar backend's one-shot digest.
    fn oracle(data: &[u8]) -> Hash {
        digest_with(&compress_blocks_scalar, data)
    }

    /// `data` hashes to `want` through [`sha256`] and through every backend.
    fn assert_digest(data: &[u8], want: &str) {
        assert_eq!(sha256(data).to_hex(), want, "sha256, {} bytes", data.len());
        for (name, compress) in backends() {
            assert_eq!(
                digest_with(&compress, data).to_hex(),
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
        // `compress_blocks` runs the last backend listed: the accelerated
        // one when the CPU has it.
        let (name, _) = backends()
            .pop()
            .expect("the scalar backend is always listed");
        println!("sha256 compress_blocks backend on this CPU: {name}");
    }

    #[test]
    fn empty_message() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_abc() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_two_block() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
        assert_digest(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        const WANT: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let block = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&block);
        }
        assert_eq!(h.finalize().to_hex(), WANT);
        assert_digest(&[b'a'; 1_000_000], WANT);
    }

    #[test]
    fn nist_short_vectors() {
        // Selected from the NIST CAVP SHA256ShortMsg suite.
        let cases: &[(&[u8], &str)] = &[
            (
                &[0xd3],
                "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1",
            ),
            (
                &[0x11, 0xaf],
                "5ca7133fa735326081558ac312c620eeca9970d1e70a4b95533d956f072d1f98",
            ),
            (
                &[0x74, 0xba, 0x25, 0x21],
                "b16aa56be3880d18cd41e68384cf1ec8c17680c45a02b1575dc1518923ae8b0e",
            ),
            (
                b"\x09\xfc\x1a\xcc\xc2\x30\xa2\x05\xe4\xa2\x08\xe6\x4a\x8f\x20\x42\x91\xf5\x81\xa1\x27\x56\x39\x2d\xa4\xb8\xc0\xcf\x5e\xf0\x2b\x95",
                "4f44c1c7fbebb6f9601829f3897bfd650c56fa07844be76489076356ac1886a4",
            ),
        ];
        for (msg, want) in cases {
            assert_digest(msg, want);
        }
    }

    #[test]
    fn backends_agree_at_every_length() {
        let backends = backends();
        let data = filler(4100 + 8, 0x2545_F491);
        for len in 0..=4100 {
            let d = &data[..len];
            let want = oracle(d);
            assert_eq!(sha256(d), want, "sha256, length {len}");
            for (name, compress) in &backends[1..] {
                assert_eq!(digest_with(compress, d), want, "{name}, length {len}");
            }
        }
        // Unaligned starts: `update` hands the caller's slice to the
        // backend as it is, wherever it starts.
        for start in 1..8 {
            for len in (0..=300).chain([4095, 4096, 4100]) {
                let d = &data[start..start + len];
                assert_eq!(sha256(d), oracle(d), "start {start}, length {len}");
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        let data = filler(200, 0x9E37_79B9);
        for len in 0..=200 {
            let d = &data[..len];
            let want = oracle(d);
            for at in 0..=len {
                let (a, b) = d.split_at(at);
                let mut h = Sha256::new();
                h.update(a);
                h.update(b);
                assert_eq!(h.finalize(), want, "length {len}, split {at}");
            }
        }
    }

    proptest! {
        #[test]
        fn streaming_and_backends_match_oracle(
            len in 0usize..=64 * 1024,
            seed in proptest::num::u32::ANY,
            cuts in proptest::collection::vec(proptest::num::u64::ANY, 0..4),
        ) {
            let data = filler(len, seed);
            let want = oracle(&data);
            let mut at: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
            at.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for &to in &at {
                h.update(&data[from..to]);
                from = to;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finalize(), want);
            for (_, compress) in &backends()[1..] {
                prop_assert_eq!(digest_with(compress, &data), want);
            }
        }
    }

    #[test]
    fn digest_counter_counts_finished_digests() {
        let before = digests_on_this_thread();
        sha256(b"one");
        let mut h = Sha256::new();
        h.update(&[0u8; 1000]);
        h.finalize();
        assert_eq!(digests_on_this_thread() - before, 2);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        // Split the input at many awkward boundaries.
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 1000, 99_999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split = {split}");
        }
    }

    #[test]
    fn incremental_many_small_updates() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn boundary_lengths() {
        // Exercise every buffer/padding edge around the 64-byte block size.
        for n in 0..200usize {
            let data = vec![0xabu8; n];
            let one = sha256(&data);
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one, "length {n}");
        }
    }
}
