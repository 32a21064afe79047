#![deny(unsafe_code)] // one audited call into each CPU kernel, after runtime detection (sha256.rs, crc32.rs)
//! Cryptographic primitives and frame checksums for ForkBase.
//!
//! ForkBase identifies every immutable chunk by its SHA-256 digest and
//! renders version identifiers using the RFC 4648 Base32 alphabet
//! (paper §III-C). Because the canonical byte encodings feed directly into
//! Merkle hashing, this crate is implemented from scratch and pinned to the
//! NIST vectors.
//!
//! Every hash in ForkBase — blob ingest, POS-Tree builds, each verified
//! chunk read, bundle import, GC mark and `verify` — ends in one block
//! function, `compress_blocks` in [`mod@sha256`], which picks its backend
//! on each call: on x86_64 CPUs with the SHA extensions (plus SSSE3 and
//! SSE4.1) a kernel on the `sha256rnds2` instructions, elsewhere the
//! portable scalar loop, which the tests use as the kernel's oracle. Both
//! give the same digests, so chunk addresses do not depend on the CPU.
//!
//! The CRC-32 in [`mod@crc32`] frames every pack-file record, the store's
//! MANIFEST and TOMBSTONES files, and every TCP wire frame. It also has
//! two backends: on x86_64 CPUs with `pclmulqdq` and SSE4.1, inputs of 64
//! bytes or more fold through a carry-less-multiply kernel; the rest, and
//! every other CPU, run slicing-by-8. The tests pin both to the
//! byte-at-a-time loop, so a CRC written on one CPU checks on any other.
//!
//! The crate denies `unsafe_code` instead of forbidding it for two
//! expressions: the call into each `#[target_feature]` kernel, made only
//! with a token (`ShaNi`, `Clmul`) that exists after the CPU has reported
//! the features. No other crate in the workspace may allow `unsafe`
//! (`forkbase-lint` P2).
//!
//! # Example
//!
//! ```
//! use forkbase_crypto::{sha256, Hash};
//!
//! let h: Hash = sha256(b"hello world");
//! assert_eq!(
//!     h.to_hex(),
//!     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
//! );
//! let round = Hash::from_hex(&h.to_hex()).unwrap();
//! assert_eq!(h, round);
//! ```

pub mod base32;
pub mod crc32;
pub mod hash;
pub mod hex;
pub mod sha256;

pub use base32::{base32_decode, base32_encode};
pub use crc32::{crc32, Crc32};
pub use hash::Hash;
pub use hex::{hex_decode, hex_encode};
pub use sha256::{sha256, Sha256};

#[cfg(any(test, feature = "test-support"))]
pub use sha256::digests_on_this_thread;
