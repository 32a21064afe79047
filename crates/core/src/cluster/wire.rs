//! The serializable RPC surface and versioned wire format of the cluster.
//!
//! Every routed verb and every control-plane verb (probe, migration
//! export/import, refs restore) is a [`Request`] variant with a stable
//! one-byte tag; every answer is a [`Reply`]. The same
//! [`dispatch`] function executes a request against a servelet's
//! [`ForkBase`] whether the request arrived over the in-process channel
//! transport or over TCP — the two transports differ only in how bytes
//! move, never in what a verb does.
//!
//! # Frame layout (`PROTOCOL.md` is the normative spec)
//!
//! ```text
//! frame := len(u32 LE) || version(u8) || body || crc32(u32 LE)
//! ```
//!
//! * `len` counts everything after itself: `1 + body.len() + 4`.
//! * `version` is [`WIRE_VERSION`] on anything this build sends; on
//!   receive, any version in `MIN_WIRE_VERSION..=WIRE_VERSION` is
//!   accepted and replies are framed with the version the request
//!   carried, so an old router keeps working against upgraded servelets
//!   (upgrade servelets first — see the rollout rules in `PROTOCOL.md`).
//!   Anything outside the range is rejected before the body is parsed.
//! * `crc32` (same IEEE polynomial as the segment files) covers
//!   `version || body`, so torn writes and bit-rot are detected at the
//!   framing layer — the same defense-in-depth split the chunk store
//!   uses (CRC for framing, SHA-256 for end-to-end content).
//! * `len` is capped at [`MAX_FRAME_LEN`] and the reader allocates
//!   proportionally to bytes actually received, so a hostile length
//!   prefix cannot OOM a servelet.
//!
//! # Stability
//!
//! Tags, field order, and integer endianness are **frozen wire format**:
//! changing any of them is a protocol break and must bump
//! [`WIRE_VERSION`]. The golden-bytes tests at the bottom of this file
//! pin the encoding; an accidental re-tag fails the build, not a
//! production handshake.
//!
//! # The verb table
//!
//! Every request, reply, error, batch op, outcome, diff and version
//! spec is declared once as a `wire_enum!` row: tag constant, variant,
//! fields in wire order. The enum, `encode`, `decode` and the `expect_*`
//! extractors all come from that row; each field type's bytes come from
//! its one `Field` impl. Adding a verb:
//!
//! 1. a fresh top-level `const REQ_*: u8` (lint P1 reads tags from these
//!    constants);
//! 2. one row in the `Request` table, an arm in `Request::retry_class`
//!    (idempotent? persisted before ack?) and one in `run`;
//! 3. a row in `PROTOCOL.md`'s tag table and a golden-byte pin below;
//! 4. a `WIRE_VERSION` bump, and only with it
//!    `cargo run -p forkbase-lint -- --bless` (PROTOCOL.md § Version bump
//!    procedure).

use std::io::Read;

use bytes::Bytes;
use forkbase_crypto::hash::HASH_LEN;
use forkbase_crypto::{crc32, Hash};
use forkbase_store::{ChunkStore, StoreStats, SweepReport, SweepStore};
use forkbase_types::Value;

use crate::api::{BatchOutcome, CommitResult, DbStat, GetResult, PutOptions, VersionSpec};
use crate::backend::Backend;
use crate::bundle::{export_bundle_keys, import_bundle, import_bundle_replace};
use crate::db::ForkBase;
use crate::error::{DbError, DbResult};
use crate::fnode::Uid;
use crate::forks::{DiffSummary, MapEntryDelta};
use crate::gc::GcReport;

use super::MapPage;

/// The wire protocol version this build speaks (stamps on every frame it
/// sends). Version 2 added the `Replicate` control verb (`0x25`);
/// version 3 added the fork-sandbox verbs (`GetAt`/`BranchFromVersion`/
/// `DiffSpecs`/`MapRangeAt`/`DeleteBranch`, `0x26..=0x2A`), the `Diff`
/// reply (`0x8C`), and the structured `rate_limited` error (`0x0C`).
/// Earlier surfaces are unchanged, so down-level frames are still
/// accepted (see [`MIN_WIRE_VERSION`]).
pub const WIRE_VERSION: u8 = 3;

/// The oldest wire protocol version this build still accepts on receive.
/// Servelets reply in the version the request carried, so a router at any
/// version in `MIN_WIRE_VERSION..=WIRE_VERSION` interoperates. The
/// rollout rule this enables: upgrade servelets first, routers second
/// (`PROTOCOL.md` § Compatibility).
pub const MIN_WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's `len` field (version + body + CRC).
/// Migration bundles are the largest payloads; 256 MiB comfortably holds
/// any bundle this codebase produces while bounding what a hostile peer
/// can make a servelet allocate.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

// ----------------------------------------------------------------------
// Frame codec
// ----------------------------------------------------------------------

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read failed (includes timeouts — inspect the
    /// wrapped error's [`std::io::Error::kind`]).
    Io(std::io::Error),
    /// The stream ended mid-frame.
    Torn,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The CRC tail does not match the received bytes.
    BadCrc,
    /// The peer speaks a different protocol version.
    BadVersion(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Torn => write!(f, "torn frame: stream ended mid-frame"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "peer speaks wire version {v}, this build accepts \
                     {MIN_WIRE_VERSION}..={WIRE_VERSION}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encode `body` as one wire frame stamped [`WIRE_VERSION`].
pub fn encode_frame(body: &[u8]) -> Vec<u8> {
    encode_frame_with_version(WIRE_VERSION, body)
}

/// Encode `body` as one wire frame stamped `version`. Servers use this to
/// reply in the version the request carried, so a down-level router can
/// parse the answer.
pub fn encode_frame_with_version(version: u8, body: &[u8]) -> Vec<u8> {
    debug_assert!(
        (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version),
        "framing an unsupported wire version {version}"
    );
    let len = 1 + body.len() + 4;
    assert!(len <= MAX_FRAME_LEN as usize, "frame body too large");
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(version);
    out.extend_from_slice(body);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Read one frame from `r`, returning the body (version and CRC already
/// validated and stripped). See [`read_frame_versioned`] when the caller
/// needs the version the frame was stamped with.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    read_frame_versioned(r).map(|(_, body)| body)
}

/// Read one frame from `r`, returning `(version, body)` with the CRC
/// already validated and stripped. Any version in
/// `MIN_WIRE_VERSION..=WIRE_VERSION` is accepted.
///
/// Allocation is bounded: the length prefix is checked against
/// [`MAX_FRAME_LEN`] before any allocation, and the buffer grows with
/// bytes actually received (via [`Read::take`]), so a hostile peer
/// cannot force a large allocation by sending a large prefix alone.
pub fn read_frame_versioned(r: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
    let mut len_buf = [0u8; 4];
    read_exact_or_torn(r, &mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    if len < 5 {
        // version + at least an empty body + crc
        return Err(FrameError::Torn);
    }
    let mut buf = Vec::with_capacity((len as usize).min(64 * 1024));
    let got = r
        .take(u64::from(len))
        .read_to_end(&mut buf)
        .map_err(FrameError::Io)?;
    if got != len as usize {
        return Err(FrameError::Torn);
    }
    let (payload, crc_tail) = buf.split_at(buf.len() - 4);
    let want = match crc_tail.try_into() {
        Ok(tail) => u32::from_le_bytes(tail),
        Err(_) => return Err(FrameError::Torn),
    };
    if crc32(payload) != want {
        return Err(FrameError::BadCrc);
    }
    let version = payload[0];
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(FrameError::BadVersion(version));
    }
    buf.truncate(buf.len() - 4);
    buf.remove(0);
    Ok((version, buf))
}

fn read_exact_or_torn(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(FrameError::Torn),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Body codec: one `Field` impl per wire type
// ----------------------------------------------------------------------

/// A bounds-checked reader over a fully received frame body. Every
/// length and element count is validated against the remaining buffer
/// before use, so no decode allocates beyond the frame it was handed.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn err(what: &str) -> DbError {
        DbError::InvalidInput(format!("wire decode: {what}"))
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(Self::err("truncated body"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> DbResult<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| Self::err("truncated body"))
    }

    fn u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`-length-prefixed byte run, borrowed from the frame.
    fn bytes(&mut self) -> DbResult<&'a [u8]> {
        let len = u32::from_le_bytes(self.array()?) as usize;
        self.take(len)
    }

    /// Element count for a vec about to be decoded. Bounded: a count
    /// whose elements cannot fit in the remaining buffer at `min_len`
    /// bytes each is rejected before any allocation.
    fn count(&mut self, min_len: usize) -> DbResult<usize> {
        let n = u32::from_le_bytes(self.array()?) as usize;
        if n.saturating_mul(min_len.max(1)) > self.buf.len() - self.pos {
            return Err(Self::err("implausible element count"));
        }
        Ok(n)
    }

    /// Decode a whole frame body: one `T` and nothing after it.
    fn body<T: Field>(buf: &'a [u8]) -> DbResult<T> {
        let mut rd = Rd { buf, pos: 0 };
        let value = T::read(&mut rd)?;
        if rd.pos != rd.buf.len() {
            return Err(Self::err("trailing bytes after body"));
        }
        Ok(value)
    }
}

/// How one type crosses the wire. `MIN` is a lower bound on its encoded
/// length, which [`Rd::count`] uses to refuse element counts the rest of
/// the frame cannot hold.
trait Field: Sized {
    /// The fewest bytes any value of this type encodes to.
    const MIN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn read(rd: &mut Rd<'_>) -> DbResult<Self>;
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed bytes in one copy, never a per-byte loop.
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

impl Field for u64 {
    const MIN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        Ok(u64::from_le_bytes(rd.array()?))
    }
}

impl Field for bool {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        match rd.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Rd::err(&format!("bad bool byte {b:#04x}"))),
        }
    }
}

impl Field for String {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        String::from_utf8(rd.bytes()?.to_vec()).map_err(|_| Rd::err("non-UTF-8 string"))
    }
}

impl Field for Hash {
    const MIN: usize = HASH_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        Hash::from_slice(rd.take(HASH_LEN)?).ok_or_else(|| Rd::err("bad hash length"))
    }
}

impl Field for Bytes {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        Ok(Bytes::copy_from_slice(rd.bytes()?))
    }
}

impl Field for Vec<u8> {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        Ok(rd.bytes()?.to_vec())
    }
}

impl Field for Option<Bytes> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(b) => {
                out.push(1);
                b.put(out);
            }
        }
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        match rd.u8()? {
            0 => Ok(None),
            1 => Ok(Some(Bytes::read(rd)?)),
            b => Err(Rd::err(&format!("bad option byte {b:#04x}"))),
        }
    }
}

impl Field for Value {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, &self.encode());
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        Value::decode(rd.bytes()?).map_err(DbError::Value)
    }
}

impl<T: Field> Field for Vec<T> {
    const MIN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        for v in self {
            v.put(out);
        }
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        let n = rd.count(T::MIN)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::read(rd)?);
        }
        Ok(out)
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
        Ok((A::read(rd)?, B::read(rd)?))
    }
}

/// The smallest of `lens` (for an enum's `MIN`: its shortest variant).
const fn min_of(lens: &[usize]) -> usize {
    let mut min = usize::MAX;
    let mut i = 0;
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// Implements [`Field`] for structs: the fields, in wire order.
macro_rules! wire_struct {
    ($($name:ident { $($f:ident: $t:ty),* $(,)? })*) => {$(
        impl Field for $name {
            const MIN: usize = 0 $(+ <$t as Field>::MIN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(Field::put(&self.$f, out);)*
            }
            fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
                Ok($name { $($f: <$t as Field>::read(rd)?),* })
            }
        }
    )*};
}

/// Declares a tagged wire enum once. Each row is `TAG => Variant` and the
/// variant's fields in wire order: none, `{ name: Type, .. }`, or one
/// `(binding: Type)` optionally followed by its `Reply` extractor,
/// `expect_x "what"`. The `pub enum` form also defines the enum; the
/// `impl` form encodes an enum declared elsewhere. Every `TAG` is a
/// top-level `u8` constant, where lint P1 and `lint/wire.lock` find it.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($what:literal) {$(
            $(#[$vmeta:meta])*
            $tag:ident => $v:ident
            $({ $($(#[$fmeta:meta])* $f:ident: $t:ty),* $(,)? })?
            $(($b:ident: $bt:ty) $($x:ident $label:literal)?)?,
        )*}
    ) => {
        $(#[$meta])*
        pub enum $name {$(
            $(#[$vmeta])*
            $v $({ $($(#[$fmeta])* $f: $t),* })? $(($bt))?,
        )*}
        wire_enum! {
            impl $name ($what) {$(
                $tag => $v $({ $($f: $t),* })? $(($b: $bt) $($x $label)?)?,
            )*}
        }
    };
    (
        impl $name:ident ($what:literal) {$(
            $tag:ident => $v:ident
            $({ $($f:ident: $t:ty),* $(,)? })?
            $(($b:ident: $bt:ty) $($x:ident $label:literal)?)?,
        )*}
    ) => {
        impl Field for $name {
            const MIN: usize = 1 + min_of(&[$(
                0 $($(+ <$t as Field>::MIN)*)? $(+ <$bt as Field>::MIN)?
            ),*]);
            fn put(&self, out: &mut Vec<u8>) {
                out.push(self.wire_kind().0);
                match self {$(
                    Self::$v $({ $($f),* })? $(($b))? => {
                        $($(Field::put($f, out);)*)?
                        $(Field::put($b, out);)?
                    }
                )*}
            }
            fn read(rd: &mut Rd<'_>) -> DbResult<Self> {
                Ok(match rd.u8()? {
                    $($tag => Self::$v
                        $({ $($f: <$t as Field>::read(rd)?),* })?
                        $((<$bt as Field>::read(rd)?))?,
                    )*
                    t => {
                        return Err(Rd::err(&format!(concat!("unknown ", $what, " tag {:#04x}"), t)))
                    }
                })
            }
        }

        impl $name {
            /// This value's tag byte and variant name.
            fn wire_kind(&self) -> (u8, &'static str) {
                match self {
                    $(Self::$v { .. } => ($tag, stringify!($v)),)*
                }
            }
            $($($(
                #[doc = concat!("Extract a [`", stringify!($name), "::", stringify!($v), "`].")]
                pub fn $x(self) -> DbResult<$bt> {
                    match self {
                        Self::$v($b) => Ok($b),
                        other => Err(other.unexpected($label)),
                    }
                }
            )?)?)*
        }
    };
}

wire_struct! {
    PutOptions { branch: String, author: String, message: String }
    CommitResult { uid: Uid, branch: String }
    GetResult { value: Value, uid: Uid }
    MapPage {
        entries: Vec<(Bytes, Bytes)>,
        truncated: bool,
        version: Uid,
    }
    MapEntryDelta {
        key: Bytes,
        from: Option<Bytes>,
        to: Option<Bytes>,
    }
    DbStat {
        keys: u64,
        branches: u64,
        store: StoreStats,
    }
    StoreStats {
        unique_chunks: u64,
        stored_bytes: u64,
        puts: u64,
        logical_bytes: u64,
        dedup_hits: u64,
        dedup_saved_bytes: u64,
        gets: u64,
        misses: u64,
        compaction_chunks_rewritten: u64,
        compaction_bytes_rewritten: u64,
        sweep_chunks_reclaimed: u64,
        sweep_bytes_reclaimed: u64,
    }
    GcReport { live_chunks: u64, sweep: SweepReport }
    SweepReport {
        chunks_reclaimed: u64,
        bytes_reclaimed: u64,
        chunks_rewritten: u64,
        bytes_rewritten: u64,
        segments_deleted: u64,
        disk_bytes_before: u64,
        disk_bytes_after: u64,
    }
}

const SPEC_BRANCH: u8 = 0x01;
const SPEC_VERSION: u8 = 0x02;

wire_enum! {
    impl VersionSpec ("version-spec") {
        SPEC_BRANCH => Branch(b: String),
        SPEC_VERSION => Version(uid: Uid),
    }
}

// ----------------------------------------------------------------------
// Requests
// ----------------------------------------------------------------------

const REQ_PROBE: u8 = 0x01;
const REQ_PUT: u8 = 0x02;
const REQ_PUT_BLOB: u8 = 0x03;
const REQ_GET: u8 = 0x04;
const REQ_HEADS: u8 = 0x05;
const REQ_STAT: u8 = 0x06;
const REQ_MAP_RANGE: u8 = 0x07;
const REQ_LIST_KEYS: u8 = 0x08;
const REQ_STORED_BYTES: u8 = 0x09;
const REQ_GC: u8 = 0x0A;
const REQ_BATCH: u8 = 0x0B;
const REQ_EXPORT_BUNDLE: u8 = 0x20;
const REQ_IMPORT_BUNDLE: u8 = 0x21;
const REQ_FORGET_KEYS: u8 = 0x22;
const REQ_LOAD_REFS: u8 = 0x23;
const REQ_DUMP_REFS: u8 = 0x24;
const REQ_REPLICATE: u8 = 0x25;
const REQ_GET_AT: u8 = 0x26;
const REQ_BRANCH_FROM_VERSION: u8 = 0x27;
const REQ_DELETE_BRANCH: u8 = 0x28;
const REQ_DIFF_SPECS: u8 = 0x29;
const REQ_MAP_RANGE_AT: u8 = 0x2A;

const OP_PUT: u8 = 0x01;
const OP_DELETE_BRANCH: u8 = 0x02;

wire_enum! {
    /// One operation of a routed [`Request::Batch`].
    #[derive(Clone, Debug, PartialEq)]
    pub enum WireOp ("batch op") {
        /// Stage a put of `value` on `(key, opts.branch)`.
        OP_PUT => Put {
            /// Target key.
            key: String,
            /// The value to commit.
            value: Value,
            /// Branch/author/message options.
            opts: PutOptions,
        },
        /// Stage a branch deletion.
        OP_DELETE_BRANCH => DeleteBranch {
            /// Target key.
            key: String,
            /// Branch to delete.
            branch: String,
        },
    }
}

wire_enum! {
    /// Every verb a servelet serves, data plane and control plane alike.
    ///
    /// Tag bytes (frozen): data plane `0x01..=0x0B`, control plane
    /// `0x20..=0x25`, spec-addressed fork verbs `0x26..=0x2A` (wire
    /// version 3). See `PROTOCOL.md`.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request ("request") {
        /// Control: liveness probe (no work, short deadline).
        REQ_PROBE => Probe,
        /// `Put` a value on the owning servelet.
        REQ_PUT => Put {
            /// Target key.
            key: String,
            /// The value to commit.
            value: Value,
            /// Branch/author/message options.
            opts: PutOptions,
        },
        /// `Put` a blob built from raw content on the owning servelet.
        REQ_PUT_BLOB => PutBlob {
            /// Target key.
            key: String,
            /// Raw blob content (chunked on the servelet).
            content: Bytes,
            /// Branch/author/message options.
            opts: PutOptions,
        },
        /// `Get` the head of `key@branch`.
        REQ_GET => Get {
            /// Target key.
            key: String,
            /// Branch whose head to read.
            branch: String,
        },
        /// Read many branch heads in one consistent call.
        REQ_HEADS => Heads {
            /// `(key, branch)` pairs.
            pairs: Vec<(String, String)>,
        },
        /// Database statistics.
        REQ_STAT => Stat,
        /// One bounded page of a map range scan.
        REQ_MAP_RANGE => MapRange {
            /// Target key.
            key: String,
            /// Branch whose head to scan.
            branch: String,
            /// Inclusive start bound, if any.
            start: Option<Bytes>,
            /// Exclusive end bound, if any.
            end: Option<Bytes>,
            /// Page size limit.
            limit: u64,
        },
        /// List every key this servelet holds.
        REQ_LIST_KEYS => ListKeys,
        /// Stored chunk-payload bytes.
        REQ_STORED_BYTES => StoredBytes,
        /// Run a garbage-collection pass.
        REQ_GC => Gc,
        /// A multi-op write batch, committed atomically on this servelet.
        REQ_BATCH => Batch {
            /// The staged operations, in batch order.
            ops: Vec<WireOp>,
        },
        /// Control: export the full history of `keys` as a bundle
        /// (migration copy phase).
        REQ_EXPORT_BUNDLE => ExportBundle {
            /// Keys whose branches to export.
            keys: Vec<String>,
        },
        /// Control: import a bundle produced by [`Request::ExportBundle`].
        /// Every chunk is re-hashed and every history walked before a ref
        /// installs — the wire inherits the bundle codec's tamper evidence.
        REQ_IMPORT_BUNDLE => ImportBundle {
            /// The bundle bytes.
            bundle: Vec<u8>,
        },
        /// Control: drop the refs of `keys` (migration cutover).
        REQ_FORGET_KEYS => ForgetKeys {
            /// Keys to forget.
            keys: Vec<String>,
        },
        /// Control: restore persisted branch heads (supervised restart).
        REQ_LOAD_REFS => LoadRefs {
            /// The refs text ([`ForkBase::dump_refs`] format).
            refs: String,
        },
        /// Control: dump branch heads for persistence.
        REQ_DUMP_REFS => DumpRefs,
        /// Control: apply a replication bundle with **replace** semantics —
        /// after import the receiver's branch set for every key in the
        /// bundle exactly mirrors the sender's, including branches the
        /// sender deleted. Same tamper evidence as
        /// [`Request::ImportBundle`]; unlike it, re-applying the same
        /// bundle (or an older one out of order) converges instead of
        /// erroring, which is what makes replication shipping retryable.
        /// Wire version 2.
        REQ_REPLICATE => Replicate {
            /// The bundle bytes.
            bundle: Vec<u8>,
        },
        /// `Get` the value at an arbitrary [`VersionSpec`] (branch head *or*
        /// pinned version uid). The fork service reads untouched keys through
        /// the fork's base spec with this. Wire version 3.
        REQ_GET_AT => GetAt {
            /// Target key.
            key: String,
            /// Branch head or version uid to read.
            spec: VersionSpec,
        },
        /// Create `new_branch` pointing at an existing version of `key` —
        /// the lazy copy-on-write step of a fork's first write to a key.
        /// Wire version 3.
        REQ_BRANCH_FROM_VERSION => BranchFromVersion {
            /// Target key.
            key: String,
            /// The version the new branch starts from.
            uid: Uid,
            /// Name of the branch to create.
            new_branch: String,
        },
        /// Drop a single branch of `key` (fork reaping). Wire version 3.
        REQ_DELETE_BRANCH => DeleteBranch {
            /// Target key.
            key: String,
            /// Branch to delete.
            branch: String,
        },
        /// Structural diff between two versions of `key`, summarized for the
        /// wire (entry deltas are sampled, counts are exact). Wire version 3.
        REQ_DIFF_SPECS => DiffSpecs {
            /// Target key.
            key: String,
            /// The "from" side.
            from: VersionSpec,
            /// The "to" side.
            to: VersionSpec,
        },
        /// One bounded page of a map range scan at an arbitrary
        /// [`VersionSpec`] (the spec-generic [`Request::MapRange`]).
        /// Wire version 3.
        REQ_MAP_RANGE_AT => MapRangeAt {
            /// Target key.
            key: String,
            /// Branch head or version uid to scan.
            spec: VersionSpec,
            /// Inclusive start bound, if any.
            start: Option<Bytes>,
            /// Exclusive end bound, if any.
            end: Option<Bytes>,
            /// Page size limit.
            limit: u64,
        },
    }
}

impl Request {
    /// `(idempotent, mutates)` for every verb. Wildcard-free, so a new
    /// verb cannot compile without choosing whether a retry is safe and
    /// whether the servelet must persist before acking it.
    fn retry_class(&self) -> (bool, bool) {
        match self {
            Request::Probe
            | Request::Get { .. }
            | Request::Heads { .. }
            | Request::Stat
            | Request::MapRange { .. }
            | Request::ListKeys
            | Request::StoredBytes
            | Request::GetAt { .. }
            | Request::DiffSpecs { .. }
            | Request::MapRangeAt { .. }
            | Request::DumpRefs => (true, false),
            // Replace-import converges: applying the same bundle twice
            // leaves the same refs, so a retry after an ambiguous
            // outcome cannot corrupt the replica.
            Request::Replicate { .. } => (true, true),
            Request::Put { .. }
            | Request::PutBlob { .. }
            | Request::Gc
            | Request::Batch { .. }
            | Request::ImportBundle { .. }
            | Request::ForgetKeys { .. }
            | Request::LoadRefs { .. }
            | Request::BranchFromVersion { .. }
            | Request::DeleteBranch { .. } => (false, true),
            Request::ExportBundle { .. } => (false, false),
        }
    }

    /// Whether retrying this request cannot change state (the
    /// ambiguous-write rule keys off this).
    pub fn idempotent(&self) -> bool {
        self.retry_class().0
    }

    /// Encode as a frame body (tag + fields; no frame envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decode a frame body produced by [`Self::encode`].
    pub fn decode(body: &[u8]) -> DbResult<Request> {
        Rd::body(body)
    }
}

// ----------------------------------------------------------------------
// Errors on the wire
// ----------------------------------------------------------------------

const ERR_NO_SUCH_KEY: u8 = 0x01;
const ERR_NO_SUCH_BRANCH: u8 = 0x02;
const ERR_NO_SUCH_VERSION: u8 = 0x03;
const ERR_BRANCH_EXISTS: u8 = 0x04;
const ERR_NO_COMMON_ANCESTOR: u8 = 0x05;
const ERR_TAMPER_DETECTED: u8 = 0x06;
const ERR_SERVELET_UNAVAILABLE: u8 = 0x07;
const ERR_SERVELET_TIMEOUT: u8 = 0x08;
const ERR_PERMISSION_DENIED: u8 = 0x09;
const ERR_INVALID_INPUT: u8 = 0x0A;
const ERR_REMOTE: u8 = 0x0B;
const ERR_RATE_LIMITED: u8 = 0x0C;

wire_enum! {
    /// A [`DbError`] flattened for the wire. Variants whose fields survive a
    /// round trip map 1:1; the rest (store/tree/value internals, merge
    /// conflict lists) travel as [`WireError::Remote`] carrying the original
    /// stable [`DbError::code`] plus the rendered message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum WireError ("error") {
        /// `no_such_key`.
        ERR_NO_SUCH_KEY => NoSuchKey {
            /// The key queried.
            key: String,
        },
        /// `no_such_branch`.
        ERR_NO_SUCH_BRANCH => NoSuchBranch {
            /// The key queried.
            key: String,
            /// The missing branch.
            branch: String,
        },
        /// `no_such_version`.
        ERR_NO_SUCH_VERSION => NoSuchVersion {
            /// The missing uid.
            uid: Uid,
        },
        /// `branch_exists`.
        ERR_BRANCH_EXISTS => BranchExists {
            /// The key.
            key: String,
            /// The already-present branch.
            branch: String,
        },
        /// `no_common_ancestor`.
        ERR_NO_COMMON_ANCESTOR => NoCommonAncestor {
            /// First version.
            a: Uid,
            /// Second version.
            b: Uid,
        },
        /// `tamper_detected`.
        ERR_TAMPER_DETECTED => TamperDetected {
            /// What failed validation.
            message: String,
        },
        /// `servelet_unavailable`.
        ERR_SERVELET_UNAVAILABLE => ServeletUnavailable {
            /// Stable id of the unreachable servelet.
            servelet: u64,
        },
        /// `servelet_timeout`.
        ERR_SERVELET_TIMEOUT => ServeletTimeout {
            /// Stable id of the servelet that missed its deadline.
            servelet: u64,
        },
        /// `permission_denied`.
        ERR_PERMISSION_DENIED => PermissionDenied {
            /// Why.
            message: String,
        },
        /// `invalid_input`.
        ERR_INVALID_INPUT => InvalidInput {
            /// Why.
            message: String,
        },
        /// `rate_limited` (wire version 3).
        ERR_RATE_LIMITED => RateLimited {
            /// Suggested wait before retrying, in milliseconds.
            retry_after_ms: u64,
        },
        /// Any error without a richer wire form; `code` is the original
        /// stable [`DbError::code`].
        ERR_REMOTE => Remote {
            /// The original stable error code.
            code: String,
            /// The rendered error message.
            message: String,
        },
    }
}

impl From<&DbError> for WireError {
    fn from(e: &DbError) -> WireError {
        match e {
            DbError::NoSuchKey(key) => WireError::NoSuchKey { key: key.clone() },
            DbError::NoSuchBranch { key, branch } => WireError::NoSuchBranch {
                key: key.clone(),
                branch: branch.clone(),
            },
            DbError::NoSuchVersion(uid) => WireError::NoSuchVersion { uid: *uid },
            DbError::BranchExists { key, branch } => WireError::BranchExists {
                key: key.clone(),
                branch: branch.clone(),
            },
            DbError::NoCommonAncestor(a, b) => WireError::NoCommonAncestor { a: *a, b: *b },
            DbError::TamperDetected(m) => WireError::TamperDetected { message: m.clone() },
            DbError::ServeletUnavailable { servelet } => WireError::ServeletUnavailable {
                servelet: *servelet,
            },
            DbError::ServeletTimeout { servelet } => WireError::ServeletTimeout {
                servelet: *servelet,
            },
            DbError::PermissionDenied(m) => WireError::PermissionDenied { message: m.clone() },
            DbError::InvalidInput(m) => WireError::InvalidInput { message: m.clone() },
            DbError::RateLimited { retry_after_ms } => WireError::RateLimited {
                retry_after_ms: *retry_after_ms,
            },
            other => WireError::Remote {
                code: other.code().to_string(),
                message: other.to_string(),
            },
        }
    }
}

impl WireError {
    /// Reconstruct the [`DbError`] this wire error carries.
    pub fn into_db(self) -> DbError {
        match self {
            WireError::NoSuchKey { key } => DbError::NoSuchKey(key),
            WireError::NoSuchBranch { key, branch } => DbError::NoSuchBranch { key, branch },
            WireError::NoSuchVersion { uid } => DbError::NoSuchVersion(uid),
            WireError::BranchExists { key, branch } => DbError::BranchExists { key, branch },
            WireError::NoCommonAncestor { a, b } => DbError::NoCommonAncestor(a, b),
            WireError::TamperDetected { message } => DbError::TamperDetected(message),
            WireError::ServeletUnavailable { servelet } => {
                DbError::ServeletUnavailable { servelet }
            }
            WireError::ServeletTimeout { servelet } => DbError::ServeletTimeout { servelet },
            WireError::PermissionDenied { message } => DbError::PermissionDenied(message),
            WireError::InvalidInput { message } => DbError::InvalidInput(message),
            WireError::RateLimited { retry_after_ms } => DbError::RateLimited { retry_after_ms },
            WireError::Remote { code, message } => DbError::Remote { code, message },
        }
    }
}

// ----------------------------------------------------------------------
// Replies
// ----------------------------------------------------------------------

const REP_UNIT: u8 = 0x80;
const REP_COMMITTED: u8 = 0x81;
const REP_GOT: u8 = 0x82;
const REP_UIDS: u8 = 0x83;
const REP_STAT: u8 = 0x84;
const REP_PAGE: u8 = 0x85;
const REP_KEYS: u8 = 0x86;
const REP_COUNT: u8 = 0x87;
const REP_GC: u8 = 0x88;
const REP_OUTCOMES: u8 = 0x89;
const REP_BLOB: u8 = 0x8A;
const REP_TEXT: u8 = 0x8B;
const REP_DIFF: u8 = 0x8C;
const REP_ERR: u8 = 0xEE;

const DIFF_IDENTICAL: u8 = 0x01;
const DIFF_PRIMITIVE: u8 = 0x02;
const DIFF_MAP: u8 = 0x03;
const DIFF_CHUNKED: u8 = 0x04;

const OUTCOME_COMMITTED: u8 = 0x01;
const OUTCOME_DELETED: u8 = 0x02;

wire_enum! {
    impl DiffSummary ("diff") {
        DIFF_IDENTICAL => Identical,
        DIFF_PRIMITIVE => Primitive { from: Value, to: Value },
        DIFF_MAP => Map {
            added: u64,
            removed: u64,
            modified: u64,
            entries: Vec<MapEntryDelta>,
        },
        DIFF_CHUNKED => Chunked {
            from_len: u64,
            to_len: u64,
            shared_chunks: u64,
            shared_bytes: u64,
            from_chunks: u64,
            to_chunks: u64,
        },
    }
}

wire_enum! {
    impl BatchOutcome ("outcome") {
        OUTCOME_COMMITTED => Committed(c: CommitResult),
        OUTCOME_DELETED => Deleted { key: String, branch: String },
    }
}

wire_enum! {
    /// Every answer a servelet returns. Tag bytes (frozen): `0x80..=0x8C`,
    /// errors `0xEE`.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Reply ("reply") {
        /// Success with no payload.
        REP_UNIT => Unit,
        /// A commit landed.
        REP_COMMITTED => Committed(c: CommitResult) expect_commit "commit",
        /// A `Get` result.
        REP_GOT => Got(g: GetResult) expect_get "get result",
        /// Branch heads, in request order.
        REP_UIDS => Uids(u: Vec<Uid>) expect_uids "uids",
        /// Database statistics.
        REP_STAT => Stat(s: DbStat) expect_stat "stat",
        /// One page of a map range scan.
        REP_PAGE => Page(p: MapPage) expect_page "map page",
        /// Key listing.
        REP_KEYS => Keys(k: Vec<String>) expect_keys "keys",
        /// A single counter.
        REP_COUNT => Count(n: u64) expect_count "count",
        /// A garbage-collection report.
        REP_GC => Gc(r: GcReport) expect_gc "gc report",
        /// Per-op outcomes of a write batch, in batch order.
        REP_OUTCOMES => Outcomes(o: Vec<BatchOutcome>) expect_outcomes "batch outcomes",
        /// Raw bytes (bundle export).
        REP_BLOB => Blob(b: Vec<u8>) expect_blob "blob",
        /// Text (refs dump).
        REP_TEXT => Text(t: String) expect_text "text",
        /// A structural diff summary (wire version 3).
        REP_DIFF => Diff(d: DiffSummary) expect_diff "diff summary",
        /// The request failed; the error crossed the wire.
        REP_ERR => Err(e: WireError),
    }
}

impl Reply {
    /// Encode as a frame body (tag + fields; no frame envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decode a frame body produced by [`Self::encode`].
    pub fn decode(body: &[u8]) -> DbResult<Reply> {
        Rd::body(body)
    }

    fn unexpected(self, wanted: &str) -> DbError {
        match self {
            Reply::Err(e) => e.into_db(),
            other => {
                let (tag, name) = other.wire_kind();
                DbError::InvalidInput(format!(
                    "unexpected wire reply: wanted {wanted}, got {} ({tag:#04x})",
                    name.to_ascii_lowercase()
                ))
            }
        }
    }

    /// Extract a [`Reply::Unit`]; a wire error becomes its [`DbError`].
    pub fn expect_unit(self) -> DbResult<()> {
        match self {
            Reply::Unit => Ok(()),
            other => Err(other.unexpected("unit")),
        }
    }
}

// ----------------------------------------------------------------------
// Server-side execution
// ----------------------------------------------------------------------

/// Execute `req` against a servelet's database. **The** server-side
/// entry point: both the in-process channel worker and the TCP servelet
/// loop call this, so a verb behaves identically over either transport.
pub fn dispatch<S: SweepStore>(db: &ForkBase<S>, req: Request) -> Reply {
    match run(db, req) {
        Ok(reply) => reply,
        Err(e) => Reply::Err(WireError::from(&e)),
    }
}

fn run<S: SweepStore>(db: &ForkBase<S>, req: Request) -> DbResult<Reply> {
    match req {
        Request::Probe => Ok(Reply::Unit),
        Request::Put { key, value, opts } => Ok(Reply::Committed(db.put(&key, value, &opts)?)),
        Request::PutBlob { key, content, opts } => {
            Ok(Reply::Committed(db.put_blob(&key, content, &opts)?))
        }
        Request::Get { key, branch } => Ok(Reply::Got(db.get(&key, &branch)?)),
        Request::Heads { pairs } => {
            let refs: Vec<(&str, &str)> = pairs
                .iter()
                .map(|(k, b)| (k.as_str(), b.as_str()))
                .collect();
            Ok(Reply::Uids(db.heads(&refs)?))
        }
        Request::Stat => Ok(Reply::Stat(db.stat())),
        Request::MapRange {
            key,
            branch,
            start,
            end,
            limit,
        } => {
            let spec = VersionSpec::Branch(branch);
            let page = Backend::map_range_at(db, &key, &spec, start, end, limit)?;
            Ok(Reply::Page(page))
        }
        Request::ListKeys => Ok(Reply::Keys(db.list_keys())),
        Request::StoredBytes => Ok(Reply::Count(ChunkStore::stored_bytes(db.store()))),
        Request::Gc => Ok(Reply::Gc(db.gc()?)),
        Request::Batch { ops } => Ok(Reply::Outcomes(Backend::commit_batch(db, ops)?)),
        Request::ExportBundle { keys } => {
            let mut buf = Vec::new();
            export_bundle_keys(db, &keys, &mut buf)?;
            Ok(Reply::Blob(buf))
        }
        Request::ImportBundle { bundle } => {
            import_bundle(db, &mut bundle.as_slice())?;
            Ok(Reply::Unit)
        }
        Request::ForgetKeys { keys } => {
            for key in &keys {
                db.forget_key(key);
            }
            Ok(Reply::Unit)
        }
        Request::LoadRefs { refs } => {
            db.load_refs(&refs)?;
            Ok(Reply::Unit)
        }
        Request::DumpRefs => Ok(Reply::Text(db.dump_refs())),
        Request::Replicate { bundle } => {
            let refs = import_bundle_replace(db, &mut bundle.as_slice())?;
            Ok(Reply::Count(refs.len() as u64))
        }
        Request::GetAt { key, spec } => Ok(Reply::Got(Backend::get_at(db, &key, &spec)?)),
        Request::BranchFromVersion {
            key,
            uid,
            new_branch,
        } => {
            Backend::branch_from_version(db, &key, &uid, &new_branch)?;
            Ok(Reply::Unit)
        }
        Request::DeleteBranch { key, branch } => {
            Backend::delete_branch(db, &key, &branch)?;
            Ok(Reply::Unit)
        }
        Request::DiffSpecs { key, from, to } => {
            Ok(Reply::Diff(Backend::diff_specs(db, &key, &from, &to)?))
        }
        Request::MapRangeAt {
            key,
            spec,
            start,
            end,
            limit,
        } => {
            let page = Backend::map_range_at(db, &key, &spec, start, end, limit)?;
            Ok(Reply::Page(page))
        }
    }
}

/// Whether this request mutates servelet state — the TCP server persists
/// refs after these before acking, so an acked write survives a process
/// kill.
pub fn mutates(req: &Request) -> bool {
    req.retry_class().1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    fn roundtrip_rep(rep: Reply) {
        let body = rep.encode();
        assert_eq!(Reply::decode(&body).unwrap(), rep);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Probe);
        roundtrip_req(Request::Put {
            key: "k".into(),
            value: Value::string("v"),
            opts: PutOptions::default(),
        });
        roundtrip_req(Request::PutBlob {
            key: "k".into(),
            content: Bytes::from_static(b"\x00\x01\x02"),
            opts: PutOptions::on_branch("dev"),
        });
        roundtrip_req(Request::Get {
            key: "k".into(),
            branch: "master".into(),
        });
        roundtrip_req(Request::Heads {
            pairs: vec![("a".into(), "master".into()), ("b".into(), "dev".into())],
        });
        roundtrip_req(Request::MapRange {
            key: "t".into(),
            branch: "master".into(),
            start: Some(Bytes::from_static(b"a")),
            end: None,
            limit: 100,
        });
        roundtrip_req(Request::Batch {
            ops: vec![
                WireOp::Put {
                    key: "k".into(),
                    value: Value::Int(7),
                    opts: PutOptions::default(),
                },
                WireOp::DeleteBranch {
                    key: "k".into(),
                    branch: "dev".into(),
                },
            ],
        });
        roundtrip_req(Request::ExportBundle {
            keys: vec!["a".into(), "b".into()],
        });
        roundtrip_req(Request::ImportBundle {
            bundle: vec![1, 2, 3],
        });
        roundtrip_req(Request::ForgetKeys { keys: vec![] });
        roundtrip_req(Request::LoadRefs {
            refs: "refs text".into(),
        });
        roundtrip_req(Request::DumpRefs);
        roundtrip_req(Request::Replicate {
            bundle: vec![9, 8, 7],
        });
        roundtrip_req(Request::Stat);
        roundtrip_req(Request::ListKeys);
        roundtrip_req(Request::StoredBytes);
        roundtrip_req(Request::Gc);
        roundtrip_req(Request::GetAt {
            key: "k".into(),
            spec: VersionSpec::Branch("fork/f1".into()),
        });
        roundtrip_req(Request::GetAt {
            key: "k".into(),
            spec: VersionSpec::Version(forkbase_crypto::sha256(b"base")),
        });
        roundtrip_req(Request::BranchFromVersion {
            key: "k".into(),
            uid: forkbase_crypto::sha256(b"base"),
            new_branch: "fork/f1".into(),
        });
        roundtrip_req(Request::DeleteBranch {
            key: "k".into(),
            branch: "fork/f1".into(),
        });
        roundtrip_req(Request::DiffSpecs {
            key: "k".into(),
            from: VersionSpec::Version(forkbase_crypto::sha256(b"base")),
            to: VersionSpec::Branch("fork/f1".into()),
        });
        roundtrip_req(Request::MapRangeAt {
            key: "t".into(),
            spec: VersionSpec::Version(forkbase_crypto::sha256(b"base")),
            start: Some(Bytes::from_static(b"a")),
            end: Some(Bytes::from_static(b"z")),
            limit: 10,
        });
    }

    #[test]
    fn reply_roundtrips() {
        let uid = forkbase_crypto::sha256(b"x");
        roundtrip_rep(Reply::Unit);
        roundtrip_rep(Reply::Committed(CommitResult {
            uid,
            branch: "master".into(),
        }));
        roundtrip_rep(Reply::Got(GetResult {
            value: Value::Float(1.5),
            uid,
        }));
        roundtrip_rep(Reply::Uids(vec![uid, forkbase_crypto::sha256(b"y")]));
        roundtrip_rep(Reply::Page(MapPage {
            entries: vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
            truncated: true,
            version: uid,
        }));
        roundtrip_rep(Reply::Keys(vec!["a".into(), "b".into()]));
        roundtrip_rep(Reply::Count(42));
        roundtrip_rep(Reply::Blob(vec![9, 9, 9]));
        roundtrip_rep(Reply::Text("refs".into()));
        roundtrip_rep(Reply::Outcomes(vec![
            BatchOutcome::Committed(CommitResult {
                uid,
                branch: "master".into(),
            }),
            BatchOutcome::Deleted {
                key: "k".into(),
                branch: "dev".into(),
            },
        ]));
        roundtrip_rep(Reply::Diff(DiffSummary::Identical));
        roundtrip_rep(Reply::Diff(DiffSummary::Primitive {
            from: Value::Int(1),
            to: Value::string("two"),
        }));
        roundtrip_rep(Reply::Diff(DiffSummary::Map {
            added: 3,
            removed: 1,
            modified: 2,
            entries: vec![
                MapEntryDelta {
                    key: Bytes::from_static(b"row1"),
                    from: None,
                    to: Some(Bytes::from_static(b"new")),
                },
                MapEntryDelta {
                    key: Bytes::from_static(b"row2"),
                    from: Some(Bytes::from_static(b"old")),
                    to: None,
                },
            ],
        }));
        roundtrip_rep(Reply::Diff(DiffSummary::Chunked {
            from_len: 1,
            to_len: 2,
            shared_chunks: 3,
            shared_bytes: 4,
            from_chunks: 5,
            to_chunks: 6,
        }));
        roundtrip_rep(Reply::Err(WireError::NoSuchKey { key: "k".into() }));
        roundtrip_rep(Reply::Err(WireError::ServeletTimeout { servelet: 7 }));
        roundtrip_rep(Reply::Err(WireError::RateLimited {
            retry_after_ms: 250,
        }));
        roundtrip_rep(Reply::Err(WireError::Remote {
            code: "merge_conflicts".into(),
            message: "merge found 2 conflict(s)".into(),
        }));
    }

    #[test]
    fn stat_and_gc_roundtrip_field_for_field() {
        let stat = DbStat {
            keys: 1,
            branches: 2,
            store: forkbase_store::StoreStats {
                unique_chunks: 3,
                stored_bytes: 4,
                puts: 5,
                logical_bytes: 6,
                dedup_hits: 7,
                dedup_saved_bytes: 8,
                gets: 9,
                misses: 10,
                compaction_chunks_rewritten: 11,
                compaction_bytes_rewritten: 12,
                sweep_chunks_reclaimed: 13,
                sweep_bytes_reclaimed: 14,
            },
        };
        let body = Reply::Stat(stat.clone()).encode();
        match Reply::decode(&body).unwrap() {
            Reply::Stat(got) => {
                assert_eq!(got.keys, stat.keys);
                assert_eq!(got.branches, stat.branches);
                assert_eq!(got.store, stat.store);
            }
            other => panic!("wrong reply: {other:?}"),
        }
        let gc = GcReport {
            live_chunks: 1,
            sweep: forkbase_store::SweepReport {
                chunks_reclaimed: 2,
                bytes_reclaimed: 3,
                chunks_rewritten: 4,
                bytes_rewritten: 5,
                segments_deleted: 6,
                disk_bytes_before: 7,
                disk_bytes_after: 8,
            },
        };
        roundtrip_rep(Reply::Gc(gc));
    }

    #[test]
    fn frame_roundtrip_and_rejection() {
        let body = Request::Get {
            key: "k".into(),
            branch: "master".into(),
        }
        .encode();
        let frame = encode_frame(&body);
        let got = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(got, body);

        // Torn: cut the frame anywhere and the reader reports Torn.
        for cut in 1..frame.len() {
            let r = read_frame(&mut frame[..cut].as_ref());
            assert!(
                matches!(r, Err(FrameError::Torn)),
                "cut at {cut} gave {r:?}"
            );
        }

        // Bad CRC: flip one payload bit.
        let mut bad = frame.clone();
        bad[6] ^= 0x40;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadCrc)
        ));

        // Bad version byte (CRC recomputed so the version check is what
        // fires).
        let mut vbad = frame.clone();
        vbad[4] = 99;
        let len = vbad.len();
        let crc = crc32(&vbad[4..len - 4]);
        vbad[len - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut vbad.as_slice()),
            Err(FrameError::BadVersion(99))
        ));

        // Every version in the supported range is accepted, and the
        // versioned reader reports which one arrived — a v1 router's
        // frames still parse on a v2 servelet.
        for v in MIN_WIRE_VERSION..=WIRE_VERSION {
            let old = encode_frame_with_version(v, &body);
            let (got_v, got_body) = read_frame_versioned(&mut old.as_slice()).unwrap();
            assert_eq!(got_v, v);
            assert_eq!(got_body, body);
        }

        // Hostile length prefix: rejected before allocation.
        let mut huge = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 16]);
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn decoder_rejects_implausible_interior_counts() {
        // A Heads request claiming 4 billion pairs in a tiny body, or 64
        // pairs with 64 bytes behind them (a (String, String) is at least
        // 8 bytes), is refused before anything is reserved for the pairs.
        for (count, behind) in [(u32::MAX, 0), (64, 64)] {
            let mut body = vec![REQ_HEADS];
            put_u32(&mut body, count);
            body.resize(body.len() + behind, 0);
            match Request::decode(&body) {
                Err(DbError::InvalidInput(m)) => {
                    assert!(m.contains("implausible element count"), "{m}")
                }
                other => panic!("wrong outcome: {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_reply_names_the_variant_and_tag() {
        let page = Reply::Page(MapPage {
            entries: vec![],
            truncated: false,
            version: Uid::from_bytes(U7),
        });
        match page.expect_commit() {
            Err(DbError::InvalidInput(m)) => {
                assert_eq!(m, "unexpected wire reply: wanted commit, got page (0x85)")
            }
            other => panic!("wrong outcome: {other:?}"),
        }
        // A carried error is that error, not a mismatch.
        let err = Reply::Err(WireError::NoSuchKey { key: "k".into() })
            .expect_page()
            .unwrap_err();
        assert_eq!(err.code(), "no_such_key");
    }

    #[test]
    fn every_verb_pins_its_retry_and_persist_flags() {
        let k = || String::from("k");
        let spec = || VersionSpec::Branch("b".into());
        // (verb, idempotent, mutates)
        let cases = vec![
            (Request::Probe, true, false),
            (
                Request::Put {
                    key: k(),
                    value: Value::Int(1),
                    opts: PutOptions::default(),
                },
                false,
                true,
            ),
            (
                Request::PutBlob {
                    key: k(),
                    content: Bytes::new(),
                    opts: PutOptions::default(),
                },
                false,
                true,
            ),
            (
                Request::Get {
                    key: k(),
                    branch: k(),
                },
                true,
                false,
            ),
            (Request::Heads { pairs: vec![] }, true, false),
            (Request::Stat, true, false),
            (
                Request::MapRange {
                    key: k(),
                    branch: k(),
                    start: None,
                    end: None,
                    limit: 1,
                },
                true,
                false,
            ),
            (Request::ListKeys, true, false),
            (Request::StoredBytes, true, false),
            (Request::Gc, false, true),
            (Request::Batch { ops: vec![] }, false, true),
            (Request::ExportBundle { keys: vec![] }, false, false),
            (Request::ImportBundle { bundle: vec![] }, false, true),
            (Request::ForgetKeys { keys: vec![] }, false, true),
            (Request::LoadRefs { refs: k() }, false, true),
            (Request::DumpRefs, true, false),
            (Request::Replicate { bundle: vec![] }, true, true),
            (
                Request::GetAt {
                    key: k(),
                    spec: spec(),
                },
                true,
                false,
            ),
            (
                Request::BranchFromVersion {
                    key: k(),
                    uid: Uid::from_bytes(U7),
                    new_branch: k(),
                },
                false,
                true,
            ),
            (
                Request::DeleteBranch {
                    key: k(),
                    branch: k(),
                },
                false,
                true,
            ),
            (
                Request::DiffSpecs {
                    key: k(),
                    from: spec(),
                    to: spec(),
                },
                true,
                false,
            ),
            (
                Request::MapRangeAt {
                    key: k(),
                    spec: spec(),
                    start: None,
                    end: None,
                    limit: 1,
                },
                true,
                false,
            ),
        ];
        let tags: std::collections::BTreeSet<u8> =
            cases.iter().map(|(req, _, _)| req.encode()[0]).collect();
        assert_eq!(tags.len(), 22, "one case per request verb");
        for (req, idempotent, mutating) in cases {
            assert_eq!(
                (req.idempotent(), mutates(&req)),
                (idempotent, mutating),
                "{req:?}"
            );
        }
    }

    // ------------------------------------------------------------------
    // GOLDEN BYTES — frozen wire format.
    //
    // These pin the exact encoding of representative requests, replies,
    // and a full frame. If one of these fails, the wire format changed:
    // either revert the change or bump WIRE_VERSION and document the new
    // format in PROTOCOL.md. Re-tagging silently is a format break for
    // every deployed servelet.
    // ------------------------------------------------------------------

    #[test]
    fn golden_request_bytes() {
        let req = Request::Get {
            key: "k".into(),
            branch: "b".into(),
        };
        assert_eq!(req.encode(), vec![0x04, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'b']);

        let put = Request::Put {
            key: "k".into(),
            value: Value::Int(1),
            opts: PutOptions {
                branch: "m".into(),
                author: "a".into(),
                message: String::new(),
            },
        };
        assert_eq!(
            put.encode(),
            vec![
                0x02, // tag
                1, 0, 0, 0, b'k', // key
                9, 0, 0, 0, 0x02, 1, 0, 0, 0, 0, 0, 0, 0, // Value::Int(1)
                1, 0, 0, 0, b'm', // branch
                1, 0, 0, 0, b'a', // author
                0, 0, 0, 0, // message
            ]
        );

        assert_eq!(Request::Probe.encode(), vec![0x01]);
        assert_eq!(Request::Stat.encode(), vec![0x06]);
        assert_eq!(Request::ListKeys.encode(), vec![0x08]);
        assert_eq!(Request::StoredBytes.encode(), vec![0x09]);
        assert_eq!(Request::Gc.encode(), vec![0x0A]);
        assert_eq!(Request::DumpRefs.encode(), vec![0x24]);
        assert_eq!(
            Request::Replicate {
                bundle: vec![1, 2, 3],
            }
            .encode(),
            vec![0x25, 3, 0, 0, 0, 1, 2, 3]
        );

        // Wire-version-3 verbs.
        assert_eq!(
            Request::GetAt {
                key: "k".into(),
                spec: VersionSpec::Branch("b".into()),
            }
            .encode(),
            vec![0x26, 1, 0, 0, 0, b'k', 0x01, 1, 0, 0, 0, b'b']
        );
        let uid = forkbase_crypto::sha256(b"base");
        let mut want = vec![0x26, 1, 0, 0, 0, b'k', 0x02];
        want.extend_from_slice(uid.as_bytes());
        assert_eq!(
            Request::GetAt {
                key: "k".into(),
                spec: VersionSpec::Version(uid),
            }
            .encode(),
            want
        );
        let mut want = vec![0x27, 1, 0, 0, 0, b'k'];
        want.extend_from_slice(uid.as_bytes());
        want.extend_from_slice(&[1, 0, 0, 0, b'f']);
        assert_eq!(
            Request::BranchFromVersion {
                key: "k".into(),
                uid,
                new_branch: "f".into(),
            }
            .encode(),
            want
        );
        assert_eq!(
            Request::DeleteBranch {
                key: "k".into(),
                branch: "f".into(),
            }
            .encode(),
            vec![0x28, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'f']
        );
    }

    #[test]
    fn golden_reply_bytes() {
        assert_eq!(Reply::Unit.encode(), vec![0x80]);
        assert_eq!(Reply::Count(7).encode(), vec![0x87, 7, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            Reply::Err(WireError::ServeletUnavailable { servelet: 3 }).encode(),
            vec![0xEE, 0x07, 3, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            Reply::Err(WireError::NoSuchKey { key: "k".into() }).encode(),
            vec![0xEE, 0x01, 1, 0, 0, 0, b'k']
        );
        assert_eq!(
            Reply::Diff(DiffSummary::Identical).encode(),
            vec![0x8C, 0x01]
        );
        assert_eq!(
            Reply::Err(WireError::RateLimited { retry_after_ms: 7 }).encode(),
            vec![0xEE, 0x0C, 7, 0, 0, 0, 0, 0, 0, 0]
        );
    }

    /// A fixed 32-byte uid for the per-tag golden vectors below.
    const U7: [u8; 32] = [7; 32];

    /// Little-endian u64 fields, concatenated.
    fn le64(vals: &[u64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn golden_bytes_for_every_request_tag() {
        let uid = Uid::from_bytes(U7);
        let m_opts = PutOptions {
            branch: "m".into(),
            author: "a".into(),
            message: String::new(),
        };
        let cases: Vec<(Request, Vec<u8>)> = vec![
            (
                Request::PutBlob {
                    key: "k".into(),
                    content: Bytes::from_static(&[0, 1, 2]),
                    opts: m_opts.clone(),
                },
                [
                    &[0x03, 1, 0, 0, 0, b'k', 3, 0, 0, 0, 0, 1, 2][..],
                    &[1, 0, 0, 0, b'm', 1, 0, 0, 0, b'a', 0, 0, 0, 0],
                ]
                .concat(),
            ),
            (
                Request::Heads {
                    pairs: vec![("a".into(), "m".into())],
                },
                vec![0x05, 1, 0, 0, 0, 1, 0, 0, 0, b'a', 1, 0, 0, 0, b'm'],
            ),
            (
                Request::MapRange {
                    key: "k".into(),
                    branch: "m".into(),
                    start: Some(Bytes::from_static(b"a")),
                    end: None,
                    limit: 2,
                },
                [
                    &[0x07, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'm'][..],
                    &[1, 1, 0, 0, 0, b'a', 0],
                    &le64(&[2]),
                ]
                .concat(),
            ),
            (
                Request::Batch {
                    ops: vec![
                        WireOp::Put {
                            key: "k".into(),
                            value: Value::Int(1),
                            opts: PutOptions {
                                branch: "m".into(),
                                author: String::new(),
                                message: String::new(),
                            },
                        },
                        WireOp::DeleteBranch {
                            key: "k".into(),
                            branch: "d".into(),
                        },
                    ],
                },
                [
                    &[0x0B, 2, 0, 0, 0][..],
                    &[0x01, 1, 0, 0, 0, b'k'],
                    &[9, 0, 0, 0, 0x02, 1, 0, 0, 0, 0, 0, 0, 0],
                    &[1, 0, 0, 0, b'm', 0, 0, 0, 0, 0, 0, 0, 0],
                    &[0x02, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'd'],
                ]
                .concat(),
            ),
            (
                Request::ExportBundle {
                    keys: vec!["a".into(), "b".into()],
                },
                vec![0x20, 2, 0, 0, 0, 1, 0, 0, 0, b'a', 1, 0, 0, 0, b'b'],
            ),
            (
                Request::ImportBundle {
                    bundle: vec![1, 2, 3],
                },
                vec![0x21, 3, 0, 0, 0, 1, 2, 3],
            ),
            (
                Request::ForgetKeys {
                    keys: vec!["a".into()],
                },
                vec![0x22, 1, 0, 0, 0, 1, 0, 0, 0, b'a'],
            ),
            (
                Request::LoadRefs { refs: "r".into() },
                vec![0x23, 1, 0, 0, 0, b'r'],
            ),
            (
                Request::DiffSpecs {
                    key: "k".into(),
                    from: VersionSpec::Version(uid),
                    to: VersionSpec::Branch("b".into()),
                },
                [
                    &[0x29, 1, 0, 0, 0, b'k', 0x02][..],
                    &U7,
                    &[0x01, 1, 0, 0, 0, b'b'],
                ]
                .concat(),
            ),
            (
                Request::MapRangeAt {
                    key: "k".into(),
                    spec: VersionSpec::Branch("b".into()),
                    start: None,
                    end: Some(Bytes::from_static(b"z")),
                    limit: 1,
                },
                [
                    &[0x2A, 1, 0, 0, 0, b'k', 0x01, 1, 0, 0, 0, b'b'][..],
                    &[0, 1, 1, 0, 0, 0, b'z'],
                    &le64(&[1]),
                ]
                .concat(),
            ),
        ];
        for (req, want) in cases {
            assert_eq!(req.encode(), want, "{req:?}");
            assert_eq!(Request::decode(&want).unwrap(), req);
        }
    }

    #[test]
    fn golden_bytes_for_every_reply_shape() {
        let uid = Uid::from_bytes(U7);
        let stat = DbStat {
            keys: 1,
            branches: 2,
            store: forkbase_store::StoreStats {
                unique_chunks: 3,
                stored_bytes: 4,
                puts: 5,
                logical_bytes: 6,
                dedup_hits: 7,
                dedup_saved_bytes: 8,
                gets: 9,
                misses: 10,
                compaction_chunks_rewritten: 11,
                compaction_bytes_rewritten: 12,
                sweep_chunks_reclaimed: 13,
                sweep_bytes_reclaimed: 14,
            },
        };
        let gc = GcReport {
            live_chunks: 1,
            sweep: forkbase_store::SweepReport {
                chunks_reclaimed: 2,
                bytes_reclaimed: 3,
                chunks_rewritten: 4,
                bytes_rewritten: 5,
                segments_deleted: 6,
                disk_bytes_before: 7,
                disk_bytes_after: 8,
            },
        };
        let cases: Vec<(Reply, Vec<u8>)> = vec![
            (
                Reply::Committed(CommitResult {
                    uid,
                    branch: "m".into(),
                }),
                [&[0x81][..], &U7, &[1, 0, 0, 0, b'm']].concat(),
            ),
            (
                Reply::Got(GetResult {
                    value: Value::Bool(true),
                    uid,
                }),
                [&[0x82, 2, 0, 0, 0, 0x01, 1][..], &U7].concat(),
            ),
            (
                Reply::Uids(vec![uid]),
                [&[0x83, 1, 0, 0, 0][..], &U7].concat(),
            ),
            (
                Reply::Stat(stat),
                [
                    &[0x84][..],
                    &le64(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
                ]
                .concat(),
            ),
            (
                Reply::Page(MapPage {
                    entries: vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
                    truncated: true,
                    version: uid,
                }),
                [
                    &[0x85, 1, 0, 0, 0, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'v', 1][..],
                    &U7,
                ]
                .concat(),
            ),
            (
                Reply::Keys(vec!["a".into()]),
                vec![0x86, 1, 0, 0, 0, 1, 0, 0, 0, b'a'],
            ),
            (
                Reply::Gc(gc),
                [&[0x88][..], &le64(&[1, 2, 3, 4, 5, 6, 7, 8])].concat(),
            ),
            (
                Reply::Outcomes(vec![
                    BatchOutcome::Committed(CommitResult {
                        uid,
                        branch: "m".into(),
                    }),
                    BatchOutcome::Deleted {
                        key: "k".into(),
                        branch: "d".into(),
                    },
                ]),
                [
                    &[0x89, 2, 0, 0, 0, 0x01][..],
                    &U7,
                    &[1, 0, 0, 0, b'm'],
                    &[0x02, 1, 0, 0, 0, b'k', 1, 0, 0, 0, b'd'],
                ]
                .concat(),
            ),
            (Reply::Blob(vec![9, 8]), vec![0x8A, 2, 0, 0, 0, 9, 8]),
            (Reply::Text("t".into()), vec![0x8B, 1, 0, 0, 0, b't']),
        ];
        for (rep, want) in cases {
            assert_eq!(rep.encode(), want, "{rep:?}");
            assert_eq!(Reply::decode(&want).unwrap(), rep);
        }
    }

    #[test]
    fn golden_bytes_for_every_diff_shape() {
        let cases: Vec<(DiffSummary, Vec<u8>)> = vec![
            (
                DiffSummary::Primitive {
                    from: Value::Int(1),
                    to: Value::Bool(false),
                },
                [
                    &[0x8C, 0x02, 9, 0, 0, 0, 0x02][..],
                    &le64(&[1]),
                    &[2, 0, 0, 0, 0x01, 0],
                ]
                .concat(),
            ),
            (
                DiffSummary::Map {
                    added: 1,
                    removed: 2,
                    modified: 3,
                    entries: vec![MapEntryDelta {
                        key: Bytes::from_static(b"k"),
                        from: None,
                        to: Some(Bytes::from_static(b"v")),
                    }],
                },
                [
                    &[0x8C, 0x03][..],
                    &le64(&[1, 2, 3]),
                    &[1, 0, 0, 0, 1, 0, 0, 0, b'k', 0, 1, 1, 0, 0, 0, b'v'],
                ]
                .concat(),
            ),
            (
                DiffSummary::Chunked {
                    from_len: 1,
                    to_len: 2,
                    shared_chunks: 3,
                    shared_bytes: 4,
                    from_chunks: 5,
                    to_chunks: 6,
                },
                [&[0x8C, 0x04][..], &le64(&[1, 2, 3, 4, 5, 6])].concat(),
            ),
        ];
        for (diff, want) in cases {
            let rep = Reply::Diff(diff);
            assert_eq!(rep.encode(), want, "{rep:?}");
            assert_eq!(Reply::decode(&want).unwrap(), rep);
        }
    }

    #[test]
    fn golden_bytes_for_every_error_shape() {
        let kb = [1, 0, 0, 0, b'k', 1, 0, 0, 0, b'b'];
        let m = [1, 0, 0, 0, b'm'];
        let cases: Vec<(WireError, Vec<u8>)> = vec![
            (
                WireError::NoSuchBranch {
                    key: "k".into(),
                    branch: "b".into(),
                },
                [&[0xEE, 0x02][..], &kb].concat(),
            ),
            (
                WireError::NoSuchVersion {
                    uid: Uid::from_bytes(U7),
                },
                [&[0xEE, 0x03][..], &U7].concat(),
            ),
            (
                WireError::BranchExists {
                    key: "k".into(),
                    branch: "b".into(),
                },
                [&[0xEE, 0x04][..], &kb].concat(),
            ),
            (
                WireError::NoCommonAncestor {
                    a: Uid::from_bytes(U7),
                    b: Uid::from_bytes([8; 32]),
                },
                [&[0xEE, 0x05][..], &U7, &[8; 32]].concat(),
            ),
            (
                WireError::TamperDetected {
                    message: "m".into(),
                },
                [&[0xEE, 0x06][..], &m].concat(),
            ),
            (
                WireError::ServeletTimeout { servelet: 9 },
                [&[0xEE, 0x08][..], &le64(&[9])].concat(),
            ),
            (
                WireError::PermissionDenied {
                    message: "m".into(),
                },
                [&[0xEE, 0x09][..], &m].concat(),
            ),
            (
                WireError::InvalidInput {
                    message: "m".into(),
                },
                [&[0xEE, 0x0A][..], &m].concat(),
            ),
            (
                WireError::Remote {
                    code: "c".into(),
                    message: "m".into(),
                },
                [&[0xEE, 0x0B, 1, 0, 0, 0, b'c'][..], &m].concat(),
            ),
        ];
        for (err, want) in cases {
            let rep = Reply::Err(err);
            assert_eq!(rep.encode(), want, "{rep:?}");
            assert_eq!(Reply::decode(&want).unwrap(), rep);
        }
    }

    #[test]
    fn golden_frame_bytes() {
        // A full frame around Probe: len=6 LE, version 1, tag 0x01, CRC.
        let frame = encode_frame(&Request::Probe.encode());
        let crc = crc32(&[WIRE_VERSION, 0x01]).to_le_bytes();
        let mut want = vec![6, 0, 0, 0, WIRE_VERSION, 0x01];
        want.extend_from_slice(&crc);
        assert_eq!(frame, want);
    }

    #[test]
    fn error_mapping_is_bijective_where_structured() {
        let cases = vec![
            DbError::NoSuchKey("k".into()),
            DbError::NoSuchBranch {
                key: "k".into(),
                branch: "b".into(),
            },
            DbError::NoSuchVersion(forkbase_crypto::sha256(b"v")),
            DbError::BranchExists {
                key: "k".into(),
                branch: "b".into(),
            },
            DbError::NoCommonAncestor(forkbase_crypto::sha256(b"a"), forkbase_crypto::sha256(b"b")),
            DbError::TamperDetected("m".into()),
            DbError::ServeletUnavailable { servelet: 1 },
            DbError::ServeletTimeout { servelet: 2 },
            DbError::PermissionDenied("m".into()),
            DbError::InvalidInput("m".into()),
            DbError::RateLimited {
                retry_after_ms: 100,
            },
        ];
        for e in cases {
            let code = e.code();
            let w = WireError::from(&e);
            let back = w.into_db();
            assert_eq!(back.code(), code, "code survives the wire: {back:?}");
        }
        // Unstructured errors keep their stable code through Remote.
        let merge = DbError::MergeConflicts(Vec::new());
        let back = WireError::from(&merge).into_db();
        assert_eq!(back.code(), "merge_conflicts");
        let fork = DbError::ForkExpired { fork: "f1".into() };
        let back = WireError::from(&fork).into_db();
        assert_eq!(back.code(), "fork_expired");
    }
}
