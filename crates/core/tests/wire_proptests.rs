//! Property tests for the cluster wire protocol (see `PROTOCOL.md`).
//!
//! Two families of properties:
//!
//! * **Roundtrip**: random `Request` and `Reply` values — covering every
//!   variant and every `WireError` shape — survive
//!   `encode → encode_frame → read_frame → decode` byte-identically.
//! * **Hostile input**: torn frames, oversized length prefixes, and
//!   corrupted bytes are rejected with the right `FrameError`, the
//!   reader never allocates more than the bytes actually received, and
//!   body decoders never panic on garbage.

use bytes::Bytes;
use forkbase::cluster::wire::{
    encode_frame, encode_frame_with_version, read_frame, read_frame_versioned, FrameError, Reply,
    Request, WireError, WireOp, MAX_FRAME_LEN, MIN_WIRE_VERSION, WIRE_VERSION,
};
use forkbase::{
    BatchOutcome, CommitResult, DbStat, DiffSummary, GcReport, GetResult, MapEntryDelta, MapPage,
    PutOptions, Uid, VersionSpec,
};
use forkbase_crypto::crc32;
use forkbase_types::Value;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::{num, option};

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

fn uid() -> BoxedStrategy<Uid> {
    vec(num::u8::ANY, 32usize)
        .prop_map(|b| {
            let mut a = [0u8; 32];
            a.copy_from_slice(&b);
            Uid::from_bytes(a)
        })
        .boxed()
}

fn key() -> BoxedStrategy<String> {
    "[a-z0-9./-]{0,24}".boxed()
}

fn text() -> BoxedStrategy<String> {
    ".{0,32}".boxed()
}

fn raw(max: usize) -> BoxedStrategy<Vec<u8>> {
    vec(num::u8::ANY, 0..max).boxed()
}

fn blob() -> BoxedStrategy<Bytes> {
    raw(64).prop_map(Bytes::from).boxed()
}

fn opts() -> BoxedStrategy<PutOptions> {
    ("[a-z0-9-]{1,12}", "[a-z ]{0,12}", ".{0,16}")
        .prop_map(|(branch, author, message)| PutOptions {
            branch,
            author,
            message,
        })
        .boxed()
}

fn value() -> BoxedStrategy<Value> {
    prop_oneof![
        proptest::bool::ANY.prop_map(Value::Bool),
        num::i64::ANY.prop_map(Value::Int),
        text().prop_map(Value::Str),
    ]
    .boxed()
}

fn spec() -> BoxedStrategy<VersionSpec> {
    prop_oneof![
        key().prop_map(VersionSpec::Branch),
        uid().prop_map(VersionSpec::Version),
    ]
    .boxed()
}

fn wire_op() -> BoxedStrategy<WireOp> {
    prop_oneof![
        (key(), value(), opts()).prop_map(|(key, value, opts)| WireOp::Put { key, value, opts }),
        (key(), key()).prop_map(|(key, branch)| WireOp::DeleteBranch { key, branch }),
    ]
    .boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Probe),
        (key(), value(), opts()).prop_map(|(key, value, opts)| Request::Put { key, value, opts }),
        (key(), blob(), opts()).prop_map(|(key, content, opts)| Request::PutBlob {
            key,
            content,
            opts
        }),
        (key(), key()).prop_map(|(key, branch)| Request::Get { key, branch }),
        vec((key(), key()), 0..6).prop_map(|pairs| Request::Heads { pairs }),
        Just(Request::Stat),
        (
            (key(), key()),
            (option::of(blob()), option::of(blob()), num::u64::ANY)
        )
            .prop_map(|((key, branch), (start, end, limit))| Request::MapRange {
                key,
                branch,
                start,
                end,
                limit,
            }),
        Just(Request::ListKeys),
        Just(Request::StoredBytes),
        Just(Request::Gc),
        vec(wire_op(), 0..5).prop_map(|ops| Request::Batch { ops }),
        vec(key(), 0..6).prop_map(|keys| Request::ExportBundle { keys }),
        raw(96).prop_map(|bundle| Request::ImportBundle { bundle }),
        vec(key(), 0..6).prop_map(|keys| Request::ForgetKeys { keys }),
        ".{0,48}".prop_map(|refs| Request::LoadRefs { refs }),
        Just(Request::DumpRefs),
        raw(96).prop_map(|bundle| Request::Replicate { bundle }),
        (key(), spec()).prop_map(|(key, spec)| Request::GetAt { key, spec }),
        (key(), uid(), key()).prop_map(|(key, uid, new_branch)| Request::BranchFromVersion {
            key,
            uid,
            new_branch
        }),
        (key(), key()).prop_map(|(key, branch)| Request::DeleteBranch { key, branch }),
        (key(), spec(), spec()).prop_map(|(key, from, to)| Request::DiffSpecs { key, from, to }),
        (
            (key(), spec()),
            (option::of(blob()), option::of(blob()), num::u64::ANY)
        )
            .prop_map(|((key, spec), (start, end, limit))| Request::MapRangeAt {
                key,
                spec,
                start,
                end,
                limit,
            }),
    ]
    .boxed()
}

fn wire_error() -> BoxedStrategy<WireError> {
    prop_oneof![
        key().prop_map(|key| WireError::NoSuchKey { key }),
        (key(), key()).prop_map(|(key, branch)| WireError::NoSuchBranch { key, branch }),
        uid().prop_map(|uid| WireError::NoSuchVersion { uid }),
        (key(), key()).prop_map(|(key, branch)| WireError::BranchExists { key, branch }),
        (uid(), uid()).prop_map(|(a, b)| WireError::NoCommonAncestor { a, b }),
        text().prop_map(|message| WireError::TamperDetected { message }),
        num::u64::ANY.prop_map(|servelet| WireError::ServeletUnavailable { servelet }),
        num::u64::ANY.prop_map(|servelet| WireError::ServeletTimeout { servelet }),
        text().prop_map(|message| WireError::PermissionDenied { message }),
        text().prop_map(|message| WireError::InvalidInput { message }),
        num::u64::ANY.prop_map(|retry_after_ms| WireError::RateLimited { retry_after_ms }),
        ("[a-z_]{1,24}", text()).prop_map(|(code, message)| WireError::Remote { code, message }),
    ]
    .boxed()
}

fn outcome() -> BoxedStrategy<BatchOutcome> {
    prop_oneof![
        (uid(), key())
            .prop_map(|(uid, branch)| BatchOutcome::Committed(CommitResult { uid, branch })),
        (key(), key()).prop_map(|(key, branch)| BatchOutcome::Deleted { key, branch }),
    ]
    .boxed()
}

fn stat() -> BoxedStrategy<DbStat> {
    vec(num::u64::ANY, 14usize)
        .prop_map(|v| DbStat {
            keys: v[0],
            branches: v[1],
            store: forkbase_store::StoreStats {
                unique_chunks: v[2],
                stored_bytes: v[3],
                puts: v[4],
                logical_bytes: v[5],
                dedup_hits: v[6],
                dedup_saved_bytes: v[7],
                gets: v[8],
                misses: v[9],
                compaction_chunks_rewritten: v[10],
                compaction_bytes_rewritten: v[11],
                sweep_chunks_reclaimed: v[12],
                sweep_bytes_reclaimed: v[13],
            },
        })
        .boxed()
}

fn gc_report() -> BoxedStrategy<GcReport> {
    vec(num::u64::ANY, 8usize)
        .prop_map(|v| GcReport {
            live_chunks: v[0],
            sweep: forkbase_store::SweepReport {
                chunks_reclaimed: v[1],
                bytes_reclaimed: v[2],
                chunks_rewritten: v[3],
                bytes_rewritten: v[4],
                segments_deleted: v[5],
                disk_bytes_before: v[6],
                disk_bytes_after: v[7],
            },
        })
        .boxed()
}

fn diff() -> BoxedStrategy<DiffSummary> {
    let delta = (blob(), option::of(blob()), option::of(blob()))
        .prop_map(|(key, from, to)| MapEntryDelta { key, from, to });
    prop_oneof![
        Just(DiffSummary::Identical),
        (value(), value()).prop_map(|(from, to)| DiffSummary::Primitive { from, to }),
        (vec(num::u64::ANY, 3usize), vec(delta, 0..5)).prop_map(|(n, entries)| {
            DiffSummary::Map {
                added: n[0],
                removed: n[1],
                modified: n[2],
                entries,
            }
        }),
        vec(num::u64::ANY, 6usize).prop_map(|n| DiffSummary::Chunked {
            from_len: n[0],
            to_len: n[1],
            shared_chunks: n[2],
            shared_bytes: n[3],
            from_chunks: n[4],
            to_chunks: n[5],
        }),
    ]
    .boxed()
}

fn reply() -> BoxedStrategy<Reply> {
    prop_oneof![
        Just(Reply::Unit),
        (uid(), key()).prop_map(|(uid, branch)| Reply::Committed(CommitResult { uid, branch })),
        (value(), uid()).prop_map(|(value, uid)| Reply::Got(GetResult { value, uid })),
        vec(uid(), 0..6).prop_map(Reply::Uids),
        stat().prop_map(Reply::Stat),
        (vec((blob(), blob()), 0..6), proptest::bool::ANY, uid()).prop_map(
            |(entries, truncated, version)| Reply::Page(MapPage {
                entries,
                truncated,
                version,
            })
        ),
        vec(key(), 0..6).prop_map(Reply::Keys),
        num::u64::ANY.prop_map(Reply::Count),
        gc_report().prop_map(Reply::Gc),
        vec(outcome(), 0..5).prop_map(Reply::Outcomes),
        raw(96).prop_map(Reply::Blob),
        ".{0,48}".prop_map(Reply::Text),
        diff().prop_map(Reply::Diff),
        wire_error().prop_map(Reply::Err),
    ]
    .boxed()
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// Every request survives the full body→frame→body→value round trip.
    #[test]
    fn request_roundtrips_through_the_frame_codec(req in request()) {
        let body = req.encode();
        let framed = encode_frame(&body);
        let read = read_frame(&mut framed.as_slice()).expect("well-formed frame");
        prop_assert_eq!(&read, &body, "frame body drifted");
        let decoded = Request::decode(&read).expect("well-formed body");
        prop_assert_eq!(decoded, req);
    }

    /// Every reply — including every error shape — round trips.
    #[test]
    fn reply_roundtrips_through_the_frame_codec(rep in reply()) {
        let body = rep.encode();
        let framed = encode_frame(&body);
        let read = read_frame(&mut framed.as_slice()).expect("well-formed frame");
        prop_assert_eq!(&read, &body, "frame body drifted");
        let decoded = Reply::decode(&read).expect("well-formed body");
        prop_assert_eq!(decoded, rep);
    }

    /// Cutting a frame at ANY byte boundary yields `Torn`, never a
    /// partial decode, a hang, or a panic.
    #[test]
    fn torn_frames_are_rejected(req in request(), cut in num::usize::ANY) {
        let framed = encode_frame(&req.encode());
        let cut = cut % framed.len(); // strictly shorter than the frame
        let result = read_frame(&mut &framed[..cut]);
        prop_assert!(
            matches!(result, Err(FrameError::Torn)),
            "cut at {} of {} gave {:?}",
            cut,
            framed.len(),
            result
        );
    }

    /// A length prefix past `MAX_FRAME_LEN` is rejected before any
    /// payload is read — regardless of what follows it.
    #[test]
    fn oversized_length_prefixes_are_rejected(
        extra in 1u32..=u32::MAX - MAX_FRAME_LEN,
        junk in vec(num::u8::ANY, 0..32),
    ) {
        let claimed = MAX_FRAME_LEN + extra;
        let mut data = claimed.to_le_bytes().to_vec();
        data.extend_from_slice(&junk);
        let result = read_frame(&mut data.as_slice());
        prop_assert!(
            matches!(result, Err(FrameError::TooLarge(n)) if n == claimed),
            "claimed {} gave {:?}",
            claimed,
            result
        );
    }

    /// A huge length prefix *under* the cap with almost no bytes behind
    /// it must fail fast as `Torn` with allocation bounded by the bytes
    /// actually received (the reader tracks received bytes, not the
    /// claimed length — a 200 MiB claim with 8 junk bytes behind it
    /// would OOM-spray under an eager allocator and completes instantly
    /// here).
    #[test]
    fn large_claims_with_tiny_payloads_fail_bounded(
        claimed in (64 * 1024 * 1024u32)..MAX_FRAME_LEN,
        junk in vec(num::u8::ANY, 0..16),
    ) {
        let mut data = claimed.to_le_bytes().to_vec();
        data.extend_from_slice(&junk);
        let result = read_frame(&mut data.as_slice());
        prop_assert!(
            matches!(result, Err(FrameError::Torn)),
            "claimed {} with {} real bytes gave {:?}",
            claimed,
            junk.len(),
            result
        );
    }

    /// Flipping any bit after the length prefix trips the CRC tail.
    #[test]
    fn corrupted_frames_fail_the_crc(req in request(), pos in num::usize::ANY, bit in 0u8..8) {
        let mut framed = encode_frame(&req.encode());
        let pos = 4 + pos % (framed.len() - 4); // anywhere past the prefix
        framed[pos] ^= 1 << bit;
        let result = read_frame(&mut framed.as_slice());
        prop_assert!(
            matches!(result, Err(FrameError::BadCrc)),
            "flip at {} gave {:?}",
            pos,
            result
        );
    }

    /// Every version in the supported range decodes, and the reader
    /// reports the version it saw (servelets echo it in the reply frame
    /// so a down-level peer can parse the answer).
    #[test]
    fn supported_versions_are_accepted_and_reported(
        req in request(),
        version in MIN_WIRE_VERSION..=WIRE_VERSION,
    ) {
        let body = req.encode();
        let framed = encode_frame_with_version(version, &body);
        let (seen, read) = read_frame_versioned(&mut framed.as_slice())
            .expect("supported version");
        prop_assert_eq!(seen, version);
        prop_assert_eq!(&read, &body);
        let decoded = Request::decode(&read).expect("well-formed body");
        prop_assert_eq!(decoded, req);
    }

    /// A frame with a valid CRC but a version outside the supported
    /// range is refused with `BadVersion` (version skew must not decode
    /// as garbage).
    #[test]
    fn foreign_versions_are_rejected(req in request(), version in num::u8::ANY) {
        prop_assume!(!(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version));
        let body = req.encode();
        let len = 1 + body.len() + 4;
        let mut data = Vec::with_capacity(4 + len);
        data.extend_from_slice(&(len as u32).to_le_bytes());
        data.push(version);
        data.extend_from_slice(&body);
        let crc = crc32(&data[4..]);
        data.extend_from_slice(&crc.to_le_bytes());
        let result = read_frame(&mut data.as_slice());
        prop_assert!(
            matches!(result, Err(FrameError::BadVersion(v)) if v == version),
            "version {} gave {:?}",
            version,
            result
        );
    }

    /// Body decoders are total on garbage: random bytes produce
    /// `Ok`/`Err`, never a panic or an out-of-frame read.
    #[test]
    fn decoders_never_panic_on_garbage(body in vec(num::u8::ANY, 0..96)) {
        let _ = Request::decode(&body);
        let _ = Reply::decode(&body);
    }
}
