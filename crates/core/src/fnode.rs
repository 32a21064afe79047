//! FNode: the version node of the derivation graph (paper §II-D).
//!
//! "Each node in the graph is a structure called FNode, and links between
//! FNodes represent their derivation relationships. Each FNode is
//! associated with a uid representing its version […] The uid uniquely
//! identifies both the object value and its derivation history."
//!
//! The uid is the SHA-256 of the FNode's canonical encoding. Because the
//! encoding embeds the value (whose collections are Merkle roots) *and*
//! the parent uids (`bases`, a hash chain), two FNodes are equal iff they
//! hold the same value **and** the same history — exactly the paper's
//! equivalence. Rendered to users in RFC 4648 Base32 (§III-C).

use bytes::Bytes;
use forkbase_crypto::{sha256, Hash};
use forkbase_store::ChunkStore;
use forkbase_types::Value;

use crate::error::{DbError, DbResult};

/// A version identifier: SHA-256 of the FNode encoding, shown as Base32.
pub type Uid = Hash;

const FNODE_MAGIC: u8 = b'F';

/// One node of the version derivation DAG.
#[derive(Clone, Debug, PartialEq)]
pub struct FNode {
    /// The object key this version belongs to.
    pub key: String,
    /// The value at this version.
    pub value: Value,
    /// Parent version uids: empty for an initial Put, one for an ordinary
    /// Put, two for a merge (ours, theirs).
    pub bases: Vec<Uid>,
    /// Who committed this version.
    pub author: String,
    /// Commit message.
    pub message: String,
    /// Logical commit counter (monotone per database instance); part of
    /// the hashed content so replayed commits at different times differ
    /// only if their position in history differs.
    pub logical_time: u64,
}

/// Canonical FNode encoding built from borrowed parts. This is THE
/// definition of the version content-addressing: [`FNode::encode`] and the
/// commit path's staging ([`encode_parts_with_uid`]) both call it, so a
/// committed version and an `FNode` built by hand from the same content
/// can never encode (or hash) differently.
pub(crate) fn encode_parts(
    key: &str,
    value: &Value,
    bases: &[Uid],
    author: &str,
    message: &str,
    logical_time: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.push(FNODE_MAGIC);
    put_bytes(&mut out, key.as_bytes());
    let value = value.encode();
    put_bytes(&mut out, &value);
    out.extend_from_slice(&(bases.len() as u32).to_le_bytes());
    for b in bases {
        out.extend_from_slice(b.as_bytes());
    }
    put_bytes(&mut out, author.as_bytes());
    put_bytes(&mut out, message.as_bytes());
    out.extend_from_slice(&logical_time.to_le_bytes());
    out
}

/// [`encode_parts`] plus the uid, without materializing an [`FNode`] (and
/// therefore without cloning key/author/message into owned `String`s) —
/// the allocation-free staging every commit (puts, batches, merges) goes
/// through.
pub(crate) fn encode_parts_with_uid(
    key: &str,
    value: &Value,
    bases: &[Uid],
    author: &str,
    message: &str,
    logical_time: u64,
) -> (Uid, Vec<u8>) {
    let bytes = encode_parts(key, value, bases, author, message, logical_time);
    (sha256(&bytes), bytes)
}

impl FNode {
    /// Canonical encoding; its SHA-256 is the uid.
    pub fn encode(&self) -> Vec<u8> {
        encode_parts(
            &self.key,
            &self.value,
            &self.bases,
            &self.author,
            &self.message,
            self.logical_time,
        )
    }

    /// Decode a canonical encoding.
    pub fn decode(bytes: &[u8]) -> DbResult<FNode> {
        let err = |m: &str| DbError::InvalidInput(format!("FNode decode: {m}"));
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> DbResult<&[u8]> {
            let s = bytes.get(*pos..*pos + n).ok_or_else(|| err("truncated"))?;
            *pos += n;
            Ok(s)
        };
        let take_bytes = |pos: &mut usize| -> DbResult<&[u8]> {
            let len = u32::from_le_bytes(take(pos, 4)?.try_into().expect("4 bytes")) as usize;
            take(pos, len)
        };

        if *take(&mut pos, 1)?.first().expect("one byte") != FNODE_MAGIC {
            return Err(err("bad magic"));
        }
        let key =
            String::from_utf8(take_bytes(&mut pos)?.to_vec()).map_err(|_| err("key not UTF-8"))?;
        let value = Value::decode(take_bytes(&mut pos)?)?;
        let n_bases = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        if n_bases > 16 {
            return Err(err("implausible base count"));
        }
        let mut bases = Vec::with_capacity(n_bases);
        for _ in 0..n_bases {
            bases.push(Hash::from_slice(take(&mut pos, 32)?).expect("32 bytes"));
        }
        let author = String::from_utf8(take_bytes(&mut pos)?.to_vec())
            .map_err(|_| err("author not UTF-8"))?;
        let message = String::from_utf8(take_bytes(&mut pos)?.to_vec())
            .map_err(|_| err("message not UTF-8"))?;
        let logical_time = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        if pos != bytes.len() {
            return Err(err("trailing bytes"));
        }
        Ok(FNode {
            key,
            value,
            bases,
            author,
            message,
            logical_time,
        })
    }

    /// The version uid: SHA-256 of the canonical encoding.
    pub fn uid(&self) -> Uid {
        self.encode_with_uid().0
    }

    /// Canonical encoding plus its uid in one pass. [`Self::store`] uses
    /// it; the commit path stages the same bytes from borrowed parts
    /// (`encode_parts_with_uid`), so their uids can never drift apart.
    pub fn encode_with_uid(&self) -> (Uid, Vec<u8>) {
        let bytes = self.encode();
        (sha256(&bytes), bytes)
    }

    /// Persist into the chunk store; returns the uid.
    pub fn store<S: ChunkStore>(&self, store: &S) -> DbResult<Uid> {
        let (uid, bytes) = self.encode_with_uid();
        store.put_with_hash(uid, Bytes::from(bytes))?;
        Ok(uid)
    }

    /// Fetch by uid, verifying the content hashes back to the uid — the
    /// first line of tamper evidence (§II-D): a malicious store cannot
    /// substitute a different FNode without changing the uid.
    pub fn load<S: ChunkStore>(store: &S, uid: &Uid) -> DbResult<FNode> {
        let bytes = store.get(uid)?.ok_or(DbError::NoSuchVersion(*uid))?;
        let actual = sha256(&bytes);
        if actual != *uid {
            return Err(DbError::TamperDetected(format!(
                "FNode at {uid} hashes to {actual}"
            )));
        }
        FNode::decode(&bytes)
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::{FaultMode, FaultyStore, MemStore};

    fn sample() -> FNode {
        FNode {
            key: "dataset-1".into(),
            value: Value::string("v1 content"),
            bases: vec![sha256(b"parent")],
            author: "admin-a".into(),
            message: "initial load".into(),
            logical_time: 42,
        }
    }

    #[test]
    fn borrowed_encoding_is_byte_identical() {
        let f = sample();
        let (uid, bytes) = encode_parts_with_uid(
            &f.key,
            &f.value,
            &f.bases,
            &f.author,
            &f.message,
            f.logical_time,
        );
        assert_eq!(bytes, f.encode());
        assert_eq!(uid, f.uid());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let f = sample();
        let decoded = FNode::decode(&f.encode()).unwrap();
        assert_eq!(decoded, f);
        assert_eq!(decoded.uid(), f.uid());
    }

    #[test]
    fn uid_covers_value_and_history() {
        let base = sample();
        // Different value ⟹ different uid.
        let mut v = base.clone();
        v.value = Value::string("other");
        assert_ne!(v.uid(), base.uid());
        // Different history ⟹ different uid even with the same value.
        let mut h = base.clone();
        h.bases = vec![sha256(b"other parent")];
        assert_ne!(h.uid(), base.uid());
        // Same everything ⟹ same uid (FNode equivalence, §II-D).
        assert_eq!(base.clone().uid(), base.uid());
    }

    #[test]
    fn merge_node_has_two_bases() {
        let mut f = sample();
        f.bases = vec![sha256(b"ours"), sha256(b"theirs")];
        let decoded = FNode::decode(&f.encode()).unwrap();
        assert_eq!(decoded.bases.len(), 2);
    }

    #[test]
    fn empty_fields_roundtrip() {
        let f = FNode {
            key: String::new(),
            value: Value::Bool(false),
            bases: vec![],
            author: String::new(),
            message: String::new(),
            logical_time: 0,
        };
        assert_eq!(FNode::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn store_load_roundtrip() {
        let store = MemStore::new();
        let f = sample();
        let uid = f.store(&store).unwrap();
        assert_eq!(uid, f.uid());
        assert_eq!(FNode::load(&store, &uid).unwrap(), f);
    }

    #[test]
    fn load_missing_is_no_such_version() {
        let store = MemStore::new();
        assert!(matches!(
            FNode::load(&store, &sha256(b"nothing")),
            Err(DbError::NoSuchVersion(_))
        ));
    }

    #[test]
    fn tampered_fnode_is_detected() {
        let inner = MemStore::new();
        let f = sample();
        let uid = f.store(&inner).unwrap();
        let store = FaultyStore::new(inner);
        store.inject(uid, FaultMode::FlipBit { byte: 20 });
        assert!(matches!(
            FNode::load(&store, &uid),
            Err(DbError::TamperDetected(_))
        ));
    }

    /// Rewrite one payload byte of the first frame in `dir`'s first pack
    /// file and recompute the frame CRC, in place under the open store:
    /// the frame stays well formed, so only the SHA-256 address can tell.
    fn rewrite_first_frame(dir: &std::path::Path, len: usize) {
        use std::os::unix::fs::FileExt;
        const HEADER: usize = 4 + 4 + 32;
        let path = dir.join("pack-00000000.fbk");
        let mut frame = std::fs::read(&path).unwrap()[..HEADER + len + 4].to_vec();
        frame[HEADER + len / 2] ^= 0x01;
        let crc = forkbase_crypto::crc32(&frame[8..HEADER + len]);
        frame[HEADER + len..].copy_from_slice(&crc.to_le_bytes());
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&frame, 0).unwrap();
    }

    #[test]
    fn crc_matching_rewrite_on_a_file_store_is_detected() {
        // `FileStore::get` checks only its framing; the uid check here is
        // what catches a payload rewritten under a matching CRC.
        let dir =
            std::env::temp_dir().join(format!("forkbase-fnode-rewrite-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = forkbase_store::FileStore::open(&dir).unwrap();
        let encoded = sample().encode();
        let uid = sample().store(&store).unwrap();
        store.sync().unwrap();
        rewrite_first_frame(&dir, encoded.len());
        assert!(matches!(
            FNode::load(&store, &uid),
            Err(DbError::TamperDetected(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn substituted_fnode_is_detected() {
        // The adversary swaps in a perfectly well-formed but different
        // FNode; the uid check still catches it.
        let inner = MemStore::new();
        let honest = sample();
        let uid = honest.store(&inner).unwrap();
        let mut evil = sample();
        evil.value = Value::string("forged");
        let store = FaultyStore::new(inner);
        store.inject(uid, FaultMode::Substitute(Bytes::from(evil.encode())));
        assert!(matches!(
            FNode::load(&store, &uid),
            Err(DbError::TamperDetected(_))
        ));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(FNode::decode(&[]).is_err());
        assert!(FNode::decode(b"garbage").is_err());
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(FNode::decode(&bytes).is_err(), "trailing bytes");
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 3);
        assert!(FNode::decode(&bytes).is_err(), "truncated");
    }

    #[test]
    fn uid_renders_as_base32() {
        let uid = sample().uid();
        let rendered = uid.to_base32();
        assert!(rendered.len() >= 52);
        assert_eq!(Hash::from_base32(&rendered), Some(uid));
    }
}
