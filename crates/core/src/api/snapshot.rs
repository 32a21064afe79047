//! [`Snapshot`]: an immutable, pinned view of one version of a key.
//!
//! Resolving a [`VersionSpec`] costs a branch-table lookup plus one FNode
//! fetch; a `Snapshot` performs that work once and then serves any number
//! of reads against the *same* version — repeated reads skip the head
//! lookup and FNode resolve entirely, and concurrent commits can never
//! shift the data under an open snapshot (versions are immutable).
//! Snapshots are cheaply clonable (the resolved FNode is shared behind an
//! `Arc`), so request handlers can fan one out across worker threads.

use std::io::Write;
use std::sync::Arc;

use bytes::Bytes;
use forkbase_postree::{MerkleProof, PosBlob};
use forkbase_store::ChunkStore;
use forkbase_types::Value;

use super::cursor_ext::{read_blob_to_vec, BlobReader, ListStream, MapRange};
use super::{expect_map, store_io};
use super::{ForkBase, GetResult, HistoryEntry, VersionSpec};
use crate::error::{DbError, DbResult};
use crate::fnode::{FNode, Uid};

impl<S: ChunkStore> ForkBase<S> {
    /// Open an immutable view of `key` at `spec`.
    ///
    /// The spec is resolved and the FNode loaded exactly once; every read
    /// on the returned [`Snapshot`] reuses them. Because versions are
    /// immutable, concurrent **commits** can never change what a snapshot
    /// reads — the branch head moving on does not disturb it.
    ///
    /// Garbage collection is the one exception, as for every value handle
    /// in this API ([`GetResult`] included): [`ForkBase::gc`] reclaims
    /// chunks unreachable from any branch head, so if the snapshot's
    /// version is cut loose (its branch deleted or rewound) and a GC pass
    /// runs, later reads through the snapshot fail loudly with a
    /// missing-chunk error — never silently wrong data. Hold off GC, or
    /// keep the version reachable (e.g. under a branch), while long-lived
    /// snapshots are in flight.
    ///
    /// ```
    /// use forkbase::{ForkBase, PutOptions, VersionSpec};
    /// use forkbase_store::MemStore;
    /// use forkbase_types::Value;
    ///
    /// let db = ForkBase::new(MemStore::new());
    /// db.put("greeting", Value::string("hello"), &PutOptions::default())
    ///     .unwrap();
    /// let snap = db.snapshot("greeting", &VersionSpec::default()).unwrap();
    /// // The snapshot is pinned: later commits don't move it.
    /// db.put("greeting", Value::string("changed"), &PutOptions::default())
    ///     .unwrap();
    /// assert_eq!(snap.value().as_str(), Some("hello"));
    /// ```
    pub fn snapshot(&self, key: &str, spec: &VersionSpec) -> DbResult<Snapshot<'_, S>> {
        let uid = self.resolve(key, spec)?;
        self.snapshot_version(&uid)
    }

    /// Open a snapshot of an explicit historical version uid.
    pub fn snapshot_version(&self, uid: &Uid) -> DbResult<Snapshot<'_, S>> {
        let fnode = FNode::load(&self.store, uid)?;
        Ok(Snapshot {
            db: self,
            uid: *uid,
            fnode: Arc::new(fnode),
        })
    }
}

/// An immutable view of one version of a key, pinned to its uid.
///
/// Created by [`ForkBase::snapshot`] (or [`ForkBase::snapshot_version`]).
/// Carries the resolved [`FNode`], so repeated reads skip the branch-head
/// lookup and version fetch; clones share it. All read verbs have
/// counterparts here — the materializing ones ([`Snapshot::map_entries`])
/// and the streaming ones ([`Snapshot::map_range`],
/// [`Snapshot::list_iter`], [`Snapshot::blob_reader`]) that scan in
/// O(chunk) memory.
pub struct Snapshot<'db, S> {
    db: &'db ForkBase<S>,
    uid: Uid,
    fnode: Arc<FNode>,
}

impl<S> Clone for Snapshot<'_, S> {
    fn clone(&self) -> Self {
        Snapshot {
            db: self.db,
            uid: self.uid,
            fnode: Arc::clone(&self.fnode),
        }
    }
}

impl<'db, S: ChunkStore> Snapshot<'db, S> {
    /// The version uid this snapshot is pinned to.
    pub fn uid(&self) -> Uid {
        self.uid
    }

    /// The key this version belongs to.
    pub fn key(&self) -> &str {
        &self.fnode.key
    }

    /// The value at this version.
    pub fn value(&self) -> &Value {
        &self.fnode.value
    }

    /// Commit metadata of this version.
    pub fn meta(&self) -> HistoryEntry {
        HistoryEntry {
            uid: self.uid,
            author: self.fnode.author.clone(),
            message: self.fnode.message.clone(),
            logical_time: self.fnode.logical_time,
            bases: self.fnode.bases.clone(),
            value_type: self.fnode.value.value_type(),
        }
    }

    /// Convert into a [`GetResult`] (moves the value out when this is the
    /// only handle; clones otherwise).
    pub fn into_get_result(self) -> GetResult {
        let uid = self.uid;
        match Arc::try_unwrap(self.fnode) {
            Ok(fnode) => GetResult {
                value: fnode.value,
                uid,
            },
            Err(shared) => GetResult {
                value: shared.value.clone(),
                uid,
            },
        }
    }

    /// Look up one entry of a map/set value (`O(log N)` node fetches).
    pub fn map_get(&self, entry_key: &[u8]) -> DbResult<Option<Bytes>> {
        let tree = expect_map(&self.fnode.value)?;
        Ok(self.db.map(tree).get(entry_key)?)
    }

    /// All entries of a map/set value (materializing; prefer
    /// [`Self::map_range`] for large values).
    pub fn map_entries(&self) -> DbResult<Vec<(Bytes, Bytes)>> {
        self.map_iter()?.collect()
    }

    /// Entries with `start ≤ key < end` (either bound optional),
    /// materialized. The streaming equivalent is [`Self::map_range`].
    pub fn map_select(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> DbResult<Vec<(Bytes, Bytes)>> {
        let tree = expect_map(&self.fnode.value)?;
        MapRange::open(&self.db.map(tree), start, end)?.collect()
    }

    /// Stream every entry of a map/set value in key order, holding at most
    /// one decoded leaf node in memory.
    pub fn map_iter(&self) -> DbResult<MapRange<'db, S>> {
        let tree = expect_map(&self.fnode.value)?;
        MapRange::open(&self.db.map(tree), None, None)
    }

    /// Stream map/set entries within a key range, e.g.
    /// `snap.map_range(b"a".as_slice()..b"b".as_slice())`. Accepts any
    /// standard range over byte-string-like bounds; memory held is one
    /// decoded leaf node, independent of the value or range size.
    pub fn map_range<B, R>(&self, range: R) -> DbResult<MapRange<'db, S>>
    where
        B: AsRef<[u8]>,
        R: std::ops::RangeBounds<B>,
    {
        use std::ops::Bound;
        let tree = expect_map(&self.fnode.value)?;
        // (bound, exclusive) for the start; (bound, inclusive) for the end.
        let start = match range.start_bound() {
            Bound::Unbounded => None,
            Bound::Included(b) => Some((b.as_ref(), false)),
            Bound::Excluded(b) => Some((b.as_ref(), true)),
        };
        let end = match range.end_bound() {
            Bound::Unbounded => None,
            Bound::Excluded(b) => Some((b.as_ref(), false)),
            Bound::Included(b) => Some((b.as_ref(), true)),
        };
        MapRange::open_bounds(&self.db.map(tree), start, end)
    }

    /// Stream the elements of a list value in order, one leaf node at a
    /// time.
    pub fn list_iter(&self) -> DbResult<ListStream<'db, S>> {
        match &self.fnode.value {
            Value::List(t) => ListStream::open(self.db.store(), *t),
            other => Err(DbError::TypeMismatch {
                expected: "list",
                found: other.value_type().name(),
            }),
        }
    }

    /// Stream a blob value through [`std::io::Read`] without materializing
    /// it: the reader fetches, verifies, and hands out one data chunk at a
    /// time, so copying a 64 MiB blob through an 8 KiB buffer never holds
    /// more than one chunk (plus the O(log N) index path) in memory.
    pub fn blob_reader(&self) -> DbResult<BlobReader<'db, S>> {
        let r = self.fnode.value.blob_ref().ok_or(DbError::TypeMismatch {
            expected: "blob",
            found: self.fnode.value.value_type().name(),
        })?;
        BlobReader::open(self.db.store(), &r)
    }

    /// Read the whole blob value (materializing; prefer
    /// [`Self::blob_reader`] for large blobs).
    pub fn blob_read(&self) -> DbResult<Vec<u8>> {
        let r = self.fnode.value.blob_ref().ok_or(DbError::TypeMismatch {
            expected: "blob",
            found: self.fnode.value.value_type().name(),
        })?;
        read_blob_to_vec(self.db.store(), &r)
    }

    /// Diff this snapshot against another (of the same or another key).
    pub fn diff(&self, other: &Snapshot<'_, S>) -> DbResult<super::ValueDiff> {
        if self.uid == other.uid {
            return Ok(super::ValueDiff::Identical);
        }
        self.db.diff_values(&self.fnode.value, &other.fnode.value)
    }

    /// Produce a Merkle proof that `entry_key` maps to its value (or is
    /// absent) in this version's map value; checkable against
    /// [`Self::uid`] by [`ForkBase::verify_entry_proof`].
    pub fn prove_entry(&self, entry_key: &[u8]) -> DbResult<MerkleProof> {
        let tree = expect_map(&self.fnode.value)?;
        Ok(forkbase_postree::prove_key(
            self.db.store(),
            tree,
            entry_key,
        )?)
    }

    /// Verify this version's value trees (§II-D).
    pub fn verify(&self) -> DbResult<()> {
        self.db.verify_value(&self.fnode.value)
    }

    /// Write this version's content to `out`: blobs and strings raw,
    /// maps/sets/lists as line-oriented text. Streams through the cursors,
    /// so a multi-gigabyte blob export holds one chunk at a time. Returns
    /// bytes written.
    pub fn export(&self, out: &mut dyn Write) -> DbResult<u64> {
        let value = &self.fnode.value;
        let mut written = 0u64;
        match value {
            Value::Blob(r) => {
                let blob = PosBlob::new(self.db.store(), self.db.config());
                let mut cursor = blob.cursor(r)?;
                while let Some(chunk) = cursor.next_chunk().map_err(DbError::Node)? {
                    out.write_all(&chunk).map_err(store_io)?;
                    written += chunk.len() as u64;
                }
                // Same length check `PosBlob::read_all` enforces: a ref
                // whose `len` lies about its chunk tree must not export
                // successfully.
                if written != r.len {
                    return Err(DbError::Node(forkbase_postree::NodeError::Malformed(
                        format!("blob length {} does not match content {written}", r.len),
                    )));
                }
            }
            Value::Str(s) => {
                out.write_all(s.as_bytes()).map_err(store_io)?;
                written += s.len() as u64;
            }
            Value::Map(_) | Value::Set(_) => {
                for item in self.map_iter()? {
                    let (k, v) = item?;
                    out.write_all(&k).map_err(store_io)?;
                    out.write_all(b"\t").map_err(store_io)?;
                    out.write_all(&v).map_err(store_io)?;
                    out.write_all(b"\n").map_err(store_io)?;
                    written += (k.len() + v.len() + 2) as u64;
                }
            }
            Value::List(_) => {
                for el in self.list_iter()? {
                    let el = el?;
                    out.write_all(&el).map_err(store_io)?;
                    out.write_all(b"\n").map_err(store_io)?;
                    written += (el.len() + 1) as u64;
                }
            }
            other => {
                let s = other.summary();
                out.write_all(s.as_bytes()).map_err(store_io)?;
                written += s.len() as u64;
            }
        }
        Ok(written)
    }
}
