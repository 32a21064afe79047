//! Streaming read paths over the POS-Tree cursors.
//!
//! Every type here holds O(chunk) state: one decoded leaf node (maps,
//! lists) or one data chunk (blobs), plus the O(log N) root→leaf index
//! path inside the underlying cursor. Scanning a million-entry map or
//! copying a multi-gigabyte blob through these costs the same working
//! memory as reading a single chunk — the materializing verbs
//! (`map_entries`, `list_elements`, `blob_read`) are thin collectors over
//! these same cursors.

use bytes::Bytes;
use forkbase_postree::{BlobCursor, BlobRef, PosMap, TreeCursor, TreeRef};
use forkbase_store::ChunkStore;

use crate::error::{DbError, DbResult};

/// Streaming iterator over the entries of a map/set value, in key order,
/// optionally bounded. Yields `DbResult<(key, value)>` because node
/// fetches can fail (missing or tampered chunks).
///
/// Obtained from [`super::Snapshot::map_iter`] /
/// [`super::Snapshot::map_range`].
pub struct MapRange<'s, S> {
    cursor: TreeCursor<'s, S>,
    /// End bound and whether it is inclusive; `None` = run to tree end.
    end: Option<(Bytes, bool)>,
    done: bool,
}

impl<'s, S: ChunkStore> MapRange<'s, S> {
    /// Open with optional inclusive-start / exclusive-end byte bounds
    /// (the classic `Select` semantics: `start ≤ key < end`).
    pub(crate) fn open(
        map: &PosMap<'s, S>,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
    ) -> DbResult<Self> {
        Self::open_bounds(map, start.map(|s| (s, false)), end.map(|e| (e, false)))
    }

    /// Open with full bound control: `start` is `(key, exclusive)`, `end`
    /// is `(key, inclusive)`.
    pub(crate) fn open_bounds(
        map: &PosMap<'s, S>,
        start: Option<(&[u8], bool)>,
        end: Option<(&[u8], bool)>,
    ) -> DbResult<Self> {
        let mut cursor = map.cursor(start.map(|(key, _)| key))?;
        if let Some((key, true)) = start {
            // Exclusive start: skip the exact match (keys are unique).
            if let Some(e) = cursor.peek()? {
                if e.key.as_ref() == key {
                    cursor.next_entry()?;
                }
            }
        }
        Ok(MapRange {
            cursor,
            end: end.map(|(key, inclusive)| (Bytes::copy_from_slice(key), inclusive)),
            done: false,
        })
    }
}

impl<S: ChunkStore> Iterator for MapRange<'_, S> {
    type Item = DbResult<(Bytes, Bytes)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.cursor.next_entry() {
            Err(e) => {
                self.done = true;
                Some(Err(DbError::Node(e)))
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Ok(Some(entry)) => {
                if let Some((end, inclusive)) = &self.end {
                    let past = if *inclusive {
                        entry.key.as_ref() > end.as_ref()
                    } else {
                        entry.key.as_ref() >= end.as_ref()
                    };
                    if past {
                        self.done = true;
                        return None;
                    }
                }
                Some(Ok((entry.key, entry.value)))
            }
        }
    }
}

/// Streaming iterator over the elements of a list value, in order.
///
/// Obtained from [`super::Snapshot::list_iter`].
pub struct ListStream<'s, S> {
    cursor: TreeCursor<'s, S>,
    done: bool,
}

impl<'s, S: ChunkStore> ListStream<'s, S> {
    pub(crate) fn open(store: &'s S, tree: TreeRef) -> DbResult<Self> {
        Ok(ListStream {
            cursor: TreeCursor::new(store, tree)?,
            done: false,
        })
    }
}

impl<S: ChunkStore> Iterator for ListStream<'_, S> {
    type Item = DbResult<Bytes>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.cursor.next_entry() {
            Err(e) => {
                self.done = true;
                Some(Err(DbError::Node(e)))
            }
            Ok(None) => {
                self.done = true;
                None
            }
            Ok(Some(entry)) => Some(Ok(entry.value)),
        }
    }
}

/// [`std::io::Read`] over a blob value: pulls one verified data chunk at
/// a time from a [`BlobCursor`], so the blob is never materialized.
///
/// Obtained from [`super::Snapshot::blob_reader`]. Chunk hash mismatches
/// (tampering) surface as [`std::io::ErrorKind::InvalidData`].
pub struct BlobReader<'s, S> {
    cursor: BlobCursor<'s, S>,
    current: Bytes,
    pos: usize,
    /// Length the `BlobRef` promised; checked when the chunk stream ends,
    /// so a reference whose `len` disagrees with its chunk tree fails
    /// loudly instead of silently truncating (the same check
    /// `PosBlob::read_all` performs).
    expected_len: u64,
    streamed: u64,
}

impl<'s, S: ChunkStore> BlobReader<'s, S> {
    pub(crate) fn open(store: &'s S, blob: &BlobRef) -> DbResult<Self> {
        Ok(BlobReader {
            cursor: BlobCursor::new(store, blob).map_err(DbError::Node)?,
            current: Bytes::new(),
            pos: 0,
            expected_len: blob.len,
            streamed: 0,
        })
    }
}

impl<S: ChunkStore> std::io::Read for BlobReader<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            if self.pos < self.current.len() {
                let n = (self.current.len() - self.pos).min(buf.len());
                buf[..n].copy_from_slice(&self.current[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            match self.cursor.next_chunk() {
                Ok(Some(chunk)) => {
                    self.streamed += chunk.len() as u64;
                    self.current = chunk;
                    self.pos = 0;
                }
                Ok(None) => {
                    if self.streamed != self.expected_len {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "blob length {} does not match content {}",
                                self.expected_len, self.streamed
                            ),
                        ));
                    }
                    return Ok(0);
                }
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ))
                }
            }
        }
    }
}

/// Materialize a whole blob by streaming its chunks (shared by
/// `ForkBase::blob_read` and `Snapshot::blob_read`). Verifies the total
/// length against the reference, like `PosBlob::read_all` did.
pub(crate) fn read_blob_to_vec<S: ChunkStore>(store: &S, blob: &BlobRef) -> DbResult<Vec<u8>> {
    let mut cursor = BlobCursor::new(store, blob).map_err(DbError::Node)?;
    let mut out = Vec::with_capacity(blob.len as usize);
    while let Some(chunk) = cursor.next_chunk().map_err(DbError::Node)? {
        out.extend_from_slice(&chunk);
    }
    if out.len() as u64 != blob.len {
        return Err(DbError::Node(forkbase_postree::NodeError::Malformed(
            format!(
                "blob length {} does not match content {}",
                blob.len,
                out.len()
            ),
        )));
    }
    Ok(out)
}
