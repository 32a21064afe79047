//! Durable segmented pack-file chunk store.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   MANIFEST              — names the live segments (atomic-rename target)
//!   MANIFEST.tmp          — staging copy, deleted on open
//!   TOMBSTONES            — dead frames inside retained segments
//!   LOCK                  — advisory lock; one process per store directory
//!   pack-00000000.fbk     — segment files; one is the append target
//!   pack-00000003.fbk.tmp — compaction temp segment, deleted on open
//! ```
//!
//! Each segment is a sequence of CRC frames (FORMAT INVARIANT — this frame
//! layout is unchanged since the first FileStore and is shared with the
//! bundle format):
//!
//! ```text
//! ┌─────────┬──────────┬───────────┬───────────────┬──────────┐
//! │ magic 4 │ len u32  │ hash 32   │ payload <len> │ crc32 u32│
//! └─────────┴──────────┴───────────┴───────────────┴──────────┘
//! ```
//!
//! (the CRC covers hash+payload). Chunks are immutable, so segments hold no
//! updates or tombstones; the in-memory index maps `Hash → (segment,
//! offset, len)` and is rebuilt on open by scanning every segment named in
//! the manifest. A torn final frame (crash mid-append) is detected by
//! magic/length/CRC validation and truncated back to the last good frame.
//!
//! # Reads
//!
//! [`ChunkStore::get`] reads `hash ‖ payload ‖ crc32` with one positioned
//! read on the segment's open handle, checks that the frame's stored hash
//! is the requested one (a 32-byte compare, so a stale slot can never
//! read as another chunk) and that the CRC matches (media damage), and
//! returns the payload as a zero-copy view. The CRC is
//! [`forkbase_crypto::crc32()`]: on CPUs with carry-less multiply it folds
//! a 4 KiB frame in a fraction of the time its reader's SHA-256 takes,
//! so the media check costs little beside the content check. A failure of either check is
//! [`StoreError::BadFrame`]. `get` does **not** SHA-256 the payload: the
//! bytes it returns are media-checked, not authenticated. A frame
//! rewritten with a matching CRC passes here and is caught by the reader
//! that asked for the address — `forkbase_postree`'s verifying fetch,
//! `FNode::load` and bundle import each hash what they read — so every
//! chunk read is hashed exactly once, on every store.
//!
//! # Manifest protocol
//!
//! The manifest is a small CRC-tailed text file listing the epoch, the
//! active (append) segment, and every live segment id. It is only ever
//! replaced whole: write `MANIFEST.tmp`, fsync, rename over `MANIFEST`,
//! fsync the directory. Any segment file *not* named by the manifest is an
//! orphan from a crashed compaction and is deleted on open — orphans only
//! ever contain copies of chunks that the manifest-listed segments still
//! hold, so deleting them never loses data.
//!
//! # Compaction
//!
//! [`SweepStore::sweep`] takes the liveness predicate (produced by
//! `forkbase::gc`'s mark phase), drops dead index entries, and rewrites the
//! survivors of low-utilization segments into fresh segments:
//!
//! 1. seal the active segment (flush + fsync);
//! 2. pick victims: segments whose live frame bytes fall below
//!    [`FileStoreConfig::compact_min_utilization`] of their file size;
//! 3. copy the victims' live chunks into `pack-N.fbk.tmp` files (fsynced),
//!    then rename them into place. Each survivor is read through the same
//!    checked frame read as `get`: a damaged one fails the compaction with
//!    [`StoreError::BadFrame`] before the manifest swap, its temp files
//!    are removed and the victims stay in place, so compaction never
//!    launders bit-rot under a fresh CRC;
//! 4. durably record dead frames that remain inside *retained* segments
//!    in `TOMBSTONES` (atomic rename, like the manifest) so a sweep
//!    outlives the process — without this, dead chunks in well-utilized
//!    segments would resurrect on reopen;
//! 5. atomically swap in a manifest naming (retained ∪ new) segments;
//! 6. delete the victim files and repoint the index at the new slots.
//!
//! A crash at any step recovers to a consistent store: before step 5 the
//! old manifest still names every victim (the new files are unlisted
//! orphans, and dead chunks inside victims reappear until GC runs again —
//! GC is idempotent); after step 5 the victims are unlisted and deleted
//! on open. Acked (fsynced) chunks are never lost. Tombstones are
//! frame-granular (`segment, offset`), so re-putting previously swept
//! content writes a fresh frame that no stale tombstone can shadow.

use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use forkbase_crypto::{crc32, Crc32, Hash};
use parking_lot::{Mutex, RwLock};

use crate::stats::{StatsCell, StoreStats};
use crate::sweep::{SweepReport, SweepStore, Utilization};
use crate::{ChunkStore, StoreError, StoreResult};

const FRAME_MAGIC: &[u8; 4] = b"FKB1";
const HEADER_LEN: usize = 4 + 4 + 32; // magic + len + hash
const HASH_LEN: usize = 32;
const TRAILER_LEN: usize = 4; // crc32

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_TMP_NAME: &str = "MANIFEST.tmp";
const MANIFEST_MAGIC: &str = "forkbase-packs v1";
const TOMBSTONES_NAME: &str = "TOMBSTONES";
const TOMBSTONES_TMP_NAME: &str = "TOMBSTONES.tmp";
const TOMBSTONES_MAGIC: &str = "forkbase-tombs v1";
const LOCK_NAME: &str = "LOCK";
const PACK_PREFIX: &str = "pack-";
const PACK_EXT: &str = ".fbk";
const PACK_TMP_EXT: &str = ".fbk.tmp";
/// Pre-manifest segment naming (`seg-NNNNNNNN.fkb`), adopted on open.
const LEGACY_PREFIX: &str = "seg-";
const LEGACY_EXT: &str = ".fkb";

/// Total frame size for a payload of `len` bytes.
fn frame_len(len: u32) -> u64 {
    (HEADER_LEN + TRAILER_LEN) as u64 + u64::from(len)
}

/// Write one `magic len hash payload crc32` frame at `*offset` of
/// `segment`, advance `*offset` past it, and return the payload's slot.
fn write_frame(
    w: &mut impl Write,
    segment: u64,
    offset: &mut u64,
    hash: &Hash,
    payload: &[u8],
) -> std::io::Result<Slot> {
    let crc = Crc32::new()
        .update(hash.as_bytes())
        .update(payload)
        .finish();
    w.write_all(FRAME_MAGIC)?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(hash.as_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc.to_le_bytes())?;
    let slot = Slot {
        segment,
        payload_offset: *offset + HEADER_LEN as u64,
        len: payload.len() as u32,
    };
    *offset += frame_len(slot.len);
    Ok(slot)
}

/// Location of a chunk inside the segment files.
#[derive(Clone, Copy, Debug)]
struct Slot {
    segment: u64,
    /// Offset of the payload (not the frame header).
    payload_offset: u64,
    len: u32,
}

/// Writer state for the active segment.
struct Active {
    segment: u64,
    writer: BufWriter<File>,
    /// Next frame start offset in the active segment.
    offset: u64,
}

/// The durable segment list. Mutated only while holding the active lock
/// (rotation and compaction), so writers see a consistent view.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Manifest {
    /// Incremented on every manifest write; lets tests (and humans
    /// debugging a store directory) order manifest generations.
    epoch: u64,
    /// The append-target segment. Always a member of `packs`.
    active: u64,
    /// Every live segment, ascending.
    packs: Vec<u64>,
}

impl Manifest {
    fn encode(&self) -> String {
        let mut body = format!(
            "{MANIFEST_MAGIC}\nepoch {}\nactive {}\n",
            self.epoch, self.active
        );
        for p in &self.packs {
            body.push_str(&format!("pack {p}\n"));
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        body
    }

    fn decode(text: &str) -> Result<Manifest, String> {
        let (body, crc_line) = match text.rfind("crc ") {
            Some(pos) => (&text[..pos], text[pos..].trim_end()),
            None => return Err("missing crc line".into()),
        };
        let stored = u32::from_str_radix(crc_line.trim_start_matches("crc ").trim(), 16)
            .map_err(|_| "unparseable crc".to_string())?;
        if crc32(body.as_bytes()) != stored {
            return Err("manifest crc mismatch".into());
        }
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err("bad manifest magic".into());
        }
        let mut epoch = None;
        let mut active = None;
        let mut packs = Vec::new();
        for line in lines {
            let mut it = line.split_whitespace();
            match (it.next(), it.next()) {
                (Some("epoch"), Some(v)) => epoch = v.parse().ok(),
                (Some("active"), Some(v)) => active = v.parse().ok(),
                (Some("pack"), Some(v)) => {
                    packs.push(v.parse().map_err(|_| format!("bad pack id {v:?}"))?)
                }
                _ => return Err(format!("unrecognized manifest line {line:?}")),
            }
        }
        let (Some(epoch), Some(active)) = (epoch, active) else {
            return Err("manifest missing epoch/active".into());
        };
        if !packs.contains(&active) {
            return Err(format!("active segment {active} not in pack list"));
        }
        packs.sort_unstable();
        Ok(Manifest {
            epoch,
            active,
            packs,
        })
    }
}

/// Configuration for [`FileStore`].
#[derive(Clone, Copy, Debug)]
pub struct FileStoreConfig {
    /// Rotate to a new segment file once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Compaction victim threshold: a segment is rewritten when its live
    /// frame bytes fall below this fraction of its file size. At the
    /// default 0.8 every retained segment is ≥ 80% live, bounding total
    /// disk usage at 1.25× the live frame bytes (plus active-segment
    /// slack).
    pub compact_min_utilization: f64,
}

impl Default for FileStoreConfig {
    fn default() -> Self {
        FileStoreConfig {
            segment_bytes: 64 * 1024 * 1024,
            compact_min_utilization: 0.8,
        }
    }
}

/// Dead frames inside retained segments: `(segment, payload_offset)`.
///
/// Frame-granular so a re-put of the same content (a brand-new frame at a
/// different offset) can never be shadowed by a stale tombstone.
type TombstoneSet = HashSet<(u64, u64)>;

/// Durable content-addressed store over manifest-tracked pack files.
pub struct FileStore {
    dir: PathBuf,
    cfg: FileStoreConfig,
    index: RwLock<HashMap<Hash, Slot>>,
    active: Mutex<Active>,
    /// Guarded invariant: matches the MANIFEST file on disk. Lock order is
    /// `active` → `manifest` (never the reverse).
    manifest: Mutex<Manifest>,
    /// Guarded invariant: matches the TOMBSTONES file on disk. Mutated
    /// only while holding the active lock (compaction).
    tombstones: Mutex<TombstoneSet>,
    /// Mirror of `active.segment`, readable without the active lock.
    /// Ordering: on rotation, `active_flushed` is reset to 0 *before* the
    /// new id is published here, so an Acquire load of the id always pairs
    /// with a flushed watermark that is valid for (or conservative about)
    /// that segment.
    active_segment: AtomicU64,
    /// Bytes of the active segment known flushed to the OS: reads at or
    /// below this watermark need no lock and no flush.
    active_flushed: AtomicU64,
    /// One read handle per segment file the manifest names, for `pread`.
    /// Added when a segment file is created and removed when compaction
    /// deletes it, so a slot that names a deleted segment finds no handle
    /// and its read retries through the index. Never held across I/O.
    handles: RwLock<HashMap<u64, Arc<File>>>,
    /// The next segment id. Seeded past every listed segment at open and
    /// only ever incremented, so no id names two files in one process and
    /// a stale slot can never read another segment's bytes.
    next_segment: AtomicU64,
    /// Held for the store's lifetime; released by the OS on process death.
    /// Prevents a second process from opening the same directory and
    /// deleting another's in-flight compaction output as "debris".
    _lock: File,
    stats: StatsCell,
}

fn encode_tombstones(tombs: &TombstoneSet) -> String {
    let mut entries: Vec<(u64, u64)> = tombs.iter().copied().collect();
    entries.sort_unstable();
    let mut body = format!("{TOMBSTONES_MAGIC}\n");
    for (seg, offset) in entries {
        body.push_str(&format!("dead {seg} {offset}\n"));
    }
    let crc = crc32(body.as_bytes());
    body.push_str(&format!("crc {crc:08x}\n"));
    body
}

fn decode_tombstones(text: &str) -> Result<TombstoneSet, String> {
    let (body, crc_line) = match text.rfind("crc ") {
        Some(pos) => (&text[..pos], text[pos..].trim_end()),
        None => return Err("missing crc line".into()),
    };
    let stored = u32::from_str_radix(crc_line.trim_start_matches("crc ").trim(), 16)
        .map_err(|_| "unparseable crc".to_string())?;
    if crc32(body.as_bytes()) != stored {
        return Err("tombstone crc mismatch".into());
    }
    let mut lines = body.lines();
    if lines.next() != Some(TOMBSTONES_MAGIC) {
        return Err("bad tombstone magic".into());
    }
    let mut out = TombstoneSet::new();
    for line in lines {
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some("dead"), Some(seg), Some(offset)) => {
                let seg = seg.parse().map_err(|_| format!("bad segment {seg:?}"))?;
                let offset = offset
                    .parse()
                    .map_err(|_| format!("bad offset {offset:?}"))?;
                out.insert((seg, offset));
            }
            _ => return Err(format!("unrecognized tombstone line {line:?}")),
        }
    }
    Ok(out)
}

impl FileStore {
    /// Open (or create) a store in `dir`, replaying the manifest's
    /// segments and cleaning up any crashed-compaction debris.
    pub fn open(dir: impl AsRef<Path>) -> StoreResult<Self> {
        Self::open_with(dir, FileStoreConfig::default())
    }

    /// Open with explicit configuration.
    pub fn open_with(dir: impl AsRef<Path>, cfg: FileStoreConfig) -> StoreResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        // Exclusive advisory lock for the store's lifetime. Open deletes
        // unlisted segment files as crashed-compaction debris, which is
        // only safe if no *other* process is mid-compaction in the same
        // directory; the OS releases the lock on process death, so a
        // kill -9 never wedges the store.
        let lock = File::create(dir.join(LOCK_NAME))?;
        if let Err(e) = lock.try_lock() {
            return Err(StoreError::BadLayout(format!(
                "store directory {} is locked by another process ({e})",
                dir.display()
            )));
        }

        // A *.tmp metadata file is a write that never committed.
        let _ = fs::remove_file(dir.join(MANIFEST_TMP_NAME));
        let _ = fs::remove_file(dir.join(TOMBSTONES_TMP_NAME));
        Self::adopt_legacy_segments(&dir)?;

        let manifest = match Self::read_manifest(&dir)? {
            Some(m) => m,
            None => {
                // First open (or pre-manifest directory): adopt every pack
                // file present, else start with segment 0.
                let mut packs = Self::list_pack_files(&dir)?;
                packs.sort_unstable();
                if packs.is_empty() {
                    packs.push(0);
                }
                let m = Manifest {
                    epoch: 1,
                    active: *packs.last().expect("non-empty"),
                    packs,
                };
                Self::write_manifest(&dir, &m)?;
                m
            }
        };

        // Unlisted segment files are orphans of a crashed compaction: the
        // chunks they hold are copies of chunks the listed segments still
        // contain, so deleting them is always safe.
        let listed: HashSet<u64> = manifest.packs.iter().copied().collect();
        for seg in Self::list_pack_files(&dir)? {
            if !listed.contains(&seg) {
                fs::remove_file(Self::pack_path(&dir, seg))?;
            }
        }
        for tmp in Self::list_tmp_files(&dir)? {
            fs::remove_file(tmp)?;
        }

        // Tombstones keep sweeps durable: a dead frame inside a retained
        // segment must stay dead across reopen. Entries for segments the
        // manifest no longer names are stale and pruned.
        let tombstones_on_disk = Self::read_tombstones(&dir)?;
        let tombstones: TombstoneSet = tombstones_on_disk
            .iter()
            .filter(|(seg, _)| listed.contains(seg))
            .copied()
            .collect();
        if tombstones != tombstones_on_disk {
            Self::write_tombstones(&dir, &tombstones)?;
        }

        let mut index = HashMap::new();
        let mut active_offset = 0u64;

        for &seg in &manifest.packs {
            let (entries, good_end) = Self::replay_segment(&dir, seg)?;
            let path = Self::pack_path(&dir, seg);
            let actual_len = match fs::metadata(&path) {
                Ok(md) => md.len(),
                // Listed but missing: a rotation crashed between the
                // manifest write and the file creation. Treat as empty.
                Err(e) if e.kind() == ErrorKind::NotFound => 0,
                Err(e) => return Err(e.into()),
            };
            if good_end < actual_len {
                // Torn tail from a crash: truncate to the last good frame.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(good_end)?;
                f.sync_all()?;
            }
            for (hash, slot) in entries {
                if tombstones.contains(&(seg, slot.payload_offset)) {
                    continue; // swept before the last shutdown
                }
                index.insert(hash, slot);
            }
            if seg == manifest.active {
                active_offset = good_end;
            }
        }

        // Count recovered data from the index (frames can be duplicated
        // across segments after crash recovery; the index dedups them).
        let recovered_chunks = index.len() as u64;
        let recovered_bytes = index.values().map(|s| u64::from(s.len)).sum();

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::pack_path(&dir, manifest.active))?;
        let mut handles = HashMap::new();
        for &seg in &manifest.packs {
            match File::open(Self::pack_path(&dir, seg)) {
                Ok(f) => {
                    handles.insert(seg, Arc::new(f));
                }
                // Listed but never created (see the replay above): no
                // frame can name it.
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        let next_segment = manifest.packs.iter().max().copied().unwrap_or(0) + 1;
        let active = Active {
            segment: manifest.active,
            writer: BufWriter::new(file),
            offset: active_offset,
        };

        let stats = StatsCell::new();
        stats.record_recovered(recovered_chunks, recovered_bytes);

        Ok(FileStore {
            dir,
            cfg,
            // Everything replayed from disk is by definition flushed.
            active_segment: AtomicU64::new(active.segment),
            active_flushed: AtomicU64::new(active.offset),
            handles: RwLock::new(handles),
            next_segment: AtomicU64::new(next_segment),
            index: RwLock::new(index),
            active: Mutex::new(active),
            manifest: Mutex::new(manifest),
            tombstones: Mutex::new(tombstones),
            _lock: lock,
            stats,
        })
    }

    fn pack_path(dir: &Path, seg: u64) -> PathBuf {
        dir.join(format!("{PACK_PREFIX}{seg:08}{PACK_EXT}"))
    }

    fn pack_tmp_path(dir: &Path, seg: u64) -> PathBuf {
        dir.join(format!("{PACK_PREFIX}{seg:08}{PACK_TMP_EXT}"))
    }

    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_NAME)
    }

    /// Rename pre-manifest `seg-NNNNNNNN.fkb` segments to pack naming so a
    /// store written by the previous layout opens cleanly.
    fn adopt_legacy_segments(dir: &Path) -> StoreResult<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix(LEGACY_PREFIX)
                .and_then(|s| s.strip_suffix(LEGACY_EXT))
            {
                let seg: u64 = num.parse().map_err(|_| {
                    StoreError::BadLayout(format!("unparseable segment file name: {name}"))
                })?;
                fs::rename(entry.path(), Self::pack_path(dir, seg))?;
            }
        }
        Ok(())
    }

    fn list_pack_files(dir: &Path) -> StoreResult<Vec<u64>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(PACK_TMP_EXT) {
                continue;
            }
            if let Some(num) = name
                .strip_prefix(PACK_PREFIX)
                .and_then(|s| s.strip_suffix(PACK_EXT))
            {
                match num.parse::<u64>() {
                    Ok(n) => out.push(n),
                    Err(_) => {
                        return Err(StoreError::BadLayout(format!(
                            "unparseable segment file name: {name}"
                        )))
                    }
                }
            }
        }
        Ok(out)
    }

    fn list_tmp_files(dir: &Path) -> StoreResult<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(PACK_TMP_EXT) {
                out.push(entry.path());
            }
        }
        Ok(out)
    }

    fn read_manifest(dir: &Path) -> StoreResult<Option<Manifest>> {
        let text = match fs::read_to_string(Self::manifest_path(dir)) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Manifest::decode(&text)
            .map(Some)
            .map_err(|e| StoreError::BadLayout(format!("manifest: {e}")))
    }

    /// Durably replace the manifest: staging file, fsync, atomic rename,
    /// directory fsync. The store is defined by whichever manifest the
    /// rename left in place — there is no intermediate state.
    fn write_manifest(dir: &Path, m: &Manifest) -> StoreResult<()> {
        let tmp = dir.join(MANIFEST_TMP_NAME);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(m.encode().as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, Self::manifest_path(dir))?;
        Self::fsync_dir(dir)?;
        Ok(())
    }

    /// Make directory-level mutations (renames, deletions) durable.
    fn fsync_dir(dir: &Path) -> StoreResult<()> {
        File::open(dir)?.sync_all()?;
        Ok(())
    }

    fn read_tombstones(dir: &Path) -> StoreResult<TombstoneSet> {
        let text = match fs::read_to_string(dir.join(TOMBSTONES_NAME)) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(TombstoneSet::new()),
            Err(e) => return Err(e.into()),
        };
        decode_tombstones(&text).map_err(|e| StoreError::BadLayout(format!("tombstones: {e}")))
    }

    /// Durably replace the tombstone file (same staging/rename/dir-fsync
    /// discipline as the manifest). An empty set removes the file.
    fn write_tombstones(dir: &Path, tombs: &TombstoneSet) -> StoreResult<()> {
        let path = dir.join(TOMBSTONES_NAME);
        if tombs.is_empty() {
            match fs::remove_file(&path) {
                Ok(()) => Self::fsync_dir(dir)?,
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            return Ok(());
        }
        let tmp = dir.join(TOMBSTONES_TMP_NAME);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(encode_tombstones(tombs).as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Self::fsync_dir(dir)?;
        Ok(())
    }

    /// Scan one segment, returning its valid `(hash, slot)` entries and the
    /// offset one past the last valid frame. A missing file reads as empty.
    fn replay_segment(dir: &Path, seg: u64) -> StoreResult<(Vec<(Hash, Slot)>, u64)> {
        let path = Self::pack_path(dir, seg);
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok((Vec::new(), 0)),
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata()?.len();
        let mut buf = Vec::with_capacity(len as usize);
        file.read_to_end(&mut buf)?;

        let mut entries = Vec::new();
        let mut pos = 0usize;
        loop {
            if pos + HEADER_LEN + TRAILER_LEN > buf.len() {
                break; // trailing garbage or clean EOF
            }
            if &buf[pos..pos + 4] != FRAME_MAGIC {
                break; // torn write: stop at last good frame
            }
            let payload_len =
                u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().expect("4 bytes")) as usize;
            let frame_end = pos + HEADER_LEN + payload_len + TRAILER_LEN;
            if frame_end > buf.len() {
                break; // truncated payload
            }
            let hash_bytes = &buf[pos + 8..pos + 40];
            let payload = &buf[pos + HEADER_LEN..pos + HEADER_LEN + payload_len];
            let crc_stored = u32::from_le_bytes(
                buf[frame_end - TRAILER_LEN..frame_end]
                    .try_into()
                    .expect("4 bytes"),
            );
            if Crc32::new().update(hash_bytes).update(payload).finish() != crc_stored {
                break; // damaged frame: treat as torn tail
            }
            let hash = Hash::from_slice(hash_bytes).expect("32 bytes");
            entries.push((
                hash,
                Slot {
                    segment: seg,
                    payload_offset: (pos + HEADER_LEN) as u64,
                    len: payload_len as u32,
                },
            ));
            pos = frame_end;
        }
        Ok((entries, pos as u64))
    }

    /// Directory this store persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current manifest epoch (one write per rotation/compaction).
    pub fn manifest_epoch(&self) -> u64 {
        self.manifest.lock().epoch
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.manifest.lock().packs.len()
    }

    /// Total bytes of the live segment files on disk.
    pub fn disk_bytes(&self) -> StoreResult<u64> {
        let packs = self.manifest.lock().packs.clone();
        let mut total = 0u64;
        for seg in packs {
            match fs::metadata(Self::pack_path(&self.dir, seg)) {
                Ok(md) => total += md.len(),
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(total)
    }

    /// Flush the active writer and publish the flushed watermark so
    /// readers can skip the lock for already-flushed frames. The caller
    /// holds the active lock.
    fn flush_active(&self, active: &mut Active) -> StoreResult<()> {
        active.writer.flush()?;
        self.active_flushed.store(active.offset, Ordering::Release);
        Ok(())
    }

    /// Publish a new active segment id for lock-free readers. The flushed
    /// watermark is reset *first* — see the field docs for the ordering
    /// argument. The caller holds the active lock.
    fn publish_active(&self, segment: u64) {
        self.active_flushed.store(0, Ordering::Release);
        self.active_segment.store(segment, Ordering::Release);
    }

    /// Append one frame to the active segment (rotating first if it is
    /// full), returning the chunk's slot. Does not flush or fsync:
    /// durability is [`ChunkStore::sync`]'s.
    fn append_frame(&self, active: &mut Active, hash: &Hash, bytes: &Bytes) -> StoreResult<Slot> {
        // Rotate if the active segment is full.
        if active.offset >= self.cfg.segment_bytes {
            active.writer.flush()?;
            active.writer.get_ref().sync_all()?;
            let mut manifest = self.manifest.lock();
            let next = self.allocate_segment();
            // Create the file, then commit it to the manifest, then write
            // frames: a crash in between leaves an empty listed segment or
            // an unlisted empty orphan — both recover cleanly.
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(Self::pack_path(&self.dir, next))?;
            self.open_handle(next)?;
            let mut next_manifest = manifest.clone();
            next_manifest.epoch += 1;
            next_manifest.active = next;
            next_manifest.packs.push(next);
            Self::write_manifest(&self.dir, &next_manifest)?;
            *manifest = next_manifest;
            drop(manifest);
            *active = Active {
                segment: next,
                writer: BufWriter::new(file),
                offset: 0,
            };
            self.publish_active(next);
        }

        let segment = active.segment;
        Ok(write_frame(
            &mut active.writer,
            segment,
            &mut active.offset,
            hash,
            bytes,
        )?)
    }

    /// A fresh segment id (see `next_segment`). The caller holds the
    /// active lock.
    fn allocate_segment(&self) -> u64 {
        self.next_segment.fetch_add(1, Ordering::Relaxed)
    }

    /// Open the read handle of segment `seg`, whose file now exists.
    fn open_handle(&self, seg: u64) -> StoreResult<()> {
        let file = File::open(Self::pack_path(&self.dir, seg))?;
        self.handles.write().insert(seg, Arc::new(file));
        Ok(())
    }

    /// Read the frame of `hash` at `slot` — `hash ‖ payload ‖ crc32` —
    /// with one positioned read on its segment's handle, and return the
    /// payload as a view into that buffer. The frame's stored hash must be
    /// `hash` and its CRC must match, else [`StoreError::BadFrame`]: a
    /// slot never reads as another chunk's bytes, and media damage never
    /// reads as data. A segment deleted since the slot was read has no
    /// handle and reads as `NotFound`, which [`ChunkStore::get`] retries.
    fn read_frame(&self, slot: Slot, hash: &Hash) -> StoreResult<Bytes> {
        let file = self.handles.read().get(&slot.segment).cloned();
        let Some(file) = file else {
            return Err(StoreError::Io(std::io::Error::new(
                ErrorKind::NotFound,
                format!("segment {} was deleted", slot.segment),
            )));
        };
        let len = slot.len as usize;
        let mut buf = vec![0u8; HASH_LEN + len + TRAILER_LEN];
        file.read_exact_at(&mut buf, slot.payload_offset - HASH_LEN as u64)?;
        let bad = |reason: &str| StoreError::BadFrame {
            segment: slot.segment,
            offset: slot.payload_offset - HEADER_LEN as u64,
            reason: reason.to_string(),
        };
        let (body, trailer) = buf.split_at(HASH_LEN + len);
        if &body[..HASH_LEN] != hash.as_bytes() {
            return Err(bad("frame holds another chunk's hash"));
        }
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if crc32(body) != stored {
            return Err(bad("crc mismatch"));
        }
        Ok(Bytes::from(buf).slice(HASH_LEN..HASH_LEN + len))
    }

    /// Copy `to_move` into fresh temp segments (fsynced), pushing each
    /// new segment id onto `new_segments` as it is created, and return the
    /// new slots. Every frame is read through [`Self::read_frame`], so a
    /// survivor damaged on media fails the copy instead of being rewritten
    /// under a fresh, valid CRC.
    fn copy_survivors(
        &self,
        to_move: &[(Hash, Slot)],
        new_segments: &mut Vec<u64>,
    ) -> StoreResult<Vec<(Hash, Slot)>> {
        let mut moved = Vec::with_capacity(to_move.len());
        // (id, writer, offset) of the temp segment being filled.
        let mut writer: Option<(u64, BufWriter<File>, u64)> = None;
        for (hash, slot) in to_move {
            let buf = self.read_frame(*slot, hash)?;
            if let Some((_, _, offset)) = &writer {
                if *offset >= self.cfg.segment_bytes {
                    let (_, mut w, _) = writer.take().expect("writer present");
                    w.flush()?;
                    w.get_ref().sync_all()?;
                }
            }
            if writer.is_none() {
                let id = self.allocate_segment();
                let file = File::create(Self::pack_tmp_path(&self.dir, id))?;
                writer = Some((id, BufWriter::new(file), 0));
                new_segments.push(id);
            }
            let (id, w, offset) = writer.as_mut().expect("writer just ensured");
            moved.push((*hash, write_frame(w, *id, offset, hash, &buf)?));
        }
        if let Some((_, mut w, _)) = writer.take() {
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        Ok(moved)
    }

    /// Flush the active writer if `slot` may still be buffered in it. The
    /// lock is released before the caller's file read: holding it across
    /// disk I/O + hashing would serialize readers of fresh chunks against
    /// every writer, and the read path's retry loop already copes with a
    /// concurrent compaction relocating the slot.
    fn flush_if_active(&self, slot: Slot) -> StoreResult<()> {
        let mut active = self.active.lock();
        if slot.segment == active.segment {
            self.flush_active(&mut active)?;
        }
        Ok(())
    }
}

impl ChunkStore for FileStore {
    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        if chunks.is_empty() {
            return Ok(0);
        }
        let puts = chunks.len() as u64;
        let logical: u64 = chunks.iter().map(|(_, b)| b.len() as u64).sum();

        // Group commit: the active-segment lock is taken once for the whole
        // batch. Every other writer also serializes on this lock, so the
        // index cannot gain entries while we hold it — one read acquisition
        // suffices to split the batch into fresh vs dedup-hit chunks.
        let mut active = self.active.lock();
        let mut fresh: Vec<(Hash, Bytes)> = Vec::with_capacity(chunks.len());
        {
            let index = self.index.read();
            let mut seen = HashSet::new();
            for (hash, bytes) in chunks {
                debug_assert_eq!(forkbase_crypto::sha256(&bytes), hash);
                if index.contains_key(&hash) || !seen.insert(hash) {
                    continue;
                }
                fresh.push((hash, bytes));
            }
        }

        let mut staged: Vec<(Hash, Slot)> = Vec::with_capacity(fresh.len());
        let mut new_bytes = 0u64;
        for (hash, bytes) in fresh {
            let slot = self.append_frame(&mut active, &hash, &bytes)?;
            new_bytes += bytes.len() as u64;
            staged.push((hash, slot));
        }

        let new_chunks = staged.len() as u64;
        {
            let mut index = self.index.write();
            for (hash, slot) in staged {
                index.insert(hash, slot);
            }
        }
        drop(active);

        self.stats
            .record_put_batch(puts, logical, new_chunks, new_bytes);
        Ok(new_chunks as usize)
    }

    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        // A concurrent compaction can relocate the slot and delete the old
        // segment between our index read and the file read; the frame
        // itself is immutable, so retrying through the index is enough.
        const ATTEMPTS: usize = 3;
        let mut attempt = 1;
        loop {
            let slot = self.index.read().get(hash).copied();
            let Some(slot) = slot else {
                self.stats.record_get(false);
                return Ok(None);
            };
            // The slot may still be buffered in the active writer. The
            // lock-free watermark check covers the common cases — sealed
            // segments and already-flushed active frames (including the
            // whole of a compaction, which seals the log up front) — so
            // only a read of genuinely unflushed data touches the lock.
            let frame_end = slot.payload_offset + u64::from(slot.len) + TRAILER_LEN as u64;
            if slot.segment == self.active_segment.load(Ordering::Acquire)
                && frame_end > self.active_flushed.load(Ordering::Acquire)
            {
                self.flush_if_active(slot)?;
            }
            match self.read_frame(slot, hash) {
                Ok(bytes) => {
                    self.stats.record_get(true);
                    return Ok(Some(bytes));
                }
                Err(StoreError::Io(e)) if e.kind() == ErrorKind::NotFound && attempt < ATTEMPTS => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        Ok(self.index.read().contains_key(hash))
    }

    fn stats(&self) -> StoreStats {
        self.stats.snapshot()
    }

    fn sync(&self) -> StoreResult<()> {
        let mut active = self.active.lock();
        self.flush_active(&mut active)?;
        active.writer.get_ref().sync_all()?;
        Ok(())
    }
}

impl SweepStore for FileStore {
    /// Physically compact the store against a liveness predicate (the
    /// mark phase's output): drop dead index entries, rewrite the
    /// survivors of low-utilization segments into fresh segments, swap
    /// the manifest, and delete the victims. See the module docs for the
    /// crash-recovery protocol. Writers block for the duration (they share
    /// the active lock); readers keep running and retry through the slot
    /// relocation.
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport> {
        let mut active = self.active.lock();
        // Seal the log: every acked frame is on disk before we decide
        // anything based on file contents. Publishing the watermark also
        // lets readers of active-segment chunks proceed lock-free for the
        // rest of the (long) compaction.
        self.flush_active(&mut active)?;
        active.writer.get_ref().sync_all()?;

        // Phase 1: drop dead chunks from the index. Their frames stay on
        // disk until the segment is compacted away (tombstoned below so
        // they cannot resurrect on reopen), but they are no longer
        // addressable and no longer counted as resident.
        let mut chunks_reclaimed = 0u64;
        let mut bytes_reclaimed = 0u64;
        let mut dead_slots: Vec<Slot> = Vec::new();
        {
            let mut index = self.index.write();
            index.retain(|h, slot| {
                if live(h) {
                    true
                } else {
                    chunks_reclaimed += 1;
                    bytes_reclaimed += u64::from(slot.len);
                    dead_slots.push(*slot);
                    false
                }
            });
        }
        if chunks_reclaimed > 0 {
            self.stats.record_swept(chunks_reclaimed, bytes_reclaimed);
        }

        // Phase 2: per-segment utilization = live frame bytes / file size.
        let manifest = self.manifest.lock().clone();
        let mut live_frame_bytes: HashMap<u64, u64> =
            manifest.packs.iter().map(|&p| (p, 0)).collect();
        {
            let index = self.index.read();
            for slot in index.values() {
                *live_frame_bytes.entry(slot.segment).or_insert(0) += frame_len(slot.len);
            }
        }
        let mut seg_sizes: HashMap<u64, u64> = HashMap::new();
        let mut disk_bytes_before = 0u64;
        for &seg in &manifest.packs {
            let len = match fs::metadata(Self::pack_path(&self.dir, seg)) {
                Ok(md) => md.len(),
                Err(e) if e.kind() == ErrorKind::NotFound => 0,
                Err(e) => return Err(e.into()),
            };
            seg_sizes.insert(seg, len);
            disk_bytes_before += len;
        }
        let victims: HashSet<u64> = manifest
            .packs
            .iter()
            .copied()
            .filter(|seg| {
                let size = seg_sizes[seg];
                size > 0
                    && (live_frame_bytes[seg] as f64)
                        < self.cfg.compact_min_utilization * size as f64
            })
            .collect();

        if victims.is_empty() {
            // No segment is worth rewriting, but the sweep itself must
            // still be durable: tombstone every dead frame so it stays
            // dead across reopen.
            if !dead_slots.is_empty() {
                let mut tombs = self.tombstones.lock();
                tombs.extend(dead_slots.iter().map(|s| (s.segment, s.payload_offset)));
                Self::write_tombstones(&self.dir, &tombs)?;
            }
            return Ok(SweepReport {
                chunks_reclaimed,
                bytes_reclaimed,
                disk_bytes_before,
                disk_bytes_after: disk_bytes_before,
                ..Default::default()
            });
        }

        // Phase 3: copy the victims' live chunks into temp segments, in
        // (segment, offset) order for sequential reads.
        let mut to_move: Vec<(Hash, Slot)> = {
            let index = self.index.read();
            index
                .iter()
                .filter(|(_, slot)| victims.contains(&slot.segment))
                .map(|(h, s)| (*h, *s))
                .collect()
        };
        to_move.sort_unstable_by_key(|(_, s)| (s.segment, s.payload_offset));

        let mut new_segments: Vec<u64> = Vec::new();
        let moved = match self.copy_survivors(&to_move, &mut new_segments) {
            Ok(moved) => moved,
            Err(e) => {
                // Nothing is committed: drop the partial copies and leave
                // every victim where the manifest names it.
                for &id in &new_segments {
                    let _ = fs::remove_file(Self::pack_tmp_path(&self.dir, id));
                }
                return Err(e);
            }
        };
        let chunks_rewritten = moved.len() as u64;
        let bytes_rewritten = to_move.iter().map(|(_, s)| u64::from(s.len)).sum();

        // Phase 4: move the temp segments into place. A crash from here to
        // the manifest swap leaves unlisted orphans, deleted on open.
        for &id in &new_segments {
            fs::rename(
                Self::pack_tmp_path(&self.dir, id),
                Self::pack_path(&self.dir, id),
            )?;
            self.open_handle(id)?;
        }
        Self::fsync_dir(&self.dir)?;

        // If the active segment is a victim, its replacement is a fresh
        // empty segment created (and listed) before the manifest swap.
        let active_is_victim = victims.contains(&active.segment);
        let new_active_id = if active_is_victim {
            let id = self.allocate_segment();
            File::create(Self::pack_path(&self.dir, id))?.sync_all()?;
            self.open_handle(id)?;
            Some(id)
        } else {
            None
        };

        // Phase 5: make the sweep durable — tombstone dead frames that
        // stay inside retained segments, and forget entries for segments
        // about to be deleted. Written before the manifest swap: if we
        // crash in between, the tombstones reference segments the old
        // manifest still lists, which is exactly right.
        {
            let mut tombs = self.tombstones.lock();
            tombs.retain(|(seg, _)| !victims.contains(seg));
            tombs.extend(
                dead_slots
                    .iter()
                    .filter(|s| !victims.contains(&s.segment))
                    .map(|s| (s.segment, s.payload_offset)),
            );
            Self::write_tombstones(&self.dir, &tombs)?;
        }

        // Phase 6: the commit point — swap the manifest.
        let mut next_manifest = Manifest {
            epoch: manifest.epoch + 1,
            active: new_active_id.unwrap_or(manifest.active),
            packs: manifest
                .packs
                .iter()
                .copied()
                .filter(|seg| !victims.contains(seg))
                .chain(new_segments.iter().copied())
                .chain(new_active_id)
                .collect(),
        };
        next_manifest.packs.sort_unstable();
        Self::write_manifest(&self.dir, &next_manifest)?;
        *self.manifest.lock() = next_manifest.clone();

        // Phase 7: repoint the index at the rewritten slots, then delete
        // the victims. Readers that copied an old slot before the repoint
        // retry through the index after the file disappears.
        {
            let mut index = self.index.write();
            for (hash, slot) in moved {
                if let Some(entry) = index.get_mut(&hash) {
                    *entry = slot;
                }
            }
        }
        for &seg in &victims {
            fs::remove_file(Self::pack_path(&self.dir, seg))?;
            // Bound first so the handle closes after the map lock is released.
            let handle = self.handles.write().remove(&seg);
            drop(handle);
        }
        Self::fsync_dir(&self.dir)?;

        if let Some(id) = new_active_id {
            *active = Active {
                segment: id,
                writer: BufWriter::new(
                    OpenOptions::new()
                        .append(true)
                        .open(Self::pack_path(&self.dir, id))?,
                ),
                offset: 0,
            };
            self.publish_active(id);
        }
        drop(active);

        self.stats
            .record_compaction(chunks_rewritten, bytes_rewritten);

        let mut disk_bytes_after = 0u64;
        for &seg in &next_manifest.packs {
            if let Ok(md) = fs::metadata(Self::pack_path(&self.dir, seg)) {
                disk_bytes_after += md.len();
            }
        }
        Ok(SweepReport {
            chunks_reclaimed,
            bytes_reclaimed,
            chunks_rewritten,
            bytes_rewritten,
            segments_deleted: victims.len() as u64,
            disk_bytes_before,
            disk_bytes_after,
        })
    }

    fn utilization(&self) -> StoreResult<Utilization> {
        let live_bytes = {
            let index = self.index.read();
            index.values().map(|s| u64::from(s.len)).sum()
        };
        Ok(Utilization {
            live_bytes,
            disk_bytes: self.disk_bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_crypto::sha256;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "forkbase-filestore-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = temp_dir("roundtrip");
        let s = FileStore::open(&dir).unwrap();
        let data = Bytes::from_static(b"persistent chunk");
        let h = s.put(data.clone()).unwrap();
        assert_eq!(s.get(&h).unwrap(), Some(data));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survives_reopen() {
        let dir = temp_dir("reopen");
        let h1;
        let h2;
        {
            let s = FileStore::open(&dir).unwrap();
            h1 = s.put(Bytes::from_static(b"first")).unwrap();
            h2 = s.put(Bytes::from_static(b"second")).unwrap();
            s.sync().unwrap();
        }
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 2);
        assert_eq!(s.get(&h1).unwrap(), Some(Bytes::from_static(b"first")));
        assert_eq!(s.get(&h2).unwrap(), Some(Bytes::from_static(b"second")));
        // Reopening must not lose dedup: re-putting is a hit.
        assert!(!s.put_with_hash(h1, Bytes::from_static(b"first")).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovers_from_torn_tail() {
        let dir = temp_dir("torn");
        let good;
        {
            let s = FileStore::open(&dir).unwrap();
            good = s.put(Bytes::from_static(b"good chunk")).unwrap();
            s.put(Bytes::from_static(b"doomed chunk")).unwrap();
            s.sync().unwrap();
        }
        // Chop bytes off the end, simulating a crash mid-append.
        let seg = FileStore::pack_path(&dir, 0);
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 1, "torn frame must be dropped");
        assert_eq!(
            s.get(&good).unwrap(),
            Some(Bytes::from_static(b"good chunk"))
        );
        // The store must still accept appends after truncation.
        let h3 = s.put(Bytes::from_static(b"after recovery")).unwrap();
        s.sync().unwrap();
        drop(s); // release the directory lock before reopening
        let s2 = FileStore::open(&dir).unwrap();
        assert_eq!(s2.chunk_count(), 2);
        assert!(s2.contains(&h3).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_batch_roundtrip_and_stats() {
        let dir = temp_dir("batch");
        let s = FileStore::open(&dir).unwrap();
        let pre = s.put(Bytes::from_static(b"resident")).unwrap();
        let payloads: Vec<Bytes> = vec![
            Bytes::from_static(b"resident"), // dedup vs resident
            Bytes::from_static(b"batch-a"),
            Bytes::from_static(b"batch-b"),
            Bytes::from_static(b"batch-a"), // dedup within batch
            Bytes::from_static(b"batch-c"),
        ];
        let batch: Vec<(Hash, Bytes)> = payloads
            .iter()
            .map(|b| (forkbase_crypto::sha256(b), b.clone()))
            .collect();
        let hashes: Vec<Hash> = batch.iter().map(|(h, _)| *h).collect();
        assert_eq!(s.put_batch(batch).unwrap(), 3);
        let st = s.stats();
        assert_eq!(st.puts, 1 + 5, "every batched chunk counted exactly once");
        assert_eq!(st.unique_chunks, 4);
        assert_eq!(st.dedup_hits, 2);
        for (h, p) in hashes.iter().zip(&payloads) {
            assert_eq!(s.get(h).unwrap().as_ref(), Some(p));
        }
        // Batch survives reopen like any other write.
        s.sync().unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 4);
        assert!(s.contains(&pre).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn put_batch_rotates_segments() {
        let dir = temp_dir("batchrotate");
        let cfg = FileStoreConfig {
            segment_bytes: 256,
            ..Default::default()
        };
        let s = FileStore::open_with(&dir, cfg).unwrap();
        let batch: Vec<(Hash, Bytes)> = (0..40u32)
            .map(|i| {
                let b = Bytes::from(format!("batch-chunk-{i}-{}", "y".repeat(24)));
                (forkbase_crypto::sha256(&b), b)
            })
            .collect();
        let hashes: Vec<Hash> = batch.iter().map(|(h, _)| *h).collect();
        assert_eq!(s.put_batch(batch).unwrap(), 40);
        assert!(s.segment_count() > 1, "batch must rotate segments mid-way");
        for h in &hashes {
            assert!(s.get(h).unwrap().is_some());
        }
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 40);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovers_complete_frames_when_crash_hits_mid_batch() {
        // A crash in the middle of a group commit must behave exactly like
        // a crash mid-append: every complete frame of the batch replays,
        // the partial frame is truncated away, and the store stays usable.
        let dir = temp_dir("tornbatch");
        let batch: Vec<(Hash, Bytes)> = (0..10u32)
            .map(|i| {
                let b = Bytes::from(format!("group-commit-chunk-{i:02}-{}", "z".repeat(40)));
                (forkbase_crypto::sha256(&b), b)
            })
            .collect();
        let hashes: Vec<Hash> = batch.iter().map(|(h, _)| *h).collect();
        let one_frame = (HEADER_LEN + batch[0].1.len() + TRAILER_LEN) as u64;
        {
            let s = FileStore::open(&dir).unwrap();
            assert_eq!(s.put_batch(batch).unwrap(), 10);
            s.sync().unwrap();
        }
        // Cut into the middle of the 8th frame: 7 complete frames remain.
        let seg = FileStore::pack_path(&dir, 0);
        let cut = 7 * one_frame + one_frame / 2;
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let s = FileStore::open(&dir).unwrap();
        assert_eq!(
            s.chunk_count(),
            7,
            "complete frames recovered, torn one dropped"
        );
        for h in &hashes[..7] {
            assert!(s.get(h).unwrap().is_some());
        }
        for h in &hashes[7..] {
            assert!(s.get(h).unwrap().is_none());
        }
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            7 * one_frame,
            "partial frame truncated back to the last good frame"
        );
        // Re-putting the lost tail of the batch works and survives reopen.
        let retry: Vec<(Hash, Bytes)> = hashes[7..]
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let b = Bytes::from(format!(
                    "group-commit-chunk-{:02}-{}",
                    i + 7,
                    "z".repeat(40)
                ));
                assert_eq!(forkbase_crypto::sha256(&b), *h);
                (*h, b)
            })
            .collect();
        assert_eq!(s.put_batch(retry).unwrap(), 3);
        s.sync().unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn detects_corrupted_frame_on_recovery() {
        let dir = temp_dir("crc");
        let a;
        {
            let s = FileStore::open(&dir).unwrap();
            a = s.put(Bytes::from_static(b"aaaa")).unwrap();
            s.put(Bytes::from_static(b"bbbb")).unwrap();
            s.sync().unwrap();
        }
        // Flip a byte inside the second frame's payload.
        let seg = FileStore::pack_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let second_frame = HEADER_LEN + 4 + TRAILER_LEN; // first frame size
        bytes[second_frame + HEADER_LEN] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();

        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 1, "frame with bad CRC must be dropped");
        assert!(s.contains(&a).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Segment 0's path and the bytes of its first frame, whose payload
    /// is `len` bytes long.
    fn first_frame(dir: &Path, len: usize) -> (PathBuf, Vec<u8>) {
        let seg = FileStore::pack_path(dir, 0);
        let bytes = fs::read(&seg).unwrap();
        (seg, bytes[..HEADER_LEN + len + TRAILER_LEN].to_vec())
    }

    #[test]
    fn media_corruption_surfaces_as_error() {
        // The store checks its framing: a payload flip under a stale CRC
        // and a frame naming another chunk's hash (CRC recomputed) are
        // each `BadFrame`, read through the live store's open handle. A
        // payload rewritten under a matching CRC is the addressed
        // reader's catch (`fetch_verified`, `FNode::load`), not the
        // store's: see their tests.
        let dir = temp_dir("media");
        let s = FileStore::open(&dir).unwrap();
        let h = s.put(Bytes::from(vec![7u8; 100])).unwrap();
        s.sync().unwrap();
        let (seg, original) = first_frame(&dir, 100);
        let file = OpenOptions::new().write(true).open(&seg).unwrap();

        let mut rotted = original.clone();
        rotted[HEADER_LEN + 50] ^= 0x01;
        file.write_all_at(&rotted, 0).unwrap();
        match s.get(&h) {
            Err(StoreError::BadFrame {
                segment: 0,
                offset: 0,
                reason,
            }) => assert!(reason.contains("crc"), "{reason}"),
            other => panic!("expected BadFrame for a stale crc, got {other:?}"),
        }

        let mut foreign = original.clone();
        foreign[8..HEADER_LEN].copy_from_slice(sha256(b"another chunk").as_bytes());
        let crc = crc32(&foreign[8..HEADER_LEN + 100]);
        foreign[HEADER_LEN + 100..].copy_from_slice(&crc.to_le_bytes());
        file.write_all_at(&foreign, 0).unwrap();
        match s.get(&h) {
            Err(StoreError::BadFrame { reason, .. }) => {
                assert!(reason.contains("hash"), "{reason}")
            }
            other => panic!("expected BadFrame for a foreign hash, got {other:?}"),
        }

        file.write_all_at(&original, 0).unwrap();
        assert_eq!(s.get(&h).unwrap(), Some(Bytes::from(vec![7u8; 100])));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_returns_a_crc_matching_rewrite_unhashed() {
        // The contract `fetch_verified` and `FNode::load` rely on: `get`
        // does not authenticate, so it hands back a well-framed rewrite
        // and the reader that knows the address must hash it.
        let dir = temp_dir("rewrite");
        let s = FileStore::open(&dir).unwrap();
        let h = s.put(Bytes::from(vec![7u8; 100])).unwrap();
        s.sync().unwrap();
        let (seg, mut frame) = first_frame(&dir, 100);
        frame[HEADER_LEN] ^= 0x01;
        let crc = crc32(&frame[8..HEADER_LEN + 100]);
        frame[HEADER_LEN + 100..].copy_from_slice(&crc.to_le_bytes());
        let file = OpenOptions::new().write(true).open(&seg).unwrap();
        file.write_all_at(&frame, 0).unwrap();
        let got = s.get(&h).unwrap().unwrap();
        assert_ne!(sha256(&got), h);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rotation() {
        let dir = temp_dir("rotate");
        let cfg = FileStoreConfig {
            segment_bytes: 256,
            ..Default::default()
        };
        let s = FileStore::open_with(&dir, cfg).unwrap();
        let mut hashes = Vec::new();
        for i in 0..50u32 {
            let data = Bytes::from(format!("chunk-{i}-{}", "x".repeat(32)));
            hashes.push(s.put(data).unwrap());
        }
        s.sync().unwrap();
        assert!(s.segment_count() > 1, "expected rotation");
        // Every chunk still readable, across all segments.
        for (i, h) in hashes.iter().enumerate() {
            let got = s.get(h).unwrap().unwrap();
            assert!(got.starts_with(format!("chunk-{i}-").as_bytes()));
        }
        // And after reopen.
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 50);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_flushes_buffered_writes() {
        let dir = temp_dir("flush");
        let s = FileStore::open(&dir).unwrap();
        let h = s.put(Bytes::from_static(b"buffered")).unwrap();
        // No explicit sync: read must still see the chunk.
        assert_eq!(s.get(&h).unwrap(), Some(Bytes::from_static(b"buffered")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_garbage_segment_names() {
        let dir = temp_dir("names");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("pack-notanumber.fbk"), b"junk").unwrap();
        match FileStore::open(&dir) {
            Err(StoreError::BadLayout(msg)) => assert!(msg.contains("notanumber")),
            other => panic!("expected BadLayout, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adopts_legacy_seg_files() {
        // A directory written by the pre-manifest layout (seg-*.fkb, no
        // MANIFEST) opens cleanly: segments are renamed and adopted.
        let dir = temp_dir("legacy");
        let h1;
        let h2;
        {
            let s = FileStore::open(&dir).unwrap();
            h1 = s.put(Bytes::from_static(b"legacy one")).unwrap();
            h2 = s.put(Bytes::from_static(b"legacy two")).unwrap();
            s.sync().unwrap();
        }
        // Devolve to the legacy layout.
        fs::remove_file(FileStore::manifest_path(&dir)).unwrap();
        fs::rename(FileStore::pack_path(&dir, 0), dir.join("seg-00000000.fkb")).unwrap();

        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 2);
        assert_eq!(s.get(&h1).unwrap(), Some(Bytes::from_static(b"legacy one")));
        assert_eq!(s.get(&h2).unwrap(), Some(Bytes::from_static(b"legacy two")));
        assert!(FileStore::manifest_path(&dir).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_corrupt_manifest() {
        let dir = temp_dir("badmanifest");
        {
            let s = FileStore::open(&dir).unwrap();
            s.put(Bytes::from_static(b"x")).unwrap();
            s.sync().unwrap();
        }
        let path = FileStore::manifest_path(&dir);
        let mut text = fs::read_to_string(&path).unwrap();
        text = text.replace("active 0", "active 7");
        fs::write(&path, text).unwrap();
        match FileStore::open(&dir) {
            Err(StoreError::BadLayout(msg)) => assert!(msg.contains("manifest")),
            other => panic!("expected BadLayout, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_roundtrip_and_crc() {
        let m = Manifest {
            epoch: 42,
            active: 7,
            packs: vec![3, 7, 9],
        };
        let text = m.encode();
        assert_eq!(Manifest::decode(&text).unwrap(), m);
        // Any flipped byte must be rejected.
        let tampered = text.replace("pack 3", "pack 4");
        assert!(Manifest::decode(&tampered).is_err());
    }

    #[test]
    fn directory_lock_excludes_concurrent_opens() {
        // Open deletes unlisted pack files as debris, so two live stores
        // on one directory would destroy each other's compaction output;
        // the LOCK file forbids it. Dropping the store releases the lock.
        let dir = temp_dir("lock");
        let s = FileStore::open(&dir).unwrap();
        match FileStore::open(&dir) {
            Err(StoreError::BadLayout(msg)) => assert!(msg.contains("locked"), "{msg}"),
            other => panic!("second open must fail, got {:?}", other.map(|_| ())),
        }
        drop(s);
        FileStore::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstone_codec_roundtrip_and_crc() {
        let mut tombs = TombstoneSet::new();
        tombs.insert((3, 1024));
        tombs.insert((0, 40));
        let text = encode_tombstones(&tombs);
        assert_eq!(decode_tombstones(&text).unwrap(), tombs);
        let tampered = text.replace("dead 0 40", "dead 0 44");
        assert!(
            decode_tombstones(&tampered).is_err(),
            "crc must catch edits"
        );
        assert_eq!(
            decode_tombstones(&encode_tombstones(&TombstoneSet::new())).unwrap(),
            TombstoneSet::new()
        );
    }

    fn sized_chunk(i: u32, len: usize) -> Bytes {
        let mut v = format!("chunk-{i:06}-").into_bytes();
        v.resize(len, b'0' + (i % 10) as u8);
        Bytes::from(v)
    }

    #[test]
    fn compaction_reclaims_disk_space() {
        let dir = temp_dir("compact");
        let cfg = FileStoreConfig {
            segment_bytes: 16 * 1024,
            ..Default::default()
        };
        let s = FileStore::open_with(&dir, cfg).unwrap();
        // ~64 chunks of 4 KiB → ~16 segments.
        let batch: Vec<(Hash, Bytes)> = (0..64u32)
            .map(|i| {
                let b = sized_chunk(i, 4096);
                (sha256(&b), b)
            })
            .collect();
        let hashes: Vec<Hash> = batch.iter().map(|(h, _)| *h).collect();
        s.put_batch(batch.clone()).unwrap();
        s.sync().unwrap();
        let disk_full = s.disk_bytes().unwrap();

        // Keep every fourth chunk live.
        let live: HashSet<Hash> = hashes.iter().step_by(4).copied().collect();
        let report = s.sweep(&|h| live.contains(h)).unwrap();
        assert_eq!(report.chunks_reclaimed, 48);
        assert!(report.segments_deleted > 0);
        assert!(report.disk_bytes_after < disk_full / 2);

        // Live data survives, dead data is gone, and on-disk bytes are
        // within 1.25x of the live frame bytes (the utilization bound).
        let live_frames: u64 = live.iter().map(|_| frame_len(4096)).sum();
        assert!(
            report.disk_bytes_after as f64 <= 1.25 * live_frames as f64,
            "disk {} vs live frames {live_frames}",
            report.disk_bytes_after
        );
        for (i, h) in hashes.iter().enumerate() {
            if live.contains(h) {
                assert_eq!(s.get(h).unwrap(), Some(batch[i].1.clone()));
            } else {
                assert_eq!(s.get(h).unwrap(), None);
            }
        }
        // Stats: resident counters shrank; compaction counters moved; the
        // put counters did not (the churn-vs-dedup-ratio bugfix).
        let st = s.stats();
        assert_eq!(st.unique_chunks, live.len() as u64);
        assert_eq!(st.puts, 64);
        assert!(st.compaction_bytes_rewritten > 0);
        assert_eq!(st.sweep_chunks_reclaimed, 48);

        // The compacted store survives reopen with exactly the live set.
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), live.len());
        for h in &live {
            assert!(s.get(h).unwrap().is_some());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_ids_are_never_reused() {
        // A compaction that deletes the highest-numbered segment and
        // writes none must not hand that id to the next rotation: a
        // reader still holding a slot in the deleted segment would read
        // the new file's bytes at a stale offset.
        let dir = temp_dir("no-id-reuse");
        let cfg = FileStoreConfig {
            segment_bytes: 1000,
            ..Default::default()
        };
        let s = FileStore::open_with(&dir, cfg).unwrap();
        let chunk = |i: u32| {
            let b = sized_chunk(i, 300);
            (sha256(&b), b)
        };
        let (a, b, dead1, dead2) = (chunk(0), chunk(1), chunk(2), chunk(3));
        // Segment 0: a, dead1, dead2; then b rotates into segment 1.
        for (h, bytes) in [&a, &dead1, &dead2, &b] {
            s.put_with_hash(*h, bytes.clone()).unwrap();
        }
        assert_eq!(s.manifest.lock().active, 1);
        // Segment 0 is a victim: `a` moves into new segment 2, above the
        // active segment.
        s.sweep(&|h| [a.0, b.0].contains(h)).unwrap();
        let stale = s.index.read()[&a.0];
        assert_eq!(stale.segment, 2);
        assert_eq!(s.manifest.lock().packs, vec![1, 2]);
        // `a` dies: segment 2 is deleted and nothing is written.
        s.sweep(&|h| *h == b.0).unwrap();
        assert_eq!(s.manifest.lock().packs, vec![1]);

        // Fill segment 1 until it rotates, then write one more chunk of
        // the same size, which lands where `a` used to be.
        let (c, d, e) = (chunk(4), chunk(5), chunk(6));
        for (h, bytes) in [&c, &d, &e] {
            s.put_with_hash(*h, bytes.clone()).unwrap();
        }
        let active = s.manifest.lock().active;
        assert!(active > 2, "rotation reused segment id {active}");
        assert_eq!(s.index.read()[&e.0].payload_offset, stale.payload_offset);
        match s.read_frame(stale, &a.0) {
            Err(StoreError::Io(err)) => assert_eq!(err.kind(), ErrorKind::NotFound),
            other => panic!("a stale slot must not read another file: {other:?}"),
        }
        // Had the id been reused, the stale slot would name `e`'s frame.
        // The frame-hash compare still refuses to read it as `a`.
        s.sync().unwrap();
        let reused = Slot {
            segment: s.index.read()[&e.0].segment,
            ..stale
        };
        match s.read_frame(reused, &a.0) {
            Err(StoreError::BadFrame { reason, .. }) => {
                assert!(reason.contains("hash"), "{reason}")
            }
            other => panic!("a slot must never read as another chunk: {other:?}"),
        }
        assert_eq!(s.get(&a.0).unwrap(), None);
        assert_eq!(s.get(&e.0).unwrap(), Some(e.1.clone()));

        // Ids stay unique across reopen too.
        drop(s);
        let s = FileStore::open_with(&dir, cfg).unwrap();
        assert_eq!(s.get(&e.0).unwrap(), Some(e.1));
        assert!(s.allocate_segment() > active);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_is_noop_on_well_utilized_store() {
        let dir = temp_dir("compact-noop");
        let s = FileStore::open(&dir).unwrap();
        let batch: Vec<(Hash, Bytes)> = (0..16u32)
            .map(|i| {
                let b = sized_chunk(i, 1024);
                (sha256(&b), b)
            })
            .collect();
        let live: HashSet<Hash> = batch.iter().map(|(h, _)| *h).collect();
        s.put_batch(batch).unwrap();
        s.sync().unwrap();
        let epoch_before = s.manifest_epoch();
        let report = s.sweep(&|h| live.contains(h)).unwrap();
        assert_eq!(report.chunks_reclaimed, 0);
        assert_eq!(report.chunks_rewritten, 0);
        assert_eq!(report.segments_deleted, 0);
        assert_eq!(report.disk_bytes_before, report.disk_bytes_after);
        assert_eq!(s.manifest_epoch(), epoch_before, "no manifest churn");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_stays_writable_after_compacting_active_segment() {
        let dir = temp_dir("compact-active");
        let s = FileStore::open(&dir).unwrap();
        let keep = s.put(sized_chunk(0, 512)).unwrap();
        for i in 1..10u32 {
            s.put(sized_chunk(i, 512)).unwrap();
        }
        s.sync().unwrap();
        // Only one chunk stays live → the (only, active) segment is a
        // victim; the store must swap to a fresh active and keep working.
        let live: HashSet<Hash> = [keep].into_iter().collect();
        let report = s.sweep(&|h| live.contains(h)).unwrap();
        assert_eq!(report.chunks_reclaimed, 9);
        assert_eq!(report.chunks_rewritten, 1);
        assert!(s.get(&keep).unwrap().is_some());
        let after = s
            .put(Bytes::from_static(b"written after compaction"))
            .unwrap();
        s.sync().unwrap();
        drop(s);
        let s = FileStore::open(&dir).unwrap();
        assert_eq!(s.chunk_count(), 2);
        assert!(s.get(&keep).unwrap().is_some());
        assert!(s.get(&after).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_refuses_to_launder_bit_rot() {
        let dir = temp_dir("compact-rot");
        let cfg = FileStoreConfig {
            segment_bytes: 16 * 1024,
            ..Default::default()
        };
        let s = FileStore::open_with(&dir, cfg).unwrap();
        let batch: Vec<(Hash, Bytes)> = (0..16u32)
            .map(|i| {
                let b = sized_chunk(i, 4096);
                (sha256(&b), b)
            })
            .collect();
        s.put_batch(batch.clone()).unwrap();
        s.sync().unwrap();
        // One survivor per segment: every segment is a victim.
        let live: HashSet<Hash> = batch.iter().step_by(4).map(|(h, _)| *h).collect();
        let victim = batch[4].0;
        let slot = s.index.read()[&victim];
        let at = slot.payload_offset + 10;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(FileStore::pack_path(&dir, slot.segment))
            .unwrap();
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, at).unwrap();
        file.write_all_at(&[byte[0] ^ 0x40], at).unwrap();

        let packs = s.manifest.lock().packs.clone();
        let epoch = s.manifest_epoch();
        match s.sweep(&|h| live.contains(h)) {
            Err(StoreError::BadFrame { segment, .. }) => assert_eq!(segment, slot.segment),
            other => panic!("compaction must refuse a damaged survivor: {other:?}"),
        }
        // Nothing was committed: same manifest, every victim still on
        // disk, no temp segment left behind.
        assert_eq!(s.manifest_epoch(), epoch);
        assert_eq!(s.manifest.lock().packs, packs);
        for seg in &packs {
            assert!(FileStore::pack_path(&dir, *seg).exists());
        }
        assert!(FileStore::list_tmp_files(&dir).unwrap().is_empty());
        for (h, b) in &batch {
            if *h == victim {
                assert!(matches!(s.get(h), Err(StoreError::BadFrame { .. })));
            } else if live.contains(h) {
                assert_eq!(s.get(h).unwrap().as_ref(), Some(b));
            }
        }

        // Repaired, the same compaction goes through.
        file.write_all_at(&byte, at).unwrap();
        let report = s.sweep(&|h| live.contains(h)).unwrap();
        assert_eq!(report.chunks_rewritten, live.len() as u64);
        assert_eq!(s.get(&victim).unwrap(), Some(batch[4].1.clone()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn utilization_tracks_dead_bytes() {
        let dir = temp_dir("util");
        let s = FileStore::open(&dir).unwrap();
        let keep = s.put(sized_chunk(0, 2048)).unwrap();
        s.put(sized_chunk(1, 2048)).unwrap();
        s.sync().unwrap();
        let u = s.utilization().unwrap();
        assert_eq!(u.live_bytes, 4096);
        assert!(u.disk_bytes >= u.live_bytes);
        let live: HashSet<Hash> = [keep].into_iter().collect();
        s.sweep(&|h| live.contains(h)).unwrap();
        let u = s.utilization().unwrap();
        assert_eq!(u.live_bytes, 2048);
        assert!(u.ratio() > 0.9, "compaction restored utilization");
        fs::remove_dir_all(&dir).unwrap();
    }
}
