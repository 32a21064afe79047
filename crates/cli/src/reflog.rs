//! `refs.log`: a data directory's branch heads, as one checkpoint frame
//! holding the whole ref table followed by delta frames, each the head
//! swings of one [`commit`].
//!
//! ```text
//! refs.log = LOG_MAGIC ‖ frame(checkpoint) ‖ frame(delta)*
//! frame    = len u32 ‖ crc32(len) u32 ‖ crc32(payload) u32 ‖ payload   (LE)
//! payload  = kind u8 (0 checkpoint, 1 delta) ‖ swing*
//! swing    = varint key len ‖ key ‖ varint branch len ‖ branch
//!            ‖ (0 = branch deleted | 1 ‖ head uid, 32 raw bytes)
//! ```
//!
//! [`commit`] drains the database's ref journal
//! ([`ForkBase::take_ref_journal`]), syncs its chunk store, and appends
//! the drained swings as one delta frame with one `fdatasync`: O(swings),
//! not O(table). When the journal stands for the whole table, or the
//! deltas already outweigh half the checkpoint, it writes a fresh
//! checkpoint-only log instead (write-tmp, fsync, rename, fsync the
//! directory), so the file stays under about 1.5× its checkpoint. The
//! drain comes before the sync: every head a frame names was published,
//! and so its chunks were put, before the sync flushed the store.
//!
//! [`read`] replays the checkpoint and the deltas. A frame applies whole
//! or not at all. A torn tail (the cut-short last append of a crashed
//! writer) is truncated away, so the heads are those of the last whole
//! commit; a damaged frame with bytes after it is a
//! [`DbError::TamperDetected`] naming its offset, never a silent
//! truncation. The replayed heads then go through
//! [`ForkBase::load_refs`]'s checks like any refs text.
//!
//! A directory written before the log existed holds a text `refs` file
//! ([`ForkBase::dump_refs`] format). [`read`] adopts it while there is no
//! log; the first [`commit`] writes the log and only then deletes `refs`.
//! When both exist, the log wins.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use forkbase::{DbError, DbResult, ForkBase, RefJournal, RefSwing, Uid};
use forkbase_crypto::crc32;
use forkbase_store::ChunkStore;

use crate::session::{io_err, read_if_present, write_durable};

/// The log's file name inside a data directory.
const LOG: &str = "refs.log";
/// The text refs file the log replaces, adopted when there is no log.
const LEGACY: &str = "refs";
/// The first bytes of every `refs.log`.
const LOG_MAGIC: &[u8; 8] = b"FBREFS01";
/// `len`, `crc32(len)` and `crc32(payload)`, each a little-endian u32.
const FRAME_HEADER: usize = 12;
const CHECKPOINT: u8 = 0;
const DELTA: u8 = 1;
const UID_LEN: usize = 32;

/// Make `db`'s branch heads durable in `dir`'s `refs.log`: drain the ref
/// journal, sync the chunk store, then append the swings or fold the log
/// into a fresh checkpoint. Callers serialize commits on one directory
/// (the drain and its append are one step). When anything fails, the
/// journal is reset, so the next commit writes a whole checkpoint over
/// whatever this one left.
pub fn commit<S: ChunkStore>(dir: &Path, db: &ForkBase<S>) -> DbResult<()> {
    let path = dir.join(LOG);
    let written = append_or_fold(&path, db);
    if written.is_err() {
        db.reset_ref_journal();
    }
    written
}

fn append_or_fold<S: ChunkStore>(path: &Path, db: &ForkBase<S>) -> DbResult<()> {
    let log = open_for_append(path)?;
    if log.is_none() {
        db.reset_ref_journal();
    }
    let journal = db.take_ref_journal();
    db.store().sync()?;
    match (journal, log) {
        (RefJournal::Swings(swings), _) if swings.is_empty() => Ok(()),
        (RefJournal::Swings(swings), Some(mut file)) => {
            let frame = frame(DELTA, &swings)?;
            file.write_all(&frame)
                .and_then(|()| file.sync_data())
                .map_err(io_err)
        }
        (RefJournal::Table(heads), _) => {
            let mut log = LOG_MAGIC.to_vec();
            log.extend_from_slice(&frame(CHECKPOINT, &heads)?);
            write_durable(path, &log)?;
            let legacy = path.with_file_name(LEGACY);
            match std::fs::remove_file(legacy) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(e)),
                _ => Ok(()),
            }
        }
        (RefJournal::Swings(_), None) => Err(DbError::InvalidInput(
            "the ref journal drained swings with no refs.log to append them to".into(),
        )),
    }
}

/// The log at `path` opened for appending, `None` when there is none or
/// its deltas outweigh half its checkpoint (time to fold).
fn open_for_append(path: &Path) -> DbResult<Option<File>> {
    let mut file = match OpenOptions::new().read(true).append(true).open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    let mut head = [0u8; LOG_MAGIC.len() + 4];
    file.read_exact(&mut head).map_err(io_err)?;
    let total = file.metadata().map_err(io_err)?.len();
    let checkpoint = (LOG_MAGIC.len() + FRAME_HEADER) as u64 + u64::from(le_u32(&head[8..]));
    let deltas = total.saturating_sub(checkpoint);
    Ok((deltas <= checkpoint / 2).then_some(file))
}

/// The heads persisted in `dir`, as [`ForkBase::load_refs`] text: the
/// replayed `refs.log`, else the legacy `refs` file, else `None`. A torn
/// tail is cut from the log before this returns.
pub fn read(dir: &Path) -> DbResult<Option<String>> {
    let path = dir.join(LOG);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return read_if_present(&dir.join(LEGACY));
        }
        Err(e) => return Err(io_err(e)),
    };
    let (heads, whole) = replay(&bytes)?;
    if whole < bytes.len() {
        // The next append must follow the last whole frame.
        let file = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
        file.set_len(whole as u64)
            .and_then(|()| file.sync_data())
            .map_err(io_err)?;
    }
    let mut text = String::new();
    for (key, branches) in &heads {
        for (branch, head) in branches {
            text.push_str(&format!("{key}\t{branch}\t{}\n", head.to_hex()));
        }
    }
    Ok(Some(text))
}

type Heads = BTreeMap<String, BTreeMap<String, Uid>>;

/// Replay a log's bytes: the heads after its last whole frame, and where
/// that frame ends.
fn replay(bytes: &[u8]) -> DbResult<(Heads, usize)> {
    if bytes.get(..LOG_MAGIC.len()) != Some(LOG_MAGIC) {
        return Err(tampered(0, "not a refs.log (bad magic)"));
    }
    let mut heads = Heads::new();
    let mut at = LOG_MAGIC.len();
    // The checkpoint is written whole and renamed into place: it is never
    // a torn tail.
    let Some((payload, end)) = frame_at(bytes, at)? else {
        return Err(tampered(at, "the checkpoint frame is cut short"));
    };
    apply(payload, CHECKPOINT, at, &mut heads)?;
    at = end;
    while let Some((payload, end)) = frame_at(bytes, at)? {
        apply(payload, DELTA, at, &mut heads)?;
        at = end;
    }
    Ok((heads, at))
}

/// The payload of the frame at `at` and where the frame ends; `None` when
/// the bytes from `at` on are a torn tail (or there are none).
fn frame_at(bytes: &[u8], at: usize) -> DbResult<Option<(&[u8], usize)>> {
    let rest = &bytes[at..];
    let Some(header) = rest.get(..FRAME_HEADER) else {
        return Ok(None);
    };
    if crc32(&header[..4]) != le_u32(&header[4..8]) {
        // A crash may leave an appended range zero-filled.
        if rest.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        return Err(tampered(at, "frame length fails its CRC"));
    }
    let end = at + FRAME_HEADER + le_u32(header) as usize;
    let Some(payload) = bytes.get(at + FRAME_HEADER..end) else {
        return Ok(None);
    };
    if crc32(payload) != le_u32(&header[8..]) {
        if end == bytes.len() {
            return Ok(None);
        }
        return Err(tampered(at, "frame fails its CRC"));
    }
    Ok(Some((payload, end)))
}

/// Apply one frame's swings (a frame of kind `kind` at offset `at`).
fn apply(payload: &[u8], kind: u8, at: usize, heads: &mut Heads) -> DbResult<()> {
    let malformed = || tampered(at, "frame does not decode");
    let (&found, mut rest) = payload.split_first().ok_or_else(malformed)?;
    if found != kind {
        return Err(tampered(at, "frame of the wrong kind"));
    }
    while !rest.is_empty() {
        let key = take_str(&mut rest).ok_or_else(malformed)?;
        let branch = take_str(&mut rest).ok_or_else(malformed)?;
        let (&live, after) = rest.split_first().ok_or_else(malformed)?;
        rest = after;
        match live {
            0 => {
                if let Some(branches) = heads.get_mut(key) {
                    branches.remove(branch);
                    if branches.is_empty() {
                        heads.remove(key);
                    }
                }
            }
            1 => {
                let raw = take(&mut rest, UID_LEN).ok_or_else(malformed)?;
                let uid = Uid::from_slice(raw).ok_or_else(malformed)?;
                let branches = heads.entry(key.to_string()).or_default();
                branches.insert(branch.to_string(), uid);
            }
            _ => return Err(malformed()),
        }
    }
    Ok(())
}

/// One frame of `kind` holding `swings`, header included.
fn frame(kind: u8, swings: &[RefSwing]) -> DbResult<Vec<u8>> {
    let mut out = vec![0u8; FRAME_HEADER];
    out.push(kind);
    for swing in swings {
        for name in [&swing.key, &swing.branch] {
            put_varint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        match &swing.head {
            Some(uid) => {
                out.push(1);
                out.extend_from_slice(uid.as_bytes());
            }
            None => out.push(0),
        }
    }
    let len = u32::try_from(out.len() - FRAME_HEADER)
        .map_err(|_| DbError::InvalidInput("a refs.log frame over 4 GiB".into()))?
        .to_le_bytes();
    let payload_crc = crc32(&out[FRAME_HEADER..]);
    out[..4].copy_from_slice(&len);
    out[4..8].copy_from_slice(&crc32(&len).to_le_bytes());
    out[8..12].copy_from_slice(&payload_crc.to_le_bytes());
    Ok(out)
}

fn put_varint(out: &mut Vec<u8>, mut n: u64) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn take_varint(rest: &mut &[u8]) -> Option<u64> {
    let mut n = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, after) = rest.split_first()?;
        *rest = after;
        n |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return Some(n);
        }
    }
    None
}

fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if rest.len() < n {
        return None;
    }
    let (taken, after) = rest.split_at(n);
    *rest = after;
    Some(taken)
}

fn take_str<'a>(rest: &mut &'a [u8]) -> Option<&'a str> {
    let len = usize::try_from(take_varint(rest)?).ok()?;
    std::str::from_utf8(take(rest, len)?).ok()
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(word)
}

fn tampered(at: usize, what: &str) -> DbError {
    DbError::TamperDetected(format!("refs.log at byte offset {at}: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use forkbase::PutOptions;
    use forkbase_store::{FileStore, StoreResult, StoreStats};
    use forkbase_types::Value;
    use std::path::PathBuf;
    use std::sync::mpsc::{channel, Receiver, Sender};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forkbase-reflog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> ForkBase<FileStore> {
        ForkBase::new(FileStore::open(dir.join("chunks")).unwrap())
    }

    fn put(db: &ForkBase<FileStore>, key: &str, value: i64) {
        db.put(key, Value::Int(value), &PutOptions::default())
            .unwrap();
    }

    fn log_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(dir.join(LOG)).unwrap()
    }

    /// `bytes` as the only file of a fresh directory, read back.
    fn read_bytes(tag: &str, bytes: &[u8]) -> (DbResult<Option<String>>, u64) {
        let dir = temp_dir(tag);
        std::fs::write(dir.join(LOG), bytes).unwrap();
        let read = read(&dir);
        let len = std::fs::metadata(dir.join(LOG)).unwrap().len();
        std::fs::remove_dir_all(&dir).unwrap();
        (read, len)
    }

    /// A database with a checkpoint and two delta frames, with the heads
    /// and the log bytes after each.
    fn three_commits(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let db = open(dir);
        for i in 0..20 {
            put(&db, &format!("k{i:02}"), 0);
        }
        let mut states = Vec::new();
        commit(dir, &db).unwrap();
        states.push((db.dump_refs(), log_bytes(dir)));
        put(&db, "k00", 1);
        db.branch("k01", "master", "dev").unwrap();
        commit(dir, &db).unwrap();
        states.push((db.dump_refs(), log_bytes(dir)));
        put(&db, "k02", 2);
        put(&db, "k03", 2);
        db.delete_branch("k01", "master").unwrap();
        commit(dir, &db).unwrap();
        states.push((db.dump_refs(), log_bytes(dir)));
        states
    }

    #[test]
    fn reflog_torn_last_frame_gives_the_old_heads_or_the_new() {
        let dir = temp_dir("torn");
        let states = three_commits(&dir);
        let [_, (before, old), (after, new)] = &states[..] else {
            panic!("three commits");
        };
        assert_ne!(before, after);
        for cut in old.len()..=new.len() {
            let (read, len) = read_bytes("torn-cut", &new[..cut]);
            let read = read.unwrap().unwrap();
            if cut == new.len() {
                assert_eq!(&read, after);
            } else {
                assert_eq!(&read, before, "cut at {cut}");
                assert_eq!(len, old.len() as u64, "torn tail cut away at {cut}");
            }
        }
        // A crash that left the appended range zero-filled.
        let mut zeroed = new.clone();
        zeroed[old.len()..].fill(0);
        assert_eq!(
            read_bytes("torn-zero", &zeroed).0.unwrap().as_ref(),
            Some(before)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_flipped_byte_before_the_last_frame_is_tamper_evidence() {
        let dir = temp_dir("flip");
        let states = three_commits(&dir);
        let [_, (_, old), (_, new)] = &states[..] else {
            panic!("three commits");
        };
        for at in 0..old.len() {
            let mut flipped = new.clone();
            flipped[at] ^= 0x40;
            match read_bytes("flip-one", &flipped).0 {
                Err(DbError::TamperDetected(m)) => assert!(m.contains("offset"), "{m}"),
                other => panic!("byte {at} flipped: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_adopts_a_text_refs_file_and_replaces_it_on_the_first_commit() {
        let dir = temp_dir("legacy");
        let text = {
            let db = open(&dir);
            put(&db, "a", 1);
            put(&db, "b", 2);
            db.branch("a", "master", "dev").unwrap();
            db.store().sync().unwrap();
            db.dump_refs()
        };
        std::fs::write(dir.join(LEGACY), &text).unwrap();
        assert_eq!(read(&dir).unwrap(), Some(text.clone()));
        let db = open(&dir);
        db.load_refs(&read(&dir).unwrap().unwrap()).unwrap();
        commit(&dir, &db).unwrap();
        assert!(dir.join(LOG).exists());
        assert!(!dir.join(LEGACY).exists());
        assert_eq!(read(&dir).unwrap(), Some(text.clone()));
        // When both exist, the log wins.
        std::fs::write(dir.join(LEGACY), "stale\tmaster\tnot-a-uid\n").unwrap();
        assert_eq!(read(&dir).unwrap(), Some(text));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_heads_naming_a_missing_version_are_refused_on_load() {
        let dir = temp_dir("missing");
        let bogus = RefSwing {
            key: "k".into(),
            branch: "master".into(),
            head: Some(Uid::from_bytes([0xab; UID_LEN])),
        };
        let mut log = LOG_MAGIC.to_vec();
        log.extend_from_slice(&frame(CHECKPOINT, &[bogus]).unwrap());
        std::fs::write(dir.join(LOG), log).unwrap();
        let text = read(&dir).unwrap().unwrap();
        assert!(open(&dir).load_refs(&text).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_replays_a_delete_then_a_re_create() {
        let dir = temp_dir("recreate");
        let db = open(&dir);
        for i in 0..10 {
            put(&db, &format!("k{i}"), 0);
        }
        commit(&dir, &db).unwrap();
        db.delete_branch("k1", "master").unwrap();
        commit(&dir, &db).unwrap();
        assert!(!read(&dir).unwrap().unwrap().contains("k1\t"));
        put(&db, "k1", 1);
        commit(&dir, &db).unwrap();
        // Within one drain, too.
        db.delete_branch("k2", "master").unwrap();
        put(&db, "k2", 2);
        commit(&dir, &db).unwrap();
        let heads = db.dump_refs();
        assert_eq!(read(&dir).unwrap().as_ref(), Some(&heads));
        drop(db);
        let reopened = open(&dir);
        reopened.load_refs(&read(&dir).unwrap().unwrap()).unwrap();
        assert_eq!(reopened.dump_refs(), heads);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_folds_into_a_fresh_checkpoint_with_identical_heads() {
        let dir = temp_dir("fold");
        let db = open(&dir);
        for i in 0..50 {
            put(&db, &format!("k{i:02}"), 0);
        }
        commit(&dir, &db).unwrap();
        let mut folds = 0;
        let mut last = log_bytes(&dir).len();
        for round in 1..40 {
            put(&db, &format!("k{:02}", round % 50), round);
            put(&db, &format!("new{round}"), round);
            commit(&dir, &db).unwrap();
            let log = log_bytes(&dir);
            let checkpoint = LOG_MAGIC.len() + FRAME_HEADER + le_u32(&log[8..]) as usize;
            folds += usize::from(log.len() < last);
            last = log.len();
            // At most one delta frame (two swings here) past 1.5x.
            let bound = checkpoint * 3 / 2 + 200;
            assert!(log.len() <= bound, "{} against {checkpoint}", log.len());
            assert_eq!(read(&dir).unwrap(), Some(db.dump_refs()), "round {round}");
        }
        assert!(folds >= 2, "{folds} folds");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `FileStore` whose next `sync`, once armed, lets another thread
    /// publish a head right after the flush: a put on another connection
    /// landing between a persist's store sync and its ref write.
    struct PutDuringSync {
        store: FileStore,
        armed: std::sync::Mutex<Option<(Sender<()>, Receiver<()>)>>,
    }

    impl ChunkStore for PutDuringSync {
        fn put_with_hash(&self, hash: Uid, bytes: Bytes) -> StoreResult<bool> {
            self.store.put_with_hash(hash, bytes)
        }
        fn put_batch(&self, chunks: Vec<(Uid, Bytes)>) -> StoreResult<usize> {
            self.store.put_batch(chunks)
        }
        fn get(&self, hash: &Uid) -> StoreResult<Option<Bytes>> {
            self.store.get(hash)
        }
        fn stats(&self) -> StoreStats {
            self.store.stats()
        }
        fn chunk_count(&self) -> usize {
            self.store.chunk_count()
        }
        fn stored_bytes(&self) -> u64 {
            self.store.stored_bytes()
        }
        fn sync(&self) -> StoreResult<()> {
            self.store.sync()?;
            if let Some((go, done)) = self.armed.lock().unwrap().take() {
                go.send(()).unwrap();
                done.recv().unwrap();
            }
            Ok(())
        }
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let target = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &target);
            } else {
                std::fs::copy(entry.path(), target).unwrap();
            }
        }
    }

    #[test]
    fn reflog_a_head_published_during_the_store_sync_waits_for_the_next_commit() {
        let dir = temp_dir("sync-race");
        let db = std::sync::Arc::new(ForkBase::new(PutDuringSync {
            store: FileStore::open(dir.join("chunks")).unwrap(),
            armed: std::sync::Mutex::new(None),
        }));
        let opts = PutOptions::default();
        for i in 0..10 {
            db.put(&format!("k{i}"), Value::Int(i), &opts).unwrap();
        }
        commit(&dir, &*db).unwrap();
        db.put("acked", Value::Int(1), &opts).unwrap();
        let (go, wait_go) = channel();
        let (finished, done) = channel();
        *db.store().armed.lock().unwrap() = Some((go, done));
        let late = {
            let db = std::sync::Arc::clone(&db);
            std::thread::spawn(move || {
                wait_go.recv().unwrap();
                db.put("late", Value::Int(2), &PutOptions::default())
                    .unwrap();
                finished.send(()).unwrap();
            })
        };
        commit(&dir, &*db).unwrap();
        late.join().unwrap();
        // Crash now: what the process still buffers (the late put's
        // chunks) never reaches the disk. What is on disk must open.
        let on_disk = temp_dir("sync-race-crashed");
        copy_dir(&dir, &on_disk);
        std::mem::forget(db);
        let reopened = open(&on_disk);
        reopened
            .load_refs(&read(&on_disk).unwrap().unwrap())
            .unwrap();
        assert!(reopened.head("acked", "master").is_ok());
        assert!(reopened.head("late", "master").is_err());
        drop(reopened);
        std::fs::remove_dir_all(&on_disk).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_a_failed_commit_leaves_the_next_one_a_whole_checkpoint() {
        let dir = temp_dir("failed");
        let db = open(&dir);
        for i in 0..10 {
            put(&db, &format!("k{i}"), 0);
        }
        commit(&dir, &db).unwrap();
        put(&db, "k0", 1);
        // The directory is gone: the append cannot land.
        std::fs::remove_file(dir.join(LOG)).unwrap();
        std::fs::create_dir(dir.join(LOG)).unwrap();
        assert!(commit(&dir, &db).is_err());
        std::fs::remove_dir(dir.join(LOG)).unwrap();
        put(&db, "k1", 1);
        commit(&dir, &db).unwrap();
        assert_eq!(read(&dir).unwrap(), Some(db.dump_refs()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
