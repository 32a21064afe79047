//! `refs.log`: everything a data directory persists, in one log.
//!
//! ```text
//! refs.log = LOG_MAGIC ‖ frame(checkpoint) ‖ frame(delta | record)*
//! frame    = len u32 ‖ crc32(len) u32 ‖ crc32(payload) u32 ‖ payload   (LE)
//! payload  = kind u8 (0 checkpoint, 1 delta) ‖ swing*
//!          | kind u8 (2 topology, 3 forks, 4 synced replicas) ‖ UTF-8 text
//! swing    = varint key len ‖ key ‖ varint branch len ‖ branch
//!            ‖ (0 = branch deleted | 1 ‖ head uid, 32 raw bytes)
//! ```
//!
//! The checkpoint holds the whole ref table, a delta one commit's head
//! swings, a record the text of the file its kind replaces (`TOPOLOGY`,
//! `FORKS`, `REPLICAS_SYNCED`); a kind's last record wins, and an empty
//! one is none. [`Log::commit`] drains the ref journal, *then* syncs the
//! chunk store (every head a frame names has its chunks on disk), then
//! appends the swings and the changed records with one `fdatasync`; once
//! the appended frames outweigh half of a fold, or the journal stands for
//! the whole table, it folds instead: tmp, fsync, rename, fsync the dir.
//!
//! [`Log::open`] replays the log: a torn tail (a crashed writer's last
//! append) is cut away, a damaged frame with bytes after it is
//! [`DbError::TamperDetected`] naming its offset, and the heads then pass
//! [`ForkBase::load_refs`]'s checks. The text files the log replaces, and
//! `refs` ([`ForkBase::dump_refs`] text), are adopted for each kind the
//! log lacks; the next commit folds them in, then deletes them.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use forkbase::{DbError, DbResult, ForkBase, RefJournal, RefSwing, Uid};
use forkbase_crypto::crc32;
use forkbase_store::{ChunkStore, MemStore};
use parking_lot::Mutex;

use crate::session::io_err;

/// The log's file name inside a data directory.
const LOG: &str = "refs.log";
/// The first bytes of every `refs.log`.
const LOG_MAGIC: &[u8; 8] = b"FBREFS01";
/// `len`, `crc32(len)` and `crc32(payload)`, each a little-endian u32.
const FRAME_HEADER: usize = 12;
const CHECKPOINT: u8 = 0;
const DELTA: u8 = 1;
/// The record kinds: a cluster's placement, the fork registry, and the
/// replicas a clean save left caught up.
pub const TOPOLOGY: u8 = 2;
pub const FORKS: u8 = 3;
pub const SYNCED: u8 = 4;
const UID_LEN: usize = 32;
/// The text files the log replaces: the heads', then each record kind's.
const LEGACY: [&str; 4] = ["refs", "TOPOLOGY", "FORKS", "REPLICAS_SYNCED"];

/// One directory's log. Its mutex serializes every commit to the
/// directory, so each drain of the ref journal is appended before the
/// next is taken, and a fold never races an append.
#[derive(Default)]
pub struct Log {
    pub(crate) dir: PathBuf,
    latest: Mutex<Latest>,
}

/// The records, the bytes up to the checkpoint's end, and the log's
/// length: 0 when the next commit folds (no log yet, legacy files
/// adopted, or a commit failed).
#[derive(Default)]
struct Latest {
    records: Records,
    checkpoint: usize,
    len: usize,
}

impl Log {
    /// Open `dir`'s log, cutting a torn tail, with the heads it holds as
    /// [`ForkBase::load_refs`] text (`None` when it holds none).
    pub fn open(dir: &Path) -> DbResult<(Log, Option<String>)> {
        let path = dir.join(LOG);
        let (mut heads, mut latest) = (None, Latest::default());
        match std::fs::read(&path) {
            Ok(bytes) => {
                let (table, whole) = replay(&bytes, &mut latest.records)?;
                if whole < bytes.len() {
                    // The next append must follow the last whole frame.
                    let file = File::options().write(true).open(&path).map_err(io_err)?;
                    file.set_len(whole as u64)
                        .and_then(|()| file.sync_data())
                        .map_err(io_err)?;
                }
                let text = heads.insert(String::new());
                for (key, branches) in &table {
                    for (branch, head) in branches {
                        text.push_str(&format!("{key}\t{branch}\t{}\n", head.to_hex()));
                    }
                }
                latest.checkpoint = LOG_MAGIC.len() + FRAME_HEADER + le_u32(&bytes[8..]) as usize;
                latest.len = whole;
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }
        for (kind, name) in [CHECKPOINT, TOPOLOGY, FORKS, SYNCED]
            .into_iter()
            .zip(LEGACY)
        {
            let text = match std::fs::read_to_string(dir.join(name)) {
                Ok(text) => text,
                Err(e) if e.kind() == ErrorKind::NotFound => continue,
                Err(e) => return Err(io_err(e)),
            };
            latest.len = 0;
            match kind {
                CHECKPOINT => heads.get_or_insert(text),
                _ => latest.records.entry(kind).or_insert(text),
            };
        }
        let (dir, latest) = (dir.to_path_buf(), Mutex::new(latest));
        Ok((Log { dir, latest }, heads))
    }

    /// The latest text of record `kind`, `None` when there is none.
    pub fn body(&self, kind: u8) -> Option<String> {
        let latest = self.latest.lock();
        let text = latest.records.get(&kind)?;
        (!text.is_empty()).then(|| text.clone())
    }

    /// [`Self::commit`] of `records` alone, in a directory whose heads no
    /// database here owns (a cluster's).
    pub fn record(&self, records: &[(u8, String)]) -> DbResult<()> {
        self.commit(None::<&ForkBase<MemStore>>, records)
    }

    /// Make `db`'s heads (when given) and `records`, `(kind, text)` pairs,
    /// durable: drain the ref journal, sync the chunk store, then append
    /// the swings and the changed records, or fold. When anything fails,
    /// the next commit folds, writing a whole log over what this one left.
    pub fn commit<S: ChunkStore>(
        &self,
        db: Option<&ForkBase<S>>,
        records: &[(u8, String)],
    ) -> DbResult<()> {
        let mut latest = self.latest.lock();
        (|| {
            // The frames of the records whose text changed.
            let mut changed = Vec::new();
            for (kind, text) in records {
                if latest.records.get(kind).map_or("", String::as_str) != text {
                    changed.extend_from_slice(&frame(*kind, text.as_bytes())?);
                    latest.records.insert(*kind, text.clone());
                }
            }
            let records: usize = latest
                .records
                .values()
                .map(|t| FRAME_HEADER + 1 + t.len())
                .sum();
            let folded = latest.checkpoint + records;
            let append = latest.len > 0 && latest.len.saturating_sub(folded) <= folded / 2;
            let journal = match db {
                Some(db) => {
                    if !append {
                        db.reset_ref_journal();
                    }
                    let journal = db.take_ref_journal();
                    db.store().sync()?;
                    journal
                }
                None if !append => RefJournal::Table(Vec::new()),
                None => RefJournal::Swings(Vec::new()),
            };
            let path = self.dir.join(LOG);
            // Not appending, the journal is the table.
            match journal {
                RefJournal::Swings(swings) => {
                    let mut bytes = Vec::new();
                    if !swings.is_empty() {
                        bytes = frame(DELTA, &encode(&swings))?;
                    }
                    bytes.extend_from_slice(&changed);
                    if !bytes.is_empty() {
                        let mut file = File::options().append(true).open(&path).map_err(io_err)?;
                        file.write_all(&bytes)
                            .and_then(|()| file.sync_data())
                            .map_err(io_err)?;
                        latest.len += bytes.len();
                    }
                }
                RefJournal::Table(heads) => {
                    let mut bytes = LOG_MAGIC.to_vec();
                    bytes.extend_from_slice(&frame(CHECKPOINT, &encode(&heads))?);
                    latest.checkpoint = bytes.len();
                    for (&kind, text) in &latest.records {
                        bytes.extend_from_slice(&frame(kind, text.as_bytes())?);
                    }
                    write_durable(&path, &bytes)?;
                    for name in LEGACY {
                        match std::fs::remove_file(self.dir.join(name)) {
                            Err(e) if e.kind() != ErrorKind::NotFound => return Err(io_err(e)),
                            _ => {}
                        }
                    }
                    latest.len = bytes.len();
                }
            }
            Ok(())
        })()
        .inspect_err(|_| latest.len = 0)
    }
}

type Heads = BTreeMap<String, BTreeMap<String, Uid>>;
/// Each record kind's latest text.
type Records = BTreeMap<u8, String>;

/// Replay a log's bytes: the heads after its last whole frame, where that
/// frame ends, and each record kind's last text into `records`.
fn replay(bytes: &[u8], records: &mut Records) -> DbResult<(Heads, usize)> {
    if bytes.get(..LOG_MAGIC.len()) != Some(LOG_MAGIC) {
        return Err(tampered(0, "not a refs.log (bad magic)"));
    }
    let (mut heads, mut at) = (Heads::new(), LOG_MAGIC.len());
    while let Some((payload, end)) = frame_at(bytes, at)? {
        apply(payload, at, &mut heads, records)?;
        at = end;
    }
    // The checkpoint is written whole and renamed into place: it is never
    // a torn tail.
    if at == LOG_MAGIC.len() {
        return Err(tampered(at, "the checkpoint frame is cut short"));
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

/// Apply the frame at offset `at`: the log's first frame must be its
/// checkpoint, and every later one a delta or a record.
fn apply(payload: &[u8], at: usize, heads: &mut Heads, records: &mut Records) -> DbResult<()> {
    let first = at == LOG_MAGIC.len();
    let malformed = || tampered(at, "frame does not decode");
    let (&kind, mut rest) = payload.split_first().ok_or_else(malformed)?;
    match kind {
        CHECKPOINT | DELTA if (kind == CHECKPOINT) == first => {}
        TOPOLOGY..=SYNCED if !first => {
            let text = String::from_utf8(rest.to_vec()).map_err(|_| malformed())?;
            records.insert(kind, text);
            return Ok(());
        }
        _ => return Err(tampered(at, "frame of the wrong kind")),
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

/// One frame of `kind` holding `body`, header included.
fn frame(kind: u8, body: &[u8]) -> DbResult<Vec<u8>> {
    let len = u32::try_from(body.len() + 1)
        .map_err(|_| DbError::InvalidInput("a refs.log frame over 4 GiB".into()))?
        .to_le_bytes();
    // The payload's CRC goes in the zeros once the payload is in place.
    let mut out = [&len[..], &crc32(&len).to_le_bytes(), &[0; 4], &[kind], body].concat();
    let payload_crc = crc32(&out[FRAME_HEADER..]);
    out[8..12].copy_from_slice(&payload_crc.to_le_bytes());
    Ok(out)
}

/// `swings` as a checkpoint or delta body.
fn encode(swings: &[RefSwing]) -> Vec<u8> {
    let mut out = Vec::new();
    for swing in swings {
        for name in [&swing.key, &swing.branch] {
            put_varint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        out.push(u8::from(swing.head.is_some()));
        out.extend(swing.head.iter().flat_map(|uid| uid.as_bytes()));
    }
    out
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
    let (taken, after) = rest.split_at_checked(n)?;
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

/// Durably replace `path` with `contents`: write a tmp file, fsync it,
/// atomically rename it into place, then fsync the parent directory —
/// the same protocol the chunk store uses for its MANIFEST. A fold is its
/// one caller, so a crash leaves either the old log or the new one.
fn write_durable(path: &Path, contents: &[u8]) -> DbResult<()> {
    let tmp = path.with_extension("tmp");
    (|| -> std::io::Result<()> {
        {
            let mut f = File::create(&tmp)?;
            f.write_all(contents)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    })()
    .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use forkbase::PutOptions;
    use forkbase_store::{FileStore, StoreResult, StoreStats};
    use forkbase_types::Value;
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

    /// What a directory's log holds: its heads and its records.
    type State = (Option<String>, Records);

    fn state(dir: &Path) -> DbResult<State> {
        let (log, heads) = Log::open(dir)?;
        Ok((heads, log.latest.into_inner().records))
    }

    fn heads(dir: &Path) -> Option<String> {
        Log::open(dir).unwrap().1
    }

    /// `bytes` as the only file of a fresh directory, read back.
    fn read_bytes(tag: &str, bytes: &[u8]) -> (DbResult<State>, u64) {
        let dir = temp_dir(tag);
        std::fs::write(dir.join(LOG), bytes).unwrap();
        let read = state(&dir);
        let len = std::fs::metadata(dir.join(LOG)).unwrap().len();
        std::fs::remove_dir_all(&dir).unwrap();
        (read, len)
    }

    /// A database with a checkpoint and two appends, with the state and
    /// the log bytes after each. With `records`, every commit also
    /// changes every record kind, so the log holds every kind and each
    /// append is a delta frame followed by one frame per record kind.
    fn three_commits(dir: &Path, records: bool) -> Vec<(State, Vec<u8>)> {
        let db = open(dir);
        let (log, _) = Log::open(dir).unwrap();
        let mut states = Vec::new();
        let mut commit = |round: usize| {
            let bodies: Vec<(u8, String)> = [TOPOLOGY, FORKS, SYNCED]
                .into_iter()
                .filter(|_| records)
                .map(|kind| (kind, format!("kind {kind}\nround {round}\n")))
                .collect();
            log.commit(Some(&db), &bodies).unwrap();
            states.push((state(dir).unwrap(), log_bytes(dir)));
        };
        for i in 0..20 {
            put(&db, &format!("k{i:02}"), 0);
        }
        commit(0);
        put(&db, "k00", 1);
        db.branch("k01", "master", "dev").unwrap();
        commit(1);
        put(&db, "k02", 2);
        put(&db, "k03", 2);
        db.delete_branch("k01", "master").unwrap();
        commit(2);
        assert_eq!(states[2].0 .0.as_deref(), Some(db.dump_refs().as_str()));
        states
    }

    #[test]
    fn reflog_torn_last_frame_gives_the_old_heads_or_the_new() {
        for records in [false, true] {
            let dir = temp_dir("torn");
            let states = three_commits(&dir, records);
            let [_, (before, old), (after, new)] = &states[..] else {
                panic!("three commits");
            };
            assert_ne!(before, after);
            // Where each frame of the last append ends: a cut keeps the
            // whole ones, the delta first, then the records in kind order.
            let mut ends = Vec::new();
            while let Some((_, end)) = frame_at(new, *ends.last().unwrap_or(&old.len())).unwrap() {
                ends.push(end);
            }
            assert_eq!(ends.len(), if records { 4 } else { 1 });
            for cut in old.len()..=new.len() {
                let (read, len) = read_bytes("torn-cut", &new[..cut]);
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                let mut expect = before.clone();
                if whole > 0 {
                    expect.0.clone_from(&after.0);
                }
                for kind in (TOPOLOGY..).take(whole.saturating_sub(1)) {
                    expect.1.insert(kind, after.1[&kind].clone());
                }
                assert_eq!(read.unwrap(), expect, "cut at {cut}");
                let kept = ends[..whole].last().copied().unwrap_or(old.len());
                assert_eq!(len, kept as u64, "torn tail cut away at {cut}");
            }
            // A crash that left the appended range zero-filled.
            let mut zeroed = new.clone();
            zeroed[old.len()..].fill(0);
            assert_eq!(&read_bytes("torn-zero", &zeroed).0.unwrap(), before);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reflog_flipped_byte_before_the_last_frame_is_tamper_evidence() {
        for records in [false, true] {
            let dir = temp_dir("flip");
            let states = three_commits(&dir, records);
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
        let forks = "forkbase-forks-v1\n";
        std::fs::write(dir.join("refs"), &text).unwrap();
        std::fs::write(dir.join("FORKS"), forks).unwrap();
        let (log, read) = Log::open(&dir).unwrap();
        assert_eq!(read, Some(text.clone()));
        assert_eq!(log.body(FORKS).as_deref(), Some(forks));
        let db = open(&dir);
        db.load_refs(&read.unwrap()).unwrap();
        log.commit(Some(&db), &[(FORKS, forks.to_string())])
            .unwrap();
        assert!(dir.join(LOG).exists());
        assert!(!dir.join("refs").exists() && !dir.join("FORKS").exists());
        let adopted = (Some(text), BTreeMap::from([(FORKS, forks.to_string())]));
        assert_eq!(state(&dir).unwrap(), adopted);
        // When both exist, the log wins.
        std::fs::write(dir.join("refs"), "stale\tmaster\tnot-a-uid\n").unwrap();
        std::fs::write(dir.join("FORKS"), "stale").unwrap();
        assert_eq!(state(&dir).unwrap(), adopted);
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
        log.extend_from_slice(&frame(CHECKPOINT, &encode(&[bogus])).unwrap());
        std::fs::write(dir.join(LOG), log).unwrap();
        let text = heads(&dir).unwrap();
        assert!(open(&dir).load_refs(&text).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_replays_a_delete_then_a_re_create() {
        let dir = temp_dir("recreate");
        let db = open(&dir);
        let (log, _) = Log::open(&dir).unwrap();
        for i in 0..10 {
            put(&db, &format!("k{i}"), 0);
        }
        log.commit(Some(&db), &[]).unwrap();
        db.delete_branch("k1", "master").unwrap();
        log.commit(Some(&db), &[]).unwrap();
        assert!(!heads(&dir).unwrap().contains("k1\t"));
        put(&db, "k1", 1);
        log.commit(Some(&db), &[]).unwrap();
        // Within one drain, too.
        db.delete_branch("k2", "master").unwrap();
        put(&db, "k2", 2);
        log.commit(Some(&db), &[]).unwrap();
        let dumped = db.dump_refs();
        assert_eq!(heads(&dir).as_ref(), Some(&dumped));
        drop(db);
        let reopened = open(&dir);
        reopened.load_refs(&heads(&dir).unwrap()).unwrap();
        assert_eq!(reopened.dump_refs(), dumped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reflog_folds_into_a_fresh_checkpoint_with_identical_heads() {
        let dir = temp_dir("fold");
        let db = open(&dir);
        let (log, _) = Log::open(&dir).unwrap();
        for i in 0..50 {
            put(&db, &format!("k{i:02}"), 0);
        }
        let forks = |round: i64| (FORKS, format!("forks as of round {round:02}\n"));
        log.commit(Some(&db), &[forks(0)]).unwrap();
        let mut folds = 0;
        let mut last = log_bytes(&dir).len();
        for round in 1..40 {
            put(&db, &format!("k{:02}", round % 50), round);
            put(&db, &format!("new{round}"), round);
            // The registry changes every third round: a fold carries it.
            log.commit(Some(&db), &[forks(round / 3)]).unwrap();
            let bytes = log_bytes(&dir);
            let checkpoint = LOG_MAGIC.len() + FRAME_HEADER + le_u32(&bytes[8..]) as usize;
            let folded = checkpoint + FRAME_HEADER + 1 + forks(0).1.len();
            folds += usize::from(bytes.len() < last);
            last = bytes.len();
            // At most one append (two swings and a record here) past 1.5x.
            let bound = folded * 3 / 2 + 250;
            assert!(bytes.len() <= bound, "{} against {folded}", bytes.len());
            let expect = (Some(db.dump_refs()), BTreeMap::from([forks(round / 3)]));
            assert_eq!(state(&dir).unwrap(), expect, "round {round}");
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
        fn put_batch(&self, chunks: Vec<(Uid, Bytes)>) -> StoreResult<usize> {
            self.store.put_batch(chunks)
        }
        fn get(&self, hash: &Uid) -> StoreResult<Option<Bytes>> {
            self.store.get(hash)
        }
        fn stats(&self) -> StoreStats {
            self.store.stats()
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
        let (log, _) = Log::open(&dir).unwrap();
        let opts = PutOptions::default();
        for i in 0..10 {
            db.put(&format!("k{i}"), Value::Int(i), &opts).unwrap();
        }
        log.commit(Some(&*db), &[]).unwrap();
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
        log.commit(Some(&*db), &[]).unwrap();
        late.join().unwrap();
        // Crash now: what the process still buffers (the late put's
        // chunks) never reaches the disk. What is on disk must open.
        let on_disk = temp_dir("sync-race-crashed");
        copy_dir(&dir, &on_disk);
        std::mem::forget(db);
        let reopened = open(&on_disk);
        reopened.load_refs(&heads(&on_disk).unwrap()).unwrap();
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
        let (log, _) = Log::open(&dir).unwrap();
        for i in 0..10 {
            put(&db, &format!("k{i}"), 0);
        }
        log.commit(Some(&db), &[]).unwrap();
        put(&db, "k0", 1);
        // The directory is gone: the append cannot land.
        std::fs::remove_file(dir.join(LOG)).unwrap();
        std::fs::create_dir(dir.join(LOG)).unwrap();
        let forks = (FORKS, "forkbase-forks-v1\n".to_string());
        assert!(log.commit(Some(&db), std::slice::from_ref(&forks)).is_err());
        std::fs::remove_dir(dir.join(LOG)).unwrap();
        // The record that did not land is written with the next commit.
        put(&db, "k1", 1);
        log.commit(Some(&db), std::slice::from_ref(&forks)).unwrap();
        let expect = (Some(db.dump_refs()), BTreeMap::from([forks]));
        assert_eq!(state(&dir).unwrap(), expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
