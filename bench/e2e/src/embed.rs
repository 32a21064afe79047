//! The embedded workloads' database: the shipped `forkbase_cli::Session`
//! directory layout (`<root>/chunks` + `<root>/refs`) opened with the
//! benchmark's `TimedStore` between the database and its `FileStore`.
//!
//! One type serves traced and untraced runs alike: with tracing off on the
//! calling thread `TimedStore` only forwards. Every embedded run ends by
//! reopening the directory through the real `Session::open`, which keeps
//! this module honest about the layout.

use std::path::Path;
use std::time::Instant;

use forkbase::ForkBase;
use forkbase_store::{ChunkStore, FileStore};

use crate::openloop::traced_slice;
use crate::trace::TimedStore;

pub type Db = ForkBase<TimedStore<FileStore>>;

pub fn open(root: &Path) -> Result<Db, String> {
    let store = FileStore::open(root.join("chunks")).map_err(|e| format!("open store: {e}"))?;
    let db = ForkBase::new(TimedStore::new(store));
    let refs = root.join("refs");
    if refs.exists() {
        let text = std::fs::read_to_string(&refs).map_err(|e| format!("read refs: {e}"))?;
        db.load_refs(&text).map_err(|e| format!("load refs: {e}"))?;
    }
    Ok(db)
}

/// What `Session::save` does: flush the chunk store, then swap the refs
/// file in atomically.
pub fn save(db: &Db, root: &Path) -> Result<(), String> {
    db.store().sync().map_err(|e| format!("sync: {e}"))?;
    let refs = root.join("refs");
    let tmp = refs.with_extension("tmp");
    std::fs::write(&tmp, db.dump_refs())
        .and_then(|()| std::fs::rename(&tmp, &refs))
        .map_err(|e| format!("write refs: {e}"))
}

/// Whether a closed-loop operation starting now belongs to a traced slice
/// of a traced run.
pub fn slice_on(trace: bool, window_start: Instant) -> bool {
    trace && traced_slice(window_start.elapsed().as_nanos() as u64)
}
