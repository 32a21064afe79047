//! Outside-only tracing: spans around the calls the harness makes into
//! each layer, and `TimedStore`, a benchmark-owned wrapper that times and
//! counts every call the database issues to its chunk store.
//!
//! Everything is thread-local. A worker switches tracing on and off for
//! itself at operation boundaries (alternating slices of a traced run), so
//! a span never straddles a switch and the untraced slices of the same run
//! give the baseline for `loadgen.trace_overhead_share`. Spans nest through
//! a per-thread stack: a span's self time is its duration minus the time
//! its children covered, accumulated when each span closes. Aggregates are
//! kept for every span; the first [`RETAINED_SPANS`] per thread are also
//! kept whole and written to `trace-<workload>.json` at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use bytes::Bytes;
use forkbase_crypto::Hash;
use forkbase_store::{ChunkStore, StoreResult, StoreStats, SweepReport, SweepStore, Utilization};

use crate::stats::Samples;

/// Whole spans kept per thread for the trace file.
const RETAINED_SPANS: usize = 20_000;
/// Chunk payload bytes kept per thread for the SHA-256 replay.
const PAYLOAD_SAMPLE_BYTES: usize = 24 << 20;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed span, as written to the trace file.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span of one name.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations: Samples,
}

impl Agg {
    pub fn count(&self) -> u64 {
        self.durations.len() as u64
    }
}

/// Counts taken at the store boundary while tracing is on.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    /// Chunks presented to `put_with_hash` / `put_batch`.
    pub put_chunks: u64,
    /// Payload bytes of those chunks.
    pub put_bytes: u64,
    /// Chunks that were new to the store.
    pub put_new_chunks: u64,
    /// Payload bytes returned by `get`.
    pub get_bytes: u64,
}

struct Open {
    id: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
}

/// Everything one thread traced.
#[derive(Default)]
pub struct ThreadTrace {
    on: bool,
    stack: Vec<Open>,
    pub aggs: BTreeMap<&'static str, Agg>,
    pub spans: Vec<SpanRec>,
    pub store: StoreCounts,
    pub payloads: Vec<Bytes>,
    payload_bytes: usize,
    /// Wall time this thread spent with tracing on.
    pub on_ns: u64,
    on_since: u64,
}

impl ThreadTrace {
    pub fn merge(&mut self, other: ThreadTrace) {
        for (name, agg) in other.aggs {
            let mine = self.aggs.entry(name).or_default();
            mine.total_ns += agg.total_ns;
            mine.self_ns += agg.self_ns;
            mine.durations.extend(&agg.durations);
        }
        self.spans.extend(other.spans);
        self.store.put_chunks += other.store.put_chunks;
        self.store.put_bytes += other.store.put_bytes;
        self.store.put_new_chunks += other.store.put_new_chunks;
        self.store.get_bytes += other.store.get_bytes;
        self.payloads.extend(other.payloads);
        self.on_ns += other.on_ns;
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).cloned().unwrap_or_default()
    }

    /// Median duration of a span name, in microseconds.
    pub fn p50_us(&self, name: &str) -> f64 {
        self.agg(name).durations.p50_us()
    }

    /// The retained spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]");
        out
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Switch tracing for the calling thread. Only call between operations.
pub fn set_on(on: bool) {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if t.on == on {
            return;
        }
        let now = now_ns();
        if on {
            t.on_since = now;
        } else {
            t.on_ns += now - t.on_since;
        }
        t.on = on;
    });
}

pub fn is_on() -> bool {
    TRACE.with(|t| t.borrow().on)
}

/// The calling thread's store counts so far (for deltas around one call).
pub fn store_counts() -> StoreCounts {
    TRACE.with(|t| t.borrow().store)
}

/// Hand the calling thread's trace to the caller and reset it.
pub fn take() -> ThreadTrace {
    set_on(false);
    TRACE.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Closes its span when dropped.
pub struct SpanGuard {
    active: bool,
}

/// Open a span on the calling thread (a no-op while tracing is off).
/// `req` ties the spans of one operation together; pass 0 to inherit the
/// enclosing span's.
pub fn span(name: &'static str, req: u64) -> SpanGuard {
    let active = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return false;
        }
        let req = if req == 0 {
            t.stack.last().map_or(0, |p| p.req)
        } else {
            req
        };
        t.stack.push(Open {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            req,
            name,
            start_ns: now_ns(),
            children_ns: 0,
        });
        true
    });
    SpanGuard { active }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            let Some(open) = t.stack.pop() else { return };
            let dur = end_ns - open.start_ns;
            let parent = match t.stack.last_mut() {
                Some(p) => {
                    p.children_ns += dur;
                    p.id
                }
                None => 0,
            };
            let agg = t.aggs.entry(open.name).or_default();
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(open.children_ns);
            agg.durations.push(dur);
            if t.spans.len() < RETAINED_SPANS {
                t.spans.push(SpanRec {
                    id: open.id,
                    parent,
                    req: open.req,
                    name: open.name,
                    start_ns: open.start_ns,
                    end_ns,
                });
            }
        });
    }
}

fn note_payload(t: &mut ThreadTrace, bytes: &Bytes) {
    if t.payload_bytes < PAYLOAD_SAMPLE_BYTES {
        t.payload_bytes += bytes.len();
        t.payloads.push(bytes.clone());
    }
}

/// A chunk store that times and counts the calls passing through it.
/// With tracing off on the calling thread it only forwards.
pub struct TimedStore<S> {
    inner: S,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        TimedStore { inner }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ChunkStore> ChunkStore for TimedStore<S> {
    fn put_with_hash(&self, hash: Hash, bytes: Bytes) -> StoreResult<bool> {
        if !is_on() {
            return self.inner.put_with_hash(hash, bytes);
        }
        let len = bytes.len() as u64;
        TRACE.with(|t| note_payload(&mut t.borrow_mut(), &bytes));
        let newly = {
            let _span = span("store.put", 0);
            self.inner.put_with_hash(hash, bytes)?
        };
        TRACE.with(|t| {
            let c = &mut t.borrow_mut().store;
            c.put_chunks += 1;
            c.put_bytes += len;
            c.put_new_chunks += newly as u64;
        });
        Ok(newly)
    }

    fn put_batch(&self, chunks: Vec<(Hash, Bytes)>) -> StoreResult<usize> {
        if !is_on() {
            return self.inner.put_batch(chunks);
        }
        let n = chunks.len() as u64;
        let len: u64 = chunks.iter().map(|(_, b)| b.len() as u64).sum();
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            for (_, b) in &chunks {
                note_payload(&mut t, b);
            }
        });
        let newly = {
            let _span = span("store.put", 0);
            self.inner.put_batch(chunks)?
        };
        TRACE.with(|t| {
            let c = &mut t.borrow_mut().store;
            c.put_chunks += n;
            c.put_bytes += len;
            c.put_new_chunks += newly as u64;
        });
        Ok(newly)
    }

    fn get(&self, hash: &Hash) -> StoreResult<Option<Bytes>> {
        if !is_on() {
            return self.inner.get(hash);
        }
        let got = {
            let _span = span("store.get", 0);
            self.inner.get(hash)?
        };
        if let Some(bytes) = &got {
            TRACE.with(|t| {
                let mut t = t.borrow_mut();
                t.store.get_bytes += bytes.len() as u64;
                note_payload(&mut t, bytes);
            });
        }
        Ok(got)
    }

    fn contains(&self, hash: &Hash) -> StoreResult<bool> {
        self.inner.contains(hash)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn chunk_count(&self) -> usize {
        self.inner.chunk_count()
    }

    fn stored_bytes(&self) -> u64 {
        self.inner.stored_bytes()
    }

    fn sync(&self) -> StoreResult<()> {
        let _span = span("store.sync", 0);
        self.inner.sync()
    }
}

impl<S: SweepStore> SweepStore for TimedStore<S> {
    fn sweep(&self, live: &(dyn Fn(&Hash) -> bool + Sync)) -> StoreResult<SweepReport> {
        let _span = span("store.sweep", 0);
        self.inner.sweep(live)
    }

    fn utilization(&self) -> StoreResult<Utilization> {
        self.inner.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forkbase_store::MemStore;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let store = TimedStore::new(MemStore::new());
        store.put(Bytes::from_static(b"untraced")).unwrap();
        assert!(take().aggs.is_empty());

        set_on(true);
        {
            let _verb = span("verb", 7);
            let h = store.put(Bytes::from_static(b"hello")).unwrap();
            assert!(store.get(&h).unwrap().is_some());
        }
        let t = take();
        let verb = t.agg("verb");
        let children = t.agg("store.put").total_ns + t.agg("store.get").total_ns;
        assert_eq!(verb.count(), 1);
        assert_eq!(verb.self_ns, verb.total_ns - children);
        assert_eq!(t.store.put_chunks, 1);
        assert_eq!(t.store.get_bytes, 5);
        // Children carry the verb's request id and point at it.
        let verb_id = t.spans.iter().find(|s| s.name == "verb").unwrap().id;
        for s in t.spans.iter().filter(|s| s.name != "verb") {
            assert_eq!((s.parent, s.req), (verb_id, 7));
        }
        assert!(t.spans_json().contains("\"name\":\"store.get\""));
    }
}
