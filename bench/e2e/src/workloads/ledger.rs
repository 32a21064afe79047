//! `ledger_embedded`: an account-state ledger on the embedded store.
//!
//! [`CONTRACTS`] genesis maps of accounts under keys `state-NN`: one
//! storage map per contract, as in an account-model chain. (Several
//! mid-sized trees instead of one large one also keep the medians from
//! hinging on the sizes of the two or three index nodes one tree of an
//! affordable size would have; those sizes change with the seed.) The
//! writer (closed loop) commits blocks of zipfian transfers inside one
//! contract, round robin, with `put_map_edits`, and makes each durable with
//! one `sync`. [`REORGS`] times per window it forks a few blocks back,
//! commits a short side chain and drops it; [`GCS`] times per window it
//! runs `gc()`. Both happen at fixed points of the window, not after a
//! number of blocks, so every run pays for the same number of them however
//! fast it commits. The reader (closed loop) looks accounts up through
//! per-contract snapshots it refreshes every [`SNAPSHOT_EVERY`] reads,
//! reads some at historical versions, and asks for some with a Merkle
//! proof it then verifies.
//!
//! POS-Tree path copying and lookup, small-chunk hashing, pack append,
//! fsync and GC/compaction do nearly all the work; HTTP, the wire codec
//! and content-defined chunking of bulk bytes do none. Writer and reader
//! share the trees and the store, so a read-side win that costs commits
//! (or a GC stall) shows.
//!
//! Commits and lookups are timed on the busy clock (`busy.rs`), the
//! thread's on-CPU time, so that neighbours on the host (stolen vCPU time,
//! a slow `fsync`) do not move the medians. Throughputs, spans and stalls
//! stay on the wall clock.
//!
//! Every read is checked after the window against a replay of the blocks
//! (the snapshot's uid names the block it saw); the run ends by reopening
//! the directory through `Session::open` and reading the last block back.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bytes::Bytes;
use forkbase::{ForkBase, PutOptions, Snapshot, Uid, VersionSpec};
use forkbase_postree::MapEdit;
use forkbase_store::{ChunkStore, MemStore};

use super::{timed_set_ups, RunCfg};
use crate::busy;
use crate::embed::{self, slice_on, Db};
use crate::layers::{self, StoreWindow};
use crate::metrics::Outcome;
use crate::rng::{Rng, Zipf};
use crate::stats::{ratio, Samples, Sliced};
use crate::trace::{self, ThreadTrace};

/// Storage maps; each block and each lookup goes to one of them.
const CONTRACTS: u64 = 8;
const ZIPF_THETA: f64 = 0.99;
const TRANSFERS_PER_BLOCK: usize = 50;
const EDITS_PER_BLOCK: usize = TRANSFERS_PER_BLOCK * 2;
/// Reorganisations per window, evenly spaced.
const REORGS: u32 = 7;
const REORG_DEPTH: usize = 5;
const FORK_BLOCKS: usize = 3;
/// Collections per window, evenly spaced (one more follows the window,
/// before space is measured).
const GCS: u32 = 2;
const SNAPSHOT_EVERY: usize = 100;
const HISTORICAL_SHARE: f64 = 0.05;
const PROOF_SHARE: f64 = 0.01;
const WARMUP_BLOCKS: usize = 16;
const WARMUP_READS: usize = 1_000;
const GENESIS_BALANCE: u64 = 1_000_000;
/// Key and value bytes one edit presents to `put_map_edits`.
const EDIT_BYTES: u64 = 16 + 32;

/// Accounts per contract.
fn accounts(cfg: &RunCfg) -> u64 {
    if cfg.quick {
        1_000
    } else {
        8_000
    }
}

fn contract_key(c: u64) -> String {
    format!("state-{c:02}")
}

/// Account `i` of contract `c`.
fn account_id(c: u64, i: u64) -> u64 {
    i * CONTRACTS + c
}

fn contract_of(id: u64) -> u64 {
    id % CONTRACTS
}

/// Account addresses look like hashes: a bijective mix of the id, so hot
/// accounts are scattered over the key space.
fn account_key(id: u64) -> Bytes {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Bytes::from(format!("{:016x}", z ^ (z >> 31)))
}

/// 32 bytes: balance, nonce, and a fixed per-account tail.
fn account_value(id: u64, balance: u64, nonce: u64) -> Bytes {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&balance.to_le_bytes());
    v.extend_from_slice(&nonce.to_le_bytes());
    v.extend_from_slice(&id.wrapping_mul(0xA076_1D64_78BD_642F).to_le_bytes());
    v.extend_from_slice(&id.to_le_bytes());
    Bytes::from(v)
}

fn decode_value(id: u64, v: &[u8]) -> Option<(u64, u64)> {
    if v.len() != 32 || v[24..32] != id.to_le_bytes() {
        return None;
    }
    Some((
        u64::from_le_bytes(v[0..8].try_into().ok()?),
        u64::from_le_bytes(v[8..16].try_into().ok()?),
    ))
}

fn genesis_pairs(c: u64, n: u64) -> Vec<(Bytes, Bytes)> {
    (0..n)
        .map(|i| account_id(c, i))
        .map(|id| (account_key(id), account_value(id, GENESIS_BALANCE, 0)))
        .collect()
}

/// One committed master block: its contract, its version and the
/// `(account, balance, nonce)` states it set, in order.
struct Block {
    contract: u64,
    uid: Uid,
    changes: Vec<(u32, u64, u64)>,
}

fn edits_of(changes: &[(u32, u64, u64)]) -> Vec<MapEdit> {
    changes
        .iter()
        .map(|&(id, bal, nonce)| {
            MapEdit::put(account_key(id as u64), account_value(id as u64, bal, nonce))
        })
        .collect()
}

/// The chain as the harness knows it: each contract's genesis version,
/// every master block since, and the account states after the last of them.
struct Chain {
    genesis: Vec<Uid>,
    blocks: Vec<Block>,
    state: Vec<(u64, u64)>,
}

/// Uids of each contract's master chain, for reorganisations and the
/// reader's historical reads.
type Published = Mutex<Vec<Vec<Uid>>>;

struct Writer<'a> {
    db: &'a Db,
    cfg: &'a RunCfg,
    zipf: &'a Zipf,
    rng: Rng,
    fork_rng: Rng,
    chain: Chain,
    published: &'a Published,
    /// Block commit + sync latencies.
    commits: Sliced,
    gc_s: Vec<f64>,
    gc_reclaimed: u64,
    stall_us_max: f64,
    /// Edits committed on master / on side chains inside the window.
    edits: u64,
    fork_edits: u64,
    out: Outcome,
}

impl<'a> Writer<'a> {
    fn new(
        db: &'a Db,
        cfg: &'a RunCfg,
        zipf: &'a Zipf,
        published: &'a Published,
        chain: Chain,
        lane: u64,
    ) -> Self {
        Writer {
            db,
            cfg,
            zipf,
            rng: Rng::new(cfg.seed, lane),
            fork_rng: Rng::new(cfg.seed, lane + 1),
            chain,
            published,
            commits: Default::default(),
            gc_s: Vec::new(),
            gc_reclaimed: 0,
            stall_us_max: 0.0,
            edits: 0,
            fork_edits: 0,
            out: Outcome::default(),
        }
    }

    /// Draw the next block's transfers inside `contract` and apply them to
    /// the model.
    fn next_changes(&mut self, contract: u64) -> Vec<(u32, u64, u64)> {
        let n = self.chain.state.len() as u64 / CONTRACTS;
        // The hot accounts move on with every block.
        let epoch = self.chain.blocks.len() as u64;
        let mut changes = Vec::with_capacity(EDITS_PER_BLOCK);
        for _ in 0..TRANSFERS_PER_BLOCK {
            let from = self.zipf.pick_in_epoch(&mut self.rng, epoch);
            let mut to = self.zipf.pick_in_epoch(&mut self.rng, epoch);
            if to == from {
                to = (from + 1) % n;
            }
            let (from, to) = (
                account_id(contract, from) as usize,
                account_id(contract, to) as usize,
            );
            let amount = (1 + self.rng.below(100)).min(self.chain.state[from].0);
            self.chain.state[from].0 -= amount;
            self.chain.state[from].1 += 1;
            self.chain.state[to].0 += amount;
            for id in [from, to] {
                let (bal, nonce) = self.chain.state[id];
                changes.push((id as u32, bal, nonce));
            }
        }
        changes
    }

    /// Commit `edits` on `branch` of `contract` and make them durable: the
    /// operation `write_p50_us` times, on the busy clock (the on-CPU time of
    /// both calls). `window` is `None` during warm-up.
    fn commit(
        &mut self,
        contract: u64,
        branch: &str,
        edits: Vec<MapEdit>,
        window: Option<Instant>,
    ) -> Option<Uid> {
        let traced = window.is_some_and(|w| slice_on(self.cfg.trace, w));
        trace::set_on(traced);
        let opts = PutOptions::on_branch(branch).author("ledger");
        let start = busy::now_ns();
        let res = {
            let _s = trace::span("core.api.put_map_edits", 0);
            self.db.put_map_edits(&contract_key(contract), edits, &opts)
        };
        let synced = {
            let _s = trace::span("core.api.sync", 0);
            self.db.store().sync()
        };
        let ns = busy::now_ns() - start;
        if window.is_some() {
            self.out.check(res.is_ok() && synced.is_ok());
            self.commits.push(traced, ns);
        }
        res.ok().map(|c| c.uid)
    }

    /// The next master block, on the next contract in turn.
    fn master_block(&mut self, window: Option<Instant>) {
        let contract = self.chain.blocks.len() as u64 % CONTRACTS;
        let changes = self.next_changes(contract);
        let Some(uid) = self.commit(contract, "master", edits_of(&changes), window) else {
            return;
        };
        if window.is_some() {
            self.edits += changes.len() as u64;
        }
        self.chain.blocks.push(Block {
            contract,
            uid,
            changes,
        });
        self.published.lock().expect("published uids")[contract as usize].push(uid);
    }

    /// On the last block's contract: fork [`REORG_DEPTH`] blocks back,
    /// commit a short side chain, drop it.
    fn reorg(&mut self, window: Instant) {
        let n = self.chain.blocks.len();
        let contract = self.chain.blocks[n - 1].contract;
        let base = {
            let published = self.published.lock().expect("published uids");
            let history = &published[contract as usize];
            history[history.len() - 1 - REORG_DEPTH.min(history.len() - 1)]
        };
        let (key, branch) = (contract_key(contract), format!("fork-{n}"));
        let made = self.db.branch_from_version(&key, &base, &branch);
        self.out.check(made.is_ok());
        for _ in 0..FORK_BLOCKS {
            let edits: Vec<MapEdit> = (0..EDITS_PER_BLOCK)
                .map(|_| {
                    let id = account_id(contract, self.zipf.pick(&mut self.fork_rng));
                    let balance = self.fork_rng.below(GENESIS_BALANCE);
                    MapEdit::put(account_key(id), account_value(id, balance, 1))
                })
                .collect();
            self.fork_edits += edits.len() as u64;
            self.commit(contract, &branch, edits, Some(window));
        }
        let dropped = self.db.delete_branch(&key, &branch);
        self.out.check(dropped.is_ok());
    }

    fn gc(&mut self) {
        // GC is rare and long: a traced run traces it whichever slice it
        // lands in.
        trace::set_on(self.cfg.trace);
        let start = Instant::now();
        let report = {
            let _s = trace::span("core.gc.collect", 0);
            self.db.gc()
        };
        self.gc_s.push(start.elapsed().as_secs_f64());
        self.out.check(report.is_ok());
        if let Ok(r) = report {
            self.gc_reclaimed += r.sweep.bytes_reclaimed;
        }
    }

    fn run(&mut self, window: Instant, deadline: Instant) {
        // The k-th of `count` events is due k/(count+1) into the window.
        let due = |count: u32| -> Vec<Instant> {
            (1..=count)
                .rev()
                .map(|k| window + (deadline - window) * k / (count + 1))
                .collect()
        };
        let (mut gcs, mut reorgs) = (due(GCS), due(REORGS));
        while Instant::now() < deadline {
            self.master_block(Some(window));
            let committed = Instant::now();
            if gcs.last().is_some_and(|at| committed >= *at) {
                gcs.pop();
                self.gc();
                // What the chain sees of a collection: no new block from
                // the commit before it until the commit after it.
                self.master_block(Some(window));
                let stall = committed.elapsed().as_secs_f64() * 1e6;
                self.stall_us_max = self.stall_us_max.max(stall);
            }
            if reorgs.last().is_some_and(|at| Instant::now() >= *at) {
                reorgs.pop();
                self.reorg(window);
            }
        }
    }
}

/// One lookup: which version it read (index into `Reader::versions`),
/// which account, and the `(balance, nonce)` it saw.
#[derive(Clone, Copy)]
struct Read {
    version: u32,
    account: u32,
    got: Option<(u64, u64)>,
}

struct Reader<'a> {
    db: &'a Db,
    cfg: &'a RunCfg,
    zipf: &'a Zipf,
    rng: Rng,
    published: &'a Published,
    versions: Vec<Uid>,
    reads: Vec<Read>,
    lookups: Sliced,
    errors: u64,
}

impl<'a> Reader<'a> {
    fn new(
        db: &'a Db,
        cfg: &'a RunCfg,
        zipf: &'a Zipf,
        published: &'a Published,
        lane: u64,
    ) -> Self {
        Reader {
            db,
            cfg,
            zipf,
            rng: Rng::new(cfg.seed, lane),
            published,
            versions: Vec::new(),
            reads: Vec::new(),
            lookups: Default::default(),
            errors: 0,
        }
    }

    /// Read until `more(reads so far)` says stop. `window` is `None` during
    /// warm-up, when nothing is recorded.
    fn run(&mut self, window: Option<Instant>, more: impl Fn(usize) -> bool) {
        let db = self.db;
        let head = VersionSpec::branch("master");
        // Per contract: the live snapshot, its index in `versions`, and how
        // many reads it has served.
        let mut live: Vec<Option<(Snapshot<'_, _>, u32, usize)>> =
            (0..CONTRACTS).map(|_| None).collect();
        let mut n = 0usize;
        while more(n) {
            let traced = window.is_some_and(|w| slice_on(self.cfg.trace, w));
            trace::set_on(traced);
            let contract = self.rng.below(CONTRACTS);
            // The reader's hot accounts move on as it goes.
            let epoch = (n / SNAPSHOT_EVERY) as u64;
            let account = account_id(contract, self.zipf.pick_in_epoch(&mut self.rng, epoch));
            let key = account_key(account);
            let kind = self.rng.unit();
            n += 1;
            let start = busy::now_ns();
            let slot = &mut live[contract as usize];
            let fresh = slot
                .as_ref()
                .is_some_and(|(_, _, uses)| *uses < SNAPSHOT_EVERY);
            if !fresh {
                let _s = trace::span("core.api.snapshot", 0);
                *slot = db.snapshot(&contract_key(contract), &head).ok().map(|s| {
                    self.versions.push(s.uid());
                    (s, self.versions.len() as u32 - 1, 0)
                });
            }
            let Some((snap, live_version, uses)) = slot else {
                self.errors += 1;
                continue;
            };
            *uses += 1;
            let mut version = *live_version;
            let value = if kind < PROOF_SHARE {
                let _s = trace::span("core.api.prove", 0);
                snap.prove_entry(&key)
                    .and_then(|proof| db.verify_entry_proof(&snap.uid(), &key, &proof))
            } else if kind < PROOF_SHARE + HISTORICAL_SHARE {
                let uid = {
                    let published = self.published.lock().expect("published uids");
                    let history = &published[contract as usize];
                    let back = 1 + self.rng.below(history.len().min(32) as u64) as usize;
                    history[history.len() - back]
                };
                self.versions.push(uid);
                version = self.versions.len() as u32 - 1;
                let _s = trace::span("core.api.get_at", 0);
                db.snapshot_version(&uid).and_then(|old| old.map_get(&key))
            } else {
                let _s = trace::span("core.api.get", 0);
                snap.map_get(&key)
            };
            let ns = busy::now_ns() - start;
            if window.is_some() {
                self.lookups.push(traced, ns);
                self.reads.push(Read {
                    version,
                    account: account as u32,
                    got: value.ok().flatten().and_then(|v| decode_value(account, &v)),
                });
            }
        }
    }
}

/// Check every read against the chain: the uid a read went through names
/// the block whose state it must show (blocks of other contracts never
/// touch the account, so replaying all of them in order is exact).
fn wrong_reads(chain: &Chain, versions: &[Uid], reads: &[Read]) -> u64 {
    let mut block_of: HashMap<Uid, usize> = HashMap::new();
    for genesis in &chain.genesis {
        block_of.insert(*genesis, 0);
    }
    for (i, b) in chain.blocks.iter().enumerate() {
        block_of.insert(b.uid, i + 1);
    }
    let mut by_block: Vec<(usize, &Read)> = Vec::with_capacity(reads.len());
    let mut wrong = 0u64;
    for r in reads {
        match block_of.get(&versions[r.version as usize]) {
            Some(&b) => by_block.push((b, r)),
            None => wrong += 1,
        }
    }
    by_block.sort_by_key(|(b, _)| *b);
    let mut state = vec![(GENESIS_BALANCE, 0u64); chain.state.len()];
    let mut applied = 0usize;
    for (block, read) in by_block {
        while applied < block {
            for &(id, bal, nonce) in &chain.blocks[applied].changes {
                state[id as usize] = (bal, nonce);
            }
            applied += 1;
        }
        if read.got != Some(state[read.account as usize]) {
            wrong += 1;
        }
    }
    wrong
}

/// Everything before the measured window: open a fresh directory, load the
/// genesis state, commit the warm-up blocks, warm the read path.
fn set_up(cfg: &RunCfg, root: &Path, zipf: &Zipf) -> Result<(Db, Chain), String> {
    let n = accounts(cfg);
    let db = embed::open(root)?;
    let mut genesis = Vec::new();
    for c in 0..CONTRACTS {
        let value = db.new_map(genesis_pairs(c, n)).map_err(|e| e.to_string())?;
        let opts = PutOptions::default().author("genesis");
        genesis.push(
            db.put(&contract_key(c), value, &opts)
                .map_err(|e| e.to_string())?
                .uid,
        );
    }
    embed::save(&db, root)?;
    let published = Mutex::new(genesis.iter().map(|g| vec![*g]).collect());
    let chain = Chain {
        genesis,
        blocks: Vec::new(),
        state: vec![(GENESIS_BALANCE, 0); (n * CONTRACTS) as usize],
    };
    let mut warm = Writer::new(&db, cfg, zipf, &published, chain, 10);
    for _ in 0..WARMUP_BLOCKS {
        warm.master_block(None);
    }
    let chain = warm.chain;
    if chain.blocks.len() != WARMUP_BLOCKS {
        return Err("a warm-up block failed to commit".into());
    }
    Reader::new(&db, cfg, zipf, &published, 12).run(None, |n| n < WARMUP_READS);
    Ok((db, chain))
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let n = accounts(cfg);
    let zipf = Zipf::new(n, ZIPF_THETA);

    let root_of = |rep: usize| cfg.dir.join(format!("ledger-{rep}"));
    let (setup_s, (db, chain)) = timed_set_ups(
        |rep| set_up(cfg, &root_of(rep), &zipf),
        |rep, made| {
            drop(made);
            let _ = std::fs::remove_dir_all(root_of(rep));
        },
    )?;
    let root = root_of(super::SETUP_REPS - 1);

    let published: Published = Mutex::new({
        let mut histories: Vec<Vec<Uid>> = chain.genesis.iter().map(|g| vec![*g]).collect();
        for b in &chain.blocks {
            histories[b.contract as usize].push(b.uid);
        }
        histories
    });
    let mut writer = Writer::new(&db, cfg, &zipf, &published, chain, 1);
    let mut reader = Reader::new(&db, cfg, &zipf, &published, 3);

    let stats_before = db.store().stats();
    let disk_before = crate::procs::dir_bytes(&root);
    let cpu_before = crate::procs::cpu_us(0);
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(cfg.seconds);
    let (writer_trace, reader_trace) = std::thread::scope(|scope| {
        let w = scope.spawn(|| {
            writer.run(window, deadline);
            trace::take()
        });
        let r = scope.spawn(|| {
            reader.run(Some(window), |_| Instant::now() < deadline);
            trace::take()
        });
        (
            w.join().expect("ledger writer panicked"),
            r.join().expect("ledger reader panicked"),
        )
    });
    let window_s = window.elapsed().as_secs_f64();
    let cpu_us = crate::procs::cpu_us(0) - cpu_before;
    let stats_after = db.store().stats();

    // Space is measured after a last collection, so the figure does not
    // depend on how long ago the scheduled one ran.
    let last_gc = db.gc().is_ok();
    embed::save(&db, &root)?;
    let disk_bytes = crate::procs::dir_bytes(&root);
    let store_disk = db.store().inner().disk_bytes().unwrap_or(0);

    let Writer {
        chain,
        commits,
        gc_s,
        gc_reclaimed,
        stall_us_max,
        edits,
        fork_edits,
        mut out,
        ..
    } = writer;
    let Reader {
        versions,
        reads,
        lookups,
        errors,
        ..
    } = reader;
    out.check(last_gc);
    out.attempted += reads.len() as u64 + errors;
    out.failed += wrong_reads(&chain, &versions, &reads) + errors;

    // Durability: drop the database, reopen the directory the way the CLI
    // does, and read the last synced block back.
    drop(db);
    let reopened = forkbase_cli::Session::open(&root).map_err(|e| format!("reopen: {e}"))?;
    let last = chain.blocks.last().expect("warm-up committed blocks");
    let last_key = contract_key(last.contract);
    out.check(reopened.db().head(&last_key, "master").ok() == Some(last.uid));
    let snap = reopened
        .db()
        .snapshot(&last_key, &VersionSpec::branch("master"));
    for &(id, _, _) in &last.changes {
        let got = snap
            .as_ref()
            .ok()
            .and_then(|s| s.map_get(&account_key(id as u64)).ok().flatten())
            .and_then(|v| decode_value(id as u64, &v));
        out.check(got == Some(chain.state[id as usize]));
    }
    drop(snap);
    drop(reopened);

    // In a traced run the gated figures come from the untraced slices.
    let (writes, looks) = (
        commits.undisturbed(cfg.trace),
        lookups.undisturbed(cfg.trace),
    );
    // Growth of the directory over the window per byte the window's blocks
    // presented: a run that commits more blocks must not look worse (or
    // better) for it, which a ratio including the genesis load would.
    let user_bytes = (edits + fork_edits) * EDIT_BYTES;
    let grown_bytes = disk_bytes.saturating_sub(disk_before);
    out.set("setup_s", setup_s);
    out.set_n("write_p50_us", writes.p50_us(), writes.len());
    out.set_n("read_p50_us", looks.p50_us(), looks.len());
    out.set("space_amp", ratio(grown_bytes as f64, user_bytes as f64));
    out.note(format!(
        "blocks={} reads={} gcs={} grown_bytes={grown_bytes} user_bytes={user_bytes}",
        chain.blocks.len() - WARMUP_BLOCKS,
        reads.len(),
        gc_s.len()
    ));
    out.note(busy::describe());
    let _ = std::fs::remove_dir_all(&root);
    if !cfg.trace {
        return Ok(out);
    }

    // ---- per-layer figures (traced run) ----
    let all_reads = lookups.all();
    out.set(
        "failed_share",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.set("write_per_s", edits as f64 / window_s);
    out.set_n("read_per_s", reads.len() as f64 / window_s, reads.len());
    out.set_n(
        "read_p99_us",
        all_reads.percentile_us(99.0),
        all_reads.len(),
    );
    let (tail, tail_name) = all_reads.tail_us();
    out.note(format!(
        "highest read percentile with 10 samples beyond it: {tail_name} = {tail:.1} us"
    ));

    let reader_gets = reader_trace.agg("store.get").count();
    let mut traced = ThreadTrace::default();
    traced.merge(writer_trace);
    traced.merge(reader_trace);
    let store_window = StoreWindow {
        before: stats_before,
        after: stats_after,
        disk_bytes: store_disk,
    };
    layers::report_store(&mut out, &traced, &store_window);
    layers::report_crypto(&mut out, &traced);
    layers::report_core_self(&mut out, &traced);
    out.set(
        "core.api.put_map_edits_us_p50",
        traced.p50_us("core.api.put_map_edits"),
    );
    out.set("core.api.get_us_p50", traced.p50_us("core.api.get"));
    out.set("core.gc.collect_s", gc_s.iter().sum());
    out.set("core.gc.bytes_reclaimed", gc_reclaimed as f64);
    out.set("core.gc.writer_stall_us_max", stall_us_max);
    out.set(
        "postree.nodes_read_per_lookup",
        ratio(reader_gets as f64, lookups.traced.len() as f64),
    );
    let traced_edits = (commits.traced.len() * EDITS_PER_BLOCK) as f64;
    out.set(
        "postree.chunks_written_per_edit",
        ratio(traced.store.put_chunks as f64, traced_edits),
    );
    out.set(
        "postree.bytes_written_per_edit_byte",
        ratio(
            traced.store.put_bytes as f64,
            traced_edits * EDIT_BYTES as f64,
        ),
    );
    replay_postree(&mut out, &genesis_pairs(0, n), &chain, &reads);
    out.set(
        "proc.cpu_us_per_op",
        ratio(cpu_us as f64, (edits + reads.len() as u64) as f64),
    );
    out.set("proc.rss_peak_mib", crate::procs::rss_peak_mib(0));
    layers::report_overhead(
        &mut out,
        &[commits.overhead_pair(), lookups.overhead_pair()],
    );
    super::write_trace(cfg, "ledger_embedded", &traced);
    Ok(out)
}

/// [R] Contract 0's recorded blocks, lookups and proofs again, through the
/// POS-Tree alone: a `MemStore` twin, one thread, nothing else running.
fn replay_postree(out: &mut Outcome, pairs: &[(Bytes, Bytes)], chain: &Chain, reads: &[Read]) {
    let reads: Vec<&Read> = reads
        .iter()
        .filter(|r| contract_of(r.account as u64) == 0)
        .collect();
    let twin = ForkBase::new(MemStore::new());
    let Ok(genesis) = twin.new_map(pairs.to_vec()) else {
        return;
    };
    let (mut build_ns, mut built) = (0u64, 0usize);
    let mut value = genesis.clone();
    for block in chain.blocks.iter().filter(|b| b.contract == 0).take(40) {
        let edits = edits_of(&block.changes);
        built += edits.len();
        let start = Instant::now();
        let Ok(next) = twin.map_apply(&value, edits) else {
            return;
        };
        build_ns += start.elapsed().as_nanos() as u64;
        value = next;
    }
    out.set_n(
        "postree.build_us_per_edit",
        ratio(build_ns as f64 / 1e3, built as f64),
        built,
    );

    let mut lookups = Samples::default();
    for r in reads.iter().take(20_000) {
        let key = account_key(r.account as u64);
        let start = Instant::now();
        let _ = std::hint::black_box(twin.map_get(&genesis, &key));
        lookups.push(start.elapsed().as_nanos() as u64);
    }
    out.set_n("postree.lookup_us_p50", lookups.p50_us(), lookups.len());

    let Ok(commit) = twin.put(&contract_key(0), genesis, &PutOptions::default()) else {
        return;
    };
    let Ok(snap) = twin.snapshot_version(&commit.uid) else {
        return;
    };
    let mut proofs = Samples::default();
    for r in reads.iter().take(300) {
        let key = account_key(r.account as u64);
        let start = Instant::now();
        let checked = snap
            .prove_entry(&key)
            .and_then(|p| twin.verify_entry_proof(&commit.uid, &key, &p));
        proofs.push(start.elapsed().as_nanos() as u64);
        if checked.is_err() {
            return;
        }
    }
    out.set_n("postree.proof_us_p50", proofs.p50_us(), proofs.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_correct_and_reports_the_gated_metrics() {
        let dir = crate::workloads::test_dir("ledger");
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 5,
                seconds: 1.0,
                trace,
                quick: true,
                dir: dir.clone(),
                bin: None,
            };
            let out = run(&cfg).unwrap();
            assert_eq!(out.failed, 0, "{:?}", out.notes);
            assert!(out.attempted > 100);
            for m in ["setup_s", "write_p50_us", "read_p50_us", "space_amp"] {
                assert!(out.get(m).unwrap() > 0.0, "{m}");
            }
            if trace {
                assert!(out.get("store.get_calls").unwrap() > 0.0);
                assert!(out.get("postree.lookup_us_p50").unwrap() > 0.0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_read_is_caught() {
        let uid = |b: u8| Uid::from_bytes([b; 32]);
        let chain = Chain {
            genesis: vec![uid(9)],
            blocks: vec![Block {
                contract: 0,
                uid: uid(1),
                changes: vec![(0, 7, 1)],
            }],
            state: vec![(7, 1), (GENESIS_BALANCE, 0)],
        };
        let versions = [uid(9), uid(1)];
        let read = |version, got| Read {
            version,
            account: 0,
            got: Some(got),
        };
        let fresh = [read(0, (GENESIS_BALANCE, 0)), read(1, (7, 1))];
        assert_eq!(wrong_reads(&chain, &versions, &fresh), 0);
        let stale = [read(1, (GENESIS_BALANCE, 0))];
        assert_eq!(wrong_reads(&chain, &versions, &stale), 1);
    }
}
