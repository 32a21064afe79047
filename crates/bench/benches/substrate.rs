//! Criterion microbenchmarks for the substrate layers: SHA-256, the
//! frame CRC-32, the rolling hash, the content-defined chunker, the chunk
//! stores (single put vs batched group commit), and the concurrent commit
//! pipeline (striped head locks vs an emulated global commit lock), the
//! persist behind one servelet ack, and a REST `GET` on a fresh
//! connection.
//!
//! These bound every higher-level number: a 4 KiB page costs one SHA-256
//! compression pass per load (verification) and per store (addressing).

use std::collections::HashSet;
use std::sync::Mutex as StdMutex;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use forkbase::{ForkBase, PutOptions};
use forkbase_bench::workload;
use forkbase_chunk::{ByteChunker, ChunkerConfig, RollingHash};
use forkbase_crypto::{crc32, sha256, Hash};
use forkbase_store::{ChunkStore, FileStore, FileStoreConfig, MemStore, SweepStore};
use forkbase_types::Value;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [4096usize, 1 << 20] {
        let data = workload::random_bytes(size, 0x51);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256(d));
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/crc32");
    for size in [4096usize, 1 << 20] {
        let data = workload::random_bytes(size, 0x51);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| crc32(d));
        });
    }
    group.finish();
}

fn bench_rolling_hash(c: &mut Criterion) {
    let data = workload::random_bytes(1 << 20, 0x52);
    let mut group = c.benchmark_group("chunk/rolling_hash");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("1MiB", |b| {
        b.iter(|| {
            let mut rh = RollingHash::new(48);
            let mut acc = 0u64;
            for &byte in &data {
                acc ^= rh.push(byte);
            }
            acc
        });
    });
    group.finish();
}

fn bench_chunker(c: &mut Criterion) {
    let data = workload::random_bytes(1 << 20, 0x53);
    let mut group = c.benchmark_group("chunk/byte_chunker");
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("1MiB_default", |b| {
        b.iter(|| {
            let mut ck = ByteChunker::new(ChunkerConfig::data_default());
            let mut cuts = 0usize;
            for &byte in &data {
                if ck.push(byte) {
                    cuts += 1;
                }
            }
            cuts
        });
    });
    group.finish();
}

fn bench_stores(c: &mut Criterion) {
    let chunks: Vec<Bytes> = (0..256)
        .map(|i| Bytes::from(workload::random_bytes(4096, 0x54 + i as u64)))
        .collect();

    let mut group = c.benchmark_group("store/put_get_4KiB");
    group.throughput(Throughput::Bytes(4096 * chunks.len() as u64));
    group.bench_function("memstore", |b| {
        b.iter(|| {
            let store = MemStore::new();
            let hashes: Vec<_> = chunks
                .iter()
                .map(|c| store.put(c.clone()).unwrap())
                .collect();
            for h in &hashes {
                store.get(h).unwrap().unwrap();
            }
        });
    });
    group.sample_size(10);
    group.bench_function("filestore", |b| {
        let dir = std::env::temp_dir().join(format!("fkb-bench-{}", std::process::id()));
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open(&dir).unwrap();
            let hashes: Vec<_> = chunks
                .iter()
                .map(|c| store.put(c.clone()).unwrap())
                .collect();
            for h in &hashes {
                store.get(h).unwrap().unwrap();
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
    group.finish();
}

fn bench_put_batch(c: &mut Criterion) {
    let chunks: Vec<(Hash, Bytes)> = (0..256)
        .map(|i| {
            let b = Bytes::from(workload::random_bytes(4096, 0x60 + i as u64));
            (sha256(&b), b)
        })
        .collect();

    let mut group = c.benchmark_group("store/put_batch_256x4KiB");
    group.throughput(Throughput::Bytes(4096 * chunks.len() as u64));
    group.bench_function("memstore/per_chunk", |b| {
        b.iter(|| {
            let store = MemStore::new();
            for (h, c) in &chunks {
                store.put_with_hash(*h, c.clone()).unwrap();
            }
            store.chunk_count()
        });
    });
    group.bench_function("memstore/batched", |b| {
        b.iter(|| {
            let store = MemStore::new();
            store.put_batch(chunks.clone()).unwrap();
            store.chunk_count()
        });
    });
    group.sample_size(10);
    let dir = std::env::temp_dir().join(format!("fkb-batch-bench-{}", std::process::id()));
    group.bench_function("filestore/per_chunk", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open(&dir).unwrap();
            for (h, c) in &chunks {
                store.put_with_hash(*h, c.clone()).unwrap();
            }
            store.sync().unwrap();
        });
    });
    group.bench_function("filestore/batched", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open(&dir).unwrap();
            store.put_batch(chunks.clone()).unwrap();
            store.sync().unwrap();
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// Physical space reclamation on the segmented pack-file store: ingest a
/// working set, drop half of it, run `sweep` against the survivor set,
/// and re-read every survivor. Throughput is the full cycle over the
/// ingested bytes, so regressions in any leg (group commit, segment
/// utilization accounting, compaction rewrite, post-compaction reads)
/// show up here.
fn bench_compaction(c: &mut Criterion) {
    const CHUNK: usize = 4096;
    const COUNT: usize = 256;
    let chunks: Vec<(Hash, Bytes)> = (0..COUNT)
        .map(|i| {
            let b = Bytes::from(workload::random_bytes(CHUNK, 0x80 + i as u64));
            (sha256(&b), b)
        })
        .collect();
    let live: HashSet<Hash> = chunks.iter().step_by(2).map(|(h, _)| *h).collect();

    let mut group = c.benchmark_group("store/compaction");
    group.throughput(Throughput::Bytes((CHUNK * COUNT) as u64));
    group.sample_size(10);
    let dir = std::env::temp_dir().join(format!("fkb-compact-bench-{}", std::process::id()));
    group.bench_function("ingest_delete_compact_reread", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = FileStore::open_with(
                &dir,
                FileStoreConfig {
                    segment_bytes: 64 * 1024,
                    ..Default::default()
                },
            )
            .unwrap();
            store.put_batch(chunks.clone()).unwrap();
            store.sync().unwrap();
            let report = store.sweep(&|h| live.contains(h)).unwrap();
            assert_eq!(report.chunks_reclaimed as usize, COUNT - live.len());
            assert!(
                report.disk_bytes_after < report.disk_bytes_before,
                "compaction must shrink the store"
            );
            for h in &live {
                store.get(h).unwrap().unwrap();
            }
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// The tentpole measurement: aggregate commit throughput with N writer
/// threads, on disjoint keys (stripes never contend) and one contended
/// branch (stripes always contend), against a baseline that emulates the
/// old global `commit_lock` by wrapping every commit in one process-wide
/// mutex. On multi-core hardware `striped/disjoint` scales with threads
/// while `global/*` stays flat; on a single vCPU the striped path should
/// at least never be slower.
fn bench_concurrent_commits(c: &mut Criterion) {
    const COMMITS_PER_THREAD: usize = 150;

    let run = |threads: usize, contended: bool, global: bool| {
        let db = ForkBase::new(MemStore::new());
        let global_lock = StdMutex::new(());
        std::thread::scope(|s| {
            for t in 0..threads {
                let db = &db;
                let global_lock = &global_lock;
                s.spawn(move || {
                    let key = if contended {
                        "shared".to_string()
                    } else {
                        format!("key-{t}")
                    };
                    let opts = PutOptions::default();
                    for i in 0..COMMITS_PER_THREAD {
                        let value = Value::string(format!("v-{t}-{i}"));
                        if global {
                            let _g = global_lock.lock().unwrap();
                            db.put(&key, value, &opts).unwrap();
                        } else {
                            db.put(&key, value, &opts).unwrap();
                        }
                    }
                });
            }
        });
    };

    let mut group = c.benchmark_group("db/concurrent_commits");
    for &threads in &[1usize, 2, 8] {
        group.throughput(Throughput::Elements((threads * COMMITS_PER_THREAD) as u64));
        for (label, contended, global) in [
            ("striped/disjoint", false, false),
            ("striped/contended", true, false),
            ("global_baseline/disjoint", false, true),
            ("global_baseline/contended", true, true),
        ] {
            group.bench_function(BenchmarkId::new(label, format!("{threads}thr")), |b| {
                b.iter(|| run(threads, contended, global));
            });
        }
    }
    group.finish();
}

/// Whole-pipeline blob commits: chunking, batched chunk stores, head
/// update — 8 writers over disjoint keys.
fn bench_concurrent_blob_commits(c: &mut Criterion) {
    const BLOB_LEN: usize = 256 * 1024;
    let contents: Vec<Bytes> = (0..8)
        .map(|t| Bytes::from(workload::random_bytes(BLOB_LEN, 0x70 + t as u64)))
        .collect();

    let mut group = c.benchmark_group("db/concurrent_blob_commits");
    for &threads in &[1usize, 8] {
        group.throughput(Throughput::Bytes((threads * BLOB_LEN) as u64));
        group.bench_function(
            BenchmarkId::from_parameter(format!("{threads}thr_256KiB")),
            |b| {
                b.iter(|| {
                    let db = ForkBase::new(MemStore::new());
                    std::thread::scope(|s| {
                        for (t, content) in contents.iter().take(threads).enumerate() {
                            let db = &db;
                            let content = content.clone();
                            s.spawn(move || {
                                db.put_blob(&format!("blob-{t}"), content, &PutOptions::default())
                                    .unwrap();
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

/// Point lookups on a durable store whose pages were all read once: the
/// ledger's `map_get` shape (8 k accounts, default ~4 KiB pages), 64 keys
/// per iteration. Warm pages come from the database's node cache; each
/// miss is a pack read plus two SHA-256 passes and a decode.
fn bench_map_get(c: &mut Criterion) {
    const ACCOUNTS: u32 = 8192;
    const GETS: u32 = 64;
    let dir = std::env::temp_dir().join(format!("fkb-map-get-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ForkBase::new(FileStore::open(&dir).unwrap());
    let accounts = (0..ACCOUNTS)
        .map(|i| {
            (
                Bytes::from(format!("acct-{i:08}")),
                Bytes::from(format!("{{\"balance\":{}}}", u64::from(i) * 7919)),
            )
        })
        .collect();
    let map = db.new_map(accounts).unwrap();
    db.put("ledger", map, &PutOptions::default()).unwrap();
    db.store().sync().unwrap();
    let value = db.get("ledger", "master").unwrap().value;
    let keys: Vec<Bytes> = (0..GETS)
        .map(|i| Bytes::from(format!("acct-{:08}", i * 127 % ACCOUNTS)))
        .collect();
    for key in &keys {
        assert!(db.map_get(&value, key).unwrap().is_some());
    }

    let mut group = c.benchmark_group("db/map_get");
    group.throughput(Throughput::Elements(u64::from(GETS)));
    group.bench_function("filestore_hot", |b| {
        b.iter(|| {
            for key in &keys {
                criterion::black_box(db.map_get(&value, key).unwrap());
            }
        });
    });
    group.finish();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot + cursor scan vs the materializing verb over a 100k-entry
/// map. The cursor path must be at least as fast (it decodes the same
/// leaves but skips the O(N) output vector), and it is the path that
/// keeps memory O(chunk) for values that don't fit.
fn bench_snapshot_scan(c: &mut Criterion) {
    use forkbase::VersionSpec;
    const ENTRIES: u64 = 100_000;
    let db = ForkBase::new(MemStore::new());
    let pairs: Vec<(Bytes, Bytes)> = (0..ENTRIES)
        .map(|i| {
            (
                Bytes::from(format!("key-{i:08}")),
                Bytes::from(format!("value-{i}")),
            )
        })
        .collect();
    let map = db.new_map(pairs).unwrap();
    db.put("big", map, &PutOptions::default()).unwrap();
    let got = db.get("big", "master").unwrap();

    let mut group = c.benchmark_group("db/snapshot_scan");
    group.throughput(Throughput::Elements(ENTRIES));
    group.sample_size(10);
    group.bench_function("materialized_100k", |b| {
        b.iter(|| {
            let entries = db.map_entries(&got.value).unwrap();
            assert_eq!(entries.len() as u64, ENTRIES);
            entries.len()
        });
    });
    group.bench_function("cursor_100k", |b| {
        b.iter(|| {
            let snap = db.snapshot("big", &VersionSpec::default()).unwrap();
            let mut n = 0u64;
            let mut bytes = 0usize;
            for item in snap.map_iter().unwrap() {
                let (k, v) = item.unwrap();
                n += 1;
                bytes += k.len() + v.len();
            }
            assert_eq!(n, ENTRIES);
            bytes
        });
    });
    // A bounded page: seek + 1k entries, the REST /v1/range access shape.
    group.throughput(Throughput::Elements(1000));
    group.bench_function("cursor_seek_page_1k", |b| {
        b.iter(|| {
            let snap = db.snapshot("big", &VersionSpec::default()).unwrap();
            let n = snap
                .map_range(b"key-00050000".as_slice()..b"key-00051000".as_slice())
                .unwrap()
                .count();
            assert_eq!(n, 1000);
            n
        });
    });
    group.finish();
}

/// Atomic 16-key write batch vs 16 sequential puts.
///
/// On `MemStore` the comparison isolates the engine-side cost: the batch
/// pays one stripe-lock sweep, one FNode `put_batch`, and one ref-table
/// write section instead of 16 of each, while op staging is an
/// `Arc`-interned options clone plus a borrowed-parts FNode encoding (no
/// per-op string clones) — so the batch must not lose to sequential. On a
/// durable `FileStore` (a store sync after each put or commit) the group
/// commit dominates: 16 sequential puts are 16 fsyncs, the batch is one.
fn bench_write_batch(c: &mut Criterion) {
    const KEYS: usize = 16;
    let keys: Vec<String> = (0..KEYS).map(|i| format!("batch-key-{i}")).collect();

    let mut group = c.benchmark_group("db/write_batch");
    group.throughput(Throughput::Elements(KEYS as u64));
    group.bench_function("sequential_16keys", |b| {
        let db = ForkBase::new(MemStore::new());
        let opts = PutOptions::default();
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            for key in &keys {
                db.put(key, Value::string(format!("v{round}")), &opts)
                    .unwrap();
            }
        });
    });
    group.bench_function("batch_16keys", |b| {
        let db = ForkBase::new(MemStore::new());
        let opts = PutOptions::default();
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let mut batch = db.write_batch();
            for key in &keys {
                batch.put(key.clone(), Value::string(format!("v{round}")), &opts);
            }
            batch.commit().unwrap()
        });
    });

    // Durable stores: one fsync per batch vs one per put.
    group.sample_size(10);
    let durable = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("fkb-wb-bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = ForkBase::new(FileStore::open(&dir).unwrap());
        (dir, db)
    };
    {
        let (dir, db) = durable("seq");
        let opts = PutOptions::default();
        let mut round = 0u64;
        group.bench_function("sequential_16keys_durable_filestore", |b| {
            b.iter(|| {
                round += 1;
                for key in &keys {
                    db.put(key, Value::string(format!("v{round}")), &opts)
                        .unwrap();
                    db.store().sync().unwrap();
                }
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    {
        let (dir, db) = durable("batch");
        let opts = PutOptions::default();
        let mut round = 0u64;
        group.bench_function("batch_16keys_durable_filestore", |b| {
            b.iter(|| {
                round += 1;
                let mut batch = db.write_batch();
                for key in &keys {
                    batch.put(key.clone(), Value::string(format!("v{round}")), &opts);
                }
                let outcomes = batch.commit().unwrap();
                db.store().sync().unwrap();
                outcomes
            });
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// One routed ack's persist on a servelet holding 2 000 refs: an 8-key
/// batch commits to a `FileStore`, then `reflog::Log::commit` makes its heads
/// durable (drain the ref journal, sync the store, append one delta frame
/// with one `fdatasync`; every few acks, fold into a fresh checkpoint).
fn bench_persist(c: &mut Criterion) {
    const REFS: usize = 2_000;
    const ACK_KEYS: usize = 8;
    let mut group = c.benchmark_group("cli/persist");
    group.sample_size(20);
    let dir = std::env::temp_dir().join(format!("fkb-persist-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ForkBase::new(FileStore::open(dir.join("chunks")).unwrap());
    let opts = PutOptions::default();
    let keys: Vec<String> = (0..REFS).map(|i| format!("key-{i:08}")).collect();
    let mut batch = db.write_batch();
    for key in &keys {
        batch.put(key.clone(), Value::string("v0"), &opts);
    }
    batch.commit().unwrap();
    let (log, _) = forkbase_cli::reflog::Log::open(&dir).unwrap();
    log.commit(Some(&db), &[]).unwrap();
    let mut round = 0usize;
    group.bench_function("ack_8_of_2000_refs", |b| {
        b.iter(|| {
            round += 1;
            let mut batch = db.write_batch();
            for key in keys
                .iter()
                .cycle()
                .skip(round * ACK_KEYS % REFS)
                .take(ACK_KEYS)
            {
                batch.put(key.clone(), Value::string(format!("v{round}")), &opts);
            }
            batch.commit().unwrap();
            log.commit(Some(&db), &[]).unwrap();
        });
    });
    group.finish();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A REST `GET` on a fresh loopback connection, as a `connection: close`
/// client sends it, against an in-process gateway over a `MemStore` node:
/// the connect, the accept and hand-off to a handler thread, the HTTP
/// parse, one `get`, the response and the close.
fn bench_rest_get(c: &mut Criterion) {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    let db = Arc::new(ForkBase::new(MemStore::new()));
    db.put("k", Value::string("v"), &PutOptions::default())
        .unwrap();
    let server =
        forkbase_cli::RestServer::start(db, 0, Arc::new(forkbase::ForkService::new()), None)
            .unwrap();
    let addr = server.addr();
    let request = b"GET /get/k HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n";
    let mut group = c.benchmark_group("cli/rest");
    group.bench_function("get_per_connection", |b| {
        let mut response = Vec::with_capacity(256);
        b.iter(|| {
            let mut conn = TcpStream::connect(addr).unwrap();
            conn.write_all(request).unwrap();
            response.clear();
            conn.read_to_end(&mut response).unwrap();
            assert!(response.starts_with(b"HTTP/1.1 200"));
        });
    });
    group.finish();
    server.stop();
}

/// Routed cluster throughput: 64 single-key puts through the
/// consistent-hash router of a 4-servelet MemStore cluster vs the same 64
/// puts on one local `ForkBase`, plus the routed write batch (ops grouped
/// per owning servelet, one atomic `WriteBatch` each).
///
/// The routed paths pay one channel round-trip per RPC (the simulated
/// network) on top of the engine work, so `single_node` is the upper
/// bound; the interesting number is how close routing gets and that the
/// grouped batch beats per-op routing (4 RPCs instead of 64).
fn bench_cluster_put(c: &mut Criterion) {
    use forkbase::Cluster;
    const KEYS: usize = 64;
    let keys: Vec<String> = (0..KEYS).map(|i| format!("cluster-key-{i}")).collect();

    let mut group = c.benchmark_group("db/cluster_put");
    group.throughput(Throughput::Elements(KEYS as u64));
    group.bench_function("single_node_64keys", |b| {
        let db = ForkBase::new(MemStore::new());
        let opts = PutOptions::default();
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            for key in &keys {
                db.put(key, Value::string(format!("v{round}")), &opts)
                    .unwrap();
            }
        });
    });
    group.bench_function("routed_4servelets_64keys", |b| {
        let cluster = Cluster::new(4, forkbase_postree::TreeConfig::default_config());
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            for key in &keys {
                cluster
                    .put(
                        key,
                        Value::string(format!("v{round}")),
                        PutOptions::default(),
                    )
                    .unwrap();
            }
        });
    });
    group.bench_function("routed_batch_4servelets_64keys", |b| {
        let cluster = Cluster::new(4, forkbase_postree::TreeConfig::default_config());
        let opts = PutOptions::default();
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            let mut batch = cluster.write_batch();
            for key in &keys {
                batch.put(key.clone(), Value::string(format!("v{round}")), &opts);
            }
            batch.commit().unwrap()
        });
    });
    group.finish();
}

/// Routed point reads over real loopback TCP: a pure router (every
/// servelet remote) over two in-process `ServeletServer`s, 64 routed
/// `get`s per iteration on the router's pooled connections. This is the
/// path `cluster_tcp_replica` · `read_p50_us` times end to end, minus the
/// servelet processes: route, encode, one framed round trip, decode.
fn bench_cluster_get(c: &mut Criterion) {
    use forkbase::{Cluster, ClusterTopology, ServeletServer, TopoRole};
    use std::sync::Arc;
    const KEYS: usize = 64;
    let cfg = forkbase_postree::TreeConfig::default_config();
    let servers: Vec<ServeletServer> = (0..2)
        .map(|_| {
            let db = Arc::new(ForkBase::with_config(MemStore::new(), cfg));
            ServeletServer::spawn("127.0.0.1:0", db, None, None).unwrap()
        })
        .collect();
    let topology = ClusterTopology {
        servelet_ids: vec![0, 1],
        addrs: servers.iter().map(|s| Some(s.addr().to_string())).collect(),
        roles: vec![
            TopoRole::Primary { anchor: 0 },
            TopoRole::Primary { anchor: 1 },
        ],
        next_id: 2,
    };
    let cluster = Cluster::<MemStore>::connect(&topology, cfg).unwrap();
    let keys: Vec<String> = (0..KEYS).map(|i| format!("get-key-{i}")).collect();
    for key in &keys {
        cluster
            .put(key, Value::string("payload"), PutOptions::default())
            .unwrap();
    }

    let mut group = c.benchmark_group("db/cluster_get");
    group.throughput(Throughput::Elements(KEYS as u64));
    group.bench_function("routed_tcp_get", |b| {
        b.iter(|| {
            for key in &keys {
                cluster.get(key, "master").unwrap();
            }
        });
    });
    group.finish();
}

/// Replication ship/drain throughput: one iteration routes 64 puts
/// against a 4-servelet cluster (the ship-log capture rides the routed
/// write), drains the logs with `ship_replication` — the export-apply
/// round-trips the Supervisor pays every tick — then deletes the 64 keys
/// and drains the resulting forgets. The delete leg keeps the bench
/// stationary: a fully-deleted key ceases to exist, so every iteration
/// ships one-commit bundles instead of ever-growing histories.
fn bench_ship_drain(c: &mut Criterion) {
    use forkbase::Cluster;
    const KEYS: usize = 64;
    let keys: Vec<String> = (0..KEYS).map(|i| format!("ship-key-{i}")).collect();

    let mut group = c.benchmark_group("replication/ship_drain");
    group.sample_size(20);
    for replicas_per_primary in [1usize, 2] {
        // Each routed put captures once per replica; so does each delete.
        group.throughput(Throughput::Elements((KEYS * replicas_per_primary) as u64));
        let cluster = Cluster::new(4, forkbase_postree::TreeConfig::default_config());
        for id in cluster.ids() {
            for _ in 0..replicas_per_primary {
                cluster.add_replica(id, MemStore::new()).unwrap();
            }
        }
        group.bench_function(
            BenchmarkId::new(
                "put_ship_forget_64keys",
                format!("{replicas_per_primary}replica"),
            ),
            |b| {
                b.iter(|| {
                    for key in &keys {
                        cluster
                            .put(key, Value::string("shipped"), PutOptions::default())
                            .unwrap();
                    }
                    let report = cluster.ship_replication();
                    assert!(report.failed.is_empty());
                    assert_eq!(report.shipped, (KEYS * replicas_per_primary) as u64);
                    for key in &keys {
                        cluster.delete_branch(key, "master").unwrap();
                    }
                    let report = cluster.ship_replication();
                    assert!(report.failed.is_empty());
                });
            },
        );
    }
    // The same round trip through routed batches: the put batch captures
    // one bundle per owner group; the delete batch removes every key, so
    // each group falls back to per-key captures that ship as forgets.
    group.throughput(Throughput::Elements(KEYS as u64));
    let cluster = Cluster::new(4, forkbase_postree::TreeConfig::default_config());
    for id in cluster.ids() {
        cluster.add_replica(id, MemStore::new()).unwrap();
    }
    group.bench_function("batch_ship_forget_64keys", |b| {
        let opts = PutOptions::default();
        b.iter(|| {
            let mut batch = cluster.write_batch();
            for key in &keys {
                batch.put(key.clone(), Value::string("shipped"), &opts);
            }
            batch.commit().unwrap();
            let report = cluster.ship_replication();
            assert!(report.failed.is_empty());
            assert_eq!(report.shipped, KEYS as u64);
            let mut batch = cluster.write_batch();
            for key in &keys {
                batch.delete_branch(key.clone(), "master");
            }
            batch.commit().unwrap();
            let report = cluster.ship_replication();
            assert!(report.failed.is_empty());
            assert_eq!(report.shipped, KEYS as u64);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_crc32,
    bench_rolling_hash,
    bench_chunker,
    bench_stores,
    bench_put_batch,
    bench_compaction,
    bench_concurrent_commits,
    bench_concurrent_blob_commits,
    bench_map_get,
    bench_snapshot_scan,
    bench_write_batch,
    bench_persist,
    bench_rest_get,
    bench_cluster_put,
    bench_cluster_get,
    bench_ship_drain
);
criterion_main!(benches);
