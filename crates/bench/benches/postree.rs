//! Criterion microbenchmarks: POS-Tree core operations.
//!
//! Covers bulk build, point lookup, incremental single-edit commit and
//! full scans — the primitive costs every higher-level number (Figs. 3–5)
//! decomposes into.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use forkbase_bench::workload;
use forkbase_postree::{MapEdit, PosMap, TreeConfig};
use forkbase_store::MemStore;

fn bench_build(c: &mut Criterion) {
    let cfg = TreeConfig::default_config();
    let mut group = c.benchmark_group("postree/build");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let data = workload::snapshot(n, 0xB1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| {
                let store = MemStore::new();
                let map =
                    PosMap::build_from_sorted(&store, cfg.node, data.iter().cloned()).unwrap();
                map.root()
            });
        });
    }
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let cfg = TreeConfig::default_config();
    let store = MemStore::new();
    let n = 100_000;
    let data = workload::snapshot(n, 0xB2);
    let map = PosMap::build_from_sorted(&store, cfg.node, data.iter().cloned()).unwrap();
    let mut group = c.benchmark_group("postree/get");
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % n;
            map.get(&data[i].0).unwrap().unwrap()
        });
    });
    group.finish();
}

fn bench_single_edit(c: &mut Criterion) {
    let cfg = TreeConfig::default_config();
    let store = MemStore::new();
    let n = 100_000;
    let data = workload::snapshot(n, 0xB3);
    let map = PosMap::build_from_sorted(&store, cfg.node, data.iter().cloned()).unwrap();
    let mut group = c.benchmark_group("postree/apply");
    group.sample_size(20);
    group.bench_function("single_edit_100k", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i += 1;
            map.apply([MapEdit::put(
                data[i % n].0.clone(),
                bytes::Bytes::from(format!("edit-{i}")),
            )])
            .unwrap()
        });
    });
    bench_batch100(&mut group, "batch100_edits_100k", &map, &data);
    // The same 100-edit block on a map 12.5× smaller: the two times'
    // ratio records how flat a block's cost is in map size.
    let small_store = MemStore::new();
    let small_data = workload::snapshot(8_000, 0xB3);
    let small_map =
        PosMap::build_from_sorted(&small_store, cfg.node, small_data.iter().cloned()).unwrap();
    bench_batch100(&mut group, "batch100_edits_8k", &small_map, &small_data);
    group.finish();
}

/// One 100-edit block spread evenly over `map`, shifted every iteration.
fn bench_batch100(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    map: &PosMap<'_, MemStore>,
    data: &[(bytes::Bytes, bytes::Bytes)],
) {
    let n = data.len();
    group.bench_function(name, |b| {
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            let edits: Vec<MapEdit> = (0..100)
                .map(|j| {
                    MapEdit::put(
                        data[(j * n / 100 + round) % n].0.clone(),
                        bytes::Bytes::from(format!("edit-{round}-{j}")),
                    )
                })
                .collect();
            map.apply(edits).unwrap()
        });
    });
}

fn bench_scan(c: &mut Criterion) {
    let cfg = TreeConfig::default_config();
    let store = MemStore::new();
    let n = 100_000;
    let data = workload::snapshot(n, 0xB4);
    let map = PosMap::build_from_sorted(&store, cfg.node, data.iter().cloned()).unwrap();
    let mut group = c.benchmark_group("postree/scan");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("full_scan_100k", |b| {
        b.iter(|| {
            let mut count = 0usize;
            for e in map.iter().unwrap() {
                count += e.unwrap().key.len();
            }
            count
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_get,
    bench_single_edit,
    bench_scan
);
criterion_main!(benches);
