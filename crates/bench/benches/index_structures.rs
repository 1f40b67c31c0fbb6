//! Index-structure comparison: the B-link tree (the structure the paper
//! says its indexes resemble, §3.5; one flat entry per `(key, ts)`) vs
//! the tablet server's reader-writer-locked map of per-key version
//! chains, on the insert, point-probe and range-probe paths, at 1, 5 and
//! 50 versions per key over the same number of versions.

use criterion::{criterion_group, criterion_main, Criterion};
use logbase_common::schema::KeyRange;
use logbase_common::{LogPtr, RowKey, Timestamp};
use logbase_index::{BlinkTree, MultiVersionIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const VERSIONS: u64 = 100_000;
/// Keys a range probe returns (the end-to-end benchmark's scan length).
const SCAN_KEYS: usize = 20;

/// `n` distinct keys in an order that is not sorted.
fn keys(n: u64) -> Vec<RowKey> {
    (0..n)
        .map(|i| RowKey::from(format!("key-{:08}", (i * 2654435761) % n).into_bytes()))
        .collect()
}

/// Version `i` of `VERSIONS` goes to key `i % keys`: every key ends up
/// with `VERSIONS / keys` versions, arriving in timestamp order.
fn entry(ks: &[RowKey], i: u64) -> (&RowKey, Timestamp, LogPtr) {
    (
        &ks[(i % ks.len() as u64) as usize],
        Timestamp(i + 1),
        LogPtr::new(0, i, 8),
    )
}

fn bench_indexes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    for versions_per_key in [1u64, 5, 50] {
        let ks = keys(VERSIONS / versions_per_key);

        let mut group = c.benchmark_group(format!("index_insert/{versions_per_key}_per_key"));
        group.sample_size(20);
        group.measurement_time(Duration::from_secs(3));
        // Each index is started afresh once it holds VERSIONS entries, so
        // chains stay at the length under test.
        group.bench_function("blink_tree", |b| {
            let mut t = BlinkTree::new();
            let mut i = 0u64;
            b.iter(|| {
                if i == VERSIONS {
                    (t, i) = (BlinkTree::new(), 0);
                }
                let (k, ts, ptr) = entry(&ks, i);
                t.insert(k.clone(), ts, ptr);
                i += 1;
            });
        });
        group.bench_function("version_chains", |b| {
            let mut t = MultiVersionIndex::new();
            let mut i = 0u64;
            b.iter(|| {
                if i == VERSIONS {
                    (t, i) = (MultiVersionIndex::new(), 0);
                }
                let (k, ts, ptr) = entry(&ks, i);
                t.insert(k, ts, ptr);
                i += 1;
            });
        });
        group.finish();

        let blink = BlinkTree::new();
        let mv = MultiVersionIndex::new();
        for i in 0..VERSIONS {
            let (k, ts, ptr) = entry(&ks, i);
            blink.insert(k.clone(), ts, ptr);
            mv.insert(k, ts, ptr);
        }

        // Snapshot probes: a random key at a random timestamp.
        let mut group = c.benchmark_group(format!("index_latest_at/{versions_per_key}_per_key"));
        group.sample_size(30);
        group.measurement_time(Duration::from_secs(3));
        group.bench_function("blink_tree", |b| {
            b.iter(|| {
                let k = &ks[rng.gen_range(0..ks.len())];
                blink.latest_at(k, Timestamp(rng.gen_range(0..=VERSIONS)))
            });
        });
        group.bench_function("version_chains", |b| {
            b.iter(|| {
                let k = &ks[rng.gen_range(0..ks.len())];
                mv.latest_at(k, Timestamp(rng.gen_range(0..=VERSIONS)))
            });
        });
        group.finish();

        // The B-link tree has no per-key probe: a scan over it visits
        // every version, which is what the chains avoid.
        let mut group =
            c.benchmark_group(format!("index_range_latest_at/{versions_per_key}_per_key"));
        group.sample_size(30);
        group.measurement_time(Duration::from_secs(3));
        group.bench_function("version_chains", |b| {
            b.iter(|| {
                let range = KeyRange {
                    start: ks[rng.gen_range(0..ks.len())].clone(),
                    end: None,
                };
                mv.range_latest_at(&range, Timestamp::MAX, SCAN_KEYS)
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_indexes);
criterion_main!(benches);
