//! Parallel-scan correctness (ISSUE 4 tentpole): `range_scan_at` and
//! `full_scan` fan out over tablets / segment runs on a bounded worker
//! pool; their results must be byte-identical to the sequential path at
//! every thread count, under a seeded workload of overwrites, deletes,
//! snapshots and maintenance.

use logbase::{ServerConfig, TabletServer};
use logbase_common::schema::{split_uniform, KeyRange, TableSchema};
use logbase_common::{Timestamp, Value};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_workload::encode_key;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const TABLE: &str = "t";
const DOMAIN: u64 = 4_000;

/// Multi-tablet server with a seeded history: round-robin puts with
/// overwrites, a sprinkling of deletes, small segments so the log
/// rotates many times. Returns the server and a mid-history snapshot ts.
fn seeded_server(seed: u64, tablets: u32) -> (Arc<TabletServer>, Timestamp) {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(
        dfs,
        ServerConfig::new("pscan-srv").with_segment_bytes(32 * 1024),
    )
    .unwrap();
    s.register_table(TableSchema::single_group(TABLE, &["v"]))
        .unwrap();
    for desc in split_uniform(TABLE, tablets, DOMAIN) {
        s.assign_tablet(desc).unwrap();
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut snapshot = Timestamp::ZERO;
    for i in 0..3_000u64 {
        let k = rng.gen_range(0..DOMAIN);
        if rng.gen_range(0..10u32) == 0 {
            s.delete(TABLE, 0, &encode_key(k)).unwrap();
        } else {
            let v = Value::from(format!("v{seed}-{i}-{k}").into_bytes());
            let ts = s.put(TABLE, 0, encode_key(k), v).unwrap();
            if i == 1_500 {
                snapshot = ts;
            }
        }
    }
    (s, snapshot)
}

#[test]
fn parallel_range_scan_matches_sequential() {
    let (s, snapshot) = seeded_server(7, 8);
    let ranges = [
        KeyRange::all(),
        KeyRange::new(encode_key(100), encode_key(1_900)),
        KeyRange::new(encode_key(1_234), encode_key(1_235)),
        KeyRange::new(encode_key(3_500), encode_key(9_999)),
    ];
    let limits = [usize::MAX, 1_000, 137, 1];
    for at in [Timestamp::MAX, snapshot] {
        for range in &ranges {
            for &limit in &limits {
                let seq = s
                    .range_scan_at_threads(TABLE, 0, range, at, limit, 1)
                    .unwrap();
                for threads in [2, 4, 8] {
                    let par = s
                        .range_scan_at_threads(TABLE, 0, range, at, limit, threads)
                        .unwrap();
                    assert_eq!(
                        seq, par,
                        "range {range:?} limit {limit} at {at:?}: \
                         {threads}-thread scan diverged from sequential"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_full_scan_matches_sequential() {
    let (s, _) = seeded_server(11, 8);
    let seq = s.full_scan_threads(TABLE, 0, 1).unwrap();
    assert!(seq > 0, "seeded workload left no live records");
    for threads in [2, 4, 8, 32] {
        assert_eq!(seq, s.full_scan_threads(TABLE, 0, threads).unwrap());
    }
    // The configured default (scan_threads = 0 → available parallelism)
    // goes through the same machinery.
    assert_eq!(seq, s.full_scan(TABLE, 0).unwrap());
}

#[test]
fn parallel_scans_survive_maintenance() {
    let (s, _) = seeded_server(13, 4);
    let seq_before = s
        .range_scan_at_threads(TABLE, 0, &KeyRange::all(), Timestamp::MAX, usize::MAX, 1)
        .unwrap();
    s.checkpoint().unwrap();
    s.compact().unwrap();
    for threads in [1, 8] {
        let after = s
            .range_scan_at_threads(
                TABLE,
                0,
                &KeyRange::all(),
                Timestamp::MAX,
                usize::MAX,
                threads,
            )
            .unwrap();
        assert_eq!(
            seq_before, after,
            "{threads}-thread scan after compaction diverged"
        );
    }
    let count = s.full_scan_threads(TABLE, 0, 1).unwrap();
    assert_eq!(count, s.full_scan_threads(TABLE, 0, 8).unwrap());
}

#[test]
fn scan_thread_config_is_respected() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("cfg-srv").with_scan_threads(1)).unwrap();
    s.create_table(TableSchema::single_group(TABLE, &["v"]))
        .unwrap();
    for i in 0..100u64 {
        s.put(TABLE, 0, encode_key(i), Value::from_static(b"x"))
            .unwrap();
    }
    // Sequential configuration still answers correctly.
    assert_eq!(s.full_scan(TABLE, 0).unwrap(), 100);
    let items = s
        .range_scan(TABLE, 0, &KeyRange::all(), usize::MAX)
        .unwrap();
    assert_eq!(items.len(), 100);
    // Point reads go through the sharded read buffer.
    for i in 0..100u64 {
        assert!(s.get(TABLE, 0, &encode_key(i)).unwrap().is_some());
    }
}
