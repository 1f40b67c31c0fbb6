//! End-to-end: a LogBase cluster under a mixed workload interleaved with
//! maintenance (checkpoint, compaction, crash recovery), validated
//! against an in-memory model.

use logbase_cluster::{Client, Cluster, ClusterConfig, EngineKind};
use logbase_common::schema::KeyRange;
use logbase_common::{RowKey, Value};
use logbase_workload::encode_key;
use std::collections::BTreeMap;

/// Drive a cluster and a model through the same deterministic workload,
/// checking agreement at every phase boundary.
#[test]
fn cluster_agrees_with_model_through_maintenance_events() {
    let mut cluster = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap();
    let domain = cluster.config().key_domain;
    let mut model: BTreeMap<RowKey, Value> = BTreeMap::new();
    let key_of = |i: u64| encode_key((i * 131) % (domain / 7) * 7);

    let client = cluster.client();
    let apply = |client: &Client, model: &mut BTreeMap<RowKey, Value>, round: u64| {
        for i in 0..200u64 {
            let key = key_of(i);
            match (i + round) % 5 {
                0..=2 => {
                    let value = Value::from(format!("r{round}-i{i}").into_bytes());
                    client.put(0, key.clone(), value.clone()).unwrap();
                    model.insert(key, value);
                }
                3 => {
                    client.delete(0, &key).unwrap();
                    model.remove(&key);
                }
                _ => {
                    let got = client.get(0, &key).unwrap();
                    assert_eq!(got.as_ref(), model.get(&key), "read diverged");
                }
            }
        }
    };
    let check_all = |client: &Client, model: &BTreeMap<RowKey, Value>| {
        let scan = client.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
        let got: BTreeMap<RowKey, Value> = scan.into_iter().map(|(k, _, v)| (k, v)).collect();
        assert_eq!(&got, model, "cluster state diverged from model");
    };

    apply(&client, &mut model, 0);
    check_all(&client, &model);

    // Checkpoint every member, keep writing.
    cluster.sync_all().unwrap();
    apply(&client, &mut model, 1);
    check_all(&client, &model);

    // Compact every member, keep writing.
    for i in 0..cluster.nodes() {
        cluster.logbase_server(i).unwrap().compact().unwrap();
    }
    apply(&client, &mut model, 2);
    check_all(&client, &model);

    // Crash and recover one member; everything must still agree.
    cluster.crash_and_recover_logbase(1).unwrap();
    check_all(&client, &model);
    apply(&client, &mut model, 3);
    check_all(&client, &model);
}

/// A full YCSB benchmark pass (load + mixed phase) leaves the system
/// scannable and consistent.
#[test]
fn ycsb_load_and_mix_end_to_end() {
    use logbase_workload::ycsb::{Op, YcsbConfig, YcsbWorkload};
    let cluster = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap();
    let workload = YcsbWorkload::new(YcsbConfig::new(600, 0.75));
    let parts = cluster.partition_keys(workload.load_keys());
    cluster.parallel_load(0, &parts, 256).unwrap();

    let client = cluster.client();
    let mut w = YcsbWorkload::new(YcsbConfig::new(600, 0.75));
    let mut reads = 0u32;
    let mut hits = 0u32;
    for _ in 0..500 {
        match w.next_op() {
            Op::Read(k) => {
                reads += 1;
                if client.get(0, &k).unwrap().is_some() {
                    hits += 1;
                }
            }
            Op::Update(k, v) => {
                client.put(0, k, v).unwrap();
            }
        }
    }
    // Every experiment-phase key was loaded, so every read must hit
    // (modulo the rare FNV key collision during load, which overwrites).
    assert_eq!(reads, hits, "reads must find loaded records");
    let scan = client.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
    assert!(scan.len() as f64 > 0.99 * 600.0);
}

/// The three engines all sustain the same cluster workload through the
/// shared cluster interface.
#[test]
fn all_engines_complete_the_same_cluster_workload() {
    for engine in [EngineKind::LogBase, EngineKind::HBase, EngineKind::Lrs] {
        let mut config = ClusterConfig::new(3, engine);
        config.hbase_flush_bytes = 64 * 1024;
        let cluster = Cluster::create(config).unwrap();
        let domain = cluster.config().key_domain;
        let client = cluster.client();
        for i in 0..150u64 {
            client
                .put(0, encode_key(i * (domain / 150)), Value::from_static(b"x"))
                .unwrap();
        }
        for i in (0..150u64).step_by(3) {
            client.delete(0, &encode_key(i * (domain / 150))).unwrap();
        }
        let live = client.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
        assert_eq!(live.len(), 100, "{}: wrong live count", engine.name());
    }
}
