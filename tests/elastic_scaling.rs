//! Elastic scaling (the paper's "dynamic scalability" desideratum):
//! scale out by splitting the widest member's range onto a new server,
//! scale back by merging a member's range into its neighbour — with all
//! data, version history and routing staying correct throughout.

use logbase_cluster::{
    Client, ClientConfig, Cluster, ClusterConfig, EngineKind, InProcessTransport,
};
use logbase_common::schema::KeyRange;
use logbase_common::{Timestamp, Value};
use logbase_workload::encode_key;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The in-process client, pinned: TCP listeners bind a fixed member set,
/// so a cluster that scales out cannot be serving over `start_net`
/// (which `LOGBASE_TRANSPORT=tcp` would start).
fn client_of(cluster: &Cluster) -> Client {
    let transport = InProcessTransport::new(Arc::clone(cluster.service()));
    cluster.client_with(Arc::new(transport), ClientConfig::default())
}

/// A loaded cluster, its model, and a client whose route cache is warm
/// with the pre-scaling routing table.
fn loaded_cluster(nodes: usize, records: u64) -> (Cluster, Client, BTreeMap<u64, String>) {
    let cluster = Cluster::create(ClusterConfig::new(nodes, EngineKind::LogBase)).unwrap();
    let client = client_of(&cluster);
    let domain = cluster.config().key_domain;
    let mut model = BTreeMap::new();
    for i in 0..records {
        let k = i * (domain / records);
        let v = format!("value-{i}");
        client
            .put(0, encode_key(k), Value::from(v.clone().into_bytes()))
            .unwrap();
        model.insert(k, v);
    }
    (cluster, client, model)
}

/// The whole-table scan equals the model, row for row, in key order.
fn check_scan(client: &Client, model: &BTreeMap<u64, String>) {
    let scan = client.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
    let got: Vec<_> = scan.into_iter().map(|(k, _, v)| (k, v)).collect();
    let want: Vec<_> = model
        .iter()
        .map(|(k, v)| (encode_key(*k), Value::from(v.clone().into_bytes())))
        .collect();
    assert_eq!(got, want, "scan diverged from the model after scaling");
}

fn check_against_model(client: &Client, model: &BTreeMap<u64, String>) {
    check_scan(client, model);
    for (k, v) in model {
        let got = client.get(0, &encode_key(*k)).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(v.as_bytes()),
            "key {k} diverged after scaling"
        );
    }
}

#[test]
fn scale_out_preserves_all_data_and_rebalances() {
    let (mut cluster, client, model) = loaded_cluster(2, 120);
    assert_eq!(cluster.nodes(), 2);
    let new_member = cluster.scale_out_logbase().unwrap();
    assert_eq!(new_member, 2);
    assert_eq!(cluster.nodes(), 3);
    check_against_model(&client, &model);
    // The newcomer actually serves keys.
    let new_entries = cluster.logbase_server(2).unwrap().stats().index_entries;
    assert!(new_entries > 0, "new member serves no data");
}

#[test]
fn repeated_scale_out_keeps_serving() {
    let (mut cluster, client, mut model) = loaded_cluster(1, 60);
    for round in 0..3 {
        cluster.scale_out_logbase().unwrap();
        // Writes keep landing correctly after each split.
        let domain = cluster.config().key_domain;
        for i in 0..20u64 {
            let k = i * (domain / 20) + round + 1;
            let v = format!("post-split-{round}-{i}");
            client
                .put(0, encode_key(k), Value::from(v.clone().into_bytes()))
                .unwrap();
            model.insert(k, v);
        }
        check_against_model(&client, &model);
    }
    assert_eq!(cluster.nodes(), 4);
}

#[test]
fn scale_in_merges_back_without_loss() {
    let (mut cluster, client, model) = loaded_cluster(3, 90);
    let heir = cluster.scale_in_logbase(1).unwrap();
    assert_eq!(heir, 0);
    check_against_model(&client, &model);
    // The drained member no longer receives routed keys; writes still
    // work cluster-wide.
    let domain = cluster.config().key_domain;
    client
        .put(
            0,
            encode_key(domain / 3 + 7),
            Value::from_static(b"post-drain"),
        )
        .unwrap();
    assert_eq!(
        client.get(0, &encode_key(domain / 3 + 7)).unwrap().unwrap(),
        Value::from_static(b"post-drain")
    );
}

#[test]
fn scale_out_then_in_round_trips() {
    let (mut cluster, client, model) = loaded_cluster(2, 80);
    let new_member = cluster.scale_out_logbase().unwrap();
    check_against_model(&client, &model);
    cluster.scale_in_logbase(new_member).unwrap();
    check_against_model(&client, &model);
}

#[test]
fn migration_preserves_version_history() {
    let cluster_config = ClusterConfig::new(2, EngineKind::LogBase);
    let domain = cluster_config.key_domain;
    let mut cluster = Cluster::create(cluster_config).unwrap();
    let client = client_of(&cluster);
    // A key in the upper half (will migrate on scale-out), two versions.
    let hot = encode_key(domain - domain / 8);
    let t1 = client
        .put(0, hot.clone(), Value::from_static(b"v1"))
        .unwrap();
    let t2 = client
        .put(0, hot.clone(), Value::from_static(b"v2"))
        .unwrap();
    cluster.scale_out_logbase().unwrap();
    // Latest version visible through the new routing.
    assert_eq!(
        client.get(0, &hot).unwrap().unwrap(),
        Value::from_static(b"v2")
    );
    // Migration copies the *latest* version with its original timestamp
    // (the paper's log splitting scans from the recovery point; history
    // beyond the latest version stays in the donor's retired log).
    assert_eq!(
        client.get_at(0, &hot, t2).unwrap().unwrap(),
        Value::from_static(b"v2")
    );
    assert!(client.get_at(0, &hot, t1).unwrap().is_none());
    // New commit timestamps continue past the migrated ones.
    let t3 = client
        .put(0, hot.clone(), Value::from_static(b"v3"))
        .unwrap();
    assert!(t3 > t2);
    assert_eq!(
        client.get_at(0, &hot, Timestamp::MAX).unwrap().unwrap(),
        Value::from_static(b"v3")
    );
}

/// A client that learned the routing table *before* the cluster was
/// reshaped still scans correctly: a split narrows a cached route
/// without the old owner ever refusing, a merge leaves a cached route
/// pointing at a drained member — the scan must notice both.
#[test]
fn warm_cache_range_scan_survives_split_and_merge() {
    let (mut cluster, client, model) = loaded_cluster(3, 150);
    check_scan(&client, &model);
    let metrics = Arc::clone(cluster.metrics());
    let invalidations = || metrics.snapshot().routing_cache_invalidations;
    let warm = invalidations();

    let new_member = cluster.scale_out_logbase().unwrap();
    check_scan(&client, &model);
    let after_split = invalidations();
    assert!(
        after_split > warm,
        "split went unnoticed by the route cache"
    );

    // `limit` cuts the walk short, still in key order, across members.
    let limited = client.range_scan(0, &KeyRange::all(), 140).unwrap();
    let want: Vec<_> = model.keys().take(140).map(|k| encode_key(*k)).collect();
    let got: Vec<_> = limited.into_iter().map(|(k, _, _)| k).collect();
    assert_eq!(got, want);

    cluster.scale_in_logbase(new_member).unwrap();
    check_scan(&client, &model);
    assert!(
        invalidations() > after_split,
        "merge went unnoticed by the route cache"
    );
}
