//! Criterion bench behind Figs 12–14: one routed operation of the YCSB
//! mixed workload against a 3-node cluster, per engine and mix.

use criterion::{criterion_group, criterion_main, Criterion};
use logbase_cluster::{Cluster, ClusterConfig, EngineKind};
use logbase_workload::ycsb::{Op, YcsbConfig, YcsbWorkload};

fn loaded_cluster(kind: EngineKind) -> Cluster {
    let mut config = ClusterConfig::new(3, kind);
    config.hbase_flush_bytes = 512 * 1024;
    let cluster = Cluster::create(config).unwrap();
    let workload = YcsbWorkload::new(YcsbConfig::new(3_000, 0.0));
    let parts = cluster.partition_keys(workload.load_keys());
    cluster.parallel_load(0, &parts, 1024).unwrap();
    cluster
}

fn bench_mixed(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixed_op_3_nodes");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    for kind in [EngineKind::LogBase, EngineKind::HBase] {
        let cluster = loaded_cluster(kind);
        let client = cluster.client();
        for mix in [0.95f64, 0.75] {
            let mut cfg = YcsbConfig::new(3_000, mix);
            cfg.seed = 11;
            let mut w = YcsbWorkload::new(cfg);
            group.bench_function(
                format!("{}_{}pct_update", kind.name(), (mix * 100.0) as u32),
                |b| {
                    b.iter(|| match w.next_op() {
                        Op::Read(k) => {
                            client.get(0, &k).unwrap();
                        }
                        Op::Update(k, v) => {
                            client.put(0, k, v).unwrap();
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mixed);
criterion_main!(benches);
