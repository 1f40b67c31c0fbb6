//! Cluster scalability experiments (§4.3, §4.6): Figs 11–14 and 22.

use crate::report::Figure;
use crate::setup::Scale;
use logbase_cluster::{Cluster, ClusterConfig, EngineKind};
use logbase_common::{Result, RowKey};
use logbase_workload::ycsb::{Op, YcsbConfig, YcsbWorkload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn build_loaded_cluster(
    engine: EngineKind,
    nodes: usize,
    scale: &Scale,
) -> Result<(Cluster, Vec<RowKey>)> {
    let mut config = ClusterConfig::new(nodes, engine);
    config.hbase_flush_bytes = scale.hbase_flush_bytes(scale.records_per_node);
    let cluster = Cluster::create(config)?;
    let total = scale.records_per_node * nodes as u64;
    let workload = YcsbWorkload::new(YcsbConfig::new(total, 0.0));
    let keys: Vec<RowKey> = workload.load_keys().collect();
    let parts = cluster.partition_keys(keys.iter().cloned());
    cluster.parallel_load(0, &parts, scale.value_bytes)?;
    Ok((cluster, keys))
}

/// Fig. 11: parallel loading time, 3 → 24 nodes, LogBase vs HBase.
pub fn fig11_load_time(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "fig11",
        "YCSB data loading time (sec, records ∝ nodes)",
        "LogBase loads in about half the time of HBase at every cluster size",
    );
    for &nodes in &scale.cluster_sizes {
        let label = format!("{nodes} nodes");
        for engine in [EngineKind::LogBase, EngineKind::HBase] {
            let mut config = ClusterConfig::new(nodes, engine);
            config.hbase_flush_bytes = scale.hbase_flush_bytes(scale.records_per_node);
            let cluster = Cluster::create(config)?;
            let total = scale.records_per_node * nodes as u64;
            let workload = YcsbWorkload::new(YcsbConfig::new(total, 0.0));
            let parts = cluster.partition_keys(workload.load_keys());
            let took = cluster.parallel_load(0, &parts, scale.value_bytes)?;
            let series = match engine {
                EngineKind::LogBase => "LogBase",
                EngineKind::HBase => "HBase",
                EngineKind::Lrs => "LRS",
            };
            fig.push(series, &label, took.as_secs_f64(), "sec");
        }
    }
    Ok(fig)
}

/// One mixed-workload run: per-node client threads issue `ops` each.
/// Returns `(ops/sec, avg update ms, avg read ms)`.
fn run_mixed(cluster: &Cluster, scale: &Scale, update_fraction: f64) -> Result<(f64, f64, f64)> {
    let nodes = cluster.nodes();
    let update_ns = AtomicU64::new(0);
    let update_count = AtomicU64::new(0);
    let read_ns = AtomicU64::new(0);
    let read_count = AtomicU64::new(0);
    let total = scale.records_per_node * nodes as u64;
    // The paper's benchmark clients: one thread per node, all going
    // through the cluster's client like any other caller.
    let client = cluster.client();
    let started = Instant::now();
    std::thread::scope(|s| -> Result<()> {
        let mut handles = Vec::new();
        for node in 0..nodes {
            let client = &client;
            let update_ns = &update_ns;
            let update_count = &update_count;
            let read_ns = &read_ns;
            let read_count = &read_count;
            handles.push(s.spawn(move || -> Result<()> {
                let mut cfg = YcsbConfig::new(total, update_fraction);
                cfg.value_bytes = scale.value_bytes;
                cfg.seed = 1000 + node as u64;
                let mut w = YcsbWorkload::new(cfg);
                // Warm-up (uncounted), then the measured workload.
                for _ in 0..scale.warmup_per_node {
                    match w.next_op() {
                        Op::Read(k) => {
                            client.get(0, &k)?;
                        }
                        Op::Update(k, v) => {
                            client.put(0, k, v)?;
                        }
                    }
                }
                for _ in 0..scale.ops_per_node {
                    match w.next_op() {
                        Op::Read(k) => {
                            let t = Instant::now();
                            client.get(0, &k)?;
                            read_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            read_count.fetch_add(1, Ordering::Relaxed);
                        }
                        Op::Update(k, v) => {
                            let t = Instant::now();
                            client.put(0, k, v)?;
                            update_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            update_count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("client thread panicked")?;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64();
    let ops = (scale.ops_per_node + scale.warmup_per_node) * nodes;
    let throughput = ops as f64 / elapsed;
    let avg_ms = |ns: &AtomicU64, count: &AtomicU64| {
        let c = count.load(Ordering::Relaxed);
        if c == 0 {
            0.0
        } else {
            ns.load(Ordering::Relaxed) as f64 / c as f64 / 1e6
        }
    };
    Ok((
        throughput,
        avg_ms(&update_ns, &update_count),
        avg_ms(&read_ns, &read_count),
    ))
}

/// Figs 12–14: mixed-workload throughput, update latency and read
/// latency across cluster sizes and mixes. Returns `[fig12, fig13,
/// fig14]`.
pub fn fig12_13_14_mixed(scale: &Scale) -> Result<Vec<Figure>> {
    let mut fig12 = Figure::new(
        "fig12",
        "Mixed throughput (ops/sec, higher is better)",
        "Throughput grows with nodes; LogBase above HBase; 95%-update mix above 75%",
    );
    let mut fig13 = Figure::new(
        "fig13",
        "Update latency (ms, flat with scale)",
        "LogBase below HBase (no memtable-flush stalls); latency stays flat as nodes grow",
    );
    let mut fig14 = Figure::new(
        "fig14",
        "Read latency (ms, flat with scale)",
        "LogBase below HBase (dense in-memory index; block cache less effective at large domain)",
    );
    for &nodes in &scale.cluster_sizes {
        let label = format!("{nodes} nodes");
        for engine in [EngineKind::LogBase, EngineKind::HBase] {
            let (cluster, _) = build_loaded_cluster(engine, nodes, scale)?;
            for mix in [0.75f64, 0.95] {
                let (tput, up_ms, rd_ms) = run_mixed(&cluster, scale, mix)?;
                let series = format!(
                    "{} {}% update",
                    match engine {
                        EngineKind::LogBase => "LogBase",
                        EngineKind::HBase => "HBase",
                        EngineKind::Lrs => "LRS",
                    },
                    (mix * 100.0) as u32
                );
                fig12.push(&series, &label, tput, "ops/sec");
                fig13.push(&series, &label, up_ms, "ms");
                fig14.push(&series, &label, rd_ms, "ms");
            }
        }
    }
    Ok(vec![fig12, fig13, fig14])
}

/// Fig. 22: read and write throughput vs nodes, LogBase vs LRS.
pub fn fig22_lrs_throughput(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "fig22",
        "Throughput vs cluster size, LogBase vs LRS (ops/sec)",
        "LogBase slightly above LRS for both writes and reads; both scale with nodes",
    );
    for &nodes in &scale.cluster_sizes {
        let label = format!("{nodes} nodes");
        for engine in [EngineKind::LogBase, EngineKind::Lrs] {
            let (cluster, _) = build_loaded_cluster(engine, nodes, scale)?;
            let name = match engine {
                EngineKind::LogBase => "LogBase",
                EngineKind::Lrs => "LRS",
                EngineKind::HBase => "HBase",
            };
            let (write_tput, _, _) = run_mixed(&cluster, scale, 1.0)?;
            fig.push(format!("{name} write"), &label, write_tput, "ops/sec");
            let (read_tput, _, _) = run_mixed(&cluster, scale, 0.0)?;
            fig.push(format!("{name} read"), &label, read_tput, "ops/sec");
        }
    }
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_has_all_points() {
        let scale = Scale::tiny();
        let fig = fig11_load_time(&scale).unwrap();
        assert_eq!(fig.rows.len(), scale.cluster_sizes.len() * 2);
        assert!(fig.rows.iter().all(|r| r.value > 0.0));
    }

    #[test]
    fn mixed_run_produces_throughput_and_latencies() {
        let scale = Scale::tiny();
        let (cluster, _) = build_loaded_cluster(EngineKind::LogBase, 2, &scale).unwrap();
        let (tput, up_ms, rd_ms) = run_mixed(&cluster, &scale, 0.5).unwrap();
        assert!(tput > 0.0);
        assert!(up_ms > 0.0);
        assert!(rd_ms > 0.0);
    }

    #[test]
    fn fig22_covers_four_series() {
        let scale = Scale::tiny();
        let fig = fig22_lrs_throughput(&scale).unwrap();
        for series in ["LogBase write", "LogBase read", "LRS write", "LRS read"] {
            assert!(fig.series_total(series) > 0.0, "missing series {series}");
        }
    }
}
