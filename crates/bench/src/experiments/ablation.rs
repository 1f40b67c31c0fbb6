//! Ablations beyond the paper's figures, covering the design choices
//! DESIGN.md calls out: group-commit batch size (§3.7.2), read-buffer
//! replacement policy (§3.6.2), index spill to LSM (§3.5/§4.6), and the
//! scan-coalescing gap used after compaction (§3.6.5).

use crate::report::Figure;
use crate::setup::{Scale, SingleNode, BENCH_TABLE};
use logbase::spill::SpillConfig;
use logbase::GroupCommitConfig;
use logbase::{ServerConfig, TabletServer};
use logbase_common::cache::{Cache, FifoPolicy, LruPolicy};
use logbase_common::schema::{KeyRange, TableSchema};
use logbase_common::{Result, Value};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_workload::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Group-commit batch size vs concurrent write throughput.
pub fn ablation_group_commit(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "ablation-batch",
        "Group-commit max batch vs write throughput (ops/sec)",
        "§3.7.2: batching log writes amortizes replication round-trips; throughput grows with batch size until the log write is bandwidth-bound",
    );
    let threads = 8usize;
    let per_thread = (scale.records / 16).max(50);
    for max_batch in [1usize, 8, 32, 128] {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let mut config = ServerConfig::new("gc-srv");
        config.group_commit = GroupCommitConfig {
            max_batch,
            ..GroupCommitConfig::default()
        };
        let server = TabletServer::create(dfs, config)?;
        server.create_table(TableSchema::single_group(BENCH_TABLE, &["v"]))?;
        let started = Instant::now();
        std::thread::scope(|s| -> Result<()> {
            let mut handles = Vec::new();
            for t in 0..threads {
                let server = Arc::clone(&server);
                handles.push(s.spawn(move || -> Result<()> {
                    let value = Value::from(vec![0u8; 256]);
                    for i in 0..per_thread {
                        server.put(
                            BENCH_TABLE,
                            0,
                            logbase_workload::encode_key((t as u64) << 32 | i),
                            value.clone(),
                        )?;
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("writer panicked")?;
            }
            Ok(())
        })?;
        let ops = threads as u64 * per_thread;
        fig.push(
            "LogBase",
            format!("batch={max_batch}"),
            ops as f64 / started.elapsed().as_secs_f64(),
            "ops/sec",
        );
    }
    Ok(fig)
}

/// Read-buffer replacement policy: LRU vs FIFO hit ratio under zipfian
/// access (exercises the pluggable-policy interface of §3.6.2).
pub fn ablation_cache_policy(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "ablation-cache",
        "Replacement policy vs hit ratio (zipfian accesses)",
        "§3.6.2: the replacement strategy is pluggable; LRU exploits zipfian locality better than FIFO",
    );
    let n = scale.records.max(500);
    let zipf = Zipfian::new(n, 0.99);
    let mut rng = StdRng::seed_from_u64(9);
    let accesses: Vec<u64> = (0..n * 4).map(|_| zipf.sample(&mut rng)).collect();
    let budget = n * 8; // room for ~1/6 of entries at 48 B each
    for (name, cache) in [
        (
            "LRU",
            Cache::<u64, u64>::with_policy(budget, Box::new(LruPolicy::default())),
        ),
        (
            "FIFO",
            Cache::<u64, u64>::with_policy(budget, Box::new(FifoPolicy::default())),
        ),
    ] {
        for &key in &accesses {
            if cache.get(&key).is_none() {
                cache.insert(key, key, 48);
            }
        }
        let (hits, misses) = cache.stats();
        fig.push(
            name,
            "zipf 0.99",
            hits as f64 / (hits + misses) as f64,
            "hit ratio",
        );
    }
    Ok(fig)
}

/// Index spill: write and read cost with the index fully in memory vs
/// spilled to the LSM tier (the §4.6 "indexes beyond memory" question).
pub fn ablation_spill(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "ablation-spill",
        "In-memory index vs LSM-spilled index (sec)",
        "§4.6: spilling the index costs little on writes and moderately on cold reads — scaling beyond memory is viable",
    );
    let n = scale.records;
    for (name, spill) in [
        ("in-memory index", None),
        (
            "spilled index",
            Some(SpillConfig {
                mem_budget_bytes: (n * 20).max(4096), // hold ~1/4 of entries
                lsm_write_buffer_bytes: 1 << 20,
            }),
        ),
    ] {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let mut config = ServerConfig::new("spill-srv").with_read_buffer(0);
        if let Some(s) = spill {
            config = config.with_spill(s);
        }
        let server = TabletServer::create(dfs, config)?;
        server.create_table(TableSchema::single_group(BENCH_TABLE, &["v"]))?;
        let value = Value::from(vec![0u8; scale.value_bytes]);
        let t = Instant::now();
        for i in 0..n {
            server.put(
                BENCH_TABLE,
                0,
                logbase_workload::encode_key(i),
                value.clone(),
            )?;
        }
        fig.push(name, "write", t.elapsed().as_secs_f64(), "sec");
        let mut rng = StdRng::seed_from_u64(10);
        let reads = (n / 4).max(10);
        let t = Instant::now();
        for _ in 0..reads {
            let k = logbase_workload::encode_key(rng.gen_range(0..n));
            server.get(BENCH_TABLE, 0, &k)?;
        }
        fig.push(name, "read", t.elapsed().as_secs_f64(), "sec");
    }
    Ok(fig)
}

/// Single log per server vs one log per column group (§3.4's design
/// discussion): writes touching two column groups either share one
/// sequential log or split across two log instances.
pub fn ablation_log_per_group(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "ablation-logs",
        "Single shared log vs log-per-column-group (sec to write)",
        "§3.4: LogBase picks one log per server — fewer DFS writer streams sustain higher write throughput",
    );
    let n = scale.records;
    let value = Value::from(vec![0u8; scale.value_bytes]);
    // Single log: one server, two column groups.
    {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let server = TabletServer::create(dfs.clone(), ServerConfig::new("one-log"))?;
        server.create_table(TableSchema::with_groups(
            BENCH_TABLE,
            &[("a", &["x"]), ("b", &["y"])],
        ))?;
        let t = Instant::now();
        for i in 0..n {
            let key = logbase_workload::encode_key(i);
            server.put(BENCH_TABLE, (i % 2) as u16, key, value.clone())?;
        }
        fig.push(
            "single log",
            format!("{n} writes"),
            t.elapsed().as_secs_f64(),
            "sec",
        );
        let appends = dfs.metrics().snapshot().dfs_appends;
        fig.push("single log", "dfs appends", appends as f64, "count");
    }
    // Log per group: emulate with two servers, each holding one group's
    // data (each server has its own log instance).
    {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let s_a = TabletServer::create(dfs.clone(), ServerConfig::new("log-a"))?;
        let s_b = TabletServer::create(dfs.clone(), ServerConfig::new("log-b"))?;
        for s in [&s_a, &s_b] {
            s.create_table(TableSchema::single_group(BENCH_TABLE, &["v"]))?;
        }
        let t = Instant::now();
        for i in 0..n {
            let key = logbase_workload::encode_key(i);
            let target = if i % 2 == 0 { &s_a } else { &s_b };
            target.put(BENCH_TABLE, 0, key, value.clone())?;
        }
        fig.push(
            "log per group",
            format!("{n} writes"),
            t.elapsed().as_secs_f64(),
            "sec",
        );
        let appends = dfs.metrics().snapshot().dfs_appends;
        fig.push("log per group", "dfs appends", appends as f64, "count");
    }
    Ok(fig)
}

/// Scan-coalescing gap: range-scan latency after compaction as the gap
/// threshold varies (0 disables coalescing).
pub fn ablation_scan_coalescing(scale: &Scale) -> Result<Figure> {
    let mut fig = Figure::new(
        "ablation-coalesce",
        "Pointer-read coalescing gap vs range-scan time (sec)",
        "After compaction clusters the log, merging adjacent pointer reads into one DFS read cuts per-scan round-trips",
    );
    let n = scale.records;
    for gap in [0u64, 4 * 1024, 64 * 1024] {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let mut config = ServerConfig::new("co-srv").with_read_buffer(0);
        config.scan_coalesce_gap = gap;
        let server = TabletServer::create(dfs, config)?;
        server.create_table(TableSchema::single_group(BENCH_TABLE, &["v"]))?;
        let rig = SingleNode {
            dfs: server.dfs().clone(),
            engine: Arc::new(logbase::server::LogBaseEngine::new(
                Arc::clone(&server),
                BENCH_TABLE,
            )),
            logbase: Some(Arc::clone(&server)),
        };
        let value = Value::from(vec![0u8; scale.value_bytes]);
        for i in 0..n {
            server.put(
                BENCH_TABLE,
                0,
                logbase_workload::encode_key(i),
                value.clone(),
            )?;
        }
        server.compact()?;
        let t = Instant::now();
        let scans = 20u64;
        for s in 0..scans {
            let start = s * (n / scans).max(1) % n.saturating_sub(64).max(1);
            let range = KeyRange::new(
                logbase_workload::encode_key(start),
                logbase_workload::encode_key(start + 64),
            );
            rig.engine.range_scan(0, &range, usize::MAX)?;
        }
        fig.push(
            "LogBase after compaction",
            format!("gap={}", logbase_common::config::human_bytes(gap)),
            t.elapsed().as_secs_f64(),
            "sec",
        );
    }
    Ok(fig)
}

/// All ablations in order.
pub fn all(scale: &Scale) -> Result<Vec<Figure>> {
    Ok(vec![
        ablation_group_commit(scale)?,
        ablation_cache_policy(scale)?,
        ablation_spill(scale)?,
        ablation_log_per_group(scale)?,
        ablation_scan_coalescing(scale)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_policy_lru_beats_fifo_on_zipf() {
        let fig = ablation_cache_policy(&Scale::tiny()).unwrap();
        let lru = fig.value("LRU", "zipf 0.99").unwrap();
        let fifo = fig.value("FIFO", "zipf 0.99").unwrap();
        assert!(lru > fifo, "LRU {lru} should beat FIFO {fifo}");
    }

    #[test]
    fn spill_ablation_runs_both_modes() {
        let fig = ablation_spill(&Scale::tiny()).unwrap();
        assert!(fig.value("in-memory index", "write").is_some());
        assert!(fig.value("spilled index", "read").is_some());
    }

    #[test]
    fn group_commit_ablation_produces_all_batch_sizes() {
        let fig = ablation_group_commit(&Scale::tiny()).unwrap();
        assert_eq!(fig.rows.len(), 4);
        assert!(fig.rows.iter().all(|r| r.value > 0.0));
    }
}
