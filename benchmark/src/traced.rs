//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! One deployment, in this process so that the layers below the wire can
//! be entered directly. First the two client threads run a measured phase
//! over TCP for the counts and the latency tails; then one thread deals
//! the next operations of its stream, one by one at random, to the entry
//! points of
//! [`crate::layers`], recording spans, from which the layer budget follows.
//!
//! Each operation runs once, through one entry point, rather than being
//! replayed through all of them, because an operation consumes the state
//! it finds: a get replayed after itself hits the read buffer its first
//! run filled. Dealing one seeded stream this way gives every entry
//! point the same input in distribution and the same store, in the steady
//! state the measured phase left it in, at the same moments.

use crate::deploy::{Deployment, DirGuard, Served};
use crate::drive::ClientThread;
use crate::layers::{Scratch, ServerTarget, ServiceTarget, TracedClient};
use crate::report::{obj, render_pretty, Metric, Outcome};
use crate::run::{
    check_after_recovery, measure, out_dir, prepare, ratio, scratch_dir, Measured, RunConfig,
};
use crate::stats::Latencies;
use crate::stream::{Class, KeySpace, MEMBERS, VALUE_BYTES};
use crate::trace::{spans_to_json, Budget, Layer, Tracer};
use logbase::ServerConfig;
use logbase_common::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::sync::Arc;
use std::time::Duration;

/// Operations dealt to each entry point, at most. There are four: the
/// client untraced, the client traced, the service, the tablet server.
const OPS_PER_ENTRY_POINT: usize = 5_000;
const ENTRY_POINTS: usize = 4;
/// Share of the measured run's operations the counting phase issues.
const COUNT_PHASE_SHARE: f64 = 0.5;

fn ops_per_entry_point(cfg: &RunConfig) -> usize {
    OPS_PER_ENTRY_POINT.min(cfg.ops_per_thread() / 8).max(1)
}

/// How much slower the traced client spans were than the same client
/// calls untraced, over the classes both walks saw.
fn overhead_frac(budget: &Budget, untraced: &[Latencies; 4]) -> f64 {
    let (mut traced_us, mut base_us) = (0.0, 0.0);
    for (class, layer) in [
        (Class::Put, Layer::ClientPut),
        (Class::Get, Layer::ClientGet),
        (Class::Txn, Layer::ClientTxn),
        (Class::Scan, Layer::ClientScan),
    ] {
        let calls = budget.total(layer).calls as f64;
        let base = untraced[class as usize].mean_us();
        if calls > 0.0 && base > 0.0 {
            traced_us += calls * budget.per_call_us(layer);
            base_us += calls * base;
        }
    }
    if base_us == 0.0 {
        0.0
    } else {
        traced_us / base_us - 1.0
    }
}

fn budget_metrics(b: &Budget, overhead: f64) -> Vec<Metric> {
    let us = |name, value| Metric::new(name, value, "us");
    vec![
        us("cluster.client_put_us", b.per_call_us(Layer::ClientPut)),
        us("cluster.client_get_us", b.per_call_us(Layer::ClientGet)),
        us("cluster.client_txn_us", b.per_call_us(Layer::ClientTxn)),
        us("cluster.client_scan_us", b.per_call_us(Layer::ClientScan)),
        us(
            "cluster.wire_self_us",
            b.self_us_put_get(Layer::ClientPut, Layer::ClientGet),
        ),
        us(
            "cluster.service_self_us",
            b.self_us_put_get(Layer::ServicePut, Layer::ServiceGet),
        ),
        us("common.rpc_codec_put_us", b.per_call_us(Layer::CodecPut)),
        us("common.rpc_codec_get_us", b.per_call_us(Layer::CodecGet)),
        us("logbase.server_put_us", b.per_call_us(Layer::ServerPut)),
        us("logbase.put_self_us", b.self_us(Layer::ServerPut)),
        us("coordination.oracle_us", b.per_call_us(Layer::Oracle)),
        us("wal.append_us", b.per_call_us(Layer::WalAppend)),
        us("wal.self_us", b.self_us(Layer::WalAppend)),
        us("dfs.append_us", b.per_call_us(Layer::DfsAppend)),
        us("index.insert_us", b.per_call_us(Layer::IndexInsert)),
        us("logbase.server_get_us", b.per_call_us(Layer::ServerGet)),
        us("logbase.get_self_us", b.self_us(Layer::ServerGet)),
        us("index.lookup_us", b.per_call_us(Layer::IndexLookup)),
        us(
            "logbase.read_buffer_get_us",
            b.per_call_us(Layer::ReadBufferGet),
        ),
        us("wal.read_entry_us", b.per_call_us(Layer::WalReadEntry)),
        us("dfs.read_us", b.per_call_us(Layer::DfsRead)),
        us("logbase.txn_commit_us", b.per_call_us(Layer::TxnCommit)),
        us("logbase.range_scan_us", b.per_call_us(Layer::ServerScan)),
        Metric::new("trace.overhead_frac", overhead, "ratio"),
    ]
}

fn count_metrics(m: &Measured, checkpoint: Duration, recovery: &[Duration]) -> Vec<Metric> {
    let Measured {
        phase,
        work,
        user_bytes_acked,
        rpc_retries,
    } = m;
    let writes_acked = user_bytes_acked / (8 + VALUE_BYTES) as u64;
    let txns = work["txn_commits"] + work["txn_aborts"];
    let us = |name, value| Metric::new(name, value, "us");
    let per = |name, num: u64, den: u64| Metric::new(name, ratio(num, den), "ratio");
    vec![
        us(
            "cluster.put_p99_us",
            phase.of(Class::Put).percentile_us(0.99),
        ),
        Metric::new("cluster.throughput_ops_s", phase.best_rate(), "1/s"),
        us("cluster.put_p50_us", phase.best_median_us(Class::Put)),
        us("cluster.get_p50_us", phase.best_median_us(Class::Get)),
        us(
            "cluster.get_p99_us",
            phase.of(Class::Get).percentile_us(0.99),
        ),
        us(
            "cluster.txn_p50_us",
            phase.of(Class::Txn).percentile_us(0.5),
        ),
        us(
            "cluster.txn_p99_us",
            phase.of(Class::Txn).percentile_us(0.99),
        ),
        us(
            "cluster.scan_p50_us",
            phase.of(Class::Scan).percentile_us(0.5),
        ),
        Metric::new("cluster.whole_run_ops_s", phase.whole_run_rate(), "1/s"),
        per("cluster.rpc_retries_per_op", *rpc_retries, phase.ops),
        per("cluster.shed_per_op", work["connections_shed"], phase.ops),
        Metric::new(
            "cluster.admission_limit",
            work["admission_limit"] as f64,
            "count",
        ),
        per(
            "wal.batch_width",
            work["wal_batched_entries"],
            work["wal_batches_committed"],
        ),
        per(
            "wal.committer_wakeups_per_put",
            work["wal_committer_wakeups"],
            writes_acked,
        ),
        per("dfs.appends_per_put", work["dfs_appends"], writes_acked),
        per("dfs.retries_per_op", work["dfs_retries"], phase.ops),
        per(
            "dfs.bytes_written_per_user_byte",
            work["node_bytes_written"],
            *user_bytes_acked,
        ),
        per("dfs.reads_per_get", work["dfs_reads"], work["records_read"]),
        per(
            "index.bytes_per_entry",
            work["index_bytes"],
            work["index_entries"],
        ),
        per(
            "logbase.read_buffer_hit_rate",
            work["cache_hits"],
            work["cache_hits"] + work["cache_misses"],
        ),
        per("logbase.txn_abort_rate", work["txn_aborts"], txns),
        per(
            "logbase.compaction_bytes_written_per_user_byte",
            work["compaction_bytes_written"],
            *user_bytes_acked,
        ),
        Metric::new("logbase.checkpoint_s", checkpoint.as_secs_f64(), "s"),
        Metric::new(
            "logbase.recovery_s",
            recovery.iter().map(Duration::as_secs_f64).sum(),
            "s",
        ),
        Metric::new(
            "logbase.recovery_member_max_s",
            recovery.iter().max().map_or(0.0, Duration::as_secs_f64),
            "s",
        ),
    ]
}

/// Run the workload once in-process and report the per-layer metrics.
/// Writes the spans and the budget to `benchmark/out/trace-<workload>.json`.
pub fn traced_run(cfg: &RunConfig) -> Result<Outcome> {
    let dir = DirGuard::create(scratch_dir("trace-data"))?;
    let mut deployment = Deployment::start(dir.path())?;
    let (mut clients, checkpoint) = prepare(&mut deployment, cfg)?;
    let count_ops = (cfg.measured_ops_per_thread() as f64 * COUNT_PHASE_SHARE) as usize;
    let measured = measure(&mut deployment, &mut clients, count_ops)?;

    let n = ops_per_entry_point(cfg);
    let tracer = Tracer::default();
    let mut untraced: [Latencies; 4] = Default::default();
    {
        let ClientThread {
            target,
            worker,
            stream,
        } = &mut clients.threads[0];
        let cluster = deployment.cluster();
        let scratch = Scratch::new(
            cluster.dfs(),
            &KeySpace::new(cfg.spec.preload_keys),
            cluster.config().segment_bytes,
            ServerConfig::new("").read_buffer_bytes,
        )?;
        let client = TracedClient {
            inner: target,
            tracer: &tracer,
        };
        let service = ServiceTarget {
            service: Arc::clone(cluster.service()),
            tracer: &tracer,
        };
        let servers = (0..MEMBERS as usize)
            .map(|i| {
                cluster
                    .logbase_server(i)
                    .ok_or_else(|| Error::Unavailable(format!("member {i} is down")))
            })
            .collect::<Result<Vec<_>>>()?;
        let server = ServerTarget {
            servers,
            metrics: Arc::clone(cluster.metrics()),
            scratch: &scratch,
            tracer: &tracer,
        };
        // Dealt at random rather than in turn: in a fixed rotation each
        // entry point always follows the same other one, and inherits how
        // warm that one left the server's threads.
        let mut deal = StdRng::seed_from_u64(cfg.seed);
        for op in stream.by_ref().take(n * ENTRY_POINTS) {
            tracer.next_op();
            match deal.gen_range(0..ENTRY_POINTS) {
                0 => {
                    let timed = worker.run(&*target, op);
                    if timed.ok {
                        untraced[timed.class as usize].record(0, timed.end - timed.start);
                    }
                }
                1 => drop(worker.run(&client, op)),
                2 => drop(worker.run(&service, op)),
                _ => drop(worker.run(&server, op)),
            }
        }
    }
    let spans = tracer.into_spans();
    let budget = Budget::from_spans(&spans);

    let recovery = deployment.recover_all()?;
    check_after_recovery(&mut clients, cfg.spec);

    let mut totals = clients.totals();
    let mut complaints = clients.complaints();
    for line in budget.overdrawn() {
        totals.failed += 1;
        complaints.push(format!("layer budget does not add up: {line}"));
    }
    let overhead = overhead_frac(&budget, &untraced);
    let mut metrics = count_metrics(&measured, checkpoint, &recovery);
    metrics.extend(budget_metrics(&budget, overhead));

    let path = out_dir().join(format!("trace-{}.json", cfg.spec.name));
    let doc = obj([
        ("workload", Value::Str(cfg.spec.name.to_string())),
        ("seed", Value::UInt(cfg.seed)),
        ("ops_per_entry_point", Value::UInt(n as u64)),
        ("budget", budget.to_json()),
        ("spans", spans_to_json(&spans)),
    ]);
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(&path, render_pretty(&doc))?;
    eprintln!(
        "{}: counted {} ops in {:.2} s, {} spans written to {}",
        cfg.spec.name,
        measured.phase.ops,
        measured.phase.elapsed.as_secs_f64(),
        spans.len(),
        path.display()
    );
    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        complaints,
        metrics,
        also_measured: Vec::new(),
    })
}
