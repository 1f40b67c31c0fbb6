//! The measured run (`--trace 0`): a `bench host` child process, two
//! closed-loop client threads over TCP, the end-to-end metrics.

use crate::deploy::{delta, Counters, Served};
use crate::drive::{Clients, Phase};
use crate::host::Host;
use crate::report::{Metric, Outcome};
use crate::stream::{
    ops_per_thread, warmup_ops, Class, KeySpace, WorkloadSpec, THREADS, VALUE_BYTES,
};
use logbase_common::metrics::Metrics;
use logbase_common::Result;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Acked keys re-read over TCP after recovery.
const REREAD_SAMPLES: usize = 1_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: u64,
}

impl RunConfig {
    /// Operations each thread issues, warm-up included.
    pub fn ops_per_thread(&self) -> usize {
        ops_per_thread(self.spec, self.seconds)
    }

    /// Operations each thread issues in the measured phase.
    pub fn measured_ops_per_thread(&self) -> usize {
        self.ops_per_thread() - warmup_ops(self.ops_per_thread())
    }
}

/// `benchmark/out/`: everything the benchmark writes goes under it.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch path under `benchmark/out/`, unique to this process.
pub fn scratch_dir(label: &str) -> PathBuf {
    out_dir().join(format!("{label}-{}", std::process::id()))
}

/// Load, checkpoint, connect the clients and run the warm-up: everything
/// of a set-up but starting the server. Returns the checkpoint time too.
pub fn prepare(server: &mut impl Served, cfg: &RunConfig) -> Result<(Clients, Duration)> {
    server.load(cfg.spec.preload_keys)?;
    let checkpoint = server.checkpoint()?;
    let mut clients = Clients::connect(cfg.spec, cfg.seed, &server.addrs());
    clients.run(warmup_ops(cfg.ops_per_thread()));
    Ok((clients, checkpoint))
}

/// What one measured phase did, seen from both ends.
pub struct Measured {
    pub phase: Phase,
    /// Server-side counters over the phase.
    pub work: Counters,
    /// Key + value bytes the clients were acked for in the phase.
    pub user_bytes_acked: u64,
    /// Requests the clients sent again in the phase.
    pub rpc_retries: u64,
}

/// Run `ops_per_thread` operations per client thread between two counter
/// snapshots.
pub fn measure(
    server: &mut impl Served,
    clients: &mut Clients,
    ops_per_thread: usize,
) -> Result<Measured> {
    let before = server.counters()?;
    let acked_before = clients.totals().user_bytes_acked;
    let retries_before = Metrics::get(&clients.metrics.rpc_retries);
    let phase = clients.run(ops_per_thread);
    Ok(Measured {
        phase,
        work: delta(&server.counters()?, &before),
        user_bytes_acked: clients.totals().user_bytes_acked - acked_before,
        rpc_retries: Metrics::get(&clients.metrics.rpc_retries) - retries_before,
    })
}

/// After a recovery: re-read a sample of the acked writes over TCP and,
/// where the workload moves balances, audit their sum.
pub fn check_after_recovery(clients: &mut Clients, spec: &WorkloadSpec) {
    for t in &mut clients.threads {
        t.worker.reread_written(&t.target, REREAD_SAMPLES / THREADS);
        if spec.mix.txn > 0 {
            t.worker.audit(&t.target);
        }
    }
}

/// Bytes of the latest version of every live key: the run only updates
/// preloaded keys, so it is the preload, whatever the run wrote.
pub fn live_user_bytes(spec: &WorkloadSpec) -> u64 {
    let key_bytes = KeySpace::new(spec.preload_keys).row_key(0).len();
    spec.preload_keys * (key_bytes + VALUE_BYTES) as u64
}

/// `num / den`, 0 when nothing was counted below the line.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Run the workload once against a child host and report the end-to-end
/// metrics. The wall-clock numbers of the phase are measured too, but only
/// printed ([`Outcome::also_measured`]): on the reference host they are not
/// steady enough to carry a bound, see `README.md`.
pub fn measured_run(cfg: &RunConfig) -> Result<Outcome> {
    let start = Instant::now();
    let mut host = Host::spawn(&scratch_dir("data"))?;
    let (mut clients, _) = prepare(&mut host, cfg)?;
    let setup = start.elapsed();

    let Measured {
        phase,
        work,
        user_bytes_acked,
        ..
    } = measure(&mut host, &mut clients, cfg.measured_ops_per_thread())?;

    let recovery: f64 = host.recover_all()?.iter().map(Duration::as_secs_f64).sum();
    check_after_recovery(&mut clients, cfg.spec);
    let at_end = host.counters()?;
    host.quit()?;

    let totals = clients.totals();
    // Whole run, warm-up and checks included. A refused request is one a
    // member shed with `Busy`; the client sends it again, and it counts as
    // failed only if it never gets through.
    eprintln!(
        "{}: {} ops measured in {:.2} s (both threads busy for {:.2} s); attempted {}, failed {}, refused {}, \
         {} txn retries, {} rpc retries",
        cfg.spec.name,
        phase.ops,
        phase.elapsed.as_secs_f64(),
        phase.all_busy.as_secs_f64(),
        totals.attempted,
        totals.failed,
        at_end["connections_shed"],
        totals.txn_retries,
        Metrics::get(&clients.metrics.rpc_retries),
    );
    let also_measured = vec![
        Metric::new("throughput_ops_s", phase.best_rate(), "1/s"),
        Metric::new("whole_run_ops_s", phase.whole_run_rate(), "1/s"),
        Metric::new("put_p50_us", phase.best_median_us(Class::Put), "us"),
        Metric::new("get_p50_us", phase.best_median_us(Class::Get), "us"),
        Metric::new("recovery_s", recovery, "s"),
    ];
    let metrics = vec![
        Metric::new("setup_s", setup.as_secs_f64(), "s"),
        Metric::new("server_rss_mb", at_end["rss_hwm_kb"] as f64 / 1024.0, "MB"),
        Metric::new(
            "write_amp",
            ratio(work["node_bytes_written"], user_bytes_acked),
            "ratio",
        ),
        Metric::new(
            "disk_bytes_per_user_byte",
            ratio(at_end["disk_bytes"], live_user_bytes(cfg.spec)),
            "ratio",
        ),
    ];
    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        complaints: clients.complaints(),
        metrics,
        also_measured,
    })
}
