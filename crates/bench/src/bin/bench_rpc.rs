//! RPC load harness (`BENCH_rpc.json`) — goodput vs offered load.
//!
//! Drives hundreds of concurrent client connections against the TCP
//! RPC server through an open-loop arrival-rate ramp over Zipf-skewed
//! keys, and compares two server arms:
//!
//! - **adaptive** — the default [`NetServerConfig`]: AIMD admission
//!   limiter, deadline propagation, mid-queue expired-request drops;
//! - **fixed64** — `NetServerConfig::fixed(64)`: the legacy static
//!   `max_in_flight: 64` cap with no deadline drops.
//!
//! Capacity is made host-independent by injecting a fixed per-response
//! service latency through the fault injector (respond lane only, so
//! connection accepts stay fast): with `K` dispatch workers per member
//! and `τ` injected latency, capacity ≈ `members · K / τ`. The ramp
//! offers multiples of that capacity and measures *goodput* — operations
//! acknowledged to the client within its deadline — so work the server
//! finishes after the client gave up counts for nothing. Past
//! saturation the fixed arm queues ~64·τ of latency, blowing through
//! the client deadline and collapsing goodput, while the adaptive arm
//! sheds early (cheap `Busy` + retry-after hints) and keeps queue wait
//! under the deadline.
//!
//! A second ablation sweeps client pipelining depth (threads sharing
//! one client, requests interleaved on its connections) at closed loop.
//!
//! ```text
//! bench_rpc [--smoke] [--seed N] [--out PATH] [--verify PATH]
//!           [--server-bin PATH]
//! ```
//!
//! By default the cluster runs in-process (real TCP, loopback). With
//! `--server-bin` a `logbase-server` child process is spawned per arm
//! and the harness talks to it purely over the wire — the CI load-smoke
//! job runs this form. `--verify` validates an existing report and
//! exits non-zero if the adaptive arm's goodput past the knee collapsed
//! below 50% of its peak.

use logbase_bench::percentile_us;
use logbase_cluster::{
    Client, ClientConfig, Cluster, ClusterConfig, EngineKind, NetServerConfig, RetryBudgetConfig,
    TcpTransport,
};
use logbase_common::metrics::Metrics;
use logbase_common::{Error, RetryPolicy, Value};
use logbase_dfs::{NetFaultSpec, NetOp};
use logbase_workload::encode_key;
use logbase_workload::zipf::ScrambledZipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE: &str = "usertable";
const MEMBERS: usize = 3;
const DISPATCH_THREADS: usize = 1;
const RESPOND_LATENCY_US: u64 = 4_000;
const OP_DEADLINE_MS: u64 = 150;
const VALUE_BYTES: usize = 64;
const ZIPF_ITEMS: u64 = 1_024;
const ZIPF_THETA: f64 = 0.99;

static PAYLOAD: &[u8] = &[42u8; VALUE_BYTES];

// ---------------------------------------------------------------------
// Report schema (serialized to BENCH_rpc.json)
// ---------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct Report {
    bench: String,
    seed: u64,
    smoke: bool,
    mode: String,
    config: RigConfig,
    load_curve: Vec<LoadPoint>,
    pipelining: Vec<PipePoint>,
    summary: Summary,
}

#[derive(Serialize, Deserialize, Clone)]
struct RigConfig {
    members: usize,
    dispatch_threads: usize,
    respond_latency_us: u64,
    /// `members · dispatch_threads / respond_latency` — the rig's
    /// engineered saturation point, independent of host speed.
    capacity_ops_per_sec: f64,
    op_deadline_ms: u64,
    workers: usize,
    window_sec: f64,
    value_bytes: usize,
    zipf_items: u64,
    zipf_theta: f64,
    offered_multipliers: Vec<f64>,
    pipeline_depths: Vec<usize>,
}

#[derive(Serialize, Deserialize)]
struct LoadPoint {
    arm: String,
    offered_multiplier: f64,
    target_offered_ops_per_sec: f64,
    realized_offered_ops_per_sec: f64,
    goodput_ops_per_sec: f64,
    ok: u64,
    err_deadline: u64,
    err_unavailable: u64,
    err_other: u64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// Server-side counters over the window (in-process rigs only; a
    /// child process keeps its metrics to itself).
    admission_limit: Option<u64>,
    expired_delta: Option<u64>,
    shed_delta: Option<u64>,
    shed_by_priority_delta: Option<u64>,
    retry_budget_exhausted_delta: Option<u64>,
}

#[derive(Serialize, Deserialize)]
struct PipePoint {
    depth: usize,
    ops: u64,
    elapsed_sec: f64,
    throughput_ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

#[derive(Serialize, Deserialize)]
struct Summary {
    adaptive: ArmSummary,
    fixed: ArmSummary,
    /// Goodput ratio adaptive/fixed at the heaviest offered load.
    adaptive_over_fixed_at_max_load: f64,
}

#[derive(Serialize, Deserialize)]
struct ArmSummary {
    peak_goodput_ops_per_sec: f64,
    goodput_at_max_load_ops_per_sec: f64,
    frac_of_peak_at_max_load: f64,
}

// ---------------------------------------------------------------------
// Server rigs: in-process cluster or spawned logbase-server child
// ---------------------------------------------------------------------

enum Rig {
    InProc {
        cluster: Box<Cluster>,
        net: Arc<logbase_cluster::NetServer>,
    },
    Child {
        child: std::process::Child,
        addrs: Vec<String>,
    },
}

impl Rig {
    fn in_proc(net_cfg: NetServerConfig) -> Rig {
        let cluster =
            Cluster::create(ClusterConfig::new(MEMBERS, EngineKind::LogBase)).expect("cluster");
        for m in 0..MEMBERS as u32 {
            cluster.dfs().fault_injector().set_net_spec_for(
                m,
                NetOp::Respond,
                NetFaultSpec {
                    fixed_latency: Some(Duration::from_micros(RESPOND_LATENCY_US)),
                    ..NetFaultSpec::default()
                },
            );
        }
        let net = cluster.start_net(net_cfg).expect("bind listeners");
        Rig::InProc {
            cluster: Box::new(cluster),
            net,
        }
    }

    fn child(server_bin: &str, admission: &str) -> Rig {
        let port_file = std::env::temp_dir().join(format!(
            "bench_rpc_ports_{}_{admission}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = std::process::Command::new(server_bin)
            .args([
                "--nodes",
                &MEMBERS.to_string(),
                "--dispatch-threads",
                &DISPATCH_THREADS.to_string(),
                "--respond-latency-us",
                &RESPOND_LATENCY_US.to_string(),
                "--admission",
                admission,
                "--port-file",
                port_file.to_str().expect("utf8 temp path"),
            ])
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {server_bin}: {e}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let addrs = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let lines: Vec<String> = text.lines().map(str::to_string).collect();
                if lines.len() >= MEMBERS {
                    break lines;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server child never wrote {} addresses to {}",
                MEMBERS,
                port_file.display()
            );
            std::thread::sleep(Duration::from_millis(50));
        };
        let _ = std::fs::remove_file(&port_file);
        Rig::Child { child, addrs }
    }

    /// Fresh client with its own connection pool against this rig.
    fn client(&self, cfg: ClientConfig) -> Arc<Client> {
        match self {
            Rig::InProc { cluster, net } => {
                Arc::new(cluster.client_with(Arc::new(TcpTransport::for_server(net)), cfg))
            }
            Rig::Child { addrs, .. } => {
                let transport =
                    TcpTransport::new(addrs.iter().enumerate().map(|(m, a)| (m as u32, a.clone())));
                Arc::new(Client::new(
                    Arc::new(transport),
                    TABLE,
                    Metrics::new_handle(),
                    cfg,
                ))
            }
        }
    }

    /// (expired, shed, shed_by_priority, retry_budget_exhausted, limit)
    fn counters(&self) -> Option<(u64, u64, u64, u64, u64)> {
        match self {
            Rig::InProc { cluster, .. } => {
                let m = cluster.metrics().snapshot();
                Some((
                    m.requests_expired,
                    m.connections_shed,
                    m.requests_shed_by_priority,
                    m.retry_budget_exhausted,
                    m.admission_limit,
                ))
            }
            Rig::Child { .. } => None,
        }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        if let Rig::Child { child, .. } = self {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// Open-loop arrival-rate ramp
// ---------------------------------------------------------------------

struct PointOutcome {
    ok: u64,
    err_deadline: u64,
    err_unavailable: u64,
    err_other: u64,
    issued: u64,
    elapsed: f64,
    lats_ns: Vec<u64>,
}

/// One load point: `rate` ops/sec offered for `window` seconds, spread
/// across `clients` (one per worker thread). Open loop with a bounded
/// worker pool: each op has a scheduled start `t0 + i/rate`; a worker
/// that falls behind fires immediately, and the realized offered rate
/// is reported from the wall clock so saturation stalls are visible
/// rather than silently re-timed.
fn run_point(
    clients: &[Arc<Client>],
    zipf: &Arc<ScrambledZipfian>,
    seed: u64,
    rate: f64,
    window: f64,
) -> PointOutcome {
    let total = (rate * window).round().max(1.0) as u64;
    let next = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now() + Duration::from_millis(50);
    let handles: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(w, client)| {
            let client = Arc::clone(client);
            let zipf = Arc::clone(zipf);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (w as u64).wrapping_mul(0x9E37));
                let mut out = PointOutcome {
                    ok: 0,
                    err_deadline: 0,
                    err_unavailable: 0,
                    err_other: 0,
                    issued: 0,
                    elapsed: 0.0,
                    lats_ns: Vec::new(),
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let sched = t0 + Duration::from_secs_f64(i as f64 / rate);
                    let now = Instant::now();
                    if sched > now {
                        std::thread::sleep(sched - now);
                    }
                    let key = encode_key(zipf.sample(&mut rng));
                    let start = Instant::now();
                    let result = if rng.gen::<f64>() < 0.2 {
                        client.put(0, key, Value::from_static(PAYLOAD)).map(|_| ())
                    } else {
                        client.get(0, &key).map(|_| ())
                    };
                    out.issued += 1;
                    match result {
                        Ok(()) => {
                            out.ok += 1;
                            out.lats_ns.push(start.elapsed().as_nanos() as u64);
                        }
                        Err(Error::DeadlineExceeded(_)) => out.err_deadline += 1,
                        Err(Error::Unavailable(_)) => out.err_unavailable += 1,
                        Err(_) => out.err_other += 1,
                    }
                }
                out
            })
        })
        .collect();
    let mut merged = PointOutcome {
        ok: 0,
        err_deadline: 0,
        err_unavailable: 0,
        err_other: 0,
        issued: 0,
        elapsed: 0.0,
        lats_ns: Vec::new(),
    };
    for h in handles {
        let part = h.join().expect("load worker panicked");
        merged.ok += part.ok;
        merged.err_deadline += part.err_deadline;
        merged.err_unavailable += part.err_unavailable;
        merged.err_other += part.err_other;
        merged.issued += part.issued;
        merged.lats_ns.extend(part.lats_ns);
    }
    merged.elapsed = t0.elapsed().as_secs_f64().max(f64::EPSILON);
    merged.lats_ns.sort_unstable();
    merged
}

fn load_client_config() -> ClientConfig {
    ClientConfig {
        op_deadline: Duration::from_millis(OP_DEADLINE_MS),
        retry: RetryPolicy::new(4),
        retry_budget: RetryBudgetConfig {
            initial: 64,
            max: 128,
            refill_per_success: 0.5,
        },
        ..ClientConfig::default()
    }
}

fn run_arm(arm_name: &str, rig: &Rig, cfg: &RigConfig, seed: u64, load_curve: &mut Vec<LoadPoint>) {
    let zipf = Arc::new(ScrambledZipfian::new(
        ZIPF_ITEMS,
        logbase_common::config::YCSB_MAX_KEY,
        ZIPF_THETA,
    ));
    let clients: Vec<Arc<Client>> = (0..cfg.workers)
        .map(|_| rig.client(load_client_config()))
        .collect();

    // Warm routes and connections so the first measured window is not
    // dominated by connection setup; errors here are expected (the rig
    // is briefly flooded with `workers` concurrent requests).
    let warm: Vec<_> = clients
        .iter()
        .map(|c| {
            let c = Arc::clone(c);
            std::thread::spawn(move || {
                for i in 0..2u64 {
                    let _ = c.get(0, &encode_key(i * 1_000_003));
                }
            })
        })
        .collect();
    for h in warm {
        let _ = h.join();
    }
    std::thread::sleep(Duration::from_millis(200));

    for &mult in &cfg.offered_multipliers {
        let rate = mult * cfg.capacity_ops_per_sec;
        let before = rig.counters();
        let out = run_point(&clients, &zipf, seed, rate, cfg.window_sec);
        let after = rig.counters();
        let delta = |f: fn(&(u64, u64, u64, u64, u64)) -> u64| {
            before
                .as_ref()
                .zip(after.as_ref())
                .map(|(b, a)| f(a) - f(b))
        };
        let point = LoadPoint {
            arm: arm_name.to_string(),
            offered_multiplier: mult,
            target_offered_ops_per_sec: rate,
            realized_offered_ops_per_sec: out.issued as f64 / out.elapsed,
            goodput_ops_per_sec: out.ok as f64 / out.elapsed,
            ok: out.ok,
            err_deadline: out.err_deadline,
            err_unavailable: out.err_unavailable,
            err_other: out.err_other,
            p50_us: percentile_us(&out.lats_ns, 0.50),
            p95_us: percentile_us(&out.lats_ns, 0.95),
            p99_us: percentile_us(&out.lats_ns, 0.99),
            admission_limit: after.as_ref().map(|a| a.4),
            expired_delta: delta(|c| c.0),
            shed_delta: delta(|c| c.1),
            shed_by_priority_delta: delta(|c| c.2),
            retry_budget_exhausted_delta: delta(|c| c.3),
        };
        eprintln!(
            "  {arm_name} @ {mult:.2}x: offered {:.0}/s goodput {:.0}/s \
             (ok {} ddl {} unavail {} other {}) p99 {:.1}ms limit {:?}",
            point.realized_offered_ops_per_sec,
            point.goodput_ops_per_sec,
            point.ok,
            point.err_deadline,
            point.err_unavailable,
            point.err_other,
            point.p99_us / 1000.0,
            point.admission_limit,
        );
        load_curve.push(point);
        std::thread::sleep(Duration::from_millis(200));
    }
}

// ---------------------------------------------------------------------
// Pipelining-depth ablation (closed loop, one shared client)
// ---------------------------------------------------------------------

fn run_pipelining(rig: &Rig, cfg: &RigConfig, seed: u64, window: f64) -> Vec<PipePoint> {
    let zipf = Arc::new(ScrambledZipfian::new(
        ZIPF_ITEMS,
        logbase_common::config::YCSB_MAX_KEY,
        ZIPF_THETA,
    ));
    let mut points = Vec::new();
    for &depth in &cfg.pipeline_depths {
        // One client shared by `depth` threads: their requests pipeline
        // over its (small, fixed) connection pool instead of opening a
        // socket per thread. Generous deadline/budget — this measures
        // pipelined throughput, not shedding.
        let client = rig.client(ClientConfig {
            op_deadline: Duration::from_secs(2),
            ..ClientConfig::default()
        });
        let _ = client.get(0, &encode_key(1)); // warm routes
        let stop = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..depth)
            .map(|w| {
                let client = Arc::clone(&client);
                let zipf = Arc::clone(&zipf);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF ^ (w as u64) << 17);
                    let mut lats = Vec::new();
                    while stop.load(Ordering::Relaxed) == 0 {
                        let key = encode_key(zipf.sample(&mut rng));
                        let start = Instant::now();
                        if client.get(0, &key).is_ok() {
                            lats.push(start.elapsed().as_nanos() as u64);
                        }
                    }
                    lats
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(window));
        stop.store(1, Ordering::Relaxed);
        let mut lats: Vec<u64> = Vec::new();
        for h in handles {
            lats.extend(h.join().expect("pipelining worker panicked"));
        }
        let elapsed = t0.elapsed().as_secs_f64().max(f64::EPSILON);
        lats.sort_unstable();
        let point = PipePoint {
            depth,
            ops: lats.len() as u64,
            elapsed_sec: elapsed,
            throughput_ops_per_sec: lats.len() as f64 / elapsed,
            p50_us: percentile_us(&lats, 0.50),
            p99_us: percentile_us(&lats, 0.99),
        };
        eprintln!(
            "  pipelining depth {depth}: {:.0} ops/s p50 {:.1}ms",
            point.throughput_ops_per_sec,
            point.p50_us / 1000.0
        );
        points.push(point);
    }
    points
}

// ---------------------------------------------------------------------
// Summary + verification
// ---------------------------------------------------------------------

fn arm_summary(points: &[LoadPoint], arm: &str) -> ArmSummary {
    let mine: Vec<&LoadPoint> = points.iter().filter(|p| p.arm == arm).collect();
    let peak = mine
        .iter()
        .map(|p| p.goodput_ops_per_sec)
        .fold(0.0f64, f64::max);
    let at_max = mine
        .iter()
        .max_by(|a, b| a.offered_multiplier.total_cmp(&b.offered_multiplier))
        .map(|p| p.goodput_ops_per_sec)
        .unwrap_or(0.0);
    ArmSummary {
        peak_goodput_ops_per_sec: peak,
        goodput_at_max_load_ops_per_sec: at_max,
        frac_of_peak_at_max_load: if peak > 0.0 { at_max / peak } else { 0.0 },
    }
}

fn verify_report(report: &Report) -> std::result::Result<(), String> {
    if report.load_curve.is_empty() {
        return Err("load_curve is empty".into());
    }
    for arm in ["adaptive", "fixed64"] {
        if !report.load_curve.iter().any(|p| p.arm == arm) {
            return Err(format!("missing load-curve arm {arm}"));
        }
    }
    let mut mults: Vec<u64> = report
        .load_curve
        .iter()
        .map(|p| (p.offered_multiplier * 100.0) as u64)
        .collect();
    mults.sort_unstable();
    mults.dedup();
    if mults.len() < 3 {
        return Err(format!("need >= 3 offered multipliers, got {mults:?}"));
    }
    for p in &report.load_curve {
        if !(p.goodput_ops_per_sec.is_finite() && p.realized_offered_ops_per_sec.is_finite()) {
            return Err(format!(
                "non-finite rates for {} @ {}x",
                p.arm, p.offered_multiplier
            ));
        }
        if p.ok + p.err_deadline + p.err_unavailable + p.err_other == 0 {
            return Err(format!(
                "no ops ran for {} @ {}x",
                p.arm, p.offered_multiplier
            ));
        }
    }
    if report.pipelining.is_empty() {
        return Err("pipelining ablation is empty".into());
    }
    for p in &report.pipelining {
        if !(p.throughput_ops_per_sec.is_finite() && p.throughput_ops_per_sec > 0.0) {
            return Err(format!("pipelining depth {} has no throughput", p.depth));
        }
    }
    // The load gate: past the knee (offered >= capacity) the adaptive
    // arm must not collapse below half its own peak goodput.
    let adaptive: Vec<&LoadPoint> = report
        .load_curve
        .iter()
        .filter(|p| p.arm == "adaptive")
        .collect();
    let peak = adaptive
        .iter()
        .map(|p| p.goodput_ops_per_sec)
        .fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return Err("adaptive arm never achieved positive goodput".into());
    }
    for p in adaptive.iter().filter(|p| p.offered_multiplier >= 1.0) {
        if p.goodput_ops_per_sec < 0.5 * peak {
            return Err(format!(
                "adaptive goodput collapsed past the knee: {:.0}/s at {}x vs peak {:.0}/s",
                p.goodput_ops_per_sec, p.offered_multiplier, peak
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------

fn main() {
    let mut smoke = false;
    let mut seed = 42u64;
    let mut out = "BENCH_rpc.json".to_string();
    let mut verify_path: Option<String> = None;
    let mut server_bin: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().expect("--out PATH"),
            "--verify" => verify_path = Some(args.next().expect("--verify PATH")),
            "--server-bin" => server_bin = Some(args.next().expect("--server-bin PATH")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = verify_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let report: Report =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"));
        match verify_report(&report) {
            Ok(()) => {
                println!(
                    "{path}: OK (adaptive holds {:.0}% of peak at {}x offered load)",
                    100.0 * report.summary.adaptive.frac_of_peak_at_max_load,
                    report
                        .config
                        .offered_multipliers
                        .last()
                        .copied()
                        .unwrap_or(0.0)
                );
                return;
            }
            Err(msg) => {
                eprintln!("{path}: INVALID — {msg}");
                std::process::exit(1);
            }
        }
    }

    let capacity = (MEMBERS * DISPATCH_THREADS) as f64 / (RESPOND_LATENCY_US as f64 / 1_000_000.0);
    let cfg = RigConfig {
        members: MEMBERS,
        dispatch_threads: DISPATCH_THREADS,
        respond_latency_us: RESPOND_LATENCY_US,
        capacity_ops_per_sec: capacity,
        op_deadline_ms: OP_DEADLINE_MS,
        workers: if smoke { 96 } else { 320 },
        window_sec: if smoke { 1.2 } else { 3.0 },
        value_bytes: VALUE_BYTES,
        zipf_items: ZIPF_ITEMS,
        zipf_theta: ZIPF_THETA,
        offered_multipliers: if smoke {
            vec![0.5, 1.0, 2.0]
        } else {
            vec![0.25, 0.5, 1.0, 1.5, 2.0]
        },
        pipeline_depths: if smoke {
            vec![1, 8]
        } else {
            vec![1, 4, 16, 64]
        },
    };
    let pipe_window = if smoke { 0.8 } else { 2.0 };
    let mode = if server_bin.is_some() {
        "child"
    } else {
        "inproc"
    };
    eprintln!(
        "bench_rpc: mode={mode} capacity={capacity:.0} ops/s ({MEMBERS} members × \
         {DISPATCH_THREADS} worker ÷ {RESPOND_LATENCY_US}us), {} load workers",
        cfg.workers
    );

    let mut load_curve = Vec::new();
    let mut pipelining = Vec::new();
    for (arm_name, admission_flag) in [("adaptive", "adaptive"), ("fixed64", "fixed:64")] {
        eprintln!("arm {arm_name}:");
        let rig = match &server_bin {
            Some(bin) => Rig::child(bin, admission_flag),
            None => {
                let mut net_cfg = if arm_name == "adaptive" {
                    NetServerConfig::default()
                } else {
                    NetServerConfig::fixed(64)
                };
                net_cfg.dispatch_threads = DISPATCH_THREADS;
                Rig::in_proc(net_cfg)
            }
        };
        run_arm(arm_name, &rig, &cfg, seed, &mut load_curve);
        if arm_name == "adaptive" {
            pipelining = run_pipelining(&rig, &cfg, seed, pipe_window);
        }
    }

    let adaptive = arm_summary(&load_curve, "adaptive");
    let fixed = arm_summary(&load_curve, "fixed64");
    let ratio = if fixed.goodput_at_max_load_ops_per_sec > 0.0 {
        adaptive.goodput_at_max_load_ops_per_sec / fixed.goodput_at_max_load_ops_per_sec
    } else {
        f64::INFINITY
    };
    let report = Report {
        bench: "rpc".to_string(),
        seed,
        smoke,
        mode: mode.to_string(),
        config: cfg,
        load_curve,
        pipelining,
        summary: Summary {
            adaptive,
            fixed,
            adaptive_over_fixed_at_max_load: ratio,
        },
    };
    if let Err(msg) = verify_report(&report) {
        eprintln!("generated report failed self-check: {msg}");
        std::process::exit(1);
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!(
        "wrote {out}: adaptive {:.0}/s at max load ({:.0}% of peak), fixed64 {:.0}/s",
        report.summary.adaptive.goodput_at_max_load_ops_per_sec,
        100.0 * report.summary.adaptive.frac_of_peak_at_max_load,
        report.summary.fixed.goodput_at_max_load_ops_per_sec
    );
}
