//! `logbase-server` — bring up a LogBase cluster and serve it over TCP.
//!
//! One process hosts `--nodes` tablet-server members over a shared
//! in-memory DFS (the paper's testbed collapsed into one machine), each
//! member answering the length-prefixed CRC-framed RPC protocol on its
//! own loopback port. Lease heartbeats, the logical lease clock, and
//! master failover run on a background thread, so killing a member
//! through the fault hooks exercises the real takeover path.
//!
//! ```text
//! logbase-server [--nodes N] [--table NAME] [--port-file PATH]
//!                [--fault-seed SEED] [--admission adaptive|fixed:N]
//!                [--dispatch-threads K] [--respond-latency-us U]
//! ```
//!
//! `--admission adaptive` (the default) runs the AIMD concurrency
//! limiter; `--admission fixed:N` pins a static limit of `N` and
//! disables mid-queue expired-request drops — the pre-admission-control
//! ablation arm the load harness compares against. `--dispatch-threads`
//! sizes the worker pool and `--respond-latency-us` injects per-request
//! service latency, giving benchmarks a host-independent capacity knob.
//!
//! Member addresses are printed to stdout (`member 0 127.0.0.1:PORT`)
//! and, with `--port-file`, written one-per-line to a file the client's
//! `--addrs @PATH` form reads back.

use logbase_cluster::{Cluster, ClusterConfig, EngineKind, NetServerConfig};
use logbase_dfs::{NetFaultSpec, NetOp};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: logbase-server [--nodes N] [--table NAME] [--port-file PATH] \
         [--fault-seed SEED] [--admission adaptive|fixed:N] \
         [--dispatch-threads K] [--respond-latency-us U]"
    );
    std::process::exit(2);
}

fn main() {
    let mut nodes = 3usize;
    let mut table = "usertable".to_string();
    let mut port_file: Option<String> = None;
    let mut fault_seed = 0u64;
    let mut net_config = NetServerConfig::default();
    let mut respond_latency_us = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--nodes" => nodes = val("--nodes").parse().unwrap_or_else(|_| usage()),
            "--table" => table = val("--table"),
            "--port-file" => port_file = Some(val("--port-file")),
            "--fault-seed" => fault_seed = val("--fault-seed").parse().unwrap_or_else(|_| usage()),
            "--admission" => {
                let v = val("--admission");
                if v == "adaptive" {
                    net_config.admission = logbase_cluster::net::AdmissionMode::Adaptive(
                        logbase_cluster::net::AdaptiveConfig::default(),
                    );
                    net_config.drop_expired = true;
                } else if let Some(n) = v.strip_prefix("fixed:") {
                    let n: usize = n.parse().unwrap_or_else(|_| usage());
                    let threads = net_config.dispatch_threads;
                    net_config = NetServerConfig::fixed(n);
                    net_config.dispatch_threads = threads;
                } else {
                    usage();
                }
            }
            "--dispatch-threads" => {
                net_config.dispatch_threads = val("--dispatch-threads")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--respond-latency-us" => {
                respond_latency_us = val("--respond-latency-us")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    let mut config = ClusterConfig::new(nodes, EngineKind::LogBase);
    config.table = table;
    if fault_seed != 0 {
        config = config.with_dfs_fault_seed(fault_seed);
    }
    let mut cluster = Cluster::create(config).expect("cluster bring-up");
    if respond_latency_us > 0 {
        // Injected per-response service latency: a host-independent
        // capacity knob (capacity ≈ dispatch_threads / latency) so load
        // harness results do not depend on how fast the box is. Only the
        // respond lane is armed — accepts stay fast so reconnect churn
        // under overload is not artificially throttled.
        for m in 0..nodes as u32 {
            cluster.dfs().fault_injector().set_net_spec_for(
                m,
                NetOp::Respond,
                NetFaultSpec {
                    fixed_latency: Some(Duration::from_micros(respond_latency_us)),
                    ..NetFaultSpec::default()
                },
            );
        }
    }
    let net = cluster.start_net(net_config).expect("bind TCP listeners");

    let addrs = net.addrs();
    for (m, addr) in addrs.iter().enumerate() {
        println!("member {m} {addr}");
    }
    if let Some(path) = port_file {
        let listing: String = addrs.iter().map(|a| format!("{a}\n")).collect();
        std::fs::write(&path, listing).expect("write port file");
        println!("addresses written to {path}");
    }

    // Real-time lease/failover machinery: one logical tick per 50ms.
    cluster.enable_wallclock_failover(Duration::from_millis(50));
    println!(
        "serving; lease TTL {} ticks @ 50ms/tick",
        cluster.config().lease_ttl_ticks
    );

    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
