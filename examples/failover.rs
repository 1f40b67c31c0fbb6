//! Automated tablet-server failover (§3.8).
//!
//! Demonstrates the whole lease/failover pipeline: every member holds a
//! heartbeat lease; a killed server misses its TTL; the master seals
//! its log, splits it among survivors by key range, rebuilds only the
//! tail past the last checkpoint, and atomically swaps the routing
//! table. A paused "zombie" that comes back is fenced by epoch: its
//! writes fail permanently.
//!
//! Run with: `cargo run --example failover`

use logbase_cluster::{ClientConfig, Cluster, ClusterConfig, EngineKind, InProcessTransport};
use logbase_common::{Error, RetryPolicy, Value};
use logbase_workload::encode_key;
use std::sync::Arc;

fn main() -> logbase_common::Result<()> {
    let cluster = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase))?;
    let domain = cluster.config().key_domain;
    let ttl = cluster.config().lease_ttl_ticks;
    // The cluster's client rides through failover on retries.
    let client = cluster.client();

    // Load some data, checkpoint member 1 so its takeover only redoes
    // the log tail, then write a bit more.
    for i in 0..90u64 {
        client.put(
            0,
            encode_key(i * (domain / 90)),
            Value::from_static(b"durable"),
        )?;
    }
    cluster.logbase_server(1).unwrap().checkpoint()?;
    for i in 0..90u64 {
        client.put(
            0,
            encode_key(i * (domain / 90) + 1),
            Value::from_static(b"tail"),
        )?;
    }

    // Keep a zombie handle to member 1, then kill its heartbeats.
    let zombie = cluster.pause_server(1).unwrap();
    println!("member 1 partitioned; lease TTL is {ttl} ticks");

    // The lease machinery: survivors heartbeat, the clock ticks.
    for _ in 0..ttl {
        cluster.heartbeat_all();
        cluster.tick(1);
    }

    // The ownership gap is open: reads of member 1's keys fail
    // retriably instead of returning possibly-stale data. A
    // single-attempt client shows what each try is answered.
    let single_shot = cluster.client_with(
        Arc::new(InProcessTransport::new(Arc::clone(cluster.service()))),
        ClientConfig {
            retry: RetryPolicy::new(1),
            ..ClientConfig::default()
        },
    );
    let mid = encode_key(domain / 2);
    match single_shot.get(0, &mid) {
        Err(Error::Unavailable(_)) => println!("gap open: reads return Unavailable"),
        other => println!("unexpected: {other:?}"),
    }

    // The master runs the §3.8 recipe.
    for report in cluster.run_failover()? {
        println!(
            "failed over {}: {} tablet(s) reassigned, {} log bytes redone, {} records recovered",
            report.victim,
            report.tablets_reassigned,
            report.log_bytes_redone,
            report.records_recovered
        );
    }

    // All acked writes survive, reads are served by the survivors.
    for i in 0..90u64 {
        assert_eq!(
            client.get(0, &encode_key(i * (domain / 90)))?,
            Some(Value::from_static(b"durable"))
        );
        assert_eq!(
            client.get(0, &encode_key(i * (domain / 90) + 1))?,
            Some(Value::from_static(b"tail"))
        );
    }
    println!("all 180 acked writes readable after takeover");

    // The zombie wakes up and tries to write: fenced, permanently.
    match zombie.put("usertable", 0, mid, Value::from_static(b"stale")) {
        Err(e @ Error::Fenced { .. }) => {
            println!(
                "zombie write rejected: {e} (retriable: {})",
                e.is_retriable()
            );
        }
        other => println!("unexpected: {other:?}"),
    }

    let m = cluster.metrics().snapshot();
    println!(
        "metrics: lease_expirations={} tablets_reassigned={} failover_log_bytes_redone={} fenced_writes_rejected={}",
        m.lease_expirations, m.tablets_reassigned, m.failover_log_bytes_redone, m.fenced_writes_rejected
    );
    println!(
        "rpc ({}): requests={} retries={} timeouts={} shed={} route_invalidations={}",
        client.transport_name(),
        m.rpc_requests,
        m.rpc_retries,
        m.rpc_timeouts,
        m.connections_shed,
        m.routing_cache_invalidations
    );
    Ok(())
}
