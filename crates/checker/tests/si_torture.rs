//! SI torture runs: the seeded concurrent workload drives real
//! [`TabletServer`]s — clean, under injected DFS faults, across a
//! crash+recovery, and across cluster failover — and the history
//! checker must find **zero** anomalies. One mutation test flips
//! validation off and must see the resulting lost updates, proving the
//! checker actually detects what it claims to.
//!
//! Seeds come from `LOGBASE_CHECKER_SEED` (default 1); CI matrixes over
//! several. Failing runs serialize their full history to
//! `target/checker-failure-<label>-seed<seed>.json`.

use logbase::{HistoryRecorder, ServerConfig, TabletServer};
use logbase_checker::workload::{self, WorkloadConfig};
use logbase_checker::{assert_clean, check_recorded, seed_from_env, ViolationKind};
use logbase_cluster::{Cluster, ClusterConfig, EngineKind};
use logbase_common::schema::TableSchema;
use logbase_common::{Error, Record, RowKey, Timestamp, Value};
use logbase_coordination::{LockService, TimestampOracle};
use logbase_dfs::{Dfs, DfsConfig, FaultSpec, OpClass};
use logbase_wal::LogEntryKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TABLE: &str = "chk";

/// A single server with an externally-held oracle and lock service (so
/// tests can assert on them and survive a reopen).
fn single_server(
    dfs: &Dfs,
    name: &str,
    oracle: &TimestampOracle,
    locks: &LockService,
) -> Arc<TabletServer> {
    let server = TabletServer::create_with(
        dfs.clone(),
        ServerConfig::new(name).with_segment_bytes(8192),
        oracle.clone(),
        locks.clone(),
    )
    .unwrap();
    server
        .create_table(TableSchema::single_group(TABLE, &["v"]))
        .unwrap();
    server
}

/// Seed, record a workload run, and hand back (outcome, recorder).
fn recorded_run(
    server: &Arc<TabletServer>,
    cfg: &WorkloadConfig,
) -> (workload::WorkloadOutcome, Arc<HistoryRecorder>) {
    let route = workload::server_route(server);
    workload::seed_accounts(&route, cfg).unwrap();
    let recorder = Arc::new(HistoryRecorder::new());
    server.set_history_recorder(Some(Arc::clone(&recorder)));
    let outcome = workload::run(&route, cfg);
    server.set_history_recorder(None);
    (outcome, recorder)
}

/// Clean single-server run: every read matches a recorded commit, the
/// bank invariant holds, and commit releases every lock it took.
#[test]
fn clean_run_is_violation_free() {
    let seed = seed_from_env();
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let oracle = TimestampOracle::new();
    let locks = LockService::new();
    let server = single_server(&dfs, "srv", &oracle, &locks);

    let cfg = WorkloadConfig::new(seed);
    let (outcome, recorder) = recorded_run(&server, &cfg);
    assert!(outcome.committed > 0, "workload committed nothing");
    assert_eq!(outcome.errored, 0, "clean run must not error: {outcome:?}");

    let report = check_recorded(&recorder);
    assert!(report.stats.reads_checked > 0, "checker saw no reads");
    assert_clean("clean", seed, &recorder.events(), &report);

    let route = workload::server_route(&server);
    workload::verify_bank_invariant(&route, &cfg).unwrap();
    assert_eq!(locks.held_count(), 0, "commit leaked write locks");
}

/// Mutation test: with first-committer-wins validation disabled the
/// same workload must produce lost updates, and the checker must call
/// them out (G-single or first-committer-wins) with the offending
/// transaction ids. This is the proof the zero-violation runs above
/// mean something.
#[test]
fn disabled_validation_is_detected_as_lost_updates() {
    let seed = seed_from_env();
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let oracle = TimestampOracle::new();
    let locks = LockService::new();
    let server = single_server(&dfs, "srv", &oracle, &locks);

    // High contention so concurrent RMWs overlap constantly.
    let mut cfg = WorkloadConfig::new(seed);
    cfg.keys = 4;
    cfg.threads = 8;
    cfg.txns_per_thread = 40;
    cfg.theta = 0.9;

    server.set_validation_enabled_for_tests(false);
    let (outcome, recorder) = recorded_run(&server, &cfg);
    server.set_validation_enabled_for_tests(true);
    assert!(outcome.committed > 0);

    let report = check_recorded(&recorder);
    assert!(
        !report.is_clean(),
        "validation was off but the checker found nothing (seed {seed})"
    );
    assert!(
        report.violations.iter().any(|v| matches!(
            v.kind,
            ViolationKind::GSingle | ViolationKind::FirstCommitterWins
        )),
        "expected lost-update class violations, got {:#?}",
        report.violations
    );
    let offenders = report.offending_txns();
    assert!(
        !offenders.is_empty(),
        "violations must name the offending transactions"
    );
}

/// Injected transient DFS faults (append + read lanes on every node):
/// transactions may abort — some indeterminately — but no committed
/// history may violate SI, and the bank invariant must still hold.
#[test]
fn fault_injected_run_keeps_si() {
    let seed = seed_from_env();
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3).with_fault_seed(seed));
    let oracle = TimestampOracle::new();
    let locks = LockService::new();
    let server = single_server(&dfs, "srv", &oracle, &locks);

    let cfg = WorkloadConfig::new(seed);
    let route = workload::server_route(&server);
    // Seed before the faults go live so setup is deterministic.
    workload::seed_accounts(&route, &cfg).unwrap();
    for node in 0..3 {
        dfs.fault_injector()
            .set_spec(node, OpClass::Append, FaultSpec::transient(0.03));
        dfs.fault_injector()
            .set_spec(node, OpClass::Read, FaultSpec::transient(0.03));
    }

    let recorder = Arc::new(HistoryRecorder::new());
    server.set_history_recorder(Some(Arc::clone(&recorder)));
    let outcome = workload::run(&route, &cfg);
    server.set_history_recorder(None);
    assert!(outcome.committed > 0, "nothing survived the faults");

    // Quiesce the faults before the verification reads.
    for node in 0..3 {
        dfs.fault_injector()
            .set_spec(node, OpClass::Append, FaultSpec::transient(0.0));
        dfs.fault_injector()
            .set_spec(node, OpClass::Read, FaultSpec::transient(0.0));
    }

    let report = check_recorded(&recorder);
    assert_clean("faults", seed, &recorder.events(), &report);
    workload::verify_bank_invariant(&route, &cfg).unwrap();
    assert_eq!(locks.held_count(), 0, "aborts leaked write locks");
}

/// Crash mid-compaction between two workload phases. Recovery must (a)
/// keep every committed version visible, (b) keep a forged uncommitted
/// transactional write *invisible* (Guarantee 3), and (c) the combined
/// two-phase history must stay anomaly-free.
#[test]
fn crash_recovery_run_keeps_si() {
    let seed = seed_from_env();
    let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
    let oracle = TimestampOracle::new();
    let locks = LockService::new();
    let server = single_server(&dfs, "srv", &oracle, &locks);

    let mut cfg = WorkloadConfig::new(seed);
    cfg.threads = 6;
    cfg.txns_per_thread = 40;
    let (outcome1, recorder) = recorded_run(&server, &cfg);
    assert!(outcome1.committed > 0);

    // Forge an uncommitted transactional write: a Write log entry with
    // no commit record. Guarantee 3 says recovery must never surface it.
    let forged_key = workload::register_key(&cfg, 0);
    let forged_ts = Timestamp(oracle.current().0 + 1_000);
    server
        .log_for_tests()
        .append_all(vec![(
            TABLE.to_string(),
            LogEntryKind::Write {
                txn_id: u64::MAX,
                tablet: 0,
                record: Record::put(
                    RowKey::copy_from_slice(&forged_key),
                    0,
                    forged_ts,
                    Value::from_static(b"forged-uncommitted"),
                ),
            },
        )])
        .unwrap();

    // Crash inside compaction (right after the log rotation), then
    // recover from the DFS image alone.
    dfs.fault_injector()
        .arm_crash_point("compaction.after_rotate");
    match server.compact() {
        Err(Error::CrashPoint { site }) => assert_eq!(site, "compaction.after_rotate"),
        other => panic!("expected the armed crash point to fire, got {other:?}"),
    }
    drop(server);

    let recovered = TabletServer::open_with(
        dfs.clone(),
        ServerConfig::new("srv").with_segment_bytes(8192),
        oracle.clone(),
        locks.clone(),
    )
    .unwrap();

    // Guarantee 3: the forged write has no commit record, so it must
    // not be visible at any snapshot.
    let got = recovered.get(TABLE, 0, &forged_key).unwrap();
    assert_ne!(
        got.as_deref(),
        Some(&b"forged-uncommitted"[..]),
        "uncommitted write resurrected by recovery"
    );

    // Phase 2 on the recovered server, into the same recorder (the
    // baseline is already pinned by phase 1, so recovered versions are
    // checked against phase-1 commits, not grandfathered).
    let route = workload::server_route(&recovered);
    recovered.set_history_recorder(Some(Arc::clone(&recorder)));
    let outcome2 = workload::run(&route, &cfg);
    recovered.set_history_recorder(None);
    assert!(outcome2.committed > 0);

    let report = check_recorded(&recorder);
    assert_clean("crash-recover", seed, &recorder.events(), &report);
    workload::verify_bank_invariant(&route, &cfg).unwrap();
    assert_eq!(locks.held_count(), 0);
}

/// Kill a tablet server mid-workload and let lease expiry, log
/// splitting, and fencing move its tablets. The history recorded across
/// every member — before, during, and after the takeover — must stay
/// anomaly-free, and no acked balance may be lost.
#[test]
fn failover_run_keeps_si() {
    let seed = seed_from_env();
    let cluster = Arc::new(Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap());

    let mut cfg = WorkloadConfig::new(seed).with_key_domain(cluster.config().key_domain);
    cfg.table = cluster.config().table.clone();
    cfg.threads = 6;
    cfg.txns_per_thread = 50;

    // Route through the cluster's transport-selected client: in-process
    // by default, real TCP frames under `LOGBASE_TRANSPORT=tcp` — the
    // same workload tortures both wires.
    let client = cluster.client();
    if std::env::var("LOGBASE_TRANSPORT").as_deref() == Ok("tcp") {
        // CI's net-torture job must actually cross sockets.
        assert_eq!(client.transport_name(), "tcp");
    }
    let client_ref = &client;
    let route = move |key: &[u8]| {
        client_ref
            .endpoint_for(key)
            .ok()
            .map(|ep| Box::new(ep) as workload::Endpoint<'_>)
    };
    workload::seed_accounts(&route, &cfg).unwrap();

    // One shared recorder across every member: cluster-wide history.
    let recorder = Arc::new(HistoryRecorder::new());
    for i in 0..cluster.nodes() {
        if let Some(s) = cluster.logbase_server(i) {
            s.set_history_recorder(Some(Arc::clone(&recorder)));
        }
    }

    let victim = (seed % cluster.nodes() as u64) as usize;
    let done = Arc::new(AtomicBool::new(false));
    let driver = {
        let c = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut iters = 0u64;
            loop {
                c.heartbeat_all();
                c.tick(1);
                // Transient failover errors retry on the next tick (the
                // master re-queues the victim).
                let _ = c.run_failover();
                if iters == 3 {
                    c.kill_server(victim);
                }
                iters += 1;
                if done.load(Ordering::Relaxed) && iters > 3 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            // Drive the takeover to completion.
            for _ in 0..10_000 {
                if c.pending_failovers() == 0
                    && !c.routes().iter().any(|r| r.member == victim as u32)
                {
                    return;
                }
                c.heartbeat_all();
                c.tick(1);
                let _ = c.run_failover();
            }
            panic!("failover of member {victim} never completed");
        })
    };

    let outcome = workload::run(&route, &cfg);
    done.store(true, Ordering::Relaxed);
    driver.join().unwrap();
    assert!(outcome.committed > 0, "nothing survived the failover");

    for i in 0..cluster.nodes() {
        if let Some(s) = cluster.logbase_server(i) {
            s.set_history_recorder(None);
        }
    }

    let report = check_recorded(&recorder);
    assert_clean("failover", seed, &recorder.events(), &report);
    // Every account now lives on a survivor; the money must all be
    // there.
    workload::verify_bank_invariant(&route, &cfg).unwrap();
}

/// The timestamp oracle must stay strictly monotone per client and
/// globally collision-free while the master fails over under load
/// (commit timestamps are the backbone of every SI argument above).
#[test]
fn oracle_monotone_across_master_failover() {
    let seed = seed_from_env();
    let cluster = Arc::new(Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap());
    let domain = cluster.config().key_domain;
    let before = cluster.registry().active_master();

    const WRITERS: u64 = 4;
    const PUTS: u64 = 60;
    let stride = domain / (WRITERS * PUTS + 1);

    let done = Arc::new(AtomicBool::new(false));
    let driver = {
        let c = Arc::clone(&cluster);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut iters = 0u64;
            while !done.load(Ordering::Relaxed) || iters <= 3 {
                c.heartbeat_all();
                c.tick(1);
                let _ = c.run_failover();
                if iters == 3 {
                    // The active master goes silent; the standby's lease
                    // machinery must take over without disturbing
                    // timestamp order.
                    c.pause_master(0);
                }
                iters += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let c = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let mut issued = Vec::with_capacity(PUTS as usize);
                for j in 0..PUTS {
                    let g = w * PUTS + j + seed % 7;
                    let ts = c
                        .client()
                        .put(
                            0,
                            logbase_workload::encode_key((g % (WRITERS * PUTS)) * stride),
                            Value::from(format!("w{w}-{j}").into_bytes()),
                        )
                        .unwrap();
                    issued.push(ts.0);
                }
                issued
            })
        })
        .collect();

    let per_thread: Vec<Vec<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    done.store(true, Ordering::Relaxed);
    driver.join().unwrap();

    let mut all = std::collections::HashSet::new();
    for (w, issued) in per_thread.iter().enumerate() {
        for pair in issued.windows(2) {
            assert!(
                pair[1] > pair[0],
                "writer {w}: commit timestamps went backwards ({} then {})",
                pair[0],
                pair[1]
            );
        }
        for ts in issued {
            assert!(all.insert(*ts), "commit timestamp {ts} issued twice");
        }
    }
    assert_eq!(all.len(), (WRITERS * PUTS) as usize);

    let after = cluster.registry().active_master();
    assert_ne!(
        before.as_ref().map(|(id, _)| *id),
        after.as_ref().map(|(id, _)| *id),
        "master never failed over (before {before:?}, after {after:?})"
    );
}

/// Tentpole regression: the background compaction scheduler (rate-
/// limited, with periodic log GC) runs continuously *while* the
/// concurrent transaction workload executes. Snapshot isolation must
/// stay anomaly-free, the bank invariant must hold, and foreground
/// point reads must keep a sane p99 — compaction yields via the token
/// bucket instead of starving the read path.
#[test]
fn compaction_interference_stays_clean_and_bounded() {
    let seed = seed_from_env();
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let oracle = TimestampOracle::new();
    let locks = LockService::new();
    let server = single_server(&dfs, "srv", &oracle, &locks);
    // Cap bulk maintenance traffic well below what the in-memory DFS
    // can serve, so the scheduler genuinely has to wait for tokens.
    server.set_maintenance_rate(Some(64 * 1024));

    let cfg = WorkloadConfig::new(seed);
    let route = workload::server_route(&server);
    workload::seed_accounts(&route, &cfg).unwrap();
    let recorder = Arc::new(HistoryRecorder::new());
    server.set_history_recorder(Some(Arc::clone(&recorder)));

    // Drive the scheduler in a tight loop for the whole workload run —
    // far more aggressive than a production interval, to maximize
    // interference.
    let stop = Arc::new(AtomicBool::new(false));
    let scheduler_thread = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let sched = logbase::CompactionScheduler::new(logbase::CompactionSchedulerConfig {
                gc_every: 5,
                gc_live_fraction: 1.0,
                ..Default::default()
            });
            let mut ticks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                sched.tick(&server).expect("scheduled maintenance failed");
                ticks += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            ticks
        })
    };

    let outcome = workload::run(&route, &cfg);

    // Foreground point-read latencies with compaction still churning.
    let mut latencies = Vec::with_capacity(200);
    for i in 0..200u64 {
        let key = workload::account_key(&cfg, i % cfg.keys);
        let ep = route(&key).unwrap();
        let start = std::time::Instant::now();
        ep.get(TABLE, 0, &key).unwrap();
        latencies.push(start.elapsed());
    }

    stop.store(true, Ordering::Relaxed);
    let ticks = scheduler_thread.join().unwrap();
    server.set_history_recorder(None);

    assert!(outcome.committed > 0, "workload committed nothing");
    assert_eq!(outcome.errored, 0, "interference run errored: {outcome:?}");
    assert!(ticks > 0, "scheduler never ticked");
    let snap = server.metrics().snapshot();
    assert!(snap.compactions > 0, "scheduler never compacted: {snap:?}");
    assert!(
        snap.compaction_throttle_waits > 0,
        "rate limiter never engaged: {snap:?}"
    );

    // SI stayed clean under continuous background maintenance.
    let report = check_recorded(&recorder);
    assert!(report.stats.reads_checked > 0, "checker saw no reads");
    assert_clean("compaction-interference", seed, &recorder.events(), &report);
    workload::verify_bank_invariant(&route, &cfg).unwrap();

    // Generous p99 bound: an in-memory get is microseconds; only a
    // compaction monopolizing the server could push it past this.
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(
        p99 < Duration::from_millis(250),
        "foreground p99 {p99:?} under background compaction"
    );
    assert!(server.fsck().is_empty());
}
