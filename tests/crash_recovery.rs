//! Crash-recovery torture: for every registered maintenance crash
//! point, kill the server at that exact site, recover from the DFS
//! image alone, and assert (a) every acknowledged write reads back
//! bit-for-bit and (b) the DFS holds zero unreferenced files.
//!
//! The crash model: an armed [`logbase_dfs::FaultInjector`] crash
//! point makes the instrumented call return `Error::CrashPoint`, which
//! propagates out of the maintenance path with **no cleanup** — then
//! the test drops the server. Whatever the DFS holds at that moment is
//! the crash image recovery must cope with.

use logbase::{
    crash_sites, CompactionConfig, LogGcConfig, ServerConfig, SpillConfig, TabletServer,
};
use logbase_common::schema::TableSchema;
use logbase_common::{Error, Timestamp, Value};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_workload::encode_key;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One acknowledged write: (key, commit timestamp, value).
type Acked = (u64, u64, Vec<u8>);

/// Uniform signatures for the maintenance ops the torture loops drive.
type MaintenanceOp = fn(&TabletServer) -> Result<(), Error>;

fn run_compact(s: &TabletServer) -> Result<(), Error> {
    s.compact().map(|_| ())
}

/// Compaction with key/value separation on: large values stay in their
/// log segment (retained as a blob segment) and only keys/small values
/// are rewritten — the `compaction.kv_split` path with a non-empty
/// separated set.
fn run_compact_separated(s: &TabletServer) -> Result<(), Error> {
    s.compact_with(&CompactionConfig {
        value_threshold: Some(SEPARATION_THRESHOLD),
        ..CompactionConfig::default()
    })
    .map(|_| ())
}

fn run_checkpoint(s: &TabletServer) -> Result<(), Error> {
    s.checkpoint().map(|_| ())
}

/// Value-log GC. Writes enough filler (outside every workload key
/// space) to force a segment rotation, so the reclaim pass always has
/// a sealed segment to chew on and `wal.gc.reclaim` reliably fires.
fn run_log_gc(s: &TabletServer) -> Result<(), Error> {
    static FILLER_KEY: AtomicU64 = AtomicU64::new(9_000_000);
    let filler = Value::from(vec![b'f'; 512]);
    for _ in 0..12 {
        let k = FILLER_KEY.fetch_add(1, Ordering::Relaxed);
        s.put("t", 0, encode_key(k), filler.clone())?;
    }
    s.log_gc_with(&LogGcConfig {
        live_fraction: 1.0,
        max_segments: usize::MAX,
        max_versions: None,
    })
    .map(|_| ())
}

/// Values at least this long are separated by [`run_compact_separated`]
/// (the workload writes some values above and some below it).
const SEPARATION_THRESHOLD: usize = 256;

fn config(name: &str) -> ServerConfig {
    // Small segments so every round leaves multiple compaction inputs.
    ServerConfig::new(name).with_segment_bytes(4096)
}

fn new_server(dfs: &Dfs, name: &str) -> Arc<TabletServer> {
    let s = TabletServer::create(dfs.clone(), config(name)).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    s
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// CRC32 digest over a sorted acked-write ledger; the same ledger read
/// back through the recovered server must produce the same digest.
fn ledger_digest(ledger: &[Acked]) -> u32 {
    let mut h = crc32fast::Hasher::new();
    for (k, ts, v) in ledger {
        h.update(&k.to_be_bytes());
        h.update(&ts.to_be_bytes());
        h.update(v);
    }
    h.finalize()
}

/// Read every ledger version back from `server` and digest what came
/// out. Missing versions get a sentinel so loss always changes the
/// digest (and is also reported eagerly via the error).
fn recovered_digest(server: &TabletServer, ledger: &[Acked]) -> Result<u32, String> {
    let mut h = crc32fast::Hasher::new();
    for (k, ts, v) in ledger {
        h.update(&k.to_be_bytes());
        h.update(&ts.to_be_bytes());
        let got = server
            .get_at("t", 0, &encode_key(*k), Timestamp(*ts))
            .map_err(|e| format!("read of acked key {k}@{ts} failed: {e}"))?
            .ok_or_else(|| format!("acked write {k}@{ts} lost"))?;
        if got.as_ref() != &v[..] {
            return Err(format!("acked write {k}@{ts} corrupted"));
        }
        h.update(&got);
    }
    Ok(h.finalize())
}

/// The crash-image classes the startup GC must resolve, keyed by site.
/// Sites before the manifest write leave (at most) orphan files; sites
/// between the manifest and the embedded checkpoint's descriptor must
/// roll *back*; sites after the descriptor must roll *forward*. The
/// checkpoint sites fire inside the compaction-embedded checkpoint
/// (the maintenance loop runs `compact` first), so they land in the
/// manifest window too.
fn expected_outcome(site: &str) -> (bool, bool) {
    let rolled_back = [
        "compaction.after_manifest",
        "checkpoint.begin",
        "checkpoint.mid_index_files",
        "checkpoint.before_meta",
    ];
    let resumed = [
        "checkpoint.after_meta",
        "checkpoint.before_prune",
        "compaction.after_checkpoint",
        "compaction.mid_delete",
        "compaction.before_manifest_remove",
        // Fires between the reclaim compaction's commit checkpoint and
        // its input deletions.
        "wal.gc.reclaim",
    ];
    (resumed.contains(&site), rolled_back.contains(&site))
}

/// Run a workload, crash at `site`, recover, verify. Returns a
/// description of the first violation, if any.
fn crash_at_site(site: &str, seed: u64) -> Result<(), String> {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
    let server = new_server(&dfs, "srv");
    let mut ledger: Vec<Acked> = Vec::new();
    let put = |server: &TabletServer, ledger: &mut Vec<Acked>, i: u64, tag: &str| {
        // Every third value is large enough to be separated by
        // `run_compact_separated`, so the digest also proves separated
        // blob values survive bit-for-bit.
        let mut v = format!("{tag}-{i}-{}", splitmix64(seed ^ i));
        if i % 3 == 0 {
            v.push('/');
            v.push_str(&"X".repeat(SEPARATION_THRESHOLD + 64));
        }
        let ts = server
            .put("t", 0, encode_key(i), Value::from(v.clone().into_bytes()))
            .unwrap();
        ledger.push((i, ts.0, v.into_bytes()));
    };

    // Seed phase: one complete compaction (so a sorted generation and a
    // checkpoint exist), then more writes so the armed round has log
    // input, sorted input, and something live to rewrite.
    for i in 0..40 {
        put(&server, &mut ledger, i, "seed");
    }
    server.compact().map_err(|e| format!("seed compact: {e}"))?;
    for i in 40..80 {
        put(&server, &mut ledger, i, "pre");
    }

    dfs.fault_injector().arm_crash_point(site);
    let mut fired = false;
    let mut next_key = 80u64;
    'rounds: for _ in 0..4 {
        for _ in 0..8 {
            put(&server, &mut ledger, next_key, "mid");
            next_key += 1;
        }
        for maintenance in [
            run_compact_separated as MaintenanceOp,
            run_checkpoint,
            run_log_gc,
        ] {
            match maintenance(&server) {
                Ok(()) => {}
                Err(Error::CrashPoint { site: s }) if s == site => {
                    fired = true;
                    break 'rounds;
                }
                Err(e) => return Err(format!("unexpected maintenance error: {e}")),
            }
        }
    }
    if !fired {
        return Err("armed site never fired (dead instrumentation?)".into());
    }

    // The process is dead; only the DFS survives.
    drop(server);
    let recovered =
        TabletServer::open(dfs.clone(), config("srv")).map_err(|e| format!("recovery: {e}"))?;

    let expect = ledger_digest(&ledger);
    let got = recovered_digest(&recovered, &ledger)?;
    if expect != got {
        return Err(format!(
            "acked-write digest mismatch: {expect:08x} != {got:08x}"
        ));
    }
    let unreachable = recovered.fsck();
    if !unreachable.is_empty() {
        return Err(format!(
            "unreferenced DFS files after recovery: {unreachable:?}"
        ));
    }
    let snap = dfs.metrics().snapshot();
    if snap.crash_sites_hit == 0 {
        return Err("crash_sites_hit metric not incremented".into());
    }
    let report = recovered.startup_gc_report();
    let (want_resumed, want_rolled_back) = expected_outcome(site);
    if want_resumed && !report.maintenance_resumed {
        return Err(format!("expected roll-forward, got {report:?}"));
    }
    if want_rolled_back && !report.maintenance_rolled_back {
        return Err(format!("expected roll-back, got {report:?}"));
    }
    if report.maintenance_resumed && snap.maintenance_resumed == 0 {
        return Err("maintenance_resumed metric not incremented".into());
    }

    // The recovered server is fully operational: it can run the same
    // maintenance to completion and take new writes.
    put(&recovered, &mut ledger, next_key, "post");
    recovered
        .compact()
        .map_err(|e| format!("post-recovery compact: {e}"))?;
    if recovered_digest(&recovered, &ledger)? != ledger_digest(&ledger) {
        return Err("post-recovery compact corrupted acked writes".into());
    }
    Ok(())
}

/// Seeds: `LOGBASE_CRASH_SEED` pins one (CI matrix), default a fixed
/// local pair.
fn crash_seeds() -> Vec<u64> {
    match std::env::var("LOGBASE_CRASH_SEED") {
        Ok(s) => vec![s.parse().expect("LOGBASE_CRASH_SEED must be a u64")],
        Err(_) => vec![42, 7],
    }
}

/// On failure, record the (site, seed) pair where CI's artifact upload
/// can find it, then panic with the same message.
fn fail_matrix(site: &str, seed: u64, msg: &str) -> ! {
    let body = format!("site={site}\nseed={seed}\n{msg}\n");
    let _ = std::fs::write("../../target/crash-matrix-failure.txt", &body);
    panic!("crash matrix failed at site {site}, seed {seed}: {msg}");
}

#[test]
fn crash_matrix_every_maintenance_site_recovers_exactly() {
    for seed in crash_seeds() {
        for site in crash_sites::maintenance() {
            if let Err(msg) = crash_at_site(site, seed) {
                fail_matrix(site, seed, &msg);
            }
        }
    }
}

#[test]
fn recording_mode_traverses_every_registered_site() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
    dfs.fault_injector().record_crash_points(true);
    let spill = SpillConfig {
        mem_budget_bytes: 600,
        lsm_write_buffer_bytes: 1 << 20,
    };
    let server =
        TabletServer::create(dfs.clone(), config("srv").with_spill(spill.clone())).unwrap();
    server
        .create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    for i in 0..120u64 {
        server
            .put(
                "t",
                0,
                encode_key(i),
                Value::from(format!("v{i}").into_bytes()),
            )
            .unwrap();
    }
    server.compact().unwrap();
    server.checkpoint().unwrap();
    // Rotate the log (bulky writes past the 4 KiB segment threshold)
    // so the GC pass has sealed input and its reclaim site fires.
    for i in 200..400u64 {
        server
            .put("t", 0, encode_key(i), Value::from(vec![b'g'; 64]))
            .unwrap();
    }
    server
        .log_gc_with(&LogGcConfig {
            live_fraction: 1.0,
            max_segments: usize::MAX,
            max_versions: None,
        })
        .unwrap();
    let seen = dfs.fault_injector().crash_points_seen();
    for site in crash_sites::COMPACTION
        .iter()
        .chain(crash_sites::CHECKPOINT)
        .chain(crash_sites::SPILL)
        .chain(crash_sites::LOG_GC)
    {
        assert!(
            seen.iter().any(|s| s == site),
            "registered site {site} was never traversed — the const list \
             and the instrumentation have drifted apart (seen: {seen:?})"
        );
    }
    dfs.fault_injector().record_crash_points(false);
}

#[test]
fn spill_crash_mid_merge_out_loses_no_acked_writes() {
    for site in crash_sites::SPILL {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let spill = SpillConfig {
            mem_budget_bytes: 600,
            lsm_write_buffer_bytes: 1 << 20,
        };
        let server =
            TabletServer::create(dfs.clone(), config("srv").with_spill(spill.clone())).unwrap();
        server
            .create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        dfs.fault_injector().arm_crash_point(site);
        let mut ledger: Vec<Acked> = Vec::new();
        let mut crashed = false;
        for i in 0..400u64 {
            let v = format!("v{i}");
            match server.put("t", 0, encode_key(i), Value::from(v.clone().into_bytes())) {
                Ok(ts) => ledger.push((i, ts.0, v.into_bytes())),
                Err(Error::CrashPoint { site: s }) => {
                    assert_eq!(&s, site);
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected put error: {e}"),
            }
        }
        assert!(crashed, "{site} never fired under spill pressure");
        drop(server);
        // Acked writes precede their index update in the log, so even a
        // crash inside the index merge-out loses nothing: redo rebuilds.
        let recovered = TabletServer::open(dfs.clone(), config("srv").with_spill(spill)).unwrap();
        assert_eq!(
            recovered_digest(&recovered, &ledger).unwrap(),
            ledger_digest(&ledger),
            "spill crash at {site} lost acked writes"
        );
        assert!(recovered.fsck().is_empty());
    }
}

/// Property, multi-seed: crash during *concurrent* put + compact +
/// checkpoint traffic, at a seed-chosen site and traversal count, still
/// preserves the acked digest.
#[test]
fn concurrent_crash_recovery_preserves_acked_digest_across_seeds() {
    for seed in crash_seeds() {
        concurrent_run(seed);
    }
}

fn concurrent_run(seed: u64) {
    const WRITERS: u64 = 3;
    let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
    let server = new_server(&dfs, "srv");
    let ledger: Arc<Mutex<Vec<Acked>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));

    let sites = crash_sites::maintenance();
    let site = sites[(splitmix64(seed) % sites.len() as u64) as usize];
    let nth = 1 + splitmix64(seed.wrapping_mul(3)) % 3;
    dfs.fault_injector().arm_crash_point_at(site, nth);

    // Writers: disjoint key spaces, unique values, ledger records only
    // acknowledged puts.
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let server = Arc::clone(&server);
            let ledger = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut j = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = w * 1_000_000 + j;
                    let v = format!("w{w}-{j}-{seed}");
                    let ts = server
                        .put("t", 0, encode_key(key), Value::from(v.clone().into_bytes()))
                        .unwrap();
                    ledger.lock().unwrap().push((key, ts.0, v.into_bytes()));
                    j += 1;
                }
            })
        })
        .collect();

    // Maintenance thread: alternate compaction and checkpoint until the
    // armed site kills it.
    let crashed = Arc::new(AtomicU64::new(0));
    let maintenance = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let crashed = Arc::clone(&crashed);
        let site = site.to_string();
        std::thread::spawn(move || {
            for round in 0..200 {
                for op in [run_compact as MaintenanceOp, run_checkpoint, run_log_gc] {
                    match op(&server) {
                        Ok(()) => {}
                        Err(Error::CrashPoint { site: s }) => {
                            assert_eq!(s, site);
                            crashed.store(1, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                        Err(e) => panic!("unexpected maintenance error: {e}"),
                    }
                }
                if round >= 2 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            stop.store(true, Ordering::Relaxed);
        })
    };
    maintenance.join().unwrap();
    for h in writers {
        h.join().unwrap();
    }
    assert_eq!(
        crashed.load(Ordering::Relaxed),
        1,
        "seed {seed}: site {site} (hit {nth}) never fired"
    );

    drop(server);
    let recovered = TabletServer::open(dfs.clone(), config("srv")).unwrap();
    let mut ledger = Arc::try_unwrap(ledger).unwrap().into_inner().unwrap();
    ledger.sort();
    assert_eq!(
        recovered_digest(&recovered, &ledger).unwrap(),
        ledger_digest(&ledger),
        "seed {seed}: acked digest diverged after crash at {site}"
    );
    assert!(
        recovered.fsck().is_empty(),
        "seed {seed}: unreferenced files after crash at {site}"
    );
}

mod failover {
    use super::*;
    use logbase_cluster::{Cluster, ClusterConfig, EngineKind, FAILOVER_CRASH_SITES};
    use logbase_common::RowKey;

    fn expire_lapsed(c: &Cluster) -> usize {
        let mut expired = 0;
        for _ in 0..c.config().lease_ttl_ticks {
            c.heartbeat_all();
            expired += c.tick(1);
        }
        expired
    }

    /// A master crash at any takeover site leaves the victim queued;
    /// the retry completes without assigning duplicate tablets, and
    /// every acked write survives.
    #[test]
    fn failover_takeover_resumes_after_crash_without_duplicates() {
        for site in FAILOVER_CRASH_SITES {
            let c = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap();
            let domain = c.config().key_domain;
            let keys: Vec<RowKey> = (0..60u64).map(|i| encode_key(i * (domain / 60))).collect();
            for (i, key) in keys.iter().enumerate() {
                c.client()
                    .put(0, key.clone(), Value::from(format!("v{i}").into_bytes()))
                    .unwrap();
            }
            c.kill_server(2);
            assert_eq!(expire_lapsed(&c), 1);
            assert_eq!(c.pending_failovers(), 1);

            c.dfs().fault_injector().arm_crash_point(site);
            let err = c.run_failover().unwrap_err();
            assert!(
                matches!(err, Error::CrashPoint { .. }),
                "expected injected crash, got {err}"
            );
            assert_eq!(
                c.pending_failovers(),
                1,
                "{site}: victim must stay queued after a crashed takeover"
            );

            // Retry (new master incarnation) completes the same takeover.
            c.run_failover().unwrap();
            assert_eq!(c.pending_failovers(), 0);
            for (i, key) in keys.iter().enumerate() {
                let got = c.client().get(0, key).unwrap().unwrap_or_else(|| {
                    panic!("{site}: acked key {i} lost across crashed takeover")
                });
                assert_eq!(got.as_ref(), format!("v{i}").as_bytes());
            }
            // No duplicate tablets: each surviving server covers each of
            // its ranges exactly once.
            for i in 0..2 {
                let Some(server) = c.logbase_server(i) else {
                    continue;
                };
                let descs = server.tablet_descs(&c.config().table);
                for d in &descs {
                    assert_eq!(
                        descs.iter().filter(|o| o.range == d.range).count(),
                        1,
                        "{site}: duplicate tablet for {:?} on server {i}",
                        d.range
                    );
                }
            }
        }
    }
}
