//! Compaction write-amplification ablation (`BENCH_compaction.json`).
//!
//! Sweeps the full arm matrix **policy × value size × key/value
//! separation** — three merge policies (size-tiered, lazy-leveling,
//! online merge), small (128 B) and large (4 KiB) values, separation
//! off and on — over an identical deterministic overwrite workload.
//! Each arm drives the real [`logbase::CompactionScheduler`] tick loop
//! (the exact code the background thread runs), so the measured bytes
//! are what production compaction would move.
//!
//! Reported per arm: user bytes ingested, bytes compaction read and
//! wrote, **compaction write amplification** (compaction bytes written
//! per user byte), values separated, blob segments reclaimed by the
//! closing log-GC pass, and a read-back check over every key.
//!
//! `--verify` re-reads a report and fails unless, for every policy,
//! separation cuts compaction write amplification by **at least 2×**
//! on the 4 KiB arm — the "log as data" payoff the paper claims — and
//! leaves the 128 B arm unseparated (values below the threshold must
//! not be diverted).
//!
//! ```text
//! bench_compaction [--smoke] [--seed N] [--out PATH] [--verify PATH]
//! ```

use logbase::{
    CompactionScheduler, CompactionSchedulerConfig, LogGcConfig, ServerConfig, TabletServer,
};
use logbase_bench::splitmix;
use logbase_common::schema::TableSchema;
use logbase_common::{Result, Value};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_lsm::PolicyKind;
use logbase_workload::encode_key;
use serde::{Deserialize, Serialize};

const TABLE: &str = "usertable";
/// Values at or above this many bytes stay in the log when separation
/// is on. Sits between the two arm sizes so the 128 B arm never
/// separates and the 4 KiB arm always does.
const VALUE_THRESHOLD: usize = 256;
const VALUE_SIZES: &[usize] = &[128, 4096];

#[derive(Serialize, Deserialize)]
struct Report {
    bench: String,
    seed: u64,
    smoke: bool,
    value_threshold: usize,
    config: RunConfig,
    arms: Vec<Arm>,
}

#[derive(Serialize, Deserialize)]
struct RunConfig {
    keys: u64,
    rounds: usize,
    segment_bytes: u64,
}

#[derive(Serialize, Deserialize)]
struct Arm {
    policy: String,
    value_bytes: usize,
    separation: bool,
    /// Bytes of user values ingested over the whole run.
    user_bytes: u64,
    compaction_bytes_read: u64,
    compaction_bytes_written: u64,
    /// Compaction bytes written per user byte — the ablation's metric.
    compaction_write_amp: f64,
    compactions: u64,
    values_separated: u64,
    blob_segments_reclaimed: u64,
    scheduler_ticks: u64,
    /// Every key read back its latest value after the run.
    reads_ok: bool,
}

fn fill_byte(seed: u64, round: usize, key: u64) -> u8 {
    (splitmix(seed ^ splitmix(round as u64) ^ key) & 0xff) as u8
}

/// One arm: overwrite every key each round, tick the scheduler after
/// each round, close with a log-GC pass, then audit reads.
fn run_arm(
    cfg: &RunConfig,
    seed: u64,
    policy: PolicyKind,
    value_bytes: usize,
    separation: bool,
) -> Result<Arm> {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let server = TabletServer::create(
        dfs,
        ServerConfig::new("bench-compaction").with_segment_bytes(cfg.segment_bytes),
    )?;
    server.create_table(TableSchema::single_group(TABLE, &["v"]))?;

    let threshold = if separation {
        Some(VALUE_THRESHOLD)
    } else {
        None
    };
    let scheduler = CompactionScheduler::new(CompactionSchedulerConfig {
        policy,
        value_threshold: threshold,
        ..CompactionSchedulerConfig::default()
    });

    let before = server.metrics().snapshot();
    let mut user_bytes = 0u64;
    let mut ticks = 0u64;
    for round in 0..cfg.rounds {
        for k in 0..cfg.keys {
            let fill = fill_byte(seed, round, k);
            server.put(
                TABLE,
                0,
                encode_key(k),
                Value::from(vec![fill; value_bytes]),
            )?;
            user_bytes += value_bytes as u64;
        }
        scheduler.tick(&server)?;
        ticks += 1;
    }
    // Closing GC pass reclaims whatever blob segments went fully dead;
    // its rewrite traffic counts against the arm like any other
    // maintenance I/O.
    let gc = server.log_gc_with(&LogGcConfig {
        live_fraction: 0.5,
        ..LogGcConfig::default()
    })?;

    let mut reads_ok = true;
    for k in 0..cfg.keys {
        let want = fill_byte(seed, cfg.rounds - 1, k);
        match server.get(TABLE, 0, &encode_key(k))? {
            Some(v) if v.len() == value_bytes && v.first() == Some(&want) => {}
            got => {
                eprintln!("    read mismatch at key {k}: {:?}", got.map(|v| v.len()));
                reads_ok = false;
            }
        }
    }
    if !server.fsck().is_empty() {
        eprintln!("    fsck found orphans");
        reads_ok = false;
    }

    let d = server.metrics().snapshot().delta_since(&before);
    Ok(Arm {
        policy: policy.build().name().to_string(),
        value_bytes,
        separation,
        user_bytes,
        compaction_bytes_read: d.compaction_bytes_read,
        compaction_bytes_written: d.compaction_bytes_written,
        compaction_write_amp: d.compaction_bytes_written as f64 / user_bytes.max(1) as f64,
        compactions: d.compactions,
        values_separated: d.values_separated,
        blob_segments_reclaimed: gc.segments_reclaimed,
        scheduler_ticks: ticks,
        reads_ok,
    })
}

fn verify_report(report: &Report) -> std::result::Result<(), String> {
    let policies = ["size_tiered", "lazy_leveling", "online_merge"];
    let find = |policy: &str, size: usize, sep: bool| -> std::result::Result<&Arm, String> {
        report
            .arms
            .iter()
            .find(|a| a.policy == policy && a.value_bytes == size && a.separation == sep)
            .ok_or_else(|| format!("missing arm {policy}/{size}B/separation={sep}"))
    };
    for policy in policies {
        for &size in VALUE_SIZES {
            for sep in [false, true] {
                let arm = find(policy, size, sep)?;
                if !arm.reads_ok {
                    return Err(format!("{policy}/{size}B/sep={sep}: reads failed"));
                }
                if arm.compactions == 0 {
                    return Err(format!("{policy}/{size}B/sep={sep}: never compacted"));
                }
                if !arm.compaction_write_amp.is_finite() {
                    return Err(format!("{policy}/{size}B/sep={sep}: bad write amp"));
                }
            }
        }
        // Small values sit below the threshold: separation must be a
        // no-op there.
        let small_on = find(policy, 128, true)?;
        if small_on.values_separated != 0 {
            return Err(format!(
                "{policy}: separated {} values below the threshold",
                small_on.values_separated
            ));
        }
        // The headline claim: on 4 KiB values, separation cuts
        // compaction write amplification at least 2×.
        let big_off = find(policy, 4096, false)?;
        let big_on = find(policy, 4096, true)?;
        if big_on.values_separated == 0 {
            return Err(format!("{policy}: 4 KiB arm separated nothing"));
        }
        if big_on.compaction_write_amp * 2.0 > big_off.compaction_write_amp {
            return Err(format!(
                "{policy}: separation write amp {:.2} not ≥2x below {:.2}",
                big_on.compaction_write_amp, big_off.compaction_write_amp
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut smoke = false;
    let mut seed = 42u64;
    let mut out = "BENCH_compaction.json".to_string();
    let mut verify_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).expect("--seed N"),
            "--out" => out = args.next().expect("--out PATH"),
            "--verify" => verify_path = Some(args.next().expect("--verify PATH")),
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
                println!("{path}: OK ({} arms)", report.arms.len());
                return;
            }
            Err(msg) => {
                eprintln!("{path}: INVALID — {msg}");
                std::process::exit(1);
            }
        }
    }

    let cfg = RunConfig {
        keys: 48,
        rounds: if smoke { 8 } else { 24 },
        segment_bytes: 16 * 1024,
    };
    eprintln!(
        "compaction bench: seed={seed} smoke={smoke} keys={} rounds={}",
        cfg.keys, cfg.rounds
    );

    let mut arms = Vec::new();
    for policy in [
        PolicyKind::SizeTiered,
        PolicyKind::LazyLeveling,
        PolicyKind::OnlineMerge,
    ] {
        for &value_bytes in VALUE_SIZES {
            for separation in [false, true] {
                let arm =
                    run_arm(&cfg, seed, policy, value_bytes, separation).expect("bench arm failed");
                eprintln!(
                    "  {}/{}B/sep={}: write amp {:.2} ({} compactions, {} separated)",
                    arm.policy,
                    arm.value_bytes,
                    arm.separation,
                    arm.compaction_write_amp,
                    arm.compactions,
                    arm.values_separated
                );
                arms.push(arm);
            }
        }
    }

    let report = Report {
        bench: "compaction".to_string(),
        seed,
        smoke,
        value_threshold: VALUE_THRESHOLD,
        config: cfg,
        arms,
    };
    if let Err(msg) = verify_report(&report) {
        eprintln!("produced report failed self-verification: {msg}");
        std::process::exit(1);
    }
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
}
