//! `bench` — the benchmark's one executable. See `benchmark/README.md`.
//!
//! ```text
//! bench [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! bench agree [--runs N] [--seconds S]
//! bench host <data-dir>          (internal: the server child process)
//! ```

use logbase_benchmark::agree::{agree, declared};
use logbase_benchmark::pin::pin_to_one_cpu;
use logbase_benchmark::report::{obj, render, Outcome};
use logbase_benchmark::run::{measured_run, RunConfig};
use logbase_benchmark::stream::{warmup_ops, WorkloadSpec, THREADS, WORKLOADS};
use logbase_benchmark::traced::traced_run;
use logbase_benchmark::{host, stream};
use serde::Value;
use std::path::Path;
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 15;
const DEFAULT_AGREE_RUNS: usize = 5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
         bench agree [--runs N] [--seconds S]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs; `None` on a flag without a value.
fn flag_pairs(args: &[String]) -> Option<Vec<(&str, &str)>> {
    args.chunks(2)
        .map(|pair| Some((pair.first()?.as_str(), pair.get(1)?.as_str())))
        .collect()
}

/// Commit of the tree, when it is a git checkout (asked of git only then,
/// so that nothing above the tree is ever searched for a repository).
fn commit() -> String {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !tree.join(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The conditions a result was measured under. `nproc` is the host's,
/// read before the benchmark pinned itself to `cpu`.
fn details(seconds: u64, nproc: usize, cpu: Option<usize>) -> Value {
    let ops = WORKLOADS
        .iter()
        .map(|w| {
            let per_thread = stream::ops_per_thread(w, seconds);
            let counts = obj([
                ("preload_keys", Value::UInt(w.preload_keys)),
                ("ops_per_thread", Value::UInt(per_thread as u64)),
                (
                    "warmup_ops_per_thread",
                    Value::UInt(warmup_ops(per_thread) as u64),
                ),
            ]);
            (w.name.to_string(), counts)
        })
        .collect();
    obj([
        ("nproc", Value::UInt(nproc as u64)),
        (
            "pinned_to_cpu",
            cpu.map_or(Value::Null, |c| Value::UInt(c as u64)),
        ),
        ("commit", Value::Str(commit())),
        ("seconds", Value::UInt(seconds)),
        ("client_threads", Value::UInt(THREADS as u64)),
        ("workloads", Value::Object(ops)),
    ])
}

/// Fail a run that does not report exactly what `BENCHMARK.json` declares
/// for its mode, so the file and the code cannot drift apart.
fn check_declared(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut want: Vec<String> = declared(section)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|d| d.name)
        .collect();
    let mut got: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
    want.sort();
    got.sort();
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "reported metrics differ from BENCHMARK.json `{section}`:\n reported {got:?}\n declared {want:?}"
        ))
    }
}

fn run(
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
    details: Value,
) -> ExitCode {
    let cfg = RunConfig {
        spec,
        seed,
        seconds,
    };
    eprintln!(
        "{}",
        render(&obj([
            ("workload", Value::Str(spec.name.to_string())),
            ("seed", Value::UInt(seed)),
            ("trace", Value::Bool(trace)),
            ("details", details),
        ]))
    );
    let outcome = if trace {
        traced_run(&cfg)
    } else {
        measured_run(&cfg)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_declared(&outcome, trace) {
        eprintln!("bench: {e}");
        return ExitCode::FAILURE;
    }
    for m in &outcome.metrics {
        eprintln!("  {:48} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.also_measured {
        eprintln!("  ({:47} {:>14.4} {})", m.name, m.value, m.unit);
    }
    for c in &outcome.complaints {
        eprintln!("FAILED {c}");
    }
    println!("{}", outcome.to_json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(mode @ ("host" | "agree" | "run")) => (mode, &args[1..]),
        _ => ("run", &args[..]),
    };
    if mode == "host" {
        let [dir] = rest else {
            return usage();
        };
        return match host::serve(Path::new(dir)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench host: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(flags) = flag_pairs(rest) else {
        return usage();
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = pin_to_one_cpu();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut runs = DEFAULT_AGREE_RUNS;
    let mut trace = false;
    for (flag, value) in flags {
        let ok = match flag {
            "--workload" => {
                workload = stream::workload(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds > 0,
            "--runs" => value.parse().map(|v| runs = v).is_ok() && runs >= 2,
            "--trace" => {
                trace = value == "1";
                value == "0" || value == "1"
            }
            _ => false,
        };
        if !ok {
            eprintln!("bench: bad argument {flag} {value}");
            return usage();
        }
    }
    if mode == "agree" {
        return match agree(runs, seconds, details(seconds, nproc, cpu)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("bench agree: the two sets of runs disagree");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("bench agree: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match workload {
        Some(spec) => run(spec, seed, seconds, trace, details(seconds, nproc, cpu)),
        None => usage(),
    }
}
