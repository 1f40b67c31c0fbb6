//! `bench agree`: is the benchmark quiet enough to be believed?
//!
//! Two back-to-back sets of measured runs of the same tree, every run on a
//! seed of its own. For each workload and end-to-end metric it reports
//! both sets' medians and interquartile spreads, and fails unless the
//! medians differ by less than half the bound `BENCHMARK.json` declares
//! and each set's spread stays within the bound. `setup_s` is held to the
//! driver's own rule instead — the second median no worse than the first
//! by more than the bound, the spread not checked: a set-up is timed once
//! a run, and its medians of ten moved 13 % between sets on a host whose
//! quiet and disturbed phases last minutes.

use crate::report::{obj, parse, render_pretty};
use crate::run::{measured_run, out_dir, RunConfig};
use crate::stats::median;
use crate::stream::WORKLOADS;
use logbase_common::{Error, Result};
use serde::Value;
use std::path::PathBuf;

/// `BENCHMARK.json`, at the root of the repository.
pub fn benchmark_json_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

/// One declared metric: name and, for an end-to-end metric, its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` declares under `section` (`end_to_end` or
/// `per_layer`).
pub fn declared(section: &str) -> Result<Vec<Declared>> {
    let bad = |what: &str| Error::InvalidArgument(format!("BENCHMARK.json: {what}"));
    let text = std::fs::read_to_string(benchmark_json_path())?;
    let doc = parse(&text).map_err(|e| bad(&e.to_string()))?;
    let Some(Value::Array(items)) = doc.get(section) else {
        return Err(bad(&format!("no `{section}` array")));
    };
    items
        .iter()
        .map(|item| {
            let Some(Value::Str(name)) = item.get("name") else {
                return Err(bad("metric without a name"));
            };
            let bound = match item.get("bound") {
                Some(Value::Float(b)) => Some(*b),
                Some(Value::UInt(b)) => Some(*b as f64),
                Some(Value::Int(b)) => Some(*b as f64),
                None => None,
                Some(_) => return Err(bad(&format!("bound of {name} is not a number"))),
            };
            Ok(Declared {
                name: name.clone(),
                bound,
            })
        })
        .collect()
}

/// First and third quartile of `values` by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |q: usize| {
        // Position q * (n + 1) / 4, one-based, clamped to the data.
        let pos = (q * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance of `values` as a share of their median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

fn floats(values: &[f64]) -> Value {
    Value::Array(values.iter().map(|v| Value::Float(*v)).collect())
}

/// Run both sets and write `benchmark/out/agree.json`. `Ok(true)` when
/// every metric agrees.
pub fn agree(runs: usize, seconds: u64, details: Value) -> Result<bool> {
    assert!(runs >= 2, "quartiles need at least two runs per set");
    let metrics = declared("end_to_end")?;
    let mut all_agree = true;
    let mut workloads = Vec::new();
    for spec in &WORKLOADS {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); metrics.len()]; 2];
        for (set, per_metric) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = (set * runs + run + 1) as u64;
                let outcome = measured_run(&RunConfig {
                    spec,
                    seed,
                    seconds,
                })?;
                if !outcome.correct() {
                    return Err(Error::Corruption(format!(
                        "{} seed {seed}: {} failed operations: {:?}",
                        spec.name, outcome.failed, outcome.complaints
                    )));
                }
                for (m, slot) in metrics.iter().zip(per_metric.iter_mut()) {
                    slot.push(outcome.metric(&m.name).ok_or_else(|| {
                        Error::InvalidArgument(format!("run did not report {}", m.name))
                    })?);
                }
            }
        }
        let mut rows = Vec::new();
        for (i, m) in metrics.iter().enumerate() {
            let (a, b) = (&values[0][i], &values[1][i]);
            let bound = m.bound.ok_or_else(|| {
                Error::InvalidArgument(format!("BENCHMARK.json: {} has no bound", m.name))
            })?;
            let differ = (median(b) - median(a)).abs() / median(a);
            let ok = if m.name == "setup_s" {
                median(b) <= median(a) * (1.0 + bound)
            } else {
                differ < bound / 2.0 && spread(a).max(spread(b)) <= bound
            };
            all_agree &= ok;
            eprintln!(
                "{:12} {:26} medians {:>12.4} {:>12.4}  differ {:6.2} %  spreads {:5.2} % {:5.2} %  \
                 bound {:4.1} %  {}",
                spec.name,
                m.name,
                median(a),
                median(b),
                differ * 100.0,
                spread(a) * 100.0,
                spread(b) * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "DISAGREE" }
            );
            rows.push(obj([
                ("metric", Value::Str(m.name.clone())),
                ("bound", Value::Float(bound)),
                ("first_median", Value::Float(median(a))),
                ("second_median", Value::Float(median(b))),
                ("medians_differ_by", Value::Float(differ)),
                ("first_spread", Value::Float(spread(a))),
                ("second_spread", Value::Float(spread(b))),
                ("agree", Value::Bool(ok)),
                ("first_values", floats(a)),
                ("second_values", floats(b)),
            ]));
        }
        workloads.push(obj([
            ("workload", Value::Str(spec.name.to_string())),
            ("metrics", Value::Array(rows)),
        ]));
    }
    let doc = obj([
        ("runs_per_set", Value::UInt(runs as u64)),
        ("seconds", Value::UInt(seconds)),
        (
            "rule",
            Value::Str(
                "medians of the two sets differ by less than half the bound, and each set's \
                 interquartile spread is within the bound (setup_s: second median no worse \
                 than the first by more than the bound)"
                    .into(),
            ),
        ),
        ("details", details),
        ("all_agree", Value::Bool(all_agree)),
        ("workloads", Value::Array(workloads)),
    ]);
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join("agree.json"), render_pretty(&doc) + "\n")?;
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), 1.0);
    }
}
