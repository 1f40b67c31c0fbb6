//! Benchmark harness regenerating the paper's evaluation (§4).
//!
//! Every figure of the paper maps to one experiment function returning
//! [`Figure`] rows; the `figures` binary prints them paper-style, and
//! the Criterion benches under `benches/` wrap the same runners for
//! statistically sound per-operation timings.
//!
//! | Paper figure | Runner |
//! |---|---|
//! | Fig. 6 sequential write (vs HBase) | [`experiments::micro::fig6_sequential_write`] |
//! | Fig. 7 random read, no cache | [`experiments::micro::fig7_random_read_cold`] |
//! | Fig. 8 random read, with cache | [`experiments::micro::fig8_random_read_cached`] |
//! | Fig. 9 sequential scan | [`experiments::micro::fig9_sequential_scan`] |
//! | Fig. 10 range scan (compaction effect) | [`experiments::micro::fig10_range_scan`] |
//! | Fig. 11 parallel load time | [`experiments::cluster::fig11_load_time`] |
//! | Fig. 12–14 YCSB mixed throughput / latencies | [`experiments::cluster::fig12_13_14_mixed`] |
//! | Fig. 15–16 TPC-W latency / throughput | [`experiments::tpcw::fig15_16_tpcw`] |
//! | Fig. 17 checkpoint cost | [`experiments::recovery::fig17_checkpoint_cost`] |
//! | Fig. 18 recovery time | [`experiments::recovery::fig18_recovery_time`] |
//! | Fig. 19–21 LRS micro comparison | [`experiments::micro::fig19_20_21_vs_lrs`] |
//! | Fig. 22 LRS cluster throughput | [`experiments::cluster::fig22_lrs_throughput`] |
//!
//! Absolute numbers differ from the paper (its testbed was a 24-machine
//! cluster; ours is a process-local simulation) — the harness reproduces
//! the *shapes*: who wins, roughly by what factor, and where crossovers
//! fall. Scale knobs default to ~1% of the paper's sizes so `figures
//! all` completes in minutes; pass `--scale` to grow them.

pub mod experiments;
pub mod report;
pub mod setup;

pub use report::{Figure, Row};
pub use setup::{Scale, SingleNode};

/// The `q`-quantile of ascending nanosecond samples, in microseconds
/// (0 for no samples). Shared by the `bench_*` binaries.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx] as f64 / 1000.0
}

/// SplitMix64: the `bench_*` binaries' seeded, stateless draw.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
