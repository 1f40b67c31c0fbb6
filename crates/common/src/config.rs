//! Shared configuration constants and helpers.
//!
//! Defaults follow the paper's experimental setup (§4.1): 64 MB log
//! segments / DFS chunks, 3-way replication, 40% of heap for in-memory
//! structures, 20% for caches, 1 KB records.

/// Default DFS chunk size and log segment size (64 MB, §3.4).
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024 * 1024;

/// Default DFS replication factor (§3.4).
pub const DEFAULT_REPLICATION: usize = 3;

/// Default record payload size used by the benchmarks (1 KB, §4.1).
pub const DEFAULT_RECORD_BYTES: usize = 1024;

/// Key domain of the YCSB-style benchmark (max key 2·10⁹, §4.1).
pub const YCSB_MAX_KEY: u64 = 2_000_000_000;

/// In-memory size of one version in the multiversion index (24 bytes).
/// The paper's entry (§3.5) is a 16-byte composite key + 8-byte pointer;
/// ours is an 8-byte timestamp + 16-byte `LogPtr`, and the key bytes are
/// held once per distinct key, not per version (`logbase_index` asserts
/// the size at compile time). What an index costs in total is
/// `IndexStats::approx_bytes`, not a multiple of this.
pub const INDEX_ENTRY_BYTES: usize = 24;

/// The machine's available parallelism (≥ 1). Default for everything
/// that sizes itself to the core count: cache shard counts, scan worker
/// pools, benchmark thread sweeps.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Format a byte count with binary units for reports.
pub fn human_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{n} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

/// Format an operations-per-second rate for reports.
pub fn human_rate(ops: f64) -> String {
    if ops >= 1_000_000.0 {
        format!("{:.2}M ops/s", ops / 1_000_000.0)
    } else if ops >= 1_000.0 {
        format!("{:.1}K ops/s", ops / 1_000.0)
    } else {
        format!("{ops:.1} ops/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(64 * 1024 * 1024), "64.0 MiB");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024), "3.0 GiB");
    }

    #[test]
    fn human_rate_units() {
        assert_eq!(human_rate(12.0), "12.0 ops/s");
        assert_eq!(human_rate(45_000.0), "45.0K ops/s");
        assert_eq!(human_rate(2_500_000.0), "2.50M ops/s");
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(DEFAULT_SEGMENT_BYTES, 67_108_864);
        assert_eq!(DEFAULT_REPLICATION, 3);
        assert_eq!(INDEX_ENTRY_BYTES, 24);
    }
}
