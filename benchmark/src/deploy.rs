//! The deployment under test: what `logbase-server` composes, on disk.
//!
//! `logbase-server` always builds an in-memory DFS and cannot restart onto
//! its own data, so the benchmark composes the same pieces itself —
//! `Cluster::create_on` + `Cluster::start_net` + `enable_wallclock_failover`
//! over `DfsConfig::on_disk` — and recovers members in-process. When
//! `logbase-server --data-dir` lands, this file is replaced by spawning it.

use crate::stream::{KeySpace, MEMBERS, VALUE_BYTES};
use logbase_cluster::{Cluster, ClusterConfig, EngineKind, NetServer, NetServerConfig};
use logbase_common::{Error, Result};
use logbase_dfs::{Dfs, DfsConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dispatch workers per member, pinned so the result does not depend on
/// how `NetServerConfig::default` reads the host's core count.
pub const DISPATCH_THREADS: usize = 2;

/// Removes a directory tree when dropped, so every exit path (return,
/// `?`, panic) leaves nothing behind.
pub struct DirGuard(PathBuf);

impl DirGuard {
    /// Create `path` (fresh) and own it.
    pub fn create(path: PathBuf) -> std::io::Result<DirGuard> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(DirGuard(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Named counters read from the deployment; a later snapshot minus an
/// earlier one gives the work of the phase in between.
pub type Counters = BTreeMap<String, u64>;

/// `later - earlier`, counter by counter (gauges are taken from `later`).
pub fn delta(later: &Counters, earlier: &Counters) -> Counters {
    later
        .iter()
        .map(|(k, v)| {
            let v = if GAUGES.contains(&k.as_str()) {
                *v
            } else {
                v.saturating_sub(earlier.get(k).copied().unwrap_or(0))
            };
            (k.clone(), v)
        })
        .collect()
}

const GAUGES: [&str; 5] = [
    "admission_limit",
    "index_entries",
    "index_bytes",
    "disk_bytes",
    "rss_hwm_kb",
];

/// The deployment under test as a run sees it: in this process
/// ([`Deployment`]) or in a child ([`crate::host::Host`]).
pub trait Served {
    /// `host:port` of every member's listener, by member index.
    fn addrs(&self) -> Vec<String>;
    /// Bulk-load `keys` keys (the layout of [`KeySpace`]) in-process, one
    /// loader per member.
    fn load(&mut self, keys: u64) -> Result<Duration>;
    /// Checkpoint every member.
    fn checkpoint(&mut self) -> Result<Duration>;
    /// Cold-restart every member in turn: drop its in-memory state and
    /// rebuild it from the DFS (latest checkpoint plus log redo).
    fn recover_all(&mut self) -> Result<Vec<Duration>>;
    /// Snapshot the counters the report is built from.
    fn counters(&mut self) -> Result<Counters>;
}

/// A running 3-member LogBase cluster on a disk-backed DFS, serving TCP.
pub struct Deployment {
    cluster: Cluster,
    net: Arc<NetServer>,
    data_dir: PathBuf,
}

impl Deployment {
    /// Bring the cluster up on an empty `data_dir`.
    ///
    /// Flush policy: data-node appends are buffered writes with no fsync
    /// (`StorageBackend::Disk`), the only policy the DFS has today.
    pub fn start(data_dir: &Path) -> Result<Deployment> {
        let members = MEMBERS as usize;
        let dfs = Dfs::new(DfsConfig::on_disk(data_dir, members, members));
        let config = ClusterConfig::new(members, EngineKind::LogBase);
        let mut cluster = Cluster::create_on(config, dfs)?;
        let net = cluster.start_net(NetServerConfig {
            dispatch_threads: DISPATCH_THREADS,
            ..NetServerConfig::default()
        })?;
        cluster.enable_wallclock_failover(Duration::from_millis(50));
        Ok(Deployment {
            cluster,
            net,
            data_dir: data_dir.to_path_buf(),
        })
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }
}

impl Served for Deployment {
    fn addrs(&self) -> Vec<String> {
        self.net.addrs().iter().map(|a| a.to_string()).collect()
    }

    fn load(&mut self, keys: u64) -> Result<Duration> {
        let per_member = KeySpace::new(keys).keys_per_member();
        self.cluster.parallel_load(0, &per_member, VALUE_BYTES)
    }

    fn checkpoint(&mut self) -> Result<Duration> {
        let start = Instant::now();
        self.cluster.sync_all()?;
        Ok(start.elapsed())
    }

    fn recover_all(&mut self) -> Result<Vec<Duration>> {
        (0..MEMBERS as usize)
            .map(|i| self.cluster.crash_and_recover_logbase(i))
            .collect()
    }

    fn counters(&mut self) -> Result<Counters> {
        let m = self.cluster.metrics().snapshot();
        let mut c = Counters::new();
        for (name, value) in [
            ("dfs_appends", m.dfs_appends),
            ("dfs_reads", m.dfs_reads),
            ("dfs_retries", m.dfs_retries),
            ("cache_hits", m.cache_hits),
            ("cache_misses", m.cache_misses),
            ("records_read", m.records_read),
            ("txn_commits", m.txn_commits),
            ("txn_aborts", m.txn_aborts),
            ("connections_shed", m.connections_shed),
            ("admission_limit", m.admission_limit),
            ("wal_batches_committed", m.wal_batches_committed),
            ("wal_batched_entries", m.wal_batched_entries),
            ("wal_committer_wakeups", m.wal_committer_wakeups),
            ("compaction_bytes_written", m.compaction_bytes_written),
        ] {
            c.insert(name.to_string(), value);
        }
        let node_bytes: u64 = self.cluster.dfs().node_io().iter().map(|n| n.1).sum();
        c.insert("node_bytes_written".to_string(), node_bytes);
        let (mut entries, mut bytes) = (0, 0);
        for i in 0..MEMBERS as usize {
            if let Some(server) = self.cluster.logbase_server(i) {
                let s = server.stats();
                entries += s.index_entries;
                bytes += s.index_bytes;
            }
        }
        c.insert("index_entries".to_string(), entries);
        c.insert("index_bytes".to_string(), bytes);
        c.insert("disk_bytes".to_string(), dir_bytes(&self.data_dir)?);
        c.insert("rss_hwm_kb".to_string(), rss_hwm_kb()?);
        Ok(c)
    }
}

/// Total length of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn rss_hwm_kb() -> Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| Error::InvalidArgument("no VmHWM in /proc/self/status".into()))
}
