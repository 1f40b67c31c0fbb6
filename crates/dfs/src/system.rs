//! The DFS facade: replicated append/read over data nodes + name node.

use crate::config::DfsConfig;
use crate::datanode::{BlockId, DataNode, NodeId};
use crate::fault::FaultInjector;
use crate::namenode::{ChunkMeta, FileMeta, NameNode, PlacementPolicy};
use bytes::Bytes;
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::{Error, Result};
use parking_lot::Mutex;
use std::sync::Arc;

/// A simulated DFS cluster.
///
/// Cloning the handle is cheap; all clones address the same cluster.
/// Appends are *synchronous*: the call returns only after every replica of
/// every touched chunk has the bytes, matching HDFS pipeline semantics the
/// paper relies on for Guarantee 1 (§3.4). A replica that fails mid-append
/// is retried per the configured [`logbase_common::RetryPolicy`], then
/// excluded and replaced with a fresh node — an acknowledged append is
/// never under-replicated or divergent.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<DfsInner>,
    /// Per-handle byte token bucket. `None` (every foreground handle)
    /// reads and writes unmetered; a handle cloned via
    /// [`Dfs::rate_limited`] acquires tokens before each read or append
    /// so background bulk I/O yields to foreground load.
    limiter: Option<Arc<logbase_common::RateLimiter>>,
}

struct DfsInner {
    config: DfsConfig,
    namenode: NameNode,
    datanodes: Vec<DataNode>,
    faults: Arc<FaultInjector>,
    /// Serializes appends per file (HDFS: single writer per file).
    append_locks: Mutex<std::collections::HashMap<String, Arc<Mutex<()>>>>,
    metrics: MetricsHandle,
}

/// Undo record for one pipeline write: `(block, committed length before
/// the write, whether the write created the block, replicas written)`.
type UndoRecord = (BlockId, u64, bool, Vec<NodeId>);

impl Dfs {
    /// Bring up a cluster per `config`.
    pub fn new(config: DfsConfig) -> Self {
        Self::with_metrics(config, Metrics::new_handle())
    }

    /// Bring up a cluster that reports into an existing metrics sink.
    pub fn with_metrics(config: DfsConfig, metrics: MetricsHandle) -> Self {
        assert!(config.data_nodes > 0, "DFS needs at least one data node");
        assert!(
            config.replication >= 1 && config.replication <= config.data_nodes,
            "replication factor must be within [1, data_nodes]"
        );
        let policy = if config.racks > 1 {
            PlacementPolicy::RackAware
        } else {
            PlacementPolicy::Flat
        };
        let faults = Arc::new(FaultInjector::new(config.fault_seed));
        let datanodes = (0..config.data_nodes as NodeId)
            .map(|id| {
                DataNode::new(
                    id,
                    id % config.racks as u32,
                    &config.backend,
                    Arc::clone(&faults),
                )
                .expect("data node directory creation failed")
            })
            .collect();
        let dfs = Dfs {
            limiter: None,
            inner: Arc::new(DfsInner {
                namenode: NameNode::new(policy),
                datanodes,
                faults,
                append_locks: Mutex::new(std::collections::HashMap::new()),
                metrics,
                config,
            }),
        };
        if let Some(repair) = dfs.inner.config.auto_repair.clone() {
            // The repair thread holds only a weak reference so dropping
            // the last user handle tears the cluster (and the thread)
            // down.
            let weak = Arc::downgrade(&dfs.inner);
            std::thread::spawn(move || {
                let mut last_sweep: Option<std::time::Instant> = None;
                loop {
                    std::thread::sleep(repair.interval);
                    let Some(inner) = weak.upgrade() else { break };
                    let dfs = Dfs {
                        inner,
                        limiter: None,
                    };
                    if last_sweep.is_some_and(|t| t.elapsed() < repair.min_gap) {
                        continue;
                    }
                    if dfs.under_replicated_chunks() > 0 {
                        Metrics::incr(&dfs.inner.metrics.repairs_triggered);
                        let _ = dfs.rereplicate();
                        last_sweep = Some(std::time::Instant::now());
                    }
                }
            });
        }
        dfs
    }

    /// The cluster's metrics sink.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.inner.metrics
    }

    /// The configuration the cluster was created with.
    pub fn config(&self) -> &DfsConfig {
        &self.inner.config
    }

    /// The cluster's fault injector (dormant unless armed with specs).
    pub fn fault_injector(&self) -> &Arc<FaultInjector> {
        &self.inner.faults
    }

    /// A handle onto the same cluster whose reads and appends first
    /// acquire byte tokens from `limiter`. The compaction scheduler does
    /// its bulk I/O through such a handle so background traffic is
    /// throttled while foreground handles stay unmetered.
    pub fn rate_limited(&self, limiter: Arc<logbase_common::RateLimiter>) -> Dfs {
        Dfs {
            inner: Arc::clone(&self.inner),
            limiter: Some(limiter),
        }
    }

    /// Meter `bytes` through this handle's limiter, if it has one.
    fn throttle(&self, bytes: u64) {
        if let Some(limiter) = &self.limiter {
            if !limiter.acquire(bytes).is_zero() {
                Metrics::incr(&self.inner.metrics.compaction_throttle_waits);
            }
        }
    }

    /// Evaluate the named crash point `site` (see [`FaultInjector`]'s
    /// crash-point registry). A no-op unless a test armed or recorded
    /// the site; when the site fires, the `crash_sites_hit` metric is
    /// bumped and the `CrashPoint` error propagates up the maintenance
    /// call stack, simulating process death at this exact step.
    pub fn crash_point(&self, site: &str) -> Result<()> {
        self.inner.faults.check_crash_point(site).inspect_err(|_| {
            Metrics::incr(&self.inner.metrics.crash_sites_hit);
        })
    }

    fn live_nodes(&self) -> Vec<(NodeId, u32)> {
        self.inner
            .datanodes
            .iter()
            .filter(|n| n.is_alive())
            .map(|n| (n.id(), n.rack()))
            .collect()
    }

    fn node(&self, id: NodeId) -> &DataNode {
        &self.inner.datanodes[id as usize]
    }

    fn file_lock(&self, name: &str) -> Arc<Mutex<()>> {
        let mut locks = self.inner.append_locks.lock();
        Arc::clone(locks.entry(name.to_string()).or_default())
    }

    /// Create an empty file.
    pub fn create(&self, name: &str) -> Result<()> {
        self.inner.namenode.create(name)
    }

    /// True when `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.namenode.exists(name)
    }

    /// Current length of `name`.
    pub fn len(&self, name: &str) -> Result<u64> {
        Ok(self.inner.namenode.stat(name)?.len())
    }

    /// True when `name` exists and holds no bytes.
    pub fn is_empty(&self, name: &str) -> Result<bool> {
        Ok(self.len(name)? == 0)
    }

    /// Metadata snapshot (chunk layout, replica placement).
    pub fn stat(&self, name: &str) -> Result<FileMeta> {
        self.inner.namenode.stat(name)
    }

    /// List files with prefix, lexicographically.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.namenode.list(prefix)
    }

    /// Seal a file against further appends (log segment rotation).
    pub fn seal(&self, name: &str) -> Result<()> {
        self.inner.namenode.seal(name)
    }

    /// Rename a file (compaction installs sorted segments this way).
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.namenode.rename(from, to)
    }

    /// Delete a file and reclaim its chunks on all live replicas.
    ///
    /// Dead replicas are skipped; their blocks are orphaned until the
    /// node restarts and [`Dfs::sweep_orphans`] reconciles its block
    /// report against the namespace (HDFS does the same).
    pub fn delete(&self, name: &str) -> Result<()> {
        let chunks = self.inner.namenode.delete(name)?;
        for c in chunks {
            for r in c.replicas {
                let _ = self.node(r).delete_block(c.block);
            }
        }
        Ok(())
    }

    /// Append `data` to `name`, returning the offset at which it landed.
    ///
    /// The write is replicated synchronously: every replica of every
    /// touched chunk acknowledges before the call returns. A replica that
    /// fails transiently is retried per the configured policy; a replica
    /// that stays down is excluded and replaced with a freshly-placed
    /// node (healed up to the committed chunk offset from a surviving
    /// peer), so a successful return always means `replication` complete,
    /// identical replicas. On overall failure every partial replica write
    /// is rolled back before the error is returned.
    pub fn append(&self, name: &str, data: &[u8]) -> Result<u64> {
        self.throttle(data.len() as u64);
        let file_lock = self.file_lock(name);
        let _guard = file_lock.lock();

        let mut plan = self.inner.namenode.plan_append(
            name,
            data.len() as u64,
            self.inner.config.chunk_size,
            self.inner.config.replication,
            &self.live_nodes(),
        )?;
        let retry = self.inner.config.retry.clone();
        // Nodes that failed during this append; never picked again.
        let mut failed: Vec<NodeId> = Vec::new();
        // Completed (block, base, new, replicas) for rollback on failure.
        let mut undo: Vec<UndoRecord> = Vec::new();
        for w in &mut plan.writes {
            let slice = &data[w.data_range.0 as usize..w.data_range.1 as usize];
            let base = w.chunk_offset;
            let mut completed: Vec<NodeId> = Vec::new();
            let mut i = 0;
            while i < w.replicas.len() {
                let r = w.replicas[i];
                let outcome = retry.run(|attempt| {
                    if attempt > 0 {
                        Metrics::incr(&self.inner.metrics.dfs_retries);
                    }
                    // Prefix-heal sources: replicas that already took this
                    // write, then the not-yet-written original replicas
                    // (they hold exactly `base` committed bytes).
                    let sources: Vec<NodeId> = completed
                        .iter()
                        .chain(w.replicas.iter().filter(|n| !failed.contains(n)))
                        .copied()
                        .filter(|n| *n != r)
                        .collect();
                    self.write_replica(r, w.block, base, slice, &sources)
                });
                match outcome {
                    Ok(()) => {
                        completed.push(r);
                        i += 1;
                    }
                    Err(e) if e.is_retriable() => {
                        // Replica is gone for good (retries exhausted):
                        // exclude it and re-drive the write on a
                        // replacement node.
                        failed.push(r);
                        let live = self.live_nodes();
                        let mut exclude = w.replicas.clone();
                        exclude.extend_from_slice(&failed);
                        match self.inner.namenode.pick_replacement(&exclude, &live) {
                            Some(sub) => w.replicas[i] = sub,
                            None => {
                                undo.push((w.block, base, w.new_chunk, completed));
                                self.rollback_append(&undo);
                                return Err(Error::InsufficientReplicas {
                                    wanted: self.inner.config.replication,
                                    available: live
                                        .iter()
                                        .filter(|(id, _)| !failed.contains(id))
                                        .count(),
                                });
                            }
                        }
                    }
                    Err(e) => {
                        undo.push((w.block, base, w.new_chunk, completed));
                        self.rollback_append(&undo);
                        return Err(e);
                    }
                }
            }
            undo.push((w.block, base, w.new_chunk, completed));
        }
        self.inner.namenode.commit_append(&plan)?;
        Metrics::incr(&self.inner.metrics.dfs_appends);
        Metrics::add(
            &self.inner.metrics.seq_bytes_written,
            data.len() as u64 * self.inner.config.replication as u64,
        );
        Ok(plan.start_offset)
    }

    /// Drive one replica of one pipeline write to exactly
    /// `base + data.len()` bytes: undo any leftover torn tail, heal a
    /// missing committed prefix from `sources`, append, verify.
    fn write_replica(
        &self,
        r: NodeId,
        block: BlockId,
        base: u64,
        data: &[u8],
        sources: &[NodeId],
    ) -> Result<()> {
        let node = self.node(r);
        let cur = node.block_len(block)?;
        if cur > base {
            // Torn tail from an earlier failed attempt.
            node.truncate_block(block, base)?;
        } else if cur < base {
            // Fresh replacement (or stale replica): copy the committed
            // prefix from any peer that has it.
            let missing = (base - cur) as usize;
            let mut fill = None;
            for &s in sources {
                if let Ok(b) = self.node(s).read_block(block, cur, missing) {
                    fill = Some(b);
                    break;
                }
            }
            let fill = fill.ok_or_else(|| {
                Error::Unavailable(format!(
                    "no source to heal replica dn-{r} of blk_{block} to offset {base}"
                ))
            })?;
            node.append_block(block, &fill)?;
        }
        let end = node.append_block(block, data)?;
        let want = base + data.len() as u64;
        if end != want {
            let _ = node.truncate_block(block, base);
            return Err(Error::Unavailable(format!(
                "replica dn-{r} of blk_{block} diverged: length {end}, expected {want}"
            )));
        }
        Ok(())
    }

    /// Best-effort undo of partial pipeline writes (no replica may keep
    /// bytes the caller was told failed).
    fn rollback_append(&self, undo: &[UndoRecord]) {
        for (block, base, new_chunk, replicas) in undo {
            for &r in replicas {
                let node = self.node(r);
                if *new_chunk {
                    let _ = node.delete_block(*block);
                } else {
                    let _ = node.truncate_block(*block, *base);
                }
            }
        }
    }

    /// Positional read of `len` bytes at `offset`.
    ///
    /// Reads from the first live replica of each chunk, failing over to
    /// the others and retrying transient failures. A replica that fails
    /// its checksum is quarantined (its corrupt copy dropped so repair
    /// restores it) once a healthy replica has served the bytes. Counted
    /// as a random read (a "seek") in metrics.
    pub fn read(&self, name: &str, offset: u64, len: u64) -> Result<Bytes> {
        let meta = self.inner.namenode.stat(name)?;
        let size = meta.len();
        if offset + len > size {
            return Err(Error::OutOfBounds {
                file: name.to_string(),
                offset,
                len,
                size,
            });
        }
        self.throttle(len);
        Metrics::incr(&self.inner.metrics.dfs_reads);
        Metrics::incr(&self.inner.metrics.seeks);
        Metrics::add(&self.inner.metrics.rand_bytes_read, len);
        self.read_internal(name, &meta, offset, len)
    }

    fn read_internal(&self, name: &str, meta: &FileMeta, offset: u64, len: u64) -> Result<Bytes> {
        let mut out = Vec::with_capacity(len as usize);
        let mut chunk_start = 0u64;
        let mut remaining = len;
        let mut pos = offset;
        for (ci, c) in meta.chunks.iter().enumerate() {
            let chunk_end = chunk_start + c.len;
            if pos < chunk_end && remaining > 0 {
                let within = pos - chunk_start;
                let take = (c.len - within).min(remaining);
                let bytes = self.read_chunk(name, ci, c, within, take as usize)?;
                out.extend_from_slice(&bytes);
                pos += take;
                remaining -= take;
            }
            chunk_start = chunk_end;
            if remaining == 0 {
                break;
            }
        }
        if remaining > 0 {
            return Err(Error::OutOfBounds {
                file: name.to_string(),
                offset,
                len,
                size: meta.len(),
            });
        }
        Ok(Bytes::from(out))
    }

    /// Read one range of one chunk with replica failover, transient-error
    /// retry and corruption quarantine.
    fn read_chunk(
        &self,
        name: &str,
        chunk_index: usize,
        snapshot: &ChunkMeta,
        within: u64,
        take: usize,
    ) -> Result<Vec<u8>> {
        self.inner.config.retry.run(|attempt| {
            if attempt > 0 {
                Metrics::incr(&self.inner.metrics.dfs_retries);
            }
            // Re-stat each retry: background repair may have moved
            // replicas since the caller's snapshot (which attempt 0 uses
            // as is — it was taken a moment ago). Fall back to the
            // snapshot if the file was renamed or deleted under us.
            let fresh = (attempt > 0)
                .then(|| {
                    self.inner
                        .namenode
                        .stat(name)
                        .ok()?
                        .chunks
                        .get(chunk_index)
                        .cloned()
                })
                .flatten();
            let chunk = fresh.as_ref().unwrap_or(snapshot);
            let mut corrupt: Vec<NodeId> = Vec::new();
            let mut transient_err: Option<Error> = None;
            let mut last_err: Option<Error> = None;
            let mut got: Option<Vec<u8>> = None;
            for &r in &chunk.replicas {
                match self.node(r).read_block(chunk.block, within, take) {
                    Ok(bytes) => {
                        got = Some(bytes);
                        break;
                    }
                    Err(e) => {
                        if e.is_corruption() {
                            corrupt.push(r);
                        } else if e.is_retriable() && transient_err.is_none() {
                            transient_err = Some(e);
                            continue;
                        }
                        last_err = Some(e);
                    }
                }
            }
            match got {
                Some(bytes) => {
                    // A healthy replica served the range, so corrupt
                    // copies are safe to drop; re-replication restores
                    // them from the good copy.
                    for r in corrupt {
                        let _ = self.node(r).delete_block(chunk.block);
                        Metrics::incr(&self.inner.metrics.corrupt_reads_recovered);
                    }
                    Ok(bytes)
                }
                // Prefer the transient error so the retry policy keeps
                // trying (a down node may restart); corruption with no
                // healthy copy left is terminal.
                None => Err(transient_err.or(last_err).unwrap_or_else(|| {
                    Error::Unavailable(format!(
                        "no live replica for chunk {} of {name}",
                        snapshot.block
                    ))
                })),
            }
        })
    }

    /// Read the whole file (metrics count it as a sequential scan).
    pub fn read_all(&self, name: &str) -> Result<Bytes> {
        let meta = self.inner.namenode.stat(name)?;
        let len = meta.len();
        self.throttle(len);
        Metrics::incr(&self.inner.metrics.dfs_reads);
        Metrics::add(&self.inner.metrics.seq_bytes_read, len);
        if len == 0 {
            return Ok(Bytes::new());
        }
        self.read_internal(name, &meta, 0, len)
    }

    /// Open a buffered sequential reader over `name` (log replay, scans).
    pub fn open_reader(&self, name: &str) -> Result<DfsFileReader> {
        let meta = self.inner.namenode.stat(name)?;
        Ok(DfsFileReader {
            dfs: self.clone(),
            name: name.to_string(),
            meta,
            pos: 0,
            buf: Bytes::new(),
            buf_start: 0,
            read_ahead: 256 * 1024,
        })
    }

    /// Re-replicate under-replicated chunks (the name node's response to
    /// a lost data node in HDFS). For every chunk with fewer healthy
    /// replicas than the replication factor, the block is copied from a
    /// surviving replica onto live nodes that lack it and the metadata
    /// is updated. A replica counts as healthy only if its node is alive
    /// *and* its copy is complete — a torn tail from a crashed append is
    /// repaired, not trusted. Returns the number of replicas created.
    ///
    /// Chunks with **zero** healthy replicas are skipped (data loss —
    /// only a catastrophic simultaneous failure can cause it at
    /// replication ≥ 2; such chunks surface as read errors).
    pub fn rereplicate(&self) -> Result<u64> {
        let mut created = 0u64;
        for name in self.list("") {
            // Serialize with appends to this file so a repair copy and a
            // pipeline write cannot interleave into divergent replicas.
            let file_lock = self.file_lock(&name);
            let _guard = file_lock.lock();
            let Ok(meta) = self.stat(&name) else { continue };
            for (ci, chunk) in meta.chunks.iter().enumerate() {
                let holders: Vec<NodeId> = chunk
                    .replicas
                    .iter()
                    .copied()
                    .filter(|r| {
                        let n = self.node(*r);
                        n.is_alive() && n.block_len(chunk.block).is_ok_and(|l| l >= chunk.len)
                    })
                    .collect();
                if holders.is_empty() || holders.len() >= self.inner.config.replication {
                    continue;
                }
                // Checksum-verified source read, failing over between
                // holders (one of them may hold a corrupt copy).
                let mut data: Option<Vec<u8>> = None;
                for &h in &holders {
                    if let Ok(d) = self.node(h).read_block(chunk.block, 0, chunk.len as usize) {
                        data = Some(d);
                        break;
                    }
                }
                let Some(data) = data else { continue };
                let mut replicas = holders.clone();
                for (candidate, _) in &self.live_nodes() {
                    if replicas.len() >= self.inner.config.replication {
                        break;
                    }
                    if replicas.contains(candidate) {
                        continue;
                    }
                    let node = self.node(*candidate);
                    // The target may hold a stale or torn copy (it was a
                    // replica before it crashed): reset it first.
                    let copied: Result<()> = (|| {
                        if node.block_len(chunk.block)? > 0 {
                            node.truncate_block(chunk.block, 0)?;
                        }
                        node.append_block(chunk.block, &data)?;
                        Ok(())
                    })();
                    // A candidate that fails (injected fault, crash) is
                    // skipped, not fatal — the next sweep finishes the job.
                    if copied.is_ok() {
                        replicas.push(*candidate);
                        created += 1;
                        Metrics::incr(&self.inner.metrics.replicas_repaired);
                    }
                }
                if replicas != chunk.replicas {
                    self.inner.namenode.set_replicas(&name, ci, replicas)?;
                }
            }
        }
        Ok(created)
    }

    /// Number of chunks whose healthy replica count (alive **and**
    /// holding a complete copy) is below the replication factor
    /// (monitoring hook; drives the auto-repair thread).
    pub fn under_replicated_chunks(&self) -> u64 {
        let mut n = 0;
        for name in self.list("") {
            let Ok(meta) = self.stat(&name) else { continue };
            for chunk in &meta.chunks {
                let healthy = chunk
                    .replicas
                    .iter()
                    .filter(|r| {
                        let node = self.node(**r);
                        node.is_alive() && node.block_len(chunk.block).is_ok_and(|l| l >= chunk.len)
                    })
                    .count();
                if healthy < self.inner.config.replication {
                    n += 1;
                }
            }
        }
        n
    }

    /// Block-report sweep for one node: delete every local block that no
    /// file references (its file was deleted while the node was down).
    /// Returns the number of blocks reclaimed. Appends are excluded for
    /// the duration so an in-flight (not yet committed) block cannot be
    /// swept.
    pub fn sweep_orphans(&self, id: NodeId) -> Result<u64> {
        // Hold every file's append lock: a planned-but-uncommitted block
        // is only reachable from inside an append, and appends all hold
        // their file lock.
        let mut locks: Vec<Arc<Mutex<()>>> =
            self.inner.append_locks.lock().values().cloned().collect();
        // Total lock order (by address) so concurrent sweeps can't
        // deadlock against each other.
        locks.sort_by_key(|l| Arc::as_ptr(l) as usize);
        let _guards: Vec<_> = locks.iter().map(|l| l.lock()).collect();
        let referenced = self.inner.namenode.referenced_blocks();
        let node = self.node(id);
        let mut removed = 0u64;
        for block in node.list_blocks() {
            if !referenced.contains(&block) {
                node.delete_block(block)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Kill a data node (failure injection).
    pub fn kill_node(&self, id: NodeId) {
        self.node(id).kill();
    }

    /// Whether data node `id` is up (faults can kill nodes mid-append;
    /// supervisors poll this to decide who needs a restart).
    pub fn node_alive(&self, id: NodeId) -> bool {
        self.node(id).is_alive()
    }

    /// Restart a data node. The node files a block report on the way up:
    /// orphaned blocks (files deleted while it was down) are reclaimed.
    pub fn restart_node(&self, id: NodeId) {
        self.node(id).restart();
        let _ = self.sweep_orphans(id);
    }

    /// Block ids node `id` currently holds (its block report).
    pub fn node_blocks(&self, id: NodeId) -> Vec<BlockId> {
        self.node(id).list_blocks()
    }

    /// Number of live data nodes.
    pub fn live_node_count(&self) -> usize {
        self.live_nodes().len()
    }

    /// Per-node `(written, read)` byte counters, for placement tests.
    pub fn node_io(&self) -> Vec<(NodeId, u64, u64)> {
        self.inner
            .datanodes
            .iter()
            .map(|n| (n.id(), n.bytes_written(), n.bytes_read()))
            .collect()
    }
}

/// Buffered sequential reader over one DFS file.
///
/// Reads ahead in large chunks so that log replay and full scans issue few
/// DFS round-trips; accounting goes to the sequential counters.
pub struct DfsFileReader {
    dfs: Dfs,
    name: String,
    meta: FileMeta,
    pos: u64,
    buf: Bytes,
    buf_start: u64,
    read_ahead: u64,
}

impl DfsFileReader {
    /// Current read position.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Total file length (as of open).
    pub fn len(&self) -> u64 {
        self.meta.len()
    }

    /// True when the file had no bytes at open time.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining bytes from the current position.
    pub fn remaining(&self) -> u64 {
        self.len().saturating_sub(self.pos)
    }

    /// Reposition the reader.
    pub fn seek(&mut self, pos: u64) {
        self.pos = pos;
        // Invalidate the buffer if the new position is outside it.
        let buf_end = self.buf_start + self.buf.len() as u64;
        if pos < self.buf_start || pos >= buf_end {
            self.buf = Bytes::new();
            self.buf_start = pos;
        }
    }

    /// Read exactly `len` bytes, advancing the position.
    pub fn read_exact(&mut self, len: u64) -> Result<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        let buf_end = self.buf_start + self.buf.len() as u64;
        if self.pos >= self.buf_start && self.pos + len <= buf_end {
            let start = (self.pos - self.buf_start) as usize;
            let out = self.buf.slice(start..start + len as usize);
            self.pos += len;
            return Ok(out);
        }
        // Refill: read max(read_ahead, len) from pos.
        let want = self.read_ahead.max(len).min(self.remaining());
        if want < len {
            return Err(Error::OutOfBounds {
                file: self.name.clone(),
                offset: self.pos,
                len,
                size: self.len(),
            });
        }
        let metrics = self.dfs.metrics();
        self.dfs.throttle(want);
        Metrics::incr(&metrics.dfs_reads);
        Metrics::add(&metrics.seq_bytes_read, want);
        let bytes = self
            .dfs
            .read_internal(&self.name, &self.meta, self.pos, want)?;
        self.buf_start = self.pos;
        self.buf = bytes;
        let out = self.buf.slice(0..len as usize);
        self.pos += len;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageBackend;
    use crate::fault::{FaultSpec, OpClass, ScheduledFault};
    use logbase_common::RetryPolicy;

    fn small_dfs() -> Dfs {
        Dfs::new(DfsConfig::in_memory(3, 3).with_chunk_size(16))
    }

    #[test]
    fn append_read_round_trip() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        assert_eq!(dfs.append("f", b"0123456789").unwrap(), 0);
        assert_eq!(dfs.append("f", b"abcdefghij").unwrap(), 10);
        assert_eq!(dfs.len("f").unwrap(), 20);
        // Spans the 16-byte chunk boundary.
        assert_eq!(&dfs.read("f", 12, 6).unwrap()[..], b"cdefgh");
        assert_eq!(&dfs.read_all("f").unwrap()[..], b"0123456789abcdefghij");
    }

    #[test]
    fn rate_limited_handle_throttles_only_itself() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", &[7u8; 4096]).unwrap();
        // 16 KB/s with a 1 KB burst: the second 1 KB read must wait
        // (~60 ms — slow enough that scheduling noise cannot refill the
        // bucket between the two reads).
        let slow = dfs.rate_limited(std::sync::Arc::new(logbase_common::RateLimiter::new(
            16 * 1024,
            1024,
        )));
        slow.read("f", 0, 1024).unwrap();
        slow.read("f", 1024, 1024).unwrap();
        assert!(
            Metrics::get(&dfs.metrics().compaction_throttle_waits) > 0,
            "drained bucket must register a throttle wait"
        );
        // The foreground handle shares the cluster but never waits.
        let before = Metrics::get(&dfs.metrics().compaction_throttle_waits);
        dfs.read_all("f").unwrap();
        assert_eq!(
            Metrics::get(&dfs.metrics().compaction_throttle_waits),
            before
        );
    }

    #[test]
    fn replicas_hold_identical_data() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"hello world, this spans chunks").unwrap();
        let meta = dfs.stat("f").unwrap();
        assert!(meta.chunks.len() >= 2);
        for c in &meta.chunks {
            assert_eq!(c.replicas.len(), 3);
        }
        // Every node received every byte (3 nodes, replication 3).
        let io = dfs.node_io();
        let total = dfs.len("f").unwrap();
        for (_, written, _) in io {
            assert_eq!(written, total);
        }
    }

    #[test]
    fn read_survives_single_node_failure() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"important bytes").unwrap();
        dfs.kill_node(0);
        assert_eq!(&dfs.read_all("f").unwrap()[..], b"important bytes");
        assert_eq!(&dfs.read("f", 10, 5).unwrap()[..], b"bytes");
    }

    #[test]
    fn read_survives_two_node_failures_with_replication_three() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"still there").unwrap();
        dfs.kill_node(0);
        dfs.kill_node(1);
        assert_eq!(&dfs.read_all("f").unwrap()[..], b"still there");
    }

    #[test]
    fn append_fails_without_enough_live_nodes() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.kill_node(2);
        let err = dfs.append("f", b"x").unwrap_err();
        assert!(matches!(err, Error::InsufficientReplicas { .. }));
        dfs.restart_node(2);
        dfs.append("f", b"x").unwrap();
    }

    #[test]
    fn out_of_bounds_read_is_rejected() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"12345").unwrap();
        assert!(matches!(
            dfs.read("f", 3, 10),
            Err(Error::OutOfBounds { .. })
        ));
    }

    #[test]
    fn sequential_reader_walks_whole_file() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2).with_chunk_size(8));
        dfs.create("f").unwrap();
        let payload: Vec<u8> = (0..100u8).collect();
        dfs.append("f", &payload).unwrap();
        let mut r = dfs.open_reader("f").unwrap();
        let mut got = Vec::new();
        while r.remaining() > 0 {
            let take = r.remaining().min(7);
            got.extend_from_slice(&r.read_exact(take).unwrap());
        }
        assert_eq!(got, payload);
        assert!(r.read_exact(1).is_err());
    }

    #[test]
    fn sequential_reader_seek() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"0123456789abcdefghij").unwrap();
        let mut r = dfs.open_reader("f").unwrap();
        r.seek(10);
        assert_eq!(&r.read_exact(5).unwrap()[..], b"abcde");
        r.seek(0);
        assert_eq!(&r.read_exact(3).unwrap()[..], b"012");
    }

    #[test]
    fn delete_reclaims_blocks() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"some data here").unwrap();
        dfs.delete("f").unwrap();
        assert!(!dfs.exists("f"));
        assert!(matches!(dfs.len("f"), Err(Error::FileNotFound(_))));
    }

    #[test]
    fn rename_moves_metadata() {
        let dfs = small_dfs();
        dfs.create("tmp/seg").unwrap();
        dfs.append("tmp/seg", b"sorted").unwrap();
        dfs.rename("tmp/seg", "log/seg").unwrap();
        assert_eq!(&dfs.read_all("log/seg").unwrap()[..], b"sorted");
    }

    #[test]
    fn sealed_file_rejects_append_but_reads_fine() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"data").unwrap();
        dfs.seal("f").unwrap();
        assert!(dfs.append("f", b"more").is_err());
        assert_eq!(&dfs.read_all("f").unwrap()[..], b"data");
    }

    #[test]
    fn disk_backend_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let dfs = Dfs::new(DfsConfig::on_disk(dir.path(), 3, 2).with_chunk_size(32));
        dfs.create("wal/seg-1").unwrap();
        let payload: Vec<u8> = (0..=255u8).collect();
        dfs.append("wal/seg-1", &payload).unwrap();
        assert_eq!(&dfs.read_all("wal/seg-1").unwrap()[..], &payload[..]);
        assert_eq!(
            &dfs.read("wal/seg-1", 100, 28).unwrap()[..],
            &payload[100..128]
        );
    }

    #[test]
    fn concurrent_appends_interleave_without_loss() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2).with_chunk_size(64));
        dfs.create("f").unwrap();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let dfs = dfs.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        dfs.append("f", &[t; 10]).unwrap();
                    }
                });
            }
        });
        let all = dfs.read_all("f").unwrap();
        assert_eq!(all.len(), 4 * 50 * 10);
        // Each 10-byte record is homogeneous: appends never interleave
        // within a record.
        for rec in all.chunks(10) {
            assert!(rec.iter().all(|b| *b == rec[0]));
        }
    }

    #[test]
    fn rereplication_restores_replica_count() {
        // 4 nodes, replication 3: losing one node leaves some chunks
        // under-replicated; rereplicate() heals them onto the 4th node.
        let dfs = Dfs::new(DfsConfig::in_memory(4, 3).with_chunk_size(16));
        dfs.create("f").unwrap();
        dfs.append("f", &[7u8; 100]).unwrap();
        assert_eq!(dfs.under_replicated_chunks(), 0);
        dfs.kill_node(0);
        // Memory nodes lose their blocks permanently on restart; treat
        // node 0 as gone.
        let under = dfs.under_replicated_chunks();
        assert!(under > 0, "killing a node should under-replicate chunks");
        let created = dfs.rereplicate().unwrap();
        assert_eq!(created, under);
        assert_eq!(dfs.under_replicated_chunks(), 0);
        // Data still correct, and now survives losing another original
        // replica too.
        dfs.kill_node(1);
        assert_eq!(&dfs.read_all("f").unwrap()[..], &[7u8; 100][..]);
    }

    #[test]
    fn rereplication_skips_chunks_with_no_live_replica() {
        let dfs = Dfs::new(
            DfsConfig::in_memory(3, 2)
                .with_chunk_size(1024)
                .with_retry(RetryPolicy::no_delay(2)),
        );
        dfs.create("f").unwrap();
        dfs.append("f", b"data").unwrap();
        let meta = dfs.stat("f").unwrap();
        for r in &meta.chunks[0].replicas {
            dfs.kill_node(*r);
        }
        // Both replicas gone: nothing to heal from.
        assert_eq!(dfs.rereplicate().unwrap(), 0);
        assert!(dfs.read_all("f").is_err());
    }

    #[test]
    fn metrics_count_replicated_bytes() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", &[0u8; 100]).unwrap();
        let snap = dfs.metrics().snapshot();
        assert_eq!(snap.dfs_appends, 1);
        assert_eq!(snap.seq_bytes_written, 300); // 100 bytes × 3 replicas
    }

    #[test]
    fn memory_backend_restart_loses_replica_but_file_survives() {
        let dfs = small_dfs();
        dfs.create("f").unwrap();
        dfs.append("f", b"abc").unwrap();
        dfs.kill_node(1);
        dfs.restart_node(1); // memory node comes back empty
        assert_eq!(&dfs.read_all("f").unwrap()[..], b"abc");
    }

    #[test]
    fn backend_enum_is_exposed() {
        let dfs = small_dfs();
        assert!(matches!(dfs.config().backend, StorageBackend::Memory));
    }

    #[test]
    fn append_replaces_crashed_replica_mid_pipeline() {
        // 5 nodes, replication 3: node 1 crashes on its first append.
        // The pipeline must exclude it, bring in a replacement and ack a
        // fully-replicated write.
        let dfs = Dfs::new(
            DfsConfig::in_memory(5, 3)
                .with_chunk_size(64)
                .with_retry(RetryPolicy::no_delay(2)),
        );
        dfs.fault_injector().set_spec(
            1,
            OpClass::Append,
            FaultSpec::default().with_scheduled(1, ScheduledFault::Crash),
        );
        dfs.create("f").unwrap();
        dfs.append("f", &[9u8; 40]).unwrap();
        let meta = dfs.stat("f").unwrap();
        for c in &meta.chunks {
            assert_eq!(c.replicas.len(), 3);
            assert!(!c.replicas.contains(&1), "crashed node still a replica");
            for &r in &c.replicas {
                assert_eq!(dfs.node(r).block_len(c.block).unwrap(), c.len);
            }
        }
        assert_eq!(dfs.under_replicated_chunks(), 0);
        assert_eq!(&dfs.read_all("f").unwrap()[..], &[9u8; 40][..]);
    }

    #[test]
    fn torn_append_is_healed_by_replacement() {
        // Node 0 tears its copy (persists 5 of 40 bytes) and dies. The
        // acknowledged write must still land complete on 3 replicas, and
        // the torn copy must never be served.
        let dfs = Dfs::new(
            DfsConfig::in_memory(5, 3)
                .with_chunk_size(1024)
                .with_retry(RetryPolicy::no_delay(2)),
        );
        dfs.create("f").unwrap();
        dfs.append("f", &[1u8; 20]).unwrap(); // committed base data
        dfs.fault_injector().set_spec(
            0,
            OpClass::Append,
            FaultSpec::default().with_scheduled(1, ScheduledFault::TornAppend { keep: 5 }),
        );
        dfs.append("f", &[2u8; 40]).unwrap();
        let meta = dfs.stat("f").unwrap();
        let c = &meta.chunks[0];
        assert_eq!(c.len, 60);
        for &r in &c.replicas {
            // Only count replicas that took both writes; node 0 may or
            // may not be in the set depending on placement, but if it is,
            // it must have been replaced (it died on the torn write).
            assert!(dfs.node(r).is_alive());
            assert_eq!(dfs.node(r).block_len(c.block).unwrap(), 60);
        }
        let all = dfs.read_all("f").unwrap();
        assert_eq!(&all[..20], &[1u8; 20][..]);
        assert_eq!(&all[20..], &[2u8; 40][..]);
    }

    #[test]
    fn transient_append_faults_are_retried() {
        let dfs = Dfs::new(
            DfsConfig::in_memory(3, 3)
                .with_chunk_size(256)
                .with_fault_seed(7)
                .with_retry(RetryPolicy::no_delay(6)),
        );
        // Every node flakes 30% of the time on append; retries must make
        // every write land anyway (same node retried until it takes it).
        for n in 0..3 {
            dfs.fault_injector()
                .set_spec(n, OpClass::Append, FaultSpec::transient(0.3));
        }
        dfs.create("f").unwrap();
        let mut expect = Vec::new();
        for i in 0..30u8 {
            dfs.append("f", &[i; 10]).unwrap();
            expect.extend_from_slice(&[i; 10]);
        }
        dfs.fault_injector().clear();
        assert_eq!(&dfs.read_all("f").unwrap()[..], &expect[..]);
        assert!(dfs.metrics().snapshot().dfs_retries > 0);
    }

    #[test]
    fn corrupt_replica_is_quarantined_and_repaired() {
        let dfs = Dfs::new(
            DfsConfig::in_memory(3, 2)
                .with_chunk_size(1024)
                .with_retry(RetryPolicy::no_delay(3)),
        );
        dfs.create("f").unwrap();
        dfs.append("f", &[5u8; 600]).unwrap();
        let c = dfs.stat("f").unwrap().chunks[0].clone();
        let first = c.replicas[0];
        // Flip a bit in the first replica on its next read.
        dfs.fault_injector().set_spec(
            first,
            OpClass::Read,
            FaultSpec::default().with_scheduled(1, ScheduledFault::BitFlip),
        );
        // The read fails over to the healthy replica and quarantines the
        // corrupt copy.
        assert_eq!(&dfs.read("f", 0, 600).unwrap()[..], &[5u8; 600][..]);
        let snap = dfs.metrics().snapshot();
        assert!(snap.corrupt_reads_recovered >= 1);
        assert!(!dfs.node(first).has_block(c.block), "corrupt copy kept");
        assert_eq!(dfs.under_replicated_chunks(), 1);
        // Repair restores full replication from the healthy copy.
        dfs.fault_injector().clear();
        assert_eq!(dfs.rereplicate().unwrap(), 1);
        assert_eq!(dfs.under_replicated_chunks(), 0);
        assert_eq!(&dfs.read("f", 0, 600).unwrap()[..], &[5u8; 600][..]);
    }

    #[test]
    fn orphan_sweep_reclaims_blocks_deleted_while_down() {
        let dir = tempfile::tempdir().unwrap();
        let dfs = Dfs::new(DfsConfig::on_disk(dir.path(), 3, 3).with_chunk_size(32));
        dfs.create("doomed").unwrap();
        dfs.create("kept").unwrap();
        dfs.append("doomed", &[1u8; 100]).unwrap();
        dfs.append("kept", &[2u8; 50]).unwrap();
        let doomed_blocks: Vec<BlockId> = dfs
            .stat("doomed")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.block)
            .collect();
        dfs.kill_node(0);
        // Node 0 misses the delete: its replicas of "doomed" leak.
        dfs.delete("doomed").unwrap();
        for b in &doomed_blocks {
            assert!(
                dfs.node_blocks(0).contains(b),
                "dead node should still hold the orphaned block on disk"
            );
        }
        // Restart files a block report; the sweep reclaims the orphans
        // but keeps blocks of live files.
        dfs.restart_node(0);
        let after = dfs.node_blocks(0);
        for b in &doomed_blocks {
            assert!(!after.contains(b), "orphan {b} survived the sweep");
        }
        let kept_blocks: Vec<BlockId> = dfs
            .stat("kept")
            .unwrap()
            .chunks
            .iter()
            .map(|c| c.block)
            .collect();
        for b in &kept_blocks {
            assert!(after.contains(b), "live block {b} was swept");
        }
        assert_eq!(&dfs.read_all("kept").unwrap()[..], &[2u8; 50][..]);
    }

    #[test]
    fn auto_repair_heals_lost_replicas_in_background() {
        let dfs = Dfs::new(
            DfsConfig::in_memory(4, 3)
                .with_chunk_size(64)
                .with_auto_repair(std::time::Duration::from_millis(5)),
        );
        dfs.create("f").unwrap();
        dfs.append("f", &[3u8; 200]).unwrap();
        dfs.kill_node(0);
        assert!(dfs.under_replicated_chunks() > 0);
        // The background thread must converge without any manual call.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while dfs.under_replicated_chunks() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto-repair did not converge"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = dfs.metrics().snapshot();
        assert!(snap.repairs_triggered >= 1);
        assert!(snap.replicas_repaired >= 1);
        dfs.kill_node(1);
        assert_eq!(&dfs.read_all("f").unwrap()[..], &[3u8; 200][..]);
    }

    #[test]
    fn failed_append_rolls_back_partial_replicas() {
        // Replication 3 on exactly 3 nodes: when one node dies mid-append
        // there is no replacement, so the append must fail AND leave no
        // partial bytes behind (the next append must not diverge).
        let dfs = Dfs::new(
            DfsConfig::in_memory(3, 3)
                .with_chunk_size(1024)
                .with_retry(RetryPolicy::no_delay(2)),
        );
        dfs.create("f").unwrap();
        dfs.append("f", &[1u8; 10]).unwrap();
        dfs.fault_injector().set_spec(
            2,
            OpClass::Append,
            FaultSpec::default().with_scheduled(1, ScheduledFault::Crash),
        );
        let err = dfs.append("f", &[2u8; 10]).unwrap_err();
        assert!(matches!(err, Error::InsufficientReplicas { .. }));
        assert_eq!(dfs.len("f").unwrap(), 10, "failed append changed length");
        let c = dfs.stat("f").unwrap().chunks[0].clone();
        for &r in &c.replicas {
            if dfs.node(r).is_alive() {
                assert_eq!(
                    dfs.node(r).block_len(c.block).unwrap(),
                    10,
                    "partial write on dn-{r} survived rollback"
                );
            }
        }
        // Cluster heals after the dead node returns.
        dfs.fault_injector().clear();
        dfs.restart_node(2);
        dfs.append("f", &[3u8; 10]).unwrap();
        let all = dfs.read_all("f").unwrap();
        assert_eq!(&all[..10], &[1u8; 10][..]);
        assert_eq!(&all[10..], &[3u8; 10][..]);
    }
}
