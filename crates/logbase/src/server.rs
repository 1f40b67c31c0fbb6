//! The tablet server (§3.3, §3.6, §3.8).
//!
//! One [`TabletServer`] owns a single log instance in the DFS, a set of
//! tablets (each with one multiversion index per column group), an
//! optional read buffer, a transaction manager and the checkpoint /
//! recovery machinery. Everything a server knows can be rebuilt from its
//! log — the log *is* the database.

use crate::checkpoint::{
    self, checkpoint_dir, index_file_name, CheckpointMeta, TableMeta, TabletMeta,
};
use crate::read_buffer::ReadBuffer;
use crate::segdir::SegmentDirectory;
use crate::spill::SpillConfig;
use crate::tablet::{TableState, TabletState};
use logbase_common::engine::{ScanItem, StorageEngine};
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::schema::{KeyRange, TableSchema, TabletDesc, TabletId};
use logbase_common::{Error, LogPtr, Lsn, Record, Result, RowKey, Timestamp, Value};
use logbase_coordination::{FencingToken, LockService, TimestampOracle};
use logbase_dfs::Dfs;
use logbase_index::IndexEntry;
use logbase_wal::{
    Compression, GroupCommitConfig, GroupCommitLog, LogConfig, LogEntryKind, LogWriter,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tablet-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server name; prefixes every DFS path the server writes.
    pub name: String,
    /// Log segment rotation threshold.
    pub segment_bytes: u64,
    /// Read-buffer budget in bytes; 0 disables the buffer (§3.6.1: the
    /// read buffer "is only an optional component").
    pub read_buffer_bytes: u64,
    /// Updates per column-group index that trigger an automatic
    /// checkpoint; 0 = checkpoint only on demand (§3.6.1).
    pub checkpoint_threshold: u64,
    /// Group-commit batching knobs (§3.7.2).
    pub group_commit: GroupCommitConfig,
    /// Per-batch log compression codec. Compressed and raw frames
    /// coexist in one log, so the setting can change across restarts
    /// without any migration of existing segments.
    pub wal_compression: Compression,
    /// When set, indexes spill to an LSM disk tier once over budget.
    pub spill: Option<SpillConfig>,
    /// Range scans coalesce pointer reads whose gap is below this many
    /// bytes into one DFS read (pays off after compaction clusters data).
    pub scan_coalesce_gap: u64,
    /// Worker threads for range/full scans: index probes fan out over
    /// tablets and record fetches fan out over coalesced segment runs,
    /// merging in key order. `0` = available parallelism; `1` = fully
    /// sequential scans. Results are byte-identical at any setting.
    pub scan_threads: usize,
    /// When set, a cost-aware background compaction service starts with
    /// the server (see [`crate::scheduler`]); its rate limit is
    /// installed as the maintenance I/O budget.
    pub compaction_scheduler: Option<crate::scheduler::CompactionSchedulerConfig>,
}

impl ServerConfig {
    /// Paper-default configuration for a server named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ServerConfig {
            name: name.into(),
            segment_bytes: logbase_common::config::DEFAULT_SEGMENT_BYTES,
            read_buffer_bytes: 16 * 1024 * 1024,
            checkpoint_threshold: 0,
            group_commit: GroupCommitConfig::default(),
            wal_compression: Compression::None,
            spill: None,
            scan_coalesce_gap: 64 * 1024,
            scan_threads: 0,
            compaction_scheduler: None,
        }
    }

    /// Builder-style segment-size override.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Builder-style log-compression override.
    #[must_use]
    pub fn with_wal_compression(mut self, compression: Compression) -> Self {
        self.wal_compression = compression;
        self
    }

    /// Builder-style read-buffer override (0 disables).
    #[must_use]
    pub fn with_read_buffer(mut self, bytes: u64) -> Self {
        self.read_buffer_bytes = bytes;
        self
    }

    /// Builder-style checkpoint-threshold override.
    #[must_use]
    pub fn with_checkpoint_threshold(mut self, updates: u64) -> Self {
        self.checkpoint_threshold = updates;
        self
    }

    /// Builder-style spill-mode override.
    #[must_use]
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Builder-style scan-thread override (0 = available parallelism,
    /// 1 = sequential).
    #[must_use]
    pub fn with_scan_threads(mut self, threads: usize) -> Self {
        self.scan_threads = threads;
        self
    }

    /// Builder-style background-compaction service override.
    #[must_use]
    pub fn with_compaction_scheduler(
        mut self,
        scheduler: crate::scheduler::CompactionSchedulerConfig,
    ) -> Self {
        self.compaction_scheduler = Some(scheduler);
        self
    }
}

/// Released tablet contents: `(column group, latest records)` pairs.
pub type TabletContents = Vec<(u16, Vec<ScanItem>)>;

/// Operational statistics of one server.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Total index entries across tablets and column groups (memory tier).
    pub index_entries: u64,
    /// Accounted index heap bytes (memory tier; `IndexStats::approx_bytes`).
    pub index_bytes: u64,
    /// Read-buffer `(hits, misses)`.
    pub read_buffer: (u64, u64),
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Current log segment.
    pub log_segment: u32,
}

/// The LogBase tablet server.
pub struct TabletServer {
    pub(crate) dfs: Dfs,
    pub(crate) config: ServerConfig,
    pub(crate) log: GroupCommitLog,
    pub(crate) segdir: SegmentDirectory,
    pub(crate) tables: RwLock<HashMap<String, Arc<TableState>>>,
    pub(crate) read_buffer: Option<ReadBuffer>,
    pub(crate) oracle: TimestampOracle,
    pub(crate) locks: LockService,
    /// Transaction history recorder (isolation checking); `None` unless
    /// installed via [`TabletServer::set_history_recorder`]. The atomic
    /// flag keeps the disabled-state cost to one relaxed load.
    history: RwLock<Option<Arc<crate::history::HistoryRecorder>>>,
    history_enabled: AtomicBool,
    /// First-committer-wins validation switch; always on in production.
    /// Tests flip it off to seed lost-update anomalies the SI checker
    /// must catch.
    validate_writes: AtomicBool,
    ckpt_seq: AtomicU64,
    checkpoints_taken: AtomicU64,
    pub(crate) compactions_run: AtomicU64,
    /// Serializes checkpoint/compaction against each other.
    pub(crate) maintenance: Mutex<()>,
    /// Write barrier: every data write holds it shared across its
    /// [log append → index update] window; the checkpoint holds it
    /// exclusively while capturing the redo start position, so no log
    /// record below that position can be missing from the indexes being
    /// persisted (otherwise an acknowledged write could be lost — redo
    /// would start past it while the index checkpoint predates it).
    pub(crate) write_barrier: RwLock<()>,
    /// Fencing token of the server's registry session, when the cluster
    /// layer runs lease-based membership. Guards the log (via the
    /// writer's gate) and checkpoint/compaction DFS writes.
    fencing: RwLock<Option<FencingToken>>,
    secondary: crate::secondary::SecondaryRegistry,
    /// What startup GC did when this server was opened (all-zero for a
    /// freshly created server).
    gc_report: Mutex<crate::gc::GcReport>,
    /// Token bucket draining compaction/log-GC bulk I/O; `None` runs
    /// maintenance unthrottled.
    maintenance_limiter: RwLock<Option<Arc<logbase_common::RateLimiter>>>,
    /// Handle of the auto-started background compaction service.
    scheduler: Mutex<Option<crate::scheduler::SchedulerHandle>>,
}

impl TabletServer {
    /// Create a brand-new server (fresh log).
    pub fn create(dfs: Dfs, config: ServerConfig) -> Result<Arc<Self>> {
        Self::create_with(dfs, config, TimestampOracle::new(), LockService::new())
    }

    /// Create a new server sharing a cluster-wide oracle and lock service.
    pub fn create_with(
        dfs: Dfs,
        config: ServerConfig,
        oracle: TimestampOracle,
        locks: LockService,
    ) -> Result<Arc<Self>> {
        let log_prefix = format!("{}/log", config.name);
        let writer = Arc::new(LogWriter::create(
            dfs.clone(),
            LogConfig::new(&log_prefix)
                .with_segment_bytes(config.segment_bytes)
                .with_compression(config.wal_compression),
        )?);
        let server = Arc::new(Self::assemble(dfs, config, writer, oracle, locks));
        Self::start_services(&server);
        Ok(server)
    }

    fn assemble(
        dfs: Dfs,
        config: ServerConfig,
        writer: Arc<LogWriter>,
        oracle: TimestampOracle,
        locks: LockService,
    ) -> Self {
        let log_prefix = format!("{}/log", config.name);
        let read_buffer =
            (config.read_buffer_bytes > 0).then(|| ReadBuffer::lru(config.read_buffer_bytes));
        TabletServer {
            segdir: SegmentDirectory::new(log_prefix),
            log: GroupCommitLog::new(writer, config.group_commit.clone()),
            tables: RwLock::new(HashMap::new()),
            read_buffer,
            oracle,
            locks,
            history: RwLock::new(None),
            history_enabled: AtomicBool::new(false),
            validate_writes: AtomicBool::new(true),
            ckpt_seq: AtomicU64::new(0),
            checkpoints_taken: AtomicU64::new(0),
            compactions_run: AtomicU64::new(0),
            maintenance: Mutex::new(()),
            write_barrier: RwLock::new(()),
            fencing: RwLock::new(None),
            secondary: crate::secondary::SecondaryRegistry::default(),
            gc_report: Mutex::new(crate::gc::GcReport::default()),
            maintenance_limiter: RwLock::new(None),
            scheduler: Mutex::new(None),
            dfs,
            config,
        }
    }

    /// Install the configured maintenance rate limit and start the
    /// background compaction service, when the config asks for one.
    fn start_services(server: &Arc<Self>) {
        let Some(sched) = server.config.compaction_scheduler.clone() else {
            return;
        };
        server.set_maintenance_rate(sched.rate_limit_bytes_per_sec);
        let handle = crate::scheduler::start(server, sched);
        *server.scheduler.lock() = Some(handle);
    }

    /// Cap compaction/log-GC bulk I/O at `bytes_per_sec` (token bucket
    /// with a one-second burst); `None` removes the cap. Foreground
    /// reads and writes are never throttled.
    pub fn set_maintenance_rate(&self, bytes_per_sec: Option<u64>) {
        *self.maintenance_limiter.write() =
            bytes_per_sec.map(|bps| Arc::new(logbase_common::RateLimiter::per_sec(bps)));
    }

    /// DFS handle maintenance bulk I/O should go through: rate-limited
    /// when a maintenance budget is installed, the plain handle
    /// otherwise.
    pub(crate) fn maintenance_dfs(&self) -> Dfs {
        match &*self.maintenance_limiter.read() {
            Some(l) => self.dfs.rate_limited(Arc::clone(l)),
            None => self.dfs.clone(),
        }
    }

    /// Stop the background compaction service, if one is running
    /// (idempotent; also happens implicitly when the server drops).
    pub fn stop_scheduler(&self) {
        if let Some(handle) = self.scheduler.lock().take() {
            handle.stop();
        }
    }

    /// Sequence number of the currently open (append-target) log
    /// segment; everything below it is sealed.
    pub(crate) fn open_log_segment(&self) -> u32 {
        self.log.writer().current_segment()
    }

    /// Snapshot of the sorted-segment directory (scheduler input).
    pub(crate) fn sorted_snapshot(&self) -> Vec<(u32, String)> {
        self.segdir.snapshot()
    }

    /// Cumulative reads recorded against `segment` (scheduler input).
    pub(crate) fn segment_heat(&self, segment: u32) -> u64 {
        self.segdir.heat(segment)
    }

    /// The report from the startup GC pass [`TabletServer::open`] ran
    /// (orphans deleted, partial checkpoints removed, interrupted
    /// maintenance rolled forward or back).
    pub fn startup_gc_report(&self) -> crate::gc::GcReport {
        self.gc_report.lock().clone()
    }

    /// Audit this server's DFS files and return the unreachable ones
    /// (see [`crate::gc::fsck`]). Empty after a clean recovery.
    pub fn fsck(&self) -> Vec<String> {
        crate::gc::fsck(&self.dfs, &self.config.name, &self.segdir)
    }

    /// The server's metrics sink (shared with its DFS).
    pub fn metrics(&self) -> &MetricsHandle {
        self.dfs.metrics()
    }

    /// Install (or replace, after re-registration) the server's fencing
    /// token. Every log append from now on is admitted only while the
    /// token validates; a session expiry turns the server into a fenced
    /// zombie whose writes fail with `Error::Fenced`.
    pub fn set_fencing(&self, token: FencingToken) {
        *self.fencing.write() = Some(token.clone());
        let metrics = Arc::clone(self.metrics());
        self.log.writer().set_gate(Arc::new(move || {
            token.check().inspect_err(|_| {
                Metrics::incr(&metrics.fenced_writes_rejected);
            })
        }));
    }

    /// Check the fencing token (no-op when fencing is not configured).
    /// Maintenance paths (checkpoint, compaction) call this before
    /// touching DFS files outside the log append path.
    pub fn check_fenced(&self) -> Result<()> {
        if let Some(token) = self.fencing.read().clone() {
            token.check().inspect_err(|_| {
                Metrics::incr(&self.metrics().fenced_writes_rejected);
            })?;
        }
        Ok(())
    }

    /// The server's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The cluster timestamp oracle in use.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Install a transaction history recorder (isolation checking). The
    /// same recorder may be shared by every server of a cluster. Pass
    /// `None` to disable recording again.
    pub fn set_history_recorder(&self, rec: Option<Arc<crate::history::HistoryRecorder>>) {
        if let Some(rec) = &rec {
            // Versions at or below the current oracle position predate
            // the recorded history (setup writes, earlier epochs).
            rec.note_baseline(self.oracle.current());
        }
        self.history_enabled.store(rec.is_some(), Ordering::Release);
        *self.history.write() = rec;
    }

    /// The installed history recorder, if recording is on. Hot paths
    /// call this once per hook site; the disabled state costs a single
    /// relaxed atomic load.
    pub fn history_recorder(&self) -> Option<Arc<crate::history::HistoryRecorder>> {
        if !self.history_enabled.load(Ordering::Relaxed) {
            return None;
        }
        self.history.read().clone()
    }

    /// Whether first-committer-wins validation is on (always, outside
    /// checker self-tests).
    pub(crate) fn validation_enabled(&self) -> bool {
        self.validate_writes.load(Ordering::Relaxed)
    }

    /// Disable (or re-enable) commit validation. Exists solely so the SI
    /// checker's self-test can seed a lost-update anomaly and prove it
    /// detects one; never call this outside tests.
    #[doc(hidden)]
    pub fn set_validation_enabled_for_tests(&self, on: bool) {
        self.validate_writes.store(on, Ordering::Relaxed);
    }

    /// The underlying DFS handle.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Sequence number the *next* checkpoint will take. Restored from
    /// the latest checkpoint at recovery, so names derived from it never
    /// collide across server lifetimes (compaction uses it to name
    /// sorted-segment generations).
    pub(crate) fn next_checkpoint_seq(&self) -> u64 {
        self.ckpt_seq.load(Ordering::Relaxed) + 1
    }

    /// The secondary-index registry (§5 future-work extension).
    pub(crate) fn secondary(&self) -> &crate::secondary::SecondaryRegistry {
        &self.secondary
    }

    /// Resolve a pointer's segment id to its DFS file name (secondary
    /// index lookups fetch records the same way the primary path does).
    pub(crate) fn resolve_segment(&self, segment: u32) -> String {
        self.segdir.resolve(segment)
    }

    /// Direct access to the group-commit log — test-only hook used to
    /// forge partial transaction states (e.g. a write without its commit
    /// record) that the public API can never produce.
    #[doc(hidden)]
    pub fn log_for_tests(&self) -> &GroupCommitLog {
        &self.log
    }

    // ------------------------------------------------------------------
    // Schema & tablet management
    // ------------------------------------------------------------------

    /// Create a table and serve its whole key range as one tablet.
    /// The schema is logged (a DDL record), so it survives a crash even
    /// before the first checkpoint.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.log_schema(&schema)?;
        self.create_table_unlogged(schema)
    }

    pub(crate) fn create_table_unlogged(&self, schema: TableSchema) -> Result<()> {
        let name = schema.name.clone();
        let table = Arc::new(TableState::new(schema)?);
        let desc = TabletDesc {
            id: TabletId {
                table: name.clone(),
                range_index: 0,
            },
            range: KeyRange::all(),
        };
        table.add_tablet(Arc::new(self.new_tablet_state(desc, &table.schema)?));
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::Schema(format!("table {name} already exists")));
        }
        tables.insert(name, table);
        Ok(())
    }

    fn log_schema(&self, schema: &TableSchema) -> Result<()> {
        let schema_json = serde_json::to_string(schema)
            .map_err(|e| Error::Schema(format!("schema serialization failed: {e}")))?;
        self.log
            .append(&schema.name, LogEntryKind::Schema { schema_json })?;
        Ok(())
    }

    /// Register a table without tablets (the cluster layer assigns them).
    pub fn register_table(&self, schema: TableSchema) -> Result<()> {
        self.log_schema(&schema)?;
        let name = schema.name.clone();
        let table = Arc::new(TableState::new(schema)?);
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::Schema(format!("table {name} already exists")));
        }
        tables.insert(name, table);
        Ok(())
    }

    /// Assign a tablet to this server.
    pub fn assign_tablet(&self, desc: TabletDesc) -> Result<()> {
        let table = self.table(&desc.id.table)?;
        if table.tablet(desc.id.range_index).is_some() {
            return Err(Error::Schema(format!(
                "tablet {} already assigned",
                desc.id
            )));
        }
        table.add_tablet(Arc::new(self.new_tablet_state(desc, &table.schema)?));
        Ok(())
    }

    fn new_tablet_state(&self, desc: TabletDesc, schema: &TableSchema) -> Result<TabletState> {
        TabletState::new(
            desc,
            schema,
            self.config
                .spill
                .as_ref()
                .map(|cfg| (&self.dfs, cfg, self.config.name.as_str())),
        )
    }

    pub(crate) fn table(&self, name: &str) -> Result<Arc<TableState>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::Schema(format!("unknown table {name}")))
    }

    /// Descriptors of the tablets this server serves for `table`.
    pub fn tablet_descs(&self, table: &str) -> Vec<TabletDesc> {
        self.table(table)
            .map(|t| {
                t.tablets_snapshot()
                    .iter()
                    .map(|tab| tab.desc.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Names of hosted tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------------
    // Data operations (§3.6)
    // ------------------------------------------------------------------

    /// Insert or update one record. Appends to the log (group-commit),
    /// then updates the in-memory index and read buffer (§3.6.1).
    pub fn put(&self, table: &str, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(&key)?;
        let index = Arc::clone(tablet.index(cg)?);
        // Reservation: transaction snapshots exclude this timestamp until
        // the index update below lands, so no snapshot reads a version
        // that is durable in the log but not yet visible in the index.
        let reservation = self.oracle.reserve();
        let ts = reservation.timestamp();
        let record = Record::put(key.clone(), cg, ts, value.clone());
        let barrier = self.write_barrier.read();
        let (_, ptr) = self.log.append(
            table,
            LogEntryKind::Write {
                txn_id: 0,
                tablet: tablet.desc.id.range_index,
                record,
            },
        )?;
        index.insert(&key, ts, ptr)?;
        drop(barrier);
        drop(reservation);
        for sec in self.secondary.of(table, cg) {
            sec.insert(&key, ts, &value, ptr);
        }
        if let Some(rb) = &self.read_buffer {
            rb.put(&table_state.name, cg, &key, ts, Some(value));
        }
        Metrics::incr(&self.metrics().records_written);
        self.maybe_auto_checkpoint(&index)?;
        Ok(ts)
    }

    /// Ingest a record with an externally assigned version timestamp —
    /// the tablet-migration path: when a tablet moves between servers,
    /// the recipient re-appends the records to *its own* log (the
    /// paper's log-splitting, §3.8) while preserving their original
    /// commit timestamps so multiversion reads stay correct.
    pub fn ingest_record(
        &self,
        table: &str,
        cg: u16,
        key: RowKey,
        ts: Timestamp,
        value: Value,
    ) -> Result<()> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(&key)?;
        let index = Arc::clone(tablet.index(cg)?);
        let record = Record::put(key.clone(), cg, ts, value);
        let barrier = self.write_barrier.read();
        let (_, ptr) = self.log.append(
            table,
            LogEntryKind::Write {
                txn_id: 0,
                tablet: tablet.desc.id.range_index,
                record,
            },
        )?;
        index.insert(&key, ts, ptr)?;
        drop(barrier);
        self.oracle.advance_to(ts);
        Ok(())
    }

    /// Hand a tablet off: remove it from this server's serving set and
    /// return its descriptor plus the latest version of every record it
    /// holds (per column group), for the recipient to ingest.
    pub fn release_tablet(
        &self,
        table: &str,
        range_index: u32,
    ) -> Result<(TabletDesc, TabletContents)> {
        let table_state = self.table(table)?;
        let tablet = table_state.remove_tablet(range_index).ok_or_else(|| {
            Error::TabletNotServed(format!("{table}/{range_index} not served here"))
        })?;
        let mut contents = Vec::new();
        for (cg, index) in tablet.indexes.iter().enumerate() {
            let entries = index.range_latest_at(&tablet.desc.range, Timestamp::MAX, usize::MAX)?;
            let items = self.fetch_entries(entries)?;
            contents.push((cg as u16, items));
        }
        Ok((tablet.desc.clone(), contents))
    }

    /// Shrink a served tablet to `new_range`, pruning moved keys from
    /// its in-memory indexes (the donor side of a tablet handoff).
    pub fn resize_tablet(&self, table: &str, range_index: u32, new_range: KeyRange) -> Result<()> {
        let table_state = self.table(table)?;
        let tablet = table_state.replace_tablet_range(range_index, new_range.clone())?;
        for index in &tablet.indexes {
            index.retain_range(&new_range);
        }
        Ok(())
    }

    fn maybe_auto_checkpoint(&self, index: &crate::spill::SpillableIndex) -> Result<()> {
        let threshold = self.config.checkpoint_threshold;
        if threshold > 0 && index.mem().updates_since_checkpoint() >= threshold {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Latest visible value of `key` (§3.6.2).
    pub fn get(&self, table: &str, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        self.get_at(table, cg, key, Timestamp::MAX)
    }

    /// Value of `key` visible at `at` (multiversion read).
    pub fn get_at(&self, table: &str, cg: u16, key: &[u8], at: Timestamp) -> Result<Option<Value>> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(key)?;
        let index = tablet.index(cg)?;
        let Some(vp) = index.latest_at(key, at)? else {
            return Ok(None);
        };
        Metrics::incr(&self.metrics().records_read);
        // Hot/cold accounting for the compaction scheduler: the visible
        // version's segment took read interest, cache hit or not.
        self.segdir.record_read(vp.ptr.segment);
        // Read-buffer hit only when it caches exactly the visible version.
        if let Some(rb) = &self.read_buffer {
            if let Some((ts, value)) = rb.get(&table_state.name, cg, key) {
                if ts == vp.ts {
                    Metrics::incr(&self.metrics().cache_hits);
                    return Ok(value);
                }
            }
            Metrics::incr(&self.metrics().cache_misses);
        }
        let entry =
            logbase_wal::read_entry_in(&self.dfs, &self.segdir.resolve(vp.ptr.segment), vp.ptr)?;
        let (record, _, _) = entry.as_write().ok_or_else(|| {
            Error::Corruption(format!(
                "index pointer {} does not address a write entry",
                vp.ptr
            ))
        })?;
        let value = record.value.clone();
        if let Some(rb) = &self.read_buffer {
            rb.put(&table_state.name, cg, key, vp.ts, value.clone());
        }
        Ok(value)
    }

    /// Version timestamp of the latest visible write of `key` (used by
    /// transaction validation; `None` when the key has no version).
    pub fn latest_version(&self, table: &str, cg: u16, key: &[u8]) -> Result<Option<Timestamp>> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(key)?;
        Ok(tablet.index(cg)?.latest(key)?.map(|vp| vp.ts))
    }

    /// Delete a record (§3.6.3): drop its index entries, then persist an
    /// invalidated log entry so the delete survives recovery.
    pub fn delete(&self, table: &str, cg: u16, key: &[u8]) -> Result<()> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(key)?;
        let index = tablet.index(cg)?;
        let reservation = self.oracle.reserve();
        let ts = reservation.timestamp();
        let record = Record::tombstone(RowKey::copy_from_slice(key), cg, ts);
        let barrier = self.write_barrier.read();
        self.log.append(
            table,
            LogEntryKind::Write {
                txn_id: 0,
                tablet: tablet.desc.id.range_index,
                record,
            },
        )?;
        index.remove_key(key)?;
        drop(barrier);
        drop(reservation);
        if let Some(rb) = &self.read_buffer {
            rb.invalidate(&table_state.name, cg, key);
        }
        Ok(())
    }

    /// Range scan (§3.6.4): probe the index for the latest version of
    /// each key in `range`, then fetch the records from the log,
    /// coalescing adjacent pointers into shared DFS reads.
    pub fn range_scan(
        &self,
        table: &str,
        cg: u16,
        range: &KeyRange,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        self.range_scan_at(table, cg, range, Timestamp::MAX, limit)
    }

    /// Range scan at snapshot `at`.
    pub fn range_scan_at(
        &self,
        table: &str,
        cg: u16,
        range: &KeyRange,
        at: Timestamp,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        self.range_scan_at_threads(table, cg, range, at, limit, self.resolved_scan_threads())
    }

    /// Effective scan worker count (`scan_threads`, 0 = parallelism).
    fn resolved_scan_threads(&self) -> usize {
        match self.config.scan_threads {
            0 => logbase_common::config::default_parallelism(),
            n => n,
        }
    }

    /// [`TabletServer::range_scan_at`] with an explicit worker count.
    /// Index probes fan out over tablets and record fetches over
    /// coalesced segment runs; tablets serve disjoint sorted key ranges,
    /// so concatenating per-tablet results in range order *is* the key
    /// order merge, and results are byte-identical at any thread count
    /// (the benchmark ablation and scan-correctness tests rely on this).
    #[doc(hidden)]
    pub fn range_scan_at_threads(
        &self,
        table: &str,
        cg: u16,
        range: &KeyRange,
        at: Timestamp,
        limit: usize,
        threads: usize,
    ) -> Result<Vec<ScanItem>> {
        let table_state = self.table(table)?;
        let mut tablets = table_state.tablets_snapshot();
        tablets.sort_by(|a, b| a.desc.range.start.cmp(&b.desc.range.start));
        let threads = threads.max(1);
        let mut entries: Vec<IndexEntry> = Vec::new();
        if threads == 1 || tablets.len() <= 1 {
            for tablet in tablets {
                if entries.len() >= limit {
                    break;
                }
                let sub = range.intersect(&tablet.desc.range);
                if sub.is_empty() && sub.end.is_some() {
                    continue;
                }
                entries.extend(tablet.index(cg)?.range_latest_at(
                    &sub,
                    at,
                    limit - entries.len(),
                )?);
            }
        } else {
            // Parallel probe: each worker claims tablets off a shared
            // cursor and probes up to `limit` entries. `range_latest_at`
            // returns a key-ordered prefix, so per-tablet results
            // concatenated in range order and truncated to `limit`
            // equal the sequential early-stopping walk.
            let slots: Vec<Mutex<Option<Result<Vec<IndexEntry>>>>> =
                tablets.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            let workers = threads.min(tablets.len());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= tablets.len() {
                            return;
                        }
                        let tablet = &tablets[t];
                        let sub = range.intersect(&tablet.desc.range);
                        if sub.is_empty() && sub.end.is_some() {
                            *slots[t].lock() = Some(Ok(Vec::new()));
                            continue;
                        }
                        let probed = tablet
                            .index(cg)
                            .and_then(|idx| idx.range_latest_at(&sub, at, limit));
                        *slots[t].lock() = Some(probed);
                    });
                }
            });
            for slot in slots {
                let probed = slot
                    .into_inner()
                    .expect("every tablet slot is filled by a worker")?;
                if entries.len() >= limit {
                    break;
                }
                let room = limit - entries.len();
                entries.extend(probed.into_iter().take(room));
            }
        }
        self.fetch_entries_threads(entries, threads)
    }

    /// Fetch the records behind a batch of index entries, preserving the
    /// input order in the result.
    fn fetch_entries(&self, entries: Vec<IndexEntry>) -> Result<Vec<ScanItem>> {
        self.fetch_entries_threads(entries, self.resolved_scan_threads())
    }

    /// [`TabletServer::fetch_entries`] with an explicit worker count.
    /// Pointers are sorted `(segment, offset)` and coalesced into runs
    /// (gap ≤ `scan_coalesce_gap`); each run is one batched DFS read
    /// that decodes all of its entries, and runs execute on a bounded
    /// worker pool. Result order is the input entry order regardless of
    /// which worker decoded which run.
    fn fetch_entries_threads(
        &self,
        entries: Vec<IndexEntry>,
        threads: usize,
    ) -> Result<Vec<ScanItem>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        // Plan reads: sort pointer order per segment, coalescing runs.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].ptr.segment, entries[i].ptr.offset));
        let gap = self.config.scan_coalesce_gap;
        let mut runs: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            let e = &entries[i];
            let start_new = match runs.last().and_then(|r| r.last()) {
                Some(&prev) => {
                    let p = &entries[prev];
                    p.ptr.segment != e.ptr.segment
                        || e.ptr
                            .offset
                            .saturating_sub(p.ptr.offset + u64::from(p.ptr.len))
                            > gap
                }
                None => true,
            };
            if start_new {
                runs.push(Vec::new());
            }
            runs.last_mut().expect("just pushed").push(i);
        }
        // One batched DFS read per run; decode every entry in the window.
        let exec_run = |run: &[usize]| -> Result<Vec<(usize, ScanItem)>> {
            let seg = entries[run[0]].ptr.segment;
            self.segdir.record_read(seg);
            let name = self.segdir.resolve(seg);
            let start = entries[run[0]].ptr.offset;
            let last = &entries[*run.last().expect("non-empty run")];
            let end = last.ptr.offset + u64::from(last.ptr.len);
            let window = self.dfs.read(&name, start, end - start)?;
            let mut items = Vec::with_capacity(run.len());
            for &i in run {
                let e = &entries[i];
                let entry = logbase_wal::decode_entry_in_window(&window, start, e.ptr, &name)?;
                let (record, _, _) = entry.as_write().ok_or_else(|| {
                    Error::Corruption(format!("scan pointer {} is not a write", e.ptr))
                })?;
                if let Some(v) = record.value.clone() {
                    items.push((i, (e.key.clone(), e.ts, v)));
                }
            }
            Ok(items)
        };
        let workers = threads.max(1).min(runs.len());
        let mut out: Vec<Option<ScanItem>> = vec![None; entries.len()];
        if workers <= 1 {
            for run in &runs {
                for (i, item) in exec_run(run)? {
                    out[i] = Some(item);
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, ScanItem)>> =
                Mutex::new(Vec::with_capacity(entries.len()));
            std::thread::scope(|s| -> Result<()> {
                let mut handles = Vec::new();
                for _ in 0..workers {
                    handles.push(s.spawn(|| -> Result<()> {
                        loop {
                            let r = cursor.fetch_add(1, Ordering::Relaxed);
                            if r >= runs.len() {
                                return Ok(());
                            }
                            let items = exec_run(&runs[r])?;
                            collected.lock().extend(items);
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("scan fetch worker panicked")?;
                }
                Ok(())
            })?;
            for (i, item) in collected.into_inner() {
                out[i] = Some(item);
            }
        }
        Metrics::add(&self.metrics().records_read, entries.len() as u64);
        Ok(out.into_iter().flatten().collect())
    }

    /// Full table scan (§3.6.4): walk every segment, counting records
    /// whose stored version matches the current version in the index.
    /// Segments are scanned by a bounded worker pool
    /// (`ServerConfig::scan_threads`).
    pub fn full_scan(&self, table: &str, cg: u16) -> Result<u64> {
        self.full_scan_threads(table, cg, self.resolved_scan_threads())
    }

    /// [`TabletServer::full_scan`] with an explicit worker count.
    #[doc(hidden)]
    pub fn full_scan_threads(&self, table: &str, cg: u16, threads: usize) -> Result<u64> {
        let table_state = self.table(table)?;
        let log_prefix = format!("{}/log", self.config.name);
        let mut files: Vec<String> = self
            .dfs
            .list(&format!("{log_prefix}/segment-"))
            .into_iter()
            .collect();
        files.extend(self.segdir.snapshot().into_iter().map(|(_, name)| name));

        let scan_file = |file: &str| -> Result<u64> {
            let mut matched = 0u64;
            let mut reader = self.dfs.open_reader(file)?;
            loop {
                if reader.remaining() < logbase_common::codec::FRAME_HEADER_LEN as u64 {
                    break;
                }
                let header = reader.read_exact(logbase_common::codec::FRAME_HEADER_LEN as u64)?;
                let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
                if reader.remaining() < len {
                    break;
                }
                let payload = reader.read_exact(len)?;
                let Ok(entry) = logbase_wal::LogEntry::decode(payload) else {
                    continue;
                };
                if entry.table != table {
                    continue;
                }
                let Some((record, _, _)) = entry.as_write() else {
                    continue;
                };
                if record.meta.column_group != cg || record.is_tombstone() {
                    continue;
                }
                // Version-currency check against the index.
                let Ok(tablet) = table_state.route(&record.meta.key) else {
                    continue;
                };
                let Ok(index) = tablet.index(cg) else {
                    continue;
                };
                if index.latest(&record.meta.key)?.map(|vp| vp.ts) == Some(record.meta.timestamp) {
                    matched += 1;
                }
            }
            Ok(matched)
        };

        let workers = threads.max(1).min(files.len().max(1));
        let counter = AtomicU64::new(0);
        if workers <= 1 {
            for file in &files {
                counter.fetch_add(scan_file(file)?, Ordering::Relaxed);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| -> Result<()> {
                let mut handles = Vec::new();
                for _ in 0..workers {
                    handles.push(s.spawn(|| -> Result<()> {
                        loop {
                            let f = cursor.fetch_add(1, Ordering::Relaxed);
                            if f >= files.len() {
                                return Ok(());
                            }
                            let matched = scan_file(&files[f])?;
                            counter.fetch_add(matched, Ordering::Relaxed);
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("scan thread panicked")?;
                }
                Ok(())
            })?;
        }
        Ok(counter.load(Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // Checkpoint & recovery (§3.8)
    // ------------------------------------------------------------------

    /// Take a checkpoint: persist every in-memory index to DFS index
    /// files plus a descriptor recording the covered log position.
    pub fn checkpoint(&self) -> Result<CheckpointMeta> {
        self.check_fenced()?;
        let _guard = self.maintenance.lock();
        self.checkpoint_inner()
    }

    /// Checkpoint body. Callers must hold the maintenance lock;
    /// compaction embeds its commit-point checkpoint under the *same*
    /// lock acquisition, which is what makes the sequence it records in
    /// the maintenance manifest ([`TabletServer::next_checkpoint_seq`])
    /// the sequence this function actually takes.
    pub(crate) fn checkpoint_inner(&self) -> Result<CheckpointMeta> {
        self.check_fenced()?;
        logbase_dfs::crash_point!(self.dfs, "checkpoint.begin");
        let seq = self.ckpt_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let dir = checkpoint_dir(&self.config.name, seq);
        // Capture the redo start BEFORE persisting indexes: entries
        // between this position and "now" may be both in the index files
        // and redone — redo is idempotent, so that is safe; the converse
        // (missed entries) would not be. The exclusive write-barrier
        // acquisition makes the capture atomic with respect to in-flight
        // writes: no log record below the captured position can still be
        // waiting for its index update.
        let (log_segment, log_offset, next_lsn) = {
            let _barrier = self.write_barrier.write();
            let (seg, off) = self.log.writer().position();
            (seg, off, self.log.writer().next_lsn())
        };

        let mut tables_meta = Vec::new();
        let tables: Vec<Arc<TableState>> = self.tables.read().values().cloned().collect();
        for table in &tables {
            let mut tablets_meta = Vec::new();
            for tablet in table.tablets_snapshot() {
                let mut index_files = Vec::new();
                for (cg, index) in tablet.indexes.iter().enumerate() {
                    index.flush_disk_tier()?;
                    let file = index_file_name(
                        &dir,
                        &table.schema.name,
                        tablet.desc.id.range_index,
                        cg as u16,
                    );
                    logbase_index::persist::save_index(&self.dfs, &file, index.mem())?;
                    logbase_dfs::crash_point!(self.dfs, "checkpoint.mid_index_files");
                    index.mem().reset_update_counter();
                    index_files.push(file);
                }
                tablets_meta.push(TabletMeta {
                    range_index: tablet.desc.id.range_index,
                    start: checkpoint::hex(&tablet.desc.range.start),
                    end: tablet.desc.range.end.as_ref().map(|e| checkpoint::hex(e)),
                    index_files,
                });
            }
            tables_meta.push(TableMeta {
                schema: table.schema.clone(),
                tablets: tablets_meta,
            });
        }
        let meta = CheckpointMeta {
            seq,
            next_lsn: next_lsn.0,
            log_segment,
            log_offset,
            max_timestamp: self.oracle.current().0,
            tables: tables_meta,
            sorted_segments: self.segdir.snapshot(),
            next_sorted: Some(self.segdir.next_sorted_id()),
        };
        logbase_dfs::crash_point!(self.dfs, "checkpoint.before_meta");
        checkpoint::write_meta(&self.dfs, &self.config.name, &meta)?;
        logbase_dfs::crash_point!(self.dfs, "checkpoint.after_meta");
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        // Bound on-DFS history: older complete checkpoints are dead
        // weight once this descriptor is durable.
        logbase_dfs::crash_point!(self.dfs, "checkpoint.before_prune");
        crate::gc::prune_checkpoints(&self.dfs, &self.config.name)?;
        Ok(meta)
    }

    /// Open (recover) a server from its DFS state: load the latest
    /// checkpoint's index files, then redo the log tail (§3.8). Works
    /// with no checkpoint at all by scanning the entire log.
    pub fn open(dfs: Dfs, config: ServerConfig) -> Result<Arc<Self>> {
        Self::open_with(dfs, config, TimestampOracle::new(), LockService::new())
    }

    /// [`TabletServer::open`] sharing a cluster oracle and lock service.
    pub fn open_with(
        dfs: Dfs,
        config: ServerConfig,
        oracle: TimestampOracle,
        locks: LockService,
    ) -> Result<Arc<Self>> {
        let log_prefix = format!("{}/log", config.name);
        let meta = checkpoint::latest_checkpoint(&dfs, &config.name)?;

        // The writer reopens at a placeholder LSN; redo determines the
        // real one and corrects it before any append happens.
        let writer = Arc::new(LogWriter::reopen(
            dfs.clone(),
            LogConfig::new(&log_prefix)
                .with_segment_bytes(config.segment_bytes)
                .with_compression(config.wal_compression),
            Lsn(1),
        )?);
        let server = Self::assemble(dfs.clone(), config, Arc::clone(&writer), oracle, locks);

        let (start_segment, start_offset, mut max_lsn, mut max_ts) = match &meta {
            Some(m) => {
                server.ckpt_seq.store(m.seq, Ordering::Relaxed);
                server.segdir.restore(m.sorted_segments.clone());
                // The persisted allocation cursor outranks what restore()
                // inferred: a crashed compaction may have burned ids whose
                // mappings never reached a checkpoint, and spilled LSM
                // values durably encode ids — reuse would repoint them.
                if let Some(n) = m.next_sorted {
                    server.segdir.advance_next_sorted(n);
                }
                for tm in &m.tables {
                    let table = Arc::new(TableState::new(tm.schema.clone())?);
                    for tablet_meta in &tm.tablets {
                        let desc = tablet_meta.to_desc(&tm.schema.name)?;
                        let tablet = Arc::new(server.new_tablet_state(desc, &tm.schema)?);
                        for (cg, file) in tablet_meta.index_files.iter().enumerate() {
                            let loaded = logbase_index::persist::load_index(&dfs, file)?;
                            tablet.indexes[cg].mem().replace_all(loaded);
                        }
                        table.add_tablet(tablet);
                    }
                    server.tables.write().insert(tm.schema.name.clone(), table);
                }
                (
                    m.log_segment,
                    m.log_offset,
                    m.next_lsn.saturating_sub(1),
                    m.max_timestamp,
                )
            }
            None => (0, 0, 0, 0),
        };

        // Startup GC: converge the DFS image after any mid-maintenance
        // crash *before* redo touches the log — roll an interrupted
        // compaction forward or back from its manifest, drop partial
        // checkpoint directories, prune stale history, sweep orphan
        // sorted segments.
        let report = crate::gc::startup_gc(
            &dfs,
            &server.config.name,
            &server.segdir,
            meta.as_ref().map(|m| m.seq),
        )?;
        *server.gc_report.lock() = report;

        // Redo pass: apply committed effects from the log tail.
        let mut pending: HashMap<u64, Vec<(String, u32, Record, LogPtr)>> = HashMap::new();
        logbase_wal::scan_log_tolerant(
            &dfs,
            &log_prefix,
            start_segment,
            start_offset,
            |ptr, entry| {
                max_lsn = max_lsn.max(entry.lsn.0);
                match entry.kind {
                    LogEntryKind::Write {
                        txn_id,
                        tablet,
                        record,
                    } => {
                        max_ts = max_ts.max(record.meta.timestamp.0);
                        if txn_id == 0 {
                            server.redo_record(&entry.table, tablet, &record, ptr)?;
                        } else {
                            pending.entry(txn_id).or_default().push((
                                entry.table.clone(),
                                tablet,
                                record,
                                ptr,
                            ));
                        }
                    }
                    LogEntryKind::Commit { txn_id, commit_ts } => {
                        max_ts = max_ts.max(commit_ts.0);
                        if let Some(writes) = pending.remove(&txn_id) {
                            for (table, tablet, record, ptr) in writes {
                                server.redo_record(&table, tablet, &record, ptr)?;
                            }
                        }
                    }
                    LogEntryKind::Abort { txn_id } => {
                        pending.remove(&txn_id);
                    }
                    LogEntryKind::Checkpoint { .. } => {}
                    LogEntryKind::Schema { schema_json } => {
                        // DDL redo: recreate the table (one full-range
                        // tablet) unless the checkpoint already restored it.
                        if let Ok(schema) = serde_json::from_str::<TableSchema>(&schema_json) {
                            if server.table(&schema.name).is_err() {
                                server.create_table_unlogged(schema)?;
                            }
                        }
                    }
                }
                Ok(())
            },
        )?;
        // Writes with no commit record are uncommitted: ignored (§3.8).

        server.oracle.advance_to(Timestamp(max_ts));
        writer.set_next_lsn(Lsn(max_lsn + 1));
        let server = Arc::new(server);
        Self::start_services(&server);
        Ok(server)
    }

    /// Apply one logged write during redo.
    pub(crate) fn redo_record(
        &self,
        table: &str,
        tablet_hint: u32,
        record: &Record,
        ptr: LogPtr,
    ) -> Result<()> {
        // Auto-create tables seen in the log but absent from the
        // checkpoint (recovery without checkpoint).
        const AUTO_CG_COUNT: u16 = 8;
        let table_state = match self.table(table) {
            Ok(t) => t,
            Err(_) => {
                // Recovery without a checkpoint: the log names the table
                // but its schema is unknown. Create a placeholder schema
                // with a fixed column-group count; real deployments
                // always recover schemas from the checkpoint descriptor.
                let cg_count = AUTO_CG_COUNT.max(record.meta.column_group + 1);
                let mut schema = TableSchema::single_group(table, &["c0"]);
                schema.column_groups = (0..cg_count)
                    .map(|i| logbase_common::schema::ColumnGroup {
                        id: i,
                        name: format!("cg{i}"),
                        columns: vec![logbase_common::schema::Column {
                            name: format!("c{i}"),
                        }],
                    })
                    .collect();
                self.create_table(schema)?;
                self.table(table)?
            }
        };
        let tablet = match table_state.tablet(tablet_hint) {
            Some(t) => t,
            None => table_state.route(&record.meta.key)?,
        };
        // Grow the tablet's index vector lazily for auto-created tables.
        let index = match tablet.index(record.meta.column_group) {
            Ok(i) => Arc::clone(i),
            Err(e) => return Err(e),
        };
        if record.is_tombstone() {
            index.remove_key(&record.meta.key)?;
        } else {
            index.insert(&record.meta.key, record.meta.timestamp, ptr)?;
        }
        Ok(())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        let mut index_entries = 0u64;
        let mut index_bytes = 0u64;
        for table in self.tables.read().values() {
            for tablet in table.tablets_snapshot() {
                for index in &tablet.indexes {
                    let s = index.mem().stats();
                    index_entries += s.entries;
                    index_bytes += s.approx_bytes;
                }
            }
        }
        ServerStats {
            index_entries,
            index_bytes,
            read_buffer: self
                .read_buffer
                .as_ref()
                .map(ReadBuffer::stats)
                .unwrap_or((0, 0)),
            checkpoints: self.checkpoints_taken.load(Ordering::Relaxed),
            compactions: self.compactions_run.load(Ordering::Relaxed),
            log_segment: self.log.writer().current_segment(),
        }
    }
}

/// [`StorageEngine`] adapter binding a [`TabletServer`] to one table, so
/// the benchmark harness can drive LogBase and the baselines uniformly.
pub struct LogBaseEngine {
    server: Arc<TabletServer>,
    table: String,
}

impl LogBaseEngine {
    /// Wrap `server`, routing engine calls to `table`.
    pub fn new(server: Arc<TabletServer>, table: impl Into<String>) -> Self {
        LogBaseEngine {
            server,
            table: table.into(),
        }
    }

    /// The wrapped server.
    pub fn server(&self) -> &Arc<TabletServer> {
        &self.server
    }
}

impl StorageEngine for LogBaseEngine {
    fn put(&self, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        self.server.put(&self.table, cg, key, value)
    }

    fn get(&self, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        self.server.get(&self.table, cg, key)
    }

    fn get_at(&self, cg: u16, key: &[u8], at: Timestamp) -> Result<Option<Value>> {
        self.server.get_at(&self.table, cg, key, at)
    }

    fn delete(&self, cg: u16, key: &[u8]) -> Result<()> {
        self.server.delete(&self.table, cg, key)
    }

    fn range_scan(&self, cg: u16, range: &KeyRange, limit: usize) -> Result<Vec<ScanItem>> {
        self.server.range_scan(&self.table, cg, range, limit)
    }

    fn full_scan(&self, cg: u16) -> Result<u64> {
        self.server.full_scan(&self.table, cg)
    }

    fn sync(&self) -> Result<()> {
        self.server.checkpoint().map(|_| ())
    }

    fn engine_name(&self) -> &'static str {
        "logbase"
    }
}
