//! The HBase-model engine.

use logbase_common::engine::{ScanItem, StorageEngine};
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::schema::KeyRange;
use logbase_common::{Lsn, Record, Result, RowKey, Timestamp, Value};
use logbase_coordination::TimestampOracle;
use logbase_dfs::Dfs;
use logbase_sstable::{
    merge_entries, BlockCache, BlockEntry, Memtable, SsTableConfig, SsTableReader, SsTableWriter,
};
use logbase_wal::{GroupCommitConfig, GroupCommitLog, LogConfig, LogEntryKind, LogWriter};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the WAL+Data engine.
#[derive(Debug, Clone)]
pub struct HBaseConfig {
    /// Name prefix for every DFS path.
    pub name: String,
    /// Memtable flush threshold (HBase default 64 MB).
    pub memtable_flush_bytes: u64,
    /// WAL segment size.
    pub segment_bytes: u64,
    /// SSTable block size (HBase default 64 KB).
    pub block_bytes: usize,
    /// Block cache budget (0 disables caching).
    pub block_cache_bytes: u64,
    /// SSTable count per column group that triggers a minor compaction.
    pub compaction_trigger: usize,
}

impl HBaseConfig {
    /// Paper-default configuration.
    pub fn new(name: impl Into<String>) -> Self {
        HBaseConfig {
            name: name.into(),
            memtable_flush_bytes: 64 * 1024 * 1024,
            segment_bytes: logbase_common::config::DEFAULT_SEGMENT_BYTES,
            block_bytes: 64 * 1024,
            block_cache_bytes: 16 * 1024 * 1024,
            compaction_trigger: 6,
        }
    }

    /// Builder-style flush-threshold override.
    #[must_use]
    pub fn with_flush_bytes(mut self, bytes: u64) -> Self {
        self.memtable_flush_bytes = bytes;
        self
    }

    /// Builder-style block-size override.
    #[must_use]
    pub fn with_block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = bytes;
        self
    }

    /// Builder-style block-cache override (0 disables).
    #[must_use]
    pub fn with_block_cache(mut self, bytes: u64) -> Self {
        self.block_cache_bytes = bytes;
        self
    }
}

/// Operational statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct HBaseStats {
    /// Memtable flushes performed (each is a full data rewrite).
    pub flushes: u64,
    /// SSTables currently live.
    pub sstables: usize,
    /// Entries currently buffered in memtables.
    pub memtable_entries: usize,
}

/// Per-column-group store: memtable + SSTables (newest first).
struct CgStore {
    memtable: Memtable,
    tables: RwLock<Vec<Arc<SsTableReader>>>,
    next_table: AtomicU64,
    flush_lock: Mutex<()>,
}

impl CgStore {
    fn new() -> Self {
        CgStore {
            memtable: Memtable::new(),
            tables: RwLock::new(Vec::new()),
            next_table: AtomicU64::new(0),
            flush_lock: Mutex::new(()),
        }
    }
}

/// The WAL+Data storage engine.
pub struct HBaseEngine {
    dfs: Dfs,
    config: HBaseConfig,
    wal: GroupCommitLog,
    cgs: RwLock<HashMap<u16, Arc<CgStore>>>,
    cache: Option<BlockCache>,
    oracle: TimestampOracle,
    flushes: AtomicU64,
}

/// WAL table label (single-table engine; the cg rides in the record).
const WAL_TABLE: &str = "hbase";

impl HBaseEngine {
    /// Create a fresh engine.
    pub fn create(dfs: Dfs, config: HBaseConfig) -> Result<Arc<Self>> {
        Self::create_with(dfs, config, TimestampOracle::new())
    }

    /// Create a fresh engine sharing a cluster oracle.
    pub fn create_with(
        dfs: Dfs,
        config: HBaseConfig,
        oracle: TimestampOracle,
    ) -> Result<Arc<Self>> {
        let writer = Arc::new(LogWriter::create(
            dfs.clone(),
            LogConfig::new(format!("{}/wal", config.name)).with_segment_bytes(config.segment_bytes),
        )?);
        Ok(Arc::new(Self::assemble(dfs, config, writer, oracle)))
    }

    fn assemble(
        dfs: Dfs,
        config: HBaseConfig,
        writer: Arc<LogWriter>,
        oracle: TimestampOracle,
    ) -> Self {
        let cache =
            (config.block_cache_bytes > 0).then(|| BlockCache::new(config.block_cache_bytes));
        HBaseEngine {
            wal: GroupCommitLog::new(writer, GroupCommitConfig::default()),
            cgs: RwLock::new(HashMap::new()),
            cache,
            oracle,
            flushes: AtomicU64::new(0),
            dfs,
            config,
        }
    }

    /// Recover an engine from its DFS state: reopen SSTables, replay the
    /// WAL tail into fresh memtables.
    pub fn open(dfs: Dfs, config: HBaseConfig) -> Result<Arc<Self>> {
        let wal_prefix = format!("{}/wal", config.name);
        let writer = Arc::new(LogWriter::reopen(
            dfs.clone(),
            LogConfig::new(&wal_prefix).with_segment_bytes(config.segment_bytes),
            Lsn(1),
        )?);
        let engine = Self::assemble(
            dfs.clone(),
            config,
            Arc::clone(&writer),
            TimestampOracle::new(),
        );

        // Reopen SSTables: <name>/data/cg<id>/sst-<seq>.
        let data_prefix = format!("{}/data/", engine.config.name);
        for file in dfs.list(&data_prefix) {
            let rest = file.strip_prefix(&data_prefix).unwrap_or("");
            let Some((cg_part, _)) = rest.split_once('/') else {
                continue;
            };
            let Ok(cg) = cg_part.trim_start_matches("cg").parse::<u16>() else {
                continue;
            };
            let store = engine.cg(cg);
            let reader = Arc::new(SsTableReader::open(dfs.clone(), &file)?);
            store.tables.write().push(reader);
        }
        // Newest first (higher sequence = newer; names sort ascending).
        for store in engine.cgs.read().values() {
            store.tables.write().reverse();
            let n = store.tables.read().len() as u64;
            store.next_table.store(n, Ordering::Relaxed);
        }

        // WAL replay: apply writes newer than each cg's last flush.
        let mut flushed_lsn: HashMap<u16, u64> = HashMap::new();
        let mut writes: Vec<(u64, Record)> = Vec::new();
        let mut max_lsn = 0u64;
        let mut max_ts = 0u64;
        logbase_wal::scan_log_tolerant(&dfs, &wal_prefix, 0, 0, |_, entry| {
            max_lsn = max_lsn.max(entry.lsn.0);
            match entry.kind {
                LogEntryKind::Write { record, .. } => {
                    max_ts = max_ts.max(record.meta.timestamp.0);
                    writes.push((entry.lsn.0, record));
                }
                LogEntryKind::Checkpoint {
                    index_lsn,
                    index_file,
                } => {
                    if let Some(cg) = index_file
                        .strip_prefix("flush:cg")
                        .and_then(|s| s.parse::<u16>().ok())
                    {
                        flushed_lsn.insert(cg, index_lsn.0);
                    }
                }
                _ => {}
            }
            Ok(())
        })?;
        for (lsn, record) in writes {
            let cg = record.meta.column_group;
            if lsn <= flushed_lsn.get(&cg).copied().unwrap_or(0) {
                continue; // already in a data file
            }
            engine
                .cg(cg)
                .memtable
                .put(record.meta.key, record.meta.timestamp, record.value);
        }
        engine.oracle.advance_to(Timestamp(max_ts));
        writer.set_next_lsn(Lsn(max_lsn + 1));
        Ok(Arc::new(engine))
    }

    /// Metrics sink (shared with the DFS).
    pub fn metrics(&self) -> &MetricsHandle {
        self.dfs.metrics()
    }

    /// Timestamp oracle.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    fn cg(&self, cg: u16) -> Arc<CgStore> {
        if let Some(s) = self.cgs.read().get(&cg) {
            return Arc::clone(s);
        }
        let mut cgs = self.cgs.write();
        Arc::clone(cgs.entry(cg).or_insert_with(|| Arc::new(CgStore::new())))
    }

    fn write_internal(&self, cg: u16, key: RowKey, value: Option<Value>) -> Result<Timestamp> {
        let ts = self.oracle.next();
        let record = Record {
            meta: logbase_common::RecordMeta {
                key: key.clone(),
                column_group: cg,
                timestamp: ts,
            },
            value: value.clone(),
        };
        // 1. WAL first (durability) ...
        self.wal.append(
            WAL_TABLE,
            LogEntryKind::Write {
                txn_id: 0,
                tablet: 0,
                record,
            },
        )?;
        // 2. ... then the memtable (the second copy of the data).
        let store = self.cg(cg);
        store.memtable.put(key, ts, value);
        // 3. Full memtable? The writer waits for the flush (§4.3).
        if store.memtable.approx_bytes() >= self.config.memtable_flush_bytes {
            self.flush_cg(cg, &store)?;
        }
        Metrics::incr(&self.metrics().records_written);
        Ok(ts)
    }

    fn flush_cg(&self, cg: u16, store: &CgStore) -> Result<()> {
        let _guard = store.flush_lock.lock();
        if store.memtable.is_empty() {
            return Ok(());
        }
        let entries = store.memtable.entries();
        let seq = store.next_table.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}/data/cg{cg}/sst-{seq:06}", self.config.name);
        let mut w = SsTableWriter::create(
            self.dfs.clone(),
            &name,
            SsTableConfig {
                block_bytes: self.config.block_bytes,
                bloom_bits_per_key: 10,
            },
        )?;
        for e in &entries {
            w.add(e)?;
        }
        w.finish()?;
        let reader = Arc::new(SsTableReader::open(self.dfs.clone(), &name)?);
        store.tables.write().insert(0, reader);
        store.memtable.clear();
        // Record the flush point for recovery.
        let flush_lsn = self.wal.writer().next_lsn().0.saturating_sub(1);
        self.wal.append(
            WAL_TABLE,
            LogEntryKind::Checkpoint {
                index_lsn: Lsn(flush_lsn),
                index_file: format!("flush:cg{cg}"),
            },
        )?;
        self.flushes.fetch_add(1, Ordering::Relaxed);
        Metrics::incr(&self.metrics().flushes);
        drop(_guard);
        if store.tables.read().len() >= self.config.compaction_trigger {
            self.compact_cg(cg)?;
        }
        Ok(())
    }

    /// Merge all of a column group's SSTables into one (HBase's *minor
    /// compaction*): bounds the number of files a read must consult.
    /// Triggered automatically once a cg accumulates
    /// [`HBaseConfig::compaction_trigger`] tables.
    pub fn compact_cg(&self, cg: u16) -> Result<()> {
        let store = self.cg(cg);
        let _guard = store.flush_lock.lock();
        let tables: Vec<Arc<SsTableReader>> = store.tables.read().clone();
        if tables.len() <= 1 {
            return Ok(());
        }
        // Newest table first, so exact-duplicate (key, ts) entries
        // resolve to the newest copy in the merge.
        let mut inputs = Vec::with_capacity(tables.len());
        for t in &tables {
            let mut it = t.iter(self.cache.as_ref());
            let mut v = Vec::with_capacity(t.count() as usize);
            while let Some(e) = it.next()? {
                v.push(e);
            }
            inputs.push(v);
        }
        let merged = merge_entries(inputs);
        let seq = store.next_table.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}/data/cg{cg}/sst-{seq:06}", self.config.name);
        let mut w = SsTableWriter::create(
            self.dfs.clone(),
            &name,
            SsTableConfig {
                block_bytes: self.config.block_bytes,
                bloom_bits_per_key: 10,
            },
        )?;
        for e in &merged {
            w.add(e)?;
        }
        w.finish()?;
        let reader = Arc::new(SsTableReader::open(self.dfs.clone(), &name)?);
        // Install the merged table, then delete the inputs.
        {
            let mut list = store.tables.write();
            list.clear();
            list.push(reader);
        }
        for t in &tables {
            self.dfs.delete(t.name())?;
        }
        Metrics::incr(&self.metrics().compactions);
        Ok(())
    }

    /// Flush every column group's memtable.
    pub fn flush_all(&self) -> Result<()> {
        let stores: Vec<(u16, Arc<CgStore>)> = self
            .cgs
            .read()
            .iter()
            .map(|(cg, s)| (*cg, Arc::clone(s)))
            .collect();
        for (cg, store) in stores {
            self.flush_cg(cg, &store)?;
        }
        Ok(())
    }

    fn get_internal(
        &self,
        cg: u16,
        key: &[u8],
        at: Timestamp,
    ) -> Result<Option<(Timestamp, Option<Value>)>> {
        let store = self.cg(cg);
        let mut best: Option<(Timestamp, Option<Value>)> = None;
        if let Some((ts, v)) = store
            .memtable
            .versions(key)
            .into_iter()
            .rfind(|(ts, _)| *ts <= at)
        {
            best = Some((ts, v));
        }
        for table in store.tables.read().iter() {
            if let Some(e) = table.get_at(key, at, self.cache.as_ref())? {
                if best.as_ref().is_none_or(|(bt, _)| e.ts > *bt) {
                    best = Some((e.ts, e.value));
                }
            }
        }
        Ok(best)
    }

    /// Engine statistics.
    pub fn stats(&self) -> HBaseStats {
        let cgs = self.cgs.read();
        HBaseStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            sstables: cgs.values().map(|s| s.tables.read().len()).sum(),
            memtable_entries: cgs.values().map(|s| s.memtable.len()).sum(),
        }
    }

    /// The block cache, if enabled.
    pub fn cache(&self) -> Option<&BlockCache> {
        self.cache.as_ref()
    }
}

impl StorageEngine for HBaseEngine {
    fn put(&self, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        self.write_internal(cg, key, Some(value))
    }

    fn get(&self, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        self.get_at(cg, key, Timestamp::MAX)
    }

    fn get_at(&self, cg: u16, key: &[u8], at: Timestamp) -> Result<Option<Value>> {
        Metrics::incr(&self.metrics().records_read);
        Ok(self.get_internal(cg, key, at)?.and_then(|(_, v)| v))
    }

    fn delete(&self, cg: u16, key: &[u8]) -> Result<()> {
        self.write_internal(cg, RowKey::copy_from_slice(key), None)?;
        Ok(())
    }

    fn range_scan(&self, cg: u16, range: &KeyRange, limit: usize) -> Result<Vec<ScanItem>> {
        let store = self.cg(cg);
        // Every source is already (key, ts)-sorted, so a k-way merge
        // produces globally sorted entries; the latest version per key
        // is then the last entry of each key group.
        let mut inputs: Vec<Vec<BlockEntry>> = vec![store.memtable.entries()];
        for table in store.tables.read().iter() {
            let mut it = table.range_iter(range.clone(), self.cache.as_ref());
            let mut v = Vec::new();
            while let Some(e) = it.next()? {
                v.push(e);
            }
            inputs.push(v);
        }
        let merged = merge_entries(inputs);
        let mut out: Vec<ScanItem> = Vec::new();
        let mut current: Option<BlockEntry> = None;
        for e in merged {
            if !range.contains(&e.key) {
                continue;
            }
            match &mut current {
                Some(c) if c.key == e.key => {
                    if e.ts > c.ts {
                        *c = e;
                    }
                }
                _ => {
                    if let Some(c) = current.take() {
                        if let Some(v) = c.value {
                            out.push((c.key, c.ts, v));
                            if out.len() == limit {
                                Metrics::add(&self.metrics().records_read, out.len() as u64);
                                return Ok(out);
                            }
                        }
                    }
                    current = Some(e);
                }
            }
        }
        if let Some(c) = current {
            if let Some(v) = c.value {
                if out.len() < limit {
                    out.push((c.key, c.ts, v));
                }
            }
        }
        Metrics::add(&self.metrics().records_read, out.len() as u64);
        Ok(out)
    }

    fn full_scan(&self, cg: u16) -> Result<u64> {
        Ok(self.range_scan(cg, &KeyRange::all(), usize::MAX)?.len() as u64)
    }

    fn sync(&self) -> Result<()> {
        self.flush_all()
    }

    fn engine_name(&self) -> &'static str {
        "hbase-model"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbase_dfs::DfsConfig;

    fn key(s: &str) -> RowKey {
        RowKey::copy_from_slice(s.as_bytes())
    }

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    fn engine(flush_bytes: u64) -> Arc<HBaseEngine> {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        HBaseEngine::create(dfs, HBaseConfig::new("hb").with_flush_bytes(flush_bytes)).unwrap()
    }

    #[test]
    fn put_get_through_memtable() {
        let e = engine(1 << 20);
        e.put(0, key("k"), val("v1")).unwrap();
        let t2 = e.put(0, key("k"), val("v2")).unwrap();
        assert_eq!(e.get(0, b"k").unwrap(), Some(val("v2")));
        assert_eq!(e.get_at(0, b"k", t2.prev()).unwrap(), Some(val("v1")));
        assert!(e.get(0, b"absent").unwrap().is_none());
    }

    #[test]
    fn writes_hit_wal_and_memtable_then_flush_doubles_bytes() {
        let e = engine(4096);
        let payload = "x".repeat(256);
        for i in 0..64 {
            e.put(0, key(&format!("k{i:03}")), val(&payload)).unwrap();
        }
        let stats = e.stats();
        assert!(stats.flushes >= 1, "flush threshold should have tripped");
        assert!(stats.sstables >= 1);
        // Reads still correct across memtable + SSTables.
        for i in [0, 31, 63] {
            assert_eq!(
                e.get(0, format!("k{i:03}").as_bytes()).unwrap(),
                Some(val(&payload))
            );
        }
    }

    #[test]
    fn delete_hides_older_versions() {
        let e = engine(1 << 20);
        e.put(0, key("k"), val("v")).unwrap();
        e.flush_all().unwrap();
        e.delete(0, b"k").unwrap();
        assert!(e.get(0, b"k").unwrap().is_none());
        let out = e.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn range_scan_merges_memtable_and_tables() {
        let e = engine(1 << 20);
        e.put(0, key("a"), val("old")).unwrap();
        e.put(0, key("b"), val("b")).unwrap();
        e.flush_all().unwrap();
        e.put(0, key("a"), val("new")).unwrap();
        e.put(0, key("c"), val("c")).unwrap();
        let out = e.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
        let got: Vec<(&str, &[u8])> = out
            .iter()
            .map(|(k, _, v)| (std::str::from_utf8(k).unwrap(), &v[..]))
            .collect();
        assert_eq!(
            got,
            vec![("a", &b"new"[..]), ("b", &b"b"[..]), ("c", &b"c"[..])]
        );
    }

    #[test]
    fn column_groups_are_isolated() {
        let e = engine(1 << 20);
        e.put(0, key("k"), val("cg0")).unwrap();
        e.put(1, key("k"), val("cg1")).unwrap();
        assert_eq!(e.get(0, b"k").unwrap(), Some(val("cg0")));
        assert_eq!(e.get(1, b"k").unwrap(), Some(val("cg1")));
        e.delete(0, b"k").unwrap();
        assert_eq!(e.get(1, b"k").unwrap(), Some(val("cg1")));
    }

    #[test]
    fn recovery_replays_wal_tail() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        {
            let e = HBaseEngine::create(dfs.clone(), HBaseConfig::new("hb").with_flush_bytes(2048))
                .unwrap();
            for i in 0..50 {
                e.put(0, key(&format!("k{i:03}")), val(&format!("v{i}")))
                    .unwrap();
            }
            // Crash without flushing the remainder.
        }
        let e = HBaseEngine::open(dfs, HBaseConfig::new("hb").with_flush_bytes(2048)).unwrap();
        for i in [0, 25, 49] {
            assert_eq!(
                e.get(0, format!("k{i:03}").as_bytes()).unwrap(),
                Some(val(&format!("v{i}"))),
                "key k{i:03} after recovery"
            );
        }
        // New writes continue.
        let ts = e.put(0, key("post"), val("crash")).unwrap();
        assert!(ts.0 > 50);
        assert_eq!(e.full_scan(0).unwrap(), 51);
    }

    #[test]
    fn recovery_does_not_duplicate_flushed_data() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        {
            let e = HBaseEngine::create(dfs.clone(), HBaseConfig::new("hb")).unwrap();
            for i in 0..20 {
                e.put(0, key(&format!("k{i:03}")), val("v")).unwrap();
            }
            e.flush_all().unwrap();
            e.put(0, key("tail"), val("t")).unwrap();
        }
        let e = HBaseEngine::open(dfs, HBaseConfig::new("hb")).unwrap();
        // Flushed records come from the SSTable, not the replayed WAL.
        assert_eq!(e.stats().memtable_entries, 1);
        assert_eq!(e.full_scan(0).unwrap(), 21);
    }

    #[test]
    fn block_cache_serves_repeat_reads() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let e =
            HBaseEngine::create(dfs.clone(), HBaseConfig::new("hb").with_block_bytes(512)).unwrap();
        for i in 0..100 {
            e.put(0, key(&format!("k{i:03}")), val("v")).unwrap();
        }
        e.flush_all().unwrap();
        e.get(0, b"k050").unwrap();
        let reads = dfs.metrics().snapshot().dfs_reads;
        for _ in 0..10 {
            e.get(0, b"k050").unwrap();
        }
        assert_eq!(dfs.metrics().snapshot().dfs_reads, reads);
    }

    #[test]
    fn minor_compaction_merges_tables_and_preserves_reads() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let mut config = HBaseConfig::new("hb").with_flush_bytes(2048);
        config.compaction_trigger = 3;
        let e = HBaseEngine::create(dfs.clone(), config).unwrap();
        for round in 0..6u64 {
            for i in 0..20u64 {
                e.put(0, key(&format!("k{i:03}")), val(&format!("r{round}")))
                    .unwrap();
            }
            e.flush_all().unwrap();
        }
        // Auto-compaction kept the table count below the trigger.
        assert!(
            e.stats().sstables < 3,
            "expected compaction to bound tables, got {}",
            e.stats().sstables
        );
        // Latest values and history both survive the merges.
        assert_eq!(e.get(0, b"k007").unwrap(), Some(val("r5")));
        let t2 = Timestamp(2 * 20); // end of round 1
        assert_eq!(e.get_at(0, b"k007", t2).unwrap(), Some(val("r1")));
        assert_eq!(e.full_scan(0).unwrap(), 20);
    }

    #[test]
    fn explicit_compaction_reclaims_input_files() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let e = HBaseEngine::create(dfs.clone(), HBaseConfig::new("hb")).unwrap();
        for round in 0..3 {
            e.put(0, key("a"), val(&format!("v{round}"))).unwrap();
            e.flush_all().unwrap();
        }
        let files_before = dfs.list("hb/data/").len();
        e.compact_cg(0).unwrap();
        let files_after = dfs.list("hb/data/").len();
        assert!(files_after < files_before);
        assert_eq!(e.stats().sstables, 1);
        assert_eq!(e.get(0, b"a").unwrap(), Some(val("v2")));
    }
    #[test]
    fn concurrent_writers() {
        let e = engine(1 << 14);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let e = Arc::clone(&e);
                s.spawn(move || {
                    for i in 0..100u64 {
                        e.put(0, key(&format!("{t}-{i}")), val("x")).unwrap();
                    }
                });
            }
        });
        assert_eq!(e.full_scan(0).unwrap(), 400);
    }
}
