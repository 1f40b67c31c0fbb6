//! Spillable multiversion index: memory tier + optional LSM overflow.
//!
//! §3.5: "LogBase can employ a similar method to log-structured
//! merge-tree (LSM-tree) for merging out part of the in-memory indexes
//! into disks", and §4.6 evaluates exactly this option. A
//! [`SpillableIndex`] keeps recent entries in a [`MultiVersionIndex`];
//! when the memory tier exceeds its budget the entries are merged out
//! into an [`LsmTree`] whose values are encoded log pointers. Probes
//! consult both tiers and keep the newest version.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use logbase_common::schema::KeyRange;
use logbase_common::{LogPtr, Result, RowKey, Timestamp, Value};
use logbase_dfs::Dfs;
use logbase_index::{IndexEntry, MultiVersionIndex, VersionedPtr};
use logbase_lsm::{LsmConfig, LsmTree};

/// Spill configuration for one server.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Memory-tier byte budget per index before entries merge out.
    pub mem_budget_bytes: u64,
    /// LSM write-buffer size for the disk tier.
    pub lsm_write_buffer_bytes: u64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            mem_budget_bytes: 4 * 1024 * 1024,
            lsm_write_buffer_bytes: 4 * 1024 * 1024,
        }
    }
}

fn encode_ptr(ptr: LogPtr) -> Value {
    let mut b = BytesMut::with_capacity(16);
    b.put_u32_le(ptr.segment);
    b.put_u64_le(ptr.offset);
    b.put_u32_le(ptr.len);
    b.freeze()
}

fn decode_ptr(mut v: Bytes) -> Option<LogPtr> {
    if v.len() != 16 {
        return None;
    }
    let segment = v.get_u32_le();
    let offset = v.get_u64_le();
    let len = v.get_u32_le();
    Some(LogPtr::new(segment, offset, len))
}

/// A multiversion index with an optional disk tier.
pub struct SpillableIndex {
    mem: MultiVersionIndex,
    disk: Option<(LsmTree, u64)>,
    /// DFS handle for crash-point checks on the merge-out path (`None`
    /// in pure in-memory mode, which never touches the DFS).
    dfs: Option<Dfs>,
}

impl SpillableIndex {
    /// Pure in-memory index (the paper's default mode).
    pub fn in_memory() -> Self {
        SpillableIndex {
            mem: MultiVersionIndex::new(),
            disk: None,
            dfs: None,
        }
    }

    /// Index with an LSM disk tier under `prefix`. Opens any tables
    /// already present under the prefix (recovery reuses this path).
    pub fn with_spill(dfs: Dfs, prefix: &str, config: &SpillConfig) -> Result<Self> {
        let lsm = LsmTree::open(
            dfs.clone(),
            LsmConfig::new(prefix).with_write_buffer(config.lsm_write_buffer_bytes),
        )?;
        Ok(SpillableIndex {
            mem: MultiVersionIndex::new(),
            disk: Some((lsm, config.mem_budget_bytes)),
            dfs: Some(dfs),
        })
    }

    /// Flush the disk tier's memtable (checkpoint prerequisite: the
    /// persisted memory tier plus DFS-resident LSM tables must together
    /// cover every spilled entry).
    pub fn flush_disk_tier(&self) -> Result<()> {
        if let Some((lsm, _)) = &self.disk {
            lsm.flush()?;
        }
        Ok(())
    }

    /// The memory tier (checkpointing persists this tier's entries).
    pub fn mem(&self) -> &MultiVersionIndex {
        &self.mem
    }

    /// True when a disk tier is attached.
    pub fn is_spillable(&self) -> bool {
        self.disk.is_some()
    }

    /// Insert an entry, merging the memory tier out if over budget.
    ///
    /// A crash anywhere in the merge-out loses no data: spilled entries
    /// are index pointers, and the log records they point at are redone
    /// from the WAL on recovery (at-least-once — re-spilling the same
    /// pointer is idempotent).
    pub fn insert(&self, key: impl AsRef<[u8]>, ts: Timestamp, ptr: LogPtr) -> Result<()> {
        self.mem.insert(key, ts, ptr);
        if let Some((lsm, budget)) = &self.disk {
            if self.mem.stats().approx_bytes > *budget {
                if let Some(dfs) = &self.dfs {
                    logbase_dfs::crash_point!(dfs, "spill.before_merge_out");
                }
                for e in self.mem.scan_all() {
                    lsm.put(e.key, e.ts, Some(encode_ptr(e.ptr)))?;
                }
                self.mem.clear();
                lsm.flush()?;
                if let Some(dfs) = &self.dfs {
                    logbase_dfs::crash_point!(dfs, "spill.after_merge_out");
                }
            }
        }
        Ok(())
    }

    /// Remove every version of `key` from both tiers.
    pub fn remove_key(&self, key: &[u8]) -> Result<usize> {
        let mut n = self.mem.remove_key(key);
        if let Some((lsm, _)) = &self.disk {
            for (ts, v) in lsm.versions(key)? {
                if v.is_some() {
                    lsm.put(RowKey::copy_from_slice(key), ts, None)?;
                    n += 1;
                }
            }
        }
        Ok(n)
    }

    /// Pointer for the exact version `(key, ts)` (compaction liveness
    /// probe).
    pub fn get_version(&self, key: &[u8], ts: Timestamp) -> Result<Option<LogPtr>> {
        if let Some(ptr) = self.mem.get_version(key, ts) {
            return Ok(Some(ptr));
        }
        if let Some((lsm, _)) = &self.disk {
            if let Some((found_ts, Some(v))) = lsm.get_at(key, ts)? {
                if found_ts == ts {
                    return Ok(decode_ptr(v));
                }
            }
        }
        Ok(None)
    }

    /// Remove one exact version from the tiers (compaction retention).
    pub fn remove_version(&self, key: &[u8], ts: Timestamp) -> Result<()> {
        self.mem.remove_version(key, ts);
        if let Some((lsm, _)) = &self.disk {
            if let Some((found_ts, Some(_))) = lsm.get_at(key, ts)? {
                if found_ts == ts {
                    lsm.put(RowKey::copy_from_slice(key), ts, None)?;
                }
            }
        }
        Ok(())
    }

    /// Prune the memory tier to `range` (tablet handoff). Disk-tier
    /// entries outside the range become unreachable garbage until the
    /// next compaction — acceptable, since routing already excludes the
    /// moved keys.
    pub fn retain_range(&self, range: &logbase_common::schema::KeyRange) -> usize {
        self.mem.retain_range(range)
    }

    /// Latest version of `key`.
    pub fn latest(&self, key: &[u8]) -> Result<Option<VersionedPtr>> {
        self.latest_at(key, Timestamp::MAX)
    }

    /// Latest version of `key` with `ts <= at`.
    pub fn latest_at(&self, key: &[u8], at: Timestamp) -> Result<Option<VersionedPtr>> {
        let mut best = self.mem.latest_at(key, at);
        if let Some((lsm, _)) = &self.disk {
            if let Some((ts, Some(v))) = lsm.get_at(key, at)? {
                if best.is_none_or(|b| ts > b.ts) {
                    if let Some(ptr) = decode_ptr(v) {
                        best = Some(VersionedPtr { ts, ptr });
                    }
                }
            }
        }
        Ok(best)
    }

    /// All versions of `key`, oldest first.
    pub fn versions(&self, key: &[u8]) -> Result<Vec<VersionedPtr>> {
        let mut out: Vec<VersionedPtr> = Vec::new();
        if let Some((lsm, _)) = &self.disk {
            for (ts, v) in lsm.versions(key)? {
                if let Some(ptr) = v.and_then(decode_ptr) {
                    out.push(VersionedPtr { ts, ptr });
                }
            }
        }
        let mem = self.mem.versions(key);
        // Merge (both sorted ascending; mem entries may duplicate disk
        // ones only transiently — dedup by ts, memory wins).
        let mut merged: Vec<VersionedPtr> = Vec::with_capacity(out.len() + mem.len());
        let (mut i, mut j) = (0, 0);
        while i < out.len() || j < mem.len() {
            let take_mem = match (out.get(i), mem.get(j)) {
                (Some(d), Some(m)) => {
                    if m.ts == d.ts {
                        i += 1; // skip disk duplicate
                        true
                    } else {
                        m.ts < d.ts
                    }
                }
                (None, Some(_)) => true,
                _ => false,
            };
            if take_mem {
                merged.push(mem[j]);
                j += 1;
            } else {
                merged.push(out[i]);
                i += 1;
            }
        }
        Ok(merged)
    }

    /// Latest version per key in `range` at snapshot `at`, up to `limit`
    /// keys, key order.
    pub fn range_latest_at(
        &self,
        range: &KeyRange,
        at: Timestamp,
        limit: usize,
    ) -> Result<Vec<IndexEntry>> {
        let mem = self.mem.range_latest_at(range, at, limit);
        let Some((lsm, _)) = &self.disk else {
            return Ok(mem);
        };
        let disk = lsm.range_scan(range, at, limit)?;
        // Merge by key; newer ts wins.
        let mut out: Vec<IndexEntry> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while out.len() < limit && (i < mem.len() || j < disk.len()) {
            let pick_mem = match (mem.get(i), disk.get(j)) {
                (Some(m), Some(d)) => {
                    if m.key == d.0 {
                        // Same key in both tiers: keep the newer version.
                        let keep_mem = m.ts >= d.1;
                        i += 1;
                        j += 1;
                        if keep_mem {
                            out.push(m.clone());
                        } else if let Some(ptr) = decode_ptr(d.2.clone()) {
                            out.push(IndexEntry {
                                key: d.0.clone(),
                                ts: d.1,
                                ptr,
                            });
                        }
                        continue;
                    }
                    m.key < d.0
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if pick_mem {
                out.push(mem[i].clone());
                i += 1;
            } else {
                let d = &disk[j];
                if let Some(ptr) = decode_ptr(d.2.clone()) {
                    out.push(IndexEntry {
                        key: d.0.clone(),
                        ts: d.1,
                        ptr,
                    });
                }
                j += 1;
            }
        }
        Ok(out)
    }

    /// Entry count across tiers (disk tier counts stored versions).
    pub fn approx_len(&self) -> usize {
        let disk = self
            .disk
            .as_ref()
            .map_or(0, |(lsm, _)| lsm.stats().memtable_entries);
        // Table-resident entries are not cheaply countable per key; the
        // memory tier dominates reporting needs.
        self.mem.len() + disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbase_dfs::DfsConfig;

    fn key(s: &str) -> RowKey {
        RowKey::copy_from_slice(s.as_bytes())
    }

    fn ptr(n: u64) -> LogPtr {
        LogPtr::new(1, n, 32)
    }

    #[test]
    fn ptr_codec_round_trip() {
        let p = LogPtr::new(7, 123_456_789, 4096);
        assert_eq!(decode_ptr(encode_ptr(p)), Some(p));
        assert_eq!(decode_ptr(Bytes::from_static(b"short")), None);
    }

    #[test]
    fn in_memory_mode_behaves_like_plain_index() {
        let idx = SpillableIndex::in_memory();
        idx.insert(key("a"), Timestamp(1), ptr(1)).unwrap();
        idx.insert(key("a"), Timestamp(5), ptr(2)).unwrap();
        assert_eq!(idx.latest(b"a").unwrap().unwrap().ts, Timestamp(5));
        assert_eq!(
            idx.latest_at(b"a", Timestamp(2)).unwrap().unwrap().ptr,
            ptr(1)
        );
        assert_eq!(idx.versions(b"a").unwrap().len(), 2);
        assert!(!idx.is_spillable());
    }

    fn spilled_index() -> SpillableIndex {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        SpillableIndex::with_spill(
            dfs,
            "srv/spill",
            &SpillConfig {
                mem_budget_bytes: 600, // tiny: force frequent spills
                lsm_write_buffer_bytes: 1 << 20,
            },
        )
        .unwrap()
    }

    #[test]
    fn spilled_entries_remain_visible() {
        let idx = spilled_index();
        for i in 0..100u64 {
            idx.insert(key(&format!("k{i:03}")), Timestamp(i + 1), ptr(i))
                .unwrap();
        }
        // The memory tier must have spilled at least once.
        assert!(idx.mem().len() < 100);
        for i in [0u64, 17, 55, 99] {
            let got = idx.latest(format!("k{i:03}").as_bytes()).unwrap().unwrap();
            assert_eq!(got.ptr, ptr(i), "key k{i:03}");
            assert_eq!(got.ts, Timestamp(i + 1));
        }
    }

    #[test]
    fn newest_version_wins_across_tiers() {
        let idx = spilled_index();
        for i in 0..60u64 {
            idx.insert(key("hot"), Timestamp(i + 1), ptr(i)).unwrap();
            idx.insert(key(&format!("filler-{i:03}")), Timestamp(1000 + i), ptr(i))
                .unwrap();
        }
        let got = idx.latest(b"hot").unwrap().unwrap();
        assert_eq!(got.ts, Timestamp(60));
        assert_eq!(got.ptr, ptr(59));
        // Historical versions still resolvable from the disk tier.
        let old = idx.latest_at(b"hot", Timestamp(10)).unwrap().unwrap();
        assert_eq!(old.ptr, ptr(9));
        assert_eq!(idx.versions(b"hot").unwrap().len(), 60);
    }

    #[test]
    fn remove_key_clears_both_tiers() {
        let idx = spilled_index();
        for i in 0..80u64 {
            idx.insert(key(&format!("k{i:03}")), Timestamp(i + 1), ptr(i))
                .unwrap();
        }
        idx.remove_key(b"k010").unwrap();
        assert!(idx.latest(b"k010").unwrap().is_none());
        assert!(idx.versions(b"k010").unwrap().is_empty());
        assert!(idx.latest(b"k011").unwrap().is_some());
    }

    #[test]
    fn range_probe_merges_tiers() {
        let idx = spilled_index();
        for i in 0..50u64 {
            idx.insert(key(&format!("k{i:03}")), Timestamp(i + 1), ptr(i))
                .unwrap();
        }
        // Overwrite a key after spilling: newer version is in memory.
        idx.insert(key("k005"), Timestamp(999), ptr(777)).unwrap();
        let out = idx
            .range_latest_at(
                &KeyRange::new(&b"k000"[..], &b"k010"[..]),
                Timestamp::MAX,
                usize::MAX,
            )
            .unwrap();
        assert_eq!(out.len(), 10);
        let k5 = out.iter().find(|e| &e.key[..] == b"k005").unwrap();
        assert_eq!(k5.ptr, ptr(777));
        // Keys are ordered.
        assert!(out.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn range_probe_respects_limit_and_snapshot() {
        let idx = spilled_index();
        for i in 0..50u64 {
            idx.insert(key(&format!("k{i:03}")), Timestamp(i + 1), ptr(i))
                .unwrap();
        }
        let out = idx
            .range_latest_at(&KeyRange::all(), Timestamp(10), 5)
            .unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|e| e.ts <= Timestamp(10)));
    }
}
