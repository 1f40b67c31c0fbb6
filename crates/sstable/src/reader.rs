//! SSTable reader: footer/index/filter parsing, cached block reads.

use crate::block::{Block, BlockEntry};
use crate::bloom::BloomFilter;
use crate::writer::{FOOTER_LEN, SSTABLE_MAGIC};
use logbase_common::cache::Cache;
use logbase_common::codec;
use logbase_common::metrics::Metrics;
use logbase_common::schema::KeyRange;
use logbase_common::{Error, Result, RowKey, Timestamp};
use logbase_dfs::Dfs;
use std::sync::Arc;

/// Shared cache of decoded blocks keyed by `(file, block offset)`.
///
/// This is the baselines' *block cache*: on a hit, a point read needs no
/// DFS I/O at all; on a miss, a whole block (~64 KB) is fetched to serve
/// one record — the extra work Fig. 7 charges HBase for.
pub struct BlockCache {
    cache: Cache<(String, u64), Arc<Block>>,
}

impl BlockCache {
    /// Cache with the given byte budget and the default shard count.
    pub fn new(capacity_bytes: u64) -> Self {
        BlockCache {
            cache: Cache::lru(capacity_bytes),
        }
    }

    fn get(&self, file: &str, offset: u64) -> Option<Arc<Block>> {
        self.cache.get(&(file.to_string(), offset))
    }

    fn insert(&self, file: &str, offset: u64, block: Arc<Block>, bytes: u64) {
        self.cache.insert((file.to_string(), offset), block, bytes);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Drop all cached blocks.
    pub fn clear(&self) {
        self.cache.clear();
    }
}

/// An open SSTable: sparse index and bloom filter resident, data blocks
/// fetched on demand (optionally through a [`BlockCache`]).
pub struct SsTableReader {
    dfs: Dfs,
    name: String,
    index: Vec<(RowKey, u64, u64)>,
    filter: BloomFilter,
    count: u64,
    file_bytes: u64,
}

impl SsTableReader {
    /// Open `name`, reading footer, sparse index and filter.
    pub fn open(dfs: Dfs, name: impl Into<String>) -> Result<Self> {
        let name = name.into();
        let file_len = dfs.len(&name)?;
        if file_len < FOOTER_LEN as u64 {
            return Err(Error::Corruption(format!(
                "{name}: too short for an SSTable footer"
            )));
        }
        let footer = dfs.read(&name, file_len - FOOTER_LEN as u64, FOOTER_LEN as u64)?;
        let mut f = footer;
        let index_off = codec::get_u64(&mut f, &name)?;
        let index_len = codec::get_u64(&mut f, &name)?;
        let filter_off = codec::get_u64(&mut f, &name)?;
        let filter_len = codec::get_u64(&mut f, &name)?;
        let count = codec::get_u64(&mut f, &name)?;
        let magic = codec::get_u64(&mut f, &name)?;
        if magic != SSTABLE_MAGIC {
            return Err(Error::Corruption(format!(
                "{name}: bad SSTable magic {magic:#018x}"
            )));
        }

        let raw_index = dfs.read(&name, index_off, index_len)?;
        let (index_payload, _) = codec::decode_frame(&raw_index, &name)?;
        let mut src = index_payload;
        let n = codec::get_u64(&mut src, &name)?;
        let mut index = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let key = codec::get_bytes(&mut src, &name)?;
            let off = codec::get_u64(&mut src, &name)?;
            let len = codec::get_u64(&mut src, &name)?;
            index.push((RowKey::from(key), off, len));
        }

        let raw_filter = dfs.read(&name, filter_off, filter_len)?;
        let (filter_payload, _) = codec::decode_frame(&raw_filter, &name)?;
        let filter = BloomFilter::decode(filter_payload)?;

        Ok(SsTableReader {
            dfs,
            name,
            index,
            filter,
            count,
            file_bytes: file_len,
        })
    }

    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total entries in the table.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// On-DFS size of the table at open time (merge policies weigh
    /// runs by bytes).
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Number of data blocks.
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// Bloom filter probe: false means `key` is definitely absent.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.filter.may_contain(key)
    }

    /// Index of the block that may contain `key` (the last block whose
    /// first key is `<= key`).
    fn block_for(&self, key: &[u8]) -> Option<usize> {
        let idx = self
            .index
            .partition_point(|(first, _, _)| &first[..] <= key);
        idx.checked_sub(1)
    }

    fn load_block(&self, block_idx: usize, cache: Option<&BlockCache>) -> Result<Arc<Block>> {
        let (_, off, len) = self.index[block_idx];
        if let Some(c) = cache {
            if let Some(b) = c.get(&self.name, off) {
                Metrics::incr(&self.dfs.metrics().cache_hits);
                return Ok(b);
            }
            Metrics::incr(&self.dfs.metrics().cache_misses);
        }
        let raw = self.dfs.read(&self.name, off, len)?;
        let (payload, _) = codec::decode_frame(&raw, &self.name)?;
        let block = Arc::new(Block::decode(&payload)?);
        if let Some(c) = cache {
            c.insert(&self.name, off, Arc::clone(&block), len);
        }
        Ok(block)
    }

    /// Latest version of `key` with `ts <= at`.
    ///
    /// Returns `Some(entry)` even when the visible version is a
    /// tombstone — the caller distinguishes "deleted here" from "absent,
    /// look in older tables".
    pub fn get_at(
        &self,
        key: &[u8],
        at: Timestamp,
        cache: Option<&BlockCache>,
    ) -> Result<Option<BlockEntry>> {
        if !self.filter.may_contain(key) {
            return Ok(None);
        }
        let Some(block_idx) = self.block_for(key) else {
            return Ok(None);
        };
        let block = self.load_block(block_idx, cache)?;
        Ok(block.get_at(key, at).cloned())
    }

    /// Iterate all entries in `(key, ts)` order.
    pub fn iter<'a>(&'a self, cache: Option<&'a BlockCache>) -> SsTableIter<'a> {
        SsTableIter {
            reader: self,
            cache,
            block_idx: 0,
            entry_idx: 0,
            block: None,
            range: KeyRange::all(),
            done: false,
        }
    }

    /// Iterate entries whose key falls in `range`.
    pub fn range_iter<'a>(
        &'a self,
        range: KeyRange,
        cache: Option<&'a BlockCache>,
    ) -> SsTableIter<'a> {
        // Start at the block that may contain range.start.
        let start_block = if range.start.is_empty() {
            0
        } else {
            self.block_for(&range.start).unwrap_or(0)
        };
        SsTableIter {
            reader: self,
            cache,
            block_idx: start_block,
            entry_idx: 0,
            block: None,
            range,
            done: false,
        }
    }
}

/// Streaming iterator over an SSTable (optionally range-bounded).
pub struct SsTableIter<'a> {
    reader: &'a SsTableReader,
    cache: Option<&'a BlockCache>,
    block_idx: usize,
    entry_idx: usize,
    block: Option<Arc<Block>>,
    range: KeyRange,
    done: bool,
}

impl SsTableIter<'_> {
    /// Next entry, or `None` at the end. Errors come from DFS reads or
    /// corrupt blocks.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<BlockEntry>> {
        loop {
            if self.done {
                return Ok(None);
            }
            if self.block.is_none() {
                if self.block_idx >= self.reader.index.len() {
                    self.done = true;
                    return Ok(None);
                }
                self.block = Some(self.reader.load_block(self.block_idx, self.cache)?);
                self.entry_idx = 0;
            }
            let block = self.block.as_ref().expect("block loaded above");
            if self.entry_idx >= block.entries.len() {
                self.block = None;
                self.block_idx += 1;
                continue;
            }
            let entry = block.entries[self.entry_idx].clone();
            self.entry_idx += 1;
            if entry.key[..] < self.range.start[..] {
                continue;
            }
            if let Some(end) = &self.range.end {
                if entry.key[..] >= end[..] {
                    self.done = true;
                    return Ok(None);
                }
            }
            return Ok(Some(entry));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{SsTableConfig, SsTableWriter};
    use logbase_common::Value;
    use logbase_dfs::DfsConfig;

    fn entry(key: &str, ts: u64, value: Option<&str>) -> BlockEntry {
        BlockEntry {
            key: RowKey::copy_from_slice(key.as_bytes()),
            ts: Timestamp(ts),
            value: value.map(|v| Value::copy_from_slice(v.as_bytes())),
        }
    }

    fn build_table(dfs: &Dfs, name: &str, block_bytes: usize, n: u64) -> SsTableReader {
        let mut w = SsTableWriter::create(
            dfs.clone(),
            name,
            SsTableConfig {
                block_bytes,
                bloom_bits_per_key: 10,
            },
        )
        .unwrap();
        for i in 0..n {
            w.add(&entry(&format!("key-{i:05}"), 1, Some("v"))).unwrap();
        }
        w.finish().unwrap();
        SsTableReader::open(dfs.clone(), name).unwrap()
    }

    #[test]
    fn open_and_point_reads() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let r = build_table(&dfs, "t/1", 256, 200);
        assert_eq!(r.count(), 200);
        assert!(r.block_count() > 1);
        for i in [0u64, 1, 99, 199] {
            let e = r
                .get_at(format!("key-{i:05}").as_bytes(), Timestamp::MAX, None)
                .unwrap()
                .unwrap();
            assert_eq!(e.value.as_deref(), Some(&b"v"[..]));
        }
        assert!(r
            .get_at(b"key-99999", Timestamp::MAX, None)
            .unwrap()
            .is_none());
        assert!(r.get_at(b"aaa", Timestamp::MAX, None).unwrap().is_none());
    }

    #[test]
    fn multiversion_get_at() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let mut w = SsTableWriter::create(dfs.clone(), "t/mv", SsTableConfig::default()).unwrap();
        w.add(&entry("a", 1, Some("v1"))).unwrap();
        w.add(&entry("a", 5, Some("v2"))).unwrap();
        w.add(&entry("a", 9, None)).unwrap();
        w.finish().unwrap();
        let r = SsTableReader::open(dfs, "t/mv").unwrap();
        assert_eq!(
            r.get_at(b"a", Timestamp(6), None)
                .unwrap()
                .unwrap()
                .value
                .as_deref(),
            Some(&b"v2"[..])
        );
        assert!(r
            .get_at(b"a", Timestamp(9), None)
            .unwrap()
            .unwrap()
            .value
            .is_none());
        assert!(r.get_at(b"a", Timestamp(0), None).unwrap().is_none());
    }

    #[test]
    fn bloom_filter_skips_absent_keys_without_io() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let r = build_table(&dfs, "t/bloom", 1024, 500);
        let reads_before = dfs.metrics().snapshot().dfs_reads;
        let mut skipped = 0;
        for i in 0..500 {
            if r.get_at(format!("absent-{i}").as_bytes(), Timestamp::MAX, None)
                .unwrap()
                .is_none()
                && dfs.metrics().snapshot().dfs_reads == reads_before + skipped
            {
                // no read issued for this probe
            } else {
                skipped += 1;
            }
        }
        let reads_after = dfs.metrics().snapshot().dfs_reads;
        // Nearly all absent probes are answered by the filter alone.
        assert!(
            reads_after - reads_before < 25,
            "too many reads for absent keys: {}",
            reads_after - reads_before
        );
    }

    #[test]
    fn block_cache_eliminates_repeat_reads() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let r = build_table(&dfs, "t/cache", 512, 100);
        let cache = BlockCache::new(1 << 20);
        r.get_at(b"key-00050", Timestamp::MAX, Some(&cache))
            .unwrap();
        let reads_after_first = dfs.metrics().snapshot().dfs_reads;
        for _ in 0..10 {
            r.get_at(b"key-00050", Timestamp::MAX, Some(&cache))
                .unwrap();
        }
        assert_eq!(dfs.metrics().snapshot().dfs_reads, reads_after_first);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 10);
        assert_eq!(misses, 1);
    }

    #[test]
    fn full_iteration_is_ordered_and_complete() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let r = build_table(&dfs, "t/iter", 128, 150);
        let mut it = r.iter(None);
        let mut keys = Vec::new();
        while let Some(e) = it.next().unwrap() {
            keys.push(e.key.clone());
        }
        assert_eq!(keys.len(), 150);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn range_iteration_respects_bounds() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let r = build_table(&dfs, "t/range", 128, 100);
        let range = KeyRange::new(&b"key-00020"[..], &b"key-00030"[..]);
        let mut it = r.range_iter(range, None);
        let mut keys = Vec::new();
        while let Some(e) = it.next().unwrap() {
            keys.push(String::from_utf8(e.key.to_vec()).unwrap());
        }
        assert_eq!(keys.first().map(String::as_str), Some("key-00020"));
        assert_eq!(keys.last().map(String::as_str), Some("key-00029"));
        assert_eq!(keys.len(), 10);
    }

    #[test]
    fn open_rejects_non_sstable() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        dfs.create("junk").unwrap();
        dfs.append("junk", &[0u8; 100]).unwrap();
        assert!(SsTableReader::open(dfs.clone(), "junk").is_err());
        dfs.create("tiny").unwrap();
        dfs.append("tiny", b"x").unwrap();
        assert!(SsTableReader::open(dfs, "tiny").is_err());
    }

    #[test]
    fn empty_table_round_trips() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = SsTableWriter::create(dfs.clone(), "t/empty", SsTableConfig::default()).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let r = SsTableReader::open(dfs, "t/empty").unwrap();
        assert_eq!(r.count(), 0);
        assert!(r.get_at(b"x", Timestamp::MAX, None).unwrap().is_none());
        let mut it = r.iter(None);
        assert!(it.next().unwrap().is_none());
    }
}
