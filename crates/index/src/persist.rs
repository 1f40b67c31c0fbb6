//! Index persistence: checkpoint index files in the DFS (§3.8).
//!
//! A persisted index file is a CRC-framed header (entry count) followed
//! by CRC-framed runs of serialized entries, sorted by `(key, ts)` —
//! which is the in-memory iteration order, so writing is a single pass.

use crate::mvindex::{IndexEntry, MultiVersionIndex};
use bytes::{BufMut, Bytes, BytesMut};
use logbase_common::codec;
use logbase_common::{Error, LogPtr, Result, RowKey, Timestamp};
use logbase_dfs::Dfs;

/// Entries per framed run. Runs bound the memory needed to decode and let
/// a torn final run be detected by its CRC.
const RUN_SIZE: usize = 4096;

fn encode_entry(buf: &mut BytesMut, e: &IndexEntry) {
    codec::put_bytes(buf, &e.key);
    buf.put_u64_le(e.ts.0);
    buf.put_u32_le(e.ptr.segment);
    buf.put_u64_le(e.ptr.offset);
    buf.put_u32_le(e.ptr.len);
}

fn decode_entry(src: &mut Bytes, ctx: &str) -> Result<IndexEntry> {
    let key = codec::get_bytes(src, ctx)?;
    let ts = Timestamp(codec::get_u64(src, ctx)?);
    let segment = codec::get_u32(src, ctx)?;
    let offset = codec::get_u64(src, ctx)?;
    let len = codec::get_u32(src, ctx)?;
    Ok(IndexEntry {
        key: RowKey::from(key),
        ts,
        ptr: LogPtr::new(segment, offset, len),
    })
}

/// Write a snapshot of `index` to the DFS file `name` (created fresh;
/// fails if it exists). Returns the number of entries written.
pub fn save_index(dfs: &Dfs, name: &str, index: &MultiVersionIndex) -> Result<u64> {
    let entries = index.scan_all();
    dfs.create(name)?;
    let mut out = BytesMut::new();
    let mut header = BytesMut::new();
    header.put_u64_le(entries.len() as u64);
    codec::encode_frame(&mut out, &header);

    let mut run = BytesMut::new();
    let mut in_run = 0usize;
    for e in &entries {
        encode_entry(&mut run, e);
        in_run += 1;
        if in_run == RUN_SIZE {
            codec::encode_frame(&mut out, &run);
            run.clear();
            in_run = 0;
        }
    }
    if in_run > 0 {
        codec::encode_frame(&mut out, &run);
    }
    dfs.append(name, &out)?;
    dfs.seal(name)?;
    Ok(entries.len() as u64)
}

/// Load a snapshot written by [`save_index`] into a fresh index. The
/// index copies the keys it keeps: the file's bytes are released on
/// return.
pub fn load_index(dfs: &Dfs, name: &str) -> Result<MultiVersionIndex> {
    let raw = dfs.read_all(name)?;
    let (mut header, mut pos) = codec::decode_frame(&raw, name)?;
    let expected = codec::get_u64(&mut header, name)?;
    let index = MultiVersionIndex::new();
    let mut loaded = 0u64;
    while pos < raw.len() {
        let (mut run, consumed) = codec::decode_frame(&raw[pos..], name)?;
        pos += consumed;
        let mut entries = Vec::new();
        while !run.is_empty() {
            entries.push(decode_entry(&mut run, name)?);
        }
        loaded += entries.len() as u64;
        index.insert_batch(entries);
    }
    if loaded != expected {
        return Err(Error::Corruption(format!(
            "{name}: index file promises {expected} entries but holds {loaded}"
        )));
    }
    index.reset_update_counter();
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbase_dfs::DfsConfig;

    fn filled_index(n: u64) -> MultiVersionIndex {
        let idx = MultiVersionIndex::new();
        for i in 0..n {
            idx.insert(
                RowKey::from(format!("key-{:06}", i % (n / 2).max(1)).into_bytes()),
                Timestamp(i),
                LogPtr::new((i / 100) as u32, i * 64, 64),
            );
        }
        idx
    }

    #[test]
    fn save_load_round_trip() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let idx = filled_index(500);
        let n = save_index(&dfs, "srv/ckpt/idx-0", &idx).unwrap();
        assert_eq!(n, 500);
        let loaded = load_index(&dfs, "srv/ckpt/idx-0").unwrap();
        assert_eq!(loaded.scan_all(), idx.scan_all());
    }

    #[test]
    fn empty_index_round_trips() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let idx = MultiVersionIndex::new();
        save_index(&dfs, "srv/ckpt/empty", &idx).unwrap();
        let loaded = load_index(&dfs, "srv/ckpt/empty").unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn multi_run_files_round_trip() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let idx = filled_index(RUN_SIZE as u64 * 2 + 37);
        save_index(&dfs, "srv/ckpt/big", &idx).unwrap();
        let loaded = load_index(&dfs, "srv/ckpt/big").unwrap();
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.stats().keys, idx.stats().keys);
    }

    #[test]
    fn save_refuses_to_overwrite() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let idx = filled_index(10);
        save_index(&dfs, "srv/ckpt/once", &idx).unwrap();
        assert!(save_index(&dfs, "srv/ckpt/once", &idx).is_err());
    }

    #[test]
    fn load_detects_truncated_count() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        // Header promises 5 entries, body holds none.
        dfs.create("bad").unwrap();
        let mut out = BytesMut::new();
        let mut header = BytesMut::new();
        header.put_u64_le(5);
        codec::encode_frame(&mut out, &header);
        dfs.append("bad", &out).unwrap();
        assert!(matches!(load_index(&dfs, "bad"), Err(Error::Corruption(_))));
    }

    #[test]
    fn load_missing_file_errors() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        assert!(matches!(
            load_index(&dfs, "absent"),
            Err(Error::FileNotFound(_))
        ));
    }
}
