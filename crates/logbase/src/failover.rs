//! Rebuilding a dead server's tablets from its log (§3.8).
//!
//! When a tablet server fails permanently, the master splits its
//! tablets among survivors by key range. Each survivor runs
//! [`rebuild_range`] over the *dead server's* DFS state: load the index
//! files of the latest checkpoint for the tablets intersecting the
//! assigned range, then redo only the log tail past the checkpoint with
//! [`scan_log_tolerant`] — "the server only needs to redo the log
//! records appended after the checkpoint". The result is the latest
//! live version of every record in the range, ready to be
//! `ingest_record`ed into the survivor's own log (preserving original
//! commit timestamps, exactly like planned tablet migration).
//!
//! [`scan_log_tolerant`]: logbase_wal::scan_log_tolerant

use crate::checkpoint;
use crate::segdir::SORTED_BASE;
use logbase_common::schema::KeyRange;
use logbase_common::{Error, LogPtr, Record, Result, RowKey, Timestamp, Value};
use logbase_dfs::Dfs;
use logbase_wal::{read_entry_in, scan_log_tolerant, segment_name, LogEntryKind};
use std::collections::{BTreeMap, HashMap};

/// One rebuilt record: `(column group, key, original commit timestamp,
/// latest live value)`.
pub type RebuiltRecord = (u16, RowKey, Timestamp, Value);

/// Outcome of rebuilding one key range from a dead server's log.
#[derive(Debug, Default)]
pub struct RebuiltTablet {
    /// Latest live version of each record in the range, in
    /// `(column group, key)` order. Tombstoned keys are absent.
    pub records: Vec<RebuiltRecord>,
    /// Frame bytes of the log-tail entries replayed for this range.
    pub log_bytes_redone: u64,
    /// Whether a checkpoint bounded the redo (false = full log scan).
    pub from_checkpoint: bool,
    /// `(segment, offset)` the tail scan started from.
    pub scan_start: (u32, u64),
}

/// Latest-wins fold state: `None` pointer marks a tombstone.
type Fold = BTreeMap<(u16, RowKey), (Timestamp, Option<LogPtr>)>;

/// Rebuild the records of `table` ∩ `range` from `server_name`'s
/// persisted state (checkpoint index files + log tail).
pub fn rebuild_range(
    dfs: &Dfs,
    server_name: &str,
    table: &str,
    range: &KeyRange,
) -> Result<RebuiltTablet> {
    let log_prefix = format!("{server_name}/log");
    let meta = checkpoint::latest_checkpoint(dfs, server_name)?;

    let mut fold: Fold = BTreeMap::new();
    let mut sorted: HashMap<u32, String> = HashMap::new();
    let (start_segment, start_offset, from_checkpoint) = match &meta {
        Some(m) => {
            sorted.extend(m.sorted_segments.iter().cloned());
            for tm in &m.tables {
                if tm.schema.name != table {
                    continue;
                }
                for tablet_meta in &tm.tablets {
                    let desc = tablet_meta.to_desc(table)?;
                    if desc.range.intersect(range).is_empty() {
                        continue;
                    }
                    for (cg, file) in tablet_meta.index_files.iter().enumerate() {
                        let loaded = logbase_index::persist::load_index(dfs, file)?;
                        for e in loaded.range_latest_at(range, Timestamp::MAX, usize::MAX) {
                            apply(&mut fold, cg as u16, e.key, e.ts, Some(e.ptr));
                        }
                    }
                }
            }
            (m.log_segment, m.log_offset, true)
        }
        None => (0, 0, false),
    };

    // Redo the tail: committed effects only, filtered to our range.
    let mut log_bytes_redone = 0u64;
    let mut pending: HashMap<u64, Vec<(Record, LogPtr)>> = HashMap::new();
    scan_log_tolerant(
        dfs,
        &log_prefix,
        start_segment,
        start_offset,
        |ptr, entry| {
            match entry.kind {
                LogEntryKind::Write { txn_id, record, .. } if entry.table == table => {
                    if !range.contains(&record.meta.key) {
                        return Ok(());
                    }
                    log_bytes_redone += u64::from(ptr.len);
                    if txn_id == 0 {
                        apply_record(&mut fold, &record, ptr);
                    } else {
                        pending.entry(txn_id).or_default().push((record, ptr));
                    }
                }
                LogEntryKind::Commit { txn_id, .. } => {
                    if let Some(writes) = pending.remove(&txn_id) {
                        for (record, ptr) in writes {
                            apply_record(&mut fold, &record, ptr);
                        }
                    }
                }
                LogEntryKind::Abort { txn_id } => {
                    pending.remove(&txn_id);
                }
                _ => {}
            }
            Ok(())
        },
    )?;
    // Writes with no commit record are uncommitted: dropped, as in
    // single-server recovery.

    // Resolve the surviving pointers to values from the dead server's
    // segments.
    let mut records = Vec::new();
    for ((cg, key), (ts, ptr)) in fold {
        let Some(ptr) = ptr else { continue };
        let name = resolve_segment(&log_prefix, &sorted, ptr.segment)?;
        let entry = read_entry_in(dfs, &name, ptr)?;
        let (record, _, _) = entry.as_write().ok_or_else(|| {
            Error::Recovery(format!("rebuild pointer {ptr} is not a write entry"))
        })?;
        if let Some(value) = record.value.clone() {
            records.push((cg, key, ts, value));
        }
    }
    Ok(RebuiltTablet {
        records,
        log_bytes_redone,
        from_checkpoint,
        scan_start: (start_segment, start_offset),
    })
}

fn apply_record(fold: &mut Fold, record: &Record, ptr: LogPtr) {
    let ptr = (!record.is_tombstone()).then_some(ptr);
    apply(
        fold,
        record.meta.column_group,
        record.meta.key.clone(),
        record.meta.timestamp,
        ptr,
    );
}

fn apply(fold: &mut Fold, cg: u16, key: RowKey, ts: Timestamp, ptr: Option<LogPtr>) {
    let slot = fold.entry((cg, key)).or_insert((ts, ptr));
    if ts >= slot.0 {
        *slot = (ts, ptr);
    }
}

fn resolve_segment(
    log_prefix: &str,
    sorted: &HashMap<u32, String>,
    segment: u32,
) -> Result<String> {
    if segment >= SORTED_BASE {
        sorted.get(&segment).cloned().ok_or_else(|| {
            Error::Recovery(format!(
                "sorted segment {segment:#x} missing from checkpoint directory"
            ))
        })
    } else {
        Ok(segment_name(log_prefix, segment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServerConfig, TabletServer};
    use logbase_common::schema::TableSchema;
    use logbase_dfs::DfsConfig;

    fn key(i: u64) -> RowKey {
        RowKey::copy_from_slice(&i.to_be_bytes())
    }

    #[test]
    fn rebuild_without_checkpoint_scans_whole_log() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let s = TabletServer::create(dfs.clone(), ServerConfig::new("dead")).unwrap();
        s.create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        for i in 0..20u64 {
            s.put("t", 0, key(i), Value::from(format!("v{i}").into_bytes()))
                .unwrap();
        }
        s.delete("t", 0, &key(3)).unwrap();
        drop(s);

        let rebuilt = rebuild_range(&dfs, "dead", "t", &KeyRange::all()).unwrap();
        assert!(!rebuilt.from_checkpoint);
        assert_eq!(rebuilt.scan_start, (0, 0));
        assert_eq!(rebuilt.records.len(), 19, "tombstoned key must be absent");
        assert!(rebuilt.records.iter().all(|(_, k, _, _)| *k != key(3)));
        let v7 = rebuilt
            .records
            .iter()
            .find(|(_, k, _, _)| *k == key(7))
            .unwrap();
        assert_eq!(v7.3.as_ref(), b"v7");
    }

    #[test]
    fn rebuild_after_checkpoint_redoes_only_the_tail() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let s = TabletServer::create(dfs.clone(), ServerConfig::new("dead")).unwrap();
        s.create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        for i in 0..50u64 {
            s.put("t", 0, key(i), Value::from_static(b"old")).unwrap();
        }
        let meta = s.checkpoint().unwrap();
        // Post-checkpoint tail: 5 overwrites.
        for i in 0..5u64 {
            s.put("t", 0, key(i), Value::from_static(b"new")).unwrap();
        }
        drop(s);

        let rebuilt = rebuild_range(&dfs, "dead", "t", &KeyRange::all()).unwrap();
        assert!(rebuilt.from_checkpoint);
        assert_eq!(rebuilt.scan_start, (meta.log_segment, meta.log_offset));
        assert_eq!(rebuilt.records.len(), 50);
        // Only the 5 tail frames were redone, not all 55 writes.
        let tail_frames = rebuilt.log_bytes_redone;
        assert!(tail_frames > 0);
        let all = rebuild_range(&dfs, "dead", "t", &KeyRange::all()).unwrap();
        assert_eq!(all.log_bytes_redone, tail_frames);
        for i in 0..5u64 {
            let rec = rebuilt
                .records
                .iter()
                .find(|(_, k, _, _)| *k == key(i))
                .unwrap();
            assert_eq!(rec.3.as_ref(), b"new", "tail overwrite must win");
        }
    }

    #[test]
    fn rebuild_filters_to_the_requested_range() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let s = TabletServer::create(dfs.clone(), ServerConfig::new("dead")).unwrap();
        s.create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        for i in 0..40u64 {
            s.put("t", 0, key(i), Value::from_static(b"v")).unwrap();
        }
        drop(s);
        let half = KeyRange {
            start: key(0),
            end: Some(key(20)),
        };
        let rebuilt = rebuild_range(&dfs, "dead", "t", &half).unwrap();
        assert_eq!(rebuilt.records.len(), 20);
        assert!(rebuilt.records.iter().all(|(_, k, _, _)| *k < key(20)));
    }

    #[test]
    fn rebuild_survives_a_torn_log_tail() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let s = TabletServer::create(dfs.clone(), ServerConfig::new("dead")).unwrap();
        s.create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        for i in 0..10u64 {
            s.put("t", 0, key(i), Value::from_static(b"v")).unwrap();
        }
        drop(s);
        // Crash artifact: half a frame at the log tail.
        let mut torn = 9_999u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"partial");
        dfs.append("dead/log/segment-000000", &torn).unwrap();

        let rebuilt = rebuild_range(&dfs, "dead", "t", &KeyRange::all()).unwrap();
        assert_eq!(rebuilt.records.len(), 10);
    }
}
