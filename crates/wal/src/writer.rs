//! Log writer: framed appends with segment rotation.
//!
//! The batch encoder is the hot path of the whole system (the log *is*
//! the database), so it is built around three properties:
//!
//! - **No per-entry allocation.** Entries are encoded straight into a
//!   recycled [`BytesMut`] owned by the writer ([`codec::encode_frame_with`]
//!   backfills each frame header in place), and the compression scratch
//!   buffers are recycled the same way.
//! - **Sealed segments honor `segment_bytes`.** A batch that would
//!   overflow the open segment is split mid-encode: each split chunk is
//!   flushed to its own segment with a rotation in between, so no sealed
//!   segment overshoots the cap by more than a single oversized entry.
//! - **Failed appends burn no LSNs.** `next_lsn` is committed to writer
//!   state only for entries whose bytes actually reached the DFS; a batch
//!   that fails before any chunk lands rolls back completely, keeping the
//!   LSN sequence dense across retries.

use crate::entry::{self, COMPRESSED_MARKER};
use crate::segment_name;
use bytes::BytesMut;
use logbase_common::codec;
use logbase_common::compress::{lz4_compress, Compression};
use logbase_common::config::DEFAULT_SEGMENT_BYTES;
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::{LogPtr, Lsn, Result};
use logbase_dfs::{crash_point, Dfs};
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::sync::Arc;

/// Pre-append admission check. Installed by the owning tablet server to
/// carry its fencing token: a gate that returns `Error::Fenced` stops a
/// zombie's appends before they reach the DFS.
pub type WriteGate = Arc<dyn Fn() -> Result<()> + Send + Sync>;

/// Payloads below this length are framed raw even when compression is
/// on: the marker + raw-length preamble plus codec overhead cannot pay
/// for itself on tiny entries.
pub const MIN_COMPRESS_BYTES: usize = 64;

/// Recycled encode buffers above this capacity are dropped instead of
/// pooled, so one giant batch does not pin its high-water mark forever.
const MAX_POOLED_BUF: usize = 4 * 1024 * 1024;

/// Log writer configuration.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// DFS name prefix for this log instance, e.g. `"srv-3/log"`.
    pub prefix: String,
    /// Segment rotation threshold in bytes (paper default 64 MB).
    pub segment_bytes: u64,
    /// Per-batch entry compression codec ([`Compression::None`] frames
    /// entries raw). Compressed and raw frames coexist in one log, so
    /// the flag can change across reopens without migration.
    pub compression: Compression,
}

impl LogConfig {
    /// Config with the paper's default segment size.
    pub fn new(prefix: impl Into<String>) -> Self {
        LogConfig {
            prefix: prefix.into(),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            compression: Compression::None,
        }
    }

    /// Builder-style segment-size override.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Builder-style batch-compression override.
    #[must_use]
    pub fn with_compression(mut self, compression: Compression) -> Self {
        self.compression = compression;
        self
    }
}

struct WriterState {
    /// Sequence number of the open segment.
    segment: u32,
    /// Bytes already in the open segment.
    segment_len: u64,
    /// Next LSN to assign.
    next_lsn: Lsn,
    /// Recycled batch encode buffer (framed bytes headed for the DFS).
    encode_buf: BytesMut,
    /// Recycled raw-payload scratch (compression staging).
    payload_buf: BytesMut,
    /// Recycled compressed-block scratch.
    lz4_buf: Vec<u8>,
}

impl WriterState {
    fn new(segment: u32, segment_len: u64, next_lsn: Lsn) -> Self {
        WriterState {
            segment,
            segment_len,
            next_lsn,
            encode_buf: BytesMut::new(),
            payload_buf: BytesMut::new(),
            lz4_buf: Vec::new(),
        }
    }
}

/// One flush unit of a batch: a contiguous frame range bound for one
/// segment. Batches that fit the open segment have exactly one chunk.
struct Chunk {
    entries: Range<usize>,
    bytes: Range<usize>,
    segment: u32,
    base_offset: u64,
}

/// Appends framed [`LogEntry`](crate::LogEntry)s to the segmented log.
///
/// One writer exists per tablet server (the paper's single-log-instance
/// design choice, §3.4). The writer assigns LSNs, so entries handed to
/// [`LogWriter::append_batch`] carry their final LSN in the result.
pub struct LogWriter {
    dfs: Dfs,
    metrics: MetricsHandle,
    config: LogConfig,
    state: Mutex<WriterState>,
    gate: RwLock<Option<WriteGate>>,
}

impl LogWriter {
    /// Create a fresh log (starts at segment 0, LSN 1).
    pub fn create(dfs: Dfs, config: LogConfig) -> Result<Self> {
        dfs.create(&segment_name(&config.prefix, 0))?;
        let metrics = Arc::clone(dfs.metrics());
        Ok(LogWriter {
            dfs,
            metrics,
            config,
            state: Mutex::new(WriterState::new(0, 0, Lsn(1))),
            gate: RwLock::new(None),
        })
    }

    /// Re-open an existing log after recovery: continue at `next_lsn`
    /// after the last segment found under the prefix.
    ///
    /// If a crash left a torn frame at the tail of the last segment, the
    /// damaged segment is sealed as-is and writing resumes in a fresh
    /// segment — new appends must never land *after* garbage bytes, or
    /// every later scan would stop at the tear and miss them.
    pub fn reopen(dfs: Dfs, config: LogConfig, next_lsn: Lsn) -> Result<Self> {
        let last = dfs
            .list(&format!("{}/segment-", config.prefix))
            .into_iter()
            .filter_map(|n| crate::parse_segment_name(&config.prefix, &n))
            .max();
        let (segment, segment_len) = match last {
            Some(seq) => {
                let name = segment_name(&config.prefix, seq);
                let raw_len = dfs.len(&name)?;
                let valid_len = crate::reader::valid_prefix_len(&dfs, &name)?;
                if valid_len < raw_len {
                    // Torn tail: retire the damaged segment, start clean.
                    let _ = dfs.seal(&name);
                    dfs.create(&segment_name(&config.prefix, seq + 1))?;
                    (seq + 1, 0)
                } else {
                    (seq, raw_len)
                }
            }
            None => {
                dfs.create(&segment_name(&config.prefix, 0))?;
                (0, 0)
            }
        };
        let metrics = Arc::clone(dfs.metrics());
        Ok(LogWriter {
            dfs,
            metrics,
            config,
            state: Mutex::new(WriterState::new(segment, segment_len, next_lsn)),
            gate: RwLock::new(None),
        })
    }

    /// Install (or replace) the pre-append admission gate. The gate runs
    /// under the writer lock at the head of every
    /// [`append_batch`](Self::append_batch), so after a gate starts
    /// failing no further batch enters the log. An append already past
    /// its gate check when the lease expires can still land — that
    /// residual window is closed at the read side: failover rebuilds only
    /// replay entries up to the rebuild's scan point, and clients never
    /// route to the fenced server again.
    pub fn set_gate(&self, gate: WriteGate) {
        *self.gate.write() = Some(gate);
    }

    /// The DFS prefix of this log instance.
    pub fn prefix(&self) -> &str {
        &self.config.prefix
    }

    /// The shared metrics sink of the backing DFS.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Sequence number of the currently open segment.
    pub fn current_segment(&self) -> u32 {
        self.state.lock().segment
    }

    /// The LSN the next appended entry will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    /// Current append position `(segment, offset)` — everything before
    /// it is durable. Checkpoints record this as the redo start.
    pub fn position(&self) -> (u32, u64) {
        let s = self.state.lock();
        (s.segment, s.segment_len)
    }

    /// Set the next LSN (recovery: after redo determines the highest LSN
    /// in the log, the writer resumes after it).
    pub fn set_next_lsn(&self, lsn: Lsn) {
        self.state.lock().next_lsn = lsn;
    }

    /// Seal the open segment and start a new one (compaction snapshots
    /// the sealed prefix of the log this way). Returns the sequence
    /// number of the new open segment.
    pub fn rotate(&self) -> Result<u32> {
        let mut state = self.state.lock();
        self.rotate_locked(&mut state)?;
        Ok(state.segment)
    }

    fn rotate_locked(&self, state: &mut WriterState) -> Result<()> {
        let old = segment_name(&self.config.prefix, state.segment);
        self.dfs.seal(&old)?;
        state.segment += 1;
        state.segment_len = 0;
        self.dfs
            .create(&segment_name(&self.config.prefix, state.segment))?;
        Ok(())
    }

    /// Append one entry; see [`LogWriter::append_batch`].
    pub fn append(&self, table: &str, kind: crate::LogEntryKind) -> Result<(Lsn, LogPtr)> {
        let mut out = self.append_batch(&[(table.to_string(), kind)])?;
        Ok(out.pop().expect("batch of one yields one position"))
    }

    /// Append a batch of entries (group commit). A batch that fits the
    /// open segment is **one replicated DFS write**; a batch that would
    /// overflow it is split across segment rotations so sealed segments
    /// honor `segment_bytes`. Returns the `(Lsn, LogPtr)` assigned to
    /// each entry, in order. The call returns only after the bytes are
    /// replicated, so a returned position implies durability
    /// (Guarantee 1).
    ///
    /// On error, `next_lsn` keeps only the LSNs of entries whose chunk
    /// reached the DFS before the failure (none, in the common
    /// single-chunk case): unacked durable entries keep their LSNs
    /// burned — they are already in the log — while everything else is
    /// rolled back so a retry reuses the sequence densely.
    pub fn append_batch(
        &self,
        entries: &[(String, crate::LogEntryKind)],
    ) -> Result<Vec<(Lsn, LogPtr)>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let mut state = self.state.lock();

        // Admission check under the writer lock, before any state
        // mutation: a fenced writer contributes nothing to the log.
        if let Some(gate) = self.gate.read().clone() {
            gate()?;
        }

        // Take the recycled buffers out of the state; they are returned
        // on every exit path.
        let mut buf = std::mem::take(&mut state.encode_buf);
        let mut payload = std::mem::take(&mut state.payload_buf);
        let mut lz4 = std::mem::take(&mut state.lz4_buf);
        buf.clear();

        let result = self.encode_and_flush(&mut state, entries, &mut buf, &mut payload, &mut lz4);

        if buf.capacity() <= MAX_POOLED_BUF {
            state.encode_buf = buf;
        }
        if payload.capacity() <= MAX_POOLED_BUF {
            state.payload_buf = payload;
        }
        if lz4.capacity() <= MAX_POOLED_BUF {
            state.lz4_buf = lz4;
        }
        result
    }

    /// Encode `entries` into `buf`, split into per-segment chunks, and
    /// flush each chunk with rotations in between. Commits LSN and
    /// segment state exactly as far as the DFS accepted bytes.
    fn encode_and_flush(
        &self,
        state: &mut WriterState,
        entries: &[(String, crate::LogEntryKind)],
        buf: &mut BytesMut,
        payload: &mut BytesMut,
        lz4: &mut Vec<u8>,
    ) -> Result<Vec<(Lsn, LogPtr)>> {
        let lsn0 = state.next_lsn;
        let compress = self.config.compression.is_enabled();
        let mut saved_bytes = 0u64;

        // Pass 1: encode every frame into `buf`, recording frame lengths.
        // LSNs are assigned here but *not* committed to writer state.
        let mut frame_lens = Vec::with_capacity(entries.len());
        for (i, (table, kind)) in entries.iter().enumerate() {
            let lsn = Lsn(lsn0.0 + i as u64);
            let framed = if compress {
                payload.clear();
                entry::encode_parts_into(payload, lsn, table, kind);
                if payload.len() >= MIN_COMPRESS_BYTES {
                    let compressed_len = lz4_compress(payload, lz4);
                    // Marker + raw-length preamble must still win.
                    if compressed_len + 5 < payload.len() {
                        saved_bytes += (payload.len() - compressed_len - 5) as u64;
                        codec::encode_frame_with(buf, |dst| {
                            dst.extend_from_slice(&[COMPRESSED_MARKER]);
                            dst.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                            dst.extend_from_slice(lz4);
                        })
                    } else {
                        codec::encode_frame(buf, payload)
                    }
                } else {
                    codec::encode_frame(buf, payload)
                }
            } else {
                codec::encode_frame_with(buf, |dst| entry::encode_parts_into(dst, lsn, table, kind))
            };
            frame_lens.push(framed);
        }

        // Pass 2 (plan): split the frame sequence into chunks so no
        // segment is pushed past `segment_bytes` by a frame that could
        // have started a fresh one. An entry bigger than a whole segment
        // gets a segment of its own — the one unavoidable overshoot.
        let mut chunks: Vec<Chunk> = Vec::with_capacity(1);
        let mut seg = state.segment;
        let mut seg_len = state.segment_len;
        let mut positions = Vec::with_capacity(entries.len());
        let mut byte_pos = 0usize;
        let mut open: Option<Chunk> = None;
        for (i, &flen) in frame_lens.iter().enumerate() {
            if seg_len > 0 && seg_len + flen as u64 > self.config.segment_bytes {
                if let Some(c) = open.take() {
                    chunks.push(c);
                }
                seg += 1;
                seg_len = 0;
            }
            let chunk = open.get_or_insert(Chunk {
                entries: i..i,
                bytes: byte_pos..byte_pos,
                segment: seg,
                base_offset: seg_len,
            });
            positions.push((
                Lsn(lsn0.0 + i as u64),
                LogPtr::new(seg, seg_len, flen as u32),
            ));
            chunk.entries.end = i + 1;
            chunk.bytes.end = byte_pos + flen;
            seg_len += flen as u64;
            byte_pos += flen;
        }
        if let Some(c) = open.take() {
            chunks.push(c);
        }

        // Pass 3 (apply): flush chunk by chunk, rotating between chunks.
        // Writer state advances only as far as the DFS confirmed, so an
        // error burns exactly the LSNs that are durable in the log.
        let rotations = chunks.len().saturating_sub(1);
        let mut flush = || -> Result<()> {
            for chunk in &chunks {
                while state.segment < chunk.segment {
                    self.rotate_locked(state)?;
                }
                crash_point!(self.dfs, "wal.append_batch.chunk");
                let name = segment_name(&self.config.prefix, chunk.segment);
                let off = self
                    .dfs
                    .append(&name, &buf[chunk.bytes.start..chunk.bytes.end])?;
                debug_assert_eq!(off, chunk.base_offset, "append landed at planned offset");
                state.segment_len = chunk.base_offset + (chunk.bytes.len() as u64);
                state.next_lsn = Lsn(lsn0.0 + chunk.entries.end as u64);
            }
            Ok(())
        };
        flush()?;

        Metrics::incr(&self.metrics.wal_batches_committed);
        Metrics::add(&self.metrics.wal_batched_entries, entries.len() as u64);
        Metrics::add(&self.metrics.wal_compression_saved_bytes, saved_bytes);
        Metrics::add(&self.metrics.wal_mid_batch_rotations, rotations as u64);
        Ok(positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogEntryKind;
    use logbase_common::{Record, Timestamp};
    use logbase_dfs::DfsConfig;

    fn writer(segment_bytes: u64) -> (Dfs, LogWriter) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::create(
            dfs.clone(),
            LogConfig::new("srv-0/log").with_segment_bytes(segment_bytes),
        )
        .unwrap();
        (dfs, w)
    }

    fn put_kind(key: &str, ts: u64) -> LogEntryKind {
        LogEntryKind::Write {
            txn_id: 0,
            tablet: 0,
            record: Record::put(key.as_bytes().to_vec(), 0, Timestamp(ts), vec![0u8; 16]),
        }
    }

    fn put_kind_sized(key: &str, ts: u64, value_bytes: usize) -> LogEntryKind {
        LogEntryKind::Write {
            txn_id: 0,
            tablet: 0,
            record: Record::put(
                key.as_bytes().to_vec(),
                0,
                Timestamp(ts),
                vec![0x5au8; value_bytes],
            ),
        }
    }

    #[test]
    fn lsns_are_dense_and_increasing() {
        let (_dfs, w) = writer(1 << 20);
        let a = w.append("t", put_kind("a", 1)).unwrap();
        let b = w.append("t", put_kind("b", 2)).unwrap();
        assert_eq!(a.0, Lsn(1));
        assert_eq!(b.0, Lsn(2));
        assert!(b.1.offset > a.1.offset);
    }

    #[test]
    fn batch_is_one_dfs_append() {
        let (dfs, w) = writer(1 << 20);
        let before = dfs.metrics().snapshot().dfs_appends;
        let batch: Vec<_> = (0..10)
            .map(|i| ("t".to_string(), put_kind(&format!("k{i}"), i)))
            .collect();
        let pos = w.append_batch(&batch).unwrap();
        assert_eq!(pos.len(), 10);
        assert_eq!(dfs.metrics().snapshot().dfs_appends - before, 1);
        // Positions are contiguous.
        for win in pos.windows(2) {
            assert_eq!(win[0].1.offset + u64::from(win[0].1.len), win[1].1.offset);
        }
    }

    #[test]
    fn rotation_seals_and_creates_segments() {
        let (dfs, w) = writer(64); // tiny segments force rotation
        for i in 0..20 {
            w.append("t", put_kind(&format!("key-{i}"), i)).unwrap();
        }
        assert!(w.current_segment() >= 2);
        let segs = dfs.list("srv-0/log/segment-");
        assert_eq!(segs.len() as u32, w.current_segment() + 1);
        // All but the open segment are sealed.
        for s in &segs[..segs.len() - 1] {
            assert!(dfs.append(s, b"x").is_err(), "{s} should be sealed");
        }
    }

    /// Regression (ISSUE 9): one batch bigger than a whole segment used
    /// to land in a single segment, overshooting `segment_bytes` without
    /// bound. The batch must now be split across rotations mid-encode.
    #[test]
    fn oversized_batch_is_split_so_sealed_segments_honor_the_cap() {
        let segment_bytes = 512u64;
        let (dfs, w) = writer(segment_bytes);
        // ~80 bytes per frame, 40 entries ≈ 6x the segment cap.
        let batch: Vec<_> = (0..40)
            .map(|i| ("t".to_string(), put_kind_sized(&format!("k{i:02}"), i, 24)))
            .collect();
        let before = dfs.metrics().snapshot();
        let pos = w.append_batch(&batch).unwrap();
        let after = dfs.metrics().snapshot();
        assert!(
            w.current_segment() >= 4,
            "batch was not split: still in segment {}",
            w.current_segment()
        );
        assert_eq!(
            after.wal_mid_batch_rotations - before.wal_mid_batch_rotations,
            { u64::from(w.current_segment()) }
        );
        // Every sealed segment respects the cap (no frame is larger than
        // a segment here, so no overshoot is excusable).
        let segs = dfs.list("srv-0/log/segment-");
        for s in &segs[..segs.len() - 1] {
            let len = dfs.len(s).unwrap();
            assert!(
                len <= segment_bytes,
                "sealed segment {s} holds {len} bytes > cap {segment_bytes}"
            );
        }
        // Every pointer resolves and the scan sees everything in order.
        for (lsn, ptr) in &pos {
            let e = crate::read_entry(&dfs, "srv-0/log", *ptr).unwrap();
            assert_eq!(e.lsn, *lsn);
        }
        let mut lsns = Vec::new();
        crate::scan_log(&dfs, "srv-0/log", 0, 0, |_, e| {
            lsns.push(e.lsn.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, (1..=40).collect::<Vec<_>>());
    }

    /// An entry larger than `segment_bytes` still lands (in a segment of
    /// its own); neighbors are not dragged past the cap with it.
    #[test]
    fn entry_larger_than_segment_gets_its_own_segment() {
        let (dfs, w) = writer(256);
        let batch = vec![
            ("t".to_string(), put_kind_sized("small-a", 1, 16)),
            ("t".to_string(), put_kind_sized("huge", 2, 600)),
            ("t".to_string(), put_kind_sized("small-b", 3, 16)),
        ];
        let pos = w.append_batch(&batch).unwrap();
        assert_eq!(pos.len(), 3);
        // The huge entry is alone in its segment.
        assert_ne!(pos[0].1.segment, pos[1].1.segment);
        assert_ne!(pos[1].1.segment, pos[2].1.segment);
        for (lsn, ptr) in &pos {
            assert_eq!(
                crate::read_entry(&dfs, "srv-0/log", *ptr).unwrap().lsn,
                *lsn
            );
        }
    }

    /// Regression (ISSUE 9): a failed append used to advance `next_lsn`
    /// anyway, burning the whole batch's LSNs and leaving a recovery gap.
    /// A batch that never reached the DFS must roll its LSNs back so a
    /// retry keeps the sequence dense.
    #[test]
    fn failed_append_rolls_lsns_back_for_dense_retry() {
        use logbase_common::retry::RetryPolicy;
        let dir = tempfile::tempdir().unwrap();
        let dfs =
            Dfs::new(DfsConfig::on_disk(dir.path(), 3, 2).with_retry(RetryPolicy::no_delay(2)));
        let w = LogWriter::create(dfs.clone(), LogConfig::new("srv-0/log")).unwrap();
        w.append("t", put_kind("before", 1)).unwrap();
        assert_eq!(w.next_lsn(), Lsn(2));

        // Transient total outage: the batch append must fail...
        for id in 0..3 {
            dfs.kill_node(id);
        }
        let batch: Vec<_> = (0..5)
            .map(|i| ("t".to_string(), put_kind(&format!("k{i}"), i)))
            .collect();
        assert!(w.append_batch(&batch).is_err());
        // ...and burn nothing.
        assert_eq!(w.next_lsn(), Lsn(2), "failed batch burned LSNs");

        // The outage clears; the retry gets the same dense LSNs.
        for id in 0..3 {
            dfs.restart_node(id);
        }
        let pos = w.append_batch(&batch).unwrap();
        assert_eq!(
            pos.iter().map(|(l, _)| l.0).collect::<Vec<_>>(),
            vec![2, 3, 4, 5, 6]
        );
        // Dense LSNs and resolvable pointers across the whole log.
        let mut lsns = Vec::new();
        crate::scan_log(&dfs, "srv-0/log", 0, 0, |_, e| {
            lsns.push(e.lsn.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5, 6]);
        for (lsn, ptr) in &pos {
            assert_eq!(
                crate::read_entry(&dfs, "srv-0/log", *ptr).unwrap().lsn,
                *lsn
            );
        }
    }

    #[test]
    fn compressed_batches_round_trip_and_save_bytes() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::create(
            dfs.clone(),
            LogConfig::new("srv-0/log").with_compression(Compression::Lz4),
        )
        .unwrap();
        let batch: Vec<_> = (0..20)
            .map(|i| {
                (
                    "t".to_string(),
                    put_kind_sized(&format!("key-{i:03}"), i, 400),
                )
            })
            .collect();
        let before = dfs.metrics().snapshot();
        let pos = w.append_batch(&batch).unwrap();
        let after = dfs.metrics().snapshot();
        assert!(
            after.wal_compression_saved_bytes > before.wal_compression_saved_bytes,
            "repetitive 400-byte values did not compress"
        );
        // Point reads and scans decode transparently.
        for (i, (lsn, ptr)) in pos.iter().enumerate() {
            let e = crate::read_entry(&dfs, "srv-0/log", *ptr).unwrap();
            assert_eq!(e.lsn, *lsn);
            let (rec, _, _) = e.as_write().unwrap();
            assert_eq!(rec.meta.key, format!("key-{i:03}").as_bytes());
            assert_eq!(rec.value_len(), 400);
        }
        let n = crate::scan_log(&dfs, "srv-0/log", 0, 0, |_, _| Ok(())).unwrap();
        assert_eq!(n, 20);
    }

    #[test]
    fn tiny_entries_stay_raw_under_compression() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::create(
            dfs.clone(),
            LogConfig::new("srv-0/log").with_compression(Compression::Lz4),
        )
        .unwrap();
        let before = dfs.metrics().snapshot().wal_compression_saved_bytes;
        // Key+value too small to clear MIN_COMPRESS_BYTES.
        w.append("t", put_kind_sized("k", 1, 4)).unwrap();
        assert_eq!(dfs.metrics().snapshot().wal_compression_saved_bytes, before);
    }

    #[test]
    fn reopen_continues_numbering() {
        let (dfs, w) = writer(64);
        for i in 0..10 {
            w.append("t", put_kind(&format!("key-{i}"), i)).unwrap();
        }
        let seg = w.current_segment();
        let next = w.next_lsn();
        drop(w);
        let w2 = LogWriter::reopen(
            dfs.clone(),
            LogConfig::new("srv-0/log").with_segment_bytes(64),
            next,
        )
        .unwrap();
        assert_eq!(w2.current_segment(), seg);
        let (lsn, _) = w2.append("t", put_kind("after", 100)).unwrap();
        assert_eq!(lsn, next);
    }

    #[test]
    fn reopen_on_empty_prefix_creates_segment_zero() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::reopen(dfs, LogConfig::new("fresh/log"), Lsn(1)).unwrap();
        assert_eq!(w.current_segment(), 0);
        w.append("t", put_kind("x", 1)).unwrap();
    }

    #[test]
    fn reopen_after_torn_tail_rotates_to_fresh_segment() {
        let (dfs, w) = writer(1 << 20);
        w.append("t", put_kind("a", 1)).unwrap();
        let (_, p2) = w.append("t", put_kind("b", 2)).unwrap();
        let next = w.next_lsn();
        let seg = w.current_segment();
        drop(w);
        // Crash mid-append: half a frame lands at the segment tail.
        let torn = [200u8, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, b'p', b'a', b'r'];
        dfs.append(&segment_name("srv-0/log", seg), &torn).unwrap();

        let w2 = LogWriter::reopen(
            dfs.clone(),
            LogConfig::new("srv-0/log").with_segment_bytes(1 << 20),
            next,
        )
        .unwrap();
        // The damaged segment is retired; writing resumed in a new one.
        assert_eq!(w2.current_segment(), seg + 1);
        let (lsn, ptr) = w2.append("t", put_kind("c", 3)).unwrap();
        assert_eq!(lsn, next);
        assert_eq!(ptr.segment, seg + 1);
        // Pre-crash entries and the post-crash entry all replay; the torn
        // frame is skipped.
        let mut lsns = Vec::new();
        crate::reader::scan_log_tolerant(&dfs, "srv-0/log", 0, 0, |_, e| {
            lsns.push(e.lsn.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, vec![1, 2, 3]);
        // Point reads of pre-crash entries still work.
        assert!(crate::reader::read_entry(&dfs, "srv-0/log", p2).is_ok());
    }

    #[test]
    fn failing_gate_rejects_appends_without_touching_the_log() {
        use logbase_common::Error;
        let (dfs, w) = writer(1 << 20);
        w.append("t", put_kind("a", 1)).unwrap();
        let before = dfs.metrics().snapshot().dfs_appends;
        w.set_gate(Arc::new(|| {
            Err(Error::Fenced {
                server: "srv-0".into(),
                held: 1,
                current: 2,
            })
        }));
        let err = w.append("t", put_kind("b", 2)).unwrap_err();
        assert!(matches!(err, Error::Fenced { .. }));
        assert_eq!(dfs.metrics().snapshot().dfs_appends, before);
        assert_eq!(w.next_lsn(), Lsn(2), "rejected batch must not burn LSNs");
        // Replacing the gate with a passing one re-admits writes.
        w.set_gate(Arc::new(|| Ok(())));
        w.append("t", put_kind("c", 3)).unwrap();
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (dfs, w) = writer(1 << 20);
        let before = dfs.metrics().snapshot().dfs_appends;
        assert!(w.append_batch(&[]).unwrap().is_empty());
        assert_eq!(dfs.metrics().snapshot().dfs_appends, before);
    }
}
