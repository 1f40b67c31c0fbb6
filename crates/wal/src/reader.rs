//! Log readers: point reads by pointer, sequential segment scans.

use crate::entry::LogEntry;
use crate::{parse_segment_name, segment_name};
use logbase_common::codec::{self, FRAME_HEADER_LEN};
use logbase_common::{Error, LogPtr, Result};
use logbase_dfs::{Dfs, DfsFileReader};

/// Read the single entry a pointer addresses — the long-tail read path:
/// one positional DFS read (one disk seek) fetches exactly the record.
pub fn read_entry(dfs: &Dfs, prefix: &str, ptr: LogPtr) -> Result<LogEntry> {
    read_entry_in(dfs, &segment_name(prefix, ptr.segment), ptr)
}

/// Read one entry out of an explicitly named segment file (used when a
/// segment directory maps pointer segment ids to sorted-segment files).
pub fn read_entry_in(dfs: &Dfs, name: &str, ptr: LogPtr) -> Result<LogEntry> {
    let framed = dfs.read(name, ptr.offset, u64::from(ptr.len))?;
    let (payload, consumed) = codec::decode_frame(&framed, name)?;
    if consumed != ptr.len as usize {
        return Err(Error::Corruption(format!(
            "{name}: pointer length {} does not match frame length {consumed}",
            ptr.len
        )));
    }
    LogEntry::decode(payload)
}

/// Decode entries out of a pre-fetched byte window of a segment file.
///
/// `window_start` is the file offset the window begins at; `ptr` must lie
/// entirely inside the window. Scans that coalesce adjacent pointers into
/// one DFS read use this to decode each record out of the shared buffer.
pub fn decode_entry_in_window(
    window: &bytes::Bytes,
    window_start: u64,
    ptr: LogPtr,
    context: &str,
) -> Result<LogEntry> {
    let start = (ptr.offset - window_start) as usize;
    let end = start + ptr.len as usize;
    if ptr.offset < window_start || end > window.len() {
        return Err(Error::Corruption(format!(
            "{context}: pointer {ptr} outside fetched window"
        )));
    }
    let (payload, consumed) = codec::decode_frame(&window[start..end], context)?;
    if consumed != ptr.len as usize {
        return Err(Error::Corruption(format!(
            "{context}: pointer length {} does not match frame length {consumed}",
            ptr.len
        )));
    }
    LogEntry::decode(payload)
}

/// Position of a scanned entry within the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogCursor {
    /// Segment the entry lives in.
    pub segment: u32,
    /// Pointer to the entry's frame.
    pub ptr: LogPtr,
}

/// Streaming scanner over one segment.
pub struct SegmentScanner {
    reader: DfsFileReader,
    segment: u32,
    name: String,
    pos: u64,
}

impl SegmentScanner {
    /// Open a scanner at `start_offset` within segment `segment`.
    pub fn open(dfs: &Dfs, prefix: &str, segment: u32, start_offset: u64) -> Result<Self> {
        let name = segment_name(prefix, segment);
        let mut reader = dfs.open_reader(&name)?;
        reader.seek(start_offset);
        Ok(SegmentScanner {
            reader,
            segment,
            name,
            pos: start_offset,
        })
    }

    /// Next entry, or `None` at end of segment.
    ///
    /// A truncated trailing frame (torn write at the moment of a crash)
    /// ends the scan cleanly — exactly the ARIES-style tolerance the
    /// recovery path needs; a CRC mismatch inside the segment is an error.
    pub fn next_entry(&mut self) -> Result<Option<(LogPtr, LogEntry)>> {
        let remaining = self.reader.remaining();
        if remaining < FRAME_HEADER_LEN as u64 {
            return Ok(None);
        }
        let header = self.reader.read_exact(FRAME_HEADER_LEN as u64)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
        if remaining < FRAME_HEADER_LEN as u64 + len {
            // Torn tail: treat as end of log.
            return Ok(None);
        }
        let payload = self.reader.read_exact(len)?;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let actual = crc32fast::hash(&payload);
        if actual != crc {
            return Err(Error::ChecksumMismatch {
                context: self.name.clone(),
                expected: crc,
                actual,
            });
        }
        let total = FRAME_HEADER_LEN as u64 + len;
        let ptr = LogPtr::new(self.segment, self.pos, total as u32);
        self.pos += total;
        let entry = LogEntry::decode(payload)?;
        Ok(Some((ptr, entry)))
    }
}

/// Scan every segment of a log from `(start_segment, start_offset)` to the
/// tail, invoking `f` for each entry. This is the recovery/redo walk
/// (§3.8) and the compaction input scan (§3.6.5).
pub fn scan_log<F>(
    dfs: &Dfs,
    prefix: &str,
    start_segment: u32,
    start_offset: u64,
    mut f: F,
) -> Result<u64>
where
    F: FnMut(LogPtr, LogEntry) -> Result<()>,
{
    let mut segments: Vec<u32> = dfs
        .list(&format!("{prefix}/segment-"))
        .into_iter()
        .filter_map(|n| parse_segment_name(prefix, &n))
        .filter(|s| *s >= start_segment)
        .collect();
    segments.sort_unstable();
    let mut count = 0u64;
    for seg in segments {
        let offset = if seg == start_segment {
            start_offset
        } else {
            0
        };
        let mut scanner = SegmentScanner::open(dfs, prefix, seg, offset)?;
        while let Some((ptr, entry)) = scanner.next_entry()? {
            f(ptr, entry)?;
            count += 1;
        }
    }
    Ok(count)
}

/// Crash-tolerant variant of [`scan_log`] used by recovery (§3.8).
///
/// A crash mid-append can leave a torn frame — a length field, payload or
/// CRC that was only partially written — at the tail of the segment that
/// was open at the time. Strict [`scan_log`] reports a CRC-bad frame as
/// corruption; this variant treats it ARIES-style as the end of **that
/// segment's** replay: every frame before it is replayed, the garbage
/// tail is skipped, and the scan continues with the next segment. (The
/// writer seals a torn segment and rotates on reopen, so valid entries
/// can legitimately live in segments *after* the torn one.) Callbacks'
/// own errors still abort the scan.
pub fn scan_log_tolerant<F>(
    dfs: &Dfs,
    prefix: &str,
    start_segment: u32,
    start_offset: u64,
    mut f: F,
) -> Result<u64>
where
    F: FnMut(LogPtr, LogEntry) -> Result<()>,
{
    let mut segments: Vec<u32> = dfs
        .list(&format!("{prefix}/segment-"))
        .into_iter()
        .filter_map(|n| parse_segment_name(prefix, &n))
        .filter(|s| *s >= start_segment)
        .collect();
    segments.sort_unstable();
    let mut count = 0u64;
    for seg in segments {
        let offset = if seg == start_segment {
            start_offset
        } else {
            0
        };
        let mut scanner = SegmentScanner::open(dfs, prefix, seg, offset)?;
        loop {
            match scanner.next_entry() {
                Ok(Some((ptr, entry))) => {
                    f(ptr, entry)?;
                    count += 1;
                }
                Ok(None) => break,
                // Torn tail: everything before it replayed; move on.
                Err(e) if e.is_corruption() => break,
                Err(e) => return Err(e),
            }
        }
    }
    Ok(count)
}

/// Length of the valid frame prefix of a segment: the byte offset just
/// past the last frame that is complete, CRC-clean and decodable. The
/// writer uses this on reopen to detect a torn tail left by a crash.
pub fn valid_prefix_len(dfs: &Dfs, name: &str) -> Result<u64> {
    let mut reader = dfs.open_reader(name)?;
    let mut valid_end = 0u64;
    loop {
        let remaining = reader.remaining();
        if remaining < FRAME_HEADER_LEN as u64 {
            break;
        }
        let header = reader.read_exact(FRAME_HEADER_LEN as u64)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
        if remaining < FRAME_HEADER_LEN as u64 + len {
            break;
        }
        let payload = reader.read_exact(len)?;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if crc32fast::hash(&payload) != crc || LogEntry::decode(payload).is_err() {
            break;
        }
        valid_end += FRAME_HEADER_LEN as u64 + len;
    }
    Ok(valid_end)
}

/// Scan one whole segment, invoking `f` per entry (parallel full-table
/// scans fan out with one call per segment, §3.6.4).
pub fn scan_segment<F>(dfs: &Dfs, prefix: &str, segment: u32, mut f: F) -> Result<u64>
where
    F: FnMut(LogPtr, LogEntry) -> Result<()>,
{
    let mut scanner = SegmentScanner::open(dfs, prefix, segment, 0)?;
    let mut count = 0u64;
    while let Some((ptr, entry)) = scanner.next_entry()? {
        f(ptr, entry)?;
        count += 1;
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{LogConfig, LogWriter};
    use crate::LogEntryKind;
    use logbase_common::{Record, Timestamp};
    use logbase_dfs::DfsConfig;

    fn put_kind(key: &str, ts: u64) -> LogEntryKind {
        LogEntryKind::Write {
            txn_id: 0,
            tablet: 0,
            record: Record::put(key.as_bytes().to_vec(), 0, Timestamp(ts), vec![7u8; 32]),
        }
    }

    fn setup(segment_bytes: u64, n: u64) -> (Dfs, Vec<(logbase_common::Lsn, LogPtr)>) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::create(
            dfs.clone(),
            LogConfig::new("srv/log").with_segment_bytes(segment_bytes),
        )
        .unwrap();
        let mut pos = Vec::new();
        for i in 0..n {
            pos.push(w.append("t", put_kind(&format!("key-{i:04}"), i)).unwrap());
        }
        (dfs, pos)
    }

    #[test]
    fn point_read_by_pointer() {
        let (dfs, pos) = setup(1 << 20, 10);
        let entry = read_entry(&dfs, "srv/log", pos[7].1).unwrap();
        assert_eq!(entry.lsn, pos[7].0);
        let (rec, _, _) = entry.as_write().unwrap();
        assert_eq!(&rec.meta.key[..], b"key-0007");
    }

    #[test]
    fn point_read_rejects_mismatched_length() {
        let (dfs, pos) = setup(1 << 20, 3);
        let mut bad = pos[1].1;
        bad.len += 8; // covers part of the next frame
        assert!(read_entry(&dfs, "srv/log", bad).is_err());
    }

    #[test]
    fn scan_visits_all_entries_across_segments() {
        let (dfs, pos) = setup(128, 50); // many small segments
        let mut seen = Vec::new();
        let n = scan_log(&dfs, "srv/log", 0, 0, |ptr, e| {
            seen.push((ptr, e.lsn));
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 50);
        assert_eq!(seen.len(), 50);
        for (i, (ptr, lsn)) in seen.iter().enumerate() {
            assert_eq!(*lsn, pos[i].0);
            assert_eq!(*ptr, pos[i].1);
        }
    }

    #[test]
    fn scan_from_midpoint() {
        let (dfs, pos) = setup(1 << 20, 20);
        let start = pos[12].1;
        let mut lsns = Vec::new();
        scan_log(&dfs, "srv/log", start.segment, start.offset, |_, e| {
            lsns.push(e.lsn.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, (13..=20).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_ends_scan_cleanly() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap();
        w.append("t", put_kind("a", 1)).unwrap();
        let (_, p2) = w.append("t", put_kind("b", 2)).unwrap();
        // Simulate a torn write: append a frame header that promises more
        // bytes than the segment holds.
        let fake_len: u32 = 1000;
        let mut torn = fake_len.to_le_bytes().to_vec();
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"partial");
        dfs.append(&segment_name("srv/log", 0), &torn).unwrap();

        let mut lsns = Vec::new();
        scan_log(&dfs, "srv/log", 0, 0, |_, e| {
            lsns.push(e.lsn.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(lsns, vec![1, 2]);
        // The intact entries still point-read fine.
        assert!(read_entry(&dfs, "srv/log", p2).is_ok());
    }

    #[test]
    fn corrupted_interior_frame_is_an_error() {
        let dfs = Dfs::new(DfsConfig::in_memory(1, 1));
        dfs.create("raw/segment-000000").unwrap();
        // Hand-craft a frame with a wrong CRC.
        let mut buf = bytes::BytesMut::new();
        logbase_common::codec::encode_frame(&mut buf, b"not a log entry");
        let mut bytes = buf.to_vec();
        bytes[4] ^= 0xff; // corrupt stored CRC
        dfs.append("raw/segment-000000", &bytes).unwrap();
        let err = scan_log(&dfs, "raw", 0, 0, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, Error::ChecksumMismatch { .. }));
    }

    #[test]
    fn tolerant_scan_skips_torn_segment_tail_but_replays_later_segments() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = LogWriter::create(
            dfs.clone(),
            LogConfig::new("srv/log").with_segment_bytes(1 << 20),
        )
        .unwrap();
        w.append("t", put_kind("a", 1)).unwrap();
        // Complete frame, valid CRC, but garbage payload — the shape a
        // torn multi-frame batch write leaves behind.
        let mut buf = bytes::BytesMut::new();
        logbase_common::codec::encode_frame(&mut buf, b"not a log entry");
        dfs.append(&segment_name("srv/log", 0), &buf).unwrap();
        // Reopen-style rotation: the torn segment is sealed, writing
        // continues in a fresh one.
        w.rotate().unwrap();
        w.append("t", put_kind("b", 2)).unwrap();

        // Strict scan fails on the garbage frame...
        assert!(scan_log(&dfs, "srv/log", 0, 0, |_, _| Ok(())).is_err());
        // ...the tolerant scan replays everything around it.
        let mut lsns = Vec::new();
        let n = scan_log_tolerant(&dfs, "srv/log", 0, 0, |_, e| {
            lsns.push(e.lsn.0);
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 2);
        assert_eq!(lsns, vec![1, 2]);
    }

    #[test]
    fn valid_prefix_len_stops_at_first_bad_frame() {
        let (dfs, pos) = setup(1 << 20, 3);
        let name = segment_name("srv/log", 0);
        let clean = dfs.len(&name).unwrap();
        assert_eq!(valid_prefix_len(&dfs, &name).unwrap(), clean);
        // A half-written frame extends the file but not the valid prefix.
        dfs.append(&name, &[99u8, 0, 0, 0, 1, 2]).unwrap();
        assert_eq!(valid_prefix_len(&dfs, &name).unwrap(), clean);
        assert!(dfs.len(&name).unwrap() > clean);
        let _ = pos;
    }

    #[test]
    fn scan_single_segment() {
        let (dfs, _) = setup(1 << 20, 8);
        let n = scan_segment(&dfs, "srv/log", 0, |_, _| Ok(())).unwrap();
        assert_eq!(n, 8);
    }

    #[test]
    fn scan_empty_log_prefix() {
        let dfs = Dfs::new(DfsConfig::in_memory(1, 1));
        let n = scan_log(&dfs, "nothing/here", 0, 0, |_, _| Ok(())).unwrap();
        assert_eq!(n, 0);
    }
}
