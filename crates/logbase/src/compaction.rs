//! Log compaction (§3.6.5) with cost-aware inputs and key/value
//! separation.
//!
//! Periodically the server vacuums its log: obsolete versions,
//! invalidated (deleted) records and uncommitted transaction writes are
//! discarded, and the surviving entries are rewritten **sorted by
//! (table, column group, record key, timestamp)** into fresh *sorted
//! segments*. After compaction, range scans enjoy clustered data — the
//! effect Fig. 10 measures.
//!
//! The job runs while the server keeps serving: with
//! [`CompactionInputs::Everything`] the log is rotated first, so every
//! input segment is sealed; new writes land in new segments that become
//! input to the *next* round. With [`CompactionInputs::Selected`] —
//! what the [`crate::scheduler`] issues — only the chosen sealed log
//! segments and sorted segments feed the merge, and everything else
//! survives untouched. Liveness is judged against the in-memory
//! indexes (an entry survives iff its exact `(key, timestamp)` version
//! is still indexed *and* its indexed pointer targets an input file),
//! and the indexes are repointed at the sorted segments as they are
//! written. The job ends with a checkpoint, after which the input
//! segments are deleted.
//!
//! # Key/value separation ("log as data", §3.4)
//!
//! When [`CompactionConfig::value_threshold`] is set, live versions
//! whose value is at least that long are **not** rewritten: the index
//! keeps pointing at the original log segment, which is retained
//! instead of deleted (it becomes a *blob segment*). Compaction then
//! rewrites only keys and small values, cutting write amplification on
//! large-value workloads the way WiscKey separates keys from values —
//! except LogBase already has the value log for free: the WAL. Blob
//! segments accumulate dead space as versions are overwritten;
//! [`TabletServer::log_gc_with`] reclaims them once their live fraction
//! drops, force-rewriting the survivors.
//!
//! # Crash atomicity
//!
//! Before anything destructive happens the job writes a checksummed
//! [`crate::manifest::MaintenanceManifest`] naming its outputs, its
//! input log segments (minus retained blob segments) and the sorted
//! segments it retires. The commit point is the embedded checkpoint
//! (taken under the same maintenance lock acquisition, so the sequence
//! predicted for the manifest is the one actually taken): once the
//! checkpoint descriptor is durable, every index points at the new
//! generation and startup GC rolls the job *forward* (finishing the
//! deletions); before that, startup GC rolls it *back* (deleting the
//! orphan outputs). Every step is interruptible at a named crash point
//! from [`crate::crash_sites::COMPACTION`] (and
//! [`crate::crash_sites::LOG_GC`] for the reclaim pass).

use crate::segdir::SORTED_BASE;
use crate::server::TabletServer;
use bytes::BytesMut;
use logbase_common::metrics::Metrics;
use logbase_common::{codec, LogPtr, Lsn, Record, Result, Timestamp};
use logbase_wal::{LogEntry, LogEntryKind};
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::Ordering;

/// Which files feed one compaction round.
#[derive(Debug, Clone, Default)]
pub enum CompactionInputs {
    /// Rotate the log and compact every sealed log segment plus every
    /// registered sorted segment (the classic full round).
    #[default]
    Everything,
    /// Compact exactly the named sealed log segments and sorted-segment
    /// ids; everything else survives untouched. Unknown or still-open
    /// ids are skipped. This is what the cost-aware scheduler issues.
    Selected {
        /// Sealed log segment sequence numbers.
        log_segments: Vec<u32>,
        /// Sorted-segment ids (≥ [`SORTED_BASE`]).
        sorted: Vec<u32>,
    },
}

/// Compaction tuning.
#[derive(Debug, Clone, Default)]
pub struct CompactionConfig {
    /// Keep at most this many newest versions per `(cg, key)`;
    /// `None` keeps full history (multiversion access, §1).
    pub max_versions: Option<usize>,
    /// Key/value separation: live values at least this long stay in
    /// their original log segment (which is retained as a blob segment)
    /// instead of being rewritten. `None` rewrites everything.
    pub value_threshold: Option<usize>,
    /// Which files feed this round.
    pub inputs: CompactionInputs,
    /// Rewrite even separated values — the log-GC reclaim pass sets
    /// this so mostly-dead blob segments can actually be deleted.
    pub force_rewrite: bool,
}

/// Outcome of one compaction round.
#[derive(Debug, Clone, Default)]
pub struct CompactionReport {
    /// Entries read from input segments.
    pub input_entries: u64,
    /// Entries surviving into sorted segments.
    pub output_entries: u64,
    /// Input files removed.
    pub segments_deleted: u64,
    /// Sorted segments written.
    pub sorted_segments_written: u64,
    /// Bytes scanned from input files.
    pub bytes_read: u64,
    /// Bytes written into sorted segments.
    pub bytes_written: u64,
    /// Live versions left in place by key/value separation.
    pub values_separated: u64,
    /// Input log segments retained because separated values live there.
    pub blob_segments_retained: u64,
}

/// Log-GC tuning ([`TabletServer::log_gc_with`]).
#[derive(Debug, Clone)]
pub struct LogGcConfig {
    /// Reclaim sealed segments whose live-byte fraction is at most
    /// this (1.0 reclaims every sealed segment).
    pub live_fraction: f64,
    /// Reclaim at most this many segments per pass.
    pub max_segments: usize,
    /// Retention applied to the rewrite (see
    /// [`CompactionConfig::max_versions`]).
    pub max_versions: Option<usize>,
}

impl Default for LogGcConfig {
    fn default() -> Self {
        LogGcConfig {
            live_fraction: 0.5,
            max_segments: 4,
            max_versions: None,
        }
    }
}

/// Outcome of one log-GC pass.
#[derive(Debug, Clone, Default)]
pub struct LogGcReport {
    /// Sealed segments whose live fraction was measured.
    pub segments_examined: u64,
    /// Segments selected and reclaimed this pass.
    pub segments_reclaimed: u64,
    /// The rewrite that carried the survivors (empty when no segment
    /// qualified).
    pub compaction: CompactionReport,
}

/// A collected live entry, keyed for the compaction sort. `ptr` is the
/// version's *indexed* pointer (where reads currently go), not the
/// position of the scanned copy.
struct LiveEntry {
    table: String,
    tablet: u32,
    record: Record,
    ptr: LogPtr,
}

impl TabletServer {
    /// Run one compaction round with default retention (keep all
    /// committed versions) over every segment.
    pub fn compact(&self) -> Result<CompactionReport> {
        self.compact_with(&CompactionConfig::default())
    }

    /// Run one compaction round.
    pub fn compact_with(&self, config: &CompactionConfig) -> Result<CompactionReport> {
        self.compact_impl(config, false)
    }

    /// Reclaim mostly-dead sealed log segments with default tuning.
    pub fn log_gc(&self) -> Result<LogGcReport> {
        self.log_gc_with(&LogGcConfig::default())
    }

    /// One log-GC pass: measure the live-byte fraction of every sealed
    /// log segment, pick the deadest ones under
    /// [`LogGcConfig::live_fraction`], and run a force-rewrite
    /// compaction over just those segments so their surviving entries
    /// (separated blob values included) move out and the files can be
    /// deleted.
    pub fn log_gc_with(&self, config: &LogGcConfig) -> Result<LogGcReport> {
        self.check_fenced()?;
        let mut report = LogGcReport::default();
        let log_prefix = format!("{}/log", self.config.name);
        let open = self.log.writer().current_segment();
        let bulk = self.maintenance_dfs();
        // (live fraction, seq); scan errors mean the segment vanished
        // under us (a concurrent full compaction) — skip it.
        let mut measured: Vec<(f64, u32)> = Vec::new();
        for (seq, name, total) in logbase_wal::list_segments(&self.dfs, &log_prefix) {
            if seq >= open || total == 0 {
                continue;
            }
            let Ok(live) = self.segment_live_bytes(&bulk, &name, seq) else {
                continue;
            };
            report.segments_examined += 1;
            let fraction = live as f64 / total as f64;
            if fraction <= config.live_fraction {
                measured.push((fraction, seq));
            }
        }
        measured.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        measured.truncate(config.max_segments);
        if measured.is_empty() {
            return Ok(report);
        }
        let victims: Vec<u32> = measured.into_iter().map(|(_, seq)| seq).collect();
        report.segments_reclaimed = victims.len() as u64;
        report.compaction = self.compact_impl(
            &CompactionConfig {
                max_versions: config.max_versions,
                value_threshold: None,
                inputs: CompactionInputs::Selected {
                    log_segments: victims,
                    sorted: Vec::new(),
                },
                force_rewrite: true,
            },
            true,
        )?;
        Metrics::add(
            &self.metrics().log_gc_segments_reclaimed,
            report.segments_reclaimed,
        );
        Ok(report)
    }

    /// Bytes of `name` (log segment `seq`) still referenced by the
    /// indexes: a frame counts iff the exact `(key, timestamp)` version
    /// is indexed *and* its pointer targets this frame.
    fn segment_live_bytes(&self, dfs: &logbase_dfs::Dfs, name: &str, seq: u32) -> Result<u64> {
        let mut live = 0u64;
        let mut offset = 0u64;
        let mut scanner = dfs.open_reader(name)?;
        loop {
            if scanner.remaining() < codec::FRAME_HEADER_LEN as u64 {
                break;
            }
            let header = scanner.read_exact(codec::FRAME_HEADER_LEN as u64)?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
            if scanner.remaining() < len {
                break;
            }
            let payload = scanner.read_exact(len)?;
            let frame_len = codec::FRAME_HEADER_LEN as u64 + len;
            let frame_start = offset;
            offset += frame_len;
            let Ok(entry) = LogEntry::decode(payload) else {
                continue;
            };
            let LogEntryKind::Write { record, .. } = entry.kind else {
                continue;
            };
            if record.is_tombstone() {
                continue;
            }
            let Ok(table) = self.table(&entry.table) else {
                continue;
            };
            let Ok(tablet) = table.route(&record.meta.key) else {
                continue;
            };
            let Ok(index) = tablet.index(record.meta.column_group) else {
                continue;
            };
            let indexed = index.get_version(&record.meta.key, record.meta.timestamp)?;
            if indexed.is_some_and(|p| p.segment == seq && p.offset == frame_start) {
                live += frame_len;
            }
        }
        Ok(live)
    }

    fn compact_impl(&self, config: &CompactionConfig, reclaim: bool) -> Result<CompactionReport> {
        self.check_fenced()?;
        let _guard = self.maintenance.lock();
        logbase_dfs::crash_point!(self.dfs, "compaction.begin");
        let mut report = CompactionReport::default();
        let log_prefix = format!("{}/log", self.config.name);
        let bulk = self.maintenance_dfs();

        // 1. Pick the inputs. `Everything` seals the active segment
        //    first so inputs are everything before it plus every sorted
        //    segment; `Selected` takes the named sealed files as they
        //    are. Either way, drain in-flight writes: put/txn-commit
        //    hold the read half of `write_barrier` across
        //    (log append → index insert). A writer that appended to an
        //    input segment but has not indexed yet would be judged dead
        //    below and its segment deleted from under it; acquiring the
        //    write half here waits those writers out, so every entry in
        //    an input segment is either indexed or genuinely dead.
        let writer = self.log.writer();
        let (input_log_segments, old_sorted) = match &config.inputs {
            CompactionInputs::Everything => {
                let new_open = writer.rotate()?;
                drop(self.write_barrier.write());
                // Segments before the new open one that still exist
                // (earlier rounds deleted their inputs already).
                let segs: Vec<u32> = (0..new_open)
                    .filter(|seg| {
                        self.dfs
                            .exists(&logbase_wal::segment_name(&log_prefix, *seg))
                    })
                    .collect();
                (segs, self.segdir.snapshot())
            }
            CompactionInputs::Selected {
                log_segments,
                sorted,
            } => {
                let open = writer.current_segment();
                drop(self.write_barrier.write());
                let mut segs: Vec<u32> = log_segments
                    .iter()
                    .copied()
                    .filter(|seg| {
                        *seg < open
                            && self
                                .dfs
                                .exists(&logbase_wal::segment_name(&log_prefix, *seg))
                    })
                    .collect();
                segs.sort_unstable();
                segs.dedup();
                let snapshot = self.segdir.snapshot();
                let wanted: HashSet<u32> = sorted.iter().copied().collect();
                let selected: Vec<(u32, String)> = snapshot
                    .into_iter()
                    .filter(|(id, _)| wanted.contains(id))
                    .collect();
                (segs, selected)
            }
        };
        logbase_dfs::crash_point!(self.dfs, "compaction.after_rotate");
        if input_log_segments.is_empty() && old_sorted.is_empty() {
            return Ok(report);
        }

        // 2. Collect candidate entries. Liveness is judged against the
        //    indexes, which never contain uncommitted or deleted
        //    versions, so no commit-record bookkeeping is needed here.
        let mut candidates: Vec<(String, u32, Record)> = Vec::new();
        let mut scan_one = |name: &str| -> Result<()> {
            let mut scanner = bulk.open_reader(name)?;
            report.bytes_read += scanner.remaining();
            loop {
                if scanner.remaining() < codec::FRAME_HEADER_LEN as u64 {
                    break;
                }
                let header = scanner.read_exact(codec::FRAME_HEADER_LEN as u64)?;
                let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
                if scanner.remaining() < len {
                    break;
                }
                let payload = scanner.read_exact(len)?;
                let Ok(entry) = LogEntry::decode(payload) else {
                    continue;
                };
                report.input_entries += 1;
                if let LogEntryKind::Write { tablet, record, .. } = entry.kind {
                    if !record.is_tombstone() {
                        candidates.push((entry.table, tablet, record));
                    }
                }
            }
            Ok(())
        };
        for seg in &input_log_segments {
            scan_one(&logbase_wal::segment_name(&log_prefix, *seg))?;
        }
        for (_, name) in &old_sorted {
            scan_one(name)?;
        }
        Metrics::add(&self.metrics().compaction_bytes_read, report.bytes_read);

        // 3. Keep entries whose exact version is still indexed (this
        //    drops deleted keys, uncommitted txn writes — never indexed —
        //    and superseded duplicates from earlier sorted generations),
        //    remembering the indexed pointer for the doomed/separation
        //    split below.
        let mut live: Vec<LiveEntry> = Vec::with_capacity(candidates.len());
        let mut seen: HashSet<(String, u16, Vec<u8>, u64)> = HashSet::new();
        for (table_name, tablet_hint, record) in candidates {
            let Ok(table) = self.table(&table_name) else {
                continue;
            };
            let Ok(tablet) = table.route(&record.meta.key) else {
                continue;
            };
            let Ok(index) = tablet.index(record.meta.column_group) else {
                continue;
            };
            let Some(ptr) = index.get_version(&record.meta.key, record.meta.timestamp)? else {
                continue;
            };
            // The same version may exist in an old sorted segment and in
            // a log segment that was not yet deleted; emit it once.
            if !seen.insert((
                table_name.clone(),
                record.meta.column_group,
                record.meta.key.to_vec(),
                record.meta.timestamp.0,
            )) {
                continue;
            }
            live.push(LiveEntry {
                table: table_name,
                tablet: tablet_hint,
                record,
                ptr,
            });
        }

        // 4. The paper's sort order: table, column group, key, timestamp.
        live.sort_by(|a, b| {
            (
                &a.table,
                a.record.meta.column_group,
                &a.record.meta.key,
                a.record.meta.timestamp,
            )
                .cmp(&(
                    &b.table,
                    b.record.meta.column_group,
                    &b.record.meta.key,
                    b.record.meta.timestamp,
                ))
        });

        // 4b. Retention: keep only the newest `max_versions` per key.
        if let Some(max) = config.max_versions {
            let mut pruned: Vec<LiveEntry> = Vec::with_capacity(live.len());
            let mut group: Vec<LiveEntry> = Vec::new();
            let flush = |group: &mut Vec<LiveEntry>, pruned: &mut Vec<LiveEntry>| -> Result<()> {
                let drop_n = group.len().saturating_sub(max);
                for doomed in group.drain(..drop_n) {
                    // Remove the pruned version from the index too.
                    if let Ok(table) = self.table(&doomed.table) {
                        if let Ok(tablet) = table.route(&doomed.record.meta.key) {
                            if let Ok(index) = tablet.index(doomed.record.meta.column_group) {
                                index.remove_version(
                                    &doomed.record.meta.key,
                                    doomed.record.meta.timestamp,
                                )?;
                            }
                        }
                    }
                }
                pruned.append(group);
                Ok(())
            };
            for e in live {
                let same_group = group.last().is_some_and(|g| {
                    g.table == e.table
                        && g.record.meta.column_group == e.record.meta.column_group
                        && g.record.meta.key == e.record.meta.key
                });
                if !same_group {
                    flush(&mut group, &mut pruned)?;
                }
                group.push(e);
            }
            flush(&mut group, &mut pruned)?;
            live = pruned;
        }

        // 4c. Key/value split. A version is *doomed* when its indexed
        //     pointer targets a file this round deletes; everything else
        //     already lives in a surviving file and needs no rewrite.
        //     Doomed versions with a large value are separated: the
        //     value stays put, the hosting log segment is retained (a
        //     blob segment), and only the small/keyed entries get
        //     rewritten into sorted segments.
        let input_log_set: HashSet<u32> = input_log_segments.iter().copied().collect();
        let retired_sorted_set: HashSet<u32> = old_sorted.iter().map(|(id, _)| *id).collect();
        let mut blob_retained: BTreeSet<u32> = BTreeSet::new();
        let mut emit: Vec<LiveEntry> = Vec::with_capacity(live.len());
        for e in live {
            let doomed = if e.ptr.segment >= SORTED_BASE {
                retired_sorted_set.contains(&e.ptr.segment)
            } else {
                input_log_set.contains(&e.ptr.segment)
            };
            if !doomed {
                continue;
            }
            let value_len = e.record.value.as_ref().map_or(0, |v| v.len());
            let separate = !config.force_rewrite
                && e.ptr.segment < SORTED_BASE
                && config.value_threshold.is_some_and(|t| value_len >= t);
            if separate {
                blob_retained.insert(e.ptr.segment);
                report.values_separated += 1;
                continue;
            }
            emit.push(e);
        }
        logbase_dfs::crash_point!(self.dfs, "compaction.kv_split");
        Metrics::add(&self.metrics().values_separated, report.values_separated);
        report.blob_segments_retained = blob_retained.len() as u64;
        report.output_entries = emit.len() as u64;

        // 5. Write sorted segments, repointing indexes as we go. The
        //    generation number comes from the checkpoint sequence, which
        //    recovery restores — so generations stay unique across
        //    crashes (the run counter alone resets and would collide).
        let generation = self.next_checkpoint_seq();
        let mut seg_in_gen = 0u32;
        let mut buf = BytesMut::new();
        let mut pending: Vec<(String, u16, logbase_common::RowKey, Timestamp, u64, u32)> =
            Vec::new();
        let mut new_sorted: Vec<(u32, String)> = Vec::new();
        let mut bytes_written = 0u64;
        let flush_segment =
            |buf: &mut BytesMut,
             pending: &mut Vec<(String, u16, logbase_common::RowKey, Timestamp, u64, u32)>,
             seg_in_gen: &mut u32,
             new_sorted: &mut Vec<(u32, String)>,
             bytes_written: &mut u64|
             -> Result<()> {
                if buf.is_empty() {
                    return Ok(());
                }
                let name = format!(
                    "{}/sorted/gen{generation}/seg-{seg_in_gen:06}",
                    self.config.name
                );
                *seg_in_gen += 1;
                *bytes_written += buf.len() as u64;
                bulk.create(&name)?;
                bulk.append(&name, buf)?;
                bulk.seal(&name)?;
                logbase_dfs::crash_point!(self.dfs, "compaction.after_sorted_write");
                let seg_id = self.segdir.register_sorted(name.clone());
                new_sorted.push((seg_id, name));
                logbase_dfs::crash_point!(self.dfs, "compaction.ptr_rewrite");
                for (table, cg, key, ts, offset, len) in pending.drain(..) {
                    let t = self.table(&table)?;
                    let tablet = t.route(&key)?;
                    tablet
                        .index(cg)?
                        .insert(&key, ts, LogPtr::new(seg_id, offset, len))?;
                }
                buf.clear();
                Ok(())
            };
        for e in &emit {
            let entry = LogEntry {
                lsn: Lsn::ZERO, // sorted segments are not part of redo
                table: e.table.clone(),
                kind: LogEntryKind::Write {
                    txn_id: 0,
                    tablet: e.tablet,
                    record: e.record.clone(),
                },
            };
            let offset = buf.len() as u64;
            let framed = codec::encode_frame(&mut buf, &entry.encode());
            pending.push((
                e.table.clone(),
                e.record.meta.column_group,
                e.record.meta.key.clone(),
                e.record.meta.timestamp,
                offset,
                framed as u32,
            ));
            if buf.len() as u64 >= self.config.segment_bytes {
                flush_segment(
                    &mut buf,
                    &mut pending,
                    &mut seg_in_gen,
                    &mut new_sorted,
                    &mut bytes_written,
                )?;
            }
        }
        flush_segment(
            &mut buf,
            &mut pending,
            &mut seg_in_gen,
            &mut new_sorted,
            &mut bytes_written,
        )?;
        report.sorted_segments_written = u64::from(seg_in_gen);
        report.bytes_written = bytes_written;
        Metrics::add(&self.metrics().compaction_bytes_written, bytes_written);

        // 6. Declare intent: a checksummed manifest naming everything
        //    this job will delete and everything it produced. Blob
        //    segments retained by separation are simply left out — they
        //    stay live log files. Until the checkpoint below commits,
        //    recovery rolls the job back off this record; after it,
        //    forward.
        let input_names: Vec<String> = input_log_segments
            .iter()
            .filter(|seg| !blob_retained.contains(seg))
            .map(|seg| logbase_wal::segment_name(&log_prefix, *seg))
            .collect();
        // Only this job registers or retires sorted segments while the
        // maintenance lock is held, so the retired set is exactly the
        // input snapshot.
        let retired_names: Vec<String> = old_sorted.iter().map(|(_, n)| n.clone()).collect();
        logbase_dfs::crash_point!(self.dfs, "compaction.before_manifest");
        crate::manifest::write(
            &self.dfs,
            &self.config.name,
            &crate::manifest::MaintenanceManifest {
                ckpt_seq: generation,
                generation,
                new_sorted: new_sorted.clone(),
                input_log_segments: input_names.clone(),
                retired_sorted: retired_names.clone(),
                crc32: 0,
            },
        )?;
        logbase_dfs::crash_point!(self.dfs, "compaction.after_manifest");

        // 7. Commit: drop the retired sorted mappings and checkpoint
        //    under the *held* maintenance lock, so the descriptor's
        //    sequence is `generation` and recovery never needs the
        //    deleted segments.
        let retired_ids: Vec<u32> = old_sorted.iter().map(|(id, _)| *id).collect();
        self.segdir.remove(&retired_ids);
        self.compactions_run.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_inner()?;
        logbase_dfs::crash_point!(self.dfs, "compaction.after_checkpoint");
        if reclaim {
            logbase_dfs::crash_point!(self.dfs, "wal.gc.reclaim");
        }

        // 8. The manifest's deletions, in manifest order (startup GC
        //    finishes them if we die part-way through).
        for name in input_names.iter().chain(retired_names.iter()) {
            if self.dfs.exists(name) {
                self.dfs.delete(name)?;
                report.segments_deleted += 1;
            }
            logbase_dfs::crash_point!(self.dfs, "compaction.mid_delete");
        }
        logbase_dfs::crash_point!(self.dfs, "compaction.before_manifest_remove");
        crate::manifest::remove(&self.dfs, &self.config.name)?;
        if let Some(rb) = &self.read_buffer {
            // Cached versions stay valid (values unchanged), but clear
            // anyway to keep pointer-related accounting honest.
            rb.clear();
        }
        Metrics::incr(&self.metrics().compactions);
        Ok(report)
    }
}
