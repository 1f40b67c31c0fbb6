//! Startup garbage collection and the post-recovery consistency sweep.
//!
//! Run by [`crate::TabletServer::open_with`] after the checkpoint is
//! restored but before log redo, [`startup_gc`] makes every crash a
//! server can suffer mid-maintenance converge back to a clean DFS
//! image:
//!
//! 1. **Manifest classification.** An intact maintenance manifest is
//!    rolled forward (committed compaction: finish the input/retired
//!    deletions) or rolled back (uncommitted: delete its orphan sorted
//!    output) — see [`crate::manifest`] for the commit rule.
//! 2. **Partial checkpoints.** Any `ckpt/<seq>/` directory without a
//!    `meta.json` is a crash artifact (the descriptor is written last);
//!    its index files are deleted.
//! 3. **Checkpoint retention.** Complete checkpoints beyond the newest
//!    [`RETAIN_CHECKPOINTS`] are pruned — recovery only ever reads the latest, the
//!    rest are bounded history.
//! 4. **Orphan sorted segments.** Files under `sorted/` that the
//!    restored segment directory does not reference are unreachable
//!    (a compaction died before its manifest became durable) and are
//!    deleted.
//!
//! Log segments are **never** collected by reachability: checkpoint
//! index files may point into any log segment, so only a committed
//! manifest (step 1) authorizes deleting the inputs it names.
//!
//! [`fsck`] is the matching read-only audit used by tests: it
//! classifies every file under the server's prefix and returns the
//! unreachable ones (empty after a successful recovery).

use crate::manifest;
use crate::segdir::SegmentDirectory;
use logbase_common::metrics::Metrics;
use logbase_common::Result;
use logbase_dfs::Dfs;
use std::collections::{BTreeMap, HashSet};

/// What one startup GC pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Orphan segment files (sorted or manifest-named log inputs)
    /// deleted.
    pub orphan_segments_gced: u64,
    /// Partial checkpoint directories removed.
    pub partial_checkpoints_removed: u64,
    /// Complete-but-stale checkpoint directories pruned (retention).
    pub checkpoints_pruned: u64,
    /// An interrupted compaction was rolled forward from its manifest.
    pub maintenance_resumed: bool,
    /// An uncommitted compaction was rolled back from its manifest.
    pub maintenance_rolled_back: bool,
}

/// Complete checkpoints kept on DFS; older ones are pruned after each
/// checkpoint and at startup. Recovery only ever reads the latest — the
/// rest are bounded history.
pub(crate) const RETAIN_CHECKPOINTS: usize = 2;

/// Classify and clean the server's DFS state after a crash. `latest_seq`
/// is the sequence of the checkpoint recovery restored (`None` when
/// starting from the bare log).
pub(crate) fn startup_gc(
    dfs: &Dfs,
    server_prefix: &str,
    segdir: &SegmentDirectory,
    latest_seq: Option<u64>,
) -> Result<GcReport> {
    let metrics = dfs.metrics().clone();
    let mut report = GcReport::default();

    // 1. Manifest classification: roll forward or back.
    if let Some(m) = manifest::load(dfs, server_prefix)? {
        if latest_seq.unwrap_or(0) >= m.ckpt_seq {
            // Committed: the checkpoint that repointed every index to
            // the new sorted generation is durable. Finish the job's
            // deletions (idempotent — the crash may have done some).
            for name in m.input_log_segments.iter().chain(m.retired_sorted.iter()) {
                if dfs.exists(name) {
                    dfs.delete(name)?;
                    report.orphan_segments_gced += 1;
                    Metrics::incr(&metrics.orphan_segments_gced);
                }
            }
            report.maintenance_resumed = true;
            Metrics::incr(&metrics.maintenance_resumed);
        } else {
            // Uncommitted: no durable index references the new sorted
            // segments; they are orphans. Inputs stay — redo needs them.
            for (_, name) in &m.new_sorted {
                if dfs.exists(name) {
                    dfs.delete(name)?;
                    report.orphan_segments_gced += 1;
                    Metrics::incr(&metrics.orphan_segments_gced);
                }
            }
            report.maintenance_rolled_back = true;
        }
    }
    // Intact-and-handled, torn, or stale: the slot is consumed either way.
    manifest::remove(dfs, server_prefix)?;

    // 2 + 3. Checkpoint directories: drop partial ones, prune history.
    let dirs = checkpoint_dirs(dfs, server_prefix);
    let complete: Vec<u64> = dirs
        .iter()
        .filter(|(_, d)| d.complete)
        .map(|(seq, _)| *seq)
        .collect();
    let prune_below = complete
        .len()
        .checked_sub(RETAIN_CHECKPOINTS)
        .map(|cut| complete[cut])
        .unwrap_or(0);
    for (seq, dir) in &dirs {
        if !dir.complete {
            for f in &dir.files {
                dfs.delete(f)?;
            }
            report.partial_checkpoints_removed += 1;
            Metrics::incr(&metrics.partial_checkpoints_removed);
        } else if *seq < prune_below {
            for f in &dir.files {
                dfs.delete(f)?;
            }
            report.checkpoints_pruned += 1;
        }
    }

    // 4. Orphan sorted segments: unreachable from the restored segment
    // directory.
    let live: HashSet<String> = segdir.snapshot().into_iter().map(|(_, n)| n).collect();
    for name in dfs.list(&format!("{server_prefix}/sorted/")) {
        if !live.contains(&name) {
            dfs.delete(&name)?;
            report.orphan_segments_gced += 1;
            Metrics::incr(&metrics.orphan_segments_gced);
        }
    }
    Ok(report)
}

/// Prune complete checkpoints beyond the newest [`RETAIN_CHECKPOINTS`] (called after
/// every successful checkpoint so history stays bounded while the
/// server runs, not just across restarts). Partial directories are left
/// for startup GC — while the server is live, a directory without
/// `meta.json` may be a checkpoint in progress.
pub(crate) fn prune_checkpoints(dfs: &Dfs, server_prefix: &str) -> Result<u64> {
    let dirs = checkpoint_dirs(dfs, server_prefix);
    let complete: Vec<u64> = dirs
        .iter()
        .filter(|(_, d)| d.complete)
        .map(|(seq, _)| *seq)
        .collect();
    let Some(cut) = complete.len().checked_sub(RETAIN_CHECKPOINTS) else {
        return Ok(0);
    };
    let prune_below = complete[cut];
    let mut pruned = 0u64;
    for (seq, dir) in &dirs {
        if dir.complete && *seq < prune_below {
            for f in &dir.files {
                dfs.delete(f)?;
            }
            pruned += 1;
        }
    }
    Ok(pruned)
}

struct CkptDir {
    complete: bool,
    files: Vec<String>,
}

/// Group the files under `<server>/ckpt/` by checkpoint directory,
/// keyed and ordered by sequence number.
fn checkpoint_dirs(dfs: &Dfs, server_prefix: &str) -> BTreeMap<u64, CkptDir> {
    let prefix = format!("{server_prefix}/ckpt/");
    let mut dirs: BTreeMap<u64, CkptDir> = BTreeMap::new();
    for name in dfs.list(&prefix) {
        let rest = &name[prefix.len()..];
        let Some((seq_str, leaf)) = rest.split_once('/') else {
            continue;
        };
        let Ok(seq) = seq_str.parse::<u64>() else {
            continue;
        };
        let dir = dirs.entry(seq).or_insert(CkptDir {
            complete: false,
            files: Vec::new(),
        });
        if leaf == "meta.json" {
            dir.complete = true;
        }
        dir.files.push(name);
    }
    dirs
}

/// Audit every file under the server's prefix, returning the ones
/// unreachable from the live state (retained complete checkpoints, the
/// log, the segment directory, and the opaque spill tier). Empty after
/// a clean recovery — the torture tests' final assertion.
pub fn fsck(dfs: &Dfs, server_prefix: &str, segdir: &SegmentDirectory) -> Vec<String> {
    let live_sorted: HashSet<String> = segdir.snapshot().into_iter().map(|(_, n)| n).collect();
    let complete_dirs: HashSet<u64> = checkpoint_dirs(dfs, server_prefix)
        .into_iter()
        .filter(|(_, d)| d.complete)
        .map(|(seq, _)| seq)
        .collect();
    let log_prefix = format!("{server_prefix}/log/");
    let spill_prefix = format!("{server_prefix}/spill/");
    let sorted_prefix = format!("{server_prefix}/sorted/");
    let ckpt_prefix = format!("{server_prefix}/ckpt/");

    let mut unreachable = Vec::new();
    for name in dfs.list(&format!("{server_prefix}/")) {
        let live = if name.starts_with(&log_prefix) || name.starts_with(&spill_prefix) {
            // Log segments may back any checkpoint's index files; the
            // spill tier is an opaque LSM directory. Both are live
            // wholesale.
            true
        } else if name.starts_with(&sorted_prefix) {
            live_sorted.contains(&name)
        } else if let Some(rest) = name.strip_prefix(&ckpt_prefix) {
            rest.split_once('/')
                .and_then(|(seq, _)| seq.parse::<u64>().ok())
                .is_some_and(|seq| complete_dirs.contains(&seq))
        } else {
            // Anything else — a leftover maintenance manifest included —
            // is unaccounted for.
            false
        };
        if !live {
            unreachable.push(name);
        }
    }
    unreachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use logbase_dfs::DfsConfig;

    fn dfs() -> Dfs {
        Dfs::new(DfsConfig::in_memory(3, 2))
    }

    fn touch(dfs: &Dfs, name: &str) {
        dfs.create(name).unwrap();
        dfs.append(name, b"x").unwrap();
    }

    #[test]
    fn partial_checkpoints_are_removed_and_complete_ones_pruned() {
        let dfs = dfs();
        for seq in 1..=4u64 {
            touch(&dfs, &format!("srv/ckpt/{seq:010}/idx-t-0-0"));
            if seq != 4 {
                touch(&dfs, &format!("srv/ckpt/{seq:010}/meta.json"));
            }
        }
        let segdir = SegmentDirectory::new("srv/log");
        let report = startup_gc(&dfs, "srv", &segdir, Some(3)).unwrap();
        assert_eq!(report.partial_checkpoints_removed, 1, "seq 4 had no meta");
        assert_eq!(report.checkpoints_pruned, 1, "seq 1 beyond retain 2");
        assert!(!dfs.exists("srv/ckpt/0000000001/meta.json"));
        assert!(dfs.exists("srv/ckpt/0000000002/meta.json"));
        assert!(dfs.exists("srv/ckpt/0000000003/meta.json"));
        assert!(!dfs.exists("srv/ckpt/0000000004/idx-t-0-0"));
    }

    #[test]
    fn orphan_sorted_segments_are_swept() {
        let dfs = dfs();
        let segdir = SegmentDirectory::new("srv/log");
        let id = segdir.register_sorted("srv/sorted/gen2/seg-000000".to_string());
        assert!(id >= crate::segdir::SORTED_BASE);
        touch(&dfs, "srv/sorted/gen2/seg-000000");
        touch(&dfs, "srv/sorted/gen9/seg-000000"); // orphan
        let report = startup_gc(&dfs, "srv", &segdir, None).unwrap();
        assert_eq!(report.orphan_segments_gced, 1);
        assert!(dfs.exists("srv/sorted/gen2/seg-000000"));
        assert!(!dfs.exists("srv/sorted/gen9/seg-000000"));
    }

    #[test]
    fn committed_manifest_rolls_forward() {
        let dfs = dfs();
        touch(&dfs, "srv/log/segment-000000");
        touch(&dfs, "srv/sorted/gen3/seg-000000");
        touch(&dfs, "srv/sorted/gen1/seg-000000"); // retired, survived crash
        let segdir = SegmentDirectory::new("srv/log");
        segdir.register_sorted("srv/sorted/gen3/seg-000000".to_string());
        crate::manifest::write(
            &dfs,
            "srv",
            &crate::manifest::MaintenanceManifest {
                ckpt_seq: 3,
                generation: 3,
                new_sorted: vec![(
                    crate::segdir::SORTED_BASE,
                    "srv/sorted/gen3/seg-000000".into(),
                )],
                input_log_segments: vec!["srv/log/segment-000000".into()],
                retired_sorted: vec!["srv/sorted/gen1/seg-000000".into()],
                crc32: 0,
            },
        )
        .unwrap();
        let report = startup_gc(&dfs, "srv", &segdir, Some(3)).unwrap();
        assert!(report.maintenance_resumed);
        assert!(!report.maintenance_rolled_back);
        assert!(!dfs.exists("srv/log/segment-000000"), "input deleted");
        assert!(!dfs.exists("srv/sorted/gen1/seg-000000"), "retired deleted");
        assert!(dfs.exists("srv/sorted/gen3/seg-000000"), "output kept");
        assert!(crate::manifest::load(&dfs, "srv").unwrap().is_none());
    }

    #[test]
    fn uncommitted_manifest_rolls_back() {
        let dfs = dfs();
        touch(&dfs, "srv/log/segment-000000");
        touch(&dfs, "srv/sorted/gen3/seg-000000");
        let segdir = SegmentDirectory::new("srv/log");
        crate::manifest::write(
            &dfs,
            "srv",
            &crate::manifest::MaintenanceManifest {
                ckpt_seq: 3,
                generation: 3,
                new_sorted: vec![(
                    crate::segdir::SORTED_BASE,
                    "srv/sorted/gen3/seg-000000".into(),
                )],
                input_log_segments: vec!["srv/log/segment-000000".into()],
                retired_sorted: vec![],
                crc32: 0,
            },
        )
        .unwrap();
        // The restored checkpoint predates the manifest's commit seq.
        let report = startup_gc(&dfs, "srv", &segdir, Some(2)).unwrap();
        assert!(report.maintenance_rolled_back);
        assert!(dfs.exists("srv/log/segment-000000"), "inputs kept for redo");
        assert!(!dfs.exists("srv/sorted/gen3/seg-000000"), "orphan deleted");
    }

    #[test]
    fn fsck_flags_only_unreachable_files() {
        let dfs = dfs();
        touch(&dfs, "srv/log/segment-000000");
        touch(&dfs, "srv/spill/t/0/0/sst-0");
        touch(&dfs, "srv/ckpt/0000000001/idx-t-0-0");
        touch(&dfs, "srv/ckpt/0000000001/meta.json");
        touch(&dfs, "srv/ckpt/0000000002/idx-t-0-0"); // partial
        touch(&dfs, "srv/sorted/gen1/seg-000000");
        touch(&dfs, "srv/sorted/gen1/seg-000001"); // unregistered
        touch(&dfs, "srv/maint/compaction.json");
        let segdir = SegmentDirectory::new("srv/log");
        segdir.register_sorted("srv/sorted/gen1/seg-000000".to_string());
        let mut bad = fsck(&dfs, "srv", &segdir);
        bad.sort();
        assert_eq!(
            bad,
            vec![
                "srv/ckpt/0000000002/idx-t-0-0".to_string(),
                "srv/maint/compaction.json".to_string(),
                "srv/sorted/gen1/seg-000001".to_string(),
            ]
        );
    }

    #[test]
    fn prune_checkpoints_keeps_the_newest_k() {
        let dfs = dfs();
        for seq in 1..=5u64 {
            touch(&dfs, &format!("srv/ckpt/{seq:010}/meta.json"));
        }
        let pruned = prune_checkpoints(&dfs, "srv").unwrap();
        assert_eq!(pruned, 3);
        assert!(!dfs.exists("srv/ckpt/0000000003/meta.json"));
        assert!(dfs.exists("srv/ckpt/0000000004/meta.json"));
        assert!(dfs.exists("srv/ckpt/0000000005/meta.json"));
    }
}
