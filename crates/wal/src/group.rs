//! Cross-thread group commit.
//!
//! §3.7.2: "LogBase further embeds an optimization technique that
//! processes commit and log records in batches, instead of individual log
//! writes, in order to reduce the log persistence cost and therefore
//! improve write throughput."
//!
//! [`GroupCommitLog`] runs a committer thread that drains a channel of
//! pending appends and persists them with one [`LogWriter::append_batch`]
//! call per drain. Callers block until their entry is durable and get its
//! `(Lsn, LogPtr)` back.
//!
//! The batch window is adaptive rather than count-only: a batch closes
//! when it reaches [`GroupCommitConfig::max_batch`] entries, when its
//! encoded size reaches [`GroupCommitConfig::max_batch_bytes`], when the
//! linger deadline [`GroupCommitConfig::max_batch_window`] expires, or —
//! the common case under light load — as soon as no producer is in
//! flight, so a lone writer never pays the window as latency. While the
//! log is idle the committer blocks on its channel and performs no work
//! at all (no polling wakeups, no DFS traffic).

use crate::entry;
use crate::writer::LogWriter;
use crate::LogEntryKind;
use crossbeam::channel::{bounded, Receiver, Sender};
use logbase_common::codec::FRAME_HEADER_LEN;
use logbase_common::metrics::Metrics;
use logbase_common::{Error, LogPtr, Lsn, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Group-commit tuning knobs.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Maximum entries folded into one log write.
    pub max_batch: usize,
    /// Encoded-bytes budget for one batch: the window closes as soon as
    /// the pending frames would exceed this, keeping a batch at roughly
    /// one DFS block write regardless of entry size.
    pub max_batch_bytes: usize,
    /// Upper bound on how long a batch lingers open waiting for more
    /// entries once it has its first. `Duration::ZERO` disables the
    /// linger entirely, reducing the policy to the count-only drain.
    pub max_batch_window: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 128,
            max_batch_bytes: 256 * 1024,
            max_batch_window: Duration::from_micros(200),
        }
    }
}

struct Pending {
    table: String,
    kind: LogEntryKind,
    /// Framed encoded size, computed by the producer so the committer can
    /// close the batch on a byte budget without encoding anything.
    size_hint: usize,
    done: Sender<Result<(Lsn, LogPtr)>>,
}

impl Pending {
    fn new(table: String, kind: LogEntryKind, done: Sender<Result<(Lsn, LogPtr)>>) -> Self {
        let size_hint = FRAME_HEADER_LEN + entry::encoded_len(&table, &kind);
        Pending {
            table,
            kind,
            size_hint,
            done,
        }
    }
}

/// Batching front end over a [`LogWriter`].
pub struct GroupCommitLog {
    writer: Arc<LogWriter>,
    tx: Sender<Pending>,
    /// Producers that have claimed a slot (incremented *before* the
    /// channel send) but whose entry the committer has not yet drained.
    /// The committer commits immediately when this hits zero: nobody is
    /// racing toward the channel, so lingering would be pure latency.
    inflight: Arc<AtomicUsize>,
    committer: Option<JoinHandle<()>>,
}

impl GroupCommitLog {
    /// Wrap `writer` with a committer thread.
    pub fn new(writer: Arc<LogWriter>, config: GroupCommitConfig) -> Self {
        let (tx, rx) = bounded::<Pending>(config.max_batch.max(1) * 4);
        let inflight = Arc::new(AtomicUsize::new(0));
        let committer_writer = Arc::clone(&writer);
        let committer_inflight = Arc::clone(&inflight);
        let committer = std::thread::Builder::new()
            .name("logbase-group-commit".to_string())
            .spawn(move || committer_loop(&committer_writer, &rx, &committer_inflight, &config))
            .expect("spawn group-commit thread");
        GroupCommitLog {
            writer,
            tx,
            inflight,
            committer: Some(committer),
        }
    }

    /// The wrapped writer (for direct, non-batched appends such as
    /// checkpoint markers).
    pub fn writer(&self) -> &Arc<LogWriter> {
        &self.writer
    }

    /// Submit one entry and block until it is durable.
    pub fn append(&self, table: &str, kind: LogEntryKind) -> Result<(Lsn, LogPtr)> {
        let (done_tx, done_rx) = bounded(1);
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let sent = self.tx.send(Pending::new(table.to_string(), kind, done_tx));
        if sent.is_err() {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(Error::Unavailable("group commit thread stopped".into()));
        }
        done_rx
            .recv()
            .map_err(|_| Error::Unavailable("group commit thread dropped request".into()))?
    }

    /// Submit several entries as one unit and block until all are durable.
    /// Used by the transaction manager to persist a transaction's writes
    /// plus its commit record together.
    pub fn append_all(&self, entries: Vec<(String, LogEntryKind)>) -> Result<Vec<(Lsn, LogPtr)>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let n = entries.len();
        let (done_tx, done_rx) = bounded(n);
        // Claim all n slots up front so the committer keeps its batch
        // open until the whole unit is in the channel.
        self.inflight.fetch_add(n, Ordering::SeqCst);
        for (sent, (table, kind)) in entries.into_iter().enumerate() {
            if self
                .tx
                .send(Pending::new(table, kind, done_tx.clone()))
                .is_err()
            {
                self.inflight.fetch_sub(n - sent, Ordering::SeqCst);
                return Err(Error::Unavailable("group commit thread stopped".into()));
            }
        }
        drop(done_tx);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(
                done_rx.recv().map_err(|_| {
                    Error::Unavailable("group commit thread dropped request".into())
                })??,
            );
        }
        Ok(out)
    }
}

impl Drop for GroupCommitLog {
    fn drop(&mut self) {
        // Closing the channel stops the committer after it drains.
        let (tx, _) = bounded(0);
        let old_tx = std::mem::replace(&mut self.tx, tx);
        drop(old_tx);
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

/// Drain one adaptive batch from `rx`, starting with `first`.
///
/// The batch closes on whichever bound trips first: entry count, byte
/// budget, or linger deadline — or early, once the channel is empty, no
/// producer is in flight, *and* the batch has reached `expect` entries.
///
/// `expect` is the size of the previous batch: the committer's estimate
/// of how many producers are cycling against the log (each blocks on
/// its `done` channel, so the cohort that just committed re-arrives
/// almost together). Lingering until the cohort is back is what fills
/// batches; a lone writer has `expect == 1` and never lingers at all.
fn drain_batch(
    first: Pending,
    rx: &Receiver<Pending>,
    inflight: &AtomicUsize,
    config: &GroupCommitConfig,
    expect: usize,
) -> Vec<Pending> {
    inflight.fetch_sub(1, Ordering::SeqCst);
    let mut bytes = first.size_hint;
    let mut batch = vec![first];
    let deadline = Instant::now() + config.max_batch_window;
    loop {
        if batch.len() >= config.max_batch || bytes >= config.max_batch_bytes {
            break;
        }
        match rx.try_recv() {
            Ok(p) => {
                inflight.fetch_sub(1, Ordering::SeqCst);
                bytes += p.size_hint;
                batch.push(p);
                continue;
            }
            Err(crossbeam::channel::TryRecvError::Empty) => {}
            Err(crossbeam::channel::TryRecvError::Disconnected) => break,
        }
        if config.max_batch_window.is_zero() {
            break;
        }
        // Channel empty. Commit now unless there is a concrete reason to
        // expect more arrivals before the deadline: a producer that has
        // claimed a slot and is racing toward the channel, or members of
        // the previous cohort that have not re-arrived yet.
        if inflight.load(Ordering::SeqCst) == 0 && batch.len() >= expect {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        match rx.recv_timeout(deadline - now) {
            Ok(p) => {
                inflight.fetch_sub(1, Ordering::SeqCst);
                bytes += p.size_hint;
                batch.push(p);
            }
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => break,
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
        }
    }
    batch
}

fn committer_loop(
    writer: &LogWriter,
    rx: &Receiver<Pending>,
    inflight: &AtomicUsize,
    config: &GroupCommitConfig,
) {
    // Self-clocking cohort estimate: how many producers the previous
    // batch served (they all re-arrive together, being blocked on their
    // `done` channels until the commit).
    let mut expect = 1usize;
    loop {
        // Block for the first entry of the batch: an idle log costs no
        // wakeups and no DFS traffic.
        let first = match rx.recv() {
            Ok(p) => p,
            Err(_) => return,
        };
        Metrics::incr(&writer.metrics().wal_committer_wakeups);
        let batch = drain_batch(first, rx, inflight, config, expect);
        expect = batch.len();

        // Hand the entries to the writer by value — the committer clones
        // nothing; `Pending` carries ownership end-to-end.
        let mut entries = Vec::with_capacity(batch.len());
        let mut dones = Vec::with_capacity(batch.len());
        for p in batch {
            entries.push((p.table, p.kind));
            dones.push(p.done);
        }
        // A panic inside the append must not take the committer down with
        // waiters still blocked on their `done` channels — convert it into
        // an error for every member of the batch and keep serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            writer.append_batch(&entries)
        }));
        match outcome {
            Ok(Ok(positions)) => {
                for (done, pos) in dones.into_iter().zip(positions) {
                    let _ = done.send(Ok(pos));
                }
            }
            // A fenced batch must stay `Fenced` for every waiter: folding
            // it into the retriable `Unavailable` would send zombie
            // clients into a retry loop that can never succeed.
            Ok(Err(Error::Fenced {
                server,
                held,
                current,
            })) => {
                for done in dones {
                    let _ = done.send(Err(Error::Fenced {
                        server: server.clone(),
                        held,
                        current,
                    }));
                }
            }
            Ok(Err(e)) => {
                let msg = e.to_string();
                for done in dones {
                    let _ = done.send(Err(Error::Unavailable(format!(
                        "group commit failed: {msg}"
                    ))));
                }
            }
            Err(_) => {
                for done in dones {
                    let _ = done.send(Err(Error::Unavailable(
                        "group commit committer panicked".into(),
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LogConfig;
    use logbase_common::{Record, Timestamp};
    use logbase_dfs::{Dfs, DfsConfig};

    fn put_kind(key: &str, ts: u64) -> LogEntryKind {
        LogEntryKind::Write {
            txn_id: 0,
            tablet: 0,
            record: Record::put(key.as_bytes().to_vec(), 0, Timestamp(ts), vec![1u8; 8]),
        }
    }

    fn group_log() -> (Dfs, GroupCommitLog) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        (dfs, GroupCommitLog::new(w, GroupCommitConfig::default()))
    }

    #[test]
    fn single_append_round_trips() {
        let (dfs, log) = group_log();
        let (lsn, ptr) = log.append("t", put_kind("a", 1)).unwrap();
        assert_eq!(lsn, Lsn(1));
        let entry = crate::read_entry(&dfs, "srv/log", ptr).unwrap();
        assert_eq!(entry.lsn, lsn);
    }

    #[test]
    fn concurrent_appends_all_get_unique_lsns() {
        let (_dfs, log) = group_log();
        let log = Arc::new(log);
        let mut lsns = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let log = Arc::clone(&log);
                    s.spawn(move || {
                        (0..25)
                            .map(|i| log.append("t", put_kind(&format!("{t}-{i}"), i)).unwrap().0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                lsns.extend(h.join().unwrap());
            }
        });
        lsns.sort_unstable();
        lsns.dedup();
        assert_eq!(lsns.len(), 200);
    }

    #[test]
    fn batching_reduces_dfs_appends() {
        let (dfs, log) = group_log();
        let log = Arc::new(log);
        let before = dfs.metrics().snapshot().dfs_appends;
        std::thread::scope(|s| {
            for t in 0..8 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..25 {
                        log.append("t", put_kind(&format!("{t}-{i}"), i)).unwrap();
                    }
                });
            }
        });
        let appends = dfs.metrics().snapshot().dfs_appends - before;
        // 200 entries must take far fewer than 200 log writes.
        assert!(
            appends < 200,
            "group commit did not batch: {appends} appends for 200 entries"
        );
    }

    /// Regression (ISSUE 9): the committer used to wake every
    /// `poll_interval` (1 ms) even with nothing to commit. An idle log
    /// must cost nothing: no committer wakeups, no DFS operations.
    #[test]
    fn idle_log_performs_no_dfs_operations_and_no_wakeups() {
        let (dfs, log) = group_log();
        log.append("t", put_kind("warm", 1)).unwrap();
        // Give the committer time to finish the warm-up batch and park.
        std::thread::sleep(Duration::from_millis(20));
        let before = dfs.metrics().snapshot();
        std::thread::sleep(Duration::from_millis(120));
        let after = dfs.metrics().snapshot();
        assert_eq!(
            after.wal_committer_wakeups, before.wal_committer_wakeups,
            "idle committer woke up"
        );
        assert_eq!(after.dfs_appends, before.dfs_appends);
        assert_eq!(after.dfs_reads, before.dfs_reads);
        drop(log);
    }

    /// The byte budget closes a batch even when the entry count is far
    /// below `max_batch`.
    #[test]
    fn byte_budget_closes_batches_early() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        let log = Arc::new(GroupCommitLog::new(
            w,
            GroupCommitConfig {
                max_batch: 1024,
                max_batch_bytes: 4 * 1024,
                max_batch_window: Duration::from_millis(50),
            },
        ));
        // 64 entries of ~1 KiB from 8 threads: the byte budget (4 KiB)
        // forces multiple batches despite the generous count and window.
        let before = dfs.metrics().snapshot();
        std::thread::scope(|s| {
            for t in 0..8 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..8 {
                        let kind = LogEntryKind::Write {
                            txn_id: 0,
                            tablet: 0,
                            record: Record::put(
                                format!("{t}-{i}").into_bytes(),
                                0,
                                Timestamp(i),
                                vec![0u8; 1024],
                            ),
                        };
                        log.append("t", kind).unwrap();
                    }
                });
            }
        });
        let d = dfs.metrics().snapshot().delta_since(&before);
        assert_eq!(d.wal_batched_entries, 64);
        assert!(
            d.wal_batches_committed >= 8,
            "byte budget ignored: {} batches for 64 KiB of entries",
            d.wal_batches_committed
        );
    }

    #[test]
    fn append_all_returns_positions_in_order_of_durability() {
        let (dfs, log) = group_log();
        let entries: Vec<_> = (0..5)
            .map(|i| ("t".to_string(), put_kind(&format!("k{i}"), i)))
            .collect();
        let pos = log.append_all(entries).unwrap();
        assert_eq!(pos.len(), 5);
        // All durable: each pointer resolves.
        for (_, ptr) in &pos {
            assert!(crate::read_entry(&dfs, "srv/log", *ptr).is_ok());
        }
    }

    #[test]
    fn dead_dfs_fails_every_waiter_without_hanging() {
        use logbase_common::retry::RetryPolicy;
        // Disk-backed nodes so blocks survive the full-cluster restart.
        let dir = tempfile::tempdir().unwrap();
        let dfs =
            Dfs::new(DfsConfig::on_disk(dir.path(), 3, 2).with_retry(RetryPolicy::no_delay(2)));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        let log = Arc::new(GroupCommitLog::new(w, GroupCommitConfig::default()));
        log.append("t", put_kind("a", 1)).unwrap();
        for id in 0..3 {
            dfs.kill_node(id);
        }
        // Every waiter must get an Err back — none may block forever on a
        // batch the committer can no longer persist.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let log = Arc::clone(&log);
                    s.spawn(move || log.append("t", put_kind(&format!("x{t}"), t)))
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap().is_err());
            }
        });
        // The committer survived: once the nodes return, appends succeed.
        for id in 0..3 {
            dfs.restart_node(id);
        }
        log.append("t", put_kind("back", 9)).unwrap();
    }

    #[test]
    fn fenced_batches_surface_fenced_not_unavailable() {
        let (_dfs, log) = group_log();
        log.append("t", put_kind("a", 1)).unwrap();
        log.writer().set_gate(Arc::new(|| {
            Err(Error::Fenced {
                server: "srv".into(),
                held: 3,
                current: 5,
            })
        }));
        let err = log.append("t", put_kind("b", 2)).unwrap_err();
        assert!(!err.is_retriable(), "Fenced must never be retried");
        match err {
            Error::Fenced {
                server,
                held,
                current,
            } => {
                assert_eq!(server, "srv");
                assert_eq!((held, current), (3, 5));
            }
            other => panic!("expected Fenced, got {other}"),
        }
    }

    #[test]
    fn drop_stops_committer_thread() {
        let (_dfs, log) = group_log();
        log.append("t", put_kind("a", 1)).unwrap();
        drop(log); // must not hang
    }
}
