//! Transaction management: MVOCC with write-lock validation (§3.7).
//!
//! LogBase combines multiversion data with optimistic concurrency
//! control:
//!
//! - **Read-only transactions** read a recent consistent snapshot (the
//!   timestamp issued before they began) and always commit.
//! - **Update transactions** run their read phase against their
//!   snapshot, then *validate*: write locks are acquired on the write
//!   set (in global key order — deadlock-free), and the version of every
//!   written record is compared against the in-memory indexes. Any
//!   change since the transaction read it (or since its snapshot, for
//!   blind-ish writes) fails validation — the **first-committer-wins**
//!   rule, which yields snapshot isolation (Guarantee 2).
//! - On success the writes plus a commit record are persisted through
//!   group commit (one batched log write, §3.7.2), the indexes are
//!   updated, and the locks are released. A crash before the commit
//!   record leaves the writes invisible (Guarantee 3: atomicity).
//!
//! When a [`crate::history::HistoryRecorder`] is installed on the
//! server, every lifecycle step is recorded for the SI checker in
//! `crates/checker`.

use crate::history::{Event, WriteRec};
use crate::server::TabletServer;
use bytes::BufMut;
use logbase_common::{Error, LogPtr, Lsn, Record, Result, RowKey, Timestamp, Value};
use logbase_wal::LogEntryKind;
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// A cell addressed by a transaction: `(table, column group, key)`.
type CellId = (String, u16, RowKey);

/// Encode a cell id as a single lock key (table and cg length-prefixed so
/// distinct cells can never collide).
pub(crate) fn lock_key(cell: &CellId) -> RowKey {
    let mut b = bytes::BytesMut::with_capacity(cell.0.len() + cell.2.len() + 8);
    b.put_u32_le(cell.0.len() as u32);
    b.put_slice(cell.0.as_bytes());
    b.put_u16_le(cell.1);
    b.put_slice(&cell.2);
    b.freeze()
}

/// Test-only access to the lock-key encoding (property tests assert
/// injectivity and total order over arbitrary cells).
#[doc(hidden)]
pub fn lock_key_for_tests(table: &str, cg: u16, key: &[u8]) -> RowKey {
    lock_key(&(table.to_string(), cg, RowKey::copy_from_slice(key)))
}

/// An in-flight transaction. Created by [`TxnManager::begin`]; read and
/// write operations buffer locally until [`TxnManager::commit`].
pub struct Transaction {
    id: u64,
    snapshot: Timestamp,
    /// Version observed for each cell read (`None` = read as absent).
    reads: HashMap<CellId, Option<Timestamp>>,
    /// Buffered writes (`None` = delete).
    writes: BTreeMap<CellId, Option<Value>>,
}

impl Transaction {
    /// The transaction id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The snapshot timestamp the read phase runs at.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// True when the transaction has buffered no writes.
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// The intended write set as history records.
    fn write_recs(&self) -> Vec<WriteRec> {
        self.writes
            .iter()
            .map(|(cell, v)| WriteRec::new(&cell.0, cell.1, &cell.2, v.as_deref()))
            .collect()
    }
}

/// Transaction API of a tablet server.
///
/// Implemented as an extension surface over [`TabletServer`] so the data
/// path (§3.6) and the transaction path (§3.7) stay separable, mirroring
/// the paper's layering (Fig. 1: Transaction Manager over Data Access
/// Manager).
pub struct TxnManager;

impl TxnManager {
    /// Default bound on lock acquisition during validation.
    pub const LOCK_TIMEOUT: Duration = Duration::from_secs(5);

    /// Begin a transaction at the current consistent snapshot.
    ///
    /// The snapshot comes from the oracle's in-flight watermark
    /// ([`logbase_coordination::TimestampOracle::snapshot`]), never the
    /// raw counter: a commit whose index updates are still being applied
    /// is excluded, so the snapshot is always fully consistent. The
    /// transaction id comes from the cluster-shared lock service —
    /// lock ownership is keyed by it, so per-server counters would
    /// alias owners across servers.
    pub fn begin(server: &TabletServer) -> Transaction {
        let txn = Transaction {
            id: server.locks.next_txn_id(),
            snapshot: server.oracle().snapshot(),
            reads: HashMap::new(),
            writes: BTreeMap::new(),
        };
        if let Some(rec) = server.history_recorder() {
            rec.record(Event::begin(txn.id, txn.snapshot));
        }
        txn
    }

    /// Transactional read: own writes first, then the snapshot.
    ///
    /// Fenced servers refuse transactional reads: after failover moved a
    /// tablet away, a lease-expired zombie still holds stale in-memory
    /// index state, and serving reads from it would let a read-only
    /// transaction commit against a snapshot missing the new server's
    /// writes.
    pub fn read(
        server: &TabletServer,
        txn: &mut Transaction,
        table: &str,
        cg: u16,
        key: &[u8],
    ) -> Result<Option<Value>> {
        server.check_fenced()?;
        let cell: CellId = (table.to_string(), cg, RowKey::copy_from_slice(key));
        if let Some(buffered) = txn.writes.get(&cell) {
            return Ok(buffered.clone());
        }
        let version = server.visible_version(table, cg, key, txn.snapshot)?;
        txn.reads.insert(cell, version);
        let value = server.get_at(table, cg, key, txn.snapshot)?;
        if let Some(rec) = server.history_recorder() {
            rec.record(Event::read(
                txn.id,
                txn.snapshot,
                table,
                cg,
                key,
                version,
                value.as_deref(),
            ));
        }
        Ok(value)
    }

    /// Buffer a transactional write.
    pub fn write(
        txn: &mut Transaction,
        table: &str,
        cg: u16,
        key: impl Into<RowKey>,
        value: impl Into<Value>,
    ) {
        txn.writes
            .insert((table.to_string(), cg, key.into()), Some(value.into()));
    }

    /// Buffer a transactional delete.
    pub fn delete(txn: &mut Transaction, table: &str, cg: u16, key: impl Into<RowKey>) {
        txn.writes.insert((table.to_string(), cg, key.into()), None);
    }

    /// Validate and commit. Returns the commit timestamp.
    ///
    /// Read-only transactions commit immediately (§3.7.1: they "always
    /// commit successfully"). Update transactions that lose validation
    /// return [`Error::TxnConflict`]; the caller restarts them.
    pub fn commit(server: &TabletServer, txn: Transaction) -> Result<Timestamp> {
        Self::commit_with_timeout(server, txn, Self::LOCK_TIMEOUT)
    }

    /// [`TxnManager::commit`] with an explicit lock-acquisition bound.
    /// Exposed so tests can exercise the lock-timeout abort path without
    /// waiting out the production timeout.
    #[doc(hidden)]
    pub fn commit_with_timeout(
        server: &TabletServer,
        txn: Transaction,
        lock_timeout: Duration,
    ) -> Result<Timestamp> {
        if txn.is_read_only() {
            logbase_common::metrics::Metrics::incr(&server.metrics().txn_commits);
            if let Some(rec) = server.history_recorder() {
                rec.record(Event::commit(
                    txn.id,
                    txn.snapshot,
                    txn.snapshot,
                    Vec::new(),
                ));
            }
            return Ok(txn.snapshot);
        }
        // Validation phase: write locks in global key order. `lock_all`
        // is all-or-nothing — on timeout every lock acquired so far is
        // rolled back inside the service, and on success the guard
        // releases all of them when dropped (including on the validation
        // -failure and log-append-error returns below).
        let lock_keys: Vec<RowKey> = txn.writes.keys().map(lock_key).collect();
        let Some(_locks) = server.locks.lock_all(&lock_keys, txn.id, lock_timeout) else {
            logbase_common::metrics::Metrics::incr(&server.metrics().txn_aborts);
            Self::record_abort(server, &txn, true, None);
            return Err(Error::TxnConflict {
                detail: "write-lock acquisition timed out".to_string(),
            });
        };
        if server.validation_enabled() {
            for cell in txn.writes.keys() {
                let current = server.latest_version(&cell.0, cell.1, &cell.2)?;
                let conflict = match txn.reads.get(cell) {
                    // Read before writing: the version must be unchanged.
                    Some(read_version) => current != *read_version,
                    // No prior read: first-committer-wins against the
                    // snapshot.
                    None => current.is_some_and(|ts| ts > txn.snapshot),
                };
                if conflict {
                    logbase_common::metrics::Metrics::incr(&server.metrics().txn_aborts);
                    Self::record_abort(server, &txn, true, None);
                    return Err(Error::TxnConflict {
                        detail: format!(
                            "cell {}/{}/{:02x?} changed since snapshot {}",
                            cell.0,
                            cell.1,
                            &cell.2[..cell.2.len().min(8)],
                            txn.snapshot
                        ),
                    });
                }
            }
        }

        // Write phase: persist writes + commit record in one batch. The
        // commit timestamp is a *reservation*: new snapshots stay below
        // it until the index updates finish applying, so no reader can
        // observe a half-applied commit.
        let reservation = server.oracle().reserve();
        let commit_ts = reservation.timestamp();
        let (entries, applied) = match Self::build_entries(server, &txn, commit_ts) {
            Ok(built) => built,
            Err(e) => {
                // Nothing was appended: a determinate abort (routing or
                // schema error — e.g. a write to a tablet this server
                // does not serve).
                logbase_common::metrics::Metrics::incr(&server.metrics().txn_aborts);
                Self::record_abort(server, &txn, true, None);
                return Err(e);
            }
        };
        let barrier = server.write_barrier.read();
        let positions = match server.log.append_all(entries) {
            Ok(p) => p,
            Err(e) => {
                // The batch may be partially durable (torn group write):
                // after a crash, replay decides. Record as indeterminate,
                // with the reserved timestamp so the checker can match a
                // post-recovery resurrection of these writes.
                drop(barrier);
                logbase_common::metrics::Metrics::incr(&server.metrics().txn_aborts);
                Self::record_abort(server, &txn, false, Some(commit_ts));
                return Err(e);
            }
        };

        // Reflect the committed writes in the indexes and read buffer.
        // The commit record is durable at this point, so any failure
        // below still leaves the transaction committed for recovery —
        // record it as indeterminate.
        if let Err(e) = Self::apply_index_updates(server, &applied, &positions, commit_ts) {
            drop(barrier);
            logbase_common::metrics::Metrics::incr(&server.metrics().txn_aborts);
            Self::record_abort(server, &txn, false, Some(commit_ts));
            return Err(e);
        }
        drop(barrier);
        // Index updates are applied: release the snapshot watermark, then
        // record the commit so any later-recorded read at snapshot ≥
        // commit_ts is guaranteed to find the Commit event present.
        drop(reservation);
        if let Some(rec) = server.history_recorder() {
            rec.record(Event::commit(
                txn.id,
                txn.snapshot,
                commit_ts,
                txn.write_recs(),
            ));
        }
        logbase_common::metrics::Metrics::incr(&server.metrics().txn_commits);
        Ok(commit_ts)
    }

    /// Abort a transaction (buffered writes are simply dropped — they
    /// were never persisted or indexed, and no locks are held outside
    /// [`TxnManager::commit`]).
    pub fn abort(server: &TabletServer, txn: Transaction) {
        Self::record_abort(server, &txn, true, None);
        drop(txn);
        logbase_common::metrics::Metrics::incr(&server.metrics().txn_aborts);
    }

    /// Resolve every buffered write to a log entry (plus the trailing
    /// commit record). Pure routing/schema resolution — nothing durable
    /// happens here, so an error is a determinate abort.
    #[allow(clippy::type_complexity)]
    fn build_entries(
        server: &TabletServer,
        txn: &Transaction,
        commit_ts: Timestamp,
    ) -> Result<(
        Vec<(String, LogEntryKind)>,
        Vec<(CellId, Option<Value>, u32)>,
    )> {
        let mut entries: Vec<(String, LogEntryKind)> = Vec::with_capacity(txn.writes.len() + 1);
        let mut applied: Vec<(CellId, Option<Value>, u32)> = Vec::with_capacity(txn.writes.len());
        for (cell, value) in &txn.writes {
            let table_state = server.table(&cell.0)?;
            let tablet = table_state.route(&cell.2)?;
            let record = match value {
                Some(v) => Record::put(cell.2.clone(), cell.1, commit_ts, v.clone()),
                None => Record::tombstone(cell.2.clone(), cell.1, commit_ts),
            };
            entries.push((
                cell.0.clone(),
                LogEntryKind::Write {
                    txn_id: txn.id,
                    tablet: tablet.desc.id.range_index,
                    record,
                },
            ));
            applied.push((cell.clone(), value.clone(), tablet.desc.id.range_index));
        }
        let first_table = entries[0].0.clone();
        entries.push((
            first_table,
            LogEntryKind::Commit {
                txn_id: txn.id,
                commit_ts,
            },
        ));
        Ok((entries, applied))
    }

    /// Reflect durably-committed writes in the in-memory indexes and
    /// read buffer.
    fn apply_index_updates(
        server: &TabletServer,
        applied: &[(CellId, Option<Value>, u32)],
        positions: &[(Lsn, LogPtr)],
        commit_ts: Timestamp,
    ) -> Result<()> {
        for ((cell, value, _tablet), (_, ptr)) in applied.iter().zip(positions.iter()) {
            let table_state = server.table(&cell.0)?;
            let tablet = table_state.route(&cell.2)?;
            let index = tablet.index(cell.1)?;
            match value {
                Some(v) => {
                    index.insert(&cell.2, commit_ts, *ptr)?;
                    if let Some(rb) = &server.read_buffer {
                        rb.put(
                            &table_state.name,
                            cell.1,
                            &cell.2,
                            commit_ts,
                            Some(v.clone()),
                        );
                    }
                }
                None => {
                    index.remove_key(&cell.2)?;
                    if let Some(rb) = &server.read_buffer {
                        rb.invalidate(&table_state.name, cell.1, &cell.2);
                    }
                }
            }
        }
        Ok(())
    }

    fn record_abort(
        server: &TabletServer,
        txn: &Transaction,
        determinate: bool,
        reserved_ts: Option<Timestamp>,
    ) {
        if let Some(rec) = server.history_recorder() {
            let mut ev = Event::abort(txn.id, txn.snapshot, txn.write_recs(), determinate);
            if let Some(ts) = reserved_ts {
                ev.commit_ts = ts.0;
            }
            rec.record(ev);
        }
    }

    /// Run `body` as a transaction, retrying on conflict up to
    /// `max_retries` times (the paper restarts failed validators).
    pub fn run<T>(
        server: &TabletServer,
        max_retries: usize,
        mut body: impl FnMut(&mut Transaction) -> Result<T>,
    ) -> Result<(T, Timestamp)> {
        let mut attempts = 0;
        loop {
            let mut txn = Self::begin(server);
            match body(&mut txn) {
                Ok(out) => match Self::commit(server, txn) {
                    Ok(ts) => return Ok((out, ts)),
                    Err(Error::TxnConflict { .. }) if attempts < max_retries => {
                        attempts += 1;
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    // The body failed mid-flight: terminate the recorded
                    // history cleanly before surfacing the error.
                    Self::abort(server, txn);
                    return Err(e);
                }
            }
        }
    }
}

impl TabletServer {
    /// The version of `key` visible at `at` (`None` = absent). Used by
    /// the transaction read phase to record read versions.
    pub fn visible_version(
        &self,
        table: &str,
        cg: u16,
        key: &[u8],
        at: Timestamp,
    ) -> Result<Option<Timestamp>> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(key)?;
        Ok(tablet.index(cg)?.latest_at(key, at)?.map(|vp| vp.ts))
    }
}
