//! Closed-loop clients: issue a thread's operation stream against a
//! [`Target`], time each operation, and check every result against the
//! last value the thread was acked.

use crate::stats::{fastest_tenth, window_of, Latencies};
use crate::stream::{
    Class, KeySpace, Op, OpStream, INITIAL_BALANCE, SCAN_ROWS, THREADS, VALUE_BYTES,
};
use logbase::TxnEndpoint;
use logbase_cluster::{Client, ClientConfig, TcpTransport};
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::{Error, Result, RowKey, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The table `ClusterConfig::new` creates.
pub const TABLE: &str = "usertable";
/// Byte every preloaded value is filled with (`Cluster::parallel_load`).
const PRELOAD_BYTE: u8 = 0x5a;
/// Attempts at one transfer before it counts as failed, and the pause
/// before the second; each later pause is twice the one before, up to the
/// cap. A conflict lasts as long as the write the snapshot waits for, which
/// on a disturbed host can be milliseconds.
const TXN_ATTEMPTS: u32 = 12;
const TXN_BACKOFF: Duration = Duration::from_micros(200);
const TXN_BACKOFF_CAP: Duration = Duration::from_millis(50);
/// Width of a throughput window: short, so that a 15 s phase has enough of
/// them for the disturbed ones to be told from the rest.
pub const WINDOW: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------

/// What a stored value says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// Key index the value was written for; `None` for a preloaded value.
    pub index: Option<u64>,
    /// Writes the owner has made to the key (0 = still the preload).
    pub version: u64,
    pub balance: i64,
}

/// The 1 KiB value for `version` of key `index`:
/// `[index][version][balance][filler ...][crc32 of all before]`.
pub fn make_value(index: u64, version: u64, balance: i64) -> Value {
    let mut buf = Vec::with_capacity(VALUE_BYTES);
    buf.extend_from_slice(&index.to_le_bytes());
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&balance.to_le_bytes());
    // Filler that differs per (key, version), so a stale or misplaced
    // value cannot pass for the right one.
    let mut x = index ^ version.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    while buf.len() < VALUE_BYTES - 4 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = x.to_le_bytes();
        let room = (VALUE_BYTES - 4 - buf.len()).min(8);
        buf.extend_from_slice(&word[..room]);
    }
    let crc = crc32fast::hash(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Value::from(buf)
}

/// Parse and check a stored value.
pub fn decode_value(value: &[u8]) -> Result<Decoded> {
    if value.len() != VALUE_BYTES {
        return Err(Error::Corruption(format!(
            "value is {} bytes, not {VALUE_BYTES}",
            value.len()
        )));
    }
    if value.iter().all(|&b| b == PRELOAD_BYTE) {
        return Ok(Decoded {
            index: None,
            version: 0,
            balance: INITIAL_BALANCE,
        });
    }
    let (body, crc) = value.split_at(VALUE_BYTES - 4);
    if crc32fast::hash(body).to_le_bytes() != crc {
        return Err(Error::Corruption("value fails its CRC".into()));
    }
    let word = |i: usize| u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    Ok(Decoded {
        index: Some(word(0)),
        version: word(1),
        balance: word(2) as i64,
    })
}

// ---------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------

/// New values for the two keys of a transfer, given what the transaction
/// read for them.
pub type Decide<'a> = dyn FnMut(Option<Value>, Option<Value>) -> Result<(Value, Value)> + 'a;

/// An entry point operations can be issued through. The measured run uses
/// [`ClientTarget`]; the traced run also enters below it.
pub trait Target {
    fn put(&self, key: &RowKey, value: Value) -> Result<()>;
    fn get(&self, key: &RowKey) -> Result<Option<Value>>;
    /// Up to `limit` rows of the member owning `start`, from `start` on.
    fn scan(&self, start: &RowKey, limit: u64) -> Result<Vec<(RowKey, Value)>>;
    /// One transaction: read `a` and `b`, write what `decide` returns.
    fn transfer(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()>;
}

/// The client library over TCP: what an application server links.
pub struct ClientTarget {
    client: Client,
}

impl ClientTarget {
    /// A client with its own transport (so its own connections) to the
    /// members at `addrs`; RPC counters go to `metrics`.
    pub fn connect(addrs: &[String], metrics: MetricsHandle) -> ClientTarget {
        let seeds = addrs.iter().enumerate().map(|(m, a)| (m as u32, a.clone()));
        let transport = Arc::new(TcpTransport::new(seeds));
        ClientTarget {
            client: Client::new(transport, TABLE, metrics, ClientConfig::default()),
        }
    }
}

impl Target for ClientTarget {
    fn put(&self, key: &RowKey, value: Value) -> Result<()> {
        self.client.put(0, key.clone(), value).map(|_| ())
    }

    fn get(&self, key: &RowKey) -> Result<Option<Value>> {
        self.client.get(0, key)
    }

    fn scan(&self, start: &RowKey, limit: u64) -> Result<Vec<(RowKey, Value)>> {
        let rows = self.client.scan_member(0, start, None, limit)?;
        Ok(rows.into_iter().map(|(k, _, v)| (k, v)).collect())
    }

    fn transfer(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()> {
        let endpoint = self.client.endpoint_for(a)?;
        let mut session = endpoint.begin()?;
        let va = session.read(TABLE, 0, a)?;
        let vb = session.read(TABLE, 0, b)?;
        let (na, nb) = decide(va, vb)?;
        session.write(TABLE, 0, a.clone(), Some(na));
        session.write(TABLE, 0, b.clone(), Some(nb));
        session.commit().map(|_| ())
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// What the owner last wrote (and was acked) for one of its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyState {
    version: u64,
    balance: i64,
}

/// One timed, checked operation.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub class: Class,
    pub start: Instant,
    pub end: Instant,
    pub ok: bool,
}

/// Totals a worker keeps over everything it ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub attempted: u64,
    pub failed: u64,
    /// Transfers re-run after a validation conflict.
    pub txn_retries: u64,
    /// Key + value bytes of acked single puts and committed txn writes.
    pub user_bytes_acked: u64,
}

/// One client thread's view of its keys, and the checks made against it.
pub struct Worker {
    space: KeySpace,
    thread: usize,
    state: Vec<KeyState>,
    pub totals: Totals,
    /// First few failures, for the log.
    pub complaints: Vec<String>,
}

fn mismatch(what: &str, index: u64, got: impl std::fmt::Debug, want: KeyState) -> Error {
    Error::Corruption(format!(
        "{what} of key #{index}: got {got:?}, want {want:?}"
    ))
}

impl Worker {
    pub fn new(space: KeySpace, thread: usize) -> Worker {
        let fresh = KeyState {
            version: 0,
            balance: INITIAL_BALANCE,
        };
        Worker {
            state: vec![fresh; space.slots(thread) as usize],
            space,
            thread,
            totals: Totals::default(),
            complaints: Vec::new(),
        }
    }

    fn index(&self, slot: u32) -> u64 {
        self.space.index_of(self.thread, slot)
    }

    /// Check a value read for own key `index` against the last ack.
    fn check_own(&self, what: &str, index: u64, value: Option<&Value>) -> Result<()> {
        let want = self.state[(index / THREADS as u64) as usize];
        let Some(value) = value else {
            return Err(mismatch(what, index, "no value", want));
        };
        let got = decode_value(value)?;
        let index_ok = got.index.map_or(want.version == 0, |i| i == index);
        if !index_ok || got.version != want.version || got.balance != want.balance {
            return Err(mismatch(what, index, got, want));
        }
        Ok(())
    }

    fn check_scan(&self, index: u64, rows: &[(RowKey, Value)]) -> Result<()> {
        let member = self.space.member_of(index);
        let end = self.space.member_range(member).1;
        let want_rows = SCAN_ROWS.min(end - index);
        if rows.len() as u64 != want_rows {
            return Err(Error::Corruption(format!(
                "scan from key #{index} returned {} rows, want {want_rows}",
                rows.len()
            )));
        }
        for (i, (key, value)) in rows.iter().enumerate() {
            let at = index + i as u64;
            if *key != self.space.row_key(at) {
                return Err(Error::Corruption(format!(
                    "scan from key #{index}: row {i} is not key #{at}"
                )));
            }
            if at % THREADS as u64 == self.thread as u64 {
                self.check_own("scan row", at, Some(value))?;
            } else if decode_value(value)?.index.is_some_and(|got| got != at) {
                // Another thread's key may change under us; it must still
                // be a well-formed value written for that key.
                return Err(Error::Corruption(format!(
                    "scan from key #{index}: row {i} holds another key's value"
                )));
            }
        }
        Ok(())
    }

    fn transfer(&mut self, target: &dyn Target, a: u32, b: u32, delta: u32) -> Result<()> {
        let (ia, ib) = (self.index(a), self.index(b));
        let (ka, kb) = (self.space.row_key(ia), self.space.row_key(ib));
        let (sa, sb) = (self.state[a as usize], self.state[b as usize]);
        let next_a = KeyState {
            version: sa.version + 1,
            balance: sa.balance - i64::from(delta),
        };
        let next_b = KeyState {
            version: sb.version + 1,
            balance: sb.balance + i64::from(delta),
        };
        for attempt in 1..=TXN_ATTEMPTS {
            // What the transaction read. A snapshot may lag this thread's
            // own last ack (the oracle's watermark waits for the other
            // thread's in-flight write), and then commit validation must
            // refuse the transaction: a commit that succeeds on a stale
            // read is a lost update.
            let mut read = Ok(());
            let outcome = target.transfer(&ka, &kb, &mut |va, vb| {
                read = self
                    .check_own("txn read", ia, va.as_ref())
                    .and(self.check_own("txn read", ib, vb.as_ref()));
                Ok((
                    make_value(ia, next_a.version, next_a.balance),
                    make_value(ib, next_b.version, next_b.balance),
                ))
            });
            match outcome {
                Err(Error::TxnConflict { .. }) if attempt < TXN_ATTEMPTS => {
                    self.totals.txn_retries += 1;
                    std::thread::sleep((TXN_BACKOFF * (1 << (attempt - 1))).min(TXN_BACKOFF_CAP));
                }
                other => {
                    other.and(read)?;
                    break;
                }
            }
        }
        self.state[a as usize] = next_a;
        self.state[b as usize] = next_b;
        self.totals.user_bytes_acked += 2 * (ka.len() + VALUE_BYTES) as u64;
        Ok(())
    }

    /// Run one operation through `target`. The clock covers the call into
    /// the target only: the value is built before and checked after.
    pub fn run(&mut self, target: &dyn Target, op: Op) -> Timed {
        let start;
        let end;
        let result = match op {
            Op::Put { slot } => {
                let index = self.index(slot);
                let key = self.space.row_key(index);
                let next = KeyState {
                    version: self.state[slot as usize].version + 1,
                    ..self.state[slot as usize]
                };
                let value = make_value(index, next.version, next.balance);
                start = Instant::now();
                let acked = target.put(&key, value);
                end = Instant::now();
                acked.map(|()| {
                    self.state[slot as usize] = next;
                    self.totals.user_bytes_acked += (key.len() + VALUE_BYTES) as u64;
                })
            }
            Op::Get { slot } => {
                let index = self.index(slot);
                let key = self.space.row_key(index);
                start = Instant::now();
                let value = target.get(&key);
                end = Instant::now();
                value.and_then(|v| self.check_own("get", index, v.as_ref()))
            }
            Op::Scan { slot } => {
                let index = self.index(slot);
                let key = self.space.row_key(index);
                start = Instant::now();
                let rows = target.scan(&key, SCAN_ROWS);
                end = Instant::now();
                rows.and_then(|rows| self.check_scan(index, &rows))
            }
            Op::Txn { a, b, delta } => {
                start = Instant::now();
                let done = self.transfer(target, a, b, delta);
                end = Instant::now();
                done
            }
        };
        self.totals.attempted += 1;
        if let Err(e) = &result {
            self.totals.failed += 1;
            if self.complaints.len() < 5 {
                self.complaints.push(format!("{op:?}: {e}"));
            }
        }
        Timed {
            class: op.class(),
            start,
            end,
            ok: result.is_ok(),
        }
    }

    /// Re-read up to `samples` of the keys this worker was acked a write
    /// for, evenly spread over them. Each read is an attempted operation.
    pub fn reread_written(&mut self, target: &dyn Target, samples: usize) {
        let written: Vec<u32> = (0..self.state.len() as u32)
            .filter(|&s| self.state[s as usize].version > 0)
            .collect();
        let step = written.len().div_ceil(samples.max(1)).max(1);
        for &slot in written.iter().step_by(step) {
            self.run(target, Op::Get { slot });
        }
    }

    /// Scan every key through `target` and check that balances still sum
    /// to what was loaded, and that own keys hold their last acked value.
    /// Counts as one attempted operation.
    pub fn audit(&mut self, target: &dyn Target) {
        self.totals.attempted += 1;
        if let Err(e) = self.audit_sum(target) {
            self.totals.failed += 1;
            self.complaints.push(format!("audit: {e}"));
        }
    }

    fn audit_sum(&self, target: &dyn Target) -> Result<()> {
        const PAGE: u64 = 512;
        let mut sum = 0i64;
        for member in 0..crate::stream::MEMBERS {
            let (mut at, end) = self.space.member_range(member);
            while at < end {
                let rows = target.scan(&self.space.row_key(at), PAGE.min(end - at))?;
                if rows.is_empty() {
                    return Err(Error::Corruption(format!("audit: no rows at key #{at}")));
                }
                for (key, value) in &rows {
                    if *key != self.space.row_key(at) {
                        return Err(Error::Corruption(format!("audit: key #{at} is missing")));
                    }
                    if at % THREADS as u64 == self.thread as u64 {
                        self.check_own("audit", at, Some(value))?;
                    }
                    sum += decode_value(value)?.balance;
                    at += 1;
                }
            }
        }
        let want = self.space.keys() as i64 * INITIAL_BALANCE;
        if sum != want {
            return Err(Error::Corruption(format!(
                "audit: balances sum to {sum}, want {want}"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// What the client threads observed over one phase.
pub struct Phase {
    /// Until the last thread finished.
    pub elapsed: Duration,
    /// Until the first thread finished: only up to here is the load the
    /// full two clients, so only windows inside it are compared.
    pub all_busy: Duration,
    pub ops: u64,
    pub latencies: [Latencies; 4],
}

impl Phase {
    pub fn of(&self, class: Class) -> &Latencies {
        &self.latencies[class as usize]
    }

    /// The fastest tenth of the windows in which every thread was busy:
    /// the part of the phase the host left alone. Throughput and latency
    /// are both read there.
    ///
    /// A window's speed is the work it completed: each operation counts
    /// for the phase's mean latency of its class, so that a window is not
    /// fast for having drawn gets where another drew transactions.
    pub fn best_windows(&self) -> Vec<u32> {
        let windows = window_of(self.all_busy, WINDOW);
        let mut work = vec![0.0; windows as usize];
        for class in Class::ALL {
            let weight = self.of(class).mean_us();
            for (w, n) in self.of(class).count_per_window(windows).iter().enumerate() {
                work[w] += *n as f64 * weight;
            }
        }
        fastest_tenth(&work)
    }

    /// Completions per second in the [`Phase::best_windows`]; 0 when the
    /// phase was shorter than one window.
    pub fn best_rate(&self) -> f64 {
        let best = self.best_windows();
        let windows = window_of(self.all_busy, WINDOW);
        let done: u64 = Class::ALL
            .iter()
            .map(|&class| {
                let counts = self.of(class).count_per_window(windows);
                best.iter().map(|&w| counts[w as usize]).sum::<u64>()
            })
            .sum();
        if best.is_empty() {
            0.0
        } else {
            done as f64 / (best.len() as f64 * WINDOW.as_secs_f64())
        }
    }

    /// Median latency of `class` in the [`Phase::best_windows`], in
    /// microseconds.
    pub fn best_median_us(&self, class: Class) -> f64 {
        self.of(class).median_in_windows_us(&self.best_windows())
    }

    /// Completed operations per second over the whole phase.
    pub fn whole_run_rate(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// One client thread: its connection, its key state, its stream.
pub struct ClientThread {
    pub target: ClientTarget,
    pub worker: Worker,
    pub stream: OpStream,
}

/// The client side of a run: `THREADS` closed-loop threads.
pub struct Clients {
    pub threads: Vec<ClientThread>,
    /// Client-side RPC counters (requests, retries, sheds seen).
    pub metrics: MetricsHandle,
}

impl Clients {
    pub fn connect(spec: &crate::stream::WorkloadSpec, seed: u64, addrs: &[String]) -> Clients {
        let metrics = Metrics::new_handle();
        let threads = (0..THREADS)
            .map(|t| {
                let stream = OpStream::new(spec, seed, t);
                ClientThread {
                    target: ClientTarget::connect(addrs, Arc::clone(&metrics)),
                    worker: Worker::new(stream.space().clone(), t),
                    stream,
                }
            })
            .collect();
        Clients { threads, metrics }
    }

    /// Every thread issues its next `ops_per_thread` operations, each
    /// sending the next only when the previous one has been answered.
    pub fn run(&mut self, ops_per_thread: usize) -> Phase {
        let begin = Instant::now();
        let per_thread: Vec<(Duration, [Latencies; 4])> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .threads
                .iter_mut()
                .map(|t| {
                    s.spawn(move || {
                        let mut latencies: [Latencies; 4] = Default::default();
                        for op in t.stream.by_ref().take(ops_per_thread) {
                            let timed = t.worker.run(&t.target, op);
                            if timed.ok {
                                let window = window_of(timed.end - begin, WINDOW);
                                latencies[timed.class as usize]
                                    .record(window, timed.end - timed.start);
                            }
                        }
                        (begin.elapsed(), latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut phase = Phase {
            elapsed: Duration::ZERO,
            all_busy: Duration::MAX,
            ops: 0,
            latencies: Default::default(),
        };
        for (elapsed, latencies) in &per_thread {
            phase.elapsed = phase.elapsed.max(*elapsed);
            phase.all_busy = phase.all_busy.min(*elapsed);
            for class in Class::ALL {
                phase.latencies[class as usize].merge(&latencies[class as usize]);
                phase.ops += latencies[class as usize].len() as u64;
            }
        }
        phase
    }

    /// Totals over all threads.
    pub fn totals(&self) -> Totals {
        let mut sum = Totals::default();
        for t in &self.threads {
            sum.attempted += t.worker.totals.attempted;
            sum.failed += t.worker.totals.failed;
            sum.txn_retries += t.worker.totals.txn_retries;
            sum.user_bytes_acked += t.worker.totals.user_bytes_acked;
        }
        sum
    }

    pub fn complaints(&self) -> Vec<String> {
        self.threads
            .iter()
            .flat_map(|t| t.worker.complaints.iter().cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_detect_damage() {
        let v = make_value(12, 3, -40);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(
            decode_value(&v).unwrap(),
            Decoded {
                index: Some(12),
                version: 3,
                balance: -40
            }
        );
        assert_ne!(v, make_value(12, 4, -40));
        let mut bad = v.to_vec();
        bad[500] ^= 1;
        assert!(decode_value(&bad).is_err());
        assert!(decode_value(&v[..100]).is_err());
        let preload = vec![PRELOAD_BYTE; VALUE_BYTES];
        assert_eq!(
            decode_value(&preload).unwrap(),
            Decoded {
                index: None,
                version: 0,
                balance: INITIAL_BALANCE
            }
        );
    }
}
