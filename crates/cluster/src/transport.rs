//! The client side of the wire: a [`Transport`] carries one request to
//! one member; a [`Client`] layers routing, retries, deadlines, and
//! metrics on top.
//!
//! Two transports exist:
//!
//! - [`InProcessTransport`] — a function call into the shared
//!   [`ClusterService`]. Zero marshalling, zero copies beyond `Bytes`
//!   refcounts, through the same seam as TCP.
//! - `TcpTransport` (in [`crate::net`]) — length-prefixed CRC frames
//!   over pooled, pipelined connections.
//!
//! # Retry semantics
//!
//! [`Client`] is the only data path into a cluster, over either
//! transport: bounded exponential backoff with deterministic jitter
//! (reusing [`RetryPolicy`]'s schedule) retries everything
//! [`Error::is_retriable`] admits — `Unavailable` (ownership gap, dead
//! seat, connection refused/reset), `Busy` (load shed), `TabletMoved`
//! (stale routing cache, which also invalidates the cache), transient
//! I/O — while `Fenced` and every other non-retriable error fails
//! immediately. The whole retry loop runs under one per-operation
//! deadline: when the next backoff would cross it, the operation fails
//! with [`Error::DeadlineExceeded`] — the retry budget *is* the
//! deadline.
//!
//! # Overload discipline
//!
//! Three mechanisms keep a fleet of clients from amplifying a server
//! overload into a storm (DESIGN.md §9):
//!
//! - **Token-bucket retry budget** ([`RetryBudgetConfig`]): each retry
//!   spends a token, each successful operation refills a fraction of
//!   one. When the bucket is empty the client stops retrying and fails
//!   the operation (`retry_budget_exhausted` ticks) — under persistent
//!   overload the fleet's retry rate converges to a bounded fraction of
//!   its success rate instead of multiplying offered load.
//! - **Retry-after hints**: a `Busy` shed may carry the server's
//!   suggested backoff; the client sleeps at least that long (capped),
//!   so shed traffic returns after the congestion window, not inside it.
//! - **Decorrelated jitter**: a client constructed with the default
//!   (zero) retry seed gets a unique per-client seed, and `TabletMoved`
//!   invalidations add per-client jitter before the re-resolve — a
//!   thousand clients with the same stale cache re-resolve spread out
//!   rather than as one herd.
//!
//! # Routing cache
//!
//! The client learns tablet locations from the `Routes` RPC (served by
//! every member) and caches them. A `TabletMoved` response proves the
//! cache stale: the client drops it, counts a
//! `routing_cache_invalidations`, re-fetches, and retries at the new
//! owner.

use crate::service::ClusterService;
use logbase::endpoint::{TxnEndpoint, TxnSession};
use logbase_common::engine::ScanItem;
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::rpc::{Request, Response, RouteInfo};
use logbase_common::schema::KeyRange;
use logbase_common::{Error, Result, RetryPolicy, RowKey, Timestamp, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One hop to one member. Implementations surface transport-level
/// failures (refused/reset connections, timeouts) as retriable errors;
/// application errors arrive intact inside [`Response::Err`].
pub trait Transport: Send + Sync {
    /// Send `req` to `member`, waiting no further than `deadline`.
    fn call(&self, member: u32, req: Request, deadline: Instant) -> Result<Response>;

    /// Transport label for reports ("inproc" / "tcp").
    fn name(&self) -> &'static str;
}

/// The zero-cost transport: requests dispatch directly into the shared
/// [`ClusterService`].
pub struct InProcessTransport {
    service: Arc<ClusterService>,
}

impl InProcessTransport {
    /// Wrap the service as a transport.
    pub fn new(service: Arc<ClusterService>) -> Self {
        InProcessTransport { service }
    }
}

impl Transport for InProcessTransport {
    fn call(&self, member: u32, req: Request, deadline: Instant) -> Result<Response> {
        // Deadline parity with the TCP server: an already-expired
        // request is dropped before dispatch here too.
        Ok(self
            .service
            .dispatch_with_deadline(member, req, Some(deadline)))
    }

    fn name(&self) -> &'static str {
        "inproc"
    }
}

/// Token-bucket retry budget: retries spend, successes refill.
///
/// Accounting runs in millitokens so fractional refill rates work
/// without floats on the hot path. The defaults are deliberately
/// generous — a failover gap legitimately costs hundreds of retries —
/// while still bounding a *persistent* overload: once the bucket
/// drains, the fleet's retry rate is capped at `refill_per_success`
/// times its success rate.
#[derive(Debug, Clone)]
pub struct RetryBudgetConfig {
    /// Tokens in the bucket at client construction.
    pub initial: u32,
    /// Bucket capacity.
    pub max: u32,
    /// Tokens granted per successful operation (fractions allowed).
    pub refill_per_success: f64,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            initial: 1024,
            max: 1024,
            refill_per_success: 1.0,
        }
    }
}

/// Client-side knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-operation deadline covering the whole retry loop.
    pub op_deadline: Duration,
    /// Backoff schedule (attempt budget, delays, jitter, seed). A zero
    /// seed is replaced with a unique per-client seed at construction
    /// so independent clients never share a jitter schedule.
    pub retry: RetryPolicy,
    /// Cross-operation retry budget (storm prevention).
    pub retry_budget: RetryBudgetConfig,
    /// Upper bound of the extra per-client jitter slept after a
    /// `TabletMoved` invalidation, so stale-cache clients fan out their
    /// re-resolves instead of herding onto the new owner at once.
    pub moved_refetch_jitter: Duration,
    /// Cap applied to a server-supplied `Busy` retry-after hint (a
    /// hostile or confused server cannot park clients forever).
    pub retry_after_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            // RetryPolicy::new(400) rides out a full lease expiry +
            // failover.
            op_deadline: Duration::from_secs(30),
            retry: RetryPolicy::new(400),
            retry_budget: RetryBudgetConfig::default(),
            moved_refetch_jitter: Duration::from_millis(3),
            retry_after_cap: Duration::from_millis(100),
        }
    }
}

/// Live token-bucket state (millitokens).
struct RetryBudget {
    millitokens: std::sync::atomic::AtomicU64,
    max_milli: u64,
    refill_milli: u64,
}

impl RetryBudget {
    fn new(cfg: &RetryBudgetConfig) -> Self {
        let max_milli = u64::from(cfg.max) * 1000;
        RetryBudget {
            millitokens: std::sync::atomic::AtomicU64::new(
                (u64::from(cfg.initial) * 1000).min(max_milli),
            ),
            max_milli,
            refill_milli: (cfg.refill_per_success.max(0.0) * 1000.0) as u64,
        }
    }

    /// Spend one token; `false` when the bucket cannot cover it.
    fn try_spend(&self) -> bool {
        use std::sync::atomic::Ordering;
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            if cur < 1000 {
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                cur - 1000,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Credit one success.
    fn refill(&self) {
        use std::sync::atomic::Ordering;
        if self.refill_milli == 0 {
            return;
        }
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = (cur + self.refill_milli).min(self.max_milli);
            if next == cur {
                return;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    fn tokens(&self) -> f64 {
        self.millitokens.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1000.0
    }
}

/// Transport-agnostic cluster client: routing cache + deadline-capped
/// retries over any [`Transport`].
pub struct Client {
    transport: Arc<dyn Transport>,
    config: ClientConfig,
    table: String,
    metrics: MetricsHandle,
    routes: RwLock<Vec<RouteInfo>>,
    budget: RetryBudget,
    /// Monotonic count of `TabletMoved` invalidations; feeds the
    /// per-client re-resolve jitter stream.
    invalidation_seq: std::sync::atomic::AtomicU64,
}

/// Process-wide client counter: mixed into default retry seeds so two
/// clients constructed with the same (zero) seed never share a jitter
/// schedule. Deterministic for a fixed construction order.
static CLIENT_SALT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Client {
    /// Client over `transport` for the cluster's benchmark table.
    pub fn new(
        transport: Arc<dyn Transport>,
        table: impl Into<String>,
        metrics: MetricsHandle,
        mut config: ClientConfig,
    ) -> Self {
        // Decorrelate default-seeded clients: identical seeds mean
        // identical backoff schedules, which under a shared stimulus
        // (one tablet moving under a thousand clients) synchronize the
        // whole fleet's retries into a herd. An explicit nonzero seed
        // is honored untouched for seeded replay tests.
        if config.retry.seed == 0 {
            let salt = CLIENT_SALT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            config.retry.seed = splitmix64(salt) | 1;
        }
        let budget = RetryBudget::new(&config.retry_budget);
        Client {
            transport,
            config,
            table: table.into(),
            metrics,
            routes: RwLock::new(Vec::new()),
            budget,
            invalidation_seq: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The transport's label.
    pub fn transport_name(&self) -> &'static str {
        self.transport.name()
    }

    /// The client's metrics sink.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// The (possibly salted) retry jitter seed this client ended up
    /// with — tests assert fleet-wide decorrelation through this.
    pub fn retry_seed(&self) -> u64 {
        self.config.retry.seed
    }

    /// Remaining retry-budget tokens (observability + tests).
    pub fn retry_budget_tokens(&self) -> f64 {
        self.budget.tokens()
    }

    /// The extra jitter slept before re-resolving after the `n`-th
    /// `TabletMoved` invalidation: a pure function of the client's seed
    /// and `n`, uniform over `[0, moved_refetch_jitter]`.
    pub fn moved_jitter(&self, n: u64) -> Duration {
        let max = self.config.moved_refetch_jitter;
        if max.is_zero() {
            return Duration::ZERO;
        }
        let z = splitmix64(self.config.retry.seed ^ n.wrapping_mul(0xA24B_AED4_963E_E407));
        let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        max.mul_f64(unit)
    }

    // ---- key-value operations ---------------------------------------

    /// Routed durable write, retrying through failover.
    pub fn put(&self, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        let resp = self.call_routed(&key, "put", || Request::Put {
            table: self.table.clone(),
            cg,
            key: key.clone(),
            value: value.clone(),
        })?;
        expect_ts(resp)
    }

    /// Routed point read, retrying through failover.
    pub fn get(&self, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        let resp = self.call_routed(key, "get", || Request::Get {
            table: self.table.clone(),
            cg,
            key: RowKey::copy_from_slice(key),
        })?;
        expect_value(resp)
    }

    /// Routed multiversion read.
    pub fn get_at(&self, cg: u16, key: &[u8], at: Timestamp) -> Result<Option<Value>> {
        let resp = self.call_routed(key, "get_at", || Request::GetAt {
            table: self.table.clone(),
            cg,
            key: RowKey::copy_from_slice(key),
            at,
        })?;
        expect_value(resp)
    }

    /// Routed delete.
    pub fn delete(&self, cg: u16, key: &[u8]) -> Result<()> {
        let resp = self.call_routed(key, "delete", || Request::Delete {
            table: self.table.clone(),
            cg,
            key: RowKey::copy_from_slice(key),
        })?;
        match resp {
            Response::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Scan the single member owning `start`, up to `limit` items.
    pub fn scan_member(
        &self,
        cg: u16,
        start: &[u8],
        end: Option<RowKey>,
        limit: u64,
    ) -> Result<Vec<(RowKey, Timestamp, Value)>> {
        let resp = self.call_routed(start, "scan", || Request::Scan {
            table: self.table.clone(),
            cg,
            start: RowKey::copy_from_slice(start),
            end: end.clone(),
            limit,
        })?;
        match resp {
            Response::Scan(items) => Ok(items),
            other => Err(unexpected(other)),
        }
    }

    /// Cluster-wide range scan: walk the cached routing table in key
    /// order and scan each route's owner for its slice of `range`,
    /// until `limit` items. Routes are disjoint and sorted, so the
    /// concatenation is the key-order merge.
    ///
    /// A member answers a scan from the tablets it serves *now*, so a
    /// route that went stale by narrowing (a split) would silently lose
    /// the rows that moved away. The walk is therefore validated
    /// optimistically: it stands only if the table the cluster
    /// advertises afterwards is the one that was walked; otherwise the
    /// cache is invalidated and the scan restarts. Not a snapshot read —
    /// each member scans at its own latest timestamp.
    pub fn range_scan(&self, cg: u16, range: &KeyRange, limit: usize) -> Result<Vec<ScanItem>> {
        let deadline = Instant::now() + self.config.op_deadline;
        loop {
            let walked = self.cached_routes(deadline)?;
            let mut out = Vec::new();
            for route in &walked {
                if out.len() >= limit {
                    break;
                }
                let slice = range.intersect(&KeyRange {
                    start: route.start.clone(),
                    end: route.end.clone(),
                });
                if slice.is_empty() {
                    continue;
                }
                let room = (limit - out.len()) as u64;
                out.extend(self.scan_member(cg, &slice.start, slice.end, room)?);
            }
            if self.fetch_routes(deadline)? == walked {
                return Ok(out);
            }
            self.invalidate_routes();
        }
    }

    /// The routing table as the server currently advertises it.
    pub fn routes(&self) -> Result<Vec<RouteInfo>> {
        let deadline = Instant::now() + self.config.op_deadline;
        self.fetch_routes(deadline)
    }

    /// The member currently serving `key`, per the cached routing table.
    pub fn member_for(&self, key: &[u8]) -> Result<u32> {
        let deadline = Instant::now() + self.config.op_deadline;
        self.resolve(key, deadline)
    }

    // ---- transactions -----------------------------------------------

    /// A transaction endpoint anchored at `key`'s tablet. The endpoint
    /// pins the member serving `key` at call time; a reassignment
    /// surfaces as retriable errors from the endpoint's operations.
    pub fn endpoint_for(&self, key: &[u8]) -> Result<ClientEndpoint<'_>> {
        let deadline = Instant::now() + self.config.op_deadline;
        let member = self.resolve(key, deadline)?;
        Ok(ClientEndpoint {
            client: self,
            member,
            anchor: RowKey::copy_from_slice(key),
        })
    }

    // ---- internals ----------------------------------------------------

    /// One member-addressed call with the full retry loop but no
    /// re-routing: used by transaction sessions, whose member is pinned
    /// by the open transaction. `TabletMoved` fails fast here — only a
    /// re-route (a fresh endpoint) can help, so retrying the pinned
    /// member would just burn the budget.
    fn call_member(&self, member: u32, what: &str, mk: impl Fn() -> Request) -> Result<Response> {
        let deadline = Instant::now() + self.config.op_deadline;
        self.retry_loop(what, deadline, false, |_| {
            Metrics::incr(&self.metrics.rpc_requests);
            let resp = self.transport.call(member, mk(), deadline)?;
            match resp {
                Response::Err(w) => Err(Error::from(w)),
                ok => Ok(ok),
            }
        })
    }

    /// One key-routed call: resolve the owner from the cache, call it,
    /// invalidate + refetch the cache on `TabletMoved`, retry with
    /// backoff under the deadline.
    fn call_routed(&self, key: &[u8], what: &str, mk: impl Fn() -> Request) -> Result<Response> {
        let deadline = Instant::now() + self.config.op_deadline;
        self.retry_loop(what, deadline, true, |_| {
            let member = self.resolve(key, deadline)?;
            Metrics::incr(&self.metrics.rpc_requests);
            let resp = self.transport.call(member, mk(), deadline)?;
            match resp {
                Response::Err(w) => Err(Error::from(w)),
                ok => Ok(ok),
            }
        })
    }

    /// The shared retry loop: retriable errors back off under the
    /// deadline; `TabletMoved` additionally invalidates the routing
    /// cache (and, with `retry_moved` false, fails fast so the caller
    /// can re-route). Non-retriable errors — `Fenced` above all — fail
    /// fast.
    fn retry_loop<T>(
        &self,
        what: &str,
        deadline: Instant,
        retry_moved: bool,
        mut op: impl FnMut(u32) -> Result<T>,
    ) -> Result<T> {
        let mut attempt: u32 = 0;
        loop {
            match op(attempt) {
                Ok(v) => {
                    self.budget.refill();
                    return Ok(v);
                }
                Err(e) if e.is_retriable() => {
                    let moved = matches!(e, Error::TabletMoved(_));
                    if moved {
                        self.invalidate_routes();
                        if !retry_moved {
                            return Err(e);
                        }
                    }
                    if attempt + 1 >= self.config.retry.max_attempts {
                        return Err(Error::Unavailable(format!(
                            "{what}: retries exhausted: {e}"
                        )));
                    }
                    // Retries are paid for, successes earn the tokens
                    // back: a fleet whose server is drowning runs dry
                    // and stops amplifying the overload instead of
                    // multiplying every offered request by
                    // `max_attempts`.
                    if !self.budget.try_spend() {
                        Metrics::incr(&self.metrics.retry_budget_exhausted);
                        return Err(Error::Unavailable(format!(
                            "{what}: retry budget exhausted: {e}"
                        )));
                    }
                    let mut delay = self.config.retry.backoff(attempt);
                    // A shedding server knows its own queue depth
                    // better than our blind backoff curve does; honor
                    // its retry-after hint, capped so a confused server
                    // cannot park us forever.
                    if let Some(hint) = e.retry_after() {
                        delay = delay.max(hint.min(self.config.retry_after_cap));
                    }
                    if moved {
                        // Decorrelate the re-resolve stampede: every
                        // client holding the same stale route learns of
                        // the move at the same instant.
                        let n = self
                            .invalidation_seq
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        delay += self.moved_jitter(n);
                    }
                    if Instant::now() + delay >= deadline {
                        Metrics::incr(&self.metrics.rpc_timeouts);
                        return Err(Error::DeadlineExceeded(format!(
                            "{what}: deadline elapsed after {} attempts: {e}",
                            attempt + 1
                        )));
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                    Metrics::incr(&self.metrics.rpc_retries);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Key → member through the cache, fetching the table on a miss.
    fn resolve(&self, key: &[u8], deadline: Instant) -> Result<u32> {
        if let Some(m) = lookup(&self.routes.read(), key) {
            return Ok(m);
        }
        lookup(&self.cached_routes(deadline)?, key)
            .ok_or_else(|| Error::TabletNotServed(format!("no route covers key {key:02x?}")))
    }

    /// The cached routing table, fetched (and cached) when cold.
    fn cached_routes(&self, deadline: Instant) -> Result<Vec<RouteInfo>> {
        let cached = self.routes.read().clone();
        if !cached.is_empty() {
            return Ok(cached);
        }
        let fetched = self.fetch_routes(deadline)?;
        *self.routes.write() = fetched.clone();
        Ok(fetched)
    }

    /// Drop the cached routing table (counted: the satellite metric).
    pub fn invalidate_routes(&self) {
        let mut routes = self.routes.write();
        if !routes.is_empty() {
            routes.clear();
            Metrics::incr(&self.metrics.routing_cache_invalidations);
        }
    }

    /// Fetch the routing table from whichever member answers first.
    /// Every member serves `Routes`, so this sweeps members (several
    /// rounds, to ride out transient faults) until one responds.
    fn fetch_routes(&self, deadline: Instant) -> Result<Vec<RouteInfo>> {
        let mut last_err = Error::Unavailable("no members reachable for Routes".into());
        for round in 0..8u32 {
            let members = self.known_members();
            for member in members {
                if Instant::now() >= deadline {
                    Metrics::incr(&self.metrics.rpc_timeouts);
                    return Err(Error::DeadlineExceeded("routes fetch".into()));
                }
                Metrics::incr(&self.metrics.rpc_requests);
                match self.transport.call(member, Request::Routes, deadline) {
                    Ok(Response::Routes(routes)) if !routes.is_empty() => return Ok(routes),
                    Ok(Response::Err(w)) => last_err = w.into(),
                    Ok(other) => last_err = unexpected(other),
                    Err(e) => last_err = e,
                }
            }
            let delay = self.config.retry.backoff(round);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        Err(last_err)
    }

    /// Members worth asking for the routing table: everyone the cache
    /// mentions, or a small probe range when the cache is cold.
    fn known_members(&self) -> Vec<u32> {
        let cached: Vec<u32> = {
            let routes = self.routes.read();
            let mut m: Vec<u32> = routes.iter().map(|r| r.member).collect();
            m.sort_unstable();
            m.dedup();
            m
        };
        if cached.is_empty() {
            (0..8).collect()
        } else {
            cached
        }
    }
}

fn lookup(routes: &[RouteInfo], key: &[u8]) -> Option<u32> {
    routes
        .iter()
        .find(|r| key >= &r.start[..] && r.end.as_ref().is_none_or(|e| key < &e[..]))
        .map(|r| r.member)
}

fn expect_ts(resp: Response) -> Result<Timestamp> {
    match resp {
        Response::Ts(ts) => Ok(ts),
        other => Err(unexpected(other)),
    }
}

fn expect_value(resp: Response) -> Result<Option<Value>> {
    match resp {
        Response::Value(v) => Ok(v),
        other => Err(unexpected(other)),
    }
}

fn unexpected(resp: Response) -> Error {
    Error::Corruption(format!("unexpected response variant: {resp:?}"))
}

// ---------------------------------------------------------------------
// Wire-backed transaction endpoint
// ---------------------------------------------------------------------

/// A [`TxnEndpoint`] whose every operation crosses the client's
/// transport. Writes buffer locally (read-your-own-writes included) and
/// ship at commit, mirroring [`logbase::TxnManager`]'s client-side
/// buffering.
pub struct ClientEndpoint<'a> {
    client: &'a Client,
    member: u32,
    anchor: RowKey,
}

impl ClientEndpoint<'_> {
    /// The member this endpoint pins.
    pub fn member(&self) -> u32 {
        self.member
    }
}

impl TxnEndpoint for ClientEndpoint<'_> {
    fn endpoint_id(&self) -> u64 {
        u64::from(self.member)
    }

    fn put(&self, table: &str, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        let resp = self
            .client
            .call_member(self.member, "ep put", || Request::Put {
                table: table.to_string(),
                cg,
                key: key.clone(),
                value: value.clone(),
            })?;
        expect_ts(resp)
    }

    fn get(&self, table: &str, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        let resp = self
            .client
            .call_member(self.member, "ep get", || Request::Get {
                table: table.to_string(),
                cg,
                key: RowKey::copy_from_slice(key),
            })?;
        expect_value(resp)
    }

    fn begin(&self) -> Result<Box<dyn TxnSession + '_>> {
        let resp = self
            .client
            .call_member(self.member, "txn begin", || Request::TxnBegin {
                anchor: self.anchor.clone(),
            })?;
        match resp {
            Response::TxnBegun { txn, .. } => Ok(Box::new(RemoteSession {
                ep: self,
                txn,
                writes: BTreeMap::new(),
                finished: false,
            })),
            other => Err(unexpected(other)),
        }
    }
}

/// Client-side state of one wire transaction.
struct RemoteSession<'a> {
    ep: &'a ClientEndpoint<'a>,
    txn: u64,
    /// The local write buffer, shipped at commit. Keyed like the
    /// server's `CellId` so read-your-own-writes matches exactly.
    writes: BTreeMap<(String, u16, RowKey), Option<Value>>,
    finished: bool,
}

impl TxnSession for RemoteSession<'_> {
    fn read(&mut self, table: &str, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        // RYOW: the local buffer wins before any wire round-trip —
        // the same order TxnManager::read checks its buffer.
        if let Some(v) = self
            .writes
            .get(&(table.to_string(), cg, RowKey::copy_from_slice(key)))
        {
            return Ok(v.clone());
        }
        let resp = self
            .ep
            .client
            .call_member(self.ep.member, "txn read", || Request::TxnRead {
                txn: self.txn,
                table: table.to_string(),
                cg,
                key: RowKey::copy_from_slice(key),
            })?;
        expect_value(resp)
    }

    fn write(&mut self, table: &str, cg: u16, key: RowKey, value: Option<Value>) {
        self.writes.insert((table.to_string(), cg, key), value);
    }

    fn commit(mut self: Box<Self>) -> Result<Timestamp> {
        self.finished = true;
        let writes: Vec<_> = self
            .writes
            .iter()
            .map(|((t, cg, k), v)| (t.clone(), *cg, k.clone(), v.clone()))
            .collect();
        let resp = self
            .ep
            .client
            .call_member(self.ep.member, "txn commit", || Request::TxnCommit {
                txn: self.txn,
                writes: writes.clone(),
            })?;
        expect_ts(resp)
    }

    fn abort(mut self: Box<Self>) {
        self.finished = true;
        let _ = self
            .ep
            .client
            .call_member(self.ep.member, "txn abort", || Request::TxnAbort {
                txn: self.txn,
            });
    }
}

impl Drop for RemoteSession<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // Best-effort single-shot abort so an abandoned session does
            // not leak server-side state (no retry loop in a destructor).
            let deadline = Instant::now() + Duration::from_millis(250);
            let _ = self.ep.client.transport.call(
                self.ep.member,
                Request::TxnAbort { txn: self.txn },
                deadline,
            );
        }
    }
}
