//! The traced run's entry points: the same operations issued through the
//! client, through `ClusterService::dispatch`, and through
//! `TabletServer`/`TxnManager`, each recording its own spans.
//!
//! The calls below the tablet server's public API (`GroupCommitLog`,
//! `MultiVersionIndex`, `ReadBuffer`, `wal::read_entry_in`, `Dfs`) are
//! replayed on [`Scratch`] — a log, a file, indexes and a read buffer of
//! the benchmark's own on the same DFS — with the inputs the real call
//! had, right after the real call, so nothing of the table under test is
//! touched twice.

use crate::drive::{ClientTarget, Decide, Target, TABLE};
use crate::stream::{member_of_key, KeySpace, MEMBERS};
use crate::trace::{Layer, Tracer};
use bytes::BytesMut;
use logbase::{ReadBuffer, TabletServer, TxnManager};
use logbase_cluster::ClusterService;
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::rpc::{self, Request, Response};
use logbase_common::schema::KeyRange;
use logbase_common::{Error, LogPtr, Record, Result, RowKey, Timestamp, Value};
use logbase_dfs::Dfs;
use logbase_index::MultiVersionIndex;
use logbase_wal::{
    read_entry_in, segment_name, GroupCommitConfig, GroupCommitLog, LogConfig, LogEntryKind,
    LogWriter,
};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

// ---------------------------------------------------------------------
// The client, plus the codec replay
// ---------------------------------------------------------------------

/// [`ClientTarget`] with a span around every call and a replay of the
/// frame encode/decode work both ends did for it.
pub struct TracedClient<'a> {
    pub inner: &'a ClientTarget,
    pub tracer: &'a Tracer,
}

impl TracedClient<'_> {
    /// What client and server spend in `common::rpc` for one round trip:
    /// encode + CRC-checked decode of the request, then of the response.
    fn replay_codec(&self, layer: Layer, req: &Request, resp: &Response) -> Result<()> {
        let mut buf = BytesMut::new();
        self.tracer.span(layer, || -> Result<()> {
            rpc::encode_request(&mut buf, 1, 0, req);
            let frame = rpc::read_frame(&mut &buf[..], rpc::MAX_RPC_FRAME, "trace")?
                .ok_or_else(|| Error::Corruption("empty request frame".into()))?;
            std::hint::black_box(rpc::decode_request(frame)?);
            buf.clear();
            rpc::encode_response(&mut buf, 1, resp);
            let frame = rpc::read_frame(&mut &buf[..], rpc::MAX_RPC_FRAME, "trace")?
                .ok_or_else(|| Error::Corruption("empty response frame".into()))?;
            std::hint::black_box(rpc::decode_response(frame)?);
            Ok(())
        })
    }
}

impl Target for TracedClient<'_> {
    fn put(&self, key: &RowKey, value: Value) -> Result<()> {
        self.tracer
            .span(Layer::ClientPut, || self.inner.put(key, value.clone()))?;
        let req = Request::Put {
            table: TABLE.to_string(),
            cg: 0,
            key: key.clone(),
            value,
        };
        self.replay_codec(Layer::CodecPut, &req, &Response::Ts(Timestamp(1)))
    }

    fn get(&self, key: &RowKey) -> Result<Option<Value>> {
        let value = self.tracer.span(Layer::ClientGet, || self.inner.get(key))?;
        let req = Request::Get {
            table: TABLE.to_string(),
            cg: 0,
            key: key.clone(),
        };
        self.replay_codec(Layer::CodecGet, &req, &Response::Value(value.clone()))?;
        Ok(value)
    }

    fn scan(&self, start: &RowKey, limit: u64) -> Result<Vec<(RowKey, Value)>> {
        self.tracer
            .span(Layer::ClientScan, || self.inner.scan(start, limit))
    }

    fn transfer(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()> {
        self.tracer
            .span(Layer::ClientTxn, || self.inner.transfer(a, b, decide))
    }
}

// ---------------------------------------------------------------------
// The service dispatcher
// ---------------------------------------------------------------------

/// Requests handed straight to `ClusterService::dispatch`: the server
/// side of the wire without the wire.
pub struct ServiceTarget<'a> {
    pub service: Arc<ClusterService>,
    pub tracer: &'a Tracer,
}

fn unexpected<T>(resp: Response) -> Result<T> {
    match resp {
        Response::Err(w) => Err(Error::from(w)),
        other => Err(Error::Corruption(format!("unexpected response {other:?}"))),
    }
}

impl ServiceTarget<'_> {
    fn call(&self, key: &RowKey, req: Request) -> Response {
        self.service.dispatch(member_of_key(key), req)
    }

    fn txn_read(&self, anchor: &RowKey, txn: u64, key: &RowKey) -> Result<Option<Value>> {
        let req = Request::TxnRead {
            txn,
            table: TABLE.to_string(),
            cg: 0,
            key: key.clone(),
        };
        match self.call(anchor, req) {
            Response::Value(v) => Ok(v),
            other => unexpected(other),
        }
    }

    fn transfer_once(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()> {
        let txn = match self.call(a, Request::TxnBegin { anchor: a.clone() }) {
            Response::TxnBegun { txn, .. } => txn,
            other => return unexpected(other),
        };
        let decided = self
            .txn_read(a, txn, a)
            .and_then(|va| Ok((va, self.txn_read(a, txn, b)?)))
            .and_then(|(va, vb)| decide(va, vb));
        let (na, nb) = match decided {
            Ok(values) => values,
            Err(e) => {
                self.call(a, Request::TxnAbort { txn });
                return Err(e);
            }
        };
        let writes = vec![
            (TABLE.to_string(), 0, a.clone(), Some(na)),
            (TABLE.to_string(), 0, b.clone(), Some(nb)),
        ];
        match self.call(a, Request::TxnCommit { txn, writes }) {
            Response::Ts(_) => Ok(()),
            other => unexpected(other),
        }
    }
}

impl Target for ServiceTarget<'_> {
    fn put(&self, key: &RowKey, value: Value) -> Result<()> {
        let req = Request::Put {
            table: TABLE.to_string(),
            cg: 0,
            key: key.clone(),
            value,
        };
        match self.tracer.span(Layer::ServicePut, || self.call(key, req)) {
            Response::Ts(_) => Ok(()),
            other => unexpected(other),
        }
    }

    fn get(&self, key: &RowKey) -> Result<Option<Value>> {
        let req = Request::Get {
            table: TABLE.to_string(),
            cg: 0,
            key: key.clone(),
        };
        match self.tracer.span(Layer::ServiceGet, || self.call(key, req)) {
            Response::Value(v) => Ok(v),
            other => unexpected(other),
        }
    }

    fn scan(&self, start: &RowKey, limit: u64) -> Result<Vec<(RowKey, Value)>> {
        let req = Request::Scan {
            table: TABLE.to_string(),
            cg: 0,
            start: start.clone(),
            end: None,
            limit,
        };
        match self
            .tracer
            .span(Layer::ServiceScan, || self.call(start, req))
        {
            Response::Scan(rows) => Ok(rows.into_iter().map(|(k, _, v)| (k, v)).collect()),
            other => unexpected(other),
        }
    }

    fn transfer(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()> {
        self.tracer
            .span(Layer::ServiceTxn, || self.transfer_once(a, b, decide))
    }
}

// ---------------------------------------------------------------------
// The tablet server, plus replays of what it calls
// ---------------------------------------------------------------------

/// The benchmark's own instances of the pieces a tablet server keeps
/// private, on the deployment's DFS.
pub struct Scratch {
    dfs: Dfs,
    log: GroupCommitLog,
    log_prefix: String,
    raw_file: String,
    /// One index per member, as large as the real ones.
    indexes: Vec<MultiVersionIndex>,
    read_buffer: ReadBuffer,
    table: Arc<str>,
    /// Scratch-index entries that do not point into the scratch log yet.
    placeholder: LogPtr,
    next_ts: Cell<u64>,
    frame: RefCell<Vec<u8>>,
}

impl Scratch {
    /// Build the scratch pieces; the indexes get one entry per key of
    /// `space`, like the tablets' own after the load.
    pub fn new(
        dfs: &Dfs,
        space: &KeySpace,
        segment_bytes: u64,
        read_buffer_bytes: u64,
    ) -> Result<Scratch> {
        let log_prefix = "bench-trace/log".to_string();
        let raw_file = "bench-trace/raw".to_string();
        let writer = LogWriter::create(
            dfs.clone(),
            LogConfig::new(&log_prefix).with_segment_bytes(segment_bytes),
        )?;
        dfs.create(&raw_file)?;
        let placeholder = LogPtr::new(u32::MAX, 0, 0);
        let indexes: Vec<MultiVersionIndex> =
            (0..MEMBERS).map(|_| MultiVersionIndex::new()).collect();
        for (member, index) in indexes.iter().enumerate() {
            let (start, end) = space.member_range(member as u32);
            for i in start..end {
                index.insert(space.row_key(i), Timestamp(1), placeholder);
            }
        }
        Ok(Scratch {
            dfs: dfs.clone(),
            log: GroupCommitLog::new(Arc::new(writer), GroupCommitConfig::default()),
            log_prefix,
            raw_file,
            indexes,
            read_buffer: ReadBuffer::lru(read_buffer_bytes),
            table: Arc::from(TABLE),
            placeholder,
            next_ts: Cell::new(1),
            frame: RefCell::new(Vec::new()),
        })
    }

    fn append(&self, key: &RowKey, value: &Value) -> Result<(Timestamp, LogPtr)> {
        self.next_ts.set(self.next_ts.get() + 1);
        let ts = Timestamp(self.next_ts.get());
        let entry = LogEntryKind::Write {
            txn_id: 0,
            tablet: member_of_key(key),
            record: Record::put(key.clone(), 0, ts, value.clone()),
        };
        let (_, ptr) = self.log.append(TABLE, entry)?;
        Ok((ts, ptr))
    }

    /// What `TabletServer::put` calls below itself: oracle, log append
    /// (and, inside it, the replicated DFS append), index insert.
    fn replay_put(
        &self,
        tracer: &Tracer,
        server: &TabletServer,
        key: &RowKey,
        value: &Value,
    ) -> Result<()> {
        tracer.span(Layer::Oracle, || drop(server.oracle().reserve()));
        let (ts, ptr) = tracer.span(Layer::WalAppend, || self.append(key, value))?;
        let mut frame = self.frame.borrow_mut();
        frame.resize(ptr.len as usize, 0xa5);
        tracer.span(Layer::DfsAppend, || self.dfs.append(&self.raw_file, &frame))?;
        let index = &self.indexes[member_of_key(key) as usize];
        tracer.span(Layer::IndexInsert, || index.insert(key.clone(), ts, ptr));
        Ok(())
    }

    /// What `TabletServer::get` calls below itself: index lookup, read
    /// buffer probe and — when the real read missed the buffer — the
    /// log-entry read with the positional DFS read inside it.
    fn replay_get(&self, tracer: &Tracer, key: &RowKey, value: &Value, missed: bool) -> Result<()> {
        let index = &self.indexes[member_of_key(key) as usize];
        let found = tracer
            .span(Layer::IndexLookup, || index.latest_at(key, Timestamp::MAX))
            .ok_or_else(|| Error::Corruption("key missing from the scratch index".into()))?;
        tracer.span(Layer::ReadBufferGet, || {
            std::hint::black_box(self.read_buffer.get(&self.table, 0, key));
        });
        if !missed {
            return Ok(());
        }
        let (ts, ptr) = if found.ptr == self.placeholder {
            // First miss on this key: give it a record to read.
            let (ts, ptr) = self.append(key, value)?;
            index.insert(key.clone(), ts, ptr);
            (ts, ptr)
        } else {
            (found.ts, found.ptr)
        };
        let name = segment_name(&self.log_prefix, ptr.segment);
        tracer.span(Layer::WalReadEntry, || read_entry_in(&self.dfs, &name, ptr))?;
        tracer.span(Layer::DfsRead, || {
            self.dfs.read(&name, ptr.offset, u64::from(ptr.len))
        })?;
        self.read_buffer
            .put(&self.table, 0, key, ts, Some(value.clone()));
        Ok(())
    }
}

/// Operations called on the members' `TabletServer`s directly.
pub struct ServerTarget<'a> {
    pub servers: Vec<Arc<TabletServer>>,
    /// The cluster's shared sink; its miss counter tells whether a get
    /// went to the log.
    pub metrics: MetricsHandle,
    pub scratch: &'a Scratch,
    pub tracer: &'a Tracer,
}

impl ServerTarget<'_> {
    fn server(&self, key: &RowKey) -> &TabletServer {
        &self.servers[member_of_key(key) as usize]
    }

    fn transfer_once(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()> {
        let server = self.server(a);
        let mut txn = TxnManager::begin(server);
        let decided = TxnManager::read(server, &mut txn, TABLE, 0, a)
            .and_then(|va| Ok((va, TxnManager::read(server, &mut txn, TABLE, 0, b)?)))
            .and_then(|(va, vb)| decide(va, vb));
        let (na, nb) = match decided {
            Ok(values) => values,
            Err(e) => {
                TxnManager::abort(server, txn);
                return Err(e);
            }
        };
        TxnManager::write(&mut txn, TABLE, 0, a.clone(), na);
        TxnManager::write(&mut txn, TABLE, 0, b.clone(), nb);
        self.tracer
            .span(Layer::TxnCommit, || TxnManager::commit(server, txn))
            .map(|_| ())
    }
}

impl Target for ServerTarget<'_> {
    fn put(&self, key: &RowKey, value: Value) -> Result<()> {
        let server = self.server(key);
        self.tracer.span(Layer::ServerPut, || {
            server.put(TABLE, 0, key.clone(), value.clone())
        })?;
        self.scratch.replay_put(self.tracer, server, key, &value)
    }

    fn get(&self, key: &RowKey) -> Result<Option<Value>> {
        let misses = Metrics::get(&self.metrics.cache_misses);
        let value = self
            .tracer
            .span(Layer::ServerGet, || self.server(key).get(TABLE, 0, key))?;
        let missed = Metrics::get(&self.metrics.cache_misses) > misses;
        if let Some(v) = &value {
            self.scratch.replay_get(self.tracer, key, v, missed)?;
        }
        Ok(value)
    }

    fn scan(&self, start: &RowKey, limit: u64) -> Result<Vec<(RowKey, Value)>> {
        let range = KeyRange {
            start: start.clone(),
            end: None,
        };
        let rows = self.tracer.span(Layer::ServerScan, || {
            self.server(start)
                .range_scan(TABLE, 0, &range, limit as usize)
        })?;
        Ok(rows.into_iter().map(|(k, _, v)| (k, v)).collect())
    }

    fn transfer(&self, a: &RowKey, b: &RowKey, decide: &mut Decide) -> Result<()> {
        self.tracer
            .span(Layer::ServerTxn, || self.transfer_once(a, b, decide))
    }
}
