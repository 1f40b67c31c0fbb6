//! Spans and the layer budget computed from them.
//!
//! The traced run enters the stack at three depths — the client over TCP,
//! `ClusterService::dispatch`, and `TabletServer`/`TxnManager` — each on
//! its own share of one thread's operation stream, and replays the pure or
//! scratch-backed calls below (`rpc` codec, oracle, log append, DFS
//! append/read, index, read buffer) right after the operation that would
//! have made them. Every timed call is a [`Span`]; a layer's *self* time
//! is its time per operation minus its children's, so a parent's budget
//! sums to the parent by construction.

use crate::report::obj;
use serde::Value;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// A timed boundary in the stack. `parent` gives the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    ClientPut,
    ClientGet,
    ClientTxn,
    ClientScan,
    CodecPut,
    CodecGet,
    ServicePut,
    ServiceGet,
    ServiceTxn,
    ServiceScan,
    ServerPut,
    ServerGet,
    ServerTxn,
    ServerScan,
    Oracle,
    WalAppend,
    DfsAppend,
    IndexInsert,
    IndexLookup,
    ReadBufferGet,
    WalReadEntry,
    DfsRead,
    TxnCommit,
}

use Layer::*;

impl Layer {
    pub const ALL: [Layer; 23] = [
        ClientPut,
        ClientGet,
        ClientTxn,
        ClientScan,
        CodecPut,
        CodecGet,
        ServicePut,
        ServiceGet,
        ServiceTxn,
        ServiceScan,
        ServerPut,
        ServerGet,
        ServerTxn,
        ServerScan,
        Oracle,
        WalAppend,
        DfsAppend,
        IndexInsert,
        IndexLookup,
        ReadBufferGet,
        WalReadEntry,
        DfsRead,
        TxnCommit,
    ];

    /// `crate.boundary`, the crate being the layer's name in the report.
    pub fn name(self) -> &'static str {
        match self {
            ClientPut => "cluster.client_put",
            ClientGet => "cluster.client_get",
            ClientTxn => "cluster.client_txn",
            ClientScan => "cluster.client_scan",
            CodecPut => "common.rpc_codec_put",
            CodecGet => "common.rpc_codec_get",
            ServicePut => "cluster.service_put",
            ServiceGet => "cluster.service_get",
            ServiceTxn => "cluster.service_txn",
            ServiceScan => "cluster.service_scan",
            ServerPut => "logbase.server_put",
            ServerGet => "logbase.server_get",
            ServerTxn => "logbase.server_txn",
            ServerScan => "logbase.range_scan",
            Oracle => "coordination.oracle",
            WalAppend => "wal.append",
            DfsAppend => "dfs.append",
            IndexInsert => "index.insert",
            IndexLookup => "index.lookup",
            ReadBufferGet => "logbase.read_buffer_get",
            WalReadEntry => "wal.read_entry",
            DfsRead => "dfs.read",
            TxnCommit => "logbase.txn_commit",
        }
    }

    /// The layer whose call contains this one.
    pub fn parent(self) -> Option<Layer> {
        match self {
            ClientPut | ClientGet | ClientTxn | ClientScan => None,
            CodecPut | ServicePut => Some(ClientPut),
            CodecGet | ServiceGet => Some(ClientGet),
            ServiceTxn => Some(ClientTxn),
            ServiceScan => Some(ClientScan),
            ServerPut => Some(ServicePut),
            ServerGet => Some(ServiceGet),
            ServerTxn => Some(ServiceTxn),
            ServerScan => Some(ServiceScan),
            Oracle | WalAppend | IndexInsert => Some(ServerPut),
            DfsAppend => Some(WalAppend),
            IndexLookup | ReadBufferGet | WalReadEntry => Some(ServerGet),
            DfsRead => Some(WalReadEntry),
            TxnCommit => Some(ServerTxn),
        }
    }

    /// The entry point this layer is timed under: its per-operation time
    /// divides by the operations dealt to that entry point.
    pub fn entry(self) -> Layer {
        match self {
            CodecPut => ClientPut,
            CodecGet => ClientGet,
            Oracle | WalAppend | DfsAppend | IndexInsert => ServerPut,
            IndexLookup | ReadBufferGet | WalReadEntry | DfsRead => ServerGet,
            TxnCommit => ServerTxn,
            entry => entry,
        }
    }

    pub fn children(self) -> impl Iterator<Item = Layer> {
        Layer::ALL
            .into_iter()
            .filter(move |l| l.parent() == Some(self))
    }
}

/// One timed call. The span that caused it is the span of `layer.parent()`
/// with the same `op_id`, or — across entry points — that layer's spans at
/// large.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub op_id: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans in memory; single-threaded by design (the traced run is
/// one thread).
pub struct Tracer {
    epoch: Instant,
    op_id: Cell<u32>,
    spans: RefCell<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            op_id: Cell::new(0),
            spans: RefCell::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Start the next operation; spans recorded from now on carry its id.
    pub fn next_op(&self) {
        self.op_id.set(self.op_id.get() + 1);
    }

    /// Time `f` as one span of `layer`.
    pub fn span<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.borrow_mut().push(Span {
            op_id: self.op_id.get(),
            layer,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Calls and total time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub calls: u64,
    pub nanos: u64,
}

/// The layer budget of a traced run.
#[derive(Debug, Clone)]
pub struct Budget {
    totals: Vec<LayerTotal>,
}

impl Budget {
    pub fn from_spans(spans: &[Span]) -> Budget {
        let mut totals = vec![LayerTotal::default(); Layer::ALL.len()];
        for s in spans {
            let t = &mut totals[s.layer as usize];
            t.calls += 1;
            t.nanos += s.end_ns - s.start_ns;
        }
        Budget { totals }
    }

    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }

    /// Mean microseconds per call of `layer`; 0 if it was never called.
    pub fn per_call_us(&self, layer: Layer) -> f64 {
        let t = self.total(layer);
        if t.calls == 0 {
            0.0
        } else {
            t.nanos as f64 / t.calls as f64 / 1e3
        }
    }

    /// Mean microseconds of `layer` per operation of its entry point: a layer called on one operation in four costs a quarter of
    /// its per-call time here.
    pub fn per_op_us(&self, layer: Layer) -> f64 {
        let ops = self.total(layer.entry()).calls;
        if ops == 0 {
            0.0
        } else {
            self.total(layer).nanos as f64 / ops as f64 / 1e3
        }
    }

    /// Per-operation time of `layer` not spent in its children.
    pub fn self_us(&self, layer: Layer) -> f64 {
        let children: f64 = layer.children().map(|c| self.per_op_us(c)).sum();
        self.per_op_us(layer) - children
    }

    /// `self_us` averaged over the put and get trees, weighted by how many
    /// of each were dealt.
    pub fn self_us_put_get(&self, put: Layer, get: Layer) -> f64 {
        let (np, ng) = (self.total(put).calls as f64, self.total(get).calls as f64);
        if np + ng == 0.0 {
            0.0
        } else {
            (self.self_us(put) * np + self.self_us(get) * ng) / (np + ng)
        }
    }

    /// Layers whose children cost over a tenth more than the layer itself:
    /// the budget does not add up there.
    pub fn overdrawn(&self) -> Vec<String> {
        Layer::ALL
            .into_iter()
            .filter(|&l| self.total(l).calls > 0 && l.children().next().is_some())
            .filter(|&l| self.self_us(l) < -0.10 * self.per_op_us(l))
            .map(|l| {
                format!(
                    "{}: {:.2} us per op, children {:.2} us",
                    l.name(),
                    self.per_op_us(l),
                    self.per_op_us(l) - self.self_us(l)
                )
            })
            .collect()
    }

    /// The budget as a JSON table, one row per layer that was called.
    pub fn to_json(&self) -> Value {
        let rows = Layer::ALL
            .into_iter()
            .filter(|&l| self.total(l).calls > 0)
            .map(|l| {
                obj([
                    ("layer", Value::Str(l.name().to_string())),
                    ("parent", parent_json(l)),
                    ("calls", Value::UInt(self.total(l).calls)),
                    ("per_call_us", Value::Float(self.per_call_us(l))),
                    ("per_op_us", Value::Float(self.per_op_us(l))),
                    ("self_us", Value::Float(self.self_us(l))),
                ])
            })
            .collect();
        Value::Array(rows)
    }
}

fn parent_json(layer: Layer) -> Value {
    layer
        .parent()
        .map_or(Value::Null, |p| Value::Str(p.name().to_string()))
}

/// Spans as JSON rows `{op_id, layer, start_ns, end_ns, parent}`.
pub fn spans_to_json(spans: &[Span]) -> Value {
    let rows = spans
        .iter()
        .map(|s| {
            obj([
                ("op_id", Value::UInt(u64::from(s.op_id))),
                ("layer", Value::Str(s.layer.name().to_string())),
                ("start_ns", Value::UInt(s.start_ns)),
                ("end_ns", Value::UInt(s.end_ns)),
                ("parent", parent_json(s.layer)),
            ])
        })
        .collect();
    Value::Array(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op_id: u32, layer: Layer, start_us: u64, len_us: u64) -> Span {
        Span {
            op_id,
            layer,
            start_ns: start_us * 1_000,
            end_ns: (start_us + len_us) * 1_000,
        }
    }

    /// Two client puts, two dispatched puts, two server puts with their
    /// replays; four server gets of which one
    /// missed the read buffer.
    fn synthetic() -> Vec<Span> {
        let mut spans = vec![
            span(1, ClientPut, 0, 100),
            span(1, CodecPut, 100, 8),
            span(2, ClientPut, 200, 120),
            span(2, CodecPut, 320, 12),
            span(3, ServicePut, 400, 58),
            span(4, ServicePut, 500, 62),
        ];
        for (op, at) in [(5, 600), (6, 700)] {
            spans.extend([
                span(op, ServerPut, at, 50),
                span(op, Oracle, at + 50, 1),
                span(op, WalAppend, at + 51, 30),
                span(op, DfsAppend, at + 81, 20),
                span(op, IndexInsert, at + 101, 4),
            ]);
        }
        for op in 7..=10u32 {
            let at = u64::from(op) * 100;
            spans.extend([
                span(op, ServerGet, at, 10),
                span(op, IndexLookup, at + 10, 2),
                span(op, ReadBufferGet, at + 12, 1),
            ]);
        }
        spans.extend([
            span(10, WalReadEntry, 1_013, 20),
            span(10, DfsRead, 1_033, 12),
        ]);
        spans
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let b = Budget::from_spans(&synthetic());
        assert_eq!(b.per_op_us(ClientPut), 110.0);
        assert_eq!(b.per_op_us(CodecPut), 10.0);
        assert_eq!(b.per_op_us(ServicePut), 60.0);
        // client 110 = codec 10 + service 60 + wire 40
        assert_eq!(b.self_us(ClientPut), 40.0);
        // service 60 = server 50 + 10
        assert_eq!(b.self_us(ServicePut), 10.0);
        // server 50 = oracle 1 + wal 30 + index 4 + 15
        assert_eq!(b.self_us(ServerPut), 15.0);
        // wal 30 = dfs 20 + 10
        assert_eq!(b.self_us(WalAppend), 10.0);
        assert_eq!(b.self_us(DfsAppend), 20.0);
        // The parts of the put tree sum back to the client span.
        let parts: f64 = [
            ClientPut,
            CodecPut,
            ServicePut,
            ServerPut,
            Oracle,
            WalAppend,
            DfsAppend,
            IndexInsert,
        ]
        .into_iter()
        .map(|l| b.self_us(l))
        .sum();
        assert_eq!(parts, b.per_op_us(ClientPut));
        assert!(b.overdrawn().is_empty());
    }

    #[test]
    fn a_child_called_on_some_operations_is_charged_per_operation() {
        let b = Budget::from_spans(&synthetic());
        assert_eq!(b.per_call_us(WalReadEntry), 20.0);
        // One miss in four gets: 20 us per call is 5 us per get.
        assert_eq!(b.per_op_us(WalReadEntry), 5.0);
        assert_eq!(b.per_op_us(DfsRead), 3.0);
        assert_eq!(b.self_us(WalReadEntry), 2.0);
        // get 10 = lookup 2 + buffer 1 + read_entry 5 + 2
        assert_eq!(b.self_us(ServerGet), 2.0);
    }

    #[test]
    fn put_and_get_self_times_are_weighted_by_operations() {
        let mut spans = synthetic();
        spans.extend([
            span(11, ClientGet, 2_000, 30),
            span(12, ServiceGet, 2_100, 12),
        ]);
        let b = Budget::from_spans(&spans);
        // Client put self 40 over 2 ops, client get self 30 - 12 = 18 over 1.
        let want = (40.0 * 2.0 + 18.0) / 3.0;
        assert!((b.self_us_put_get(ClientPut, ClientGet) - want).abs() < 1e-9);
    }

    #[test]
    fn children_costing_more_than_their_parent_are_reported() {
        let spans = vec![span(1, ServicePut, 0, 10), span(2, ServerPut, 20, 12)];
        let b = Budget::from_spans(&spans);
        assert_eq!(b.self_us(ServicePut), -2.0);
        assert_eq!(b.overdrawn().len(), 1);
        // Within a tenth is tolerated: entry points differ by noise.
        let spans = vec![span(1, ServicePut, 0, 100), span(2, ServerPut, 200, 105)];
        assert!(Budget::from_spans(&spans).overdrawn().is_empty());
    }

    #[test]
    fn every_layer_reaches_a_client_span_through_its_entry_point() {
        for l in Layer::ALL {
            let mut at = l;
            let mut passed_entry = at == l.entry();
            while let Some(p) = at.parent() {
                at = p;
                passed_entry |= at == l.entry();
            }
            assert!(passed_entry, "{}", l.name());
            assert!(matches!(at, ClientPut | ClientGet | ClientTxn | ClientScan));
            assert_eq!(Layer::ALL[l as usize], l);
        }
    }

    #[test]
    fn the_tracer_stamps_spans_with_the_current_operation() {
        let t = Tracer::default();
        t.next_op();
        assert_eq!(t.span(Oracle, || 7), 7);
        t.next_op();
        t.span(IndexInsert, || ());
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].op_id, spans[0].layer), (1, Oracle));
        assert_eq!((spans[1].op_id, spans[1].layer), (2, IndexInsert));
        assert!(spans[0].end_ns >= spans[0].start_ns && spans[1].start_ns >= spans[0].end_ns);
    }
}
