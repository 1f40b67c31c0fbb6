//! Multi-node cluster simulation (paper §3.3, §3.8, §4).
//!
//! The paper's testbed runs one tablet-server process and one DFS data
//! node per machine, with one benchmark client per node. Here a
//! [`Cluster`] hosts `n` storage-engine instances (LogBase, the
//! HBase-model baseline, or LRS) over one shared simulated DFS whose
//! data-node count equals the cluster size; a range [`Router`] plays the
//! master's tablet-assignment role, and clients are benchmark threads.
//!
//! Data enters and leaves a cluster one way: through a [`Client`] over a
//! [`Transport`] ([`Cluster::client`], [`Cluster::client_with`]), which
//! learns tablet locations, caches them and talks to the members (§3.3).
//! `Cluster` itself is the operator's surface — bring-up, fault and
//! lease controls, elastic reshaping, and the bulk-load helpers.
//!
//! Every member holds a **session lease** in the coordination registry
//! (the paper's Zookeeper role). Leases are driven by a logical clock:
//! [`Cluster::heartbeat_all`] renews live members, [`Cluster::tick`]
//! advances the clock, and a member missing its TTL is declared dead.
//! For LogBase clusters a [`master`] component then runs the §3.8
//! takeover recipe — seal the dead server's log, split it among
//! survivors by key range, rebuild, and swap the routing table — with
//! no manual intervention. Deterministic tests drive the clock
//! explicitly; [`Cluster::enable_wallclock_failover`] runs the same
//! loop on a background thread for wall-clock operation.

mod master;
pub mod net;
mod router;
pub mod service;
pub mod tpcw;
pub mod transport;

pub use master::FailoverReport;
pub use net::{
    AdaptiveConfig, AdmissionController, AdmissionMode, NetServer, NetServerConfig, TcpTransport,
};
pub use router::{Route, Router};
pub use service::ClusterService;
pub use transport::{
    Client, ClientConfig, ClientEndpoint, InProcessTransport, RetryBudgetConfig, Transport,
};

/// Crash-point sites in the master's failover takeover path, in program
/// order. The takeover is idempotent across a crash at any of them: the
/// victim stays queued and a retry adopts tablets assigned by the
/// interrupted attempt instead of duplicating them.
pub const FAILOVER_CRASH_SITES: &[&str] = &[
    "failover.after_seal",
    "failover.mid_ingest",
    "failover.before_install",
];

use logbase::server::LogBaseEngine;
use logbase::{ServerConfig, TabletServer};
use logbase_common::engine::StorageEngine;
use logbase_common::metrics::MetricsHandle;
use logbase_common::schema::{split_uniform, KeyRange, TableSchema, TabletDesc, TabletId};
use logbase_common::{Error, Result, RowKey, Timestamp, Value};
use logbase_coordination::{LockService, MemberId, MemberState, Registry, Tick, TimestampOracle};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_hbase_model::{HBaseConfig, HBaseEngine};
use logbase_lrs::{LrsConfig, LrsEngine};
use master::Master;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Which engine the cluster members run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// LogBase tablet servers.
    LogBase,
    /// WAL+Data baseline.
    HBase,
    /// Log-structured record store baseline.
    Lrs,
}

impl EngineKind {
    /// Engine label for reports.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::LogBase => "logbase",
            EngineKind::HBase => "hbase-model",
            EngineKind::Lrs => "lrs",
        }
    }
}

/// Cluster construction knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Member count (each member is one engine + one DFS data node).
    pub nodes: usize,
    /// DFS replication factor.
    pub replication: usize,
    /// Key domain routed over (keys are 8-byte big-endian integers).
    pub key_domain: u64,
    /// Engine kind.
    pub engine: EngineKind,
    /// Log/WAL segment size for every member.
    pub segment_bytes: u64,
    /// HBase memtable flush threshold (ignored by other engines).
    pub hbase_flush_bytes: u64,
    /// The benchmark table name.
    pub table: String,
    /// Master seed for the DFS fault injector (0 keeps it dormant until
    /// a test arms per-node specs through [`Dfs::fault_injector`]).
    pub dfs_fault_seed: u64,
    /// Session-lease TTL in logical-clock ticks: a member missing this
    /// many ticks without a heartbeat is declared dead.
    pub lease_ttl_ticks: Tick,
}

impl ClusterConfig {
    /// Paper-shaped defaults for `nodes` members running `engine`.
    pub fn new(nodes: usize, engine: EngineKind) -> Self {
        ClusterConfig {
            nodes,
            replication: 3.min(nodes.max(1)),
            key_domain: logbase_common::config::YCSB_MAX_KEY,
            engine,
            segment_bytes: 4 * 1024 * 1024,
            hbase_flush_bytes: 4 * 1024 * 1024,
            table: "usertable".to_string(),
            dfs_fault_seed: 0,
            lease_ttl_ticks: 3,
        }
    }

    /// Builder-style fault-injection seed.
    #[must_use]
    pub fn with_dfs_fault_seed(mut self, seed: u64) -> Self {
        self.dfs_fault_seed = seed;
        self
    }
}

/// One member's seat in the cluster: the engine handles plus its
/// registry session. A dead member keeps its seat (name, index) but
/// loses its handles and session until revived.
pub(crate) struct MemberSlot {
    pub(crate) name: String,
    pub(crate) session: Option<MemberId>,
    pub(crate) engine: Option<Arc<dyn StorageEngine>>,
    pub(crate) server: Option<Arc<TabletServer>>,
    pub(crate) heartbeating: bool,
    pub(crate) incarnation: u32,
}

pub(crate) type MemberSlots = Arc<RwLock<Vec<MemberSlot>>>;

/// Where [`Cluster::stand_up`] gets a member's state from.
enum Boot {
    /// A brand-new member serving these tablets (LogBase; none means it
    /// waits for the master to assign it some).
    Fresh(Vec<TabletDesc>),
    /// Rebuild from the member's checkpoint and log on the shared DFS.
    Recover,
}

/// A master candidate's registry session.
struct MasterSeat {
    id: MemberId,
    heartbeating: bool,
}

/// A simulated cluster of storage engines behind a range router.
pub struct Cluster {
    config: ClusterConfig,
    dfs: Dfs,
    slots: MemberSlots,
    router: Arc<Router>,
    registry: Registry,
    oracle: TimestampOracle,
    locks: LockService,
    masters: Arc<Mutex<Vec<MasterSeat>>>,
    master: Option<Arc<Master>>,
    wallclock: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
    service: Arc<ClusterService>,
    net: Mutex<Option<Arc<NetServer>>>,
    client: OnceLock<Arc<Client>>,
}

impl Cluster {
    /// Bring up a cluster over a fresh in-memory DFS.
    pub fn create(config: ClusterConfig) -> Result<Self> {
        let dfs = Dfs::new(
            DfsConfig::in_memory(config.nodes.max(config.replication), config.replication)
                .with_fault_seed(config.dfs_fault_seed),
        );
        Self::create_on(config, dfs)
    }

    /// Bring up a cluster over an existing DFS (disk-backed benches).
    pub fn create_on(config: ClusterConfig, dfs: Dfs) -> Result<Self> {
        let registry = Registry::new();
        registry.set_metrics(Arc::clone(dfs.metrics()));
        let oracle = TimestampOracle::new();
        let locks = LockService::new();
        let router = Arc::new(Router::new(config.nodes as u32, config.key_domain));

        // Two master candidates, both lease-holding: the active master
        // is the lowest-id live candidate, so pausing it demotes it
        // automatically once its lease lapses.
        let mut seats = Vec::new();
        for m in 0..2 {
            let (id, _token) = registry.register_session(
                format!("master-{m}"),
                MemberState::MasterCandidate,
                config.lease_ttl_ticks,
            );
            seats.push(MasterSeat {
                id,
                heartbeating: true,
            });
        }
        let masters = Arc::new(Mutex::new(seats));

        let slots: MemberSlots = Arc::new(RwLock::new(Vec::with_capacity(config.nodes)));

        // LogBase clusters get the failover master; its expiry watcher
        // opens the ownership gap the moment a session dies.
        let master = (config.engine == EngineKind::LogBase).then(|| {
            let m = Master::new(
                dfs.clone(),
                registry.clone(),
                Arc::clone(&router),
                Arc::clone(&slots),
                config.table.clone(),
            );
            m.install_watcher();
            m
        });

        let service = Arc::new(ClusterService::new(
            Arc::clone(&slots),
            Arc::clone(&router),
            Arc::clone(dfs.metrics()),
        ));

        let cluster = Cluster {
            config,
            dfs,
            slots,
            router,
            registry,
            oracle,
            locks,
            masters,
            master,
            wallclock: None,
            service,
            net: Mutex::new(None),
            client: OnceLock::new(),
        };
        // Master role: each member is assigned its key-range tablet.
        let nodes = cluster.config.nodes as u32;
        let descs = split_uniform(&cluster.config.table, nodes, cluster.config.key_domain);
        for (i, desc) in descs.into_iter().enumerate() {
            let slot = cluster.stand_up(format!("srv-{i}"), Boot::Fresh(vec![desc]))?;
            cluster.slots.write().push(slot);
        }
        Ok(cluster)
    }

    /// Stand one member up: build (or recover) its engine, register its
    /// session lease, arm fencing with the lease's token, and return the
    /// filled seat. The one place a member comes into being — initial
    /// bring-up, revival, scale-out and planned restart all go through it.
    fn stand_up(&self, name: String, boot: Boot) -> Result<MemberSlot> {
        let config = &self.config;
        let (engine, server): (Arc<dyn StorageEngine>, _) = match config.engine {
            EngineKind::LogBase => {
                let server_config =
                    ServerConfig::new(&name).with_segment_bytes(config.segment_bytes);
                let (dfs, oracle, locks) =
                    (self.dfs.clone(), self.oracle.clone(), self.locks.clone());
                let server = match boot {
                    Boot::Fresh(tablets) => {
                        let server = TabletServer::create_with(dfs, server_config, oracle, locks)?;
                        server.register_table(TableSchema::single_group(&config.table, &["v"]))?;
                        for desc in tablets {
                            server.assign_tablet(desc)?;
                        }
                        server
                    }
                    Boot::Recover => TabletServer::open_with(dfs, server_config, oracle, locks)?,
                };
                let engine = LogBaseEngine::new(Arc::clone(&server), &config.table);
                (Arc::new(engine), Some(server))
            }
            EngineKind::HBase => {
                let hbase_config =
                    HBaseConfig::new(&name).with_flush_bytes(config.hbase_flush_bytes);
                let engine =
                    HBaseEngine::create_with(self.dfs.clone(), hbase_config, self.oracle.clone())?;
                (engine, None)
            }
            EngineKind::Lrs => {
                let mut lrs_config = LrsConfig::new(&name);
                lrs_config.segment_bytes = config.segment_bytes;
                let engine =
                    LrsEngine::create_with(self.dfs.clone(), lrs_config, self.oracle.clone())?;
                (engine, None)
            }
        };
        let (session, token) = self.registry.register_session(
            &name,
            MemberState::TabletServer,
            config.lease_ttl_ticks,
        );
        if let Some(server) = &server {
            server.set_fencing(token);
        }
        Ok(MemberSlot {
            name,
            session: Some(session),
            engine: Some(engine),
            server,
            heartbeating: true,
            incarnation: 0,
        })
    }

    /// Member count (seats, including dead members awaiting revival).
    pub fn nodes(&self) -> usize {
        self.slots.read().len()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Shared metrics sink (the DFS's).
    pub fn metrics(&self) -> &MetricsHandle {
        self.dfs.metrics()
    }

    /// The shared DFS.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The membership registry (master election + lease state).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of the routing table.
    pub fn routes(&self) -> Vec<Route> {
        self.router.snapshot()
    }

    /// Registry session of member `i`, if it currently holds one.
    pub fn session_of(&self, i: usize) -> Option<MemberId> {
        self.slots.read().get(i).and_then(|s| s.session)
    }

    /// LogBase tablet server of member `i` (LogBase clusters only,
    /// `None` for other engines or a dead member).
    pub fn logbase_server(&self, i: usize) -> Option<Arc<TabletServer>> {
        self.slots.read().get(i).and_then(|s| s.server.clone())
    }

    /// The shared RPC dispatcher (one per cluster, used by every
    /// transport).
    pub fn service(&self) -> &Arc<ClusterService> {
        &self.service
    }

    /// Start (or return the already-running) TCP listeners for every
    /// member seat. Listeners survive [`Cluster::kill_server`] — the
    /// *process* answering the port stays up and sheds requests with
    /// retriable errors, which is exactly what a stale client should
    /// see during failover.
    pub fn start_net(&self, config: NetServerConfig) -> Result<Arc<NetServer>> {
        let mut net = self.net.lock();
        if let Some(existing) = &*net {
            return Ok(Arc::clone(existing));
        }
        let server = NetServer::start(
            Arc::clone(&self.service),
            Arc::clone(self.dfs.fault_injector()),
            self.nodes(),
            config,
        )?;
        *net = Some(Arc::clone(&server));
        Ok(server)
    }

    /// The cluster-owned [`Client`], built on first use. The transport
    /// is chosen by the `LOGBASE_TRANSPORT` environment variable:
    /// `tcp` routes every request through real sockets against
    /// [`Cluster::start_net`] listeners; anything else (or unset) uses
    /// the zero-cost in-process transport. Both run the same retry,
    /// deadline, and routing-cache machinery.
    pub fn client(&self) -> Arc<Client> {
        Arc::clone(self.client.get_or_init(|| {
            let use_tcp = std::env::var("LOGBASE_TRANSPORT")
                .map(|v| v.eq_ignore_ascii_case("tcp"))
                .unwrap_or(false);
            let transport: Arc<dyn Transport> = if use_tcp {
                let server = self
                    .start_net(NetServerConfig::default())
                    .expect("bind loopback TCP listeners");
                Arc::new(TcpTransport::for_server(&server))
            } else {
                Arc::new(InProcessTransport::new(Arc::clone(&self.service)))
            };
            Arc::new(self.client_with(transport, ClientConfig::default()))
        }))
    }

    /// A client over an explicit transport (tests pin "tcp" vs
    /// "inproc" independent of the environment).
    pub fn client_with(&self, transport: Arc<dyn Transport>, config: ClientConfig) -> Client {
        Client::new(
            transport,
            self.config.table.clone(),
            Arc::clone(self.dfs.metrics()),
            config,
        )
    }

    // ---- lease / failover controls -------------------------------------

    /// Renew the lease of every member still heartbeating (the per-node
    /// heartbeat threads of a real deployment, collapsed into one call
    /// for deterministic tests).
    pub fn heartbeat_all(&self) {
        heartbeat_members(&self.registry, &self.slots, &self.masters);
    }

    /// Advance the lease clock, expiring sessions that missed their
    /// TTL. Returns the number of expiries. Call
    /// [`Cluster::heartbeat_all`] between single ticks to keep live
    /// members alive.
    pub fn tick(&self, ticks: Tick) -> usize {
        self.registry.tick(ticks).len()
    }

    /// Run any queued failovers (LogBase clusters; a no-op while no
    /// master candidate holds a live lease). Returns a report per
    /// completed takeover.
    pub fn run_failover(&self) -> Result<Vec<FailoverReport>> {
        match &self.master {
            Some(m) => m.run_pending(),
            None => Ok(Vec::new()),
        }
    }

    /// Failovers waiting on an active master.
    pub fn pending_failovers(&self) -> usize {
        self.master.as_ref().map_or(0, |m| m.pending_len())
    }

    /// Kill member `i`: the process dies, dropping its in-memory state
    /// and its heartbeats. Its lease expires after the TTL and the
    /// master reassigns its tablets — no manual recovery call.
    pub fn kill_server(&self, i: usize) {
        let mut slots = self.slots.write();
        let slot = &mut slots[i];
        slot.heartbeating = false;
        slot.engine = None;
        slot.server = None;
    }

    /// Pause member `i` (network partition / GC stall): the process
    /// stays alive — the returned handle is the zombie's own view of
    /// itself — but stops heartbeating, so its lease expires and its
    /// tablets move. Fencing makes the zombie's later writes fail.
    pub fn pause_server(&self, i: usize) -> Option<Arc<TabletServer>> {
        let mut slots = self.slots.write();
        let slot = &mut slots[i];
        slot.heartbeating = false;
        slot.server.clone()
    }

    /// Revive member `i` after a kill or pause: it re-registers with a
    /// fresh session (and a strictly higher fencing epoch, so every
    /// token from its previous life stays dead) and rejoins empty,
    /// serving no tablets until the master assigns it some. LogBase
    /// clusters only.
    pub fn resume_server(&self, i: usize) -> Result<()> {
        assert_eq!(
            self.config.engine,
            EngineKind::LogBase,
            "resume_server requires a LogBase cluster"
        );
        // Retire the old session explicitly: if the lease has not yet
        // expired this prevents a later spurious expiry event, and if
        // it has, this is a no-op.
        let (old_session, incarnation) = {
            let mut slots = self.slots.write();
            (slots[i].session.take(), slots[i].incarnation + 1)
        };
        if let Some(old) = old_session {
            self.registry.mark_dead(old);
        }
        let revived = self.stand_up(format!("srv-{i}-r{incarnation}"), Boot::Fresh(Vec::new()))?;
        self.slots.write()[i] = MemberSlot {
            incarnation,
            ..revived
        };
        Ok(())
    }

    /// Stop the active master's heartbeats (its lease will lapse and
    /// the standby candidate takes over).
    pub fn pause_master(&self, idx: usize) {
        self.masters.lock()[idx].heartbeating = false;
    }

    /// Restart a master candidate's heartbeats, renewing its lease.
    pub fn resume_master(&self, idx: usize) {
        let mut seats = self.masters.lock();
        seats[idx].heartbeating = true;
        self.registry.mark_alive(seats[idx].id);
    }

    /// Drive heartbeats, the lease clock, and failover from a
    /// background thread: one logical tick per `interval`, so the lease
    /// TTL is `lease_ttl_ticks × interval` of wall-clock silence.
    /// Deterministic tests should drive [`Cluster::tick`] directly
    /// instead.
    pub fn enable_wallclock_failover(&mut self, interval: Duration) {
        if self.wallclock.is_some() {
            return;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let registry = self.registry.clone();
        let slots = Arc::clone(&self.slots);
        let masters = Arc::clone(&self.masters);
        let master = self.master.clone();
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                heartbeat_members(&registry, &slots, &masters);
                registry.tick(1);
                if let Some(m) = &master {
                    // Failed takeovers stay queued; retried next tick.
                    let _ = m.run_pending();
                }
                std::thread::sleep(interval);
            }
        });
        self.wallclock = Some((stop, handle));
    }

    // ---- bulk / benchmark helpers --------------------------------------

    /// Parallel bulk load (the YCSB load phase): one loader thread per
    /// member inserts that member's keys. Returns the wall-clock time.
    pub fn parallel_load(
        &self,
        cg: u16,
        keys_per_node: &[Vec<RowKey>],
        value_bytes: usize,
    ) -> Result<Duration> {
        assert_eq!(keys_per_node.len(), self.nodes());
        let engines: Vec<Arc<dyn StorageEngine>> = self
            .slots
            .read()
            .iter()
            .map(|s| {
                s.engine
                    .clone()
                    .expect("parallel_load needs all members up")
            })
            .collect();
        let start = Instant::now();
        std::thread::scope(|s| -> Result<()> {
            let mut handles = Vec::new();
            for (i, keys) in keys_per_node.iter().enumerate() {
                let engine = Arc::clone(&engines[i]);
                handles.push(s.spawn(move || -> Result<()> {
                    let value = Value::from(vec![0x5au8; value_bytes]);
                    for key in keys {
                        engine.put(cg, key.clone(), value.clone())?;
                    }
                    Ok(())
                }));
            }
            for h in handles {
                h.join().expect("loader thread panicked")?;
            }
            Ok(())
        })?;
        Ok(start.elapsed())
    }

    /// Partition arbitrary keys into per-node batches by routing.
    pub fn partition_keys(&self, keys: impl IntoIterator<Item = RowKey>) -> Vec<Vec<RowKey>> {
        let mut out = vec![Vec::new(); self.nodes()];
        for key in keys {
            out[self.router.route(&key) as usize].push(key);
        }
        out
    }

    /// Flush/checkpoint every live member (between benchmark phases).
    pub fn sync_all(&self) -> Result<()> {
        let engines: Vec<Arc<dyn StorageEngine>> = self
            .slots
            .read()
            .iter()
            .filter_map(|s| s.engine.clone())
            .collect();
        for e in engines {
            e.sync()?;
        }
        Ok(())
    }

    /// Elastic scale-out (the paper's dynamic-scalability desideratum):
    /// add a LogBase member, split the widest member's key range at its
    /// midpoint, migrate the upper half's records to the newcomer (they
    /// are re-appended to its own log with their original timestamps),
    /// and update the routing table. Returns the new member's index.
    pub fn scale_out_logbase(&mut self) -> Result<usize> {
        assert_eq!(
            self.config.engine,
            EngineKind::LogBase,
            "scale_out_logbase requires a LogBase cluster"
        );
        // `NetServer::start` binds a fixed member set once: a seat added
        // afterwards would have no listener and an empty advertised
        // address, and TCP clients learning its route would retry into
        // nothing until their deadline.
        if self.net.lock().is_some() {
            return Err(Error::InvalidArgument(
                "scale_out_logbase: TCP listeners are already running and NetServer cannot \
                 grow its member set; scale out before start_net"
                    .into(),
            ));
        }
        let new_id = self.nodes() as u32;
        // Donor: the member owning the widest range.
        let donor = {
            let snap = self.router.snapshot();
            let widest = snap
                .iter()
                .max_by_key(|r| {
                    let start = u64::from_be_bytes({
                        let mut b = [0u8; 8];
                        let n = r.range.start.len().min(8);
                        b[..n].copy_from_slice(&r.range.start[..n]);
                        b
                    });
                    let end = r.range.end.as_ref().map_or(self.config.key_domain, |e| {
                        let mut b = [0u8; 8];
                        let n = e.len().min(8);
                        b[..n].copy_from_slice(&e[..n]);
                        u64::from_be_bytes(b)
                    });
                    end.saturating_sub(start)
                })
                .expect("router is never empty");
            widest.member
        };
        let (mid, upper) = self
            .router
            .split_member(donor, new_id, self.config.key_domain)?;

        // Bring up the newcomer with the upper half assigned.
        let newcomer = self.stand_up(
            format!("srv-{new_id}"),
            Boot::Fresh(vec![TabletDesc {
                id: TabletId {
                    table: self.config.table.clone(),
                    range_index: new_id,
                },
                range: upper.clone(),
            }]),
        )?;
        let server = newcomer.server.as_ref().expect("LogBase member");

        // Migrate the upper half's records, preserving timestamps.
        let donor_server = self
            .logbase_server(donor as usize)
            .expect("scale-out donor is alive");
        let moved = donor_server.range_scan_at(
            &self.config.table,
            0,
            &upper,
            Timestamp::MAX,
            usize::MAX,
        )?;
        for (key, ts, value) in moved {
            server.ingest_record(&self.config.table, 0, key, ts, value)?;
        }

        // Shrink the donor's tablet and prune its indexes.
        let donor_tablet = donor_server
            .table_names()
            .iter()
            .find(|t| *t == &self.config.table)
            .and_then(|_| {
                // Each member serves exactly one tablet of the table.
                donor_server
                    .tablet_descs(&self.config.table)
                    .into_iter()
                    .find(|d| {
                        d.range.contains(&mid)
                            || d.range.end.as_deref() == Some(&mid[..])
                            || d.range.contains(&upper.start)
                    })
            });
        let donor_desc = donor_tablet.ok_or_else(|| {
            logbase_common::Error::TabletNotServed(format!(
                "donor member {donor} serves no tablet containing the split point"
            ))
        })?;
        let lower = KeyRange {
            start: donor_desc.range.start.clone(),
            end: Some(mid),
        };
        donor_server.resize_tablet(&self.config.table, donor_desc.id.range_index, lower)?;

        self.slots.write().push(newcomer);
        Ok(new_id as usize)
    }

    /// Elastic scale-in: drain LogBase member `victim` by merging its
    /// range into its left neighbour and migrating its records there.
    /// The drained member stays in the member list but serves no keys.
    /// Returns the heir member's index.
    pub fn scale_in_logbase(&mut self, victim: usize) -> Result<usize> {
        assert_eq!(
            self.config.engine,
            EngineKind::LogBase,
            "scale_in_logbase requires a LogBase cluster"
        );
        let (heir, absorbed) = self.router.merge_into_left_neighbour(victim as u32)?;
        let victim_server = self
            .logbase_server(victim)
            .expect("scale-in victim is alive");
        let heir_server = self
            .logbase_server(heir as usize)
            .expect("scale-in heir is alive");

        // Victim hands its tablet off.
        let victim_desc = victim_server
            .tablet_descs(&self.config.table)
            .into_iter()
            .find(|d| d.range.start == absorbed.start)
            .ok_or_else(|| {
                logbase_common::Error::TabletNotServed(format!(
                    "member {victim} serves no tablet starting at the absorbed range"
                ))
            })?;
        let (_, contents) =
            victim_server.release_tablet(&self.config.table, victim_desc.id.range_index)?;

        // Heir widens its tablet to cover the absorbed range...
        let heir_desc = heir_server
            .tablet_descs(&self.config.table)
            .into_iter()
            .find(|d| d.range.end.as_deref() == Some(&absorbed.start[..]))
            .ok_or_else(|| {
                logbase_common::Error::TabletNotServed(format!(
                    "heir member {heir} serves no tablet adjacent to the absorbed range"
                ))
            })?;
        let merged = KeyRange {
            start: heir_desc.range.start.clone(),
            end: absorbed.end.clone(),
        };
        heir_server.resize_tablet(&self.config.table, heir_desc.id.range_index, merged)?;
        // ...and ingests the records.
        for (cg, items) in contents {
            for (key, ts, value) in items {
                heir_server.ingest_record(&self.config.table, cg, key, ts, value)?;
            }
        }
        Ok(heir as usize)
    }

    /// Simulate a *planned* restart of LogBase member `i`: the member's
    /// in-memory state is dropped and rebuilt from the shared DFS
    /// (checkpoint + log redo, §3.8) under the same name and a fresh
    /// session. Returns the recovery wall-clock time. For unplanned
    /// death, use [`Cluster::kill_server`] and let the lease machinery
    /// take over. Panics if the cluster does not run LogBase.
    pub fn crash_and_recover_logbase(&mut self, i: usize) -> Result<Duration> {
        assert_eq!(
            self.config.engine,
            EngineKind::LogBase,
            "crash_and_recover_logbase requires a LogBase cluster"
        );
        let (name, old_session, incarnation) = {
            let mut slots = self.slots.write();
            let slot = &mut slots[i];
            // Drop the in-memory state (the crash).
            slot.engine = None;
            slot.server = None;
            (slot.name.clone(), slot.session.take(), slot.incarnation)
        };
        // Planned: retire the old session without firing failover.
        if let Some(old) = old_session {
            self.registry.mark_dead(old);
        }
        let start = Instant::now();
        let recovered = self.stand_up(name, Boot::Recover)?;
        let elapsed = start.elapsed();
        self.slots.write()[i] = MemberSlot {
            incarnation,
            ..recovered
        };
        Ok(elapsed)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.wallclock.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

/// Renew the lease of every member still heartbeating (shared between
/// [`Cluster::heartbeat_all`] and the wall-clock driver thread).
fn heartbeat_members(registry: &Registry, slots: &MemberSlots, masters: &Mutex<Vec<MasterSeat>>) {
    for seat in masters.lock().iter() {
        if seat.heartbeating {
            let _ = registry.heartbeat(seat.id);
        }
    }
    for slot in slots.read().iter() {
        if slot.heartbeating {
            if let Some(id) = slot.session {
                let _ = registry.heartbeat(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u64) -> RowKey {
        logbase_workload::encode_key(k)
    }

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    /// One client per transport over the same cluster.
    fn both_transports(c: &Cluster) -> [Client; 2] {
        let net = c.start_net(NetServerConfig::default()).unwrap();
        let inproc = Arc::new(InProcessTransport::new(Arc::clone(c.service())));
        let tcp = Arc::new(TcpTransport::for_server(&net));
        [
            c.client_with(inproc, ClientConfig::default()),
            c.client_with(tcp, ClientConfig::default()),
        ]
    }

    /// `engine` serves the whole client surface, and the two transports
    /// cannot be told apart by what they return.
    fn check_client_ops_over_both_transports(engine: EngineKind) {
        let c = Cluster::create(ClusterConfig::new(3, engine)).unwrap();
        let stride = c.config().key_domain / 300;
        let parts = c.partition_keys((0..300u64).map(|i| key(i * stride)));
        c.parallel_load(0, &parts, 64).unwrap();
        let clients = both_transports(&c);

        // Each client versions a fresh key and deletes a loaded one.
        let mut first_versions = Vec::new();
        for (n, client) in clients.iter().enumerate() {
            let fresh = key(n as u64 * 100 * stride + 1);
            let t1 = client.put(0, fresh.clone(), val("v1")).unwrap();
            let t2 = client.put(0, fresh.clone(), val("v2")).unwrap();
            assert!(t2 > t1, "{}: commit order", engine.name());
            client.delete(0, &key(n as u64 * 100 * stride)).unwrap();
            first_versions.push((fresh, t1));
        }

        let mid = KeyRange::new(key(90 * stride), key(210 * stride));
        let observe = |client: &Client| {
            let mut gets = Vec::new();
            for (n, (fresh, t1)) in first_versions.iter().enumerate() {
                gets.push(client.get(0, fresh).unwrap());
                gets.push(client.get_at(0, fresh, *t1).unwrap());
                gets.push(client.get(0, &key(n as u64 * 100 * stride)).unwrap());
            }
            let all = client.range_scan(0, &KeyRange::all(), usize::MAX).unwrap();
            let some = client.range_scan(0, &KeyRange::all(), 50).unwrap();
            let slice = client.range_scan(0, &mid, usize::MAX).unwrap();
            (gets, all, some, slice)
        };
        let (gets, all, some, slice) = observe(&clients[0]);
        assert_eq!(
            gets,
            vec![[Some(val("v2")), Some(val("v1")), None]; 2].concat(),
            "{}",
            engine.name()
        );
        // 300 loaded + 2 fresh - 2 deleted, in key order.
        assert_eq!(all.len(), 300, "{}", engine.name());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(some, all[..50]);
        // [90, 210) spans all three members; key 100 was deleted and
        // the second client's fresh key (100 * stride + 1) is inside.
        assert_eq!(slice.len(), 120, "{}", engine.name());
        assert!(slice.iter().all(|(k, _, _)| mid.contains(k)));
        assert_eq!(
            observe(&clients[1]),
            (gets, all, some, slice),
            "{}: tcp diverged from in-process",
            engine.name()
        );
    }

    #[test]
    fn logbase_serves_every_client_op_identically_over_both_transports() {
        check_client_ops_over_both_transports(EngineKind::LogBase);
    }

    #[test]
    fn hbase_serves_every_client_op_identically_over_both_transports() {
        check_client_ops_over_both_transports(EngineKind::HBase);
    }

    #[test]
    fn lrs_serves_every_client_op_identically_over_both_transports() {
        check_client_ops_over_both_transports(EngineKind::Lrs);
    }

    #[test]
    fn scale_out_under_live_listeners_fails_fast_and_changes_nothing() {
        let mut c = Cluster::create(ClusterConfig::new(2, EngineKind::LogBase)).unwrap();
        c.start_net(NetServerConfig::default()).unwrap();
        let before = c.service().routes();
        let err = c.scale_out_logbase().unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "got {err}");
        assert!(!err.is_retriable());
        assert_eq!(c.nodes(), 2);
        assert_eq!(c.service().routes(), before);
    }

    #[test]
    fn keys_are_spread_over_members() {
        let c = Cluster::create(ClusterConfig::new(4, EngineKind::LogBase)).unwrap();
        let keys: Vec<RowKey> = (0..1000u64)
            .map(|i| key(i * (c.config().key_domain / 1000)))
            .collect();
        let parts = c.partition_keys(keys);
        assert_eq!(parts.len(), 4);
        for (i, p) in parts.iter().enumerate() {
            assert!(
                p.len() > 150,
                "member {i} received only {} of 1000 keys",
                p.len()
            );
        }
    }

    #[test]
    fn logbase_member_crash_recovery() {
        let mut c = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap();
        let domain = c.config().key_domain;
        let client = c.client();
        for i in 0..90u64 {
            client.put(0, key(i * (domain / 90)), val("v")).unwrap();
        }
        // Checkpoint member 1 so its recovery is fast, then crash it.
        c.logbase_server(1).unwrap().checkpoint().unwrap();
        let took = c.crash_and_recover_logbase(1).unwrap();
        assert!(took < Duration::from_secs(10));
        for i in 0..90u64 {
            assert_eq!(
                client.get(0, &key(i * (domain / 90))).unwrap(),
                Some(val("v"))
            );
        }
    }

    #[test]
    fn master_failover_in_registry() {
        let c = Cluster::create(ClusterConfig::new(2, EngineKind::LogBase)).unwrap();
        let (master_id, name) = c.registry().active_master().unwrap();
        assert_eq!(name, "master-0");
        // The standby candidate takes over the instant the active
        // master dies; only losing both leaves the cluster headless.
        c.registry().mark_dead(master_id);
        let (standby_id, standby) = c.registry().active_master().unwrap();
        assert_eq!(standby, "master-1");
        c.registry().mark_dead(standby_id);
        assert!(c.registry().active_master().is_none());
    }

    #[test]
    fn timestamps_are_globally_ordered_across_members() {
        let c = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap();
        let domain = c.config().key_domain;
        let mut last = Timestamp::ZERO;
        for i in 0..30u64 {
            let ts = c.client().put(0, key(i * (domain / 30)), val("v")).unwrap();
            assert!(ts > last, "global commit order violated");
            last = ts;
        }
    }

    #[test]
    fn killed_member_fails_over_without_manual_recovery() {
        let c = Cluster::create(ClusterConfig::new(3, EngineKind::LogBase)).unwrap();
        let domain = c.config().key_domain;
        let client = c.client();
        for i in 0..60u64 {
            client
                .put(0, key(i * (domain / 60)), val(&format!("v{i}")))
                .unwrap();
        }
        c.kill_server(1);
        // Lease machinery: survivors heartbeat, clock ticks past the TTL.
        let ttl = c.config().lease_ttl_ticks;
        let mut expired = 0;
        for _ in 0..ttl {
            c.heartbeat_all();
            expired += c.tick(1);
        }
        assert_eq!(expired, 1, "exactly the killed member's lease expires");
        let reports = c.run_failover().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].victim, "srv-1");
        assert!(reports[0].tablets_reassigned >= 1);
        // No route points at the victim any more, and every write is
        // readable through the client path.
        assert!(c.routes().iter().all(|r| r.member != 1));
        for i in 0..60u64 {
            assert_eq!(
                client.get(0, &key(i * (domain / 60))).unwrap(),
                Some(val(&format!("v{i}"))),
                "key {i} lost in failover"
            );
        }
        // The seat is empty but the cluster keeps serving writes.
        client.put(0, key(domain / 2), val("after")).unwrap();
    }
}
