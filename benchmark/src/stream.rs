//! Workload definitions and the seeded operation streams they generate.
//!
//! A workload is a fixed, seeded list of operations, not a duration: the
//! driver's `--seconds` is multiplied by the workload's frozen
//! `ops_per_second` to get an operation count, so two commits do the same
//! work (same bytes written, same log tail to redo) and differ only in how
//! long it takes them.
//!
//! Keys: `preload_keys` keys are strided evenly over the cluster's key
//! domain, so key *index* order is key order and the three range tablets
//! hold a third each. Index `i` belongs to client thread `i % threads`;
//! a thread only ever touches its own keys, which is what lets it compare
//! every read with the last value it was acked. Popularity ranks are
//! scattered over a thread's keys by a multiplicative permutation, so hot
//! keys land on all three members.

use logbase_common::config::YCSB_MAX_KEY;
use logbase_common::RowKey;
use logbase_workload::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Record payload size (paper §4.1: 1 KB records).
pub const VALUE_BYTES: usize = 1024;
/// Key domain the cluster routes over (`ClusterConfig::new` default).
pub const KEY_DOMAIN: u64 = YCSB_MAX_KEY;
/// Cluster members (tablet servers, each with one data node).
pub const MEMBERS: u32 = 3;
/// Closed-loop client threads, one `Client` + `TcpTransport` each.
pub const THREADS: usize = 2;
/// Rows requested by one scan.
pub const SCAN_ROWS: u64 = 20;
/// Share of the stream run untimed before the measured phase.
pub const WARMUP_FRACTION: f64 = 0.10;
/// Starting balance of every key (the preloaded value carries none).
pub const INITIAL_BALANCE: i64 = 1_000;

/// Key popularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    Uniform,
    Zipf(f64),
}

/// Operation shares in percent; they sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub put: u32,
    pub get: u32,
    pub txn: u32,
    pub scan: u32,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Keys bulk-loaded (1 KiB each) before the run; the run updates and
    /// reads exactly these keys.
    pub preload_keys: u64,
    /// Frozen calibration: operations (both threads together) issued per
    /// second of `--seconds`, warm-up included. Chosen so the measured
    /// phase lasts about `--seconds` on one core of the reference host.
    pub ops_per_second: u64,
    pub dist: Dist,
    pub mix: Mix,
}

/// The four workloads of `BENCHMARK.json`.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    // 95 % updates (paper §4.3): group commit, DFS replication and index
    // insert do the work; the big log tail makes recovery meaningful.
    WorkloadSpec {
        name: "write_heavy",
        preload_keys: 30_000,
        ops_per_second: 8_000,
        dist: Dist::Uniform,
        mix: Mix {
            put: 95,
            get: 5,
            txn: 0,
            scan: 0,
        },
    },
    // 20 MB of data against 3 x 16 MiB of read buffer: the engine does
    // little, so wire, admission, dispatch and index lookup dominate.
    WorkloadSpec {
        name: "read_cached",
        preload_keys: 20_000,
        ops_per_second: 22_000,
        dist: Dist::Zipf(0.99),
        mix: Mix {
            put: 5,
            get: 95,
            txn: 0,
            scan: 0,
        },
    },
    // 3.7x the read buffer, uniform: three reads in four miss the buffer
    // and go index -> segment directory -> DFS read -> log-entry decode.
    WorkloadSpec {
        name: "read_cold",
        preload_keys: 180_000,
        ops_per_second: 17_000,
        dist: Dist::Uniform,
        mix: Mix {
            put: 5,
            get: 95,
            txn: 0,
            scan: 0,
        },
    },
    // TPC-W-shaped: transactions, point ops and short range scans.
    WorkloadSpec {
        name: "mixed_txn",
        preload_keys: 30_000,
        ops_per_second: 3_600,
        dist: Dist::Zipf(0.8),
        mix: Mix {
            put: 10,
            get: 25,
            txn: 50,
            scan: 15,
        },
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Operation classes, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Put,
    Get,
    Txn,
    Scan,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Put, Class::Get, Class::Txn, Class::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Class::Put => "put",
            Class::Get => "get",
            Class::Txn => "txn",
            Class::Scan => "scan",
        }
    }
}

/// One operation on a thread's own keys, addressed by *slot* (the
/// thread's n-th key in key order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put {
        slot: u32,
    },
    Get {
        slot: u32,
    },
    /// Move `delta` from `a` to `b`; both live on one member.
    Txn {
        a: u32,
        b: u32,
        delta: u32,
    },
    /// Scan `SCAN_ROWS` rows of `a`'s member starting at `a`.
    Scan {
        slot: u32,
    },
}

impl Op {
    pub fn class(self) -> Class {
        match self {
            Op::Put { .. } => Class::Put,
            Op::Get { .. } => Class::Get,
            Op::Txn { .. } => Class::Txn,
            Op::Scan { .. } => Class::Scan,
        }
    }
}

/// The key layout of one workload: which keys exist, who owns them, which
/// member serves them.
#[derive(Debug, Clone)]
pub struct KeySpace {
    keys: u64,
    stride: u64,
    /// First key index served by each member, plus `keys` as the end.
    member_start: [u64; MEMBERS as usize + 1],
}

impl KeySpace {
    pub fn new(keys: u64) -> Self {
        assert!(
            keys >= (THREADS as u64) * u64::from(MEMBERS) * 2 && keys < (1 << 31),
            "key count out of range"
        );
        let stride = KEY_DOMAIN / keys;
        let mut space = KeySpace {
            keys,
            stride,
            member_start: [0; MEMBERS as usize + 1],
        };
        // Same split as `logbase_common::schema::split_uniform`.
        let tablet = KEY_DOMAIN / u64::from(MEMBERS);
        for m in 1..MEMBERS as u64 {
            space.member_start[m as usize] = (m * tablet).div_ceil(stride).min(keys);
        }
        space.member_start[MEMBERS as usize] = keys;
        space
    }

    /// Total keys.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// The numeric key at `index` (index order is key order).
    pub fn key_value(&self, index: u64) -> u64 {
        index * self.stride
    }

    /// The row key at `index`.
    pub fn row_key(&self, index: u64) -> RowKey {
        RowKey::copy_from_slice(&self.key_value(index).to_be_bytes())
    }

    /// Key index of a thread's slot.
    pub fn index_of(&self, thread: usize, slot: u32) -> u64 {
        u64::from(slot) * THREADS as u64 + thread as u64
    }

    /// Number of keys (slots) `thread` owns.
    pub fn slots(&self, thread: usize) -> u32 {
        (self.keys - thread as u64).div_ceil(THREADS as u64) as u32
    }

    /// Member serving key `index`.
    pub fn member_of(&self, index: u64) -> u32 {
        (1..=MEMBERS as usize)
            .find(|&m| index < self.member_start[m])
            .expect("index below key count") as u32
            - 1
    }

    /// Key-index range `[start, end)` served by `member`.
    pub fn member_range(&self, member: u32) -> (u64, u64) {
        (
            self.member_start[member as usize],
            self.member_start[member as usize + 1],
        )
    }

    /// The slots of `thread` served by `member`, as `[lo, hi)`.
    pub fn member_slots(&self, thread: usize, member: u32) -> (u32, u32) {
        let (start, end) = self.member_range(member);
        let to_slot = |index: u64| index.saturating_sub(thread as u64).div_ceil(THREADS as u64);
        (to_slot(start) as u32, to_slot(end) as u32)
    }

    /// Every key, partitioned by member, in key order (the bulk-load input).
    pub fn keys_per_member(&self) -> Vec<Vec<RowKey>> {
        (0..MEMBERS)
            .map(|m| {
                let (start, end) = self.member_range(m);
                (start..end).map(|i| self.row_key(i)).collect()
            })
            .collect()
    }
}

/// Member serving an 8-byte big-endian `key`, by the split
/// `logbase_common::schema::split_uniform` makes for the router.
pub fn member_of_key(key: &[u8]) -> u32 {
    let value = u64::from_be_bytes(key.try_into().expect("benchmark keys are 8 bytes"));
    ((value / (KEY_DOMAIN / u64::from(MEMBERS))) as u32).min(MEMBERS - 1)
}

/// A prime above any slot count: `rank * SCATTER % n` is a bijection on
/// `0..n`, scattering popularity ranks over the key order.
const SCATTER: u64 = 2_147_483_647;

/// The seeded operation stream of one client thread.
pub struct OpStream {
    space: KeySpace,
    thread: usize,
    slots: u64,
    mix: Mix,
    zipf: Option<Zipfian>,
    rng: StdRng,
}

impl OpStream {
    /// Sub-stream `thread` of the stream `seed` generates for `spec`.
    pub fn new(spec: &WorkloadSpec, seed: u64, thread: usize) -> Self {
        assert!(thread < THREADS);
        assert_eq!(
            spec.mix.put + spec.mix.get + spec.mix.txn + spec.mix.scan,
            100
        );
        let space = KeySpace::new(spec.preload_keys);
        let slots = u64::from(space.slots(thread));
        let zipf = match spec.dist {
            Dist::Uniform => None,
            Dist::Zipf(theta) => Some(Zipfian::new(slots, theta)),
        };
        // Decorrelate the threads' generators: adjacent seeds of a
        // SplitMix64 state would give shifted copies of one sequence.
        let mut mixer = StdRng::seed_from_u64(seed ^ ((thread as u64 + 1) << 56));
        let rng = StdRng::seed_from_u64(mixer.gen());
        OpStream {
            space,
            thread,
            slots,
            mix: spec.mix,
            zipf,
            rng,
        }
    }

    /// The key layout this stream draws from.
    pub fn space(&self) -> &KeySpace {
        &self.space
    }

    fn rank(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.slots),
        }
    }

    fn slot(&mut self) -> u32 {
        (self.rank() * SCATTER % self.slots) as u32
    }

    /// A second, different slot on the member that serves `a`.
    fn partner(&mut self, a: u32) -> u32 {
        let member = self.space.member_of(self.space.index_of(self.thread, a));
        let (lo, hi) = self.space.member_slots(self.thread, member);
        let width = u64::from(hi - lo);
        let mut b = lo + (self.rank() * SCATTER % width) as u32;
        if b == a {
            b = lo + (b - lo + 1) % width as u32;
        }
        b
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let pick = self.rng.gen_range(0..100u32);
        let Mix { put, get, txn, .. } = self.mix;
        Some(if pick < put {
            Op::Put { slot: self.slot() }
        } else if pick < put + get {
            Op::Get { slot: self.slot() }
        } else if pick < put + get + txn {
            let a = self.slot();
            let b = self.partner(a);
            let delta = self.rng.gen_range(1..=10u32);
            Op::Txn { a, b, delta }
        } else {
            Op::Scan { slot: self.slot() }
        })
    }
}

/// Operations one thread issues for a run of `seconds`.
pub fn ops_per_thread(spec: &WorkloadSpec, seconds: u64) -> usize {
    (spec.ops_per_second * seconds / THREADS as u64) as usize
}

/// How many of a thread's operations are untimed warm-up.
pub fn warmup_ops(total: usize) -> usize {
    (total as f64 * WARMUP_FRACTION) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_the_same_ops() {
        for spec in &WORKLOADS {
            let a: Vec<Op> = OpStream::new(spec, 7, 0).take(5_000).collect();
            let b: Vec<Op> = OpStream::new(spec, 7, 0).take(5_000).collect();
            let c: Vec<Op> = OpStream::new(spec, 8, 0).take(5_000).collect();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn threads_touch_disjoint_keys() {
        for spec in &WORKLOADS {
            let mut touched: Vec<HashSet<u64>> = Vec::new();
            for thread in 0..THREADS {
                let stream = OpStream::new(spec, 42, thread);
                let space = stream.space().clone();
                let mut set = HashSet::new();
                for op in stream.take(20_000) {
                    let slots = match op {
                        Op::Put { slot } | Op::Get { slot } | Op::Scan { slot } => vec![slot],
                        Op::Txn { a, b, .. } => vec![a, b],
                    };
                    for s in slots {
                        assert!(s < space.slots(thread));
                        set.insert(space.index_of(thread, s));
                    }
                }
                touched.push(set);
            }
            assert!(touched[0].is_disjoint(&touched[1]), "{}", spec.name);
        }
    }

    #[test]
    fn transactions_stay_on_one_member_and_use_two_keys() {
        let spec = workload("mixed_txn").unwrap();
        for thread in 0..THREADS {
            let stream = OpStream::new(spec, 3, thread);
            let space = stream.space().clone();
            for op in stream.take(20_000) {
                if let Op::Txn { a, b, .. } = op {
                    assert_ne!(a, b);
                    let ma = space.member_of(space.index_of(thread, a));
                    let mb = space.member_of(space.index_of(thread, b));
                    assert_eq!(ma, mb);
                }
            }
        }
    }

    #[test]
    fn key_layout_matches_the_router_split() {
        let space = KeySpace::new(60_000);
        let tablets = logbase_common::schema::split_uniform("t", MEMBERS, KEY_DOMAIN);
        let mut per_member = [0u64; MEMBERS as usize];
        for i in 0..space.keys() {
            let key = space.row_key(i);
            let served = tablets.iter().position(|t| t.range.contains(&key)).unwrap() as u32;
            assert_eq!(served, space.member_of(i), "index {i}");
            assert_eq!(served, member_of_key(&key), "index {i}");
            per_member[served as usize] += 1;
        }
        assert!(per_member.iter().all(|&n| n.abs_diff(20_000) <= 1));
        let slots: u32 = (0..MEMBERS)
            .map(|m| {
                let (lo, hi) = space.member_slots(1, m);
                hi - lo
            })
            .sum();
        assert_eq!(slots, space.slots(1));
    }

    #[test]
    fn hot_ranks_spread_over_all_members() {
        let spec = workload("read_cached").unwrap();
        let stream = OpStream::new(spec, 42, 0);
        let space = stream.space().clone();
        let mut seen = HashSet::new();
        for rank in 0..30u64 {
            let slot = (rank * SCATTER % u64::from(space.slots(0))) as u32;
            seen.insert(space.member_of(space.index_of(0, slot)));
        }
        assert_eq!(seen.len(), MEMBERS as usize);
    }
}
