//! Differential property tests: the B-link tree and the production
//! `MultiVersionIndex` (its whole API, persistence included) agree with a
//! plain `BTreeMap` model on arbitrary operation sequences.

use logbase_common::schema::KeyRange;
use logbase_common::{LogPtr, RowKey, Timestamp};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_index::persist::{load_index, save_index};
use logbase_index::{BlinkTree, IndexEntry, MultiVersionIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8, u64),
    Remove(u8, u8),
    Get(u8, u8),
    LatestAt(u8, u8),
    Scan(u8, u8),
    RemoveKey(u8),
    Versions(u8),
    /// `range_latest_at(start, end, at, limit)`; `end < start` is an empty
    /// range.
    RangeLatestAt(u8, u8, u8, usize),
    RetainRange(u8, u8),
    InsertBatch(Vec<(u8, u8, u64)>),
    SaveLoad,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), 0u8..16, any::<u64>()).prop_map(|(k, t, p)| Op::Insert(k, t, p)),
        1 => (any::<u8>(), 0u8..16).prop_map(|(k, t)| Op::Remove(k, t)),
        2 => (any::<u8>(), 0u8..16).prop_map(|(k, t)| Op::Get(k, t)),
        2 => (any::<u8>(), 0u8..16).prop_map(|(k, t)| Op::LatestAt(k, t)),
        1 => (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
        1 => any::<u8>().prop_map(Op::RemoveKey),
        2 => any::<u8>().prop_map(Op::Versions),
        2 => (any::<u8>(), any::<u8>(), 0u8..16, 0usize..12)
            .prop_map(|(a, b, t, limit)| Op::RangeLatestAt(a, b, t, limit)),
        1 => (any::<u8>(), 0u8..64).prop_map(|(a, n)| Op::RetainRange(a, a.saturating_add(n))),
        1 => proptest::collection::vec((any::<u8>(), 0u8..16, any::<u64>()), 0..8)
            .prop_map(Op::InsertBatch),
        1 => Just(Op::SaveLoad),
    ]
}

fn key_of(k: u8) -> RowKey {
    RowKey::from(vec![b'k', k])
}

fn ptr_of(p: u64) -> LogPtr {
    LogPtr::new((p % 7) as u32, p, 16)
}

type Model = BTreeMap<(RowKey, Timestamp), LogPtr>;

fn entries_of(model: &Model) -> Vec<IndexEntry> {
    model
        .iter()
        .map(|((key, ts), ptr)| IndexEntry {
            key: key.clone(),
            ts: *ts,
            ptr: *ptr,
        })
        .collect()
}

/// Remove every version of the keys `doomed` picks from the model and the
/// B-link tree (which has no bulk removal); returns how many went.
fn remove_where(model: &mut Model, blink: &BlinkTree, doomed: impl Fn(&RowKey) -> bool) -> usize {
    let before = model.len();
    model.retain(|(key, ts), _| {
        let go = doomed(key);
        if go {
            assert!(blink.remove(key, *ts));
        }
        !go
    });
    before - model.len()
}

/// The model's answer to `range_latest_at`: per key the newest version
/// not after `at`; keys without one are skipped before `limit` applies.
fn model_range_latest_at(
    model: &Model,
    range: &KeyRange,
    at: Timestamp,
    limit: usize,
) -> Vec<IndexEntry> {
    let mut latest: BTreeMap<RowKey, IndexEntry> = BTreeMap::new();
    for e in entries_of(model) {
        if range.contains(&e.key) && e.ts <= at {
            latest.insert(e.key.clone(), e);
        }
    }
    latest.into_values().take(limit).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64
        })]

    #[test]
    fn prop_blink_matches_model_and_mvindex(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        let blink = BlinkTree::new();
        let mv = MultiVersionIndex::new();
        let mut model: Model = BTreeMap::new();
        let dfs = Dfs::new(DfsConfig::in_memory(1, 1));
        let mut saves = 0;
        for op in &ops {
            match op {
                Op::Insert(k, t, p) => {
                    blink.insert(key_of(*k), Timestamp(u64::from(*t)), ptr_of(*p));
                    mv.insert(key_of(*k), Timestamp(u64::from(*t)), ptr_of(*p));
                    model.insert((key_of(*k), Timestamp(u64::from(*t))), ptr_of(*p));
                }
                Op::Remove(k, t) => {
                    let was = model.remove(&(key_of(*k), Timestamp(u64::from(*t)))).is_some();
                    prop_assert_eq!(blink.remove(&key_of(*k), Timestamp(u64::from(*t))), was);
                    mv.remove_version(&key_of(*k), Timestamp(u64::from(*t)));
                }
                Op::Get(k, t) => {
                    let expect = model.get(&(key_of(*k), Timestamp(u64::from(*t)))).copied();
                    prop_assert_eq!(blink.get(&key_of(*k), Timestamp(u64::from(*t))), expect);
                    prop_assert_eq!(
                        mv.get_version(&key_of(*k), Timestamp(u64::from(*t))),
                        expect
                    );
                }
                Op::LatestAt(k, t) => {
                    let at = Timestamp(u64::from(*t));
                    let expect = model
                        .range((key_of(*k), Timestamp::ZERO)..=(key_of(*k), at))
                        .next_back()
                        .map(|((_, ts), p)| (*ts, *p));
                    prop_assert_eq!(blink.latest_at(&key_of(*k), at), expect);
                    prop_assert_eq!(
                        mv.latest_at(&key_of(*k), at).map(|v| (v.ts, v.ptr)),
                        expect
                    );
                }
                Op::Scan(a, b) => {
                    let start = (key_of(*a), Timestamp::ZERO);
                    let end = (key_of(*b), Timestamp::ZERO);
                    let mut got = Vec::new();
                    blink.scan_range(&start, Some(&end), |k, p| {
                        got.push((k.clone(), *p));
                        true
                    });
                    let expect: Vec<((RowKey, Timestamp), LogPtr)> = model
                        .range(start..end)
                        .map(|(k, p)| (k.clone(), *p))
                        .collect();
                    prop_assert_eq!(got, expect);
                }
                Op::RemoveKey(k) => {
                    let doomed = remove_where(&mut model, &blink, |key| *key == key_of(*k));
                    prop_assert_eq!(mv.remove_key(&key_of(*k)), doomed);
                }
                Op::Versions(k) => {
                    let expect: Vec<(Timestamp, LogPtr)> = model
                        .range((key_of(*k), Timestamp::ZERO)..=(key_of(*k), Timestamp::MAX))
                        .map(|((_, ts), p)| (*ts, *p))
                        .collect();
                    let got: Vec<(Timestamp, LogPtr)> =
                        mv.versions(&key_of(*k)).iter().map(|v| (v.ts, v.ptr)).collect();
                    prop_assert_eq!(got, expect);
                }
                Op::RangeLatestAt(a, b, t, limit) => {
                    let at = Timestamp(u64::from(*t));
                    for range in [KeyRange::new(key_of(*a), key_of(*b)), KeyRange {
                        start: key_of(*a),
                        end: None,
                    }] {
                        prop_assert_eq!(
                            mv.range_latest_at(&range, at, *limit),
                            model_range_latest_at(&model, &range, at, *limit)
                        );
                    }
                }
                Op::RetainRange(a, b) => {
                    let range = KeyRange::new(key_of(*a), key_of(*b));
                    let doomed = remove_where(&mut model, &blink, |key| !range.contains(key));
                    prop_assert_eq!(mv.retain_range(&range), doomed);
                }
                Op::InsertBatch(batch) => {
                    let batch: Vec<IndexEntry> = batch
                        .iter()
                        .map(|(k, t, p)| IndexEntry {
                            key: key_of(*k),
                            ts: Timestamp(u64::from(*t)),
                            ptr: ptr_of(*p),
                        })
                        .collect();
                    for e in &batch {
                        blink.insert(e.key.clone(), e.ts, e.ptr);
                        model.insert((e.key.clone(), e.ts), e.ptr);
                    }
                    mv.insert_batch(batch);
                }
                Op::SaveLoad => {
                    saves += 1;
                    let name = format!("ckpt/idx-{saves}");
                    prop_assert_eq!(save_index(&dfs, &name, &mv).unwrap(), model.len() as u64);
                    let loaded = load_index(&dfs, &name).unwrap();
                    prop_assert_eq!(loaded.stats().keys, mv.stats().keys);
                    // Later ops run on the reloaded copy.
                    mv.replace_all(loaded);
                }
            }
            prop_assert_eq!(mv.scan_all(), entries_of(&model));
        }
        prop_assert_eq!(blink.len(), model.len());
        prop_assert_eq!(mv.len(), model.len());
    }
}
