//! The multiversion index structure.
//!
//! An ordered map from each *distinct* key to its version chain. The
//! index owns its keys: the first insert of a key copies its bytes into
//! an exact-size `Box<[u8]>`, so nothing here ever borrows the wire
//! frame, log read window or checkpoint file a key arrived in. A version
//! is a 24-byte `(timestamp, pointer)` pair — the paper's index entry
//! (§3.5); a key's versions are kept ascending by timestamp, and a lone
//! version lives inline in the map slot, so a single-version key costs
//! no second allocation.

use logbase_common::config::INDEX_ENTRY_BYTES;
use logbase_common::schema::KeyRange;
use logbase_common::{LogPtr, RowKey, Timestamp};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::mem::size_of;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// One version of one key: `(timestamp, pointer)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionedPtr {
    /// Commit timestamp of the write.
    pub ts: Timestamp,
    /// Location of the record in the log.
    pub ptr: LogPtr,
}

const _: () = assert!(size_of::<VersionedPtr>() == INDEX_ENTRY_BYTES);

/// A materialized index entry (used by scans and persistence).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Record primary key.
    pub key: RowKey,
    /// Version.
    pub ts: Timestamp,
    /// Log location.
    pub ptr: LogPtr,
}

/// Size statistics of one index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Total `(key, ts)` entries.
    pub entries: u64,
    /// Distinct keys.
    pub keys: u64,
    /// Accounted resident heap bytes: per distinct key its bytes plus one
    /// map slot (key box + chain head, in B-tree nodes taken as two-thirds
    /// full), per multi-version chain its allocated capacity × 24 B.
    /// `tests/footprint.rs` holds it to ±25 % of measured live heap.
    pub approx_bytes: u64,
    /// Updates applied since the last counter reset (checkpoint trigger,
    /// §3.6.1).
    pub updates_since_checkpoint: u64,
}

/// What a distinct key costs besides its own bytes.
const KEY_SLOT_BYTES: u64 = ((size_of::<Box<[u8]>>() + size_of::<Chain>()) * 3 / 2) as u64;

/// The versions of one key, ascending by timestamp, never empty.
enum Chain {
    One(VersionedPtr),
    Many(Vec<VersionedPtr>),
}

impl Chain {
    fn as_slice(&self) -> &[VersionedPtr] {
        match self {
            Chain::One(v) => std::slice::from_ref(v),
            Chain::Many(vs) => vs,
        }
    }

    /// Bytes held outside the map slot.
    fn heap_bytes(&self) -> u64 {
        match self {
            Chain::One(_) => 0,
            Chain::Many(vs) => (vs.capacity() * size_of::<VersionedPtr>()) as u64,
        }
    }

    fn find(&self, ts: Timestamp) -> Result<usize, usize> {
        self.as_slice().binary_search_by_key(&ts, |v| v.ts)
    }

    fn latest_at(&self, at: Timestamp) -> Option<VersionedPtr> {
        let vs = self.as_slice();
        vs[..vs.partition_point(|v| v.ts <= at)].last().copied()
    }

    /// Insert or overwrite version `v.ts`; true when it is new.
    fn insert(&mut self, v: VersionedPtr) -> bool {
        match (self.find(v.ts), &mut *self) {
            (Ok(_), Chain::One(old)) => *old = v,
            (Ok(i), Chain::Many(vs)) => vs[i] = v,
            (Err(i), Chain::Many(vs)) => {
                vs.insert(i, v);
                return true;
            }
            (Err(i), Chain::One(old)) => {
                // `i` is 0 or 1: `v` goes before or after `old`.
                let mut vs = vec![*old; 2];
                vs[i] = v;
                *self = Chain::Many(vs);
                return true;
            }
        }
        false
    }

    /// Remove version `i` of a chain that has another one left.
    fn remove(&mut self, i: usize) {
        let Chain::Many(vs) = self else {
            unreachable!("a lone version is removed with its key");
        };
        vs.remove(i);
        if let [last] = vs[..] {
            *self = Chain::One(last);
        }
    }
}

#[derive(Default)]
struct Inner {
    map: BTreeMap<Box<[u8]>, Chain>,
    /// Versions over all chains.
    entries: u64,
    /// See [`IndexStats::approx_bytes`].
    bytes: u64,
}

impl Inner {
    fn insert(&mut self, key: &[u8], v: VersionedPtr) {
        let Some(chain) = self.map.get_mut(key) else {
            self.map.insert(key.into(), Chain::One(v));
            self.entries += 1;
            self.bytes += key.len() as u64 + KEY_SLOT_BYTES;
            return;
        };
        let before = chain.heap_bytes();
        if chain.insert(v) {
            self.entries += 1;
            self.bytes = self.bytes + chain.heap_bytes() - before;
        }
    }

    fn remove_version(&mut self, key: &[u8], ts: Timestamp) -> bool {
        let Some(chain) = self.map.get_mut(key) else {
            return false;
        };
        let Ok(i) = chain.find(ts) else {
            return false;
        };
        if let Chain::One(_) = chain {
            let chain = self.map.remove(key).expect("found just above");
            self.discount(key, &chain);
        } else {
            let before = chain.heap_bytes();
            chain.remove(i);
            self.entries -= 1;
            self.bytes = self.bytes + chain.heap_bytes() - before;
        }
        true
    }

    /// Forget a chain that was just taken out of the map.
    fn discount(&mut self, key: &[u8], chain: &Chain) -> usize {
        let n = chain.as_slice().len();
        self.entries -= n as u64;
        self.bytes -= key.len() as u64 + KEY_SLOT_BYTES + chain.heap_bytes();
        n
    }
}

/// The in-memory multiversion index: ordered map from key to its
/// ascending chain of `(timestamp, `[`LogPtr`]`)` versions.
///
/// Concurrent readers proceed in parallel; writers serialize. Point
/// probes are `O(log keys + log versions)` and allocate nothing.
pub struct MultiVersionIndex {
    inner: RwLock<Inner>,
    updates: AtomicU64,
}

impl Default for MultiVersionIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiVersionIndex {
    /// New empty index.
    pub fn new() -> Self {
        MultiVersionIndex {
            inner: RwLock::new(Inner::default()),
            updates: AtomicU64::new(0),
        }
    }

    /// Insert (or overwrite) the entry for `(key, ts)`. The key is copied
    /// if it is new to the index and never retained otherwise.
    pub fn insert(&self, key: impl AsRef<[u8]>, ts: Timestamp, ptr: LogPtr) {
        self.inner
            .write()
            .insert(key.as_ref(), VersionedPtr { ts, ptr });
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a batch of entries under one lock acquisition.
    pub fn insert_batch(&self, entries: impl IntoIterator<Item = IndexEntry>) {
        let mut inner = self.inner.write();
        let mut n = 0u64;
        for e in entries {
            inner.insert(
                &e.key,
                VersionedPtr {
                    ts: e.ts,
                    ptr: e.ptr,
                },
            );
            n += 1;
        }
        self.updates.fetch_add(n, Ordering::Relaxed);
    }

    /// Remove every version of `key` (step 1 of `Delete`, §3.6.3).
    /// Returns the number of versions removed.
    pub fn remove_key(&self, key: &[u8]) -> usize {
        let mut inner = self.inner.write();
        let Some(chain) = inner.map.remove(key) else {
            return 0;
        };
        let n = inner.discount(key, &chain);
        self.updates.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Remove one specific version.
    pub fn remove_version(&self, key: &[u8], ts: Timestamp) -> bool {
        let removed = self.inner.write().remove_version(key, ts);
        if removed {
            self.updates.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Pointer for the exact version `(key, ts)`, if present.
    pub fn get_version(&self, key: &[u8], ts: Timestamp) -> Option<LogPtr> {
        let inner = self.inner.read();
        let chain = inner.map.get(key)?;
        chain.find(ts).ok().map(|i| chain.as_slice()[i].ptr)
    }

    /// Latest version of `key`, if any.
    pub fn latest(&self, key: &[u8]) -> Option<VersionedPtr> {
        self.latest_at(key, Timestamp::MAX)
    }

    /// Latest version of `key` with timestamp `<= at` (snapshot reads).
    pub fn latest_at(&self, key: &[u8], at: Timestamp) -> Option<VersionedPtr> {
        self.inner.read().map.get(key)?.latest_at(at)
    }

    /// All versions of `key`, oldest first.
    pub fn versions(&self, key: &[u8]) -> Vec<VersionedPtr> {
        let inner = self.inner.read();
        inner
            .map
            .get(key)
            .map_or(Vec::new(), |c| c.as_slice().to_vec())
    }

    /// For every key in `range`, the latest version with timestamp
    /// `<= at`, in key order. This is the range-scan index probe
    /// (§3.6.4); `limit` bounds the number of *keys* returned, and keys
    /// with no version visible at `at` do not count towards it.
    pub fn range_latest_at(
        &self,
        range: &KeyRange,
        at: Timestamp,
        limit: usize,
    ) -> Vec<IndexEntry> {
        let mut out: Vec<IndexEntry> = Vec::new();
        if range.is_empty() {
            return out;
        }
        let upper = match &range.end {
            Some(end) => Bound::Excluded(&end[..]),
            None => Bound::Unbounded,
        };
        let inner = self.inner.read();
        for (key, chain) in inner
            .map
            .range::<[u8], _>((Bound::Included(&range.start[..]), upper))
        {
            if out.len() >= limit {
                break;
            }
            if let Some(v) = chain.latest_at(at) {
                out.push(IndexEntry {
                    key: RowKey::copy_from_slice(key),
                    ts: v.ts,
                    ptr: v.ptr,
                });
            }
        }
        out
    }

    /// Drop every entry whose key lies outside `range` (tablet handoff:
    /// the shrunken tablet keeps reusing its index, pruned of moved
    /// keys). Returns the number of entries removed.
    pub fn retain_range(&self, range: &KeyRange) -> usize {
        let mut inner = self.inner.write();
        let mut map = std::mem::take(&mut inner.map);
        let mut removed = 0;
        map.retain(|key, chain| {
            let keep = range.contains(key);
            if !keep {
                removed += inner.discount(key, chain);
            }
            keep
        });
        inner.map = map;
        self.updates.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Every entry, in `(key, ts)` order (checkpointing, compaction).
    /// The versions of one key share one copy of it.
    pub fn scan_all(&self) -> Vec<IndexEntry> {
        let inner = self.inner.read();
        let mut out = Vec::with_capacity(inner.entries as usize);
        for (key, chain) in &inner.map {
            let key = RowKey::copy_from_slice(key);
            out.extend(chain.as_slice().iter().map(|v| IndexEntry {
                key: key.clone(),
                ts: v.ts,
                ptr: v.ptr,
            }));
        }
        out
    }

    /// Replace the whole content with `other`'s (checkpoint reload).
    pub fn replace_all(&self, other: MultiVersionIndex) {
        *self.inner.write() = other.inner.into_inner();
    }

    /// Clear all entries.
    pub fn clear(&self) {
        *self.inner.write() = Inner::default();
    }

    /// Number of `(key, ts)` entries.
    pub fn len(&self) -> usize {
        self.inner.read().entries as usize
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot, `O(1)`.
    pub fn stats(&self) -> IndexStats {
        let inner = self.inner.read();
        IndexStats {
            entries: inner.entries,
            keys: inner.map.len() as u64,
            approx_bytes: inner.bytes,
            updates_since_checkpoint: self.updates.load(Ordering::Relaxed),
        }
    }

    /// Reset the per-checkpoint update counter (§3.6.1: "the counter is
    /// reset to zero" after the index is merged out to an index file).
    pub fn reset_update_counter(&self) {
        self.updates.store(0, Ordering::Relaxed);
    }

    /// Updates since the last counter reset.
    pub fn updates_since_checkpoint(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ptr(n: u64) -> LogPtr {
        LogPtr::new(0, n, 10)
    }

    fn key(s: &str) -> RowKey {
        RowKey::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn latest_picks_highest_timestamp() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("a"), Timestamp(2), ptr(1));
        idx.insert(key("a"), Timestamp(18), ptr(2));
        idx.insert(key("a"), Timestamp(5), ptr(3));
        let latest = idx.latest(b"a").unwrap();
        assert_eq!(latest.ts, Timestamp(18));
        assert_eq!(latest.ptr, ptr(2));
        assert!(idx.latest(b"b").is_none());
    }

    #[test]
    fn latest_at_respects_snapshot_bound() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("a"), Timestamp(2), ptr(1));
        idx.insert(key("a"), Timestamp(18), ptr(2));
        assert_eq!(idx.latest_at(b"a", Timestamp(17)).unwrap().ts, Timestamp(2));
        assert_eq!(
            idx.latest_at(b"a", Timestamp(18)).unwrap().ts,
            Timestamp(18)
        );
        assert!(idx.latest_at(b"a", Timestamp(1)).is_none());
    }

    #[test]
    fn versions_are_ordered_oldest_first() {
        let idx = MultiVersionIndex::new();
        for t in [9u64, 3, 7] {
            idx.insert(key("k"), Timestamp(t), ptr(t));
        }
        let v: Vec<u64> = idx.versions(b"k").iter().map(|e| e.ts.0).collect();
        assert_eq!(v, vec![3, 7, 9]);
    }

    #[test]
    fn prefix_probe_does_not_leak_into_neighbours() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("ab"), Timestamp(1), ptr(1));
        idx.insert(key("abc"), Timestamp(2), ptr(2));
        idx.insert(key("abd"), Timestamp(3), ptr(3));
        // "ab" has exactly one version even though "abc" sorts adjacent.
        assert_eq!(idx.versions(b"ab").len(), 1);
        assert_eq!(idx.latest(b"ab").unwrap().ts, Timestamp(1));
    }

    #[test]
    fn remove_key_removes_all_versions() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("a"), Timestamp(1), ptr(1));
        idx.insert(key("a"), Timestamp(2), ptr(2));
        idx.insert(key("b"), Timestamp(1), ptr(3));
        assert_eq!(idx.remove_key(b"a"), 2);
        assert!(idx.latest(b"a").is_none());
        assert!(idx.latest(b"b").is_some());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn remove_version_is_surgical() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("a"), Timestamp(1), ptr(1));
        idx.insert(key("a"), Timestamp(2), ptr(2));
        assert!(idx.remove_version(b"a", Timestamp(2)));
        assert!(!idx.remove_version(b"a", Timestamp(9)));
        assert_eq!(idx.latest(b"a").unwrap().ts, Timestamp(1));
    }

    #[test]
    fn range_latest_at_returns_one_entry_per_key() {
        let idx = MultiVersionIndex::new();
        for (k, t) in [
            ("a", 1u64),
            ("a", 5),
            ("b", 2),
            ("c", 3),
            ("c", 9),
            ("d", 4),
        ] {
            idx.insert(key(k), Timestamp(t), ptr(t));
        }
        let r = KeyRange::new(&b"a"[..], &b"d"[..]);
        let out = idx.range_latest_at(&r, Timestamp::MAX, usize::MAX);
        let got: Vec<(&str, u64)> = out
            .iter()
            .map(|e| (std::str::from_utf8(&e.key).unwrap(), e.ts.0))
            .collect();
        assert_eq!(got, vec![("a", 5), ("b", 2), ("c", 9)]);

        // Snapshot at t=4 hides a@5 and c@9.
        let out = idx.range_latest_at(&r, Timestamp(4), usize::MAX);
        let got: Vec<(&str, u64)> = out
            .iter()
            .map(|e| (std::str::from_utf8(&e.key).unwrap(), e.ts.0))
            .collect();
        assert_eq!(got, vec![("a", 1), ("b", 2), ("c", 3)]);
    }

    #[test]
    fn range_latest_limit_counts_keys() {
        let idx = MultiVersionIndex::new();
        for (k, t) in [("a", 1u64), ("a", 2), ("b", 1), ("c", 1)] {
            idx.insert(key(k), Timestamp(t), ptr(t));
        }
        let out = idx.range_latest_at(&KeyRange::all(), Timestamp::MAX, 2);
        assert_eq!(out.len(), 2);
        assert_eq!(&out[0].key[..], b"a");
        assert_eq!(out[0].ts, Timestamp(2));
        assert_eq!(&out[1].key[..], b"b");
    }

    #[test]
    fn unbounded_range_scans_everything() {
        let idx = MultiVersionIndex::new();
        for i in 0..10u64 {
            idx.insert(key(&format!("k{i}")), Timestamp(1), ptr(i));
        }
        assert_eq!(
            idx.range_latest_at(&KeyRange::all(), Timestamp::MAX, usize::MAX)
                .len(),
            10
        );
    }

    #[test]
    fn stats_track_entries_keys_and_bytes() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("aa"), Timestamp(1), ptr(1));
        idx.insert(key("aa"), Timestamp(2), ptr(2));
        idx.insert(key("bb"), Timestamp(1), ptr(3));
        let s = idx.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.keys, 2);
        // Two keys of 2 bytes; "aa" holds a two-version chain.
        assert_eq!(s.approx_bytes, 2 * (2 + KEY_SLOT_BYTES) + 2 * 24);
        assert_eq!(s.updates_since_checkpoint, 3);
        idx.reset_update_counter();
        assert_eq!(idx.updates_since_checkpoint(), 0);
        idx.insert(key("cc"), Timestamp(1), ptr(4));
        assert_eq!(idx.updates_since_checkpoint(), 1);
    }

    #[test]
    fn replace_all_installs_snapshot() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("old"), Timestamp(1), ptr(1));
        let snapshot = MultiVersionIndex::new();
        snapshot.insert(key("new1"), Timestamp(5), ptr(10));
        snapshot.insert(key("new2"), Timestamp(6), ptr(11));
        let stats = snapshot.stats();
        idx.replace_all(snapshot);
        assert!(idx.latest(b"old").is_none());
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.latest(b"new1").unwrap().ptr, ptr(10));
        assert_eq!(idx.stats().approx_bytes, stats.approx_bytes);
    }

    #[test]
    fn overwriting_same_version_updates_pointer() {
        let idx = MultiVersionIndex::new();
        idx.insert(key("a"), Timestamp(1), ptr(1));
        idx.insert(key("a"), Timestamp(1), ptr(2));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.latest(b"a").unwrap().ptr, ptr(2));
        // Byte accounting must not double count.
        assert_eq!(idx.stats().approx_bytes, 1 + KEY_SLOT_BYTES);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let idx = std::sync::Arc::new(MultiVersionIndex::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = std::sync::Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..500u64 {
                        idx.insert(key(&format!("{t}-{i}")), Timestamp(i), ptr(i));
                    }
                });
            }
            for _ in 0..2 {
                let idx = std::sync::Arc::clone(&idx);
                s.spawn(move || {
                    for _ in 0..200 {
                        let _ = idx.latest(b"0-100");
                        let _ = idx.range_latest_at(&KeyRange::all(), Timestamp::MAX, 50);
                    }
                });
            }
        });
        assert_eq!(idx.len(), 2000);
    }

    /// `(entries, keys, approx_bytes)` recounted from the map itself.
    fn recount(idx: &MultiVersionIndex) -> (u64, u64, u64) {
        let inner = idx.inner.read();
        let (mut entries, mut bytes) = (0, 0);
        for (key, chain) in &inner.map {
            entries += chain.as_slice().len() as u64;
            bytes += key.len() as u64 + KEY_SLOT_BYTES + chain.heap_bytes();
            if let Chain::Many(vs) = chain {
                assert!(vs.len() > 1, "a lone version must be stored inline");
            }
        }
        (entries, inner.map.len() as u64, bytes)
    }

    proptest! {
        /// The index agrees with a model — a plain map of key -> sorted
        /// version list — and its O(1) `stats()` with a full recount
        /// (it used to walk the map, on every insert of a spillable
        /// index).
        #[test]
        fn prop_matches_model(ops in proptest::collection::vec(
            (0u8..8, 0u8..8, 1u64..20), 1..200)
        ) {
            let idx = MultiVersionIndex::new();
            let mut model: std::collections::BTreeMap<Vec<u8>, std::collections::BTreeMap<u64, LogPtr>> =
                std::collections::BTreeMap::new();
            let mut counter = 0u64;
            for (op, k, t) in ops {
                let kb = vec![b'k', k];
                match op {
                    // Inserts dominate; `t` collides often enough to
                    // overwrite the same `(key, ts)`.
                    0..=3 => {
                        counter += 1;
                        let p = ptr(counter);
                        idx.insert(RowKey::from(kb.clone()), Timestamp(t), p);
                        model.entry(kb).or_default().insert(t, p);
                    }
                    4 => {
                        let n = idx.remove_key(&kb);
                        prop_assert_eq!(n, model.remove(&kb).map_or(0, |m| m.len()));
                    }
                    5 => {
                        let was = idx.remove_version(&kb, Timestamp(t));
                        let mut expect = false;
                        if let Some(m) = model.get_mut(&kb) {
                            expect = m.remove(&t).is_some();
                            if m.is_empty() { model.remove(&kb); }
                        }
                        prop_assert_eq!(was, expect);
                    }
                    6 => {
                        let range = KeyRange::new(kb.clone(), vec![b'k', k + (t % 8) as u8]);
                        let before: usize = model.values().map(|m| m.len()).sum();
                        model.retain(|key, _| range.contains(key));
                        let after: usize = model.values().map(|m| m.len()).sum();
                        prop_assert_eq!(idx.retain_range(&range), before - after);
                    }
                    _ => {
                        let copy = MultiVersionIndex::new();
                        copy.insert_batch(idx.scan_all());
                        idx.clear();
                        prop_assert_eq!(recount(&idx), (0, 0, 0));
                        idx.replace_all(copy);
                    }
                }
                let s = idx.stats();
                prop_assert_eq!((s.entries, s.keys, s.approx_bytes), recount(&idx));
            }
            // Compare latest() for all keys, and latest_at for a few bounds.
            for k in 0u8..8 {
                let kb = vec![b'k', k];
                let expect = model.get(&kb).and_then(|m| m.iter().next_back())
                    .map(|(t, p)| (Timestamp(*t), *p));
                let got = idx.latest(&kb).map(|v| (v.ts, v.ptr));
                prop_assert_eq!(expect, got);
                for bound in [0u64, 5, 10, 19] {
                    let expect = model.get(&kb)
                        .and_then(|m| m.range(..=bound).next_back())
                        .map(|(t, p)| (Timestamp(*t), *p));
                    let got = idx.latest_at(&kb, Timestamp(bound)).map(|v| (v.ts, v.ptr));
                    prop_assert_eq!(expect, got);
                }
            }
            // Entry count agrees.
            let model_entries: usize = model.values().map(|m| m.len()).sum();
            prop_assert_eq!(idx.len(), model_entries);
        }
    }
}
