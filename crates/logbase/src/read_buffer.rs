//! The per-server read buffer (§3.6.2).
//!
//! An *optional* cache of recently written/read records. Unlike HBase's
//! memtable it holds no unique data — it never needs flushing, so it can
//! be dropped at any time (and is wiped by restarts). Entries are keyed
//! by `(table, column group, key)` and store a specific *version*; a
//! lookup is a hit only when the version the index says is visible
//! matches the cached one, which makes correctness independent of the
//! replacement policy.

use logbase_common::cache::{Cache, ReplacementPolicy};
use logbase_common::{Timestamp, Value};
use std::sync::Arc;

/// Cache key: `(table, column group, record key)`.
pub type BufferKey = (Arc<str>, u16, Vec<u8>);

/// A cached version: the record's commit timestamp and value
/// (`None` = tombstone).
pub type BufferedVersion = (Timestamp, Option<Value>);

/// The read buffer.
pub struct ReadBuffer {
    cache: Cache<BufferKey, BufferedVersion>,
}

/// Fixed per-copy overhead accounted for each stored [`BufferKey`]:
/// the `Arc<str>` table handle, the `u16` column group and the `Vec`
/// header of the owned key bytes, rounded up to cover allocator slop
/// and the map/policy entry headers.
const KEY_COPY_OVERHEAD: usize = 48;

/// Fixed overhead of the cached value tuple (timestamp + `Option<Value>`).
const VERSION_OVERHEAD: usize = 32;

/// Accounted heap footprint of one buffered record. The key bytes are
/// owned **twice** — once by the map's `BufferKey` and once by the
/// replacement policy's clone — so they are charged twice; the flat
/// constant alone under-counted small-value entries by ~2×.
fn entry_bytes(key_len: usize, value_len: usize) -> u64 {
    (2 * (key_len + KEY_COPY_OVERHEAD) + value_len + VERSION_OVERHEAD) as u64
}

impl ReadBuffer {
    /// Buffer with an LRU policy, `capacity_bytes` budget and the
    /// default shard count.
    pub fn lru(capacity_bytes: u64) -> Self {
        ReadBuffer {
            cache: Cache::lru(capacity_bytes),
        }
    }

    /// Buffer with a custom replacement policy (§3.6.2: "we also design
    /// the replacement strategy as an abstracted interface").
    pub fn with_policy(capacity_bytes: u64, policy: Box<dyn ReplacementPolicy<BufferKey>>) -> Self {
        ReadBuffer {
            cache: Cache::with_policy(capacity_bytes, policy),
        }
    }

    /// Look up the cached version of a record. The caller compares the
    /// returned timestamp with the index's visible version.
    pub fn get(&self, table: &Arc<str>, cg: u16, key: &[u8]) -> Option<BufferedVersion> {
        self.cache.get(&(Arc::clone(table), cg, key.to_vec()))
    }

    /// Cache a version of a record.
    pub fn put(&self, table: &Arc<str>, cg: u16, key: &[u8], ts: Timestamp, value: Option<Value>) {
        let bytes = entry_bytes(key.len(), value.as_ref().map_or(0, |v| v.len()));
        self.cache
            .insert((Arc::clone(table), cg, key.to_vec()), (ts, value), bytes);
    }

    /// Drop a record's cached version (delete path).
    pub fn invalidate(&self, table: &Arc<str>, cg: u16, key: &[u8]) {
        self.cache
            .invalidate(&(Arc::clone(table), cg, key.to_vec()));
    }

    /// Drop everything.
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Bytes accounted.
    pub fn used_bytes(&self) -> u64 {
        self.cache.used_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Arc<str> {
        Arc::from("users")
    }

    #[test]
    fn put_get_invalidate() {
        let rb = ReadBuffer::lru(10_000);
        let t = table();
        rb.put(&t, 0, b"k", Timestamp(5), Some(Value::from_static(b"v")));
        let (ts, v) = rb.get(&t, 0, b"k").unwrap();
        assert_eq!(ts, Timestamp(5));
        assert_eq!(v.as_deref(), Some(&b"v"[..]));
        rb.invalidate(&t, 0, b"k");
        assert!(rb.get(&t, 0, b"k").is_none());
    }

    #[test]
    fn column_groups_are_distinct() {
        let rb = ReadBuffer::lru(10_000);
        let t = table();
        rb.put(&t, 0, b"k", Timestamp(1), Some(Value::from_static(b"cg0")));
        rb.put(&t, 1, b"k", Timestamp(1), Some(Value::from_static(b"cg1")));
        assert_eq!(rb.get(&t, 0, b"k").unwrap().1.as_deref(), Some(&b"cg0"[..]));
        assert_eq!(rb.get(&t, 1, b"k").unwrap().1.as_deref(), Some(&b"cg1"[..]));
    }

    #[test]
    fn tombstones_can_be_cached() {
        let rb = ReadBuffer::lru(10_000);
        let t = table();
        rb.put(&t, 0, b"gone", Timestamp(9), None);
        let (ts, v) = rb.get(&t, 0, b"gone").unwrap();
        assert_eq!(ts, Timestamp(9));
        assert!(v.is_none());
    }

    /// Regression (ISSUE 4): entry sizing must charge the key bytes for
    /// *both* owned copies (map key and policy clone). With the old flat
    /// `key + value + 48` accounting, large-key/small-value workloads
    /// were admitted at ~2× the budget's real heap footprint.
    #[test]
    fn entry_sizing_charges_both_key_copies() {
        let key_len = 256usize;
        let charged = entry_bytes(key_len, 1);
        assert!(
            charged >= 2 * key_len as u64,
            "entry of a {key_len}-byte key charged only {charged} bytes"
        );
        // Residency follows the corrected accounting: a budget that fits
        // ~4 corrected entries must not hold the ~8 the old math allowed.
        let rb = ReadBuffer::lru(4 * charged + charged / 2);
        let t = table();
        for i in 0..64u32 {
            let mut key = vec![0u8; key_len];
            key[..4].copy_from_slice(&i.to_be_bytes());
            rb.put(&t, 0, &key, Timestamp(1), Some(Value::from_static(b"x")));
        }
        assert!(rb.used_bytes() <= 4 * charged + charged / 2);
        let resident = (0..64u32)
            .filter(|i| {
                let mut key = vec![0u8; key_len];
                key[..4].copy_from_slice(&i.to_be_bytes());
                rb.get(&t, 0, &key).is_some()
            })
            .count();
        assert!(resident <= 4, "over-admitted: {resident} resident entries");
    }

    #[test]
    fn byte_budget_bounds_residency() {
        let rb = ReadBuffer::lru(300);
        let t = table();
        for i in 0..100u32 {
            rb.put(
                &t,
                0,
                format!("key-{i}").as_bytes(),
                Timestamp(1),
                Some(Value::from_static(b"0123456789")),
            );
        }
        assert!(rb.used_bytes() <= 300);
    }
}
