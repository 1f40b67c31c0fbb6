//! Secondary indexes — the paper's stated future work (§5: "Our future
//! works include the design and implementation of efficient secondary
//! indexes and query processing for LogBase").
//!
//! A secondary index maps an *attribute value extracted from the record
//! payload* back to primary keys. Following LogBase's design philosophy,
//! secondary indexes are **in-memory and rebuildable**: they hold
//! `(secondary key ++ 0x00 ++ primary key, version) → log pointer`
//! entries in a [`MultiVersionIndex`], are maintained synchronously on
//! the write path, and after a restart are repopulated by a backfill
//! scan over the primary index (no extra persistence, no extra write
//! amplification — the log remains the only data repository).
//!
//! Stale-entry handling: an update that changes a record's attribute
//! leaves the old `(attr, pk)` entry behind; lookups verify each hit
//! against the primary index (the returned version must still be the
//! record's visible version) so stale entries are filtered, and
//! [`TabletServer::rebuild_secondary_indexes`] garbage-collects them
//! wholesale.

use crate::server::TabletServer;
use crate::spill::SpillableIndex;
use logbase_common::engine::ScanItem;
use logbase_common::{Error, Result, RowKey, Timestamp, Value};
use logbase_index::MultiVersionIndex;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Extracts the secondary key from a record payload. Returning `None`
/// leaves the record out of the index (sparse index semantics).
pub type KeyExtractor = Arc<dyn Fn(&Value) -> Option<RowKey> + Send + Sync>;

/// One registered secondary index.
pub struct SecondaryIndex {
    /// Index name (unique per `(table, cg)`).
    pub name: String,
    extractor: KeyExtractor,
    /// `(attr ++ 0x00 ++ pk, version) → ptr` entries.
    entries: MultiVersionIndex,
}

fn composite(attr: &[u8], pk: &[u8]) -> Vec<u8> {
    [attr, &[0], pk].concat()
}

fn split_composite(key: &[u8]) -> Option<(&[u8], &[u8])> {
    let pos = key.iter().position(|b| *b == 0)?;
    Some((&key[..pos], &key[pos + 1..]))
}

impl SecondaryIndex {
    /// Record a version in the index.
    pub fn insert(&self, pk: &RowKey, ts: Timestamp, value: &Value, ptr: logbase_common::LogPtr) {
        if let Some(attr) = (self.extractor)(value) {
            self.entries.insert(composite(&attr, pk), ts, ptr);
        }
    }

    /// Drop every entry for `pk` (delete path) — requires scanning the
    /// index, so deletes of secondary-indexed tables cost O(index);
    /// instead we tombstone lazily: entries are verified at lookup time,
    /// so this is a no-op kept for interface clarity.
    pub fn on_delete(&self, _pk: &RowKey) {}

    /// Number of `(composite, version)` entries (including stale ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }
}

/// Indexes registered on one `(table, column group)`.
type IndexList = Vec<Arc<SecondaryIndex>>;

/// Registry of secondary indexes per `(table, column group)`.
#[derive(Default)]
pub struct SecondaryRegistry {
    indexes: RwLock<HashMap<(String, u16), IndexList>>,
}

impl SecondaryRegistry {
    /// Indexes registered for `(table, cg)`.
    pub fn of(&self, table: &str, cg: u16) -> Vec<Arc<SecondaryIndex>> {
        self.indexes
            .read()
            .get(&(table.to_string(), cg))
            .cloned()
            .unwrap_or_default()
    }

    fn add(&self, table: &str, cg: u16, index: Arc<SecondaryIndex>) -> Result<()> {
        let mut map = self.indexes.write();
        let list = map.entry((table.to_string(), cg)).or_default();
        if list.iter().any(|i| i.name == index.name) {
            return Err(Error::Schema(format!(
                "secondary index {} already exists on {table}/{cg}",
                index.name
            )));
        }
        list.push(index);
        Ok(())
    }

    fn get(&self, table: &str, cg: u16, name: &str) -> Result<Arc<SecondaryIndex>> {
        self.of(table, cg)
            .into_iter()
            .find(|i| i.name == name)
            .ok_or_else(|| Error::Schema(format!("no secondary index {name} on {table}/{cg}")))
    }
}

impl TabletServer {
    /// Create a secondary index on `(table, cg)` and backfill it from
    /// the current primary-index state. The index is in-memory only;
    /// call this again after [`TabletServer::open`] to rebuild it.
    pub fn create_secondary_index(
        &self,
        table: &str,
        cg: u16,
        name: impl Into<String>,
        extractor: KeyExtractor,
    ) -> Result<()> {
        let index = Arc::new(SecondaryIndex {
            name: name.into(),
            extractor,
            entries: MultiVersionIndex::new(),
        });
        self.secondary().add(table, cg, Arc::clone(&index))?;
        self.backfill_secondary(table, cg, &index)
    }

    fn backfill_secondary(&self, table: &str, cg: u16, index: &SecondaryIndex) -> Result<()> {
        let table_state = self.table(table)?;
        for tablet in table_state.tablets_snapshot() {
            let primary: &Arc<SpillableIndex> = tablet.index(cg)?;
            for entry in primary.range_latest_at(
                &logbase_common::schema::KeyRange::all(),
                Timestamp::MAX,
                usize::MAX,
            )? {
                let record = logbase_wal::read_entry_in(
                    self.dfs(),
                    &self.resolve_segment(entry.ptr.segment),
                    entry.ptr,
                )?;
                if let Some((rec, _, _)) = record.as_write() {
                    if let Some(v) = &rec.value {
                        index.insert(&entry.key, entry.ts, v, entry.ptr);
                    }
                }
            }
        }
        Ok(())
    }

    /// Look up records whose indexed attribute equals `attr`, verified
    /// against the primary index (stale entries filtered). Results are
    /// in primary-key order.
    pub fn lookup_secondary(
        &self,
        table: &str,
        cg: u16,
        index_name: &str,
        attr: &[u8],
    ) -> Result<Vec<ScanItem>> {
        let index = self.secondary().get(table, cg, index_name)?;
        let table_state = self.table(table)?;
        // Prefix scan over [attr ++ 0x00, attr ++ 0x01).
        let mut start = attr.to_vec();
        start.push(0);
        let mut end = attr.to_vec();
        end.push(1);
        let hits = index.entries.range_latest_at(
            &logbase_common::schema::KeyRange::new(RowKey::from(start), RowKey::from(end)),
            Timestamp::MAX,
            usize::MAX,
        );
        let mut out = Vec::new();
        for hit in hits {
            let Some((_, pk)) = split_composite(&hit.key) else {
                continue;
            };
            // Verify: is this version still the record's visible one?
            let tablet = table_state.route(pk)?;
            let current = tablet.index(cg)?.latest(pk)?;
            if current.map(|vp| vp.ts) != Some(hit.ts) {
                continue; // stale (record updated or deleted since)
            }
            let entry = logbase_wal::read_entry_in(
                self.dfs(),
                &self.resolve_segment(hit.ptr.segment),
                hit.ptr,
            )?;
            if let Some((rec, _, _)) = entry.as_write() {
                if let Some(v) = rec.value.clone() {
                    out.push((RowKey::copy_from_slice(pk), hit.ts, v));
                }
            }
        }
        Ok(out)
    }

    /// Drop and rebuild every secondary index of `(table, cg)` from the
    /// primary index (garbage-collects stale entries).
    pub fn rebuild_secondary_indexes(&self, table: &str, cg: u16) -> Result<()> {
        for index in self.secondary().of(table, cg) {
            index.entries.clear();
            self.backfill_secondary(table, cg, &index)?;
        }
        Ok(())
    }
}
