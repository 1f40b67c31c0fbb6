//! Table schemas, column groups and partitioning vocabulary (paper §3.1–3.2).
//!
//! LogBase keeps the relational model but stores each *column group* — a
//! set of columns frequently accessed together — in its own physical
//! partition. Tables are further split horizontally into key-range
//! *tablets*. This module defines the metadata for both dimensions; the
//! workload-driven algorithm that picks good column groups lives in the
//! core crate (`logbase::partition`).

use crate::error::{Error, Result};
use crate::types::RowKey;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a column group within a table (dense, assigned in schema
/// order).
pub type ColumnGroupId = u16;

/// One column of a table schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name, unique within the table.
    pub name: String,
}

/// A named set of columns stored together (§3.2).
///
/// Every column group implicitly embeds the primary key, so a tuple can be
/// reconstructed by point lookups in each group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnGroup {
    /// Dense identifier within the table.
    pub id: ColumnGroupId,
    /// Group name (defaults to the concatenated column names).
    pub name: String,
    /// Member columns.
    pub columns: Vec<Column>,
}

/// A table schema: name plus its vertical partitioning into column groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableSchema {
    /// Table name, unique within the database.
    pub name: String,
    /// Column groups in id order.
    pub column_groups: Vec<ColumnGroup>,
}

impl TableSchema {
    /// Build a schema with a single default column group holding all
    /// columns — the layout used when no workload trace is available.
    pub fn single_group(table: impl Into<String>, columns: &[&str]) -> Self {
        let name = table.into();
        TableSchema {
            column_groups: vec![ColumnGroup {
                id: 0,
                name: "default".to_string(),
                columns: columns
                    .iter()
                    .map(|c| Column {
                        name: (*c).to_string(),
                    })
                    .collect(),
            }],
            name,
        }
    }

    /// Build a schema from explicit `(group name, columns)` pairs.
    pub fn with_groups(table: impl Into<String>, groups: &[(&str, &[&str])]) -> Self {
        TableSchema {
            name: table.into(),
            column_groups: groups
                .iter()
                .enumerate()
                .map(|(i, (gname, cols))| ColumnGroup {
                    id: i as ColumnGroupId,
                    name: (*gname).to_string(),
                    columns: cols
                        .iter()
                        .map(|c| Column {
                            name: (*c).to_string(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Look up a column group by name.
    pub fn group_by_name(&self, name: &str) -> Option<&ColumnGroup> {
        self.column_groups.iter().find(|g| g.name == name)
    }

    /// Look up the column group containing `column`.
    pub fn group_of_column(&self, column: &str) -> Option<&ColumnGroup> {
        self.column_groups
            .iter()
            .find(|g| g.columns.iter().any(|c| c.name == column))
    }

    /// Validate: group ids dense and in order, no column in two groups.
    pub fn validate(&self) -> Result<()> {
        let mut seen = std::collections::BTreeSet::new();
        for (i, g) in self.column_groups.iter().enumerate() {
            if g.id as usize != i {
                return Err(Error::Schema(format!(
                    "table {}: column group ids must be dense, got {} at position {i}",
                    self.name, g.id
                )));
            }
            for c in &g.columns {
                if !seen.insert(c.name.clone()) {
                    return Err(Error::Schema(format!(
                        "table {}: column {} appears in more than one group",
                        self.name, c.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Identifier of a tablet: table plus a dense index of its key range.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TabletId {
    /// Owning table.
    pub table: String,
    /// Index of the key range within the table's horizontal partitioning.
    pub range_index: u32,
}

impl fmt::Display for TabletId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.table, self.range_index)
    }
}

/// A half-open key range `[start, end)`; `end == None` means unbounded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound; empty means unbounded below.
    pub start: RowKey,
    /// Exclusive upper bound; `None` means unbounded above.
    pub end: Option<RowKey>,
}

impl KeyRange {
    /// The range covering the whole key space.
    pub fn all() -> Self {
        KeyRange {
            start: RowKey::new(),
            end: None,
        }
    }

    /// Bounded range `[start, end)`.
    pub fn new(start: impl Into<RowKey>, end: impl Into<RowKey>) -> Self {
        KeyRange {
            start: start.into(),
            end: Some(end.into()),
        }
    }

    /// True when `key` falls inside the range.
    pub fn contains(&self, key: &[u8]) -> bool {
        if key < &self.start[..] {
            return false;
        }
        match &self.end {
            Some(end) => key < &end[..],
            None => true,
        }
    }

    /// The keys in both `self` and `other` (possibly an empty range).
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        let start = (&self.start).max(&other.start).clone();
        let end = match (&self.end, &other.end) {
            (Some(x), Some(y)) => Some(x.min(y).clone()),
            (x, y) => x.as_ref().or(y.as_ref()).cloned(),
        };
        KeyRange { start, end }
    }

    /// True when the range is empty (`end <= start`).
    pub fn is_empty(&self) -> bool {
        match &self.end {
            Some(end) => end[..] <= self.start[..],
            None => false,
        }
    }
}

/// A tablet: a key range of one table, the unit of assignment to servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TabletDesc {
    /// Identity of the tablet.
    pub id: TabletId,
    /// Key range served.
    pub range: KeyRange,
}

/// Split the whole key space of `table` into `n` contiguous tablets using
/// the key distribution hint `max_key` (keys are big-endian u64 strings in
/// the benchmark workloads; arbitrary byte keys still route correctly, the
/// split points are just less balanced).
pub fn split_uniform(table: &str, n: u32, max_key: u64) -> Vec<TabletDesc> {
    assert!(n > 0, "cannot split a table into zero tablets");
    let stride = max_key / u64::from(n);
    let mut tablets = Vec::with_capacity(n as usize);
    for i in 0..n {
        let start = if i == 0 {
            RowKey::new()
        } else {
            RowKey::copy_from_slice(&(u64::from(i) * stride).to_be_bytes())
        };
        let end = if i == n - 1 {
            None
        } else {
            Some(RowKey::copy_from_slice(
                &(u64::from(i + 1) * stride).to_be_bytes(),
            ))
        };
        tablets.push(TabletDesc {
            id: TabletId {
                table: table.to_string(),
                range_index: i,
            },
            range: KeyRange { start, end },
        });
    }
    tablets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_takes_the_tighter_bound_on_each_side() {
        let bounded = KeyRange::new(&b"c"[..], &b"m"[..]);
        let tail = KeyRange {
            start: RowKey::from_static(b"h"),
            end: None,
        };
        assert_eq!(bounded.intersect(&KeyRange::all()), bounded);
        assert_eq!(KeyRange::all().intersect(&tail), tail);
        assert_eq!(
            bounded.intersect(&tail),
            KeyRange::new(&b"h"[..], &b"m"[..])
        );
        assert_eq!(tail.intersect(&bounded), bounded.intersect(&tail));
        // Disjoint ranges meet in an empty one.
        assert!(bounded
            .intersect(&KeyRange::new(&b"m"[..], &b"z"[..]))
            .is_empty());
    }

    #[test]
    fn single_group_schema() {
        let s = TableSchema::single_group("users", &["name", "email"]);
        assert_eq!(s.column_groups.len(), 1);
        assert_eq!(s.group_by_name("default").unwrap().columns.len(), 2);
        s.validate().unwrap();
    }

    #[test]
    fn multi_group_lookup() {
        let s = TableSchema::with_groups(
            "item",
            &[("meta", &["title", "author"]), ("stock", &["qty", "price"])],
        );
        assert_eq!(s.group_of_column("qty").unwrap().name, "stock");
        assert_eq!(s.group_of_column("title").unwrap().id, 0);
        assert!(s.group_of_column("missing").is_none());
        s.validate().unwrap();
    }

    #[test]
    fn validate_rejects_duplicate_columns() {
        let s = TableSchema::with_groups("t", &[("a", &["x"]), ("b", &["x"])]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_rejects_sparse_ids() {
        let mut s = TableSchema::single_group("t", &["x"]);
        s.column_groups[0].id = 3;
        assert!(s.validate().is_err());
    }

    #[test]
    fn key_range_contains() {
        let r = KeyRange::new(&b"b"[..], &b"d"[..]);
        assert!(!r.contains(b"a"));
        assert!(r.contains(b"b"));
        assert!(r.contains(b"c"));
        assert!(!r.contains(b"d"));
        assert!(!r.is_empty());
        assert!(KeyRange::new(&b"d"[..], &b"d"[..]).is_empty());
        assert!(KeyRange::all().contains(b""));
        assert!(KeyRange::all().contains(b"\xff\xff"));
    }

    #[test]
    fn split_uniform_covers_key_space() {
        let tablets = split_uniform("t", 4, 1 << 32);
        assert_eq!(tablets.len(), 4);
        // Every u64 key must be covered by exactly one tablet.
        for key in [0u64, 1, 1 << 30, 1 << 31, (1 << 32) - 1, 1 << 33] {
            let kb = key.to_be_bytes();
            let n = tablets.iter().filter(|t| t.range.contains(&kb)).count();
            assert_eq!(n, 1, "key {key} covered by {n} tablets");
        }
        // Ranges are contiguous.
        for w in tablets.windows(2) {
            assert_eq!(w[0].range.end.as_ref().unwrap(), &w[1].range.start);
        }
        assert!(tablets.last().unwrap().range.end.is_none());
    }

    #[test]
    fn tablet_id_display() {
        let id = TabletId {
            table: "orders".into(),
            range_index: 2,
        };
        assert_eq!(id.to_string(), "orders/2");
    }
}
