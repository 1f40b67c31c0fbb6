//! In-memory multiversion indexes over the log (paper §3.5).
//!
//! Tablet servers build one index per column group of each tablet. An
//! index entry is `<IdxKey, Ptr>`:
//!
//! - `IdxKey` — the record's primary key (prefix) concatenated with the
//!   write timestamp (suffix), so all versions of a key cluster together
//!   and "latest" / "latest before t" queries are range probes;
//! - `Ptr` — `(file number, offset, record size)` into the log.
//!
//! The paper implements the index as a B-link tree; the operational
//! properties the rest of the system needs are *ordered iteration*,
//! *prefix probes* and *concurrent readers*. [`MultiVersionIndex`] here is
//! a reader-writer-locked B-tree with the same interface semantics (range
//! search + concurrency), trading the paper's latch-free splits for
//! simplicity: at tablet scale the lock is uncontended off the write path
//! because writes already serialize on the log append. It stores the
//! composite key factored: each distinct key once, owned by the index,
//! mapped to its timestamp-ordered chain of 24-byte `(ts, Ptr)` versions
//! — same order, same probes, no key bytes repeated per version and no
//! borrowed buffer kept alive. [`BlinkTree`] keeps the flat composite-key
//! layout and serves as the reference structure in the differential
//! tests.
//!
//! Index persistence (checkpoint files, §3.8) lives in [`persist`]:
//! a snapshot is written to a DFS index file and reloaded at restart.

pub mod blink;
mod mvindex;
pub mod persist;

pub use blink::BlinkTree;
pub use mvindex::{IndexEntry, IndexStats, MultiVersionIndex, VersionedPtr};
