//! What the index costs in memory, measured with a counting allocator:
//! it owns exact-size copies of its keys (nothing it was handed stays
//! pinned), `IndexStats::approx_bytes` follows the measured heap, and
//! point probes allocate nothing.

use bytes::Bytes;
use logbase_common::{LogPtr, Timestamp};
use logbase_index::MultiVersionIndex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocations this thread made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts per thread, so tests running side by side (and the harness
/// thread) do not see each other.
struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counters
// are const-initialised thread-locals without destructors, so touching
// them neither allocates nor fails during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + layout.size() as isize));
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

const KEYS: u64 = 20_000;

/// 8-byte key `i` of `KEYS`, in an order that is not sorted.
fn scattered(i: u64) -> [u8; 8] {
    ((i * 2_654_435_761) % KEYS).to_be_bytes()
}

fn ptr(i: u64) -> LogPtr {
    LogPtr::new((i >> 16) as u32, i * 1100, 1100)
}

#[test]
fn keys_are_copied_out_of_the_buffers_they_arrive_in() {
    const VERSIONS: u64 = 100_000;
    let before = live();
    let index = MultiVersionIndex::new();
    // What the wire and recovery paths hand over: views into large shared
    // buffers (a request frame, a 256 KiB read window).
    const PER_BUFFER: u64 = 128;
    for base in (0..VERSIONS).step_by(PER_BUFFER as usize) {
        let mut buffer = vec![0u8; 64 * 1024];
        for (i, slot) in (base..VERSIONS).zip(buffer.chunks_exact_mut(512)) {
            slot[..8].copy_from_slice(&scattered(i));
        }
        let buffer = Bytes::from(buffer);
        for (i, at) in (base..VERSIONS).zip((0..buffer.len()).step_by(512)) {
            index.insert(buffer.slice(at..at + 8), Timestamp(i + 1), ptr(i));
        }
    }
    let held = (live() - before) as u64;
    let stats = index.stats();
    assert_eq!((stats.entries, stats.keys), (VERSIONS, KEYS));
    // 24 B a version with doubling slack; a key's 8 bytes, its slot in a
    // half-full B-tree node and the inner nodes above it.
    let budget = 48 * VERSIONS + 200 * KEYS;
    assert!(
        held <= budget,
        "index holds {held} B for {VERSIONS} versions of {KEYS} keys (budget {budget})"
    );
    println!(
        "{} B per version, {} versions per key",
        held / VERSIONS,
        VERSIONS / KEYS
    );
}

#[test]
fn approx_bytes_follows_the_measured_heap() {
    for versions_per_key in [1u64, 5, 50] {
        let before = live();
        let index = MultiVersionIndex::new();
        for i in 0..KEYS * versions_per_key {
            index.insert(scattered(i), Timestamp(i + 1), ptr(i));
        }
        let held = (live() - before) as f64;
        let accounted = index.stats().approx_bytes as f64;
        println!(
            "{versions_per_key} versions per key: {:.1} B per key measured, {:.1} accounted",
            held / KEYS as f64,
            accounted / KEYS as f64
        );
        assert!(
            (accounted / held - 1.0).abs() <= 0.25,
            "{versions_per_key} versions per key: accounted {accounted} B, measured {held} B"
        );
    }
}

#[test]
fn point_probes_do_not_allocate() {
    let index = MultiVersionIndex::new();
    for i in 0..3 * KEYS {
        index.insert(scattered(i), Timestamp(i + 1), ptr(i));
    }
    let key = scattered(7);
    let before = ALLOCS.with(Cell::get);
    assert!(index.latest(&key).is_some());
    assert!(index.latest_at(&key, Timestamp(KEYS + 8)).is_some());
    assert!(index.get_version(&key, Timestamp(8)).is_some());
    assert!(!index.remove_version(&key, Timestamp(9)));
    assert!(index.latest(b"absent").is_none());
    assert_eq!(ALLOCS.with(Cell::get), before);
}
