//! A restarted server holds an index, not its log: recovery (checkpoint
//! reload + redo of the tail, §3.8) must release the index file and the
//! 256 KiB log read windows it decoded the keys from. Measured with a
//! counting allocator; `open` loads and redoes on the calling thread.

use logbase::{ServerConfig, TabletServer};
use logbase_common::schema::TableSchema;
use logbase_common::{RowKey, Value};
use logbase_dfs::{Dfs, DfsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counter
// is a const-initialised thread-local without destructor, so touching it
// neither allocates nor fails during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|c| c.set(c.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|c| c.set(c.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn open_keeps_the_index_and_lets_go_of_the_log() {
    const PUTS: u64 = 8192; // of 1 KiB: an 8 MiB log
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = TabletServer::create(dfs.clone(), ServerConfig::new("srv")).unwrap();
        s.create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        let value = Value::from(vec![7u8; 1024]);
        for i in 0..PUTS {
            let key = RowKey::copy_from_slice(format!("user{i:012}").as_bytes());
            s.put("t", 0, key, value.clone()).unwrap();
            if i == PUTS / 2 {
                // First half comes back from an index file, the rest is redone.
                s.checkpoint().unwrap();
            }
        }
    }
    let before = LIVE.with(Cell::get);
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    let held = LIVE.with(Cell::get) - before;
    let entries = s.stats().index_entries;
    assert_eq!(entries, PUTS);
    let budget = 200 * entries as isize + (1 << 20);
    assert!(
        held < budget,
        "open() left {held} B live for {entries} index entries (budget {budget})"
    );
    println!("open() left {held} B live for {entries} index entries");
}
