//! What a replica append and a block read cost in system calls, counted
//! by the kernel (`/proc/self/io`), not timed: a count repeats exactly
//! where a microsecond figure on a shared host does not.
//!
//! This binary holds exactly one test so that the process-wide counters
//! are its alone (CI runs it with `--test-threads=1` for the same reason).

use logbase_dfs::{DataNode, FaultInjector, StorageBackend};
use std::sync::Arc;

/// `(syscr, syscw)`: read-like and write-like system calls this process
/// has made so far. `None` where the kernel does not expose them.
fn io_syscalls() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/io").ok()?;
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<u64>().ok())
    };
    Some((field("syscr:")?, field("syscw:")?))
}

#[test]
fn replica_append_is_two_writes_and_a_block_read_is_one_read() {
    const APPENDS: u64 = 1000;
    const ENTRY: usize = 1085; // a framed 1 KiB put

    let dir = tempfile::tempdir().unwrap();
    let node = DataNode::new(
        0,
        0,
        &StorageBackend::Disk(dir.path().to_path_buf()),
        Arc::new(FaultInjector::disabled()),
    )
    .unwrap();
    let entry = vec![0xA5u8; ENTRY];

    let Some(a) = io_syscalls() else {
        eprintln!("skipped: /proc/self/io is not available on this host");
        return;
    };
    // Taking a snapshot reads a file: measure that, and subtract it.
    let b = io_syscalls().unwrap();
    let (snap_r, snap_w) = (b.0 - a.0, b.1 - a.1);

    for i in 0..APPENDS {
        assert_eq!(
            node.append_block(1, &entry).unwrap(),
            (i + 1) * ENTRY as u64
        );
    }
    let c = io_syscalls().unwrap();
    let (reads, writes) = (c.0 - b.0 - snap_r, c.1 - b.1 - snap_w);
    assert_eq!(reads, 0, "an append must not read anything back");
    assert!(
        writes <= 2 * APPENDS + 1,
        "{writes} write syscalls for {APPENDS} appends: more than data + sums each"
    );

    for i in 0..APPENDS {
        let got = node.read_block(1, i * ENTRY as u64, ENTRY).unwrap();
        assert_eq!(got.len(), ENTRY);
    }
    let d = io_syscalls().unwrap();
    let (reads, writes) = (d.0 - c.0 - snap_r, d.1 - c.1 - snap_w);
    assert_eq!(reads, APPENDS, "a block read is one positional read");
    assert_eq!(writes, 0);

    // The length is answered from memory.
    assert_eq!(node.block_len(1).unwrap(), APPENDS * ENTRY as u64);
    let e = io_syscalls().unwrap();
    assert_eq!((e.0 - d.0 - snap_r, e.1 - d.1 - snap_w), (0, 0));
}
