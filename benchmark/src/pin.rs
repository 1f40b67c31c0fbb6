//! Pin the benchmark to one CPU.
//!
//! On the 2-vCPU reference host a wake-up that crosses vCPUs costs more
//! than the second core gives back: `read_cached` ran at 13–18 k ops/s
//! with its threads free to move and at 24–26 k ops/s on one CPU, with a
//! third of the spread between runs. Every thread of the driver and of the
//! host it spawns therefore shares one CPU, the last the process may use.

/// Restrict this process, and every thread and child it starts from now
/// on, to the highest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` where the affinity cannot be read or set (the run goes on
/// unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // 1024 CPUs, the size of glibc's cpu_set_t
    let mut mask = [0u64; WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is all `sched_getaffinity` writes; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut only = [0u64; WORDS];
    only[word] = 1 << bit;
    // SAFETY: `only` is a live buffer of `bytes` bytes that the call only
    // reads.
    if unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_sees_one_cpu_and_its_children_inherit_it() {
        // Each test runs on a thread of its own; only that thread is pinned.
        let cpu = pin_to_one_cpu().expect("affinity can be set");
        let seen = || std::thread::available_parallelism().unwrap().get();
        assert_eq!(seen(), 1);
        assert_eq!(std::thread::spawn(seen).join().unwrap(), 1);
        // Pinning again finds the same, only, CPU.
        assert_eq!(pin_to_one_cpu(), Some(cpu));
    }
}
