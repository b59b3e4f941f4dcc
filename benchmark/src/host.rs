//! What the benchmark asks of the host: its two threads on one processor and
//! a clean memory high-water mark. Everything here is best effort — on a
//! host that refuses, the run goes on unpinned or with a less telling
//! `peak_rss_mb`.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn malloc_trim(pad: usize) -> i32;
}

/// Pins the calling thread — and every thread it spawns later, which
/// inherit the mask — to the first processor this process may run on. Called
/// once, before a run starts, so client and server thread share it.
///
/// The loop has one request in flight, so the two threads alternate and one
/// processor loses nothing. Left to the scheduler they land on one processor
/// or on two, and across two a hand-off is an inter-processor wake-up whose
/// cost on a virtual machine swings with the hypervisor's idle polling
/// (row streaming measured 0.21 or 0.45 ms per request depending on where
/// the threads landed). Pinned apart they are steady only while the host has
/// two processors to give: this VM gives two busy threads about 1.6, and the
/// streaming workloads, where both are busy at once, lost a quarter of their
/// throughput in one set of runs and not in the next.
pub fn pin_to_first_processor() {
    let mut allowed = 0u64;
    // SAFETY: pid 0 is the calling thread; `allowed` is 8 writable bytes and
    // the size passed says so.
    if unsafe { sched_getaffinity(0, 8, &mut allowed) } != 0 || allowed == 0 {
        return;
    }
    let mask = 1u64 << allowed.trailing_zeros();
    // SAFETY: pid 0 is the calling thread; `mask` is 8 readable bytes and
    // the size passed says so. A refusal leaves the thread where it was.
    unsafe { sched_setaffinity(0, 8, &mask) };
}

/// Hands freed memory back to the system and restarts the process's
/// resident-set high-water mark, so that what [`peak_rss_mb`] reports later
/// is the peak of the phase that follows — the system under test at work —
/// and not of input generation and reference checking before.
pub fn forget_memory_so_far() {
    // SAFETY: `malloc_trim` only releases memory the allocator holds free.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0)
    };
    // Writing 5 resets VmHWM (Linux ≥ 4.0); a read-only /proc just fails.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB (`VmHWM`), since the last
/// [`forget_memory_so_far`] that the host honoured.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
