//! The sampler: `setitimer(ITIMER_PROF)` and a SIGPROF handler that stores
//! the interrupted instruction pointer and does nothing else — no
//! allocation, no lock, one atomic add and one atomic store.
//!
//! `ITIMER_PROF` counts the CPU time of every thread of the process, so both
//! the benchmark's client and its serving thread are sampled. The kernel
//! rounds the interval up to its tick: asked for 1 kHz, a 250 Hz kernel
//! samples at about 250 Hz.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
compile_error!("the sampler reads the x86-64 glibc ucontext_t layout");

/// Samples kept at most: about 17 minutes of CPU time at 250 Hz (2 MB).
const CAPACITY: usize = 1 << 18;

static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
static TAKEN: AtomicUsize = AtomicUsize::new(0);

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
/// Restart a system call the signal interrupted, so the program under
/// test sees no `EINTR` it would not see unsampled.
const SA_RESTART: i32 = 0x1000_0000;
/// Offset of the saved instruction pointer in a `ucontext_t` on x86-64
/// glibc: `uc_mcontext.gregs[REG_RIP]`, after `uc_flags`, `uc_link` and the
/// 24-byte `uc_stack`, at 40 + 16 × 8.
const UCONTEXT_RIP: usize = 168;

/// `struct sigaction` of x86-64 glibc.
#[repr(C)]
struct SigAction {
    sa_sigaction: usize,
    sa_mask: [u64; 16],
    sa_flags: i32,
    sa_restorer: usize,
}

#[derive(Clone, Copy)]
#[repr(C)]
struct TimeVal {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct ITimerVal {
    it_interval: TimeVal,
    it_value: TimeVal,
}

extern "C" {
    fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

extern "C" fn on_sigprof(_signal: i32, _info: *mut u8, context: *mut u8) {
    // SAFETY: with SA_SIGINFO the kernel passes the interrupted thread's
    // `ucontext_t`, which holds the saved instruction pointer at
    // `UCONTEXT_RIP`.
    let rip = unsafe { context.add(UCONTEXT_RIP).cast::<u64>().read_unaligned() };
    let i = TAKEN.fetch_add(1, Ordering::Relaxed);
    if let Some(slot) = SAMPLES.get(i) {
        slot.store(rip, Ordering::Relaxed);
    }
}

fn set_timer(interval_us: i64) -> Result<(), String> {
    let tick = TimeVal {
        tv_sec: 0,
        tv_usec: interval_us,
    };
    let timer = ITimerVal {
        it_interval: tick,
        it_value: tick,
    };
    // SAFETY: `timer` is a valid `itimerval`; the old value is not asked for.
    if unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) } != 0 {
        return Err(format!("setitimer: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Installs the handler and starts the timer at one sample every
/// `interval_us` microseconds of CPU time (as the kernel rounds it).
pub fn start(interval_us: i64) -> Result<(), String> {
    let action = SigAction {
        sa_sigaction: on_sigprof as extern "C" fn(i32, *mut u8, *mut u8) as usize,
        sa_mask: [0; 16],
        sa_flags: SA_SIGINFO | SA_RESTART,
        sa_restorer: 0,
    };
    // SAFETY: `action` is a valid `struct sigaction` whose handler only
    // touches atomics; the old action is not asked for.
    if unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) } != 0 {
        return Err(format!("sigaction: {}", std::io::Error::last_os_error()));
    }
    TAKEN.store(0, Ordering::Relaxed);
    set_timer(interval_us)
}

/// Stops the timer. Returns the samples taken and how many did not fit.
/// The handler stays installed: a tick still pending when the timer stops
/// finds it there, and the process keeps no default action that would end
/// it.
pub fn stop() -> Result<(Vec<u64>, usize), String> {
    set_timer(0)?;
    let taken = TAKEN.load(Ordering::Relaxed);
    let kept = taken.min(CAPACITY);
    let samples = SAMPLES[..kept]
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    Ok((samples, taken - kept))
}
