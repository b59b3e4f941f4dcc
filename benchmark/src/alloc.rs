//! A counting global allocator for the traced run's `heap.*` metrics.
//!
//! The binary installs [`CountingAlloc`] always, so both kinds of run
//! execute the same allocator code; the counters advance only while
//! [`set_counting`] is on, which only the traced run does, one pass at a
//! time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus counters.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
    }
}

fn on_free(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        // Blocks allocated before the window opened are freed inside it;
        // saturate instead of wrapping below zero.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
            Some(live.saturating_sub(size as u64))
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates atomics besides, so `System`'s guarantees carry
// over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapCounters {
    /// Allocations (including the growing half of every `realloc`).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
    /// Largest amount, over all counting windows, of bytes allocated since
    /// a window opened and not yet freed.
    pub peak_live: u64,
}

/// Opens (`true`) or closes a counting window. Opening one restarts the
/// live-bytes count, so what one window leaves allocated is not carried
/// into the next.
pub fn set_counting(on: bool) {
    if on {
        LIVE.store(0, Ordering::Relaxed);
    }
    COUNTING.store(on, Ordering::Relaxed);
}

/// Reads the counters.
pub fn counters() -> HeapCounters {
    HeapCounters {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        peak_live: PEAK_LIVE.load(Ordering::Relaxed),
    }
}
