//! Peak-memory audit of CSR construction: `Csr::from_lists` must not
//! double-buffer the adjacency. It frees each input list as soon as its run
//! is copied into the exact-sized flat array, so the allocation high-water
//! mark *above the already-live input* is one output copy — not input plus a
//! staged clone plus the output, the way a clone-and-collect implementation
//! peaks. A live-bytes watermark allocator measures exactly that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trinity_sim::compact::CompactCsr;
use trinity_sim::csr::Csr;
use trinity_sim::ids::VertexId;

struct PeakAllocator;

thread_local! {
    // Per thread: cargo runs this file's tests on parallel threads, and each
    // test allocates and frees its data on its own thread, so a process-wide
    // watermark would charge a test with its neighbours' megabytes.
    // Const-initialized and without destructors, so touching them from
    // inside the allocator neither allocates nor meets a torn-down slot.
    // Signed: a thread may free a block another thread allocated.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.get() + size as i64;
    LIVE_BYTES.set(live);
    PEAK_BYTES.set(PEAK_BYTES.get().max(live));
}

fn note_free(size: usize) {
    LIVE_BYTES.set(LIVE_BYTES.get() - size as i64);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The old block is live until the copy completes, so count the new
        // block in full before subtracting the old one.
        note_alloc(new_size);
        note_free(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// Runs `f` and returns the calling thread's allocation high-water mark
/// *above* the bytes it held live at entry, plus the result.
fn peak_above_baseline<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let baseline = LIVE_BYTES.get();
    PEAK_BYTES.set(baseline);
    let result = f();
    let peak = (PEAK_BYTES.get() - baseline).max(0) as u64;
    (peak, result)
}

const N: usize = 10_000;
const DEG: u64 = 16;

/// Exact-capacity adjacency lists: `N` vertices of degree `DEG`.
fn adjacency_lists() -> Vec<Vec<VertexId>> {
    (0..N as u64)
        .map(|v| {
            let mut l = Vec::with_capacity(DEG as usize);
            for k in 0..DEG {
                l.push(VertexId((v + 1 + k * 37) % (10 * N as u64)));
            }
            l
        })
        .collect()
}

#[test]
fn from_lists_does_not_double_buffer() {
    let lists = adjacency_lists();
    let entries: usize = lists.iter().map(|l| l.len()).sum();
    let (peak, csr) = peak_above_baseline(|| Csr::from_lists(lists));
    assert_eq!(csr.num_vertices(), N);
    // Above the live input, from_lists may allocate the offsets array and
    // the exact-sized flat neighbor array — nothing else. A staged second
    // copy of the adjacency would show up as ~2x this bound.
    let output_bytes = (entries * 8 + (N + 1) * 8) as u64;
    assert!(
        peak <= output_bytes + (64 << 10),
        "from_lists peaked {peak} bytes above baseline for {entries} entries \
         (output is {output_bytes} bytes) — the adjacency is being staged twice"
    );
}

#[test]
fn clone_and_collect_reference_exceeds_the_bound() {
    // The contrast proving the watermark measures what it claims: collecting
    // a flat copy while the input is still alive holds input + copy
    // simultaneously, which is exactly the peak from_lists avoids.
    let lists = adjacency_lists();
    let entries: usize = lists.iter().map(|l| l.len()).sum();
    let (peak, flat) = peak_above_baseline(|| {
        let flat: Vec<VertexId> = lists.iter().flatten().copied().collect();
        drop(lists);
        flat
    });
    assert_eq!(flat.len(), entries);
    let output_bytes = (entries * 8) as u64;
    assert!(
        peak >= output_bytes,
        "staged copy must add at least one full output ({output_bytes} bytes), got {peak}"
    );
}

#[test]
fn compact_csr_build_stays_within_the_plain_bound() {
    // The compact encoder consumes the same input and must obey the same
    // no-double-buffering discipline; its transient peak is bounded by the
    // plain output size even though its final footprint is far smaller.
    let lists = adjacency_lists();
    let entries: usize = lists.iter().map(|l| l.len()).sum();
    let (peak, csr) = peak_above_baseline(|| CompactCsr::from_lists(lists));
    let plain_output = (entries * 8 + (N + 1) * 8) as u64;
    assert!(
        peak <= plain_output + (64 << 10),
        "compact build peaked {peak} bytes above baseline (plain output is {plain_output})"
    );
    assert!(
        csr.memory_bytes() < entries * 8 / 2,
        "compact encoding should be well under half the plain 8 B/entry"
    );
}
