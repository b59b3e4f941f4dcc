//! Peak-memory audit of graph loading: `StreamLoader::load` stages a group
//! of machines' adjacency per pass within the bytes one machine's staging
//! would take, so its allocation high-water mark stays within what its own
//! buffers add to the cloud it returns — not the whole graph's staged
//! entries. A live-bytes watermark allocator measures exactly that.
//!
//! The same allocator counts allocations and allocated bytes for the epoch
//! manager's two writes: an `apply` over a large overlay must copy pointers,
//! not the overlay's lists, and a `seal_epoch` must re-encode the merged
//! view into a few flat buffers, not one `Vec` per vertex.
//!
//! It also holds the id index's accounting to the heap: what
//! `IdIndex::build` keeps is what `memory_bytes` reports, so
//! `bytes_per_edge` cannot under-count it, and the label-pair catalog's
//! `memory_bytes` to the heap it keeps (exactly for its bitmaps).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use trinity_sim::cloud::machine_for;
use trinity_sim::cluster_graph::LabelPairCatalog;
use trinity_sim::compact::IdIndex;
use trinity_sim::ids::{LabelId, LabelInterner, VertexId};
use trinity_sim::loader::StreamLoader;
use trinity_sim::{CostModel, GraphBuilder, GraphEpochs, UpdateBatch};

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
    // Allocations (a `realloc` is one) and bytes asked for, never decreasing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.get() + size as i64;
    LIVE_BYTES.set(live);
    PEAK_BYTES.set(PEAK_BYTES.get().max(live));
    ALLOCS.set(ALLOCS.get() + 1);
    ALLOC_BYTES.set(ALLOC_BYTES.get() + size as u64);
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

/// Runs `f` and returns how many allocations the calling thread made and
/// how many bytes they asked for, plus the result.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (allocs, bytes) = (ALLOCS.get(), ALLOC_BYTES.get());
    let result = f();
    (ALLOCS.get() - allocs, ALLOC_BYTES.get() - bytes, result)
}

const N: usize = 10_000;
const DEG: u64 = 16;

const MACHINES: usize = 8;

/// `StreamLoader::load` of `N` vertices, each with `2 * DEG` adjacency
/// entries, over `MACHINES` machines. Its peak above the caller's live bytes
/// is bounded by the heap the returned cloud keeps plus the loader's own
/// buffers:
///
/// ```text
/// kept                   the cloud itself, measured after the load
/// + 48 B × N             pass-1 (id, label) pairs: 16 B each, up to 3×
///                        while a doubling `Vec` reallocates
/// + 4 B × N              the degree counts
/// + 16 B × n_max         one group's run ends and staging, within the
/// + 8 B × e_max          largest machine's two offsets a vertex and one
///                        8-byte id per streamed entry
/// + 64 KB                small fixed buffers and allocator rounding
/// ```
///
/// `n_max` and `e_max` are the largest machine's vertex count and streamed
/// entry count (duplicates included); the loader fills as many machines a
/// pass as fit in those two lines. Its ids are below 2^32, so it stages 4 B
/// an id with one offset a vertex, and two machines fit: the edge factory is
/// called once for degrees and once for each of `MACHINES / 2` groups.
/// Staging every machine in one pass breaks the bound: such a load peaks at
/// 1.9 MB against a 1.4 MB bound.
#[test]
fn stream_load_stages_within_one_machines_bytes() {
    let n = N as u64;
    let edges = || {
        (0..n)
            .flat_map(move |i| (0..DEG).map(move |k| (VertexId(i), VertexId((i + 1 + k * 37) % n))))
    };
    let mut vertices_on = [0usize; MACHINES];
    let mut entries_on = [0usize; MACHINES];
    for i in 0..n {
        vertices_on[machine_for(VertexId(i), MACHINES).index()] += 1;
    }
    for (u, v) in edges() {
        entries_on[machine_for(u, MACHINES).index()] += 1;
        entries_on[machine_for(v, MACHINES).index()] += 1;
    }
    let (n_max, e_max) = (
        vertices_on.iter().max().unwrap(),
        entries_on.iter().max().unwrap(),
    );

    let mut interner = LabelInterner::default();
    for name in ["a", "b", "c", "d"] {
        interner.intern(name);
    }
    let reads = Cell::new(0usize);
    let baseline = LIVE_BYTES.get();
    let (peak, cloud) = peak_above_baseline(|| {
        StreamLoader::new(MACHINES, CostModel::default())
            .load(
                interner,
                (0..n).map(|i| (VertexId(i), LabelId((i % 4) as u32))),
                || {
                    reads.set(reads.get() + 1);
                    edges()
                },
            )
            .unwrap()
    });
    let kept = (LIVE_BYTES.get() - baseline) as usize;
    assert_eq!(cloud.num_edges(), n * DEG);
    assert_eq!(reads.get(), 1 + MACHINES / 2, "edge stream reads");
    let bound = kept + 48 * N + 4 * N + 16 * n_max + 8 * e_max + (64 << 10);
    assert!(
        peak as usize <= bound,
        "the load peaked {peak} B above baseline; its bound is {bound} B \
         (the cloud keeps {kept} B, one machine stages {} B)",
        8 * e_max
    );
}

/// One machine holding a ring lattice: vertex `i` is adjacent to `i ± 1 ..=
/// i ± reach`, so every adjacency list has `2 * reach` entries.
fn ring_epochs(n: u64, reach: u64) -> GraphEpochs {
    let mut b = GraphBuilder::default();
    for i in 0..n {
        b.add_vertex(VertexId(i), if i % 2 == 0 { "even" } else { "odd" });
    }
    for i in 0..n {
        for k in 1..=reach {
            b.add_edge(VertexId(i), VertexId((i + k) % n));
        }
    }
    GraphEpochs::new(b.build(1, CostModel::default()))
}

#[test]
fn epoch_apply_over_a_large_overlay_copies_no_list() {
    // 4,096 touched vertices — every vertex gains the chord to its antipode
    // — then one more edge. What that last batch allocates may grow with the
    // number of overlay entries (the successor's map of pointers) and with
    // the two lists it merges, but not with the length of the 4,094 lists it
    // leaves alone: short (2 entries) and long (64) must cost the same.
    const TOUCHED: u64 = 4_096;
    let one_more_edge = |reach: u64| {
        let epochs = ring_epochs(TOUCHED, reach);
        let mut chords = UpdateBatch::new();
        for i in 0..TOUCHED / 2 {
            chords = chords.add_edge(VertexId(i), VertexId(i + TOUCHED / 2));
        }
        epochs.apply(&chords).unwrap();
        let batch = UpdateBatch::new().add_edge(VertexId(0), VertexId(1_000));
        let (_, bytes, epoch) = allocations_of(|| epochs.apply(&batch).unwrap());
        assert_eq!(epoch, 2);
        bytes
    };
    let (short, long) = (one_more_edge(1), one_more_edge(32));
    assert!(
        short < (1 << 20),
        "a 1-op batch over 4,096 overlay entries allocated {short} bytes"
    );
    assert!(
        long < short + (16 << 10),
        "lists 32x longer cost {long} bytes against {short}: \
         the overlay's untouched lists are being copied"
    );
}

#[test]
fn epoch_seal_re_encodes_into_a_few_flat_buffers() {
    let epochs = ring_epochs(N as u64, DEG / 2);
    epochs
        .apply(
            &UpdateBatch::new()
                .add_vertex(VertexId(N as u64), "odd")
                .add_edge(VertexId(N as u64), VertexId(7))
                .remove_vertex(VertexId(100))
                .remove_edge(VertexId(5_000), VertexId(5_001)),
        )
        .unwrap();
    let (allocs, _, _) = allocations_of(|| epochs.seal_epoch());
    let sealed = epochs.pin();
    assert_eq!(sealed.num_vertices(), N as u64);
    assert!(!sealed.partition(trinity_sim::MachineId(0)).has_overlay());
    assert!(
        allocs < 200,
        "sealing a {N}-vertex partition made {allocs} allocations — \
         one per vertex is the rebuild this replaced"
    );
}

#[test]
fn id_index_keeps_exactly_the_heap_it_reports() {
    // One residue class of a range (the range alone), the same with one id
    // removed (the rank bitmap), and ids no bitmap can hold (the id array
    // plus its hash slots). The input arrives with spare capacity, which the
    // index must not keep.
    let full = |i: u64| i * 4 + 1;
    let holed = |i: u64| if i < 100 { i * 4 + 1 } else { (i + 1) * 4 + 1 };
    let sparse = |i: u64| i * 1_000_003 + i % 7;
    for (name, id_of, want) in [
        ("full", &full as &dyn Fn(u64) -> u64, "full"),
        ("holed", &holed, "ranked"),
        ("sparse", &sparse, "hashed"),
    ] {
        let baseline = LIVE_BYTES.get();
        let index = IdIndex::build({
            let mut ids = Vec::with_capacity(2 * N);
            ids.extend((0..N as u64).map(|i| VertexId(id_of(i))));
            ids
        });
        let kept = (LIVE_BYTES.get() - baseline) as usize;
        let arm = match index {
            IdIndex::Full { .. } => "full",
            IdIndex::Ranked { .. } => "ranked",
            IdIndex::Hashed { .. } => "hashed",
        };
        assert_eq!(arm, want, "{name}");
        assert_eq!(index.len(), N);
        assert_eq!(
            kept,
            index.memory_bytes(),
            "{name} ids: the index keeps {kept} B of heap and reports {} B",
            index.memory_bytes()
        );
        if want == "full" {
            assert_eq!(kept, 0, "a full range keeps no heap");
        }
    }
}

/// One splitmix64 mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The catalog of an R-MAT graph (a = 0.57, b = c = 0.19) on `2^levels`
/// vertices with hashed labels, recorded both ways per edge as the builder
/// does, edge by edge with nothing else kept.
fn rmat_catalog(levels: u32, edges: u64, labels: usize, machines: usize) -> LabelPairCatalog {
    let mut catalog = LabelPairCatalog::new(machines, labels);
    let label = |v: u64| LabelId((mix(v ^ 0xAB) % labels as u64) as u32);
    for i in 0..edges {
        let (mut u, mut v) = (0u64, 0u64);
        for level in 0..levels {
            let r = (mix(i << 6 | level as u64) >> 11) as f64 / (1u64 << 53) as f64;
            u = u << 1 | (r >= 0.76) as u64;
            v = v << 1 | ((0.57..0.76).contains(&r) || r >= 0.95) as u64;
        }
        let (mu, mv) = (
            machine_for(VertexId(u), machines),
            machine_for(VertexId(v), machines),
        );
        catalog.record_edge(mu, label(u), mv, label(v));
        catalog.record_edge(mv, label(v), mu, label(u));
    }
    catalog
}

#[test]
fn label_pair_catalog_reports_the_heap_it_keeps() {
    // 256 labels over 4 machines: one 8 KB bitmap per ordered machine pair,
    // and the report is exact.
    let baseline = LIVE_BYTES.get();
    let catalog = rmat_catalog(15, 1 << 17, 256, 4);
    let kept = (LIVE_BYTES.get() - baseline) as usize;
    assert_eq!(
        kept,
        catalog.memory_bytes(),
        "bitmaps: the catalog keeps {kept} B of heap and reports {} B",
        catalog.memory_bytes()
    );
    assert!(kept <= 16 * 8_192, "bitmaps: {kept} B");
    assert!(catalog.total_entries() > 0);

    // 64 labels touched by 100 edges: a hashed set, well under the 8 KB the
    // bitmaps would take. std's table layout is not its API, so the report
    // counts one key and one control byte a slot of capacity: a lower bound
    // that spare buckets (up to 1/7 more) and the target's control tail
    // (alignment plus one probe group, under 64 B) stay within.
    let baseline = LIVE_BYTES.get();
    let catalog = rmat_catalog(10, 100, 64, 4);
    let kept = (LIVE_BYTES.get() - baseline) as usize;
    let reported = catalog.memory_bytes();
    assert!(
        reported <= kept && kept <= reported * 8 / 7 + 64,
        "hashed: the catalog keeps {kept} B of heap and reports {reported} B"
    );
    assert!(kept <= 4_096, "hashed: {kept} B");
    assert!(catalog.total_entries() > 0);
}
