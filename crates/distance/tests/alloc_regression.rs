//! Allocation-regression harness: the four `Metric` entry points (in all
//! four metric × mode combinations) and the raw pooled kernels beneath them
//! must perform **zero** heap allocations once their scratch buffers are
//! warm, which is what makes the query engine's per-worker scratch pooling
//! effective.
//!
//! A counting global allocator tallies every `alloc`/`realloc`; the file
//! contains exactly one `#[test]` so no concurrently running test can
//! perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use traj_dist::{
    edwp, edwp_avg, edwp_bounded, edwp_lower_bound_aabb_batch, edwp_lower_bound_boxes,
    edwp_lower_bound_boxes_bounded, edwp_lower_bound_trajectory,
    edwp_lower_bound_trajectory_bounded, edwp_sub, edwp_sub_avg, edwp_sub_bounded,
    edwp_sub_with_scratch, edwp_with_scratch, BoxSeq, Cutoff, EdwpScratch, Isa, Metric, QueryMode,
};

const METRICS: [Metric; 2] = [Metric::Edwp, Metric::EdwpNormalized];
const MODES: [QueryMode; 2] = [QueryMode::Whole, QueryMode::Sub];

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the number of heap allocations it made.
fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn scratch_kernels_are_allocation_free_after_warmup() {
    let zigzag: Vec<(f64, f64)> = (0..24)
        .map(|i| (i as f64 * 3.0, if i % 2 == 0 { 0.0 } else { 5.0 }))
        .collect();
    let drift: Vec<(f64, f64)> = (0..31).map(|i| (i as f64 * 2.3, i as f64 * 0.4)).collect();
    let t1 = traj_core::Trajectory::from_xy(&zigzag);
    let t2 = traj_core::Trajectory::from_xy(&drift);
    let mut seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
    seq.coalesce(Some(10));

    let max_len = t1.length().max(t2.length());
    let open = Cutoff::constant(f64::INFINITY);
    let mut scratch = EdwpScratch::new();
    // Warm-up: grows every pooled buffer to this problem size.
    scratch.set_query(&t1);
    let warm_edwp = edwp_with_scratch(&t1, &t2, &mut scratch);
    let warm_sub = edwp_sub_with_scratch(&t1, &t2, &mut scratch);
    let warm_boxes = edwp_lower_bound_boxes_bounded(&t1, &seq, open, &mut scratch);
    let warm_poly = edwp_lower_bound_trajectory_bounded(&t1, &t2, open, &mut scratch);
    let warm_avg = Metric::EdwpNormalized.distance(QueryMode::Whole, &t1, &t2, &mut scratch);
    let warm_sub_avg = Metric::EdwpNormalized.distance(QueryMode::Sub, &t1, &t2, &mut scratch);

    // The hard requirement: warm scratch calls never touch the heap.
    let (sum, allocs) = counting(|| {
        let mut acc = 0.0;
        for _ in 0..8 {
            acc += edwp_with_scratch(&t1, &t2, &mut scratch);
            acc += edwp_with_scratch(&t2, &t1, &mut scratch);
            acc += edwp_sub_with_scratch(&t1, &t2, &mut scratch);
            // Every metric × mode combination of every entry point pools
            // the same buffers — full evaluations and, since bailing early
            // must not cost an allocation either, under a zero cutoff.
            for metric in METRICS {
                for mode in MODES {
                    acc += metric.distance(mode, &t1, &t2, &mut scratch);
                    for cutoff in [open, 0.0.into()] {
                        acc += metric.distance_bounded(mode, &t1, &t2, cutoff, &mut scratch);
                        acc += metric.lower_bound_boxes(
                            mode,
                            &t1,
                            &seq,
                            max_len,
                            cutoff,
                            &mut scratch,
                        );
                        acc += metric.lower_bound_trajectory(mode, &t1, &t2, cutoff, &mut scratch);
                    }
                }
            }
            // And the raw kernels the benchmark probes call directly.
            acc += edwp_bounded(&t1, &t2, 0.0.into(), &mut scratch);
            acc += edwp_sub_bounded(&t1, &t2, 0.0.into(), &mut scratch);
            acc += edwp_lower_bound_boxes_bounded(&t1, &seq, 0.0.into(), &mut scratch);
            acc += edwp_lower_bound_trajectory_bounded(&t1, &t2, 0.0.into(), &mut scratch);
        }
        acc
    });
    assert_eq!(
        allocs, 0,
        "warm scratch kernels allocated {allocs} times (sum {sum})"
    );
    assert!(sum.is_finite());

    // The box bound's structure-of-arrays mirror (`BoxSoa`) is pooled in
    // the same scratch and the batched AABB prescreen reuses the caller's
    // sums: once warmed, *both* box-bound dispatch paths and the prescreen
    // must stay allocation-free too. Each path is pinned via the
    // explicit-ISA entry so the test is independent of what
    // `Isa::current()` resolved to (and of `TRAJ_FORCE_SCALAR`).
    let isas: &[Isa] = if Isa::available() == Isa::Avx2 {
        &[Isa::Scalar, Isa::Avx2]
    } else {
        &[Isa::Scalar]
    };
    let children: Vec<traj_core::StBox> = seq.boxes().to_vec();
    let mut sums: Vec<f64> = Vec::new();
    for &isa in isas {
        // Warm-up grows the SoA mirror to this problem size.
        traj_dist::simd::edwp_lower_bound_boxes_bounded_isa(isa, &t1, &seq, open, &mut scratch);
    }
    edwp_lower_bound_aabb_batch(&t1, &children, f64::INFINITY, &mut scratch, &mut sums);
    let (acc, simd_allocs) = counting(|| {
        let mut acc = 0.0;
        for _ in 0..8 {
            for &isa in isas {
                acc += traj_dist::simd::edwp_lower_bound_boxes_bounded_isa(
                    isa,
                    &t1,
                    &seq,
                    open,
                    &mut scratch,
                );
                acc += traj_dist::simd::edwp_lower_bound_boxes_bounded_isa(
                    isa,
                    &t1,
                    &seq,
                    0.0.into(),
                    &mut scratch,
                );
            }
            edwp_lower_bound_aabb_batch(&t1, &children, f64::INFINITY, &mut scratch, &mut sums);
            acc += sums.iter().sum::<f64>();
        }
        acc
    });
    assert_eq!(
        simd_allocs, 0,
        "warm SIMD-dispatch kernels allocated {simd_allocs} times (sum {acc})"
    );
    assert!(acc.is_finite());

    // Scratch never changes values: every kernel agrees with its
    // allocating wrapper bit-for-bit.
    assert_eq!(warm_edwp, edwp(&t1, &t2));
    assert_eq!(warm_sub, edwp_sub(&t1, &t2));
    assert_eq!(warm_avg, edwp_avg(&t1, &t2));
    assert_eq!(warm_sub_avg, edwp_sub_avg(&t1, &t2));
    assert_eq!(warm_boxes, edwp_lower_bound_boxes(&t1, &seq));
    assert_eq!(warm_poly, edwp_lower_bound_trajectory(&t1, &t2));

    // And the plain wrappers do allocate — the regression guard is
    // meaningful only if the counter actually sees this crate's traffic.
    let (_, wrapper_allocs) = counting(|| edwp(&t1, &t2));
    assert!(wrapper_allocs > 0, "counting allocator is not wired up");
}
