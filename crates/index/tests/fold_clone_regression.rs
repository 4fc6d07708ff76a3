//! Held-snapshot fold cost must not scale with database size: a fold
//! bulk-loads the delta into a new run of its shard, and every run it does
//! not merge stays shared by `Arc` with the epoch a snapshot pins. A
//! counting global allocator tallies the bytes one insert allocates when
//! it triggers a fold while a snapshot is held, on a small and a large
//! database; if the fold copied the shard's bulk-built run (store and
//! tree) the large database's insert would allocate roughly `large/small`
//! times as much.
//!
//! The file contains exactly one `#[test]` so no concurrently running
//! test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use traj_gen::TrajGen;
use traj_index::{Session, TrajStore};

struct CountingAllocator;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result and the bytes it allocated.
fn counting_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

/// Bytes allocated by one insert into a 2-shard `db_size` session at merge
/// threshold 1 — every insert folds: its trip becomes a run of one, far
/// below half the shard's bulk-built run, so nothing merges — while a
/// snapshot pins the pre-insert epoch.
fn held_snapshot_fold_bytes(db_size: usize) -> usize {
    let mut g = TrajGen::new(db_size as u64);
    let session = Session::builder()
        .shards(2)
        .delta_merge_threshold(1)
        .build(TrajStore::from(g.database(db_size, 4, 10)));
    let t = g.random_walk(8);
    let pinned = session.snapshot();
    let (_, bytes) = counting_bytes(|| session.insert(t).expect("in-memory insert"));
    let sizes = session.snapshot().shard_sizes();
    assert!(sizes.iter().all(|o| o.delta == 0), "the insert folded");
    assert_eq!(pinned.len(), db_size, "epoch stayed pinned");
    assert_eq!(session.len(), db_size + 1);
    bytes
}

#[test]
fn held_snapshot_fold_cost_is_independent_of_database_size() {
    // Sanity: the counter sees this process's traffic at all.
    let (_, wired) = counting_bytes(|| vec![0u8; 4096]);
    assert!(wired >= 4096, "counting allocator is not wired up");

    let small = held_snapshot_fold_bytes(256);
    let large = held_snapshot_fold_bytes(2048);

    // An 8x database must not mean ~8x fold allocation. The bound is
    // generous (3x + fixed slack) to absorb Vec growth-doubling noise
    // while still failing hard if a bulk-built run's store or tree
    // (hundreds of KiB at 2048 trajectories) is copied.
    assert!(
        large <= small * 3 + 16 * 1024,
        "held-snapshot fold allocated {large} bytes on a 2048-trajectory \
         database vs {small} bytes on 256 — a shared run is being copied"
    );
}
