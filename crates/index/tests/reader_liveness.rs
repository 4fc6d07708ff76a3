//! Readers must never wait on writer disk I/O: WAL fsync and compaction
//! happen *outside* the epoch lock, so snapshot acquisition stays cheap
//! while a writer is grinding through durable maintenance. This test
//! pins that property by sampling snapshot-acquisition latency from a
//! reader thread while the writer runs fsync-per-record inserts, a
//! group commit and full compactions, and checking the reader stayed
//! live throughout. The merge threshold is set high so every writer op
//! is I/O-dominated — in-memory merge CPU (amortised by design, and
//! *allowed* to hold the epoch lock) is not what this test measures.

mod common;

use common::fleet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;
use traj_index::{DurabilityConfig, FsyncPolicy, Session};
use traj_persist::tempdir::TempDir;

#[test]
fn readers_are_not_blocked_by_writer_disk_io() {
    let dir = TempDir::new("reader-liveness");
    let session = Session::builder()
        .shards(2)
        .delta_merge_threshold(1 << 20)
        .durability(
            DurabilityConfig::default()
                .fsync(FsyncPolicy::Always)
                .compact_after(None),
        )
        .open(dir.path())
        .expect("open");
    session.insert_batch(fleet(500, 9)).expect("seed");

    let writing = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let during_writes = AtomicUsize::new(0);
    let max_acquire_ns = AtomicU64::new(0);

    let (write_ops, write_total_ns) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Relaxed) {
                let sampling = writing.load(Relaxed);
                let t0 = Instant::now();
                let snap = session.snapshot();
                let dt = t0.elapsed().as_nanos() as u64;
                assert!(snap.len() >= 500);
                if sampling {
                    // Only samples that *started* while a writer op was in
                    // flight count: those are the ones a held epoch lock
                    // would have stalled for the rest of the op.
                    during_writes.fetch_add(1, Relaxed);
                    max_acquire_ns.fetch_max(dt, Relaxed);
                }
            }
        });

        // Writer: fsync-per-record singles, a group commit, and full
        // compactions — every flavour of durable write the session has.
        let extra = fleet(16, 10);
        let t0 = Instant::now();
        writing.store(true, Relaxed);
        let mut ops = 0u32;
        for t in extra {
            session.insert(t).expect("durable insert");
            ops += 1;
        }
        session.insert_batch(fleet(64, 11)).expect("group commit");
        ops += 1;
        for _ in 0..3 {
            session.compact().expect("compact");
            ops += 1;
        }
        writing.store(false, Relaxed);
        let total = t0.elapsed().as_nanos() as u64;
        stop.store(true, Relaxed);
        (ops, total)
    });

    let sampled = during_writes.load(Relaxed);
    let max_ns = max_acquire_ns.load(Relaxed);
    // Liveness: with the epoch lock held across disk I/O the reader would
    // manage roughly one acquisition per writer op; decoupled, it spins
    // orders of magnitude faster. The bound is deliberately loose to
    // absorb scheduler noise.
    assert!(
        sampled as u32 >= write_ops * 4,
        "reader acquired only {sampled} snapshots across {write_ops} writer ops \
         ({write_total_ns} ns of writing) — epoch lock held across disk I/O?"
    );
    // Latency: no single acquisition may cost a meaningful fraction of
    // the writer's whole run. Only enforced when the writer phase is long
    // enough for the comparison to mean anything.
    if write_total_ns > 40_000_000 {
        assert!(
            max_ns < write_total_ns / 4,
            "worst snapshot acquisition {max_ns} ns vs {write_total_ns} ns of writing"
        );
    }
}
