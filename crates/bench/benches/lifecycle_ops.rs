//! Lifecycle operation costs: what deletion and online rebalancing add
//! on top of the ingest and query paths.
//!
//! * `churn_64/<mode>` — one full churn cycle per iteration: a 64-record
//!   group commit followed by a 64-id [`Session::remove_batch`], with the
//!   delta-merge threshold at 64 so folds fire every cycle and drop the
//!   dead delta entries physically. Entries that fold *before* their
//!   removal land in the base as tombstones, so every 16th cycle runs a
//!   same-count [`Session::reshard`] — the in-memory vacuum — keeping
//!   the session bounded; its amortised cost is part of the honest
//!   steady-state price of a workload that retires data as fast as it
//!   ingests it. Measured in memory and through the WAL (`OsManaged`, so
//!   the tombstone group's append cost is visible but fsync latency is
//!   not).
//! * `reshard/4` — [`Session::reshard`] on a durable 600-trip session:
//!   re-deal the live set from memory, STR-bulk-load the trees (the one
//!   build path `build` and `open` share), append one Reshard record,
//!   publish one epoch.
//! * `post_delete_query/<row>` — 10-NN latency over a session with a
//!   third of its base tombstoned versus a clean session holding only
//!   the survivors. Tombstones leave node summaries stale-but-admissible
//!   (dead members are skipped at refinement, never re-summarised), so
//!   this pair shows what the skip costs before a vacuum reclaims it.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::PathBuf;
use traj_bench::{make_queries, make_store};
use traj_index::{DurabilityConfig, FsyncPolicy, Session, TrajId, TrajStore};

/// Records inserted and removed per churn iteration.
const BATCH: usize = 64;
/// Churn cycles between same-count reshard vacuums.
const VACUUM_EVERY: usize = 16;
/// Database size for the reshard and post-delete rows.
const DB: usize = 600;

/// A scratch database directory, unique per label and process.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "traj-bench-lifecycle-{label}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn lifecycle_ops(c: &mut Criterion) {
    let trajs = make_store(DB).into_vec();
    let mut group = c.benchmark_group("lifecycle_ops");

    // Churn: insert a batch, retire it, fold it out; vacuum periodically.
    group.bench_function(BenchmarkId::new("churn_64", "in_memory"), |b| {
        let session = Session::builder()
            .shards(2)
            .delta_merge_threshold(BATCH)
            .build(TrajStore::new());
        let mut i = 0usize;
        let mut cycles = 0usize;
        b.iter(|| {
            let batch: Vec<_> = (0..BATCH)
                .map(|_| {
                    let t = trajs[i % trajs.len()].clone();
                    i += 1;
                    t
                })
                .collect();
            let ids = session.insert_batch(batch).expect("churn insert");
            session.remove_batch(&ids).expect("churn remove");
            cycles += 1;
            if cycles.is_multiple_of(VACUUM_EVERY) {
                session.reshard(2).expect("churn vacuum");
            }
            black_box(session.len())
        });
    });

    group.bench_function(BenchmarkId::new("churn_64", "durable"), |b| {
        let dir = scratch("churn");
        let session = Session::builder()
            .shards(2)
            .delta_merge_threshold(BATCH)
            .durability(
                DurabilityConfig::default()
                    .fsync(FsyncPolicy::OsManaged)
                    .compact_after(None),
            )
            .open(&dir)
            .expect("open bench database");
        let mut i = 0usize;
        let mut cycles = 0usize;
        b.iter(|| {
            let batch: Vec<_> = (0..BATCH)
                .map(|_| {
                    let t = trajs[i % trajs.len()].clone();
                    i += 1;
                    t
                })
                .collect();
            let ids = session.insert_batch(batch).expect("churn insert");
            session.remove_batch(&ids).expect("churn remove");
            cycles += 1;
            if cycles.is_multiple_of(VACUUM_EVERY) {
                session.reshard(2).expect("churn vacuum");
            }
            black_box(session.len())
        });
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Online reshard: re-deal the 600 live trips from memory onto a
    // 4-shard layout, plus one WAL record.
    group.bench_function(BenchmarkId::new("reshard", "4"), |b| {
        let dir = scratch("reshard");
        let session = Session::builder()
            .shards(4)
            .durability(
                DurabilityConfig::default()
                    .fsync(FsyncPolicy::OsManaged)
                    .compact_after(None),
            )
            .open(&dir)
            .expect("open bench database");
        session.insert_batch(trajs.clone()).expect("seed");
        b.iter(|| {
            session.reshard(4).expect("online reshard");
            black_box(session.num_shards())
        });
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // Query latency with a third of the base dead versus a clean session
    // of just the survivors.
    let queries = make_queries(&TrajStore::from(trajs.clone()), 8);
    let retired: Vec<TrajId> = (0..DB as u32).step_by(3).collect();
    let survivors: Vec<_> = trajs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 0)
        .map(|(_, t)| t.clone())
        .collect();

    group.bench_function(
        BenchmarkId::new("post_delete_query", "tombstoned_third"),
        |b| {
            let session = Session::builder()
                .shards(2)
                .build(TrajStore::from(trajs.clone()));
            session.remove_batch(&retired).expect("retire a third");
            let snap = session.snapshot();
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(snap.query(q).knn(10).neighbors.len())
            });
        },
    );

    group.bench_function(
        BenchmarkId::new("post_delete_query", "clean_baseline"),
        |b| {
            let session = Session::builder()
                .shards(2)
                .build(TrajStore::from(survivors.clone()));
            let snap = session.snapshot();
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(snap.query(q).knn(10).neighbors.len())
            });
        },
    );

    group.finish();
}

criterion_group!(benches, lifecycle_ops);
criterion_main!(benches);
