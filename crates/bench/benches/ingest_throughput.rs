//! Ingestion throughput: what batching buys on the durable write path.
//!
//! Every row moves the same 64 records per iteration, so means are
//! directly comparable across rows:
//!
//! * `single_64/<policy>` — 64 one-record [`Session::insert`] calls: one
//!   WAL append and one application of the fsync policy *per record*
//!   (`always` pays 64 disk syncs per iteration);
//! * `batch_64/<policy>` — one [`Session::insert_batch`] group commit:
//!   one WAL write, one fsync-policy application, one epoch publish;
//! * `single_64/always_held` / `batch_64/always_held` — the same under
//!   held-snapshot pressure: a reader pins the pre-ingest epoch for the
//!   whole run, forcing copy-on-write on every publish — cheap now that
//!   a shard clone is two `Arc` bumps plus its delta buffer;
//! * `single_64/in_memory` / `batch_64/in_memory` — the no-durability
//!   floor: pure routing + delta append + epoch publish.
//!
//! The benched sessions use a high delta-merge threshold: folding the
//! delta into the tree is the *same* amortised indexing work in both
//! paths (and is benchmarked by `build_vs_dbsize`), so letting merges
//! fire here would only blur the logging cost these rows isolate.
//!
//! `check_regression ingest` gates on `single_64/always` staying at
//! least 3 times slower than `batch_64/always` — i.e. batched ingest
//! keeps its group-commit win.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::PathBuf;
use traj_bench::make_store;
use traj_index::{DurabilityConfig, FsyncPolicy, Session, TrajStore};

/// Records per iteration, in every row.
const BATCH: usize = 64;
/// Keeps merges out of the measured loop (see module docs).
const NO_MERGE: usize = 1 << 20;

/// A scratch database directory, unique per label and process.
fn scratch(label: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("traj-bench-ingest-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &PathBuf, policy: FsyncPolicy) -> Session {
    Session::builder()
        .shards(2)
        .delta_merge_threshold(NO_MERGE)
        .durability(
            DurabilityConfig::default()
                .fsync(policy)
                .compact_after(None),
        )
        .open(dir)
        .expect("open bench database")
}

fn ingest_throughput(c: &mut Criterion) {
    let trajs = make_store(600).into_vec();
    let mut group = c.benchmark_group("ingest_throughput");

    for (name, policy) in [
        ("always", FsyncPolicy::Always),
        ("every_32", FsyncPolicy::EveryN(32)),
        ("os_managed", FsyncPolicy::OsManaged),
    ] {
        group.bench_with_input(BenchmarkId::new("single_64", name), &policy, |b, &p| {
            let dir = scratch(&format!("single-{name}"));
            let session = durable(&dir, p);
            let mut i = 0usize;
            b.iter(|| {
                for _ in 0..BATCH {
                    let id = session
                        .insert(trajs[i % trajs.len()].clone())
                        .expect("durable insert");
                    i += 1;
                    black_box(id);
                }
            });
            drop(session);
            let _ = std::fs::remove_dir_all(&dir);
        });

        group.bench_with_input(BenchmarkId::new("batch_64", name), &policy, |b, &p| {
            let dir = scratch(&format!("batch-{name}"));
            let session = durable(&dir, p);
            let mut i = 0usize;
            b.iter(|| {
                let batch: Vec<_> = (0..BATCH)
                    .map(|_| {
                        let t = trajs[i % trajs.len()].clone();
                        i += 1;
                        t
                    })
                    .collect();
                black_box(session.insert_batch(batch).expect("group commit").len())
            });
            drop(session);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    // Held-snapshot pressure: a pinned epoch forces copy-on-write on
    // every publish for the whole measured run.
    group.bench_function(BenchmarkId::new("single_64", "always_held"), |b| {
        let dir = scratch("single-held");
        let session = durable(&dir, FsyncPolicy::Always);
        session
            .insert_batch(trajs.clone())
            .expect("seed the pinned epoch");
        let pinned = session.snapshot();
        let mut i = 0usize;
        b.iter(|| {
            for _ in 0..BATCH {
                let id = session
                    .insert(trajs[i % trajs.len()].clone())
                    .expect("durable insert");
                i += 1;
                black_box(id);
            }
        });
        black_box(pinned.len());
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    });

    group.bench_function(BenchmarkId::new("batch_64", "always_held"), |b| {
        let dir = scratch("batch-held");
        let session = durable(&dir, FsyncPolicy::Always);
        session
            .insert_batch(trajs.clone())
            .expect("seed the pinned epoch");
        let pinned = session.snapshot();
        let mut i = 0usize;
        b.iter(|| {
            let batch: Vec<_> = (0..BATCH)
                .map(|_| {
                    let t = trajs[i % trajs.len()].clone();
                    i += 1;
                    t
                })
                .collect();
            black_box(session.insert_batch(batch).expect("group commit").len())
        });
        black_box(pinned.len());
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    });

    // The no-durability floor for both shapes.
    group.bench_function(BenchmarkId::new("single_64", "in_memory"), |b| {
        let session = Session::builder()
            .shards(2)
            .delta_merge_threshold(NO_MERGE)
            .build(TrajStore::new());
        let mut i = 0usize;
        b.iter(|| {
            for _ in 0..BATCH {
                let id = session
                    .insert(trajs[i % trajs.len()].clone())
                    .expect("in-memory insert");
                i += 1;
                black_box(id);
            }
        });
    });

    group.bench_function(BenchmarkId::new("batch_64", "in_memory"), |b| {
        let session = Session::builder()
            .shards(2)
            .delta_merge_threshold(NO_MERGE)
            .build(TrajStore::new());
        let mut i = 0usize;
        b.iter(|| {
            let batch: Vec<_> = (0..BATCH)
                .map(|_| {
                    let t = trajs[i % trajs.len()].clone();
                    i += 1;
                    t
                })
                .collect();
            black_box(session.insert_batch(batch).expect("in-memory batch").len())
        });
    });

    group.finish();
}

criterion_group!(benches, ingest_throughput);
criterion_main!(benches);
