//! Cost and benefit of sharding as the shard count grows, on a fixed
//! database and workload. Three rows per shard count:
//!
//! * `single_knn` — one query, every shard root seeded into one best-first
//!   forest queue on the calling thread: cross-shard pruning keeps the
//!   exact-EDwP count flat as shards grow, so wall time should stay near
//!   the 1-shard row (the work counts behind it are pinned by
//!   `traj-index`'s `tests/pruning_pin.rs`);
//! * `batch_knn_t4` — 16 queries over 4 workers, one work item per query:
//!   the parallelism is across queries, whatever the shard count;
//! * `insert` — one streaming insert (copy-on-write epoch publication):
//!   more shards mean a smaller copied unit when snapshots are held.
//!
//! Results are bitwise identical across all shard counts (asserted by the
//! equivalence grid in `traj-index`); only the work distribution moves.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use traj_bench::{make_queries, make_sharded_session, make_store};
use traj_gen::TrajGen;

fn query_vs_shards(c: &mut Criterion) {
    let store = make_store(600);
    let queries = make_queries(&store, 16);
    let mut group = c.benchmark_group("query_vs_shards");
    for shards in [1usize, 2, 4, 8] {
        let mut session = make_sharded_session(600, shards);
        group.bench_with_input(BenchmarkId::new("single_knn", shards), &shards, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i % queries.len()];
                i += 1;
                black_box(session.query(q).knn(10))
            });
        });
        group.bench_with_input(BenchmarkId::new("batch_knn_t4", shards), &shards, |b, _| {
            b.iter(|| black_box(session.batch(&queries).threads(4).knn(10)));
        });
        group.bench_with_input(BenchmarkId::new("insert", shards), &shards, |b, _| {
            let mut g = TrajGen::new(0x5EED);
            let trips: Vec<_> = (0..256).map(|_| g.random_walk(10)).collect();
            let mut i = 0usize;
            b.iter(|| {
                // A snapshot held *across* the insert forces the
                // copy-on-write path on the routed shard every iteration —
                // the streaming-while-reading steady state the README's
                // `.shards(n)` guidance is about. (A snapshot taken once
                // outside the loop would only share the shard until its
                // first touch; every later insert would mutate in place.)
                let epoch = session.snapshot();
                black_box(
                    session
                        .insert(trips[i % trips.len()].clone())
                        .expect("in-memory insert"),
                );
                i += 1;
                black_box(epoch.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, query_vs_shards);
criterion_main!(benches);
