//! The sharded-surface contract: every combination the typed query surface
//! can express — k-NN / range × index / brute-force × shards 1/2/4 ×
//! threads 1/4 × raw / length-normalised metric — is **bitwise
//! identical** to a hand-built single-shard tree
//! (wrapped with `Session::from_parts`) and to an independent manual scan, and inserts land
//! while concurrent batches keep reading a stable epoch. This is what makes the shard count
//! an invisible deployment knob. The lifecycle oracle
//! (`tests/lifecycle_oracle.rs`) runs the same grid inside randomized
//! lifecycles.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use common::{clustered_db, manual_scan, trajectory};
use proptest::prelude::*;
use traj_core::{StPoint, Trajectory};
use traj_dist::{EdwpScratch, Metric, QueryMode};
use traj_gen::TrajGen;
use traj_index::{Neighbor, Session, Snapshot, TrajStore, TrajTree};

/// The single-shard reference: a hand-built default tree over `db`,
/// wrapped as an epoch.
fn reference_epoch(db: Vec<Trajectory>) -> Snapshot {
    let store = TrajStore::from(db);
    let tree = TrajTree::build(&store);
    Session::from_parts(store, tree).snapshot()
}

/// A query shape for the equivalence grid: usually a random trajectory,
/// but one case in four degenerates into the hardened edge shapes — a
/// geometrically single-point (zero-length two-point) trajectory or an
/// all-points-identical one (1-point trajectories are rejected by
/// traj-core at construction).
fn query_shape(min_pts: usize, max_pts: usize) -> impl Strategy<Value = Trajectory> {
    (trajectory(min_pts, max_pts), 0usize..8).prop_map(|(t, sel)| match sel {
        0 => {
            let p = t.first();
            Trajectory::new(vec![p, StPoint::new(p.p.x, p.p.y, p.t + 1.0)])
                .expect("two identical points are a valid trajectory")
        }
        1 => {
            let p = t.first();
            Trajectory::new(
                (0..t.num_points())
                    .map(|i| StPoint::new(p.p.x, p.p.y, p.t + i as f64))
                    .collect(),
            )
            .expect("stationary copy is a valid trajectory")
        }
        _ => t,
    })
}

/// The independent whole-trajectory manual scan under `metric`.
fn whole_scan<'a>(
    items: impl Iterator<Item = (u32, &'a Trajectory)>,
    query: &Trajectory,
    metric: Metric,
) -> Vec<Neighbor> {
    manual_scan(items, query, metric, QueryMode::Whole)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Single-query grid over shards 1/2/4: for both metrics, every
    /// sharded session's index and brute-force answers equal the
    /// hand-built single-shard reference and the manual scan — k-NN and
    /// range.
    #[test]
    fn shard_grid_single_queries_are_bitwise_identical(
        size in 25usize..70,
        seed in 0u64..500,
        query in query_shape(2, 8),
    ) {
        let db = clustered_db(size, seed);
        let reference = reference_epoch(db.clone());
        let k = 7usize;
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            let truth = whole_scan(reference.iter(), &query, metric);
            let eps = truth[truth.len() / 2].distance; // median: nontrivial ball
            let want_knn = truth[..k.min(truth.len())].to_vec();
            let want_ball: Vec<Neighbor> = truth
                .iter()
                .copied()
                .filter(|n| n.distance <= eps)
                .collect();

            let single = reference
                .query(&query)
                .metric(metric)
                .collect_stats()
                .knn(k);
            prop_assert_eq!(&single.neighbors, &want_knn);
            let stats = single.stats.expect("requested");
            prop_assert!(stats.edwp_evaluations <= stats.db_size);

            for shards in [1usize, 2, 4] {
                let mut session = Session::builder()
                    .shards(shards)
                    .build(TrajStore::from(db.clone()));
                let indexed = session
                    .query(&query)
                    .metric(metric)
                    .collect_stats()
                    .knn(k);
                prop_assert_eq!(&indexed.neighbors, &want_knn);
                prop_assert_eq!(indexed.stats.expect("requested").db_size, size);
                let in_ball = session.query(&query).metric(metric).range(eps);
                prop_assert_eq!(&in_ball.neighbors, &want_ball);
                let brute = session.query(&query).metric(metric).brute_force().knn(k);
                prop_assert_eq!(&brute.neighbors, &want_knn);
                let brute_ball = session
                    .query(&query)
                    .metric(metric)
                    .brute_force()
                    .range(eps);
                prop_assert_eq!(&brute_ball.neighbors, &want_ball);
            }
        }
    }

    /// Batch grid: shards 1/2/4 × knn/range × threads 1/4 × both metrics,
    /// bitwise equal to a sequential loop of queries over the hand-built
    /// single-shard reference, with per-item stats merging to the batch
    /// size.
    #[test]
    fn shard_grid_batches_are_bitwise_identical(
        size in 25usize..60,
        seed in 0u64..500,
        queries in prop::collection::vec(query_shape(2, 7), 3..8),
    ) {
        let db = clustered_db(size, seed);
        let reference = reference_epoch(db.clone());
        let k = 5usize;
        let eps = whole_scan(reference.iter(), &queries[0], Metric::Edwp)[size / 2].distance;
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            let seq_knn: Vec<Vec<Neighbor>> = queries
                .iter()
                .map(|q| reference.query(q).metric(metric).knn(k).neighbors)
                .collect();
            let seq_range: Vec<Vec<Neighbor>> = queries
                .iter()
                .map(|q| reference.query(q).metric(metric).range(eps).neighbors)
                .collect();
            for shards in [1usize, 2, 4] {
                let session = Session::builder()
                    .shards(shards)
                    .build(TrajStore::from(db.clone()));
                for threads in [1usize, 4] {
                    let batch_knn = session
                        .batch(&queries)
                        .metric(metric)
                        .threads(threads)
                        .collect_stats()
                        .knn(k);
                    prop_assert_eq!(&batch_knn.neighbors, &seq_knn);
                    prop_assert_eq!(
                        batch_knn.stats.expect("requested").queries,
                        queries.len()
                    );
                    let batch_range = session
                        .batch(&queries)
                        .metric(metric)
                        .threads(threads)
                        .range(eps);
                    prop_assert_eq!(&batch_range.neighbors, &seq_range);
                }
            }
        }
    }

    /// The normalised metric stays exact after routed incremental inserts
    /// at every shard count — the insert-path max_len bookkeeping is what
    /// admissibility rides on, now per shard.
    #[test]
    fn normalized_knn_exact_after_inserts(
        db in prop::collection::vec(trajectory(2, 6), 20..41),
        extra in prop::collection::vec(trajectory(2, 6), 5..12),
        query in query_shape(2, 6),
        shards in 1usize..4,
    ) {
        let mut session = Session::builder()
            .shards(shards)
            .build(TrajStore::from(db));
        for t in extra {
            session.insert(t).expect("in-memory insert");
        }
        let got = session.query(&query).metric(Metric::EdwpNormalized).knn(6);
        let snap = session.snapshot();
        let truth = whole_scan(snap.iter(), &query, Metric::EdwpNormalized);
        prop_assert_eq!(&got.neighbors, &truth[..6.min(truth.len())].to_vec());
    }
}

/// The scratch modifier changes where intermediate state lives, never the
/// answer: pooled and fresh-scratch runs are bitwise identical.
#[test]
fn pooled_scratch_does_not_change_results() {
    let reference = reference_epoch(clustered_db(50, 11));
    let mut scratch = EdwpScratch::new();
    let mut g = TrajGen::new(3);
    for metric in [Metric::Edwp, Metric::EdwpNormalized] {
        for _ in 0..6 {
            let q = g.random_walk(7);
            let pooled = reference
                .query(&q)
                .metric(metric)
                .scratch(&mut scratch)
                .knn(5);
            let fresh = reference.query(&q).metric(metric).knn(5);
            assert_eq!(pooled, fresh);
        }
    }
}

/// The acceptance-criteria concurrency test: a batch query running on
/// another thread while `Session::insert` lands returns exactly the
/// pre-insert epoch's results, and a batch started after the inserts sees
/// every new trajectory.
#[test]
fn insert_while_query_reads_a_stable_epoch() {
    let session = Session::builder()
        .shards(2)
        .build(TrajStore::from(clustered_db(60, 9)));
    let mut g = TrajGen::new(42);
    let queries: Vec<Trajectory> = (0..6).map(|_| g.random_walk(7)).collect();
    let extra: Vec<Trajectory> = (0..40).map(|_| g.random_walk(6)).collect();

    // Pin the pre-insert epoch and its expected answers.
    let epoch = session.snapshot();
    let expected = epoch.batch(&queries).threads(2).knn(5);

    let barrier = Barrier::new(2);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            barrier.wait();
            // Runs while the main thread inserts into the same session.
            epoch.batch(&queries).threads(2).knn(5)
        });
        barrier.wait();
        for t in extra.clone() {
            session.insert(t).expect("in-memory insert");
        }
        let got = reader.join().expect("reader thread panicked");
        assert_eq!(
            got.neighbors, expected.neighbors,
            "concurrent batch saw a mutated epoch"
        );
    });

    // The inserts all landed, and post-insert batches see the new epoch.
    assert_eq!(session.len(), 100);
    let post = session.batch(&queries).threads(2).knn(5);
    let snap = session.snapshot();
    assert_eq!(snap.len(), 100);
    for (q, got) in queries.iter().zip(&post.neighbors) {
        let want = manual_scan(snap.iter(), q, Metric::Edwp, QueryMode::Whole);
        assert_eq!(*got, want[..5].to_vec(), "post-insert batch missed data");
    }
}

/// Torn-shard stress: readers repeatedly snapshot and verify their epoch
/// is internally consistent (index answers == manual scan over the *same*
/// snapshot) while a writer streams inserts. A reader observing a
/// half-published shard — store and tree out of sync, or a partially
/// copied segment — would diverge here.
#[test]
fn concurrent_inserts_never_tear_an_epoch() {
    let session = Session::builder()
        .shards(4)
        .build(TrajStore::from(clustered_db(40, 3)));
    let mut g = TrajGen::new(7);
    let query = g.random_walk(6);
    let extras: Vec<Trajectory> = (0..120).map(|_| g.random_walk(5)).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut checks = 0usize;
                    loop {
                        let snap = session.snapshot();
                        let want = manual_scan(snap.iter(), &query, Metric::Edwp, QueryMode::Whole);
                        let want = want[..4.min(want.len())].to_vec();
                        let got = snap.query(&query).knn(4).neighbors;
                        assert_eq!(
                            got, want,
                            "torn epoch observed after {checks} consistent reads"
                        );
                        checks += 1;
                        if stop.load(Ordering::Relaxed) {
                            return checks;
                        }
                    }
                })
            })
            .collect();
        for t in extras.clone() {
            session.insert(t).expect("in-memory insert");
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let checks = r.join().expect("reader thread panicked");
            assert!(checks >= 1);
        }
    });
    assert_eq!(session.len(), 160);
}
