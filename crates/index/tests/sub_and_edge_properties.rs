//! The sub-trajectory query mode's exactness contract, plus the edge-case
//! hardening of the query surface:
//!
//! * `.sub().knn(k)` / `.sub().range(eps)` via the index are **bitwise
//!   identical** to a brute-force `edwp_sub` scan, across the
//!   shards 1/2/4 × threads 1/4 × both-metrics grid, including after
//!   incremental inserts — and the index measurably prunes (>50% of the
//!   database skipped on clustered workloads, reported by `QueryStats`);
//! * degenerate queries (geometrically single-point, i.e. zero-length, and
//!   repeated-point trajectories) panic nowhere and stay exact through
//!   every query mode;
//! * `range(eps)` for `eps ∈ {0.0, -0.0, negative, NaN, ∞}` returns the
//!   same (possibly empty) result on the indexed, brute-force and batch
//!   paths;
//! * `SessionBuilder::shards(0)` builds a working 1-shard session instead
//!   of a router that panics on `id % 0`.

mod common;

use common::{clustered_db, manual_scan, trajectory};
use proptest::prelude::*;
use traj_core::Trajectory;
use traj_dist::{Metric, QueryMode};
use traj_gen::TrajGen;
use traj_index::{Neighbor, Session, TrajStore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance grid: sub-mode k-NN and range via the index equal
    /// the brute-force `edwp_sub` scan bitwise, for shards 1/2/4 ×
    /// threads 1/4 × both metrics, single and batch.
    #[test]
    fn sub_queries_match_brute_force_across_the_grid(
        size in 25usize..55,
        seed in 0u64..500,
        probe in trajectory(2, 5),
        extra_query in trajectory(2, 5),
    ) {
        let db = clustered_db(size, seed);
        let queries = [probe, extra_query];
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            let truth = manual_scan(
                TrajStore::from(db.clone()).iter(),
                &queries[0],
                metric,
                QueryMode::Sub,
            );
            let k = 6usize;
            let eps = truth[truth.len() / 2].distance; // median: nontrivial ball
            let want_knn = truth[..k.min(truth.len())].to_vec();
            let want_ball: Vec<Neighbor> = truth
                .iter()
                .copied()
                .filter(|n| n.distance <= eps)
                .collect();
            let seq_knn: Vec<Vec<Neighbor>> = queries
                .iter()
                .map(|q| {
                    manual_scan(TrajStore::from(db.clone()).iter(), q, metric, QueryMode::Sub)
                        [..k]
                        .to_vec()
                })
                .collect();

            for shards in [1usize, 2, 4] {
                let mut session = Session::builder()
                    .shards(shards)
                    .build(TrajStore::from(db.clone()));
                let indexed = session.query(&queries[0]).metric(metric).sub().knn(k);
                prop_assert!(indexed.neighbors == want_knn,
                    "sub knn diverged at {} shards under {:?}", shards, metric);
                // The brute-force escape hatch of the new mode.
                let brute = session
                    .query(&queries[0])
                    .metric(metric)
                    .sub()
                    .brute_force()
                    .knn(k);
                prop_assert_eq!(&brute.neighbors, &want_knn);

                let in_ball = session.query(&queries[0]).metric(metric).sub().range(eps);
                prop_assert!(in_ball.neighbors == want_ball,
                    "sub range diverged at {} shards under {:?}", shards, metric);
                let brute_ball = session
                    .query(&queries[0])
                    .metric(metric)
                    .sub()
                    .brute_force()
                    .range(eps);
                prop_assert_eq!(&brute_ball.neighbors, &want_ball);

                for threads in [1usize, 4] {
                    let batch = session
                        .batch(&queries)
                        .metric(metric)
                        .sub()
                        .threads(threads)
                        .knn(k);
                    prop_assert!(batch.neighbors == seq_knn,
                        "sub batch diverged at {} shards / {} threads", shards, threads);
                }
            }
        }
    }

    /// Sub-mode exactness survives incremental inserts (the epoch/CoW path
    /// builds node summaries the sub bound must stay admissible over).
    #[test]
    fn sub_knn_exact_after_inserts(
        db in prop::collection::vec(trajectory(2, 6), 20..36),
        extra in prop::collection::vec(trajectory(2, 6), 4..10),
        probe in trajectory(2, 4),
        shards in 1usize..4,
    ) {
        let mut session = Session::builder().shards(shards).build(TrajStore::from(db));
        for t in extra {
            session.insert(t).expect("in-memory insert");
        }
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            let got = session.query(&probe).metric(metric).sub().knn(5);
            let snap = session.snapshot();
            let truth = manual_scan(snap.iter(), &probe, metric, QueryMode::Sub);
            prop_assert_eq!(&got.neighbors, &truth[..5.min(truth.len())].to_vec());
        }
    }

    /// The documented range edge contract: for every eps in
    /// {0.0, -0.0, negative, NaN, ∞}, the indexed, brute-force and batch
    /// paths return identical results in both modes — empty for NaN and
    /// negatives, inclusive zero ball for ±0.0, the whole db for ∞.
    #[test]
    fn range_eps_edges_agree_on_all_paths(
        size in 20usize..45,
        seed in 0u64..500,
        query in trajectory(2, 6),
    ) {
        let db = clustered_db(size, seed);
        for mode in [QueryMode::Whole, QueryMode::Sub] {
            for eps in [0.0f64, -0.0, -7.5, f64::NAN, f64::INFINITY] {
                let mut session = Session::builder().shards(2).build(TrajStore::from(db.clone()));
                let indexed = session.query(&query).mode(mode).range(eps);
                let brute = session.query(&query).mode(mode).brute_force().range(eps);
                let batch = session
                    .batch(std::slice::from_ref(&query))
                    .mode(mode)
                    .threads(2)
                    .range(eps);
                prop_assert!(indexed.neighbors == brute.neighbors,
                    "indexed vs brute diverged at eps={} ({:?})", eps, mode);
                prop_assert!(indexed.neighbors == batch.neighbors[0],
                    "indexed vs batch diverged at eps={} ({:?})", eps, mode);
                if eps.is_nan() || eps < 0.0 {
                    prop_assert!(indexed.neighbors.is_empty(),
                        "eps={} must match nothing", eps);
                } else {
                    // ±0.0 and ∞ fall through to the reference filter.
                    let want: Vec<Neighbor> = manual_scan(
                        TrajStore::from(db.clone()).iter(), &query, Metric::Edwp, mode)
                        .into_iter()
                        .filter(|n| n.distance <= eps)
                        .collect();
                    prop_assert_eq!(&indexed.neighbors, &want);
                }
            }
        }
    }
}

/// Every degenerate query shape — geometrically single-point (zero-length)
/// and repeated-point trajectories, on both the query and the database
/// side — flows through every query mode without panicking, and the index
/// stays bitwise exact against brute force.
#[test]
fn degenerate_queries_are_exact_in_every_mode() {
    let mut db = clustered_db(30, 17);
    // Degenerate members: stationary and duplicated-sample trajectories.
    db.push(Trajectory::from_xy(&[(50.0, 50.0), (50.0, 50.0)]));
    db.push(Trajectory::from_xy(&[
        (10.0, 90.0),
        (10.0, 90.0),
        (10.0, 90.0),
    ]));
    db.push(Trajectory::from_xyt(&[
        (30.0, 30.0, 0.0),
        (30.0, 30.0, 0.0),
        (32.0, 30.0, 5.0),
    ]));
    let size = db.len();

    let degenerate_queries = [
        // "Single-point" in the geometric sense: the minimal 2-point
        // trajectory with both samples identical (1-point trajectories are
        // rejected at construction by traj-core).
        Trajectory::from_xy(&[(42.0, 42.0), (42.0, 42.0)]),
        Trajectory::from_xy(&[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]),
        // Two identical points with duplicated timestamps.
        Trajectory::from_xyt(&[(75.0, 20.0, 3.0), (75.0, 20.0, 3.0)]),
    ];

    for shards in [1usize, 3] {
        let mut session = Session::builder()
            .shards(shards)
            .build(TrajStore::from(db.clone()));
        for query in &degenerate_queries {
            for metric in [Metric::Edwp, Metric::EdwpNormalized] {
                for mode in [QueryMode::Whole, QueryMode::Sub] {
                    let knn = session.query(query).metric(metric).mode(mode).knn(5);
                    let brute = session
                        .query(query)
                        .metric(metric)
                        .mode(mode)
                        .brute_force()
                        .knn(5);
                    assert_eq!(
                        knn.neighbors, brute.neighbors,
                        "degenerate knn diverged ({metric:?}, {mode:?}, {shards} shards)"
                    );
                    let truth = manual_scan(session.snapshot().iter(), query, metric, mode);
                    assert_eq!(knn.neighbors, truth[..5.min(size)].to_vec());
                    for n in &knn.neighbors {
                        assert!(n.distance.is_finite(), "non-finite distance {n:?}");
                    }

                    let eps = truth[size / 2].distance;
                    let ball = session.query(query).metric(metric).mode(mode).range(eps);
                    let want: Vec<Neighbor> = truth
                        .iter()
                        .copied()
                        .filter(|n| n.distance <= eps)
                        .collect();
                    assert_eq!(
                        ball.neighbors, want,
                        "degenerate range diverged ({metric:?}, {mode:?}, {shards} shards)"
                    );
                }
            }
        }
        // Batch path over all degenerate shapes at once.
        let batch = session.batch(&degenerate_queries).threads(4).sub().knn(3);
        for (q, got) in degenerate_queries.iter().zip(&batch.neighbors) {
            let want = manual_scan(session.snapshot().iter(), q, Metric::Edwp, QueryMode::Sub);
            assert_eq!(*got, want[..3].to_vec());
        }
    }
}

/// `SessionBuilder::shards(0)` must clamp to one shard rather than build a
/// router computing `id % 0`: inserts, lookups and every query mode work.
#[test]
fn shards_zero_clamps_to_a_working_single_shard() {
    let session = Session::builder()
        .shards(0)
        .build(TrajStore::from(clustered_db(12, 5)));
    assert_eq!(session.num_shards(), 1, "shards(0) must clamp to 1");
    // The router is exercised by inserts (shard_of) and lookups (local_of).
    let id = session
        .insert(Trajectory::from_xy(&[(1.0, 2.0), (3.0, 4.0)]))
        .expect("in-memory insert");
    assert_eq!(id, 12);
    let snap = session.snapshot();
    assert_eq!(snap.get(id).first().p.x, 1.0);
    assert_eq!(snap.len(), 13);
    let q = Trajectory::from_xy(&[(1.0, 2.0), (3.0, 4.0)]);
    assert_eq!(snap.query(&q).knn(1).neighbors[0].id, id);
    assert_eq!(snap.query(&q).sub().knn(1).neighbors[0].id, id);
    assert_eq!(
        snap.query(&q).range(0.0).neighbors,
        snap.query(&q).brute_force().range(0.0).neighbors
    );
}

/// The acceptance criterion's pruning clause: on a clustered workload,
/// sub-mode index searches skip more than half the database (reported by
/// `QueryStats`), while staying exact.
#[test]
fn sub_mode_prunes_over_half_the_database_on_clustered_data() {
    let db = clustered_db(160, 29);
    let mut session = Session::build(TrajStore::from(db.clone()));
    let mut g = TrajGen::new(0xAB);
    let snap = session.snapshot();
    // Probes: distorted *portions* of stored trips — the partial-trip
    // lookup the mode exists for.
    let probes: Vec<Trajectory> = (0..8)
        .map(|i| {
            let host = snap.get(((i * 19 + 3) % db.len()) as u32);
            let n = host.num_points();
            let piece = host.sub_trajectory(n / 4, (3 * n / 4).max(n / 4 + 1));
            g.perturb(&piece, 0.3)
        })
        .collect();

    let mut total = traj_index::QueryStats::default();
    for probe in &probes {
        let res = session.query(probe).sub().collect_stats().knn(5);
        let truth = manual_scan(
            session.snapshot().iter(),
            probe,
            Metric::Edwp,
            QueryMode::Sub,
        );
        assert_eq!(res.neighbors, truth[..5].to_vec(), "sub knn inexact");
        total.merge(&res.stats.expect("requested"));
    }
    assert!(
        total.pruning_ratio() > 0.5,
        "sub-mode pruning too weak: ratio {:.3} ({} EDwP evaluations over {} queries of a {}-trajectory db)",
        total.pruning_ratio(),
        total.edwp_evaluations,
        total.queries,
        total.db_size,
    );
}
