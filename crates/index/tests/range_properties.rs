//! The range-query and batch-query correctness contracts:
//!
//! * `.range(eps)` returns exactly the brute-force filter — same ids, same
//!   distances, ascending `(distance, id)` order — on randomized uniform
//!   and clustered databases, including the `eps = 0` and
//!   `eps = f64::INFINITY` edges;
//! * batch `.knn(k)` / `.range(eps)` are bitwise identical to a sequential
//!   loop of single queries for any worker count, with merged stats equal
//!   to the summed singles.
//!
//! Every tree is hand-built and wrapped as a single-shard epoch with
//! [`Session::from_parts`]; range exactness over randomized lifecycles,
//! radii and paths is the lifecycle oracle's job
//! (`tests/lifecycle_oracle.rs`).

mod common;

use common::{clustered_db, manual_scan, trajectory};
use proptest::prelude::*;
use traj_core::Trajectory;
use traj_dist::{Metric, QueryMode};
use traj_gen::{GenConfig, TrajGen};
use traj_index::{Neighbor, QueryStats, Session, Snapshot, TrajStore, TrajTree};

/// A default-configuration tree built over `db`, as a queryable
/// single-shard epoch.
fn epoch(db: Vec<Trajectory>) -> Snapshot {
    let store = TrajStore::from(db);
    let tree = TrajTree::build(&store);
    Session::from_parts(store, tree).snapshot()
}

/// Index range search over the epoch's tree, with stats.
fn range(snap: &Snapshot, query: &Trajectory, eps: f64) -> (Vec<Neighbor>, QueryStats) {
    let r = snap.query(query).collect_stats().range(eps);
    (r.neighbors, r.stats.expect("collect_stats() requested"))
}

/// Reference linear scan through the same builder with pruning disabled.
fn brute_force_range(snap: &Snapshot, query: &Trajectory, eps: f64) -> Vec<Neighbor> {
    snap.query(query).brute_force().range(eps).neighbors
}

/// Independent reference: the manual EDwP scan of the whole epoch, kept
/// within `eps`, ascending `(distance, id)`.
fn manual_range_filter(snap: &Snapshot, query: &Trajectory, eps: f64) -> Vec<Neighbor> {
    let scan = manual_scan(snap.iter(), query, Metric::Edwp, QueryMode::Whole);
    scan.into_iter().filter(|n| n.distance <= eps).collect()
}

/// The EDwP distance at quantile `sel` of the epoch's distances to
/// `query`, so a range is neither trivially empty nor the whole database.
fn quantile_eps(snap: &Snapshot, query: &Trajectory, sel: f64) -> f64 {
    let scan = manual_scan(snap.iter(), query, Metric::Edwp, QueryMode::Whole);
    scan[((sel * (scan.len() - 1) as f64) as usize).min(scan.len() - 1)].distance
}

fn assert_range_exact(snap: &Snapshot, query: &Trajectory, eps: f64) {
    let (got, stats) = range(snap, query, eps);
    let manual = manual_range_filter(snap, query, eps);
    assert_eq!(
        got, manual,
        "eps={eps}: index range diverged from the manual filter"
    );
    assert_eq!(got, brute_force_range(snap, query, eps));
    for w in got.windows(2) {
        assert!(
            (w[0].distance, w[0].id) < (w[1].distance, w[1].id),
            "results not strictly ascending on (distance, id)"
        );
    }
    assert!(
        stats.edwp_evaluations <= stats.db_size,
        "more EDwP evaluations ({}) than a linear scan ({})",
        stats.edwp_evaluations,
        stats.db_size
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn range_matches_brute_force_on_uniform_dbs(
        db in prop::collection::vec(trajectory(2, 8), 20..81),
        query in trajectory(2, 8),
        sel in 0.0..1.0f64,
    ) {
        let snap = epoch(db);
        let eps = quantile_eps(&snap, &query, sel);
        assert_range_exact(&snap, &query, eps);
        // The edges hold on every generated instance too.
        assert_range_exact(&snap, &query, 0.0);
        assert_range_exact(&snap, &query, f64::INFINITY);
        prop_assert!(true);
    }

    #[test]
    fn range_matches_brute_force_on_clustered_dbs(
        size in 20usize..81,
        seed in 0u64..1000,
        query in trajectory(2, 8),
        sel in 0.0..1.0f64,
    ) {
        let snap = epoch(clustered_db(size, seed));
        let eps = quantile_eps(&snap, &query, sel);
        assert_range_exact(&snap, &query, eps);
        assert_range_exact(&snap, &query, 0.0);
        assert_range_exact(&snap, &query, f64::INFINITY);
        prop_assert!(true);
    }
}

/// `eps = 0` on a query that *is* a member: the member (and any geometric
/// duplicates) come back at distance exactly zero.
#[test]
fn range_zero_eps_finds_exact_members() {
    let snap = epoch(clustered_db(60, 3));
    for id in [0u32, 17, 41] {
        let member = snap.get(id).clone();
        let (got, _) = range(&snap, &member, 0.0);
        assert!(got.iter().any(|n| n.id == id), "member {id} not found");
        assert!(got.iter().all(|n| n.distance == 0.0));
        assert_eq!(got, manual_range_filter(&snap, &member, 0.0));
    }
}

/// `eps = ∞` returns the entire database in brute-force order.
#[test]
fn range_infinite_eps_returns_whole_db() {
    let snap = epoch(clustered_db(45, 11));
    let mut g = TrajGen::new(8);
    let query = g.random_walk(6);
    let (got, _) = range(&snap, &query, f64::INFINITY);
    assert_eq!(got.len(), snap.len());
    assert_eq!(got, manual_range_filter(&snap, &query, f64::INFINITY));
}

/// Batch determinism: `batch_knn`/`batch_range` over ≥ 4 workers are
/// *bitwise* identical to sequential single-query loops.
#[test]
fn batch_queries_are_bitwise_identical_to_sequential() {
    let snap = epoch(clustered_db(100, 23));
    let mut g = TrajGen::with_config(
        51,
        GenConfig {
            area: 400.0,
            clusters: 5,
            cluster_spread: 4.0,
            ..GenConfig::default()
        },
    );
    let queries: Vec<Trajectory> = (0..12).map(|_| g.random_walk(7)).collect();

    let seq_knn: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| snap.query(q).knn(6).neighbors)
        .collect();
    let eps = quantile_eps(&snap, &queries[0], 0.3);
    let seq_range: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| snap.query(q).range(eps).neighbors)
        .collect();

    for threads in [1usize, 2, 4, 7] {
        let res = snap.batch(&queries).threads(threads).collect_stats().knn(6);
        let (batch_knn, knn_stats) = (res.neighbors, res.stats.expect("requested"));
        // Vec<Neighbor> equality is f64 PartialEq — i.e. bitwise for these
        // finite distances — plus id equality, in order.
        assert_eq!(
            batch_knn, seq_knn,
            "batch_knn diverged at {threads} workers"
        );
        assert_eq!(knn_stats.queries, queries.len());
        // Merged db_size sums the per-query database sizes.
        assert_eq!(knn_stats.db_size, snap.len() * queries.len());

        let res = snap
            .batch(&queries)
            .threads(threads)
            .collect_stats()
            .range(eps);
        let (batch_range, range_stats) = (res.neighbors, res.stats.expect("requested"));
        assert_eq!(
            batch_range, seq_range,
            "batch_range diverged at {threads} workers"
        );
        assert_eq!(range_stats.queries, queries.len());
    }
}

/// The merged batch stats equal the sum of sequential per-query stats — no
/// counter is dropped in the fan-out/merge.
#[test]
fn batch_stats_equal_summed_sequential_stats() {
    let snap = epoch(clustered_db(80, 5));
    let mut g = TrajGen::new(77);
    let queries: Vec<Trajectory> = (0..9).map(|_| g.random_walk(6)).collect();

    let mut want = QueryStats::default();
    for q in &queries {
        let r = snap.query(q).collect_stats().knn(4);
        want.merge(&r.stats.expect("requested"));
    }
    let got = snap.batch(&queries).threads(4).collect_stats().knn(4);
    assert_eq!(got.stats.expect("requested"), want);
}
