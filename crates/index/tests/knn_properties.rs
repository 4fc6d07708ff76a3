//! The TrajTree correctness contract: k-NN search over the index returns
//! *exactly* the brute-force EDwP top-k — same ids, same distances, same
//! order — on randomized databases, across k values, index configurations
//! and construction paths (bulk-load vs incremental insert), while
//! evaluating full EDwP on at most (and on clustered data far fewer than)
//! `db_size` candidates. Resampled, noisy variants of a member still
//! retrieve it — the paper's inconsistent-sampling scenario.
//!
//! Every tree here is hand-built and wrapped as a single-shard epoch with
//! [`Session::from_parts`], so the tree-level contract is tested on exactly
//! the tree under test (custom configurations, incremental inserts); the
//! lifecycle oracle (`tests/lifecycle_oracle.rs`) ties the full sharded
//! surface, over every lifecycle state, to a model scan.

mod common;

use common::{clustered_db, trajectory};
use proptest::prelude::*;
use traj_core::Trajectory;
use traj_gen::{GenConfig, TrajGen};
use traj_index::{Neighbor, QueryStats, Session, Snapshot, TrajStore, TrajTree, TrajTreeConfig};

/// The hand-built `tree` over `store` as a queryable single-shard epoch.
fn epoch(store: TrajStore, tree: TrajTree) -> Snapshot {
    Session::from_parts(store, tree).snapshot()
}

/// Index k-NN over the epoch's tree, with stats.
fn knn(snap: &Snapshot, query: &Trajectory, k: usize) -> (Vec<Neighbor>, QueryStats) {
    let r = snap.query(query).collect_stats().knn(k);
    (r.neighbors, r.stats.expect("collect_stats() requested"))
}

/// Reference linear scan through the same builder with pruning disabled.
fn brute_force_knn(snap: &Snapshot, query: &Trajectory, k: usize) -> Vec<Neighbor> {
    snap.query(query).brute_force().knn(k).neighbors
}

fn assert_knn_exact(store: TrajStore, tree: TrajTree, query: &Trajectory) {
    let snap = epoch(store, tree);
    for k in [1usize, 5, 10] {
        let (got, stats) = knn(&snap, query, k);
        let want = brute_force_knn(&snap, query, k);
        assert_eq!(
            got.len(),
            want.len(),
            "k={k}: result size {} vs brute force {}",
            got.len(),
            want.len()
        );
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "k={k}: ids diverge: {got:?} vs {want:?}");
            assert_eq!(
                g.distance, w.distance,
                "k={k}: distances diverge for id {}",
                g.id
            );
        }
        assert!(
            stats.edwp_evaluations <= stats.db_size,
            "k={k}: more EDwP evaluations ({}) than a linear scan ({})",
            stats.edwp_evaluations,
            stats.db_size
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn knn_matches_brute_force_on_uniform_dbs(
        db in prop::collection::vec(trajectory(2, 8), 20..101),
        query in trajectory(2, 8),
    ) {
        let store = TrajStore::from(db);
        let tree = TrajTree::build(&store);
        assert_knn_exact(store, tree, &query);
        prop_assert!(true);
    }

    #[test]
    fn knn_matches_brute_force_on_clustered_dbs(
        size in 20usize..101,
        seed in 0u64..1000,
        query in trajectory(2, 8),
    ) {
        let store = TrajStore::from(clustered_db(size, seed));
        let tree = TrajTree::build(&store);
        assert_knn_exact(store, tree, &query);
        prop_assert!(true);
    }

    #[test]
    fn knn_matches_brute_force_with_small_node_capacities(
        db in prop::collection::vec(trajectory(2, 6), 20..61),
        query in trajectory(2, 6),
    ) {
        let store = TrajStore::from(db);
        let tree = TrajTree::bulk_load(
            &store,
            TrajTreeConfig {
                leaf_capacity: 3,
                fanout: 3,
                leaf_boxes: 6,
                internal_boxes: 4,
            },
        );
        assert_knn_exact(store, tree, &query);
        prop_assert!(true);
    }

    #[test]
    fn knn_matches_brute_force_after_incremental_inserts(
        db in prop::collection::vec(trajectory(2, 6), 20..51),
        extra in prop::collection::vec(trajectory(2, 6), 5..16),
        query in trajectory(2, 6),
    ) {
        // Half the database arrives via bulk-load, half via insert.
        let mut store = TrajStore::from(db);
        let mut tree = TrajTree::bulk_load(
            &store,
            TrajTreeConfig {
                leaf_capacity: 4,
                fanout: 4,
                ..TrajTreeConfig::default()
            },
        );
        for t in extra {
            let id = store.insert(t);
            tree.insert(&store, id);
        }
        assert_eq!(tree.len(), store.len());
        assert_knn_exact(store, tree, &query);
        prop_assert!(true);
    }
}

/// Deterministic pruning check: on a clustered database the index must
/// evaluate full EDwP on strictly fewer candidates than a linear scan.
#[test]
fn clustered_queries_prune_most_of_the_database() {
    let store = TrajStore::from(clustered_db(120, 7));
    let tree = TrajTree::build(&store);
    let snap = epoch(store, tree);
    let mut g = TrajGen::with_config(
        99,
        GenConfig {
            area: 400.0,
            clusters: 5,
            cluster_spread: 4.0,
            ..GenConfig::default()
        },
    );
    let mut total_evals = 0usize;
    let mut queries = 0usize;
    for _ in 0..10 {
        let query = g.random_walk(8);
        let (got, stats) = knn(&snap, &query, 5);
        assert_eq!(got, brute_force_knn(&snap, &query, 5));
        total_evals += stats.edwp_evaluations;
        queries += 1;
    }
    let avg = total_evals as f64 / queries as f64;
    assert!(
        avg < snap.len() as f64 * 0.6,
        "weak pruning: {avg:.1} EDwP evaluations per query on a {}-trajectory database",
        snap.len()
    );
}

/// Querying with an exact member must return that member first at distance
/// zero, and a resampled/noisy variant of a member must still retrieve it.
#[test]
fn variant_queries_retrieve_their_original() {
    let store = TrajStore::from(clustered_db(80, 21));
    let tree = TrajTree::build(&store);
    let snap = epoch(store, tree);
    let mut g = TrajGen::new(5);
    let mut hits = 0usize;
    for id in [3u32, 17, 42, 65] {
        let original = snap.get(id).clone();
        let resampled = g.resample(&original, 0.5);
        let variant = g.perturb(&resampled, 0.2);
        let (res, _) = knn(&snap, &variant, 1);
        assert_eq!(res, brute_force_knn(&snap, &variant, 1));
        if res[0].id == id {
            hits += 1;
        }
    }
    assert!(hits >= 3, "only {hits}/4 variants retrieved their original");
}
