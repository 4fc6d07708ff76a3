//! Pins how well the tree prunes, not just that it answers exactly: a
//! seeded clustered fixture, a fixed query set, and the exact work counts
//! the forest traversal reports for it. Exactness is covered everywhere
//! else; a node summary that gets coarser still answers exactly and only
//! shows up here, as more nodes visited and more bounds evaluated.
//!
//! The counts are deterministic (seeded generator, deterministic bulk
//! load, forest traversal on the calling thread) and the same under both
//! kernel dispatches. The recorded values are those of the build that made
//! "an internal summary is the coalesced concatenation of its children's"
//! the only rule; the merge-DP internal summaries it replaced cost more on
//! this fixture, not less — 1983 nodes and 13333 bounds for the same 4029
//! exact evaluations.

use traj_core::Trajectory;
use traj_gen::{GenConfig, TrajGen};
use traj_index::{QueryStats, Session, TrajStore};

const TRIPS: usize = 2000;
const QUERIES: usize = 50;
const K: usize = 10;

/// Totals recorded for this fixture: nodes visited and bound evaluations
/// (ceilings — internal summaries may only get better at pruning), exact
/// EDwP evaluations (an equality — which members reach the exact distance
/// is decided by the leaf summaries and member bounds).
const NODES_VISITED: usize = 1954;
const BOUND_EVALUATIONS: usize = 13108;
const EDWP_EVALUATIONS: usize = 4029;

#[test]
fn clustered_knn_work_stays_at_the_recorded_counts() {
    let mut g = TrajGen::with_config(
        0x9121,
        GenConfig {
            area: 1000.0,
            clusters: 16,
            cluster_spread: 10.0,
            step: 4.0,
            ..GenConfig::default()
        },
    );
    let trips = g.database(TRIPS, 6, 16);
    // "Same trip, different sampling rate" lookups, spread over the store.
    let queries: Vec<Trajectory> = (0..QUERIES)
        .map(|i| {
            let resampled = g.resample(&trips[(i * 37 + 11) % TRIPS], 0.5);
            g.perturb(&resampled, 1.0)
        })
        .collect();
    let mut session = Session::builder().shards(4).build(TrajStore::from(trips));

    let mut total = QueryStats::default();
    for q in &queries {
        // Forest traversal on the calling thread: the parallel scatter's
        // counts depend on thread timing.
        let answer = session
            .query(q)
            .parallel_scatter(false)
            .collect_stats()
            .knn(K);
        assert_eq!(answer.neighbors.len(), K);
        total.merge(&answer.stats.expect("collect_stats() requested"));
    }
    assert!(
        total.nodes_visited <= NODES_VISITED,
        "nodes_visited {} > recorded {NODES_VISITED}: internal pruning got coarser",
        total.nodes_visited
    );
    assert!(
        total.bound_evaluations <= BOUND_EVALUATIONS,
        "bound_evaluations {} > recorded {BOUND_EVALUATIONS}: internal pruning got coarser",
        total.bound_evaluations
    );
    assert_eq!(total.edwp_evaluations, EDWP_EVALUATIONS);
}
