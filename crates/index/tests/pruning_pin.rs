//! Pins how well the tree prunes, not just that it answers exactly: a
//! seeded clustered fixture, a fixed query set, and the exact work counts
//! the forest traversal reports for it. Exactness is covered everywhere
//! else; a node summary that gets coarser still answers exactly and only
//! shows up here, as more nodes visited and more bounds evaluated.
//!
//! The counts are deterministic (seeded generator, deterministic bulk
//! load, every query one traversal on the thread that runs it) and the
//! same under both kernel dispatches. The recorded values are those of the build that made
//! "an internal summary is the coalesced concatenation of its children's"
//! the only rule; the merge-DP internal summaries it replaced cost more on
//! this fixture, not less — 1983 nodes and 13333 bounds for the same 4029
//! exact evaluations (both measured under the one-sided member bound).

use traj_core::Trajectory;
use traj_gen::{GenConfig, TrajGen};
use traj_index::{QueryStats, Session, TrajStore};

const TRIPS: usize = 2000;
const QUERIES: usize = 50;
const K: usize = 10;

/// Totals recorded for this fixture: nodes visited and bound evaluations
/// (ceilings — internal summaries may only get better at pruning), exact
/// EDwP evaluations (an equality — which members reach the exact distance
/// is decided by the leaf summaries and member bounds). Recorded with the
/// two-sided whole-mode member bound; the one-sided bound it replaced ran
/// 4029 exact evaluations here and, because the threshold then tightened
/// sooner, 13108 bound evaluations.
const NODES_VISITED: usize = 1954;
const BOUND_EVALUATIONS: usize = 13280;
const EDWP_EVALUATIONS: usize = 1230;

/// The seeded fixture: the stored trips and "same trip, different sampling
/// rate" lookups spread over them.
fn fixture() -> (Vec<Trajectory>, Vec<Trajectory>) {
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
    let queries = (0..QUERIES)
        .map(|i| {
            let resampled = g.resample(&trips[(i * 37 + 11) % TRIPS], 0.5);
            g.perturb(&resampled, 1.0)
        })
        .collect();
    (trips, queries)
}

/// Summed counters of every fixture query run singly against `session`.
fn singles(session: &mut Session, queries: &[Trajectory]) -> QueryStats {
    let mut total = QueryStats::default();
    for q in queries {
        let answer = session.query(q).collect_stats().knn(K);
        assert_eq!(answer.neighbors.len(), K);
        total.merge(&answer.stats.expect("collect_stats() requested"));
    }
    total
}

#[test]
fn clustered_knn_work_stays_at_the_recorded_counts() {
    let (trips, queries) = fixture();
    let mut session = Session::builder().shards(4).build(TrajStore::from(trips));
    let total = singles(&mut session, &queries);
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

/// What sharding may cost in work: the forest's totals at 4 shards against
/// the same queries on 1 shard, as recorded ceilings in percent (measured
/// 100 / 129.4 / 144.8). One threshold over all roots keeps the exact
/// evaluations where a single tree has them; only the four smaller trees'
/// extra upper levels show, as bounds and node visits.
#[test]
fn four_shard_forest_work_stays_near_the_one_shard_totals() {
    let (trips, queries) = fixture();
    let one = singles(
        &mut Session::build(TrajStore::from(trips.clone())),
        &queries,
    );
    let four = singles(
        &mut Session::builder().shards(4).build(TrajStore::from(trips)),
        &queries,
    );
    let within = |name: &str, count: fn(&QueryStats) -> usize, percent: usize| {
        let (forest, single) = (count(&four), count(&one));
        assert!(
            forest * 100 <= single * percent,
            "{name}: {forest} at 4 shards > {percent}% of {single} at 1 shard"
        );
    };
    within("edwp_evaluations", |s| s.edwp_evaluations, 100);
    within("bound_evaluations", |s| s.bound_evaluations, 130);
    within("nodes_visited", |s| s.nodes_visited, 145);
}

/// A batch is the same searches on more threads: its merged counters are
/// exactly the singles' sum.
#[test]
fn batch_counters_are_the_sum_of_the_singles() {
    let (trips, queries) = fixture();
    let mut session = Session::builder().shards(4).build(TrajStore::from(trips));
    let want = singles(&mut session, &queries);
    let batch = session.batch(&queries).threads(4).collect_stats().knn(K);
    assert_eq!(batch.stats, Some(want));
    assert_eq!((want.queries, want.db_size), (QUERIES, QUERIES * TRIPS));
}

/// The regression the forest exists to prevent: each of the four
/// partitions searched on its own, under its own threshold, pays for its
/// own k nearest before it can prune — about three times the forest's
/// exact evaluations on this fixture (3731 against 1230). Computed here so the
/// pins above demonstrably separate that shape from the one schedule.
#[test]
fn per_shard_thresholds_would_cost_well_above_the_forest() {
    let (trips, queries) = fixture();
    let mut apart = QueryStats::default();
    for shard in 0..4 {
        let part: Vec<Trajectory> = trips.iter().skip(shard).step_by(4).cloned().collect();
        apart.merge(&singles(
            &mut Session::build(TrajStore::from(part)),
            &queries,
        ));
    }
    assert!(
        apart.edwp_evaluations * 2 >= EDWP_EVALUATIONS * 3,
        "four separate searches cost {} exact evaluations, the forest {EDWP_EVALUATIONS}",
        apart.edwp_evaluations
    );
}
