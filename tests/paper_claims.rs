//! The paper's Sec. VI claims, asserted at reduced scale through the facade:
//! the shape of the query-cost curves (as exact work counts, so no clock is
//! read, and with every answer checked against brute force) and EDwP's
//! robustness to sparse resampling where the point-matching distances DTW
//! and ERP lose the original trip.

use trajrep::baselines::{DtwDistance, ErpDistance};
use trajrep::{
    EdwpDistance, GenConfig, Metric, Neighbor, QueryMode, QueryStats, Session, TrajDistance,
    TrajGen, TrajId, TrajStore, Trajectory,
};

/// Seed of every fixture.
const SEED: u64 = 42;
/// Queries per cost-curve point.
const QUERIES: usize = 20;
/// Probability of keeping each interior sample of a cost-curve query.
const RESAMPLE_KEEP: f64 = 0.5;
/// Spatial noise σ on every distorted query.
const NOISE_SIGMA: f64 = 0.3;

/// Six tight clusters in a 400 × 400 area, so pruning has structure to use.
fn clustered_gen() -> TrajGen {
    TrajGen::with_config(
        SEED,
        GenConfig {
            area: 400.0,
            clusters: 6,
            cluster_spread: 5.0,
            ..GenConfig::default()
        },
    )
}

/// A session over `db_size` clustered trips of 5–14 points, plus `queries`
/// distorted copies of members (of a member's middle portion in sub mode,
/// the partial-trip lookup the mode is for) and the member each came from.
fn fixture(
    db_size: usize,
    queries: usize,
    shards: usize,
    mode: QueryMode,
) -> (Session, Vec<Trajectory>, Vec<TrajId>) {
    let mut g = clustered_gen();
    let session = Session::builder()
        .shards(shards)
        .build(TrajStore::from(g.database(db_size, 5, 14)));
    let snap = session.snapshot();
    let (queries, targets) = (0..queries)
        .map(|q| {
            let target = ((q * 37 + 11) % snap.len()) as TrajId;
            let member = snap.get(target);
            let original = match mode {
                QueryMode::Whole => member.clone(),
                QueryMode::Sub => {
                    let n = member.num_points();
                    member.sub_trajectory(n / 4, (3 * n / 4).max(n / 4 + 1))
                }
            };
            let resampled = g.resample(&original, RESAMPLE_KEEP);
            (g.perturb(&resampled, NOISE_SIGMA), target)
        })
        .unzip();
    (session, queries, targets)
}

/// The finisher a query run ends in.
#[derive(Debug, Clone, Copy)]
enum Finish {
    Knn(usize),
    Range(f64),
}

/// Answers every query through the index with `collect_stats()`, requires
/// each answer to equal `.brute_force()` and a 4-thread batch to equal the
/// sequential answers, and returns the summed work counters and answers.
fn run_exact(
    session: &mut Session,
    queries: &[Trajectory],
    metric: Metric,
    mode: QueryMode,
    finish: Finish,
) -> (QueryStats, Vec<Vec<Neighbor>>) {
    let context = format!(
        "{metric:?} {mode:?} {finish:?} over {} trips",
        session.len()
    );
    let mut stats = QueryStats::default();
    let mut sequential = Vec::with_capacity(queries.len());
    for (i, query) in queries.iter().enumerate() {
        let brute = session
            .snapshot()
            .query(query)
            .metric(metric)
            .mode(mode)
            .brute_force();
        let indexed = session
            .query(query)
            .metric(metric)
            .mode(mode)
            .collect_stats();
        let (got, want) = match finish {
            Finish::Knn(k) => (indexed.knn(k), brute.knn(k)),
            Finish::Range(eps) => (indexed.range(eps), brute.range(eps)),
        };
        assert_eq!(
            got.neighbors, want.neighbors,
            "{context}: query {i} diverged from brute force"
        );
        stats.merge(&got.stats.expect("collect_stats() requested"));
        sequential.push(got.neighbors);
    }
    let batch = session.batch(queries).metric(metric).mode(mode).threads(4);
    let batched = match finish {
        Finish::Knn(k) => batch.knn(k),
        Finish::Range(eps) => batch.range(eps),
    };
    assert_eq!(
        batched.neighbors, sequential,
        "{context}: batch diverged from sequential"
    );
    (stats, sequential)
}

/// Mean reciprocal rank of each target in its query's ranked answer (0 when
/// absent).
fn mean_reciprocal_rank(answers: &[Vec<Neighbor>], targets: &[TrajId]) -> f64 {
    let sum: f64 = answers
        .iter()
        .zip(targets)
        .filter_map(|(answer, &target)| answer.iter().position(|n| n.id == target))
        .map(|pos| 1.0 / (pos + 1) as f64)
        .sum();
    sum / targets.len() as f64
}

#[test]
fn experiment_is_exact_in_sub_mode() {
    // The index-backed sub-trajectory path: distorted partial trips
    // must retrieve exactly what a brute-force edwp_sub scan retrieves,
    // sequentially and batched, while pruning more than half of the
    // database on this clustered fixture.
    for shards in [1usize, 2] {
        let (mut session, queries, targets) = fixture(120, 8, shards, QueryMode::Sub);
        let (stats, answers) = run_exact(
            &mut session,
            &queries,
            Metric::Edwp,
            QueryMode::Sub,
            Finish::Knn(5),
        );
        assert!(
            stats.pruning_ratio() > 0.5,
            "{shards}-shard sub-mode pruning too weak: {}",
            stats.pruning_ratio()
        );
        assert!(mean_reciprocal_rank(&answers, &targets) > 0.3);
    }
    // Range finisher under sub mode, same exactness contract.
    let (mut session, queries, _) = fixture(100, 6, 1, QueryMode::Sub);
    run_exact(
        &mut session,
        &queries,
        Metric::Edwp,
        QueryMode::Sub,
        Finish::Range(2000.0),
    );
}

#[test]
fn scaling_curves_have_the_papers_shape() {
    // Sec. VI's curves as exact work counts (seed 42, 20 queries) —
    // deterministic, so the shape is pinned without a clock. Every point
    // must also be exact and batch-consistent (checked in `run_exact`).
    let run = |db_size, metric, finish| {
        let (mut session, queries, _) = fixture(db_size, QUERIES, 1, QueryMode::Whole);
        run_exact(&mut session, &queries, metric, QueryMode::Whole, finish)
    };

    // Query cost vs database size at k = 10: exact evaluations per
    // query grow sublinearly while the pruned fraction rises. Recorded:
    // db 100 / 300 / 900 -> 12.8 / 18.45 / 24.5 evaluations (a 9x
    // database costs 1.9x), pruning 0.87 / 0.94 / 0.97.
    let by_size: Vec<_> = [100usize, 300, 900]
        .iter()
        .map(|&db| (db as f64, run(db, Metric::Edwp, Finish::Knn(10)).0))
        .collect();
    for pair in by_size.windows(2) {
        let ((db_a, a), (db_b, b)) = (&pair[0], &pair[1]);
        let growth = b.mean_edwp_evaluations() / a.mean_edwp_evaluations();
        assert!(
            growth < db_b / db_a,
            "evaluations grew {growth}x from db {db_a} to {db_b}"
        );
        assert!(
            b.pruning_ratio() > a.pruning_ratio(),
            "pruning fell from db {db_a} to {db_b}"
        );
    }

    // Query cost vs k at db 400: monotone under both metrics. Recorded
    // for k 1 / 5 / 10 / 25: 1.1 / 10.75 / 19.2 / 37.85 raw,
    // 1.1 / 10.6 / 19.65 / 39.9 normalised.
    for metric in [Metric::Edwp, Metric::EdwpNormalized] {
        let evals: Vec<f64> = [1usize, 5, 10, 25]
            .iter()
            .map(|&k| run(400, metric, Finish::Knn(k)).0.mean_edwp_evaluations())
            .collect();
        assert!(evals.is_sorted(), "{metric:?} evaluations vs k: {evals:?}");
    }

    // Range cost vs eps at db 400: evaluations and hits both monotone.
    // Recorded for eps 0.5 / 2 / 8 / 32 / 128: 0 / 0.2 / 0.55 / 1.2 /
    // 5.75 evaluations, 0 / 0 / 0.15 / 0.8 / 2.75 hits.
    let by_eps: Vec<(f64, f64)> = [0.5, 2.0, 8.0, 32.0, 128.0]
        .iter()
        .map(|&eps| {
            let (stats, answers) = run(400, Metric::Edwp, Finish::Range(eps));
            let hits: usize = answers.iter().map(Vec::len).sum();
            (stats.mean_edwp_evaluations(), hits as f64 / QUERIES as f64)
        })
        .collect();
    assert!(by_eps.is_sorted_by(|a, b| a.0 <= b.0 && a.1 <= b.1));
}

/// 1-NN accuracy and MRR of each query's original among `stored` under
/// `dist`. Ties count against the original: its rank is 1 + the number of
/// other trips at a distance ≤ its own.
fn accuracy_and_mrr(
    dist: &dyn TrajDistance,
    stored: &[Trajectory],
    queries: &[(usize, Trajectory)],
) -> (f64, f64) {
    let (mut hits, mut rr_sum) = (0usize, 0.0);
    for (target, query) in queries {
        let own = dist.distance(query, &stored[*target]);
        let rank = 1 + stored
            .iter()
            .enumerate()
            .filter(|&(id, t)| id != *target && dist.distance(query, t) <= own)
            .count();
        hits += usize::from(rank == 1);
        rr_sum += 1.0 / rank as f64;
    }
    let n = queries.len() as f64;
    (hits as f64 / n, rr_sum / n)
}

#[test]
fn edwp_outranks_point_matching_under_sparse_resampling() {
    // The Fig. 1 / Sec. VI robustness claim: query with a member resampled
    // ever more sparsely (plus noise) and EDwP keeps ranking the original
    // at least as well as DTW and ERP at every rate — strictly better
    // than DTW at the sparse end, where matching points to points fails.
    let mut g = clustered_gen();
    let stored = g.database(60, 10, 30);
    let erp = ErpDistance::default();
    let measures: [&dyn TrajDistance; 3] = [&EdwpDistance, &DtwDistance, &erp];
    for keep in [0.9, 0.7, 0.5, 0.3, 0.15, 0.05] {
        let queries: Vec<(usize, Trajectory)> = (0..15)
            .map(|i| {
                let target = (i * 37 + 11) % stored.len();
                let resampled = g.resample(&stored[target], keep);
                (target, g.perturb(&resampled, NOISE_SIGMA))
            })
            .collect();
        let [edwp, dtw, erp] = measures.map(|d| accuracy_and_mrr(d, &stored, &queries));
        for (name, other) in [("DTW", dtw), ("ERP", erp)] {
            assert!(
                edwp.0 >= other.0 && edwp.1 >= other.1,
                "keep {keep}: EDwP (accuracy, MRR) {edwp:?} below {name}'s {other:?}"
            );
        }
        if keep == 0.05 {
            assert!(
                edwp.0 > dtw.0,
                "keep {keep}: EDwP accuracy {} not above DTW's {}",
                edwp.0,
                dtw.0
            );
        }
    }
}
