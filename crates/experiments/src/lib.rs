//! # traj-experiments
//!
//! End-to-end experiment harness tying together [`traj_gen`] (synthetic
//! data), [`traj_index`] (the TrajTree query session) and [`traj_eval`]
//! (metrics). The experiments mirror the questions of the paper's Sec. VI
//! at reduced scale: does the engine stay exact (for k-NN *and* range
//! queries, sequential *and* batched, under the raw and the
//! length-normalised EDwP metric, at any shard count), how much of the
//! database does it prune, and does EDwP retrieve the original trajectory
//! from a distorted (resampled, noisy) query?

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use traj_core::Trajectory;
use traj_dist::{Metric, QueryMode};
use traj_eval::{ids_of, reciprocal_rank, PruningSummary};
use traj_gen::{GenConfig, TrajGen};
use traj_index::{QueryStats, Session, TrajStore};

/// Parameters of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of database trajectories.
    pub db_size: usize,
    /// Neighbours requested per query.
    pub k: usize,
    /// Number of queries issued.
    pub queries: usize,
    /// RNG seed for data generation.
    pub seed: u64,
    /// Probability of keeping each interior sample when distorting a
    /// member into a query (1.0 disables resampling).
    pub resample_keep: f64,
    /// Spatial noise σ applied to query samples (0.0 disables noise).
    pub noise_sigma: f64,
    /// Distance the queries are answered under (raw or length-normalised
    /// EDwP); exactness is always checked against a brute-force reference
    /// under the same metric.
    pub metric: Metric,
    /// Whether queries match whole stored trajectories or their
    /// best-matching contiguous portions (`EDwP_sub`) — the `.sub()`
    /// builder axis; exactness is checked under the same mode.
    pub mode: QueryMode,
    /// Number of shards the session partitions the database across
    /// (results must be identical at any value — part of what the
    /// experiments verify).
    pub shards: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            db_size: 200,
            k: 5,
            queries: 20,
            seed: 42,
            resample_keep: 0.5,
            noise_sigma: 0.3,
            metric: Metric::Edwp,
            mode: QueryMode::Whole,
            shards: 1,
        }
    }
}

/// Outcome of [`knn_experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// The configuration that produced this report.
    pub config: ExperimentConfig,
    /// Pruning aggregates over all queries.
    pub pruning: PruningSummary,
    /// Fraction of queries whose index result matched brute force exactly.
    pub exactness: f64,
    /// Whether the batch builder over 4 workers reproduced the sequential
    /// results bit-for-bit on every query.
    pub batch_consistent: bool,
    /// Mean reciprocal rank of each query's original trajectory in the
    /// retrieved list (1.0 = always first).
    pub mean_reciprocal_rank: f64,
    /// Index height (tallest shard tree).
    pub tree_height: usize,
    /// Index node count (summed over shards).
    pub tree_nodes: usize,
}

/// Outcome of [`range_experiment`].
#[derive(Debug, Clone)]
pub struct RangeReport {
    /// The configuration that produced this report.
    pub config: ExperimentConfig,
    /// The ε threshold used (in the configured metric's scale).
    pub eps: f64,
    /// Pruning aggregates over all queries.
    pub pruning: PruningSummary,
    /// Fraction of queries whose range result matched brute force exactly.
    pub exactness: f64,
    /// Whether the batch builder over 4 workers reproduced the sequential
    /// results bit-for-bit on every query.
    pub batch_consistent: bool,
    /// Mean number of matches per query.
    pub mean_hits: f64,
    /// Fraction of queries whose ε-ball contained their original.
    pub original_recalled: f64,
}

/// The shared experiment fixture: a query session over a clustered
/// database, plus distorted member queries and the member each was
/// distorted from.
struct Fixture {
    session: Session,
    queries: Vec<Trajectory>,
    targets: Vec<u32>,
}

fn make_fixture(config: &ExperimentConfig) -> Fixture {
    let mut g = TrajGen::with_config(
        config.seed,
        GenConfig {
            area: 400.0,
            clusters: 6,
            cluster_spread: 5.0,
            ..GenConfig::default()
        },
    );
    let store = TrajStore::from(g.database(config.db_size, 5, 14));
    let session = Session::builder().shards(config.shards).build(store);
    let snap = session.snapshot();
    let mut queries = Vec::with_capacity(config.queries);
    let mut targets = Vec::with_capacity(config.queries);
    for q in 0..config.queries {
        // Query = a distorted copy of a database member — of its middle
        // *portion* in sub mode, the partial-trip lookup the mode is for.
        let target = ((q * 37 + 11) % snap.len()) as u32;
        let member = snap.get(target);
        let original = match config.mode {
            QueryMode::Whole => member.clone(),
            QueryMode::Sub => {
                let n = member.num_points();
                member.sub_trajectory(n / 4, (3 * n / 4).max(n / 4 + 1))
            }
        };
        let resampled = g.resample(&original, config.resample_keep);
        let query = if config.noise_sigma > 0.0 {
            g.perturb(&resampled, config.noise_sigma)
        } else {
            resampled
        };
        queries.push(query);
        targets.push(target);
    }
    Fixture {
        session,
        queries,
        targets,
    }
}

/// Runs the standard k-NN experiment: build a clustered database, open a
/// session over it, issue distorted member queries through the query
/// builder (the session pools one scratch across all of them), and compare
/// against the brute-force builder on every query — then re-issue the
/// whole workload through the batch builder and require bit-identical
/// answers.
pub fn knn_experiment(config: ExperimentConfig) -> ExperimentReport {
    let mut fx = make_fixture(&config);
    let mut all_stats: Vec<QueryStats> = Vec::with_capacity(config.queries);
    let mut sequential = Vec::with_capacity(config.queries);
    let mut exact = 0usize;
    let mut mrr_sum = 0.0;
    for (query, &target) in fx.queries.iter().zip(&fx.targets) {
        let got = fx
            .session
            .query(query)
            .metric(config.metric)
            .mode(config.mode)
            .collect_stats()
            .knn(config.k);
        let want = fx
            .session
            .snapshot()
            .query(query)
            .metric(config.metric)
            .mode(config.mode)
            .brute_force()
            .knn(config.k);
        if got.neighbors == want.neighbors {
            exact += 1;
        }
        mrr_sum += reciprocal_rank(&ids_of(&got.neighbors), target);
        all_stats.push(got.stats.expect("collect_stats() requested"));
        sequential.push(got.neighbors);
    }

    let batched = fx
        .session
        .batch(&fx.queries)
        .metric(config.metric)
        .mode(config.mode)
        .threads(4)
        .knn(config.k);
    let batch_consistent = batched.neighbors == sequential;

    ExperimentReport {
        pruning: PruningSummary::from_stats(&all_stats),
        exactness: exact as f64 / config.queries.max(1) as f64,
        batch_consistent,
        mean_reciprocal_rank: mrr_sum / config.queries.max(1) as f64,
        tree_height: fx.session.snapshot().tree_height(),
        tree_nodes: fx.session.snapshot().node_count(),
        config,
    }
}

/// Runs the range-query experiment on the same fixture: every distorted
/// member query asks for its ε-ball, checked exactly against the
/// brute-force builder and re-issued through the batch builder.
///
/// `eps` is in the configured metric's scale (cumulative EDwP for
/// [`Metric::Edwp`], normalised for [`Metric::EdwpNormalized`]); pick it
/// relative to the distortion level — the report's `original_recalled`
/// says how often the ball was wide enough to re-capture the query's
/// original.
pub fn range_experiment(config: ExperimentConfig, eps: f64) -> RangeReport {
    let mut fx = make_fixture(&config);
    let mut all_stats: Vec<QueryStats> = Vec::with_capacity(config.queries);
    let mut sequential = Vec::with_capacity(config.queries);
    let mut exact = 0usize;
    let mut hit_sum = 0usize;
    let mut recalled = 0usize;
    for (query, &target) in fx.queries.iter().zip(&fx.targets) {
        let got = fx
            .session
            .query(query)
            .metric(config.metric)
            .mode(config.mode)
            .collect_stats()
            .range(eps);
        let want = fx
            .session
            .snapshot()
            .query(query)
            .metric(config.metric)
            .mode(config.mode)
            .brute_force()
            .range(eps);
        if got.neighbors == want.neighbors {
            exact += 1;
        }
        hit_sum += got.neighbors.len();
        if got.neighbors.iter().any(|n| n.id == target) {
            recalled += 1;
        }
        all_stats.push(got.stats.expect("collect_stats() requested"));
        sequential.push(got.neighbors);
    }

    let batched = fx
        .session
        .batch(&fx.queries)
        .metric(config.metric)
        .mode(config.mode)
        .threads(4)
        .range(eps);
    let batch_consistent = batched.neighbors == sequential;

    RangeReport {
        eps,
        pruning: PruningSummary::from_stats(&all_stats),
        exactness: exact as f64 / config.queries.max(1) as f64,
        batch_consistent,
        mean_hits: hit_sum as f64 / config.queries.max(1) as f64,
        original_recalled: recalled as f64 / config.queries.max(1) as f64,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_is_exact_and_prunes() {
        let report = knn_experiment(ExperimentConfig {
            db_size: 120,
            queries: 8,
            ..ExperimentConfig::default()
        });
        assert_eq!(report.exactness, 1.0, "index diverged from brute force");
        assert!(
            report.batch_consistent,
            "batch builder diverged from sequential"
        );
        assert!(
            report.pruning.mean_edwp_evaluations < 120.0,
            "no pruning at all: {}",
            report.pruning.mean_edwp_evaluations
        );
        assert!(report.mean_reciprocal_rank > 0.5);
        assert!(report.tree_height >= 2);
    }

    #[test]
    fn experiment_is_exact_under_normalized_metric() {
        let report = knn_experiment(ExperimentConfig {
            db_size: 100,
            queries: 8,
            metric: Metric::EdwpNormalized,
            ..ExperimentConfig::default()
        });
        assert_eq!(
            report.exactness, 1.0,
            "normalised index diverged from brute force"
        );
        assert!(report.batch_consistent);
        assert!(report.mean_reciprocal_rank > 0.5);
    }

    #[test]
    fn experiment_is_exact_in_sub_mode() {
        // The index-backed sub-trajectory path: distorted partial trips
        // must retrieve exactly what a brute-force edwp_sub scan retrieves,
        // sequentially and batched, while pruning more than half of the
        // database on this clustered fixture.
        for shards in [1usize, 2] {
            let report = knn_experiment(ExperimentConfig {
                db_size: 120,
                queries: 8,
                mode: QueryMode::Sub,
                shards,
                ..ExperimentConfig::default()
            });
            assert_eq!(
                report.exactness, 1.0,
                "{shards}-shard sub-mode index diverged from brute force"
            );
            assert!(report.batch_consistent, "sub-mode batch diverged");
            assert!(
                report.pruning.mean_pruning_ratio > 0.5,
                "sub-mode pruning too weak: {}",
                report.pruning.mean_pruning_ratio
            );
            assert!(report.mean_reciprocal_rank > 0.3);
        }
        // Range finisher under sub mode, same exactness contract.
        let range = range_experiment(
            ExperimentConfig {
                db_size: 100,
                queries: 6,
                mode: QueryMode::Sub,
                ..ExperimentConfig::default()
            },
            2000.0,
        );
        assert_eq!(range.exactness, 1.0, "sub-mode range diverged");
        assert!(range.batch_consistent);
    }

    #[test]
    fn experiment_is_exact_across_shards() {
        for shards in [2usize, 4] {
            let report = knn_experiment(ExperimentConfig {
                db_size: 100,
                queries: 6,
                shards,
                ..ExperimentConfig::default()
            });
            assert_eq!(
                report.exactness, 1.0,
                "{shards}-shard index diverged from brute force"
            );
            assert!(report.batch_consistent);
            assert!(report.tree_nodes >= shards, "every shard builds a tree");
        }
    }

    #[test]
    fn range_experiment_is_exact() {
        let report = range_experiment(
            ExperimentConfig {
                db_size: 100,
                queries: 6,
                ..ExperimentConfig::default()
            },
            5000.0,
        );
        assert_eq!(report.exactness, 1.0, "range diverged from brute force");
        assert!(
            report.batch_consistent,
            "batch builder diverged from sequential"
        );
        assert!(report.pruning.queries == 6);
    }

    #[test]
    fn scaling_curves_have_the_papers_shape() {
        // Sec. VI's curves as exact work counts (default fixture: seed 42,
        // 20 queries) — deterministic, so the shape is pinned without a
        // clock. Every point must also be exact and batch-consistent.
        let knn = |db_size, k, metric| {
            let report = knn_experiment(ExperimentConfig {
                db_size,
                k,
                metric,
                ..ExperimentConfig::default()
            });
            assert_eq!(report.exactness, 1.0, "db {db_size}, k {k}, {metric:?}");
            assert!(report.batch_consistent, "db {db_size}, k {k}, {metric:?}");
            report.pruning
        };

        // Query cost vs database size at k = 10: exact evaluations per
        // query grow sublinearly while the pruned fraction rises. Recorded:
        // db 100 / 300 / 900 -> 18.55 / 43.9 / 81.25 evaluations (a 9x
        // database costs 4.4x), pruning 0.81 / 0.85 / 0.91.
        let by_size: Vec<_> = [100usize, 300, 900]
            .iter()
            .map(|&db| (db as f64, knn(db, 10, Metric::Edwp)))
            .collect();
        for pair in by_size.windows(2) {
            let ((db_a, a), (db_b, b)) = (&pair[0], &pair[1]);
            let growth = b.mean_edwp_evaluations / a.mean_edwp_evaluations;
            assert!(
                growth < db_b / db_a,
                "evaluations grew {growth}x from db {db_a} to {db_b}"
            );
            assert!(
                b.mean_pruning_ratio > a.mean_pruning_ratio,
                "pruning fell from db {db_a} to {db_b}"
            );
        }

        // Query cost vs k at db 400: monotone under both metrics. Recorded
        // for k 1 / 5 / 10 / 25: 3.8 / 40.85 / 55.7 / 65.85 raw,
        // 4.85 / 42.5 / 54.35 / 67.05 normalised.
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            let evals: Vec<f64> = [1usize, 5, 10, 25]
                .iter()
                .map(|&k| knn(400, k, metric).mean_edwp_evaluations)
                .collect();
            assert!(evals.is_sorted(), "{metric:?} evaluations vs k: {evals:?}");
        }

        // Range cost vs eps at db 400: evaluations and hits both monotone.
        // Recorded for eps 0.5 / 2 / 8 / 32 / 128: 0.5 / 1.05 / 2.25 / 7.5 /
        // 28.55 evaluations.
        let by_eps: Vec<(f64, f64)> = [0.5, 2.0, 8.0, 32.0, 128.0]
            .iter()
            .map(|&eps| {
                let report = range_experiment(
                    ExperimentConfig {
                        db_size: 400,
                        ..ExperimentConfig::default()
                    },
                    eps,
                );
                assert_eq!(report.exactness, 1.0, "eps {eps}");
                assert!(report.batch_consistent, "eps {eps}");
                (report.pruning.mean_edwp_evaluations, report.mean_hits)
            })
            .collect();
        assert!(by_eps.is_sorted_by(|a, b| a.0 <= b.0 && a.1 <= b.1));
    }
}
