//! # traj-eval
//!
//! Retrieval-quality and pruning metrics for trajectory k-NN experiments,
//! mirroring the measurements of the paper's experimental section
//! (precision of retrieved neighbour sets, rank of a known relevant
//! trajectory, and the fraction of the database an index avoids scoring).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use traj_index::{Neighbor, QueryStats, TrajId};

/// Fraction of `retrieved` ids that appear in `relevant` (precision@k for
/// `k = retrieved.len()`). Returns 0 for an empty retrieval.
pub fn precision(retrieved: &[TrajId], relevant: &[TrajId]) -> f64 {
    if retrieved.is_empty() {
        return 0.0;
    }
    let hits = retrieved.iter().filter(|id| relevant.contains(id)).count();
    hits as f64 / retrieved.len() as f64
}

/// Fraction of `relevant` ids that appear in `retrieved` (recall@k).
/// Returns 0 when there are no relevant ids.
pub fn recall(retrieved: &[TrajId], relevant: &[TrajId]) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let hits = relevant.iter().filter(|id| retrieved.contains(id)).count();
    hits as f64 / relevant.len() as f64
}

/// Reciprocal rank of `target` in a ranked retrieval (1 for first place,
/// 1/2 for second, …; 0 when absent).
pub fn reciprocal_rank(retrieved: &[TrajId], target: TrajId) -> f64 {
    retrieved
        .iter()
        .position(|&id| id == target)
        .map_or(0.0, |pos| 1.0 / (pos + 1) as f64)
}

/// The ids of a neighbour list, in rank order.
pub fn ids_of(neighbors: &[Neighbor]) -> Vec<TrajId> {
    neighbors.iter().map(|n| n.id).collect()
}

/// Aggregates [`QueryStats`] over many queries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PruningSummary {
    /// Number of queries aggregated.
    pub queries: usize,
    /// Mean full-EDwP evaluations per query.
    pub mean_edwp_evaluations: f64,
    /// Mean fraction of the database pruned before the EDwP stage.
    pub mean_pruning_ratio: f64,
    /// Per-query database size (of the last aggregated block —
    /// `QueryStats::db_size` sums per-query sizes across a merge, so it is
    /// normalised back by the block's query count).
    pub db_size: usize,
}

impl PruningSummary {
    /// Summarises a batch of stats blocks. Each block may itself cover
    /// several queries (`QueryStats::queries`, e.g. a merged batch
    /// aggregate), so means are weighted by query count rather than by
    /// slice element.
    pub fn from_stats(stats: &[QueryStats]) -> Self {
        if stats.is_empty() {
            return PruningSummary::default();
        }
        // A block's `queries` is clamped to 1: a stats literal built with
        // `..Default::default()` carries `queries: 0` and must still count
        // as one query, not zero out its weight.
        let queries: usize = stats.iter().map(|s| s.queries.max(1)).sum();
        let n = queries as f64;
        PruningSummary {
            queries,
            mean_edwp_evaluations: stats.iter().map(|s| s.edwp_evaluations as f64).sum::<f64>() / n,
            mean_pruning_ratio: stats
                .iter()
                .map(|s| s.pruning_ratio() * s.queries.max(1) as f64)
                .sum::<f64>()
                / n,
            db_size: stats.last().map_or(0, |s| s.db_size / s.queries.max(1)),
        }
    }

    /// Summarises an already-merged aggregate (e.g. the stats a batch
    /// query returns under
    /// [`BatchQueryBuilder::collect_stats`](traj_index::BatchQueryBuilder::collect_stats)),
    /// whose counters cover `stats.queries` queries.
    pub fn from_aggregate(stats: &QueryStats) -> Self {
        PruningSummary {
            queries: stats.queries,
            mean_edwp_evaluations: stats.mean_edwp_evaluations(),
            mean_pruning_ratio: stats.pruning_ratio(),
            db_size: stats.db_size / stats.queries.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_core::approx_eq;

    #[test]
    fn precision_and_recall() {
        let retrieved = [1u32, 2, 3, 4];
        let relevant = [2u32, 4, 9];
        assert!(approx_eq(precision(&retrieved, &relevant), 0.5));
        assert!(approx_eq(recall(&retrieved, &relevant), 2.0 / 3.0));
        assert!(approx_eq(precision(&[], &relevant), 0.0));
        assert!(approx_eq(recall(&retrieved, &[]), 0.0));
    }

    #[test]
    fn reciprocal_rank_positions() {
        let retrieved = [7u32, 3, 5];
        assert!(approx_eq(reciprocal_rank(&retrieved, 7), 1.0));
        assert!(approx_eq(reciprocal_rank(&retrieved, 5), 1.0 / 3.0));
        assert!(approx_eq(reciprocal_rank(&retrieved, 99), 0.0));
    }

    #[test]
    fn pruning_summary_averages() {
        let stats = [
            QueryStats {
                db_size: 100,
                queries: 1,
                nodes_visited: 4,
                bound_evaluations: 20,
                edwp_evaluations: 10,
                ..QueryStats::default()
            },
            QueryStats {
                db_size: 100,
                queries: 1,
                nodes_visited: 6,
                bound_evaluations: 30,
                edwp_evaluations: 30,
                ..QueryStats::default()
            },
        ];
        let s = PruningSummary::from_stats(&stats);
        assert_eq!(s.queries, 2);
        assert!(approx_eq(s.mean_edwp_evaluations, 20.0));
        assert!(approx_eq(s.mean_pruning_ratio, (0.9 + 0.7) / 2.0));
        assert_eq!(s.db_size, 100);
        assert_eq!(PruningSummary::from_stats(&[]), PruningSummary::default());
    }

    #[test]
    fn pruning_summary_weights_multi_query_blocks() {
        // A slice mixing a 3-query merged aggregate (db_size sums per
        // query under QueryStats::merge) with a single-query stat must
        // average per *query*, not per slice element.
        let stats = [
            QueryStats {
                db_size: 300,
                queries: 3,
                nodes_visited: 12,
                bound_evaluations: 60,
                edwp_evaluations: 30,
                ..QueryStats::default()
            },
            QueryStats {
                db_size: 100,
                queries: 1,
                nodes_visited: 4,
                bound_evaluations: 20,
                edwp_evaluations: 10,
                ..QueryStats::default()
            },
        ];
        let s = PruningSummary::from_stats(&stats);
        assert_eq!(s.queries, 4);
        assert!(approx_eq(s.mean_edwp_evaluations, 10.0));
        assert!(approx_eq(s.mean_pruning_ratio, 0.9));
    }

    #[test]
    fn pruning_summary_from_merged_aggregate() {
        let mut agg = QueryStats::default();
        let per_query = QueryStats {
            db_size: 100,
            queries: 1,
            nodes_visited: 4,
            bound_evaluations: 20,
            edwp_evaluations: 10,
            ..QueryStats::default()
        };
        agg.merge(&per_query);
        agg.merge(&QueryStats {
            edwp_evaluations: 30,
            ..per_query
        });
        let s = PruningSummary::from_aggregate(&agg);
        assert_eq!(s.queries, 2);
        assert!(approx_eq(s.mean_edwp_evaluations, 20.0));
        assert!(approx_eq(s.mean_pruning_ratio, 0.8));
        assert_eq!(s.db_size, 100);
    }

    #[test]
    fn ids_of_extracts_rank_order() {
        let ns = [
            Neighbor {
                id: 9,
                distance: 0.5,
            },
            Neighbor {
                id: 2,
                distance: 1.5,
            },
        ];
        assert_eq!(ids_of(&ns), vec![9, 2]);
    }
}
