//! Fixtures shared by the traj-index integration tests: the trip
//! generators, the one reference scan every exactness check is held
//! against, and the one session-against-session equivalence check. Each
//! test binary compiles this module and uses a subset.

#![allow(dead_code)]

use proptest::prelude::*;
use traj_core::{StPoint, TotalF64, Trajectory};
use traj_dist::{
    edwp_avg, edwp_sub_avg, edwp_sub_with_scratch, edwp_with_scratch, EdwpScratch, Metric,
    QueryMode,
};
use traj_gen::{GenConfig, TrajGen};
use traj_index::{Neighbor, Session};

/// A uniformly random trajectory of `min_pts..=max_pts` points in a
/// 100×100 region, sampled once per time unit.
pub fn trajectory(min_pts: usize, max_pts: usize) -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), min_pts..=max_pts).prop_map(|pts| {
        Trajectory::new(
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| StPoint::new(x, y, i as f64))
                .collect(),
        )
        .expect("valid by construction")
    })
}

/// A clustered database (5 tight clusters in a 400×400 region) from the
/// deterministic generator, so index pruning has structure to exploit.
pub fn clustered_db(size: usize, seed: u64) -> Vec<Trajectory> {
    let mut g = TrajGen::with_config(
        seed,
        GenConfig {
            area: 400.0,
            clusters: 5,
            cluster_spread: 4.0,
            ..GenConfig::default()
        },
    );
    g.database(size, 4, 10)
}

/// `count` default-generator random walks of 4 to 10 points.
pub fn fleet(count: usize, seed: u64) -> Vec<Trajectory> {
    TrajGen::new(seed).database(count, 4, 10)
}

/// Ground truth that shares nothing with the index, the shard router, the
/// query builders or [`Metric`]'s bounded evaluation: every item's
/// distance to `query` straight from the EDwP kernels (query first — sub
/// mode is asymmetric), ascending `(distance, id)`.
pub fn manual_scan<'a>(
    items: impl IntoIterator<Item = (u32, &'a Trajectory)>,
    query: &Trajectory,
    metric: Metric,
    mode: QueryMode,
) -> Vec<Neighbor> {
    let mut scratch = EdwpScratch::new();
    let mut all: Vec<Neighbor> = items
        .into_iter()
        .map(|(id, t)| Neighbor {
            id,
            distance: match (metric, mode) {
                (Metric::Edwp, QueryMode::Whole) => edwp_with_scratch(query, t, &mut scratch),
                (Metric::Edwp, QueryMode::Sub) => edwp_sub_with_scratch(query, t, &mut scratch),
                (Metric::EdwpNormalized, QueryMode::Whole) => edwp_avg(query, t),
                (Metric::EdwpNormalized, QueryMode::Sub) => edwp_sub_avg(query, t),
            },
        })
        .collect();
    all.sort_by_key(|n| (TotalF64(n.distance), n.id));
    all
}

/// Asserts that `left` and `right` agree bitwise on a k-NN, a range, and
/// a sub-trajectory query, under both metrics.
pub fn assert_equivalent(left: &Session, right: &Session, queries: &[Trajectory]) {
    assert_eq!(left.len(), right.len());
    for q in queries {
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            let snap_l = left.snapshot();
            let snap_r = right.snapshot();
            let knn_l = snap_l.query(q).metric(metric).knn(5);
            let knn_r = snap_r.query(q).metric(metric).knn(5);
            assert_eq!(knn_l.neighbors, knn_r.neighbors, "knn under {metric:?}");

            let eps = knn_r.neighbors.last().map_or(1.0, |n| n.distance);
            let range_l = snap_l.query(q).metric(metric).range(eps);
            let range_r = snap_r.query(q).metric(metric).range(eps);
            assert_eq!(
                range_l.neighbors, range_r.neighbors,
                "range under {metric:?}"
            );

            let sub_l = snap_l.query(q).metric(metric).sub().knn(3);
            let sub_r = snap_r.query(q).metric(metric).sub().knn(3);
            assert_eq!(sub_l.neighbors, sub_r.neighbors, "sub under {metric:?}");
        }
    }
}
