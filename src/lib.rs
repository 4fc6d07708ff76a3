//! # trajrep
//!
//! Facade crate for the EDwP + TrajTree reproduction (Ranu et al.,
//! *Indexing and Matching Trajectories under Inconsistent Sampling Rates*,
//! ICDE 2015). Re-exports the pieces most applications need:
//!
//! * geometry: [`Point`], [`StPoint`], [`Segment`], [`StBox`],
//!   [`Trajectory`], and the error types [`CoreError`] / [`TrajError`];
//! * distances: the one-off conveniences [`edwp`], [`edwp_avg`],
//!   [`edwp_sub`], [`edwp_sub_avg`] and the plain Theorem 2 bounds
//!   [`edwp_lower_bound_boxes`] / [`edwp_lower_bound_trajectory`]; for
//!   hot paths, [`Metric`]'s four entry points (`distance`,
//!   `distance_bounded`, `lower_bound_boxes`, `lower_bound_trajectory` —
//!   one per (metric × mode), all on a pooled [`EdwpScratch`] under a
//!   [`Cutoff`], the constant pruning threshold) with
//!   the raw pooled DPs [`edwp_with_scratch`] / [`edwp_sub_with_scratch`]
//!   beneath them; the [`TrajDistance`] trait and the paper's baselines
//!   in [`baselines`]. The box-sequence bound
//!   runs on runtime-dispatched SIMD ([`Isa`], [`force_isa`], the
//!   `TRAJ_FORCE_SCALAR` environment variable) with a scalar fallback —
//!   results are exact on either path;
//! * the query surface: a sharded [`Session`] (built via
//!   [`Session::builder`] with `.shards(n)`, default 1) owning per-shard
//!   [`TrajStore`] segments, [`TrajTree`] indexes and pooled scratch,
//!   queried through the typed [`QueryBuilder`] / [`BatchQueryBuilder`] —
//!   `session.query(&q).knn(10)`, `.range(eps)`,
//!   `session.batch(&qs).threads(4).knn(k)` — with a pluggable [`Metric`]
//!   (raw vs length-normalised EDwP), a [`QueryMode`] axis
//!   (`.sub()` matches the query against the best contiguous *portion*
//!   of each stored trajectory — the partial-trip lookup), a
//!   `.brute_force()` reference mode
//!   and `.collect_stats()` work counters, returning [`QueryResult`] /
//!   [`BatchQueryResult`]. [`Session::insert`] streams new trajectories in
//!   while concurrent readers keep a stable epoch ([`Snapshot`]);
//! * lifecycle: [`Session::remove`] / [`Session::remove_batch`] retire
//!   trajectories (immediately invisible, ids retired forever; a
//!   delta-buffer member is dropped at once, an indexed one is tombstoned
//!   until the next compaction or reshard) and [`Session::reshard`]
//!   rebalances the database across a new shard count online — held
//!   snapshots keep answering from their epoch, and both operations ride
//!   the write-ahead log on durable sessions;
//! * durability: open a crash-safe on-disk session with
//!   [`SessionBuilder::open`] + [`SessionBuilder::durability`]
//!   ([`DurabilityConfig`], [`FsyncPolicy`]) — versioned snapshots plus a
//!   checksummed write-ahead log, recovered (torn tail truncated) on
//!   reopen; storage failures surface as [`PersistError`] /
//!   [`TrajError::Persist`], never panics;
//! * data generation: [`TrajGen`], [`GenConfig`].
//!
//! See `examples/quickstart.rs` for the end-to-end flow: generate → index →
//! query (k-NN and range, both metrics, sharded and not) → inspect pruning
//! statistics, `examples/taxi_knn.rs` for the sharded fleet workload
//! with streaming ingestion, `examples/durability.rs` for the
//! persist → crash → recover → verify loop, and `examples/lifecycle.rs`
//! for the full retire-and-rebalance walkthrough (fleet → remove →
//! reshard → reopen).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use traj_core::{
    approx_eq, CoreError, Point, Segment, StBox, StPoint, TotalF64, TrajError, Trajectory, EPSILON,
};
pub use traj_dist::simd::force_isa;
pub use traj_dist::{
    baselines, edwp, edwp_avg, edwp_lower_bound_boxes, edwp_lower_bound_trajectory, edwp_sub,
    edwp_sub_avg, edwp_sub_with_scratch, edwp_with_scratch, BoxSeq, Cutoff, EdwpDistance,
    EdwpRawDistance, EdwpScratch, Isa, Metric, QueryMode, TrajDistance,
};
pub use traj_gen::{GenConfig, TrajGen};
pub use traj_index::{
    BatchQueryBuilder, BatchQueryResult, DurabilityConfig, FsyncPolicy, Neighbor, PersistError,
    QueryBuilder, QueryResult, QueryStats, Session, SessionBuilder, ShardOccupancy, Snapshot,
    TrajId, TrajStore, TrajTree, TrajTreeConfig,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_smoke_end_to_end() {
        let mut g = TrajGen::new(1);
        let store = TrajStore::from(g.database(30, 4, 8));
        let mut session = Session::build(store);
        let query = g.random_walk(6);

        let res = session.query(&query).collect_stats().knn(3);
        let brute = session.query(&query).brute_force().knn(3);
        assert_eq!(res.neighbors, brute.neighbors);
        assert_eq!(res.stats.expect("requested").db_size, 30);
        assert!(edwp(&query, &query) <= EPSILON);

        // Range + batch on the same surface agree with their references.
        let eps = res
            .neighbors
            .last()
            .expect("k=3 on 30 trajectories")
            .distance;
        let in_ball = session.query(&query).range(eps);
        assert_eq!(
            in_ball.neighbors,
            session.query(&query).brute_force().range(eps).neighbors
        );
        let queries = [query.clone(), g.random_walk(5)];
        let batch = session.batch(&queries).threads(2).collect_stats().knn(3);
        assert_eq!(batch.neighbors[0], res.neighbors);
        assert_eq!(batch.stats.expect("requested").queries, 2);

        // The pluggable metric: normalised rankings straight from the index,
        // identical to the normalised brute-force reference.
        let norm = session.query(&query).metric(Metric::EdwpNormalized).knn(3);
        let norm_ref = session
            .query(&query)
            .metric(Metric::EdwpNormalized)
            .brute_force()
            .knn(3);
        assert_eq!(norm.neighbors, norm_ref.neighbors);
        let snap = session.snapshot();
        let top = norm.neighbors[0];
        let t = snap.try_get(top.id).expect("result ids are valid");
        assert!(approx_eq(top.distance, edwp_avg(&query, t)));

        // Scratch-pooled kernels match the plain ones bit-for-bit.
        let mut scratch = EdwpScratch::new();
        let other = snap.get(7);
        assert_eq!(
            edwp_with_scratch(&query, other, &mut scratch),
            edwp(&query, other)
        );

        // Sub-trajectory matching: a stored trip's middle portion finds its
        // host at (near-)zero sub distance, exactly as the brute-force
        // edwp_sub scan ranks it.
        let host_id = 3u32;
        let host = snap.get(host_id);
        let piece = host.sub_trajectory(1, host.num_points() - 2);
        let sub_hits = session.query(&piece).sub().knn(3);
        let sub_ref = session.query(&piece).sub().brute_force().knn(3);
        assert_eq!(sub_hits.neighbors, sub_ref.neighbors);
        assert!(
            sub_hits.neighbors.iter().any(|n| n.id == host_id),
            "host trip missing from sub-trajectory top-3"
        );
        let top = sub_hits.neighbors[0];
        assert!(approx_eq(top.distance, edwp_sub(&piece, snap.get(top.id))));

        // Sharding is invisible in results: a 4-shard session over the same
        // data answers bit-for-bit identically, while inserts stream in
        // without disturbing a previously captured epoch.
        let sharded = Session::builder()
            .shards(4)
            .build(TrajStore::from(g.database(30, 4, 8)));
        let epoch = sharded.snapshot();
        sharded.insert(query.clone()).expect("in-memory insert");
        assert_eq!(epoch.len(), 30);
        assert_eq!(sharded.len(), 31);
        let pinned = epoch.query(&query).knn(3);
        let live = sharded.snapshot().query(&query).knn(3);
        assert_eq!(live.neighbors[0].id, 30, "self-match on the new insert");
        assert_ne!(pinned.neighbors, live.neighbors);
    }

    /// Snapshot of the facade's intended public surface. Every listed item
    /// is *referenced*, so renaming or dropping a re-export fails this
    /// test at compile time; growing the surface means extending this list
    /// deliberately (and the README's API table with it).
    #[test]
    fn public_api_snapshot() {
        use std::any::type_name;

        macro_rules! value_item {
            ($name:expr) => {{
                let _ = $name;
                stringify!($name)
            }};
        }

        let types = [
            type_name::<BatchQueryBuilder<'static>>(),
            type_name::<BatchQueryResult>(),
            type_name::<BoxSeq>(),
            type_name::<CoreError>(),
            type_name::<Cutoff<'static>>(),
            type_name::<EdwpDistance>(),
            type_name::<EdwpRawDistance>(),
            type_name::<EdwpScratch>(),
            type_name::<GenConfig>(),
            type_name::<Isa>(),
            type_name::<Metric>(),
            type_name::<Neighbor>(),
            type_name::<Point>(),
            type_name::<QueryBuilder<'static>>(),
            type_name::<QueryMode>(),
            type_name::<QueryResult>(),
            type_name::<QueryStats>(),
            type_name::<Segment>(),
            type_name::<Session>(),
            type_name::<SessionBuilder>(),
            type_name::<ShardOccupancy>(),
            type_name::<Snapshot>(),
            type_name::<StBox>(),
            type_name::<StPoint>(),
            type_name::<TotalF64>(),
            type_name::<TrajError>(),
            type_name::<TrajGen>(),
            type_name::<TrajId>(),
            type_name::<TrajStore>(),
            type_name::<TrajTree>(),
            type_name::<TrajTreeConfig>(),
            type_name::<Trajectory>(),
            type_name::<dyn TrajDistance>(),
            type_name::<DurabilityConfig>(),
            type_name::<FsyncPolicy>(),
            type_name::<PersistError>(),
        ];
        assert_eq!(
            types.len(),
            36,
            "type surface changed — update the snapshot"
        );

        let functions = [
            value_item!(approx_eq),
            value_item!(edwp),
            value_item!(edwp_avg),
            value_item!(edwp_lower_bound_boxes),
            value_item!(edwp_lower_bound_trajectory),
            value_item!(edwp_sub),
            value_item!(edwp_sub_avg),
            value_item!(edwp_sub_with_scratch),
            value_item!(edwp_with_scratch),
            value_item!(force_isa),
            value_item!(EPSILON),
        ];
        assert_eq!(
            functions.len(),
            11,
            "function/const surface changed — update the snapshot"
        );
    }
}
