//! Lifecycle equivalence grid: a session that has lived through any
//! interleaving of inserts, removals and reshards must answer every query
//! **bitwise identically** to a fresh session bulk-loaded from exactly
//! the surviving trajectories — across shard counts 1/2/4, for k-NN,
//! range and sub-trajectory search, under both metrics, queried mid-delta
//! and after reopening from disk. Tombstones, delta buffers and reshard
//! epochs are lifecycle mechanics, never a semantics change. The
//! lifecycle oracle (`tests/lifecycle_oracle.rs`) widens the op set to
//! compaction, crashes, held snapshots and invalid batches.
//!
//! The one legitimate difference is the id space: the lived-in session
//! keeps its watermark-issued global ids (with holes where removals
//! landed), while the fresh session's ids are dense `0..n`. The map
//! between them — ascending surviving gid ↔ dense index — is strictly
//! monotone, so it preserves `(distance, id)` ordering and the two
//! neighbour lists must align slot for slot: distances equal to the bit,
//! ids equal under the map.

mod common;

use common::fleet;
use proptest::prelude::*;
use std::collections::BTreeMap;
use traj_core::Trajectory;
use traj_gen::TrajGen;
use traj_index::{DurabilityConfig, Metric, Session, TrajStore};
use traj_persist::tempdir::TempDir;

/// The survivors a lived-in session must be indistinguishable from: the
/// model's `(gid, trajectory)` entries, ascending (BTreeMap order).
type Model = BTreeMap<u32, Trajectory>;

/// Asserts `session` answers bitwise-identically — modulo the monotone
/// gid → dense-id map — to a fresh session bulk-loaded from the model.
fn assert_matches_fresh(session: &Session, model: &Model, queries: &[Trajectory]) {
    let gids: Vec<u32> = model.keys().copied().collect();
    let fresh = Session::builder()
        .shards(session.num_shards())
        .build(TrajStore::from(model.values().cloned().collect::<Vec<_>>()));
    assert_eq!(session.len(), model.len(), "live count diverged");
    let snap = session.snapshot();
    let fsnap = fresh.snapshot();

    // Iteration: same survivors, same order, ids related by the map.
    let lived: Vec<_> = snap.iter().collect();
    let dense: Vec<_> = fsnap.iter().collect();
    assert_eq!(lived.len(), dense.len());
    for ((g, t), (fg, ft)) in lived.iter().zip(&dense) {
        assert_eq!(*g, gids[*fg as usize], "gid map broken at dense id {fg}");
        assert_eq!(*t, *ft, "trajectory payload diverged at gid {g}");
    }
    // Lookups resolve exactly the live set.
    for (&gid, t) in model {
        assert_eq!(snap.get(gid), t);
    }

    for q in queries {
        for metric in [Metric::Edwp, Metric::EdwpNormalized] {
            for sub in [false, true] {
                let k = if sub { 3 } else { 5 };
                let finish = |s: &traj_index::Snapshot| {
                    let b = s.query(q).metric(metric);
                    let b = if sub { b.sub() } else { b };
                    b.knn(k)
                };
                let got = finish(&snap).neighbors;
                let want = finish(&fsnap).neighbors;
                assert_eq!(got.len(), want.len(), "k-NN size (sub: {sub})");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        g.distance.to_bits(),
                        w.distance.to_bits(),
                        "distance diverged under {metric:?} (sub: {sub})"
                    );
                    assert_eq!(
                        g.id, gids[w.id as usize],
                        "id diverged under {metric:?} (sub: {sub})"
                    );
                }
                // Range at the k-th distance exercises the other finisher
                // over the same candidates.
                if let Some(last) = want.last() {
                    let eps = last.distance;
                    let got = snap.query(q).metric(metric).range(eps).neighbors;
                    let want = fsnap.query(q).metric(metric).range(eps).neighbors;
                    assert_eq!(got.len(), want.len(), "range size under {metric:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.distance.to_bits(), w.distance.to_bits());
                        assert_eq!(g.id, gids[w.id as usize]);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of insert / remove / reshard over the shard ×
    /// merge-threshold grid, checked against the surviving set. Threshold
    /// 64 keeps inserts delta-resident (removals delete from the delta);
    /// threshold 1 folds immediately (tombstones over indexed members);
    /// reshards mid-script rebuild from mixed states.
    #[test]
    fn interleaved_lifecycles_match_fresh_sessions(
        shards_pick in 0usize..3,
        threshold_pick in 0usize..3,
        script in prop::collection::vec((0u32..4, 0usize..8), 1..12),
        seed in 0u64..1_000,
    ) {
        let shards = [1usize, 2, 4][shards_pick];
        let threshold = [1usize, 4, 64][threshold_pick];
        let session = Session::builder()
            .shards(shards)
            .delta_merge_threshold(threshold)
            .build(TrajStore::new());
        let mut model: Model = Model::new();
        let mut gen = TrajGen::new(seed);
        let queries = fleet(2, seed ^ 0xDEAD);
        for (kind, arg) in script {
            match kind {
                // Insert a small batch (ids continue the watermark).
                0 | 1 => {
                    let batch = gen.database(arg + 1, 4, 10);
                    let ids = session.insert_batch(batch.clone()).expect("insert");
                    for (id, t) in ids.into_iter().zip(batch) {
                        model.insert(id, t);
                    }
                }
                // Remove one live member, picked by the script.
                2 => {
                    if !model.is_empty() {
                        let keys: Vec<u32> = model.keys().copied().collect();
                        let pick = keys[arg % keys.len()];
                        session.remove(pick).expect("remove live member");
                        model.remove(&pick);
                    }
                }
                // Reshard (possibly to the current count — still a
                // rebuild that folds deltas and evicts tombstones).
                _ => {
                    let n = [1usize, 2, 4][arg % 3];
                    session.reshard(n).expect("reshard");
                }
            }
            // In-session exactness at every intermediate state: the index
            // path must match the session's own brute scan.
            let snap = session.snapshot();
            let q = &queries[0];
            prop_assert_eq!(
                snap.query(q).knn(3).neighbors,
                snap.query(q).brute_force().knn(3).neighbors
            );
        }
        assert_matches_fresh(&session, &model, &queries);
    }
}

#[test]
fn lifecycle_survives_reopen_across_the_shard_grid() {
    let queries = fleet(3, 4321);
    for (shards, reshard_to) in [(1usize, 4usize), (2, 4), (4, 2)] {
        let dir = TempDir::new(&format!("lifecycle-reopen-{shards}"));
        let session = Session::builder()
            .shards(shards)
            .delta_merge_threshold(8)
            .durability(DurabilityConfig::default().compact_after(None))
            .open(dir.path())
            .expect("open");
        let mut model: Model = Model::new();

        // Phase 1: a fleet, then retire some of it.
        let batch = fleet(30, 1000 + shards as u64);
        for (id, t) in session
            .insert_batch(batch.clone())
            .expect("insert")
            .into_iter()
            .zip(batch)
        {
            model.insert(id, t);
        }
        for gid in [0u32, 7, 13, 22, 29] {
            session.remove(gid).expect("remove");
            model.remove(&gid);
        }
        // Phase 2: rebalance online, with a post-compaction state in the
        // mix, then keep mutating on the new layout.
        session.compact().expect("compact");
        session.reshard(reshard_to).expect("reshard");
        let batch = fleet(9, 2000 + shards as u64);
        for (id, t) in session
            .insert_batch(batch.clone())
            .expect("insert")
            .into_iter()
            .zip(batch)
        {
            model.insert(id, t);
        }
        session.remove(31).expect("remove post-reshard");
        model.remove(&31);
        assert_matches_fresh(&session, &model, &queries);
        drop(session);

        // Reopen from disk: layout, survivors and watermark all recover.
        let reopened = Session::builder().open(dir.path()).expect("reopen");
        assert_eq!(reopened.num_shards(), reshard_to);
        assert_matches_fresh(&reopened, &model, &queries);
        let id = reopened
            .insert(queries[0].clone())
            .expect("insert after reopen");
        assert_eq!(id, 39, "watermark recovered: ids never reused");
    }
}

#[test]
fn removing_everything_leaves_a_working_empty_session() {
    let session = Session::builder().shards(2).build(TrajStore::new());
    let ids = session.insert_batch(fleet(10, 9)).expect("insert");
    session.remove_batch(&ids).expect("remove all");
    assert!(session.is_empty());
    assert_eq!(session.len(), 0);
    let q = fleet(1, 10).pop().unwrap();
    assert!(session.snapshot().query(&q).knn(3).neighbors.is_empty());
    assert!(session.snapshot().iter().next().is_none());
    // The graveyard session still ingests, above the watermark.
    let id = session.insert(q.clone()).expect("insert");
    assert_eq!(id, 10);
    assert_eq!(session.snapshot().query(&q).knn(1).neighbors[0].id, 10);
    // And reshards.
    session.reshard(4).expect("reshard");
    assert_eq!(session.len(), 1);
    assert_eq!(session.snapshot().query(&q).knn(1).neighbors[0].id, 10);
}
