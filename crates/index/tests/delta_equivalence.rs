//! Delta-buffer equivalence grid: a session whose recent inserts still
//! sit in shard delta buffers must answer every query **bitwise
//! identically** to a session holding the same trajectories fully
//! indexed — across shard counts 1/2/4, for k-NN, range and
//! sub-trajectory search, under both metrics, queried mid-delta, across
//! merge-threshold crossings, and post-merge. The delta buffer is an
//! ingestion fast path, never a semantics change. The lifecycle oracle
//! (`tests/lifecycle_oracle.rs`) runs the same states inside randomized
//! lifecycles; these are the fixed, readable cases.

mod common;

use common::{assert_equivalent, fleet};
use traj_index::{Metric, Session, TrajStore};

#[test]
fn delta_resident_shards_answer_bitwise_identically() {
    let base = fleet(32, 5);
    let tail = fleet(12, 6);
    let queries = fleet(4, 77);
    let mut all = base.clone();
    all.extend(tail.iter().cloned());

    for shards in [1usize, 2, 4] {
        // Reference: everything bulk-loaded, no delta anywhere.
        let reference = Session::builder()
            .shards(shards)
            .build(TrajStore::from(all.clone()));

        // Mid-delta: the threshold is higher than the tail, so every tail
        // record is still delta-resident at query time.
        let mid = Session::builder()
            .shards(shards)
            .delta_merge_threshold(64)
            .build(TrajStore::from(base.clone()));
        for t in &tail {
            mid.insert(t.clone()).expect("insert");
        }
        let sizes = mid.snapshot().shard_sizes();
        assert!(
            sizes.iter().any(|o| o.delta > 0),
            "tail must be delta-resident for this grid to test anything"
        );
        assert_equivalent(&mid, &reference, &queries);

        // The index path over a delta-resident session also matches its
        // own brute-force scan — the in-session exactness proof.
        for q in &queries {
            for metric in [Metric::Edwp, Metric::EdwpNormalized] {
                let snap = mid.snapshot();
                assert_eq!(
                    snap.query(q).metric(metric).knn(5).neighbors,
                    snap.query(q).metric(metric).brute_force().knn(5).neighbors,
                    "index vs brute mid-delta under {metric:?}"
                );
                assert_eq!(
                    snap.query(q).metric(metric).sub().knn(3).neighbors,
                    snap.query(q)
                        .metric(metric)
                        .sub()
                        .brute_force()
                        .knn(3)
                        .neighbors,
                    "sub index vs brute mid-delta under {metric:?}"
                );
            }
        }

        // Post-merge: threshold 1 folds every insert immediately into a
        // run; results stay identical and no delta remains.
        let merged = Session::builder()
            .shards(shards)
            .delta_merge_threshold(1)
            .build(TrajStore::from(base.clone()));
        for t in &tail {
            merged.insert(t.clone()).expect("insert");
        }
        assert!(merged.snapshot().shard_sizes().iter().all(|o| o.delta == 0));
        assert_equivalent(&merged, &reference, &queries);
    }
}

#[test]
fn merge_threshold_crossings_never_change_results() {
    // A small threshold makes inserts repeatedly cross the merge point,
    // leaving shards in mixed states (some just merged, some mid-delta).
    let base = fleet(10, 50);
    let tail = fleet(23, 51);
    let queries = fleet(3, 52);
    let mut all = base.clone();
    all.extend(tail.iter().cloned());

    let reference = Session::builder().shards(2).build(TrajStore::from(all));
    let session = Session::builder()
        .shards(2)
        .delta_merge_threshold(4)
        .build(TrajStore::from(base));
    for t in &tail {
        session.insert(t.clone()).expect("insert");
        // Equivalence must hold at *every* intermediate delta state, not
        // just the final one.
        let snap = session.snapshot();
        let q = &queries[0];
        assert_eq!(
            snap.query(q).knn(3).neighbors,
            snap.query(q).brute_force().knn(3).neighbors
        );
    }
    assert_equivalent(&session, &reference, &queries);
}

#[test]
fn batched_and_single_ingest_agree_in_memory() {
    let base = fleet(16, 80);
    let tail = fleet(20, 81);
    let queries = fleet(3, 82);

    let batched = Session::builder()
        .shards(4)
        .build(TrajStore::from(base.clone()));
    let ids = batched.insert_batch(tail.clone()).expect("batch");
    assert_eq!(
        ids,
        (base.len() as u32..(base.len() + tail.len()) as u32).collect::<Vec<_>>()
    );

    let singles = Session::builder().shards(4).build(TrajStore::from(base));
    for t in &tail {
        singles.insert(t.clone()).expect("insert");
    }
    assert_equivalent(&batched, &singles, &queries);

    // Batched ids resolve to exactly the trajectories that went in.
    let snap = batched.snapshot();
    for (id, t) in ids.iter().zip(&tail) {
        assert_eq!(snap.get(*id), t);
    }
}

#[test]
fn shard_sizes_reports_routed_occupancy() {
    // 7 bulk trajectories over 3 shards deal round-robin: shard 0 takes
    // global ids 0/3/6, shard 1 takes 1/4, shard 2 takes 2/5.
    let session = Session::builder()
        .shards(3)
        .delta_merge_threshold(8)
        .build(TrajStore::from(fleet(7, 1)));
    let sizes = session.snapshot().shard_sizes();
    assert_eq!(
        sizes.iter().map(|o| o.indexed).collect::<Vec<_>>(),
        vec![3, 2, 2]
    );
    assert!(sizes.iter().all(|o| o.delta == 0), "bulk load has no delta");

    // Four inserts land on shards 1, 2, 0, 1 (global ids 7..=10) and stay
    // in the delta below the merge threshold.
    for t in fleet(4, 2) {
        session.insert(t).expect("insert");
    }
    let sizes = session.snapshot().shard_sizes();
    assert_eq!(
        sizes.iter().map(|o| o.delta).collect::<Vec<_>>(),
        vec![1, 2, 1]
    );
    assert_eq!(
        sizes.iter().map(|o| o.indexed).collect::<Vec<_>>(),
        vec![3, 2, 2]
    );
    assert_eq!(sizes.iter().map(|o| o.total()).sum::<usize>(), 11);
    assert_eq!(session.len(), 11);

    // A snapshot taken before the inserts still reports the old occupancy
    // — shard_sizes is per-epoch, like everything else on a snapshot.
    let pinned = session.snapshot();
    session.insert_batch(fleet(5, 3)).expect("batch");
    assert_eq!(
        pinned
            .shard_sizes()
            .iter()
            .map(|o| o.total())
            .sum::<usize>(),
        11
    );
    assert_eq!(
        session
            .snapshot()
            .shard_sizes()
            .iter()
            .map(|o| o.total())
            .sum::<usize>(),
        16
    );
}
