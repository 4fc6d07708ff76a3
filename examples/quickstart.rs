//! End-to-end tour: generate a synthetic trajectory database, open a
//! query [`Session`] over it, run exact k-NN and range queries through the
//! typed query builder — under both the raw and the length-normalised
//! EDwP metric — and compare the work done against a linear scan.
//!
//! Run with: `cargo run --release --example quickstart`

use trajrep::{GenConfig, Metric, Session, TrajGen, TrajStore};

fn main() {
    // 1. Generate a clustered database of 300 random-walk trajectories
    //    with irregular sampling intervals.
    let mut gen = TrajGen::with_config(
        42,
        GenConfig {
            area: 500.0,
            clusters: 6,
            cluster_spread: 6.0,
            ..GenConfig::default()
        },
    );
    let store = TrajStore::from(gen.database(300, 5, 15));
    println!("database: {} trajectories", store.len());

    // 2. Open a session: bulk-loads the TrajTree and pools the kernel
    //    scratch every query of this session reuses.
    let mut session = Session::build(store);
    let snap = session.snapshot();
    println!(
        "index:    height {}, {} nodes, leaf capacity {}",
        snap.tree_height(),
        snap.node_count(),
        session.config().leaf_capacity
    );

    // 3. Query with a distorted copy of a database member: half the
    //    samples dropped (inconsistent sampling rate) plus GPS-style noise.
    let target = 137u32;
    let resampled = gen.resample(snap.get(target), 0.5);
    let query = gen.perturb(&resampled, 0.4);
    let k = 5;
    let result = session.query(&query).collect_stats().knn(k);

    println!("\ntop-{k} neighbours of a distorted copy of trajectory {target}:");
    for (rank, n) in result.neighbors.iter().enumerate() {
        println!(
            "  #{rank} id {:>3}  raw EDwP {:>10.2}{}",
            n.id,
            n.distance,
            if n.id == target { "   <- original" } else { "" }
        );
    }

    // 4. The index is exact: it returns precisely the brute-force top-k
    //    (same builder, `.brute_force()` disables pruning).
    let reference = session.query(&query).brute_force().knn(k);
    assert_eq!(
        result.neighbors, reference.neighbors,
        "index diverged from linear scan"
    );
    let stats = result.stats.expect("collect_stats() was requested");
    println!(
        "\nexactness: identical to brute force over all {} trajectories",
        stats.db_size
    );
    println!(
        "work:      {} full EDwP evaluations instead of {} ({}% pruned)",
        stats.edwp_evaluations,
        stats.db_size,
        (stats.pruning_ratio() * 100.0).round()
    );

    // 5. Range query on the same builder: everything within the k-th
    //    neighbour's distance — the ε-ball around the query.
    let eps = result.neighbors.last().expect("k > 0").distance;
    let in_ball = session.query(&query).collect_stats().range(eps);
    assert_eq!(
        in_ball.neighbors,
        session.query(&query).brute_force().range(eps).neighbors,
        "range diverged from linear scan"
    );
    let range_stats = in_ball.stats.expect("collect_stats() was requested");
    println!(
        "\nrange(eps = {eps:.2}): {} trajectories in the ball, {} EDwP evaluations ({}% pruned)",
        in_ball.neighbors.len(),
        range_stats.edwp_evaluations,
        (range_stats.pruning_ratio() * 100.0).round()
    );

    // 6. The pluggable metric: the same index answers under the paper's
    //    length-normalised EDwP (Eq. 4) — long trajectories are no longer
    //    penalised for sheer length — still exactly.
    let norm = session.query(&query).metric(Metric::EdwpNormalized).knn(k);
    let norm_ref = session
        .query(&query)
        .metric(Metric::EdwpNormalized)
        .brute_force()
        .knn(k);
    assert_eq!(
        norm.neighbors, norm_ref.neighbors,
        "normalised metric diverged from linear scan"
    );
    println!("\ntop-{k} under length-normalised EDwP:");
    for (rank, n) in norm.neighbors.iter().enumerate() {
        println!(
            "  #{rank} id {:>3}  EDwP/len {:>8.4}{}",
            n.id,
            n.distance,
            if n.id == target { "   <- original" } else { "" }
        );
    }

    // 7. Sharding is an invisible deployment knob: partition the same
    //    database across 4 shards and every answer is bit-for-bit the
    //    same — a query walks every shard in one traversal under one
    //    global pruning threshold.
    let mut sharded = Session::builder().shards(4).build(session.into_store());
    let sharded_top = sharded.query(&query).knn(k);
    assert_eq!(
        sharded_top.neighbors, result.neighbors,
        "sharding changed a result"
    );
    println!(
        "\nsharded:   {} shards answer identically (top id {})",
        sharded.num_shards(),
        sharded_top.neighbors[0].id
    );
}
