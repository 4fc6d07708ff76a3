//! Taxi-style sharded fleet workload: a fleet of vehicles repeats a
//! handful of "routes" with per-trip noise and wildly different GPS
//! sampling rates; the engine must retrieve trips of the same route for a
//! batch of new trips — (query × shard) work items fanned out over worker
//! threads — exactly and without scanning the fleet, while *new trips
//! stream in concurrently* without disturbing the running batch's epoch.
//!
//! Run with: `cargo run --release --example taxi_knn`

use trajrep::{GenConfig, Session, TrajGen, TrajStore, Trajectory};

/// One canonical route per (start cluster, heading); trips are noisy,
/// resampled copies.
fn make_fleet(gen: &mut TrajGen, routes: usize, trips_per_route: usize) -> (TrajStore, Vec<usize>) {
    let mut store = TrajStore::new();
    let mut route_of = Vec::new();
    let canonical: Vec<Trajectory> = (0..routes).map(|_| gen.random_walk(24)).collect();
    for (r, base) in canonical.iter().enumerate() {
        for trip_no in 0..trips_per_route {
            // Each trip records the same route at a different sampling
            // rate (keep 30–80% of the samples) with GPS noise.
            let keep = 0.3 + 0.5 * (trip_no as f64 * 0.37).fract();
            let resampled = gen.resample(base, keep);
            let trip = gen.perturb(&resampled, 0.8);
            store.insert(trip);
            route_of.push(r);
        }
    }
    (store, route_of)
}

fn main() {
    let mut gen = TrajGen::with_config(
        7,
        GenConfig {
            area: 2000.0,
            clusters: 8,
            cluster_spread: 15.0,
            step: 12.0,
            ..GenConfig::default()
        },
    );
    let routes = 12;
    let trips = 25;
    let (store, route_of) = make_fleet(&mut gen, routes, trips);
    println!(
        "fleet: {} trips over {} routes ({} trajectories indexed)",
        store.len(),
        routes,
        store.len()
    );

    // Shard the fleet 4 ways: trips are dealt round-robin across four
    // (segment, TrajTree) shards, and every query traverses all four at
    // once — results are bit-for-bit what a single tree would return.
    let session = Session::builder().shards(4).build(store);
    let epoch = session.snapshot();
    println!(
        "index: {} shards, tallest tree height {}, {} nodes total",
        epoch.num_shards(),
        epoch.tree_height(),
        epoch.node_count()
    );

    // New trips: fresh distortions of members, answered as one batch —
    // every (query, shard) pair is one work item, workers own one
    // distance scratch each. Their top-k should be dominated by trips of
    // the same route.
    let k = 5;
    let probes = [3u32, 57, 120, 199, 260];
    let queries: Vec<Trajectory> = probes
        .iter()
        .map(|&probe| {
            let base = epoch.get(probe).clone();
            let resampled = gen.resample(&base, 0.4);
            gen.perturb(&resampled, 1.0)
        })
        .collect();

    // Streaming ingestion: while the batch runs against its epoch, a
    // writer thread keeps inserting tonight's new trips. The epoch guard
    // (copy-on-write shards) means the batch never sees a torn shard —
    // it answers exactly as of the moment it started.
    let late_arrivals: Vec<Trajectory> = (0..50).map(|_| gen.random_walk(18)).collect();
    let (batch, inserted) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| epoch.batch(&queries).collect_stats().knn(k));
        let mut inserted = 0usize;
        for trip in late_arrivals {
            session.insert(trip).expect("in-memory insert");
            inserted += 1;
        }
        (reader.join().expect("batch thread"), inserted)
    });
    println!(
        "\nstreaming: {inserted} trips inserted while the batch ran \
         (epoch still {} trips, session now {})",
        epoch.len(),
        session.len()
    );

    let mut same_route_hits = 0usize;
    let mut checked = 0usize;
    for ((&probe, query), got) in probes.iter().zip(&queries).zip(&batch.neighbors) {
        let reference = epoch.query(query).brute_force().knn(k);
        assert_eq!(*got, reference.neighbors, "exactness violated");
        let query_route = route_of[probe as usize];
        let same = got
            .iter()
            .filter(|n| route_of[n.id as usize] == query_route)
            .count();
        same_route_hits += same;
        checked += k;
        println!(
            "probe trip {probe:>3} (route {query_route:>2}): {same}/{k} neighbours on the same \
             route"
        );
    }

    // The batch's stats are merged over its queries: `db_size` sums each
    // query's candidate count, so the fleet size is the per-query share.
    let batch_stats = batch.stats.expect("collect_stats() was requested");
    println!("\nroute purity: {same_route_hits}/{checked} neighbours shared the query's route");
    println!(
        "pruning:      {:.1} EDwP evaluations per query on a {}-trip fleet ({:.0}% pruned)",
        batch_stats.mean_edwp_evaluations(),
        batch_stats.db_size / batch_stats.queries,
        batch_stats.pruning_ratio() * 100.0
    );
    println!(
        "kernels:      {} ISA; {} children skipped by the AABB prescreen, {} queue entries \
         cut by the threshold",
        session.kernel_isa(),
        batch_stats.aabb_prescreened,
        batch_stats.bound_pruned
    );
}
