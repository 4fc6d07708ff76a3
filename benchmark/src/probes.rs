//! The layer-probe stage of the traced run: the workload's own inputs
//! replayed directly against the public functions of each layer, so a
//! change to one layer has a number of its own to move. Spans are recorded
//! around each pass; kernels that run for nanoseconds are timed a pass at a
//! time, never a call at a time.

use crate::inputs::{Inputs, Kind};
use crate::lifecycle::{
    copy_dir, durability, file_with_ext, percentile, Measured, RunConfig, World,
};
use crate::spec::{durable_shape, Spec, BATCH, DURABLE_SHARDS, GROUP, K};
use crate::stats::Samples;
use crate::trace::Recorder;
use std::fs;
use std::hint::black_box;
use std::time::Instant;
use traj_core::{ByteReader, StBox, TrajId, Trajectory};
use traj_dist::{
    edwp_bounded, edwp_lower_bound_aabb_batch, edwp_lower_bound_boxes_bounded,
    edwp_lower_bound_trajectory_bounded, edwp_sub_with_scratch, edwp_with_scratch,
    simd::edwp_lower_bound_boxes_bounded_isa, BoxSeq, Cutoff, EdwpScratch, Isa,
};
use traj_gen::{Rng, TrajGen};
use traj_index::{
    DurabilityConfig, FsyncPolicy, QueryStats, Session, TrajStore, TrajTree, TrajTreeConfig,
};
use traj_persist::{load_snapshot, replay_wal, StorageEngine};

/// Queries whose neighbourhoods the kernel probes replay.
const PROBE_QUERIES: usize = 64;
/// Queries of each kind the counter pass re-runs with `collect_stats()`.
const STATS_QUERIES: usize = 100;
/// Stored trips the build, insert and shard-count probes run over.
const SUBSET: usize = 2000;
/// Members per box-sequence summary.
const MEMBERS: usize = 16;
/// Timed passes over each kernel's pairs.
const PASSES: usize = 10;

type Out = Vec<(&'static str, f64)>;

/// Runs `pass` [`PASSES`] times over `calls` kernel invocations each and
/// returns the mean nanoseconds per invocation.
fn per_call_ns(
    rec: &mut Recorder,
    name: &'static str,
    calls: usize,
    mut pass: impl FnMut(),
) -> f64 {
    pass(); // warm the scratch and the caches
    let mut total = 0.0;
    for _ in 0..PASSES {
        let t0 = Instant::now();
        pass();
        let t1 = Instant::now();
        rec.record(name, t0, t1);
        total += t1.duration_since(t0).as_secs_f64();
    }
    total * 1e9 / (PASSES * calls.max(1)) as f64
}

fn timed_ms<T>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    rec.record(name, t0, t1);
    (out, t1.duration_since(t0).as_secs_f64() * 1e3)
}

/// The workload's own queries, in issue order.
fn singles(inputs: &Inputs) -> impl Iterator<Item = &(Kind, Trajectory)> {
    inputs.rounds.iter().flat_map(|r| &r.singles)
}

fn knn_queries(inputs: &Inputs) -> impl Iterator<Item = &Trajectory> {
    singles(inputs)
        .filter(|(kind, _)| *kind == Kind::Knn)
        .map(|(_, q)| q)
}

/// `traj-dist`: the DP, the bounds, and how tight the bounds are.
fn dist(spec: &Spec, cfg: &RunConfig, world: &World, rec: &mut Recorder, out: &mut Out) {
    let section = rec.enter("probe.dist");
    let snapshot = world.query.snapshot();
    let queries: Vec<&Trajectory> = knn_queries(&world.inputs).take(PROBE_QUERIES).collect();
    // Query × true-neighbour pairs, and each query's k-th distance.
    let answers: Vec<_> = queries
        .iter()
        .map(|q| snapshot.query(q).knn(K).neighbors)
        .collect();
    let pairs: Vec<(&Trajectory, &Trajectory)> = queries
        .iter()
        .zip(&answers)
        .flat_map(|(q, ns)| ns.iter().map(|n| (*q, snapshot.get(n.id))))
        .collect();
    let mut scratch = EdwpScratch::new();

    out.push((
        "dist.edwp_dp_ns",
        per_call_ns(rec, "dist.edwp_with_scratch", pairs.len(), || {
            for (q, t) in &pairs {
                black_box(edwp_with_scratch(q, t, &mut scratch));
            }
        }),
    ));
    out.push((
        "dist.edwp_sub_dp_ns",
        per_call_ns(rec, "dist.edwp_sub_with_scratch", pairs.len(), || {
            for (q, t) in &pairs {
                black_box(edwp_sub_with_scratch(q, t, &mut scratch));
            }
        }),
    ));

    // Bounded DP against random members under the query's k-th distance:
    // what the engine pays for a candidate that does not make the answer.
    let mut rng = Rng::new(cfg.seed ^ 0xB0_0D);
    let random: Vec<(&Trajectory, &Trajectory, f64)> = queries
        .iter()
        .zip(&answers)
        .flat_map(|(q, ns)| {
            let kth = ns.last().map_or(f64::INFINITY, |n| n.distance);
            let picks: Vec<_> = (0..K)
                .map(|_| {
                    (
                        *q,
                        &world.inputs.stored[rng.usize_in(0, spec.query_n - 1)],
                        kth,
                    )
                })
                .collect();
            picks
        })
        .collect();
    let mut abandoned = 0usize;
    out.push((
        "dist.edwp_bounded_ns",
        per_call_ns(rec, "dist.edwp_bounded", random.len(), || {
            abandoned = 0;
            for (q, t, kth) in &random {
                let d = edwp_bounded(q, t, Cutoff::constant(*kth), &mut scratch);
                abandoned += usize::from(d > *kth);
            }
        }),
    ));
    out.push((
        "dist.edwp_bounded_abandon_ratio",
        abandoned as f64 / random.len().max(1) as f64,
    ));

    // Box-sequence summaries of 16-member groups, as a leaf carries them.
    let boxes = TrajTreeConfig::default().leaf_boxes;
    let groups: Vec<BoxSeq> = world
        .inputs
        .stored
        .chunks(MEMBERS)
        .take(PROBE_QUERIES)
        .filter_map(|g| BoxSeq::from_trajectories(g.iter(), Some(boxes)))
        .collect();
    let calls = queries.len() * groups.len();
    let unbounded = || Cutoff::constant(f64::INFINITY);
    type BoxBound = fn(&Trajectory, &BoxSeq, Cutoff<'_>, &mut EdwpScratch) -> f64;
    let kernels: [(&'static str, &'static str, BoxBound); 2] = [
        (
            "dist.box_bound_ns",
            "dist.edwp_lower_bound_boxes_bounded",
            edwp_lower_bound_boxes_bounded,
        ),
        (
            "dist.box_bound_scalar_ns",
            "dist.edwp_lower_bound_boxes_bounded_isa",
            |q, g, c, s| edwp_lower_bound_boxes_bounded_isa(Isa::Scalar, q, g, c, s),
        ),
    ];
    for (metric, span, kernel) in kernels {
        out.push((
            metric,
            per_call_ns(rec, span, calls, || {
                for q in &queries {
                    scratch.set_query(q);
                    for g in &groups {
                        black_box(kernel(q, g, unbounded(), &mut scratch));
                    }
                }
            }),
        ));
    }
    let aabbs: Vec<StBox> = groups
        .iter()
        .map(|g| {
            let b = g.boxes();
            b[1..].iter().fold(b[0], |acc, x| acc.union(x))
        })
        .collect();
    let mut sums = Vec::new();
    out.push((
        "dist.aabb_batch_ns_per_box",
        per_call_ns(rec, "dist.edwp_lower_bound_aabb_batch", calls, || {
            for q in &queries {
                scratch.set_query(q);
                // One call per node's worth of children, as the engine does.
                for children in aabbs.chunks(TrajTreeConfig::default().fanout) {
                    edwp_lower_bound_aabb_batch(
                        q,
                        children,
                        f64::INFINITY,
                        &mut scratch,
                        &mut sums,
                    );
                    black_box(&sums);
                }
            }
        }),
    ));
    let mut tightness = Samples::default();
    out.push((
        "dist.traj_bound_ns",
        per_call_ns(
            rec,
            "dist.edwp_lower_bound_trajectory_bounded",
            pairs.len(),
            || {
                for (q, t) in &pairs {
                    black_box(edwp_lower_bound_trajectory_bounded(
                        q,
                        t,
                        unbounded(),
                        &mut scratch,
                    ));
                }
            },
        ),
    ));
    for (q, t) in &pairs {
        let exact = edwp_with_scratch(q, t, &mut scratch);
        if exact > 0.0 {
            let bound = edwp_lower_bound_trajectory_bounded(q, t, unbounded(), &mut scratch);
            tightness.push(bound / exact);
        }
    }
    out.push((
        "dist.bound_tightness",
        tightness.sum() / tightness.len().max(1) as f64,
    ));
    rec.exit(section);
}

/// `traj-index`: the work counters of a single-threaded traversal, per
/// query kind, and the tree's own build and insert costs.
fn index(spec: &Spec, world: &mut World, m: &Measured, rec: &mut Recorder, out: &mut Out) {
    let section = rec.enter("probe.index");
    let mut totals = [QueryStats::default(); 4];
    let mut results = [0usize; 4];
    let mut seen = [0usize; 4];
    let World { query, inputs, .. } = world;
    for (kind, q) in singles(inputs) {
        let slot = *kind as usize;
        if seen[slot] == STATS_QUERIES {
            continue;
        }
        seen[slot] += 1;
        // The forest traversal: one thread, so the counts repeat exactly.
        let b = query.query(q).parallel_scatter(false).collect_stats();
        let t0 = Instant::now();
        let r = match kind {
            Kind::Knn => b.knn(K),
            Kind::Norm => b.metric(traj_index::Metric::EdwpNormalized).knn(K),
            Kind::Sub => b.sub().knn(K),
            Kind::Range => b.range(spec.range_eps),
        };
        rec.record("session.query.collect_stats", t0, Instant::now());
        totals[slot].merge(&r.stats.expect("collect_stats was requested"));
        results[slot] += r.neighbors.len();
    }
    let mean = |kind: Kind, f: fn(&QueryStats) -> usize| {
        f(&totals[kind as usize]) as f64 / seen[kind as usize].max(1) as f64
    };
    let per_result = |kind: Kind| {
        totals[kind as usize].edwp_evaluations as f64 / results[kind as usize].max(1) as f64
    };
    out.push((
        "index.knn.nodes_visited",
        mean(Kind::Knn, |s| s.nodes_visited),
    ));
    out.push((
        "index.knn.bound_evals",
        mean(Kind::Knn, |s| s.bound_evaluations),
    ));
    out.push((
        "index.knn.edwp_evals",
        mean(Kind::Knn, |s| s.edwp_evaluations),
    ));
    out.push((
        "index.knn.aabb_prescreened",
        mean(Kind::Knn, |s| s.aabb_prescreened),
    ));
    out.push((
        "index.knn.bound_pruned",
        mean(Kind::Knn, |s| s.bound_pruned),
    ));
    out.push(("index.knn.edwp_per_result", per_result(Kind::Knn)));
    out.push((
        "index.sub.edwp_evals",
        mean(Kind::Sub, |s| s.edwp_evaluations),
    ));
    out.push((
        "index.sub.bound_evals",
        mean(Kind::Sub, |s| s.bound_evaluations),
    ));
    out.push((
        "index.range.bound_evals",
        mean(Kind::Range, |s| s.bound_evaluations),
    ));
    out.push(("index.range.edwp_per_result", per_result(Kind::Range)));
    out.push(("index.brute_ratio", m.verify_indexed_ms / m.verify_brute_ms));

    let subset = &world.inputs.stored[..SUBSET.min(spec.query_n)];
    let mut store = TrajStore::from(subset.to_vec());
    let (mut tree, bulk_ms) = timed_ms(rec, "index.TrajTree.bulk_load", || {
        TrajTree::bulk_load(&store, TrajTreeConfig::default())
    });
    out.push((
        "index.bulk_load_us_per_traj",
        bulk_ms * 1e3 / subset.len() as f64,
    ));
    let fed = &world.inputs.feed[..(4 * BATCH).min(world.inputs.feed.len())];
    let ids: Vec<TrajId> = fed.iter().map(|t| store.insert(t.clone())).collect();
    let ((), insert_ms) = timed_ms(rec, "index.TrajTree.insert", || {
        for &id in &ids {
            tree.insert(&store, id);
        }
    });
    out.push(("index.tree_insert_us", insert_ms * 1e3 / ids.len() as f64));

    let snapshot = world.query.snapshot();
    out.push(("index.tree_height", snapshot.tree_height() as f64));
    out.push(("index.node_count", snapshot.node_count() as f64));
    let sizes: Vec<usize> = world
        .durable
        .snapshot()
        .shard_sizes()
        .iter()
        .map(|s| s.total())
        .collect();
    let mean_size = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    out.push((
        "index.shard_skew",
        sizes.iter().copied().max().unwrap_or(0) as f64 / mean_size,
    ));
    rec.exit(section);
}

fn knn_p50_ms(
    session: &mut Session,
    queries: &[&Trajectory],
    stats: bool,
    rec: &mut Recorder,
    name: &'static str,
) -> f64 {
    let mut samples = Samples::default();
    for q in queries {
        let b = session.query(q);
        let b = if stats { b.collect_stats() } else { b };
        let t0 = Instant::now();
        let _ = black_box(b.knn(K));
        let t1 = Instant::now();
        rec.record(name, t0, t1);
        samples.push(t1.duration_since(t0).as_secs_f64() * 1e3);
    }
    samples.median()
}

/// The session surface: what sharding, threads, statistics and the
/// in-memory half of a write cost.
fn session(
    spec: &Spec,
    cfg: &RunConfig,
    world: &mut World,
    m: &Measured,
    rec: &mut Recorder,
    out: &mut Out,
) {
    let section = rec.enter("probe.session");
    let queries: Vec<&Trajectory> = knn_queries(&world.inputs).take(STATS_QUERIES).collect();
    let pooled = |metric| (metric, percentile(m, metric));
    out.push(pooled("session.knn_norm_p50_ms"));

    let batch = &world.inputs.rounds[0].batches[0];
    let ((), one_ms) = timed_ms(rec, "session.batch.knn.threads1", || {
        let _ = black_box(world.query.batch(batch).threads(1).knn(K));
    });
    let ((), all_ms) = timed_ms(rec, "session.batch.knn", || {
        let _ = black_box(world.query.batch(batch).threads(cfg.threads).knn(K));
    });
    out.push(("session.batch_speedup", one_ms / all_ms));

    let plain = knn_p50_ms(&mut world.query, &queries, false, rec, "session.query.knn");
    let counted = knn_p50_ms(
        &mut world.query,
        &queries,
        true,
        rec,
        "session.query.collect_stats",
    );
    out.push((
        "session.stats_overhead_pct",
        (counted / plain - 1.0) * 100.0,
    ));

    // The same stored trips at four shards and at one.
    let subset = &world.inputs.stored[..SUBSET.min(spec.query_n)];
    let build = |shards: usize| {
        Session::builder()
            .shards(shards)
            .build(TrajStore::from(subset.to_vec()))
    };
    let (mut sharded, build_ms) = timed_ms(rec, "session.build", || build(4));
    let mut single = build(1);
    let four = knn_p50_ms(&mut sharded, &queries, false, rec, "session.query.knn");
    let one = knn_p50_ms(&mut single, &queries, false, rec, "session.query.knn");
    out.push(("session.shard_overhead", four / one));
    drop(single);

    // The index share of a durable insert: the same writes, no log.
    let fed = &world.inputs.feed;
    let groups = 16.min(fed.len() / GROUP);
    let ((), batch_ms) = timed_ms(rec, "session.insert_batch.in_memory", || {
        for g in fed.chunks(GROUP).take(groups) {
            sharded
                .insert_batch(g.to_vec())
                .expect("in-memory insert_batch cannot fail");
        }
    });
    out.push((
        "session.insert_batch_mem_us_per_traj",
        batch_ms * 1e3 / (groups * GROUP) as f64,
    ));
    let singles = &fed[groups * GROUP..(groups * GROUP + 4 * BATCH).min(fed.len())];
    let ((), single_ms) = timed_ms(rec, "session.insert.in_memory", || {
        for t in singles {
            sharded
                .insert(t.clone())
                .expect("in-memory insert cannot fail");
        }
    });
    out.push((
        "session.insert_mem_us",
        single_ms * 1e3 / singles.len().max(1) as f64,
    ));
    let (result, reshard_ms) = timed_ms(rec, "session.reshard.in_memory", || sharded.reshard(4));
    result.expect("in-memory reshard cannot fail");
    out.push(("session.reshard_vs_build", reshard_ms / build_ms));

    // From the ingest section's own samples.
    out.push(pooled("session.insert_p50_ms"));
    out.push(pooled("session.insert_batch_p50_ms"));
    out.push((
        "session.remove_p50_us",
        percentile(m, "session.remove_p50_us") * 1e3,
    ));
    out.push((
        "session.remove_batch_us_per_id",
        m.remove_batch_ms.sum() * 1e3
            / (m.remove_batch_ms.len() * crate::spec::REMOVE_BATCH) as f64,
    ));
    out.push((
        "session.reshard_ms",
        m.reshard_ms.sum() / m.reshard_ms.len() as f64,
    ));
    out.push(("session.compact_ms", m.compact_ms));
    out.push(pooled("session.snapshot_acquire_p95_us"));
    out.push(pooled("session.reader_knn_p50_ms"));
    out.push(pooled("session.reader_knn_p95_ms"));
    out.push((
        "session.knn_under_write_slowdown",
        m.reader_knn_ms.median() / m.quiescent_knn_ms.median(),
    ));
    rec.exit(section);
}

/// Median microseconds of `ops` calls of `f`.
fn p50_us(rec: &mut Recorder, name: &'static str, ops: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut samples = Samples::default();
    for i in 0..ops {
        let t0 = Instant::now();
        f(i);
        let t1 = Instant::now();
        rec.record(name, t0, t1);
        samples.push(t1.duration_since(t0).as_secs_f64() * 1e6);
    }
    samples.median()
}

/// `traj-persist`: the storage engine driven directly, in a scratch
/// directory, with the workload's own batches.
fn persist(
    spec: &Spec,
    world: &World,
    m: &Measured,
    rec: &mut Recorder,
    out: &mut Out,
) -> Result<(), Box<dyn std::error::Error>> {
    let section = rec.enter("probe.persist");
    let dir = &world.dirs.probe;
    let feed = &world.inputs.feed;
    let groups: Vec<&[Trajectory]> = feed.chunks_exact(GROUP).take(BATCH).collect();
    for (policy, single, group) in [
        (
            FsyncPolicy::Always,
            "persist.append_always_us",
            "persist.append_group_always_us",
        ),
        (
            FsyncPolicy::OsManaged,
            "persist.append_os_us",
            "persist.append_group_os_us",
        ),
    ] {
        let _ = fs::remove_dir_all(dir);
        let cfg = DurabilityConfig::default()
            .fsync(policy)
            .compact_after(None);
        let (_, mut engine) = StorageEngine::open(dir, cfg)?;
        let mut failed = 0;
        out.push((
            single,
            p50_us(rec, "persist.StorageEngine.append", 4 * BATCH, |i| {
                failed += usize::from(engine.append(&feed[i % feed.len()]).is_err());
            }),
        ));
        out.push((
            group,
            p50_us(
                rec,
                "persist.StorageEngine.append_group",
                groups.len(),
                |i| {
                    failed += usize::from(engine.append_group(groups[i]).is_err());
                },
            ),
        ));
        if failed > 0 {
            return Err(format!("{failed} probe appends failed").into());
        }
    }

    // Tombstones and a compaction over a database of the workload's size.
    let _ = fs::remove_dir_all(dir);
    let (_, mut engine) = StorageEngine::open(dir, durability().compact_after(None))?;
    let live = &world.inputs.durable[..spec.durable_n];
    engine.append_group(live)?;
    let mut failed = 0;
    out.push((
        "persist.tombstone_append_us",
        p50_us(rec, "persist.StorageEngine.append_tombstones", BATCH, |i| {
            failed += usize::from(engine.append_tombstones(&[i as TrajId]).is_err());
        }),
    ));
    if failed > 0 {
        return Err(format!("{failed} probe tombstones failed").into());
    }
    let mut sections: Vec<Vec<(TrajId, &Trajectory)>> = vec![Vec::new(); DURABLE_SHARDS];
    for (id, t) in live.iter().enumerate().skip(BATCH) {
        sections[id % DURABLE_SHARDS].push((id as TrajId, t));
    }
    let (result, compact_ms) = timed_ms(rec, "persist.StorageEngine.compact", || {
        engine.compact(&sections)
    });
    result?;
    drop(engine);
    let snapshot_bytes = fs::metadata(file_with_ext(dir, "snap")?)?.len() as f64;
    out.push(("persist.compact_ms", compact_ms));
    out.push((
        "persist.compact_mb_per_s",
        snapshot_bytes / (1024.0 * 1024.0) / (compact_ms / 1e3),
    ));
    out.push(("persist.compaction_stall_ms_max", m.stall_ms_max));

    // The crash image, taken apart: decode, replay, and the engine's open.
    let image = &world.dirs.image;
    let snap_path = file_with_ext(image, "snap")?;
    let wal_path = file_with_ext(image, "wal")?;
    let (contents, load_ms) = timed_ms(rec, "persist.load_snapshot", || load_snapshot(&snap_path));
    let stored: usize = contents?.sections.iter().map(Vec::len).sum();
    out.push((
        "persist.load_snapshot_us_per_traj",
        load_ms * 1e3 / stored as f64,
    ));
    let (replay, replay_ms) = timed_ms(rec, "persist.replay_wal", || replay_wal(&wal_path));
    let replay = replay?;
    let records = replay.records.len().max(1) as f64;
    out.push((
        "persist.replay_wal_us_per_record",
        replay_ms * 1e3 / records,
    ));
    out.push((
        "persist.wal_bytes_per_record",
        replay.valid_len as f64 / records,
    ));
    out.push((
        "persist.snapshot_bytes_per_traj",
        fs::metadata(&snap_path)?.len() as f64 / stored as f64,
    ));

    let mut open_ms = Samples::default();
    let mut rebuild_ms = Samples::default();
    for _ in 0..3 {
        copy_dir(image, &world.dirs.copy)?;
        let (opened, ms) = timed_ms(rec, "persist.StorageEngine.open", || {
            StorageEngine::open(&world.dirs.copy, durability())
        });
        let (recovered, engine) = opened?;
        drop(engine);
        open_ms.push(ms);
        let trajs: Vec<Trajectory> = recovered.trajs.into_iter().map(|(_, t)| t).collect();
        let ((), ms) = timed_ms(rec, "session.build", || {
            black_box(
                Session::builder()
                    .shards(recovered.snapshot_shards)
                    .build(TrajStore::from(trajs)),
            );
        });
        rebuild_ms.push(ms);
    }
    // Three reopens each: means, not percentiles.
    let mean = |s: &Samples| s.sum() / s.len() as f64;
    let open_p50 = percentile(m, "open_p50_ms");
    out.push(("persist.open_ms", mean(&open_ms)));
    out.push(("persist.open_share", mean(&open_ms) / open_p50));
    out.push(("index.rebuild_share", mean(&rebuild_ms) / open_p50));
    out.push((
        "persist.write_amp",
        m.script_bytes_written as f64 / m.script_user_bytes as f64,
    ));
    rec.exit(section);
    Ok(())
}

/// `traj-core` and `traj-gen`: the codec and the generator.
fn core_and_gen(spec: &Spec, cfg: &RunConfig, world: &World, rec: &mut Recorder, out: &mut Out) {
    let section = rec.enter("probe.core");
    let sample = &world.inputs.stored[..SUBSET.min(spec.query_n)];
    let points: usize = sample.iter().map(Trajectory::num_points).sum();
    let mut bytes = Vec::new();
    out.push((
        "core.encode_ns_per_point",
        per_call_ns(rec, "core.Trajectory.encode_into", points, || {
            bytes.clear();
            for t in sample {
                t.encode_into(&mut bytes);
            }
        }),
    ));
    out.push((
        "core.decode_ns_per_point",
        per_call_ns(rec, "core.Trajectory.decode", points, || {
            let mut reader = ByteReader::new(&bytes);
            for _ in sample {
                black_box(Trajectory::decode(&mut reader).expect("own encoding decodes"));
            }
        }),
    ));
    let ((), gen_ms) = timed_ms(rec, "gen.TrajGen.database", || {
        let mut gen = TrajGen::with_config(cfg.seed, spec.gen.clone());
        black_box(gen.database(spec.query_n, spec.len.0, spec.len.1));
        let (shape, (lo, hi), _) = durable_shape();
        let mut gen = TrajGen::with_config(cfg.seed, shape);
        black_box(gen.database(world.inputs.durable.len() + world.inputs.feed.len(), lo, hi));
    });
    out.push(("gen.database_ms", gen_ms));
    rec.exit(section);
}

/// What recording costs: the same k-NN queries with the recorder on and
/// with it off, interleaved so drift hits both sides alike.
fn trace_overhead(world: &mut World, rec: &mut Recorder, out: &mut Out) {
    let mut off = Recorder::new(false);
    let (mut traced, mut untraced) = (Samples::default(), Samples::default());
    let World { query, inputs, .. } = world;
    for q in knn_queries(inputs).take(STATS_QUERIES) {
        for (recorder, samples) in [(&mut *rec, &mut traced), (&mut off, &mut untraced)] {
            let t0 = Instant::now();
            let _ = black_box(query.query(q).knn(K));
            let t1 = Instant::now();
            recorder.record("session.query.knn", t0, t1);
            samples.push(Instant::now().duration_since(t0).as_secs_f64());
        }
    }
    out.push((
        "trace.overhead_pct",
        (traced.sum() / untraced.sum() - 1.0) * 100.0,
    ));
}

/// Runs every probe and returns the per-layer metrics.
pub fn run(
    spec: &Spec,
    cfg: &RunConfig,
    world: &mut World,
    m: &Measured,
    rec: &mut Recorder,
) -> Result<Out, Box<dyn std::error::Error>> {
    let mut out = Out::new();
    dist(spec, cfg, world, rec, &mut out);
    index(spec, world, m, rec, &mut out);
    session(spec, cfg, world, m, rec, &mut out);
    persist(spec, world, m, rec, &mut out)?;
    core_and_gen(spec, cfg, world, rec, &mut out);
    trace_overhead(world, rec, &mut out);
    Ok(out)
}
