//! The metric tables: the source of truth `BENCHMARK.json` is checked
//! against (see `tests/contract.rs`).

/// A metric a user of the engine would see. `bound` is the share of the
/// parent's median by which it may worsen before a change counts as a
/// regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// A metric of a single layer, with the end-to-end metric and workload it
/// should move — written down before measuring.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("knn_p50_ms", "ms", "lower", 0.25),
    e2e("knn_p99_ms", "ms", "lower", 0.25),
    e2e("sub_p50_ms", "ms", "lower", 0.25),
    e2e("range_p50_ms", "ms", "lower", 0.25),
    e2e("batch_qps", "1/s", "higher", 0.25),
    e2e("ingest_tps", "1/s", "higher", 0.25),
    e2e("insert_batch_p95_ms", "ms", "lower", 0.25),
    e2e("open_p50_ms", "ms", "lower", 0.25),
    e2e("disk_bytes_per_user_byte", "ratio", "lower", 0.01),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    e2e("ok_ops_ratio", "ratio", "higher", 0.0001),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const DP: &str = "knn_p50_ms, sub_p50_ms on query_long first, query_clustered second";
const BOUND: &str = "range_p50_ms, knn_p50_ms on query_clustered";
const TRAVERSAL: &str = "knn_*, range_p50_ms on query_clustered";
const BUILD: &str = "setup_s, open_p50_ms on recover_open; ingest_tps on ingest_lifecycle";
const WRITE: &str = "ingest_tps, insert_batch_p95_ms on ingest_lifecycle";
const WAL: &str = "ingest_tps, session.insert_p50_ms on ingest_lifecycle";
const OPEN: &str = "open_p50_ms on recover_open";
const SPACE: &str = "disk_bytes_per_user_byte on ingest_lifecycle, recover_open";

pub const PER_LAYER: &[PerLayer] = &[
    // traj-dist: the kernels.
    layer("dist.edwp_dp_ns", "ns", "lower", DP),
    layer("dist.edwp_bounded_ns", "ns", "lower", DP),
    layer("dist.edwp_bounded_abandon_ratio", "ratio", "higher", DP),
    layer(
        "dist.edwp_sub_dp_ns",
        "ns",
        "lower",
        "sub_p50_ms on query_long",
    ),
    layer("dist.box_bound_ns", "ns", "lower", BOUND),
    layer("dist.box_bound_scalar_ns", "ns", "lower", BOUND),
    layer("dist.aabb_batch_ns_per_box", "ns", "lower", BOUND),
    layer("dist.traj_bound_ns", "ns", "lower", BOUND),
    layer(
        "dist.bound_tightness",
        "ratio",
        "higher",
        "index.knn.edwp_evals, then knn_p50_ms on query_long",
    ),
    // traj-index: traversal work per query (single-threaded counts).
    layer("index.knn.nodes_visited", "count", "lower", TRAVERSAL),
    layer("index.knn.bound_evals", "count", "lower", TRAVERSAL),
    layer("index.knn.edwp_evals", "count", "lower", DP),
    layer("index.knn.aabb_prescreened", "count", "higher", TRAVERSAL),
    layer("index.knn.bound_pruned", "count", "higher", TRAVERSAL),
    layer("index.knn.edwp_per_result", "ratio", "lower", DP),
    layer(
        "index.sub.edwp_evals",
        "count",
        "lower",
        "sub_p50_ms on query_long",
    ),
    layer(
        "index.sub.bound_evals",
        "count",
        "lower",
        "sub_p50_ms on query_clustered",
    ),
    layer(
        "index.range.bound_evals",
        "count",
        "lower",
        "range_p50_ms on query_clustered",
    ),
    layer(
        "index.range.edwp_per_result",
        "ratio",
        "lower",
        "range_p50_ms on query_clustered",
    ),
    layer(
        "index.brute_ratio",
        "ratio",
        "lower",
        "knn_p50_ms on every workload",
    ),
    layer("index.bulk_load_us_per_traj", "us", "lower", BUILD),
    layer("index.tree_insert_us", "us", "lower", WRITE),
    layer("index.tree_height", "count", "lower", TRAVERSAL),
    layer("index.node_count", "count", "lower", TRAVERSAL),
    layer(
        "index.shard_skew",
        "ratio",
        "lower",
        "batch_qps on query_clustered",
    ),
    layer("index.rebuild_share", "ratio", "lower", OPEN),
    // traj-index's public surface: the session.
    layer(
        "session.knn_norm_p50_ms",
        "ms",
        "lower",
        "knn_p50_ms (normalised metric shares the path)",
    ),
    layer(
        "session.batch_speedup",
        "ratio",
        "higher",
        "batch_qps on query_clustered",
    ),
    layer(
        "session.shard_overhead",
        "ratio",
        "lower",
        "knn_p50_ms, batch_qps on query_clustered",
    ),
    layer(
        "session.stats_overhead_pct",
        "%",
        "lower",
        "none end to end: the cost of collect_stats()",
    ),
    layer(
        "session.insert_p50_ms",
        "ms",
        "lower",
        "ingest_tps on ingest_lifecycle (fsync-bound)",
    ),
    layer(
        "session.insert_batch_p50_ms",
        "ms",
        "lower",
        "ingest_tps on ingest_lifecycle (fsync-bound)",
    ),
    layer(
        "session.insert_mem_us",
        "us",
        "lower",
        "session.insert_p50_ms",
    ),
    layer("session.insert_batch_mem_us_per_traj", "us", "lower", WRITE),
    layer("session.remove_p50_us", "us", "lower", WRITE),
    layer("session.remove_batch_us_per_id", "us", "lower", WRITE),
    layer(
        "session.reshard_ms",
        "ms",
        "lower",
        "ingest_tps, insert_batch_p95_ms on ingest_lifecycle",
    ),
    layer(
        "session.reshard_vs_build",
        "ratio",
        "lower",
        "ingest_tps on ingest_lifecycle",
    ),
    layer("session.compact_ms", "ms", "lower", WAL),
    layer(
        "session.snapshot_acquire_p95_us",
        "us",
        "lower",
        "session.reader_knn_p95_ms",
    ),
    layer(
        "session.reader_knn_p50_ms",
        "ms",
        "lower",
        "knn_p50_ms under write load, ingest_lifecycle",
    ),
    layer(
        "session.reader_knn_p95_ms",
        "ms",
        "lower",
        "knn_p99_ms under write load, ingest_lifecycle",
    ),
    layer(
        "session.knn_under_write_slowdown",
        "ratio",
        "lower",
        "session.reader_knn_p50_ms",
    ),
    // traj-persist: the storage engine, driven directly.
    layer("persist.append_always_us", "us", "lower", WAL),
    layer("persist.append_os_us", "us", "lower", WAL),
    layer("persist.append_group_always_us", "us", "lower", WAL),
    layer("persist.append_group_os_us", "us", "lower", WAL),
    layer("persist.tombstone_append_us", "us", "lower", WRITE),
    layer(
        "persist.compact_ms",
        "ms",
        "lower",
        "insert_batch_p95_ms on ingest_lifecycle",
    ),
    layer(
        "persist.compact_mb_per_s",
        "MiB/s",
        "higher",
        "insert_batch_p95_ms on ingest_lifecycle",
    ),
    layer(
        "persist.compaction_stall_ms_max",
        "ms",
        "lower",
        "insert_batch_p95_ms on ingest_lifecycle",
    ),
    layer("persist.open_ms", "ms", "lower", OPEN),
    layer("persist.load_snapshot_us_per_traj", "us", "lower", OPEN),
    layer("persist.replay_wal_us_per_record", "us", "lower", OPEN),
    layer("persist.open_share", "ratio", "lower", OPEN),
    layer("persist.wal_bytes_per_record", "B", "lower", SPACE),
    layer("persist.snapshot_bytes_per_traj", "B", "lower", SPACE),
    layer("persist.write_amp", "ratio", "lower", SPACE),
    // traj-core and traj-gen.
    layer(
        "core.encode_ns_per_point",
        "ns",
        "lower",
        "persist.append_*, persist.compact_ms",
    ),
    layer(
        "core.decode_ns_per_point",
        "ns",
        "lower",
        "persist.load_snapshot_us_per_traj",
    ),
    layer(
        "gen.database_ms",
        "ms",
        "lower",
        "setup_s only: generator cost is not engine cost",
    ),
    // The benchmark itself.
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: traced vs untraced knn latency",
    ),
];
