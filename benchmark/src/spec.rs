//! The four workloads: one session lifecycle (set-up, query, ingest beside
//! a reader, crash recovery) at four operating points.
//!
//! Every workload runs every section, so every end-to-end metric is a real
//! measurement on every workload. The query workloads vary the data regime
//! of the query section; the ingest and recover workloads vary the size of
//! the durable sections, whose data shape is the same everywhere
//! ([`durable_shape`]) — so a section that is not a workload's subject is
//! the same floor of work in every workload. The counts are fixed — the
//! sample set is the same operations on every run and every commit — and
//! sized so that the measured sections take about [`RUN_SECONDS`] on the
//! two-core reference box. `--seconds` scales the counts linearly.

use traj_gen::GenConfig;

/// Neighbours asked of every k-NN query.
pub const K: usize = 10;
/// Queries per `batch()` call.
pub const BATCH: usize = 64;
/// Trajectories per `insert_batch` group commit. The issue sized groups at
/// 64; at about a millisecond of tree insert per trajectory, the 200 group
/// commits a p95 needs then cost more than a whole run may take, so the
/// group is scaled down and the count of groups kept.
pub const GROUP: usize = 16;
/// Single inserts come in bursts of one per shard.
pub const BURST: usize = DURABLE_SHARDS;
/// Ids per `remove_batch` group.
pub const REMOVE_BATCH: usize = 32;
/// WAL records after which the durable session compacts automatically.
pub const COMPACT_AFTER: u64 = 4096;
/// Nominal measured duration the frozen counts below are sized for; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 16.0;
/// Rounds a run is cut into. Every round issues the same schedule of
/// operations and the sections take turns, so each metric's samples are
/// spread over the whole run and not taken in one stretch of it.
pub const ROUNDS: usize = 4;
/// Set-ups per run; `setup_s` is their median, as the driver's contract
/// prescribes (a set-up costs up to a second: ten beyond a median would be
/// a run of set-ups and nothing else).
pub const SETUP_REPEATS: usize = 3;
/// Samples every reported percentile must have beyond it.
pub const BEYOND: usize = 10;
/// Queries of each kind re-answered by brute force after the timed section.
pub const VERIFY_PER_KIND: usize = 4;

/// Operation counts and data sizes of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists — the `why` of `BENCHMARK.json`.
    pub why: &'static str,
    /// Shape of the query section's stored trips.
    pub gen: GenConfig,
    /// Samples per stored trip of the query section, inclusive range.
    pub len: (usize, usize),
    /// Probability a query keeps each interior sample of the stored trip it
    /// was derived from — the paper's inconsistent-sampling distortion.
    pub keep_prob: f64,
    /// Radius of the range queries, in raw EDwP units.
    pub range_eps: f64,
    /// Shard count of the query section's session.
    pub shards: usize,

    /// Query section: trajectories in the in-memory session.
    pub query_n: usize,
    pub knn: usize,
    pub norm: usize,
    pub sub: usize,
    pub range: usize,
    /// `batch(BATCH queries).threads(nproc).knn(K)` calls.
    pub batches: usize,

    /// Ingest section: trajectories preloaded into the durable session.
    pub durable_n: usize,
    pub insert_batches: usize,
    pub inserts: usize,
    pub remove_batches: usize,
    pub removes: usize,

    /// Recover section: trajectories in the crash image's compacted
    /// snapshot, the WAL tail on top of it, and timed reopen iterations.
    pub image_n: usize,
    pub tail_batches: usize,
    pub tail_tombstones: usize,
    pub opens: usize,
}

/// Shard count the durable sessions are created with.
pub const DURABLE_SHARDS: usize = 4;

/// Generator, length range and query keep-probability of the durable
/// sections' trips: short trips in 64 clusters, in every workload.
pub fn durable_shape() -> (GenConfig, (usize, usize), f64) {
    (clustered(), (6, 16), 0.5)
}

fn clustered() -> GenConfig {
    GenConfig {
        area: 1000.0,
        clusters: 64,
        cluster_spread: 10.0,
        step: 4.0,
        ..GenConfig::default()
    }
}

fn tight() -> GenConfig {
    GenConfig {
        area: 1000.0,
        clusters: 4,
        cluster_spread: 3.0,
        step: 2.0,
        ..GenConfig::default()
    }
}

/// The frozen workload table.
pub fn all() -> Vec<Spec> {
    // The off-subject floor of every workload. The driver's contract wants
    // every end-to-end metric from every workload, so a section that is not
    // a workload's subject still runs: enough operations of each kind that
    // every reported percentile has [`BEYOND`] samples beyond it (1000
    // k-NN for the p99, 200 group commits for the p95, 20 of anything for
    // a median) with a few to spare, and little more.
    let floor = Spec {
        name: "",
        why: "",
        gen: clustered(),
        len: (6, 16),
        keep_prob: 0.5,
        range_eps: 150.0,
        shards: 4,
        query_n: 2000,
        knn: 1600,
        norm: 100,
        sub: 400,
        range: 400,
        batches: 20,
        durable_n: 1000,
        insert_batches: 232,
        inserts: 128,
        remove_batches: 4,
        removes: 64,
        image_n: 1000,
        tail_batches: 16,
        tail_tombstones: 64,
        opens: 20,
    };
    vec![
        Spec {
            name: "query_clustered",
            why: "short trips in 64 clusters on 4 shards: pruning works, so traversal, bound \
                  kernels, the collector and shard scatter carry a visible share of a query",
            query_n: 12000,
            knn: 1600,
            norm: 300,
            sub: 600,
            range: 800,
            ..floor.clone()
        },
        Spec {
            name: "query_long",
            why: "long trips in 4 tight clusters on 1 shard, sparse queries: low selectivity \
                  and quadratic DP cost, so exact EDwP does the work and scatter is bypassed",
            gen: tight(),
            len: (16, 32),
            keep_prob: 0.3,
            range_eps: 100.0,
            shards: 1,
            query_n: 1500,
            knn: 1400,
            norm: 200,
            sub: 600,
            range: 800,
            ..floor.clone()
        },
        Spec {
            name: "ingest_lifecycle",
            why: "durable fsync-always writer beside a reader: WAL, delta fold, tree insert, \
                  compaction and reshard all run, so a read gain that taxes writes shows here",
            durable_n: 4000,
            insert_batches: 400,
            inserts: 1024,
            remove_batches: 32,
            removes: 256,
            ..floor.clone()
        },
        Spec {
            name: "recover_open",
            why: "cold reopen of a snapshot plus a torn WAL tail: snapshot decode, replay and \
                  bulk-load with almost no DP; doubles as the durability check",
            image_n: 5000,
            tail_batches: 48,
            tail_tombstones: 256,
            ..floor
        },
    ]
}

/// The operation counts of one round: a [`ROUNDS`]th of the run's.
#[derive(Debug, Clone, Copy)]
pub struct PerRound {
    pub knn: usize,
    pub norm: usize,
    pub sub: usize,
    pub range: usize,
    pub batches: usize,
    pub insert_batches: usize,
    pub inserts: usize,
    pub remove_batches: usize,
    pub removes: usize,
    pub opens: usize,
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    pub fn per_round(&self) -> PerRound {
        let per = |n: usize| (n / ROUNDS).max(1);
        PerRound {
            knn: per(self.knn),
            norm: per(self.norm),
            sub: per(self.sub),
            range: per(self.range),
            batches: per(self.batches),
            // At least two, so the mid-round reshard has a side each.
            insert_batches: per(self.insert_batches).max(2),
            inserts: per(self.inserts).next_multiple_of(BURST),
            remove_batches: per(self.remove_batches),
            removes: per(self.removes),
            opens: per(self.opens),
        }
    }

    /// The percentiles whose sample counts the spec fixes: `(metric, p,
    /// samples it is taken over)`. The run pools the samples of all rounds.
    pub fn percentiles(&self) -> [(&'static str, f64, usize); 10] {
        let r = self.per_round();
        [
            ("knn_p50_ms", 0.5, ROUNDS * r.knn),
            ("knn_p99_ms", 0.99, ROUNDS * r.knn),
            ("sub_p50_ms", 0.5, ROUNDS * r.sub),
            ("range_p50_ms", 0.5, ROUNDS * r.range),
            ("batch_qps", 0.5, ROUNDS * r.batches),
            ("insert_batch_p95_ms", 0.95, ROUNDS * r.insert_batches),
            ("open_p50_ms", 0.5, ROUNDS * r.opens),
            ("session.knn_norm_p50_ms", 0.5, ROUNDS * r.norm),
            ("session.insert_p50_ms", 0.5, ROUNDS * r.inserts),
            ("session.remove_p50_us", 0.5, ROUNDS * r.removes),
        ]
    }

    /// The spec with operation counts scaled by `ops` and data sizes by
    /// `data` (both clamped so every section still runs).
    pub fn scaled(&self, ops: f64, data: f64) -> Spec {
        let op = |n: usize| ((n as f64 * ops).round() as usize).max(1);
        let size = |n: usize| ((n as f64 * data).round() as usize).max(4 * BATCH);
        Spec {
            query_n: size(self.query_n),
            knn: op(self.knn),
            norm: op(self.norm),
            sub: op(self.sub),
            range: op(self.range),
            batches: op(self.batches),
            durable_n: size(self.durable_n),
            insert_batches: op(self.insert_batches),
            inserts: op(self.inserts),
            remove_batches: op(self.remove_batches),
            removes: op(self.removes),
            image_n: size(self.image_n),
            tail_batches: op(self.tail_batches),
            tail_tombstones: op(self.tail_tombstones),
            opens: op(self.opens),
            ..self.clone()
        }
    }
}
