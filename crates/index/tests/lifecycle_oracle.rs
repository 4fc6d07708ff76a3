//! The lifecycle oracle: the paper's exactness promise — a TrajTree
//! search returns exactly the brute-force EDwP answer, however the tree
//! was built or grown — checked over whole session lifecycles.
//!
//! Each case is a seeded op script run twice over: against a [`Session`]
//! and against a model, a `Vec<Option<Trajectory>>` indexed by global id
//! (`None` once removed; its length is the id watermark). The session
//! shape is drawn per script: 1, 2 or 4 shards; merge threshold 1 (every
//! insert grows the tree by Alg. 1), 4 or 64 (inserts stay in the delta);
//! the default tree configuration or a small one; in memory, or durable
//! with automatic compaction off (fsync per write) or every 8 records
//! (fsync every 4). The trips are
//! clustered, uniform and degenerate ones plus exact duplicates and
//! resampled-and-perturbed copies of live members, so distance ties and
//! inconsistent sampling both occur.
//!
//! After every op the session must agree with the model on `len`,
//! `num_shards`, `iter`, `try_get` (dead ids and the watermark included),
//! per-shard occupancy and the next id it issues; every held snapshot
//! must still answer its frozen state; and one index k-NN must equal a
//! model scan. After each reshard, compaction, reopen or crash, and at the
//! end, the full query grid runs (see [`full_grid`]). After a crash the
//! recovered state must equal the model after the prefix of the live
//! generation's log that survived the cut.
//!
//! A failing script is shrunk by deleting ops while it still fails (a
//! panic counts as failing) and reported with its seed. The report prints
//! the minimal script as Rust: paste it into a scratch `#[test]` in this
//! file as `run(&Script { .. })` to replay it under a debugger.

mod common;

use common::{clustered_db, manual_scan, trajectory};
use proptest::prelude::*;
use proptest::{TestRng, TestRunner};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use traj_core::{TrajError, Trajectory};
use traj_gen::TrajGen;
use traj_index::{
    BatchQueryBuilder, BatchQueryResult, DurabilityConfig, FsyncPolicy, Metric, Neighbor,
    QueryBuilder, QueryMode, QueryResult, QueryStats, Session, SessionBuilder, Snapshot, TrajStore,
    TrajTreeConfig,
};
use traj_persist::replay_wal;
use traj_persist::tempdir::TempDir;
use Op::*;
use Trip::*;

/// Everything a script varies besides its ops.
#[derive(Debug, Clone, Copy)]
struct Shape {
    shards: usize,
    threshold: usize,
    small_tree: bool,
    /// `None`: in memory; `Some(c)`: durable with `compact_after(c)`
    /// (fsync every 4 records when `c` is set, every record otherwise).
    durable: Option<Option<u64>>,
    /// Clustered trips the session starts with (bulk-loaded in memory,
    /// one logged batch when durable).
    initial: usize,
}

/// One trip to insert. Copies pick among the live members at the time the
/// op runs, so deleting earlier ops never invalidates a later one.
#[derive(Debug, Clone, Copy)]
enum Trip {
    Clustered(usize),
    Uniform(u64),
    ZeroLength(u64),
    Stationary(u64),
    Duplicate(usize),
    Variant(usize, u64),
}

/// The offence an invalid `remove_batch` commits.
#[derive(Debug, Clone, Copy)]
enum Bad {
    DeadId,
    NeverIssued,
    Repeated,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(Trip),
    /// `(seed, len)`: `len` trips drawn from `seed`.
    InsertBatch(u64, usize),
    /// The `i`-th newest live member (mod the live count).
    Remove(usize),
    /// `(seed, len)`: up to `len` distinct live ids drawn from `seed`.
    RemoveBatch(u64, usize),
    RemoveInvalid(usize, Bad),
    RemoveAll,
    Reshard(usize),
    Compact,
    Hold,
    Reopen,
    /// Drop the session, cut the live log at a byte drawn from the seed,
    /// reopen.
    Crash(u64),
}

#[derive(Clone)]
struct Script {
    seed: u64,
    shape: Shape,
    ops: Vec<Op>,
}

/// Prints as a Rust expression, so a shrunk script can be pasted back.
impl fmt::Debug for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Script {{")?;
        writeln!(f, "    seed: {},", self.seed)?;
        writeln!(f, "    shape: {:?},", self.shape)?;
        writeln!(f, "    ops: vec![")?;
        for op in &self.ops {
            writeln!(f, "        {op:?},")?;
        }
        write!(f, "    ],\n}}")
    }
}

/// Picks from `weighted` with probability proportional to the weights.
fn pick<T: Copy>(rng: &mut TestRng, weighted: &[(u32, T)]) -> T {
    let total: u32 = weighted.iter().map(|w| w.0).sum();
    let mut roll = (rng.next_u64() % u64::from(total)) as u32;
    for &(w, item) in weighted {
        if roll < w {
            return item;
        }
        roll -= w;
    }
    unreachable!("the roll is below the total weight")
}

fn gen_trip(rng: &mut TestRng) -> Trip {
    let (i, s) = (rng.usize_in(0, 1 << 16), rng.next_u64());
    pick(
        rng,
        &[
            (6, Clustered(i)),
            (3, Uniform(s)),
            (1, ZeroLength(s)),
            (1, Stationary(s)),
            (4, Duplicate(i)),
            (5, Variant(i, s)),
        ],
    )
}

impl Script {
    fn generate(seed: u64) -> Script {
        let mut rng = TestRng::new(seed);
        let durable = [None, None, Some(None), Some(Some(8))][rng.usize_in(0, 3)];
        let shape = Shape {
            shards: [1, 2, 4][rng.usize_in(0, 2)],
            threshold: [1, 4, 64][rng.usize_in(0, 2)],
            small_tree: rng.usize_in(0, 1) == 0,
            durable,
            initial: rng.usize_in(0, 16),
        };
        let ops = (0..rng.usize_in(6, 20))
            .map(|_| {
                let (i, s) = (rng.usize_in(0, 1 << 16), rng.next_u64());
                let trip = gen_trip(&mut rng);
                let bad = [Bad::DeadId, Bad::NeverIssued, Bad::Repeated][rng.usize_in(0, 2)];
                let disk = if durable.is_some() { 2 } else { 0 };
                pick(
                    &mut rng,
                    &[
                        (20, Insert(trip)),
                        (16, InsertBatch(s, i % 9)),
                        (8, Remove(i % 4)),
                        (4, Remove(i)),
                        (6, RemoveBatch(s, i % 5)),
                        (4, RemoveInvalid(i, bad)),
                        (1, RemoveAll),
                        (3, Reshard(i % 5)),
                        (2, Compact),
                        (4, Hold),
                        (disk, Reopen),
                        (disk, Crash(s)),
                    ],
                )
            })
            .collect();
        Script { seed, shape, ops }
    }
}

/// The model: live trajectories by global id, and the shard layout.
#[derive(Clone)]
struct Model {
    trajs: Vec<Option<Trajectory>>,
    shards: usize,
}

impl Model {
    fn live(&self) -> impl Iterator<Item = (u32, &Trajectory)> {
        (0u32..)
            .zip(&self.trajs)
            .filter_map(|(id, t)| t.as_ref().map(|t| (id, t)))
    }

    fn len(&self) -> usize {
        self.live().count()
    }

    fn watermark(&self) -> u32 {
        self.trajs.len() as u32
    }

    /// What `remove_batch(ids)` must answer: the first repeated or
    /// non-live id is the error, and nothing is removed.
    fn removal(&self, ids: &[u32]) -> Result<(), TrajError> {
        let mut seen = std::collections::BTreeSet::new();
        match ids.iter().find(|&&id| {
            !seen.insert(id) || self.trajs.get(id as usize).is_none_or(|t| t.is_none())
        }) {
            Some(&id) => Err(TrajError::UnknownId {
                id,
                len: self.len(),
            }),
            None => Ok(()),
        }
    }

    fn apply(&mut self, rec: &Rec) {
        match rec {
            Rec::Insert(t) => self.trajs.push(Some(t.clone())),
            Rec::Tombstone(id) => self.trajs[*id as usize] = None,
            Rec::Reshard(n) => self.shards = *n,
        }
    }
}

/// One WAL record as the model logs it.
enum Rec {
    Insert(Trajectory),
    Tombstone(u32),
    Reshard(usize),
}

/// The durable side of the model: the state the live generation's
/// snapshot holds, and the records logged since.
struct Disk {
    dir: TempDir,
    compact_after: Option<u64>,
    base: Model,
    log: Vec<Rec>,
}

impl Disk {
    fn compacted(&mut self, model: &Model) {
        self.base = model.clone();
        self.log.clear();
    }

    /// The model after the first `records` records of the live log.
    fn replayed(&self, records: usize) -> Model {
        let mut model = self.base.clone();
        for rec in &self.log[..records] {
            model.apply(rec);
        }
        model
    }
}

const MATCHINGS: [(Metric, QueryMode); 4] = [
    (Metric::Edwp, QueryMode::Whole),
    (Metric::EdwpNormalized, QueryMode::Whole),
    (Metric::Edwp, QueryMode::Sub),
    (Metric::EdwpNormalized, QueryMode::Sub),
];

#[derive(Debug, Clone, Copy)]
enum Finish {
    Knn(usize),
    Range(f64),
}

impl Finish {
    fn single(self, b: QueryBuilder<'_>) -> QueryResult {
        match self {
            Finish::Knn(k) => b.knn(k),
            Finish::Range(eps) => b.range(eps),
        }
    }

    fn batch(self, b: BatchQueryBuilder<'_>) -> BatchQueryResult {
        match self {
            Finish::Knn(k) => b.knn(k),
            Finish::Range(eps) => b.range(eps),
        }
    }

    /// The answer a model scan (ascending `(distance, id)`) implies.
    fn expected(self, scan: &[Neighbor]) -> Vec<Neighbor> {
        match self {
            Finish::Knn(k) => scan[..k.min(scan.len())].to_vec(),
            Finish::Range(eps) => scan.iter().copied().filter(|n| n.distance <= eps).collect(),
        }
    }
}

/// A script in flight: the session under test and its model.
struct Run {
    shape: Shape,
    pool: Vec<Trajectory>,
    probe: Trajectory,
    session: Session,
    model: Model,
    disk: Option<Disk>,
    /// Snapshots held across later ops, each with the model it was taken
    /// at and must keep answering.
    held: Vec<(Snapshot, Model)>,
}

const SMALL_TREE: TrajTreeConfig = TrajTreeConfig {
    leaf_capacity: 3,
    fanout: 3,
    leaf_boxes: 6,
    internal_boxes: 4,
};

impl Run {
    fn builder(shape: &Shape) -> SessionBuilder {
        let b = Session::builder().delta_merge_threshold(shape.threshold);
        let b = if shape.small_tree {
            b.config(SMALL_TREE)
        } else {
            b
        };
        let Some(compact_after) = shape.durable else {
            return b;
        };
        // The auto-compacting shape also defers fsyncs; a crash cut reads
        // the same file either way.
        let fsync = match compact_after {
            Some(_) => FsyncPolicy::EveryN(4),
            None => FsyncPolicy::Always,
        };
        b.durability(
            DurabilityConfig::default()
                .fsync(fsync)
                .compact_after(compact_after),
        )
    }

    fn start(script: &Script) -> Run {
        let shape = script.shape;
        let mut pool = clustered_db(49, script.seed);
        let probe = pool.pop().expect("pool is non-empty");
        let initial = pool[..shape.initial].to_vec();
        let model = Model {
            trajs: initial.iter().cloned().map(Some).collect(),
            shards: shape.shards,
        };
        let builder = Run::builder(&shape).shards(shape.shards);
        let (session, disk) = match shape.durable {
            None => (builder.build(TrajStore::from(initial)), None),
            Some(compact_after) => {
                let dir = TempDir::new("lifecycle-oracle");
                let session = builder.open(dir.path()).expect("open a fresh directory");
                session
                    .insert_batch(initial.clone())
                    .expect("initial batch");
                let base = Model {
                    trajs: Vec::new(),
                    shards: shape.shards,
                };
                let log = initial.into_iter().map(Rec::Insert).collect();
                let disk = Disk {
                    dir,
                    compact_after,
                    base,
                    log,
                };
                (session, Some(disk))
            }
        };
        Run {
            shape,
            pool,
            probe,
            session,
            model,
            disk,
            held: Vec::new(),
        }
    }

    fn trip(&self, trip: Trip) -> Trajectory {
        let live: Vec<&Trajectory> = self.model.live().map(|(_, t)| t).collect();
        let member = |i: usize| match live.is_empty() {
            true => &self.pool[i % self.pool.len()],
            false => live[i % live.len()],
        };
        match trip {
            Clustered(i) => self.pool[i % self.pool.len()].clone(),
            Uniform(s) => trajectory(2, 8).generate(&mut TestRng::new(s)),
            ZeroLength(s) | Stationary(s) => {
                let mut rng = TestRng::new(s);
                let p = (rng.next_f64() * 400.0, rng.next_f64() * 400.0);
                let n = if matches!(trip, ZeroLength(_)) { 2 } else { 5 };
                Trajectory::from_xy(&vec![p; n])
            }
            Duplicate(i) => member(i).clone(),
            Variant(i, s) => {
                let mut g = TrajGen::new(s);
                let resampled = g.resample(member(i), 0.5);
                g.perturb(&resampled, 0.5)
            }
        }
    }

    /// The queries every check draws from: a clustered walk, a zero-length
    /// trip, and an exact copy of a live member of `model` (distance-0
    /// ties with its duplicates).
    fn queries(&self, model: &Model) -> Vec<Trajectory> {
        let zero_length = Trajectory::from_xy(&[(150.0, 150.0), (150.0, 150.0)]);
        let mut queries = vec![self.probe.clone(), zero_length];
        queries.extend(model.live().nth(model.len() / 2).map(|(_, t)| t.clone()));
        queries
    }

    /// Applies a successful write's records to the model — on a durable
    /// run after mirroring the session's write path, which compacts first
    /// when the log is over its threshold. An empty batch never reaches
    /// the log, so it cannot trigger a compaction either.
    fn commit(&mut self, recs: Vec<Rec>) {
        if recs.is_empty() {
            return;
        }
        if let Some(disk) = &mut self.disk {
            if disk
                .compact_after
                .is_some_and(|n| disk.log.len() as u64 >= n)
            {
                disk.compacted(&self.model);
            }
        }
        for rec in &recs {
            self.model.apply(rec);
        }
        if let Some(disk) = &mut self.disk {
            disk.log.extend(recs);
        }
    }

    /// Runs one op against the session and the model; `true` when it
    /// calls for the full query grid.
    fn step(&mut self, op: Op) -> bool {
        let live: Vec<u32> = self.model.live().map(|(id, _)| id).collect();
        let watermark = self.model.watermark();
        match op {
            Insert(trip) => {
                let t = self.trip(trip);
                assert_eq!(self.session.insert(t.clone()), Ok(watermark), "insert id");
                self.commit(vec![Rec::Insert(t)]);
            }
            InsertBatch(seed, len) => {
                let mut rng = TestRng::new(seed);
                let batch: Vec<Trajectory> =
                    (0..len).map(|_| self.trip(gen_trip(&mut rng))).collect();
                let ids = self.session.insert_batch(batch.clone());
                assert_eq!(ids, Ok((watermark..watermark + len as u32).collect()));
                self.commit(batch.into_iter().map(Rec::Insert).collect());
            }
            Remove(i) => {
                // Counted from the newest member, so small picks hit the
                // delta buffers.
                let newest = live.iter().rev().cycle().nth(i);
                let id = newest.copied().unwrap_or(watermark);
                let want = self.model.removal(&[id]);
                assert_eq!(self.session.remove(id), want, "remove({id})");
                if want.is_ok() {
                    self.commit(vec![Rec::Tombstone(id)]);
                }
            }
            RemoveBatch(seed, len) => {
                let mut rng = TestRng::new(seed);
                let mut pool = live;
                let ids: Vec<u32> = (0..len.min(pool.len()))
                    .map(|_| pool.remove(rng.usize_in(0, pool.len() - 1)))
                    .collect();
                assert_eq!(self.session.remove_batch(&ids), Ok(()), "remove_batch");
                self.commit(ids.into_iter().map(Rec::Tombstone).collect());
            }
            RemoveInvalid(i, bad) => {
                let dead: Vec<u32> = (0..watermark).filter(|id| !live.contains(id)).collect();
                let mut ids: Vec<u32> = live.iter().copied().cycle().skip(i).take(2).collect();
                ids.dedup();
                match bad {
                    Bad::Repeated if !ids.is_empty() => ids.push(ids[0]),
                    Bad::DeadId if !dead.is_empty() => {
                        ids.insert(1.min(ids.len()), dead[i % dead.len()])
                    }
                    _ => ids.push(watermark + (i % 3) as u32),
                }
                let want = self.model.removal(&ids);
                assert!(want.is_err(), "{ids:?} is a valid batch");
                assert_eq!(
                    self.session.remove_batch(&ids),
                    want,
                    "remove_batch({ids:?})"
                );
            }
            RemoveAll => {
                let ids: Vec<u32> = live.into_iter().rev().collect();
                assert_eq!(self.session.remove_batch(&ids), Ok(()), "remove everything");
                self.commit(ids.into_iter().map(Rec::Tombstone).collect());
            }
            Reshard(n) => {
                assert_eq!(self.session.reshard(n), Ok(()), "reshard({n})");
                self.commit(vec![Rec::Reshard(n.max(1))]);
                return true;
            }
            Compact => {
                assert_eq!(self.session.sync(), Ok(()), "sync");
                assert_eq!(self.session.compact(), Ok(()), "compact");
                if let Some(disk) = &mut self.disk {
                    disk.compacted(&self.model);
                }
                return true;
            }
            Hold => {
                self.held
                    .push((self.session.snapshot(), self.model.clone()));
                if self.held.len() > 3 {
                    self.held.remove(0);
                }
            }
            Reopen | Crash(_) => {
                let Some(disk) = &mut self.disk else {
                    return false;
                };
                // The engine is dropped before the directory is touched.
                drop(std::mem::take(&mut self.session));
                if let Crash(seed) = op {
                    let wal = std::fs::read_dir(disk.dir.path())
                        .expect("list the database directory")
                        .filter_map(|e| e.ok()?.file_name().into_string().ok())
                        .filter(|name| name.starts_with("wal-"))
                        .max()
                        .expect("a live log");
                    let path = disk.dir.path().join(wal);
                    let file = std::fs::OpenOptions::new().write(true).open(&path);
                    let file = file.expect("open the live log");
                    let len = file.metadata().expect("log metadata").len();
                    file.set_len(seed % (len + 1)).expect("cut the log");
                    let survived = replay_wal(&path).map_or(0, |r| r.records.len());
                    assert!(survived <= disk.log.len(), "unacknowledged records");
                    self.model = disk.replayed(survived);
                    disk.log.truncate(survived);
                }
                let reopened = Run::builder(&self.shape).open(disk.dir.path());
                self.session = reopened.expect("reopen");
                return true;
            }
        }
        false
    }
}

/// The per-op checks: the session and its current epoch against the
/// model, the next id it issues, and every held snapshot against the
/// model it was taken at.
fn check_state(run: &Run, step: usize) {
    let (session, model) = (&run.session, &run.model);
    assert_eq!(session.len(), model.len(), "len");
    assert_eq!(session.num_shards(), model.shards, "num_shards");
    check_epoch(run, &session.snapshot(), model, step);
    // A fork issues the next id without touching the session.
    let next = session.clone().insert(run.probe.clone());
    assert_eq!(next, Ok(model.watermark()), "next id");
    for (snap, frozen) in &run.held {
        check_epoch(run, snap, frozen, step);
    }
}

/// `snap` holds exactly `model`'s live set — iteration, lookups of every
/// issued id and the watermark, per-shard occupancy with every delta
/// below the merge threshold — and answers one k-NN (query and matching
/// rotating with `step`) like a model scan.
fn check_epoch(run: &Run, snap: &Snapshot, model: &Model, step: usize) {
    assert_eq!(snap.len(), model.len(), "snapshot len");
    assert_eq!(snap.num_shards(), model.shards, "snapshot num_shards");
    assert!(snap.iter().eq(model.live()), "snapshot iter diverged");
    for id in 0..=model.watermark() {
        let want = model.trajs.get(id as usize).and_then(Option::as_ref);
        let unknown = TrajError::UnknownId {
            id,
            len: model.len(),
        };
        assert!(snap.try_get(id) == want.ok_or(unknown), "try_get({id})");
    }
    for (s, o) in snap.shard_sizes().iter().enumerate() {
        let owned = model
            .live()
            .filter(|(id, _)| *id as usize % model.shards == s);
        assert_eq!(o.total(), owned.count(), "shard {s} occupancy");
        assert!(o.delta < run.shape.threshold, "shard {s} delta unfolded");
    }
    let queries = run.queries(model);
    let query = &queries[step % queries.len()];
    let (metric, mode) = MATCHINGS[step % MATCHINGS.len()];
    let got = snap.query(query).metric(metric).mode(mode).knn(3).neighbors;
    let want = Finish::Knn(3).expected(&manual_scan(model.live(), query, metric, mode));
    assert!(got == want, "k-NN under {metric:?}/{mode:?}");
}

/// k-NN at k = 0, 3 and past `len`, and range at two model-distance
/// quantiles and at 0, −0.0, −1, NaN and ∞ — each under both metrics and
/// both modes, on the index, `.brute_force()` and batch paths, with a
/// batch's merged stats equal to the sum of its singles. Batches run on 1
/// or 4 threads, alternating, so every finisher meets both counts.
fn full_grid(run: &Run) {
    let snap = run.session.snapshot();
    let queries = run.queries(&run.model);
    for (m, (metric, mode)) in MATCHINGS.into_iter().enumerate() {
        let scans: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| manual_scan(run.model.live(), q, metric, mode))
            .collect();
        let mut finishes = vec![
            Finish::Knn(0),
            Finish::Knn(3),
            Finish::Knn(run.model.len() + 2),
        ];
        let probe = &scans[0];
        let quantiles = [probe.len() / 3, probe.len() * 2 / 3].map(|i| probe.get(i));
        finishes.extend(
            quantiles
                .into_iter()
                .flatten()
                .map(|n| Finish::Range(n.distance)),
        );
        finishes.extend([0.0, -0.0, -1.0, f64::NAN, f64::INFINITY].map(Finish::Range));
        for (f, finish) in finishes.into_iter().enumerate() {
            let what = format!("{finish:?} under {metric:?}/{mode:?}");
            let want: Vec<Vec<Neighbor>> = scans.iter().map(|s| finish.expected(s)).collect();
            let mut summed = QueryStats::default();
            for (q, want) in queries.iter().zip(&want) {
                let query = || snap.query(q).metric(metric).mode(mode);
                let index = finish.single(query().collect_stats());
                assert!(index.neighbors == *want, "index {what}");
                summed.merge(&index.stats.expect("requested"));
                let brute = finish.single(query().brute_force());
                assert!(brute.neighbors == *want, "brute force {what}");
            }
            let threads = [1, 4][(m + f) % 2];
            let batch = snap.batch(&queries).metric(metric).mode(mode);
            let batch = finish.batch(batch.threads(threads).collect_stats());
            assert!(batch.neighbors == want, "batch {what} on {threads} threads");
            assert_eq!(batch.stats, Some(summed), "batch stats {what}");
        }
    }
}

/// Runs `script` to completion, panicking at the first divergence.
fn run(script: &Script) {
    let mut run = Run::start(script);
    check_state(&run, 0);
    for (i, &op) in script.ops.iter().enumerate() {
        let grid = run.step(op);
        check_state(&run, i + 1);
        if grid {
            full_grid(&run);
        }
    }
    full_grid(&run);
}

/// The failure message of `script`, or `None` when it passes.
fn failure(script: &Script) -> Option<String> {
    let payload = panic::catch_unwind(AssertUnwindSafe(|| run(script))).err()?;
    let message = payload.downcast_ref::<String>().cloned();
    let message = message.or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    Some(message.unwrap_or_else(|| "non-string panic".into()))
}

/// Deletes ops (and trims the initial load) while the script still fails;
/// returns the smallest failing script found and its message.
fn shrink(mut script: Script, mut message: String) -> (Script, String) {
    loop {
        let before = (script.ops.len(), script.shape.initial);
        let mut i = 0;
        while i < script.ops.len() {
            let mut smaller = script.clone();
            smaller.ops.remove(i);
            match failure(&smaller) {
                Some(m) => (script, message) = (smaller, m),
                None => i += 1,
            }
        }
        while script.shape.initial > 0 {
            let mut smaller = script.clone();
            smaller.shape.initial /= 2;
            let Some(m) = failure(&smaller) else { break };
            (script, message) = (smaller, m);
        }
        if (script.ops.len(), script.shape.initial) == before {
            return (script, message);
        }
    }
}

#[test]
fn lifecycle_scripts_match_the_model() {
    let config = ProptestConfig::with_cases(12);
    let mut runner = TestRunner::new(config, "lifecycle_scripts_match_the_model");
    let scripts: Vec<Script> = (0..runner.cases())
        .map(|_| Script::generate(runner.rng().next_u64()))
        .collect();
    // Failing runs are expected while shrinking; their panics are the
    // report's business, not the default hook's.
    let loud = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let next = AtomicUsize::new(0);
    let first_failure = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| loop {
                    let case = next.fetch_add(1, Ordering::Relaxed);
                    let script = scripts.get(case)?;
                    if let Some(message) = failure(script) {
                        return Some((case, message));
                    }
                })
            })
            .collect();
        let failures = workers
            .into_iter()
            .filter_map(|w| w.join().expect("worker"));
        failures.min_by_key(|&(case, _)| case)
    });
    let shrunk = first_failure.map(|(case, message)| {
        let script = scripts[case].clone();
        (case, script.ops.len(), shrink(script, message))
    });
    panic::set_hook(loud);
    if let Some((case, ops, (script, message))) = shrunk {
        panic!(
            "lifecycle case {case} (seed {}) failed; shrunk from {ops} to {} ops:\n\
             {script:?}\nfailure: {message}",
            script.seed,
            script.ops.len(),
        );
    }
}
