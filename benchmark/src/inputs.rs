//! Seeded input generation: the database, every query and the write
//! script come from `--seed` and nothing else, and the engine under test
//! only ever sees these generated values.

use crate::spec::{durable_shape, Spec, BATCH, BURST, DURABLE_SHARDS, GROUP, REMOVE_BATCH, ROUNDS};
use std::ops::Range;
use traj_core::{Point, TrajId, Trajectory};
use traj_gen::{GenConfig, Rng, TrajGen};

/// FNV-1a, the digest of inputs and answers: stable across platforms and
/// runs, unlike the standard library's randomly keyed hasher.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn trajectories(&mut self, ts: &[Trajectory]) {
        let mut buf = Vec::new();
        for t in ts {
            buf.clear();
            t.encode_into(&mut buf);
            self.bytes(&buf);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The kinds of single query the query section issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Knn,
    Norm,
    Sub,
    Range,
}

/// One step of the writer's script.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `insert_batch` of this slice of [`Inputs::feed`].
    InsertBatch(Range<usize>),
    /// `insert` of this element of [`Inputs::feed`].
    Insert(usize),
    RemoveBatch(Vec<TrajId>),
    Remove(TrajId),
    Reshard(usize),
}

/// One round of the run: every round issues the same schedule of
/// operations, on different queries and trajectories.
#[derive(Debug, Clone)]
pub struct Round {
    /// The query section's single queries, in issue order.
    pub singles: Vec<(Kind, Trajectory)>,
    /// The query section's `batch()` calls.
    pub batches: Vec<Vec<Trajectory>>,
    /// The writer's script.
    pub script: Vec<Op>,
}

/// Everything one run feeds the engine.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Stored trips of the query section.
    pub stored: Vec<Trajectory>,
    /// Trips the durable sessions preload prefixes of.
    pub durable: Vec<Trajectory>,
    pub rounds: Vec<Round>,
    /// Trajectories the writer scripts insert.
    pub feed: Vec<Trajectory>,
    /// Queries the reader thread cycles through while a script runs.
    pub reader: Vec<Trajectory>,
    /// The crash image's WAL tail: inserted groups, then tombstoned ids.
    pub tail: Vec<Trajectory>,
    pub tail_tombstones: Vec<TrajId>,
    /// Queries answered before the crash and after every reopen.
    pub recover: Vec<Trajectory>,
    /// Digest of all of the above.
    pub digest: u64,
}

/// Spreads `minor` items evenly between `major` slots: how many of the
/// minor kind are due after slot `i` — a fixed interleave that does not
/// depend on the seed, so every seed runs the same operation schedule.
fn due(minor: usize, major: usize, i: usize) -> usize {
    minor * (i + 1) / major - minor * i / major
}

/// The kinds of a round's single queries in issue order: each kind spread
/// evenly over the round, whatever the seed.
fn schedule(counts: [(Kind, usize); 4]) -> Vec<Kind> {
    let mut slots: Vec<(f64, Kind)> = counts
        .iter()
        .flat_map(|&(kind, n)| (0..n).map(move |j| ((j as f64 + 0.5) / n as f64, kind)))
        .collect();
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    slots.into_iter().map(|(_, kind)| kind).collect()
}

/// `count` distinct ids out of `0..n`, by a partial Fisher–Yates shuffle.
fn distinct_ids(rng: &mut Rng, n: usize, count: usize) -> Vec<TrajId> {
    assert!(count <= n, "script removes {count} of only {n} preloaded");
    let mut ids: Vec<TrajId> = (0..n as TrajId).collect();
    for i in 0..count {
        let j = rng.usize_in(i, n - 1);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

/// The middle half of `q`: the partial trip a sub-trajectory lookup sends.
fn middle_half(q: &Trajectory) -> Trajectory {
    let n = q.num_points();
    let a = n / 4;
    let b = (3 * n / 4).clamp(a + 1, n - 1);
    q.sub_trajectory(a, b)
}

/// Generates trips around a **fixed** layout of cluster centres. Where the
/// clusters lie and how they overlap decides how well the index prunes, so
/// the layout is part of the workload, like the cluster count; the seed
/// draws the trips, the queries and the scripts. Letting the seed move the
/// centres too made the same workload a tenth faster or slower from one
/// seed to the next.
struct Trips {
    gen: TrajGen,
    centres: Vec<Point>,
}

impl Trips {
    fn new(seed: u64, shape: &GenConfig) -> Self {
        let mut layout = Rng::new(0x1A_7007);
        let margin = shape.area * 0.15;
        let mut coord = || layout.range(margin, shape.area - margin);
        let centres = (0..shape.clusters)
            .map(|_| Point::new(coord(), coord()))
            .collect();
        // The walks come from the generator; it is given no clusters of its
        // own, the start points are drawn here.
        let walker = GenConfig {
            clusters: 0,
            ..shape.clone()
        };
        Trips {
            gen: TrajGen::with_config(seed, walker),
            centres,
        }
    }

    fn database(
        &mut self,
        rng: &mut Rng,
        count: usize,
        (lo, hi): (usize, usize),
    ) -> Vec<Trajectory> {
        let (area, spread) = (self.gen.config().area, self.gen.config().cluster_spread);
        (0..count)
            .map(|_| {
                let c = self.centres[rng.usize_in(0, self.centres.len() - 1)];
                let mut near = |x: f64| (x + spread * rng.normal()).clamp(0.0, area);
                let start = Point::new(near(c.x), near(c.y));
                self.gen.random_walk_from(start, rng.usize_in(lo, hi))
            })
            .collect()
    }
}

/// A stored trip, resampled at a keep probability and perturbed: the
/// paper's lookup under an inconsistent sampling rate.
fn lookup(gen: &mut TrajGen, rng: &mut Rng, pool: &[Trajectory], keep: f64) -> Trajectory {
    let source = &pool[rng.usize_in(0, pool.len() - 1)];
    let sparse = gen.resample(source, keep);
    gen.perturb(&sparse, 1.0)
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let per = spec.per_round();
    let mut rng = Rng::new(seed ^ 0x5EED_0F5C_21F7);
    let mut trips = Trips::new(seed, &spec.gen);
    let stored = trips.database(&mut rng, spec.query_n, spec.len);
    let mut query = || lookup(&mut trips.gen, &mut rng, &stored, spec.keep_prob);
    let mut rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| {
            let singles = schedule([
                (Kind::Knn, per.knn),
                (Kind::Norm, per.norm),
                (Kind::Sub, per.sub),
                (Kind::Range, per.range),
            ])
            .into_iter()
            .map(|kind| {
                let q = query();
                (
                    kind,
                    if kind == Kind::Sub {
                        middle_half(&q)
                    } else {
                        q
                    },
                )
            })
            .collect();
            let batches = (0..per.batches)
                .map(|_| (0..BATCH).map(|_| query()).collect())
                .collect();
            Round {
                singles,
                batches,
                script: Vec::new(),
            }
        })
        .collect();

    let (shape, len, keep) = durable_shape();
    let mut trips = Trips::new(seed ^ 0xD0_4AB1E, &shape);
    let durable = trips.database(&mut rng, spec.durable_n.max(spec.image_n), len);
    let mut query = |pool: &[Trajectory]| lookup(&mut trips.gen, &mut rng, pool, keep);
    let reader: Vec<Trajectory> = (0..BATCH)
        .map(|_| query(&durable[..spec.durable_n]))
        .collect();
    let recover: Vec<Trajectory> = (0..3).map(|_| query(&durable[..spec.image_n])).collect();

    let feed = trips.database(
        &mut rng,
        ROUNDS * (per.insert_batches * GROUP + per.inserts),
        len,
    );
    let tail = trips.database(&mut rng, spec.tail_batches * GROUP, len);
    let mut doomed = distinct_ids(
        &mut rng,
        spec.durable_n,
        ROUNDS * (per.remove_batches * REMOVE_BATCH + per.removes),
    )
    .into_iter();
    let tail_tombstones = distinct_ids(&mut rng, spec.image_n, spec.tail_tombstones);

    // The writer's script of a round: group commits with the other writes
    // spread evenly between them and, half way, a reshard to twice the
    // shard count and straight back. A group commit is cheap until it fills
    // the shards' delta buffers and folds them into the trees. Single
    // inserts come in bursts of one per shard, so the shards fill in step
    // and fold in the same commit, every eighth one: the folding commits
    // all do the same work and are about an eighth of all, so the p95 sits
    // in the middle of them and not on the edge of the cheap ones.
    let mut fed = 0;
    let n = per.insert_batches;
    for round in &mut rounds {
        let script = &mut round.script;
        for i in 0..n {
            if i == n / 2 {
                script.push(Op::Reshard(2 * DURABLE_SHARDS));
                script.push(Op::Reshard(DURABLE_SHARDS));
            }
            script.push(Op::InsertBatch(fed..fed + GROUP));
            fed += GROUP;
            for _ in 0..due(per.inserts / BURST, n, i) * BURST {
                script.push(Op::Insert(fed));
                fed += 1;
            }
            for _ in 0..due(per.remove_batches, n, i) {
                script.push(Op::RemoveBatch(
                    doomed.by_ref().take(REMOVE_BATCH).collect(),
                ));
            }
            for _ in 0..due(per.removes, n, i) {
                script.push(Op::Remove(
                    doomed.next().expect("ids drawn for every remove"),
                ));
            }
        }
    }
    debug_assert_eq!(fed, feed.len());

    let mut digest = Digest::default();
    digest.trajectories(&stored);
    digest.trajectories(&durable);
    for round in &rounds {
        for (kind, q) in &round.singles {
            digest.u64(*kind as u64);
            digest.trajectories(std::slice::from_ref(q));
        }
        for b in &round.batches {
            digest.trajectories(b);
        }
        for op in &round.script {
            match op {
                Op::InsertBatch(r) => digest.u64(r.start as u64),
                Op::Insert(i) => digest.u64(*i as u64),
                Op::RemoveBatch(ids) => ids.iter().for_each(|&id| digest.u64(u64::from(id))),
                Op::Remove(id) => digest.u64(u64::from(*id)),
                Op::Reshard(n) => digest.u64(*n as u64),
            }
        }
    }
    digest.trajectories(&feed);
    digest.trajectories(&reader);
    digest.trajectories(&tail);
    digest.trajectories(&recover);
    tail_tombstones
        .iter()
        .for_each(|&id| digest.u64(u64::from(id)));

    Inputs {
        stored,
        durable,
        rounds,
        feed,
        reader,
        tail,
        tail_tombstones,
        recover,
        digest: digest.value(),
    }
}
