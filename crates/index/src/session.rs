//! The typed query surface: a [`Session`] owning a sharded database, the
//! epoch machinery that lets inserts land while batches read, and the
//! [`QueryBuilder`] / [`BatchQueryBuilder`] pair every query type is
//! expressed through.
//!
//! One builder serves every combination: the query *type* is the finisher
//! ([`QueryBuilder::knn`] / [`QueryBuilder::range`]), and every orthogonal
//! axis is a modifier — [`QueryBuilder::metric`] (raw vs length-normalised
//! EDwP), [`QueryBuilder::sub`] (sub-trajectory matching: the query
//! against the best contiguous portion of each stored trajectory),
//! [`QueryBuilder::brute_force`] (linear-scan reference),
//! [`QueryBuilder::collect_stats`] (work counters),
//! [`BatchQueryBuilder::threads`] (parallel fan-out). Invalid combinations
//! are unrepresentable at compile time: `eps` exists only as the `range`
//! finisher's argument, so it cannot be set on a k-NN query, and
//! `threads` exists only on the batch builder, so a single query cannot be
//! given a worker count.
//!
//! # One schedule
//!
//! A query is one **forest** traversal on the thread that runs it: every
//! shard's root is seeded into *one* best-first queue under one collector
//! — a single global threshold, so an incumbent found in any shard prunes
//! every other shard's subtrees and total work matches a one-shard search.
//! Parallelism is whole queries: a batch finisher hands one item per query
//! to scoped workers through one work-stealing queue (`fan_out`, one
//! [`EdwpScratch`] per worker), and [`QueryStats::merge`] aggregates the
//! per-query counters (saturating; `db_size` sums the per-query database
//! sizes).
//!
//! The result is **bitwise identical** to a single-shard sequential
//! session: distances come from the same kernels on the same pairs, and
//! ties break on global ids everywhere — checked across the shards ×
//! query type × threads × metric × mode grid, over whole insert / remove /
//! reshard / crash lifecycles, by `tests/lifecycle_oracle.rs`.

use crate::engine::{
    best_first, Collector, KnnCollector, Matching, Neighbor, QueryStats, RangeCollector,
};
use crate::shard::{shard_of, Shard, Snapshot};
use crate::store::{TrajId, TrajStore};
use crate::tree::{TrajTree, TrajTreeConfig};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use traj_core::{TrajError, Trajectory};
use traj_dist::{EdwpScratch, Metric, QueryMode};
use traj_persist::{DurabilityConfig, PersistError, StorageEngine};

/// Result of a single query: the matched neighbours (ascending
/// `(distance, id)`) and, when [`QueryBuilder::collect_stats`] was
/// requested, the work counters of the search.
#[must_use = "query results carry the neighbours the search was run for"]
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Matches, sorted by ascending `(distance, id)` under the query's
    /// metric. Ids are global: valid with [`Snapshot::get`] on any shard
    /// count.
    pub neighbors: Vec<Neighbor>,
    /// Work counters — `Some` iff the builder asked for
    /// [`QueryBuilder::collect_stats`].
    pub stats: Option<QueryStats>,
}

/// Result of a batch query: per-query neighbour lists in input order and,
/// when requested, the merged work counters of all workers.
#[must_use = "batch results carry the answers the queries were run for"]
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQueryResult {
    /// One neighbour list per input query, in input order — bitwise
    /// identical to running the single-query builder in a loop.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Merged work counters (`QueryStats::queries` counts the batch,
    /// `QueryStats::db_size` sums the per-query database sizes) —
    /// `Some` iff the builder asked for [`BatchQueryBuilder::collect_stats`].
    pub stats: Option<QueryStats>,
}

/// The shared modifier state of both builders.
#[derive(Debug, Clone, Copy, Default)]
struct Spec {
    metric: Metric,
    mode: QueryMode,
    brute_force: bool,
    collect_stats: bool,
}

/// Runs `work` over every item on up to `workers` threads and returns the
/// results in item order — the one scheduler behind batch queries,
/// `insert_batch` and shard bulk-loading.
///
/// Workers pull items off one shared queue (work-stealing: a slow item
/// never straggles a pre-assigned chunk) and each result travels with its
/// item's index, so stealing order never touches results. Every worker
/// owns one `S` for its whole run — the per-worker [`EdwpScratch`] of the
/// query paths. Worker 0 is the **calling thread** running on
/// `caller_state`; workers `1..` are scoped threads on fresh
/// `S::default()`s, so no thread is spawned at all for one worker or one
/// item.
fn fan_out<T: Send, S: Default, R: Send>(
    items: Vec<T>,
    workers: usize,
    caller_state: &mut S,
    work: impl Fn(T, &mut S) -> R + Sync,
) -> Vec<R> {
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let spawned = workers.min(items.len()).saturating_sub(1);
    let queue = Mutex::new(items.into_iter().enumerate());
    let drain = |state: &mut S| {
        let mut done = Vec::new();
        loop {
            // The guard is a temporary: the queue is unlocked before
            // `work` runs.
            let next = queue.lock().expect("fan-out queue poisoned").next();
            let Some((i, item)) = next else { break };
            done.push((i, work(item, state)));
        }
        done
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawned)
            .map(|_| scope.spawn(|| drain(&mut S::default())))
            .collect();
        let mut done = drain(caller_state);
        for h in handles {
            done.extend(h.join().expect("fan-out worker panicked"));
        }
        for (i, r) in done {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item was claimed"))
        .collect()
}

/// Default delta-merge threshold: how many buffered inserts a shard
/// accumulates before folding them into a new run. Small enough that the
/// per-query brute scan of the delta stays negligible next to a tree
/// descent; large enough that a shard holds few runs, each a root every
/// query seeds.
const DELTA_MERGE_THRESHOLD: usize = 32;

/// The full **live** contents of an epoch as per-shard borrow sections, in
/// shard order with each section ascending by global id (run survivors,
/// then the delta) — what the storage engine's compaction writes.
/// Tombstoned members are simply absent: compaction is where a removal
/// stops costing disk space.
fn shard_sections(snap: &Snapshot) -> Vec<Vec<(TrajId, &Trajectory)>> {
    snap.shards
        .iter()
        .map(|s| s.live_pairs().collect())
        .collect()
}

/// Deals `(global id, trajectory)` pairs across `n` shards by the id-hash
/// router and STR-bulk-loads one tree per shard — one `fan_out` worker per
/// shard, since the bulk loads are independent (and deterministic, so the
/// parallel build is bit-identical to the sequential one). The one build
/// path: [`SessionBuilder::build`], [`SessionBuilder::open`] and
/// [`Session::reshard`] all reach their trees through this call, one run
/// per shard.
fn build_shards(
    pairs: Vec<(TrajId, Trajectory)>,
    n: usize,
    config: &TrajTreeConfig,
) -> Vec<Arc<Shard>> {
    debug_assert!(n >= 1, "the shard count is clamped before routing");
    let mut parts: Vec<Vec<(TrajId, Trajectory)>> = (0..n).map(|_| Vec::new()).collect();
    for (gid, t) in pairs {
        parts[shard_of(gid, n)].push((gid, t));
    }
    fan_out(parts, n, &mut (), |part, _| {
        Arc::new(Shard::bulk(part, config))
    })
}

/// A sharded trajectory database, its per-shard TrajTree indexes and
/// pooled kernel memory behind one handle — the recommended owner of the
/// query surface.
///
/// The shard count is fixed at build time ([`SessionBuilder::shards`],
/// default 1) and is invisible in results: every query traverses all
/// shards at once and returns exactly what a single-shard session would.
/// [`Session::insert`] routes new trajectories by id hash and publishes a
/// new epoch that shares every untouched run, so concurrent
/// [`Session::batch`] / [`Snapshot`] readers keep reading the epoch they
/// started on.
///
/// ```
/// use traj_core::Trajectory;
/// use traj_dist::Metric;
/// use traj_index::{Session, TrajStore};
///
/// let mut store = TrajStore::new();
/// store.insert(Trajectory::from_xy(&[(0.0, 0.0), (10.0, 0.0)]));
/// store.insert(Trajectory::from_xy(&[(0.0, 50.0), (10.0, 50.0)]));
/// let mut session = Session::build(store);
///
/// let q = Trajectory::from_xy(&[(0.0, 1.0), (10.0, 1.0)]);
/// let nearest = session.query(&q).knn(1);
/// assert_eq!(nearest.neighbors[0].id, 0);
///
/// // Modifiers compose: normalised metric, stats, brute-force reference.
/// let norm = session
///     .query(&q)
///     .metric(Metric::EdwpNormalized)
///     .collect_stats()
///     .knn(1);
/// assert_eq!(norm.neighbors[0].id, 0);
/// assert!(norm.stats.unwrap().edwp_evaluations <= 2);
/// ```
#[derive(Debug)]
pub struct Session {
    /// The live epoch: the shards and the id watermark, one published
    /// value. Readers clone it (a [`Snapshot`]); writers build the next
    /// epoch beside it and take the write lock only to swap it in
    /// ([`Session::publish`]), never across a fold or disk I/O.
    live: RwLock<Snapshot>,
    config: TrajTreeConfig,
    scratch: EdwpScratch,
    /// Delta-merge threshold: a shard folds its delta buffer into a new
    /// run once the buffer holds this many trajectories
    /// ([`SessionBuilder::delta_merge_threshold`], clamped >= 1).
    delta_threshold: usize,
    /// Serialises writers (insert / remove / reshard / compact / sync)
    /// and owns the durable storage engine of a [`SessionBuilder::open`]ed
    /// session (`None` for in-memory sessions). A writer holds it across
    /// its disk I/O without touching the epoch lock, so readers stay
    /// wait-free meanwhile. Lock order is always writer -> epoch; the
    /// epoch lock is never held while waiting on the writer lock, so the
    /// two never deadlock.
    writer: Mutex<Option<StorageEngine>>,
}

impl Default for Session {
    /// An empty default-configuration single-shard session.
    fn default() -> Self {
        Session::build(TrajStore::new())
    }
}

impl Clone for Session {
    /// An O(shards) fork: the clone shares the current epoch's shard data
    /// and diverges copy-on-write on the first insert to either side.
    ///
    /// The fork is a **consistent cut** by construction: it copies one
    /// published epoch, and the id watermark is part of the epoch, so
    /// every id live in the fork is below the id the fork issues next. It
    /// takes only the epoch read lock, so it never waits for a write's
    /// disk I/O.
    ///
    /// The fork is always **in-memory**: a database directory has exactly
    /// one writer, so a clone of a durable session does not inherit the
    /// storage engine — its inserts land in memory only, while the
    /// original keeps logging.
    fn clone(&self) -> Self {
        Session::assemble(
            self.snapshot(),
            self.config.clone(),
            self.delta_threshold,
            None,
        )
    }
}

impl Session {
    /// Starts configuring a session: `Session::builder().shards(4)
    /// .config(cfg).build(store)`.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Indexes `store` as a single shard with a default-configuration bulk
    /// load.
    pub fn build(store: TrajStore) -> Self {
        Session::builder().build(store)
    }

    /// Wraps an existing store and index as a single-shard session — the
    /// way to query a hand-built tree (incremental [`TrajTree::insert`]s,
    /// a custom [`TrajTreeConfig`]). `tree` must index exactly the
    /// trajectories of `store` (the standing engine precondition: an id in
    /// the store but not the tree is invisible to index searches).
    pub fn from_parts(store: TrajStore, tree: TrajTree) -> Self {
        let config = tree.config().clone();
        let live = Snapshot {
            next_id: store.len() as TrajId,
            shards: Arc::new(vec![Arc::new(Shard::from_parts(store, tree))]),
        };
        Session::assemble(live, config, DELTA_MERGE_THRESHOLD, None)
    }

    /// The one place a session is put together from its parts: a first
    /// epoch (with the id watermark above every id in it) and the knobs.
    fn assemble(
        live: Snapshot,
        config: TrajTreeConfig,
        delta_threshold: usize,
        durable: Option<StorageEngine>,
    ) -> Self {
        Session {
            live: RwLock::new(live),
            config,
            scratch: EdwpScratch::new(),
            delta_threshold,
            writer: Mutex::new(durable),
        }
    }

    /// Releases the **live** database as one [`TrajStore`] in global-id
    /// order (e.g. to rebuild with another configuration or shard count).
    /// Trajectories still shared with outstanding snapshots are cloned.
    /// Store ids are dense `0..len` — any holes removal punched in the
    /// session's id space are closed, so ids shift when removals happened.
    pub fn into_store(self) -> TrajStore {
        let snap = self.live.into_inner().expect("session epoch lock poisoned");
        let mut out = TrajStore::new();
        for (_, t) in snap.iter() {
            out.insert(t.clone());
        }
        out
    }

    /// Adds one trajectory, returning its global id — the
    /// streaming-ingestion entry point: [`Session::insert_batch`] of one,
    /// under the contracts spelled out there. For bulk ingestion prefer
    /// the batch call, which amortises the WAL fsync and the epoch
    /// publication over the whole batch.
    pub fn insert(&self, t: Trajectory) -> Result<TrajId, TrajError> {
        Ok(self.insert_batch(vec![t])?[0])
    }

    /// Adds a whole batch of trajectories, returning their consecutive
    /// global ids — the one write path behind [`Session::insert`] and bulk
    /// ingestion alike. Each trajectory lands in its routed shard's delta
    /// buffer (queried by exact brute scan, so it is immediately and
    /// exactly visible); once a buffer reaches the session's merge
    /// threshold it is folded: bulk-loaded into a new run of the shard,
    /// which then merges with its older runs while they are at most twice
    /// its size (see the `shard` module docs).
    ///
    /// # Consistency contract
    ///
    /// * Writes are serialized (the session's writer lock) and atomic: one
    ///   epoch — shards and id watermark together — is published for the
    ///   whole batch, so queries see every trajectory of it (delta or
    ///   run) or none. The routed per-shard
    ///   sub-batches are applied on parallel workers (one per touched
    ///   shard) when the session is sharded.
    /// * Readers are epoch-guarded: the batch is built into successors of
    ///   the routed shards under the writer lock alone, off the epoch
    ///   lock, and published atomically. A successor shares every run the
    ///   batch leaves untouched, and every delta trip, by `Arc`: it copies
    ///   only the pointers of the shard's *delta buffer*. A fold builds
    ///   its new run and the runs it merges and copies nothing else, held
    ///   snapshot or not. A [`Session::batch`] or [`Snapshot`] that
    ///   started earlier keeps reading its original epoch — it never
    ///   observes a torn shard or a partially visible batch.
    /// * An insert *happens-before* every snapshot taken after it returns
    ///   (the `RwLock` synchronises publication), so
    ///   `session.insert(t); session.query(&q)` always sees `t`.
    /// * Inserts block snapshot *acquisition* (never queries already
    ///   running) only for the pointer swap that publishes the new epoch:
    ///   WAL append/fsync, compaction, the delta appends and every fold
    ///   run *before* the epoch lock is taken, so readers are never stuck
    ///   behind disk I/O or a bulk load.
    ///
    /// # Durability contract
    ///
    /// On a [`SessionBuilder::open`]ed session the whole batch is appended
    /// to the write-ahead log as **one group** — a single `fsync` under
    /// [`traj_persist::FsyncPolicy::Always`] instead of one per record —
    /// **before** the new epoch is published (log-then-publish), so the
    /// happens-before contract above extends to disk: once the call
    /// returns `Ok`, a crash-and-reopen sees the batch. When the log
    /// reaches the configured
    /// [`DurabilityConfig::compact_after_records`] threshold, the write
    /// first folds it into a fresh snapshot (see [`Session::compact`]).
    ///
    /// `Err` means nothing was published in memory. A batch the remaining
    /// id space cannot hold — ids are never reused, so the watermark only
    /// grows — is refused whole with [`TrajError::IdSpaceExhausted`]
    /// before anything is logged; that is the only way an in-memory
    /// session fails. After a storage error the same exposure class as a
    /// crash applies on disk: a prefix of the group may survive in the log
    /// (it is a valid prefix — recovery replays it, and truncates a torn
    /// tail), exactly as if the process had crashed mid-batch.
    pub fn insert_batch(&self, batch: Vec<Trajectory>) -> Result<Vec<TrajId>, TrajError> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let mut writer = self.writer.lock().expect("session writer lock poisoned");
        // Only writers publish, and the writer lock is held, so this epoch
        // stays the live one until the publish below.
        let snap = self.snapshot();
        let (base, n) = (snap.next_id, snap.num_shards());
        let next_id = u32::try_from(batch.len())
            .ok()
            .and_then(|n| base.checked_add(n))
            .ok_or(TrajError::IdSpaceExhausted)?;
        self.log(&mut writer, |engine| engine.append_group(&batch))?;
        let ids: Vec<TrajId> = (base..next_id).collect();
        // Consecutive ids keep each sub-batch ascending, so a sequential
        // apply per shard reproduces the single-insert loop exactly.
        let mut routed: Vec<Vec<(TrajId, Trajectory)>> = (0..n).map(|_| Vec::new()).collect();
        for (t, &id) in batch.into_iter().zip(&ids) {
            routed[shard_of(id, n)].push((id, t));
        }
        let (threshold, config) = (self.delta_threshold, &self.config);
        // One worker per touched shard: the sub-batches are disjoint
        // (`&mut` per shard). `make_mut` copies a touched shard out of
        // the live epoch — one `Arc` per run and per delta trip — and the
        // worker appends and folds into the copy.
        let mut shards = snap.shards.to_vec();
        let touched: Vec<_> = shards
            .iter_mut()
            .zip(routed)
            .filter(|(_, sub)| !sub.is_empty())
            .collect();
        let workers = touched.len();
        fan_out(touched, workers, &mut (), |(shard, sub), _| {
            Arc::make_mut(shard).insert(sub, threshold, config)
        });
        self.publish(Snapshot {
            shards: Arc::new(shards),
            next_id,
        });
        Ok(ids)
    }

    /// Removes the trajectory with global id `id` from the database — the
    /// lifecycle counterpart of [`Session::insert`]. The member is
    /// immediately invisible to every query, lookup and iteration on
    /// epochs taken after this returns, while epochs taken before keep
    /// answering from their original contents. The id is retired forever —
    /// ids are watermark-issued and never reused, so a removed id stays
    /// [`TrajError::UnknownId`] for the rest of the database's life. A
    /// delta-buffer member is dropped from the delta at once; an indexed
    /// member is **tombstoned** and its space reclaimed lazily, at the
    /// next [`Session::compact`] (disk) / the next fold that merges its
    /// run or [`Session::reshard`] (memory) —
    /// results are exact either way, since traversals skip tombstones at
    /// refinement.
    ///
    /// Errors with [`TrajError::UnknownId`] (and changes nothing) when
    /// `id` is not live. On a durable session the tombstone is logged to
    /// the write-ahead log before the new epoch is published, under the
    /// same log-then-publish contract as inserts: once `remove` returns
    /// `Ok`, a crash-and-reopen no longer contains the trajectory.
    pub fn remove(&self, id: TrajId) -> Result<(), TrajError> {
        self.remove_batch(std::slice::from_ref(&id))
    }

    /// Removes a whole batch of trajectories in one atomic, group-committed
    /// step — same contracts as [`Session::remove`], with the WAL fsync
    /// (one tombstone group) and the epoch publication amortised over the
    /// batch.
    ///
    /// All-or-nothing: if any id is not live — never issued, already
    /// removed, or repeated within `ids` — the call errors with
    /// [`TrajError::UnknownId`] for the offending id and **no** trajectory
    /// is removed, in memory or on disk.
    pub fn remove_batch(&self, ids: &[TrajId]) -> Result<(), TrajError> {
        if ids.is_empty() {
            return Ok(());
        }
        let mut writer = self.writer.lock().expect("session writer lock poisoned");
        let snap = self.snapshot();
        let n = snap.num_shards();
        // Validate up front so the WAL never sees a tombstone that could
        // fail to apply (replay treats tombstone-of-non-live as
        // corruption). A duplicate in the batch is the same offence: the
        // second occurrence tombstones an id that is no longer live.
        let mut seen = BTreeSet::new();
        for &id in ids {
            if !seen.insert(id) || snap.try_get(id).is_err() {
                return Err(TrajError::UnknownId {
                    id,
                    len: snap.len(),
                });
            }
        }
        self.log(&mut writer, |engine| engine.append_tombstones(ids))?;
        let mut shards = snap.shards.to_vec();
        for &id in ids {
            let removed = Arc::make_mut(&mut shards[shard_of(id, n)]).remove(id);
            debug_assert!(removed, "validated live against the same epoch above");
        }
        self.publish(Snapshot {
            shards: Arc::new(shards),
            next_id: snap.next_id,
        });
        Ok(())
    }

    /// Rebalances the database across `shards` shards (clamped to at
    /// least 1) **online**: held [`Snapshot`]s and in-flight queries keep
    /// answering from the old layout while the new one is built, and the
    /// switch is one atomic epoch publication. Queries are bitwise
    /// identical before, during and after — the shard count is invisible
    /// in results — and global ids are stable across the move (unlike
    /// [`Session::into_store`] round-trips, which re-densify).
    ///
    /// This is a rebuild of the *live* set from memory: live trajectories
    /// are re-dealt by the id-hash router and one run per shard is
    /// STR-bulk-loaded on parallel workers — the same bulk load
    /// [`SessionBuilder::build`] and [`SessionBuilder::open`] run, so the
    /// new trees are what a fresh build over the live set would produce.
    /// Resharding to the **current** count is deliberately not a no-op: it
    /// rebuilds every shard as one run, folding every delta buffer and
    /// evicting every tombstone from memory, so
    /// `session.reshard(session.num_shards())` doubles as an in-memory
    /// vacuum.
    ///
    /// On a durable session the move is logged as one `Reshard` record
    /// (after compacting first if the log is over its threshold), so a
    /// crash at any point recovers either the old or the new layout —
    /// never a mix — and a plain [`SessionBuilder::open`] without
    /// `.shards(..)` reopens with the new count.
    pub fn reshard(&self, shards: usize) -> Result<(), TrajError> {
        let n = shards.max(1);
        let mut writer = self.writer.lock().expect("session writer lock poisoned");
        let snap = self.snapshot();
        let pairs: Vec<(TrajId, Trajectory)> =
            snap.iter().map(|(gid, t)| (gid, t.clone())).collect();
        let built = build_shards(pairs, n, &self.config);
        // Log then publish, as everywhere: the layout change is one logged
        // record, and an `Err` here leaves memory and disk on the old
        // layout.
        self.log(&mut writer, |engine| engine.append_reshard(n as u32))?;
        self.publish(Snapshot {
            shards: Arc::new(built),
            next_id: snap.next_id,
        });
        Ok(())
    }

    /// Makes `next` the live epoch. The caller holds the writer lock and
    /// built `next` from the epoch it read under that lock, so no write
    /// lands in between. The epoch lock covers the swap alone: the
    /// superseded epoch is dropped after the lock is released, so freeing
    /// the runs no snapshot holds any more never delays a reader.
    fn publish(&self, next: Snapshot) {
        let superseded = std::mem::replace(
            &mut *self.live.write().expect("session epoch lock poisoned"),
            next,
        );
        drop(superseded);
    }

    /// The durable half of a write, run on the engine the caller's writer
    /// lock guards but *off* the epoch lock: compacts the published epoch
    /// first if the log is over its threshold (so every error path leaves
    /// engine and epoch agreeing), then runs `append` — the one WAL group
    /// this write logs. No-op for in-memory sessions.
    fn log(
        &self,
        engine: &mut Option<StorageEngine>,
        append: impl FnOnce(&mut StorageEngine) -> Result<(), PersistError>,
    ) -> Result<(), TrajError> {
        let Some(engine) = engine else {
            return Ok(());
        };
        if engine.needs_compaction() {
            engine.compact(&shard_sections(&self.snapshot()))?;
        }
        append(engine)?;
        Ok(())
    }

    /// Folds the write-ahead log into a fresh snapshot now: writes the
    /// next generation's snapshot, atomically swaps it in, and truncates
    /// the log (see `traj-persist` for the crash-safety argument). A no-op
    /// `Ok` on in-memory sessions. Runs automatically once the log passes
    /// [`DurabilityConfig::compact_after_records`]; call it explicitly
    /// before an orderly shutdown to make the next open replay-free.
    ///
    /// Runs under the writer lock only — the epoch lock is taken just
    /// long enough to pin the snapshot being written, so concurrent
    /// readers never wait on compaction I/O.
    ///
    /// After a storage error here every later write is refused with the
    /// poisoned-log error until a retried `compact` succeeds or the
    /// directory is reopened (see [`StorageEngine::compact`]).
    pub fn compact(&self) -> Result<(), TrajError> {
        let mut writer = self.writer.lock().expect("session writer lock poisoned");
        let Some(engine) = writer.as_mut() else {
            return Ok(());
        };
        engine.compact(&shard_sections(&self.snapshot()))?;
        Ok(())
    }

    /// Forces every logged insert to stable storage regardless of the
    /// configured fsync policy — the explicit barrier for
    /// [`traj_persist::FsyncPolicy::EveryN`] / `OsManaged` sessions. A
    /// no-op `Ok` on in-memory sessions. Takes the writer lock, so it
    /// waits for a write in flight.
    pub fn sync(&self) -> Result<(), TrajError> {
        let mut writer = self.writer.lock().expect("session writer lock poisoned");
        if let Some(engine) = writer.as_mut() {
            engine.sync()?;
        }
        Ok(())
    }

    /// `true` when this session persists inserts to a database directory
    /// (built with [`SessionBuilder::open`] rather than
    /// [`SessionBuilder::build`]). The storage engine lives behind the
    /// writer lock, so this reads through it and waits for a write in
    /// flight.
    pub fn is_durable(&self) -> bool {
        self.writer
            .lock()
            .expect("session writer lock poisoned")
            .is_some()
    }

    /// The current epoch: an immutable, shareable view of every shard.
    /// Queries on the snapshot ([`Snapshot::query`] / [`Snapshot::batch`])
    /// are unaffected by later inserts.
    pub fn snapshot(&self) -> Snapshot {
        self.live
            .read()
            .expect("session epoch lock poisoned")
            .clone()
    }

    /// Number of **live** trajectories (current epoch) — removed
    /// trajectories are not counted, though their ids stay retired.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the session holds no live trajectories.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// Number of shards the database is currently partitioned across —
    /// fixed at build/open time until a [`Session::reshard`] publishes a
    /// new layout.
    pub fn num_shards(&self) -> usize {
        self.snapshot().num_shards()
    }

    /// The tree configuration every shard was built with.
    pub fn config(&self) -> &TrajTreeConfig {
        &self.config
    }

    /// The instruction-set path the box-bound kernel executes on
    /// (`"scalar"` / `"avx2"`) — runtime CPU detection, the
    /// `TRAJ_FORCE_SCALAR` environment variable and
    /// [`traj_dist::simd::force_isa`] all feed into this one process-wide
    /// resolution, so operational logs can record which kernel actually
    /// ran. Only the box bound's segment-to-box minimum is vectorised; the
    /// exact DP and every other kernel run one scalar path. Results are
    /// exact on every path; only speed differs.
    pub fn kernel_isa(&self) -> &'static str {
        traj_dist::Isa::current().name()
    }

    /// Starts a single query against the current epoch. The builder runs
    /// on the session's pooled scratch, so consecutive queries are
    /// allocation-free inside the distance kernels.
    ///
    /// Finish with [`QueryBuilder::knn`] or [`QueryBuilder::range`].
    pub fn query<'s>(&'s mut self, query: &'s Trajectory) -> QueryBuilder<'s> {
        let Session { live, scratch, .. } = self;
        QueryBuilder {
            snapshot: live.get_mut().expect("session epoch lock poisoned").clone(),
            query,
            scratch: Some(scratch),
            spec: Spec::default(),
        }
    }

    /// Starts a batch of queries against the epoch current *now* (the
    /// whole batch reads one consistent epoch even while inserts land);
    /// workers pool one scratch each. Finish with
    /// [`BatchQueryBuilder::knn`] or [`BatchQueryBuilder::range`].
    pub fn batch<'s>(&self, queries: &'s [Trajectory]) -> BatchQueryBuilder<'s> {
        self.snapshot().batch(queries)
    }
}

/// Configures and builds a [`Session`]: shard count, tree configuration,
/// and — for sessions opened on a database directory — durability policy.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    /// `None` = unset: [`SessionBuilder::build`] defaults to 1, while
    /// [`SessionBuilder::open`] defaults to the shard count the on-disk
    /// snapshot was written with.
    shards: Option<usize>,
    config: TrajTreeConfig,
    durability: DurabilityConfig,
    delta_threshold: Option<usize>,
}

impl SessionBuilder {
    /// Number of shards to partition the database across (clamped to at
    /// least 1). Defaults to 1 for [`SessionBuilder::build`] and to the
    /// stored snapshot's shard count for [`SessionBuilder::open`]. Results
    /// are bitwise identical at any shard count — raise it to parallelise
    /// bulk-loading and folds across cores.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Durability policy for [`SessionBuilder::open`]: fsync cadence and
    /// automatic compaction threshold. Ignored by
    /// [`SessionBuilder::build`] (in-memory sessions persist nothing).
    pub fn durability(mut self, cfg: DurabilityConfig) -> Self {
        self.durability = cfg;
        self
    }

    /// How many buffered inserts a shard's delta accumulates before being
    /// folded — bulk-loaded into a new run, the shard's newest (clamped to
    /// at least 1; default 32). Results are bitwise identical at any
    /// threshold — the delta is queried by exact brute scan — so this knob
    /// trades per-query delta-scan work against fold frequency and run
    /// count: runs more than halve in size from oldest to newest, so a
    /// shard of `m` members holds at most `⌊log2(m / threshold)⌋ + 1`.
    /// `1` folds every insert into a run straight away.
    pub fn delta_merge_threshold(mut self, threshold: usize) -> Self {
        self.delta_threshold = Some(threshold.max(1));
        self
    }

    /// Opens (or initialises) the durable database in `dir` and builds a
    /// session over it: recovery finds the newest valid snapshot, replays
    /// the write-ahead log (truncating a torn tail — the normal crash
    /// artifact), bulk-loads the shard trees from the recovered
    /// trajectories — the same bulk load as [`SessionBuilder::build`] and
    /// [`Session::reshard`] — and wires [`Session::insert`] to log through
    /// the engine. Trees are *rebuilt*, not deserialized: queries are exact
    /// regardless of tree shape, so a reopened session answers every query
    /// bitwise-identically to one that never went down.
    ///
    /// Fails with a typed error (flattened into [`TrajError::Persist`])
    /// when the directory holds snapshots but none verifies, when a
    /// checksum-valid record will not decode, or on I/O failure, and with
    /// [`TrajError::IdSpaceExhausted`] when the recovered id watermark
    /// does not fit the `u32` id space — never by panicking, and never by
    /// silently starting empty over damaged data.
    pub fn open(self, dir: impl AsRef<Path>) -> Result<Session, TrajError> {
        let (recovered, engine) = StorageEngine::open(dir.as_ref(), self.durability)?;
        let next_id = u32::try_from(recovered.next_id).map_err(|_| TrajError::IdSpaceExhausted)?;
        let stored_shards = recovered.snapshot_shards.max(1);
        let shards = self.shards.unwrap_or(stored_shards);
        // The recovered set is the live set with its original (possibly
        // holey) global ids — removals and reshards were replayed — so the
        // session is built straight from the pairs, watermark included.
        let live = Snapshot {
            shards: Arc::new(build_shards(recovered.trajs, shards, &self.config)),
            next_id,
        };
        let session = Session::assemble(
            live,
            self.config,
            self.delta_threshold.unwrap_or(DELTA_MERGE_THRESHOLD),
            Some(engine),
        );
        // The shard count reaches disk only through a snapshot or a
        // Reshard record, so when the caller picked a layout the store
        // doesn't have, write a snapshot now — a later `open` without
        // `.shards(..)` then reopens with this layout, as documented.
        if shards != stored_shards {
            session.compact()?;
        }
        Ok(session)
    }

    /// The [`TrajTreeConfig`] every shard tree is bulk-loaded with.
    pub fn config(mut self, config: TrajTreeConfig) -> Self {
        self.config = config;
        self
    }

    /// Scatters `store` round-robin across the shards (global id `g` goes
    /// to shard `g mod shards`) and bulk-loads one tree per shard — one
    /// worker per shard, since the STR bulk loads are independent (and
    /// deterministic, so the parallel build is bit-identical to the
    /// sequential one).
    ///
    /// Relies on the invariant that `self.shards >= 1`
    /// ([`SessionBuilder::shards`] clamps, the default is 1, and the field
    /// is private), so a count of 0 can never reach the `g mod n` router —
    /// which would panic on every insert and lookup; regression-tested by
    /// `shards_zero_clamps_to_a_working_single_shard` in
    /// `tests/sub_and_edge_properties.rs`.
    pub fn build(self, store: TrajStore) -> Session {
        let SessionBuilder {
            shards,
            config,
            durability: _,
            delta_threshold,
        } = self;
        let n = shards.unwrap_or(1);
        debug_assert!(n >= 1, "SessionBuilder::shards maintains n >= 1");
        let pairs: Vec<(TrajId, Trajectory)> = store
            .into_vec()
            .into_iter()
            .enumerate()
            .map(|(i, t)| (i as TrajId, t))
            .collect();
        let live = Snapshot {
            next_id: pairs.len() as TrajId,
            shards: Arc::new(build_shards(pairs, n, &config)),
        };
        Session::assemble(
            live,
            config,
            delta_threshold.unwrap_or(DELTA_MERGE_THRESHOLD),
            None,
        )
    }
}

impl Snapshot {
    /// Starts a single query against this epoch (a fresh kernel scratch
    /// per finisher unless [`QueryBuilder::scratch`] supplies a pooled
    /// one). Unlike [`Session::query`], this needs no exclusive borrow, so
    /// any number of reader threads can query one epoch concurrently.
    pub fn query<'s>(&self, query: &'s Trajectory) -> QueryBuilder<'s> {
        QueryBuilder {
            snapshot: self.clone(),
            query,
            scratch: None,
            spec: Spec::default(),
        }
    }

    /// Starts a batch of queries against this epoch; workers pool one
    /// scratch each.
    pub fn batch<'s>(&self, queries: &'s [Trajectory]) -> BatchQueryBuilder<'s> {
        BatchQueryBuilder {
            snapshot: self.clone(),
            queries,
            threads: None,
            spec: Spec::default(),
        }
    }
}

/// Builder for one query; construct via [`Session::query`] or
/// [`Snapshot::query`] (a builder always searches one pinned [`Snapshot`]
/// epoch), chain modifiers, and finish with [`QueryBuilder::knn`] or
/// [`QueryBuilder::range`].
///
/// ```
/// use traj_core::Trajectory;
/// use traj_index::{Session, TrajStore, TrajTree};
///
/// let mut store = TrajStore::new();
/// store.insert(Trajectory::from_xy(&[(0.0, 0.0), (5.0, 0.0)]));
/// // A hand-built tree is queried by wrapping it as a session.
/// let tree = TrajTree::build(&store);
/// let epoch = Session::from_parts(store, tree).snapshot();
/// let q = Trajectory::from_xy(&[(0.0, 2.0), (5.0, 2.0)]);
/// let hits = epoch.query(&q).range(100.0);
/// assert_eq!(hits.neighbors.len(), 1);
/// ```
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    snapshot: Snapshot,
    query: &'a Trajectory,
    scratch: Option<&'a mut EdwpScratch>,
    spec: Spec,
}

impl<'a> QueryBuilder<'a> {
    /// Runs the query's kernels through caller-pooled scratch memory
    /// instead of a fresh per-call buffer (what [`Session::query`] wires up
    /// automatically). Values are identical either way.
    pub fn scratch(mut self, scratch: &'a mut EdwpScratch) -> Self {
        self.scratch = Some(scratch);
        self
    }

    // Accepted and ignored: the frozen `benchmark/src/probes.rs` still calls
    // this with `false`, which asks for what is now the only schedule.
    #[doc(hidden)]
    pub fn parallel_scatter(self, _: bool) -> Self {
        self
    }

    /// Answers the query under `metric` (default: raw EDwP). Distances in
    /// the result — and any `eps` given to [`QueryBuilder::range`] — are in
    /// the chosen metric's scale.
    pub fn metric(mut self, metric: Metric) -> Self {
        self.spec.metric = metric;
        self
    }

    /// Answers the query in the given [`QueryMode`] (default:
    /// whole-trajectory matching). [`QueryBuilder::sub`] is the idiomatic
    /// shorthand for [`QueryMode::Sub`].
    pub fn mode(mut self, mode: QueryMode) -> Self {
        self.spec.mode = mode;
        self
    }

    /// Matches the query against the best contiguous *portion* of each
    /// stored trajectory (`EDwP_sub`, Sec. IV-B) instead of end-to-end:
    /// `session.query(&probe).sub().knn(k)` is the partial-trip lookup.
    /// Distances (and any range `eps`) are in the sub metric's scale —
    /// `edwp_sub` for [`Metric::Edwp`], `edwp_sub_avg` for
    /// [`Metric::EdwpNormalized`]. Exact: index answers equal the
    /// brute-force `edwp_sub` scan bitwise, at any shard count.
    pub fn sub(self) -> Self {
        self.mode(QueryMode::Sub)
    }

    /// Answers with the linear-scan reference instead of the index: every
    /// stored trajectory gets a full distance evaluation. Same collectors,
    /// no pruning — the ground truth index searches are tested against.
    /// Composes with every mode and metric, including `.sub()`.
    pub fn brute_force(mut self) -> Self {
        self.spec.brute_force = true;
        self
    }

    /// Returns the search's work counters in [`QueryResult::stats`].
    pub fn collect_stats(mut self) -> Self {
        self.spec.collect_stats = true;
        self
    }

    /// Finishes as a k-nearest-neighbour query: the `k` trajectories
    /// closest to the query, ascending `(distance, id)`. Exact: identical
    /// to the brute-force reference under the same metric, at any shard
    /// count.
    #[must_use = "running a k-NN query only to drop its result does no work worth paying for"]
    pub fn knn(self, k: usize) -> QueryResult {
        self.run(QueryKind::Knn(k))
    }

    /// Finishes as a range query: every trajectory within `eps`
    /// (inclusive) of the query under the chosen metric and mode,
    /// ascending `(distance, id)`.
    ///
    /// Edge contract (shared bitwise by the indexed, brute-force and batch
    /// paths): a NaN or strictly negative `eps` matches nothing and
    /// returns an empty result without scanning — distances are
    /// non-negative and NaN compares false to everything. `-0.0` behaves
    /// as `0.0` (inclusive zero-radius ball), `f64::INFINITY` returns the
    /// whole database.
    #[must_use = "running a range query only to drop its result does no work worth paying for"]
    pub fn range(self, eps: f64) -> QueryResult {
        self.run(QueryKind::Range(eps))
    }

    /// The one code path every single query runs through: one forest
    /// traversal over all shards, on the calling thread.
    fn run(self, kind: QueryKind) -> QueryResult {
        let QueryBuilder {
            snapshot,
            query,
            scratch,
            spec,
        } = self;
        let mut fresh = EdwpScratch::new();
        let scratch = scratch.unwrap_or(&mut fresh);
        let plan = Plan {
            spec,
            kind,
            total: snapshot.len(),
        };
        let (neighbors, stats) = run_query(plan, &snapshot.shards, query, scratch);
        QueryResult {
            neighbors,
            stats: spec.collect_stats.then_some(stats),
        }
    }
}

/// Builder for a batch of queries answered in parallel; construct via
/// [`Session::batch`] or [`Snapshot::batch`], chain modifiers, finish with
/// [`BatchQueryBuilder::knn`] or
/// [`BatchQueryBuilder::range`]. Results are bitwise identical to a
/// sequential loop of single queries, for any worker and shard count.
#[derive(Debug)]
pub struct BatchQueryBuilder<'a> {
    snapshot: Snapshot,
    queries: &'a [Trajectory],
    threads: Option<usize>,
    spec: Spec,
}

impl BatchQueryBuilder<'_> {
    /// Explicit worker count (default: one worker per available CPU).
    /// Clamped to at least 1 — like [`SessionBuilder::shards`], a zero
    /// from a computed configuration means "no parallelism", not "no
    /// work", so `threads(0)` runs the batch single-threaded instead of
    /// hanging or panicking; also clamped down to the number of work
    /// items. Parallelism changes only which thread runs a work item,
    /// never what it computes.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Answers every query under `metric` (default: raw EDwP).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.spec.metric = metric;
        self
    }

    /// Answers every query in the given [`QueryMode`] (default:
    /// whole-trajectory matching).
    pub fn mode(mut self, mode: QueryMode) -> Self {
        self.spec.mode = mode;
        self
    }

    /// Sub-trajectory matching for the whole batch — see
    /// [`QueryBuilder::sub`].
    pub fn sub(self) -> Self {
        self.mode(QueryMode::Sub)
    }

    /// Answers with the linear-scan reference instead of the index.
    pub fn brute_force(mut self) -> Self {
        self.spec.brute_force = true;
        self
    }

    /// Returns the merged work counters in [`BatchQueryResult::stats`].
    pub fn collect_stats(mut self) -> Self {
        self.spec.collect_stats = true;
        self
    }

    /// Finishes as a k-NN query per input query.
    #[must_use = "running a batch query only to drop its result does no work worth paying for"]
    pub fn knn(self, k: usize) -> BatchQueryResult {
        self.run(QueryKind::Knn(k))
    }

    /// Finishes as a range query per input query — same `eps` edge
    /// contract as [`QueryBuilder::range`] (NaN/negative match nothing).
    #[must_use = "running a batch query only to drop its result does no work worth paying for"]
    pub fn range(self, eps: f64) -> BatchQueryResult {
        self.run(QueryKind::Range(eps))
    }

    /// One [`fan_out`] item per query, each a whole forest traversal over
    /// all shards.
    fn run(self, kind: QueryKind) -> BatchQueryResult {
        let BatchQueryBuilder {
            snapshot,
            queries,
            threads,
            spec,
        } = self;
        let plan = Plan {
            spec,
            kind,
            total: snapshot.len(),
        };
        let shards: &[Arc<Shard>] = &snapshot.shards;
        let workers = threads.unwrap_or_else(default_threads).max(1);
        let answers = fan_out(
            queries.iter().collect(),
            workers,
            &mut EdwpScratch::new(),
            |query, scratch| run_query(plan, shards, query, scratch),
        );
        let mut agg = QueryStats::default();
        let mut neighbors = Vec::with_capacity(queries.len());
        for (per_query, stats) in answers {
            agg.merge(&stats);
            neighbors.push(per_query);
        }
        BatchQueryResult {
            neighbors,
            stats: spec.collect_stats.then_some(agg),
        }
    }
}

/// The query type plus its type-specific parameter — internal enum-state:
/// a `k` exists only for k-NN, an `eps` only for range.
#[derive(Debug, Clone, Copy)]
enum QueryKind {
    Knn(usize),
    Range(f64),
}

/// What one finisher call asks of every search it runs: the builder's
/// modifiers, the query type, and the epoch's live database size (clamps
/// `k`, and is what [`QueryStats::db_size`] reports).
#[derive(Debug, Clone, Copy)]
struct Plan {
    spec: Spec,
    kind: QueryKind,
    total: usize,
}

/// The documented range edge contract: an `eps` that can match anything.
/// Rejects NaN and strict negatives up front (distances are non-negative;
/// NaN compares false to everything) so the indexed, brute-force and batch
/// paths all short-circuit to the same empty result instead of scanning —
/// under NaN the engine's `bound > threshold` cutoff never fires, so a
/// traversal would needlessly visit the entire tree. `-0.0 >= 0.0` holds,
/// so `-0.0` keeps behaving as the inclusive zero-radius ball.
#[inline]
fn eps_can_match(eps: f64) -> bool {
    eps >= 0.0
}

/// One search over every shard in `shards` under one collector — hence one
/// pruning threshold — with fresh counters for one search over the whole
/// database.
fn run_query(
    plan: Plan,
    shards: &[Arc<Shard>],
    query: &Trajectory,
    scratch: &mut EdwpScratch,
) -> (Vec<Neighbor>, QueryStats) {
    let Plan { spec, kind, total } = plan;
    let mut stats = QueryStats::for_search(total);
    let neighbors = match kind {
        QueryKind::Knn(k) => match k.min(total) {
            0 => Vec::new(),
            k => {
                let collector = KnnCollector::new(k);
                drive(shards, query, spec, collector, scratch, &mut stats)
            }
        },
        QueryKind::Range(eps) if eps_can_match(eps) => {
            let collector = RangeCollector::new(eps);
            drive(shards, query, spec, collector, scratch, &mut stats)
        }
        QueryKind::Range(_) => Vec::new(),
    };
    (neighbors, stats)
}

/// Fills a collector from the shards' best-first forest engine, or from a
/// pruning-free linear scan for `brute_force` — the two differ only in
/// which candidates pay for a full distance evaluation, never in what is
/// computed for them. Candidates are offered under their global ids.
fn drive<C: Collector>(
    shards: &[Arc<Shard>],
    query: &Trajectory,
    spec: Spec,
    mut collector: C,
    scratch: &mut EdwpScratch,
    stats: &mut QueryStats,
) -> Vec<Neighbor> {
    if spec.brute_force {
        // The reference scan honours tombstones the same way the index
        // does: a dead member is never evaluated or offered.
        for (gid, t) in shards.iter().flat_map(|s| s.live_pairs()) {
            stats.bump_edwp();
            collector.offer(gid, spec.metric.distance(spec.mode, query, t, scratch));
        }
    } else {
        best_first(
            shards,
            query,
            Matching {
                metric: spec.metric,
                mode: spec.mode,
            },
            &mut collector,
            scratch,
            stats,
        );
    }
    collector.into_neighbors()
}

/// Default batch worker count: one per available CPU (cached).
fn default_threads() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_store() -> TrajStore {
        let mut store = TrajStore::new();
        for (cx, cy) in [(0.0, 0.0), (500.0, 500.0)] {
            for i in 0..10 {
                let off = i as f64 * 0.5;
                store.insert(Trajectory::from_xy(&[
                    (cx + off, cy),
                    (cx + off + 2.0, cy + 2.0),
                    (cx + off + 4.0, cy),
                ]));
            }
        }
        store
    }

    #[test]
    fn session_roundtrip_and_insert() {
        let mut session = Session::build(two_cluster_store());
        assert_eq!(session.len(), 20);
        assert!(!session.is_empty());
        let id = session
            .insert(Trajectory::from_xy(&[(1.0, 1.0), (3.0, 1.0)]))
            .expect("in-memory insert");
        assert_eq!(id, 20);
        assert!(session.snapshot().node_count() >= 1);
        let q = session.snapshot().get(id).clone();
        let res = session.query(&q).knn(1);
        assert_eq!(res.neighbors[0].id, id);
        assert!(res.stats.is_none(), "stats only on collect_stats()");
        let store = session.into_store();
        assert_eq!(store.len(), 21);
        assert_eq!(store.get(20).first().p.y, 1.0);
    }

    #[test]
    fn insert_routes_round_robin_and_keeps_global_ids() {
        let session = Session::builder().shards(3).build(TrajStore::new());
        for i in 0..10u32 {
            let id = session
                .insert(Trajectory::from_xy(&[
                    (i as f64, 0.0),
                    (i as f64 + 1.0, 1.0),
                ]))
                .expect("in-memory insert");
            assert_eq!(id, i, "global ids are dense in insert order");
        }
        let snap = session.snapshot();
        assert_eq!(snap.num_shards(), 3);
        for (g, t) in snap.iter() {
            assert_eq!(t.first().p.x, g as f64, "id {g} routed to the wrong slot");
        }
        // Reassembly preserves global order across shards.
        let store = session.into_store();
        assert_eq!(store.len(), 10);
        for (g, t) in store.iter() {
            assert_eq!(t.first().p.x, g as f64);
        }
    }

    #[test]
    fn sharded_results_match_single_shard() {
        let store = two_cluster_store();
        let mut single = Session::build(store.clone());
        let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        let want_knn = single.query(&q).knn(5);
        let want_range = single.query(&q).range(750.0);
        for shards in [2usize, 3, 4, 16] {
            let mut sharded = Session::builder().shards(shards).build(store.clone());
            assert_eq!(sharded.num_shards(), shards);
            assert_eq!(
                sharded.query(&q).knn(5).neighbors,
                want_knn.neighbors,
                "knn diverged at {shards} shards"
            );
            assert_eq!(
                sharded.query(&q).range(750.0).neighbors,
                want_range.neighbors,
                "range diverged at {shards} shards"
            );
            let batch = sharded.batch(std::slice::from_ref(&q)).threads(4).knn(5);
            assert_eq!(batch.neighbors[0], want_knn.neighbors);
        }
    }

    #[test]
    fn remove_tombstones_and_retires_the_id() {
        let session = Session::builder().shards(3).build(two_cluster_store());
        assert_eq!(session.len(), 20);
        session.remove(7).expect("live id");
        assert_eq!(session.len(), 19);
        let snap = session.snapshot();
        assert!(snap.try_get(7).is_err(), "removed ids stop resolving");
        assert!(!snap.iter().any(|(g, _)| g == 7));
        // Queries skip the dead member on every path.
        let q = snap.get(6).clone();
        let res = snap.query(&q).knn(20);
        assert_eq!(res.neighbors.len(), 19);
        assert!(res.neighbors.iter().all(|nb| nb.id != 7));
        let brute = snap.query(&q).brute_force().knn(20);
        assert!(brute.neighbors.iter().all(|nb| nb.id != 7));
        // The id is retired: the next insert gets a fresh watermark id,
        // and removing 7 again is an error.
        let id = session
            .insert(Trajectory::from_xy(&[(1.0, 1.0), (2.0, 2.0)]))
            .expect("in-memory insert");
        assert_eq!(id, 20, "ids are never reused");
        assert_eq!(
            session.remove(7).unwrap_err(),
            TrajError::UnknownId { id: 7, len: 20 }
        );
    }

    #[test]
    fn remove_batch_is_all_or_nothing() {
        let session = Session::builder().shards(2).build(two_cluster_store());
        // Unknown member poisons the whole batch.
        assert_eq!(
            session.remove_batch(&[3, 99]).unwrap_err(),
            TrajError::UnknownId { id: 99, len: 20 }
        );
        assert_eq!(session.len(), 20, "nothing was removed");
        // So does a duplicate within the batch.
        assert_eq!(
            session.remove_batch(&[3, 5, 3]).unwrap_err(),
            TrajError::UnknownId { id: 3, len: 20 }
        );
        assert_eq!(session.len(), 20);
        // A valid batch lands atomically; an empty one is a no-op.
        session.remove_batch(&[]).expect("empty batch");
        session.remove_batch(&[3, 5, 11]).expect("all live");
        assert_eq!(session.len(), 17);
        let snap = session.snapshot();
        for id in [3u32, 5, 11] {
            assert!(snap.try_get(id).is_err());
        }
    }

    #[test]
    fn removal_is_invisible_to_held_snapshots() {
        let session = Session::builder().shards(2).build(two_cluster_store());
        let before = session.snapshot();
        session.remove(4).expect("live id");
        assert_eq!(before.len(), 20, "old epoch still answers in full");
        assert_eq!(before.get(4), before.get(4));
        assert_eq!(session.snapshot().len(), 19);
    }

    #[test]
    fn reshard_rebalances_without_changing_answers() {
        let session = Session::builder().shards(2).build(two_cluster_store());
        session.remove_batch(&[2, 9, 15]).expect("live ids");
        let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        let want = session.snapshot().query(&q).knn(6).neighbors;
        let held = session.snapshot();
        for n in [4usize, 3, 1, 2] {
            session.reshard(n).expect("in-memory reshard");
            assert_eq!(session.num_shards(), n);
            assert_eq!(session.len(), 17);
            let snap = session.snapshot();
            assert_eq!(
                snap.query(&q).knn(6).neighbors,
                want,
                "answers diverged at {n} shards"
            );
            // Ids are stable across the move (reshard never re-densifies).
            assert!(snap.try_get(2).is_err());
            assert_eq!(snap.get(3), held.get(3));
            // The rebuild purged tombstones and folded deltas: occupancy
            // is all-indexed and sums to the live count.
            let sizes = snap.shard_sizes();
            assert_eq!(sizes.len(), n);
            assert!(sizes.iter().all(|o| o.delta == 0));
            assert_eq!(sizes.iter().map(|o| o.total()).sum::<usize>(), 17);
        }
        // The held pre-reshard epoch still answers from the old layout.
        assert_eq!(held.num_shards(), 2);
        assert_eq!(held.query(&q).knn(6).neighbors, want);
        // reshard(0) clamps to one shard, like SessionBuilder::shards(0).
        session.reshard(0).expect("clamped");
        assert_eq!(session.num_shards(), 1);
        // Inserts after a reshard route by the new layout.
        let id = session
            .insert(Trajectory::from_xy(&[(2.0, 2.0), (3.0, 3.0)]))
            .expect("in-memory insert");
        assert_eq!(id, 20);
        assert_eq!(session.snapshot().get(id).first().p.x, 2.0);
    }

    #[test]
    fn shard_sizes_and_db_size_report_live_counts_under_tombstones() {
        // Satellite regression: occupancy and stats must not count the
        // dead. Grid over shard counts, with removals split across base
        // and delta members.
        for shards in [1usize, 2, 4] {
            let session = Session::builder()
                .shards(shards)
                .delta_merge_threshold(64)
                .build(two_cluster_store());
            // 20 indexed; 4 more land in deltas (threshold 64 keeps them
            // there).
            for i in 0..4u32 {
                session
                    .insert(Trajectory::from_xy(&[
                        (i as f64, 30.0),
                        (i as f64 + 1.0, 31.0),
                    ]))
                    .expect("in-memory insert");
            }
            session.remove_batch(&[1, 8, 21]).expect("live ids");
            let snap = session.snapshot();
            assert_eq!(snap.len(), 21, "shards: {shards}");
            let sizes = snap.shard_sizes();
            let indexed: usize = sizes.iter().map(|o| o.indexed).sum();
            let delta: usize = sizes.iter().map(|o| o.delta).sum();
            assert_eq!(indexed, 18, "two dead base members (shards: {shards})");
            assert_eq!(delta, 3, "one removed delta member (shards: {shards})");
            let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
            let stats = snap.query(&q).collect_stats().knn(3).stats.unwrap();
            assert_eq!(stats.db_size, 21, "shards: {shards}");
            let brute = snap
                .query(&q)
                .brute_force()
                .collect_stats()
                .knn(3)
                .stats
                .unwrap();
            assert_eq!(
                brute.edwp_evaluations, 21,
                "brute force evaluates exactly the live set"
            );
        }
    }

    #[test]
    fn id_space_exhaustion_is_a_typed_error_that_changes_nothing() {
        use traj_persist::tempdir::TempDir;
        let t = |x: f64| Trajectory::from_xy(&[(x, 0.0), (x + 1.0, 1.0)]);
        let dir = TempDir::new("session-id-exhaustion");
        let session = Session::builder()
            .shards(2)
            .open(dir.path())
            .expect("fresh directory");
        session.insert(t(0.0)).expect("id 0");
        let logged = |s: &Session| {
            let writer = s.writer.lock().unwrap();
            let engine = writer.as_ref().expect("durable");
            (engine.wal_records(), engine.next_id())
        };
        let set_watermark = |s: &Session, id: u32| s.live.write().unwrap().next_id = id;
        let before = logged(&session);

        // Watermark at the ceiling: no id is left for a single insert.
        set_watermark(&session, u32::MAX);
        assert_eq!(session.insert(t(1.0)), Err(TrajError::IdSpaceExhausted));
        assert_eq!(
            session.insert_batch(vec![t(1.0)]),
            Err(TrajError::IdSpaceExhausted)
        );
        // A batch straddling the limit is refused whole: two ids are left,
        // three are asked for.
        set_watermark(&session, u32::MAX - 2);
        assert_eq!(
            session.insert_batch(vec![t(1.0), t(2.0), t(3.0)]),
            Err(TrajError::IdSpaceExhausted)
        );
        // Nothing was published, nothing was appended, the watermark did
        // not move — and a batch that fits still does.
        assert_eq!(session.len(), 1);
        assert_eq!(logged(&session), before);
        assert_eq!(session.snapshot().next_id, u32::MAX - 2);
        let in_memory = Session::build(TrajStore::new());
        set_watermark(&in_memory, u32::MAX - 2);
        assert_eq!(
            in_memory.insert_batch(vec![t(1.0), t(2.0)]),
            Ok(vec![u32::MAX - 2, u32::MAX - 1])
        );
        assert_eq!(in_memory.insert(t(3.0)), Err(TrajError::IdSpaceExhausted));
        assert_eq!(in_memory.len(), 2);
    }

    #[test]
    fn a_durable_batch_is_one_fsync_however_large() {
        // Group commit as a count: under fsync-Always (the default) a
        // batch costs the log one fsync, a run of singles one each.
        use traj_persist::tempdir::TempDir;
        let t = |i: u32| Trajectory::from_xy(&[(i as f64, 0.0), (i as f64 + 1.0, 1.0)]);
        let dir = TempDir::new("session-fsync-pin");
        let session = Session::builder()
            .shards(2)
            .open(dir.path())
            .expect("fresh directory");
        let fsyncs = || {
            let writer = session.writer.lock().unwrap();
            writer.as_ref().expect("durable").fsyncs()
        };
        let before = fsyncs();
        let ids = session
            .insert_batch((0..64).map(t).collect())
            .expect("group commit");
        assert_eq!(fsyncs() - before, 1, "insert_batch of 64");
        for i in 64..128 {
            session.insert(t(i)).expect("single");
        }
        assert_eq!(fsyncs() - before, 1 + 64, "64 single inserts");
        session.remove_batch(&ids).expect("tombstone group");
        assert_eq!(fsyncs() - before, 1 + 64 + 1, "remove_batch of 64");
    }

    #[test]
    fn open_refuses_a_watermark_beyond_the_id_space() {
        use traj_persist::tempdir::TempDir;
        // A checksum-valid snapshot whose u64 watermark no u32 id space
        // can continue from: truncating it would reissue retired ids.
        let dir = TempDir::new("session-watermark-overflow");
        let watermark = u64::from(u32::MAX) + 1;
        traj_persist::write_snapshot(dir.path(), 0, &[Vec::new()], watermark).expect("write");
        assert_eq!(
            Session::builder().open(dir.path()).unwrap_err(),
            TrajError::IdSpaceExhausted
        );
        // The ceiling itself still opens — and is immediately full.
        let dir = TempDir::new("session-watermark-ceiling");
        traj_persist::write_snapshot(dir.path(), 0, &[Vec::new()], u64::from(u32::MAX))
            .expect("write");
        let session = Session::builder().open(dir.path()).expect("fits");
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0)]);
        assert_eq!(session.insert(t), Err(TrajError::IdSpaceExhausted));
    }

    #[test]
    fn session_clone_forks_copy_on_write() {
        let session = Session::builder().shards(2).build(two_cluster_store());
        let fork = session.clone();
        session
            .insert(Trajectory::from_xy(&[(9.0, 9.0), (11.0, 9.0)]))
            .expect("in-memory insert");
        assert_eq!(session.len(), 21);
        assert_eq!(fork.len(), 20, "fork must not see the original's insert");
        fork.insert(Trajectory::from_xy(&[(1.0, 2.0), (3.0, 2.0)]))
            .expect("in-memory insert");
        assert_eq!(fork.len(), 21);
        assert_eq!(session.len(), 21);
    }

    #[test]
    fn builder_stats_only_when_requested() {
        let mut session = Session::build(two_cluster_store());
        let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        assert!(session.query(&q).knn(3).stats.is_none());
        let with = session.query(&q).collect_stats().knn(3);
        let stats = with.stats.expect("requested");
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.db_size, 20);
        assert!(stats.edwp_evaluations >= 3);
    }

    #[test]
    fn sharded_query_reports_whole_database_stats() {
        // A sharded query's stats describe one search over the whole
        // database, not one shard's segment.
        let store = two_cluster_store();
        let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        for shards in [1usize, 2, 4] {
            let mut session = Session::builder().shards(shards).build(store.clone());
            let res = session.query(&q).collect_stats().knn(3);
            let stats = res.stats.expect("requested");
            assert_eq!(stats.db_size, 20, "db_size diverged at {shards} shards");
            assert_eq!(stats.queries, 1);
            assert!(stats.edwp_evaluations <= stats.db_size);
        }
    }

    #[test]
    fn small_batches_on_many_shards_match_the_singles() {
        // Fewer queries than workers and shards: each is still one whole
        // search over the database, answers and counters alike.
        let session = Session::builder().shards(4).build(two_cluster_store());
        let snap = session.snapshot();
        let queries = [
            Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]),
            Trajectory::from_xy(&[(480.0, 480.0), (520.0, 520.0)]),
            Trajectory::from_xy(&[(250.0, 250.0), (260.0, 255.0)]),
        ];
        for n in [1usize, 3] {
            let batch = session
                .batch(&queries[..n])
                .threads(4)
                .collect_stats()
                .knn(4);
            let mut want = QueryStats::default();
            for (q, got) in queries[..n].iter().zip(&batch.neighbors) {
                let single = snap.query(q).collect_stats().knn(4);
                assert_eq!(*got, single.neighbors, "{n} queries");
                want.merge(&single.stats.expect("requested"));
            }
            assert_eq!(batch.stats, Some(want), "{n} queries");
            assert_eq!((want.queries, want.db_size), (n, n * 20));
        }
    }

    #[test]
    fn brute_force_modifier_counts_every_candidate() {
        let mut session = Session::build(two_cluster_store());
        let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        let pruned = session.query(&q).collect_stats().knn(3);
        let brute = session.query(&q).brute_force().collect_stats().knn(3);
        assert_eq!(pruned.neighbors, brute.neighbors);
        assert_eq!(brute.stats.unwrap().edwp_evaluations, 20);
        assert!(pruned.stats.unwrap().edwp_evaluations < 20);
    }

    #[test]
    fn normalized_metric_ranks_by_edwp_avg() {
        let mut session = Session::build(two_cluster_store());
        let q = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        let norm = session.query(&q).metric(Metric::EdwpNormalized).knn(5);
        let mut scratch = EdwpScratch::new();
        let snap = session.snapshot();
        let mut want: Vec<Neighbor> = snap
            .iter()
            .map(|(id, t)| Neighbor {
                id,
                distance: Metric::EdwpNormalized.distance(QueryMode::Whole, &q, t, &mut scratch),
            })
            .collect();
        want.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        want.truncate(5);
        assert_eq!(norm.neighbors, want);
    }

    #[test]
    fn batch_builder_matches_single_queries() {
        let session = Session::build(two_cluster_store());
        let queries: Vec<Trajectory> = (0..5)
            .map(|i| {
                let x = i as f64 * 120.0;
                Trajectory::from_xy(&[(x, x), (x + 3.0, x + 1.0)])
            })
            .collect();
        let batch = session.batch(&queries).threads(3).collect_stats().knn(4);
        assert_eq!(batch.stats.unwrap().queries, 5);
        let snap = session.snapshot();
        for (q, got) in queries.iter().zip(&batch.neighbors) {
            let single = snap.query(q).knn(4);
            assert_eq!(*got, single.neighbors);
        }
        // Range finisher through the same surface.
        let balls = session.batch(&queries).threads(2).range(1e6);
        assert_eq!(balls.neighbors.len(), 5);
        assert!(balls.stats.is_none());
    }

    #[test]
    fn batch_threads_zero_clamps_to_one_worker() {
        // Satellite regression: `threads(0)` used to reach the scheduler
        // unclamped. The documented contract mirrors `shards(0)`: zero
        // means "single-threaded", results unchanged.
        let session = Session::builder().shards(2).build(two_cluster_store());
        let queries: Vec<Trajectory> = (0..3)
            .map(|i| {
                let x = i as f64 * 100.0;
                Trajectory::from_xy(&[(x, x), (x + 2.0, x + 1.0)])
            })
            .collect();
        let zero = session.batch(&queries).threads(0).collect_stats().knn(3);
        let one = session.batch(&queries).threads(1).collect_stats().knn(3);
        assert_eq!(zero, one);
        assert_eq!(zero.stats.unwrap().queries, 3);
    }

    #[test]
    fn batch_with_repeated_queries_answers_each_repetition_identically() {
        // A batch repeating one probe answers every repetition the same,
        // and the same as the single query.
        let session = Session::builder().shards(3).build(two_cluster_store());
        let probe = Trajectory::from_xy(&[(1.0, 0.5), (5.0, 1.5)]);
        let far = Trajectory::from_xy(&[(480.0, 480.0), (520.0, 520.0)]);
        let queries = vec![probe.clone(), far.clone(), probe.clone(), probe];
        for threads in [1usize, 2, 4] {
            let batch = session.batch(&queries).threads(threads).knn(4);
            assert_eq!(batch.neighbors[0], batch.neighbors[2]);
            assert_eq!(batch.neighbors[0], batch.neighbors[3]);
            let snap = session.snapshot();
            for (q, got) in queries.iter().zip(&batch.neighbors) {
                assert_eq!(*got, snap.query(q).knn(4).neighbors, "threads: {threads}");
            }
        }
    }

    #[test]
    fn batch_on_empty_query_slice() {
        let session = Session::build(two_cluster_store());
        let res = session.batch(&[]).collect_stats().knn(5);
        assert!(res.neighbors.is_empty());
        assert_eq!(res.stats.unwrap().queries, 0);
    }

    #[test]
    fn knn_zero_k_and_empty_session() {
        let mut empty = Session::build(TrajStore::new());
        let q = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0)]);
        assert!(empty.query(&q).knn(3).neighbors.is_empty());
        let mut session = Session::build(two_cluster_store());
        let res = session.query(&q).collect_stats().knn(0);
        assert!(res.neighbors.is_empty());
        assert_eq!(res.stats.unwrap().edwp_evaluations, 0);
    }
}
