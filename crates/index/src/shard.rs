//! The sharded storage/index layer: the [`Shard`] unit, the deterministic
//! id-hash router, and the immutable [`Snapshot`] epoch every query reads.
//!
//! # Sharding model
//!
//! A [`crate::Session`] partitions its database across `n` shards, each a
//! self-contained unit of immutable runs, tombstones and a delta buffer.
//! The router is pure arithmetic over the global id space:
//!
//! ```text
//! shard(g) = g mod n
//! ```
//!
//! Global ids are issued by a monotone watermark in insertion order and
//! are **never reused** — removing a trajectory retires its id forever.
//! With dense ids the router deals round-robin; once removals punch holes
//! in the id space the residue-class invariant still holds (shard `s`
//! owns exactly the live ids with `g mod n == s`, in ascending order), so
//! each run carries an explicit ascending `globals` table mapping its
//! dense slots back to global ids.
//!
//! # Runs, delta buffers and tombstones
//!
//! Each shard is an ordered list of **immutable runs** — each one `Arc`
//! holding a store segment, its global-id table and the STR-bulk-loaded
//! [`TrajTree`] indexing exactly that segment — and a small append-only
//! **delta buffer** of recently inserted `(id, trajectory)` pairs no tree
//! covers yet. Runs are oldest first, and every id of a run is below every
//! id of the next. Queries merge the traversal of every run's tree with
//! an exact brute scan of the delta, so results stay bitwise identical to
//! a shard one tree covers entirely.
//!
//! Once the delta reaches the session's merge threshold it is **folded**:
//! bulk-loaded into a new newest run. Then, while the second-newest run's
//! live count is at most twice the newest's, the two merge into one
//! bulk-loaded run (the logarithmic method of Bentley and Saxe). Member
//! counts therefore more than halve from each run to the next, so a shard
//! holds at most `⌊log2(members / threshold)⌋ + 1` runs, and each member
//! is re-bulk-loaded `O(log n)` times over its life. A build, an open and
//! a reshard bulk-load one run per shard.
//!
//! Removing a delta member deletes it from the delta. Removing a run
//! member is a **tombstone**: the run stays untouched (snapshots share
//! it), and the shard records the dead id in an `Arc`-shared set that leaf
//! refinement and brute scan consult, so a dead member never reaches a
//! collector. Node summaries still cover dead members; a superset bound
//! is still admissible, so only pruning tightness (never exactness)
//! suffers until a merge rebuilds the member's run without it (dropping
//! its tombstone too), the next compaction drops it from disk, or the
//! next [`crate::Session::reshard`] rebuilds every run.
//!
//! # Epochs
//!
//! Shards are immutable once published: the session's live state is one
//! [`Snapshot`] (the `Arc<Vec<Arc<Shard>>>` epoch plus the id watermark),
//! and taking a snapshot clones it. A write builds the next epoch's
//! shards under the session's writer lock alone and takes the epoch lock
//! only to publish them, so a snapshot taken before a write keeps reading
//! the pre-write epoch for as long as it lives, and acquiring a snapshot
//! never waits on a fold. A rebuilt shard shares every run the write left
//! untouched by `Arc`: cloning a shard bumps one `Arc` per run, one for
//! the tombstone set and one per delta trip (the trips themselves are
//! never copied), and a fold builds only its new run and the runs it
//! merges. See
//! [`crate::Session::insert_batch`] for the full consistency contract.
//!
//! # Queries over shards
//!
//! The query layer never walks shards or runs one at a time under
//! separate thresholds: a query seeds every run root of every shard into
//! one best-first *forest* queue (cross-shard pruning, one collector). The
//! whole epoch is pinned once (`Arc` clone of the shard vector) before the
//! traversal starts, so a concurrent write publishing a new epoch
//! mid-query is invisible: every run walked belongs to the same published
//! generation, and results stay bitwise identical to the sequential
//! single-shard answer.

use crate::store::{TrajId, TrajStore};
use crate::tree::{TrajTree, TrajTreeConfig};
use std::collections::BTreeSet;
use std::ops::RangeInclusive;
use std::sync::Arc;
use traj_core::{TrajError, Trajectory};

/// One shard: its immutable, `Arc`-shared [`Run`]s, the `Arc`-shared
/// tombstone set of dead run members, and the append-only delta buffer of
/// inserts no tree covers yet, each trip behind an `Arc` so that the next
/// epoch's copy of a shard copies pointers, never trips.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Oldest first; every id of a run is below every id of the next, no
    /// run is empty, and member counts more than halve from each run to
    /// the next.
    runs: Vec<Arc<Run>>,
    /// Tombstoned global ids. Invariant: every element is a member of one
    /// run (a removed delta member leaves the delta instead).
    dead: Arc<BTreeSet<TrajId>>,
    delta: Vec<(TrajId, Arc<Trajectory>)>,
}

/// One run of a shard: a [`TrajStore`] segment with dense local ids, the
/// global id of each slot, and the STR-bulk-loaded [`TrajTree`] indexing
/// exactly that segment. Never changed once built: a merge replaces two
/// runs with a new one.
#[derive(Debug)]
pub(crate) struct Run {
    store: TrajStore,
    /// Global id of each store slot, ascending (`globals[l]` is the id of
    /// `store.get(l)`).
    globals: Vec<TrajId>,
    tree: TrajTree,
}

impl Run {
    /// Bulk-loads a run over `(global id, trajectory)` pairs ascending by
    /// id.
    fn bulk(pairs: Vec<(TrajId, Trajectory)>, config: &TrajTreeConfig) -> Self {
        let (globals, trajs): (Vec<TrajId>, Vec<Trajectory>) = pairs.into_iter().unzip();
        debug_assert!(globals.is_sorted_by(|a, b| a < b), "run ids must ascend");
        let store = TrajStore::from(trajs);
        let tree = TrajTree::bulk_load(&store, config.clone());
        Run {
            store,
            globals,
            tree,
        }
    }

    /// The tree over this run's segment.
    #[inline]
    pub(crate) fn tree(&self) -> &TrajTree {
        &self.tree
    }

    /// The global id of local id `local`.
    #[inline]
    pub(crate) fn global(&self, local: TrajId) -> TrajId {
        self.globals[local as usize]
    }

    /// The trajectory at local id `local`.
    #[inline]
    pub(crate) fn traj(&self, local: TrajId) -> &Trajectory {
        self.store.get(local)
    }

    /// Every member, dead or alive, ascending by global id.
    fn pairs(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        self.globals.iter().copied().zip(self.store.as_slice())
    }

    /// The id span of the run — disjoint from every other run's in its
    /// shard, so it also bounds the run's tombstones.
    fn ids(&self) -> RangeInclusive<TrajId> {
        self.globals[0]..=self.globals[self.globals.len() - 1]
    }
}

impl Shard {
    /// A shard of at most one run, with an empty delta and tombstone set.
    fn over(run: Option<Run>) -> Self {
        Shard {
            runs: run.into_iter().map(Arc::new).collect(),
            dead: Arc::new(BTreeSet::new()),
            delta: Vec::new(),
        }
    }

    /// Bulk-loads a shard of one run over its `(global id, trajectory)`
    /// pairs, which must be ascending by id (no run when there are none);
    /// the delta and tombstone set start empty.
    pub(crate) fn bulk(pairs: Vec<(TrajId, Trajectory)>, config: &TrajTreeConfig) -> Self {
        Shard::over((!pairs.is_empty()).then(|| Run::bulk(pairs, config)))
    }

    /// Wraps an existing store + tree as a one-run shard with dense global
    /// ids `0..store.len()`. `tree` must index exactly the trajectories of
    /// `store`.
    pub(crate) fn from_parts(store: TrajStore, tree: TrajTree) -> Self {
        Shard::over((!store.is_empty()).then(|| Run {
            globals: (0..store.len() as TrajId).collect(),
            store,
            tree,
        }))
    }

    /// Appends `sub`, whose ids must ascend and exceed every id already in
    /// the shard (ids are issued by the session's monotone watermark), to
    /// the delta buffer; once the delta holds `threshold` members it is
    /// folded ([`Shard::fold`]).
    pub(crate) fn insert(
        &mut self,
        sub: Vec<(TrajId, Trajectory)>,
        threshold: usize,
        config: &TrajTreeConfig,
    ) {
        for (gid, t) in sub {
            debug_assert!(
                self.delta.last().map(|e| e.0).is_none_or(|p| p < gid)
                    && self.runs.last().is_none_or(|r| *r.ids().end() < gid),
                "ids are issued monotonically"
            );
            self.delta.push((gid, Arc::new(t)));
        }
        if self.delta.len() >= threshold.max(1) {
            self.fold(config);
        }
    }

    /// Removes the live member with global id `gid`: a delta member
    /// leaves the delta, a run member is tombstoned. Returns `false`
    /// (and changes nothing) when `gid` is not a live member of this
    /// shard — already removed, never inserted here, or routed elsewhere.
    pub(crate) fn remove(&mut self, gid: TrajId) -> bool {
        if let Ok(i) = self.delta.binary_search_by_key(&gid, |e| e.0) {
            self.delta.remove(i);
            return true;
        }
        if self.is_dead(gid) || self.locate(gid).is_none() {
            return false;
        }
        Arc::make_mut(&mut self.dead).insert(gid);
        true
    }

    /// Folds the delta into a new newest run, bulk-loaded, then merges the
    /// two newest runs while the older one's live count is at most twice
    /// the newer one's. Runs a fold leaves alone stay shared with every
    /// snapshot that holds them; an empty delta folds to nothing.
    pub(crate) fn fold(&mut self, config: &TrajTreeConfig) {
        if self.delta.is_empty() {
            return;
        }
        let delta = std::mem::take(&mut self.delta)
            .into_iter()
            .map(|(gid, t)| (gid, Arc::unwrap_or_clone(t)))
            .collect();
        self.runs.push(Arc::new(Run::bulk(delta, config)));
        while let [.., older, newer] = self.runs.as_slice() {
            if self.live(older) > 2 * self.live(newer) {
                break;
            }
            self.merge_newest(config);
        }
    }

    /// Replaces the two newest runs with one bulk-loaded run over their
    /// live members, and drops their tombstones — the one place a
    /// tombstoned member leaves memory short of a reshard. Two runs whose
    /// members are all dead merge into none.
    fn merge_newest(&mut self, config: &TrajTreeConfig) {
        let newer = self.runs.pop().expect("two runs to merge");
        let older = self.runs.pop().expect("two runs to merge");
        let pairs: Vec<(TrajId, Trajectory)> = older
            .pairs()
            .chain(newer.pairs())
            .filter(|&(gid, _)| !self.is_dead(gid))
            .map(|(gid, t)| (gid, t.clone()))
            .collect();
        let ids = *older.ids().start()..=*newer.ids().end();
        if self.dead.range(ids.clone()).next().is_some() {
            Arc::make_mut(&mut self.dead).retain(|gid| !ids.contains(gid));
        }
        if !pairs.is_empty() {
            self.runs.push(Arc::new(Run::bulk(pairs, config)));
        }
    }

    /// Live members of `run`, one of this shard's runs.
    fn live(&self, run: &Run) -> usize {
        run.globals.len() - self.dead.range(run.ids()).count()
    }

    /// The run index and local id of run member `gid`, dead or alive.
    fn locate(&self, gid: TrajId) -> Option<(usize, TrajId)> {
        let r = self.runs.partition_point(|run| *run.ids().end() < gid);
        let local = self.runs.get(r)?.globals.binary_search(&gid).ok()?;
        Some((r, local as TrajId))
    }

    /// The runs, oldest first.
    #[inline]
    pub(crate) fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// The delta buffer: `(id, trajectory)` pairs in insertion (=
    /// ascending id) order. Every entry is live.
    #[inline]
    pub(crate) fn delta(&self) -> &[(TrajId, Arc<Trajectory>)] {
        &self.delta
    }

    /// Whether run member `gid` is tombstoned — the one check that keeps a
    /// dead member from ever reaching a collector. Node summaries still
    /// cover dead members (a superset bound is admissible), so the
    /// traversal asks only at leaf refinement.
    #[inline]
    pub(crate) fn is_dead(&self, gid: TrajId) -> bool {
        !self.dead.is_empty() && self.dead.contains(&gid)
    }

    /// The **live** trajectory with global id `gid`, or `None` when the
    /// id is not a live member of this shard.
    pub(crate) fn get_global(&self, gid: TrajId) -> Option<&Trajectory> {
        if self.is_dead(gid) {
            return None;
        }
        if let Some((r, local)) = self.locate(gid) {
            return Some(self.runs[r].traj(local));
        }
        let i = self.delta.binary_search_by_key(&gid, |e| e.0).ok()?;
        Some(&self.delta[i].1)
    }

    /// All live `(global id, trajectory)` pairs of this shard, ascending
    /// by id — the runs' survivors in run order, then the delta (whose
    /// ids exceed every run's).
    pub(crate) fn live_pairs(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        let runs = self
            .runs
            .iter()
            .flat_map(|r| r.pairs())
            .filter(|&(gid, _)| !self.is_dead(gid));
        let delta = self.delta.iter().map(|(gid, t)| (*gid, &**t));
        runs.chain(delta)
    }

    /// Number of **live** trajectories in this shard (members minus
    /// tombstones).
    pub(crate) fn len(&self) -> usize {
        self.indexed_len() + self.delta.len()
    }

    /// Live trajectories the runs' trees cover.
    pub(crate) fn indexed_len(&self) -> usize {
        self.runs.iter().map(|r| r.globals.len()).sum::<usize>() - self.dead.len()
    }
}

/// The id-hash router: which shard a global id lives in.
#[inline]
pub(crate) fn shard_of(id: TrajId, shards: usize) -> usize {
    id as usize % shards
}

/// Occupancy of one shard at one epoch: how many **live** trajectories
/// its runs' trees cover and how many sit in the delta buffer awaiting a
/// fold — the introspection [`Snapshot::shard_sizes`] reports per shard,
/// in shard order, so rebalancing and capacity decisions have data to act
/// on. Tombstoned run members are excluded (one still occupies memory
/// until a merge or reshard rebuilds its run, but it can never answer a
/// query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Live trajectories in the shard's immutable runs (covered by their
    /// trees).
    pub indexed: usize,
    /// Live trajectories in the shard's delta buffer (queried by exact
    /// brute scan until the next fold bulk-loads them into a run).
    pub delta: usize,
}

impl ShardOccupancy {
    /// Total live trajectories in the shard (runs + delta).
    pub fn total(&self) -> usize {
        self.indexed + self.delta
    }
}

/// An immutable epoch of a [`crate::Session`]'s sharded database: every
/// query traverses exactly the shards captured here, so results
/// are stable no matter how many inserts or removals land concurrently.
///
/// Snapshots are cheap (a handful of `Arc` clones, no data copied) and
/// `Send` + `Sync`: clone one per reader thread, or share one behind a
/// reference. Queries run through [`Snapshot::query`] /
/// [`Snapshot::batch`] — same builders, same bitwise results as the
/// owning session at the epoch the snapshot was taken.
///
/// ```
/// use traj_core::Trajectory;
/// use traj_index::{Session, TrajStore};
///
/// let mut store = TrajStore::new();
/// store.insert(Trajectory::from_xy(&[(0.0, 0.0), (5.0, 0.0)]));
/// let session = Session::builder().shards(2).build(store);
/// let epoch = session.snapshot();
/// session.insert(Trajectory::from_xy(&[(0.0, 1.0), (5.0, 1.0)])).unwrap();
/// assert_eq!(epoch.len(), 1); // the snapshot still reads the old epoch
/// assert_eq!(session.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) shards: Arc<Vec<Arc<Shard>>>,
    /// The id watermark: the id the next insert is issued, above every id
    /// in `shards` — ids are never reused, so once a trajectory is removed
    /// its id is retired forever. Published with `shards`, so every
    /// snapshot is a consistent cut of the two.
    pub(crate) next_id: TrajId,
}

impl Snapshot {
    /// Total number of **live** trajectories across all shards of this
    /// epoch (tombstoned members are not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// `true` when the epoch holds no live trajectories.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.len() == 0)
    }

    /// Number of shards in this epoch (never 0). Fixed per epoch;
    /// [`crate::Session::reshard`] publishes a new epoch with a new
    /// count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard **live** occupancy in shard order: how many live
    /// trajectories each shard's runs cover and how many sit in its
    /// delta buffer. The totals sum to [`Snapshot::len`]; with id-hash
    /// routing over watermark-issued ids the totals stay balanced to
    /// within the removal skew, so a large spread is a rebalancing
    /// signal for [`crate::Session::reshard`].
    pub fn shard_sizes(&self) -> Vec<ShardOccupancy> {
        self.shards
            .iter()
            .map(|s| ShardOccupancy {
                indexed: s.indexed_len(),
                delta: s.delta().len(),
            })
            .collect()
    }

    /// The live trajectory with the given global id — the panicking
    /// convenience for ids known valid in this epoch (e.g. ids straight
    /// out of one of its query results). See [`Snapshot::try_get`] for
    /// the fallible variant.
    ///
    /// # Panics
    /// Panics when `id` is not live in this epoch (never inserted, or
    /// removed before the epoch was taken).
    #[inline]
    pub fn get(&self, id: TrajId) -> &Trajectory {
        self.try_get(id)
            .unwrap_or_else(|_| panic!("trajectory id {id} is not live in this epoch"))
    }

    /// The live trajectory with the given global id, or
    /// [`TrajError::UnknownId`] for ids this epoch does not contain
    /// (including ids tombstoned before the epoch was taken — removal
    /// retires an id forever).
    pub fn try_get(&self, id: TrajId) -> Result<&Trajectory, TrajError> {
        let n = self.shards.len();
        self.shards[shard_of(id, n)]
            .get_global(id)
            .ok_or_else(|| TrajError::UnknownId {
                id,
                len: self.len(),
            })
    }

    /// All live `(global id, trajectory)` pairs in ascending global-id
    /// order — i.e. insertion order, independent of the shard count,
    /// with removed trajectories absent.
    pub fn iter(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        let mut pairs: Vec<(TrajId, &Trajectory)> =
            self.shards.iter().flat_map(|s| s.live_pairs()).collect();
        pairs.sort_unstable_by_key(|&(gid, _)| gid);
        pairs.into_iter()
    }

    /// Height of the tallest run tree across all shards (0 when empty).
    pub fn tree_height(&self) -> usize {
        self.trees().map(TrajTree::height).max().unwrap_or(0)
    }

    /// Total node count across every run tree of every shard.
    pub fn node_count(&self) -> usize {
        self.trees().map(TrajTree::node_count).sum()
    }

    /// Every run tree of every shard.
    fn trees(&self) -> impl Iterator<Item = &TrajTree> {
        self.shards.iter().flat_map(|s| s.runs()).map(|r| r.tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> Trajectory {
        Trajectory::from_xy(&[(x, 0.0), (x + 1.0, 1.0)])
    }

    fn dense(ids: impl IntoIterator<Item = TrajId>) -> Vec<(TrajId, Trajectory)> {
        ids.into_iter().map(|g| (g, t(g as f64))).collect()
    }

    fn bulk(ids: impl IntoIterator<Item = TrajId>) -> Shard {
        Shard::bulk(dense(ids), &TrajTreeConfig::default())
    }

    /// Inserts `ids` as one batch at `threshold`.
    fn insert(shard: &mut Shard, ids: impl IntoIterator<Item = TrajId>, threshold: usize) {
        shard.insert(dense(ids), threshold, &TrajTreeConfig::default());
    }

    /// Each run's global ids, oldest run first.
    fn run_ids(shard: &Shard) -> Vec<Vec<TrajId>> {
        shard.runs.iter().map(|r| r.globals.clone()).collect()
    }

    #[test]
    fn router_deals_by_residue_class() {
        for shards in [1usize, 2, 3, 4, 7] {
            for g in 0u32..50 {
                assert_eq!(shard_of(g, shards), g as usize % shards);
            }
        }
    }

    #[test]
    fn snapshot_routes_global_ids() {
        let shards: Vec<Arc<Shard>> = (0..3)
            .map(|s| Arc::new(bulk((0..7u32).filter(|g| *g as usize % 3 == s))))
            .collect();
        let snap = Snapshot {
            shards: Arc::new(shards),
            next_id: 7,
        };
        assert_eq!(snap.len(), 7);
        assert_eq!(snap.num_shards(), 3);
        for (g, tr) in snap.iter() {
            assert_eq!(tr.first().p.x, g as f64, "global id {g} routed wrongly");
        }
        assert_eq!(snap.try_get(3).unwrap(), snap.get(3));
        assert_eq!(
            snap.try_get(7).unwrap_err(),
            TrajError::UnknownId { id: 7, len: 7 }
        );
        assert!(snap.tree_height() >= 1);
        assert!(snap.node_count() >= 3);
    }

    #[test]
    fn delta_inserts_route_and_merge_at_the_threshold() {
        let mut shard = bulk(0..4);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (4, 0));
        // Below the threshold: inserts buffer in the delta, lookups cover
        // both sides of the split.
        insert(&mut shard, 4..7, 8);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (4, 3));
        assert_eq!(shard.len(), 7);
        for i in 0..7u32 {
            assert_eq!(shard.get_global(i).unwrap().first().p.x, i as f64);
        }
        assert!(shard.get_global(7).is_none());
        // The 8th member crosses the threshold: the delta folds into a
        // run of 4, which merges with the bulk-built run of 4 (4 <= 2·4),
        // so one tree covers everything again.
        insert(&mut shard, [7], 4);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (8, 0));
        assert_eq!(run_ids(&shard), vec![(0..8).collect::<Vec<_>>()]);
        assert_eq!(shard.runs[0].tree().len(), 8);
    }

    #[test]
    fn tombstones_hide_members_and_fold_out_of_the_delta() {
        let mut shard = bulk([0, 2, 4]);
        insert(&mut shard, [6, 8], 100);
        assert_eq!(shard.len(), 5);
        // Kill one run member and one delta member.
        assert!(shard.remove(2), "run member");
        assert!(shard.remove(6), "delta member");
        assert!(!shard.remove(2), "already dead");
        assert!(!shard.remove(6), "already removed from the delta");
        assert!(!shard.remove(3), "never a member");
        assert_eq!(shard.len(), 3);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (2, 1));
        assert!(shard.get_global(2).is_none(), "dead ids stop resolving");
        assert!(shard.get_global(6).is_none());
        assert_eq!(
            shard.live_pairs().map(|(g, _)| g).collect::<Vec<_>>(),
            vec![0, 4, 8]
        );
        // Folding makes a run of the delta survivor; the bulk-built run
        // (2 live <= 2·1) merges with it and leaves its dead member and
        // that member's tombstone behind.
        shard.fold(&TrajTreeConfig::default());
        assert_eq!(run_ids(&shard), vec![vec![0, 4, 8]]);
        assert!(shard.dead.is_empty());
        assert_eq!(shard.len(), 3);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (3, 0));
    }

    #[test]
    fn holey_ids_keep_resolving_after_a_fold() {
        // Ids with gaps (as removal + fresh inserts produce): the globals
        // tables, not arithmetic, map slots to ids.
        let mut shard = bulk([1, 5, 9]);
        insert(&mut shard, [13], 1); // threshold 1: folds immediately
        assert_eq!(run_ids(&shard), vec![vec![1, 5, 9], vec![13]]);
        for g in [1u32, 5, 9, 13] {
            assert_eq!(shard.get_global(g).unwrap().first().p.x, g as f64);
        }
        assert!(shard.get_global(3).is_none());
        assert!(shard.get_global(11).is_none());
    }

    #[test]
    fn snapshot_len_and_sizes_report_live_counts() {
        let mut a = bulk([0, 2]);
        let mut b = bulk([1, 3]);
        insert(&mut a, [4], 100);
        insert(&mut b, [5], 100);
        a.remove(2);
        b.remove(5);
        let snap = Snapshot {
            shards: Arc::new(vec![Arc::new(a), Arc::new(b)]),
            next_id: 6,
        };
        assert_eq!(snap.len(), 4, "two of six members are dead");
        let sizes = snap.shard_sizes();
        assert_eq!(
            sizes[0],
            ShardOccupancy {
                indexed: 1,
                delta: 1
            }
        );
        assert_eq!(
            sizes[1],
            ShardOccupancy {
                indexed: 2,
                delta: 0
            }
        );
        assert_eq!(sizes.iter().map(|o| o.total()).sum::<usize>(), snap.len());
        assert!(snap.try_get(2).is_err(), "dead id");
        assert!(snap.try_get(5).is_err(), "dead delta id");
        assert_eq!(
            snap.iter().map(|(g, _)| g).collect::<Vec<_>>(),
            vec![0, 1, 3, 4]
        );
    }

    #[test]
    fn shard_clone_shares_the_base_and_copies_only_the_delta() {
        let mut shard = bulk(0..16);
        insert(&mut shard, [16], 1000);
        shard.remove(3);
        let clone = shard.clone();
        assert!(Arc::ptr_eq(&shard.runs[0], &clone.runs[0]), "run shared");
        assert!(Arc::ptr_eq(&shard.dead, &clone.dead), "tombstones shared");
        assert_eq!(clone.delta().len(), 1);
        // A fold on the original adds a run of its own and leaves the
        // shared run alone (15 live > 2·1, so nothing merges); the clone
        // keeps its epoch untouched.
        shard.fold(&TrajTreeConfig::default());
        assert!(Arc::ptr_eq(&shard.runs[0], &clone.runs[0]), "run copied");
        assert_eq!(shard.indexed_len(), 16);
        assert_eq!(clone.indexed_len(), 15);
        assert_eq!(clone.delta().len(), 1);
        assert_eq!(clone.get_global(16).unwrap().first().p.x, 16.0);
        // A removal on the clone copies only the tombstone set.
        let mut clone2 = clone.clone();
        clone2.remove(0);
        assert!(clone.get_global(0).is_some());
        assert!(clone2.get_global(0).is_none());
    }

    #[test]
    fn folding_an_all_dead_delta_leaves_the_shared_base_alone() {
        let mut shard = bulk(0..16);
        insert(&mut shard, [16, 17], 1000);
        let held = shard.clone(); // a snapshot shares the runs
        assert!(shard.remove(16) && shard.remove(17));
        shard.fold(&TrajTreeConfig::default());
        assert_eq!(shard.runs.len(), 1, "an empty delta folds to no run");
        assert!(Arc::ptr_eq(&shard.runs[0], &held.runs[0]), "run copied");
        // The removed entries are gone, and no tombstone stands for them.
        assert_eq!((shard.indexed_len(), shard.delta().len()), (16, 0));
        assert!(shard.delta().is_empty() && shard.dead.is_empty());
        assert_eq!(held.delta().len(), 2, "the held epoch is untouched");
    }

    #[test]
    fn removing_a_delta_member_drops_it_at_once_and_spares_held_clones() {
        let mut shard = bulk([0, 2]);
        insert(&mut shard, [4, 6, 8], 1000);
        let held = shard.clone();
        assert!(shard.remove(6));
        assert_eq!(shard.delta().len(), 2, "the delta shrinks at once");
        assert!(shard.dead.is_empty(), "no tombstone for a delta member");
        assert!(shard.get_global(6).is_none());
        // Delta offsets past the removed slot shift down and still resolve.
        let (gid, t) = &shard.delta()[1];
        assert_eq!((*gid, t.first().p.x), (8, 8.0));
        // The clone taken before the removal still holds the member.
        assert_eq!(held.get_global(6).unwrap().first().p.x, 6.0);
    }

    #[test]
    fn runs_more_than_halve_and_stay_logarithmic_at_threshold_one() {
        let mut shard = bulk([]);
        for n in 1..=200u32 {
            insert(&mut shard, [n - 1], 1);
            let sizes: Vec<usize> = shard.runs.iter().map(|r| shard.live(r)).collect();
            assert!(
                sizes.windows(2).all(|w| w[0] > 2 * w[1]),
                "after {n} inserts the run sizes {sizes:?} do not more than halve"
            );
            assert!(
                shard.runs.len() <= n.ilog2() as usize + 1,
                "after {n} inserts: {} runs",
                shard.runs.len()
            );
            assert_eq!(sizes.iter().sum::<usize>(), n as usize);
            let ids: Vec<TrajId> = shard.live_pairs().map(|(g, _)| g).collect();
            assert_eq!(ids, (0..n).collect::<Vec<_>>(), "ids ascend across runs");
        }
    }

    #[test]
    fn a_merge_drops_its_runs_tombstones_and_keeps_the_others() {
        let mut shard = bulk(0..20);
        insert(&mut shard, 20..24, 4); // 20 live > 2·4: a second run
        assert_eq!(shard.runs.len(), 2);
        assert!(shard.remove(5) && shard.remove(21));
        // A run of 2 merges with the run of 3 live (3 <= 2·2), whose
        // tombstone goes with it; the oldest run (19 > 2·5) keeps its own.
        insert(&mut shard, [24, 25], 2);
        let want: Vec<Vec<TrajId>> = vec![(0..20).collect(), vec![20, 22, 23, 24, 25]];
        assert_eq!(run_ids(&shard), want);
        assert_eq!(shard.dead.iter().copied().collect::<Vec<_>>(), vec![5]);
        assert!(shard.get_global(5).is_none() && shard.get_global(21).is_none());
        assert!(!shard.remove(21), "a merged-out member stays removed");
        assert_eq!((shard.len(), shard.indexed_len()), (24, 24));
    }

    #[test]
    fn a_held_clone_keeps_its_own_runs_across_a_fold_and_a_merge() {
        let mut shard = bulk(0..40);
        insert(&mut shard, 40..44, 4);
        shard.remove(2);
        let held = shard.clone();
        // A fold whose run merges with the newest (4 <= 2·4), not with
        // the oldest (39 > 2·8); then a removal on the live side.
        insert(&mut shard, 44..48, 4);
        shard.remove(3);
        assert_eq!(run_ids(&shard)[1], (40..48).collect::<Vec<_>>());
        assert!(Arc::ptr_eq(&shard.runs[0], &held.runs[0]), "untouched run");
        assert!(!Arc::ptr_eq(&shard.runs[1], &held.runs[1]), "merged run");
        // The held clone answers from its own runs and tombstones.
        let want: Vec<Vec<TrajId>> = vec![(0..40).collect(), (40..44).collect()];
        assert_eq!(run_ids(&held), want);
        let want: Vec<TrajId> = (0..44).filter(|&g| g != 2).collect();
        let got: Vec<TrajId> = held.live_pairs().map(|(g, _)| g).collect();
        assert_eq!(got, want);
        assert!(held.get_global(2).is_none());
        assert_eq!(held.get_global(3).unwrap().first().p.x, 3.0);
        assert!(held.get_global(44).is_none());
        let (run, live) = (&held.runs()[1], &shard.runs()[1]);
        assert_eq!((run.global(3), run.traj(3).first().p.x), (43, 43.0));
        assert_eq!((live.global(7), live.traj(7).first().p.x), (47, 47.0));
        assert!(shard.get_global(3).is_none());
    }
}
