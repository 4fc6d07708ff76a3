//! The sharded storage/index layer: the [`Shard`] unit, the deterministic
//! id-hash router, and the immutable [`Snapshot`] epoch every query reads.
//!
//! # Sharding model
//!
//! A [`crate::Session`] partitions its database across `n` shards, each a
//! self-contained `(TrajStore segment, TrajTree, id bookkeeping)` unit.
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
//! each shard's base carries an explicit ascending `globals` table mapping
//! its dense base slots back to global ids.
//!
//! # Delta buffers and tombstones
//!
//! Each shard is an **immutable base** — one `Arc` holding a store
//! segment, its global-id table and the [`TrajTree`] indexing exactly that
//! segment — and a small append-only **delta buffer** of recently
//! inserted `(id, trajectory)` pairs the tree does not cover yet. Local
//! ids keep counting straight through: slot `l < base.len()` lives in the
//! base store, slot `l >= base.len()` in the delta at offset
//! `l - base.len()`. Queries merge the tree traversal with an exact brute
//! scan of the delta, so results stay bitwise identical to a shard whose
//! tree covers everything. Once the delta reaches the session's merge
//! threshold it is folded into the base via the tree's
//! least-volume-growth insert.
//!
//! Removing a delta member deletes it from the delta, which
//! copy-on-write has already made the shard's own. Removing a base member
//! is a **tombstone**: the base stays untouched (snapshots share it), and
//! the shard records the dead id in an `Arc`-shared set that leaf
//! refinement and brute scan consult, so a dead member never reaches a
//! collector. Node summaries still cover dead members; a superset bound
//! is still admissible, so only pruning tightness (never exactness)
//! suffers until the member leaves the disk at the next compaction and
//! memory at the next [`crate::Session::reshard`].
//!
//! # Epochs
//!
//! Shards are immutable once published: the session's live state is one
//! [`Snapshot`] (the `Arc<Vec<Arc<Shard>>>` epoch plus the id watermark),
//! and taking a snapshot clones it. Writes build the next epoch
//! copy-on-write ([`std::sync::Arc::make_mut`]) and publish it under the
//! session's epoch lock, so a snapshot taken before a write keeps reading
//! the pre-write epoch for as long as it lives. The delta split is what
//! makes that cheap under reader pressure: cloning a shard bumps two
//! `Arc`s (base and tombstone set) and deep-copies only the (small,
//! bounded) delta — only a delta merge pays a base copy, once per
//! threshold crossing. See [`crate::Session::insert_batch`] for the full
//! consistency contract.
//!
//! # Queries over shards
//!
//! The query layer never walks shards one at a time under separate
//! thresholds: a query seeds every shard root into one best-first
//! *forest* queue (cross-shard pruning, one collector). The whole epoch
//! is pinned once (`Arc` clone of the shard vector) before the traversal
//! starts, so a concurrent write publishing a new epoch mid-query is
//! invisible: every shard walked belongs to the same published
//! generation, and results stay bitwise identical to the sequential
//! single-shard answer.

use crate::store::{TrajId, TrajStore};
use crate::tree::{TrajTree, TrajTreeConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use traj_core::{TrajError, Trajectory};

/// One shard: an immutable, `Arc`-shared [`Base`], the `Arc`-shared
/// tombstone set of dead base members, and the append-only delta buffer
/// of inserts the tree does not cover yet.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    base: Arc<Base>,
    /// Tombstoned global ids. Invariant: every element is a member of
    /// `base` (a removed delta member leaves the delta instead).
    dead: Arc<BTreeSet<TrajId>>,
    delta: Vec<(TrajId, Trajectory)>,
}

/// The part of a shard the tree covers: a [`TrajStore`] segment with dense
/// local ids, the global id of each slot, and the [`TrajTree`] indexing
/// exactly that segment. The three always change together, at a fold.
#[derive(Debug, Clone)]
struct Base {
    store: TrajStore,
    /// Global id of each store slot, ascending (`globals[l]` is the id of
    /// `store.get(l)`). Dense sessions start with slot `l` holding
    /// `l·n + s`; removals and reshards make the gaps explicit.
    globals: Vec<TrajId>,
    tree: TrajTree,
}

impl Shard {
    /// Wraps a base as a shard with an empty delta and tombstone set.
    fn over(store: TrajStore, globals: Vec<TrajId>, tree: TrajTree) -> Self {
        Shard {
            base: Arc::new(Base {
                store,
                globals,
                tree,
            }),
            dead: Arc::new(BTreeSet::new()),
            delta: Vec::new(),
        }
    }

    /// Bulk-loads a shard over its `(global id, trajectory)` pairs, which
    /// must be ascending by id; the delta and tombstone set start empty.
    pub(crate) fn bulk(pairs: Vec<(TrajId, Trajectory)>, config: TrajTreeConfig) -> Self {
        let (globals, trajs): (Vec<TrajId>, Vec<Trajectory>) = pairs.into_iter().unzip();
        debug_assert!(
            globals.is_sorted_by(|a, b| a < b),
            "shard base ids must ascend"
        );
        let store = TrajStore::from(trajs);
        let tree = TrajTree::bulk_load(&store, config);
        Shard::over(store, globals, tree)
    }

    /// Wraps an existing store + tree as a shard with dense global ids
    /// `0..store.len()`. `tree` must index exactly the trajectories of
    /// `store`.
    pub(crate) fn from_parts(store: TrajStore, tree: TrajTree) -> Self {
        let globals: Vec<TrajId> = (0..store.len() as TrajId).collect();
        Shard::over(store, globals, tree)
    }

    /// Appends the trajectory with global id `gid` (which must exceed
    /// every id already in the shard — ids are issued by the session's
    /// monotone watermark). The trajectory lands in the delta buffer;
    /// once the delta holds `threshold` members it is folded into the
    /// base store + tree ([`Shard::merge_delta`]).
    pub(crate) fn insert(&mut self, gid: TrajId, t: Trajectory, threshold: usize) {
        debug_assert!(
            self.delta.last().map(|e| e.0).is_none_or(|p| p < gid)
                && self.base.globals.last().is_none_or(|&p| p < gid),
            "ids are issued monotonically"
        );
        self.delta.push((gid, t));
        if self.delta.len() >= threshold.max(1) {
            self.merge_delta();
        }
    }

    /// Removes the live member with global id `gid`: a delta member
    /// leaves the delta, a base member is tombstoned. Returns `false`
    /// (and changes nothing) when `gid` is not a live member of this
    /// shard — already removed, never inserted here, or routed elsewhere.
    pub(crate) fn remove(&mut self, gid: TrajId) -> bool {
        if let Ok(i) = self.delta.binary_search_by_key(&gid, |e| e.0) {
            self.delta.remove(i);
            return true;
        }
        if self.dead.contains(&gid) || self.base.globals.binary_search(&gid).is_err() {
            return false;
        }
        Arc::make_mut(&mut self.dead).insert(gid);
        true
    }

    /// Folds the delta into the base: every member is appended to the
    /// store + globals table and inserted into the tree via the
    /// least-volume-growth descent. Copy-on-write at the base level: in
    /// place when no snapshot shares the base `Arc`, one base copy
    /// otherwise — the amortised cost the delta buffer bounds to once per
    /// threshold crossing, and never paid for an empty delta.
    pub(crate) fn merge_delta(&mut self) {
        if self.delta.is_empty() {
            return;
        }
        let Base {
            store,
            globals,
            tree,
        } = Arc::make_mut(&mut self.base);
        for (gid, t) in self.delta.drain(..) {
            let local = store.insert(t);
            globals.push(gid);
            tree.insert(store, local);
        }
    }

    /// The tree over the immutable base (never covers the delta).
    #[inline]
    pub(crate) fn tree(&self) -> &TrajTree {
        &self.base.tree
    }

    /// The immutable base segment the tree indexes.
    #[inline]
    pub(crate) fn base(&self) -> &TrajStore {
        &self.base.store
    }

    /// The delta buffer: `(id, trajectory)` pairs at local ids
    /// `base().len() .. `, in insertion (= ascending id) order. Every
    /// entry is live.
    #[inline]
    pub(crate) fn delta(&self) -> &[(TrajId, Trajectory)] {
        &self.delta
    }

    /// The global id of local id `local`: base slots `0..base().len()`
    /// first, then the delta in buffer order.
    #[inline]
    pub(crate) fn global(&self, local: TrajId) -> TrajId {
        let base = self.base.store.len() as TrajId;
        if local < base {
            self.base.globals[local as usize]
        } else {
            self.delta[(local - base) as usize].0
        }
    }

    /// Whether the base member at local id `local` is tombstoned — the one
    /// check that keeps a dead member from ever reaching a collector. Node
    /// summaries still cover dead members (a superset bound is admissible),
    /// so the traversal asks only at leaf refinement.
    #[inline]
    pub(crate) fn is_dead(&self, local: TrajId) -> bool {
        !self.dead.is_empty() && self.dead.contains(&self.base.globals[local as usize])
    }

    /// The trajectory at local id `local`, whichever side of the
    /// base/delta split it lives on.
    #[inline]
    pub(crate) fn traj(&self, local: TrajId) -> &Trajectory {
        let base = self.base.store.len() as TrajId;
        if local < base {
            self.base.store.get(local)
        } else {
            &self.delta[(local - base) as usize].1
        }
    }

    /// The **live** trajectory with global id `gid`, or `None` when the
    /// id is not a live member of this shard.
    pub(crate) fn get_global(&self, gid: TrajId) -> Option<&Trajectory> {
        if self.dead.contains(&gid) {
            return None;
        }
        if let Ok(slot) = self.base.globals.binary_search(&gid) {
            return Some(self.base.store.get(slot as TrajId));
        }
        self.delta.iter().find(|&&(g, _)| g == gid).map(|(_, t)| t)
    }

    /// All live `(global id, trajectory)` pairs of this shard, ascending
    /// by id — the base survivors followed by the delta (delta ids always
    /// exceed base ids).
    pub(crate) fn live_pairs(&self) -> impl Iterator<Item = (TrajId, &Trajectory)> {
        let base = self
            .base
            .globals
            .iter()
            .zip(self.base.store.as_slice())
            .filter(|(gid, _)| !self.dead.contains(gid))
            .map(|(&gid, t)| (gid, t));
        let delta = self.delta.iter().map(|&(gid, ref t)| (gid, t));
        base.chain(delta)
    }

    /// Number of **live** trajectories in this shard (members minus
    /// tombstones).
    pub(crate) fn len(&self) -> usize {
        self.indexed_len() + self.delta.len()
    }

    /// Live trajectories the tree covers (base survivors).
    pub(crate) fn indexed_len(&self) -> usize {
        self.base.store.len() - self.dead.len()
    }
}

/// The id-hash router: which shard a global id lives in.
#[inline]
pub(crate) fn shard_of(id: TrajId, shards: usize) -> usize {
    id as usize % shards
}

/// Occupancy of one shard at one epoch: how many **live** trajectories
/// its tree covers and how many sit in the delta buffer awaiting a merge
/// — the introspection [`Snapshot::shard_sizes`] reports per shard, in
/// shard order, so rebalancing and capacity decisions have data to act
/// on. Tombstoned base members are excluded (one still occupies store
/// memory until the next reshard, but it can never answer a query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Live trajectories in the shard's immutable base (covered by its
    /// tree).
    pub indexed: usize,
    /// Live trajectories in the shard's delta buffer (queried by exact
    /// brute scan until the next merge folds them into the tree).
    pub delta: usize,
}

impl ShardOccupancy {
    /// Total live trajectories in the shard (base + delta).
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
    /// trajectories each shard's tree covers and how many sit in its
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

    /// Height of the tallest shard tree (0 when empty).
    pub fn tree_height(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.tree().height())
            .max()
            .unwrap_or(0)
    }

    /// Total node count across all shard trees.
    pub fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.tree().node_count()).sum()
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
            .map(|s| {
                let part = dense((0..7u32).filter(|g| *g as usize % 3 == s));
                Arc::new(Shard::bulk(part, TrajTreeConfig::default()))
            })
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
        let mut shard = Shard::bulk(dense(0..4), TrajTreeConfig::default());
        assert_eq!((shard.indexed_len(), shard.delta().len()), (4, 0));
        // Below the threshold: inserts buffer in the delta, lookups cover
        // both sides of the split.
        for i in 4..7u32 {
            shard.insert(i, t(i as f64), 8);
        }
        assert_eq!((shard.indexed_len(), shard.delta().len()), (4, 3));
        assert_eq!(shard.len(), 7);
        for i in 0..7u32 {
            assert_eq!(shard.get_global(i).unwrap().first().p.x, i as f64);
        }
        assert!(shard.get_global(7).is_none());
        // The 8th member crosses the threshold: the delta folds into the
        // base and the tree covers everything again.
        shard.insert(7, t(7.0), 4);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (8, 0));
        assert_eq!(shard.tree().len(), 8);
        assert_eq!(shard.base.globals, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn tombstones_hide_members_and_fold_out_of_the_delta() {
        let mut shard = Shard::bulk(dense([0, 2, 4]), TrajTreeConfig::default());
        shard.insert(6, t(6.0), 100);
        shard.insert(8, t(8.0), 100);
        assert_eq!(shard.len(), 5);
        // Kill one base member and one delta member.
        assert!(shard.remove(2), "base member");
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
        // Folding appends the delta survivor and keeps the dead base entry
        // tombstoned.
        shard.merge_delta();
        assert_eq!(shard.base.globals, &[0, 2, 4, 8]);
        assert_eq!(shard.dead.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(shard.len(), 3);
        assert_eq!((shard.indexed_len(), shard.delta().len()), (3, 0));
    }

    #[test]
    fn holey_ids_keep_resolving_after_a_fold() {
        // Ids with gaps (as removal + fresh inserts produce): the globals
        // table, not arithmetic, maps slots to ids.
        let mut shard = Shard::bulk(dense([1, 5, 9]), TrajTreeConfig::default());
        shard.insert(13, t(13.0), 1); // threshold 1: folds immediately
        assert_eq!(shard.base.globals, &[1, 5, 9, 13]);
        for g in [1u32, 5, 9, 13] {
            assert_eq!(shard.get_global(g).unwrap().first().p.x, g as f64);
        }
        assert!(shard.get_global(3).is_none());
    }

    #[test]
    fn snapshot_len_and_sizes_report_live_counts() {
        let mut a = Shard::bulk(dense([0, 2]), TrajTreeConfig::default());
        let mut b = Shard::bulk(dense([1, 3]), TrajTreeConfig::default());
        a.insert(4, t(4.0), 100);
        b.insert(5, t(5.0), 100);
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
        let mut shard = Shard::bulk(dense(0..16), TrajTreeConfig::default());
        shard.insert(16, t(16.0), 1000);
        shard.remove(3);
        let clone = shard.clone();
        assert!(Arc::ptr_eq(&shard.base, &clone.base), "base shared");
        assert!(Arc::ptr_eq(&shard.dead, &clone.dead), "tombstones shared");
        assert_eq!(clone.delta().len(), 1);
        // A merge on the original copies the base out from under the
        // shared Arc; the clone keeps its epoch untouched.
        shard.merge_delta();
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
        let mut shard = Shard::bulk(dense(0..16), TrajTreeConfig::default());
        shard.insert(16, t(16.0), 1000);
        shard.insert(17, t(17.0), 1000);
        let held = shard.clone(); // a snapshot shares the base Arc
        assert!(shard.remove(16) && shard.remove(17));
        shard.merge_delta();
        assert!(Arc::ptr_eq(&shard.base, &held.base), "base copied");
        // The removed entries are gone, and no tombstone stands for them.
        assert_eq!((shard.indexed_len(), shard.delta().len()), (16, 0));
        assert!(shard.delta().is_empty() && shard.dead.is_empty());
        assert_eq!(held.delta().len(), 2, "the held epoch is untouched");
    }

    #[test]
    fn removing_a_delta_member_drops_it_at_once_and_spares_held_clones() {
        let mut shard = Shard::bulk(dense([0, 2]), TrajTreeConfig::default());
        for g in [4, 6, 8] {
            shard.insert(g, t(g as f64), 1000);
        }
        let held = shard.clone();
        assert!(shard.remove(6));
        assert_eq!(shard.delta().len(), 2, "the delta shrinks at once");
        assert!(shard.dead.is_empty(), "no tombstone for a delta member");
        assert!(shard.get_global(6).is_none());
        // Local ids past the removed slot shift down and still resolve.
        assert_eq!((shard.global(3), shard.traj(3).first().p.x), (8, 8.0));
        // The clone taken before the removal still holds the member.
        assert_eq!(held.get_global(6).unwrap().first().p.x, 6.0);
    }
}
