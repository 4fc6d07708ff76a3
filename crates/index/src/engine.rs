//! The generic best-first query engine shared by every query type.
//!
//! The search is the incremental nearest-neighbour algorithm of Hjaltason &
//! Samet driven by the paper's Theorem 2 box bounds: a min-priority queue
//! holds tree nodes keyed by the admissible lower bound
//! [`Metric::lower_bound_boxes`] of their (coarsened) tBoxSeq summaries.
//! Popping an internal node refines it into its children; popping a leaf
//! refines each member into a per-trajectory candidate keyed by the
//! tighter polyline bound [`Metric::lower_bound_trajectory`] (two-sided in
//! whole mode: the stored trip's own segments are charged too); popping a
//! candidate finally pays for one exact [`Metric::distance_bounded`]. All
//! distance work runs through one [`EdwpScratch`], so steady-state searches
//! never allocate inside the kernels.
//!
//! What makes the traversal *generic* is the [`Collector`]: the engine asks
//! it for the current pruning `threshold()` (largest lower bound that could
//! still matter) and hands it every exact distance via `offer()`. k-NN is a
//! bounded max-heap whose threshold is the incumbent k-th distance; range
//! search is a fixed threshold `eps` with an append-only hit list. Adding a
//! new query type means writing a new collector — the traversal, pruning
//! logic, scratch pooling and statistics are inherited unchanged (see the
//! crate docs for the recipe). The threshold is also threaded into every
//! lower-bound kernel as a [`Cutoff`], whose per-segment accumulation bails
//! as soon as the partial sum exceeds its current value — partial sums are
//! admissible, so early exit saves work without touching exactness.
//!
//! One traversal serves a **forest**: every run tree of every [`Shard`] of
//! a sharded search at once. A subtree entry names its shard and run; a
//! leaf resolves each member to its trajectory and global id, and from
//! there a tree member and a delta member are one candidate shape, so
//! thresholds and tie-breaking work on the global id space and a close
//! neighbour in one run prunes every other run's subtrees without ever
//! walking shards or runs sequentially. A
//! query is one such traversal on the thread that runs it, under one
//! collector and hence one threshold; parallelism is whole queries over
//! workers, never threads inside one traversal.
//!
//! Exactness: every queue key is a true lower bound of the query's
//! metric-and-mode distance (whole-trajectory EDwP or sub-trajectory
//! `EDwP_sub`) of every trajectory below the entry. Node keys are the
//! one-sided Theorem 2 relaxation, admissible in both modes (see
//! [`Metric::lower_bound_boxes`]); member keys add the stored side's
//! segments only in whole mode, where both trips are fully consumed (see
//! [`Metric::lower_bound_trajectory`]). Keys are additionally clamped to
//! be monotone along refinement paths, so when the queue's minimum exceeds
//! the collector's threshold, no unexplored trajectory can change the
//! result. Ties on the threshold keep expanding so id-order tie-breaking
//! matches the brute-force reference exactly.

use crate::shard::Shard;
use crate::store::TrajId;
use crate::tree::Node;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use traj_core::{TotalF64, Trajectory};
use traj_dist::{Cutoff, EdwpScratch, Metric, QueryMode};

/// One query answer: a trajectory id and its exact distance to the query
/// under the query's [`Metric`] and [`QueryMode`] (whole-trajectory raw
/// EDwP unless the builder selected [`Metric::EdwpNormalized`] and/or
/// sub-trajectory matching via `.sub()`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Id of the matched trajectory.
    pub id: TrajId,
    /// Exact metric distance between query and trajectory.
    pub distance: f64,
}

/// Work counters of one or more engine searches, for pruning-effectiveness
/// reporting. Counters saturate instead of wrapping, and [`QueryStats::merge`]
/// aggregates per-worker stats after a parallel batch, so fleet-scale counts
/// can neither overflow nor silently drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Total candidate universe of the aggregated searches: the database
    /// size for a single query, and the sum of per-query database sizes
    /// for a merged batch.
    pub db_size: usize,
    /// Number of searches aggregated into these counters (1 for a single
    /// `knn`/`range` call; the query count after a batch merge).
    pub queries: usize,
    /// Tree nodes (internal + leaf) popped and refined.
    pub nodes_visited: usize,
    /// Lower-bound evaluations (node summaries + per-trajectory bounds).
    pub bound_evaluations: usize,
    /// Full EDwP dynamic programs evaluated — the expensive operation a
    /// linear scan performs `db_size` times per query.
    pub edwp_evaluations: usize,
    /// Always 0. A child whose node bound bails in the kernel's AABB
    /// prologue (see `traj_dist::Metric::lower_bound_boxes`) counts as a
    /// bound evaluation like any other; the field stays because the
    /// benchmark's `index.knn.aabb_prescreened` probe reads it.
    pub aabb_prescreened: usize,
    /// Queue entries (subtrees and per-trajectory candidates) discarded
    /// unexplored when the queue minimum crossed the pruning threshold —
    /// the work the admissible bounds saved outright.
    pub bound_pruned: usize,
}

impl QueryStats {
    /// Fresh counters for a single search over a database of `db_size`.
    pub(crate) fn for_search(db_size: usize) -> Self {
        QueryStats {
            db_size,
            queries: 1,
            ..QueryStats::default()
        }
    }

    /// Fraction of the candidate universe whose full EDwP evaluation was
    /// avoided (0 for an empty database). `db_size` already aggregates
    /// across merged queries, so no per-query scaling is needed.
    pub fn pruning_ratio(&self) -> f64 {
        let denom = self.db_size as f64;
        if denom == 0.0 {
            0.0
        } else {
            1.0 - self.edwp_evaluations as f64 / denom
        }
    }

    /// Mean full EDwP evaluations per aggregated query.
    pub fn mean_edwp_evaluations(&self) -> f64 {
        self.edwp_evaluations as f64 / self.queries.max(1) as f64
    }

    /// Folds another stats block into this one: every counter adds,
    /// saturating — **including `db_size`**, so a merged batch reports the
    /// total candidate universe its queries faced.
    pub fn merge(&mut self, other: &QueryStats) {
        self.db_size = self.db_size.saturating_add(other.db_size);
        self.queries = self.queries.saturating_add(other.queries);
        self.nodes_visited = self.nodes_visited.saturating_add(other.nodes_visited);
        self.bound_evaluations = self
            .bound_evaluations
            .saturating_add(other.bound_evaluations);
        self.edwp_evaluations = self.edwp_evaluations.saturating_add(other.edwp_evaluations);
        self.aabb_prescreened = self.aabb_prescreened.saturating_add(other.aabb_prescreened);
        self.bound_pruned = self.bound_pruned.saturating_add(other.bound_pruned);
    }

    #[inline]
    fn bump_nodes(&mut self) {
        self.nodes_visited = self.nodes_visited.saturating_add(1);
    }

    #[inline]
    fn bump_bounds(&mut self) {
        self.bound_evaluations = self.bound_evaluations.saturating_add(1);
    }

    #[inline]
    pub(crate) fn bump_edwp(&mut self) {
        self.edwp_evaluations = self.edwp_evaluations.saturating_add(1);
    }

    #[inline]
    fn bump_pruned(&mut self, n: usize) {
        self.bound_pruned = self.bound_pruned.saturating_add(n);
    }
}

/// Accumulates exact distances for one query type and tells the traversal
/// how far it still has to look.
///
/// Contract: `threshold()` must never *undershoot* — pruning a subtree is
/// only sound when no trajectory inside it at a distance above the returned
/// value could enter the result. Candidates whose lower bound *equals* the
/// threshold are still refined, so collectors may break distance ties
/// (e.g. by id) without losing exactness.
pub(crate) trait Collector {
    /// Largest lower bound that could still contribute to the result; queue
    /// entries keyed strictly above this are pruned unexplored.
    fn threshold(&self) -> f64;

    /// Records one exact `(id, distance)` evaluation.
    fn offer(&mut self, id: TrajId, distance: f64);

    /// The collected result, sorted by ascending `(distance, id)`.
    fn into_neighbors(self) -> Vec<Neighbor>;
}

/// k-NN collection: a bounded max-heap on `(distance, id)`. The root is the
/// incumbent to beat, and `(d, id)` ordering reproduces brute-force
/// tie-breaking.
pub(crate) struct KnnCollector {
    k: usize,
    best: BinaryHeap<(TotalF64, TrajId)>,
}

impl KnnCollector {
    pub(crate) fn new(k: usize) -> Self {
        KnnCollector {
            k,
            best: BinaryHeap::with_capacity(k.saturating_add(1)),
        }
    }
}

impl Collector for KnnCollector {
    fn threshold(&self) -> f64 {
        if self.best.len() < self.k {
            f64::INFINITY
        } else {
            self.best.peek().map_or(f64::INFINITY, |w| w.0 .0)
        }
    }

    fn offer(&mut self, id: TrajId, distance: f64) {
        if self.k == 0 {
            return;
        }
        let cand = (TotalF64(distance), id);
        if self.best.len() < self.k {
            self.best.push(cand);
        } else if let Some(worst) = self.best.peek() {
            if cand < *worst {
                self.best.pop();
                self.best.push(cand);
            }
        }
    }

    fn into_neighbors(self) -> Vec<Neighbor> {
        sort_neighbors(
            self.best
                .into_iter()
                .map(|(d, id)| Neighbor { id, distance: d.0 })
                .collect(),
        )
    }
}

/// Range collection: keep everything within a fixed `eps` (inclusive).
pub(crate) struct RangeCollector {
    eps: f64,
    hits: Vec<Neighbor>,
}

impl RangeCollector {
    pub(crate) fn new(eps: f64) -> Self {
        RangeCollector {
            eps,
            hits: Vec::new(),
        }
    }
}

impl Collector for RangeCollector {
    fn threshold(&self) -> f64 {
        self.eps
    }

    fn offer(&mut self, id: TrajId, distance: f64) {
        if distance <= self.eps {
            self.hits.push(Neighbor { id, distance });
        }
    }

    fn into_neighbors(self) -> Vec<Neighbor> {
        sort_neighbors(self.hits)
    }
}

/// The one result ordering every query type uses: ascending
/// `(distance, id)`.
fn sort_neighbors(mut neighbors: Vec<Neighbor>) -> Vec<Neighbor> {
    neighbors.sort_by_key(|n| (TotalF64(n.distance), n.id));
    neighbors
}

/// Priority-queue entry: a subtree of one run of one shard, or one
/// candidate trajectory, keyed by an admissible lower bound. `seq` makes
/// the ordering total and deterministic.
struct QueueEntry<'a> {
    key: TotalF64,
    seq: u64,
    item: QueueItem<'a>,
}

/// A subtree names the shard and the run its tree belongs to, which its
/// leaves need to resolve members; a candidate carries its trajectory and
/// global id, so a tree member and a delta member are the same shape.
enum QueueItem<'a> {
    Node(&'a Node, u32, u8),
    Traj(&'a Trajectory, TrajId),
}

impl PartialEq for QueueEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for QueueEntry<'_> {}
impl PartialOrd for QueueEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry<'_> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest key.
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The (metric, mode) pair one search answers under — the two pluggable
/// matching axes, bundled so they travel together through the traversal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Matching {
    pub(crate) metric: Metric,
    pub(crate) mode: QueryMode,
}

/// The Theorem 2 bound of `node`'s summary under the collector's current
/// threshold, counted as one bound evaluation — the one node bound. A node
/// far from the query bails in the kernel's AABB prologue (see
/// [`Metric::lower_bound_boxes`]) without paying for its exact box sweep.
fn node_bound<C: Collector>(
    node: &Node,
    query: &Trajectory,
    matching: Matching,
    collector: &C,
    scratch: &mut EdwpScratch,
    stats: &mut QueryStats,
) -> f64 {
    stats.bump_bounds();
    matching.metric.lower_bound_boxes(
        matching.mode,
        query,
        node.summary(),
        node.max_len(),
        Cutoff::constant(collector.threshold()),
        scratch,
    )
}

/// Runs one best-first search over a forest of `shards` — every run of
/// every shard of an epoch at once — feeding every exact evaluation into
/// `collector` (with ids rewritten to global) and every unit of work into
/// `stats`.
///
/// Seeding all roots into one queue gives the forest the same global
/// pruning a single tree enjoys: the run holding the nearest neighbours
/// is refined first and its incumbents prune the other runs' subtrees,
/// so the total work matches a one-tree search instead of multiplying by
/// the run count. Shard by shard, runs are seeded oldest first and the
/// delta last, so a session of one bulk-built run per shard seeds exactly
/// one root per shard, as a session of one tree per shard did.
///
/// Each run's tree must index every trajectory of its store (a store id
/// never indexed is invisible to the search). `scratch` is the
/// worker's pooled kernel memory; the query is (re)pinned here, so one
/// scratch can serve many consecutive searches.
pub(crate) fn best_first<C: Collector>(
    shards: &[Arc<Shard>],
    query: &Trajectory,
    matching: Matching,
    collector: &mut C,
    scratch: &mut EdwpScratch,
    stats: &mut QueryStats,
) {
    let Matching { metric, mode } = matching;
    scratch.set_query(query);

    fn push<'a>(
        queue: &mut BinaryHeap<QueueEntry<'a>>,
        seq: &mut u64,
        key: f64,
        item: QueueItem<'a>,
    ) {
        queue.push(QueueEntry {
            key: TotalF64(key),
            seq: *seq,
            item,
        });
        *seq += 1;
    }
    let mut queue: BinaryHeap<QueueEntry<'_>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Every bound evaluation is given the collector's current threshold so
    // its per-segment accumulation can bail early: the partial sum returned
    // is still an admissible key, and any key above the threshold is pruned
    // at pop time whether or not it was fully evaluated (thresholds only
    // tighten, so the pruning decision can never be invalidated later).
    for (si, shard) in shards.iter().enumerate() {
        // A shard holds at most 32 runs (member counts more than halve
        // from run to run, and ids are `u32`), so its run index fits a `u8`.
        for (ri, run) in shard.runs().iter().enumerate() {
            if let Some(root) = run.tree().root.as_ref() {
                let root_key = node_bound(root, query, matching, collector, scratch, stats);
                push(
                    &mut queue,
                    &mut seq,
                    root_key,
                    QueueItem::Node(root, si as u32, ri as u8),
                );
            }
        }
        // Delta members are invisible to every tree: seed each (removal
        // deletes from the delta, so every one is live) directly as a
        // per-trajectory candidate under its (admissible) polyline bound.
        // From here they compete in the same queue under the same
        // threshold and the same exact-distance refinement as tree-routed
        // candidates, so a shard mid-delta answers bitwise identically to
        // one whose tree covers everything.
        for (gid, t) in shard.delta() {
            stats.bump_bounds();
            let lb = metric.lower_bound_trajectory(
                mode,
                query,
                t,
                Cutoff::constant(collector.threshold()),
                scratch,
            );
            push(&mut queue, &mut seq, lb, QueueItem::Traj(t, *gid));
        }
    }

    while let Some(entry) = queue.pop() {
        // Keep expanding ties (<=): an equal-bound candidate can still win
        // on id order; strictly worse keys cannot contribute.
        if entry.key.0 > collector.threshold() {
            // Keys are queue minima, so everything still enqueued is at
            // least as far: the popped entry and the whole remaining queue
            // are discarded unexplored.
            stats.bump_pruned(1 + queue.len());
            break;
        }
        match entry.item {
            QueueItem::Node(node, si, ri) => {
                stats.bump_nodes();
                match node {
                    Node::Internal { children, .. } => {
                        for child in children {
                            let lb = node_bound(child, query, matching, collector, scratch, stats);
                            // Clamp to the parent key: both are valid
                            // bounds, and monotone keys keep the traversal
                            // order stable.
                            push(
                                &mut queue,
                                &mut seq,
                                lb.max(entry.key.0),
                                QueueItem::Node(child, si, ri),
                            );
                        }
                    }
                    Node::Leaf { ids, .. } => {
                        let shard = &shards[si as usize];
                        let run = &shard.runs()[ri as usize];
                        for &id in ids {
                            let gid = run.global(id);
                            // Tombstoned members still sit in the tree (a
                            // run is immutable until a merge or reshard
                            // rebuilds it); skip them here so they never
                            // become candidates.
                            if shard.is_dead(gid) {
                                continue;
                            }
                            stats.bump_bounds();
                            // Tighter per-trajectory refinement: exact
                            // segment-to-polyline distances instead of box
                            // distances.
                            let t = run.traj(id);
                            let lb = metric.lower_bound_trajectory(
                                mode,
                                query,
                                t,
                                Cutoff::constant(collector.threshold()),
                                scratch,
                            );
                            push(
                                &mut queue,
                                &mut seq,
                                lb.max(entry.key.0),
                                QueueItem::Traj(t, gid),
                            );
                        }
                    }
                }
            }
            QueueItem::Traj(t, gid) => {
                stats.bump_edwp();
                // The exact DP runs under the live threshold too: a row of
                // anchor states already above it proves the candidate can
                // never enter the answer set, so the DP abandons early.
                // An abandoned value is strictly above every threshold the
                // cutoff will ever hold (thresholds only tighten), so the
                // post-check below filters exactly the abandoned and the
                // strictly-uncompetitive evaluations — everything offered
                // is a completed, exact distance, and everything skipped
                // is strictly above the final k-th best (ties at the
                // threshold pass `<=` and still compete on id).
                let d = metric.distance_bounded(
                    mode,
                    query,
                    t,
                    Cutoff::constant(collector.threshold()),
                    scratch,
                );
                if d <= collector.threshold() {
                    collector.offer(gid, d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter_including_db_size() {
        let mut a = QueryStats {
            db_size: 100,
            queries: 3,
            nodes_visited: 7,
            bound_evaluations: 40,
            edwp_evaluations: 12,
            aabb_prescreened: 9,
            bound_pruned: 15,
        };
        let b = QueryStats {
            db_size: 100,
            queries: 5,
            nodes_visited: 11,
            bound_evaluations: 60,
            edwp_evaluations: 28,
            aabb_prescreened: 1,
            bound_pruned: 5,
        };
        a.merge(&b);
        assert_eq!(
            a,
            QueryStats {
                db_size: 200,
                queries: 8,
                nodes_visited: 18,
                bound_evaluations: 100,
                edwp_evaluations: 40,
                aabb_prescreened: 10,
                bound_pruned: 20,
            }
        );
        assert!((a.mean_edwp_evaluations() - 5.0).abs() < 1e-12);
        assert!((a.pruning_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut a = QueryStats {
            db_size: usize::MAX - 2,
            queries: usize::MAX - 1,
            nodes_visited: usize::MAX,
            bound_evaluations: usize::MAX - 3,
            edwp_evaluations: 5,
            aabb_prescreened: usize::MAX - 1,
            bound_pruned: usize::MAX,
        };
        let b = QueryStats {
            db_size: 10,
            queries: 7,
            nodes_visited: 1,
            bound_evaluations: 9,
            edwp_evaluations: usize::MAX,
            aabb_prescreened: 4,
            bound_pruned: 2,
        };
        a.merge(&b);
        assert_eq!(a.db_size, usize::MAX);
        assert_eq!(a.queries, usize::MAX);
        assert_eq!(a.nodes_visited, usize::MAX);
        assert_eq!(a.bound_evaluations, usize::MAX);
        assert_eq!(a.edwp_evaluations, usize::MAX);
        assert_eq!(a.aabb_prescreened, usize::MAX);
        assert_eq!(a.bound_pruned, usize::MAX);
        // A second merge stays pinned at the ceiling.
        a.merge(&b);
        assert_eq!(a.edwp_evaluations, usize::MAX);
    }

    #[test]
    fn single_search_counters_saturate() {
        let mut s = QueryStats {
            nodes_visited: usize::MAX,
            bound_evaluations: usize::MAX,
            edwp_evaluations: usize::MAX,
            ..QueryStats::for_search(4)
        };
        s.bump_nodes();
        s.bump_bounds();
        s.bump_edwp();
        assert_eq!(s.nodes_visited, usize::MAX);
        assert_eq!(s.bound_evaluations, usize::MAX);
        assert_eq!(s.edwp_evaluations, usize::MAX);
    }

    #[test]
    fn pruning_ratio_handles_empty_and_batched() {
        assert_eq!(QueryStats::default().pruning_ratio(), 0.0);
        // A merged 4-query batch over a 50-trajectory db aggregates
        // db_size = 200; 20 evaluations means 90% pruned.
        let s = QueryStats {
            db_size: 200,
            queries: 4,
            edwp_evaluations: 20,
            ..QueryStats::default()
        };
        assert!((s.pruning_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn knn_collector_threshold_tracks_incumbent() {
        let mut c = KnnCollector::new(2);
        assert_eq!(c.threshold(), f64::INFINITY);
        c.offer(4, 10.0);
        assert_eq!(c.threshold(), f64::INFINITY);
        c.offer(1, 3.0);
        assert_eq!(c.threshold(), 10.0);
        c.offer(9, 7.0);
        assert_eq!(c.threshold(), 7.0);
        // Worse candidates are ignored.
        c.offer(2, 100.0);
        assert_eq!(c.threshold(), 7.0);
        let res = c.into_neighbors();
        assert_eq!(res.len(), 2);
        assert_eq!((res[0].id, res[1].id), (1, 9));
    }

    #[test]
    fn knn_collector_breaks_distance_ties_by_id() {
        let mut c = KnnCollector::new(1);
        c.offer(7, 5.0);
        c.offer(3, 5.0);
        assert_eq!(c.into_neighbors()[0].id, 3);
    }

    #[test]
    fn range_collector_is_inclusive_and_sorted() {
        let mut c = RangeCollector::new(5.0);
        assert_eq!(c.threshold(), 5.0);
        c.offer(8, 5.0);
        c.offer(2, 0.0);
        c.offer(5, 5.1);
        c.offer(1, 5.0);
        let res = c.into_neighbors();
        assert_eq!(
            res.iter().map(|n| n.id).collect::<Vec<_>>(),
            vec![2, 1, 8],
            "inclusive at eps, ascending (distance, id): {res:?}"
        );
    }
}
