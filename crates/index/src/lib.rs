//! # traj-index
//!
//! TrajTree (Sec. V of Ranu et al., ICDE 2015): a sharded hierarchical
//! index over a trajectory database with an **exact** query engine —
//! k-nearest-neighbour and range (ε) search under EDwP, single-query or
//! parallel batch, with streaming ingestion that never blocks a running
//! query or a held [`Snapshot`] (only *acquiring* a new snapshot waits,
//! behind an in-progress delta fold) — that evaluates the full distance
//! on only a fraction of the database.
//!
//! # Architecture
//!
//! * [`TrajStore`] owns trajectories and issues dense [`TrajId`]s; the
//!   tree stores ids only.
//! * [`TrajTree`] is a height-balanced hierarchy. Every node carries a
//!   coarsened [`traj_dist::BoxSeq`] (tBoxSeq) summarising exactly the
//!   trajectories of its subtree; leaves hold member ids. Trees are built
//!   by Sort-Tile-Recursive bulk-loading ([`TrajTree::bulk_load`]) and
//!   support incremental [`TrajTree::insert`] with the paper's
//!   least-volume-growth descent and node splitting.
//! * The `shard` module partitions the database: one `Shard` is a
//!   [`TrajStore`] segment plus the [`TrajTree`] over it (including the
//!   max-length bookkeeping the normalised metric needs), routed by the
//!   deterministic id hash `global_id mod shards`. A [`Snapshot`] is an
//!   immutable epoch of all shards: inserts publish copy-on-write
//!   successors, so readers never see a torn shard.
//! * The `engine` module owns the best-first traversal, pruned by the
//!   admissible Theorem 2 relaxation
//!   [`traj_dist::Metric::lower_bound_boxes`] (with early-exit
//!   accumulation against the collector's live threshold) and refined
//!   through per-trajectory polyline bounds into exact EDwP evaluations
//!   — every kernel call goes through the four `Metric` entry points. One
//!   traversal serves a whole *forest* of shards — all roots seeded
//!   into one queue, so an incumbent found in any shard prunes every
//!   other shard's subtrees. The traversal is generic over a result
//!   *collector*, which supplies the pruning threshold and absorbs exact
//!   distances.
//! * The `session` module is the public query surface: a [`Session`] owns
//!   the shards and pooled scratch, and every query is phrased through the
//!   typed [`QueryBuilder`] / [`BatchQueryBuilder`] —
//!   `session.query(&q).knn(10)`, `.range(eps)`,
//!   `session.query(&q).sub().knn(k)` (sub-trajectory matching),
//!   `session.batch(&qs).threads(4).knn(k)` — with modifiers for the
//!   [`traj_dist::Metric`] (raw vs length-normalised EDwP), the
//!   [`traj_dist::QueryMode`] (whole vs best-portion `EDwP_sub`), the
//!   brute-force reference, and [`QueryStats`] collection. One
//!   schedule: a query is one forest traversal over all shards (one
//!   collector, one global threshold) on the thread that runs it, and
//!   batch finishers hand whole queries to a work-stealing worker loop
//!   (one [`traj_dist::EdwpScratch`] per worker) — results are bitwise
//!   identical to a sequential single-shard loop at any shard and thread
//!   count.
//!
//! # Adding a new query type
//!
//! 1. Write a collector implementing the engine's two-method contract:
//!    `threshold()` (the largest lower bound that could still matter — it
//!    must never undershoot) and `offer(id, distance)` (absorb one exact
//!    evaluation; ids arrive pre-routed to the global space).
//! 2. Add a finisher on [`QueryBuilder`] (and [`BatchQueryBuilder`]) that
//!    carries the query type's parameter, instantiates your collector and
//!    hands it to the shared single-query executor — see
//!    `QueryBuilder::range` in `session.rs` for the ~10-line shape. Batch,
//!    brute-force and multi-shard support come with the executor for
//!    free.
//!
//! A new *matching semantics* (rather than a new result shape) is a
//! [`traj_dist::QueryMode`] instead: sub-trajectory search added no
//! collector at all — one arm in `traj_dist::Metric::distance_bounded`
//! and one in `traj_dist::Metric::lower_bound_trajectory` (sub mode keeps
//! the one-sided member bound), and every
//! finisher/metric/shard/thread/brute-force combination came for free.
//! See the README's "adding a query mode" walkthrough.
//!
//! Both metrics and both modes are exact: raw EDwP admits box lower
//! bounds directly (Theorem 2); the length-normalised variant divides
//! that bound by `length(query) + max_len(node)`, where every node's
//! `max_len` (the longest trajectory in its subtree) is maintained by
//! build and insert; and sub-trajectory matching reuses the same
//! (one-sided, hence mode-independent) node accumulation — the argument
//! is on [`traj_dist::Metric::lower_bound_boxes`]. Only the member bound
//! depends on the mode: whole mode also charges the stored trip's
//! segments ([`traj_dist::Metric::lower_bound_trajectory`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod session;
mod shard;
mod store;
mod tree;

pub use engine::{Neighbor, QueryStats};
pub use session::{
    BatchQueryBuilder, BatchQueryResult, QueryBuilder, QueryResult, Session, SessionBuilder,
};
pub use shard::{ShardOccupancy, Snapshot};
pub use store::{TrajId, TrajStore};
pub use tree::{TrajTree, TrajTreeConfig};

// The metric and mode axes are part of the query surface; re-export them
// so callers of this crate alone can name them.
pub use traj_dist::{Metric, QueryMode};

// The durability policy types appear in `SessionBuilder::durability` /
// `SessionBuilder::open` signatures, and `PersistError` is what a typed
// match on storage failures needs; re-export all three so callers of this
// crate alone can configure a durable session.
pub use traj_persist::{DurabilityConfig, FsyncPolicy, PersistError};
