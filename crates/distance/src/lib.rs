//! # traj-dist
//!
//! Trajectory distance functions for the EDwP / TrajTree reproduction
//! (Ranu et al., ICDE 2015).
//!
//! The paper defines two distances — *Edit Distance with Projections*
//! (EDwP, Sec. III) and its sub-trajectory variant `EDwP_sub`
//! (Sec. IV-B), each optionally length-normalised by Eq. 4 — and one
//! admissible lower bound, the Theorem 2 box relaxation. The crate mirrors
//! that: [`Metric`] is the one parameterised entry point —
//! [`Metric::distance`] / [`Metric::distance_bounded`] /
//! [`Metric::lower_bound_boxes`] / [`Metric::lower_bound_trajectory`],
//! each taking the [`QueryMode`] (whole vs sub), a pooled [`EdwpScratch`]
//! and (for the three pruning forms) a [`Cutoff`] — and everything
//! the query engine evaluates goes through it. Each entry point is one raw
//! kernel call plus [`Metric::normalise`]; the raw kernels are exported
//! for benchmarks and tests ([`edwp_with_scratch`], [`edwp_bounded`],
//! [`edwp_sub_with_scratch`], [`edwp_sub_bounded`],
//! [`edwp_lower_bound_boxes_bounded`],
//! [`edwp_lower_bound_trajectory_bounded`]), all but the two-sided
//! whole-mode member bound, which only [`Metric::lower_bound_trajectory`]
//! reaches. [`edwp_lower_bound_aabb_batch`] is the batched form of the box
//! bound's cheap prologue, which the box bound runs itself; nothing in the
//! query path calls it. With a warm scratch every one of them is
//! allocation-free.
//!
//! The paper-facing one-off conveniences allocate their own scratch:
//! [`edwp`], [`edwp_avg`], [`edwp_sub`], [`edwp_sub_avg`], the
//! recursion-faithful [`edwp_reference`], and the plain iterator forms
//! [`edwp_lower_bound_boxes`] / [`edwp_lower_bound_trajectory`] — the
//! independent references the pooled kernels are tested against. The
//! `boxes` module provides the tBoxSeq summaries ([`BoxSeq`]) the box bound
//! is evaluated over.
//!
//! The `baselines` module reimplements every comparison technique of the
//! paper: DTW, LCSS, ERP, EDR, DISSIM and MA, all behind the common
//! [`TrajDistance`] trait so a ranking can swap any of them in for EDwP.
//!
//! One kernel is vectorised: the segment-to-box minimum inside
//! [`edwp_lower_bound_boxes_bounded`] runs 4-wide AVX2 behind a runtime
//! dispatch — see the [`simd`] module for the dispatch model ([`Isa`],
//! [`simd::force_isa`], the `TRAJ_FORCE_SCALAR` environment variable) and
//! for why box-bound values may differ between dispatch paths while
//! reported distances and query results cannot. The exact DP and every
//! other kernel have a single scalar path. Entering that kernel is the
//! only step the compiler cannot prove sound; the lint attributes below
//! require a `// SAFETY:` argument on every such step.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod baselines;
pub mod boxes;
mod cutoff;
mod edwp;
mod matrix;
pub mod simd;

pub use simd::Isa;

pub use boxes::{
    edwp_lower_bound_aabb_batch, edwp_lower_bound_boxes, edwp_lower_bound_boxes_bounded,
    edwp_lower_bound_trajectory, edwp_lower_bound_trajectory_bounded, BoxSeq,
};
pub use cutoff::Cutoff;
pub use edwp::reference::edwp_reference;
pub use edwp::sub::{edwp_sub, edwp_sub_avg, edwp_sub_bounded, edwp_sub_with_scratch};
pub use edwp::{edwp, edwp_avg, edwp_bounded, edwp_with_scratch, EdwpScratch};

use traj_core::Trajectory;

/// What a query matches against — the second pluggable axis of the query
/// surface, orthogonal to [`Metric`].
///
/// [`QueryMode::Whole`] compares the query against each stored trajectory
/// end-to-end (EDwP, Sec. III). [`QueryMode::Sub`] compares it against the
/// best-matching contiguous *portion* of each stored trajectory
/// (`EDwP_sub`, Sec. IV-B): the stored prefix and suffix are skipped for
/// free, so a short probe embeds cheaply into a long host — the
/// partial-trip lookup and motif-discovery workload.
///
/// Both modes are exact under both metrics. The node bound is the same in
/// both: the Theorem 2 relaxation is one-sided, so the same accumulation
/// is admissible against `EDwP_sub` as well (see
/// [`Metric::lower_bound_boxes`]). The per-candidate bound is not: whole mode
/// consumes the stored trajectory too, so it also charges the stored
/// side's segments (see [`Metric::lower_bound_trajectory`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QueryMode {
    /// Whole-trajectory matching: distances are `edwp` / `edwp_avg`.
    #[default]
    Whole,
    /// Sub-trajectory matching: distances are [`edwp_sub`] /
    /// [`edwp_sub_avg`] — asymmetric by design (query first, stored
    /// trajectory second).
    Sub,
}

impl QueryMode {
    /// Short display name (`"whole"` / `"sub"`), for reports and bench
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            QueryMode::Whole => "whole",
            QueryMode::Sub => "sub",
        }
    }
}

/// The distance a query is answered under — the pluggable-metric axis of
/// the query builder API. Both variants are exact and admissibly
/// lower-bounded, so index searches under either return precisely the
/// brute-force result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Raw (cumulative) EDwP, Sec. III-A — the distance Theorem 2's box
    /// bounds apply to directly.
    #[default]
    Edwp,
    /// Length-normalised EDwP (Eq. 4):
    /// `EDwP(a, b) / (length(a) + length(b))` — the configuration used in
    /// the paper's experiments. Its admissible node bound additionally
    /// needs an upper bound on the summarised trajectories' lengths (the
    /// `max_len` argument of [`Metric::lower_bound_boxes`]), which the
    /// TrajTree maintains per node.
    EdwpNormalized,
}

impl Metric {
    /// Rescales a raw (cumulative-EDwP-scale) value into this metric's
    /// scale — the one normalisation step every entry point shares. The
    /// raw metric passes `raw` through; Eq. 4 divides by `denom`, the
    /// summed lengths of both sides, and defines a non-positive
    /// denominator (both sides stationary) as distance 0. Dividing an
    /// admissible raw bound by a denominator at least as large as the true
    /// one keeps it admissible.
    #[inline]
    pub fn normalise(self, raw: f64, denom: f64) -> f64 {
        match self {
            Metric::Edwp => raw,
            Metric::EdwpNormalized if denom > 0.0 => raw / denom,
            Metric::EdwpNormalized => 0.0,
        }
    }

    /// Runs one raw kernel under this metric: the raw metric hands
    /// `cutoff` straight through; the normalised metric lifts it into raw
    /// space by `denom()` and normalises
    /// the result back. A stationary pair skips the kernel —
    /// [`Cutoff::scaled`] needs a positive factor, and
    /// [`Metric::normalise`] answers 0 whatever the kernel would say.
    #[inline]
    fn evaluate(
        self,
        denom: impl FnOnce() -> f64,
        cutoff: Cutoff<'_>,
        kernel: impl FnOnce(Cutoff<'_>) -> f64,
    ) -> f64 {
        match self {
            Metric::Edwp => kernel(cutoff),
            Metric::EdwpNormalized => {
                let denom = denom();
                let raw = if denom > 0.0 {
                    kernel(cutoff.scaled(denom))
                } else {
                    0.0
                };
                self.normalise(raw, denom)
            }
        }
    }

    /// The exact distance from query `a` to stored trajectory `b` under
    /// this metric in the given [`QueryMode`], via caller-pooled kernel
    /// memory. Argument order matters in [`QueryMode::Sub`]: the *query*
    /// is fully consumed, `b`'s prefix/suffix are skipped for free.
    #[inline]
    pub fn distance(
        self,
        mode: QueryMode,
        a: &Trajectory,
        b: &Trajectory,
        scratch: &mut EdwpScratch,
    ) -> f64 {
        self.distance_bounded(mode, a, b, f64::INFINITY.into(), scratch)
    }

    /// [`Metric::distance`] with early abandon against a live `cutoff` (in
    /// this metric's scale): the exact DP stops as soon as a completed
    /// anchor row proves the distance exceeds the cutoff's current value
    /// (see [`edwp_bounded`]).
    ///
    /// The result is always an admissible lower bound on the true
    /// distance, and it *is* the exact distance whenever it is at or below
    /// the cutoff's final value — cutoffs only tighten, so an abandoned
    /// evaluation stays strictly above every threshold the cutoff will
    /// ever hold. k-NN engines therefore keep exactness by discarding any
    /// result above their final threshold (such a candidate can never
    /// enter the answer set) and trusting the rest as exact distances.
    #[inline]
    pub fn distance_bounded(
        self,
        mode: QueryMode,
        a: &Trajectory,
        b: &Trajectory,
        cutoff: Cutoff<'_>,
        scratch: &mut EdwpScratch,
    ) -> f64 {
        self.evaluate(
            || a.length() + b.length(),
            cutoff,
            |cutoff| match mode {
                QueryMode::Whole => edwp_bounded(a, b, cutoff, scratch),
                QueryMode::Sub => edwp_sub_bounded(a, b, cutoff, scratch),
            },
        )
    }

    /// Admissible lower bound on `self.distance(mode, q, T, ..)` for every
    /// trajectory `T` summarised by `seq`, where `max_len` upper-bounds the
    /// length of each summarised trajectory (ignored by [`Metric::Edwp`];
    /// the per-node bookkeeping TrajTree maintains).
    ///
    /// # Admissibility, in both modes
    ///
    /// The raw accumulation is [`edwp_lower_bound_boxes`]:
    /// `Σ_i 2 · len(e_i) · min_b dist(e_i, b)` over the query's segments.
    /// Its derivation (Theorem 2, relaxed) is **one-sided** — it charges
    /// only query-side pieces against distances to the stored side, never
    /// the stored side's own coverage — and that is why the bound is
    /// **mode-independent**. Every edit of an optimal `EDwP_sub` alignment
    /// still consumes a piece of the query (the query is fully consumed in
    /// sub mode; only `T`'s prefix and suffix are skipped, and skipped
    /// pieces appear in *no* cost term), and every stored-side anchor of a
    /// costed edit lies on `T`, inside the union of `seq`'s boxes. Each
    /// edit therefore costs at least `2 · min_b dist(piece, b) ·
    /// len(piece)`, and the pieces of each query segment tile its length,
    /// so the same sum lower-bounds `edwp` and `edwp_sub` alike:
    /// discarding `T`'s unmatched portions costs the bound nothing.
    /// Property-tested on bulk, coalesced and incrementally merged
    /// sequences, so best-first search pruned with it returns exactly the
    /// brute-force scan in either mode.
    ///
    /// The normalised metric divides by `length(q) + max_len`; since
    /// `max_len >= length(T)` that is the largest denominator either
    /// normalised distance can have, so the quotient stays admissible.
    ///
    /// # Cutoff contract
    ///
    /// `cutoff` is the caller's current pruning threshold (in this
    /// metric's scale): the per-segment accumulation bails as soon as the
    /// partial sum strictly exceeds it. Pass `f64::INFINITY.into()` for
    /// the full bound. Before that accumulation a finite cutoff first runs
    /// the kernel's prologue: the same sum against `seq`'s overall bounding
    /// box by axis-aligned gaps, which bails under the same strict rule
    /// (see [`edwp_lower_bound_boxes_bounded`]) — a node far from the query
    /// costs one gap per query piece, not one exact distance per (piece,
    /// box) pair. Partial sums of either are admissible (all terms are
    /// non-negative and never exceed the exact terms), so the returned
    /// value is a sound pruning key under either metric, and the normalised
    /// metric scales the cutoff by this node's own `length(q) + max_len`
    /// before either runs. Only the raw metric guarantees
    /// "`result <= cutoff.current()` implies `result` is the full bound
    /// bit-for-bit" (see [`edwp_lower_bound_boxes_bounded`]): the
    /// normalised metric's `cutoff * denom` / `raw / denom` rounding round
    /// trip can return a truncated partial at — or strictly below — the
    /// cutoff (worst case one extra tie-expansion), so never cache a
    /// normalised bounded result as if it were the full bound.
    #[inline]
    pub fn lower_bound_boxes(
        self,
        _mode: QueryMode,
        q: &Trajectory,
        seq: &BoxSeq,
        max_len: f64,
        cutoff: Cutoff<'_>,
        scratch: &mut EdwpScratch,
    ) -> f64 {
        self.evaluate(
            || q.length() + max_len,
            cutoff,
            |cutoff| edwp_lower_bound_boxes_bounded(q, seq, cutoff, scratch),
        )
    }

    /// Admissible lower bound on `self.distance(mode, q, t, ..)` for one
    /// concrete candidate, normalised by the exact `length(q) + length(t)`;
    /// same `cutoff` contract as [`Metric::lower_bound_boxes`].
    ///
    /// [`QueryMode::Sub`] uses [`edwp_lower_bound_trajectory`]: the
    /// one-sided sum `LB(q, t) = Σ_{e ∈ q} 2 · len(e) · dist(e, t)`, with
    /// exact segment-to-polyline distances in place of box distances
    /// (hence tighter), admissible by the argument on
    /// [`Metric::lower_bound_boxes`] with `t`'s polyline in place of the
    /// box union.
    ///
    /// [`QueryMode::Whole`] adds the other side: `LB(q, t) + LB(t, q)`.
    /// Every edit of a whole-mode alignment pairs a piece `a` of a segment
    /// `e` of `q` with a piece `b` of a segment `f` of `t`, and costs
    /// `(d₁ + d₂) · (len a + len b)`, where each of `d₁`, `d₂` joins a
    /// point of `a` to a point of `b` — so each is at least `dist(e, t)`
    /// and at least `dist(f, q)`. The edit therefore costs at least
    /// `2 · dist(e, t) · len a + 2 · dist(f, q) · len b`. Both trajectories
    /// are fully consumed, so the pieces tile every segment of both sides,
    /// and summing over the alignment gives `LB(q, t) + LB(t, q)`. In sub
    /// mode `t`'s prefix and suffix are skipped for free, so only `LB(q, t)`
    /// survives. The reverse half is evaluated only when the forward half
    /// is within the cutoff.
    #[inline]
    pub fn lower_bound_trajectory(
        self,
        mode: QueryMode,
        q: &Trajectory,
        t: &Trajectory,
        cutoff: Cutoff<'_>,
        scratch: &mut EdwpScratch,
    ) -> f64 {
        self.evaluate(
            || q.length() + t.length(),
            cutoff,
            |cutoff| match mode {
                QueryMode::Whole => {
                    boxes::edwp_lower_bound_trajectory_two_sided_bounded(q, t, cutoff, scratch)
                }
                QueryMode::Sub => edwp_lower_bound_trajectory_bounded(q, t, cutoff, scratch),
            },
        )
    }

    /// Short display name (`"EDwP"` / `"EDwP-norm"`), for reports and bench
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Edwp => "EDwP",
            Metric::EdwpNormalized => "EDwP-norm",
        }
    }
}

/// A symmetric (or in EDwP's case, symmetric-by-construction) trajectory
/// distance function, the unit of comparison in the paper's experiments.
pub trait TrajDistance: Send + Sync {
    /// Distance between two trajectories; smaller means more similar.
    fn distance(&self, a: &Trajectory, b: &Trajectory) -> f64;

    /// Short display name used in experiment tables (e.g. `"EDwP"`).
    fn name(&self) -> &'static str;
}

/// Length-normalised EDwP (Eq. 4) — the configuration used in all of the
/// paper's experiments ("We use the length normalized EDwP defined in Eq. 4").
#[derive(Debug, Clone, Copy, Default)]
pub struct EdwpDistance;

impl TrajDistance for EdwpDistance {
    fn distance(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        edwp_avg(a, b)
    }
    fn name(&self) -> &'static str {
        "EDwP"
    }
}

/// Raw (cumulative, un-normalised) EDwP.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdwpRawDistance;

impl TrajDistance for EdwpRawDistance {
    fn distance(&self, a: &Trajectory, b: &Trajectory) -> f64 {
        edwp(a, b)
    }
    fn name(&self) -> &'static str {
        "EDwP-raw"
    }
}
