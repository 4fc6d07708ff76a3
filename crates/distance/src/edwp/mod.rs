//! Edit Distance with Projections (EDwP), Sec. III of the paper.
//!
//! EDwP edits one trajectory into another using two operations:
//!
//! * `rep(e1, e2)` — match segments, paying
//!   `dist(e1.s1, e2.s1) + dist(e1.s2, e2.s2)`, weighted by
//!   `Coverage(e1, e2) = length(e1) + length(e2)`;
//! * `ins(e1, e2)` — split `e1` at the *projection* of `e2.s2` onto `e1`
//!   (cost-free; the subsequent `rep` pays).
//!
//! # Dynamic program
//!
//! The paper's recursion ranges over edit sequences in which `ins` may keep
//! splitting head segments; we implement the O(N·M) dynamic program
//! described here. A DP state `(i, j, k)` records that
//! trajectory `T1` is consumed up to an *anchor* on or at its `i`-th point
//! and `T2` up to an anchor on or at its `j`-th point, where `k` is one of
//! seven anchor configurations ([`Kind`]):
//!
//! * `Bb` — both anchors are sample points (`p_i`, `q_j`);
//! * `Ib` — `T1` anchored at the projection of `q_j` onto its segment `i`
//!   (created by an `ins` into `T1`); `IbL` — the same anchor *held* while
//!   `T2` advanced one more point (the zero-length "clamped" split);
//! * `Bi` / `BiL` — symmetric for `T2`;
//! * `Ii1` / `Ii2` — both anchors interpolated via a second-order
//!   projection chain (`ins` into both trajectories between two
//!   replacements), in either order.
//!
//! Transitions replay the paper's edits: `rep` consumes both head pieces;
//! `ins` into one side consumes the other's head against the split piece;
//! *hold* transitions consume one side's head against a zero-length piece
//! of the other (the degenerate splits of Appendix A, e.g. when one
//! trajectory is exhausted or a projection clamps to the current anchor).
//!
//! The worked examples of the paper (Example 1, Appendix A's triangle
//! inequality counterexample) are reproduced exactly — see the tests — and
//! the recursion-faithful reference implementation agrees closely on random
//! small inputs (see `tests/properties.rs`).

pub(crate) mod reference;
pub(crate) mod sub;

use crate::{Cutoff, Metric, QueryMode};
use traj_core::{Point, Segment, Trajectory};

/// Reusable scratch buffers for the EDwP kernels, so repeated distance and
/// lower-bound evaluations against one query perform no heap allocation.
///
/// One scratch serves every pooled kernel — the four [`crate::Metric`]
/// entry points and the raw kernels beneath them ([`edwp_with_scratch`],
/// [`edwp_bounded`], [`crate::edwp_sub_with_scratch`],
/// [`crate::edwp_lower_bound_boxes_bounded`],
/// [`crate::edwp_lower_bound_trajectory_bounded`]): the DP rows and
/// anchor memos grow to the largest problem seen and are reused afterwards,
/// so a warm scratch makes every call allocation-free (verified by the
/// allocation-regression test in `tests/alloc_regression.rs`). A scratch is
/// cheap to create but worth pooling per worker thread — the query engine in
/// `traj-index` keeps one per search worker.
///
/// Scratches are plain buffers: they never change any computed value, only
/// where intermediate state lives. They are `Send` but deliberately not
/// shared — concurrent searches each need their own.
#[derive(Debug, Clone, Default)]
pub struct EdwpScratch {
    /// Rolling DP rows, pooled across calls.
    cur: Row,
    nxt: Row,
    /// Lazily memoised per-row anchors (one slot per `(j, kind)`), stamped
    /// by row index so stale entries are never read.
    anchor_cells: Vec<AnchorCell>,
    /// Cached `(segment, length)` pieces of the current query, shared by the
    /// lower-bound kernels (see [`EdwpScratch::set_query`]).
    query_segs: Vec<(Segment, f64)>,
    /// Structure-of-arrays mirror of the box sequence under evaluation,
    /// rebuilt per bound call by the SIMD box-bound kernel (see
    /// [`crate::simd`]).
    box_soa: crate::simd::BoxSoa,
}

impl EdwpScratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        EdwpScratch::default()
    }

    /// Caches `t`'s `(segment, length)` pieces so subsequent lower-bound
    /// calls with the same query skip the sqrt-per-segment decomposition.
    ///
    /// Calling this is an optimization, never a requirement: the cache is
    /// trusted only after every cached endpoint is verified against the
    /// passed trajectory's points (plain comparisons), so lower-bound calls
    /// with any other trajectory — including one reusing a dropped query's
    /// allocation — simply rebuild the buffer in place, allocation-free
    /// once warm and always value-correct.
    pub fn set_query(&mut self, t: &Trajectory) {
        self.fill_query_segs(t);
    }

    fn fill_query_segs(&mut self, t: &Trajectory) {
        self.query_segs.clear();
        self.query_segs
            .extend(t.segments().map(|e| (e, e.length())));
    }

    /// The `(segment, length)` pieces of `t`: the cached buffer when it
    /// verifiably holds `t`'s segments, rebuilt in place otherwise.
    pub(crate) fn query_pieces(&mut self, t: &Trajectory) -> &[(Segment, f64)] {
        if !self.cached_pieces_match(t) {
            self.fill_query_segs(t);
        }
        &self.query_segs
    }

    /// [`EdwpScratch::query_pieces`] plus the SoA mirror buffer, borrowed
    /// disjointly so a kernel can iterate the pieces while (re)filling the
    /// mirror — the shape the SIMD box-bound kernel needs.
    pub(crate) fn pieces_and_soa(
        &mut self,
        t: &Trajectory,
    ) -> (&[(Segment, f64)], &mut crate::simd::BoxSoa) {
        if !self.cached_pieces_match(t) {
            self.fill_query_segs(t);
        }
        (&self.query_segs, &mut self.box_soa)
    }

    /// `true` when the cached pieces are exactly the segments of `t`.
    fn cached_pieces_match(&self, t: &Trajectory) -> bool {
        let points = t.points();
        self.query_segs.len() == points.len() - 1
            && self
                .query_segs
                .iter()
                .zip(points.windows(2))
                .all(|((seg, _), w)| seg.a == w[0] && seg.b == w[1])
    }
}

/// One memoised anchor pair; `stamp` is the owning DP row plus one, so a
/// freshly zeroed cell is never mistaken for a filled one.
#[derive(Debug, Clone, Copy)]
struct AnchorCell {
    stamp: u32,
    a: Point,
    b: Point,
}

impl Default for AnchorCell {
    fn default() -> Self {
        AnchorCell {
            stamp: 0,
            a: Point::new(0.0, 0.0),
            b: Point::new(0.0, 0.0),
        }
    }
}

/// Memoised [`anchors`] lookup for the current DP row. Double-interpolated
/// anchors cost two projections and are requested once per *source* kind
/// when relaxing into `Ii1`/`Ii2` and again on expansion; the memo computes
/// each `(i, j, k)` anchor pair once.
#[inline]
fn anchors_memo(
    cells: &mut [AnchorCell],
    t1: &Trajectory,
    t2: &Trajectory,
    i: usize,
    j: usize,
    k: Kind,
    stamp: u32,
) -> (Point, Point) {
    let cell = &mut cells[j * NKINDS + k as usize];
    if cell.stamp != stamp {
        let (a, b) = anchors(t1, t2, i, j, k);
        *cell = AnchorCell { stamp, a, b };
    }
    (cell.a, cell.b)
}

/// Anchor configuration of a DP state; see module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Both anchors are sample points.
    Bb = 0,
    /// `T1` anchored at `proj(q_j, seg1_i)`.
    Ib = 1,
    /// `T1` anchored at `proj(q_{j-1}, seg1_i)` (held through one hold).
    IbL = 2,
    /// `T2` anchored at `proj(p_i, seg2_j)`.
    Bi = 3,
    /// `T2` anchored at `proj(p_{i-1}, seg2_j)` (held through one hold).
    BiL = 4,
    /// Both interpolated; chain started on `T1`:
    /// `π1 = proj(q_{j+1}, seg1_i)`, `π2 = proj(π1, seg2_j)`.
    Ii1 = 5,
    /// Both interpolated; chain started on `T2`:
    /// `π2 = proj(p_{i+1}, seg2_j)`, `π1 = proj(π2, seg1_i)`.
    Ii2 = 6,
}

/// Number of anchor kinds.
pub(crate) const NKINDS: usize = 7;

/// All anchor kinds in DP-table order. Double-interpolated kinds come last
/// so same-cell relaxations (entering `Ii*` from single-anchor kinds of the
/// same `(i, j)`) are observed within one sweep.
pub(crate) const KINDS: [Kind; NKINDS] = [
    Kind::Bb,
    Kind::Ib,
    Kind::IbL,
    Kind::Bi,
    Kind::BiL,
    Kind::Ii1,
    Kind::Ii2,
];

/// One row of the rolling DP table: costs per `j` for each [`Kind`].
pub(crate) type Row = Vec<[f64; NKINDS]>;

#[inline]
fn proj_on_seg1(t1: &Trajectory, i: usize, q: Point) -> Point {
    t1.segment(i).project(q).point.p
}

#[inline]
fn proj_on_seg2(t2: &Trajectory, j: usize, p: Point) -> Point {
    t2.segment(j).project(p).point.p
}

/// Resolves the spatial anchors `(A, B)` of state `(i, j, k)`.
pub(crate) fn anchors(
    t1: &Trajectory,
    t2: &Trajectory,
    i: usize,
    j: usize,
    k: Kind,
) -> (Point, Point) {
    let p = t1.points()[i].p;
    let q = t2.points()[j].p;
    match k {
        Kind::Bb => (p, q),
        Kind::Ib => (proj_on_seg1(t1, i, q), q),
        Kind::IbL => (proj_on_seg1(t1, i, t2.points()[j - 1].p), q),
        Kind::Bi => (p, proj_on_seg2(t2, j, p)),
        Kind::BiL => (p, proj_on_seg2(t2, j, t1.points()[i - 1].p)),
        Kind::Ii1 => {
            let pi1 = proj_on_seg1(t1, i, t2.points()[j + 1].p);
            let pi2 = proj_on_seg2(t2, j, pi1);
            (pi1, pi2)
        }
        Kind::Ii2 => {
            let pi2 = proj_on_seg2(t2, j, t1.points()[i + 1].p);
            let pi1 = proj_on_seg1(t1, i, pi2);
            (pi1, pi2)
        }
    }
}

#[inline]
pub(crate) fn relax(cell: &mut [f64; NKINDS], k: Kind, v: f64) {
    let slot = &mut cell[k as usize];
    if v < *slot {
        *slot = v;
    }
}

/// How the shared DP initialises and finalises — global EDwP or the
/// prefix/suffix-skipping `EDwP_sub`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DpMode {
    /// Global alignment: start at `(0, 0)`, end at `(n-1, m-1, Bb)`.
    Global,
    /// Sub-trajectory alignment: free prefix and suffix skip on `t2`.
    Sub,
}

/// Shared EDwP dynamic program over the seven anchor kinds. All working
/// state lives in `scratch`, so a warm scratch makes the call
/// allocation-free.
///
/// `cutoff` enables *early abandon*: every alignment path consumes `t1`
/// one anchor row at a time and every transition cost is non-negative, so
/// the minimum over a completed DP row lower-bounds the final distance.
/// When that row minimum strictly exceeds the cutoff's current value the
/// DP stops and returns the row minimum — still an admissible lower bound
/// of the true distance, and strictly above every threshold the cutoff
/// will ever hold (cutoffs only tighten). A result at or below the
/// cutoff's final value is therefore always the exact distance.
pub(crate) fn run_dp(
    t1: &Trajectory,
    t2: &Trajectory,
    mode: DpMode,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    let n = t1.num_points();
    let m = t2.num_points();
    let inf = f64::INFINITY;
    let EdwpScratch {
        cur,
        nxt,
        anchor_cells,
        ..
    } = scratch;
    cur.clear();
    cur.resize(m, [inf; NKINDS]);
    nxt.clear();
    nxt.resize(m, [inf; NKINDS]);
    anchor_cells.clear();
    anchor_cells.resize(m * NKINDS, AnchorCell::default());
    match mode {
        DpMode::Global => cur[0][Kind::Bb as usize] = 0.0,
        DpMode::Sub => {
            // Free prefix skip: start at any sample point of `t2` that has
            // at least one segment after it.
            for cell in cur.iter_mut().take(m - 1) {
                cell[Kind::Bb as usize] = 0.0;
            }
        }
    }

    let p = t1.points();
    let q = t2.points();

    for i in 0..n {
        let stamp = i as u32 + 1;
        let has_t1 = i + 1 < n;
        for j in 0..m {
            // A cell with no reachable kind relaxes nothing — skip it
            // before paying for split projections it would never use.
            if cur[j].iter().all(|v| !v.is_finite()) {
                continue;
            }
            let has_t2 = j + 1 < m;
            let both = has_t1 && has_t2;
            // Kind-independent pieces of this `(i, j)` cell, hoisted out of
            // the kind sweep: the `ins` split projections and the
            // segment-head distances depend only on the cell, not on the
            // anchor kind the edit leaves from. Values are identical to the
            // per-kind recomputation, just computed once.
            let (a2, b2, d12, a2e2, e1b2) = if both {
                let e1 = p[i + 1].p;
                let e2 = q[j + 1].p;
                let a2 = proj_on_seg1(t1, i, e2);
                let b2 = proj_on_seg2(t2, j, e1);
                (a2, b2, e1.dist(e2), a2.dist(e2), e1.dist(b2))
            } else {
                let origin = Point::new(0.0, 0.0);
                (origin, origin, 0.0, 0.0, 0.0)
            };
            for k in KINDS {
                let base = cur[j][k as usize];
                if !base.is_finite() {
                    continue;
                }
                let (a, b) = anchors_memo(anchor_cells, t1, t2, i, j, k, stamp);
                let dab = a.dist(b);
                let dae1 = if has_t1 { a.dist(p[i + 1].p) } else { 0.0 };
                let dbe2 = if has_t2 { b.dist(q[j + 1].p) } else { 0.0 };
                if both {
                    // rep: consume both head pieces.
                    let rep = (dab + d12) * (dae1 + dbe2);
                    relax(&mut nxt[j + 1], Kind::Bb, base + rep);
                    // ins into T1: T2 advances, T1 splits at proj(q_{j+1}).
                    let ins1 = (dab + a2e2) * (a.dist(a2) + dbe2);
                    relax(&mut cur[j + 1], Kind::Ib, base + ins1);
                    // ins into T2: symmetric.
                    let ins2 = (dab + e1b2) * (dae1 + b.dist(b2));
                    relax(&mut nxt[j], Kind::Bi, base + ins2);
                    // ins into both (second-order projection chains),
                    // capped at one split per side between replacements.
                    if !matches!(k, Kind::Ii1 | Kind::Ii2) {
                        for kk in [Kind::Ii1, Kind::Ii2] {
                            let (pi1, pi2) = anchors_memo(anchor_cells, t1, t2, i, j, kk, stamp);
                            let cost = (dab + pi1.dist(pi2)) * (a.dist(pi1) + b.dist(pi2));
                            relax(&mut cur[j], kk, base + cost);
                        }
                    }
                }
                // Hold T1 (zero-length piece) while T2 advances one point.
                if has_t2 {
                    let e2 = q[j + 1].p;
                    let cost = base + (dab + a.dist(e2)) * dbe2;
                    match k {
                        // Sample anchor stays a sample anchor.
                        Kind::Bb | Kind::Bi | Kind::BiL => relax(&mut cur[j + 1], Kind::Bb, cost),
                        // proj(q_j) held while j advances → lag anchor.
                        Kind::Ib => relax(&mut cur[j + 1], Kind::IbL, cost),
                        // π1 = proj(q_{j+1}) is exactly Ib's anchor at j+1.
                        Kind::Ii1 => relax(&mut cur[j + 1], Kind::Ib, cost),
                        // Held anchors older than one lag are not
                        // representable; those alignments are covered
                        // (slightly more expensively) by the ins edits.
                        Kind::IbL | Kind::Ii2 => {}
                    }
                }
                // Hold T2 while T1 advances: symmetric.
                if has_t1 {
                    let e1 = p[i + 1].p;
                    let cost = base + (dab + e1.dist(b)) * dae1;
                    match k {
                        Kind::Bb | Kind::Ib | Kind::IbL => relax(&mut nxt[j], Kind::Bb, cost),
                        Kind::Bi => relax(&mut nxt[j], Kind::BiL, cost),
                        Kind::Ii2 => relax(&mut nxt[j], Kind::Bi, cost),
                        Kind::BiL | Kind::Ii1 => {}
                    }
                }
            }
        }
        if has_t1 {
            std::mem::swap(cur, nxt);
            for cell in nxt.iter_mut() {
                *cell = [inf; NKINDS];
            }
            // Early abandon. After the swap `cur` holds row `i + 1` with
            // every cross-row relaxation applied; the in-row transitions
            // still to come only add non-negative cost to existing cells,
            // so they can never lower the row minimum. That minimum
            // lower-bounds the final distance (every alignment passes
            // through each row), so a row already above the cutoff proves
            // the pair can never beat the caller's threshold.
            let row_min = cur.iter().flatten().copied().fold(f64::INFINITY, f64::min);
            if row_min > cutoff.current() {
                return row_min;
            }
        }
    }

    match mode {
        DpMode::Global => cur[m - 1][Kind::Bb as usize],
        DpMode::Sub => {
            // Free suffix skip: `t1` consumed, any position within `t2`,
            // any anchor whose `t1`-side anchor is the final sample point.
            let mut best = inf;
            for cell in cur.iter() {
                best = best
                    .min(cell[Kind::Bb as usize])
                    .min(cell[Kind::Bi as usize])
                    .min(cell[Kind::BiL as usize]);
            }
            best
        }
    }
}

/// EDwP as defined in Sec. III-A: the cumulative cost of the cheapest edit
/// sequence converting `t1` into `t2`. Symmetric and non-negative;
/// `edwp(t, t) == 0` for any `t`.
///
/// Allocates fresh DP buffers per call; hot paths evaluating many pairs
/// should hold an [`EdwpScratch`] and call [`edwp_with_scratch`] instead.
pub fn edwp(t1: &Trajectory, t2: &Trajectory) -> f64 {
    edwp_with_scratch(t1, t2, &mut EdwpScratch::new())
}

/// [`edwp`] with caller-pooled working memory: identical result, but a warm
/// `scratch` makes the call allocation-free, which is what the query
/// engine's batch workers rely on.
pub fn edwp_with_scratch(t1: &Trajectory, t2: &Trajectory, scratch: &mut EdwpScratch) -> f64 {
    run_dp(t1, t2, DpMode::Global, f64::INFINITY.into(), scratch)
}

/// [`edwp_with_scratch`] with early abandon: the DP stops as soon as a
/// completed anchor row proves the distance exceeds `cutoff`'s current
/// value (the row minimum lower-bounds the final cost — see `run_dp`).
///
/// The result is always an admissible lower bound on `edwp(t1, t2)`, and
/// it *is* the exact distance whenever it is at or below the cutoff's
/// final value — the same contract as the `_bounded` pruning kernels, so
/// k-NN engines can evaluate candidates under a live threshold and keep
/// results bitwise identical to the unbounded scan.
pub fn edwp_bounded(
    t1: &Trajectory,
    t2: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    run_dp(t1, t2, DpMode::Global, cutoff, scratch)
}

/// Length-normalised EDwP (Eq. 4):
/// `EDwP(T1, T2) / (length(T1) + length(T2))`.
///
/// Returns 0 when both trajectories have zero spatial length (two identical
/// stationary recordings).
///
/// The one-off form of [`crate::Metric::EdwpNormalized`]'s
/// [`distance`](crate::Metric::distance), which hot paths call with a
/// pooled [`EdwpScratch`].
pub fn edwp_avg(t1: &Trajectory, t2: &Trajectory) -> f64 {
    Metric::EdwpNormalized.distance(QueryMode::Whole, t1, t2, &mut EdwpScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_core::approx_eq;

    fn t(pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(pts)
    }

    #[test]
    fn identical_trajectories_have_zero_distance() {
        let a = t(&[(0.0, 0.0), (1.0, 2.0), (4.0, 4.0), (9.0, 1.0)]);
        assert!(approx_eq(edwp(&a, &a), 0.0));
        assert!(approx_eq(edwp_avg(&a, &a), 0.0));
    }

    #[test]
    fn appendix_a_values() {
        // Appendix A: T1 = [(0,0),(0,1)], T2 adds (0,2), T3 adds (0,3).
        let t1 = t(&[(0.0, 0.0), (0.0, 1.0)]);
        let t2 = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]);
        let t3 = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]);
        assert!(approx_eq(edwp(&t1, &t2), 1.0), "got {}", edwp(&t1, &t2));
        assert!(approx_eq(edwp(&t2, &t3), 1.0), "got {}", edwp(&t2, &t3));
        assert!(approx_eq(edwp(&t1, &t3), 4.0), "got {}", edwp(&t1, &t3));
    }

    #[test]
    fn triangle_inequality_is_violated() {
        // Theorem 1: EDwP(T1,T2) + EDwP(T2,T3) < EDwP(T1,T3).
        let t1 = t(&[(0.0, 0.0), (0.0, 1.0)]);
        let t2 = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]);
        let t3 = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]);
        assert!(edwp(&t1, &t2) + edwp(&t2, &t3) < edwp(&t1, &t3));
    }

    #[test]
    fn symmetric_on_paper_example() {
        // Fig. 2(a) trajectories (Example 1): T1 sparse on x=0, T2 denser
        // on x=2.
        let t1 = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (0.0, 8.0, 24.0), (8.0, 8.0, 40.0)]);
        let t2 = Trajectory::from_xyt(&[(2.0, 0.0, 0.0), (2.0, 7.0, 14.0), (7.0, 7.0, 30.0)]);
        let d12 = edwp(&t1, &t2);
        let d21 = edwp(&t2, &t1);
        assert!(approx_eq(d12, d21), "{d12} vs {d21}");
        assert!(d12 > 0.0);
    }

    #[test]
    fn example_1_first_edit_cost() {
        // Example 1: after ins(T1, T2) at (0,7,21), replacing
        // [(0,0),(0,7)] with [(2,0),(2,7)] costs dist 4, weighted by
        // coverage (7+7). The projection alignment must therefore be found
        // and beat the pure point-to-point one.
        let t1 = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (0.0, 8.0, 24.0)]);
        let t2 = Trajectory::from_xyt(&[(2.0, 0.0, 0.0), (2.0, 7.0, 14.0), (2.0, 8.0, 20.0)]);
        let d = edwp(&t1, &t2);
        assert!(d <= 64.0 + 1e-9, "projection alignment not found: {d}");
    }

    #[test]
    fn parallel_lines_distance_matches_hand_computation() {
        // Two parallel unit-speed segments at constant offset 2; the only
        // alignment is a single rep: (2 + 2) * (10 + 10) = 80.
        let t1 = t(&[(0.0, 0.0), (0.0, 10.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 10.0)]);
        assert!(approx_eq(edwp(&t1, &t2), 80.0));
        // Normalised: 80 / 20 = 4.
        assert!(approx_eq(edwp_avg(&t1, &t2), 4.0));
    }

    #[test]
    fn densified_copy_is_nearly_identical() {
        // Inserting collinear points must not change the distance to the
        // original (dynamic interpolation should find the same geometry).
        let sparse = t(&[(0.0, 0.0), (10.0, 0.0)]);
        let dense = t(&[(0.0, 0.0), (2.5, 0.0), (5.0, 0.0), (7.5, 0.0), (10.0, 0.0)]);
        let d = edwp(&sparse, &dense);
        assert!(approx_eq(d, 0.0), "expected 0, got {d}");
    }

    #[test]
    fn sampling_rate_invariance_beats_point_matching() {
        // Fig. 1(a) scenario: same path, very different sampling rates.
        // EDwP should consider them near-identical.
        let sparse = t(&[(0.0, 0.0), (0.0, 9.0)]);
        let dense = t(&[
            (0.0, 0.0),
            (0.0, 1.0),
            (0.0, 2.0),
            (0.0, 3.0),
            (0.0, 4.5),
            (0.0, 6.0),
            (0.0, 7.5),
            (0.0, 9.0),
        ]);
        assert!(edwp(&sparse, &dense) < 1e-9);
    }

    #[test]
    fn monotone_in_separation() {
        let base = t(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
        let near = t(&[(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)]);
        let far = t(&[(0.0, 5.0), (5.0, 5.0), (10.0, 5.0)]);
        assert!(edwp(&base, &near) < edwp(&base, &far));
    }

    #[test]
    fn stationary_pair() {
        let a = Trajectory::from_xyt(&[(1.0, 1.0, 0.0), (1.0, 1.0, 10.0)]);
        let b = Trajectory::from_xyt(&[(1.0, 1.0, 0.0), (1.0, 1.0, 5.0)]);
        assert!(approx_eq(edwp(&a, &b), 0.0));
        assert!(approx_eq(edwp_avg(&a, &b), 0.0));
    }

    #[test]
    fn zigzag_reversal_uses_clamped_holds() {
        // A trajectory that doubles back: the optimal alignment holds the
        // straight trajectory's anchor (clamped projection) rather than
        // walking backwards. Regression test for the IbL/BiL states.
        let straight = t(&[(0.0, 86.9), (64.0, 0.0)]);
        let zigzag = t(&[(0.0, 95.7), (73.5, 73.4), (44.0, 86.7)]);
        let d = edwp(&straight, &zigzag);
        let r = super::reference::edwp_reference(&straight, &zigzag);
        assert!(
            (d - r).abs() <= 0.02 * (1.0 + r.abs()),
            "dp {d} vs reference {r}"
        );
    }
}
