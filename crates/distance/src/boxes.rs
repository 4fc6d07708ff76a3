//! Trajectory box sequences (tBoxSeq, Definitions 4–5), their construction
//! (Sec. IV-B) and the admissible Theorem 2 relaxation the index prunes
//! with.
//!
//! A [`BoxSeq`] summarises a *set* of whole trajectories as an ordered
//! sequence of spatio-temporal boxes. It is built incrementally: the first
//! trajectory contributes one (degenerate) box per segment; every further
//! trajectory is aligned against the running sequence with the box-mode
//! `EDwP_sub` dynamic program (private to this module) and each consumed
//! box grows to cover the trajectory pieces matched to it, as described
//! under "Constructing tBoxSeqs".
//!
//! That alignment only decides *which box grows*: its interpolated anchors
//! are canonical (the point of a segment closest to the last consumed box),
//! so on boxes coarsened by [`BoxSeq::coalesce`] its cost can overshoot
//! `EDwP(Q, T)` of a summarised member and is no lower bound. Pruning uses
//! the strictly admissible relaxation [`edwp_lower_bound_boxes`] /
//! [`edwp_lower_bound_trajectory`] (through [`crate::Metric`], which also
//! carries the argument for why one accumulation serves both query modes),
//! which needs only the coverage invariant every construction step keeps:
//! each summarised polyline lies inside the union of the boxes.

use crate::cutoff::Cutoff;
use crate::edwp::EdwpScratch;
use crate::matrix::Matrix;
use traj_core::{Segment, StBox, StPoint, Trajectory};

/// A trajectory box sequence (tBoxSeq, Definition 5): an ordered sequence
/// of [`StBox`]es summarising a set of trajectories.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxSeq {
    boxes: Vec<StBox>,
}

/// One replace operation recovered from the box-mode alignment traceback:
/// the piece of the trajectory (a straight sub-segment) that was matched to
/// the box at `box_idx`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RepOp {
    box_idx: usize,
    piece: Segment,
}

impl BoxSeq {
    /// `createTBoxSeq(T)`: one tight box per segment of `t`.
    pub fn from_trajectory(t: &Trajectory) -> Self {
        BoxSeq {
            boxes: t.segments().map(|e| StBox::from_segment(&e)).collect(),
        }
    }

    /// Builds a tBoxSeq over a set of trajectories with the paper's
    /// iterative procedure: seed with the first, then merge each remaining
    /// trajectory via its alignment. `max_boxes` optionally coalesces the
    /// sequence to bound its length (`None` leaves it unbounded).
    pub fn from_trajectories<'a, I>(mut trajs: I, max_boxes: Option<usize>) -> Option<Self>
    where
        I: Iterator<Item = &'a Trajectory>,
    {
        let first = trajs.next()?;
        let mut seq = BoxSeq::from_trajectory(first);
        seq.coalesce(max_boxes);
        for t in trajs {
            seq = seq.merge_trajectory(t);
            seq.coalesce(max_boxes);
        }
        Some(seq)
    }

    /// Builds a tBoxSeq directly from a box sequence — the roll-up
    /// constructor for summaries-of-summaries. Every admissible lower
    /// bound over a tBoxSeq ([`edwp_lower_bound_boxes`] and friends)
    /// depends only on the *coverage* invariant — each summarised
    /// trajectory's polyline lies inside the union of the boxes — and
    /// takes a minimum over all boxes per query segment, so concatenating
    /// the box sequences of several child summaries (and optionally
    /// [`BoxSeq::coalesce`]-ing, which only unions boxes) yields a valid
    /// summary of their combined member sets without re-aligning a single
    /// trajectory. The sequence *order* only matters to the construction
    /// alignment ([`BoxSeq::merge_trajectory`]), where a coarser order
    /// costs summary quality, never correctness.
    pub fn from_boxes(boxes: Vec<StBox>) -> Self {
        BoxSeq { boxes }
    }

    /// The boxes in sequence order.
    #[inline]
    pub fn boxes(&self) -> &[StBox] {
        &self.boxes
    }

    /// Number of boxes (`|B|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// `true` when the sequence has no boxes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// The overall bounding box: the union of all boxes, `None` when the
    /// sequence is empty.
    pub fn bbox(&self) -> Option<StBox> {
        self.boxes.iter().copied().reduce(|acc, b| acc.union(&b))
    }

    /// `Vol(B)`: the sum of box volumes (Definition 5).
    pub fn volume(&self) -> f64 {
        self.boxes.iter().map(|b| b.volume()).sum()
    }

    /// `createTBoxSeq(T, B)`: merges trajectory `t` into this sequence.
    /// The `EDwP_sub` alignment is computed and each *consumed* box is
    /// grown to the union of itself and every trajectory piece matched to
    /// it; skipped prefix/suffix boxes are kept as-is.
    ///
    /// One output box is emitted per consumed input box — never one per
    /// replace operation. Duplicating a box once per operation would force
    /// previously merged trajectories to pay extra `ins` edits to traverse
    /// the copies, which can push the sequence's `EDwP_sub` above the true
    /// `EDwP` of a member and break the Theorem 2 lower bound (observed as
    /// large admissibility violations in the property tests).
    pub fn merge_trajectory(&self, t: &Trajectory) -> BoxSeq {
        let ops = align_boxes(t, self);
        let first_used = ops.iter().map(|o| o.box_idx).min();
        let last_used = ops.iter().map(|o| o.box_idx).max();
        let (first_used, last_used) = match (first_used, last_used) {
            (Some(f), Some(l)) => (f, l),
            _ => return self.clone(), // no ops: nothing aligned, keep as-is
        };
        let mut out = Vec::with_capacity(self.boxes.len());
        out.extend_from_slice(&self.boxes[..first_used]);
        let mut current: Option<(usize, StBox)> = None;
        for op in &ops {
            match &mut current {
                Some((idx, grown)) if *idx == op.box_idx => grown.expand_to_segment(&op.piece),
                _ => {
                    if let Some((idx, grown)) = current.take() {
                        out.push(grown);
                        // Preserve any in-range boxes the alignment stepped
                        // past without recording an op (defensive: advances
                        // are one box at a time, so this is normally empty).
                        out.extend_from_slice(&self.boxes[idx + 1..op.box_idx]);
                    }
                    let mut grown = self.boxes[op.box_idx];
                    grown.expand_to_segment(&op.piece);
                    current = Some((op.box_idx, grown));
                }
            }
        }
        if let Some((_, grown)) = current {
            out.push(grown);
        }
        out.extend_from_slice(&self.boxes[last_used + 1..]);
        BoxSeq { boxes: out }
    }

    /// Greedily unions adjacent boxes until at most `max` remain, choosing
    /// at each step the neighbouring pair whose union grows total volume
    /// least. Keeps tBoxSeqs bounded as more trajectories merge in (the
    /// paper leaves this engineering concern open).
    pub fn coalesce(&mut self, max: Option<usize>) {
        let Some(max) = max else { return };
        let max = max.max(1);
        while self.boxes.len() > max {
            let mut best = (0usize, f64::INFINITY);
            for i in 0..self.boxes.len() - 1 {
                let grown = self.boxes[i].union(&self.boxes[i + 1]).volume()
                    - self.boxes[i].volume()
                    - self.boxes[i + 1].volume();
                if grown < best.1 {
                    best = (i, grown);
                }
            }
            let merged = self.boxes[best.0].union(&self.boxes[best.0 + 1]);
            self.boxes[best.0] = merged;
            self.boxes.remove(best.0 + 1);
        }
    }
}

/// Provably admissible lower bound on `EDwP(t, T)` for every trajectory `T`
/// summarised by `seq` — the bound that drives TrajTree's exact k-NN search.
///
/// Derivation (a relaxation of the Theorem 2 construction): every replace
/// operation in an optimal EDwP alignment costs
/// `(dist(a, b) + dist(e1, e2)) · (len(q_piece) + len(t_piece))` where `b`
/// and `e2` lie on `T`, and `T`'s polyline is contained in the union of
/// `seq`'s boxes (the coverage invariant maintained by
/// [`BoxSeq::merge_trajectory`] and [`BoxSeq::coalesce`]). Both distance
/// terms are therefore at least the minimum distance from the query piece's
/// segment to the nearest box, and the query pieces of each segment tile its
/// length, giving `EDwP(t, T) ≥ Σ_i 2 · len(e_i) · min_b dist(e_i, b)`.
///
/// The bound never exceeds the true distance, so best-first search pruned
/// with it stays exact; it is loose when the query runs close to the boxes,
/// which only costs extra refinement work. This plain iterator form is the
/// independent reference the pooled, dispatched
/// [`edwp_lower_bound_boxes_bounded`] is tested against.
pub fn edwp_lower_bound_boxes(t: &Trajectory, seq: &BoxSeq) -> f64 {
    if seq.is_empty() {
        return f64::INFINITY;
    }
    t.segments()
        .map(|e| {
            let d = seq
                .boxes()
                .iter()
                .map(|b| b.closest_param_on_segment(&e).1)
                .fold(f64::INFINITY, f64::min);
            2.0 * d * e.length()
        })
        .sum()
}

/// [`edwp_lower_bound_boxes`] as the search engine evaluates it: the
/// query's `(segment, length)` pieces come from `scratch` (a query pinned
/// with [`EdwpScratch::set_query`] is decomposed once per search instead of
/// once per bound, and a warm scratch makes the call allocation-free), and
/// the per-segment accumulation bails as soon as the partial sum *strictly*
/// exceeds the cutoff's current value (the collector's pruning threshold),
/// returning the partial sum. Pass `f64::INFINITY.into()` for the full
/// bound.
///
/// `cutoff` is a [`Cutoff`], a constant (`threshold.into()`).
///
/// Every partial sum is itself an admissible lower bound (all terms are
/// non-negative), so the returned value can be used as a priority-queue key
/// unchanged. The contract callers rely on:
///
/// * `result <= cutoff.current()` implies the accumulation ran to
///   completion, so `result` equals the full bound bit-for-bit;
/// * a bailed result implies the full bound also exceeds the cutoff value
///   the bail compared against (the partial sum never overshoots the
///   total), so the pruning decision is identical — only cheaper.
///
/// The comparison is strict so a bound that lands exactly *on* the
/// threshold is still returned in full: the engine keeps expanding ties to
/// preserve id-order tie-breaking against the brute-force reference.
///
/// # Dispatch
///
/// This entry point runs on the instruction-set path
/// [`crate::simd::Isa::current`] resolves to: the scalar kernel (bit-for-bit
/// the historical code) or a 4-wide AVX2 kernel evaluating four boxes per
/// iteration. Both are admissible and honour the cutoff contract above;
/// their values agree to rounding, not to the bit (the AVX2 kernel computes
/// the same segment-to-box minimum through a different exact
/// decomposition — see [`crate::simd`]). Use
/// [`crate::simd::edwp_lower_bound_boxes_bounded_isa`] to pin a path
/// explicitly.
pub fn edwp_lower_bound_boxes_bounded(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    match crate::simd::Isa::current() {
        crate::simd::Isa::Scalar => boxes_bounded_scalar(t, seq, cutoff, scratch),
        crate::simd::Isa::Avx2 => boxes_bounded_simd(t, seq, cutoff, scratch),
    }
}

/// Scalar body of [`edwp_lower_bound_boxes_bounded`] — bit-for-bit the
/// pre-SIMD kernel, and the dispatch target under `TRAJ_FORCE_SCALAR`.
pub(crate) fn boxes_bounded_scalar(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    if seq.is_empty() {
        return f64::INFINITY;
    }
    let boxes = seq.boxes();
    let mut sum = 0.0;
    for (e, len) in scratch.query_pieces(t) {
        // The minimum over boxes is computed with a cheap prescreen: the
        // axis-aligned distance between the segment's bounding box and a
        // summary box never exceeds the true segment-to-box distance, so a
        // box whose prescreen already matches or exceeds the running
        // minimum cannot improve it — the exact edge computation is
        // skipped without changing the minimum (compared squared, no
        // sqrt). A zero minimum ends the sweep: distances are
        // non-negative.
        let (exlo, exhi) = minmax(e.a.p.x, e.b.p.x);
        let (eylo, eyhi) = minmax(e.a.p.y, e.b.p.y);
        let mut d = f64::INFINITY;
        let mut d2 = f64::INFINITY;
        for b in boxes {
            let dx = (b.lo.x - exhi).max(exlo - b.hi.x).max(0.0);
            let dy = (b.lo.y - eyhi).max(eylo - b.hi.y).max(0.0);
            if dx * dx + dy * dy >= d2 {
                continue;
            }
            let v = b.closest_param_on_segment(e).1;
            if v < d {
                d = v;
                d2 = v * v;
                if v == 0.0 {
                    break;
                }
            }
        }
        sum += 2.0 * d * len;
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// AVX2 body of [`edwp_lower_bound_boxes_bounded`]: mirrors the box
/// sequence into the scratch's SoA buffers once per call, then evaluates
/// each query piece's segment-to-box minimum four boxes per iteration
/// (lane-wise AABB prescreen, vectorised clip test, exact corner/endpoint
/// decomposition — see [`crate::simd::seg_min_dist_sq_avx2`]). Same
/// admissibility and cutoff contract as the scalar body.
#[cfg(target_arch = "x86_64")]
pub(crate) fn boxes_bounded_simd(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    if seq.is_empty() {
        return f64::INFINITY;
    }
    let (pieces, soa) = scratch.pieces_and_soa(t);
    soa.fill(seq.boxes());
    let mut sum = 0.0;
    for &(e, len) in pieces {
        let d2 = crate::simd::seg_min_dist_sq(soa, e.a.p.x, e.a.p.y, e.b.p.x, e.b.p.y);
        sum += 2.0 * d2.sqrt() * len;
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// Cross-architecture stand-in: without `x86_64` there is no AVX2 path, so
/// an explicit [`crate::simd::Isa::Avx2`] request falls back to scalar.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn boxes_bounded_simd(
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    boxes_bounded_scalar(t, seq, cutoff, scratch)
}

/// Batched AABB prescreen against a set of candidate boxes: writes into
/// `out[c]` the admissible lower bound
/// `Σ_e 2 · len(e) · aabb_dist(bbox(e), children[c])` over `t`'s segments —
/// [`edwp_lower_bound_boxes_bounded`]'s cheap prescreen distance, but
/// evaluated for *all* candidates in one dense sweep instead of one branchy
/// loop per candidate. The engine uses this to prescreen every child of an
/// expanded index node before paying for exact per-child bounds.
///
/// Admissibility: the axis-aligned distance between `e`'s bounding box and
/// `children[c]` never exceeds the true segment-to-box distance to *any*
/// box contained in `children[c]`, so when `children[c]` encloses a node's
/// summary boxes, `out[c]` never exceeds that node's
/// [`edwp_lower_bound_boxes`] — and hence never exceeds the EDwP (or
/// `EDwP_sub`; the relaxation is one-sided, see
/// [`crate::Metric::lower_bound_boxes`]) distance to any summarised
/// trajectory.
///
/// The accumulation stops early once **every** candidate's running sum
/// strictly exceeds `cutoff`; partial sums are admissible per candidate, so
/// `out` is usable either way.
///
/// Scalar on every dispatch path; [`crate::simd`] says why.
pub fn edwp_lower_bound_aabb_batch(
    t: &Trajectory,
    children: &[StBox],
    cutoff: f64,
    scratch: &mut EdwpScratch,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.resize(children.len(), 0.0);
    for &(e, len) in scratch.query_pieces(t) {
        // Zero-length pieces contribute exactly zero to every sum.
        if len == 0.0 {
            continue;
        }
        let (exlo, exhi) = minmax(e.a.p.x, e.b.p.x);
        let (eylo, eyhi) = minmax(e.a.p.y, e.b.p.y);
        let w = 2.0 * len;
        let mut all_over = true;
        for (sum, b) in out.iter_mut().zip(children) {
            let dx = (b.lo.x - exhi).max(exlo - b.hi.x).max(0.0);
            let dy = (b.lo.y - eyhi).max(eylo - b.hi.y).max(0.0);
            *sum += w * (dx * dx + dy * dy).sqrt();
            all_over &= *sum > cutoff;
        }
        if all_over {
            return;
        }
    }
}

/// `(min, max)` of two floats, compared directly (inputs are coordinates,
/// never NaN).
#[inline]
fn minmax(a: f64, b: f64) -> (f64, f64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The trajectory-to-trajectory analogue of [`edwp_lower_bound_boxes`]:
/// `EDwP(t, s) ≥ Σ_i 2 · len(e_i) · dist(e_i, s)` with exact
/// segment-to-polyline distances instead of box distances. Tighter than the
/// box bound (boxes enclose the segments they summarise), and used to
/// refine leaf candidates before paying for a full EDwP evaluation. Like
/// [`edwp_lower_bound_boxes`], the plain reference form of its `_bounded`
/// twin.
pub fn edwp_lower_bound_trajectory(t: &Trajectory, s: &Trajectory) -> f64 {
    t.segments()
        .map(|e| {
            let d = s
                .segments()
                .map(|f| e.closest_params(&f).2)
                .fold(f64::INFINITY, f64::min);
            2.0 * d * e.length()
        })
        .sum()
}

/// [`edwp_lower_bound_trajectory`] as the search engine evaluates it —
/// pooled query pieces and the same cutoff contract as
/// [`edwp_lower_bound_boxes_bounded`]: bails (strictly) above the cutoff's
/// current value with an admissible partial sum, and a returned value
/// `<= cutoff` is the full bound bit-for-bit.
pub fn edwp_lower_bound_trajectory_bounded(
    t: &Trajectory,
    s: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    let mut sum = 0.0;
    for (e, len) in scratch.query_pieces(t) {
        sum += 2.0 * dist_to_polyline(e, s.segments()) * len;
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// The whole-mode member bound `LB(q, s) + LB(s, q)`: the one-sided
/// [`edwp_lower_bound_trajectory_bounded`] plus, for each segment `f` of
/// `s`, `2 · len(f) · dist(f, q)` over the pooled query pieces. Sound only
/// when both sides are fully consumed — the argument is on
/// [`crate::Metric::lower_bound_trajectory`]. The reverse half runs only
/// when the forward half is within the cutoff, under the same strict bail,
/// so the cutoff contract of the one-sided kernel carries over unchanged.
pub(crate) fn edwp_lower_bound_trajectory_two_sided_bounded(
    q: &Trajectory,
    s: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    let mut sum = edwp_lower_bound_trajectory_bounded(q, s, cutoff, scratch);
    if sum > cutoff.current() {
        return sum;
    }
    let pieces = scratch.query_pieces(q);
    for f in s.segments() {
        sum += 2.0 * dist_to_polyline(&f, pieces.iter().map(|&(e, _)| e)) * f.length();
        if sum > cutoff.current() {
            return sum;
        }
    }
    sum
}

/// `min_f dist(e, f)` over the segments `others` of a polyline — the inner
/// loop of both halves of the member bound. The axis-aligned distance
/// between the two segments' bounding boxes lower-bounds their true
/// distance, so a segment that cannot improve the running minimum skips
/// the exact closest-point computation without changing the result.
#[inline]
fn dist_to_polyline(e: &Segment, others: impl Iterator<Item = Segment>) -> f64 {
    let (exlo, exhi) = minmax(e.a.p.x, e.b.p.x);
    let (eylo, eyhi) = minmax(e.a.p.y, e.b.p.y);
    let mut d = f64::INFINITY;
    let mut d2 = f64::INFINITY;
    for f in others {
        let (fxlo, fxhi) = minmax(f.a.p.x, f.b.p.x);
        let (fylo, fyhi) = minmax(f.a.p.y, f.b.p.y);
        let dx = (fxlo - exhi).max(exlo - fxhi).max(0.0);
        let dy = (fylo - eyhi).max(eylo - fyhi).max(0.0);
        if dx * dx + dy * dy >= d2 {
            continue;
        }
        let v = e.closest_params(&f).2;
        if v < d {
            d = v;
            d2 = v * v;
            if v == 0.0 {
                break;
            }
        }
    }
    d
}

/// DP state kinds for the box-mode alignment.
const AT_SAMPLE: usize = 0;
const INTERP: usize = 1;

/// Index into flattened `(j, k)` matrices.
#[inline]
fn col(j: usize, k: usize) -> usize {
    j * 2 + k
}

/// The reverse projection of every segment of `t` onto every box: cell
/// `(i, j)` holds the point of segment `i` closest to box `j` and that
/// point's distance to box `j`. The projection depends only on the pair,
/// yet the DP needs it at up to three states per cell (both anchor kinds'
/// `ins(T, B)` edit and the interpolated anchor of `(i, j + 1, INTERP)`),
/// and traceback again — so it is computed once, before the DP.
struct Projections {
    boxes: usize,
    cells: Vec<(StPoint, f64)>,
}

impl Projections {
    fn new(t: &Trajectory, boxes: &[StBox]) -> Self {
        let mut cells = Vec::with_capacity((t.num_points() - 1) * boxes.len());
        for seg in t.segments() {
            cells.extend(boxes.iter().map(|b| {
                let (param, _) = b.closest_param_on_segment(&seg);
                let pt = seg.point_at(param);
                (pt, b.dist_to_point(pt.p))
            }));
        }
        Projections {
            boxes: boxes.len(),
            cells,
        }
    }

    /// The point of segment `i` closest to box `j`, and its distance to
    /// box `j`.
    #[inline]
    fn get(&self, i: usize, j: usize) -> (StPoint, f64) {
        self.cells[i * self.boxes + j]
    }
}

/// Aligns `t` against `seq` with the box-mode `EDwP_sub` dynamic program
/// (`O(|t| · |B|)`) and returns the replace operations of an optimal
/// alignment, in trajectory order — which piece of `t` each consumed box
/// must grow to cover. Empty when `seq` has no boxes.
fn align_boxes(t: &Trajectory, seq: &BoxSeq) -> Vec<RepOp> {
    let proj = Projections::new(t, seq.boxes());
    let mut trace = TraceTable::new(t.num_points(), seq.len());
    run_box_dp(t, seq, &proj, &mut trace);
    trace.reconstruct(t, &proj)
}

/// Encodes the DP op that produced a state, for traceback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    None,
    Start,
    /// rep: consume segment `i` (from its anchor) and box `j`.
    Rep,
    /// ins into `t`: consume box `j` against a split piece of segment `i`.
    InsT,
    /// ins into the box sequence: consume segment `i`, stay on box `j`.
    InsB,
}

struct TraceTable {
    cols: usize,
    /// Per state: (op, predecessor i, predecessor j, predecessor k).
    from: Vec<(Op, u32, u32, u8)>,
    /// Cheapest terminal state (set by `run_box_dp`).
    terminal: (usize, usize, usize),
}

impl TraceTable {
    fn new(n: usize, kboxes: usize) -> Self {
        let cols = (kboxes + 1) * 2;
        TraceTable {
            cols,
            from: vec![(Op::None, 0, 0, 0); n * cols],
            terminal: (0, 0, AT_SAMPLE),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, k: usize, v: (Op, u32, u32, u8)) {
        self.from[i * self.cols + col(j, k)] = v;
    }

    #[inline]
    fn get(&self, i: usize, j: usize, k: usize) -> (Op, u32, u32, u8) {
        self.from[i * self.cols + col(j, k)]
    }

    /// Walks parents back from the best terminal state (recorded by
    /// `run_box_dp`), emitting the rep pieces in forward order.
    fn reconstruct(&self, t: &Trajectory, proj: &Projections) -> Vec<RepOp> {
        let (mut i, mut j, mut k) = self.terminal;
        let mut ops_rev = Vec::new();
        loop {
            let (op, pi, pj, pk) = self.get(i, j, k);
            match op {
                Op::Start | Op::None => break,
                Op::Rep | Op::InsB => {
                    // Piece: from predecessor anchor to p[i] (i advanced).
                    let (pi_, pj_, pk_) = (pi as usize, pj as usize, pk as usize);
                    let from_pt = anchor_point(t, proj, pi_, pj_, pk_);
                    let to_pt = t.points()[i];
                    ops_rev.push(RepOp {
                        box_idx: if op == Op::Rep { j - 1 } else { j },
                        piece: Segment::new(from_pt, to_pt),
                    });
                    i = pi_;
                    j = pj_;
                    k = pk_;
                }
                Op::InsT => {
                    let (pi_, pj_, pk_) = (pi as usize, pj as usize, pk as usize);
                    let from_pt = anchor_point(t, proj, pi_, pj_, pk_);
                    let to_pt = anchor_point(t, proj, i, j, k);
                    ops_rev.push(RepOp {
                        box_idx: j - 1,
                        piece: Segment::new(from_pt, to_pt),
                    });
                    i = pi_;
                    j = pj_;
                    k = pk_;
                }
            }
        }
        ops_rev.reverse();
        ops_rev
    }
}

/// The anchor st-point of a DP state: sample `i` itself, or for
/// `(i, j, INTERP)` the point on segment `i` closest to box `j - 1` (the
/// last consumed box).
fn anchor_point(t: &Trajectory, proj: &Projections, i: usize, j: usize, k: usize) -> StPoint {
    if k == AT_SAMPLE {
        t.points()[i]
    } else {
        proj.get(i, j - 1).0
    }
}

/// The box-mode DP: relaxes every state's three edits, recording each
/// improving predecessor and finally the cheapest terminal state in
/// `trace`. Replacement costs use point-to-box distances and the paper's
/// `Coverage(T.e, B.b) = length(e) + b.minL`; when a box is consumed by
/// several segments (the box-split `ins(B, T)` edit) the `minL` term is
/// charged only on the step that advances past the box.
fn run_box_dp(t: &Trajectory, seq: &BoxSeq, proj: &Projections, trace: &mut TraceTable) {
    let n = t.num_points();
    let kboxes = seq.len();
    if kboxes == 0 {
        return;
    }
    let boxes = seq.boxes();
    let p = t.points();
    let inf = f64::INFINITY;
    // Full table (traceback needs it); j ∈ [0, kboxes], k ∈ {AT_SAMPLE, INTERP}.
    let cols = (kboxes + 1) * 2;
    let mut dp = Matrix::filled(n, cols, inf);
    for j in 0..kboxes {
        dp.set(0, col(j, AT_SAMPLE), 0.0);
        trace.set(0, j, AT_SAMPLE, (Op::Start, 0, 0, 0));
    }

    // No edit leaves the last row (`t` consumed) or the column past the
    // last box, so their states are only read as terminals below.
    for i in 0..n - 1 {
        for (j, b) in boxes.iter().enumerate() {
            for k in [AT_SAMPLE, INTERP] {
                let base = dp.get(i, col(j, k));
                if !base.is_finite() {
                    continue;
                }
                let a = anchor_point(t, proj, i, j, k);
                let e1 = p[i + 1];
                let bd_a = b.dist_to_point(a.p);
                let bd_e1 = b.dist_to_point(e1.p);
                // rep: consume segment i and box j.
                let rep = (bd_a + bd_e1) * (a.dist(e1) + b.min_len);
                if dp.relax(i + 1, col(j + 1, AT_SAMPLE), base + rep) {
                    trace.set(
                        i + 1,
                        j + 1,
                        AT_SAMPLE,
                        (Op::Rep, i as u32, j as u32, k as u8),
                    );
                }
                // ins into t: split segment i at its closest point to box
                // j; consume the box against the split piece.
                let (pi_pt, bd_pi) = proj.get(i, j);
                let ins_t = (bd_a + bd_pi) * (a.dist(pi_pt) + b.min_len);
                if dp.relax(i, col(j + 1, INTERP), base + ins_t) {
                    trace.set(i, j + 1, INTERP, (Op::InsT, i as u32, j as u32, k as u8));
                }
                // ins into B: consume segment i, stay on box j (no minL:
                // the box is not advanced past).
                let ins_b = (bd_a + bd_e1) * a.dist(e1);
                if dp.relax(i + 1, col(j, AT_SAMPLE), base + ins_b) {
                    trace.set(i + 1, j, AT_SAMPLE, (Op::InsB, i as u32, j as u32, k as u8));
                }
            }
        }
    }

    // Terminal: `t` consumed (row n-1), any box progress, any anchor kind.
    let mut best = inf;
    for j in 0..=kboxes {
        for k in [AT_SAMPLE, INTERP] {
            let v = dp.get(n - 1, col(j, k));
            if v < best {
                best = v;
                trace.terminal = (n - 1, j, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{edwp, Metric, QueryMode};
    use traj_core::approx_eq;

    fn t(pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(pts)
    }

    #[test]
    fn from_trajectory_one_box_per_segment() {
        let a = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0)]);
        let seq = BoxSeq::from_trajectory(&a);
        assert_eq!(seq.len(), 2);
        assert!(seq.boxes()[0].contains_point(traj_core::Point::new(1.0, 1.0)));
    }

    #[test]
    fn alignment_ops_are_monotone_and_cover_the_trajectory() {
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let seq = BoxSeq::from_trajectory(&t1);
        let ops = align_boxes(&t2, &seq);
        assert!(!ops.is_empty());
        for w in ops.windows(2) {
            assert!(w[0].box_idx <= w[1].box_idx);
        }
        let first = ops.first().unwrap();
        let last = ops.last().unwrap();
        assert!(approx_eq(first.piece.a.dist(t2.first()), 0.0));
        assert!(approx_eq(last.piece.b.dist(t2.last()), 0.0));
    }

    #[test]
    fn merge_expands_boxes_to_cover_new_trajectory() {
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let seq = BoxSeq::from_trajectory(&t1).merge_trajectory(&t2);
        // Every point of both trajectories must be inside some box.
        for tr in [&t1, &t2] {
            for s in tr.points() {
                assert!(
                    seq.boxes().iter().any(|b| b.contains_point(s.p)),
                    "point {:?} not covered",
                    s.p
                );
            }
        }
        // And the merged volume is at least the original.
        assert!(seq.volume() >= BoxSeq::from_trajectory(&t1).volume() - 1e-9);
    }

    #[test]
    fn merge_keeps_sequence_order() {
        let t1 = t(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let t2 = t(&[(0.0, 1.0), (15.0, 1.0), (30.0, 1.0)]);
        let seq = BoxSeq::from_trajectory(&t1).merge_trajectory(&t2);
        // Box x-extents should be (weakly) ordered left to right.
        for w in seq.boxes().windows(2) {
            assert!(w[0].lo.x <= w[1].hi.x + 1e-9);
        }
    }

    #[test]
    fn coalesce_caps_length() {
        let t1 = t(&[
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 0.0),
            (3.0, 0.0),
            (4.0, 0.0),
            (5.0, 0.0),
        ]);
        let mut seq = BoxSeq::from_trajectory(&t1);
        assert_eq!(seq.len(), 5);
        seq.coalesce(Some(2));
        assert_eq!(seq.len(), 2);
        // Coverage preserved.
        for s in t1.points() {
            assert!(seq.boxes().iter().any(|b| b.contains_point(s.p)));
        }
    }

    #[test]
    fn empty_boxseq_is_infinitely_far() {
        let q = t(&[(0.0, 0.0), (1.0, 0.0)]);
        let seq = BoxSeq { boxes: vec![] };
        assert!(edwp_lower_bound_boxes(&q, &seq).is_infinite());
        // Nothing to align against: merging leaves the sequence empty.
        assert!(align_boxes(&q, &seq).is_empty());
        assert!(seq.merge_trajectory(&q).is_empty());
    }

    #[test]
    fn lower_bound_boxes_is_admissible_on_members() {
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let mut seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        seq.coalesce(Some(2));
        let q = t(&[(1.0, 1.0), (1.0, 6.0), (6.0, 6.0)]);
        let lb = edwp_lower_bound_boxes(&q, &seq);
        assert!(lb <= edwp(&q, &t1) + 1e-9);
        assert!(lb <= edwp(&q, &t2) + 1e-9);
    }

    #[test]
    fn lower_bound_boxes_is_positive_when_far() {
        let far = t(&[(100.0, 100.0), (110.0, 100.0)]);
        let seq = BoxSeq::from_trajectory(&t(&[(0.0, 0.0), (10.0, 0.0)]));
        // Separation ≥ ~134, query length 10: bound ≥ 2 · 10 · 134.
        let lb = edwp_lower_bound_boxes(&far, &seq);
        assert!(lb > 2.0 * 10.0 * 130.0, "lb too weak: {lb}");
        assert!(lb <= edwp(&far, &t(&[(0.0, 0.0), (10.0, 0.0)])) + 1e-9);
    }

    #[test]
    fn lower_bound_trajectory_tighter_than_boxes() {
        let q = t(&[(5.0, 5.0), (9.0, 9.0)]);
        let s = t(&[(0.0, 0.0), (1.0, 4.0), (4.0, 1.0)]);
        let via_boxes = edwp_lower_bound_boxes(&q, &BoxSeq::from_trajectory(&s));
        let via_polyline = edwp_lower_bound_trajectory(&q, &s);
        assert!(via_boxes <= via_polyline + 1e-9);
        assert!(via_polyline <= edwp(&q, &s) + 1e-9);
    }

    #[test]
    fn lower_bound_zero_for_own_boxes() {
        let a = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0)]);
        let seq = BoxSeq::from_trajectory(&a);
        assert!(approx_eq(edwp_lower_bound_boxes(&a, &seq), 0.0));
        assert!(approx_eq(edwp_lower_bound_trajectory(&a, &a), 0.0));
    }

    #[test]
    fn sub_lower_bound_is_admissible_against_edwp_sub() {
        // The sub-mode bound must stay below EDwP_sub — a strictly smaller
        // target than EDwP — even on coarse boxes.
        let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0)]);
        let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0)]);
        let mut seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        seq.coalesce(Some(2));
        // A short probe matching only a *portion* of the members.
        let q = t(&[(1.0, 1.0), (1.0, 5.0)]);
        let mut scratch = EdwpScratch::new();
        let open = Cutoff::constant(f64::INFINITY);
        let lb = Metric::Edwp.lower_bound_boxes(QueryMode::Sub, &q, &seq, 0.0, open, &mut scratch);
        for member in [&t1, &t2] {
            let d = crate::edwp_sub(&q, member);
            assert!(lb <= d + 1e-9, "sub box bound {lb} > edwp_sub {d}");
            let poly =
                Metric::Edwp.lower_bound_trajectory(QueryMode::Sub, &q, member, open, &mut scratch);
            assert!(poly <= d + 1e-9, "sub polyline bound {poly} > edwp_sub {d}");
            // The whole-mode member bound also charges the member's own
            // segments, which a sub match skips: here it overshoots.
            let whole = Metric::Edwp.lower_bound_trajectory(
                QueryMode::Whole,
                &q,
                member,
                open,
                &mut scratch,
            );
            assert!(whole > d, "two-sided bound {whole} <= edwp_sub {d}");
        }
    }

    #[test]
    fn query_inside_boxes_costs_nothing() {
        // A query fully inside a fat box sequence must have lower bound 0.
        let t1 = t(&[(0.0, 0.0), (10.0, 10.0)]);
        let t2 = t(&[(10.0, 0.0), (0.0, 10.0)]);
        let seq = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
        let q = t(&[(4.0, 5.0), (5.0, 5.0), (6.0, 5.0)]);
        assert!(approx_eq(edwp_lower_bound_boxes(&q, &seq), 0.0));
    }
}
