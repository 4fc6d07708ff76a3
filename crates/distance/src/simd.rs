//! Runtime-dispatched SIMD kernels for the bound-evaluation hot path.
//!
//! Every query the engine answers bottoms out in two scalar-`f64` loops:
//! the Theorem 2 box-bound accumulation in [`crate::boxes`] and the exact
//! EDwP dynamic program in `edwp`. This module vectorises both with 4-wide
//! AVX2 (`core::arch::x86_64`), behind a runtime dispatch:
//!
//! * [`Isa::current`] resolves once per process to [`Isa::Avx2`] when the
//!   CPU supports it (`is_x86_feature_detected!`) and the
//!   `TRAJ_FORCE_SCALAR` environment variable is unset (or `"0"`), and to
//!   [`Isa::Scalar`] otherwise. The resolution is cached, so dispatch is
//!   deterministic within a run.
//! * [`force_isa`] overrides the cached resolution programmatically — the
//!   hook tests and benchmarks use to exercise both paths in one process.
//!
//! # Exactness posture
//!
//! The **scalar** dispatch path is bit-for-bit today's pre-SIMD code. The
//! **vectorised box bounds** are *not* required to be bitwise-equal to the
//! scalar bounds: index exactness rests only on admissibility (every bound
//! is a true lower bound of the metric distance), which holds for both
//! paths independently and is pinned by the proptests in
//! `tests/simd_properties.rs`. The AVX2 segment-to-box kernel in fact
//! computes the same minimum through a different exact decomposition —
//! `0` when a vectorised Liang–Barsky clip finds an intersection, else the
//! minimum over both segment-endpoint-to-box distances and all four
//! box-corner-to-segment distances (for disjoint convex sets the minimum
//! distance is attained at a vertex of one of them) — so the two paths
//! agree to rounding, not to the bit.
//!
//! The **DP prologue** prepass (`DpPrologue`) is different: it feeds the
//! exact distance, so its vector lanes replicate the scalar operation
//! order exactly (IEEE add/sub/mul/div/sqrt are correctly rounded per
//! lane, and no FMA contraction is emitted from explicit intrinsics).
//! Reported distances are therefore bitwise-unchanged under either
//! dispatch. (Clamped projection parameters can differ in the *sign of
//! zero* between `vmaxpd` and scalar `clamp`; every consumer squares a
//! difference, where `±0` are indistinguishable.)
//!
//! # NaN and padding discipline
//!
//! Structure-of-arrays buffers (`BoxSoa`) pad the tail to a full 4-lane
//! block with all-`+inf` boxes. Padded lanes flow through the kernels as
//! distance `+inf` (never selected by a `min`) thanks to one invariant:
//! `vmaxpd`/`vminpd` return their **second** operand when either input is
//! NaN, so every clamp is written `min(max(x, 0), 1)` with the constant
//! second — a NaN produced by `inf · 0` inside a padded lane collapses to
//! `0` and the lane's distance stays `+inf` instead of poisoning the
//! block.

use crate::boxes::BoxSeq;
use crate::cutoff::Cutoff;
use crate::edwp::EdwpScratch;
use std::sync::atomic::{AtomicU8, Ordering};
use traj_core::{StBox, StPoint, Trajectory};

/// Vector width of the AVX2 kernels (four `f64` lanes).
pub(crate) const LANES: usize = 4;

/// The instruction-set path the distance kernels execute on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar code — bit-for-bit the pre-SIMD kernels.
    Scalar = 1,
    /// 4-wide AVX2 kernels (`x86_64` with runtime feature detection).
    Avx2 = 2,
}

/// Cached dispatch resolution: `0` = unresolved, else an [`Isa`]
/// discriminant. Relaxed ordering suffices — the resolved value is a pure
/// function of environment + CPU except under [`force_isa`], whose caller
/// owns the ordering of its own calls.
static DISPATCH: AtomicU8 = AtomicU8::new(0);

impl Isa {
    /// The dispatch path kernels use right now. Resolved once per process
    /// (environment override first, then CPU detection) and cached, so the
    /// answer — and therefore every kernel's code path — is deterministic
    /// within a run unless [`force_isa`] is called.
    #[inline]
    pub fn current() -> Isa {
        match DISPATCH.load(Ordering::Relaxed) {
            1 => Isa::Scalar,
            2 => Isa::Avx2,
            _ => {
                let resolved = resolve();
                DISPATCH.store(resolved as u8, Ordering::Relaxed);
                resolved
            }
        }
    }

    /// The best path this CPU supports, ignoring the environment override.
    pub fn available() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    }

    /// Short display name (`"scalar"` / `"avx2"`), for logs and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

/// Environment + CPU resolution: `TRAJ_FORCE_SCALAR` (any value except
/// `"0"` or empty) forces [`Isa::Scalar`]; otherwise the best supported
/// path wins.
fn resolve() -> Isa {
    if std::env::var_os("TRAJ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return Isa::Scalar;
    }
    Isa::available()
}

/// Overrides the dispatch resolution process-wide. Returns `false` (and
/// changes nothing) when the requested path is not supported by this CPU.
///
/// This is the programmatic twin of the `TRAJ_FORCE_SCALAR` environment
/// variable, intended for tests, benchmarks and operational canarying. The
/// override is global and takes effect on the *next* kernel call; flipping
/// it mid-query keeps results exact (both paths are admissible and the
/// exact DP is bitwise path-independent) but makes work counters
/// non-reproducible, so flip it between queries, not during.
pub fn force_isa(isa: Isa) -> bool {
    if isa == Isa::Avx2 && Isa::available() != Isa::Avx2 {
        return false;
    }
    DISPATCH.store(isa as u8, Ordering::Relaxed);
    true
}

/// Structure-of-arrays mirror of a box sequence: the `x`/`y` extents of
/// each box in four parallel, `+inf`-padded arrays so the AVX2 kernels can
/// load four boxes per iteration. Pooled inside [`EdwpScratch`] and
/// rebuilt lazily per kernel call (per node visit in the index), so a warm
/// scratch fills it without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct BoxSoa {
    xlo: Vec<f64>,
    xhi: Vec<f64>,
    ylo: Vec<f64>,
    yhi: Vec<f64>,
}

impl BoxSoa {
    /// Mirrors `boxes` into the SoA buffers, padding the tail to a full
    /// lane block with all-`+inf` boxes (see the module docs for why that
    /// padding is inert in every kernel).
    pub(crate) fn fill(&mut self, boxes: &[StBox]) {
        let padded = boxes.len().div_ceil(LANES) * LANES;
        self.xlo.clear();
        self.xhi.clear();
        self.ylo.clear();
        self.yhi.clear();
        for b in boxes {
            self.xlo.push(b.lo.x);
            self.xhi.push(b.hi.x);
            self.ylo.push(b.lo.y);
            self.yhi.push(b.hi.y);
        }
        for _ in boxes.len()..padded {
            self.xlo.push(f64::INFINITY);
            self.xhi.push(f64::INFINITY);
            self.ylo.push(f64::INFINITY);
            self.yhi.push(f64::INFINITY);
        }
    }

    /// Number of lanes including padding (a multiple of [`LANES`]).
    #[inline]
    pub(crate) fn padded_len(&self) -> usize {
        self.xlo.len()
    }
}

/// Caller-pooled arrays for the kind-independent cell prologue of the EDwP
/// DP: per-`j` staging of `t2`'s coordinates plus the per-row projection
/// and head-distance arrays the relax sweep reads. Lives in
/// [`EdwpScratch`]; see `run_dp` for the fill/consume protocol.
#[derive(Debug, Clone, Default)]
pub(crate) struct DpPrologue {
    /// `x` coordinates of `t2`'s points, staged for contiguous vector loads.
    pub(crate) qx: Vec<f64>,
    /// `y` coordinates of `t2`'s points.
    pub(crate) qy: Vec<f64>,
    /// `proj(q_{j+1}, seg1_i)` — the `ins`-into-`T1` split anchor.
    pub(crate) a2x: Vec<f64>,
    /// `y` of the same.
    pub(crate) a2y: Vec<f64>,
    /// `proj(p_{i+1}, seg2_j)` — the `ins`-into-`T2` split anchor.
    pub(crate) b2x: Vec<f64>,
    /// `y` of the same.
    pub(crate) b2y: Vec<f64>,
    /// `dist(p_{i+1}, q_{j+1})` — the rep head distance.
    pub(crate) d12: Vec<f64>,
    /// `dist(a2, q_{j+1})`.
    pub(crate) a2e2: Vec<f64>,
    /// `dist(p_{i+1}, b2)`.
    pub(crate) e1b2: Vec<f64>,
}

impl DpPrologue {
    /// Stages `t2`'s coordinates and sizes the per-row arrays for `m`
    /// points. Allocation-free once the buffers have grown to the largest
    /// `m` seen.
    pub(crate) fn stage_query(&mut self, q: &[StPoint]) {
        let m = q.len();
        self.qx.clear();
        self.qy.clear();
        for s in q {
            self.qx.push(s.p.x);
            self.qy.push(s.p.y);
        }
        for v in [
            &mut self.a2x,
            &mut self.a2y,
            &mut self.b2x,
            &mut self.b2y,
            &mut self.d12,
            &mut self.a2e2,
            &mut self.e1b2,
        ] {
            v.clear();
            v.resize(m, 0.0);
        }
    }

    /// Fills the per-row arrays for `j` in full 4-lane blocks of
    /// `0..m - 1`, given row `i`'s segment of `t1` (`a1 → b1`; note
    /// `e1 = p[i+1] = b1`). Returns the first `j` **not** filled — the
    /// caller completes the tail with the scalar formulas.
    ///
    /// Every lane replicates the scalar operation order of
    /// `Segment::project` + `Point::lerp` + `Point::dist` exactly (no
    /// FMA), so the filled values match a scalar fill bitwise up to the
    /// sign of zero in clamped parameters — which every consumer squares
    /// away. See the module docs.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (guaranteed by dispatch: only called when
    /// [`Isa::current`] is [`Isa::Avx2`]) and a prior
    /// [`DpPrologue::stage_query`] with `m` points.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn fill_row_avx2(&mut self, a1x: f64, a1y: f64, b1x: f64, b1y: f64) -> usize {
        use core::arch::x86_64::*;

        let m = self.qx.len();
        if m < 2 {
            return 0;
        }
        // seg1 direction and squared length, exactly as Segment::project
        // computes them (d = b - a; len_sq = d.dot(d)).
        let d1x = b1x - a1x;
        let d1y = b1y - a1y;
        let len1sq = d1x * d1x + d1y * d1y;
        let e1x = b1x;
        let e1y = b1y;

        let va1x = _mm256_set1_pd(a1x);
        let va1y = _mm256_set1_pd(a1y);
        let vd1x = _mm256_set1_pd(d1x);
        let vd1y = _mm256_set1_pd(d1y);
        let vlen1sq = _mm256_set1_pd(len1sq);
        let ve1x = _mm256_set1_pd(e1x);
        let ve1y = _mm256_set1_pd(e1y);
        let zeros = _mm256_setzero_pd();
        let ones = _mm256_set1_pd(1.0);

        let qx = self.qx.as_ptr();
        let qy = self.qy.as_ptr();
        let mut j = 0usize;
        // Full blocks only: lanes j..j+3 read q[j..j+4] (the shifted
        // "next point" load), so the last started lane needs j + 4 < m.
        while j + LANES < m {
            // e2 = q[j+1] per lane; (ax, ay) = q[j] per lane.
            let e2x = _mm256_loadu_pd(qx.add(j + 1));
            let e2y = _mm256_loadu_pd(qy.add(j + 1));
            let ax = _mm256_loadu_pd(qx.add(j));
            let ay = _mm256_loadu_pd(qy.add(j));

            // a2 = proj(e2, seg1): t = clamp(((e2 - a1) · d1) / len1sq).
            let (a2x, a2y) = if len1sq > 0.0 {
                let rx = _mm256_sub_pd(e2x, va1x);
                let ry = _mm256_sub_pd(e2y, va1y);
                let dot = _mm256_add_pd(_mm256_mul_pd(rx, vd1x), _mm256_mul_pd(ry, vd1y));
                let t = _mm256_min_pd(_mm256_max_pd(_mm256_div_pd(dot, vlen1sq), zeros), ones);
                (
                    _mm256_add_pd(va1x, _mm256_mul_pd(vd1x, t)),
                    _mm256_add_pd(va1y, _mm256_mul_pd(vd1y, t)),
                )
            } else {
                // Degenerate seg1: the projection parameter is 0, the
                // anchor is a1 (lerp at t = 0 adds an exact zero term).
                (va1x, va1y)
            };

            // b2 = proj(e1, seg2_j) with seg2 = q[j] → q[j+1], lane-wise
            // degenerate handling (len2sq == 0 ⇒ t = 0 ⇒ anchor q[j]).
            let s2x = _mm256_sub_pd(e2x, ax);
            let s2y = _mm256_sub_pd(e2y, ay);
            let len2sq = _mm256_add_pd(_mm256_mul_pd(s2x, s2x), _mm256_mul_pd(s2y, s2y));
            let rx = _mm256_sub_pd(ve1x, ax);
            let ry = _mm256_sub_pd(ve1y, ay);
            let dot2 = _mm256_add_pd(_mm256_mul_pd(rx, s2x), _mm256_mul_pd(ry, s2y));
            // The division may produce NaN/inf in degenerate lanes; the
            // NaN-safe clamp collapses those to a finite value and the
            // blend below discards them anyway.
            let traw = _mm256_div_pd(dot2, len2sq);
            let tcl = _mm256_min_pd(_mm256_max_pd(traw, zeros), ones);
            let tpos = _mm256_cmp_pd::<_CMP_GT_OQ>(len2sq, zeros);
            let t2 = _mm256_blendv_pd(zeros, tcl, tpos);
            let b2x = _mm256_add_pd(ax, _mm256_mul_pd(s2x, t2));
            let b2y = _mm256_add_pd(ay, _mm256_mul_pd(s2y, t2));

            // The three head distances (each `(Δx² + Δy²).sqrt()`, the
            // exact Point::dist order: self − other).
            let dx = _mm256_sub_pd(ve1x, e2x);
            let dy = _mm256_sub_pd(ve1y, e2y);
            let d12 = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
            let dx = _mm256_sub_pd(a2x, e2x);
            let dy = _mm256_sub_pd(a2y, e2y);
            let a2e2 = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
            let dx = _mm256_sub_pd(ve1x, b2x);
            let dy = _mm256_sub_pd(ve1y, b2y);
            let e1b2 = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));

            _mm256_storeu_pd(self.a2x.as_mut_ptr().add(j), a2x);
            _mm256_storeu_pd(self.a2y.as_mut_ptr().add(j), a2y);
            _mm256_storeu_pd(self.b2x.as_mut_ptr().add(j), b2x);
            _mm256_storeu_pd(self.b2y.as_mut_ptr().add(j), b2y);
            _mm256_storeu_pd(self.d12.as_mut_ptr().add(j), d12);
            _mm256_storeu_pd(self.a2e2.as_mut_ptr().add(j), a2e2);
            _mm256_storeu_pd(self.e1b2.as_mut_ptr().add(j), e1b2);
            j += LANES;
        }
        j
    }
}

/// Minimum **squared** distance from segment `(ax, ay) → (bx, by)` to the
/// boxes mirrored in `soa`, four boxes per iteration.
///
/// Per block: an AABB prescreen skips blocks that cannot improve the
/// running minimum; a vectorised Liang–Barsky clip detects intersection
/// (distance 0); disjoint lanes take the exact minimum over the two
/// segment-endpoint-to-box distances and the four box-corner-to-segment
/// distances — for disjoint convex sets the minimum distance is attained
/// at a vertex of one of them, so this decomposition is exact, not a
/// bound.
///
/// # Safety
///
/// Requires AVX2; guaranteed by dispatch (only reached when
/// [`Isa::current`] resolved to [`Isa::Avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn seg_min_dist_sq_avx2(soa: &BoxSoa, ax: f64, ay: f64, bx: f64, by: f64) -> f64 {
    use core::arch::x86_64::*;

    let dx = bx - ax;
    let dy = by - ay;
    let len2 = dx * dx + dy * dy;
    let (sxlo, sxhi) = if ax <= bx { (ax, bx) } else { (bx, ax) };
    let (sylo, syhi) = if ay <= by { (ay, by) } else { (by, ay) };

    let vax = _mm256_set1_pd(ax);
    let vay = _mm256_set1_pd(ay);
    let vbx = _mm256_set1_pd(bx);
    let vby = _mm256_set1_pd(by);
    let vdx = _mm256_set1_pd(dx);
    let vdy = _mm256_set1_pd(dy);
    let vlen2 = _mm256_set1_pd(len2);
    let vsxlo = _mm256_set1_pd(sxlo);
    let vsxhi = _mm256_set1_pd(sxhi);
    let vsylo = _mm256_set1_pd(sylo);
    let vsyhi = _mm256_set1_pd(syhi);
    let zeros = _mm256_setzero_pd();
    let ones = _mm256_set1_pd(1.0);
    let pinf = _mm256_set1_pd(f64::INFINITY);
    let ninf = _mm256_set1_pd(f64::NEG_INFINITY);

    // Degenerate-axis handling mirrors StBox::clip_segment: an axis the
    // segment does not traverse constrains nothing when the segment lies
    // inside the slab and rules the box out entirely otherwise.
    let deg_x = dx.abs() < f64::EPSILON;
    let deg_y = dy.abs() < f64::EPSILON;

    let mut best2 = f64::INFINITY;
    let n = soa.padded_len();
    let mut i = 0usize;
    while i < n {
        let xlo = _mm256_loadu_pd(soa.xlo.as_ptr().add(i));
        let xhi = _mm256_loadu_pd(soa.xhi.as_ptr().add(i));
        let ylo = _mm256_loadu_pd(soa.ylo.as_ptr().add(i));
        let yhi = _mm256_loadu_pd(soa.yhi.as_ptr().add(i));
        i += LANES;

        // AABB prescreen: a block where no lane can beat the running
        // minimum is skipped whole (compared squared, no sqrt). Padded
        // lanes evaluate to +inf and never pass.
        let pdx = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(xlo, vsxhi), _mm256_sub_pd(vsxlo, xhi)),
            zeros,
        );
        let pdy = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(ylo, vsyhi), _mm256_sub_pd(vsylo, yhi)),
            zeros,
        );
        let pre2 = _mm256_add_pd(_mm256_mul_pd(pdx, pdx), _mm256_mul_pd(pdy, pdy));
        if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(pre2, _mm256_set1_pd(best2))) == 0 {
            continue;
        }

        // Liang–Barsky slab clip, all four lanes at once.
        let (tminx, tmaxx) = if deg_x {
            let inside = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(vax, xlo),
                _mm256_cmp_pd::<_CMP_LE_OQ>(vax, xhi),
            );
            (
                _mm256_blendv_pd(pinf, ninf, inside),
                _mm256_blendv_pd(ninf, pinf, inside),
            )
        } else {
            let ta = _mm256_div_pd(_mm256_sub_pd(xlo, vax), vdx);
            let tb = _mm256_div_pd(_mm256_sub_pd(xhi, vax), vdx);
            (_mm256_min_pd(ta, tb), _mm256_max_pd(ta, tb))
        };
        let (tminy, tmaxy) = if deg_y {
            let inside = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GE_OQ>(vay, ylo),
                _mm256_cmp_pd::<_CMP_LE_OQ>(vay, yhi),
            );
            (
                _mm256_blendv_pd(pinf, ninf, inside),
                _mm256_blendv_pd(ninf, pinf, inside),
            )
        } else {
            let ta = _mm256_div_pd(_mm256_sub_pd(ylo, vay), vdy);
            let tb = _mm256_div_pd(_mm256_sub_pd(yhi, vay), vdy);
            (_mm256_min_pd(ta, tb), _mm256_max_pd(ta, tb))
        };
        let t0 = _mm256_max_pd(_mm256_max_pd(tminx, tminy), zeros);
        let t1 = _mm256_min_pd(_mm256_min_pd(tmaxx, tmaxy), ones);
        let hit = _mm256_cmp_pd::<_CMP_LE_OQ>(t0, t1);

        // Segment-endpoint-to-box squared distances.
        let ex = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(xlo, vax), _mm256_sub_pd(vax, xhi)),
            zeros,
        );
        let ey = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(ylo, vay), _mm256_sub_pd(vay, yhi)),
            zeros,
        );
        let da2 = _mm256_add_pd(_mm256_mul_pd(ex, ex), _mm256_mul_pd(ey, ey));
        let ex = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(xlo, vbx), _mm256_sub_pd(vbx, xhi)),
            zeros,
        );
        let ey = _mm256_max_pd(
            _mm256_max_pd(_mm256_sub_pd(ylo, vby), _mm256_sub_pd(vby, yhi)),
            zeros,
        );
        let db2 = _mm256_add_pd(_mm256_mul_pd(ex, ex), _mm256_mul_pd(ey, ey));
        let mut cand2 = _mm256_min_pd(da2, db2);

        // Box-corner-to-segment squared distances, one corner at a time.
        for (cx, cy) in [(xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi)] {
            let rx = _mm256_sub_pd(cx, vax);
            let ry = _mm256_sub_pd(cy, vay);
            let t = if len2 > 0.0 {
                let dot = _mm256_add_pd(_mm256_mul_pd(rx, vdx), _mm256_mul_pd(ry, vdy));
                // NaN-safe clamp: a padded lane's inf · 0 NaN collapses
                // to 0 because max/min return the (finite) second operand.
                _mm256_min_pd(_mm256_max_pd(_mm256_div_pd(dot, vlen2), zeros), ones)
            } else {
                zeros
            };
            let px = _mm256_add_pd(vax, _mm256_mul_pd(vdx, t));
            let py = _mm256_add_pd(vay, _mm256_mul_pd(vdy, t));
            let ex = _mm256_sub_pd(cx, px);
            let ey = _mm256_sub_pd(cy, py);
            let c2 = _mm256_add_pd(_mm256_mul_pd(ex, ex), _mm256_mul_pd(ey, ey));
            cand2 = _mm256_min_pd(cand2, c2);
        }

        // Intersected lanes are distance 0; fold the block minimum into
        // the running best.
        let d2v = _mm256_blendv_pd(cand2, zeros, hit);
        let lo = _mm256_castpd256_pd128(d2v);
        let hi = _mm256_extractf128_pd::<1>(d2v);
        let m2 = _mm_min_pd(lo, hi);
        let m1 = _mm_min_sd(m2, _mm_unpackhi_pd(m2, m2));
        let block_min = _mm_cvtsd_f64(m1);
        if block_min < best2 {
            best2 = block_min;
            if best2 == 0.0 {
                break;
            }
        }
    }
    best2
}

/// The AVX2 body of the batched AABB prescreen
/// ([`crate::edwp_lower_bound_aabb_batch`]): accumulates, for every child
/// box (lane), `Σ_e 2 · len(e) · aabb_dist(bbox(e), child)` over the query
/// pieces, writing per-lane running sums into `out` (length padded to a
/// lane multiple, pre-zeroed). Stops early once **every** lane's sum
/// strictly exceeds `cutoff` (partial sums are admissible per lane).
///
/// The accumulation order (per segment, then per lane) and every operation
/// match the scalar body exactly, so both dispatch paths produce bitwise
/// identical sums.
///
/// # Safety
///
/// Requires AVX2; `out.len()` must equal `soa.padded_len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn aabb_batch_avx2(
    soa: &BoxSoa,
    pieces: &[(traj_core::Segment, f64)],
    cutoff: f64,
    out: &mut [f64],
) {
    use core::arch::x86_64::*;

    debug_assert_eq!(out.len(), soa.padded_len());
    let zeros = _mm256_setzero_pd();
    let vcut = _mm256_set1_pd(cutoff);
    for &(e, len) in pieces {
        // Matches the scalar body: zero-length pieces contribute exactly
        // zero, and a zero weight would turn the +inf padding lanes into
        // NaN (0 · inf) and permanently disable the all-over early exit.
        if len == 0.0 {
            continue;
        }
        let (ax, ay) = (e.a.p.x, e.a.p.y);
        let (bx, by) = (e.b.p.x, e.b.p.y);
        let (sxlo, sxhi) = if ax <= bx { (ax, bx) } else { (bx, ax) };
        let (sylo, syhi) = if ay <= by { (ay, by) } else { (by, ay) };
        let vsxlo = _mm256_set1_pd(sxlo);
        let vsxhi = _mm256_set1_pd(sxhi);
        let vsylo = _mm256_set1_pd(sylo);
        let vsyhi = _mm256_set1_pd(syhi);
        let w = _mm256_set1_pd(2.0 * len);
        let mut all_over = true;
        let mut i = 0usize;
        while i < out.len() {
            let xlo = _mm256_loadu_pd(soa.xlo.as_ptr().add(i));
            let xhi = _mm256_loadu_pd(soa.xhi.as_ptr().add(i));
            let ylo = _mm256_loadu_pd(soa.ylo.as_ptr().add(i));
            let yhi = _mm256_loadu_pd(soa.yhi.as_ptr().add(i));
            let dx = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(xlo, vsxhi), _mm256_sub_pd(vsxlo, xhi)),
                zeros,
            );
            let dy = _mm256_max_pd(
                _mm256_max_pd(_mm256_sub_pd(ylo, vsyhi), _mm256_sub_pd(vsylo, yhi)),
                zeros,
            );
            let d = _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
            let sums = _mm256_add_pd(_mm256_loadu_pd(out.as_ptr().add(i)), _mm256_mul_pd(w, d));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), sums);
            all_over &= _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(sums, vcut)) == 0b1111;
            i += LANES;
        }
        if all_over {
            return;
        }
    }
}

/// [`crate::edwp_lower_bound_boxes_bounded`] on an explicitly chosen
/// dispatch path, regardless of [`Isa::current`]. Race-free alternative to
/// [`force_isa`] for comparing paths in one process (benchmarks, the
/// scalar-vs-SIMD agreement proptests). Passing [`Isa::Avx2`] on a CPU
/// without AVX2 falls back to scalar.
pub fn edwp_lower_bound_boxes_bounded_isa(
    isa: Isa,
    t: &Trajectory,
    seq: &BoxSeq,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    match isa {
        Isa::Scalar => crate::boxes::boxes_bounded_scalar(t, seq, cutoff, scratch),
        Isa::Avx2 => crate::boxes::boxes_bounded_simd(t, seq, cutoff, scratch),
    }
}

/// [`crate::edwp_lower_bound_aabb_batch`] on an explicit dispatch path
/// (see [`edwp_lower_bound_boxes_bounded_isa`] for when to prefer this
/// over [`force_isa`]). Both paths produce bitwise identical sums.
pub fn edwp_lower_bound_aabb_batch_isa(
    isa: Isa,
    t: &Trajectory,
    children: &[StBox],
    cutoff: f64,
    scratch: &mut EdwpScratch,
    out: &mut Vec<f64>,
) {
    crate::boxes::aabb_batch_dispatch(isa, t, children, cutoff, scratch, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_resolves_and_is_sticky() {
        let first = Isa::current();
        assert_eq!(Isa::current(), first, "cached resolution must not flip");
        assert!(matches!(first, Isa::Scalar | Isa::Avx2));
    }

    #[test]
    fn force_isa_round_trips() {
        let original = Isa::current();
        assert!(force_isa(Isa::Scalar));
        assert_eq!(Isa::current(), Isa::Scalar);
        if Isa::available() == Isa::Avx2 {
            assert!(force_isa(Isa::Avx2));
            assert_eq!(Isa::current(), Isa::Avx2);
        } else {
            assert!(!force_isa(Isa::Avx2), "unsupported path must be refused");
            assert_eq!(Isa::current(), Isa::Scalar);
        }
        force_isa(original);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
    }

    #[test]
    fn box_soa_pads_to_lane_multiple_with_inf() {
        let mut soa = BoxSoa::default();
        let boxes: Vec<StBox> = (0..5)
            .map(|i| {
                StBox::from_segment(&traj_core::Segment::new(
                    StPoint::new(i as f64, 0.0, 0.0),
                    StPoint::new(i as f64 + 1.0, 1.0, 1.0),
                ))
            })
            .collect();
        soa.fill(&boxes);
        assert_eq!(soa.padded_len(), 8);
        assert_eq!(soa.xlo[4], 4.0);
        assert!(soa.xlo[5..].iter().all(|v| v.is_infinite()));
        // Refill with fewer boxes shrinks the logical view.
        soa.fill(&boxes[..2]);
        assert_eq!(soa.padded_len(), 4);
    }
}
