//! Runtime-dispatched SIMD for the one kernel where it pays: the
//! segment-to-box minimum inside the Theorem 2 box bound
//! ([`crate::edwp_lower_bound_boxes_bounded`]).
//!
//! That kernel runs 4-wide AVX2 (`core::arch::x86_64`), four boxes per
//! iteration, behind a runtime dispatch:
//!
//! * [`Isa::current`] resolves once per process to [`Isa::Avx2`] when the
//!   CPU supports it (`is_x86_feature_detected!`) and the
//!   `TRAJ_FORCE_SCALAR` environment variable is unset (or `"0"`), and to
//!   [`Isa::Scalar`] otherwise. The resolution is cached, so dispatch is
//!   deterministic within a run.
//! * [`force_isa`] overrides the cached resolution programmatically — the
//!   hook tests and benchmarks use to exercise both paths in one process.
//!
//! Nothing else reads the dispatch. The box bound's AABB prologue (one
//! axis-aligned gap per query piece against the summary's overall bounding
//! box, shared by both paths, so a bail there is bit-identical on either),
//! the exact EDwP dynamic program and the batched AABB bound
//! ([`crate::edwp_lower_bound_aabb_batch`]) are scalar only: the last two
//! once had AVX2 twins that replicated the scalar operation order bit for
//! bit, and neither twin paid end to end, so they were deleted.
//!
//! # Exactness posture
//!
//! The vectorised box bound is *not* required to be bitwise-equal to the
//! scalar bound: index exactness rests only on admissibility (every bound
//! is a true lower bound of the metric distance), which holds for both
//! paths independently and is pinned by the proptests in
//! `tests/simd_properties.rs`. The AVX2 kernel computes the same minimum
//! through a different exact decomposition — `0` when a vectorised
//! Liang–Barsky clip finds an intersection, else the minimum over both
//! segment-endpoint-to-box distances and all four box-corner-to-segment
//! distances (for disjoint convex sets the minimum distance is attained at
//! a vertex of one of them) — so the two paths agree to rounding, not to
//! the bit. Reported distances never depend on dispatch.
//!
//! # NaN and padding discipline
//!
//! Structure-of-arrays buffers (`BoxSoa`) pad the tail to a full 4-lane
//! block with all-`+inf` boxes. Padded lanes flow through the kernel as
//! distance `+inf` (never selected by a `min`) thanks to one invariant:
//! `vmaxpd`/`vminpd` return their **second** operand when either input is
//! NaN, so every clamp is written `min(max(x, 0), 1)` with the constant
//! second — a NaN produced by `inf · 0` inside a padded lane collapses to
//! `0` and the lane's distance stays `+inf` instead of poisoning the
//! block.
//!
//! The kernel reads its lanes as whole `[f64; 4]` blocks of safe slices,
//! so the one precondition the compiler cannot check is the CPU feature
//! itself; `seg_min_dist_sq` asserts it before entering the kernel.

use crate::boxes::BoxSeq;
use crate::cutoff::Cutoff;
use crate::edwp::EdwpScratch;
use std::sync::atomic::{AtomicU8, Ordering};
use traj_core::{StBox, Trajectory};

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
/// it mid-query keeps results exact (both box-bound paths are admissible,
/// and nothing else reads the dispatch) but makes work counters
/// non-reproducible, so flip it between queries, not during.
pub fn force_isa(isa: Isa) -> bool {
    if isa == Isa::Avx2 && Isa::available() != Isa::Avx2 {
        return false;
    }
    DISPATCH.store(isa as u8, Ordering::Relaxed);
    true
}

/// Structure-of-arrays mirror of a box sequence: the `x`/`y` extents of
/// each box in four parallel, `+inf`-padded arrays so the AVX2 kernel can
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
    /// padding is inert in the kernel).
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

    /// The padding invariant [`BoxSoa::fill`] establishes: four arrays of
    /// one length, a whole number of lane blocks.
    fn is_padded(&self) -> bool {
        let n = self.xlo.len();
        n.is_multiple_of(LANES) && self.xhi.len() == n && self.ylo.len() == n && self.yhi.len() == n
    }
}

/// The one entry to [`seg_min_dist_sq_avx2`]: asserts that the CPU has
/// AVX2 (a cached flag read; dispatch only routes here when it does, so the
/// assert never fires) and, in debug builds, the SoA padding invariant:
/// the kernel reads whole lane blocks only, so an unpadded tail would be
/// skipped.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn seg_min_dist_sq(soa: &BoxSoa, ax: f64, ay: f64, bx: f64, by: f64) -> f64 {
    debug_assert!(soa.is_padded(), "BoxSoa lanes are not padded to a block");
    assert!(
        std::arch::is_x86_feature_detected!("avx2"),
        "AVX2 kernel entered on a CPU without AVX2"
    );
    // SAFETY: `seg_min_dist_sq_avx2` is a safe function compiled for the
    // `avx2` target feature; calling it is sound exactly when the CPU
    // supports AVX2, which the assert above has just established.
    unsafe { seg_min_dist_sq_avx2(soa, ax, ay, bx, by) }
}

/// One lane block as a vector; the four element reads compile to one
/// unaligned vector load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn lanes(l: &[f64; LANES]) -> core::arch::x86_64::__m256d {
    core::arch::x86_64::_mm256_set_pd(l[3], l[2], l[1], l[0])
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
/// Entered only through [`seg_min_dist_sq`], which checks for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn seg_min_dist_sq_avx2(soa: &BoxSoa, ax: f64, ay: f64, bx: f64, by: f64) -> f64 {
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
    // Whole lane blocks only: padding leaves no remainder to drop.
    let blocks = (soa.xlo.as_chunks::<LANES>().0.iter())
        .zip(soa.xhi.as_chunks::<LANES>().0)
        .zip(soa.ylo.as_chunks::<LANES>().0)
        .zip(soa.yhi.as_chunks::<LANES>().0);
    for (((xlo, xhi), ylo), yhi) in blocks {
        let (xlo, xhi, ylo, yhi) = (lanes(xlo), lanes(xhi), lanes(ylo), lanes(yhi));

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
    if isa == Isa::Avx2 && Isa::available() == Isa::Avx2 {
        crate::boxes::boxes_bounded_simd(t, seq, cutoff, scratch)
    } else {
        crate::boxes::boxes_bounded_scalar(t, seq, cutoff, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_core::StPoint;

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
        assert_eq!(soa.xlo.len(), 8);
        assert_eq!(soa.xlo[4], 4.0);
        assert!(soa.xlo[5..].iter().all(|v| v.is_infinite()));
        // Refill with fewer boxes shrinks the logical view.
        soa.fill(&boxes[..2]);
        assert_eq!(soa.xlo.len(), 4);
    }
}
