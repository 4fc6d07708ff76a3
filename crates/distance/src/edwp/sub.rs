//! `EDwP_sub` between two trajectories (Sec. IV-B, Eqs. 5–6).
//!
//! `PrefixDist(T, S)` differs from EDwP only in its termination rules: when
//! `T` is exhausted the remaining suffix of `S` is skipped for free, and
//! `EDwP_sub(T, S) = min_i PrefixDist(T, S[i..])` additionally skips any
//! prefix of `S`. The result is the cost of aligning `T` against its
//! best-matching contiguous sub-trajectory of `S` — asymmetric by design.
//!
//! The dynamic program is [`super::run_dp`] in [`super::DpMode::Sub`]:
//! skipping a prefix means every state `(0, j, Bb)` is a zero-cost start;
//! skipping a suffix means every state with `T` fully consumed is a valid
//! end. Because both modes share one transition set, every alignment
//! explored by `edwp(t, s')` for a sample-delimited sub-trajectory
//! `s' ⊆ s` is also explored here, which yields the Lemma 2 lower-bound
//! property `edwp_sub(t, s) ≤ edwp(t, s') ∀ s' ⊆ s` (see tests).

use super::{run_dp, DpMode, EdwpScratch};
use crate::{Cutoff, Metric, QueryMode};
use traj_core::Trajectory;

/// `EDwP_sub(t, s)`: the cheapest EDwP alignment of the whole of `t`
/// against any contiguous sub-trajectory of `s` (sample-point delimited,
/// as in Eq. 6). Asymmetric: `edwp_sub(t, s) != edwp_sub(s, t)` in general,
/// and `edwp_sub(t, s) <= edwp(t, s)` always.
pub fn edwp_sub(t: &Trajectory, s: &Trajectory) -> f64 {
    edwp_sub_with_scratch(t, s, &mut EdwpScratch::new())
}

/// [`edwp_sub`] with caller-pooled working memory; see
/// [`crate::edwp_with_scratch`].
pub fn edwp_sub_with_scratch(t: &Trajectory, s: &Trajectory, scratch: &mut EdwpScratch) -> f64 {
    run_dp(t, s, DpMode::Sub, f64::INFINITY.into(), scratch)
}

/// [`edwp_sub_with_scratch`] with early abandon, same contract as
/// [`crate::edwp_bounded`]: the query `t` is consumed row by row, so a
/// completed row's minimum lower-bounds the final sub distance and a row
/// above the cutoff ends the DP early. The result is exact whenever it is
/// at or below the cutoff's final value.
pub fn edwp_sub_bounded(
    t: &Trajectory,
    s: &Trajectory,
    cutoff: Cutoff<'_>,
    scratch: &mut EdwpScratch,
) -> f64 {
    run_dp(t, s, DpMode::Sub, cutoff, scratch)
}

/// Length-normalised `EDwP_sub`:
/// `edwp_sub(t, s) / (length(t) + length(s))` — the sub-trajectory analogue
/// of [`crate::edwp_avg`] (Eq. 4), what `Metric::EdwpNormalized` answers
/// sub-mode queries with.
///
/// The denominator uses the *whole* stored trajectory's length, not the
/// matched portion's (which only the DP's argmin knows): rankings therefore
/// favour both a cheap embedding *and* a short host. Returns 0 when both
/// trajectories are stationary, matching [`crate::edwp_avg`]'s convention.
pub fn edwp_sub_avg(t: &Trajectory, s: &Trajectory) -> f64 {
    Metric::EdwpNormalized.distance(QueryMode::Sub, t, s, &mut EdwpScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edwp;
    use traj_core::approx_eq;

    fn t(pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::from_xy(pts)
    }

    #[test]
    fn sub_of_itself_is_zero() {
        let a = t(&[(0.0, 0.0), (3.0, 1.0), (5.0, 4.0)]);
        assert!(approx_eq(edwp_sub(&a, &a), 0.0));
    }

    #[test]
    fn embedded_sub_trajectory_matches_for_free() {
        // `q` is exactly the middle portion of `s`.
        let s = t(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 5.0), (6.0, 5.0)]);
        let q = s.sub_trajectory(1, 3);
        assert!(approx_eq(edwp_sub(&q, &s), 0.0));
        // The global distance, by contrast, must pay for the unmatched
        // prefix and suffix of `s`.
        assert!(edwp(&q, &s) > 0.0);
    }

    #[test]
    fn lower_bounds_global_edwp() {
        let a = t(&[(0.0, 0.0), (4.0, 1.0), (8.0, 0.0)]);
        let b = t(&[(1.0, 2.0), (3.0, 3.0), (7.0, 2.0), (9.0, 4.0)]);
        assert!(edwp_sub(&a, &b) <= edwp(&a, &b) + 1e-9);
        assert!(edwp_sub(&b, &a) <= edwp(&b, &a) + 1e-9);
    }

    #[test]
    fn lower_bounds_every_sample_delimited_sub_trajectory() {
        // Lemma 2: EDwP_sub(T1, T2) <= EDwP(T1, Ts) for all Ts ⊆ T2.
        let t1 = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0)]);
        let t2 = t(&[(0.0, 1.0), (1.0, 3.0), (3.0, 3.0), (5.0, 1.0), (6.0, 0.0)]);
        let lb = edwp_sub(&t1, &t2);
        for a in 0..t2.num_points() - 1 {
            for b in (a + 1)..t2.num_points() {
                let ts = t2.sub_trajectory(a, b);
                assert!(
                    lb <= edwp(&t1, &ts) + 1e-9,
                    "EDwP_sub={} > EDwP(T1, T2[{a}..={b}])={}",
                    lb,
                    edwp(&t1, &ts)
                );
            }
        }
    }

    #[test]
    fn example_4_ordering() {
        // Example 4 (Fig. 2(a)): EDwP_sub(T2, T1) < EDwP_sub(T1, T2) — the
        // shorter trajectory embeds more cheaply. We reproduce the
        // asymmetry with the reconstructed trajectories.
        let t1 = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (0.0, 8.0, 24.0), (8.0, 8.0, 40.0)]);
        let t2 = Trajectory::from_xyt(&[(2.0, 0.0, 0.0), (2.0, 7.0, 14.0), (7.0, 7.0, 30.0)]);
        let d12 = edwp_sub(&t1, &t2);
        let d21 = edwp_sub(&t2, &t1);
        assert!(
            d21 < d12,
            "expected EDwP_sub(T2,T1) < EDwP_sub(T1,T2): {d21} vs {d12}"
        );
    }

    #[test]
    fn asymmetric_by_design() {
        let long = t(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let short = t(&[(10.0, 1.0), (20.0, 1.0)]);
        // Short inside long: cheap. Long against short: must stretch.
        assert!(edwp_sub(&short, &long) < edwp_sub(&long, &short));
    }

    #[test]
    fn avg_normalises_by_both_full_lengths() {
        let long = t(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let short = t(&[(10.0, 1.0), (20.0, 1.0)]);
        let raw = edwp_sub(&short, &long);
        assert!(approx_eq(
            edwp_sub_avg(&short, &long),
            raw / (short.length() + long.length())
        ));
    }

    #[test]
    fn avg_of_stationary_pair_is_zero() {
        let a = t(&[(3.0, 3.0), (3.0, 3.0)]);
        let b = t(&[(3.0, 3.0), (3.0, 3.0), (3.0, 3.0)]);
        assert_eq!(edwp_sub_avg(&a, &b), 0.0);
    }

    #[test]
    fn degenerate_stationary_queries_stay_finite() {
        // Zero-length (geometrically single-point) and repeated-point
        // queries must flow through the sub DP without panicking or
        // producing non-finite values — the shapes the query surface's
        // degenerate-input hardening rides on.
        let host = t(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
        for q in [
            t(&[(4.0, 1.0), (4.0, 1.0)]),
            t(&[(4.0, 1.0), (4.0, 1.0), (4.0, 1.0)]),
        ] {
            let d = edwp_sub(&q, &host);
            assert!(d.is_finite() && d >= 0.0, "got {d}");
            assert!(edwp_sub(&host, &q).is_finite());
            assert!(edwp_sub_avg(&q, &host).is_finite());
        }
    }
}
