//! Property-based tests for the SIMD dispatch layer.
//!
//! The one vectorised kernel, the box bound, is *not* required to be
//! bitwise equal to the scalar path — exactness of the query engine rests
//! on admissibility (Theorem 2), not on any particular rounding of the
//! bound. These properties pin exactly that contract on both paths:
//!
//! * **admissibility** — the bound never exceeds `edwp` / `edwp_sub`,
//!   whichever ISA computed it, on bulk, coalesced and merged box
//!   sequences;
//! * **agreement** — scalar and AVX2 agree to a documented relative
//!   tolerance of `1e-9 · (1 + |scalar|)` (the paths reassociate the
//!   same correctly-rounded IEEE operations, so divergence is a few
//!   ULPs, never structural), and both answer `+inf` for an empty
//!   sequence;
//! * **cutoff contract** — `_bounded` bails only strictly above the
//!   cutoff, and whenever the returned value is ≤ the cutoff it is
//!   bit-for-bit the full bound — on either path;
//! * **batched AABB prescreen** (scalar only) — each child's sum is
//!   bitwise identical whether it is swept alone or among siblings, and
//!   is itself admissible against the exact box bound.
//!
//! Members have 2..=10 points, so bulk sequences span 1..=9 boxes: every
//! remainder modulo the 4-lane width, in the first and the second lane
//! block of the AVX2 kernel.
//!
//! Every property pins its ISA through the explicit `_isa` entry point,
//! so the suite is deterministic regardless of what the process-global
//! dispatch resolved to (and of `TRAJ_FORCE_SCALAR`).

use proptest::prelude::*;
use traj_core::{StPoint, Trajectory};
use traj_dist::simd::{edwp_lower_bound_boxes_bounded_isa, force_isa};
use traj_dist::{edwp, edwp_lower_bound_aabb_batch, edwp_sub, BoxSeq, Cutoff, EdwpScratch, Isa};

/// Strategy: a random trajectory with `n` points in a 100×100 box and
/// unit-spaced timestamps.
fn trajectory(min_pts: usize, max_pts: usize) -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((0.0..100.0f64, 0.0..100.0f64), min_pts..=max_pts).prop_map(|pts| {
        Trajectory::new(
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| StPoint::new(x, y, i as f64))
                .collect(),
        )
        .expect("valid by construction")
    })
}

/// The ISAs this machine can actually run, Scalar always included.
fn isas() -> &'static [Isa] {
    if Isa::available() == Isa::Avx2 {
        &[Isa::Scalar, Isa::Avx2]
    } else {
        &[Isa::Scalar]
    }
}

/// Bulk, coalesced and merged box sequences over the same member.
fn seq_variants(member: &Trajectory, other: &Trajectory) -> Vec<BoxSeq> {
    let bulk = BoxSeq::from_trajectory(member);
    let mut coalesced = bulk.clone();
    coalesced.coalesce(Some(4));
    let merged = coalesced.merge_trajectory(other);
    vec![bulk, coalesced, merged]
}

fn full_bound(isa: Isa, q: &Trajectory, seq: &BoxSeq, scratch: &mut EdwpScratch) -> f64 {
    edwp_lower_bound_boxes_bounded_isa(isa, q, seq, Cutoff::constant(f64::INFINITY), scratch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn box_bound_is_admissible_on_every_isa(
        q in trajectory(2, 8),
        member in trajectory(2, 10),
        other in trajectory(2, 6),
    ) {
        let mut scratch = EdwpScratch::new();
        let d = edwp(&q, &member);
        let d_sub = edwp_sub(&q, &member);
        for seq in seq_variants(&member, &other) {
            for &isa in isas() {
                // Bounds over sequences *containing* `member` must stay
                // under both the global and the sub distance to it (one
                // accumulation serves both modes).
                let lb = full_bound(isa, &q, &seq, &mut scratch);
                prop_assert!(lb <= d + 1e-9 * (1.0 + d),
                    "{} bound {lb} > edwp {d}", isa.name());
                prop_assert!(lb <= d_sub + 1e-9 * (1.0 + d_sub),
                    "{} bound {lb} > edwp_sub {d_sub}", isa.name());
            }
        }
    }

    #[test]
    fn scalar_and_simd_agree_to_documented_tolerance(
        q in trajectory(2, 8),
        member in trajectory(2, 10),
        other in trajectory(2, 6),
    ) {
        if Isa::available() != Isa::Avx2 {
            return Ok(());
        }
        let mut scratch = EdwpScratch::new();
        let mut seqs = seq_variants(&member, &other);
        seqs.push(BoxSeq::from_boxes(Vec::new()));
        for seq in seqs {
            let s = full_bound(Isa::Scalar, &q, &seq, &mut scratch);
            let v = full_bound(Isa::Avx2, &q, &seq, &mut scratch);
            if seq.is_empty() {
                prop_assert!(s == f64::INFINITY && v == f64::INFINITY,
                    "empty sequence: scalar {s}, avx2 {v}");
            } else {
                prop_assert!((s - v).abs() <= 1e-9 * (1.0 + s.abs()),
                    "scalar {s} vs avx2 {v} diverge beyond tolerance");
            }
        }
    }

    #[test]
    fn bounded_cutoff_contract_holds_on_every_isa(
        q in trajectory(2, 8),
        member in trajectory(2, 10),
        frac in 0.0..1.5f64,
    ) {
        let mut scratch = EdwpScratch::new();
        let seq = {
            let mut s = BoxSeq::from_trajectory(&member);
            s.coalesce(Some(4));
            s
        };
        for &isa in isas() {
            let full = full_bound(isa, &q, &seq, &mut scratch);
            let cutoff = full * frac;
            let b = edwp_lower_bound_boxes_bounded_isa(
                isa, &q, &seq, Cutoff::constant(cutoff), &mut scratch);
            if b <= cutoff {
                // Never bailed: the partial sum ran to completion and is
                // bit-for-bit the full bound.
                prop_assert!(b == full,
                    "{}: result {b} <= cutoff {cutoff} but != full {full}", isa.name());
            } else {
                // Bailed: only allowed strictly above the cutoff, and a
                // partial sum can never exceed the full one.
                prop_assert!(b <= full + 1e-9 * (1.0 + full),
                    "{}: partial {b} > full {full}", isa.name());
            }
        }
    }

    #[test]
    fn aabb_batch_is_bitwise_identical_and_admissible(
        q in trajectory(2, 8),
        member in trajectory(2, 10),
    ) {
        let mut scratch = EdwpScratch::new();
        let seq = BoxSeq::from_trajectory(&member);
        let children = seq.boxes().to_vec();
        let mut sums = Vec::new();
        edwp_lower_bound_aabb_batch(&q, &children, f64::INFINITY, &mut scratch, &mut sums);
        prop_assert_eq!(sums.len(), children.len());
        let mut alone = Vec::new();
        for (i, &pre) in sums.iter().enumerate() {
            // Lanes are independent: a child swept on its own gets the
            // *bitwise* same sum as in the batch, whatever its position.
            edwp_lower_bound_aabb_batch(
                &q, &children[i..=i], f64::INFINITY, &mut scratch, &mut alone);
            prop_assert_eq!(alone.as_slice(), &[pre][..]);
            // And it relaxes the exact box bound over the single-box
            // sequence holding just that child (box `i` of a bulk
            // sequence is exactly segment `i`'s tight box).
            let single = BoxSeq::from_trajectory(&member.sub_trajectory(i, i + 1));
            prop_assert_eq!(single.boxes(), &children[i..=i]);
            for &isa in isas() {
                let exact = full_bound(isa, &q, &single, &mut scratch);
                prop_assert!(pre <= exact + 1e-9 * (1.0 + exact),
                    "prescreen {pre} > {} box bound {exact}", isa.name());
            }
        }
    }
}

/// The exact DP reads no dispatch: `edwp` and `edwp_sub` (and with them
/// every query result) are bitwise identical whichever path is live.
/// Pinned here by flipping the process-global dispatch around the same
/// input.
#[test]
fn edwp_dp_is_bitwise_identical_across_dispatch() {
    if Isa::available() != Isa::Avx2 {
        return;
    }
    let restore = Isa::current();
    let zigzag: Vec<(f64, f64)> = (0..23)
        .map(|i| (i as f64 * 3.1, if i % 2 == 0 { 0.2 } else { 6.4 }))
        .collect();
    let drift: Vec<(f64, f64)> = (0..17).map(|i| (i as f64 * 2.3, i as f64 * 0.7)).collect();
    let a = Trajectory::from_xy(&zigzag);
    let b = Trajectory::from_xy(&drift);

    assert!(force_isa(Isa::Scalar));
    let scalar_d = edwp(&a, &b);
    let scalar_sub = edwp_sub(&a, &b);
    assert!(force_isa(Isa::Avx2));
    let simd_d = edwp(&a, &b);
    let simd_sub = edwp_sub(&a, &b);
    force_isa(restore);

    assert_eq!(scalar_d.to_bits(), simd_d.to_bits(), "edwp diverged");
    assert_eq!(
        scalar_sub.to_bits(),
        simd_sub.to_bits(),
        "edwp_sub diverged"
    );
}
