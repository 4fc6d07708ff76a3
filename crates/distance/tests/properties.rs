//! Property-based tests for EDwP and the tBoxSeq lower bounds.
//!
//! These check the paper's structural claims on randomised inputs:
//! symmetry, identity, the Lemma 2 sub-trajectory bound, the Corollary 2
//! densification monotonicity, and the Theorem 2 box-sequence lower bound
//! that TrajTree's exactness rests on.

use proptest::prelude::*;
use traj_core::{StPoint, Trajectory};
use traj_dist::simd::edwp_lower_bound_boxes_bounded_isa;
use traj_dist::{
    edwp, edwp_avg, edwp_lower_bound_aabb_batch, edwp_reference, edwp_sub, edwp_sub_avg, BoxSeq,
    EdwpScratch, Isa, Metric, QueryMode,
};

const METRICS: [Metric; 2] = [Metric::Edwp, Metric::EdwpNormalized];
const MODES: [QueryMode; 2] = [QueryMode::Whole, QueryMode::Sub];

/// The full (never bailing) `Metric::lower_bound_boxes`.
fn box_bound(metric: Metric, mode: QueryMode, q: &Trajectory, seq: &BoxSeq, max_len: f64) -> f64 {
    let open = f64::INFINITY.into();
    metric.lower_bound_boxes(mode, q, seq, max_len, open, &mut EdwpScratch::new())
}

/// The full (never bailing) `Metric::lower_bound_trajectory`.
fn poly_bound(metric: Metric, mode: QueryMode, q: &Trajectory, t: &Trajectory) -> f64 {
    let open = f64::INFINITY.into();
    metric.lower_bound_trajectory(mode, q, t, open, &mut EdwpScratch::new())
}

/// `Metric::distance` on a fresh scratch.
fn distance(metric: Metric, mode: QueryMode, q: &Trajectory, t: &Trajectory) -> f64 {
    metric.distance(mode, q, t, &mut EdwpScratch::new())
}

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

/// Strategy: a trajectory anywhere in the coordinate domain
/// `[-1e100, 1e100]` that `Trajectory::new` accepts, with each coordinate
/// on one of the domain's two edges half the time.
fn domain_edge_trajectory() -> impl Strategy<Value = Trajectory> {
    let coord = (0u32..4, -1.0..1.0f64);
    prop::collection::vec((coord.clone(), coord), 2..=6).prop_map(|pts| {
        let at = |(pick, v): (u32, f64)| match pick {
            0 => -1e100,
            1 => 1e100,
            _ => v * 1e100,
        };
        Trajectory::new(
            pts.into_iter()
                .enumerate()
                .map(|(i, (x, y))| StPoint::new(at(x), at(y), i as f64))
                .collect(),
        )
        .expect("inside the domain by construction")
    })
}

/// Strategy: a trajectory `t` and a query drawn from it the way the index
/// sees queries — a subset of `t`'s samples (endpoints kept), each jittered
/// by under half a unit. Such pairs sit close to the bound's tight cases.
fn resampled_pair() -> impl Strategy<Value = (Trajectory, Trajectory)> {
    let picks = prop::collection::vec((0u32..2, -0.5..0.5f64, -0.5..0.5f64), 10);
    (trajectory(2, 10), picks).prop_map(|(t, picks)| {
        let last = t.num_points() - 1;
        let q = t
            .points()
            .iter()
            .zip(&picks)
            .enumerate()
            .filter(|&(i, (_, &(keep, _, _)))| i == 0 || i == last || keep == 1)
            .map(|(_, (s, &(_, dx, dy)))| StPoint::new(s.p.x + dx, s.p.y + dy, s.t))
            .collect();
        (Trajectory::new(q).expect("valid by construction"), t)
    })
}

/// The member-bound obligations behind the engine's strict `>` pruning,
/// checked for one pair under both metrics with **no slack**: the
/// whole-mode bound never exceeds the whole-mode distance, the one-sided
/// (sub-mode) bound never exceeds the two-sided (whole-mode) one, and the
/// sub-mode bound is the crate-root Theorem 2 kernel bit-for-bit.
fn member_bounds_hold_strictly(q: &Trajectory, t: &Trajectory) -> Result<(), String> {
    let forward = traj_dist::edwp_lower_bound_trajectory(q, t);
    for metric in METRICS {
        let whole = poly_bound(metric, QueryMode::Whole, q, t);
        let sub = poly_bound(metric, QueryMode::Sub, q, t);
        let d = distance(metric, QueryMode::Whole, q, t);
        let one_sided = metric.normalise(forward, q.length() + t.length());
        let name = metric.name();
        if whole > d {
            return Err(format!("{name}: whole bound {whole} > distance {d}"));
        }
        if sub > whole {
            return Err(format!("{name}: one-sided {sub} > two-sided {whole}"));
        }
        if sub.to_bits() != one_sided.to_bits() {
            return Err(format!("{name}: sub bound {sub} != crate-root {one_sided}"));
        }
    }
    Ok(())
}

/// Every 2- and 3-point trajectory whose samples sit on a `w × h` integer
/// lattice, at unit-spaced timestamps (repeated samples included).
fn lattice_trips(w: usize, h: usize) -> Vec<Trajectory> {
    let cells: Vec<(f64, f64)> = (0..w)
        .flat_map(|x| (0..h).map(move |y| (x as f64, y as f64)))
        .collect();
    let mut trips = Vec::new();
    for &a in &cells {
        for &b in &cells {
            trips.push(Trajectory::from_xy(&[a, b]));
            for &c in &cells {
                trips.push(Trajectory::from_xy(&[a, b, c]));
            }
        }
    }
    trips
}

/// [`member_bounds_hold_strictly`] over every ordered pair of lattice
/// trips: exact ties (collinear, repeated and identical trips) are where a
/// bound reaches the distance, so a one-ulp overshoot would show here.
#[test]
fn member_bounds_hold_without_slack_on_a_lattice() {
    let trips = lattice_trips(3, 2);
    for q in &trips {
        for t in &trips {
            if let Err(msg) = member_bounds_hold_strictly(q, t) {
                panic!("{msg}\n  q = {:?}\n  t = {:?}", q.points(), t.points());
            }
        }
    }
}

/// The node-bound obligation behind the engine's strict `>` pruning, with
/// **no slack**: for each summary of `t` in `seqs`,
/// `Metric::lower_bound_boxes(mode, q, seq, length(t), cutoff, ..)` never
/// exceeds `Metric::distance(mode, q, t, ..)`, under both metrics and both
/// modes and the cutoffs ∞, `d` and `d / 2` (the finite ones run the
/// kernel's AABB prologue). The raw kernel is checked on every ISA this
/// machine runs, through the explicit `_isa` entry point — the raw
/// metric's `lower_bound_boxes` is that kernel on the current ISA, bit for
/// bit, so this covers it.
fn node_bounds_hold_strictly(
    q: &Trajectory,
    t: &Trajectory,
    seqs: &[BoxSeq],
    scratch: &mut EdwpScratch,
) -> Result<(), String> {
    let raw = MODES.map(|mode| Metric::Edwp.distance(mode, q, t, scratch));
    // `Metric::distance` bit for bit: the raw DP, then the metric's own
    // normalisation.
    let normalised = raw.map(|d| Metric::EdwpNormalized.normalise(d, q.length() + t.length()));
    for seq in seqs {
        let boxes = seq.len();
        stays_below(&format!("EDwP-norm, {boxes} boxes"), normalised, |cutoff| {
            let metric = Metric::EdwpNormalized;
            metric.lower_bound_boxes(QueryMode::Whole, q, seq, t.length(), cutoff.into(), scratch)
        })?;
        for &isa in isas() {
            stays_below(&format!("{}, {boxes} boxes", isa.name()), raw, |cutoff| {
                edwp_lower_bound_boxes_bounded_isa(isa, q, seq, cutoff.into(), scratch)
            })?;
        }
    }
    Ok(())
}

/// Evaluates `bound` at each distinct cutoff among ∞, `d` and `d / 2` for
/// the whole- and sub-mode distances `d`, and fails when it exceeds the
/// smallest distance that cutoff stands for. The node bound ignores the
/// mode, so one evaluation per distinct cutoff serves both.
fn stays_below(name: &str, d: [f64; 2], mut bound: impl FnMut(f64) -> f64) -> Result<(), String> {
    let mut checks = vec![(f64::INFINITY, d[0].min(d[1]))];
    for d in d {
        for cutoff in [d, d / 2.0] {
            match checks.iter_mut().find(|(c, _)| *c == cutoff) {
                Some((_, limit)) => *limit = limit.min(d),
                None => checks.push((cutoff, d)),
            }
        }
    }
    for (cutoff, limit) in checks {
        let lb = bound(cutoff);
        if lb > limit {
            return Err(format!(
                "{name}, cutoff {cutoff}: bound {lb} > distance {limit}"
            ));
        }
    }
    Ok(())
}

/// The ISAs this machine can actually run, Scalar always included.
fn isas() -> &'static [Isa] {
    if Isa::available() == Isa::Avx2 {
        &[Isa::Scalar, Isa::Avx2]
    } else {
        &[Isa::Scalar]
    }
}

/// [`node_bounds_hold_strictly`] over every ordered pair of lattice trips,
/// for the same reason as the member-bound lattice above. Each stored
/// trip is summarised by its per-segment boxes and by those coalesced to
/// one box (the same sequence when it has one segment). The pairs are
/// independent, so two workers split the queries.
#[test]
fn node_bounds_hold_without_slack_on_a_lattice() {
    let trips = lattice_trips(3, 2);
    let summaries: Vec<Vec<BoxSeq>> = trips
        .iter()
        .map(|t| {
            let bulk = BoxSeq::from_trajectory(t);
            let mut one = bulk.clone();
            one.coalesce(Some(1));
            if one == bulk {
                vec![bulk]
            } else {
                vec![bulk, one]
            }
        })
        .collect();
    std::thread::scope(|workers| {
        for queries in trips.chunks(trips.len().div_ceil(2)) {
            let (trips, summaries) = (&trips, &summaries);
            workers.spawn(move || {
                let mut scratch = EdwpScratch::new();
                for q in queries {
                    for (t, seqs) in trips.iter().zip(summaries) {
                        if let Err(msg) = node_bounds_hold_strictly(q, t, seqs, &mut scratch) {
                            panic!("{msg}\n  q = {:?}\n  t = {:?}", q.points(), t.points());
                        }
                    }
                }
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`member_bounds_hold_strictly`] on random pairs: unrelated trips,
    /// and resampled, jittered copies of one trip.
    #[test]
    fn member_bounds_hold_without_slack(
        q in trajectory(2, 8),
        t in trajectory(2, 8),
        near in resampled_pair(),
    ) {
        let (near_q, near_t) = &near;
        let fail = member_bounds_hold_strictly(&q, &t)
            .and_then(|()| member_bounds_hold_strictly(near_q, near_t))
            .and_then(|()| member_bounds_hold_strictly(near_t, near_q));
        prop_assert!(fail.is_ok(), "{}", fail.unwrap_err());
    }

    /// At the edge of the coordinate domain every kernel stays finite, a
    /// trip is at distance 0 from itself, and the node and member bounds
    /// stay below the distance — under both metrics and both modes, and
    /// for the raw box kernel on every ISA. Past the domain the squared
    /// gaps overflow and `edwp(t, t)` turns `inf`, which is why
    /// `Trajectory::new` refuses such input.
    #[test]
    fn kernels_stay_finite_and_admissible_at_the_domain_edge(
        q in domain_edge_trajectory(),
        t in domain_edge_trajectory(),
    ) {
        let mut scratch = EdwpScratch::new();
        let seq = BoxSeq::from_trajectory(&t);
        let open = || f64::INFINITY.into();
        for metric in METRICS {
            for mode in MODES {
                let name = format!("{} {}", metric.name(), mode.name());
                let own = metric.distance(mode, &t, &t, &mut scratch);
                prop_assert!(own == 0.0, "{name}: edwp(t, t) = {own}");
                let d = metric.distance(mode, &q, &t, &mut scratch);
                let node =
                    metric.lower_bound_boxes(mode, &q, &seq, t.length(), open(), &mut scratch);
                let member = metric.lower_bound_trajectory(mode, &q, &t, open(), &mut scratch);
                prop_assert!(d.is_finite() && node.is_finite() && member.is_finite(),
                    "{name}: distance {d}, node bound {node}, member bound {member}");
                prop_assert!(node <= d, "{name}: node bound {node} > distance {d}");
                prop_assert!(member <= d, "{name}: member bound {member} > distance {d}");
            }
        }
        let d_sub = edwp_sub(&q, &t);
        for &isa in isas() {
            let lb = edwp_lower_bound_boxes_bounded_isa(isa, &q, &seq, open(), &mut scratch);
            prop_assert!(lb.is_finite() && lb <= d_sub,
                "{}: box bound {lb} vs edwp_sub {d_sub}", isa.name());
        }
        let mut sums = Vec::new();
        edwp_lower_bound_aabb_batch(&q, seq.boxes(), f64::INFINITY, &mut scratch, &mut sums);
        prop_assert!(sums.iter().all(|v| v.is_finite()), "AABB sums {sums:?}");
    }

    #[test]
    fn edwp_is_symmetric(a in trajectory(2, 8), b in trajectory(2, 8)) {
        let ab = edwp(&a, &b);
        let ba = edwp(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-6 * (1.0 + ab.abs()),
            "asymmetry: {ab} vs {ba}");
    }

    #[test]
    fn edwp_identity(a in trajectory(2, 10)) {
        prop_assert!(edwp(&a, &a) <= 1e-9);
        prop_assert!(edwp_avg(&a, &a) <= 1e-9);
    }

    #[test]
    fn edwp_non_negative(a in trajectory(2, 8), b in trajectory(2, 8)) {
        prop_assert!(edwp(&a, &b) >= 0.0);
    }

    #[test]
    fn sub_lower_bounds_global(a in trajectory(2, 7), b in trajectory(2, 7)) {
        prop_assert!(edwp_sub(&a, &b) <= edwp(&a, &b) + 1e-9);
    }

    #[test]
    fn sub_lower_bounds_all_sample_sub_trajectories(
        a in trajectory(2, 5),
        b in trajectory(3, 7),
    ) {
        let lb = edwp_sub(&a, &b);
        for i in 0..b.num_points() - 1 {
            for j in (i + 1)..b.num_points() {
                let bs = b.sub_trajectory(i, j);
                let d = edwp(&a, &bs);
                prop_assert!(lb <= d + 1e-6 * (1.0 + d),
                    "sub={lb} > edwp(a, b[{i}..={j}])={d}");
            }
        }
    }

    #[test]
    fn densification_does_not_increase_distance(
        a in trajectory(2, 6),
        b in trajectory(2, 6),
        seg_idx in 0usize..5,
        frac in 0.05..0.95f64,
    ) {
        // Corollary 2: inserting a point on a segment of `b` (shape
        // unchanged) must not increase EDwP(a, b).
        let seg_idx = seg_idx % b.num_segments();
        let seg = b.segment(seg_idx);
        let inserted = seg.point_at(frac);
        let mut pts = b.points().to_vec();
        pts.insert(seg_idx + 1, inserted);
        let b2 = Trajectory::new(pts).unwrap();
        let before = edwp(&a, &b);
        let after = edwp(&a, &b2);
        // Corollary 2 holds exactly for the true minimum; the dynamic
        // program's canonical anchors shift when points are inserted, so a
        // documented tolerance is needed (see "Dynamic program" in
        // `src/edwp/mod.rs` for the anchor families). Scanning 4000
        // random cases showed deviations up to ~9.5%; tightening the DP's
        // anchor family below that is an open ROADMAP item.
        prop_assert!(after <= before * 1.15 + 1e-6,
            "densifying raised EDwP: {before} -> {after}");
    }

    #[test]
    fn dp_not_worse_than_reference_recursion(a in trajectory(2, 4), b in trajectory(2, 4)) {
        let r = edwp_reference(&a, &b);
        let d = edwp(&a, &b);
        // Soundness direction: the DP must find every alignment family the
        // literal recursion explores (up to canonical-anchor deviations).
        // It may be *cheaper* because the hold edits generalise the
        // recursion's clamped degenerate splits. Held anchors older than
        // one lag are not representable (see `Kind::IbL`/`Kind::Ii2`), and
        // the covering ins edits can cost more: a 4000-case scan showed the
        // DP up to ~14.4% above the reference on adversarial small inputs.
        prop_assert!(d <= r * 1.30 + 1e-6, "dp {d} much worse than reference {r}");
    }

    #[test]
    fn boxseq_lower_bounds_members(
        ts in prop::collection::vec(trajectory(2, 6), 1..4),
        q in trajectory(2, 6),
    ) {
        let seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        let lb = traj_dist::edwp_lower_bound_boxes(&q, &seq);
        for t in &ts {
            let d = edwp(&q, t);
            prop_assert!(lb <= d + 1e-6 * (1.0 + d),
                "box lower bound {lb} > edwp {d}");
        }
    }

    #[test]
    fn polyline_lower_bound_is_admissible(
        q in trajectory(2, 7),
        t in trajectory(2, 7),
    ) {
        let lb = traj_dist::edwp_lower_bound_trajectory(&q, &t);
        let d = edwp(&q, &t);
        prop_assert!(lb <= d + 1e-6 * (1.0 + d),
            "polyline lower bound {lb} > edwp {d}");
        // And it dominates the box relaxation of the same trajectory.
        let via_boxes = traj_dist::edwp_lower_bound_boxes(&q, &BoxSeq::from_trajectory(&t));
        prop_assert!(via_boxes <= lb + 1e-6 * (1.0 + lb),
            "box bound {via_boxes} > polyline bound {lb}");
    }

    #[test]
    fn normalized_box_lower_bound_is_admissible(
        ts in prop::collection::vec(trajectory(2, 6), 1..4),
        q in trajectory(2, 6),
    ) {
        // The Metric::EdwpNormalized node bound: raw box bound divided by
        // length(q) + max member length must never exceed the normalised
        // EDwP of any member — even after aggressive coalescing.
        let mut seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        seq.coalesce(Some(3));
        let max_len = ts.iter().map(|t| t.length()).fold(0.0, f64::max);
        let lb = box_bound(Metric::EdwpNormalized, QueryMode::Whole, &q, &seq, max_len);
        for t in &ts {
            let d = distance(Metric::EdwpNormalized, QueryMode::Whole, &q, t);
            prop_assert_eq!(d, edwp_avg(&q, t));
            prop_assert!(lb <= d + 1e-6 * (1.0 + d),
                "normalised box bound {lb} > edwp_avg {d}");
        }
    }

    #[test]
    fn normalized_polyline_lower_bound_is_admissible(
        q in trajectory(2, 7),
        t in trajectory(2, 7),
    ) {
        let norm = Metric::EdwpNormalized;
        let lb = poly_bound(norm, QueryMode::Whole, &q, &t);
        let d = edwp_avg(&q, &t);
        prop_assert!(lb <= d + 1e-6 * (1.0 + d),
            "normalised polyline bound {lb} > edwp_avg {d}");
        // A looser max_len in the box bound only loosens it further, never
        // past admissibility.
        let seq = BoxSeq::from_trajectory(&t);
        let slack = box_bound(norm, QueryMode::Whole, &q, &seq, t.length() * 2.0 + 1.0);
        let tight = box_bound(norm, QueryMode::Whole, &q, &seq, t.length());
        prop_assert!(slack <= tight + 1e-9 * (1.0 + tight),
            "looser max_len tightened the bound: {slack} > {tight}");
    }

    #[test]
    fn boxseq_merge_covers_all_members(
        ts in prop::collection::vec(trajectory(2, 6), 2..5),
    ) {
        let seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        for t in &ts {
            for s in t.points() {
                prop_assert!(
                    seq.boxes().iter().any(|b| b.contains_point(s.p)),
                    "uncovered point {:?}", s.p
                );
            }
        }
    }

    #[test]
    fn boxseq_coalesce_preserves_lower_bound_validity(
        ts in prop::collection::vec(trajectory(2, 5), 2..4),
        q in trajectory(2, 5),
    ) {
        // The admissible bound must survive aggressive coalescing — this is
        // the invariant TrajTree's exactness rests on. (The construction
        // alignment's own cost does NOT satisfy this: its canonical
        // anchors can overshoot EDwP on coarse boxes, which is why the
        // index prunes with this relaxation instead.)
        let mut seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        seq.coalesce(Some(3));
        let lb = traj_dist::edwp_lower_bound_boxes(&q, &seq);
        for t in &ts {
            let d = edwp(&q, t);
            prop_assert!(lb <= d + 1e-6 * (1.0 + d),
                "coalesced lower bound {lb} > edwp {d}");
        }
    }

    /// The sub-trajectory index bound (what `.sub()` queries prune with):
    /// `Metric::Edwp.lower_bound_boxes(Sub, q, seq) <= edwp_sub(q, t)` for
    /// **every** trajectory summarised by the sequence — a strictly
    /// stronger claim than Theorem 2's `<= edwp(q, t)`. Checked on
    /// bulk-built sequences, after aggressive coalescing, and after
    /// *incremental* merges (the insert path).
    #[test]
    fn sub_box_lower_bound_is_admissible_against_edwp_sub(
        ts in prop::collection::vec(trajectory(2, 6), 1..4),
        extra in trajectory(2, 6),
        q in trajectory(2, 6),
    ) {
        let mut seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        seq.coalesce(Some(3));
        let lb = box_bound(Metric::Edwp, QueryMode::Sub, &q, &seq, 0.0);
        // Mode-independent: the one-sided relaxation is the same sum.
        prop_assert_eq!(lb, box_bound(Metric::Edwp, QueryMode::Whole, &q, &seq, 0.0));
        for t in &ts {
            let d = distance(Metric::Edwp, QueryMode::Sub, &q, t);
            prop_assert_eq!(d, edwp_sub(&q, t));
            prop_assert!(lb <= d + 1e-6 * (1.0 + d),
                "sub box bound {lb} > edwp_sub {d}");
        }
        // Incremental insert: merging one more trajectory must leave the
        // bound admissible for old and new members alike.
        let mut seq = seq.merge_trajectory(&extra);
        seq.coalesce(Some(3));
        let lb = box_bound(Metric::Edwp, QueryMode::Sub, &q, &seq, 0.0);
        for t in ts.iter().chain(std::iter::once(&extra)) {
            let d = edwp_sub(&q, t);
            prop_assert!(lb <= d + 1e-6 * (1.0 + d),
                "post-merge sub box bound {lb} > edwp_sub {d}");
        }
    }

    /// The per-candidate sub refinement and the normalised sub dispatch:
    /// both stay below the (normalised) sub distance of the concrete
    /// trajectory.
    #[test]
    fn sub_polyline_and_normalised_bounds_are_admissible(
        q in trajectory(2, 7),
        t in trajectory(2, 7),
    ) {
        let d = edwp_sub(&q, &t);
        let lb = poly_bound(Metric::Edwp, QueryMode::Sub, &q, &t);
        prop_assert!(lb <= d + 1e-6 * (1.0 + d),
            "sub polyline bound {lb} > edwp_sub {d}");
        // The normalised sub distance divides by length(q) + length(t);
        // the normalised bound shares that denominator, so it must stay
        // below edwp_sub_avg as well.
        let norm = Metric::EdwpNormalized;
        let dn = distance(norm, QueryMode::Sub, &q, &t);
        prop_assert_eq!(dn, edwp_sub_avg(&q, &t));
        let lbn = poly_bound(norm, QueryMode::Sub, &q, &t);
        prop_assert!(lbn <= dn + 1e-6 * (1.0 + dn),
            "normalised bound {lbn} > edwp_sub_avg {dn}");
        // And the box form with a (possibly loose) max_len.
        let seq = BoxSeq::from_trajectory(&t);
        let lbb = box_bound(norm, QueryMode::Sub, &q, &seq, t.length() + 1.0);
        prop_assert!(lbb <= dn + 1e-6 * (1.0 + dn),
            "normalised sub box bound {lbb} > edwp_sub_avg {dn}");
    }

    /// The raw cutoff contract of the bounds the engine prunes with, in
    /// both modes: a result at or below the cutoff must be the *full*
    /// bound bit-for-bit, a result above it must be an admissible partial
    /// that correctly certifies the full bound is above the cutoff too.
    /// "Full" is the same kernel under an infinite cutoff; the plain
    /// iterator forms are the independent reference it must match (to
    /// rounding — the AVX2 box kernel reassociates, see `traj_dist::simd`,
    /// and the whole-mode member bound sums its two one-sided halves in
    /// one running total).
    #[test]
    fn raw_bounds_honour_the_cutoff_contract_in_both_modes(
        ts in prop::collection::vec(trajectory(2, 6), 1..4),
        q in trajectory(2, 6),
        frac in 0.0..1.5f64,
    ) {
        let mut scratch = EdwpScratch::new();
        let mut seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        seq.coalesce(Some(3));
        let t = &ts[0];
        let full = box_bound(Metric::Edwp, QueryMode::Whole, &q, &seq, 0.0);
        let reference = traj_dist::edwp_lower_bound_boxes(&q, &seq);
        prop_assert!((full - reference).abs() <= 1e-9 * (1.0 + reference));
        let forward = traj_dist::edwp_lower_bound_trajectory(&q, t);
        let two_sided = forward + traj_dist::edwp_lower_bound_trajectory(t, &q);

        for mode in MODES {
            let full_poly = poly_bound(Metric::Edwp, mode, &q, t);
            match mode {
                QueryMode::Whole => prop_assert!(
                    (full_poly - two_sided).abs() <= 1e-9 * (1.0 + two_sided),
                    "whole member bound {} != LB(q,t) + LB(t,q) = {}", full_poly, two_sided),
                QueryMode::Sub => prop_assert_eq!(full_poly, forward),
            }
            // A cutoff below, at, and above the full bound.
            for cutoff in [full * frac, full, f64::INFINITY] {
                let got = Metric::Edwp.lower_bound_boxes(
                    mode, &q, &seq, 0.0, cutoff.into(), &mut scratch);
                if got <= cutoff {
                    prop_assert_eq!(got, full);
                } else {
                    prop_assert!(got <= full,
                        "partial sum {} overshot the full bound {}", got, full);
                    prop_assert!(full > cutoff,
                        "bailed although the full bound is within the cutoff");
                }
                // Every return value — truncated or not — stays admissible.
                for t in &ts {
                    let d = distance(Metric::Edwp, mode, &q, t);
                    prop_assert!(got <= d + 1e-6 * (1.0 + d));
                }
            }
            for cutoff in [full_poly * frac, full_poly, f64::INFINITY] {
                let got = Metric::Edwp.lower_bound_trajectory(
                    mode, &q, t, cutoff.into(), &mut scratch);
                if got <= cutoff {
                    prop_assert_eq!(got, full_poly);
                } else {
                    prop_assert!(got <= full_poly);
                    prop_assert!(full_poly > cutoff);
                }
            }
        }
    }

    /// The documented *weaker* normalised contract: the rescaled cutoff's
    /// rounding round trip forfeits "at or below the cutoff means full",
    /// but every value stays admissible against every member at any
    /// cutoff, and an infinite cutoff returns exactly the full bound — the
    /// raw bound over the metric's denominator.
    #[test]
    fn normalised_bounds_honour_the_weaker_contract_in_both_modes(
        ts in prop::collection::vec(trajectory(2, 6), 1..4),
        q in trajectory(2, 6),
        frac in 0.0..1.5f64,
    ) {
        let norm = Metric::EdwpNormalized;
        let mut scratch = EdwpScratch::new();
        let mut seq = BoxSeq::from_trajectories(ts.iter(), None).unwrap();
        seq.coalesce(Some(3));
        let max_len = ts.iter().map(|t| t.length()).fold(0.0, f64::max);
        let t = &ts[0];
        let raw = Metric::Edwp;
        let full = box_bound(raw, QueryMode::Whole, &q, &seq, 0.0) / (q.length() + max_len);

        for mode in MODES {
            let full_poly = poly_bound(raw, mode, &q, t) / (q.length() + t.length());
            prop_assert_eq!(box_bound(norm, mode, &q, &seq, max_len), full);
            prop_assert_eq!(poly_bound(norm, mode, &q, t), full_poly);
            let clipped = norm.lower_bound_boxes(
                mode, &q, &seq, max_len, (full * frac).into(), &mut scratch);
            prop_assert!(clipped <= full);
            for t in &ts {
                let d = distance(norm, mode, &q, t);
                prop_assert!(clipped <= d + 1e-6 * (1.0 + d),
                    "clipped normalised bound {clipped} > distance {d}");
            }
            let clipped = norm.lower_bound_trajectory(
                mode, &q, t, (full_poly * frac).into(), &mut scratch);
            prop_assert!(clipped <= full_poly);
        }
    }

    /// `distance_bounded` under every metric × mode: exact whenever the
    /// result is at or below the cutoff, an admissible lower bound
    /// otherwise.
    #[test]
    fn bounded_distance_is_exact_at_or_below_the_cutoff(
        q in trajectory(2, 7),
        t in trajectory(2, 7),
        frac in 0.0..1.5f64,
    ) {
        let mut scratch = EdwpScratch::new();
        for metric in METRICS {
            for mode in MODES {
                let exact = distance(metric, mode, &q, &t);
                for cutoff in [exact * frac, exact, f64::INFINITY] {
                    let got = metric.distance_bounded(mode, &q, &t, cutoff.into(), &mut scratch);
                    if got <= cutoff {
                        prop_assert_eq!(got, exact);
                    } else {
                        prop_assert!(got <= exact + 1e-9 * (1.0 + exact));
                    }
                }
            }
        }
    }
}
