//! Golden values: EDwP pinned to the paper's worked examples, plus unit
//! coverage of the `StBox` minimum-distance primitives and `BoxSeq`
//! coarsening the TrajTree index builds on. These are exact expectations
//! (up to [`traj_core::approx_eq`]), not tolerances around an
//! approximation, so any regression in the DP or the geometry shows up
//! immediately.

use traj_core::{approx_eq, Point, Segment, StBox, StPoint, Trajectory};
use traj_dist::{edwp, edwp_avg, edwp_lower_bound_boxes, BoxSeq};

fn t(pts: &[(f64, f64)]) -> Trajectory {
    Trajectory::from_xy(pts)
}

// ---------------------------------------------------------------------------
// EDwP on the paper's examples
// ---------------------------------------------------------------------------

/// Appendix A: T1 = [(0,0),(0,1)], T2 appends (0,2), T3 appends (0,3).
/// EDwP(T1,T2) = EDwP(T2,T3) = 1 and EDwP(T1,T3) = 4, hence the triangle
/// inequality is violated (Theorem 1).
#[test]
fn appendix_a_exact_values() {
    let t1 = t(&[(0.0, 0.0), (0.0, 1.0)]);
    let t2 = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]);
    let t3 = t(&[(0.0, 0.0), (0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]);
    assert!(approx_eq(edwp(&t1, &t2), 1.0), "got {}", edwp(&t1, &t2));
    assert!(approx_eq(edwp(&t2, &t3), 1.0), "got {}", edwp(&t2, &t3));
    assert!(approx_eq(edwp(&t1, &t3), 4.0), "got {}", edwp(&t1, &t3));
    assert!(edwp(&t1, &t2) + edwp(&t2, &t3) < edwp(&t1, &t3));
}

/// Example 1 (Fig. 2a): projecting T2's sample (2,7,14) onto T1's first
/// segment inserts (0,7,21); replacing [(0,0),(0,7)] with [(2,0),(2,7)]
/// costs (2+2)·(7+7) = 56, so the full alignment must cost at most the
/// first-edit bound of 64 derived in the paper's walk-through.
#[test]
fn example_1_projection_alignment() {
    let t1 = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (0.0, 8.0, 24.0)]);
    let t2 = Trajectory::from_xyt(&[(2.0, 0.0, 0.0), (2.0, 7.0, 14.0), (2.0, 8.0, 20.0)]);
    let d = edwp(&t1, &t2);
    assert!(d <= 64.0 + 1e-9, "projection alignment not found: {d}");
    // The projection itself (Sec. III-A): timestamp interpolates to 21.
    let seg = Segment::new(StPoint::new(0.0, 0.0, 0.0), StPoint::new(0.0, 8.0, 24.0));
    let pr = seg.project(Point::new(2.0, 7.0));
    assert!(approx_eq(pr.point.t, 21.0));
    assert!(approx_eq(pr.dist, 2.0));
}

/// Two parallel unit-speed lines at offset 2: the only alignment is one
/// rep costing (2+2)·(10+10) = 80; normalised (Eq. 4): 80/20 = 4.
#[test]
fn parallel_lines_exact_cost() {
    let t1 = t(&[(0.0, 0.0), (0.0, 10.0)]);
    let t2 = t(&[(2.0, 0.0), (2.0, 10.0)]);
    assert!(approx_eq(edwp(&t1, &t2), 80.0));
    assert!(approx_eq(edwp_avg(&t1, &t2), 4.0));
}

/// Densified collinear copies are identical under EDwP (Corollary 2 at its
/// exact fixed point).
#[test]
fn collinear_densification_is_free() {
    let sparse = t(&[(0.0, 0.0), (10.0, 0.0)]);
    let dense = t(&[(0.0, 0.0), (2.5, 0.0), (5.0, 0.0), (7.5, 0.0), (10.0, 0.0)]);
    assert!(approx_eq(edwp(&sparse, &dense), 0.0));
}

// ---------------------------------------------------------------------------
// StBox minimum-distance primitives used by the index bounds
// ---------------------------------------------------------------------------

#[test]
fn stbox_point_distance_golden() {
    let b = StBox::new(Point::new(2.0, 3.0), Point::new(6.0, 5.0), 1.0);
    // Inside and on the boundary: 0.
    assert!(approx_eq(b.dist_to_point(Point::new(4.0, 4.0)), 0.0));
    assert!(approx_eq(b.dist_to_point(Point::new(2.0, 3.0)), 0.0));
    // Axis-aligned outside: plain offsets.
    assert!(approx_eq(b.dist_to_point(Point::new(9.0, 4.0)), 3.0));
    assert!(approx_eq(b.dist_to_point(Point::new(4.0, 0.0)), 3.0));
    // Corner diagonal: 3-4-5 triangle from (6,5).
    assert!(approx_eq(b.dist_to_point(Point::new(9.0, 9.0)), 5.0));
}

#[test]
fn stbox_segment_distance_golden() {
    let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
    let seg = |a: (f64, f64), c: (f64, f64)| {
        Segment::new(StPoint::new(a.0, a.1, 0.0), StPoint::new(c.0, c.1, 1.0))
    };
    // Crossing segment: distance 0, entry parameter from Liang–Barsky.
    let (t0, d) = b.closest_param_on_segment(&seg((-2.0, 2.0), (6.0, 2.0)));
    assert!(approx_eq(d, 0.0));
    assert!(approx_eq(t0, 0.25));
    // Parallel segment above the box at height 6: distance 2.
    let (_, d) = b.closest_param_on_segment(&seg((-4.0, 6.0), (8.0, 6.0)));
    assert!(approx_eq(d, 2.0));
    // Far diagonal segment: closest at its start corner-to-corner.
    let (tp, d) = b.closest_param_on_segment(&seg((7.0, 8.0), (10.0, 12.0)));
    assert!(approx_eq(d, 5.0));
    assert!(approx_eq(tp, 0.0));
}

// ---------------------------------------------------------------------------
// BoxSeq coarsening (the index's summary budget mechanism)
// ---------------------------------------------------------------------------

#[test]
fn coalesce_prefers_cheapest_adjacent_union() {
    // Segments spanning x-ranges [0,1], [1,2], [2,11]: uniting the first
    // two boxes costs no extra area beyond their sum, so the budget-2
    // coalesce must merge them and leave the wide right box intact.
    let mut seq = BoxSeq::from_trajectory(&t(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (11.0, 1.0)]));
    assert_eq!(seq.len(), 3);
    seq.coalesce(Some(2));
    assert_eq!(seq.len(), 2);
    // The two adjacent left boxes united; the long right box is unchanged.
    let widths: Vec<f64> = seq.boxes().iter().map(|b| b.width()).collect();
    assert!(approx_eq(widths[0], 2.0), "widths {widths:?}");
    assert!(approx_eq(widths[1], 9.0), "widths {widths:?}");
}

#[test]
fn coalesce_to_one_box_is_overall_bounding_box() {
    let tr = t(&[(0.0, 0.0), (3.0, 7.0), (12.0, 1.0), (5.0, -4.0)]);
    let mut seq = BoxSeq::from_trajectory(&tr);
    seq.coalesce(Some(1));
    assert_eq!(seq.len(), 1);
    let b = seq.boxes()[0];
    assert!(approx_eq(b.lo.x, 0.0) && approx_eq(b.lo.y, -4.0));
    assert!(approx_eq(b.hi.x, 12.0) && approx_eq(b.hi.y, 7.0));
    // All sample points remain covered.
    for s in tr.points() {
        assert!(b.contains_point(s.p));
    }
}

#[test]
fn coarsening_keeps_admissibility_and_weakens_monotonically() {
    let t1 = t(&[(0.0, 0.0), (0.0, 8.0), (8.0, 8.0), (10.0, 4.0)]);
    let t2 = t(&[(2.0, 0.0), (2.0, 7.0), (7.0, 7.0), (9.0, 3.0)]);
    let q = t(&[(30.0, 30.0), (34.0, 35.0), (40.0, 30.0)]);
    let full = BoxSeq::from_trajectories([&t1, &t2].into_iter(), None).unwrap();
    let mut budgets = vec![];
    for max in [6usize, 3, 1] {
        let mut seq = full.clone();
        seq.coalesce(Some(max));
        assert!(seq.len() <= max);
        budgets.push(edwp_lower_bound_boxes(&q, &seq));
    }
    // Admissible at every budget…
    for (lb, max) in budgets.iter().zip([6usize, 3, 1]) {
        assert!(
            *lb <= edwp(&q, &t1) + 1e-9 && *lb <= edwp(&q, &t2) + 1e-9,
            "budget {max}: bound {lb} exceeds a member distance"
        );
        assert!(*lb > 0.0, "far query must have a positive bound");
    }
    // …and (weakly) looser as boxes coarsen.
    assert!(budgets[0] >= budgets[1] - 1e-9);
    assert!(budgets[1] >= budgets[2] - 1e-9);
}

/// The construction-time alignment is still exercised: a trajectory
/// aligns against its own tight sequence box for box, so merging it back
/// in grows nothing.
#[test]
fn own_sequence_alignment_is_free() {
    let a = t(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0), (7.0, 1.0)]);
    let seq = BoxSeq::from_trajectory(&a);
    assert_eq!(seq.merge_trajectory(&a), seq);
    // Alg. 1's insertion criterion (line 11): the volume the merge adds.
    assert!(approx_eq(
        seq.merge_trajectory(&a).volume() - seq.volume(),
        0.0
    ));
    assert!(approx_eq(edwp_lower_bound_boxes(&a, &seq), 0.0));
}
