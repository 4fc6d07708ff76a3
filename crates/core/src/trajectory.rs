use crate::{CoreError, Point, Segment, StBox, StPoint};

/// A trajectory (Definitions 1–2): a temporally ordered sequence of
/// st-points, equivalently viewed as a sequence of st-segments.
///
/// Invariants enforced at construction:
/// * at least two st-points (so there is at least one segment);
/// * timestamps are non-decreasing;
/// * every coordinate and timestamp is finite and lies in the domain
///   `[-1e100, 1e100]`.
///
/// # The coordinate domain
///
/// The domain keeps every intermediate of the distance kernels finite.
/// With `|x|, |y| ≤ L = 1e100` a coordinate gap is at most `2L`, a squared
/// gap `dx² + dy²` at most `8L² = 8e200`, a segment at most `2√2·L` long,
/// and a trajectory of up to `u32::MAX` points at most `1.3e110` long. An
/// EDwP edit costs `(d₁ + d₂) · (len a + len b)` with both distances at
/// most `2√2·L`, and the pieces of an alignment tile both trajectories, so
/// a coverage sum (an exact distance, a DP state, a lower bound) stays
/// below `4√2·L · 2.6e110 ≈ 1.5e211`; a box area ([`StBox::volume`], which
/// multiplies two spans) stays below `4L² = 4e200`. That leaves about 96
/// orders of magnitude before `f64::MAX` (`1.8e308`). Past the domain the
/// squares overflow first: from about `1e154` a squared gap is `inf`, and
/// `edwp(a, a)` of a trip scaled by `1e155` is `inf` rather than 0 — a
/// silently wrong neighbour, since index and brute force agree on it.
///
/// Timestamps never enter a distance (EDwP and its bounds are spatial),
/// so only finiteness protects the query path; they share the bound so
/// that a duration, an interpolated time and the time-synchronised
/// baselines stay finite too. Small magnitudes are unrestricted.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    points: Vec<StPoint>,
}

/// The largest magnitude a coordinate or timestamp may have (see the
/// domain section of [`Trajectory`]).
const DOMAIN: f64 = 1e100;

impl Trajectory {
    /// Builds a trajectory after validating the invariants above.
    pub fn new(points: Vec<StPoint>) -> Result<Self, CoreError> {
        if points.len() < 2 {
            return Err(CoreError::TooFewPoints { got: points.len() });
        }
        for (i, s) in points.iter().enumerate() {
            // One comparison per value rules out NaN, the infinities and
            // the rest of the outside of the domain at once.
            if !(s.p.x.abs() <= DOMAIN && s.p.y.abs() <= DOMAIN && s.t.abs() <= DOMAIN) {
                return Err(if s.is_finite() {
                    CoreError::OutOfDomain { index: i }
                } else {
                    CoreError::NotFinite { index: i }
                });
            }
            if i > 0 && s.t < points[i - 1].t {
                return Err(CoreError::NonMonotonicTime { index: i });
            }
        }
        Ok(Trajectory { points })
    }

    /// Convenience constructor from `(x, y, t)` tuples; panics on invalid
    /// input, so only use with literals (tests, examples, paper figures).
    pub fn from_xyt(pts: &[(f64, f64, f64)]) -> Self {
        Trajectory::new(pts.iter().map(|&p| p.into()).collect())
            .expect("literal trajectory must be valid")
    }

    /// Convenience constructor from `(x, y)` tuples with unit-spaced
    /// timestamps, for time-agnostic examples such as Appendix A.
    pub fn from_xy(pts: &[(f64, f64)]) -> Self {
        Trajectory::new(
            pts.iter()
                .enumerate()
                .map(|(i, &(x, y))| StPoint::new(x, y, i as f64))
                .collect(),
        )
        .expect("literal trajectory must be valid")
    }

    /// The st-points of the trajectory.
    #[inline]
    pub fn points(&self) -> &[StPoint] {
        &self.points
    }

    /// Number of st-points.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Number of st-segments (`|T|` in the segment view): `num_points - 1`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.points.len() - 1
    }

    /// The `i`-th st-segment.
    #[inline]
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.points[i], self.points[i + 1])
    }

    /// Iterator over all st-segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total spatial length (Eq. 1).
    pub fn length(&self) -> f64 {
        self.segments().map(|e| e.length()).sum()
    }

    /// Total duration from first to last timestamp.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.points[self.points.len() - 1].t - self.points[0].t
    }

    /// Average speed over the whole trajectory (0 for zero duration).
    pub fn avg_speed(&self) -> f64 {
        let d = self.duration();
        if d > 0.0 {
            self.length() / d
        } else {
            0.0
        }
    }

    /// First st-point.
    #[inline]
    pub fn first(&self) -> StPoint {
        self.points[0]
    }

    /// Last st-point.
    #[inline]
    pub fn last(&self) -> StPoint {
        self.points[self.points.len() - 1]
    }

    /// The contiguous sub-trajectory spanning point indices `a ..= b`
    /// (`T[a, .., b]` in the paper's notation, 0-based). Panics unless
    /// `a < b < num_points`.
    pub fn sub_trajectory(&self, a: usize, b: usize) -> Trajectory {
        assert!(
            a < b && b < self.points.len(),
            "invalid sub-trajectory range"
        );
        Trajectory {
            points: self.points[a..=b].to_vec(),
        }
    }

    /// `true` if `self` appears as a contiguous run of st-points inside
    /// `other` (Definition 2).
    pub fn is_sub_trajectory_of(&self, other: &Trajectory) -> bool {
        if self.points.len() > other.points.len() {
            return false;
        }
        other
            .points
            .windows(self.points.len())
            .any(|w| w == self.points.as_slice())
    }

    /// Tight spatial bounding box over all points; `min_len` is the minimum
    /// segment length.
    pub fn bounding_box(&self) -> StBox {
        let mut b = StBox::from_segment(&self.segment(0));
        for e in self.segments().skip(1) {
            b.expand_to_segment(&e);
        }
        b
    }

    /// The interpolated position at absolute time `t`, clamped to the
    /// trajectory's time span. Used by DISSIM and time-synchronised
    /// comparisons.
    pub fn position_at(&self, t: f64) -> Point {
        if t <= self.points[0].t {
            return self.points[0].p;
        }
        if t >= self.last().t {
            return self.last().p;
        }
        // Binary search for the segment containing t.
        let idx = match self
            .points
            .binary_search_by(|s| s.t.partial_cmp(&t).expect("finite timestamps"))
        {
            Ok(i) => return self.points[i].p,
            Err(i) => i - 1,
        };
        let e = self.segment(idx);
        let dur = e.duration();
        if dur <= 0.0 {
            e.a.p
        } else {
            e.a.p.lerp(e.b.p, (t - e.a.t) / dur)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn rejects_too_few_points() {
        assert_eq!(
            Trajectory::new(vec![StPoint::new(0.0, 0.0, 0.0)]),
            Err(CoreError::TooFewPoints { got: 1 })
        );
        assert_eq!(
            Trajectory::new(vec![]),
            Err(CoreError::TooFewPoints { got: 0 })
        );
    }

    #[test]
    fn rejects_time_travel() {
        let r = Trajectory::new(vec![
            StPoint::new(0.0, 0.0, 10.0),
            StPoint::new(1.0, 0.0, 5.0),
        ]);
        assert_eq!(r, Err(CoreError::NonMonotonicTime { index: 1 }));
    }

    #[test]
    fn rejects_non_finite() {
        let r = Trajectory::new(vec![
            StPoint::new(0.0, 0.0, 0.0),
            StPoint::new(f64::NAN, 0.0, 1.0),
        ]);
        assert_eq!(r, Err(CoreError::NotFinite { index: 1 }));
    }

    #[test]
    fn rejects_out_of_domain_and_accepts_its_edge() {
        let at = |x: f64, y: f64, t: f64| {
            Trajectory::new(vec![StPoint::new(0.0, 0.0, 0.0), StPoint::new(x, y, t)])
        };
        assert!(at(1e100, -1e100, 1e100).is_ok(), "the edge is inside");
        for (x, y, t) in [(1.01e100, 0.0, 1.0), (0.0, -1e155, 1.0), (0.0, 0.0, 1e101)] {
            assert_eq!(at(x, y, t), Err(CoreError::OutOfDomain { index: 1 }));
        }
        // Non-finite input keeps its own error.
        assert_eq!(
            at(f64::INFINITY, 0.0, 1.0),
            Err(CoreError::NotFinite { index: 1 })
        );
    }

    #[test]
    fn allows_equal_timestamps() {
        // Check-in style data can carry duplicate timestamps.
        assert!(Trajectory::new(vec![
            StPoint::new(0.0, 0.0, 1.0),
            StPoint::new(1.0, 0.0, 1.0),
        ])
        .is_ok());
    }

    #[test]
    fn length_sums_segments() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (3.0, 4.0, 5.0), (3.0, 10.0, 11.0)]);
        assert!(approx_eq(t.length(), 11.0));
        assert_eq!(t.num_segments(), 2);
    }

    #[test]
    fn sub_trajectory_matches_definition() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]);
        let s = t.sub_trajectory(1, 2);
        assert_eq!(s.num_points(), 2);
        assert!(s.is_sub_trajectory_of(&t));
        let not_sub = Trajectory::from_xy(&[(0.0, 0.0), (2.0, 0.0)]);
        assert!(!not_sub.is_sub_trajectory_of(&t));
    }

    #[test]
    fn whole_trajectory_is_its_own_sub_trajectory() {
        let t = Trajectory::from_xy(&[(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]);
        assert!(t.clone().is_sub_trajectory_of(&t));
    }

    #[test]
    fn bounding_box_covers_all_points() {
        let t = Trajectory::from_xyt(&[(0.0, 5.0, 0.0), (-2.0, 1.0, 1.0), (4.0, 2.0, 2.0)]);
        let b = t.bounding_box();
        for s in t.points() {
            assert!(b.contains_point(s.p));
        }
    }

    #[test]
    fn position_at_interpolates_linearly() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (10.0, 0.0, 10.0)]);
        assert_eq!(t.position_at(2.5), Point::new(2.5, 0.0));
        // Clamps outside the time span.
        assert_eq!(t.position_at(-5.0), Point::new(0.0, 0.0));
        assert_eq!(t.position_at(50.0), Point::new(10.0, 0.0));
    }

    #[test]
    fn position_at_exact_sample() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (4.0, 0.0, 4.0), (4.0, 6.0, 10.0)]);
        assert_eq!(t.position_at(4.0), Point::new(4.0, 0.0));
    }

    #[test]
    fn avg_speed() {
        let t = Trajectory::from_xyt(&[(0.0, 0.0, 0.0), (10.0, 0.0, 5.0)]);
        assert!(approx_eq(t.avg_speed(), 2.0));
    }
}
