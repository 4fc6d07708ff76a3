use crate::{Point, StPoint};

/// The result of projecting a point onto a [`Segment`].
///
/// This is the `p^{ins(e1, e2.s2)}` construction of Sec. III-A: the point on
/// the segment spatially closest to the query point, together with its
/// parametric position and the achieved distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// The closest point on the segment, with its interpolated timestamp.
    pub point: StPoint,
    /// Parametric position in `[0, 1]` along the segment (0 = start).
    pub param: f64,
    /// Euclidean distance from the query point to [`Projection::point`].
    pub dist: f64,
}

/// A spatio-temporal segment (Definition 3): two temporally consecutive
/// st-points joined by linear interpolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start st-point (`e.s1` in the paper).
    pub a: StPoint,
    /// End st-point (`e.s2` in the paper).
    pub b: StPoint,
}

impl Segment {
    /// Creates a segment between two st-points.
    #[inline]
    pub const fn new(a: StPoint, b: StPoint) -> Self {
        Segment { a, b }
    }

    /// Spatial length `dist(e.s1, e.s2)` (Eq. 1's per-segment term).
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.dist(self.b)
    }

    /// Temporal duration `e.s2.t - e.s1.t`.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.b.t - self.a.t
    }

    /// Speed within the segment, `length / duration` (Sec. III). Returns 0
    /// for zero-duration segments to avoid propagating infinities.
    #[inline]
    pub fn speed(&self) -> f64 {
        let d = self.duration();
        if d > 0.0 {
            self.length() / d
        } else {
            0.0
        }
    }

    /// The st-point at parametric position `t ∈ [0, 1]`, with the timestamp
    /// interpolated in proportion to the induced spatial partition — exactly
    /// the `p_t^{ins}` formula of Sec. III-A (for a linear `f(·)` the spatial
    /// proportion equals the temporal proportion).
    #[inline]
    pub fn point_at(&self, t: f64) -> StPoint {
        let t = t.clamp(0.0, 1.0);
        StPoint::at(
            self.a.p.lerp(self.b.p, t),
            self.a.t + (self.b.t - self.a.t) * t,
        )
    }

    /// Projects `q` onto this segment: the point of the segment spatially
    /// closest to `q`, clamped to the segment's extent.
    pub fn project(&self, q: Point) -> Projection {
        let d = self.b.p - self.a.p;
        let len_sq = d.dot(d);
        let param = if len_sq > 0.0 {
            ((q - self.a.p).dot(d) / len_sq).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let point = self.point_at(param);
        Projection {
            point,
            param,
            dist: point.p.dist(q),
        }
    }

    /// Shortest spatial distance from `q` to any point of the segment.
    #[inline]
    pub fn dist_to_point(&self, q: Point) -> f64 {
        self.project(q).dist
    }

    /// Splits the segment at parametric position `t`, returning the two
    /// halves `[a, p]` and `[p, b]` where `p = point_at(t)`. This realises
    /// the `ins` edit's segment split.
    pub fn split_at(&self, t: f64) -> (Segment, Segment) {
        let p = self.point_at(t);
        (Segment::new(self.a, p), Segment::new(p, self.b))
    }

    /// `true` when the two segments intersect (including touching).
    pub fn intersects(&self, other: &Segment) -> bool {
        fn orient(a: Point, b: Point, c: Point) -> f64 {
            (b - a).x * (c - a).y - (b - a).y * (c - a).x
        }
        fn on_segment(a: Point, b: Point, c: Point) -> bool {
            c.x >= a.x.min(b.x) && c.x <= a.x.max(b.x) && c.y >= a.y.min(b.y) && c.y <= a.y.max(b.y)
        }
        let (p1, p2) = (self.a.p, self.b.p);
        let (q1, q2) = (other.a.p, other.b.p);
        let d1 = orient(q1, q2, p1);
        let d2 = orient(q1, q2, p2);
        let d3 = orient(p1, p2, q1);
        let d4 = orient(p1, p2, q2);
        if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
            && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
        {
            return true;
        }
        (d1 == 0.0 && on_segment(q1, q2, p1))
            || (d2 == 0.0 && on_segment(q1, q2, p2))
            || (d3 == 0.0 && on_segment(p1, p2, q1))
            || (d4 == 0.0 && on_segment(p1, p2, q2))
    }

    /// Closest pair of parametric positions between two segments:
    /// `(t_self, t_other, distance)`. Exact for 2-D segments: either the
    /// segments intersect (distance 0) or the minimum is attained at an
    /// endpoint of one segment projected onto the other.
    pub fn closest_params(&self, other: &Segment) -> (f64, f64, f64) {
        if self.intersects(other) {
            let r = self.b.p - self.a.p;
            let s = other.b.p - other.a.p;
            let denom = r.x * s.y - r.y * s.x;
            if denom.abs() > f64::EPSILON {
                // Proper crossing: analytic intersection parameters.
                let qp = other.a.p - self.a.p;
                let t_self = ((qp.x * s.y - qp.y * s.x) / denom).clamp(0.0, 1.0);
                let t_other = ((qp.x * r.y - qp.y * r.x) / denom).clamp(0.0, 1.0);
                return (t_self, t_other, 0.0);
            }
            // Collinear touch/overlap: an endpoint of one lies on the
            // other; the endpoint-projection sweep below finds it at
            // distance 0.
        }
        // Minimum attained at an endpoint of one segment projected onto
        // the other.
        let mut best = (0.0, 0.0, f64::INFINITY);
        let candidates = [
            (0.0, other.project(self.a.p)),
            (1.0, other.project(self.b.p)),
        ];
        for (t_self, pr) in candidates {
            if pr.dist < best.2 {
                best = (t_self, pr.param, pr.dist);
            }
        }
        let rev = [
            (0.0, self.project(other.a.p)),
            (1.0, self.project(other.b.p)),
        ];
        for (t_other, pr) in rev {
            if pr.dist < best.2 {
                best = (pr.param, t_other, pr.dist);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn seg(a: (f64, f64, f64), b: (f64, f64, f64)) -> Segment {
        Segment::new(a.into(), b.into())
    }

    #[test]
    fn length_and_speed() {
        let e = seg((0.0, 0.0, 0.0), (3.0, 4.0, 10.0));
        assert!(approx_eq(e.length(), 5.0));
        assert!(approx_eq(e.duration(), 10.0));
        assert!(approx_eq(e.speed(), 0.5));
    }

    #[test]
    fn zero_duration_speed_is_zero() {
        let e = seg((0.0, 0.0, 5.0), (1.0, 0.0, 5.0));
        assert!(approx_eq(e.speed(), 0.0));
    }

    #[test]
    fn paper_example_1_projection_timestamp() {
        // Example 1 / Fig. 2(a): T1.e1 = [(0,0,0), (0,8,24)]; projecting
        // T2.e1.s2 = (2,7,14) inserts the new point (0, 7, 21).
        let e = seg((0.0, 0.0, 0.0), (0.0, 8.0, 24.0));
        let pr = e.project(Point::new(2.0, 7.0));
        assert!(approx_eq(pr.point.p.x, 0.0));
        assert!(approx_eq(pr.point.p.y, 7.0));
        assert!(approx_eq(pr.point.t, 21.0));
        assert!(approx_eq(pr.dist, 2.0));
    }

    #[test]
    fn projection_clamps_to_endpoints() {
        let e = seg((0.0, 0.0, 0.0), (10.0, 0.0, 10.0));
        let before = e.project(Point::new(-5.0, 3.0));
        assert!(approx_eq(before.param, 0.0));
        assert_eq!(before.point.p, Point::new(0.0, 0.0));
        let after = e.project(Point::new(15.0, -4.0));
        assert!(approx_eq(after.param, 1.0));
        assert_eq!(after.point.p, Point::new(10.0, 0.0));
    }

    #[test]
    fn projection_onto_degenerate_segment() {
        let e = seg((1.0, 1.0, 0.0), (1.0, 1.0, 5.0));
        let pr = e.project(Point::new(4.0, 5.0));
        assert!(approx_eq(pr.param, 0.0));
        assert!(approx_eq(pr.dist, 5.0));
    }

    #[test]
    fn split_preserves_total_length() {
        let e = seg((0.0, 0.0, 0.0), (6.0, 8.0, 20.0));
        let (l, r) = e.split_at(0.3);
        assert!(approx_eq(l.length() + r.length(), e.length()));
        assert!(approx_eq(l.b.t, r.a.t));
        assert!(approx_eq(l.b.t, 6.0));
    }

    #[test]
    fn interior_projection_is_perpendicular_foot() {
        let e = seg((0.0, 0.0, 0.0), (10.0, 0.0, 10.0));
        let pr = e.project(Point::new(4.0, 3.0));
        assert!(approx_eq(pr.param, 0.4));
        assert!(approx_eq(pr.dist, 3.0));
        assert!(approx_eq(pr.point.t, 4.0));
    }

    #[test]
    fn intersecting_segments_detected() {
        let a = seg((0.0, 0.0, 0.0), (4.0, 4.0, 1.0));
        let b = seg((0.0, 4.0, 0.0), (4.0, 0.0, 1.0));
        assert!(a.intersects(&b));
        let (ta, tb, d) = a.closest_params(&b);
        assert!(approx_eq(d, 0.0));
        assert!(approx_eq(ta, 0.5));
        assert!(approx_eq(tb, 0.5));
    }

    #[test]
    fn touching_at_endpoint_counts_as_intersection() {
        let a = seg((0.0, 0.0, 0.0), (2.0, 0.0, 1.0));
        let b = seg((2.0, 0.0, 0.0), (4.0, 2.0, 1.0));
        assert!(a.intersects(&b));
        let (_, _, d) = a.closest_params(&b);
        assert!(approx_eq(d, 0.0));
    }

    #[test]
    fn parallel_segments_closest_distance() {
        let a = seg((0.0, 0.0, 0.0), (10.0, 0.0, 1.0));
        let b = seg((2.0, 3.0, 0.0), (8.0, 3.0, 1.0));
        assert!(!a.intersects(&b));
        let (ta, tb, d) = a.closest_params(&b);
        assert!(approx_eq(d, 3.0));
        // Attained anywhere over the overlap; endpoints of b project in.
        assert!((0.0..=1.0).contains(&ta) && (0.0..=1.0).contains(&tb));
    }

    #[test]
    fn skew_segments_closest_at_endpoint() {
        let a = seg((0.0, 0.0, 0.0), (1.0, 0.0, 1.0));
        let b = seg((3.0, 1.0, 0.0), (5.0, 4.0, 1.0));
        let (ta, tb, d) = a.closest_params(&b);
        assert!(approx_eq(ta, 1.0));
        assert!(approx_eq(tb, 0.0));
        assert!(approx_eq(
            d,
            Point::new(1.0, 0.0).dist(Point::new(3.0, 1.0))
        ));
    }

    #[test]
    fn collinear_overlapping_segments() {
        let a = seg((0.0, 0.0, 0.0), (4.0, 0.0, 1.0));
        let b = seg((2.0, 0.0, 0.0), (6.0, 0.0, 1.0));
        assert!(a.intersects(&b));
        let (_, _, d) = a.closest_params(&b);
        assert!(approx_eq(d, 0.0));
    }
}
