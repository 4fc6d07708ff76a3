use crate::{Point, Segment};

/// A spatio-temporal box (Definition 4): an axis-aligned bounding box over a
/// set of st-segments, plus `min_len`, the minimum length of all segments it
/// encloses (used by the generalised `Coverage` of Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StBox {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
    /// Minimum length among the enclosed segments (`b.minL`).
    pub min_len: f64,
}

impl StBox {
    /// A box containing exactly one point, with `min_len = 0`.
    pub fn from_point(p: Point) -> Self {
        StBox {
            lo: p,
            hi: p,
            min_len: 0.0,
        }
    }

    /// The tight bounding box of one segment; `min_len` is that segment's
    /// length.
    pub fn from_segment(e: &Segment) -> Self {
        StBox {
            lo: Point::new(e.a.p.x.min(e.b.p.x), e.a.p.y.min(e.b.p.y)),
            hi: Point::new(e.a.p.x.max(e.b.p.x), e.a.p.y.max(e.b.p.y)),
            min_len: e.length(),
        }
    }

    /// Creates a box from explicit corners (normalised so `lo ≤ hi`) and a
    /// minimum enclosed-segment length.
    pub fn new(a: Point, b: Point, min_len: f64) -> Self {
        StBox {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
            min_len,
        }
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area of the box (`Vol` in 2-D, Definition 5).
    #[inline]
    pub fn volume(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre of the box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) * 0.5, (self.lo.y + self.hi.y) * 0.5)
    }

    /// `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// The point of the box closest to `q` — the generalised *projection*
    /// `p^{ins(b, s)}` of Sec. IV-A. Equals `q` itself when `q` is inside.
    #[inline]
    pub fn closest_point(&self, q: Point) -> Point {
        Point::new(
            q.x.clamp(self.lo.x, self.hi.x),
            q.y.clamp(self.lo.y, self.hi.y),
        )
    }

    /// Generalised `dist(s, b)`: the minimum distance from `q` to any point
    /// of the box (0 when inside).
    #[inline]
    pub fn dist_to_point(&self, q: Point) -> f64 {
        self.closest_point(q).dist(q)
    }

    /// Smallest box covering `self` and `other`; `min_len` is the minimum of
    /// the two (the union encloses both segment sets).
    pub fn union(&self, other: &StBox) -> StBox {
        StBox {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
            min_len: self.min_len.min(other.min_len),
        }
    }

    /// Grows the box in place to enclose segment `e`, updating `min_len`.
    pub fn expand_to_segment(&mut self, e: &Segment) {
        let sb = StBox::from_segment(e);
        *self = self.union(&sb);
    }

    /// The four boundary edges of the box as degenerate-time segments
    /// (counter-clockwise from the lower-left corner).
    pub fn edges(&self) -> [Segment; 4] {
        let c0 = crate::StPoint::at(self.lo, 0.0);
        let c1 = crate::StPoint::at(Point::new(self.hi.x, self.lo.y), 0.0);
        let c2 = crate::StPoint::at(self.hi, 0.0);
        let c3 = crate::StPoint::at(Point::new(self.lo.x, self.hi.y), 0.0);
        [
            Segment::new(c0, c1),
            Segment::new(c1, c2),
            Segment::new(c2, c3),
            Segment::new(c3, c0),
        ]
    }

    /// The parametric position on `seg` closest to this box, together with
    /// the achieved distance — the generalised *reverse projection*
    /// `p^{ins(e, b)}` of Sec. IV-A. Returns distance 0 (at the first
    /// touching parameter found) when the segment passes through the box.
    pub fn closest_param_on_segment(&self, seg: &Segment) -> (f64, f64) {
        // Inside tests for the endpoints are the cheap common case.
        if self.contains_point(seg.a.p) {
            return (0.0, 0.0);
        }
        if self.contains_point(seg.b.p) {
            // Entry parameter via slab clipping would be earlier, but any
            // touching parameter is a valid projection; prefer the
            // earliest touching point for determinism.
            if let Some((t0, _)) = self.clip_segment(seg) {
                return (t0, 0.0);
            }
            return (1.0, 0.0);
        }
        if let Some((t0, _)) = self.clip_segment(seg) {
            return (t0, 0.0);
        }
        // Fully outside: minimum over the four boundary edges. Iterating
        // the edge array by reference keeps this loop's codegen stable:
        // by value, unrelated edits elsewhere in the crate have flipped
        // LLVM into a form that made bulk loads ~15 % slower.
        let mut best = (0.0, f64::INFINITY);
        for edge in &self.edges() {
            let (t_seg, _, d) = seg.closest_params(edge);
            if d < best.1 {
                best = (t_seg, d);
            }
        }
        best
    }

    /// Liang–Barsky clip of `seg` against the box: the parametric interval
    /// `[t0, t1] ⊆ [0, 1]` of the segment inside the box, or `None` when
    /// they do not overlap.
    pub fn clip_segment(&self, seg: &Segment) -> Option<(f64, f64)> {
        let p = seg.a.p;
        let d = seg.b.p - seg.a.p;
        let mut t0 = 0.0_f64;
        let mut t1 = 1.0_f64;
        for (dir, lo, hi, start) in [
            (d.x, self.lo.x, self.hi.x, p.x),
            (d.y, self.lo.y, self.hi.y, p.y),
        ] {
            if dir.abs() < f64::EPSILON {
                if start < lo || start > hi {
                    return None;
                }
            } else {
                let mut ta = (lo - start) / dir;
                let mut tb = (hi - start) / dir;
                if ta > tb {
                    std::mem::swap(&mut ta, &mut tb);
                }
                t0 = t0.max(ta);
                t1 = t1.min(tb);
                if t0 > t1 {
                    return None;
                }
            }
        }
        Some((t0, t1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, StPoint};

    fn seg(a: (f64, f64), b: (f64, f64)) -> Segment {
        Segment::new(StPoint::new(a.0, a.1, 0.0), StPoint::new(b.0, b.1, 1.0))
    }

    #[test]
    fn from_segment_is_tight() {
        let b = StBox::from_segment(&seg((2.0, 5.0), (-1.0, 3.0)));
        assert_eq!(b.lo, Point::new(-1.0, 3.0));
        assert_eq!(b.hi, Point::new(2.0, 5.0));
        assert!(approx_eq(b.min_len, (9.0_f64 + 4.0).sqrt()));
    }

    #[test]
    fn dist_zero_inside_positive_outside() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        assert!(approx_eq(b.dist_to_point(Point::new(2.0, 2.0)), 0.0));
        assert!(approx_eq(b.dist_to_point(Point::new(7.0, 8.0)), 5.0));
        assert!(approx_eq(b.dist_to_point(Point::new(-3.0, 2.0)), 3.0));
    }

    #[test]
    fn closest_point_clamps() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        assert_eq!(b.closest_point(Point::new(9.0, -2.0)), Point::new(4.0, 0.0));
        assert_eq!(b.closest_point(Point::new(1.0, 1.0)), Point::new(1.0, 1.0));
    }

    #[test]
    fn union_covers_both_and_takes_min_len() {
        let b1 = StBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0), 2.0);
        let b2 = StBox::new(Point::new(3.0, -1.0), Point::new(4.0, 0.5), 0.5);
        let u = b1.union(&b2);
        assert_eq!(u.lo, Point::new(0.0, -1.0));
        assert_eq!(u.hi, Point::new(4.0, 1.0));
        assert!(approx_eq(u.min_len, 0.5));
    }

    #[test]
    fn volume_of_degenerate_box_is_zero() {
        let b = StBox::from_point(Point::new(1.0, 2.0));
        assert!(approx_eq(b.volume(), 0.0));
        assert!(b.contains_point(Point::new(1.0, 2.0)));
    }

    #[test]
    fn clip_segment_through_box() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        let s = seg((-2.0, 2.0), (6.0, 2.0));
        let (t0, t1) = b.clip_segment(&s).expect("crosses box");
        assert!(approx_eq(t0, 0.25));
        assert!(approx_eq(t1, 0.75));
    }

    #[test]
    fn clip_segment_misses_box() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        assert!(b.clip_segment(&seg((-2.0, 5.0), (6.0, 5.0))).is_none());
        assert!(b.clip_segment(&seg((5.0, -1.0), (5.0, 5.0))).is_none());
    }

    #[test]
    fn closest_param_inside_is_zero_distance() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        let (t, d) = b.closest_param_on_segment(&seg((1.0, 1.0), (3.0, 3.0)));
        assert!(approx_eq(d, 0.0));
        assert!(approx_eq(t, 0.0));
    }

    #[test]
    fn closest_param_outside_segment() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        // Horizontal segment above the box: the closest point is directly
        // above the box top edge, anywhere with x in [0,4]; distance 2.
        let s = seg((-4.0, 6.0), (4.0, 6.0));
        let (t, d) = b.closest_param_on_segment(&s);
        assert!(approx_eq(d, 2.0));
        let x = -4.0 + 8.0 * t;
        assert!((0.0..=4.0).contains(&x), "closest x={x} not over the box");
    }

    #[test]
    fn closest_param_entering_box() {
        let b = StBox::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0), 1.0);
        let s = seg((-4.0, 2.0), (2.0, 2.0));
        let (t, d) = b.closest_param_on_segment(&s);
        assert!(approx_eq(d, 0.0));
        // First touch at x=0 → t = 4/6.
        assert!(approx_eq(t, 4.0 / 6.0));
    }
}
