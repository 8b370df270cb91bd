//! Representation functions and result types (Definition 2.1).

use tsfile::types::Point;

/// The four M4 representation points of one time span's subsequence.
///
/// `bottom`/`top` may be any point attaining the extreme value
/// (Definition 2.1 allows ties to resolve arbitrarily); equality of two
/// results therefore compares bottom/top by *value* and first/last by
/// full point — see [`SpanRepr::equivalent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRepr {
    /// FP(Tᵢ): the point with minimal time.
    pub first: Point,
    /// LP(Tᵢ): the point with maximal time.
    pub last: Point,
    /// BP(Tᵢ): a point with minimal value.
    pub bottom: Point,
    /// TP(Tᵢ): a point with maximal value.
    pub top: Point,
}

impl SpanRepr {
    /// Compute the representation of a non-empty, time-sorted slice.
    /// Ties on value resolve to the earliest point. Values compare in
    /// `f64::total_cmp` order, as integer keys, and the extremes are
    /// tracked by position: the loop stays branch-light.
    pub fn from_sorted_points(points: &[Point]) -> Option<Self> {
        fn key(v: f64) -> i64 {
            // The integer order `f64::total_cmp` is defined by.
            let b = v.to_bits() as i64;
            b ^ ((((b >> 63) as u64) >> 1) as i64)
        }
        let (&first, &last) = (points.first()?, points.last()?);
        let (mut bottom, mut top) = (0, 0);
        let (mut bk, mut tk) = (key(first.v), key(first.v));
        for (i, p) in points.iter().enumerate().skip(1) {
            let k = key(p.v);
            if k < bk {
                (bk, bottom) = (k, i);
            }
            if k > tk {
                (tk, top) = (k, i);
            }
        }
        Some(SpanRepr {
            first,
            last,
            bottom: points[bottom],
            top: points[top],
        })
    }

    /// Representation equivalence: identical first/last points and
    /// equal bottom/top *values* (Definition 2.1: any point attaining
    /// the extreme value is a valid BP/TP; only values drive the
    /// inner-column pixels).
    pub fn equivalent(&self, other: &SpanRepr) -> bool {
        point_eq(self.first, other.first)
            && point_eq(self.last, other.last)
            && self.bottom.v.total_cmp(&other.bottom.v).is_eq()
            && self.top.v.total_cmp(&other.top.v).is_eq()
    }
}

/// Point equality under total value ordering (NaN == NaN; -0.0 ≠ 0.0).
fn point_eq(a: Point, b: Point) -> bool {
    a.t == b.t && a.v.total_cmp(&b.v).is_eq()
}

/// The result of an M4 query: one optional [`SpanRepr`] per span
/// (`None` for spans holding no points).
#[derive(Debug, Clone, PartialEq)]
pub struct M4Result {
    pub spans: Vec<Option<SpanRepr>>,
}

impl M4Result {
    /// Number of spans (the query's `w`).
    pub fn width(&self) -> usize {
        self.spans.len()
    }

    /// Number of non-empty spans.
    pub fn non_empty(&self) -> usize {
        self.spans.iter().filter(|s| s.is_some()).count()
    }

    /// Representation equivalence across all spans (see
    /// [`SpanRepr::equivalent`]).
    pub fn equivalent(&self, other: &M4Result) -> bool {
        self.spans.len() == other.spans.len()
            && self
                .spans
                .iter()
                .zip(&other.spans)
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(a), Some(b)) => a.equivalent(b),
                    _ => false,
                })
    }

    /// Flatten to the at-most-4w representation points, in span order
    /// (first, last, bottom, top per span), deduplicated per span.
    pub fn points(&self) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.non_empty() * 4);
        for s in self.spans.iter().flatten() {
            let mut span_pts = [s.first, s.bottom, s.top, s.last];
            span_pts.sort_by(|a, b| a.t.cmp(&b.t).then(a.v.total_cmp(&b.v)));
            for (i, p) in span_pts.iter().enumerate() {
                if i == 0 || span_pts[i - 1] != *p {
                    out.push(*p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    // Tests assert by panicking; the workspace deny-set targets library code.
    #![allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )]

    use super::*;

    fn pts(raw: &[(i64, f64)]) -> Vec<Point> {
        raw.iter().map(|&(t, v)| Point::new(t, v)).collect()
    }

    #[test]
    fn from_sorted_points_basic() {
        let points = pts(&[(1, 5.0), (2, -3.0), (3, 9.0), (4, 0.0)]);
        let r = SpanRepr::from_sorted_points(&points).unwrap();
        assert_eq!(r.first, Point::new(1, 5.0));
        assert_eq!(r.last, Point::new(4, 0.0));
        assert_eq!(r.bottom, Point::new(2, -3.0));
        assert_eq!(r.top, Point::new(3, 9.0));
    }

    #[test]
    fn from_sorted_points_orders_like_total_cmp() {
        // Ties go to the earliest point; -0.0 sorts below 0.0 and NaN
        // above +inf, as `f64::total_cmp` orders them.
        let points = pts(&[
            (1, 0.0),
            (2, -0.0),
            (3, f64::NAN),
            (4, f64::INFINITY),
            (5, -0.0),
            (6, f64::NAN),
        ]);
        let r = SpanRepr::from_sorted_points(&points).unwrap();
        assert_eq!(r.bottom.t, 2);
        assert_eq!(r.top.t, 3);
        let ties = pts(&[(1, 2.0), (2, 1.0), (3, 2.0), (4, 1.0)]);
        let r = SpanRepr::from_sorted_points(&ties).unwrap();
        assert_eq!((r.bottom.t, r.top.t), (2, 1));
    }

    #[test]
    fn empty_slice_gives_none() {
        assert!(SpanRepr::from_sorted_points(&[]).is_none());
    }

    #[test]
    fn single_point_is_all_four() {
        let r = SpanRepr::from_sorted_points(&pts(&[(7, 3.0)])).unwrap();
        assert_eq!(r.first, r.last);
        assert_eq!(r.bottom, r.top);
        assert_eq!(r.first, Point::new(7, 3.0));
    }

    #[test]
    fn equivalence_ignores_extreme_tie_times() {
        let a = SpanRepr {
            first: Point::new(1, 0.0),
            last: Point::new(9, 0.0),
            bottom: Point::new(3, -5.0),
            top: Point::new(4, 5.0),
        };
        let mut b = a;
        b.bottom = Point::new(7, -5.0); // same value, different time
        assert!(a.equivalent(&b));
        b.top = Point::new(4, 6.0); // different value
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn result_points_dedup() {
        let r = M4Result {
            spans: vec![
                Some(SpanRepr::from_sorted_points(&pts(&[(7, 3.0)])).unwrap()),
                None,
                Some(SpanRepr::from_sorted_points(&pts(&[(10, 1.0), (11, 2.0)])).unwrap()),
            ],
        };
        assert_eq!(r.width(), 3);
        assert_eq!(r.non_empty(), 2);
        // Span 0 collapses to one point; span 2 to two.
        assert_eq!(r.points(), pts(&[(7, 3.0), (10, 1.0), (11, 2.0)]));
    }
}
