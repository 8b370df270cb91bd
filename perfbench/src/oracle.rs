//! Answer checking. Every M4 answer is reduced to a digest that is
//! equal exactly when two answers are equivalent in the repository's
//! own sense ([`m4::M4Result::equivalent`]: identical first and last
//! points, equal bottom and top values), then compared with the digest
//! of `m4::oracle::m4_scan` over the generated points.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use m4::oracle::m4_scan;
use m4::{M4Query, SpanRepr};
use tsfile::types::Point;

/// Digest of one answer under representation equivalence.
pub fn digest(spans: &[Option<SpanRepr>]) -> u64 {
    let mut h = DefaultHasher::new();
    spans.len().hash(&mut h);
    for s in spans {
        match s {
            None => 0u8.hash(&mut h),
            Some(r) => {
                1u8.hash(&mut h);
                (r.first.t, r.first.v.to_bits()).hash(&mut h);
                (r.last.t, r.last.v.to_bits()).hash(&mut h);
                r.bottom.v.to_bits().hash(&mut h);
                r.top.v.to_bits().hash(&mut h);
            }
        }
    }
    h.finish()
}

/// Oracle digest of `query` over a time-sorted series.
pub fn scan_digest(points: &[Point], query: &M4Query) -> u64 {
    let lo = points.partition_point(|p| p.t < query.t_qs);
    let hi = points.partition_point(|p| p.t < query.t_qe);
    digest(&m4_scan(&points[lo..hi], query).spans)
}

/// An M4 answer built up from disjoint, individually time-sorted runs
/// of points arriving in any time order: each run goes through
/// `m4_scan`, and the per-span results merge exactly (first and last
/// by time, bottom and top by value).
#[derive(Debug, Clone)]
pub struct Fold {
    query: M4Query,
    spans: Vec<Option<SpanRepr>>,
}

impl Fold {
    pub fn new(query: M4Query) -> Fold {
        Fold {
            spans: vec![None; query.w],
            query,
        }
    }

    pub fn add_run(&mut self, run: &[Point]) {
        let part = m4_scan(run, &self.query);
        for (acc, new) in self.spans.iter_mut().zip(part.spans) {
            let Some(n) = new else { continue };
            *acc = Some(match *acc {
                None => n,
                Some(a) => SpanRepr {
                    first: if n.first.t < a.first.t {
                        n.first
                    } else {
                        a.first
                    },
                    last: if n.last.t > a.last.t { n.last } else { a.last },
                    bottom: if n.bottom.v.total_cmp(&a.bottom.v).is_lt() {
                        n.bottom
                    } else {
                        a.bottom
                    },
                    top: if n.top.v.total_cmp(&a.top.v).is_gt() {
                        n.top
                    } else {
                        a.top
                    },
                },
            });
        }
    }

    pub fn digest(&self) -> u64 {
        digest(&self.spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_runs_match_one_scan_in_any_order() {
        let pts: Vec<Point> = (0..5_000i64)
            .map(|t| Point::new(t * 7, ((t * 31) % 97) as f64 - 40.0))
            .collect();
        let q = M4Query::new(0, 35_000, 37).unwrap();
        let whole = scan_digest(&pts, &q);
        let mut fold = Fold::new(q);
        for run in pts.chunks(333).rev() {
            fold.add_run(run);
        }
        assert_eq!(fold.digest(), whole);
    }

    #[test]
    fn digest_ignores_which_tied_point_is_bottom() {
        let a = SpanRepr {
            first: Point::new(0, 1.0),
            last: Point::new(9, 1.0),
            bottom: Point::new(0, 1.0),
            top: Point::new(0, 1.0),
        };
        let b = SpanRepr {
            bottom: Point::new(9, 1.0),
            ..a
        };
        assert_eq!(digest(&[Some(a)]), digest(&[Some(b)]));
        let c = SpanRepr {
            last: Point::new(8, 1.0),
            ..a
        };
        assert_ne!(digest(&[Some(a)]), digest(&[Some(c)]));
    }
}
