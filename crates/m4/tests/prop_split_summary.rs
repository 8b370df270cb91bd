//! The chunk-major summary pass must be invisible to query results and
//! to I/O: M4-LSM walks every fragment split by a span boundary once,
//! answers split fragments' candidates from those per-span summaries,
//! and combines time-disjoint spans without an executor. For any
//! history and query geometry, every ablation must stay Definition-2.1
//! equivalent to the scan oracle and to M4-UDF, with FP/LP
//! byte-identical; and each split fragment is decoded once per query.

// Tests assert by panicking; the workspace panic-freedom deny-set
// (root Cargo.toml) is aimed at library code.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::collections::BTreeMap;

use proptest::prelude::*;
use tsfile::testing::TempDir;
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::stats::IoSnapshot;
use tskv::TsKv;

use m4::oracle::m4_scan;
use m4::{M4Lsm, M4LsmConfig, M4Query, M4Result, M4Udf};

const ABLATIONS: [M4LsmConfig; 4] = [
    M4LsmConfig {
        lazy_load: true,
        use_step_index: true,
    },
    M4LsmConfig {
        lazy_load: false,
        use_step_index: true,
    },
    M4LsmConfig {
        lazy_load: true,
        use_step_index: false,
    },
    M4LsmConfig {
        lazy_load: false,
        use_step_index: false,
    },
];

#[derive(Debug, Clone)]
enum Op {
    /// A time-clustered run `start, start + step, …`: chunks that cross
    /// several spans, the summary pass's input.
    Run(i64, i64, Vec<i8>),
    /// Scattered points, mostly overwriting earlier runs.
    Scatter(Vec<(u16, i8)>),
    Flush,
    Delete(i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..4000, 1i64..9, prop::collection::vec(any::<i8>(), 1..150))
            .prop_map(|(start, step, vals)| Op::Run(start, step, vals)),
        2 => prop::collection::vec((0u16..4000, any::<i8>()), 1..30).prop_map(Op::Scatter),
        2 => Just(Op::Flush),
        2 => (0i64..4000, 0i64..600).prop_map(|(s, len)| Op::Delete(s, s + len)),
    ]
}

/// FP and LP must match the oracle bit for bit (timestamps and value
/// bit patterns), not merely compare equal.
fn edges_identical(a: &M4Result, b: &M4Result) -> bool {
    let bits = |p: Point| (p.t, p.v.to_bits());
    a.spans.len() == b.spans.len()
        && a.spans.iter().zip(&b.spans).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => bits(x.first) == bits(y.first) && bits(x.last) == bits(y.last),
            _ => false,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_summaries_match_oracle_and_udf(
        ops in prop::collection::vec(op_strategy(), 1..14),
        chunk in 4usize..48,
        page_points in prop_oneof![2 => 2usize..9, 1 => Just(usize::MAX)],
        qs in -50i64..4000,
        qlen in 1i64..4500,
        w_mode in 0u8..4,
        w_pick in 1usize..400,
    ) {
        let dir = TempDir::new("m4-split-prop").unwrap();
        let kv = TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: chunk,
                memtable_threshold: chunk * 3,
                page_points,
                ..Default::default()
            },
        )
        .unwrap();
        kv.create_series("s").unwrap();

        // No trailing flush: whatever the last ops left in the memtable
        // is queried unflushed.
        let mut model: BTreeMap<i64, f64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Run(start, step, vals) => {
                    let pts: Vec<Point> = vals
                        .iter()
                        .enumerate()
                        .map(|(k, &v)| Point::new(start + step * k as i64, f64::from(v)))
                        .collect();
                    kv.insert_batch("s", &pts).unwrap();
                    model.extend(pts.iter().map(|p| (p.t, p.v)));
                }
                Op::Scatter(raw) => {
                    let pts: Vec<Point> = raw
                        .iter()
                        .map(|&(t, v)| Point::new(i64::from(t), f64::from(v)))
                        .collect();
                    kv.insert_batch("s", &pts).unwrap();
                    model.extend(pts.iter().map(|p| (p.t, p.v)));
                }
                Op::Flush => kv.flush("s").unwrap(),
                Op::Delete(s, e) => {
                    kv.delete("s", *s, *e).unwrap();
                    model.retain(|t, _| t < s || t > e);
                }
            }
        }

        // Span counts from one column to more columns than milliseconds.
        let w = match w_mode {
            0 => 1,
            1 => w_pick % 40 + 1,
            2 => w_pick,
            _ => qlen as usize + w_pick % 50,
        };
        let query = M4Query::new(qs, qs + qlen, w).unwrap();
        let merged: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
        let expected = m4_scan(&merged, &query);

        let snap = kv.snapshot("s").unwrap();
        let udf = M4Udf::new().execute(&snap, &query).unwrap();
        prop_assert!(
            udf.equivalent(&expected),
            "UDF deviates from oracle\nudf: {:?}\noracle: {:?}", udf, expected
        );
        for cfg in ABLATIONS {
            let lsm = M4Lsm::with_config(cfg).execute(&snap, &query).unwrap();
            prop_assert!(
                lsm.equivalent(&expected) && lsm.equivalent(&udf),
                "M4-LSM ({:?}) deviates\nlsm: {:?}\noracle: {:?}", cfg, lsm, expected
            );
            prop_assert!(
                edges_identical(&lsm, &expected) && edges_identical(&lsm, &udf),
                "M4-LSM ({:?}) FP/LP not byte-identical\nlsm: {:?}\noracle: {:?}",
                cfg, lsm, expected
            );
        }
    }
}

/// I/O of one M4-LSM query.
fn query_io(kv: &TsKv, q: &M4Query, cfg: M4LsmConfig) -> (M4Result, IoSnapshot) {
    let snap = kv.snapshot("s").unwrap();
    let before = snap.io().snapshot();
    let r = M4Lsm::with_config(cfg).execute(&snap, q).unwrap();
    (r, snap.io().snapshot() - before)
}

/// Pinned I/O counts on a fixed fixture, with the cross-query cache
/// off so every query pays its own decodes. 1000 points at t = 0..999
/// in 100-point chunks of four 25-point pages; `w = 7` puts each of the
/// six inner span boundaries (143, 286, 429, 572, 715, 858) inside one
/// page. Those six pages are split, so they are decoded — once each,
/// although every one of them is read by two spans. Every other page
/// is whole in its span and answers from its statistics. The counts are
/// exact on the default four read threads: the summary pass loads each
/// split page before any span runs, so no two spans race to load it.
#[test]
fn split_fragments_decode_once_per_query() {
    let dir = TempDir::new("m4-split-io").unwrap();
    let kv = TsKv::open(
        &dir,
        EngineConfig {
            points_per_chunk: 100,
            memtable_threshold: 1000,
            page_points: 25,
            enable_read_cache: false,
            ..Default::default()
        },
    )
    .unwrap();
    let pts: Vec<Point> = (0..1000i64)
        .map(|t| Point::new(t, ((t * 37) % 101) as f64))
        .collect();
    kv.insert_batch("s", &pts).unwrap();
    kv.flush_all().unwrap();
    let q = M4Query::new(0, 1000, 7).unwrap();

    for _ in 0..2 {
        let (r, io) = query_io(&kv, &q, M4LsmConfig::default());
        assert!(r.equivalent(&m4_scan(&pts, &q)));
        assert_eq!(io.pages_decoded, 6, "{io:?}");
        assert_eq!(io.points_decoded, 6 * 25, "{io:?}");
        assert_eq!(io.chunks_loaded, 6, "{io:?}");
        assert_eq!(io.timestamps_decoded, 0, "{io:?}");
        assert_eq!(io.pages_stat_answered, 14, "{io:?}");
    }

    // A later chunk overlaps span 2 ([286, 428]) and overwrites both
    // of its bottom candidates: that span goes to the executor, whose
    // overwrite probes (without the step index, which would answer them
    // from metadata) decode a timestamp prefix of the later chunk. The
    // split pages are still decoded once.
    let over: Vec<Point> = [300i64, 302, 303, 307, 404, 410]
        .iter()
        .map(|&t| Point::new(t, 500.0))
        .collect();
    kv.insert_batch("s", &over).unwrap();
    kv.flush_all().unwrap();
    let mut model: BTreeMap<i64, f64> = pts.iter().map(|p| (p.t, p.v)).collect();
    model.extend(over.iter().map(|p| (p.t, p.v)));
    let merged: Vec<Point> = model.iter().map(|(&t, &v)| Point::new(t, v)).collect();
    for _ in 0..2 {
        let cfg = M4LsmConfig {
            use_step_index: false,
            ..M4LsmConfig::default()
        };
        let (r, io) = query_io(&kv, &q, cfg);
        assert!(r.equivalent(&m4_scan(&merged, &q)));
        // Six split pages plus the two pages whose refuted bottoms
        // (303, 0.0) and (404, 0.0) must be loaded; one timestamp-prefix
        // read answers both probes.
        assert_eq!(io.pages_decoded, 8, "{io:?}");
        assert_eq!(io.points_decoded, 8 * 25, "{io:?}");
        assert_eq!(io.chunks_loaded, 9, "{io:?}");
        assert_eq!(io.timestamps_decoded, 6, "{io:?}");
        assert_eq!(io.pages_stat_answered, 13, "{io:?}");
    }
}
