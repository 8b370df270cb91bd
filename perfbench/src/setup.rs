//! Store loading, shared by the served run and the traced replay.
//!
//! A load is a script of write, flush and delete operations issued to
//! a [`Sink`]: over the wire to the served store, or in process through
//! the traced pipeline. Writes follow the dealing scheme of
//! `workload::load_with_overlap` — flush-sized batches, a seeded
//! fraction of adjacent pairs dealt alternately into two flushes that
//! then overlap in time — with each flush-sized batch sent as
//! `LOAD_CALL_POINTS`-point `WriteBatch` calls.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;
use tsfile::types::Point;
use tsnet::TsNetClient;
use workload::Dataset;

use crate::common::{engine_config, rng, Ctx, Served};
use crate::metrics::Metrics;
use crate::stats::{median, quantile};
use crate::Res;

/// Points per `WriteBatch` call while loading (32 KiB of payload).
/// About one call in fifty then carries a flush, so a load's write p99
/// falls among the flush stalls rather than at their edge.
pub const LOAD_CALL_POINTS: usize = 2048;

/// One generated series.
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<Point>,
}

impl Series {
    pub fn t_min(&self) -> i64 {
        self.points.first().map_or(0, |p| p.t)
    }

    pub fn t_max(&self) -> i64 {
        self.points.last().map_or(0, |p| p.t)
    }

    /// Length of the half-open range `[t_min, t_max + 1)`.
    pub fn span(&self) -> i64 {
        self.t_max() + 1 - self.t_min()
    }
}

/// Generate paper datasets, each at its own scale times `scale`.
pub fn generate(datasets: &[(Dataset, f64)], scale: f64) -> Vec<Series> {
    datasets
        .iter()
        .map(|&(d, s)| Series {
            name: d.name().to_string(),
            points: d.generate(s * scale),
        })
        .collect()
}

/// Receives the load script.
pub trait Sink {
    fn write(&mut self, series: &str, points: &[Point]) -> Res<()>;
    fn flush(&mut self, series: &str) -> Res<()>;
    fn delete(&mut self, series: &str, start: i64, end: i64) -> Res<()>;
}

/// How a store is loaded.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Points per flush (the engine's memtable threshold).
    pub flush_points: usize,
    /// Fraction of adjacent flush pairs dealt into overlapping files.
    pub overlap: f64,
    /// Range deletes per series.
    pub deletes: usize,
    /// Length of each delete as a fraction of the series' time span.
    pub delete_frac: f64,
}

/// Issue the whole load of `data` to `sink`.
pub fn load(sink: &mut dyn Sink, data: &[Series], spec: LoadSpec, seed: u64) -> Res<()> {
    for (i, s) in data.iter().enumerate() {
        let mut r = rng(seed, 0x10AD + i as u64);
        load_series(sink, s, spec, &mut r)?;
        for (start, end) in delete_ranges(s, i, spec, seed) {
            sink.delete(&s.name, start, end)?;
        }
    }
    Ok(())
}

fn load_series(sink: &mut dyn Sink, s: &Series, spec: LoadSpec, r: &mut StdRng) -> Res<()> {
    let batch = spec.flush_points.max(1);
    let pts = &s.points;
    let mut i = 0;
    while i < pts.len() {
        let pair_end = (i + 2 * batch).min(pts.len());
        if pair_end - i > batch && r.gen_bool(spec.overlap.clamp(0.0, 1.0)) {
            let (even, odd): (Vec<_>, Vec<_>) = pts[i..pair_end]
                .iter()
                .enumerate()
                .partition(|(k, _)| k % 2 == 0);
            for half in [even, odd] {
                let half: Vec<Point> = half.into_iter().map(|(_, p)| *p).collect();
                write_calls(sink, &s.name, &half)?;
                sink.flush(&s.name)?;
            }
            i = pair_end;
        } else {
            let end = (i + batch).min(pts.len());
            write_calls(sink, &s.name, &pts[i..end])?;
            sink.flush(&s.name)?;
            i = end;
        }
    }
    Ok(())
}

fn write_calls(sink: &mut dyn Sink, series: &str, points: &[Point]) -> Res<()> {
    for call in points.chunks(LOAD_CALL_POINTS) {
        sink.write(series, call)?;
    }
    Ok(())
}

/// The inclusive `[start, end]` deletes the load applies to series
/// number `index`, as `workload::apply_random_deletes` draws them.
pub fn delete_ranges(s: &Series, index: usize, spec: LoadSpec, seed: u64) -> Vec<(i64, i64)> {
    let mut r = rng(seed, 0xDE1 + index as u64);
    let len = (s.span() as f64 * spec.delete_frac) as i64;
    let room = (s.span() - len).max(1);
    (0..spec.deletes)
        .map(|_| {
            let start = s.t_min() + r.gen_range(0..room);
            (start, start + len)
        })
        .collect()
}

/// Drop the points a load's deletes remove, leaving what queries see.
pub fn apply_deletes(s: &mut Series, deletes: &[(i64, i64)]) {
    s.points
        .retain(|p| !deletes.iter().any(|&(a, b)| p.t >= a && p.t <= b));
}

/// Issues the load over one client connection, timing each
/// `WriteBatch` from send to acknowledgement.
pub struct WireSink<'a> {
    pub client: &'a mut TsNetClient,
    pub write_ms: Vec<f64>,
    pub points: u64,
    pub ops: u64,
}

impl Sink for WireSink<'_> {
    fn write(&mut self, series: &str, points: &[Point]) -> Res<()> {
        let entries = vec![(series.to_string(), points.to_vec())];
        let t0 = Instant::now();
        let acked = self.client.write_batch(entries)?;
        self.write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.points += acked;
        self.ops += 1;
        Ok(())
    }

    fn flush(&mut self, series: &str) -> Res<()> {
        self.client.flush_seal(Some(series), false)?;
        self.ops += 1;
        Ok(())
    }

    fn delete(&mut self, series: &str, start: i64, end: i64) -> Res<()> {
        self.client.delete(series, start, end)?;
        self.ops += 1;
        Ok(())
    }
}

/// A store generated, served and loaded over the wire: one set-up.
/// Fields drop in declaration order, the client before the server.
pub struct Loaded {
    pub client: TsNetClient,
    pub served: Served,
    pub data: Vec<Series>,
    pub generate_s: f64,
    pub load_s: f64,
    pub write_ms: Vec<f64>,
    pub points: u64,
    pub ops: u64,
}

/// Generate `datasets`, start a server over a fresh store and load it
/// through one connection.
pub fn served_load(
    ctx: &Ctx,
    tag: &str,
    datasets: &[(Dataset, f64)],
    spec: LoadSpec,
) -> Res<Loaded> {
    let t0 = Instant::now();
    let data = generate(datasets, 1.0);
    let generate_s = t0.elapsed().as_secs_f64();
    let served = Served::start(ctx, tag, engine_config())?;
    let mut client = served.connect()?;
    let t1 = Instant::now();
    let mut sink = WireSink {
        client: &mut client,
        write_ms: Vec::new(),
        points: 0,
        ops: 0,
    };
    load(&mut sink, &data, spec, ctx.seed)?;
    let (write_ms, points, ops) = (sink.write_ms, sink.points, sink.ops);
    Ok(Loaded {
        client,
        served,
        data,
        generate_s,
        load_s: t1.elapsed().as_secs_f64(),
        write_ms,
        points,
        ops,
    })
}

/// Per-setup load figures; `setup_s` and the write metrics of the
/// read-only workloads are medians over set-ups.
#[derive(Debug, Default)]
pub struct SetupStats {
    pub setup_s: Vec<f64>,
    pub generate_s: Vec<f64>,
    pub load_pts_per_s: Vec<f64>,
    pub write_p50_ms: Vec<f64>,
    pub write_p99_ms: Vec<f64>,
    pub write_calls: u64,
    pub ops: u64,
}

impl SetupStats {
    pub fn add(&mut self, setup_s: f64, l: &Loaded) {
        self.setup_s.push(setup_s);
        self.generate_s.push(l.generate_s);
        self.load_pts_per_s.push(l.points as f64 / l.load_s);
        self.write_p50_ms.push(quantile(&l.write_ms, 0.5));
        self.write_p99_ms.push(quantile(&l.write_ms, 0.99));
        self.write_calls += l.write_ms.len() as u64;
        self.ops += l.ops;
    }

    pub fn set_metrics(&self, m: &mut Metrics) {
        m.set("setup_s", median(&self.setup_s));
        m.set("ingest_pts_per_s", median(&self.load_pts_per_s));
        m.set("write_p50_ms", median(&self.write_p50_ms));
        m.set("write_p99_ms", median(&self.write_p99_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Recorder {
        writes: usize,
        flushes: usize,
        deletes: usize,
        seen: BTreeMap<i64, f64>,
    }

    impl Sink for Recorder {
        fn write(&mut self, _: &str, points: &[Point]) -> Res<()> {
            assert!(points.len() <= LOAD_CALL_POINTS);
            assert!(points.windows(2).all(|w| w[0].t < w[1].t));
            self.writes += 1;
            for p in points {
                assert!(self.seen.insert(p.t, p.v).is_none(), "point written twice");
            }
            Ok(())
        }
        fn flush(&mut self, _: &str) -> Res<()> {
            self.flushes += 1;
            Ok(())
        }
        fn delete(&mut self, _: &str, _: i64, _: i64) -> Res<()> {
            self.deletes += 1;
            Ok(())
        }
    }

    #[test]
    fn load_writes_every_point_once_and_is_seeded() {
        let data = generate(&[(Dataset::Kob, 0.01)], 1.0);
        let spec = LoadSpec {
            flush_points: 5_000,
            overlap: 0.5,
            deletes: 3,
            delete_frac: 0.01,
        };
        let mut a = Recorder::default();
        load(&mut a, &data, spec, 7).unwrap();
        assert_eq!(a.seen.len(), data[0].points.len());
        assert_eq!(a.deletes, 3);
        let mut b = Recorder::default();
        load(&mut b, &data, spec, 7).unwrap();
        assert_eq!((a.writes, a.flushes), (b.writes, b.flushes));
        assert_eq!(
            delete_ranges(&data[0], 0, spec, 7),
            delete_ranges(&data[0], 0, spec, 7)
        );
        assert_ne!(
            delete_ranges(&data[0], 0, spec, 7),
            delete_ranges(&data[0], 0, spec, 8)
        );
    }
}
