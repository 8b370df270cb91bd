//! `zoom_cold`: an analyst panning and zooming over the four paper
//! datasets. Closed loop over one connection: each query waits for the
//! previous chart. About 8.4M points, twice the decoded-chunk cache,
//! so the cache thrashes; there are no writes after the load.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use m4::M4Query;
use rand::rngs::StdRng;
use rand::Rng;
use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::Operator;
use workload::Dataset;

use crate::common::{engine_config, peak_rss_mib, rng, shuffle, Ctx};
use crate::metrics::LayerInputs;
use crate::oracle::{digest, scan_digest};
use crate::replay::Replayer;
use crate::rundir::{dir_bytes, wal_bytes, RunDir};
use crate::setup::{
    apply_deletes, delete_ranges, generate, load, served_load, LoadSpec, Series, SetupStats,
};
use crate::stats::{median, windowed_quantile};
use crate::{ping_rtt_us, Outcome, Res};

/// BallSpeed and MF03 at scale 0.3, KOB and RcvTime at scale 1.0.
pub const DATA: [(Dataset, f64); 4] = [
    (Dataset::BallSpeed, 0.3),
    (Dataset::Mf03, 0.3),
    (Dataset::Kob, 1.0),
    (Dataset::RcvTime, 1.0),
];
/// Zoom levels: the query range is the series' span divided by these.
const ZOOM: [i64; 4] = [1, 4, 16, 64];
/// Chart widths in pixel columns.
const WIDTHS: [u32; 4] = [480, 1000, 1920, 3840];
/// Set-ups per untraced run; `setup_s` is their median. The first
/// serves the measured phase; the others only time the set-up.
pub const SETUP_REPEATS: usize = 3;
/// Queries the traced replay runs (a prefix of the run's script).
pub const TRACE_QUERIES: usize = 300;

pub fn load_spec(config: &EngineConfig) -> LoadSpec {
    LoadSpec {
        flush_points: config.memtable_threshold,
        overlap: 0.3,
        deletes: 4,
        delete_frac: 0.002,
    }
}

/// One zoom query over series number `series`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuerySpec {
    pub series: usize,
    pub t_qs: i64,
    pub t_qe: i64,
    pub w: u32,
}

/// The query script: every (series, zoom, width) combination once per
/// block of 64, in seeded order, each at a seeded offset. Stratifying
/// keeps each run's mix the same while the seed moves everything else.
pub struct QueryGen {
    rng: StdRng,
    ranges: Vec<(i64, i64)>,
    block: Vec<(usize, usize, usize)>,
}

impl QueryGen {
    pub fn new(seed: u64, data: &[Series]) -> QueryGen {
        QueryGen {
            rng: rng(seed, 0x200),
            ranges: data.iter().map(|s| (s.t_min(), s.span())).collect(),
            block: Vec::new(),
        }
    }

    pub fn next_query(&mut self) -> QuerySpec {
        if self.block.is_empty() {
            for s in 0..self.ranges.len() {
                for z in 0..ZOOM.len() {
                    for w in 0..WIDTHS.len() {
                        self.block.push((s, z, w));
                    }
                }
            }
            shuffle(&mut self.block, &mut self.rng);
        }
        let (s, z, w) = self.block.pop().unwrap_or((0, 0, 0));
        let (t_min, span) = self.ranges[s];
        let len = (span / ZOOM[z]).max(1);
        let t_qs = t_min + self.rng.gen_range(0..span - len + 1);
        QuerySpec {
            series: s,
            t_qs,
            t_qe: t_qs + len,
            w: WIDTHS[w],
        }
    }
}

/// The traced replay on a fresh store: the load (not measured), then
/// `queries`. Returns the replay and the digest of every answer.
pub fn replay<'a>(
    kv: &'a TsKv,
    data: &[Series],
    spec: LoadSpec,
    seed: u64,
    queries: &[QuerySpec],
) -> Res<(Replayer<'a>, Vec<u64>)> {
    let mut rep = Replayer::new(kv);
    load(&mut rep, data, spec, seed)?;
    rep.measured = true;
    let mut digests = Vec::with_capacity(queries.len());
    for q in queries {
        let spans = rep.query(&data[q.series].name, q.t_qs, q.t_qe, q.w)?;
        digests.push(digest(&spans));
    }
    Ok((rep, digests))
}

struct Issued {
    q: QuerySpec,
    lat_ms: f64,
    digest: Option<u64>,
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let config = engine_config();
    let spec = load_spec(&config);
    let mut out = Outcome::new(config.clone());
    let mut setups = SetupStats::default();
    let t0 = Instant::now();
    let mut l = served_load(ctx, "zoom_cold", &DATA, spec)?;
    setups.add(t0.elapsed().as_secs_f64(), &l);

    // Measured: closed loop, one connection.
    let mut gen = QueryGen::new(ctx.seed, &l.data);
    let mut issued = Vec::new();
    let run_for = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    while start.elapsed() < run_for {
        let q = gen.next_query();
        let t0 = Instant::now();
        let r = l
            .client
            .m4_query(&l.data[q.series].name, Operator::Lsm, q.t_qs, q.t_qe, q.w);
        let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
        issued.push(Issued {
            q,
            lat_ms,
            digest: r.ok().map(|s| digest(&s)),
        });
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib()?;
    let store_bytes = dir_bytes(l.served.dir.path())?;
    out.attempted += issued.len() as u64;
    out.failed = issued.iter().filter(|i| i.digest.is_none()).count() as u64;

    // Oracle, outside the timed region: the generated points minus the
    // applied deletes. Whole-range queries repeat, so digests are kept.
    for (i, s) in l.data.iter_mut().enumerate() {
        let deletes = delete_ranges(s, i, spec, ctx.seed);
        apply_deletes(s, &deletes);
    }
    let live: usize = l.data.iter().map(|s| s.points.len()).sum();
    let mut oracle: HashMap<QuerySpec, u64> = HashMap::new();
    let mut mismatches = 0;
    for i in &issued {
        let Some(d) = i.digest else { continue };
        let expect = match oracle.get(&i.q) {
            Some(&e) => e,
            None => {
                let q = M4Query::new(i.q.t_qs, i.q.t_qe, i.q.w as usize)?;
                let e = scan_digest(&l.data[i.q.series].points, &q);
                oracle.insert(i.q, e);
                e
            }
        };
        mismatches += usize::from(d != expect);
    }
    out.check(
        mismatches == 0,
        format!(
            "{mismatches} of {} answers differ from the oracle",
            issued.len()
        ),
    );

    // A refused or failed query misses every latency limit: it counts
    // as taking the whole run.
    let lat: Vec<f64> = issued
        .iter()
        .map(|i| {
            if i.digest.is_some() {
                i.lat_ms
            } else {
                ctx.seconds * 1e3
            }
        })
        .collect();
    if !ctx.trace {
        drop(l);
        for _ in 1..SETUP_REPEATS {
            let t0 = Instant::now();
            let extra = served_load(ctx, "zoom_cold", &DATA, spec)?;
            setups.add(t0.elapsed().as_secs_f64(), &extra);
        }
        out.attempted += setups.ops;
        let m = &mut out.metrics;
        setups.set_metrics(m);
        m.set("query_p50_ms", windowed_quantile(&lat, 0.5));
        m.set("query_qps", issued.len() as f64 / elapsed);
        m.set("space_amp", store_bytes as f64 / (16.0 * live as f64));
        m.set("peak_rss_mb", peak_rss);
        out.notes.push(format!(
            "queries {}, query p99 {:.3} ms ({} beyond it), load write calls {} over {} set-ups",
            issued.len(),
            windowed_quantile(&lat, 0.99),
            issued.len() / 100,
            setups.write_calls,
            SETUP_REPEATS
        ));
        return Ok(out);
    }
    out.attempted += setups.ops;

    // Traced run: counters of the served store, then a replay of the
    // same script prefix on a fresh store.
    let mut inputs = LayerInputs {
        store: l.served.kv.io().snapshot(),
        wal_retained_bytes: wal_bytes(l.served.dir.path())?,
        files_per_series: files_per_series(&l.served.kv, &l.data)?,
        server: l.served.server.stats().snapshot(0),
        ping_rtt_us: ping_rtt_us(&mut l.client)?,
        generate_s: median(&setups.generate_s),
        query_p99_ms: windowed_quantile(&lat, 0.99),
        query_n: issued.len() as u64,
        write_n: setups.write_calls,
        ..Default::default()
    };
    drop(l);
    let n = TRACE_QUERIES.min(issued.len());
    let queries: Vec<QuerySpec> = issued[..n].iter().map(|i| i.q).collect();
    inputs.untraced_rpc_ms = issued[..n].iter().map(|i| i.lat_ms).collect();
    let data = generate(&DATA, 1.0);
    let dir = RunDir::new(&ctx.run_base, "zoom_cold-replay")?;
    let kv = TsKv::open(dir.path(), config)?;
    let (mut rep, digests) = replay(&kv, &data, spec, ctx.seed, &queries)?;
    let differ = digests
        .iter()
        .zip(&issued[..n])
        .filter(|(d, i)| i.digest.is_some_and(|x| x != **d))
        .count();
    out.check(
        differ == 0,
        format!("{differ} replayed answers differ from the served ones"),
    );
    inputs.trace_overhead_ns = rep.tracer.calibrate(100_000);
    out.finish_trace(ctx, "zoom_cold", &rep, &inputs)?;
    Ok(out)
}

/// Mean sealed-file count over the given series.
pub fn files_per_series(kv: &TsKv, data: &[Series]) -> Res<f64> {
    let mut total = 0;
    for s in data {
        total += kv.sealed_file_count(&s.name)?;
    }
    Ok(total as f64 / data.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `tsfile.*` and `tskv.cache.*` counts of every replayed query,
    /// at a tiny size with the data still twice the cache, on one read
    /// thread. With more read threads the counts depend on timing:
    /// span executors that miss the same chunk at once both load it
    /// (see `m4::lsm::cache`), so only a single-threaded read path
    /// repeats them exactly.
    fn counts(seed: u64) -> Vec<[u64; 12]> {
        let scale = 0.01;
        let config = EngineConfig {
            memtable_threshold: 2_000,
            cache_capacity_bytes: (engine_config().cache_capacity_bytes as f64 * scale) as u64,
            read_threads: 1,
            ..engine_config()
        };
        let data = generate(&DATA, scale);
        let mut gen = QueryGen::new(seed, &data);
        let queries: Vec<QuerySpec> = (0..128).map(|_| gen.next_query()).collect();
        let base = std::env::temp_dir().join(format!("perfbench-zoom-{}", std::process::id()));
        let dir = RunDir::new(&base, "counts").unwrap();
        let kv = TsKv::open(dir.path(), config.clone()).unwrap();
        let (rep, _) = replay(&kv, &data, load_spec(&config), seed, &queries).unwrap();
        rep.queries
            .iter()
            .map(|q| {
                let io = q.io;
                [
                    io.chunks_loaded,
                    io.pages_decoded,
                    io.pages_skipped,
                    io.pages_stat_answered,
                    io.points_decoded,
                    io.timestamps_decoded,
                    io.bytes_read,
                    io.pool_hits,
                    io.pool_misses,
                    io.cache_hits,
                    io.cache_misses,
                    io.cache_evictions,
                ]
            })
            .collect()
    }

    #[test]
    fn layer_counts_repeat_exactly_on_one_read_thread() {
        let a = counts(5);
        assert_eq!(a.len(), 128);
        // The cache is exercised: hits, misses and evictions all occur.
        for k in [9, 10, 11] {
            assert!(
                a.iter().map(|c| c[k]).sum::<u64>() > 0,
                "count {k} never moved"
            );
        }
        assert_eq!(a, counts(5));
    }

    #[test]
    fn query_script_is_stratified_and_seeded() {
        let data = generate(&DATA, 0.001);
        let mut g = QueryGen::new(9, &data);
        let block: Vec<QuerySpec> = (0..64).map(|_| g.next_query()).collect();
        for s in 0..DATA.len() {
            for w in WIDTHS {
                assert_eq!(
                    block.iter().filter(|q| q.series == s && q.w == w).count(),
                    4
                );
            }
        }
        for q in &block {
            let s = &data[q.series];
            assert!(q.t_qs >= s.t_min() && q.t_qe <= s.t_max() + 1 && q.t_qs < q.t_qe);
        }
        let mut again = QueryGen::new(9, &data);
        assert!(block.iter().all(|q| *q == again.next_query()));
        let mut other = QueryGen::new(10, &data);
        assert!(block.iter().any(|q| *q != other.next_query()));
    }
}
