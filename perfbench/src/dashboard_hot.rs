//! `dashboard_hot`: independent dashboards refreshing on timers. Open
//! loop at one fixed offered rate over two connections; 16 pinned
//! dashboards over MF03 and KOB at scale 0.1 (about 1.2M points, so
//! the data fits the decoded-chunk cache), queried round-robin after a
//! warm-up. Each request is timed from when it was due.

use std::time::Instant;

use m4::M4Query;
use rand::Rng;
use tskv::TsKv;
use tsnet::{Operator, TsNetClient};
use workload::Dataset;

use crate::common::{engine_config, ms, ns_since, peak_rss_mib, rng, sleep_until, Ctx};
use crate::metrics::LayerInputs;
use crate::oracle::{digest, scan_digest};
use crate::replay::Replayer;
use crate::rundir::{dir_bytes, wal_bytes, RunDir};
use crate::setup::{generate, load, served_load, LoadSpec, Loaded, Series, SetupStats};
use crate::stats::{median, quantile, window_quantiles, windowed_quantile};
use crate::zoom_cold::{files_per_series, SETUP_REPEATS};
use crate::{ping_rtt_us, Outcome, Res};

pub const DATA: [(Dataset, f64); 2] = [(Dataset::Mf03, 0.1), (Dataset::Kob, 0.1)];
const DASHBOARDS: usize = 16;
/// Each dashboard shows this fraction of its series' time span.
const WINDOW_DIV: i64 = 8;
const W: u32 = 1000;
/// Round-robin passes over every dashboard before timing starts.
const WARMUP_PASSES: usize = 2;
/// Offered rate over both connections, queries per second: under half
/// of one connection's closed-loop capacity (about 220 q/s on a 2-core
/// host), so queueing does not amplify host stalls into the run's
/// figures.
pub const OFFERED_QPS: f64 = 100.0;
const CONNECTIONS: u64 = 2;
/// Measured queries the traced replay runs.
pub const TRACE_QUERIES: usize = 1000;

/// One pinned dashboard over series number `series`.
#[derive(Debug, Clone, Copy)]
pub struct Dash {
    pub series: usize,
    pub t_qs: i64,
    pub t_qe: i64,
}

/// Eight dashboards per series, one per eighth of the room a window
/// can start in, each at a seeded offset inside its eighth. The
/// round-robin order alternates series, so the costlier MF03 windows
/// do not arrive in a burst.
pub fn dashboards(seed: u64, data: &[Series]) -> Vec<Dash> {
    let mut r = rng(seed, 0xDA5);
    let per_series = DASHBOARDS / data.len();
    let mut out = Vec::with_capacity(DASHBOARDS);
    for k in 0..per_series as i64 {
        for (series, s) in data.iter().enumerate() {
            let len = (s.span() / WINDOW_DIV).max(1);
            let stride = ((s.span() - len) / per_series as i64).max(1);
            let t_qs = s.t_min() + k * stride + r.gen_range(0..stride);
            out.push(Dash {
                series,
                t_qs,
                t_qe: t_qs + len,
            });
        }
    }
    out
}

fn load_spec() -> LoadSpec {
    LoadSpec {
        flush_points: engine_config().memtable_threshold,
        overlap: 0.0,
        deletes: 0,
        delete_frac: 0.0,
    }
}

/// One measured request: its global index, when it was due, sent and
/// answered (ns from the start of the measured phase).
struct Sent {
    g: u64,
    due: u64,
    send: u64,
    recv: u64,
    digest: Option<u64>,
}

fn query(client: &mut TsNetClient, data: &[Series], d: &Dash) -> Option<u64> {
    let spans = client
        .m4_query(&data[d.series].name, Operator::Lsm, d.t_qs, d.t_qe, W)
        .ok()?;
    Some(digest(&spans))
}

/// One connection's share of the schedule: requests `g ≡ conn (mod
/// CONNECTIONS)`, request `g` due at `g / OFFERED_QPS` seconds.
fn open_loop(
    client: &mut TsNetClient,
    data: &[Series],
    dash: &[Dash],
    conn: u64,
    epoch: Instant,
    end_ns: u64,
) -> Vec<Sent> {
    let interval_ns = 1e9 / OFFERED_QPS;
    let mut out = Vec::new();
    let mut g = conn;
    loop {
        let due = (g as f64 * interval_ns) as u64;
        if due >= end_ns {
            return out;
        }
        sleep_until(epoch, due);
        let send = ns_since(epoch);
        let digest = query(client, data, &dash[g as usize % dash.len()]);
        let recv = ns_since(epoch);
        out.push(Sent {
            g,
            due,
            send,
            recv,
            digest,
        });
        g += CONNECTIONS;
    }
}

/// Generate, serve and load the store, then warm the cache with
/// round-robin passes over every dashboard; returns the warm-up's
/// failed queries.
fn setup(ctx: &Ctx, dash_seed: u64) -> Res<(Loaded, Vec<Dash>, u64)> {
    let mut l = served_load(ctx, "dashboard_hot", &DATA, load_spec())?;
    let dash = dashboards(dash_seed, &l.data);
    let mut failed = 0;
    for _ in 0..WARMUP_PASSES {
        for d in &dash {
            failed += u64::from(query(&mut l.client, &l.data, d).is_none());
        }
    }
    l.ops += (WARMUP_PASSES * dash.len()) as u64;
    Ok((l, dash, failed))
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let config = engine_config();
    let mut out = Outcome::new(config.clone());
    let mut setups = SetupStats::default();
    let t0 = Instant::now();
    let (mut l, dash, warm_failed) = setup(ctx, ctx.seed)?;
    setups.add(t0.elapsed().as_secs_f64(), &l);
    let mut second = l.served.connect()?;

    // Measured: open loop, two connections.
    let end_ns = (ctx.seconds * 1e9) as u64;
    let epoch = Instant::now();
    let (data, first) = (&l.data, &mut l.client);
    let mut sent = std::thread::scope(|s| -> Res<Vec<Sent>> {
        let other = s.spawn(|| open_loop(&mut second, data, &dash, 1, epoch, end_ns));
        let mut mine = open_loop(first, data, &dash, 0, epoch, end_ns);
        mine.extend(other.join().map_err(|_| "second connection panicked")?);
        Ok(mine)
    })?;
    let elapsed = ns_since(epoch).max(end_ns) as f64 / 1e9;
    let peak_rss = peak_rss_mib()?;
    let store_bytes = dir_bytes(l.served.dir.path())?;
    sent.sort_by_key(|x| x.g);
    drop(second);
    out.attempted += sent.len() as u64;
    out.failed = warm_failed + sent.iter().filter(|x| x.digest.is_none()).count() as u64;

    // Oracle, outside the timed region.
    let live: usize = l.data.iter().map(|s| s.points.len()).sum();
    let expect: Vec<u64> = dash
        .iter()
        .map(|d| {
            Ok(scan_digest(
                &l.data[d.series].points,
                &M4Query::new(d.t_qs, d.t_qe, W as usize)?,
            ))
        })
        .collect::<Res<_>>()?;
    let bad = sent
        .iter()
        .filter(|x| {
            x.digest
                .is_some_and(|d| d != expect[x.g as usize % dash.len()])
        })
        .count();
    out.check(
        bad == 0,
        format!("{bad} of {} answers differ from the oracle", sent.len()),
    );

    let run_ms = ctx.seconds * 1e3;
    let lat: Vec<f64> = sent
        .iter()
        .map(|x| {
            if x.digest.is_some() {
                ms(x.recv - x.due)
            } else {
                run_ms
            }
        })
        .collect();
    let late: Vec<f64> = sent.iter().map(|x| ms(x.send - x.due)).collect();
    if !ctx.trace {
        drop(l);
        for _ in 1..SETUP_REPEATS {
            let t0 = Instant::now();
            let (extra, _, failed) = setup(ctx, ctx.seed)?;
            setups.add(t0.elapsed().as_secs_f64(), &extra);
            out.failed += failed;
        }
        out.attempted += setups.ops;
        let m = &mut out.metrics;
        setups.set_metrics(m);
        m.set("query_p50_ms", windowed_quantile(&lat, 0.5));
        m.set(
            "query_qps",
            sent.iter().filter(|x| x.digest.is_some()).count() as f64 / elapsed,
        );
        m.set("space_amp", store_bytes as f64 / (16.0 * live as f64));
        m.set("peak_rss_mb", peak_rss);
        out.notes.push(format!(
            "queries {} at {OFFERED_QPS} q/s offered (window p50 {:.3?} ms, p99 {:.3?} ms), generator late p99 {:.3} ms, load write calls {} over {SETUP_REPEATS} set-ups",
            sent.len(),
            window_quantiles(&lat, 0.5),
            window_quantiles(&lat, 0.99),
            quantile(&late, 0.99),
            setups.write_calls,
        ));
        return Ok(out);
    }
    out.attempted += setups.ops;

    let mut inputs = LayerInputs {
        store: l.served.kv.io().snapshot(),
        wal_retained_bytes: wal_bytes(l.served.dir.path())?,
        files_per_series: files_per_series(&l.served.kv, &l.data)?,
        server: l.served.server.stats().snapshot(0),
        ping_rtt_us: ping_rtt_us(&mut l.client)?,
        generate_s: median(&setups.generate_s),
        gen_late_p99_ms: quantile(&late, 0.99),
        query_p99_ms: windowed_quantile(&lat, 0.99),
        query_n: sent.len() as u64,
        write_n: setups.write_calls,
        ..Default::default()
    };
    drop(l);
    let n = TRACE_QUERIES.min(sent.len());
    inputs.untraced_rpc_ms = sent[..n].iter().map(|x| ms(x.recv - x.send)).collect();

    let data = generate(&DATA, 1.0);
    let dir = RunDir::new(&ctx.run_base, "dashboard_hot-replay")?;
    let kv = TsKv::open(dir.path(), config)?;
    let mut rep = Replayer::new(&kv);
    load(&mut rep, &data, load_spec(), ctx.seed)?;
    for _ in 0..WARMUP_PASSES {
        for d in &dash {
            rep.query(&data[d.series].name, d.t_qs, d.t_qe, W)?;
        }
    }
    rep.measured = true;
    let mut differ = 0;
    for x in &sent[..n] {
        let i = x.g as usize % dash.len();
        let d = &dash[i];
        let spans = rep.query(&data[d.series].name, d.t_qs, d.t_qe, W)?;
        differ += usize::from(digest(&spans) != expect[i]);
    }
    out.check(
        differ == 0,
        format!("{differ} replayed answers differ from the oracle"),
    );
    inputs.trace_overhead_ns = rep.tracer.calibrate(100_000);
    out.finish_trace(ctx, "dashboard_hot", &rep, &inputs)?;
    Ok(out)
}
