//! `ingest_live`: a sensor gateway backfilling while a dashboard
//! watches. One writer connection, closed loop: 256 series, Zipf
//! s = 1.2 popularity, 1024-point batches, 8 batches per `WriteBatch`
//! and 10% out of order. One dashboard connection, open loop at a
//! fixed rate: M4 queries over the hot, median and tail ranks, plus
//! one subscription on the hottest series whose pushes it drains
//! between queries. Background compaction is on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use m4::{M4Lsm, M4Query, M4Result};
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::{Operator, Push, Request, Response, SubReplay, Subscription, TsNetClient};
use workload::multiseries::{series_name, value_at, MultiSeriesSpec, DELTA_MS};

use crate::common::{engine_config, ms, ns_since, peak_rss_mib, sleep_until, Ctx, Served};
use crate::framed::FramedConn;
use crate::metrics::LayerInputs;
use crate::oracle::{digest, Fold};
use crate::replay::Replayer;
use crate::rundir::{dir_bytes, wal_bytes, RunDir, StopGuard};
use crate::stats::{median, quantile, windowed_quantile, WINDOW_SAMPLES};
use crate::zoom_cold::SETUP_REPEATS;
use crate::{ping_rtt_us, Outcome, Res};

const SERIES: usize = 256;
const ZIPF_S: f64 = 1.2;
const BATCH_POINTS: usize = 1024;
const BATCHES_PER_CALL: usize = 8;
const OUT_OF_ORDER: f64 = 0.1;
/// Popularity ranks the dashboard queries: hot, median and tail.
const PROBES: [usize; 3] = [0, SERIES / 2, SERIES - 1];
const W: u32 = 1000;
/// A dashboard query shows the trailing window of this many batches'
/// time span behind the newest acknowledged point of its series.
const WINDOW_MS: i64 = 128 * BATCH_POINTS as i64 * DELTA_MS;
/// Offered dashboard query rate, queries per second. Under the
/// writer's load a dashboard query takes 30–45 ms on a 2-core host;
/// this keeps the connection under half busy.
pub const QUERY_QPS: f64 = 15.0;
/// The plan holds enough batches for this ingest rate over the whole
/// run, so the writer never runs out.
const PLAN_POINTS_PER_S: f64 = 4.0e6;
/// Write calls the traced replay runs (with the queries among them).
pub const TRACE_WRITE_CALLS: usize = 1500;
/// Timestamp of the one point per series the set-up registers.
const REGISTER_T: i64 = -DELTA_MS;

pub fn engine() -> EngineConfig {
    EngineConfig {
        compaction_auto: true,
        ..engine_config()
    }
}

/// The generated write plan: batch `b` goes to series `batches[b].0`
/// starting at time `batches[b].1`; call `c` carries batches
/// `8c..8c + 8`. Points are recomputed from `value_at`.
pub struct Plan {
    pub batches: Vec<(usize, i64)>,
    /// Per series, the end of the time range the plan covers.
    pub ends: Vec<i64>,
    /// Per probe: `(call, start, head)` of each of its batches in call
    /// order, `head` being the end of the newest point up to it.
    probe_batches: Vec<Vec<(usize, i64, i64)>>,
}

impl Plan {
    pub fn new(seed: u64, batches: usize) -> Plan {
        let spec = MultiSeriesSpec {
            series_count: SERIES,
            zipf_s: ZIPF_S,
            batch_points: BATCH_POINTS,
            out_of_order_frac: OUT_OF_ORDER,
            seed,
        };
        let mut gen = spec.generator();
        let mut ends = vec![1; SERIES];
        let batches = (0..batches)
            .map(|_| {
                let (s, pts) = gen.next_batch();
                let start = pts.first().map_or(0, |p| p.t);
                let end = pts.last().map_or(0, |p| p.t) + 1;
                ends[s] = ends[s].max(end);
                (s, start)
            })
            .collect::<Vec<_>>();
        let probe_batches = PROBES
            .iter()
            .map(|&p| {
                let mut head = 0;
                batches
                    .iter()
                    .enumerate()
                    .filter(|(_, (s, _))| *s == p)
                    .map(|(b, &(_, start))| {
                        head = head.max(start + BATCH_POINTS as i64 * DELTA_MS);
                        (b / BATCHES_PER_CALL, start, head)
                    })
                    .collect()
            })
            .collect();
        Plan {
            batches,
            ends,
            probe_batches,
        }
    }

    pub fn calls(&self) -> usize {
        self.batches.len() / BATCHES_PER_CALL
    }

    fn call_batches(&self, c: usize) -> &[(usize, i64)] {
        &self.batches[c * BATCHES_PER_CALL..(c + 1) * BATCHES_PER_CALL]
    }

    pub fn entries(&self, c: usize) -> Vec<(String, Vec<Point>)> {
        self.call_batches(c)
            .iter()
            .map(|&(s, start)| (series_name(s), batch_points(s, start)))
            .collect()
    }

    /// The subscription's query: everything the plan writes to `s`.
    pub fn full_query(&self, s: usize) -> Res<M4Query> {
        Ok(M4Query::new(0, self.ends[s], W as usize)?)
    }

    /// The dashboard query over probe number `p` once `calls` calls are
    /// acknowledged: the trailing window behind the series' newest
    /// point.
    fn window_query(&self, p: usize, calls: usize) -> Res<M4Query> {
        let mine = &self.probe_batches[p];
        let n = mine.partition_point(|&(c, _, _)| c < calls);
        let head = n.checked_sub(1).map_or(1, |i| mine[i].2.max(1));
        Ok(M4Query::new((head - WINDOW_MS).max(0), head, W as usize)?)
    }
}

fn batch_points(s: usize, start: i64) -> Vec<Point> {
    (0..BATCH_POINTS as i64)
        .map(|k| {
            let t = start + k * DELTA_MS;
            Point::new(t, value_at(s, t))
        })
        .collect()
}

/// The set-up's registration call: one point per series, before the
/// time range every query and the subscription cover.
fn registration() -> Vec<(String, Vec<Point>)> {
    (0..SERIES)
        .map(|s| {
            (
                series_name(s),
                vec![Point::new(REGISTER_T, value_at(s, REGISTER_T))],
            )
        })
        .collect()
}

struct Call {
    send: u64,
    ack: u64,
    ok: bool,
}

struct Query {
    /// Index into `PROBES`.
    probe: usize,
    t_qs: i64,
    t_qe: i64,
    due: u64,
    send: u64,
    recv: u64,
    /// Calls acknowledged before the query was sent, and calls sent
    /// before its answer arrived: the snapshot saw calls `0..k` for
    /// some `k` in `lo..=hi`.
    lo: usize,
    hi: usize,
    digest: Option<u64>,
}

struct Dashboard {
    queries: Vec<Query>,
    replay: SubReplay,
    /// Receipt time and span indexes of every `SpanDelta`.
    deltas: Vec<(u64, Vec<u32>)>,
}

struct Shared<'a> {
    plan: &'a Plan,
    epoch: Instant,
    end_ns: u64,
    sent: AtomicUsize,
    acked: AtomicUsize,
    stop: AtomicBool,
    quiesced: AtomicBool,
    /// Set once the dashboard has subscribed (or given up): the writer
    /// starts only then.
    subscribed: AtomicBool,
}

fn writer(sh: &Shared<'_>, client: &mut TsNetClient) -> Vec<Call> {
    let _guard = StopGuard(&sh.stop);
    while !sh.subscribed.load(Ordering::SeqCst) && !sh.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut calls = Vec::new();
    for c in 0..sh.plan.calls() {
        if sh.stop.load(Ordering::SeqCst) || ns_since(sh.epoch) >= sh.end_ns {
            break;
        }
        let entries = sh.plan.entries(c);
        sh.sent.store(c + 1, Ordering::SeqCst);
        let send = ns_since(sh.epoch);
        let ok = client.write_batch(entries).is_ok();
        let ack = ns_since(sh.epoch);
        sh.acked.store(c + 1, Ordering::SeqCst);
        calls.push(Call { send, ack, ok });
    }
    calls
}

fn record(push: Push, replay: &mut SubReplay, deltas: &mut Vec<(u64, Vec<u32>)>, recv: u64) {
    if replay.apply(&push) {
        if let Push::SpanDelta { deltas: d, .. } = &push {
            deltas.push((recv, d.iter().map(|(i, _)| *i).collect()));
        }
    }
}

fn dashboard(sh: &Shared<'_>, client: &mut FramedConn) -> Res<Dashboard> {
    let _guard = StopGuard(&sh.stop);
    let hot = PROBES[0];
    let sub_q = sh.plan.full_query(hot)?;
    let ack = client.call(Request::Subscribe {
        series: series_name(hot),
        t_qs: sub_q.t_qs,
        t_qe: sub_q.t_qe,
        w: W,
    });
    sh.subscribed.store(true, Ordering::SeqCst);
    let Response::SubAck { sub_id, spans } = ack? else {
        return Err("subscribe answered with another response".into());
    };
    let mut replay = SubReplay::new(&Subscription { sub_id, spans });
    let mut deltas = Vec::new();
    let mut queries = Vec::new();
    let interval_ns = 1e9 / QUERY_QPS;
    for j in 0.. {
        let due = (j as f64 * interval_ns) as u64;
        if due >= sh.end_ns || sh.stop.load(Ordering::SeqCst) {
            break;
        }
        // Drain pushes until the next query is due.
        loop {
            let now = ns_since(sh.epoch);
            if now >= due {
                break;
            }
            let wait = Duration::from_nanos(due - now);
            if wait < Duration::from_millis(1) {
                sleep_until(sh.epoch, due);
                continue;
            }
            if let Some(p) = client.poll_push(wait)? {
                record(p, &mut replay, &mut deltas, ns_since(sh.epoch));
            }
        }
        let probe = j % PROBES.len();
        let lo = sh.acked.load(Ordering::SeqCst);
        let q = sh.plan.window_query(probe, lo)?;
        let send = ns_since(sh.epoch);
        let r = client.call(Request::M4Query {
            series: series_name(PROBES[probe]),
            op: Operator::Lsm,
            t_qs: q.t_qs,
            t_qe: q.t_qe,
            w: W,
        });
        let recv = ns_since(sh.epoch);
        let hi = sh.sent.load(Ordering::SeqCst);
        queries.push(Query {
            probe,
            t_qs: q.t_qs,
            t_qe: q.t_qe,
            due,
            send,
            recv,
            lo,
            hi,
            digest: match r {
                Ok(Response::M4 { spans }) => Some(digest(&spans)),
                _ => None,
            },
        });
    }
    // Keep draining until the server has pushed everything, then take
    // what is left on the socket.
    while !sh.quiesced.load(Ordering::SeqCst) {
        if let Some(p) = client.poll_push(Duration::from_millis(20))? {
            record(p, &mut replay, &mut deltas, ns_since(sh.epoch));
        }
    }
    while let Some(p) = client.poll_push(Duration::from_millis(50))? {
        record(p, &mut replay, &mut deltas, ns_since(sh.epoch));
    }
    Ok(Dashboard {
        queries,
        replay,
        deltas,
    })
}

/// Every answer a query could have been given: a snapshot of calls
/// `0..k` for some `k` in `lo..=hi`, folded from the plan's points of
/// the series with `m4_scan`. The first candidate is `k = lo`.
fn candidates(plan: &Plan, series: usize, q: M4Query, lo: usize, hi: usize) -> Vec<u64> {
    let span = BATCH_POINTS as i64 * DELTA_MS;
    let mut base = Fold::new(q);
    let mut later: Vec<(usize, i64)> = Vec::new();
    for c in 0..hi.min(plan.calls()) {
        for &(s, start) in plan.call_batches(c) {
            if s != series || start >= q.t_qe || start + span <= q.t_qs {
                continue;
            }
            if c < lo {
                base.add_run(&batch_points(s, start));
            } else {
                later.push((c, start));
            }
        }
    }
    // A call's batches for one series land atomically: one candidate
    // per call.
    let mut cands = vec![base.digest()];
    let mut k = 0;
    while k < later.len() {
        let call = later[k].0;
        while k < later.len() && later[k].0 == call {
            base.add_run(&batch_points(series, later[k].1));
            k += 1;
        }
        cands.push(base.digest());
    }
    cands
}

/// Acknowledged points per second: the median over the same windows
/// of calls as the write percentiles, each from its first send to its
/// last acknowledgement.
fn ingest_rate(calls: &[Call]) -> f64 {
    let windows = (calls.len() / WINDOW_SAMPLES).max(1);
    let rates: Vec<f64> = (0..windows)
        .filter_map(|i| {
            let w = &calls[i * calls.len() / windows..(i + 1) * calls.len() / windows];
            let (first, last) = (w.first()?, w.last()?);
            let acked = w.iter().filter(|c| c.ok).count() * BATCHES_PER_CALL * BATCH_POINTS;
            Some(acked as f64 / ((last.ack - first.send) as f64 / 1e9))
        })
        .collect();
    median(&rates)
}

/// Median time from a write's acknowledgement to the receipt of a
/// `SpanDelta` covering the span of its last hot-series point.
fn push_lag_p50_ms(plan: &Plan, calls: &[Call], deltas: &[(u64, Vec<u32>)]) -> Res<f64> {
    let q = plan.full_query(PROBES[0])?;
    let mut by_span: HashMap<u32, Vec<u64>> = HashMap::new();
    for (recv, idx) in deltas {
        for &i in idx {
            by_span.entry(i).or_default().push(*recv);
        }
    }
    let mut lags = Vec::new();
    for (c, call) in calls.iter().enumerate().filter(|(_, x)| x.ok) {
        for &(s, start) in plan.call_batches(c) {
            if s != PROBES[0] {
                continue;
            }
            let t_last = start + (BATCH_POINTS as i64 - 1) * DELTA_MS;
            let Some(span) = q.span_of(t_last) else {
                continue;
            };
            let Some(recvs) = by_span.get(&(span as u32)) else {
                continue;
            };
            let k = recvs.partition_point(|&r| r < call.send);
            if let Some(&r) = recvs.get(k) {
                lags.push((r as f64 - call.ack as f64) / 1e6);
            }
        }
    }
    Ok(median(&lags))
}

struct Setup {
    served: Served,
    plan: Plan,
    generate_s: f64,
}

fn setup(ctx: &Ctx) -> Res<Setup> {
    let t0 = Instant::now();
    let batches = (PLAN_POINTS_PER_S * ctx.seconds / BATCH_POINTS as f64) as usize;
    let plan = Plan::new(ctx.seed, batches.max(BATCHES_PER_CALL * 8));
    let generate_s = t0.elapsed().as_secs_f64();
    let served = Served::start(ctx, "ingest_live", engine())?;
    let mut client = served.connect()?;
    client.write_batch(registration())?;
    Ok(Setup {
        served,
        plan,
        generate_s,
    })
}

pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut out = Outcome::new(engine());
    let mut setup_s = Vec::new();
    let t0 = Instant::now();
    let Setup {
        served,
        plan,
        generate_s,
    } = setup(ctx)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    out.attempted += 1;
    let mut wclient = served.connect()?;
    let mut dclient = FramedConn::connect(served.server.local_addr())?;

    let sh = Shared {
        plan: &plan,
        epoch: Instant::now(),
        end_ns: (ctx.seconds * 1e9) as u64,
        sent: AtomicUsize::new(0),
        acked: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        quiesced: AtomicBool::new(false),
        subscribed: AtomicBool::new(false),
    };
    let (calls, dash, settled) = std::thread::scope(|s| -> Res<_> {
        let _release = StopGuard(&sh.quiesced);
        let d = s.spawn(|| dashboard(&sh, &mut dclient));
        let calls = writer(&sh, &mut wclient);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut settled = false;
        while !settled && Instant::now() < deadline {
            settled = served
                .server
                .quiesce_subscriptions(Duration::from_millis(250));
        }
        sh.quiesced.store(true, Ordering::SeqCst);
        let dash = d.join().map_err(|_| "dashboard connection panicked")??;
        Ok((calls, dash, settled))
    })?;
    drop(dclient);
    let peak_rss = peak_rss_mib()?;
    let store_bytes = dir_bytes(served.dir.path())?;
    let acked_calls = calls.len();
    let points = (acked_calls * BATCHES_PER_CALL * BATCH_POINTS) as f64;
    out.attempted += (calls.len() + dash.queries.len()) as u64;
    out.failed = calls.iter().filter(|c| !c.ok).count() as u64
        + dash.queries.iter().filter(|q| q.digest.is_none()).count() as u64;

    // Oracle, outside the timed region.
    out.check(
        settled,
        "subscriptions did not quiesce within 60 s".to_string(),
    );
    let cands: Vec<Vec<u64>> = dash
        .queries
        .iter()
        .map(|q| {
            let mq = M4Query::new(q.t_qs, q.t_qe, W as usize)?;
            Ok(candidates(&plan, PROBES[q.probe], mq, q.lo, q.hi))
        })
        .collect::<Res<_>>()?;
    let bad = dash
        .queries
        .iter()
        .zip(&cands)
        .filter(|(q, c)| q.digest.is_some_and(|d| !c.contains(&d)))
        .count();
    out.check(
        bad == 0,
        format!(
            "{bad} of {} answers differ from the oracle",
            dash.queries.len()
        ),
    );
    let hot = PROBES[0];
    let sub_q = plan.full_query(hot)?;
    let fresh = M4Lsm::new().execute(&served.kv.snapshot(&series_name(hot))?, &sub_q)?;
    let replayed = M4Result {
        spans: dash.replay.spans().to_vec(),
    };
    out.check(
        replayed.equivalent(&fresh) && !dash.replay.has_seq_gap() && dash.replay.error().is_none(),
        "the subscription's replayed state differs from a fresh M4-LSM".to_string(),
    );
    let expect = candidates(&plan, hot, sub_q, acked_calls, acked_calls);
    out.check(
        expect.first() == Some(&digest(&fresh.spans)),
        "the hot series differs from the plan's oracle at quiesce".to_string(),
    );

    let run_ms = ctx.seconds * 1e3;
    let lat: Vec<f64> = dash
        .queries
        .iter()
        .map(|q| {
            if q.digest.is_some() {
                ms(q.recv - q.due)
            } else {
                run_ms
            }
        })
        .collect();
    let write_ms: Vec<f64> = calls
        .iter()
        .map(|c| if c.ok { ms(c.ack - c.send) } else { run_ms })
        .collect();
    let late: Vec<f64> = dash.queries.iter().map(|q| ms(q.send - q.due)).collect();
    let probe_notes: Vec<String> = (0..PROBES.len())
        .map(|p| {
            let v: Vec<f64> = dash
                .queries
                .iter()
                .filter(|q| q.probe == p && q.digest.is_some())
                .map(|q| ms(q.recv - q.send))
                .collect();
            format!("rank {} p50 {:.3} ms", PROBES[p], median(&v))
        })
        .collect();
    let note = format!(
        "write calls {} ({points} points), queries {} at {QUERY_QPS} q/s offered (query p99 {:.3} ms, {} beyond it; {}), pushes {}, compactions {}",
        calls.len(),
        dash.queries.len(),
        windowed_quantile(&lat, 0.99),
        dash.queries.len() / 100,
        probe_notes.join(", "),
        dash.deltas.len(),
        served.kv.io().snapshot().compactions_completed,
    );
    out.notes.push(note);
    if !ctx.trace {
        drop(wclient);
        drop(served);
        for _ in 1..SETUP_REPEATS {
            let t0 = Instant::now();
            let extra = setup(ctx)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(extra);
            out.attempted += 1;
        }
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s));
        m.set("query_p50_ms", windowed_quantile(&lat, 0.5));
        m.set(
            "query_qps",
            dash.queries.iter().filter(|q| q.digest.is_some()).count() as f64 / ctx.seconds,
        );
        m.set("ingest_pts_per_s", ingest_rate(&calls));
        m.set("write_p50_ms", windowed_quantile(&write_ms, 0.5));
        m.set("write_p99_ms", windowed_quantile(&write_ms, 0.99));
        m.set(
            "space_amp",
            store_bytes as f64 / (16.0 * (points + SERIES as f64)),
        );
        m.set("peak_rss_mb", peak_rss);
        return Ok(out);
    }

    let mut inputs = LayerInputs {
        store: served.kv.io().snapshot(),
        wal_retained_bytes: wal_bytes(served.dir.path())?,
        files_per_series: {
            let mut n = 0;
            for p in PROBES {
                n += served.kv.sealed_file_count(&series_name(p))?;
            }
            n as f64 / PROBES.len() as f64
        },
        server: served.server.stats().snapshot(0),
        push_lag_p50_ms: push_lag_p50_ms(&plan, &calls, &dash.deltas)?,
        generate_s,
        gen_late_p99_ms: quantile(&late, 0.99),
        query_p99_ms: windowed_quantile(&lat, 0.99),
        query_n: dash.queries.len() as u64,
        write_n: calls.len() as u64,
        ..Default::default()
    };
    inputs.ping_rtt_us = ping_rtt_us(&mut wclient)?;
    drop(wclient);
    drop(served);

    // Replay the first calls, each query right after the calls it was
    // guaranteed to see, on a fresh store.
    let n_calls = TRACE_WRITE_CALLS.min(calls.len());
    let dir = RunDir::new(&ctx.run_base, "ingest_live-replay")?;
    let kv = TsKv::open(dir.path(), engine())?;
    let mut rep = Replayer::new(&kv);
    rep.write_batch(registration())?;
    rep.measured = true;
    let mut qi = dash.queries.iter().zip(&cands).peekable();
    let mut differ = 0;
    for c in 0..=n_calls {
        while let Some((q, cand)) = qi.next_if(|(q, _)| q.lo <= c) {
            let spans = rep.query(&series_name(PROBES[q.probe]), q.t_qs, q.t_qe, W)?;
            differ += usize::from(cand.first() != Some(&digest(&spans)));
            inputs.untraced_rpc_ms.push(ms(q.recv - q.send));
        }
        if let Some(call) = calls.get(c).filter(|_| c < n_calls) {
            rep.write_batch(plan.entries(c))?;
            inputs.untraced_rpc_ms.push(ms(call.ack - call.send));
        }
    }
    out.check(
        differ == 0,
        format!("{differ} replayed answers differ from the oracle"),
    );
    inputs.trace_overhead_ns = rep.tracer.calibrate(100_000);
    out.finish_trace(ctx, "ingest_live", &rep, &inputs)?;
    Ok(out)
}
