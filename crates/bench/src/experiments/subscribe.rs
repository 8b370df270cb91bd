//! Server-push subscription layer: shared incremental dashboards under
//! live ingest.
//!
//! Not a paper artifact — this measures the `tsnet::sub` layer on top
//! of the reproduction: N subscriber clients hold M4 subscriptions
//! over K ≤ N distinct dashboards (distinct series, same range/width)
//! while a paced writer ingests into every dashboard's series. The
//! `subscribers × dashboards × ingest-rate` grid sweeps fan-out and
//! dedup against push pressure.
//!
//! A cell is only valid (`oracle_match`) when, after the writer stops
//! and the server quiesces, **every** subscriber's replayed delta
//! stream — `SubAck` baseline plus every `SpanDelta` in sequence — is
//! *byte-identical* (timestamps and value bit patterns) to a fresh
//! `M4Lsm` recompute over an authoritative snapshot, with no sequence
//! gaps and no subscription errors. Dedup is counter-verified per
//! cell: the server's `subs_deduped` must equal exactly `N - K`.
//!
//! The scaling column is `deltas_per_sub`: with shared dashboards the
//! per-subscriber push volume should track ingest, not the product of
//! ingest × subscribers recomputed independently.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use serde::Serialize;

use m4::{M4Lsm, M4Query, SpanRepr};
use tsfile::types::Point;
use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::{ClientConfig, ServerConfig, SubReplay, TsNetClient, TsNetServer};

use crate::harness::{BenchMeta, Harness};

/// Subscriber fan-out to race.
pub const SUBSCRIBER_GRID: [usize; 2] = [2, 6];
/// Distinct dashboards (series) the subscribers spread over.
pub const DASHBOARD_GRID: [usize; 2] = [1, 2];
/// Ingest rates, points/second per series.
pub const RATE_GRID: [usize; 2] = [1_000, 5_000];
/// Points per ingest batch per series.
pub const BATCH: usize = 30;
/// Ingest rounds per cell.
pub const ROUNDS: usize = 20;
/// Pixel width of every subscription.
pub const W: u32 = 64;
/// Query range: covers the seed plus everything the writer ingests.
pub const RANGE_END: i64 = 1 << 20;

/// One subscribe grid cell.
#[derive(Debug, Clone, Serialize)]
pub struct SubscribeRow {
    pub subscribers: usize,
    pub dashboards: usize,
    /// Offered ingest rate, points/second per series.
    pub rate_pps: usize,
    /// Points ingested by the racing writer across all series.
    pub points_ingested: u64,
    /// Server counter: subscriptions attached to an existing dashboard.
    pub subs_deduped: u64,
    /// `subs_deduped / subscribers` — 0 when every subscriber got its
    /// own dashboard, approaching 1 as sharing dominates.
    pub dedup_ratio: f64,
    /// Server counter: `SpanDelta` frames written to sockets.
    pub deltas_pushed: u64,
    /// Scaling column: push frames per subscriber. Shared dashboards
    /// keep this tracking ingest rounds, not ingest × subscribers.
    pub deltas_per_sub: f64,
    /// Server counter: span updates merged into a not-yet-sent delta.
    pub deltas_coalesced: u64,
    /// Server counter: full-state resyncs forced by queue pressure.
    pub resyncs: u64,
    pub elapsed_ms: f64,
    /// Every subscriber's replayed stream byte-identical to a fresh
    /// recompute, no seq gaps, no errors, and `subs_deduped == N - K`.
    pub oracle_match: bool,
}

/// The document `repro --exp subscribe --out` writes.
#[derive(Debug, Serialize)]
pub struct SubscribeReport {
    pub meta: BenchMeta,
    pub rows: Vec<SubscribeRow>,
}

pub fn run(h: &Harness) -> Vec<SubscribeRow> {
    let mut rows = Vec::new();
    for &rate in &RATE_GRID {
        for &dashboards in &DASHBOARD_GRID {
            for &subscribers in &SUBSCRIBER_GRID {
                if dashboards > subscribers {
                    continue;
                }
                rows.push(run_cell(h, subscribers, dashboards, rate));
            }
        }
    }
    rows
}

fn series_name(dash: usize) -> String {
    format!("subscribe.d{dash}")
}

/// Deterministic seed points: in-order ramp with a sine value, dense
/// enough that every span of the subscription window is populated.
fn seed_points(dash: usize) -> Vec<Point> {
    (0..256i64)
        .map(|i| {
            let t = i * (RANGE_END / 512);
            Point::new(t, ((i + dash as i64) as f64 * 0.37).sin() * 100.0)
        })
        .collect()
}

fn run_cell(h: &Harness, subscribers: usize, dashboards: usize, rate: usize) -> SubscribeRow {
    let dir = h
        .root
        .join(format!("subscribe-n{subscribers}-k{dashboards}-r{rate}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create subscribe dir");

    // Small chunks/memtables so the racing writer crosses flush
    // boundaries inside the cell, not just the in-memory path.
    let store = Arc::new(
        TsKv::open(
            &dir,
            EngineConfig {
                points_per_chunk: 64,
                memtable_threshold: 256,
                ..EngineConfig::default()
            },
        )
        .expect("open subscribe store"),
    );
    for d in 0..dashboards {
        store
            .insert_batch(&series_name(d), &seed_points(d))
            .expect("seed series");
    }
    let server = TsNetServer::start(
        Arc::clone(&store),
        ServerConfig {
            max_connections: subscribers + 2,
            dispatch_interval_ms: 5,
            ..Default::default()
        },
    )
    .expect("start subscribe server");
    let addr = server.local_addr();

    let stop = AtomicBool::new(false);
    // All subscribers acknowledged + the writer: ingest only starts
    // once every subscription exists, so `subs_deduped` is exact.
    let ready = Barrier::new(subscribers + 1);
    let start = Instant::now();

    let replays: Vec<(usize, SubReplay)> = std::thread::scope(|scope| {
        // Set `stop` however the body ends: a panic below must not
        // leave the subscriber threads spinning, or the scope would
        // wait on them forever.
        let stop_guard = StopOnDrop(&stop);
        let handles: Vec<_> = (0..subscribers)
            .map(|i| {
                let dash = i % dashboards;
                let (ready, stop) = (&ready, &stop);
                scope.spawn(move || subscriber_loop(addr, dash, ready, stop))
            })
            .collect();

        let writer_store = Arc::clone(&store);
        let writer_ready = &ready;
        let writer = scope.spawn(move || {
            writer_ready.wait();
            ingest(&writer_store, dashboards, rate)
        });
        let _ingested = writer.join().expect("writer thread");

        // Converge: the server is quiescent once the change channel is
        // drained, every dashboard is exact, and every outbound queue
        // is empty (subscriber threads keep draining their sockets).
        let deadline = Instant::now() + Duration::from_secs(30);
        while !server.quiesce_subscriptions(Duration::from_millis(250)) {
            assert!(Instant::now() < deadline, "subscriptions never quiesced");
        }
        drop(stop_guard);
        handles
            .into_iter()
            .map(|t| t.join().expect("subscriber thread"))
            .collect()
    });
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let points_ingested = (dashboards * ROUNDS * BATCH) as u64;

    // Oracle: one fresh authoritative recompute per dashboard.
    let oracles: Vec<Vec<Option<SpanRepr>>> = (0..dashboards)
        .map(|d| {
            let snap = store.snapshot(&series_name(d)).expect("oracle snapshot");
            let query = M4Query::new(0, RANGE_END, W as usize).expect("oracle query");
            M4Lsm::new()
                .execute(&snap, &query)
                .expect("oracle execute")
                .spans
        })
        .collect();
    let mut oracle_match = true;
    for (dash, replay) in &replays {
        if replay.has_seq_gap() || replay.error().is_some() || replay.is_lagged() {
            oracle_match = false;
            continue;
        }
        let want = &oracles[*dash];
        if replay.spans().len() != want.len()
            || !replay
                .spans()
                .iter()
                .zip(want.iter())
                .all(|(a, b)| same_span(a, b))
        {
            oracle_match = false;
        }
    }

    // Dedup is part of the correctness bar, counter-verified over the
    // wire: N subscriptions over K dashboards must dedup exactly N-K.
    let mut stats_client =
        TsNetClient::connect(addr, ClientConfig::default()).expect("stats client");
    let (_io, snap) = stats_client.stats().expect("final stats");
    drop(stats_client);
    if snap.subs_deduped != (subscribers - dashboards) as u64 {
        oracle_match = false;
    }

    server.shutdown();
    drop(server);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    SubscribeRow {
        subscribers,
        dashboards,
        rate_pps: rate,
        points_ingested,
        subs_deduped: snap.subs_deduped,
        dedup_ratio: snap.subs_deduped as f64 / subscribers as f64,
        deltas_pushed: snap.deltas_pushed,
        deltas_per_sub: snap.deltas_pushed as f64 / subscribers as f64,
        deltas_coalesced: snap.deltas_coalesced,
        resyncs: snap.resyncs,
        elapsed_ms,
        oracle_match,
    }
}

/// Sets its flag on drop, including during a panic's unwind.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One subscriber: subscribe, then drain pushes into a [`SubReplay`]
/// until told to stop, with a final drain for frames still in flight.
fn subscriber_loop(
    addr: SocketAddr,
    dash: usize,
    ready: &Barrier,
    stop: &AtomicBool,
) -> (usize, SubReplay) {
    let mut client = TsNetClient::connect(addr, ClientConfig::default()).expect("connect sub");
    let sub = client
        .subscribe(&series_name(dash), 0, RANGE_END, W)
        .expect("subscribe");
    let mut replay = SubReplay::new(&sub);
    ready.wait();
    while !stop.load(Ordering::Acquire) {
        while let Ok(Some(push)) = client.poll_push(Duration::from_millis(5)) {
            replay.apply(&push);
        }
    }
    while let Ok(Some(push)) = client.poll_push(Duration::from_millis(50)) {
        replay.apply(&push);
    }
    (dash, replay)
}

/// Paced writer: `ROUNDS` batches of `BATCH` points into every
/// dashboard series, throttled to the offered rate. Returns the total
/// points written.
fn ingest(store: &TsKv, dashboards: usize, rate: usize) -> u64 {
    let pace = Duration::from_secs_f64(BATCH as f64 / rate.max(1) as f64);
    let base = RANGE_END / 2;
    let step = (RANGE_END / 2) / (ROUNDS as i64 * BATCH as i64 + 1);
    let mut total = 0u64;
    for round in 0..ROUNDS {
        for d in 0..dashboards {
            let pts: Vec<Point> = (0..BATCH as i64)
                .map(|i| {
                    let k = round as i64 * BATCH as i64 + i;
                    Point::new(base + k * step, (k as f64 * 0.11).cos() * (d + 1) as f64)
                })
                .collect();
            store.insert_batch(&series_name(d), &pts).expect("ingest");
            total += BATCH as u64;
        }
        std::thread::sleep(pace);
    }
    total
}

/// Bit-exact span equality — the oracle bar compares value bit
/// patterns, so `-0.0` vs `0.0` (or differing NaNs) count as drift.
fn same_span(a: &Option<SpanRepr>, b: &Option<SpanRepr>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let eq = |p: &Point, q: &Point| p.t == q.t && p.v.to_bits() == q.v.to_bits();
            eq(&x.first, &y.first)
                && eq(&x.last, &y.last)
                && eq(&x.bottom, &y.bottom)
                && eq(&x.top, &y.top)
        }
        _ => false,
    }
}

/// Pretty-print subscribe rows as an aligned table.
pub fn print(rows: &[SubscribeRow]) {
    if rows.is_empty() {
        return;
    }
    println!(
        "{:>5} {:>6} {:>9} {:>8} {:>7} {:>7} {:>9} {:>10} {:>8} {:>10} {:>6}",
        "subs",
        "dashes",
        "rate_pps",
        "points",
        "dedup",
        "deltas",
        "delta/sub",
        "coalesced",
        "resyncs",
        "elapsed",
        "oracle"
    );
    for r in rows {
        println!(
            "{:>5} {:>6} {:>9} {:>8} {:>7} {:>7} {:>9.1} {:>10} {:>8} {:>9.1}ms {:>6}",
            r.subscribers,
            r.dashboards,
            r.rate_pps,
            r.points_ingested,
            r.subs_deduped,
            r.deltas_pushed,
            r.deltas_per_sub,
            r.deltas_coalesced,
            r.resyncs,
            r.elapsed_ms,
            if r.oracle_match { "ok" } else { "FAIL" }
        );
    }
}

/// Headline ratios: dedup at maximum sharing, and how per-subscriber
/// push volume scales with fan-out at fixed ingest.
pub fn summarize(rows: &[SubscribeRow]) {
    let max_subs = SUBSCRIBER_GRID.iter().copied().max().unwrap_or(1);
    let shared = rows
        .iter()
        .filter(|r| r.subscribers == max_subs && r.dashboards == 1)
        .collect::<Vec<_>>();
    if let Some(r) = shared.first() {
        println!(
            "-- subscribe: {} subscribers on 1 dashboard dedup {:.0}% of subscriptions \
             ({} shared computations avoided)",
            r.subscribers,
            r.dedup_ratio * 100.0,
            r.subs_deduped
        );
    }
    let mean = |n: usize, metric: &dyn Fn(&SubscribeRow) -> f64| {
        let v: Vec<f64> = rows
            .iter()
            .filter(|r| r.subscribers == n && r.dashboards == 1)
            .map(metric)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let min_subs = SUBSCRIBER_GRID.iter().copied().min().unwrap_or(1);
    let per_sub_small = mean(min_subs, &|r| r.deltas_per_sub);
    let per_sub_large = mean(max_subs, &|r| r.deltas_per_sub);
    if per_sub_small.is_finite() && per_sub_small > 0.0 && per_sub_large.is_finite() {
        println!(
            "-- subscribe: deltas/subscriber at {max_subs} vs {min_subs} subscribers \
             (1 dashboard): {per_sub_large:.1} vs {per_sub_small:.1} ({:.2}x — shared \
             dashboards keep push volume per subscriber flat)",
            per_sub_large / per_sub_small
        );
    }
    let mismatches = rows.iter().filter(|r| !r.oracle_match).count();
    println!(
        "-- subscribe: {}/{} cells delta-replay byte-identical to the recompute oracle",
        rows.len() - mismatches,
        rows.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_replays_to_the_oracle_and_dedups() {
        let h = Harness::new(0.002, 1);
        let rows = run(&h);
        h.cleanup();
        // dashboards > subscribers cells are skipped; all others run.
        let expected = RATE_GRID.len()
            * DASHBOARD_GRID
                .iter()
                .map(|&k| SUBSCRIBER_GRID.iter().filter(|&&n| n >= k).count())
                .sum::<usize>();
        assert_eq!(rows.len(), expected);
        for r in &rows {
            assert!(r.oracle_match, "{r:?}");
            assert!(r.points_ingested > 0, "{r:?}");
            assert!(r.deltas_pushed > 0, "{r:?}");
            assert_eq!(
                r.subs_deduped,
                (r.subscribers - r.dashboards) as u64,
                "{r:?}"
            );
        }
        // The shared-dashboard cells must actually have deduped.
        assert!(
            rows.iter()
                .any(|r| r.dashboards < r.subscribers && r.subs_deduped > 0),
            "no cell exercised dedup"
        );
    }
}
