//! The metric catalogue and the per-layer computation of the traced
//! run. The names and units here are the ones `BENCHMARK.json` lists;
//! a test keeps the two in step.

use std::collections::BTreeMap;

use tskv::stats::IoSnapshot;
use tsnet::ServerStatsSnapshot;

use crate::json::Json;
use crate::replay::{Kind, Replayer};
use crate::stats::{mean, quantile, ratio};
use crate::trace::ROOT;

/// End-to-end metrics: `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("ingest_pts_per_s", "points/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("tsfile.chunks_loaded_per_query", "count"),
    ("tsfile.pages_decoded_per_query", "count"),
    ("tsfile.pages_skipped_per_query", "count"),
    ("tsfile.pages_stat_answered_per_query", "count"),
    ("tsfile.points_decoded_per_query", "count"),
    ("tsfile.timestamps_decoded_per_query", "count"),
    ("tsfile.bytes_read_per_query", "B"),
    ("tsfile.pool_hit_rate", "ratio"),
    ("m4.lsm.execute_p50_ms", "ms"),
    ("m4.lsm.execute_p99_ms", "ms"),
    ("m4.lsm.execute_share", "ratio"),
    ("m4.decode_waste", "ratio"),
    ("tskv.snapshot_us", "us"),
    ("tskv.cache.hit_rate", "ratio"),
    ("tskv.cache.evictions_per_query", "count"),
    ("tskv.write_batch_p50_ms", "ms"),
    ("tskv.write_batch_p99_ms", "ms"),
    ("tskv.wal.bytes_per_point", "B/point"),
    ("tskv.wal.syncs", "count"),
    ("tskv.wal.retained_bytes", "B"),
    ("tskv.catalog.miss_rate", "ratio"),
    ("tskv.compaction.completed", "count"),
    ("tskv.compaction.rewrite_amp", "ratio"),
    ("tskv.compaction.page_copy_frac", "ratio"),
    ("tskv.files_per_series", "count"),
    ("tsnet.ping_rtt_us", "us"),
    ("tsnet.wire.encode_request_us", "us"),
    ("tsnet.wire.decode_request_us", "us"),
    ("tsnet.wire.encode_response_us", "us"),
    ("tsnet.wire.decode_response_us", "us"),
    ("tsnet.request_bytes", "B"),
    ("tsnet.response_bytes", "B"),
    ("tsnet.rejected_busy", "count"),
    ("tsnet.timeouts", "count"),
    ("tsnet.transport_residual_ms", "ms"),
    ("tsnet.sub.deltas_pushed", "count"),
    ("tsnet.sub.deltas_coalesced", "count"),
    ("tsnet.sub.resyncs", "count"),
    ("tsnet.sub.push_lag_p50_ms", "ms"),
    ("workload.generate_s", "s"),
    ("harness.query_p99_ms", "ms"),
    ("harness.gen_late_p99_ms", "ms"),
    ("harness.trace_overhead_ns", "ns"),
    ("harness.query_n", "count"),
    ("harness.write_n", "count"),
    ("harness.untraced_rpc_ms", "ms"),
    ("harness.traced_pipeline_ms", "ms"),
];

/// Collects metric values by name and renders them in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The `metrics` object of the result line: exactly the names of
    /// `catalogue`, each with its unit.
    pub fn render(&self, catalogue: &[(&'static str, &'static str)]) -> Result<Json, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut pairs = Vec::new();
        for &(name, unit) in catalogue {
            let v = *self
                .values
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
            pairs.push((
                name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj(pairs))
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Everything the per-layer metrics are computed from besides the
/// replay's own spans and counts.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Client-observed latency (from send, ms) of each measured
    /// operation that the replay also ran, untraced.
    pub untraced_rpc_ms: Vec<f64>,
    /// Engine counters of the served store over the whole run.
    pub store: IoSnapshot,
    pub wal_retained_bytes: u64,
    pub files_per_series: f64,
    pub server: ServerStatsSnapshot,
    pub ping_rtt_us: f64,
    pub push_lag_p50_ms: f64,
    /// Client-observed query p99 of the untraced run (see
    /// `harness.query_p99_ms`).
    pub query_p99_ms: f64,
    pub generate_s: f64,
    pub gen_late_p99_ms: f64,
    pub trace_overhead_ns: f64,
    pub query_n: u64,
    pub write_n: u64,
}

/// Compute every per-layer metric; returns them with the lines of the
/// layer time budget.
pub fn per_layer(rep: &Replayer<'_>, inp: &LayerInputs) -> (Metrics, Vec<String>) {
    let spans = rep.tracer.spans();
    // Which spans belong to a measured operation (roots and children).
    let mut measured = vec![false; spans.len()];
    for r in &rep.roots {
        if r.measured {
            if let Some(m) = measured.get_mut(r.span as usize) {
                *m = true;
            }
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if s.parent != ROOT && measured.get(s.parent as usize).copied().unwrap_or(false) {
            measured[i] = true;
        }
    }
    let any_measured_write = rep
        .roots
        .iter()
        .any(|r| r.measured && r.kind == Kind::Write);
    let durs_ms = |name: &str, only_measured: bool| -> Vec<f64> {
        spans
            .iter()
            .zip(&measured)
            .filter(|(s, m)| s.name == name && (**m || !only_measured))
            .map(|(s, _)| s.dur_ns() as f64 / 1e6)
            .collect()
    };

    let mut m = Metrics::default();
    let q = &rep.queries;
    let nq = q.len() as f64;
    let sum = |f: &dyn Fn(&IoSnapshot) -> u64| q.iter().map(|c| f(&c.io) as f64).sum::<f64>();
    m.set(
        "tsfile.chunks_loaded_per_query",
        ratio(sum(&|io| io.chunks_loaded), nq),
    );
    m.set(
        "tsfile.pages_decoded_per_query",
        ratio(sum(&|io| io.pages_decoded), nq),
    );
    m.set(
        "tsfile.pages_skipped_per_query",
        ratio(sum(&|io| io.pages_skipped), nq),
    );
    m.set(
        "tsfile.pages_stat_answered_per_query",
        ratio(sum(&|io| io.pages_stat_answered), nq),
    );
    m.set(
        "tsfile.points_decoded_per_query",
        ratio(sum(&|io| io.points_decoded), nq),
    );
    m.set(
        "tsfile.timestamps_decoded_per_query",
        ratio(sum(&|io| io.timestamps_decoded), nq),
    );
    m.set(
        "tsfile.bytes_read_per_query",
        ratio(sum(&|io| io.bytes_read), nq),
    );
    let pool_hits = sum(&|io| io.pool_hits);
    m.set(
        "tsfile.pool_hit_rate",
        ratio(pool_hits, pool_hits + sum(&|io| io.pool_misses)),
    );

    let exec = durs_ms("m4.lsm.execute", true);
    let query_roots = durs_ms("rpc.query", true);
    m.set("m4.lsm.execute_p50_ms", quantile(&exec, 0.5));
    m.set("m4.lsm.execute_p99_ms", quantile(&exec, 0.99));
    m.set(
        "m4.lsm.execute_share",
        ratio(exec.iter().sum(), query_roots.iter().sum()),
    );
    let out_points = q
        .iter()
        .map(|c| 4.0 * c.non_empty_spans as f64)
        .sum::<f64>();
    m.set(
        "m4.decode_waste",
        ratio(sum(&|io| io.points_decoded), out_points),
    );

    m.set(
        "tskv.snapshot_us",
        mean(&durs_ms("tskv.snapshot", true)) * 1e3,
    );
    let hits = sum(&|io| io.cache_hits);
    m.set(
        "tskv.cache.hit_rate",
        ratio(hits, hits + sum(&|io| io.cache_misses)),
    );
    m.set(
        "tskv.cache.evictions_per_query",
        ratio(sum(&|io| io.cache_evictions), nq),
    );
    // Read-only workloads write only while loading; their write path
    // is measured on the load.
    let wb = durs_ms("tskv.write_batch", any_measured_write);
    m.set("tskv.write_batch_p50_ms", quantile(&wb, 0.5));
    m.set("tskv.write_batch_p99_ms", quantile(&wb, 0.99));
    let st = &inp.store;
    m.set(
        "tskv.wal.bytes_per_point",
        ratio(st.wal_bytes as f64, st.points_written as f64),
    );
    m.set("tskv.wal.syncs", st.wal_syncs as f64);
    m.set("tskv.wal.retained_bytes", inp.wal_retained_bytes as f64);
    m.set(
        "tskv.catalog.miss_rate",
        ratio(
            st.catalog_misses as f64,
            (st.catalog_hits + st.catalog_misses) as f64,
        ),
    );
    m.set("tskv.compaction.completed", st.compactions_completed as f64);
    m.set(
        "tskv.compaction.rewrite_amp",
        ratio(
            st.compaction_bytes_rewritten as f64,
            16.0 * st.points_written as f64,
        ),
    );
    m.set(
        "tskv.compaction.page_copy_frac",
        ratio(
            st.compaction_pages_copied as f64,
            (st.compaction_pages_copied + st.compaction_pages_recoded) as f64,
        ),
    );
    m.set("tskv.files_per_series", inp.files_per_series);

    m.set("tsnet.ping_rtt_us", inp.ping_rtt_us);
    let us = |name: &str| mean(&durs_ms(name, true)) * 1e3;
    m.set(
        "tsnet.wire.encode_request_us",
        us("tsnet.wire.encode_request"),
    );
    m.set(
        "tsnet.wire.decode_request_us",
        us("tsnet.wire.decode_request_payload"),
    );
    m.set(
        "tsnet.wire.encode_response_us",
        us("tsnet.wire.encode_response"),
    );
    m.set(
        "tsnet.wire.decode_response_us",
        us("tsnet.wire.decode_response_payload"),
    );
    let req_bytes: Vec<f64> = q
        .iter()
        .map(|c| c.request_bytes as f64)
        .chain(rep.write_request_bytes.iter().map(|&b| b as f64))
        .collect();
    m.set("tsnet.request_bytes", mean(&req_bytes));
    let resp_bytes: Vec<f64> = q.iter().map(|c| c.response_bytes as f64).collect();
    m.set("tsnet.response_bytes", mean(&resp_bytes));
    m.set("tsnet.rejected_busy", inp.server.rejected_busy as f64);
    m.set("tsnet.timeouts", inp.server.timeouts as f64);

    // Traced pipeline time of the same operations the untraced run
    // timed over the wire; the residual is transport, admission,
    // dispatch and hand-offs.
    let pipeline: Vec<f64> = query_roots
        .iter()
        .copied()
        .chain(durs_ms("rpc.write", true))
        .collect();
    let untraced = mean(&inp.untraced_rpc_ms);
    let traced = mean(&pipeline);
    let residual = untraced - traced;
    m.set("tsnet.transport_residual_ms", residual);
    m.set("tsnet.sub.deltas_pushed", inp.server.deltas_pushed as f64);
    m.set(
        "tsnet.sub.deltas_coalesced",
        inp.server.deltas_coalesced as f64,
    );
    m.set("tsnet.sub.resyncs", inp.server.resyncs as f64);
    m.set("tsnet.sub.push_lag_p50_ms", inp.push_lag_p50_ms);

    m.set("workload.generate_s", inp.generate_s);
    m.set("harness.query_p99_ms", inp.query_p99_ms);
    m.set("harness.gen_late_p99_ms", inp.gen_late_p99_ms);
    m.set("harness.trace_overhead_ns", inp.trace_overhead_ns);
    m.set("harness.query_n", inp.query_n as f64);
    m.set("harness.write_n", inp.write_n as f64);
    m.set("harness.untraced_rpc_ms", untraced);
    m.set("harness.traced_pipeline_ms", traced);

    // The budget: self time per measured operation for every span
    // name, plus the residual, sums to the untraced mean RPC time.
    let ops = pipeline.len().max(1) as f64;
    let mut self_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((s, self_ns), is_measured) in spans.iter().zip(rep.tracer.self_times_ns()).zip(&measured) {
        let op_root = s.parent == ROOT && matches!(s.name, "rpc.query" | "rpc.write");
        let op_child = s.parent != ROOT
            && spans
                .get(s.parent as usize)
                .is_some_and(|p| matches!(p.name, "rpc.query" | "rpc.write"));
        if *is_measured && (op_root || op_child) {
            *self_ms.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6 / ops;
        }
    }
    let mut lines = vec![format!(
        "layer budget over {} measured operations (self time per operation, ms):",
        pipeline.len()
    )];
    let mut total = 0.0;
    for (name, v) in &self_ms {
        total += v;
        lines.push(format!(
            "  {name:<36} {v:>10.4}  {:>5.1}%",
            100.0 * ratio(*v, untraced)
        ));
    }
    lines.push(format!(
        "  {:<36} {residual:>10.4}  {:>5.1}%",
        "tsnet.transport_residual",
        100.0 * ratio(residual, untraced)
    ));
    lines.push(format!(
        "  {:<36} {:>10.4}  (untraced mean RPC {untraced:.4} ms)",
        "sum",
        total + residual
    ));
    (m, lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{path} lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "{path} lists other metrics"
        );
    }

    #[test]
    fn render_demands_exactly_the_catalogue() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.0);
        }
        assert!(m.render(&END_TO_END).is_ok());
        assert!(m.render(&PER_LAYER).is_err());
        m.set("not_a_metric", 1.0);
        assert!(m.render(&END_TO_END).is_err());
    }
}
