//! Pieces every workload shares: the serving configuration, a served
//! store, seeded randomness, clocks and process memory.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tskv::config::EngineConfig;
use tskv::TsKv;
use tsnet::{ClientConfig, ServerConfig, TsNetClient, TsNetServer};

use crate::json::Json;
use crate::rundir::RunDir;
use crate::Res;

/// Run-wide parameters: the command line plus where files go.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where run directories are created.
    pub run_base: std::path::PathBuf,
    /// Where the span dump is written.
    pub out_dir: std::path::PathBuf,
}

/// The serving configuration every workload uses: the engine defaults
/// (64 MiB decoded-chunk cache, 4 read threads, 1000-point chunks,
/// 1024-point pages, fsync on flush).
pub fn engine_config() -> EngineConfig {
    EngineConfig::default()
}

pub fn server_config() -> ServerConfig {
    ServerConfig::default()
}

/// A store served over loopback. Fields drop in declaration order:
/// the server drains before the store closes, and the directory goes
/// last.
pub struct Served {
    pub server: TsNetServer,
    pub kv: Arc<TsKv>,
    pub dir: RunDir,
}

impl Served {
    pub fn start(ctx: &Ctx, tag: &str, config: EngineConfig) -> Res<Served> {
        let dir = RunDir::new(&ctx.run_base, tag)?;
        let kv = Arc::new(TsKv::open(dir.path(), config)?);
        let server = TsNetServer::start(Arc::clone(&kv), server_config())?;
        Ok(Served { server, kv, dir })
    }

    pub fn connect(&self) -> Res<TsNetClient> {
        Ok(TsNetClient::connect(
            self.server.local_addr(),
            ClientConfig::default(),
        )?)
    }
}

/// A seeded generator for one independent stream of a run's inputs.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    // splitmix64 of the pair, so nearby seeds give unrelated streams.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Nanoseconds since `epoch`.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sleep until `due_ns` after `epoch`.
pub fn sleep_until(epoch: Instant, due_ns: u64) {
    loop {
        let now = ns_since(epoch);
        if now >= due_ns {
            return;
        }
        std::thread::sleep(std::time::Duration::from_nanos(due_ns - now));
    }
}

/// The process's peak resident set (`VmHWM`) in MiB. The server runs
/// in this process, so this covers it.
pub fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The engine and server settings in effect, for the provenance line.
pub fn config_json(engine: &EngineConfig) -> Json {
    let server = server_config();
    Json::obj([
        (
            "engine",
            Json::obj([
                (
                    "points_per_chunk",
                    Json::Int(engine.points_per_chunk as u64),
                ),
                ("page_points", Json::Int(engine.page_points as u64)),
                (
                    "memtable_threshold",
                    Json::Int(engine.memtable_threshold as u64),
                ),
                (
                    "cache_capacity_bytes",
                    Json::Int(engine.cache_capacity_bytes),
                ),
                ("read_threads", Json::Int(engine.read_threads as u64)),
                ("enable_read_cache", Json::Bool(engine.enable_read_cache)),
                ("write_shards", Json::Int(engine.write_shards as u64)),
                ("wal_batch_bytes", Json::Int(engine.wal_batch_bytes as u64)),
                ("fsync_policy", Json::str(engine.fsync_policy.as_str())),
                ("compaction_auto", Json::Bool(engine.compaction_auto)),
                (
                    "compaction_threshold",
                    Json::Int(engine.compaction_threshold as u64),
                ),
                (
                    "compaction_interval_ms",
                    Json::Int(engine.compaction_interval_ms),
                ),
                (
                    "compaction_policy",
                    Json::str(engine.compaction_policy.as_str()),
                ),
                ("storage_shards", Json::Int(engine.storage_shards as u64)),
                ("wal_segment_bytes", Json::Int(engine.wal_segment_bytes)),
            ]),
        ),
        (
            "server",
            Json::obj([
                ("max_connections", Json::Int(server.max_connections as u64)),
                ("max_in_flight", Json::Int(server.max_in_flight as u64)),
                ("request_timeout_ms", Json::Int(server.request_timeout_ms)),
                ("poll_interval_ms", Json::Int(server.poll_interval_ms)),
                (
                    "push_queue_spans",
                    Json::Int(server.push_queue_spans as u64),
                ),
                (
                    "dispatch_interval_ms",
                    Json::Int(server.dispatch_interval_ms),
                ),
            ]),
        ),
    ])
}
