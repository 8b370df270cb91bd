//! perfbench — the repository benchmark.
//!
//! One process starts a `tsnet::TsNetServer` over loopback on a
//! freshly built store, drives one workload against it with at most
//! two client connections, checks every answer against an oracle, and
//! prints the end-to-end metrics (`--trace 0`). With `--trace 1` it
//! runs the same seeded script, then replays it in process through
//! the public functions of each layer with every call wrapped in a
//! span, and prints the per-layer metrics and the layer time budget.
//!
//! ```text
//! perfbench --workload zoom_cold|dashboard_hot|ingest_live --seed N
//!           --seconds S --trace 0|1 [--commit SHA] [--source SHA]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! when every answer matched its oracle, 1 on any mismatch and 2 when
//! the run could not complete.

mod common;
mod dashboard_hot;
mod framed;
mod ingest_live;
mod json;
mod metrics;
mod oracle;
mod replay;
mod rundir;
mod setup;
mod stats;
mod trace;
mod zoom_cold;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tskv::config::EngineConfig;
use tsnet::TsNetClient;

use crate::common::{config_json, Ctx};
use crate::json::Json;
use crate::metrics::{per_layer, LayerInputs, Metrics, END_TO_END, PER_LAYER};
use crate::replay::Replayer;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

const WORKLOADS: [&str; 3] = ["zoom_cold", "dashboard_hot", "ingest_live"];

/// What one workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    pub engine: EngineConfig,
}

impl Outcome {
    pub fn new(engine: EngineConfig) -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
            engine,
        }
    }

    /// Record one correctness check; a failed one makes the run fail.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("ORACLE MISMATCH: {what}"));
        }
    }

    /// Compute the per-layer metrics of a traced run, keep the layer
    /// budget for the report and write the span dump.
    pub fn finish_trace(
        &mut self,
        ctx: &Ctx,
        workload: &str,
        rep: &Replayer<'_>,
        inputs: &LayerInputs,
    ) -> Res<()> {
        let (m, budget) = per_layer(rep, inputs);
        self.metrics = m;
        self.notes.extend(budget);
        let path = ctx
            .out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed));
        rep.tracer.dump(&path)?;
        self.notes.push(format!(
            "span dump: {} ({} spans)",
            path.display(),
            rep.tracer.spans().len()
        ));
        Ok(())
    }
}

/// Median round trip of a short `Ping` phase: the transport floor.
pub fn ping_rtt_us(client: &mut TsNetClient) -> Res<f64> {
    let mut rtt = Vec::with_capacity(500);
    for _ in 0..500 {
        let t0 = Instant::now();
        client.ping()?;
        rtt.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&rtt))
}

struct Args {
    workload: String,
    ctx: Ctx,
    commit: String,
    source: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut source = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--commit" => commit = value,
            "--source" => source = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            // Inside the working directory (the checkout root); listed
            // in the root .gitignore.
            run_base: PathBuf::from(".bench_run"),
            out_dir: PathBuf::from(".bench_out"),
        },
        commit,
        source,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let outcome = match args.workload.as_str() {
        "zoom_cold" => zoom_cold::run(ctx),
        "dashboard_hot" => dashboard_hot::run(ctx),
        _ => ingest_live::run(ctx),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let catalogue: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match outcome.metrics.render(catalogue) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let provenance = Json::obj([
        ("commit", Json::str(&args.commit)),
        ("source_sha256", Json::str(&args.source)),
        (
            "available_parallelism",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(ctx.seed)),
        ("seconds", Json::Num(ctx.seconds)),
        ("trace", Json::Bool(ctx.trace)),
        ("config", config_json(&outcome.engine)),
    ]);
    println!("{}", Json::obj([("provenance", provenance)]).render());
    for line in &outcome.notes {
        println!("# {line}");
    }
    let row: Vec<String> = catalogue
        .iter()
        .filter_map(|(name, unit)| {
            outcome
                .metrics
                .get(name)
                .map(|v| format!("{name}={v:.6} {unit}"))
        })
        .collect();
    println!("{:<14} {}", args.workload, row.join("  "));
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
