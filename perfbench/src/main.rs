//! The repository benchmark.
//!
//! ```text
//! perfbench --workload remote-small|local-bulk|attention-stream
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads drive the layers through their public functions
//! only, from inputs generated from `--seed`, and check every output bit
//! for bit against ground truth computed before timing:
//!
//! * `remote-small` — an open loop of small requests to a spawned
//!   `softermax-server` over Unix sockets (client, wire, server).
//! * `local-bulk` — a closed loop of large batch requests through an
//!   in-process `ShardedRouter` (serve, core).
//! * `attention-stream` — `MultiHeadAttention::forward_streamed` on the
//!   Softermax kernel (transformer, core through stream sessions).
//!
//! With `--trace 0` the run measures for `--seconds` and reports the
//! end-to-end metrics. With `--trace 1` it measures for `--seconds` in
//! alternating untraced and traced slices, with spans recorded around
//! the calls into each layer in the traced ones, and reports the
//! per-layer metrics; a layer the workload does not cross reads 0 (the
//! run record lists the layers it crosses).
//!
//! Standard output: one JSON run record (host, workload parameters,
//! checks), then, as the last line, the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A bit mismatch, or any set-up failure, exits non-zero without a
//! result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod attention;
mod common;
mod local;
mod remote;
mod timed;
mod trace;

use common::{nproc, Outcome, Run};
use trace::Tracer;

/// Directory, relative to the working directory, for sockets and trace
/// files.
pub const RUN_DIR: &str = ".bench_run";

/// Every per-layer metric, with its unit, in report order.
const PER_LAYER: [(&str, &str); 20] = [
    ("client.submit_us", "us"),
    ("client.reply_us", "us"),
    ("wire.bytes_per_score", "B"),
    ("wire.encode_ns_per_score", "ns"),
    ("wire.decode_ns_per_score", "ns"),
    ("server.self_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.busy_ns_per_elem", "ns"),
    ("serve.utilization", "ratio"),
    ("serve.stolen", "count"),
    ("serve.expired", "count"),
    ("serve.failed", "count"),
    ("core.kernel_ns_per_elem", "ns"),
    ("core.kernel_calls", "count"),
    ("core.forward_into_ns_per_elem", "ns"),
    ("transformer.self_ms", "ms"),
    ("transformer.softmax_share", "ratio"),
    ("bench.send_lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer results of a traced run, plus the premise checks and
/// the trace file they came from.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    checks: BTreeMap<&'static str, f64>,
    trace_file: PathBuf,
}

impl Layers {
    /// Sets one per-layer metric (must be listed in `PER_LAYER`).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// A per-layer metric set earlier (0 when unset).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records a derived figure that confirms (or refutes) the reason a
    /// workload exists.
    pub fn check(&mut self, name: &'static str, value: f64) {
        self.checks.insert(name, value);
    }

    /// `trace.overhead_ratio`: how much slower the traced slices of the
    /// run were than the untraced slices interleaved with them, by
    /// median latency.
    pub fn overhead(&mut self, untraced: &[Outcome], traced: &[Outcome]) {
        let p50 = |o: &[Outcome]| common::median(&common::latencies_ms(o));
        self.set("trace.overhead_ratio", p50(traced) / p50(untraced) - 1.0);
    }

    /// Writes the traced slices' spans to this run's trace file.
    ///
    /// # Errors
    ///
    /// Any I/O error.
    pub fn write_trace(&self, tracer: &Tracer) -> Result<(), String> {
        tracer
            .write_tsv(&self.trace_file)
            .map_err(|e| format!("{}: {e}", self.trace_file.display()))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload remote-small|local-bulk|attention-stream \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad(&"must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// A JSON number with all its digits; a non-finite value (a percentile
/// that fell on a failed request) is written as the largest finite f64.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        format!("{}", f64::MIN)
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> Result<(Run, Layers, serde_json::Value, &'static [&'static str]), String> {
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let mut layers = Layers {
        trace_file: Path::new(RUN_DIR).join(format!("trace-{}-{}.tsv", args.workload, args.seed)),
        ..Layers::default()
    };
    let (run, params, crossed): (Run, _, &[&str]) = match args.workload.as_str() {
        "remote-small" => (
            remote::run(args.seed, args.seconds, args.trace, &mut layers)?,
            remote::params(),
            &["client", "wire", "server", "serve", "core"],
        ),
        "local-bulk" => (
            local::run(args.seed, args.seconds, args.trace, &mut layers)?,
            local::params(),
            &["serve", "core"],
        ),
        "attention-stream" => (
            attention::run(args.seed, args.seconds, args.trace, &mut layers)?,
            attention::params(),
            &["transformer", "core"],
        ),
        other => return Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    Ok((run, layers, params, crossed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let (run, layers, params, crossed) = match run(&args) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let latencies = common::latencies_ms(&run.outcomes);
    let record = serde_json::json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "host": softermax_bench::host_metadata(),
        "params": params,
        "layers_crossed": crossed,
        "mismatches": run.mismatches(),
        // The latency distribution, reported and not gated: on a shared
        // 2-vCPU host its median and tail moved up to threefold between
        // runs of the same code (see `LATENCY_Q`).
        "latency_ms": serde_json::Value::Object(
            [("p5", 0.05), ("p10", 0.10), ("p25", 0.25), ("p50", 0.50), ("p95", 0.95), ("p99", 0.99)]
                .into_iter()
                .map(|(k, q)| (k.to_string(), serde_json::Value::Float(common::percentile(&latencies, q))))
                .collect()
        ),
        "checks": serde_json::Value::Object(
            layers.checks.iter().map(|(k, v)| (k.to_string(), serde_json::Value::Float(*v))).collect()
        ),
        "trace_file": if args.trace { layers.trace_file.display().to_string() } else { String::new() },
    });
    println!("{}", record.to_json());
    if run.mismatches() > 0 {
        eprintln!(
            "perfbench: {} of {} outputs differ from the ground truth",
            run.mismatches(),
            run.attempted()
        );
        return ExitCode::FAILURE;
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit))
            .collect()
    } else {
        run.metrics()
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted(),
        run.failed(),
        metrics_json(&metrics)
    );
    ExitCode::SUCCESS
}
