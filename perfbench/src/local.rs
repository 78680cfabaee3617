//! `local-bulk`: a closed loop that keeps requests in flight through an
//! in-process `ShardedRouter`. There is no wire, so the kernel does
//! nearly all the work: the workload that shows `core` and
//! engine-dispatch changes, and the bypass for wire/server changes.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softermax::kernel::{SoftermaxFixedKernel, SoftmaxKernel};
use softermax_serve::{Admission, KernelServeStats, ServeConfig, ShardedRouter, Submission};
use softermax_server::ServerConfig;

use crate::common::{
    derive_seed, forward_into_ns_per_elem, ground_truth, median, peak_rss_mb, same_bits,
    sampling_setups, server_workers, timed_setup, trace_slices, Outcome, Run, SCORE_STD,
};
use crate::timed::TimedKernel;
use crate::trace::{self_times, Span, Tracer};
use crate::Layers;

/// Rows per request: one 32-row PE chunk.
pub const ROWS: usize = 32;
/// Scores per row.
pub const LEN: usize = 4096;
/// Requests the single client thread keeps in flight: enough to keep
/// every engine worker busy, from one thread, so the benchmark adds one
/// thread, not one per client, to the engine's four on two cores.
pub const IN_FLIGHT: usize = 2;
/// Distinct request matrices drawn per run.
pub const POOL: usize = 16;
/// Fixed latency limit.
pub const SLO: Duration = Duration::from_millis(100);
/// Warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);

const SEED_TAG: u64 = 0x4c42;

/// The workload parameters, for the run record.
#[must_use]
pub fn params() -> serde_json::Value {
    let geometry = ServerConfig::default();
    serde_json::json!({
        "loop": "closed",
        "clients": 1,
        "in_flight": IN_FLIGHT,
        "shards": geometry.shards,
        "workers_per_shard": geometry.threads,
        "queue_depth": geometry.queue_depth,
        "policy": format!("{:?}", geometry.policy),
        "rows": ROWS,
        "row_len": LEN,
        "path": "batch",
        "pool": POOL,
        "slo_ms": SLO.as_millis() as u64,
    })
}

struct Setup {
    kernel: Arc<dyn SoftmaxKernel>,
    router: ShardedRouter,
}

fn build() -> Result<Setup, String> {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(SoftermaxFixedKernel::paper());
    // The router the server builds at its default geometry.
    let geometry = ServerConfig::default();
    let config = ServeConfig::new(geometry.threads).with_queue_depth(geometry.queue_depth);
    let router = ShardedRouter::new(geometry.shards, config, geometry.policy)
        .map_err(|e| format!("router: {e}"))?;
    Ok(Setup { kernel, router })
}

/// The seeded pool of request matrices and their ground truth.
struct Pool {
    inputs: Vec<Vec<f64>>,
    truth: Vec<Vec<f64>>,
}

fn pool(seed: u64, kernel: &dyn SoftmaxKernel) -> Result<Pool, String> {
    let inputs: Vec<Vec<f64>> = (0..POOL as u64)
        .map(|i| {
            softermax_serve::traffic::synthetic_matrix(
                ROWS,
                LEN,
                SCORE_STD,
                derive_seed(seed, SEED_TAG, i),
            )
        })
        .collect();
    let truth = inputs
        .iter()
        .map(|m| ground_truth(kernel, m, LEN))
        .collect::<Result<_, _>>()?;
    Ok(Pool { inputs, truth })
}

/// One closed-loop window: `IN_FLIGHT` requests stay in the router
/// until `window` has passed, then the loop drains. Each latency is
/// taken when the reply arrives, before its output is compared.
fn window(
    router: &ShardedRouter,
    kernel: &Arc<dyn SoftmaxKernel>,
    pool: &Pool,
    window: Duration,
    rng: &mut StdRng,
    tracer: Option<&Tracer>,
    next_id: &mut u64,
) -> Vec<Outcome> {
    let end = Instant::now() + window;
    let mut outcomes = Vec::new();
    let mut queue = VecDeque::with_capacity(IN_FLIGHT);
    let mut submit = |queue: &mut VecDeque<_>| {
        let i = rng.gen_range(0..POOL);
        let rows = pool.inputs[i].clone();
        *next_id += 1;
        let t0 = Instant::now();
        let ticket = router
            .submit_request(Submission::new(kernel, rows, LEN), Admission::Fail)
            .ok();
        if let Some(tracer) = tracer {
            tracer.record(Span {
                name: "serve.admit",
                id: *next_id,
                parent: Some("request"),
                start: tracer.at(t0),
                end: tracer.now(),
                work: (ROWS * LEN) as u64,
            });
        }
        queue.push_back((*next_id, i, t0, ticket));
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut queue);
    }
    while let Some((id, i, t0, ticket)) = queue.pop_front() {
        let reply = ticket.map(|t| t.wait());
        let done = Instant::now();
        if let Some(tracer) = tracer {
            tracer.record(Span {
                name: "request",
                id,
                parent: None,
                start: tracer.at(t0),
                end: tracer.at(done),
                work: (ROWS * LEN) as u64,
            });
        }
        outcomes.push(match reply {
            Some(Ok(out)) if same_bits(&out, &pool.truth[i]) => Outcome::Ok(done - t0, done),
            Some(Ok(_)) => Outcome::Mismatch,
            Some(Err(_)) | None => Outcome::Failed,
        });
        if Instant::now() < end {
            submit(&mut queue);
        }
    }
    outcomes
}

/// Runs the workload; with `traced`, also fills the per-layer metrics.
///
/// # Errors
///
/// Set-up or ground-truth failures.
pub fn run(seed: u64, seconds: f64, traced: bool, layers: &mut Layers) -> Result<Run, String> {
    let (setup, first_setup) = timed_setup(build)?;
    let pool = pool(seed, setup.kernel.as_ref())?;
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SEED_TAG + 1, 0));
    let mut ids = 0;
    let warm = window(
        &setup.router,
        &setup.kernel,
        &pool,
        WARMUP,
        &mut rng,
        None,
        &mut ids,
    );
    if warm.contains(&Outcome::Mismatch) {
        return Err("router output differs from forward_into during warm-up".to_string());
    }

    let (outcomes, mut setup_times) = sampling_setups(seconds, build, || {
        if traced {
            trace_run(&setup, &pool, seconds, &mut rng, layers)
        } else {
            Ok(window(
                &setup.router,
                &setup.kernel,
                &pool,
                Duration::from_secs_f64(seconds),
                &mut rng,
                None,
                &mut ids,
            ))
        }
    })?;
    setup_times.push(first_setup);
    Ok(Run {
        setup_s: median(&setup_times),
        outcomes: outcomes?,
        scores_per_request: (ROWS * LEN) as u64,
        slo: SLO,
        peak_rss_mb: peak_rss_mb("self")?,
    })
}

/// The traced run: untraced and traced slices interleaved; returns every
/// outcome of both.
fn trace_run(
    setup: &Setup,
    pool: &Pool,
    seconds: f64,
    rng: &mut StdRng,
    layers: &mut Layers,
) -> Result<Vec<Outcome>, String> {
    let tracer = Arc::new(Tracer::new());
    let timed: Arc<dyn SoftmaxKernel> = Arc::new(TimedKernel::new(
        Arc::clone(&setup.kernel),
        Arc::clone(&tracer),
    ));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut stats = KernelServeStats::default();
    let mut traced_s = 0.0;
    let mut stolen = 0;
    let mut ids = 0;
    for (is_traced, len) in trace_slices(seconds) {
        if !is_traced {
            plain.extend(window(
                &setup.router,
                &setup.kernel,
                pool,
                len,
                rng,
                None,
                &mut ids,
            ));
            continue;
        }
        setup.router.reset_stats();
        let stolen_before = setup.router.jobs_stolen();
        let t0 = Instant::now();
        traced.extend(window(
            &setup.router,
            &timed,
            pool,
            len,
            rng,
            Some(&tracer),
            &mut ids,
        ));
        traced_s += t0.elapsed().as_secs_f64();
        stats.absorb(&setup.router.stats().total());
        stolen += setup.router.jobs_stolen() - stolen_before;
    }

    let spans = tracer.spans();
    let own = self_times(&spans);
    let admit: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.admit")
        .map(|s| s.dur() as f64 / 1e3)
        .collect();
    let (kernel_ns, kernel_elems, kernel_calls) = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "core.batch")
        .fold((0u64, 0u64, 0u64), |(ns, el, n), (s, own)| {
            (ns + own, el + s.work, n + 1)
        });
    let batches = stats.batches.max(1) as f64;
    layers.set("serve.admit_us", median(&admit));
    layers.set(
        "serve.queue_wait_us",
        stats.wall_ns.saturating_sub(stats.busy_ns) as f64 / batches / 1e3,
    );
    layers.set(
        "serve.busy_ns_per_elem",
        stats.busy_ns as f64 / stats.elements.max(1) as f64,
    );
    layers.set(
        "serve.utilization",
        stats.busy_ns as f64 / (server_workers() * traced_s * 1e9),
    );
    layers.set("serve.stolen", stolen as f64);
    layers.set("serve.expired", stats.expired_requests as f64);
    layers.set("serve.failed", stats.failed_batches as f64);
    layers.set(
        "core.kernel_ns_per_elem",
        kernel_ns as f64 / kernel_elems.max(1) as f64,
    );
    layers.set("core.kernel_calls", kernel_calls as f64);
    layers.set(
        "core.forward_into_ns_per_elem",
        forward_into_ns_per_elem(setup.kernel.as_ref(), &pool.inputs, LEN),
    );
    layers.overhead(&plain, &traced);
    layers.check(
        "core_share_of_busy",
        layers.get("core.kernel_ns_per_elem") / layers.get("serve.busy_ns_per_elem"),
    );
    layers.write_trace(&tracer)?;
    plain.append(&mut traced);
    Ok(plain)
}
