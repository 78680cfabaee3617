//! `attention-stream`: one thread calling
//! `MultiHeadAttention::forward_streamed` in a closed loop, with the
//! Softermax kernel behind `KernelSoftmax`. It is the paper's own
//! application, and it reaches the kernel through chunked
//! `StreamSession::push_chunk`/`finish_into` calls rather than whole-row
//! batch calls.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use softermax::kernel::{SoftermaxFixedKernel, SoftmaxKernel};
use softermax_transformer::attention::{AttentionSoftmax, KernelSoftmax, MultiHeadAttention};
use softermax_transformer::tensor::Matrix;

use crate::common::{
    derive_seed, median, peak_rss_mb, same_bits, sampling_setups, timed_setup, trace_slices,
    Outcome, Run,
};
use crate::timed::{TimedKernel, KERNEL_SPANS};
use crate::trace::{self_times, with_context, Span, Tracer};
use crate::Layers;

/// Sequence length: short enough that a run makes thousands of calls,
/// long enough that every score row (`SEQ` scores) is pushed in more
/// than one `TILE` chunk.
pub const SEQ: usize = 128;
/// Model dimension.
pub const D_MODEL: usize = 64;
/// Attention heads.
pub const HEADS: usize = 4;
/// Scores per `push_chunk`.
pub const TILE: usize = 64;
/// Distinct input sequences drawn per run.
pub const POOL: usize = 64;
/// Seed of the model weights: the model is fixed, only its inputs are
/// drawn from `--seed` (the streamed path skips zero probabilities, so
/// per-seed weights would make the work per call vary between runs).
const MODEL_SEED: u64 = 0x5eed;
/// Fixed latency limit per call.
pub const SLO: Duration = Duration::from_millis(50);
/// Softmax scores per call: a `SEQ x SEQ` score matrix per head.
pub const SCORES_PER_CALL: usize = SEQ * SEQ * HEADS;
/// Warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Standard deviation of the input activations.
const INPUT_STD: f64 = 1.0;

const SEED_TAG: u64 = 0x4154;
const CALL: &str = "transformer.forward_streamed";

/// The workload parameters, for the run record.
#[must_use]
pub fn params() -> serde_json::Value {
    serde_json::json!({
        "loop": "closed",
        "threads": 1,
        "seq": SEQ,
        "d_model": D_MODEL,
        "heads": HEADS,
        "tile": TILE,
        "path": "stream",
        "pool": POOL,
        "scores_per_call": SCORES_PER_CALL,
        "slo_ms": SLO.as_millis() as u64,
    })
}

struct Setup {
    kernel: Arc<dyn SoftmaxKernel>,
    mha: MultiHeadAttention,
}

fn build() -> Result<Setup, String> {
    let kernel: Arc<dyn SoftmaxKernel> = Arc::new(SoftermaxFixedKernel::paper());
    let softmax = Arc::new(KernelSoftmax::from_kernel(Arc::clone(&kernel)));
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mha = MultiHeadAttention::new(D_MODEL, HEADS, softmax, &mut rng);
    Ok(Setup { kernel, mha })
}

fn same_matrix(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows() && a.cols() == b.cols() && same_bits(a.as_slice(), b.as_slice())
}

/// One closed-loop window of `forward_streamed` calls; each latency is
/// taken before the output is compared.
fn window(
    mha: &mut MultiHeadAttention,
    inputs: &[Matrix],
    truth: &[Matrix],
    window: Duration,
    rng: &mut StdRng,
    tracer: Option<&Tracer>,
    next_id: &mut u64,
) -> Vec<Outcome> {
    let start = Instant::now();
    let mut outcomes = Vec::new();
    while start.elapsed() < window {
        let i = rng.gen_range(0..POOL);
        *next_id += 1;
        let id = *next_id;
        let t0 = Instant::now();
        let out = with_context(id, CALL, || mha.forward_streamed(&inputs[i], TILE));
        let done = Instant::now();
        let dur = done - t0;
        if let Some(tracer) = tracer {
            tracer.record(Span {
                name: CALL,
                id,
                parent: None,
                start: tracer.at(t0),
                end: tracer.at(done),
                work: SCORES_PER_CALL as u64,
            });
        }
        outcomes.push(if same_matrix(&out, &truth[i]) {
            Outcome::Ok(dur, done)
        } else {
            Outcome::Mismatch
        });
    }
    outcomes
}

/// Runs the workload; with `traced`, also fills the per-layer metrics.
///
/// # Errors
///
/// A mismatch during warm-up, or when peak memory cannot be read.
pub fn run(seed: u64, seconds: f64, traced: bool, layers: &mut Layers) -> Result<Run, String> {
    let (mut setup, first_setup) = timed_setup(build)?;
    let inputs: Vec<Matrix> = (0..POOL as u64)
        .map(|i| {
            let x = softermax_serve::traffic::synthetic_matrix(
                SEQ,
                D_MODEL,
                INPUT_STD,
                derive_seed(seed, SEED_TAG, i),
            );
            Matrix::from_vec(SEQ, D_MODEL, x.into_iter().map(|v| v as f32).collect())
        })
        .collect();
    // Ground truth: the materialized forward pass on the same weights.
    let truth: Vec<Matrix> = inputs.iter().map(|x| setup.mha.forward(x)).collect();

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SEED_TAG + 1, 0));
    let mut ids = 0;
    let warm = window(
        &mut setup.mha,
        &inputs,
        &truth,
        WARMUP,
        &mut rng,
        None,
        &mut ids,
    );
    if warm.contains(&Outcome::Mismatch) {
        return Err("forward_streamed differs from forward during warm-up".to_string());
    }

    let measure = || -> Result<Vec<Outcome>, String> {
        if !traced {
            return Ok(window(
                &mut setup.mha,
                &inputs,
                &truth,
                Duration::from_secs_f64(seconds),
                &mut rng,
                None,
                &mut ids,
            ));
        }
        let tracer = Arc::new(Tracer::new());
        let plain_softmax: Arc<dyn AttentionSoftmax> =
            Arc::new(KernelSoftmax::from_kernel(Arc::clone(&setup.kernel)));
        let timed_softmax: Arc<dyn AttentionSoftmax> =
            Arc::new(KernelSoftmax::from_kernel(Arc::new(TimedKernel::new(
                Arc::clone(&setup.kernel),
                Arc::clone(&tracer),
            ))));
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for (is_traced, len) in trace_slices(seconds) {
            let (softmax, into) = if is_traced {
                (&timed_softmax, &mut traced)
            } else {
                (&plain_softmax, &mut plain)
            };
            setup.mha.set_softmax(Arc::clone(softmax));
            let t = is_traced.then_some(tracer.as_ref());
            into.extend(window(
                &mut setup.mha,
                &inputs,
                &truth,
                len,
                &mut rng,
                t,
                &mut ids,
            ));
        }
        per_layer(&tracer, layers);
        layers.overhead(&plain, &traced);
        layers.write_trace(&tracer)?;
        plain.append(&mut traced);
        Ok(plain)
    };
    let (outcomes, mut setup_times) = sampling_setups(seconds, build, measure)?;
    setup_times.push(first_setup);
    Ok(Run {
        setup_s: median(&setup_times),
        outcomes: outcomes?,
        scores_per_request: SCORES_PER_CALL as u64,
        slo: SLO,
        peak_rss_mb: peak_rss_mb("self")?,
    })
}

/// Per-layer metrics from the calls whose spans were all kept (the
/// tracer drops spans past its budget).
fn per_layer(tracer: &Tracer, layers: &mut Layers) {
    let spans = tracer.spans();
    let own = self_times(&spans);
    let kept: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == CALL)
        .map(|s| s.id)
        .collect();
    let mut call_ms = Vec::new();
    let (mut wall_ns, mut kernel_ns, mut elems, mut calls) = (0u64, 0u64, 0u64, 0u64);
    for (s, own) in spans.iter().zip(&own) {
        if s.name == CALL {
            call_ms.push(*own as f64 / 1e6);
            wall_ns += s.dur();
        } else if KERNEL_SPANS.contains(&s.name) && kept.contains(&s.id) {
            kernel_ns += own;
            elems += s.work;
            calls += 1;
        }
    }
    layers.set("transformer.self_ms", median(&call_ms));
    layers.set(
        "transformer.softmax_share",
        kernel_ns as f64 / wall_ns.max(1) as f64,
    );
    layers.set(
        "core.kernel_ns_per_elem",
        kernel_ns as f64 / elems.max(1) as f64,
    );
    layers.set("core.kernel_calls", calls as f64);
}
