//! Helpers every workload shares: seeds, percentiles, peak memory, the
//! per-request outcome record and the end-to-end metric set.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use softermax::kernel::{ScratchBuffers, SoftmaxKernel};

/// Set-ups a run times besides the one it uses, spread evenly through
/// its measured window; `setup_s` is the median of all of them.
pub const SETUP_SAMPLES: u32 = 40;

/// `fail_ratio` when nothing failed: below one failure in a million
/// requests, so a clean run reads as a small non-zero ratio and a single
/// failure in a run shows as a many-fold regression.
pub const FAIL_RATIO_FLOOR: f64 = 1e-6;

/// The latency quantile the end-to-end `p10_ms` reports. On a shared
/// 2-vCPU host whose speed swings about 2x for seconds at a time, a
/// run's latencies mix a fast and a slow state, and a quantile jumps
/// between them when the slow share of the run crosses it. The median
/// jumps when half the run is slow and the lower quartile when three
/// quarters are; the 10th percentile stays in the fast state unless
/// nine tenths of the run are slow.
pub const LATENCY_Q: f64 = 0.10;

/// Standard deviation of the synthetic score distribution (the serving
/// layer's calibrated attention-score range).
pub const SCORE_STD: f64 = 2.5;

/// A seed derived from the run's `--seed`, a stream tag and an index, so
/// every generator in a run is independent and reproducible.
#[must_use]
pub fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ tag.rotate_left(32)) ^ index)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator threads and connections: `want`, but at most the host's
/// core count.
#[must_use]
pub fn threads_for(want: usize) -> usize {
    want.min(nproc()).max(1)
}

/// Engine workers (shards x threads) at the server's default geometry,
/// which `remote-small` spawns and `local-bulk` builds in process.
#[must_use]
pub fn server_workers() -> f64 {
    let geometry = softermax_server::ServerConfig::default();
    (geometry.shards * geometry.threads) as f64
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Nearest-rank percentile of `values` (`q` in 0..=1); NaN when empty.
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Mean of `values`; 0 when empty.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
///
/// # Errors
///
/// When `/proc/<pid>/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Seconds elapsed since `t0`.
#[must_use]
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// How one attempted request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Bit-correct result after this latency, completed at this instant.
    Ok(Duration, Instant),
    /// Errored, refused or expired.
    Failed,
    /// Completed with output that differs from the ground truth.
    Mismatch,
}

/// Latencies in ms; a request that did not come back bit-correct is
/// +inf, so it misses every percentile limit.
#[must_use]
pub fn latencies_ms(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| match o {
            Outcome::Ok(d, _) => d.as_secs_f64() * 1e3,
            Outcome::Failed | Outcome::Mismatch => f64::INFINITY,
        })
        .collect()
}

/// Everything the end-to-end metrics are computed from.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// One entry per attempted request.
    pub outcomes: Vec<Outcome>,
    /// Softmax scores per request.
    pub scores_per_request: u64,
    /// The workload's fixed latency limit.
    pub slo: Duration,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
}

impl Run {
    /// Requests attempted.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests that errored, were refused or expired.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Failed))
    }

    /// Requests whose output was not bit-correct.
    #[must_use]
    pub fn mismatches(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Mismatch))
    }

    fn count(&self, f: impl Fn(&Outcome) -> bool) -> usize {
        self.outcomes.iter().filter(|o| f(o)).count()
    }

    /// Scores completed bit-correct per second, from the first
    /// completion to the last.
    #[must_use]
    pub fn elems_per_s(&self) -> f64 {
        let done: Vec<Instant> = self
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Ok(_, at) => Some(*at),
                _ => None,
            })
            .collect();
        let (Some(first), Some(last)) = (done.iter().min(), done.iter().max()) else {
            return 0.0;
        };
        // The first completion opens the span, so it is not counted.
        let completed = (done.len() - 1) as u64 * self.scores_per_request;
        completed as f64 / (*last - *first).as_secs_f64().max(1e-9)
    }

    /// The end-to-end metrics, as `(name, value, unit)`.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let lat = latencies_ms(&self.outcomes);
        let within = self.count(|o| matches!(o, Outcome::Ok(d, _) if *d <= self.slo));
        let attempted = self.attempted().max(1) as f64;
        vec![
            ("setup_s", self.setup_s, "s"),
            ("p10_ms", percentile(&lat, LATENCY_Q), "ms"),
            ("elems_per_s", self.elems_per_s(), "1/s"),
            ("slo_ok_ratio", within as f64 / attempted, "ratio"),
            (
                "fail_ratio",
                (self.failed() as f64 / attempted).max(FAIL_RATIO_FLOOR),
                "ratio",
            ),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Builds the set-up a run uses, timing it, in seconds.
///
/// # Errors
///
/// The set-up's error.
pub fn timed_setup<T, E>(build: impl FnOnce() -> Result<T, E>) -> Result<(T, f64), E> {
    let t0 = Instant::now();
    let built = build()?;
    Ok((built, secs_since(t0)))
}

/// Runs `body` while a thread of its own builds and drops a set-up
/// [`SETUP_SAMPLES`] times, spread evenly over `seconds`, and returns
/// `body`'s result with each set-up's time, in seconds. Set-ups timed
/// through the measured window see the same host states as it does, so
/// their median does not hang on one moment's host state.
///
/// # Errors
///
/// The first set-up error.
///
/// # Panics
///
/// If the sampling thread panics.
pub fn sampling_setups<T, E: Send, R>(
    seconds: f64,
    build: impl Fn() -> Result<T, E> + Sync,
    body: impl FnOnce() -> R,
) -> Result<(R, Vec<f64>), E> {
    let every = Duration::from_secs_f64(seconds / f64::from(SETUP_SAMPLES));
    let (stop, stopped) = mpsc::channel::<()>();
    let build = &build;
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut times = Vec::new();
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(every) {
                let (built, secs) = timed_setup(build)?;
                times.push(secs);
                drop(built);
            }
            Ok(times)
        });
        let out = body();
        drop(stop);
        let times = sampler.join().expect("set-up sampler panicked")?;
        Ok((out, times))
    })
}

/// Sequential `forward_into` over every row of `m`: the ground truth
/// every served output is compared with, computed before timing.
///
/// # Errors
///
/// When the kernel rejects a row.
pub fn ground_truth(
    kernel: &dyn SoftmaxKernel,
    m: &[f64],
    row_len: usize,
) -> Result<Vec<f64>, String> {
    let mut out = vec![0.0; m.len()];
    let mut scratch = ScratchBuffers::new();
    for (row, dst) in m.chunks_exact(row_len).zip(out.chunks_exact_mut(row_len)) {
        kernel
            .forward_into(row, dst, &mut scratch)
            .map_err(|e| format!("ground truth: {e}"))?;
    }
    Ok(out)
}

/// Length of each slice of a traced run.
const TRACE_SLICE_S: f64 = 2.5;

/// The slices of a traced run of `seconds`, as (traced, length): an even
/// number of equal slices, alternately untraced and traced in the order
/// U T T U, so both halves see the same host states and neither always
/// runs first.
#[must_use]
pub fn trace_slices(seconds: f64) -> Vec<(bool, Duration)> {
    let pairs = (seconds / (2.0 * TRACE_SLICE_S)).round().max(1.0) as usize;
    let len = Duration::from_secs_f64(seconds / (2 * pairs) as f64);
    (0..2 * pairs)
        .map(|i| (matches!(i % 4, 1 | 2), len))
        .collect()
}

/// `core.forward_into_ns_per_elem`: a direct single-thread
/// `forward_into` over every row of `matrices`, ns per score (median of
/// three passes).
///
/// # Panics
///
/// If the kernel rejects a row; callers pass rows their ground truth
/// already computed.
#[must_use]
pub fn forward_into_ns_per_elem(
    kernel: &dyn SoftmaxKernel,
    matrices: &[Vec<f64>],
    row_len: usize,
) -> f64 {
    let scores: usize = matrices.iter().map(Vec::len).sum();
    let mut out = vec![0.0; row_len];
    let mut scratch = ScratchBuffers::new();
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for row in matrices.iter().flat_map(|m| m.chunks_exact(row_len)) {
                kernel
                    .forward_into(std::hint::black_box(row), &mut out, &mut scratch)
                    .expect("rows were checked by the ground truth");
            }
            std::hint::black_box(&out);
            t0.elapsed().as_nanos() as f64 / scores as f64
        })
        .collect();
    median(&passes)
}

/// Bitwise equality of two result vectors (f64, or f32 widened exactly).
#[must_use]
pub fn same_bits<T: Copy + Into<f64>>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (*x).into().to_bits() == (*y).into().to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        let with_miss = [1.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&with_miss, 0.99), f64::INFINITY);
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 2, 4));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
        assert_ne!(derive_seed(1, 2, 3), derive_seed(1, 3, 3));
    }

    #[test]
    fn failures_count_against_attempts_and_latency() {
        let t = Instant::now();
        let run = Run {
            setup_s: 0.5,
            outcomes: vec![
                Outcome::Ok(Duration::from_millis(1), t),
                Outcome::Ok(Duration::from_millis(30), t + Duration::from_millis(1500)),
                Outcome::Failed,
            ],
            scores_per_request: 10,
            slo: Duration::from_millis(20),
            peak_rss_mb: 1.0,
        };
        let m: std::collections::HashMap<_, _> =
            run.metrics().into_iter().map(|(n, v, _)| (n, v)).collect();
        assert_eq!(m["p10_ms"], 1.0);
        // One more score-set completed 1.5 s after the first.
        assert_eq!(m["elems_per_s"], 10.0 / 1.5);
        assert_eq!(m["slo_ok_ratio"], 1.0 / 3.0);
        assert_eq!(m["fail_ratio"], 1.0 / 3.0);
        let clean = Run {
            outcomes: vec![Outcome::Ok(Duration::from_millis(1), t)],
            ..run
        };
        let m: std::collections::HashMap<_, _> = clean
            .metrics()
            .into_iter()
            .map(|(n, v, _)| (n, v))
            .collect();
        assert_eq!(m["fail_ratio"], FAIL_RATIO_FLOOR);
    }

    #[test]
    fn trace_slices_alternate_evenly() {
        let slices = trace_slices(30.0);
        assert_eq!(slices.len(), 12);
        let traced: Vec<bool> = slices.iter().map(|(t, _)| *t).collect();
        assert_eq!(&traced[..4], &[false, true, true, false]);
        assert_eq!(traced.iter().filter(|t| **t).count(), 6);
        let total: f64 = slices.iter().map(|(_, d)| d.as_secs_f64()).sum();
        assert!((total - 30.0).abs() < 1e-6);
        assert_eq!(trace_slices(1.0).len(), 2);
    }

    #[test]
    fn sampled_setups_span_the_body() {
        let (out, times) = sampling_setups(
            0.2,
            || Ok::<_, String>(vec![0u8; 16]),
            || {
                std::thread::sleep(Duration::from_millis(200));
                7
            },
        )
        .expect("set-ups");
        assert_eq!(out, 7);
        assert!(
            times.len() >= (SETUP_SAMPLES / 4) as usize,
            "{}",
            times.len()
        );
        let failed = sampling_setups(
            0.1,
            || Err::<(), _>("no".to_string()),
            || std::thread::sleep(Duration::from_millis(50)),
        );
        assert_eq!(failed.err().as_deref(), Some("no"));
    }
}
