//! A timing decorator for [`SoftmaxKernel`], modelled on
//! `softermax_serve::FaultyKernel`: every `forward_into` and
//! `forward_batch_into` call, and every `push_chunk` / `finish_into` of
//! its stream sessions, is recorded as a
//! `core.*` span on a [`Tracer`]. Outputs come from the wrapped kernel
//! untouched, so they stay bit-identical to the bare kernel's.

use std::sync::Arc;

use softermax::kernel::{
    BatchScratch, KernelDescriptor, ScratchBuffers, SoftmaxKernel, StreamSession,
};
use softermax::SoftmaxError;

use crate::trace::Tracer;

/// Span names the decorator records.
pub const KERNEL_SPANS: [&str; 4] = [
    "core.forward_into",
    "core.batch",
    "core.push",
    "core.finish",
];

/// A kernel whose calls are timed into a [`Tracer`].
pub struct TimedKernel {
    inner: Arc<dyn SoftmaxKernel>,
    tracer: Arc<Tracer>,
}

impl TimedKernel {
    /// Wraps `inner`, recording spans on `tracer`.
    #[must_use]
    pub fn new(inner: Arc<dyn SoftmaxKernel>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl std::fmt::Debug for TimedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedKernel")
            .field("kernel", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl SoftmaxKernel for TimedKernel {
    fn descriptor(&self) -> &KernelDescriptor {
        // The inner descriptor, so serving stats group under the real
        // kernel's name.
        self.inner.descriptor()
    }

    fn forward(&self, row: &[f64]) -> Result<Vec<f64>, SoftmaxError> {
        // Untimed: serving, attention and the benchmark's ground truth
        // reach the kernel through the entry points below.
        self.inner.forward(row)
    }

    fn forward_into(
        &self,
        row: &[f64],
        out: &mut [f64],
        scratch: &mut ScratchBuffers,
    ) -> Result<(), SoftmaxError> {
        let t0 = self.tracer.now();
        let result = self.inner.forward_into(row, out, scratch);
        self.tracer
            .record_in_context("core.forward_into", t0, row.len() as u64);
        result
    }

    fn forward_batch_into(
        &self,
        rows: &[f64],
        row_len: usize,
        out: &mut [f64],
        scratch: &mut BatchScratch,
    ) -> Result<(), SoftmaxError> {
        let t0 = self.tracer.now();
        let result = self.inner.forward_batch_into(rows, row_len, out, scratch);
        self.tracer
            .record_in_context("core.batch", t0, rows.len() as u64);
        result
    }

    fn stream_session(&self) -> Box<dyn StreamSession + '_> {
        Box::new(TimedSession {
            inner: self.inner.stream_session(),
            tracer: &self.tracer,
        })
    }
}

/// The decorator's stream session: times the wrapped session's pushes
/// and finishes.
struct TimedSession<'k> {
    inner: Box<dyn StreamSession + 'k>,
    tracer: &'k Tracer,
}

impl std::fmt::Debug for TimedSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedSession")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

impl StreamSession for TimedSession<'_> {
    fn reset(&mut self, row_hint: usize) {
        self.inner.reset(row_hint);
    }

    fn push_chunk(&mut self, chunk: &[f64]) {
        let t0 = self.tracer.now();
        self.inner.push_chunk(chunk);
        self.tracer
            .record_in_context("core.push", t0, chunk.len() as u64);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn finish_into(&mut self, out: &mut [f64]) -> Result<(), SoftmaxError> {
        let t0 = self.tracer.now();
        let result = self.inner.finish_into(out);
        // The scores were counted as they were pushed.
        self.tracer.record_in_context("core.finish", t0, 0);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softermax::kernel::SoftermaxFixedKernel;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn outputs_through_the_wrapper_are_bit_identical_to_the_bare_kernel() {
        let bare: Arc<dyn SoftmaxKernel> = Arc::new(SoftermaxFixedKernel::paper());
        let tracer = Arc::new(Tracer::new());
        let timed = TimedKernel::new(Arc::clone(&bare), Arc::clone(&tracer));
        let (rows, len) = (5, 200);
        let m = softermax_serve::traffic::synthetic_matrix(rows, len, 2.5, 91);

        let mut want = vec![0.0; m.len()];
        let mut scratch = ScratchBuffers::new();
        for (row, out) in m.chunks_exact(len).zip(want.chunks_exact_mut(len)) {
            bare.forward_into(row, out, &mut scratch).expect("row");
        }

        assert_eq!(
            bits(&timed.forward(&m[..len]).expect("row")),
            bits(&want[..len])
        );

        let mut got = vec![0.0; len];
        timed
            .forward_into(&m[..len], &mut got, &mut ScratchBuffers::new())
            .expect("row");
        assert_eq!(bits(&got), bits(&want[..len]));

        let mut got = vec![0.0; m.len()];
        timed
            .forward_batch_into(&m, len, &mut got, &mut BatchScratch::new())
            .expect("batch");
        assert_eq!(bits(&got), bits(&want));

        // An uneven chunking exercises slice boundaries mid-chunk.
        let mut session = timed.stream_session();
        for (row, want_row) in m.chunks_exact(len).zip(want.chunks_exact(len)) {
            session.reset(len);
            for chunk in row.chunks(37) {
                session.push_chunk(chunk);
            }
            assert_eq!(session.len(), len);
            let mut got = vec![0.0; len];
            session.finish_into(&mut got).expect("row");
            assert_eq!(bits(&got), bits(want_row));
        }
        drop(session);

        let spans = tracer.spans();
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count("core.forward_into"), 1);
        assert_eq!(count("core.batch"), 1);
        assert_eq!(count("core.push"), rows * len.div_ceil(37));
        assert_eq!(count("core.finish"), rows);
        let pushed: u64 = spans
            .iter()
            .filter(|s| s.name == "core.push")
            .map(|s| s.work)
            .sum();
        assert_eq!(pushed, (rows * len) as u64);
        assert_eq!(timed.name(), bare.name());
    }
}
