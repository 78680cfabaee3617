//! Determinism of the serving layer: [`BatchEngine`] output is
//! **bit-identical** to sequential row-at-a-time execution for every
//! registered kernel at thread counts {1, 2, 4, 8}, over arbitrary matrix
//! shapes — including the empty matrix and single-row matrices.
//!
//! Chunking is forced down to 2 rows so even small sampled matrices fan
//! out across several chunks and the shared-queue scheduler actually
//! interleaves workers.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use softermax::kernel::ScratchBuffers;
use softermax::KernelRegistry;
use softermax_serve::{BatchEngine, ServeConfig};

/// Thread counts the determinism contract is held at.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Largest sampled matrix: `MAX_ROWS x MAX_LEN` elements are drawn once
/// and sliced to the sampled shape.
const MAX_ROWS: usize = 9;
const MAX_LEN: usize = 24;

/// One long-lived engine per thread count (worker pools are built once,
/// not per proptest case).
fn engines() -> &'static [BatchEngine] {
    static ENGINES: OnceLock<Vec<BatchEngine>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        THREAD_COUNTS
            .iter()
            .map(|&t| {
                BatchEngine::new(ServeConfig::new(t).with_chunk_rows(2)).expect("valid config")
            })
            .collect()
    })
}

/// Sequential ground truth: the kernel's row-at-a-time `forward_into`.
fn sequential(kernel: &dyn softermax::SoftmaxKernel, matrix: &[f64], row_len: usize) -> Vec<f64> {
    let mut out = vec![0.0; matrix.len()];
    let mut scratch = ScratchBuffers::default();
    for (row, out_row) in matrix
        .chunks_exact(row_len)
        .zip(out.chunks_exact_mut(row_len))
    {
        kernel
            .forward_into(row, out_row, &mut scratch)
            .expect("non-empty row");
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Engine output is bit-identical to sequential execution for all 8
    /// registered kernels at every thread count, over arbitrary shapes
    /// (rows may be 0: the empty matrix, or 1: a single row).
    #[test]
    fn engine_is_bit_identical_to_sequential(
        values in vec(-20.0f64..20.0, MAX_ROWS * MAX_LEN..MAX_ROWS * MAX_LEN + 1),
        n_rows in 0usize..MAX_ROWS + 1,
        row_len in 1usize..MAX_LEN + 1,
    ) {
        let matrix = &values[..n_rows * row_len];
        for kernel in &KernelRegistry::with_builtins() {
            let want = sequential(kernel.as_ref(), matrix, row_len);
            for engine in engines() {
                let got = engine
                    .forward_matrix(kernel, matrix, row_len)
                    .expect("valid matrix");
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} diverged at {} thread(s), {}x{}",
                    kernel.name(),
                    engine.config().threads,
                    n_rows,
                    row_len
                );
            }
        }
    }

    /// The chunked-streaming dispatch (one `StreamSession` per worker per
    /// job) is bit-identical to sequential execution for all 8 kernels at
    /// every thread count and arbitrary push-chunk sizes.
    #[test]
    fn streamed_engine_is_bit_identical_to_sequential(
        values in vec(-20.0f64..20.0, MAX_ROWS * MAX_LEN..MAX_ROWS * MAX_LEN + 1),
        n_rows in 0usize..MAX_ROWS + 1,
        row_len in 1usize..MAX_LEN + 1,
        chunk in 1usize..MAX_LEN + 2,
    ) {
        let matrix = &values[..n_rows * row_len];
        for kernel in &KernelRegistry::with_builtins() {
            let want = sequential(kernel.as_ref(), matrix, row_len);
            for engine in engines() {
                let got = engine
                    .forward_matrix_streamed(kernel, matrix, row_len, chunk)
                    .expect("valid matrix");
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{} streamed diverged at {} thread(s), {}x{} chunk {}",
                    kernel.name(),
                    engine.config().threads,
                    n_rows,
                    row_len,
                    chunk
                );
            }
        }
    }
}

#[test]
fn registry_has_all_eight_kernels_under_test() {
    assert_eq!(KernelRegistry::with_builtins().len(), 8);
}

#[test]
fn empty_and_single_row_matrices_at_every_thread_count() {
    for kernel in &KernelRegistry::with_builtins() {
        for engine in engines() {
            // Empty matrix: no rows, nothing to do, no error.
            assert_eq!(
                engine.forward_matrix(kernel, &[], 7).expect("empty matrix"),
                Vec::<f64>::new(),
                "{} empty matrix",
                kernel.name()
            );
            // Single row: one chunk, most workers idle, still identical.
            let row = [1.5, -2.25, 0.5, 3.0, 2.75];
            let got = engine.forward_matrix(kernel, &row, 5).expect("one row");
            assert_eq!(
                bits(&got),
                bits(&kernel.forward(&row).expect("one row")),
                "{} single row at {} thread(s)",
                kernel.name(),
                engine.config().threads
            );
        }
    }
}

#[test]
fn default_paper_chunk_geometry_is_also_deterministic() {
    // The proptest engines force tiny chunks; cross-check the default
    // (32-row PE-derived) geometry on a matrix larger than one chunk:
    // 100 rows are four chunks with a short last one, so the output is
    // reassembled from several slabs on both engine paths.
    let engine = BatchEngine::with_threads(4).expect("valid config");
    assert!(engine.config().work_stealing);
    let matrix = softermax_serve::traffic::synthetic_matrix(100, 48, 2.5, 9);
    let mut out = vec![0.0; matrix.len()];
    for kernel in &KernelRegistry::with_builtins() {
        let name = kernel.name();
        let want = bits(&sequential(kernel.as_ref(), &matrix, 48));
        let got = engine.forward_matrix(kernel, &matrix, 48).expect("valid");
        assert_eq!(bits(&got), want, "{name}");
        engine
            .forward_matrix_into(kernel, &matrix, 48, &mut out)
            .expect("valid");
        assert_eq!(bits(&out), want, "{name} into");
        engine
            .forward_matrix_streamed_into(kernel, &matrix, 48, 5, &mut out)
            .expect("valid");
        assert_eq!(bits(&out), want, "{name} streamed");
    }
}
