//! Criterion throughput benches for the software softmax kernels, driven
//! entirely by the [`softermax::kernel::KernelRegistry`]: every
//! registered backend is benchmarked across the sequence lengths the
//! paper sweeps, so new backends show up here with no bench changes.
//! These quantify the *software-model* cost; the hardware energy/area
//! story lives in the `table4`/`fig5` harness binaries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use softermax::kernel::{ScratchBuffers, SoftermaxFixedKernel};
use softermax::{SoftermaxConfig, SoftmaxKernel};
use softermax_bench::{attention_scores, registry};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("softmax_row");
    let registry = registry();
    for &len in &[64usize, 384, 2048] {
        let row = attention_scores(len, 2.5, 42);
        group.throughput(Throughput::Elements(len as u64));
        for kernel in &registry {
            group.bench_with_input(BenchmarkId::new(kernel.name(), len), &row, |b, r| {
                b.iter(|| kernel.forward(r).expect("non-empty"));
            });
        }
    }
    group.finish();
}

fn bench_kernels_vectorized(c: &mut Criterion) {
    // The allocation-free forward_into path, per kernel; the dedicated
    // scalar-vs-fused comparison (with JSON output) is
    // `throughput --roofline`.
    let mut group = c.benchmark_group("softmax_row_into");
    let registry = registry();
    for &len in &[64usize, 384, 2048] {
        let row = attention_scores(len, 2.5, 42);
        group.throughput(Throughput::Elements(len as u64));
        for kernel in &registry {
            let mut scratch = ScratchBuffers::default();
            let mut probs = vec![0.0f64; len];
            group.bench_with_input(BenchmarkId::new(kernel.name(), len), &row, |b, r| {
                b.iter(|| {
                    kernel
                        .forward_into(r, &mut probs, &mut scratch)
                        .expect("non-empty");
                });
            });
        }
    }
    group.finish();
}

fn bench_slice_widths(c: &mut Criterion) {
    let mut group = c.benchmark_group("softermax_slice_width");
    let row = attention_scores(384, 2.5, 43);
    for &w in &[8usize, 16, 32] {
        let kernel = SoftermaxFixedKernel::with_config(
            SoftermaxConfig::builder()
                .slice_width(w)
                .build()
                .expect("valid config"),
        );
        group.bench_with_input(BenchmarkId::from_parameter(w), &row, |b, r| {
            b.iter(|| kernel.forward(r).expect("non-empty"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_kernels_vectorized,
    bench_slice_widths
);
criterion_main!(benches);
