//! Criterion micro-benchmarks for the tensor substrate: the kernels that
//! dominate campaign cost (matmul, conv2d, softmax). These quantify the
//! paper's point that BDLFI campaigns are pure inference and therefore
//! accelerate with the platform's inference throughput.

use bdlfi_tensor::{conv2d, Conv2dSpec, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 64, 128] {
        let a = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_tn(&b)));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_nt(&b)));
        });
    }
    group.finish();
}

/// The retired naive `i-k-j` matmul loop — the baseline the blocked kernel
/// is compared against below.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
    let (a, b) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let c_row = &mut out[i * n..(i + 1) * n];
        for (l, &a_il) in a[i * k..(i + 1) * k].iter().enumerate() {
            if a_il == 0.0 {
                continue;
            }
            for (c, &bv) in c_row.iter_mut().zip(&b[l * n..(l + 1) * n]) {
                *c += a_il * bv;
            }
        }
    }
    Tensor::from_vec(out, [m, n])
}

/// Blocked kernel vs. the retired naive loops at 256³ — the headline
/// comparison for the cache-blocked, register-tiled rewrite.
fn bench_matmul_blocked_vs_naive(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 256usize;
    let a = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_normal([n, n], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("matmul_256");
    group.throughput(Throughput::Elements((2 * n * n * n) as u64));
    group.bench_function("blocked", |bench| {
        bench.iter(|| black_box(a.matmul(&b)));
    });
    group.bench_function("naive", |bench| {
        bench.iter(|| black_box(naive_matmul(&a, &b)));
    });
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("conv2d");
    for &(ch, size) in &[(8usize, 32usize), (16, 16), (32, 8)] {
        let x = Tensor::rand_normal([1, ch, size, size], 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal([ch, ch, 3, 3], 0.0, 0.1, &mut rng);
        let spec = Conv2dSpec::new(3).with_padding(1);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{ch}c_{size}px")),
            &ch,
            |bench, _| {
                bench.iter(|| black_box(conv2d(&x, &w, None, spec)));
            },
        );
    }
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let logits = Tensor::rand_normal([256, 10], 0.0, 3.0, &mut rng);
    c.bench_function("softmax_rows_256x10", |b| {
        b.iter(|| black_box(logits.softmax_rows()));
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_blocked_vs_naive,
    bench_conv2d,
    bench_softmax
);
criterion_main!(benches);
