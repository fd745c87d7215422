//! Criterion micro-benchmarks for the tensor substrate: the kernels that
//! dominate campaign cost (matmul, conv2d, softmax, and the int8 steps of
//! the paper's MLP). These quantify the paper's point that BDLFI
//! campaigns are pure inference and therefore accelerate with the
//! platform's inference throughput.

use bdlfi_quant::{requant_rows, QParams, Requant};
use bdlfi_tensor::{conv2d, gemm, qgemm, Conv2dSpec, Tensor};
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

/// The int8 and f32 kernels of one evaluation of the paper's 2→32→3 MLP,
/// at its shapes: the 300-row eval set and 64-row batches through both
/// layers, and the ≤ 3-column recomputes of the sparse-delta path. The
/// int8 ≥ f32 contract (DESIGN §15) reads as `qgemm` plus `quantize` and
/// `requant` at one shape against `gemm` at the same shape. `C` is not
/// reset between iterations: both GEMMs accumulate.
fn bench_mlp_int8_vs_f32(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("mlp_int8_vs_f32");
    let shapes = [
        (300usize, 3usize, 32usize),
        (300, 32, 2),
        (300, 3, 2),
        (64, 3, 32),
        (64, 32, 2),
    ];
    for (m, n, k) in shapes {
        let id = format!("{m}x{n}x{k}");
        let a = Tensor::rand_normal([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal([k, n], 0.0, 1.0, &mut rng);
        let mut cf = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new("gemm", &id), &id, |bench, _| {
            bench.iter(|| gemm(m, n, k, a.data(), b.data(), black_box(&mut cf)));
        });
        let qa: Vec<i8> = a.data().iter().map(|&x| (x * 40.0) as i8).collect();
        let qb: Vec<i8> = b.data().iter().map(|&x| (x * 40.0) as i8).collect();
        let mut ci = vec![0i32; m * n];
        group.bench_with_input(BenchmarkId::new("qgemm", &id), &id, |bench, _| {
            bench.iter(|| qgemm(m, n, k, &qa, &qb, black_box(&mut ci)));
        });
    }
    let x = Tensor::rand_normal([300, 32], 0.5, 1.5, &mut rng);
    let qp = QParams::from_range(-3.0, 6.0);
    let mut qx = vec![0i8; x.len()];
    group.bench_function("quantize/300x32", |bench| {
        bench.iter(|| qp.quantize_slice_to(x.data(), black_box(&mut qx)));
    });
    for width in [32usize, 3] {
        let acc: Vec<i32> = x.data()[..300 * width]
            .iter()
            .map(|&v| (v * 3000.0) as i32)
            .collect();
        let rqs: Vec<Requant> = (0..width)
            .map(|j| Requant::from_scales(0.035, 0.004 + j as f32 * 1e-4, 0.05))
            .collect();
        let corrs: Vec<i64> = (0..width as i64).map(|j| 40 - 7 * j).collect();
        let mut y = vec![0.0f32; acc.len()];
        group.bench_function(format!("requant/300x{width}"), |bench| {
            bench.iter(|| requant_rows(&acc, width, &rqs, &corrs, -20, 0.05, black_box(&mut y)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_blocked_vs_naive,
    bench_conv2d,
    bench_softmax,
    bench_mlp_int8_vs_f32
);
criterion_main!(benches);
