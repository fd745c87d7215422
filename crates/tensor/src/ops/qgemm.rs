//! Integer GEMM entry point for the quantized inference path:
//! `i8 × i8 → i32` accumulation, routed through the kernel selector.
//!
//! The actual kernel — scalar triple loop, packed autovectorized body, or
//! the hand-written AVX2 `maddubs` kernel — is chosen per call by
//! [`crate::kernels::select_i8`] and can be forced process-wide with
//! `BDLFI_KERNEL=scalar|autovec|avx2`. Integer accumulation is exact, so
//! every variant is bit-identical at every block size, batch composition
//! and worker count by construction — the determinism the
//! fault-evaluation engine requires comes for free on the int8 path (see
//! `crate::kernels::qgemm_i8` for the saturation-safety argument).
//!
//! Operands are row-major (`a` is `m × k`, `b` is `k × n`); quantized
//! weights are packed row-major by the calibrator, so the strided-operand
//! generality of the f32 kernel is not needed here.

use crate::kernels::{self, qgemm_i8};

pub use crate::kernels::qgemm_i8::K_MAX;

/// Computes `C += A · B` where `A` is row-major `m × k` int8, `B` is
/// row-major `k × n` int8 and `C` is row-major `m × n` int32.
///
/// The result is **accumulated** into `c`; callers wanting a plain product
/// must pass a zeroed buffer.
///
/// # Panics
///
/// Panics if a slice is shorter than its dimensions require, or if
/// `k > `[`K_MAX`] (the i32 accumulator headroom bound shared by every
/// kernel variant).
pub fn qgemm(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(
        k <= K_MAX,
        "qgemm: k = {k} exceeds i32 accumulation headroom (K_MAX = {K_MAX})"
    );
    assert!(a.len() >= m * k, "qgemm: a shorter than m*k");
    assert!(b.len() >= k * n, "qgemm: b shorter than k*n");
    assert!(c.len() >= m * n, "qgemm: c shorter than m*n");
    qgemm_i8::run(kernels::select_i8(m, n, k), m, n, k, a, b, c);
}

/// Scalar triple-loop oracle for [`qgemm`] — the reference kernel the
/// unit tests compare every selected variant against. Integer arithmetic
/// makes the comparison exact, not approximate.
#[cfg(test)]
pub(crate) fn qgemm_reference(m: usize, n: usize, k: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for i in 0..m {
        for j in 0..n {
            let mut s = 0i32;
            for l in 0..k {
                s += i32::from(a[i * k + l]) * i32::from(b[l * n + j]);
            }
            c[i * n + j] += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, salt: u32) -> Vec<i8> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 255) as i64 as i8
            })
            .collect()
    }

    fn check(m: usize, n: usize, k: usize) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut got = vec![0i32; m * n];
        let mut want = vec![0i32; m * n];
        qgemm(m, n, k, &a, &b, &mut got);
        qgemm_reference(m, n, k, &a, &b, &mut want);
        assert_eq!(got, want, "({m}x{n}x{k}) selected != reference");
    }

    #[test]
    fn matches_reference_exactly_across_block_boundaries() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 16, 8),
            (5, 17, 9),
            (63, 15, 31),
            (64, 16, 64),
            (65, 17, 65),
            (130, 70, 257),
            (7, 300, 300),
        ] {
            check(m, n, k);
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a: Vec<i8> = vec![1, 2, 3, 4];
        let b: Vec<i8> = vec![1, 0, 0, 1];
        let mut c = vec![10, 20, 30, 40];
        qgemm(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![11, 22, 33, 44]);
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let mut c = vec![7i32; 4];
        qgemm(0, 2, 3, &[], &[0; 6], &mut c);
        qgemm(2, 2, 0, &[], &[], &mut c);
        assert_eq!(c, vec![7; 4]);
    }

    #[test]
    fn extreme_values_do_not_overflow_per_product() {
        // (-128) * (-128) * k at k = 256 stays well inside i32 — and, on
        // the maddubs path, inside every i16 lane (one product per lane).
        let a = vec![i8::MIN; 4 * 256];
        let b = vec![i8::MIN; 256 * 4];
        let mut c = vec![0i32; 16];
        qgemm(4, 4, 256, &a, &b, &mut c);
        assert!(c.iter().all(|&v| v == 128 * 128 * 256));
    }

    #[test]
    fn rows_do_not_depend_on_batch_composition() {
        // The m=1 sub-call classifies as Gemv (scalar kernel) while the
        // whole batch runs a packed kernel — exactness makes them agree.
        let (m, n, k) = (37, 45, 53);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut whole = vec![0i32; m * n];
        qgemm(m, n, k, &a, &b, &mut whole);
        for i in [0usize, 1, 17, 36] {
            let mut row = vec![0i32; n];
            qgemm(1, n, k, &a[i * k..], &b, &mut row);
            assert_eq!(&whole[i * n..(i + 1) * n], &row[..], "row {i} differs");
        }
    }
}
