//! Strided f32 GEMM entry point, routed through the kernel selector.
//!
//! One interface covers `A·B`, `Aᵀ·B` and `A·Bᵀ`: operands are described
//! by `(row_stride, col_stride)` pairs, so a transpose is just a swapped
//! stride pair and never materialised. The actual kernel — scalar,
//! autovectorized or AVX2 intrinsics, with shape-tuned cache blocking —
//! is chosen per call by [`crate::kernels::select_f32`] and can be forced
//! process-wide with `BDLFI_KERNEL=scalar|autovec|avx2`.
//!
//! Determinism matters here: all variants reduce each output element in
//! one fixed order (`k` blocks of `kernels::KC` ascending, elements
//! ascending within a block) that depends only on `k`, never on the
//! values, the chosen variant, or which rows share a call. Row `i` of `C`
//! is a function of row `i` of `A` and of `B` alone, so per-example
//! logits are bit-identical whether a batch is computed whole, split,
//! resumed from a cached prefix activation, or run under a different
//! `BDLFI_KERNEL` — the property the incremental-inference engine in
//! `bdlfi-nn` and the sparse-delta path rely on.

use crate::kernels::{self, gemm_f32};

/// Computes `C += A' · B'` where `A'` is `m × k`, `B'` is `k × n` and `C`
/// is row-major `m × n`.
///
/// `A'(i, l) = a[i * a_rs + l * a_cs]` and `B'(l, j) = b[l * b_rs + j * b_cs]`,
/// so passing `(k, 1)` describes a row-major operand and `(1, rows)` its
/// transpose. The result is **accumulated** into `c`; callers wanting a
/// plain product must pass a zeroed buffer.
///
/// # Panics
///
/// Panics (via slice indexing) if the strides describe reads outside `a`
/// or `b`, or if `c` is shorter than `m * n`.
#[allow(clippy::too_many_arguments)] // BLAS-style interface: dims + strided operands
pub(crate) fn gemm_strided(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_str: (usize, usize),
    b: &[f32],
    b_str: (usize, usize),
    c: &mut [f32],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_f32::run(kernels::select_f32(m, n, k), m, n, k, a, a_str, b, b_str, c);
}

/// Computes `C += A · B` over row-major slices: `a` is `m × k`, `b` is
/// `k × n` and `c` is `m × n` — the f32 twin of [`crate::qgemm`], for
/// callers that keep their operands in [`crate::scratch`] buffers rather
/// than in tensors. Bit-identical to the same rows and columns of
/// [`crate::Tensor::matmul`].
///
/// # Panics
///
/// Panics if a slice is shorter than its dimensions require.
pub fn gemm(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm: a shorter than m*k");
    assert!(b.len() >= k * n, "gemm: b shorter than k*n");
    assert!(c.len() >= m * n, "gemm: c shorter than m*n");
    gemm_strided(m, n, k, a, (k, 1), b, (n, 1), c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm_f32::gemm_f32_reference;

    fn fill(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (x % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    fn check(m: usize, n: usize, k: usize) {
        let a = fill(m * k, 1);
        let b = fill(k * n, 2);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &a, (k, 1), &b, (n, 1), &mut got);
        gemm_f32_reference(m, n, k, &a, (k, 1), &b, (n, 1), &mut want);
        let tol = 1e-4 * k as f32;
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= tol,
                "({m}x{n}x{k}) element {i}: selected {g} vs reference {w}"
            );
        }
    }

    #[test]
    fn matches_reference_across_block_boundaries() {
        // Sizes straddling every tile boundary (MR=4, NR=16, MC=64,
        // NC/KC=256) and every selector shape class.
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
    fn transposed_strides_match_reference() {
        let (m, n, k) = (33, 29, 70);
        // A stored (k, m) column-major-for-A'; B stored (n, k).
        let a = fill(k * m, 3);
        let b = fill(n * k, 4);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &a, (1, m), &b, (1, k), &mut got);
        gemm_f32_reference(m, n, k, &a, (1, m), &b, (1, k), &mut want);
        for (&g, &w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-2, "{g} vs {w}");
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 0.0, 0.0, 1.0];
        let mut c = vec![10.0, 20.0, 30.0, 40.0];
        gemm_strided(2, 2, 2, &a, (2, 1), &b, (2, 1), &mut c);
        assert_eq!(c, vec![11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let mut c = vec![7.0f32; 4];
        gemm_strided(0, 2, 3, &[], (3, 1), &[0.0; 6], (2, 1), &mut c);
        gemm_strided(2, 2, 0, &[], (0, 1), &[], (2, 1), &mut c);
        assert_eq!(c, vec![7.0; 4]);
    }

    #[test]
    fn results_do_not_depend_on_batch_composition() {
        // Row i of C must be identical whether computed as part of a large
        // batch or alone — the bitwise guarantee incremental inference
        // needs. This is stronger than it looks under the selector: the
        // m=1 sub-call classifies as Gemv (scalar kernel) while the whole
        // batch runs the packed kernel, so this test also pins the
        // cross-variant bit-identity contract at the public boundary.
        let (m, n, k) = (37, 45, 53);
        let a = fill(m * k, 5);
        let b = fill(k * n, 6);
        let mut whole = vec![0.0f32; m * n];
        gemm_strided(m, n, k, &a, (k, 1), &b, (n, 1), &mut whole);
        for i in [0usize, 1, 17, 36] {
            let mut row = vec![0.0f32; n];
            gemm_strided(1, n, k, &a[i * k..], (k, 1), &b, (n, 1), &mut row);
            assert_eq!(&whole[i * n..(i + 1) * n], &row[..], "row {i} differs");
        }
    }
}
