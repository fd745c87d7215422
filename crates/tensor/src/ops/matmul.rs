//! Matrix multiplication kernels.
//!
//! Three variants cover everything the training and inference paths need
//! without materialising transposes:
//!
//! * [`Tensor::matmul`] — `C = A · B`
//! * [`Tensor::matmul_tn`] — `C = Aᵀ · B` (used for weight gradients)
//! * [`Tensor::matmul_nt`] — `C = A · Bᵀ` (used for input gradients)
//!
//! All three are thin shims over one cache-blocked, register-tiled kernel
//! ([`super::gemm`]): a transpose is expressed as a swapped stride pair, so
//! the packed micro-panels and the `MR × NR` register tile are shared. That
//! keeps fault-injection campaigns (thousands of full network inferences)
//! tractable on CPU — the paper's point that BDLFI needs only fast
//! *inference*, not debugger hooks.
//!
//! The tests check all three against the f64 reference oracle
//! (`kernels::gemm_f32::gemm_f32_reference`), whose strides express the
//! transposed forms the same way.

use crate::ops::gemm::gemm_strided;
use crate::tensor::Tensor;

impl Tensor {
    /// Matrix product `self · rhs` for rank-2 tensors `(m, k) · (k, n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul: lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul: rhs must be rank 2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul: inner dimensions differ ({k} vs {k2})");

        let mut out = vec![0.0f32; m * n];
        gemm_strided(m, n, k, self.data(), (k, 1), rhs.data(), (n, 1), &mut out);
        Tensor::from_vec(out, [m, n])
    }

    /// Matrix product `selfᵀ · rhs` for rank-2 tensors `(k, m)ᵀ · (k, n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the leading dimensions
    /// differ.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_tn: lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul_tn: rhs must be rank 2");
        let (k, m) = (self.dim(0), self.dim(1));
        let (k2, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul_tn: leading dimensions differ ({k} vs {k2})");

        let mut out = vec![0.0f32; m * n];
        // Aᵀ: walking a row of the product walks a column of the stored
        // (k, m) operand, hence the (1, m) stride pair.
        gemm_strided(m, n, k, self.data(), (1, m), rhs.data(), (n, 1), &mut out);
        Tensor::from_vec(out, [m, n])
    }

    /// Matrix product `self · rhsᵀ` for rank-2 tensors `(m, k) · (n, k)ᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the trailing dimensions
    /// differ.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul_nt: lhs must be rank 2");
        assert_eq!(rhs.rank(), 2, "matmul_nt: rhs must be rank 2");
        let (m, k) = (self.dim(0), self.dim(1));
        let (n, k2) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, k2, "matmul_nt: trailing dimensions differ ({k} vs {k2})");

        let mut out = vec![0.0f32; m * n];
        // Bᵀ: element (l, j) of the logical operand lives at b[j * k + l].
        gemm_strided(m, n, k, self.data(), (k, 1), rhs.data(), (1, k), &mut out);
        Tensor::from_vec(out, [m, n])
    }

    /// Matrix-vector product `self · v` for a rank-2 `(m, k)` tensor and a
    /// rank-1 length-`k` vector, returning a length-`m` vector.
    ///
    /// Stays a plain row-dot loop: with a single output column there is
    /// nothing for the blocked kernel's packing to amortise.
    ///
    /// # Panics
    ///
    /// Panics on rank or dimension mismatch.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matvec: lhs must be rank 2");
        assert_eq!(v.rank(), 1, "matvec: rhs must be rank 1");
        let (m, k) = (self.dim(0), self.dim(1));
        assert_eq!(k, v.dim(0), "matvec: dimensions differ");
        let a = self.data();
        let x = v.data();
        let mut out = Vec::with_capacity(m);
        for i in 0..m {
            let row = &a[i * k..(i + 1) * k];
            out.push(row.iter().zip(x.iter()).map(|(&p, &q)| p * q).sum());
        }
        Tensor::from_vec(out, [m])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2d requires a rank-2 tensor");
        let (m, n) = (self.dim(0), self.dim(1));
        let a = self.data();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, [n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::gemm_f32::gemm_f32_reference;
    use proptest::prelude::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn([4, 4], |i| (i[0] * 4 + i[1]) as f32);
        assert!(a.matmul(&Tensor::eye(4)).approx_eq(&a, 1e-6));
        assert!(Tensor::eye(4).matmul(&a).approx_eq(&a, 1e-6));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_panics_on_dim_mismatch() {
        Tensor::zeros([2, 3]).matmul(&Tensor::zeros([2, 3]));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Tensor::from_fn([3, 4], |i| (i[0] + 2 * i[1]) as f32);
        let v = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5], [4]);
        let via_matmul = a.matmul(&v.reshape([4, 1]));
        let direct = a.matvec(&v);
        assert!(direct.reshape([3, 1]).approx_eq(&via_matmul, 1e-5));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_fn([3, 5], |i| (i[0] * 5 + i[1]) as f32);
        assert_eq!(a.transpose2d().transpose2d(), a);
        assert_eq!(a.transpose2d().at(&[4, 2]), a.at(&[2, 4]));
    }

    /// `A' · B'` by the f64 reference oracle, each operand read through
    /// its `(row, column)` strides.
    fn reference(
        (m, n, k): (usize, usize, usize),
        a: &Tensor,
        a_str: (usize, usize),
        b: &Tensor,
        b_str: (usize, usize),
    ) -> Tensor {
        let mut c = vec![0.0f32; m * n];
        gemm_f32_reference(m, n, k, a.data(), a_str, b.data(), b_str, &mut c);
        Tensor::from_vec(c, [m, n])
    }

    fn pseudo_random(dims: [usize; 2], salt: usize) -> Tensor {
        Tensor::from_fn(dims, |i| {
            let x = (i[0] * 131 + i[1] * 17 + salt * 7919) % 1999;
            x as f32 / 500.0 - 2.0
        })
    }

    #[test]
    fn blocked_matches_reference_across_tile_boundaries() {
        // Shapes chosen to straddle the MR=4 / NR=16 / MC=64 / KC=NC=256
        // tile boundaries, including partial edge tiles everywhere.
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 4),
            (5, 7, 3),
            (17, 33, 9),
            (64, 64, 64),
            (65, 100, 130),
            (31, 257, 66),
        ] {
            let a = pseudo_random([m, k], 1);
            let b = pseudo_random([k, n], 2);
            let tol = 1e-4 * k as f32;
            let dims = (m, n, k);
            assert!(
                a.matmul(&b)
                    .approx_eq(&reference(dims, &a, (k, 1), &b, (n, 1)), tol),
                "matmul mismatch at ({m},{k},{n})"
            );

            let at = pseudo_random([k, m], 3);
            assert!(
                at.matmul_tn(&b)
                    .approx_eq(&reference(dims, &at, (1, m), &b, (n, 1)), tol),
                "matmul_tn mismatch at ({m},{k},{n})"
            );

            let bt = pseudo_random([n, k], 4);
            assert!(
                a.matmul_nt(&bt)
                    .approx_eq(&reference(dims, &a, (k, 1), &bt, (1, k)), tol),
                "matmul_nt mismatch at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn blocked_kernel_is_deterministic() {
        // Same operands → bitwise-identical output on repeated calls; the
        // incremental-inference cache depends on this.
        let a = pseudo_random([37, 53], 5);
        let b = pseudo_random([53, 29], 6);
        let first = a.matmul(&b);
        for _ in 0..3 {
            assert_eq!(a.matmul(&b).data(), first.data());
        }
    }

    fn arb_matrix(m: usize, n: usize) -> impl Strategy<Value = Tensor> {
        proptest::collection::vec(-5.0f32..5.0, m * n)
            .prop_map(move |v| Tensor::from_vec(v, [m, n]))
    }

    proptest! {
        #[test]
        fn tn_matches_explicit_transpose(
            a in arb_matrix(4, 3),
            b in arb_matrix(4, 5),
        ) {
            let expected = a.transpose2d().matmul(&b);
            prop_assert!(a.matmul_tn(&b).approx_eq(&expected, 1e-4));
        }

        #[test]
        fn nt_matches_explicit_transpose(
            a in arb_matrix(4, 3),
            b in arb_matrix(5, 3),
        ) {
            let expected = a.matmul(&b.transpose2d());
            prop_assert!(a.matmul_nt(&b).approx_eq(&expected, 1e-4));
        }

        #[test]
        fn matmul_distributes_over_addition(
            a in arb_matrix(3, 4),
            b in arb_matrix(4, 2),
            c in arb_matrix(4, 2),
        ) {
            let lhs = a.matmul(&b.add_t(&c));
            let rhs = a.matmul(&b).add_t(&a.matmul(&c));
            prop_assert!(lhs.approx_eq(&rhs, 1e-3));
        }

        #[test]
        fn blocked_matches_reference_on_random_operands(
            a in arb_matrix(9, 21),
            b in arb_matrix(21, 13),
        ) {
            let want = reference((9, 13, 21), &a, (21, 1), &b, (13, 1));
            prop_assert!(a.matmul(&b).approx_eq(&want, 1e-3));
        }
    }
}
