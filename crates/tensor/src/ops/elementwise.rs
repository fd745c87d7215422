//! Element-wise arithmetic, scalar operations and simple broadcasts.
//!
//! Binary operators are provided both as methods returning new tensors and as
//! in-place `*_assign` variants used by hot paths (optimizers, gradient
//! accumulation). All same-shape operations panic on mismatch: a shape error
//! here is a programming error, not a recoverable condition.

use crate::tensor::Tensor;
use std::ops::{Add, Div, Mul, Neg, Sub};

impl Tensor {
    /// Element-wise sum with a same-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_t(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference with a same-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub_t(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product with a same-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul_t(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise quotient with a same-shaped tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn div_t(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// In-place element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign_t(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "add_assign_t requires identical shapes"
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += b;
        }
    }

    /// In-place element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub_assign_t(&mut self, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "sub_assign_t requires identical shapes"
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "axpy requires identical shapes"
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data().iter()) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha`, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|x| x * alpha)
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        self.map_inplace(|x| x * alpha);
    }

    /// Adds `value` to every element, returning a new tensor.
    pub fn add_scalar(&self, value: f32) -> Tensor {
        self.map(|x| x + value)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill(&mut self, value: f32) {
        for x in self.data_mut() {
            *x = value;
        }
    }

    /// Adds a length-`n` row vector to every row of an `(m, n)` matrix in
    /// place (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `bias` is not rank 1 of matching
    /// width.
    pub fn add_row_broadcast_inplace(&mut self, bias: &Tensor) {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires a rank-2 tensor");
        assert_eq!(bias.rank(), 1, "bias must be rank 1");
        assert_eq!(
            self.dim(1),
            bias.dim(0),
            "bias width must match matrix width"
        );
        let cols = self.dim(1);
        let b = bias.data();
        for row in self.data_mut().chunks_mut(cols) {
            for (x, &bv) in row.iter_mut().zip(b.iter()) {
                *x += bv;
            }
        }
    }

    /// Rectified linear unit, `max(0, x)`, element-wise.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Sum of squares of all elements.
    pub fn squared_norm(&self) -> f32 {
        self.data()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>() as f32
    }

    /// Dot product with a same-shaped tensor (sum of element products).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape(), other.shape(), "dot requires identical shapes");
        self.data()
            .iter()
            .zip(other.data().iter())
            .map(|(&a, &b)| (a as f64) * (b as f64))
            .sum::<f64>() as f32
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $tensor_method:ident) => {
        impl $trait<&Tensor> for &Tensor {
            type Output = Tensor;
            fn $method(self, rhs: &Tensor) -> Tensor {
                self.$tensor_method(rhs)
            }
        }
        impl $trait<Tensor> for Tensor {
            type Output = Tensor;
            fn $method(self, rhs: Tensor) -> Tensor {
                self.$tensor_method(&rhs)
            }
        }
    };
}

impl_binop!(Add, add, add_t);
impl_binop!(Sub, sub, sub_t);
impl_binop!(Mul, mul, mul_t);
impl_binop!(Div, div, div_t);

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.scale(rhs)
    }
}

impl Neg for &Tensor {
    type Output = Tensor;
    fn neg(self) -> Tensor {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, [n])
    }

    #[test]
    fn basic_arithmetic() {
        let a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![4.0, 5.0, 6.0]);
        assert_eq!((&a + &b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!((&b - &a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!((&a * &b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!((&b / &a).data(), &[4.0, 2.5, 2.0]);
        assert_eq!((-&a).data(), &[-1.0, -2.0, -3.0]);
        assert_eq!((&a * 2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn assign_variants_match_pure_variants() {
        let a = t(vec![1.0, 2.0]);
        let b = t(vec![10.0, 20.0]);
        let mut c = a.clone();
        c.add_assign_t(&b);
        assert_eq!(c, a.add_t(&b));
        let mut d = a.clone();
        d.sub_assign_t(&b);
        assert_eq!(d, a.sub_t(&b));
    }

    #[test]
    fn axpy_accumulates() {
        let mut acc = t(vec![1.0, 1.0]);
        acc.axpy(0.5, &t(vec![2.0, 4.0]));
        assert_eq!(acc.data(), &[2.0, 3.0]);
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let mut m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let b = t(vec![10.0, 20.0]);
        m.add_row_broadcast_inplace(&b);
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    #[should_panic(expected = "bias width")]
    fn add_row_broadcast_panics_on_width_mismatch() {
        Tensor::zeros([2, 3]).add_row_broadcast_inplace(&Tensor::zeros([2]));
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(t(vec![-1.0, 0.0, 2.0]).relu().data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn dot_and_squared_norm() {
        let a = t(vec![3.0, 4.0]);
        assert_eq!(a.squared_norm(), 25.0);
        assert_eq!(a.dot(&t(vec![1.0, 2.0])), 11.0);
    }

    #[test]
    fn fill_resets_all_elements() {
        let mut a = t(vec![1.0, 2.0, 3.0]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
    }

    proptest! {
        #[test]
        fn add_is_commutative(
            v in proptest::collection::vec(-100.0f32..100.0, 1..20),
            w in proptest::collection::vec(-100.0f32..100.0, 1..20),
        ) {
            let n = v.len().min(w.len());
            let a = t(v[..n].to_vec());
            let b = t(w[..n].to_vec());
            prop_assert_eq!(a.add_t(&b), b.add_t(&a));
        }

        #[test]
        fn scale_by_zero_gives_zeros(v in proptest::collection::vec(-100.0f32..100.0, 1..20)) {
            let n = v.len();
            let a = t(v);
            prop_assert_eq!(a.scale(0.0), Tensor::zeros([n]));
        }

        #[test]
        fn neg_is_involution(v in proptest::collection::vec(-100.0f32..100.0, 1..20)) {
            let a = t(v);
            prop_assert_eq!(-&(-&a), a);
        }
    }
}
