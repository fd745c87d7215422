//! The dense, owned, row-major `f32` tensor at the heart of the substrate.

use crate::error::TensorError;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` owns its storage (`Vec<f32>`) and is always contiguous; slicing
/// operations copy. This keeps the API simple and makes every tensor cheap to
/// hand across threads (it is `Send + Sync`).
///
/// # Examples
///
/// ```
/// use bdlfi_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.clone(),
        }
    }

    /// Copies `source` into `self`'s existing buffers, allocating only
    /// when they are too small: the sparse-delta evaluator refreshes one
    /// tensor from the golden boundaries this way on every evaluation.
    fn clone_from(&mut self, source: &Self) {
        self.shape.clone_from(&source.shape);
        self.data.clone_from(&source.data);
    }
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the element count of `shape`.
    /// Use [`Tensor::try_from_vec`] for a fallible variant.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        // bdlfi-lint: allow(BD010) -- documented `# Panics` API; `try_from_vec` is the fallible variant campaign paths can use
        Tensor::try_from_vec(data, shape).expect("data length must match shape")
    }

    /// Creates a tensor from a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not match
    /// the element count of `shape`.
    pub fn try_from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if data.len() != shape.num_elements() {
            return Err(TensorError::LengthMismatch {
                expected: shape.num_elements(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor whose element at multi-index `i` is `f(i)`.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        let mut data = Vec::with_capacity(n);
        for off in 0..n {
            let idx = shape.unravel(off);
            data.push(f(&idx));
        }
        Tensor { shape, data }
    }

    /// Creates the 2-D identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros([n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents of all dimensions (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (some dimension has extent 0).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable reference to the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Returns a copy reshaped to `shape`.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ; use [`Tensor::try_reshape`] for a
    /// fallible variant.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        self.try_reshape(shape)
            // bdlfi-lint: allow(BD010) -- documented `# Panics` API; `try_reshape` is the fallible variant campaign paths can use
            .expect("reshape must preserve element count")
    }

    /// Returns a copy reshaped to `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] if the element counts differ.
    pub fn try_reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if shape.num_elements() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.shape.dims().to_vec(),
                to: shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Reshapes in place (no copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_inplace(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        assert_eq!(
            shape.num_elements(),
            self.len(),
            "reshape must preserve element count ({} vs {})",
            shape.num_elements(),
            self.len()
        );
        self.shape = shape;
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "zip_map requires identical shapes: {} vs {}",
            self.shape, other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Row `i` of a rank-2 tensor, as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.dim(1);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.dim(1);
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "max_abs_diff requires identical shapes"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether every element differs from `other` by at most `tol`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl Default for Tensor {
    /// The default tensor is the scalar `0.0`.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... {} elements]", &self.data[..8], self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones([3]);
        assert!(o.data().iter().all(|&x| x == 1.0));
        let f = Tensor::full([2], 7.5);
        assert_eq!(f.data(), &[7.5, 7.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::try_from_vec(vec![1.0; 6], [2, 3]).is_ok());
        assert_eq!(
            Tensor::try_from_vec(vec![1.0; 5], [2, 3]),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        );
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffers() {
        let big = Tensor::from_fn([4, 3], |i| (i[0] * 3 + i[1]) as f32);
        let small = Tensor::from_vec(vec![-1.0, 2.0], [1, 2]);
        let mut t = big.clone();
        let ptr = t.data().as_ptr();
        t.clone_from(&small);
        assert_eq!(t, small);
        assert_eq!(
            t.data().as_ptr(),
            ptr,
            "a smaller source must not reallocate"
        );
        t.clone_from(&big);
        assert_eq!(t, big);
    }

    #[test]
    fn from_fn_builds_row_major() {
        let t = Tensor::from_fn([2, 3], |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Tensor::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.at(&[r, c]), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn indexing_and_mutation() {
        let mut t = Tensor::zeros([2, 2]);
        *t.at_mut(&[0, 1]) = 5.0;
        assert_eq!(t.at(&[0, 1]), 5.0);
        assert_eq!(t.at(&[1, 1]), 0.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let r = t.reshape([3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(t.try_reshape([4]).is_err());
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], [2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).data(), &[3.0, -8.0]);
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn zip_map_panics_on_shape_mismatch() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        a.zip_map(&b, |x, _| x);
    }

    #[test]
    fn rows_of_matrix() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        t.row_mut(0)[0] = 9.0;
        assert_eq!(t.at(&[0, 0]), 9.0);
    }

    #[test]
    fn default_is_scalar_zero() {
        let d = Tensor::default();
        assert_eq!(d.rank(), 0);
        assert_eq!(d.data(), &[0.0]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Tensor::zeros([2]).to_string().is_empty());
        assert!(!Tensor::zeros([100]).to_string().is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let t = Tensor::from_fn([3, 2], |i| i[0] as f32 - i[1] as f32);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    proptest! {
        #[test]
        fn reshape_roundtrip(data in proptest::collection::vec(-10.0f32..10.0, 12)) {
            let t = Tensor::from_vec(data, [3, 4]);
            let back = t.reshape([2, 6]).reshape([3, 4]);
            prop_assert_eq!(back, t);
        }

        #[test]
        fn from_fn_matches_at(dims in proptest::collection::vec(1usize..5, 1..4)) {
            let t = Tensor::from_fn(dims.clone(), |i| i.iter().sum::<usize>() as f32);
            let shape = Shape::new(dims);
            for off in 0..shape.num_elements() {
                let idx = shape.unravel(off);
                prop_assert_eq!(t.at(&idx), idx.iter().sum::<usize>() as f32);
            }
        }
    }
}
