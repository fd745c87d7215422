//! Shape arithmetic: dimension bookkeeping, row-major strides and index math.

use crate::error::TensorError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape (extent of every dimension) of a [`crate::Tensor`].
///
/// Shapes are stored row-major: the last dimension is contiguous in memory.
/// A rank-0 shape (no dimensions) denotes a scalar with one element.
///
/// # Examples
///
/// ```
/// use bdlfi_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.rank(), 3);
/// assert_eq!(s.num_elements(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Clone for Shape {
    fn clone(&self) -> Self {
        Shape(self.0.clone())
    }

    /// Reuses `self`'s allocation, as [`Vec::clone_from`] does.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// Creates a rank-0 (scalar) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extents of all dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Total number of elements (product of all extents; 1 for scalars).
    pub fn num_elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if `index.len() != self.rank()` or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        let mut off = 0;
        let mut stride = 1;
        for axis in (0..self.rank()).rev() {
            let i = index[axis];
            assert!(
                i < self.0[axis],
                "index {i} out of bounds for axis {axis} of length {}",
                self.0[axis]
            );
            off += i * stride;
            stride *= self.0[axis];
        }
        off
    }

    /// Converts a flat row-major offset back to a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= self.num_elements()`.
    pub fn unravel(&self, offset: usize) -> Vec<usize> {
        assert!(
            offset < self.num_elements().max(1),
            "offset {offset} out of bounds for shape with {} elements",
            self.num_elements()
        );
        let mut rem = offset;
        let mut index = vec![0; self.rank()];
        for axis in (0..self.rank()).rev() {
            index[axis] = rem % self.0[axis];
            rem /= self.0[axis];
        }
        index
    }

    /// Checks that two shapes are identical, reporting a [`TensorError`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn ensure_same(&self, other: &Shape) -> Result<(), TensorError> {
        if self == other {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                left: self.0.clone(),
                right: other.0.clone(),
            })
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.num_elements(), 1);
        assert_eq!(s.offset(&[]), 0);
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s = Shape::new(vec![5]);
        assert_eq!(s.strides(), vec![1]);
    }

    #[test]
    fn offset_matches_manual_computation() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_panics_out_of_bounds() {
        Shape::new(vec![2, 2]).offset(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match shape rank")]
    fn offset_panics_on_rank_mismatch() {
        Shape::new(vec![2, 2]).offset(&[0]);
    }

    #[test]
    fn ensure_same_detects_mismatch() {
        let a = Shape::new(vec![2, 3]);
        let b = Shape::new(vec![3, 2]);
        assert!(a.ensure_same(&a.clone()).is_ok());
        assert_eq!(
            a.ensure_same(&b),
            Err(TensorError::ShapeMismatch {
                left: vec![2, 3],
                right: vec![3, 2]
            })
        );
    }

    #[test]
    fn display_formats_like_a_list() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    fn conversions_from_arrays_and_slices() {
        let a: Shape = [2usize, 3].into();
        let b: Shape = vec![2usize, 3].into();
        let c: Shape = (&[2usize, 3][..]).into();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    proptest! {
        #[test]
        fn unravel_roundtrips_offset(dims in proptest::collection::vec(1usize..6, 1..4)) {
            let s = Shape::new(dims);
            for off in 0..s.num_elements() {
                let idx = s.unravel(off);
                prop_assert_eq!(s.offset(&idx), off);
            }
        }

        #[test]
        fn strides_product_rule(dims in proptest::collection::vec(1usize..6, 1..5)) {
            let s = Shape::new(dims.clone());
            let strides = s.strides();
            // stride[i] * dim[i] == stride[i-1]
            for i in 1..dims.len() {
                prop_assert_eq!(strides[i] * dims[i], strides[i - 1]);
            }
            prop_assert_eq!(strides[0] * dims[0], s.num_elements());
        }
    }
}
