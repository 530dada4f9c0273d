//! Tensor shapes.
//!
//! Every tensor in the stack has `rank <= 4` (NCHW activations, FCKK conv
//! weights, MxN matrices, biases), so a shape is an inline `Copy` value —
//! up to [`MAX_RANK`] extents in a fixed array plus the rank — and cloning
//! a [`crate::Tensor`] copies it without touching the heap.

use std::fmt;

/// The most dimensions a [`Shape`] holds. The wire codec refuses a tensor
/// that declares more.
pub const MAX_RANK: usize = 4;

/// The shape of a [`crate::Tensor`]: an ordered list of dimension extents.
///
/// The slots past `rank` stay zero, so the derived `Eq`/`Hash` compare
/// only the dims.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// The shape with these extents. Panics if there are more than
    /// [`MAX_RANK`].
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "shape rank {} exceeds MAX_RANK = {MAX_RANK}",
            dims.len()
        );
        let mut s = Shape {
            dims: [0; MAX_RANK],
            rank: dims.len() as u8,
        };
        s.dims[..dims.len()].copy_from_slice(dims);
        s
    }

    /// A scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape::new(&[])
    }

    /// A rank-1 shape.
    pub fn d1(n: usize) -> Self {
        Shape::new(&[n])
    }

    /// A rank-2 shape (rows, cols).
    pub fn d2(r: usize, c: usize) -> Self {
        Shape::new(&[r, c])
    }

    /// A rank-4 shape (e.g. NCHW).
    pub fn d4(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape::new(&[n, c, h, w])
    }

    /// This shape with dimension `i`'s extent replaced by `n` (a batch of
    /// a different size, say). Panics if `i` is out of range.
    pub fn with_dim(mut self, i: usize, n: usize) -> Self {
        let rank = self.rank();
        self.dims[..rank][i] = n;
        self
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Extent of dimension `i`. Panics if out of range.
    pub fn dim(&self, i: usize) -> usize {
        self.dims()[i]
    }

    /// The dims as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let d = self.dims();
        let mut s = vec![1usize; d.len()];
        for i in (0..d.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * d[i + 1];
        }
        s
    }

    /// Flat row-major offset of a multi-index. Panics on rank mismatch and
    /// debug-asserts bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        let d = self.dims();
        assert_eq!(idx.len(), d.len(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for i in (0..d.len()).rev() {
            debug_assert!(idx[i] < d[i], "index out of bounds");
            off += idx[i] * stride;
            stride *= d[i];
        }
        off
    }

    /// True if both shapes have the same number of elements (reshape-compatible).
    pub fn same_numel(&self, other: &Shape) -> bool {
        self.numel() == other.numel()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape::new(&v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::d4(2, 3, 4, 5);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.numel(), 120);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::d1(7).numel(), 7);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::d4(2, 3, 4, 5);
        assert_eq!(s.strides(), vec![60, 20, 5, 1]);
        assert_eq!(Shape::d2(3, 4).strides(), vec![4, 1]);
        assert_eq!(Shape::d1(9).strides(), vec![1]);
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::d4(2, 3, 4, 5);
        assert_eq!(s.offset(&[0, 0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3, 4]), 60 + 40 + 15 + 4);
        assert_eq!(s.offset(&[1, 0, 0, 1]), 61);
    }

    #[test]
    #[should_panic(expected = "index rank mismatch")]
    fn offset_rank_mismatch_panics() {
        Shape::d2(2, 2).offset(&[1]);
    }

    #[test]
    fn same_numel_for_reshape() {
        assert!(Shape::d2(6, 4).same_numel(&Shape::d4(2, 3, 2, 2)));
        assert!(!Shape::d2(6, 4).same_numel(&Shape::d1(23)));
    }

    #[test]
    fn display_and_debug() {
        let s = Shape::d2(2, 3);
        assert_eq!(format!("{s}"), "[2, 3]");
        assert_eq!(format!("{s:?}"), "Shape[2, 3]");
    }

    #[test]
    fn equality_and_hash_see_only_the_dims() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |s: &Shape| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        let a = Shape::d2(2, 3);
        let b = Shape::from(vec![7, 3]).with_dim(0, 2);
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(Shape::d1(2), Shape::d2(2, 1));
        assert_ne!(Shape::scalar(), Shape::d1(0));
        assert_eq!(Shape::new(&[5, 6, 7]).dims(), &[5, 6, 7]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_tensor_handle_is_a_shape_and_a_pointer() {
        assert_eq!(std::mem::size_of::<Shape>(), 40);
        assert_eq!(std::mem::size_of::<crate::Tensor>(), 48);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn a_rank_above_max_rank_panics() {
        Shape::new(&[1; MAX_RANK + 1]);
    }

    #[test]
    #[should_panic]
    fn with_dim_past_the_rank_panics() {
        Shape::d2(2, 3).with_dim(2, 1);
    }
}
