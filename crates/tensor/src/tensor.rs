//! Dense row-major `f32` tensors.
//!
//! The tensor type is deliberately simple: owned contiguous storage, eager
//! operations, no views or broadcasting machinery beyond what the NN stack
//! needs. Heavy kernels live in [`crate::ops`].

use crate::draws;
use crate::rng::DetRng;
use crate::shape::Shape;
use crate::{chunked_sum, deterministic_sum};
use std::sync::Arc;

/// A dense, row-major tensor of `f32` with copy-on-write storage.
///
/// Cloning a tensor copies its inline [`Shape`] and shares its buffer (a
/// refcount bump): no allocation. The clone copies lazily on first
/// mutation. This is what lets a 1000-worker simulated cluster start from
/// one shared weight snapshot instead of n materialized copies, and what
/// makes per-peer dense gradient fan-out (k messages per iteration, each
/// "cloning" the gradient tensors) cost one `Vec` of handles per peer
/// until a wire format actually rewrites the values. Building a tensor
/// (`from_vec`, `zeros`, …) allocates once more than its values: the `Arc`
/// around them. `dlion-core`'s `alloc_counts` test pins these counts.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({}, {} elems)", self.shape, self.data.len())
    }
}

impl Tensor {
    // ---------- constructors ----------

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![0.0; n]),
        }
    }

    /// Tensor filled with `v`.
    pub fn full(shape: impl Into<Shape>, v: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor {
            shape,
            data: Arc::new(vec![v; n]),
        }
    }

    /// Build from existing data. Panics if lengths disagree.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} vs data len {}",
            data.len()
        );
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// Build by calling `f` on each flat index.
    pub fn from_fn(shape: impl Into<Shape>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let data = (0..shape.numel()).map(&mut f).collect();
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// I.i.d. normal entries with the given std (mean 0). Above one
    /// [`draws::CHUNK`] the stream is filled chunk by chunk on the pool —
    /// the same values, and `rng` ends in the same state.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut DetRng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        let data = if n > draws::CHUNK {
            draws::normals(n, std, rng)
        } else {
            (0..n)
                .map(|_| rng.normal_ms(0.0, std as f64) as f32)
                .collect()
        };
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// He (Kaiming) initialization for a layer with `fan_in` inputs.
    pub fn he_init(shape: impl Into<Shape>, fan_in: usize, rng: &mut DetRng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(shape, std, rng)
    }

    // ---------- accessors ----------

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the buffer; copies a shared buffer first
    /// (copy-on-write), so the returned slice is uniquely owned.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    pub fn into_data(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Element by multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element by multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let o = self.shape.offset(idx);
        &mut Arc::make_mut(&mut self.data)[o]
    }

    // ---------- shape ops ----------

    /// Reshape in place (same numel). Returns self for chaining.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert!(
            self.shape.same_numel(&shape),
            "reshape {} -> {} numel mismatch",
            self.shape,
            shape
        );
        self.shape = shape;
        self
    }

    // ---------- elementwise ----------

    /// `self += other` (same shape).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in Arc::make_mut(&mut self.data).iter_mut().zip(&*other.data) {
            *a += b;
        }
    }

    /// `self -= other` (same shape).
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "sub_assign shape mismatch");
        for (a, b) in Arc::make_mut(&mut self.data).iter_mut().zip(&*other.data) {
            *a -= b;
        }
    }

    /// `self += alpha * other` (same shape) — the workhorse of every SGD
    /// update and gradient merge in the system.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in Arc::make_mut(&mut self.data).iter_mut().zip(&*other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f32) {
        for a in Arc::make_mut(&mut self.data).iter_mut() {
            *a *= s;
        }
    }

    /// Set all entries to zero.
    pub fn fill_zero(&mut self) {
        Arc::make_mut(&mut self.data)
            .iter_mut()
            .for_each(|x| *x = 0.0);
    }

    /// New tensor `f(x)` applied elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: Arc::new(self.data.iter().map(|&x| f(x)).collect()),
        }
    }

    // ---------- reductions ----------

    /// Sum of all entries (deterministic parallel reduction).
    pub fn sum(&self) -> f32 {
        deterministic_sum(&self.data)
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Squared L2 norm.
    pub fn sq_l2(&self) -> f32 {
        chunked_sum(&self.data, |&x| x * x)
    }

    /// L2 norm.
    pub fn l2(&self) -> f32 {
        self.sq_l2().sqrt()
    }

    /// Index of the max entry in a rank-1 tensor or a row of a rank-2 tensor.
    pub fn argmax_row(&self, row: usize) -> usize {
        assert!(self.shape.rank() == 2, "argmax_row needs rank-2");
        let c = self.shape.dim(1);
        let slice = &self.data[row * c..(row + 1) * c];
        slice
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// True if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Clip every entry into `[-c, c]` (gradient clipping).
    pub fn clip_inplace(&mut self, c: f32) {
        assert!(c >= 0.0);
        for x in Arc::make_mut(&mut self.data).iter_mut() {
            *x = x.clamp(-c, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(Shape::d1(4), 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
        let v = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.at(&[1, 0]), 3.0);
        let g = Tensor::from_fn(Shape::d1(3), |i| i as f32);
        assert_eq!(g.data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_len_mismatch_panics() {
        Tensor::from_vec(Shape::d2(2, 2), vec![1.0]);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = DetRng::seed_from_u64(1);
        let t = Tensor::randn(Shape::d1(20_000), 0.5, &mut rng);
        let mean = t.mean();
        assert!(mean.abs() < 0.02, "mean {mean}");
        let var = t.sq_l2() / t.numel() as f32;
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn he_init_std() {
        let mut rng = DetRng::seed_from_u64(2);
        let t = Tensor::he_init(Shape::d1(50_000), 8, &mut rng);
        let var = t.sq_l2() / t.numel() as f32;
        assert!(
            (var - 0.25).abs() < 0.02,
            "He var should be 2/8 = 0.25, got {var}"
        );
    }

    #[test]
    fn axpy_and_arith() {
        let mut a = Tensor::from_vec(Shape::d1(3), vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(Shape::d1(3), vec![10.0, 20.0, 30.0]);
        a.axpy(0.1, &b);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
        a.sub_assign(&b);
        assert_eq!(a.data(), &[-8.0, -16.0, -24.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[1.0, 2.0, 3.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(Shape::d1(4), vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.sq_l2(), 30.0);
        assert!((t.l2() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_row_works() {
        let t = Tensor::from_vec(Shape::d2(2, 3), vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.1]);
        assert_eq!(t.argmax_row(0), 1);
        assert_eq!(t.argmax_row(1), 0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_fn(Shape::d2(2, 6), |i| i as f32);
        let r = t.clone().reshape(Shape::d4(2, 3, 2, 1));
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape().dims(), &[2, 3, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "numel mismatch")]
    fn reshape_bad_numel_panics() {
        let _ = Tensor::zeros(Shape::d1(5)).reshape(Shape::d2(2, 3));
    }

    #[test]
    fn clip_and_non_finite() {
        let mut t = Tensor::from_vec(Shape::d1(3), vec![-5.0, 0.5, 9.0]);
        t.clip_inplace(1.0);
        assert_eq!(t.data(), &[-1.0, 0.5, 1.0]);
        assert!(!t.has_non_finite());
        let bad = Tensor::from_vec(Shape::d1(2), vec![f32::NAN, 1.0]);
        assert!(bad.has_non_finite());
    }

    #[test]
    fn map_elementwise() {
        let t = Tensor::from_vec(Shape::d1(3), vec![-1.0, 0.0, 2.0]);
        let r = t.map(|x| x.max(0.0));
        assert_eq!(r.data(), &[0.0, 0.0, 2.0]);
    }
}
