//! Per-worker scratch arena: the buffers of the forward/backward path.
//!
//! Every activation, zero-padded convolution input, batch tensor and
//! gradient of a training step is a `Vec<f32>` drawn from a [`Scratch`]:
//! [`Scratch::take`] hands out a zeroed buffer of the requested length
//! (a previously returned one when available), [`Scratch::take_uninit`]
//! skips the zeroing for outputs that are fully overwritten, and
//! [`Scratch::put`] returns a buffer for the next step.
//!
//! Ownership: each worker owns exactly one `Scratch`; evaluation builds one
//! per call. Layers never hold arena buffers across a step — a buffer taken
//! inside `forward`/`backward` is either returned with `put` before the
//! call exits or handed on as part of a result tensor, and re-enters the
//! arena when its consumer recycles that tensor. A step puts back exactly
//! what it took, so the arena stops growing after the first step *at one
//! batch size*. Buckets are exact lengths and every length scales with the
//! batch, so a new batch size can reuse none of the old buffers: whoever
//! changes the batch size drops the arena (`Worker::set_lbs`). The arena
//! is deliberately not thread-safe: it lives and dies with one worker,
//! which is also what keeps reuse deterministic.

use crate::tensor::Tensor;
use std::collections::HashMap;

/// Size-bucketed pool of reusable `Vec<f32>` buffers.
#[derive(Default)]
pub struct Scratch {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    /// Buffers handed out since construction (diagnostics only).
    taken: u64,
    /// Buffers served from the pool rather than freshly allocated.
    reused: u64,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Get a zeroed buffer of exactly `len` elements.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        self.taken += 1;
        if let Some(mut buf) = self.buckets.get_mut(&len).and_then(|b| b.pop()) {
            self.reused += 1;
            buf.iter_mut().for_each(|v| *v = 0.0);
            buf
        } else {
            vec![0.0; len]
        }
    }

    /// Get a buffer of `len` elements without zeroing (for outputs that are
    /// fully overwritten, e.g. GEMM results).
    pub fn take_uninit(&mut self, len: usize) -> Vec<f32> {
        self.taken += 1;
        if let Some(buf) = self.buckets.get_mut(&len).and_then(|b| b.pop()) {
            self.reused += 1;
            buf
        } else {
            vec![0.0; len]
        }
    }

    /// Return a buffer to the pool. Debug builds poison it with NaN, so a
    /// `take_uninit` caller that leaves a slot unwritten fails its test.
    pub fn put(&mut self, mut buf: Vec<f32>) {
        if buf.is_empty() {
            return;
        }
        if cfg!(debug_assertions) {
            buf.fill(f32::NAN);
        }
        self.buckets.entry(buf.len()).or_default().push(buf);
    }

    /// Recycle a whole tensor's storage.
    pub fn put_tensor(&mut self, t: Tensor) {
        self.put(t.into_data());
    }

    /// Fraction of `take` calls served from the pool; 0.0 before any call.
    pub fn reuse_ratio(&self) -> f64 {
        if self.taken == 0 {
            0.0
        } else {
            self.reused as f64 / self.taken as f64
        }
    }

    /// Bytes of storage currently parked in the pool (diagnostics only).
    pub fn held_bytes(&self) -> usize {
        let floats: usize = self.buckets.iter().map(|(len, b)| len * b.len()).sum();
        floats * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_storage() {
        let mut s = Scratch::new();
        let mut a = s.take(128);
        a[0] = 7.0;
        let ptr = a.as_ptr();
        s.put(a);
        let b = s.take(128);
        assert_eq!(b.as_ptr(), ptr, "same allocation must come back");
        assert!(b.iter().all(|&v| v == 0.0), "reused buffers are zeroed");
        assert!(s.reuse_ratio() > 0.0);
    }

    #[test]
    fn different_sizes_do_not_mix() {
        let mut s = Scratch::new();
        s.put(vec![1.0; 64]);
        let b = s.take(32);
        assert_eq!(b.len(), 32);
        let c = s.take(64);
        assert_eq!(c.len(), 64);
    }

    #[test]
    fn take_uninit_keeps_len() {
        let mut s = Scratch::new();
        s.put(vec![3.0; 16]);
        let b = s.take_uninit(16);
        assert_eq!(b.len(), 16);
    }

    #[test]
    fn held_bytes_counts_parked_buffers_only() {
        let mut s = Scratch::new();
        assert_eq!(s.held_bytes(), 0);
        s.put(vec![0.0; 10]);
        s.put(vec![0.0; 10]);
        s.put(vec![0.0; 3]);
        assert_eq!(s.held_bytes(), 23 * 4);
        let b = s.take_uninit(10);
        assert_eq!(s.held_bytes(), 13 * 4, "a taken buffer is the caller's");
        if cfg!(debug_assertions) {
            assert!(b.iter().all(|v| v.is_nan()), "put poisons in debug builds");
        }
    }

    #[test]
    fn tensor_roundtrip() {
        let mut s = Scratch::new();
        let t = Tensor::full(crate::Shape::d2(4, 4), 2.0);
        s.put_tensor(t);
        let b = s.take(16);
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|&v| v == 0.0));
    }
}
