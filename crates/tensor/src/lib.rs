//! # dlion-tensor
//!
//! Dense/sparse tensor math substrate for the DLion reproduction.
//!
//! This crate provides everything the deep-learning stack and the DLion
//! gradient-exchange machinery need from a numerics library:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with elementwise and
//!   BLAS-like operations (parallelized over the in-tree deterministic
//!   thread pool [`par`] where it pays off, with deterministic reductions
//!   so simulations are bit-reproducible),
//! * [`ops`] — matmul, 2-D convolution (incl. depthwise), max-pooling and
//!   activation kernels with hand-written backward passes,
//! * [`SparseVec`] — the sparse gradient representation exchanged between
//!   workers, including the *Max N* top-magnitude selection primitive at the
//!   heart of DLion's per-link prioritized gradient exchange (§3.3 of the
//!   paper),
//! * [`stats`] — small statistics helpers (mean/std, linear regression used
//!   by the LBS controller's compute profiler, 95 % confidence intervals),
//! * [`DetRng`] — a deterministic, seedable RNG with the distributions the
//!   workloads need (uniform, normal via Box–Muller, shuffling).
//!
//! Nothing in this crate knows about workers, networks or training loops;
//! it is a pure math layer.

pub mod ops;
pub mod par;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod sparse;
pub mod stats;
pub mod tensor;

pub use rng::DetRng;
pub use scratch::Scratch;

pub use shape::Shape;
pub use sparse::SparseVec;
pub use tensor::Tensor;

/// Deterministic parallel sum: chunks are reduced in parallel but combined
/// in a fixed (index) order, so results do not depend on thread scheduling.
///
/// This matters because the cluster simulator must be bit-reproducible for a
/// given seed: figure regeneration and tests rely on it.
pub fn deterministic_sum(xs: &[f32]) -> f32 {
    const CHUNK: usize = 4096;
    if xs.len() <= CHUNK {
        return xs.iter().sum();
    }
    let n_chunks = xs.len().div_ceil(CHUNK);
    let mut partials = vec![0.0f32; n_chunks];
    // One task per chunk; each writes only its own slot, so the combine
    // below always sees partials in index order.
    par::par_chunks_mut(&mut partials, 1, |i, slot| {
        let start = i * CHUNK;
        let end = (start + CHUNK).min(xs.len());
        slot[0] = xs[start..end].iter().sum();
    });
    partials.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sum_matches_serial() {
        let xs: Vec<f32> = (0..100_000).map(|i| (i as f32 * 0.001).sin()).collect();
        let serial: f32 = {
            // Same chunking as the parallel path, applied serially.
            let partials: Vec<f32> = xs.chunks(4096).map(|c| c.iter().sum::<f32>()).collect();
            partials.iter().sum()
        };
        let parallel = deterministic_sum(&xs);
        assert_eq!(serial, parallel, "parallel sum must be bit-identical");
    }

    #[test]
    fn deterministic_sum_small_input() {
        assert_eq!(deterministic_sum(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(deterministic_sum(&[]), 0.0);
    }

    #[test]
    fn deterministic_sum_is_stable_across_calls() {
        let xs: Vec<f32> = (0..50_000).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let a = deterministic_sum(&xs);
        let b = deterministic_sum(&xs);
        assert_eq!(a, b);
    }
}
