//! # dlion-tensor
//!
//! Dense/sparse tensor math substrate for the DLion reproduction.
//!
//! This crate provides everything the deep-learning stack and the DLion
//! gradient-exchange machinery need from a numerics library:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with elementwise and
//!   BLAS-like operations, every one serial with a fixed reduction order so
//!   simulations are bit-reproducible,
//! * [`ops`] — matmul, 2-D convolution (incl. depthwise), max-pooling and
//!   activation kernels with hand-written backward passes,
//! * [`SparseVec`] — the sparse gradient representation exchanged between
//!   workers, including the *Max N* top-magnitude selection primitive at the
//!   heart of DLion's per-link prioritized gradient exchange (§3.3 of the
//!   paper),
//! * [`stats`] — small statistics helpers (mean/std, linear regression used
//!   by the LBS controller's compute profiler, 95 % confidence intervals),
//! * [`DetRng`] — a deterministic, seedable RNG with the distributions the
//!   workloads need (uniform, normal via Box–Muller, shuffling),
//! * [`par`] — the task pool the layers above run whole worker-iterations
//!   and experiment cells on; nothing in this crate's math calls it,
//! * [`draws`] — a run's large set-up draws (a synthetic dataset, a large
//!   [`Tensor::randn`]) in fixed chunks filled on that pool, bit for bit
//!   the serial stream.
//!
//! Nothing in this crate knows about workers, networks or training loops;
//! it is a pure math layer.

pub mod draws;
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

/// The repo's one summation order: 4096-element chunks summed left to
/// right, then the partials summed left to right (a shorter input is one
/// plain sum). Every reduction the simulator's numbers depend on goes
/// through here, so a seed's bits never depend on how a sum was split.
pub fn deterministic_sum(xs: &[f32]) -> f32 {
    chunked_sum(xs, |&x| x)
}

/// [`deterministic_sum`] of `f(x)` over `xs`, without materializing the
/// mapped values.
pub(crate) fn chunked_sum(xs: &[f32], f: impl Fn(&f32) -> f32) -> f32 {
    const CHUNK: usize = 4096;
    if xs.len() <= CHUNK {
        return xs.iter().map(&f).sum();
    }
    let partials = xs.chunks(CHUNK).map(|c| c.iter().map(&f).sum::<f32>());
    partials.sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sum_matches_serial() {
        let xs: Vec<f32> = (0..100_000).map(|i| (i as f32 * 0.001).sin()).collect();
        let serial: f32 = {
            // The documented order, spelled out.
            let partials: Vec<f32> = xs.chunks(4096).map(|c| c.iter().sum::<f32>()).collect();
            partials.iter().sum()
        };
        assert_eq!(serial, deterministic_sum(&xs), "the chunk order is fixed");
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
