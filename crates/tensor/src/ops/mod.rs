//! Compute kernels: matrix multiplication, 2-D convolution (standard and
//! depthwise), max-pooling and activations, each with a hand-written
//! backward pass.
//!
//! # Kernel architecture
//!
//! The GEMM family (`ops::matmul`) is register-tiled: the right-hand
//! operand is packed into 16-column panels and the micro-kernel computes a
//! 4×16 accumulator tile per sweep. Large convolutions are an *implicit*
//! GEMM (`ops::igemm`, forward *and* backward): the patches are read from a
//! zero-padded copy of the input through a table of tap offsets, so no
//! patch matrix is ever materialized. Its forward puts the 16 vector lanes
//! across consecutive pixels of a padded-width row, one accumulator per
//! filter, so a layer with 4 or 8 filters still fills every lane; `dW`'s
//! lanes are filters × a run of adjacent taps (a 4-filter layer's vector
//! holds one 4-tap run per filter), and `dinput` is the forward's mirror:
//! its lanes are consecutive pixels of a frame-width *input* row, reading a
//! zero-bordered copy of `dout`, one accumulator per input channel. Max-pool
//! (`ops::pool`) compares sixteen windows per vector.
//! Every standard convolution runs it, batch 1 included: there is one chain
//! order per output element and no size threshold, so a shape's bits depend
//! neither on the host nor on the batch size. Every kernel is serial: the
//! repo's threads run whole worker-iterations (`crate::par`), not slices of
//! a kernel.
//!
//! # Determinism rule
//!
//! Every reduction into an output element is a single sequential chain in
//! a fixed index order (ascending `k` for GEMM and the implicit-GEMM
//! convolution, the loop-nest order for depthwise conv, chunk-index order
//! for sums), so results are bit-identical
//! across runs and do not depend on which thread ran the step.
//!
//! In particular the blocked GEMMs are bit-identical to the naive `i,j,k`
//! triple loop — tiling only regroups *which* elements are computed
//! together, never the order of additions inside one element (no `mul_add`
//! contraction, no split-`k`). Property tests in `tests/proptest_tensor.rs`
//! enforce this with exact `f32` equality on shapes that are not multiples
//! of the tile sizes.
//!
//! # One entry point per kernel
//!
//! No kernel allocates its result: the GEMMs and the pooling kernels write
//! into caller-owned buffers (`_into`), the convolutions draw theirs from a
//! caller-owned `crate::Scratch` arena (`_s`; the convolution backward's
//! `_into` form writes the parameter gradients into the caller's buffers and
//! skips the input gradient when nobody wants it). Training passes the
//! worker's arena, evaluation one of its own, a test a local one — the same
//! code in all three. What remains beside the hot path is what tests compare
//! it with: `matmul_naive` (the bit-identity reference for the blocked
//! GEMMs) and the direct conv loops (the independent, to-rounding reference
//! for the implicit GEMM, and the benchmark's seed rows). See
//! `crate::scratch` for the ownership story.

pub mod activation;
pub mod conv;
mod igemm;
pub mod matmul;
pub mod pool;

pub use activation::{softmax_rows, softmax_xent};
pub use conv::{
    conv2d_backward_direct, conv2d_backward_direct_into, conv2d_backward_into, conv2d_backward_s,
    conv2d_direct, conv2d_s, depthwise_conv2d, depthwise_conv2d_backward,
    depthwise_conv2d_backward_into, ConvGrads,
};
pub use matmul::{matmul_into, matmul_naive, matmul_nt_into, matmul_tn_into};
pub use pool::{maxpool2_backward_into, maxpool2_into};
