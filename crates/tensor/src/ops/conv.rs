//! 2-D convolution kernels (NCHW, stride 1, symmetric zero padding) with
//! backward passes, plus the depthwise variant used by MobileNet-style
//! models.
//!
//! [`conv2d_s`] / [`conv2d_backward_into`] run every standard convolution
//! as `ops::igemm`'s implicit GEMM — the chains of the patch-matrix
//! lowering it replaced, read from a zero-padded copy of the input through
//! an offset table — at every shape and batch size, so the bits never
//! depend on the batch size or on the host. The direct loops here
//! ([`conv2d_direct`], [`conv2d_backward_direct_into`]) are the independent
//! reference the tests hold it to (to rounding: they add the bias first and
//! skip zero upstream gradients) and the benchmark's seed rows; no training
//! or evaluation path runs them. The depthwise kernels are loop nests too,
//! and those are the production path.
//!
//! The backward kernels proper are the `_into` forms: they write the
//! parameter gradients into the caller's buffers (a layer's persistent
//! `dw`/`db`) and compute the input gradient only when asked — the first
//! layer of a model has nobody to hand it to. [`conv2d_backward_s`],
//! [`conv2d_backward_direct`] and [`depthwise_conv2d_backward`] are those
//! kernels with all three gradients drawn from the arena.
//!
//! Every kernel here draws the tensors it returns from the caller's
//! [`Scratch`] arena, so whoever consumes a result can recycle it and the
//! arena holds a fixed set of buffers per batch size.
//!
//! Every kernel is serial. A training step is ~40 kernel calls of 3–300 µs
//! each, and fanning any of them over threads cost more in dispatch than it
//! saved at every batch size a run has (DESIGN.md §4b); the threads run
//! whole worker-iterations instead (`crate::par`).

use crate::ops::igemm;
use crate::scratch::Scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;

/// Gradients produced by a convolution backward pass.
pub struct ConvGrads {
    pub dinput: Tensor,
    pub dweight: Tensor,
    pub dbias: Tensor,
}

pub(crate) fn out_hw(h: usize, w: usize, kh: usize, kw: usize, pad: usize) -> (usize, usize) {
    assert!(
        h + 2 * pad >= kh && w + 2 * pad >= kw,
        "kernel larger than padded input"
    );
    (h + 2 * pad - kh + 1, w + 2 * pad - kw + 1)
}

/// `(d0, d1, d2, d3)` of a rank-4 tensor: `(N,C,H,W)` activations,
/// `(F,C,KH,KW)` filters.
pub(crate) fn dims4(t: &Tensor) -> [usize; 4] {
    let dims = t.shape().dims();
    dims.try_into().expect("convolution operands are rank-4")
}

/// Standard convolution: `input (N,C,H,W)` ⊛ `weight (F,C,KH,KW)` + `bias (F)`
/// → `(N,F,OH,OW)`, as an implicit GEMM.
pub fn conv2d_s(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> Tensor {
    igemm::forward(input, weight, bias, pad, s)
}

/// Backward pass of [`conv2d_s`], as an implicit GEMM too: writes `dL/dW`
/// and `dL/db` into the caller's `dweight (F·C·KH·KW)` and `dbias (F)` —
/// every slot, so stale contents are fine — and returns `dL/d(input)` from
/// `s` when `want_dx`. `dout` has shape `(N,F,OH,OW)`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    want_dx: bool,
    dweight: &mut [f32],
    dbias: &mut [f32],
    s: &mut Scratch,
) -> Option<Tensor> {
    igemm::backward_into(input, weight, dout, pad, want_dx, dweight, dbias, s)
}

/// Run a backward `_into` kernel with `dweight`/`dbias` drawn from `s` and
/// the input gradient asked for: all three gradients as arena tensors.
fn grads_from_arena(
    weight: &Tensor,
    s: &mut Scratch,
    kernel: impl FnOnce(&mut [f32], &mut [f32], &mut Scratch) -> Option<Tensor>,
) -> ConvGrads {
    let mut dweight = s.take_uninit(weight.numel());
    let mut dbias = s.take_uninit(weight.shape().dim(0));
    let dinput = kernel(&mut dweight, &mut dbias, s).expect("input gradient was asked for");
    ConvGrads {
        dinput,
        dbias: Tensor::from_vec(Shape::d1(dbias.len()), dbias),
        dweight: Tensor::from_vec(*weight.shape(), dweight),
    }
}

/// [`conv2d_backward_into`] with all three gradients drawn from `s`.
pub fn conv2d_backward_s(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> ConvGrads {
    grads_from_arena(weight, s, |dw, db, s| {
        conv2d_backward_into(input, weight, dout, pad, true, dw, db, s)
    })
}

/// Direct (loop-nest) convolution forward; every output slot is written.
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> Tensor {
    let [n, c, h, w] = dims4(input);
    let [f, cw, kh, kw] = dims4(weight);
    assert_eq!(c, cw, "conv2d channel mismatch");
    assert_eq!(bias.numel(), f, "conv2d bias size");
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    let id = input.data();
    let wd = weight.data();
    let bd = bias.data();
    let mut out = s.take_uninit(n * f * oh * ow);
    for (ni, ochunk) in out.chunks_mut(f * oh * ow).enumerate() {
        let ibase = ni * c * h * w;
        for fi in 0..f {
            let b = bd[fi];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ci in 0..c {
                        let wbase = ((fi * c + ci) * kh) * kw;
                        let icbase = ibase + ci * h * w;
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy >= h + pad {
                                continue;
                            }
                            let iy = iy - pad;
                            let wrow = wbase + ky * kw;
                            let irow = icbase + iy * w;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix >= w + pad {
                                    continue;
                                }
                                acc += wd[wrow + kx] * id[irow + (ix - pad)];
                            }
                        }
                    }
                    ochunk[(fi * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(Shape::d4(n, f, oh, ow), out)
}

/// Direct (loop-nest) convolution backward, all three gradients from `s`.
pub fn conv2d_backward_direct(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> ConvGrads {
    grads_from_arena(weight, s, |dw, db, s| {
        conv2d_backward_direct_into(input, weight, dout, pad, true, dw, db, s)
    })
}

/// Direct (loop-nest) convolution backward in the form of
/// [`conv2d_backward_into`]: `dL/dW` and `dL/db` into the caller's buffers
/// (every slot), `dL/d(input)` from `s` when `want_dx`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_backward_direct_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    want_dx: bool,
    dweight: &mut [f32],
    dbias: &mut [f32],
    s: &mut Scratch,
) -> Option<Tensor> {
    let [n, c, h, w] = dims4(input);
    let [f, _, kh, kw] = dims4(weight);
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    assert_eq!(
        dout.shape().dims(),
        &[n, f, oh, ow],
        "conv2d_backward dout shape"
    );
    assert_eq!(
        dweight.len(),
        f * c * kh * kw,
        "conv2d_backward dweight length"
    );
    assert_eq!(dbias.len(), f, "conv2d_backward dbias length");
    let id = input.data();
    let wd = weight.data();
    let dd = dout.data();

    // dinput: batch item by batch item, each its own slice.
    let dinput = want_dx.then(|| {
        let mut dinput = s.take(n * c * h * w);
        for (ni, dslice) in dinput.chunks_mut(c * h * w).enumerate() {
            let dbase = ni * f * oh * ow;
            for fi in 0..f {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dd[dbase + (fi * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ci in 0..c {
                            let wbase = ((fi * c + ci) * kh) * kw;
                            for ky in 0..kh {
                                let iy = oy + ky;
                                if iy < pad || iy >= h + pad {
                                    continue;
                                }
                                let iy = iy - pad;
                                for kx in 0..kw {
                                    let ix = ox + kx;
                                    if ix < pad || ix >= w + pad {
                                        continue;
                                    }
                                    dslice[(ci * h + iy) * w + (ix - pad)] +=
                                        g * wd[wbase + ky * kw + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(Shape::d4(n, c, h, w), dinput)
    });

    // dweight + dbias: filter by filter, each filter's gradient slice
    // reduced over the batch with a fixed-order loop.
    dweight.fill(0.0);
    dbias.fill(0.0);
    let per_filter = dweight.chunks_mut(c * kh * kw).zip(dbias.iter_mut());
    for (fi, (wslice, dbv)) in per_filter.enumerate() {
        for ni in 0..n {
            let dbase = ni * f * oh * ow + fi * oh * ow;
            let ibase = ni * c * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dd[dbase + oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    *dbv += g;
                    for ci in 0..c {
                        let icbase = ibase + ci * h * w;
                        let wcbase = ci * kh * kw;
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy >= h + pad {
                                continue;
                            }
                            let iy = iy - pad;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix >= w + pad {
                                    continue;
                                }
                                wslice[wcbase + ky * kw + kx] +=
                                    g * id[icbase + iy * w + (ix - pad)];
                            }
                        }
                    }
                }
            }
        }
    }
    dinput
}

/// Depthwise convolution: `input (N,C,H,W)` ⊛ `weight (C,1,KH,KW)` + `bias (C)`
/// → `(N,C,OH,OW)`; channel `c` of the output depends only on channel `c`
/// of the input (channel multiplier 1, as in MobileNet).
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> Tensor {
    let [n, c, h, w] = dims4(input);
    let [cw, one, kh, kw] = dims4(weight);
    assert_eq!(c, cw, "depthwise channel mismatch");
    assert_eq!(one, 1, "depthwise weight must be (C,1,KH,KW)");
    assert_eq!(bias.numel(), c);
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    let id = input.data();
    let wd = weight.data();
    let bd = bias.data();
    let mut out = s.take_uninit(n * c * oh * ow);
    for (ni, ochunk) in out.chunks_mut(c * oh * ow).enumerate() {
        for ci in 0..c {
            let icbase = (ni * c + ci) * h * w;
            let wbase = ci * kh * kw;
            let b = bd[ci];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ky in 0..kh {
                        let iy = oy + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let iy = iy - pad;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if ix < pad || ix >= w + pad {
                                continue;
                            }
                            acc += wd[wbase + ky * kw + kx] * id[icbase + iy * w + (ix - pad)];
                        }
                    }
                    ochunk[(ci * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(Shape::d4(n, c, oh, ow), out)
}

/// Backward pass of [`depthwise_conv2d`], all three gradients from `s`.
pub fn depthwise_conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    s: &mut Scratch,
) -> ConvGrads {
    grads_from_arena(weight, s, |dw, db, s| {
        depthwise_conv2d_backward_into(input, weight, dout, pad, true, dw, db, s)
    })
}

/// Backward pass of [`depthwise_conv2d`]: writes `dL/dW` and `dL/db` into
/// the caller's `dweight (C·KH·KW)` and `dbias (C)` (every slot) and returns
/// `dL/d(input)` from `s` when `want_dx`.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_backward_into(
    input: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    pad: usize,
    want_dx: bool,
    dweight: &mut [f32],
    dbias: &mut [f32],
    s: &mut Scratch,
) -> Option<Tensor> {
    let [n, c, h, w] = dims4(input);
    let [_, _, kh, kw] = dims4(weight);
    let (oh, ow) = out_hw(h, w, kh, kw, pad);
    assert_eq!(dout.shape().dims(), &[n, c, oh, ow]);
    assert_eq!(dweight.len(), c * kh * kw, "depthwise dweight length");
    assert_eq!(dbias.len(), c, "depthwise dbias length");
    let id = input.data();
    let wd = weight.data();
    let dd = dout.data();

    let dinput = want_dx.then(|| {
        let mut dinput = s.take(n * c * h * w);
        for (ni, dslice) in dinput.chunks_mut(c * h * w).enumerate() {
            for ci in 0..c {
                let dbase = (ni * c + ci) * oh * ow;
                let wbase = ci * kh * kw;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dd[dbase + oy * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        for ky in 0..kh {
                            let iy = oy + ky;
                            if iy < pad || iy >= h + pad {
                                continue;
                            }
                            let iy = iy - pad;
                            for kx in 0..kw {
                                let ix = ox + kx;
                                if ix < pad || ix >= w + pad {
                                    continue;
                                }
                                dslice[(ci * h + iy) * w + (ix - pad)] +=
                                    g * wd[wbase + ky * kw + kx];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(Shape::d4(n, c, h, w), dinput)
    });

    dweight.fill(0.0);
    dbias.fill(0.0);
    let per_channel = dweight.chunks_mut(kh * kw).zip(dbias.iter_mut());
    for (ci, (wslice, dbv)) in per_channel.enumerate() {
        for ni in 0..n {
            let dbase = (ni * c + ci) * oh * ow;
            let icbase = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dd[dbase + oy * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    *dbv += g;
                    for ky in 0..kh {
                        let iy = oy + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let iy = iy - pad;
                        for kx in 0..kw {
                            let ix = ox + kx;
                            if ix < pad || ix >= w + pad {
                                continue;
                            }
                            wslice[ky * kw + kx] += g * id[icbase + iy * w + (ix - pad)];
                        }
                    }
                }
            }
        }
    }
    dinput
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// Numerical gradient check of a scalar function of the conv output.
    fn num_grad(f: &mut dyn FnMut(&Tensor) -> f32, x: &Tensor, eps: f32) -> Tensor {
        let mut g = Tensor::zeros(*x.shape());
        let mut xp = x.clone();
        for i in 0..x.numel() {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let fp = f(&xp);
            xp.data_mut()[i] = orig - eps;
            let fm = f(&xp);
            xp.data_mut()[i] = orig;
            g.data_mut()[i] = (fp - fm) / (2.0 * eps);
        }
        g
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((x - y).abs() < tol, "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn conv2d_known_values() {
        let mut s = Scratch::new();
        // 1x1x3x3 input, single 2x2 filter of ones, no padding.
        let input = Tensor::from_fn(Shape::d4(1, 1, 3, 3), |i| i as f32);
        let weight = Tensor::full(Shape::d4(1, 1, 2, 2), 1.0);
        let bias = Tensor::zeros(Shape::d1(1));
        let out = conv2d_s(&input, &weight, &bias, 0, &mut s);
        assert_eq!(out.shape().dims(), &[1, 1, 2, 2]);
        // windows: [0,1,3,4]=8, [1,2,4,5]=12, [3,4,6,7]=20, [4,5,7,8]=24
        assert_eq!(out.data(), &[8.0, 12.0, 20.0, 24.0]);
    }

    #[test]
    fn conv2d_padding_preserves_size() {
        let mut s = Scratch::new();
        let input = Tensor::full(Shape::d4(2, 3, 5, 5), 1.0);
        let weight = Tensor::full(Shape::d4(4, 3, 3, 3), 0.1);
        let bias = Tensor::zeros(Shape::d1(4));
        let out = conv2d_s(&input, &weight, &bias, 1, &mut s);
        assert_eq!(out.shape().dims(), &[2, 4, 5, 5]);
        // Center pixel sees all 27 taps: 27 * 0.1 = 2.7.
        assert!((out.at(&[0, 0, 2, 2]) - 2.7).abs() < 1e-5);
        // Corner sees 12 taps (2x2 spatial x 3 channels).
        assert!((out.at(&[0, 0, 0, 0]) - 1.2).abs() < 1e-5);
    }

    #[test]
    fn conv2d_bias_applied() {
        let mut s = Scratch::new();
        let input = Tensor::zeros(Shape::d4(1, 1, 3, 3));
        let weight = Tensor::zeros(Shape::d4(2, 1, 3, 3));
        let bias = Tensor::from_vec(Shape::d1(2), vec![0.5, -1.5]);
        let out = conv2d_s(&input, &weight, &bias, 1, &mut s);
        assert!(out.data()[..9].iter().all(|&x| x == 0.5));
        assert!(out.data()[9..].iter().all(|&x| x == -1.5));
    }

    #[test]
    fn conv2d_gradients_match_numerical() {
        let mut s = Scratch::new();
        let mut rng = DetRng::seed_from_u64(10);
        let input = Tensor::randn(Shape::d4(2, 2, 4, 4), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(3, 2, 3, 3), 0.5, &mut rng);
        let bias = Tensor::randn(Shape::d1(3), 0.5, &mut rng);
        let pad = 1;
        // Scalar loss: sum of squares of the output.
        let loss = |out: &Tensor| 0.5 * out.sq_l2();
        let out = conv2d_s(&input, &weight, &bias, pad, &mut s);
        let dout = out.clone(); // d(0.5*||y||^2)/dy = y
        let grads = conv2d_backward_s(&input, &weight, &dout, pad, &mut s);

        let mut f_in = |x: &Tensor| loss(&conv2d_s(x, &weight, &bias, pad, &mut s));
        let ng_in = num_grad(&mut f_in, &input, 1e-2);
        assert_close(&grads.dinput, &ng_in, 0.05, "dinput");

        let mut f_w = |wt: &Tensor| loss(&conv2d_s(&input, wt, &bias, pad, &mut s));
        let ng_w = num_grad(&mut f_w, &weight, 1e-2);
        assert_close(&grads.dweight, &ng_w, 0.05, "dweight");

        let mut f_b = |bb: &Tensor| loss(&conv2d_s(&input, &weight, bb, pad, &mut s));
        let ng_b = num_grad(&mut f_b, &bias, 1e-2);
        assert_close(&grads.dbias, &ng_b, 0.05, "dbias");
    }

    #[test]
    fn dispatched_backward_matches_direct_backend() {
        let mut s = Scratch::new();
        // The dispatched implicit GEMM against the direct loops, the
        // reference.
        let mut rng = DetRng::seed_from_u64(14);
        let input = Tensor::randn(Shape::d4(4, 3, 8, 8), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(6, 3, 3, 3), 0.5, &mut rng);
        let bias = Tensor::randn(Shape::d1(6), 0.5, &mut rng);
        let out = conv2d_s(&input, &weight, &bias, 1, &mut s);
        let direct = conv2d_backward_direct(&input, &weight, &out, 1, &mut s);
        let dispatched = conv2d_backward_s(&input, &weight, &out, 1, &mut s);
        assert_close(&dispatched.dinput, &direct.dinput, 1e-3, "dinput");
        assert_close(&dispatched.dweight, &direct.dweight, 1e-2, "dweight");
        assert_close(&dispatched.dbias, &direct.dbias, 1e-2, "dbias");
    }

    #[test]
    fn depthwise_independent_channels() {
        let mut s = Scratch::new();
        // Two channels; filter for channel 1 is zero, so output channel 1
        // must be zero regardless of input.
        let mut rng = DetRng::seed_from_u64(11);
        let input = Tensor::randn(Shape::d4(1, 2, 4, 4), 1.0, &mut rng);
        let mut weight = Tensor::zeros(Shape::d4(2, 1, 3, 3));
        for i in 0..9 {
            weight.data_mut()[i] = 1.0; // channel 0 filter = ones
        }
        let bias = Tensor::zeros(Shape::d1(2));
        let out = depthwise_conv2d(&input, &weight, &bias, 1, &mut s);
        assert_eq!(out.shape().dims(), &[1, 2, 4, 4]);
        assert!(
            out.data()[16..].iter().all(|&x| x == 0.0),
            "channel 1 must be zero"
        );
        assert!(out.data()[..16].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn depthwise_gradients_match_numerical() {
        let mut s = Scratch::new();
        let mut rng = DetRng::seed_from_u64(12);
        let input = Tensor::randn(Shape::d4(2, 3, 4, 4), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(3, 1, 3, 3), 0.5, &mut rng);
        let bias = Tensor::randn(Shape::d1(3), 0.5, &mut rng);
        let pad = 1;
        let loss = |out: &Tensor| 0.5 * out.sq_l2();
        let out = depthwise_conv2d(&input, &weight, &bias, pad, &mut s);
        let grads = depthwise_conv2d_backward(&input, &weight, &out, pad, &mut s);

        let mut f_in = |x: &Tensor| loss(&depthwise_conv2d(x, &weight, &bias, pad, &mut s));
        let ng_in = num_grad(&mut f_in, &input, 1e-2);
        assert_close(&grads.dinput, &ng_in, 0.05, "dw dinput");

        let mut f_w = |wt: &Tensor| loss(&depthwise_conv2d(&input, wt, &bias, pad, &mut s));
        let ng_w = num_grad(&mut f_w, &weight, 1e-2);
        assert_close(&grads.dweight, &ng_w, 0.05, "dw dweight");

        let mut f_b = |bb: &Tensor| loss(&depthwise_conv2d(&input, &weight, bb, pad, &mut s));
        let ng_b = num_grad(&mut f_b, &bias, 1e-2);
        assert_close(&grads.dbias, &ng_b, 0.05, "dw dbias");
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv2d_channel_mismatch_panics() {
        let mut s = Scratch::new();
        let input = Tensor::zeros(Shape::d4(1, 2, 4, 4));
        let weight = Tensor::zeros(Shape::d4(1, 3, 3, 3));
        let bias = Tensor::zeros(Shape::d1(1));
        conv2d_s(&input, &weight, &bias, 1, &mut s);
    }

    /// The implicit GEMM refuses malformed operands in the same words as
    /// the direct loops.
    fn gemm_regime_operands() -> (Tensor, Tensor, Tensor, Tensor) {
        let input = Tensor::zeros(Shape::d4(8, 4, 8, 8));
        let weight = Tensor::zeros(Shape::d4(8, 4, 3, 3));
        let dout = Tensor::zeros(Shape::d4(8, 8, 8, 8));
        (input, weight, Tensor::zeros(Shape::d1(8)), dout)
    }

    #[test]
    #[should_panic(expected = "bias size")]
    fn gemm_regime_bias_size_panics() {
        let (input, weight, _, _) = gemm_regime_operands();
        let bias = Tensor::zeros(Shape::d1(7));
        conv2d_s(&input, &weight, &bias, 1, &mut Scratch::new());
    }

    #[test]
    #[should_panic(expected = "dout shape")]
    fn gemm_regime_dout_shape_panics() {
        let (input, weight, _, _) = gemm_regime_operands();
        let dout = Tensor::zeros(Shape::d4(8, 8, 8, 7));
        conv2d_backward_s(&input, &weight, &dout, 1, &mut Scratch::new());
    }

    #[test]
    fn conv2d_deterministic() {
        let mut s = Scratch::new();
        let mut rng = DetRng::seed_from_u64(13);
        let input = Tensor::randn(Shape::d4(8, 4, 8, 8), 1.0, &mut rng);
        let weight = Tensor::randn(Shape::d4(8, 4, 3, 3), 0.5, &mut rng);
        let bias = Tensor::randn(Shape::d1(8), 0.5, &mut rng);
        let a = conv2d_s(&input, &weight, &bias, 1, &mut s);
        let b = conv2d_s(&input, &weight, &bias, 1, &mut s);
        assert_eq!(a.data(), b.data());
    }
}
