//! 2×2 max-pooling with stride 2 (the only pooling the paper's models use).

use crate::tensor::Tensor;

/// Forward max-pool of `input (N,C,H,W)` into caller-owned `out` and `arg`,
/// both of length `N*C*(H/2)*(W/2)`: `arg` stores, for each output element,
/// the flat index (within the whole input tensor) of the winning input
/// element — consumed by [`maxpool2_backward_into`]. Every slot is
/// overwritten, so uninitialized scratch storage is fine.
///
/// Odd trailing rows/columns are dropped (floor semantics), matching the
/// common framework default.
pub fn maxpool2_into(input: &Tensor, out: &mut [f32], arg: &mut [u32]) {
    let [n, c, h, w] = [
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    ];
    let (oh, ow) = (h / 2, w / 2);
    assert!(oh > 0 && ow > 0, "input too small to pool");
    assert_eq!(out.len(), n * c * oh * ow, "maxpool2 out length");
    assert_eq!(arg.len(), n * c * oh * ow, "maxpool2 argmax length");
    let id = input.data();
    let planes = out.chunks_mut(oh * ow).zip(arg.chunks_mut(oh * ow));
    for (nc, (ochunk, achunk)) in planes.enumerate() {
        let ibase = nc * h * w;
        for oy in 0..oh {
            for ox in 0..ow {
                // Start from the window's own first element, not from -inf
                // at index 0: a window of NaNs (or of -inf) then keeps its
                // argmax inside itself and its NaN in the output.
                let first = ibase + oy * 2 * w + ox * 2;
                let (mut best, mut best_i) = (id[first], first);
                for idx in [first + 1, first + w, first + w + 1] {
                    let v = id[idx];
                    if v > best {
                        best = v;
                        best_i = idx;
                    }
                }
                ochunk[oy * ow + ox] = best;
                achunk[oy * ow + ox] = best_i as u32;
            }
        }
    }
}

/// Backward max-pool: routes each output gradient to the argmax position
/// of a caller-owned, **pre-zeroed** buffer (the scatter accumulates).
pub fn maxpool2_backward_into(dout: &Tensor, argmax: &[u32], dinput: &mut [f32]) {
    assert_eq!(dout.numel(), argmax.len(), "dout/argmax length mismatch");
    for (&a, &g) in argmax.iter().zip(dout.data()) {
        dinput[a as usize] += g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn pool_known_values() {
        let input = Tensor::from_vec(
            Shape::d4(1, 1, 4, 4),
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
        );
        let (mut out, mut arg) = ([f32::NAN; 4], [u32::MAX; 4]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out, [4.0, 8.0, -1.0, 0.75]);
        assert_eq!(arg, [5, 7, 8, 15]);
    }

    #[test]
    fn pool_odd_dims_floor() {
        let input = Tensor::from_fn(Shape::d4(1, 1, 5, 5), |i| i as f32);
        // Last row/col dropped, so 2x2 outputs (the length assert holds);
        // max of window (0..2, 0..2) is index 6 -> 6.0.
        let (mut out, mut arg) = ([f32::NAN; 4], [u32::MAX; 4]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out[0], 6.0);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let input = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1.0, 9.0, 2.0, 3.0]);
        let (mut out, mut arg) = ([f32::NAN; 1], [u32::MAX; 1]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out, [9.0]);
        let dout = Tensor::from_vec(Shape::d4(1, 1, 1, 1), vec![5.0]);
        let mut din = [0.0; 4];
        maxpool2_backward_into(&dout, &arg, &mut din);
        assert_eq!(din, [0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn forward_backward_gradient_check() {
        use crate::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(21);
        let input = Tensor::randn(Shape::d4(2, 3, 4, 4), 1.0, &mut rng);
        let (mut out, mut arg) = (vec![f32::NAN; 24], vec![u32::MAX; 24]);
        maxpool2_into(&input, &mut out, &mut arg);
        // Loss = 0.5 ||out||^2, so dout = out.
        let dout = Tensor::from_vec(Shape::d4(2, 3, 2, 2), out);
        let mut din = vec![0.0; input.numel()];
        maxpool2_backward_into(&dout, &arg, &mut din);
        // Numerical check with small eps (max is locally linear away from ties).
        let eps = 1e-3;
        let mut loss = |x: &Tensor| {
            let mut out = [f32::NAN; 24];
            maxpool2_into(x, &mut out, &mut arg);
            0.5 * out.iter().map(|v| v * v).sum::<f32>()
        };
        let mut xp = input.clone();
        for i in (0..input.numel()).step_by(7) {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let fp = loss(&xp);
            xp.data_mut()[i] = orig - eps;
            let fm = loss(&xp);
            xp.data_mut()[i] = orig;
            let ng = (fp - fm) / (2.0 * eps);
            assert!((din[i] - ng).abs() < 0.02, "idx {i}: {} vs {ng}", din[i]);
        }
    }

    /// A window with no finite maximum still belongs to itself: its argmax
    /// is one of its own four elements (so its gradient goes back to its own
    /// sample) and an all-NaN window outputs NaN rather than hiding it.
    #[test]
    fn windows_without_a_finite_maximum_keep_their_argmax_and_their_nan() {
        let mut input = Tensor::from_fn(Shape::d4(2, 1, 2, 4), |i| i as f32);
        // Second sample: first window all NaN, second window all -inf.
        for (at, v) in [(8, f32::NAN), (12, f32::NAN), (10, f32::NEG_INFINITY)] {
            input.data_mut()[at] = v;
            input.data_mut()[at + 1] = v;
        }
        input.data_mut()[14] = f32::NEG_INFINITY;
        input.data_mut()[15] = f32::NEG_INFINITY;
        let (mut out, mut arg) = ([0.0; 4], [u32::MAX; 4]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(&out[..2], &[5.0, 7.0]);
        assert_eq!(&arg[..2], &[5, 7]);
        assert!(out[2].is_nan(), "the NaN reaches the output: {}", out[2]);
        assert_eq!(out[3], f32::NEG_INFINITY);
        assert_eq!(&arg[2..], &[8, 10], "argmax inside its own window");
        let dout = Tensor::from_vec(Shape::d4(2, 1, 1, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let mut din = [0.0; 16];
        maxpool2_backward_into(&dout, &arg, &mut din);
        assert_eq!(din[0], 0.0, "nothing lands on sample 0's first pixel");
        assert_eq!((din[8], din[10]), (3.0, 4.0));
    }

    #[test]
    fn pool_channels_independent() {
        let mut input = Tensor::zeros(Shape::d4(1, 2, 2, 2));
        input.data_mut()[0] = 7.0; // channel 0
        input.data_mut()[4] = -7.0; // channel 1 (all others 0)
        let (mut out, mut arg) = ([f32::NAN; 2], [u32::MAX; 2]);
        maxpool2_into(&input, &mut out, &mut arg);
        assert_eq!(out, [7.0, 0.0]);
    }
}
