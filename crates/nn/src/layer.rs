//! Neural-network layers with explicit forward/backward passes.
//!
//! Each layer has one `forward` and one `backward`. Tensors move by value:
//! `forward` keeps its input (or whatever else `backward` needs) by
//! ownership rather than by copy, `backward` consumes that cache, fills the
//! layer's parameter gradients (overwriting, not accumulating — there is
//! exactly one backward per forward) and returns the gradient w.r.t. the
//! layer input — unless the caller has no use for it (`want_dx == false`:
//! the model's first layer), in which case it is not computed at all. Every
//! buffer a layer produces comes from the caller's [`Scratch`] arena and
//! every tensor it has finished with goes back there, so a training step
//! puts back exactly what it took.

use dlion_tensor::ops::{
    conv2d_backward_into, conv2d_s, depthwise_conv2d, depthwise_conv2d_backward_into, matmul_into,
    matmul_nt_into, matmul_tn_into, maxpool2_backward_into, maxpool2_into,
};
use dlion_tensor::{DetRng, Scratch, Shape, Tensor};

/// A trainable layer in a [`crate::Model`].
pub trait Layer: Send {
    /// Human-readable layer kind, for debugging and parameter naming.
    fn name(&self) -> &'static str;

    /// Forward pass: consumes the input, caches what `backward` needs and
    /// returns the output, its storage drawn from `s`.
    fn forward(&mut self, x: Tensor, s: &mut Scratch) -> Tensor;

    /// Backward pass: given dL/d(output), fill the parameter gradients,
    /// recycle the consumed tensors into `s` and return dL/d(input) —
    /// `Some` exactly when `want_dx`; a layer whose input gradient nobody
    /// reads skips computing it. Must be called after `forward`.
    fn backward(&mut self, dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor>;

    /// Number of parameter tensors (0 for activations/pools).
    fn param_count(&self) -> usize {
        0
    }

    /// The `i`-th parameter tensor.
    fn param(&self, _i: usize) -> &Tensor {
        panic!("{} has no parameters", self.name())
    }

    /// Mutable access to the `i`-th parameter tensor.
    fn param_mut(&mut self, _i: usize) -> &mut Tensor {
        panic!("{} has no parameters", self.name())
    }

    /// The gradient of the `i`-th parameter from the last backward pass.
    fn grad(&self, _i: usize) -> &Tensor {
        panic!("{} has no parameters", self.name())
    }

    /// Clone into a fresh box. With copy-on-write tensors this shares every
    /// parameter buffer until one side mutates, so cloning a built model
    /// across n workers costs refcount bumps, not n weight copies.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// ---------------------------------------------------------------- Dense

/// Fully-connected layer: `y = x·W + b` with `x: N×In`, `W: In×Out`.
#[derive(Clone)]
pub struct Dense {
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    cached_x: Option<Tensor>,
}

impl Dense {
    pub fn new(input: usize, output: usize, rng: &mut DetRng) -> Self {
        Dense {
            w: Tensor::he_init(Shape::d2(input, output), input, rng),
            b: Tensor::zeros(Shape::d1(output)),
            dw: Tensor::zeros(Shape::d2(input, output)),
            db: Tensor::zeros(Shape::d1(output)),
            cached_x: None,
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "dense expects rank-2 input");
        let (n, out) = (x.shape().dim(0), self.w.shape().dim(1));
        let mut y = s.take_uninit(n * out);
        matmul_into(&x, &self.w, &mut y);
        let bd = self.b.data();
        for row in y.chunks_mut(out) {
            for (v, &b) in row.iter_mut().zip(bd) {
                *v += b;
            }
        }
        self.cached_x = Some(x);
        Tensor::from_vec(Shape::d2(n, out), y)
    }

    fn backward(&mut self, dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor> {
        let x = self.cached_x.take().expect("backward without forward");
        // dW/db overwrite their persistent buffers in place.
        matmul_tn_into(&x, &dout, self.dw.data_mut());
        let (n, out) = (dout.shape().dim(0), dout.shape().dim(1));
        self.db.fill_zero();
        // Column sums, row-outer: each db[c] adds its rows in ascending order.
        let db = self.db.data_mut();
        for row in dout.data().chunks_exact(out) {
            for (b, &g) in db.iter_mut().zip(row) {
                *b += g;
            }
        }
        let dx = want_dx.then(|| {
            let inf = self.w.shape().dim(0);
            let mut dx = s.take_uninit(n * inf);
            matmul_nt_into(&dout, &self.w, &mut dx);
            Tensor::from_vec(Shape::d2(n, inf), dx)
        });
        s.put_tensor(x);
        s.put_tensor(dout);
        dx
    }

    fn param_count(&self) -> usize {
        2
    }

    fn param(&self, i: usize) -> &Tensor {
        match i {
            0 => &self.w,
            1 => &self.b,
            _ => panic!("dense param index {i}"),
        }
    }

    fn param_mut(&mut self, i: usize) -> &mut Tensor {
        match i {
            0 => &mut self.w,
            1 => &mut self.b,
            _ => panic!("dense param index {i}"),
        }
    }

    fn grad(&self, i: usize) -> &Tensor {
        match i {
            0 => &self.dw,
            1 => &self.db,
            _ => panic!("dense grad index {i}"),
        }
    }
}

// ---------------------------------------------------------------- Conv2d

/// Standard 2-D convolution layer (stride 1, configurable zero padding).
#[derive(Clone)]
pub struct Conv2d {
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    pad: usize,
    cached_x: Option<Tensor>,
}

impl Conv2d {
    pub fn new(in_ch: usize, out_ch: usize, k: usize, pad: usize, rng: &mut DetRng) -> Self {
        let fan_in = in_ch * k * k;
        Conv2d {
            w: Tensor::he_init(Shape::d4(out_ch, in_ch, k, k), fan_in, rng),
            b: Tensor::zeros(Shape::d1(out_ch)),
            dw: Tensor::zeros(Shape::d4(out_ch, in_ch, k, k)),
            db: Tensor::zeros(Shape::d1(out_ch)),
            pad,
            cached_x: None,
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let y = conv2d_s(&x, &self.w, &self.b, self.pad, s);
        // Cache by ownership — no clone on the hot path.
        self.cached_x = Some(x);
        y
    }

    fn backward(&mut self, dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor> {
        let x = self.cached_x.take().expect("backward without forward");
        // dW/db overwrite their persistent buffers in place.
        let (dw, db) = (self.dw.data_mut(), self.db.data_mut());
        let dx = conv2d_backward_into(&x, &self.w, &dout, self.pad, want_dx, dw, db, s);
        s.put_tensor(x);
        s.put_tensor(dout);
        dx
    }

    fn param_count(&self) -> usize {
        2
    }

    fn param(&self, i: usize) -> &Tensor {
        match i {
            0 => &self.w,
            1 => &self.b,
            _ => panic!("conv param index {i}"),
        }
    }

    fn param_mut(&mut self, i: usize) -> &mut Tensor {
        match i {
            0 => &mut self.w,
            1 => &mut self.b,
            _ => panic!("conv param index {i}"),
        }
    }

    fn grad(&self, i: usize) -> &Tensor {
        match i {
            0 => &self.dw,
            1 => &self.db,
            _ => panic!("conv grad index {i}"),
        }
    }
}

// ---------------------------------------------------------------- Depthwise

/// Depthwise 2-D convolution (channel multiplier 1) — the MobileNet building
/// block; combine with a 1×1 [`Conv2d`] for a depthwise-separable layer.
#[derive(Clone)]
pub struct DepthwiseConv2d {
    w: Tensor,
    b: Tensor,
    dw: Tensor,
    db: Tensor,
    pad: usize,
    cached_x: Option<Tensor>,
}

impl DepthwiseConv2d {
    pub fn new(channels: usize, k: usize, pad: usize, rng: &mut DetRng) -> Self {
        let fan_in = k * k;
        DepthwiseConv2d {
            w: Tensor::he_init(Shape::d4(channels, 1, k, k), fan_in, rng),
            b: Tensor::zeros(Shape::d1(channels)),
            dw: Tensor::zeros(Shape::d4(channels, 1, k, k)),
            db: Tensor::zeros(Shape::d1(channels)),
            pad,
            cached_x: None,
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> &'static str {
        "depthwise_conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let y = depthwise_conv2d(&x, &self.w, &self.b, self.pad, s);
        self.cached_x = Some(x);
        y
    }

    fn backward(&mut self, dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor> {
        let x = self.cached_x.take().expect("backward without forward");
        let (dw, db) = (self.dw.data_mut(), self.db.data_mut());
        let dx = depthwise_conv2d_backward_into(&x, &self.w, &dout, self.pad, want_dx, dw, db, s);
        s.put_tensor(x);
        s.put_tensor(dout);
        dx
    }

    fn param_count(&self) -> usize {
        2
    }

    fn param(&self, i: usize) -> &Tensor {
        match i {
            0 => &self.w,
            1 => &self.b,
            _ => panic!("dw param index {i}"),
        }
    }

    fn param_mut(&mut self, i: usize) -> &mut Tensor {
        match i {
            0 => &mut self.w,
            1 => &mut self.b,
            _ => panic!("dw param index {i}"),
        }
    }

    fn grad(&self, i: usize) -> &Tensor {
        match i {
            0 => &self.dw,
            1 => &self.db,
            _ => panic!("dw grad index {i}"),
        }
    }
}

/// What a parameter-free layer does when nobody wants its input gradient:
/// put back what it holds and return nothing.
fn recycle<const N: usize>(s: &mut Scratch, done: [Tensor; N]) -> Option<Tensor> {
    done.into_iter().for_each(|t| s.put_tensor(t));
    None
}

// ---------------------------------------------------------------- ReLU

/// ReLU activation.
#[derive(Clone, Default)]
pub struct Relu {
    cached_x: Option<Tensor>,
}

impl Relu {
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let mut y = s.take_uninit(x.numel());
        for (o, &v) in y.iter_mut().zip(x.data()) {
            *o = v.max(0.0);
        }
        let shape = *x.shape();
        self.cached_x = Some(x);
        Tensor::from_vec(shape, y)
    }

    fn backward(&mut self, mut dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor> {
        let x = self.cached_x.take().expect("backward without forward");
        if !want_dx {
            return recycle(s, [x, dout]);
        }
        // Mask in place: zero allocations, zero copies.
        for (g, &v) in dout.data_mut().iter_mut().zip(x.data()) {
            if v <= 0.0 {
                *g = 0.0;
            }
        }
        s.put_tensor(x);
        Some(dout)
    }
}

// ---------------------------------------------------------------- MaxPool

/// 2×2 stride-2 max pooling.
#[derive(Clone, Default)]
pub struct MaxPool2 {
    cached_shape: Option<Shape>,
    cached_argmax: Option<Vec<u32>>,
    /// Retired argmax storage, reused by the next forward (the arena only
    /// pools `Vec<f32>`).
    spare_argmax: Vec<u32>,
}

impl MaxPool2 {
    pub fn new() -> Self {
        MaxPool2::default()
    }
}

impl Layer for MaxPool2 {
    fn name(&self) -> &'static str {
        "maxpool2"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let [n, c, h, w] = [
            x.shape().dim(0),
            x.shape().dim(1),
            x.shape().dim(2),
            x.shape().dim(3),
        ];
        let (oh, ow) = (h / 2, w / 2);
        let len = n * c * oh * ow;
        let mut out = s.take_uninit(len);
        let mut arg = std::mem::take(&mut self.spare_argmax);
        arg.resize(len, 0);
        maxpool2_into(&x, &mut out, &mut arg);
        self.cached_shape = Some(*x.shape());
        self.cached_argmax = Some(arg);
        s.put_tensor(x);
        Tensor::from_vec(Shape::d4(n, c, oh, ow), out)
    }

    fn backward(&mut self, dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor> {
        let shape = self.cached_shape.take().expect("backward without forward");
        self.spare_argmax = self.cached_argmax.take().expect("backward without forward");
        if !want_dx {
            return recycle(s, [dout]);
        }
        let mut din = s.take_uninit(shape.numel());
        maxpool2_backward_into(&dout, &self.spare_argmax, &shape, &mut din);
        s.put_tensor(dout);
        Some(Tensor::from_vec(shape, din))
    }
}

// ---------------------------------------------------------------- Flatten

/// Flattens `(N, ...)` to `(N, features)`.
#[derive(Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    // Flatten is a pure metadata change: with owned tensors both
    // directions are allocation- and copy-free.
    fn forward(&mut self, x: Tensor, _s: &mut Scratch) -> Tensor {
        let n = x.shape().dim(0);
        let f = x.numel() / n;
        self.cached_shape = Some(*x.shape());
        x.reshape(Shape::d2(n, f))
    }

    fn backward(&mut self, dout: Tensor, want_dx: bool, s: &mut Scratch) -> Option<Tensor> {
        let shape = self.cached_shape.take().expect("backward without forward");
        if !want_dx {
            return recycle(s, [dout]);
        }
        Some(dout.reshape(shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Copy `x` into arena storage, the way `Dataset::batch_scratch` feeds a
    /// model: the layer that consumes it recycles it into the same arena.
    fn feed(x: &Tensor, s: &mut Scratch) -> Tensor {
        let mut buf = s.take_uninit(x.numel());
        buf.copy_from_slice(x.data());
        Tensor::from_vec(*x.shape(), buf)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn num_grad_param(
        layer: &mut dyn Layer,
        x: &Tensor,
        pidx: usize,
        flat: usize,
        eps: f32,
        s: &mut Scratch,
    ) -> f32 {
        let mut loss = |l: &mut dyn Layer| 0.5 * l.forward(x.clone(), s).sq_l2();
        let orig = layer.param(pidx).data()[flat];
        layer.param_mut(pidx).data_mut()[flat] = orig + eps;
        let fp = loss(layer);
        layer.param_mut(pidx).data_mut()[flat] = orig - eps;
        let fm = loss(layer);
        layer.param_mut(pidx).data_mut()[flat] = orig;
        (fp - fm) / (2.0 * eps)
    }

    #[test]
    fn dense_forward_known() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut d = Dense::new(2, 3, &mut rng);
        // Overwrite with known weights.
        d.param_mut(0)
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        d.param_mut(1).data_mut().copy_from_slice(&[0.1, 0.2, 0.3]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 1.0]);
        let y = d.forward(x, &mut Scratch::new());
        assert_eq!(y.data(), &[5.1, 7.2, 9.3]);
    }

    /// The bias gradient is the column sums of `dout`, each column adding
    /// its rows in ascending order — bit for bit.
    #[test]
    fn dense_bias_gradient_adds_rows_in_order() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut s = Scratch::new();
        let mut d = Dense::new(6, 5, &mut rng);
        let x = Tensor::randn(Shape::d2(37, 6), 1.0, &mut rng);
        let dout = Tensor::randn(Shape::d2(37, 5), 100.0, &mut rng);
        let mut expect = [0.0f32; 5];
        for r in 0..37 {
            for (c, e) in expect.iter_mut().enumerate() {
                *e += dout.at(&[r, c]);
            }
        }
        d.forward(feed(&x, &mut s), &mut s);
        d.backward(feed(&dout, &mut s), true, &mut s);
        assert_eq!(
            bits(d.grad(1)),
            bits(&Tensor::from_vec(Shape::d1(5), expect.to_vec()))
        );
    }

    #[test]
    fn dense_gradcheck() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut s = Scratch::new();
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(Shape::d2(5, 4), 1.0, &mut rng);
        let y = d.forward(x.clone(), &mut s);
        let dx = d.backward(y, true, &mut s).unwrap(); // loss = 0.5||y||^2 -> dout = y
        for pidx in 0..2 {
            for flat in 0..d.param(pidx).numel() {
                let ng = num_grad_param(&mut d, &x, pidx, flat, 1e-2, &mut s);
                // Recompute analytic grads after probing (probe restores params).
                let yy = d.forward(x.clone(), &mut s);
                d.backward(yy, true, &mut s);
                let ag = d.grad(pidx).data()[flat];
                assert!((ag - ng).abs() < 0.05, "p{pidx}[{flat}]: {ag} vs {ng}");
            }
        }
        // Input gradient via a fresh numerical probe.
        let eps = 1e-2;
        let mut xp = x.clone();
        for i in 0..x.numel() {
            let orig = xp.data()[i];
            xp.data_mut()[i] = orig + eps;
            let fp = 0.5 * d.forward(xp.clone(), &mut s).sq_l2();
            xp.data_mut()[i] = orig - eps;
            let fm = 0.5 * d.forward(xp.clone(), &mut s).sq_l2();
            xp.data_mut()[i] = orig;
            let ng = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.data()[i] - ng).abs() < 0.05,
                "dx[{i}]: {} vs {ng}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn relu_layer_roundtrip() {
        let mut s = Scratch::new();
        let mut l = Relu::new();
        let x = Tensor::from_vec(Shape::d2(1, 4), vec![-1.0, 0.0, 2.0, -3.0]);
        let y = l.forward(x, &mut s);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        // The gradient passes only where the *input* was positive.
        let dx = l.backward(Tensor::full(Shape::d2(1, 4), 1.0), true, &mut s);
        let dx = dx.unwrap();
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(l.param_count(), 0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut s = Scratch::new();
        let mut l = Flatten::new();
        let x = Tensor::from_fn(Shape::d4(2, 3, 2, 2), |i| i as f32);
        let y = l.forward(x.clone(), &mut s);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let dx = l.backward(y, true, &mut s).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 3, 2, 2]);
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    fn maxpool_layer_backward_shape() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut s = Scratch::new();
        let mut l = MaxPool2::new();
        let x = Tensor::randn(Shape::d4(2, 3, 4, 4), 1.0, &mut rng);
        let y = l.forward(x, &mut s);
        assert_eq!(y.shape().dims(), &[2, 3, 2, 2]);
        let dx = l.backward(y, true, &mut s).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 3, 4, 4]);
        // Exactly one nonzero per pooling window (barring exact ties).
        let nz = dx.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nz, 2 * 3 * 2 * 2);
    }

    #[test]
    fn conv_layer_shapes_and_params() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut s = Scratch::new();
        let mut l = Conv2d::new(3, 8, 3, 1, &mut rng);
        assert_eq!(l.param_count(), 2);
        assert_eq!(l.param(0).shape().dims(), &[8, 3, 3, 3]);
        let x = Tensor::randn(Shape::d4(2, 3, 6, 6), 1.0, &mut rng);
        let y = l.forward(x, &mut s);
        assert_eq!(y.shape().dims(), &[2, 8, 6, 6]);
        let dx = l.backward(y, true, &mut s).unwrap();
        assert_eq!(dx.shape().dims(), &[2, 3, 6, 6]);
        assert_eq!(l.grad(0).shape().dims(), &[8, 3, 3, 3]);
    }

    #[test]
    fn depthwise_layer_shapes() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut s = Scratch::new();
        let mut l = DepthwiseConv2d::new(4, 3, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 4, 5, 5), 1.0, &mut rng);
        let y = l.forward(x, &mut s);
        assert_eq!(y.shape().dims(), &[1, 4, 5, 5]);
        let dx = l.backward(y, true, &mut s).unwrap();
        assert_eq!(dx.shape().dims(), &[1, 4, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut l = Relu::new();
        l.backward(Tensor::zeros(Shape::d1(3)), true, &mut Scratch::new());
    }

    /// A layer told that nobody reads its input gradient returns none,
    /// leaves its parameter gradients bit-equal to a full backward's, and
    /// still puts back everything it took: the arena holds the same bytes
    /// from pass to pass.
    #[test]
    fn without_the_input_gradient_the_parameter_gradients_are_the_same_bits() {
        let mut r = DetRng::seed_from_u64(81);
        let cases: Vec<(Box<dyn Layer>, Shape)> = vec![
            (Box::new(Dense::new(6, 4, &mut r)), Shape::d2(5, 6)),
            // A multi-sample batch, then batch 1.
            (
                Box::new(Conv2d::new(3, 8, 3, 1, &mut r)),
                Shape::d4(4, 3, 8, 8),
            ),
            (
                Box::new(Conv2d::new(1, 2, 3, 1, &mut r)),
                Shape::d4(1, 1, 4, 4),
            ),
            (
                Box::new(Conv2d::new(8, 5, 1, 0, &mut r)),
                Shape::d4(6, 8, 5, 5),
            ),
            (
                Box::new(DepthwiseConv2d::new(4, 3, 1, &mut r)),
                Shape::d4(2, 4, 6, 6),
            ),
            (Box::new(Relu::new()), Shape::d2(7, 9)),
            (Box::new(MaxPool2::new()), Shape::d4(2, 3, 6, 6)),
            (Box::new(Flatten::new()), Shape::d4(2, 3, 2, 2)),
        ];
        for (mut full, shape) in cases {
            let mut lean = full.clone();
            let name = full.name();
            let x = Tensor::randn(shape, 1.0, &mut r);
            let (mut fs, mut ls) = (Scratch::new(), Scratch::new());
            let mut held = 0;
            for pass in 0..3 {
                let y = full.forward(feed(&x, &mut fs), &mut fs);
                let dx = full.backward(y, true, &mut fs).expect("asked for");
                assert_eq!(dx.shape(), x.shape(), "{name}");
                fs.put_tensor(dx);
                let y = lean.forward(feed(&x, &mut ls), &mut ls);
                assert!(lean.backward(y, false, &mut ls).is_none(), "{name}");
                for p in 0..full.param_count() {
                    assert!(bits(full.grad(p)) == bits(lean.grad(p)), "{name} grad {p}");
                }
                if pass == 0 {
                    held = ls.held_bytes();
                }
                assert_eq!(ls.held_bytes(), held, "{name}: arena moved in pass {pass}");
                assert!(held <= fs.held_bytes(), "{name}");
            }
        }
    }

    /// What buffer recycling must never do is change a result: for every
    /// layer kind and both conv backends, three passes on a *warm* arena —
    /// every buffer it hands out is a recycled one, NaN-poisoned by
    /// `Scratch::put` in debug builds — equal three passes on fresh arenas
    /// bit for bit (outputs, input gradients, parameter gradients). So
    /// every `take_uninit` buffer is fully overwritten, and the warm arena
    /// ends each pass holding what it held before it: a step puts back
    /// exactly what it took.
    #[test]
    fn warm_poisoned_arena_matches_fresh_arena() {
        fn check(mut warm: Box<dyn Layer>, x: &Tensor, expect_reuse: bool) {
            let mut fresh = warm.clone();
            let name = warm.name();
            let mut ws = Scratch::new();
            let run = |l: &mut Box<dyn Layer>, x: &Tensor, s: &mut Scratch| {
                let y = l.forward(feed(x, s), s);
                let y_bits = bits(&y);
                let dx = l.backward(y, true, s).unwrap(); // loss = 0.5||y||^2 -> dout = y
                let dx_bits = bits(&dx);
                s.put_tensor(dx);
                let grads: Vec<_> = (0..l.param_count()).map(|p| bits(l.grad(p))).collect();
                (y_bits, dx_bits, grads)
            };
            run(&mut warm, x, &mut ws); // warm-up: fills and poisons the arena
            let held = ws.held_bytes();
            for pass in 1..=3 {
                // A different input each pass, so a slot left over from the
                // previous pass is wrong even without the NaN poison.
                let xp = x.map(|v| v * pass as f32);
                let got = run(&mut warm, &xp, &mut ws);
                let want = run(&mut fresh, &xp, &mut Scratch::new());
                assert!(got == want, "{name}: pass {pass} differs on a warm arena");
                assert_eq!(ws.held_bytes(), held, "{name}: arena grew in pass {pass}");
            }
            if expect_reuse {
                assert!(ws.reuse_ratio() > 0.7, "{name}: {}", ws.reuse_ratio());
            }
        }

        let mut r = DetRng::seed_from_u64(77);
        let mut xr = DetRng::seed_from_u64(78);
        check(
            Box::new(Dense::new(6, 4, &mut r)),
            &Tensor::randn(Shape::d2(5, 6), 1.0, &mut xr),
            true,
        );
        // A multi-sample batch...
        check(
            Box::new(Conv2d::new(3, 8, 3, 1, &mut r)),
            &Tensor::randn(Shape::d4(4, 3, 8, 8), 1.0, &mut xr),
            true,
        );
        // ...and batch 1: the same implicit GEMM.
        check(
            Box::new(Conv2d::new(1, 2, 3, 1, &mut r)),
            &Tensor::randn(Shape::d4(1, 1, 4, 4), 1.0, &mut xr),
            true,
        );
        check(
            Box::new(DepthwiseConv2d::new(4, 3, 1, &mut r)),
            &Tensor::randn(Shape::d4(2, 4, 6, 6), 1.0, &mut xr),
            true,
        );
        check(
            Box::new(Relu::new()),
            &Tensor::randn(Shape::d2(7, 9), 1.0, &mut xr),
            true,
        );
        check(
            Box::new(MaxPool2::new()),
            &Tensor::randn(Shape::d4(2, 3, 6, 6), 1.0, &mut xr),
            true,
        );
        // Pure metadata: takes nothing from the arena itself.
        check(
            Box::new(Flatten::new()),
            &Tensor::randn(Shape::d4(2, 3, 2, 2), 1.0, &mut xr),
            false,
        );
    }
}
