//! Neural-network layers with explicit forward/backward passes.
//!
//! Each layer caches whatever it needs from the forward pass; `backward`
//! consumes that cache, fills the layer's parameter gradients (overwriting,
//! not accumulating — there is exactly one backward per forward) and
//! returns the gradient w.r.t. the layer input.

use dlion_tensor::ops::{
    conv2d, conv2d_backward, conv2d_backward_s, conv2d_s, depthwise_conv2d,
    depthwise_conv2d_backward, matmul, matmul_into, matmul_nt, matmul_nt_into, matmul_tn,
    matmul_tn_into, maxpool2, maxpool2_backward, maxpool2_backward_into, maxpool2_into, relu,
    relu_backward,
};
use dlion_tensor::{DetRng, Scratch, Shape, Tensor};

/// A trainable layer in a [`crate::Model`].
pub trait Layer: Send {
    /// Human-readable layer kind, for debugging and parameter naming.
    fn name(&self) -> &'static str;

    /// Forward pass; caches activations needed by `backward`.
    fn forward(&mut self, x: &Tensor) -> Tensor;

    /// Backward pass: given dL/d(output), fill parameter gradients and
    /// return dL/d(input). Must be called after `forward`.
    fn backward(&mut self, dout: &Tensor) -> Tensor;

    /// Scratch-aware forward: consumes the input by value and serves the
    /// output (and any cached activation) from the per-worker arena where
    /// the layer supports it. Bit-identical to [`Layer::forward`] — buffer
    /// recycling never changes what is computed. The default delegates to
    /// the allocating path and does not recycle `x`: layers without a
    /// specialized impl allocate internally, so unconditionally pooling
    /// their inputs would only grow the arena.
    fn forward_s(&mut self, x: Tensor, _s: &mut Scratch) -> Tensor {
        self.forward(&x)
    }

    /// Scratch-aware backward; see [`Layer::forward_s`].
    fn backward_s(&mut self, dout: Tensor, _s: &mut Scratch) -> Tensor {
        self.backward(&dout)
    }

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

    pub fn in_features(&self) -> usize {
        self.w.shape().dim(0)
    }

    pub fn out_features(&self) -> usize {
        self.w.shape().dim(1)
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "dense expects rank-2 input");
        let mut y = matmul(x, &self.w);
        let (n, out) = (y.shape().dim(0), y.shape().dim(1));
        for r in 0..n {
            for c in 0..out {
                *y.at_mut(&[r, c]) += self.b.data()[c];
            }
        }
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        self.dw = matmul_tn(&x, dout);
        // db = column sums of dout.
        let (n, out) = (dout.shape().dim(0), dout.shape().dim(1));
        self.db.fill_zero();
        for r in 0..n {
            for c in 0..out {
                self.db.data_mut()[c] += dout.at(&[r, c]);
            }
        }
        matmul_nt(dout, &self.w)
    }

    fn forward_s(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
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

    fn backward_s(&mut self, dout: Tensor, s: &mut Scratch) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        // dW/db overwrite their persistent buffers in place.
        matmul_tn_into(&x, &dout, self.dw.data_mut());
        let (n, out) = (dout.shape().dim(0), dout.shape().dim(1));
        self.db.fill_zero();
        for r in 0..n {
            for c in 0..out {
                self.db.data_mut()[c] += dout.at(&[r, c]);
            }
        }
        let inf = self.w.shape().dim(0);
        let mut dx = s.take_uninit(n * inf);
        matmul_nt_into(&dout, &self.w, &mut dx);
        s.put_tensor(x);
        s.put_tensor(dout);
        Tensor::from_vec(Shape::d2(n, inf), dx)
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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = conv2d(x, &self.w, &self.b, self.pad);
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        let g = conv2d_backward(&x, &self.w, dout, self.pad);
        self.dw = g.dweight;
        self.db = g.dbias;
        g.dinput
    }

    fn forward_s(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let y = conv2d_s(&x, &self.w, &self.b, self.pad, s);
        // Cache by ownership — no clone on the hot path.
        self.cached_x = Some(x);
        y
    }

    fn backward_s(&mut self, dout: Tensor, s: &mut Scratch) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        let g = conv2d_backward_s(&x, &self.w, &dout, self.pad, s);
        // Copy into the persistent grad tensors and recycle the op's
        // buffers instead of swapping allocations in and out.
        self.dw.data_mut().copy_from_slice(g.dweight.data());
        self.db.data_mut().copy_from_slice(g.dbias.data());
        s.put_tensor(g.dweight);
        s.put_tensor(g.dbias);
        s.put_tensor(x);
        s.put_tensor(dout);
        g.dinput
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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = depthwise_conv2d(x, &self.w, &self.b, self.pad);
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        let g = depthwise_conv2d_backward(&x, &self.w, dout, self.pad);
        self.dw = g.dweight;
        self.db = g.dbias;
        g.dinput
    }

    // The depthwise kernels are direct loops with no large intermediates;
    // the scratch overrides only avoid the input clone and recycle the
    // consumed tensors.
    fn forward_s(&mut self, x: Tensor, _s: &mut Scratch) -> Tensor {
        let y = depthwise_conv2d(&x, &self.w, &self.b, self.pad);
        self.cached_x = Some(x);
        y
    }

    fn backward_s(&mut self, dout: Tensor, s: &mut Scratch) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        let g = depthwise_conv2d_backward(&x, &self.w, &dout, self.pad);
        self.dw = g.dweight;
        self.db = g.dbias;
        s.put_tensor(x);
        s.put_tensor(dout);
        g.dinput
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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cached_x = Some(x.clone());
        relu(x)
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        relu_backward(&x, dout)
    }

    fn forward_s(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let mut y = s.take_uninit(x.numel());
        for (o, &v) in y.iter_mut().zip(x.data()) {
            *o = v.max(0.0);
        }
        let shape = x.shape().clone();
        self.cached_x = Some(x);
        Tensor::from_vec(shape, y)
    }

    fn backward_s(&mut self, mut dout: Tensor, s: &mut Scratch) -> Tensor {
        let x = self.cached_x.take().expect("backward without forward");
        // Mask in place: zero allocations, zero copies.
        for (g, &v) in dout.data_mut().iter_mut().zip(x.data()) {
            if v <= 0.0 {
                *g = 0.0;
            }
        }
        s.put_tensor(x);
        dout
    }
}

// ---------------------------------------------------------------- MaxPool

/// 2×2 stride-2 max pooling.
#[derive(Clone, Default)]
pub struct MaxPool2 {
    cached_shape: Option<Shape>,
    cached_argmax: Option<Vec<u32>>,
    /// Retired argmax storage, reused by the next scratch-path forward
    /// (the f32 arena only pools `Vec<f32>`).
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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let (y, arg) = maxpool2(x);
        self.cached_shape = Some(x.shape().clone());
        self.cached_argmax = Some(arg);
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let shape = self.cached_shape.take().expect("backward without forward");
        let arg = self.cached_argmax.take().expect("backward without forward");
        maxpool2_backward(&shape, dout, &arg)
    }

    fn forward_s(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
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
        self.cached_shape = Some(x.shape().clone());
        self.cached_argmax = Some(arg);
        s.put_tensor(x);
        Tensor::from_vec(Shape::d4(n, c, oh, ow), out)
    }

    fn backward_s(&mut self, dout: Tensor, s: &mut Scratch) -> Tensor {
        let shape = self.cached_shape.take().expect("backward without forward");
        let arg = self.cached_argmax.take().expect("backward without forward");
        let mut din = s.take(shape.numel());
        maxpool2_backward_into(&dout, &arg, &mut din);
        self.spare_argmax = arg;
        s.put_tensor(dout);
        Tensor::from_vec(shape, din)
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

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let n = x.shape().dim(0);
        let f = x.numel() / n;
        self.cached_shape = Some(x.shape().clone());
        x.clone().reshape(Shape::d2(n, f))
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let shape = self.cached_shape.take().expect("backward without forward");
        dout.clone().reshape(shape)
    }

    // Flatten is a pure metadata change: with owned tensors both scratch
    // directions are allocation- and copy-free.
    fn forward_s(&mut self, x: Tensor, _s: &mut Scratch) -> Tensor {
        let n = x.shape().dim(0);
        let f = x.numel() / n;
        self.cached_shape = Some(x.shape().clone());
        x.reshape(Shape::d2(n, f))
    }

    fn backward_s(&mut self, dout: Tensor, _s: &mut Scratch) -> Tensor {
        let shape = self.cached_shape.take().expect("backward without forward");
        dout.reshape(shape)
    }
}

// ---------------------------------------------------------------- Dropout

/// Inverted dropout: during training, zeroes each activation with
/// probability `p` and scales survivors by `1/(1-p)`; pass `train = false`
/// via [`Dropout::set_train`] for inference. Deterministic given its seed.
///
/// Not used by the paper's models (CipherNet has no dropout); provided for
/// downstream experimentation with noisier regimes.
#[derive(Clone)]
pub struct Dropout {
    p: f32,
    train: bool,
    rng: DetRng,
    cached_mask: Option<Vec<f32>>,
}

impl Dropout {
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            train: true,
            rng: DetRng::seed_from_u64(seed),
            cached_mask: None,
        }
    }

    /// Toggle training mode (dropout is identity at inference).
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
    }
}

impl Layer for Dropout {
    fn name(&self) -> &'static str {
        "dropout"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        if !self.train || self.p == 0.0 {
            self.cached_mask = None;
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mask: Vec<f32> = (0..x.numel())
            .map(|_| {
                if self.rng.uniform() < keep as f64 {
                    scale
                } else {
                    0.0
                }
            })
            .collect();
        let mut y = x.clone();
        for (v, &m) in y.data_mut().iter_mut().zip(&mask) {
            *v *= m;
        }
        self.cached_mask = Some(mask);
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        match self.cached_mask.take() {
            None => dout.clone(),
            Some(mask) => {
                let mut dx = dout.clone();
                for (g, &m) in dx.data_mut().iter_mut().zip(&mask) {
                    *g *= m;
                }
                dx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_grad_param(
        layer: &mut dyn Layer,
        x: &Tensor,
        pidx: usize,
        flat: usize,
        eps: f32,
    ) -> f32 {
        let loss = |l: &mut dyn Layer, x: &Tensor| 0.5 * l.forward(x).sq_l2();
        let orig = layer.param(pidx).data()[flat];
        layer.param_mut(pidx).data_mut()[flat] = orig + eps;
        let fp = loss(layer, x);
        layer.param_mut(pidx).data_mut()[flat] = orig - eps;
        let fm = loss(layer, x);
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
        let y = d.forward(&x);
        assert_eq!(y.data(), &[5.1, 7.2, 9.3]);
    }

    #[test]
    fn dense_gradcheck() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut d = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(Shape::d2(5, 4), 1.0, &mut rng);
        let y = d.forward(&x);
        let dx = d.backward(&y); // loss = 0.5||y||^2 -> dout = y
                                 // Parameter gradients.
        for pidx in 0..2 {
            for flat in 0..d.param(pidx).numel() {
                let ng = num_grad_param(&mut d, &x, pidx, flat, 1e-2);
                // Recompute analytic grads after probing (probe restores params).
                let yy = d.forward(&x);
                d.backward(&yy);
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
            let fp = 0.5 * d.forward(&xp).sq_l2();
            xp.data_mut()[i] = orig - eps;
            let fm = 0.5 * d.forward(&xp).sq_l2();
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
        let mut l = Relu::new();
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![-1.0, 2.0, -3.0]);
        let y = l.forward(&x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0]);
        let dx = l.backward(&Tensor::full(Shape::d2(1, 3), 1.0));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0]);
        assert_eq!(l.param_count(), 0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut l = Flatten::new();
        let x = Tensor::from_fn(Shape::d4(2, 3, 2, 2), |i| i as f32);
        let y = l.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 12]);
        let dx = l.backward(&y);
        assert_eq!(dx.shape().dims(), &[2, 3, 2, 2]);
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    fn maxpool_layer_backward_shape() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut l = MaxPool2::new();
        let x = Tensor::randn(Shape::d4(2, 3, 4, 4), 1.0, &mut rng);
        let y = l.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 3, 2, 2]);
        let dx = l.backward(&y);
        assert_eq!(dx.shape().dims(), &[2, 3, 4, 4]);
        // Exactly one nonzero per pooling window (barring exact ties).
        let nz = dx.data().iter().filter(|&&v| v != 0.0).count();
        assert_eq!(nz, 2 * 3 * 2 * 2);
    }

    #[test]
    fn conv_layer_shapes_and_params() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut l = Conv2d::new(3, 8, 3, 1, &mut rng);
        assert_eq!(l.param_count(), 2);
        assert_eq!(l.param(0).shape().dims(), &[8, 3, 3, 3]);
        let x = Tensor::randn(Shape::d4(2, 3, 6, 6), 1.0, &mut rng);
        let y = l.forward(&x);
        assert_eq!(y.shape().dims(), &[2, 8, 6, 6]);
        let dx = l.backward(&y);
        assert_eq!(dx.shape().dims(), &[2, 3, 6, 6]);
        assert_eq!(l.grad(0).shape().dims(), &[8, 3, 3, 3]);
    }

    #[test]
    fn depthwise_layer_shapes() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut l = DepthwiseConv2d::new(4, 3, 1, &mut rng);
        let x = Tensor::randn(Shape::d4(1, 4, 5, 5), 1.0, &mut rng);
        let y = l.forward(&x);
        assert_eq!(y.shape().dims(), &[1, 4, 5, 5]);
        let dx = l.backward(&y);
        assert_eq!(dx.shape().dims(), &[1, 4, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "backward without forward")]
    fn backward_without_forward_panics() {
        let mut l = Relu::new();
        l.backward(&Tensor::zeros(Shape::d1(3)));
    }

    /// The scratch path (`forward_s`/`backward_s`) must be bit-identical to
    /// the allocating path for every layer kind, including on the second
    /// pass when the arena actually serves recycled buffers.
    #[test]
    fn scratch_path_matches_allocating_path() {
        fn check(mut a: Box<dyn Layer>, mut b: Box<dyn Layer>, x: &Tensor, expect_reuse: bool) {
            let mut s = Scratch::new();
            for pass in 0..3 {
                let ya = a.forward(x);
                let yb = b.forward_s(x.clone(), &mut s);
                assert_eq!(ya.shape(), yb.shape(), "{} fwd pass {pass}", a.name());
                assert_eq!(ya.data(), yb.data(), "{} fwd pass {pass}", a.name());
                let dxa = a.backward(&ya);
                let dxb = b.backward_s(yb, &mut s);
                assert_eq!(dxa.data(), dxb.data(), "{} bwd pass {pass}", a.name());
                for p in 0..a.param_count() {
                    assert_eq!(
                        a.grad(p).data(),
                        b.grad(p).data(),
                        "{} grad {p} pass {pass}",
                        a.name()
                    );
                }
            }
            if expect_reuse {
                assert!(s.reuse_ratio() > 0.0, "{}: arena never reused", a.name());
            }
        }

        let mut r1 = DetRng::seed_from_u64(77);
        let mut r2 = DetRng::seed_from_u64(77);
        let mut xr = DetRng::seed_from_u64(78);
        check(
            Box::new(Dense::new(6, 4, &mut r1)),
            Box::new(Dense::new(6, 4, &mut r2)),
            &Tensor::randn(Shape::d2(5, 6), 1.0, &mut xr),
            true,
        );
        // Large enough that the conv dispatcher takes the im2col path.
        check(
            Box::new(Conv2d::new(3, 8, 3, 1, &mut r1)),
            Box::new(Conv2d::new(3, 8, 3, 1, &mut r2)),
            &Tensor::randn(Shape::d4(4, 3, 8, 8), 1.0, &mut xr),
            true,
        );
        // Small enough that it stays on the direct path (no pooled
        // intermediates, so no reuse expected).
        check(
            Box::new(Conv2d::new(1, 2, 3, 1, &mut r1)),
            Box::new(Conv2d::new(1, 2, 3, 1, &mut r2)),
            &Tensor::randn(Shape::d4(1, 1, 4, 4), 1.0, &mut xr),
            false,
        );
        check(
            Box::new(DepthwiseConv2d::new(4, 3, 1, &mut r1)),
            Box::new(DepthwiseConv2d::new(4, 3, 1, &mut r2)),
            &Tensor::randn(Shape::d4(2, 4, 6, 6), 1.0, &mut xr),
            false,
        );
        check(
            Box::new(Relu::new()),
            Box::new(Relu::new()),
            &Tensor::randn(Shape::d2(7, 9), 1.0, &mut xr),
            true,
        );
        check(
            Box::new(MaxPool2::new()),
            Box::new(MaxPool2::new()),
            &Tensor::randn(Shape::d4(2, 3, 6, 6), 1.0, &mut xr),
            true,
        );
        check(
            Box::new(Flatten::new()),
            Box::new(Flatten::new()),
            &Tensor::randn(Shape::d4(2, 3, 2, 2), 1.0, &mut xr),
            false,
        );
    }

    #[test]
    fn dropout_zeroes_and_rescales() {
        let mut l = Dropout::new(0.5, 7);
        let x = Tensor::full(Shape::d1(10_000), 1.0);
        let y = l.forward(&x);
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!(
            (4_000..6_000).contains(&zeros),
            "about half dropped: {zeros}"
        );
        // Survivors are scaled by 1/(1-p) = 2, so the mean stays ~1.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
        // Backward routes gradients through the same mask.
        let dx = l.backward(&Tensor::full(Shape::d1(10_000), 1.0));
        for (a, b) in y.data().iter().zip(dx.data()) {
            assert_eq!(*a == 0.0, *b == 0.0, "mask mismatch");
        }
    }

    #[test]
    fn dropout_identity_at_inference() {
        let mut l = Dropout::new(0.9, 3);
        l.set_train(false);
        let x = Tensor::from_fn(Shape::d1(32), |i| i as f32);
        let y = l.forward(&x);
        assert_eq!(y.data(), x.data());
        let dx = l.backward(&Tensor::full(Shape::d1(32), 2.0));
        assert!(dx.data().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn dropout_deterministic_per_seed() {
        let x = Tensor::full(Shape::d1(128), 1.0);
        let mut a = Dropout::new(0.3, 42);
        let mut b = Dropout::new(0.3, 42);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn dropout_bad_p_panics() {
        Dropout::new(1.0, 1);
    }
}
