//! Sequential models with a flat parameter-variable view.
//!
//! DLion exchanges gradients and weights *per weight variable* (§4.2: "the
//! granularity of data transmission is not the whole weight variables, but
//! individual weight variables"), so [`Model`] exposes its parameters as a
//! flat list of variables indexed `0..num_vars()`, each mapping to one
//! tensor inside one layer.

use crate::dataset::Dataset;
use crate::layer::Layer;
use dlion_tensor::ops::activation::{accuracy, softmax_xent};
use dlion_tensor::{Scratch, SparseVec, Tensor};

/// Loss/accuracy pair from an evaluation pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    pub loss: f64,
    pub accuracy: f64,
}

/// A feed-forward model: an ordered stack of layers ending in logits,
/// trained with softmax cross-entropy. The default is the empty stack — what
/// `std::mem::take` leaves behind while a model is away in a pool job.
#[derive(Clone, Default)]
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
    /// var index -> (layer index, param index within layer)
    param_map: Vec<(usize, usize)>,
    /// Bytes this model occupies on the wire when sent densely; defaults to
    /// `4 * num_params` but can be pinned to the paper's model sizes (5 MB
    /// Cipher / 17 MB MobileNet) so network bottleneck ratios match the
    /// original testbed (see DESIGN.md §1, "wire-size decoupling").
    wire_bytes: usize,
}

impl Model {
    /// Build from a stack of layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        let mut param_map = Vec::new();
        for (li, l) in layers.iter().enumerate() {
            for pi in 0..l.param_count() {
                param_map.push((li, pi));
            }
        }
        let mut m = Model {
            layers,
            param_map,
            wire_bytes: 0,
        };
        m.wire_bytes = 4 * m.num_params();
        m
    }

    /// Number of parameter variables (weight tensors).
    pub fn num_vars(&self) -> usize {
        self.param_map.len()
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        (0..self.num_vars()).map(|v| self.var(v).numel()).sum()
    }

    /// The `v`-th parameter variable.
    pub fn var(&self, v: usize) -> &Tensor {
        let (li, pi) = self.param_map[v];
        self.layers[li].param(pi)
    }

    /// Mutable access to the `v`-th parameter variable.
    pub fn var_mut(&mut self, v: usize) -> &mut Tensor {
        let (li, pi) = self.param_map[v];
        self.layers[li].param_mut(pi)
    }

    /// Wire size (bytes) of a dense full-model transfer.
    pub fn wire_bytes(&self) -> usize {
        self.wire_bytes
    }

    /// Pin the dense wire size (e.g. the paper's 5 MB for Cipher).
    pub fn set_wire_bytes(&mut self, bytes: usize) {
        assert!(bytes > 0);
        self.wire_bytes = bytes;
    }

    /// Wire bytes per scalar parameter under the (possibly pinned) dense size.
    pub fn bytes_per_param(&self) -> f64 {
        self.wire_bytes as f64 / self.num_params() as f64
    }

    /// Forward pass to logits: consumes `x` and recycles every
    /// intermediate activation through `s`.
    pub fn forward_scratch(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        let mut cur = x;
        for l in self.layers.iter_mut() {
            cur = l.forward(cur, s);
        }
        cur
    }

    /// [`Model::forward_scratch`] for callers without an arena to keep.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        self.forward_scratch(x.clone(), &mut Scratch::new())
    }

    /// One training gradient computation over a minibatch: forward, softmax
    /// cross-entropy, backward — Eq. 6 of the paper. Returns the mean loss
    /// and writes the per-variable mean gradients into the caller-owned
    /// `grads` vector (initialized on first use). The input and every
    /// intermediate tensor cycle through the arena `s`, which ends the
    /// step holding exactly what it held at the end of the previous one.
    pub fn forward_backward_scratch(
        &mut self,
        x: Tensor,
        labels: &[usize],
        s: &mut Scratch,
        grads: &mut Vec<Tensor>,
    ) -> f64 {
        let logits = {
            let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Forward);
            self.forward_scratch(x, s)
        };
        // `logits` is dropped, not recycled: `dlogits`, which `softmax_xent`
        // allocates at the same length, enters the arena in its place when
        // the last layer's backward recycles it.
        let (loss, dlogits) = softmax_xent(&logits, labels);
        {
            let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Backward);
            // Nobody reads the first layer's input gradient, so it is not
            // asked for; every other layer hands its own to the one below.
            let mut grad = Some(dlogits);
            for (li, l) in self.layers.iter_mut().enumerate().rev() {
                let dout = grad.expect("a layer above the first returns dL/dx");
                grad = l.backward(dout, li > 0, s);
            }
        }
        if grads.len() != self.num_vars() {
            grads.clear();
            // Own storage, not a clone: sharing the layer's buffer would
            // make the next backward's in-place write copy it — one step
            // later, wherever that step runs.
            for &(li, pi) in &self.param_map {
                let g = self.layers[li].grad(pi);
                grads.push(Tensor::from_vec(*g.shape(), g.data().to_vec()));
            }
        } else {
            for (g, &(li, pi)) in grads.iter_mut().zip(&self.param_map) {
                let src = self.layers[li].grad(pi);
                debug_assert_eq!(g.shape(), src.shape());
                g.data_mut().copy_from_slice(src.data());
            }
        }
        loss as f64
    }

    /// [`Model::forward_backward_scratch`] for callers without an arena or
    /// gradient tensors to keep: `(mean loss, per-variable mean gradients)`.
    pub fn forward_backward(&mut self, x: &Tensor, labels: &[usize]) -> (f64, Vec<Tensor>) {
        let mut grads = Vec::new();
        let loss =
            self.forward_backward_scratch(x.clone(), labels, &mut Scratch::new(), &mut grads);
        (loss, grads)
    }

    /// Evaluate loss/accuracy on `indices` of `ds` (forward only), in
    /// batches of `batch` to bound memory, through one arena of its own.
    pub fn evaluate(&mut self, ds: &Dataset, indices: &[usize], batch: usize) -> EvalResult {
        let _p = dlion_telemetry::profile_scope(dlion_telemetry::Phase::Eval);
        assert!(batch > 0);
        if indices.is_empty() {
            return EvalResult {
                loss: 0.0,
                accuracy: 0.0,
            };
        }
        // A forward pass caches its activations in the layers for a
        // backward that never comes here. Run on a clone (refcount bumps:
        // the weights are copy-on-write) so those die with it when this
        // returns, not in the training model at its next step.
        let mut model = self.clone();
        let mut s = Scratch::new();
        let mut total_loss = 0.0f64;
        let mut total_correct = 0.0f64;
        for chunk in indices.chunks(batch) {
            // The arena's buckets are exact lengths: the short last chunk
            // can reuse nothing the full ones left, so let that go first.
            if chunk.len() != batch {
                s = Scratch::new();
            }
            let (x, y) = ds.batch_scratch(chunk, &mut s);
            let logits = model.forward_scratch(x, &mut s);
            let (loss, _) = softmax_xent(&logits, &y);
            total_loss += loss as f64 * chunk.len() as f64;
            total_correct += accuracy(&logits, &y) * chunk.len() as f64;
            s.put_tensor(logits);
        }
        let n = indices.len() as f64;
        EvalResult {
            loss: total_loss / n,
            accuracy: total_correct / n,
        }
    }

    /// Snapshot all weights (for DKT weight exchange).
    pub fn weights(&self) -> Vec<Tensor> {
        (0..self.num_vars()).map(|v| self.var(v).clone()).collect()
    }

    /// Overwrite all weights from a snapshot.
    pub fn set_weights(&mut self, ws: &[Tensor]) {
        assert_eq!(ws.len(), self.num_vars(), "weight snapshot var count");
        for (v, w) in ws.iter().enumerate() {
            assert_eq!(
                w.shape(),
                self.var(v).shape(),
                "weight snapshot shape for var {v}"
            );
            *self.var_mut(v) = w.clone();
        }
    }

    /// Dense update: `w_v += factor * g_v` for every variable. Callers pass
    /// `factor = -lr * coeff` to implement Eq. 4/7.
    pub fn apply_dense_update(&mut self, grads: &[Tensor], factor: f32) {
        self.apply_dense_updates(&[(grads, factor)]);
    }

    /// A run of dense updates, in order: `w_v += f_k * g_k,v` for k = 0,
    /// 1, …. Each element takes the same additions in the same order as
    /// one [`Model::apply_dense_update`] per entry — the same bits — but
    /// the weights are read and written once, a block at a time while it
    /// sits in L1, instead of once per entry.
    pub fn apply_dense_updates(&mut self, updates: &[(&[Tensor], f32)]) {
        /// Weights per block: 4 KiB, well inside L1 beside the streams.
        const BLOCK: usize = 1024;
        if updates.is_empty() {
            // Nothing to add: leave shared (copy-on-write) weights shared.
            return;
        }
        let n = self.num_vars();
        for (grads, _) in updates {
            assert_eq!(grads.len(), n, "gradient var count");
        }
        for v in 0..n {
            let w = self.var_mut(v);
            for (grads, _) in updates {
                assert_eq!(w.shape(), grads[v].shape(), "axpy shape mismatch");
            }
            for (i, block) in w.data_mut().chunks_mut(BLOCK).enumerate() {
                for &(grads, factor) in updates {
                    let g = &grads[v].data()[i * BLOCK..];
                    for (a, &b) in block.iter_mut().zip(g) {
                        *a += factor * b;
                    }
                }
            }
        }
    }

    /// Sparse update of one variable: `w_v[idx] += factor * val`.
    pub fn apply_sparse_update(&mut self, v: usize, sparse: &SparseVec, factor: f32) {
        let t = self.var_mut(v);
        assert_eq!(
            t.numel(),
            sparse.dense_len,
            "sparse update length for var {v}"
        );
        sparse.add_into(t.data_mut(), factor);
    }

    /// Direct knowledge transfer merge (§3.4, after Teng et al.):
    /// `w_local = w_local - λ (w_local - w_best)`.
    pub fn merge_weights(&mut self, best: &[Tensor], lambda: f32) {
        assert_eq!(best.len(), self.num_vars());
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0,1]");
        for (v, b) in best.iter().enumerate() {
            let w = self.var_mut(v);
            assert_eq!(w.shape(), b.shape());
            for (wv, &bv) in w.data_mut().iter_mut().zip(b.data()) {
                *wv -= lambda * (*wv - bv);
            }
        }
    }

    /// L2 distance between this model's weights and a snapshot — used by
    /// tests and metrics to quantify model divergence across workers.
    pub fn weight_distance(&self, other: &[Tensor]) -> f64 {
        assert_eq!(other.len(), self.num_vars());
        let mut acc = 0.0f64;
        for (v, o) in other.iter().enumerate() {
            let w = self.var(v);
            for (a, b) in w.data().iter().zip(o.data()) {
                let d = (a - b) as f64;
                acc += d * d;
            }
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Flatten, Relu};
    use dlion_tensor::sparse::max_n_select;
    use dlion_tensor::{DetRng, Shape};

    fn tiny_model(rng: &mut DetRng) -> Model {
        Model::new(vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(8, 16, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, rng)),
        ])
    }

    fn tiny_dataset(rng: &mut DetRng) -> Dataset {
        Dataset::gaussian_prototypes(3, 1, 120, Shape::d4(1, 1, 2, 4), 1.2, 0.4, 0.0, rng)
    }

    #[test]
    fn var_accounting() {
        let mut rng = DetRng::seed_from_u64(1);
        let m = tiny_model(&mut rng);
        assert_eq!(m.num_vars(), 4); // 2 dense layers x (w, b)
        assert_eq!(m.num_params(), 8 * 16 + 16 + 16 * 3 + 3);
        assert_eq!(m.var(0).numel(), 128);
        assert_eq!(m.var(1).numel(), 16);
        assert_eq!(m.wire_bytes(), 4 * m.num_params());
    }

    #[test]
    fn wire_bytes_pinning() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut m = tiny_model(&mut rng);
        m.set_wire_bytes(5_000_000);
        assert_eq!(m.wire_bytes(), 5_000_000);
        assert!((m.bytes_per_param() - 5_000_000.0 / m.num_params() as f64).abs() < 1e-9);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut m = tiny_model(&mut rng);
        let ds = tiny_dataset(&mut rng);
        let all: Vec<usize> = (0..ds.len()).collect();
        let before = m.evaluate(&ds, &all, 32);
        for step in 0..200 {
            let idx: Vec<usize> = (0..16).map(|i| (step * 16 + i) % ds.len()).collect();
            let (x, y) = ds.batch(&idx);
            let (_, grads) = m.forward_backward(&x, &y);
            m.apply_dense_update(&grads, -0.5);
        }
        let after = m.evaluate(&ds, &all, 32);
        assert!(
            after.loss < before.loss * 0.5,
            "loss {} -> {}",
            before.loss,
            after.loss
        );
        assert!(after.accuracy > 0.9, "accuracy {}", after.accuracy);
    }

    #[test]
    fn weights_roundtrip_and_distance() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut m = tiny_model(&mut rng);
        let snap = m.weights();
        assert_eq!(m.weight_distance(&snap), 0.0);
        // Perturb then restore.
        m.var_mut(0).data_mut()[0] += 1.0;
        assert!((m.weight_distance(&snap) - 1.0).abs() < 1e-6);
        m.set_weights(&snap);
        assert_eq!(m.weight_distance(&snap), 0.0);
    }

    #[test]
    fn merge_weights_lambda_semantics() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut m = tiny_model(&mut rng);
        let local = m.weights();
        let best: Vec<Tensor> = local.iter().map(|t| t.map(|x| x + 2.0)).collect();
        // λ = 0: no change.
        m.merge_weights(&best, 0.0);
        assert_eq!(m.weight_distance(&local), 0.0);
        // λ = 1: full replacement.
        m.merge_weights(&best, 1.0);
        assert!(m.weight_distance(&best) < 1e-4);
        // λ = 0.5 from local: halfway.
        m.set_weights(&local);
        m.merge_weights(&best, 0.5);
        let expect_dist = 0.5 * {
            let mut acc = 0.0f64;
            for (a, b) in local.iter().zip(&best) {
                for (x, y) in a.data().iter().zip(b.data()) {
                    let d = (x - y) as f64;
                    acc += d * d;
                }
            }
            acc.sqrt()
        };
        assert!((m.weight_distance(&local) - expect_dist).abs() < 1e-4);
    }

    #[test]
    fn sparse_update_equals_dense_when_full() {
        let mut rng = DetRng::seed_from_u64(6);
        let mut m1 = tiny_model(&mut rng);
        let mut rng2 = DetRng::seed_from_u64(6);
        let mut m2 = tiny_model(&mut rng2);
        assert_eq!(m1.weight_distance(&m2.weights()), 0.0);
        let ds = tiny_dataset(&mut rng);
        let (x, y) = ds.batch(&[0, 1, 2, 3]);
        let (_, grads) = m1.forward_backward(&x, &y);
        // Apply densely to m1.
        m1.apply_dense_update(&grads, -0.1);
        // Apply as full sparse (N=100) to m2.
        let (_, grads2) = m2.forward_backward(&x, &y);
        for (v, g) in grads2.iter().enumerate() {
            let s = max_n_select(g.data(), 100.0);
            m2.apply_sparse_update(v, &s, -0.1);
        }
        assert!(m1.weight_distance(&m2.weights()) < 1e-5);
    }

    /// A fused run of dense updates leaves the bits of one `Tensor::axpy`
    /// per entry and variable, in order — on variables shorter and longer
    /// than a block.
    #[test]
    fn fused_dense_updates_equal_one_at_a_time() {
        use crate::models::ModelSpec;
        let mut rng = DetRng::seed_from_u64(9);
        let shape = Shape::d4(1, 1, 12, 12);
        let mut one = ModelSpec::Cipher.build(&shape, 10, &mut rng);
        let mut fused = ModelSpec::Cipher.build(&shape, 10, &mut DetRng::seed_from_u64(9));
        assert!((0..one.num_vars()).any(|v| one.var(v).numel() > 1024));
        let grads: Vec<(Vec<Tensor>, f32)> = [(1e-3, -0.3), (3e3, 2e-4), (7e-5, -11.0)]
            .iter()
            .map(|&(scale, factor)| {
                let g = (0..one.num_vars())
                    .map(|v| Tensor::randn(*one.var(v).shape(), scale, &mut rng))
                    .collect();
                (g, factor)
            })
            .collect();
        for (g, factor) in &grads {
            for (v, g) in g.iter().enumerate() {
                one.var_mut(v).axpy(*factor, g);
            }
        }
        let run: Vec<(&[Tensor], f32)> = grads.iter().map(|(g, f)| (g.as_slice(), *f)).collect();
        fused.apply_dense_updates(&run);
        let bits = |m: &Model| -> Vec<u32> {
            m.weights()
                .iter()
                .flat_map(|t| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        assert_eq!(bits(&one), bits(&fused));
    }

    /// CipherNet at batch 1 and batch 32 and MicroMobileNet, end to end:
    /// three training steps on a *warm* arena — every buffer recycled,
    /// NaN-poisoned by `Scratch::put` in debug builds — give the losses,
    /// gradients and weights of three steps that each get a fresh arena, bit
    /// for bit, and the warm arena ends every step holding what it held
    /// before it.
    #[test]
    fn warm_poisoned_arena_matches_fresh_arena_end_to_end() {
        use crate::models::ModelSpec;
        let cases = [
            (ModelSpec::Cipher, Dataset::synth_vision(200, 1), 1usize),
            (ModelSpec::Cipher, Dataset::synth_vision(200, 1), 32),
            (ModelSpec::MobileNet, Dataset::synth_imagenet(200, 2), 8),
        ];
        for (spec, ds, b) in cases {
            let mut rng = DetRng::seed_from_u64(11);
            let mut warm = spec.build(&ds.sample_shape(), ds.classes(), &mut rng);
            let mut fresh = warm.clone();
            let (mut ws, mut gw, mut gf) = (Scratch::new(), Vec::new(), Vec::new());
            let mut held = 0;
            for step in 0..4 {
                let idx: Vec<usize> = (0..b).map(|i| (step * b + i) % ds.len()).collect();
                let (x, y) = ds.batch_scratch(&idx, &mut ws);
                let lw = warm.forward_backward_scratch(x, &y, &mut ws, &mut gw);
                let mut fs = Scratch::new();
                let (x, y) = ds.batch_scratch(&idx, &mut fs);
                let lf = fresh.forward_backward_scratch(x, &y, &mut fs, &mut gf);
                assert_eq!(
                    lw.to_bits(),
                    lf.to_bits(),
                    "{spec:?} b={b} loss, step {step}"
                );
                for (v, (a, c)) in gw.iter().zip(&gf).enumerate() {
                    let same =
                        (a.data().iter().zip(c.data())).all(|(p, q)| p.to_bits() == q.to_bits());
                    assert!(same, "{spec:?} b={b} grad {v}, step {step}");
                }
                warm.apply_dense_update(&gw, -0.2);
                fresh.apply_dense_update(&gf, -0.2);
                if step == 0 {
                    held = ws.held_bytes();
                    assert_eq!(held, fs.held_bytes(), "{spec:?} b={b}");
                } else {
                    assert_eq!(
                        ws.held_bytes(),
                        held,
                        "{spec:?} b={b}: arena grew, step {step}"
                    );
                }
            }
            assert_eq!(warm.weight_distance(&fresh.weights()), 0.0);
            assert!(
                ws.reuse_ratio() > 0.7,
                "{spec:?} b={b}: {}",
                ws.reuse_ratio()
            );
        }
    }

    #[test]
    fn gradient_var_count_matches() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut m = tiny_model(&mut rng);
        let ds = tiny_dataset(&mut rng);
        let (x, y) = ds.batch(&[0, 1]);
        let (loss, grads) = m.forward_backward(&x, &y);
        assert!(loss > 0.0);
        assert_eq!(grads.len(), m.num_vars());
        for (v, g) in grads.iter().enumerate() {
            assert_eq!(g.shape(), m.var(v).shape());
        }
    }

    #[test]
    fn evaluate_empty_indices() {
        let mut rng = DetRng::seed_from_u64(8);
        let mut m = tiny_model(&mut rng);
        let ds = tiny_dataset(&mut rng);
        let r = m.evaluate(&ds, &[], 16);
        assert_eq!(
            r,
            EvalResult {
                loss: 0.0,
                accuracy: 0.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn merge_weights_bad_lambda_panics() {
        let mut rng = DetRng::seed_from_u64(9);
        let mut m = tiny_model(&mut rng);
        let w = m.weights();
        m.merge_weights(&w, 1.5);
    }
}
