//! Gaia (Hsieh et al., NSDI '17; §5.1.4): "exchanging only a subset of
//! gradients causing more than S% change on model weights".
//!
//! Gradients accumulate locally per parameter; an entry becomes *significant*
//! once the weight change it implies (`lr * |accumulated|`) exceeds `S%` of
//! the current weight magnitude. Significant entries are sent and cleared;
//! the rest keep accumulating. Training blocks until significant updates are
//! delivered (the paper calls Gaia's strategy "a kind of bounded synchronous
//! training ... blocking progress to the next iteration until important
//! gradients are delivered to all workers").

use super::{ExchangeStrategy, PeerUpdate, StrategyCtx};
use crate::messages::{GradData, GradMsg};
use crate::sync::SyncPolicy;
use dlion_nn::Model;
use dlion_tensor::{SparseVec, Tensor};

/// Floor on |weight| when computing relative significance, so near-zero
/// weights don't mark everything significant.
const WEIGHT_FLOOR: f32 = 1e-3;

/// Gaia: significance-filtered gradient exchange.
pub struct Gaia {
    /// Significance threshold S in percent.
    s_percent: f64,
    accum: Vec<Tensor>,
}

impl Gaia {
    pub fn new(s_percent: f64) -> Self {
        assert!(s_percent > 0.0);
        Gaia {
            s_percent,
            accum: Vec::new(),
        }
    }
}

impl ExchangeStrategy for Gaia {
    fn name(&self) -> &'static str {
        "Gaia"
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::BlockOnDelivery
    }

    fn reads_weights(&self) -> bool {
        true
    }

    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        model: &Model,
    ) -> Vec<PeerUpdate> {
        if self.accum.is_empty() {
            self.accum = grads.iter().map(|g| Tensor::zeros(*g.shape())).collect();
        }
        let thr_frac = (self.s_percent / 100.0) as f32;
        let mut vars = Vec::with_capacity(grads.len());
        for (v, g) in grads.iter().enumerate() {
            let acc = &mut self.accum[v];
            acc.add_assign(g);
            let w = model.var(v);
            let mut indices = Vec::new();
            let mut values = Vec::new();
            let ad = acc.data_mut();
            for (i, (a, &wv)) in ad.iter_mut().zip(w.data()).enumerate() {
                let change = ctx.lr * a.abs();
                if change >= thr_frac * wv.abs().max(WEIGHT_FLOOR) && *a != 0.0 {
                    indices.push(i as u32);
                    values.push(*a);
                    *a = 0.0;
                }
            }
            vars.push(SparseVec {
                indices,
                values,
                dense_len: ad.len(),
            });
        }
        ctx.peers()
            .map(|peer| PeerUpdate {
                peer,
                msg: GradMsg {
                    iteration: ctx.iteration,
                    lbs: ctx.lbs,
                    data: GradData::Sparse(vars.clone()),
                    n_used: 100.0,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::test_ctx;
    use super::*;
    use dlion_tensor::{DetRng, Shape};

    fn model() -> Model {
        let mut rng = DetRng::seed_from_u64(42);
        dlion_nn::cipher_net(&Shape::d4(1, 1, 12, 12), 10, 6, 12, 24, 48, &mut rng)
    }

    #[test]
    fn only_significant_entries_sent() {
        let m = model();
        let mut gaia = Gaia::new(1.0);
        let ctx = test_ctx(0, 6);
        // Gradients sized so that lr*|g| is tiny relative to weights for most
        // entries: nothing significant on the first iteration.
        let tiny: Vec<Tensor> = (0..m.num_vars())
            .map(|v| Tensor::full(*m.var(v).shape(), 1e-7))
            .collect();
        let ups = gaia.generate_partial_gradients(&ctx, &tiny, &m);
        let sent: usize = ups[0].msg.entries();
        assert_eq!(sent, 0, "tiny gradients must not be significant");
        // A huge gradient is significant everywhere.
        let huge: Vec<Tensor> = (0..m.num_vars())
            .map(|v| Tensor::full(*m.var(v).shape(), 10.0))
            .collect();
        let ups = gaia.generate_partial_gradients(&ctx, &huge, &m);
        assert_eq!(ups[0].msg.entries(), m.num_params());
    }

    #[test]
    fn insignificant_updates_accumulate_until_significant() {
        let m = model();
        let mut gaia = Gaia::new(1.0);
        let ctx = test_ctx(0, 6);
        // Each step adds 1e-5 to the accumulator; significance needs
        // lr*|acc| >= 1% * max(|w|, 1e-3). With lr=0.3, even the floor case
        // (|w| <= 1e-3) needs |acc| >= 3.33e-5, i.e. 4 accumulation steps;
        // heavier weights need proportionally more.
        let step: Vec<Tensor> = (0..m.num_vars())
            .map(|v| Tensor::full(*m.var(v).shape(), 1e-5))
            .collect();
        let mut total_sent = 0usize;
        let mut sent_at = Vec::new();
        for it in 0..40 {
            let ups = gaia.generate_partial_gradients(&ctx, &step, &m);
            let s = ups[0].msg.entries();
            if s > 0 {
                sent_at.push(it);
                if total_sent == 0 {
                    // The first batch to fire carries the full accumulated
                    // mass: (it+1) * step.
                    let GradData::Sparse(vars) = &ups[0].msg.data else {
                        panic!()
                    };
                    let val = vars.iter().find_map(|v| v.values.first()).copied().unwrap();
                    let expect = (it + 1) as f32 * 1e-5;
                    assert!((val - expect).abs() < 1e-8, "it={it}: {val} vs {expect}");
                }
            }
            total_sent += s;
        }
        assert!(
            !sent_at.is_empty(),
            "accumulation must eventually cross the threshold"
        );
        assert!(sent_at[0] > 0, "nothing should be significant on step one");
        assert!(
            total_sent < m.num_params(),
            "heavy weights must still be accumulating"
        );
    }

    #[test]
    fn higher_s_sends_less() {
        let m = model();
        let mut rng = DetRng::seed_from_u64(7);
        let grads: Vec<Tensor> = (0..m.num_vars())
            .map(|v| Tensor::randn(*m.var(v).shape(), 0.01, &mut rng))
            .collect();
        let ctx = test_ctx(0, 6);
        let sent_at = |s: f64| {
            let mut g = Gaia::new(s);
            g.generate_partial_gradients(&ctx, &grads, &m)[0]
                .msg
                .entries()
        };
        assert!(sent_at(0.1) >= sent_at(1.0));
        assert!(sent_at(1.0) >= sent_at(10.0));
    }

    #[test]
    fn blocks_on_delivery() {
        assert_eq!(Gaia::new(1.0).sync_policy(), SyncPolicy::BlockOnDelivery);
    }
}
