//! Max N with a *fixed* N and none of DLion's other techniques — the
//! configuration of Figure 16 ("to understand the sole benefit of max N
//! algorithm ... without any support from the other DLion techniques").

use super::{ExchangeStrategy, PeerUpdate, StrategyCtx};
use crate::messages::{GradData, GradMsg};
use crate::sync::SyncPolicy;
use dlion_nn::Model;
use dlion_tensor::sparse::max_n_select_model;
use dlion_tensor::Tensor;

/// Fixed-N Max N exchange (no speed assurance, no batching, no DKT).
pub struct MaxNOnly {
    n: f64,
    bound: u64,
}

impl MaxNOnly {
    pub fn new(n: f64, bound: u64) -> Self {
        assert!(n > 0.0 && n <= 100.0);
        MaxNOnly { n, bound }
    }
}

impl ExchangeStrategy for MaxNOnly {
    fn name(&self) -> &'static str {
        "MaxN"
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::BoundedStaleness {
            bound: self.bound,
            backup_workers: 0,
        }
    }

    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        _model: &Model,
    ) -> Vec<PeerUpdate> {
        // One selection, a copy per peer; N = 100 is the dense gradient.
        let data = if self.n >= 100.0 {
            GradData::Dense(grads.to_vec())
        } else {
            GradData::Sparse(max_n_select_model(grads, self.n))
        };
        ctx.peers()
            .map(|peer| PeerUpdate {
                peer,
                msg: GradMsg {
                    iteration: ctx.iteration,
                    lbs: ctx.lbs,
                    data: data.clone(),
                    n_used: self.n,
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

    #[test]
    fn fixed_n_ignores_bandwidth() {
        let mut rng = DetRng::seed_from_u64(1);
        let model = dlion_nn::cipher_net(&Shape::d4(1, 1, 12, 12), 10, 6, 12, 24, 48, &mut rng);
        let grads: Vec<Tensor> = (0..model.num_vars())
            .map(|v| Tensor::randn(*model.var(v).shape(), 0.1, &mut rng))
            .collect();
        let mut ctx = test_ctx(0, 3);
        let mut m10 = MaxNOnly::new(10.0, 5);
        let a = m10.generate_partial_gradients(&ctx, &grads, &model);
        ctx.bw_mbps = vec![0.0, 1.0, 10_000.0];
        let b = m10.generate_partial_gradients(&ctx, &grads, &model);
        assert_eq!(
            a[0].msg.entries(),
            b[0].msg.entries(),
            "fixed N must ignore bandwidth"
        );
        assert_eq!(a[0].msg.n_used, 10.0);
        // All peers get the same selection.
        assert_eq!(a[0].msg.entries(), a[1].msg.entries());
    }

    #[test]
    fn n_100_degenerates_to_dense_baseline_exchange() {
        let mut rng = DetRng::seed_from_u64(2);
        let model = dlion_nn::cipher_net(&Shape::d4(1, 1, 12, 12), 10, 6, 12, 24, 48, &mut rng);
        let grads: Vec<Tensor> = (0..model.num_vars())
            .map(|v| Tensor::randn(*model.var(v).shape(), 0.1, &mut rng))
            .collect();
        let ctx = test_ctx(0, 3);
        let ups = MaxNOnly::new(100.0, 5).generate_partial_gradients(&ctx, &grads, &model);
        assert!(matches!(ups[0].msg.data, GradData::Dense(_)));
        assert_eq!(ups[0].msg.entries(), model.num_params());
    }
}
