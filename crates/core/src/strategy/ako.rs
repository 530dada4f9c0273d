//! Ako (Watcharapichat et al., SoCC '16; §5.1.4): "partitioning gradients
//! based on available network capacity and computation power and sending a
//! block of the partitioned gradients in turn", fully asynchronous.
//!
//! The flat parameter space is split into `p` contiguous blocks; iteration
//! `t` sends block `t mod p` of the *accumulated* gradient (unsent blocks
//! keep accumulating, Ako's accumulated partial-gradient semantics) and
//! clears it. `p` is derived once, at startup, from the link budget — Ako
//! tunes to the environment it starts in and, unlike DLion, does not adapt
//! to later changes.

use super::{ExchangeStrategy, PeerUpdate, StrategyCtx};
use crate::messages::{GradData, GradMsg};
use crate::sync::SyncPolicy;
use dlion_nn::Model;
use dlion_tensor::{SparseVec, Tensor};

/// Maximum partition count (a paper-faithful guard against degenerate
/// budgets producing thousands of tiny blocks).
const MAX_PARTITIONS: usize = 64;

/// Ako: round-robin partitioned gradient exchange with accumulation.
pub struct Ako {
    partitions: Option<usize>,
    /// Accumulated gradient per variable (since each block was last sent).
    accum: Vec<Tensor>,
}

impl Ako {
    pub fn new() -> Self {
        Ako {
            partitions: None,
            accum: Vec::new(),
        }
    }

    /// The partition count chosen at startup (None before the first call).
    pub fn partitions(&self) -> Option<usize> {
        self.partitions
    }

    fn pick_partitions(ctx: &StrategyCtx) -> usize {
        // Worst link's per-iteration byte budget decides how much of the
        // gradient can be shipped each round.
        let min_budget = ctx
            .link_budgets()
            .map(|(_, budget)| budget)
            .fold(f64::INFINITY, f64::min)
            .max(1.0);
        let p = (ctx.dense_bytes() / min_budget).ceil() as usize;
        p.clamp(1, MAX_PARTITIONS)
    }
}

impl Default for Ako {
    fn default() -> Self {
        Self::new()
    }
}

impl ExchangeStrategy for Ako {
    fn name(&self) -> &'static str {
        "Ako"
    }

    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::Asynchronous
    }

    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        _model: &Model,
    ) -> Vec<PeerUpdate> {
        let p = *self
            .partitions
            .get_or_insert_with(|| Self::pick_partitions(ctx));
        if self.accum.is_empty() {
            self.accum = grads.iter().map(|g| Tensor::zeros(*g.shape())).collect();
        }
        for (a, g) in self.accum.iter_mut().zip(grads) {
            a.add_assign(g);
        }
        // Flat index range of this round's block.
        let total: usize = grads.iter().map(|g| g.numel()).sum();
        let block = (ctx.iteration as usize) % p;
        let lo = block * total / p;
        let hi = (block + 1) * total / p;
        // Extract the block from the accumulator as per-variable sparse
        // vectors, then clear it.
        let mut vars = Vec::with_capacity(grads.len());
        let mut base = 0usize;
        for a in self.accum.iter_mut() {
            let n = a.numel();
            let (vlo, vhi) = (
                lo.clamp(base, base + n) - base,
                hi.clamp(base, base + n) - base,
            );
            let mut indices = Vec::with_capacity(vhi - vlo);
            let mut values = Vec::with_capacity(vhi - vlo);
            let data = a.data_mut();
            for (i, v) in data.iter_mut().enumerate().take(vhi).skip(vlo) {
                if *v != 0.0 {
                    indices.push(i as u32);
                    values.push(*v);
                    *v = 0.0;
                }
            }
            vars.push(SparseVec {
                indices,
                values,
                dense_len: n,
            });
            base += n;
        }
        ctx.peers()
            .map(|peer| PeerUpdate {
                peer,
                msg: GradMsg {
                    iteration: ctx.iteration,
                    lbs: ctx.lbs,
                    data: GradData::Sparse(vars.clone()),
                    n_used: 100.0 / p as f64,
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

    fn grads(rng: &mut DetRng) -> Vec<Tensor> {
        vec![
            Tensor::randn(Shape::d1(1000), 1.0, rng),
            Tensor::randn(Shape::d1(400), 1.0, rng),
        ]
    }

    fn model() -> Model {
        let mut rng = DetRng::seed_from_u64(99);
        dlion_nn::cipher_net(&Shape::d4(1, 1, 12, 12), 10, 6, 12, 24, 48, &mut rng)
    }

    #[test]
    fn partition_count_from_budget() {
        // dense 4.9 MB, budget 2.5 MB -> p = 2.
        let ctx = test_ctx(0, 6);
        assert_eq!(Ako::pick_partitions(&ctx), 2);
        // Starved network -> capped partitions.
        let mut slow = ctx.clone();
        slow.bw_mbps = vec![0.001; 5];
        assert_eq!(Ako::pick_partitions(&slow), MAX_PARTITIONS);
        // Fat LAN -> single partition (send everything).
        let mut fast = ctx.clone();
        fast.bw_mbps = vec![100_000.0; 5];
        assert_eq!(Ako::pick_partitions(&fast), 1);
    }

    #[test]
    fn blocks_rotate_and_cover_all_indices() {
        let mut rng = DetRng::seed_from_u64(2);
        let g = grads(&mut rng);
        let m = model();
        let mut ako = Ako::new();
        let mut ctx = test_ctx(0, 6);
        let mut seen = vec![false; 1400];
        let p_expected = 2;
        for it in 0..p_expected {
            ctx.iteration = it as u64;
            let ups = ako.generate_partial_gradients(&ctx, &g, &m);
            assert_eq!(ako.partitions(), Some(p_expected));
            let GradData::Sparse(vars) = &ups[0].msg.data else {
                panic!("expected sparse")
            };
            let mut base = 0;
            for v in vars {
                for &i in &v.indices {
                    seen[base + i as usize] = true;
                }
                base += v.dense_len;
            }
        }
        // Over p consecutive iterations every (non-zero) index is covered.
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(
            covered > 1350,
            "covered {covered}/1400 (some entries may be exactly 0)"
        );
    }

    #[test]
    fn accumulation_preserves_unsent_gradient_mass() {
        // Send block 0 twice in a row (iteration pinned): the second message
        // must carry both iterations' contributions for block 0.
        let mut rng = DetRng::seed_from_u64(3);
        let g = grads(&mut rng);
        let m = model();
        let mut ako = Ako::new();
        let ctx = test_ctx(0, 6); // iteration = 0 both times -> same block
        let first = ako.generate_partial_gradients(&ctx, &g, &m);
        let second = ako.generate_partial_gradients(&ctx, &g, &m);
        let GradData::Sparse(v1) = &first[0].msg.data else {
            panic!()
        };
        let GradData::Sparse(v2) = &second[0].msg.data else {
            panic!()
        };
        // Same indices, doubled values? No — first send cleared the block,
        // so the second carries exactly one fresh contribution.
        assert_eq!(v1[0].indices, v2[0].indices);
        for (a, b) in v1[0].values.iter().zip(&v2[0].values) {
            assert!((a - b).abs() < 1e-6);
        }
        // Meanwhile block 1 accumulated two contributions; advance to it.
        let mut ctx1 = ctx.clone();
        ctx1.iteration = 1;
        let third = ako.generate_partial_gradients(&ctx1, &g, &m);
        let GradData::Sparse(v3) = &third[0].msg.data else {
            panic!()
        };
        // Block 1 of var 1 (total 1400, p=2 -> block 1 = flat 700..1400,
        // i.e. var0[700..1000] + var1 entirely): values are 3x one gradient.
        let sample_idx = v3[1].indices[0] as usize;
        let expect = 3.0 * g[1].data()[sample_idx];
        assert!(
            (v3[1].values[0] - expect).abs() < 1e-5,
            "{} vs {expect}",
            v3[1].values[0]
        );
    }

    #[test]
    fn all_peers_receive_same_block() {
        let mut rng = DetRng::seed_from_u64(4);
        let g = grads(&mut rng);
        let m = model();
        let mut ako = Ako::new();
        let ups = ako.generate_partial_gradients(&test_ctx(0, 4), &g, &m);
        assert_eq!(ups.len(), 3);
        let GradData::Sparse(v0) = &ups[0].msg.data else {
            panic!()
        };
        let GradData::Sparse(v1) = &ups[1].msg.data else {
            panic!()
        };
        assert_eq!(v0[0].indices, v1[0].indices);
    }
}
