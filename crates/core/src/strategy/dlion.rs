//! DLion's per-link prioritized gradient exchange (§3.3): Max N data
//! quality assurance sized per link, per iteration, by the transmission
//! speed assurance module.
//!
//! For every peer the strategy asks the network resource monitor for the
//! link's current bandwidth, converts it into the byte budget the link can
//! carry during one iteration, and picks the *largest* N that fits — so
//! fat links get rich gradients (up to dense) and thin links get only the
//! statistically significant entries, down to the configured minimum N.
//!
//! The planner (each variable's maximum and nonzero count, one pass) is
//! built once per iteration; the budget inversion and the selection run
//! once per *distinct* budget, counted in whole entries — all of a budget
//! the inversion sees — and links that share one get copies, the last of
//! them the selection itself. Micro-cloud links come in a few bandwidth classes,
//! so that is one or two selections for five peers, and each peer's message
//! is bit for bit what planning its link alone would give
//! (`equal_budgets_share_one_selection`).

use super::{ExchangeStrategy, PeerUpdate, StrategyCtx};
use crate::maxn::{budget_entries, MaxNPlanner};
use crate::messages::{GradData, GradMsg};
use crate::sync::SyncPolicy;
use dlion_nn::Model;
use dlion_tensor::Tensor;

/// DLion's network-adaptive exchange.
pub struct DLionExchange {
    min_n: f64,
    bound: u64,
}

impl DLionExchange {
    pub fn new(min_n: f64, bound: u64) -> Self {
        assert!(min_n > 0.0 && min_n <= 100.0);
        DLionExchange { min_n, bound }
    }
}

impl ExchangeStrategy for DLionExchange {
    fn name(&self) -> &'static str {
        "DLion"
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
        let planner = MaxNPlanner::new(grads);
        // A link's N depends on its budget only through the whole entries
        // that fit, and links of equal bandwidth are the rule (one LAN, one
        // WAN class): plan and select once per distinct entry budget.
        let mut plans: Vec<(usize, f64, Option<GradData>)> = Vec::new();
        let links: Vec<(usize, usize)> = ctx
            .peers()
            .map(|peer| {
                let entries = budget_entries(ctx.link_budget_bytes(peer), ctx.bytes_per_entry());
                let known = plans.iter().position(|p| p.0 == entries);
                let plan = known.unwrap_or_else(|| {
                    let n = planner.n_for_entry_budget(entries, self.min_n);
                    // At N=100 a dense encoding is strictly cheaper on the
                    // wire (no index overhead) — use it.
                    let data = if n >= 100.0 {
                        GradData::Dense(grads.to_vec())
                    } else {
                        GradData::Sparse(planner.select(grads, n))
                    };
                    plans.push((entries, n, Some(data)));
                    plans.len() - 1
                });
                (peer, plan)
            })
            .collect();
        // The last peer sharing a selection takes it, the others get copies.
        let mut sharing = vec![0; plans.len()];
        for &(_, plan) in &links {
            sharing[plan] += 1;
        }
        links
            .into_iter()
            .map(|(peer, plan)| {
                sharing[plan] -= 1;
                let (_, n_used, data) = &mut plans[plan];
                let data = if sharing[plan] == 0 {
                    data.take()
                } else {
                    data.clone()
                };
                PeerUpdate {
                    peer,
                    msg: GradMsg {
                        iteration: ctx.iteration,
                        lbs: ctx.lbs,
                        data: data.expect("a selection outlives its last peer"),
                        n_used: *n_used,
                    },
                }
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
        let mut rng = DetRng::seed_from_u64(5);
        dlion_nn::cipher_net(&Shape::d4(1, 1, 12, 12), 10, 6, 12, 24, 48, &mut rng)
    }

    fn grads(m: &Model, rng: &mut DetRng) -> Vec<Tensor> {
        (0..m.num_vars())
            .map(|v| Tensor::randn(*m.var(v).shape(), 0.1, rng))
            .collect()
    }

    #[test]
    fn per_link_sizes_follow_bandwidth() {
        let m = model();
        let mut rng = DetRng::seed_from_u64(6);
        let g = grads(&m, &mut rng);
        let mut ctx = test_ctx(0, 6);
        // Heterogeneous links: worker 1 fat, worker 5 thin (Fig. 8's setup).
        ctx.bw_mbps = vec![0.0, 200.0, 50.0, 50.0, 20.0, 5.0];
        ctx.total_params = m.num_params();
        ctx.bytes_per_param = 5_000_000.0 / m.num_params() as f64;
        let mut dl = DLionExchange::new(0.85, 5);
        let ups = dl.generate_partial_gradients(&ctx, &g, &m);
        assert_eq!(ups.len(), 5);
        let by_peer: std::collections::HashMap<usize, &PeerUpdate> =
            ups.iter().map(|u| (u.peer, u)).collect();
        let b1 = by_peer[&1]
            .msg
            .wire_bytes(ctx.bytes_per_param, ctx.total_params);
        let b4 = by_peer[&4]
            .msg
            .wire_bytes(ctx.bytes_per_param, ctx.total_params);
        let b5 = by_peer[&5]
            .msg
            .wire_bytes(ctx.bytes_per_param, ctx.total_params);
        assert!(
            b1 > b4 && b4 > b5,
            "sizes must track bandwidth: {b1} {b4} {b5}"
        );
        assert!(by_peer[&1].msg.n_used > by_peer[&5].msg.n_used);
        // Budgets respected (sparse messages only; dense means budget >= full).
        for (&peer, u) in &by_peer {
            if let GradData::Sparse(_) = u.msg.data {
                let bytes = u.msg.wire_bytes(ctx.bytes_per_param, ctx.total_params);
                let budget = ctx.link_budget_bytes(peer);
                assert!(
                    bytes <= budget * 1.01 || u.msg.n_used <= 0.85 + 1e-9,
                    "peer {peer}: {bytes} > budget {budget}"
                );
            }
        }
    }

    #[test]
    fn equal_budgets_share_one_selection() {
        let m = model();
        let mut rng = DetRng::seed_from_u64(9);
        let g = grads(&m, &mut rng);
        let mut ctx = test_ctx(0, 4);
        ctx.bw_mbps = vec![0.0, 50.0, 20.0, 50.0];
        ctx.total_params = m.num_params();
        ctx.bytes_per_param = 5_000_000.0 / m.num_params() as f64;
        let ups = DLionExchange::new(0.85, 5).generate_partial_gradients(&ctx, &g, &m);
        let sparse = |u: &PeerUpdate| match &u.msg.data {
            GradData::Sparse(sel) => sel.clone(),
            GradData::Dense(_) => panic!("peer {} got a dense gradient", u.peer),
        };
        assert_eq!(ups.iter().map(|u| u.peer).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(sparse(&ups[0]), sparse(&ups[2]));
        assert_eq!(ups[0].msg.n_used, ups[2].msg.n_used);
        assert_ne!(sparse(&ups[0]), sparse(&ups[1]));
        // Shared or not, each is what planning that link alone gives.
        let planner = MaxNPlanner::new(&g);
        for u in &ups {
            let (n, sel) = planner.select_for_budget(
                &g,
                ctx.link_budget_bytes(u.peer),
                ctx.bytes_per_entry(),
                0.85,
            );
            assert_eq!(u.msg.n_used.to_bits(), n.to_bits(), "peer {}", u.peer);
            assert_eq!(sparse(u), sel, "peer {}", u.peer);
        }
    }

    #[test]
    fn fat_lan_sends_dense() {
        let m = model();
        let mut rng = DetRng::seed_from_u64(7);
        let g = grads(&m, &mut rng);
        let mut ctx = test_ctx(0, 2);
        ctx.bw_mbps = vec![0.0, 100_000.0];
        ctx.total_params = m.num_params();
        ctx.bytes_per_param = 5_000_000.0 / m.num_params() as f64;
        let ups = DLionExchange::new(0.85, 5).generate_partial_gradients(&ctx, &g, &m);
        assert!(matches!(ups[0].msg.data, GradData::Dense(_)));
        assert_eq!(ups[0].msg.n_used, 100.0);
    }

    #[test]
    fn starved_link_falls_back_to_min_n() {
        let m = model();
        let mut rng = DetRng::seed_from_u64(8);
        let g = grads(&m, &mut rng);
        let mut ctx = test_ctx(0, 2);
        ctx.bw_mbps = vec![0.0, 0.0001];
        ctx.total_params = m.num_params();
        ctx.bytes_per_param = 5_000_000.0 / m.num_params() as f64;
        let ups = DLionExchange::new(0.85, 5).generate_partial_gradients(&ctx, &g, &m);
        assert!(
            (ups[0].msg.n_used - 0.85).abs() < 1e-9,
            "n={}",
            ups[0].msg.n_used
        );
        // Still sends the top-magnitude entries — never nothing by design
        // of Max N at the minimum N (unless the gradient is all-zero).
        assert!(ups[0].msg.entries() > 0);
    }
}
