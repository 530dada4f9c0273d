//! The pluggable gradient-exchange strategies — the paper's
//! `generate_partial_gradients` API (§4.2).
//!
//! Each comparison system is one small file implementing
//! [`ExchangeStrategy`]; Table 1's point — that Baseline/Hop/Gaia/Ako fit in
//! a handful of lines inside the DLion framework — is reproduced by keeping
//! each implementation minimal (the `table1` experiment counts these files'
//! actual lines of code).

pub mod ako;
pub mod baseline;
pub mod dlion;
pub mod gaia;
pub mod hop;
pub mod maxn_only;
pub mod prague;

use crate::config::{RunConfig, SystemKind};
use crate::messages::GradMsg;
use crate::sync::SyncPolicy;
use dlion_nn::Model;
use dlion_tensor::Tensor;

/// Everything a strategy may consult when generating partial gradients:
/// the *network resource monitor* readings (per-peer bandwidth), timing,
/// and wire-size calibration.
#[derive(Clone, Debug)]
pub struct StrategyCtx {
    /// This worker's id.
    pub worker: usize,
    /// Cluster size.
    pub n: usize,
    /// Iteration the gradients belong to.
    pub iteration: u64,
    /// Virtual time now.
    pub now: f64,
    /// This worker's current local batch size.
    pub lbs: usize,
    /// Duration of the iteration that produced these gradients (seconds) —
    /// `1 / Iter_com_i` in the paper's budget formula.
    pub iter_time: f64,
    /// Available bandwidth to each worker in Mbps (self entry 0) — the
    /// network resource monitor's answer.
    pub bw_mbps: Vec<f64>,
    /// This worker's communication neighbors (the full peer set under the
    /// paper's full mesh; a subset under sparse topologies).
    pub neighbors: Vec<usize>,
    /// Wire bytes per scalar parameter (paper model size / param count).
    pub bytes_per_param: f64,
    /// Number of scalar parameters in the model.
    pub total_params: usize,
    /// Global learning rate (Gaia's significance is about weight *change*).
    pub lr: f32,
}

impl StrategyCtx {
    /// Communication neighbors of this worker, in id order.
    pub fn peers(&self) -> impl Iterator<Item = usize> + '_ {
        self.neighbors.iter().copied()
    }

    /// Wire bytes of a dense full-model gradient.
    pub fn dense_bytes(&self) -> f64 {
        self.bytes_per_param * self.total_params as f64
    }

    /// Wire bytes of one sparse entry (index + value).
    pub fn bytes_per_entry(&self) -> f64 {
        2.0 * self.bytes_per_param
    }

    /// Transmission-speed-assurance byte budget for the link to `peer`
    /// (§3.3): the bytes the link can carry during one iteration
    /// (`BW_net_j / Iter_com_i`), divided by the n−1 peer transfers sharing
    /// this worker's NIC.
    pub fn link_budget_bytes(&self, peer: usize) -> f64 {
        assert_ne!(peer, self.worker);
        let bytes_per_sec = self.bw_mbps[peer] * 1e6 / 8.0;
        bytes_per_sec * self.iter_time / self.neighbors.len().max(1) as f64
    }
}

/// One outgoing gradient message for one peer.
#[derive(Clone, Debug)]
pub struct PeerUpdate {
    pub peer: usize,
    pub msg: GradMsg,
}

/// A gradient-exchange strategy: how a freshly computed local gradient is
/// turned into per-peer messages, plus which synchronization policy the
/// system trains under.
pub trait ExchangeStrategy: Send {
    /// System name (for metrics and display).
    fn name(&self) -> &'static str;

    /// The `synch_training` policy this system uses.
    fn sync_policy(&self) -> SyncPolicy;

    /// Turn this iteration's gradients into per-peer messages. `model`
    /// exposes current weights (Gaia's significance filter needs them) —
    /// settled ones only if [`ExchangeStrategy::reads_weights`] says so.
    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        model: &Model,
    ) -> Vec<PeerUpdate>;

    /// Does [`ExchangeStrategy::generate_partial_gradients`] read the
    /// model's weights? If so the worker settles its update log first —
    /// the round's own update included — so they are the eager weights;
    /// otherwise the pending updates wait for the model's next user.
    fn reads_weights(&self) -> bool {
        false
    }
}

/// Wraps a strategy, replacing only its `synch_training` policy — how
/// `RunConfig::sync_override` forces e.g. a Baseline run into strict BSP
/// while keeping the system's gradient-exchange behavior intact.
pub struct SyncOverride {
    inner: Box<dyn ExchangeStrategy>,
    policy: SyncPolicy,
}

impl ExchangeStrategy for SyncOverride {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        model: &Model,
    ) -> Vec<PeerUpdate> {
        self.inner.generate_partial_gradients(ctx, grads, model)
    }

    fn reads_weights(&self) -> bool {
        self.inner.reads_weights()
    }
}

/// Gaia's significance threshold S, percent (§5.1.4: 1 %).
pub const GAIA_S: f64 = 1.0;
/// Hop's staleness bound (§5.1.4: 5).
pub const HOP_BOUND: u64 = 5;
/// Hop's backup worker count (§5.1.4: 1).
pub const HOP_BACKUP: usize = 1;
/// The bounded-staleness bound of Baseline, DLion and Max N (§5.1.4: 5).
pub const DLION_BOUND: u64 = 5;

/// Build the strategy for a configured system.
pub fn build_strategy(cfg: &RunConfig) -> Box<dyn ExchangeStrategy> {
    let inner = build_native_strategy(cfg);
    match cfg.sync_override {
        Some(policy) => Box::new(SyncOverride { inner, policy }),
        None => inner,
    }
}

fn build_native_strategy(cfg: &RunConfig) -> Box<dyn ExchangeStrategy> {
    match cfg.system {
        SystemKind::Baseline => Box::new(baseline::Baseline::new(DLION_BOUND)),
        SystemKind::Ako => Box::new(ako::Ako::new()),
        SystemKind::Gaia => Box::new(gaia::Gaia::new(GAIA_S)),
        SystemKind::Hop => Box::new(hop::Hop::new(HOP_BOUND, HOP_BACKUP)),
        SystemKind::DLion | SystemKind::DLionNoDbwu | SystemKind::DLionNoWu => {
            Box::new(dlion::DLionExchange::new(cfg.min_n, DLION_BOUND))
        }
        SystemKind::MaxNOnly(n) => Box::new(maxn_only::MaxNOnly::new(n, DLION_BOUND)),
        SystemKind::Prague(g) => Box::new(prague::Prague::new(
            g,
            cfg.seed.wrapping_mul(97).wrapping_add(13),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_microcloud::ClusterKind;

    pub(crate) fn test_ctx(worker: usize, n: usize) -> StrategyCtx {
        StrategyCtx {
            worker,
            n,
            neighbors: (0..n).filter(|&j| j != worker).collect(),
            iteration: 0,
            now: 0.0,
            lbs: 32,
            iter_time: 2.0,
            bw_mbps: vec![50.0; n],
            bytes_per_param: 350.0,
            total_params: 14_000,
            lr: 0.3,
        }
    }

    #[test]
    fn ctx_budget_formula() {
        let ctx = test_ctx(0, 6);
        // 50 Mbps = 6.25 MB/s; * 2 s / 5 peers = 2.5 MB.
        assert!((ctx.link_budget_bytes(1) - 2_500_000.0).abs() < 1.0);
        assert!((ctx.dense_bytes() - 4_900_000.0).abs() < 1.0);
        assert_eq!(ctx.bytes_per_entry(), 700.0);
    }

    #[test]
    fn ctx_peers_excludes_self() {
        let ctx = test_ctx(2, 4);
        let peers: Vec<usize> = ctx.peers().collect();
        assert_eq!(peers, vec![0, 1, 3]);
    }

    #[test]
    fn build_strategy_names() {
        let mk = |s| {
            let mut c = RunConfig::paper_default(s, ClusterKind::Cpu);
            c.system = s;
            build_strategy(&c).name().to_string()
        };
        assert_eq!(mk(SystemKind::Baseline), "Baseline");
        assert_eq!(mk(SystemKind::Ako), "Ako");
        assert_eq!(mk(SystemKind::Gaia), "Gaia");
        assert_eq!(mk(SystemKind::Hop), "Hop");
        assert_eq!(mk(SystemKind::DLion), "DLion");
        assert_eq!(mk(SystemKind::MaxNOnly(10.0)), "MaxN");
    }

    #[test]
    fn sync_policies_match_paper() {
        let mk = |s| {
            let c = RunConfig::paper_default(s, ClusterKind::Cpu);
            build_strategy(&c).sync_policy()
        };
        // Baseline inherits the framework's default sync (Table 1: 0 LoC).
        assert_eq!(
            mk(SystemKind::Baseline),
            SyncPolicy::BoundedStaleness {
                bound: 5,
                backup_workers: 0
            }
        );
        assert_eq!(mk(SystemKind::Ako), SyncPolicy::Asynchronous);
        assert_eq!(mk(SystemKind::Gaia), SyncPolicy::BlockOnDelivery);
        assert_eq!(
            mk(SystemKind::Hop),
            SyncPolicy::BoundedStaleness {
                bound: 5,
                backup_workers: 1
            }
        );
        assert_eq!(
            mk(SystemKind::DLion),
            SyncPolicy::BoundedStaleness {
                bound: 5,
                backup_workers: 0
            }
        );
    }
}
