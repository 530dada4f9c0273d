//! Integration tests for the framework's extension points: custom
//! strategies via `for_each_worker`, link tracing, and the generic runner
//! API over custom resource models.

use dlion::core::messages::{GradData, GradMsg};
use dlion::core::strategy::{ExchangeStrategy, PeerUpdate, StrategyCtx};
use dlion::core::sync::SyncPolicy;
use dlion::core::ClusterRunner;
use dlion::prelude::*;

/// A deliberately silly strategy: never send anything.
struct Silent;

impl ExchangeStrategy for Silent {
    fn name(&self) -> &'static str {
        "Silent"
    }
    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::Asynchronous
    }
    fn generate_partial_gradients(
        &mut self,
        _ctx: &StrategyCtx,
        _grads: &[Tensor],
        _model: &dlion::nn::Model,
    ) -> Vec<PeerUpdate> {
        Vec::new()
    }
}

/// Top-1 strategy: each iteration sends only the single largest-magnitude
/// entry per variable.
struct TopOne;

impl ExchangeStrategy for TopOne {
    fn name(&self) -> &'static str {
        "TopOne"
    }
    fn sync_policy(&self) -> SyncPolicy {
        SyncPolicy::Asynchronous
    }
    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        _model: &dlion::nn::Model,
    ) -> Vec<PeerUpdate> {
        let vars: Vec<SparseVec> = grads
            .iter()
            .map(|g| {
                let (mut bi, mut bv) = (0usize, 0.0f32);
                for (i, &v) in g.data().iter().enumerate() {
                    if v.abs() > bv.abs() {
                        bi = i;
                        bv = v;
                    }
                }
                SparseVec {
                    indices: vec![bi as u32],
                    values: vec![bv],
                    dense_len: g.numel(),
                }
            })
            .collect();
        ctx.peers()
            .map(|peer| PeerUpdate {
                peer,
                msg: GradMsg {
                    iteration: ctx.iteration,
                    lbs: ctx.lbs,
                    data: GradData::Sparse(vars.clone()),
                    n_used: 0.0,
                },
            })
            .collect()
    }
}

fn small_cfg() -> RunConfig {
    let mut c = RunConfig::small_test(SystemKind::Baseline);
    c.duration = 150.0;
    c.workload.train_size = 2000;
    c.workload.test_size = 400;
    c
}

fn runner_with(strategy_builder: impl Fn(usize) -> Box<dyn ExchangeStrategy>) -> ClusterRunner {
    let cfg = small_cfg();
    let spec = EnvId::HomoB.spec();
    let mut r = ClusterRunner::new(cfg, spec.compute_model(), spec.network_model(), "custom");
    r.for_each_worker(|w| w.strategy = strategy_builder(w.id));
    r
}

#[test]
fn silent_strategy_trains_locally_only() {
    let m = runner_with(|_| Box::new(Silent)).run();
    assert_eq!(m.grad_bytes, 0.0, "silent workers must not send gradients");
    assert!(
        m.total_iterations() > 100,
        "async + no traffic = full compute speed"
    );
    // Workers never see each other: they drift apart.
    assert!(m.final_acc_std() >= 0.0);
}

#[test]
fn top_one_strategy_sends_minimal_bytes() {
    let m = runner_with(|_| Box::new(TopOne)).run();
    assert!(m.grad_bytes > 0.0);
    let iters = m.total_iterations() as f64;
    // 10 variables x 1 entry x 5 peers per iteration, wire-scaled.
    let per_iter = m.grad_bytes / iters;
    assert!(
        per_iter < 100_000.0,
        "top-1 must be tiny on the wire: {per_iter}"
    );
}

#[test]
fn mixed_strategies_in_one_cluster() {
    // Half the cluster silent, half top-one: heterogeneous *software* —
    // the decentralized architecture doesn't care.
    let m = runner_with(|id| {
        if id % 2 == 0 {
            Box::new(Silent) as Box<dyn ExchangeStrategy>
        } else {
            Box::new(TopOne)
        }
    })
    .run();
    assert!(m.grad_bytes > 0.0);
    assert!(m.total_iterations() > 100);
}

#[test]
fn custom_compute_network_models_flow_through() {
    use dlion::microcloud::{CPU_COST_PER_SAMPLE, CPU_OVERHEAD};
    let mut cfg = small_cfg();
    cfg.trace_links = true;
    cfg.system = SystemKind::DLion;
    // 2-worker cluster: minimal decentralized setup.
    let compute = ComputeModel::homogeneous(2, 24.0, CPU_COST_PER_SAMPLE, CPU_OVERHEAD);
    let net = NetworkModel::uniform(2, 40.0, 0.05);
    let m = dlion::core::run_with_models(&cfg, compute, net, "two-node");
    assert_eq!(m.iterations.len(), 2);
    assert!(m.total_iterations() > 30);
    assert!(m.link_trace.iter().all(|s| (s.src == 0) ^ (s.dst == 0)));
}

#[test]
fn worker_state_is_inspectable_before_run() {
    let cfg = small_cfg();
    let spec = EnvId::HomoA.spec();
    let mut r = ClusterRunner::new(cfg, spec.compute_model(), spec.network_model(), "inspect");
    let mut ids = Vec::new();
    let mut lbs = Vec::new();
    r.for_each_worker(|w| {
        ids.push(w.id);
        lbs.push(w.lbs);
        assert_eq!(w.iteration, 0);
        assert!(!w.shard.is_empty());
    });
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    assert!(lbs.iter().all(|&l| l == 32));
}
