//! Tier-1 smoke for the repo's signature property: under strict BSP the
//! discrete-event simulator and the live (in-memory transport) backend
//! leave bit-identical weights — with everyone present, and with one
//! planned departure mid-run. Both backends execute the same round core
//! (`dlion_core::round`); this is the root-crate check that they still
//! agree end to end. The full matrix (TCP, topologies, virtual ranks,
//! generated scenarios) lives in `crates/net/tests`.

use dlion::core::{run_with_models, FaultPlan, RunConfig, RunMetrics, SyncPolicy, SystemKind};
use dlion::net::{live_config, run_live, LiveOpts, TransportKind};
use dlion::simnet::{ComputeModel, NetworkModel};
use std::time::Duration;

const N: usize = 3;
const ITERS: u64 = 6;
const BW_MBPS: f64 = 1000.0;
/// The homogeneous compute model's iteration time at LBS 32, which the
/// live run pins so both backends plan identical exchanges.
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn weight_bits(m: &RunMetrics) -> Vec<Vec<Vec<u32>>> {
    let bits = |ws: &Vec<dlion::tensor::Tensor>| {
        ws.iter()
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    m.final_weights.iter().map(bits).collect()
}

/// Run the same strict-BSP Baseline cluster on both backends.
fn sim_and_mem(fault: FaultPlan) -> (RunMetrics, RunMetrics) {
    let mut cfg: RunConfig = live_config(SystemKind::Baseline, 1);
    cfg.duration = 10_000.0; // never the stopping condition; max_iters is
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(ITERS);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg.fault = fault;
    let sim = run_with_models(
        &cfg,
        ComputeModel::homogeneous(N, 1.0, 0.001, 0.05),
        NetworkModel::uniform(N, BW_MBPS, 0.001),
        "parity-smoke",
    );
    let opts = LiveOpts {
        iters: ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(ITER_TIME),
        stall_timeout: Duration::from_secs(120),
        ..Default::default()
    };
    let mem = run_live(&cfg, N, &opts, TransportKind::Mem, "live/parity-smoke").expect("live run");
    (sim, mem)
}

#[test]
fn strict_bsp_sim_and_mem_weights_are_bit_identical() {
    let (sim, mem) = sim_and_mem(FaultPlan::default());
    assert_eq!(sim.iterations, vec![ITERS; N]);
    assert_eq!(mem.iterations, vec![ITERS; N]);
    let (sw, mw) = (weight_bits(&sim), weight_bits(&mem));
    assert!(sw.iter().all(|w| !w.is_empty()), "sim captured no weights");
    // (`assert!`, not `assert_eq!`: a failure must not dump every weight.)
    assert!(sw == mw, "sim vs mem weights diverged");
}

#[test]
fn survivors_of_a_planned_kill_are_bit_identical() {
    let (sim, mem) = sim_and_mem(FaultPlan::parse("1@3").expect("valid fault plan"));
    assert_eq!(sim.iterations, vec![ITERS, 3, ITERS]);
    assert_eq!(mem.iterations, vec![ITERS, 3, ITERS]);
    let (sw, mw) = (weight_bits(&sim), weight_bits(&mem));
    for w in [0, 2] {
        assert!(!sw[w].is_empty(), "sim captured no weights for {w}");
        assert!(sw[w] == mw[w], "sim vs mem weights diverged at worker {w}");
    }
}
