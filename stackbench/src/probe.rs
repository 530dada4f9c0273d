//! The parity probe: a short strict-BSP Baseline run on the simulator, the
//! in-memory transport and loopback TCP must reach bit-identical final
//! weights — this repo's signature property (the recipe of
//! `crates/net/tests/parity.rs`). Every benchmark run executes it as an
//! output check before measuring anything.
//!
//! In a traced run the probe also doubles as the walk of the layers a
//! workload does not exercise: its simulator leg supplies `runner.*` rows
//! for the live workloads and its TCP leg supplies `tcp.*`/`driver.*` rows
//! for the simulator workloads, so every ledger row is measured on every
//! run.

use crate::live::{self, LiveSpec};
use crate::obs::{SimObs, TransportObs};
use crate::sim::{self, SimSpec};
use dlion_core::{RunConfig, RunMetrics, SyncPolicy, SystemKind};
use dlion_net::{live_config, LiveOpts, TransportKind};
use dlion_simnet::{ComputeModel, NetworkModel};
use std::time::{Duration, Instant};

const RANKS: usize = 2;
const ITERS: u64 = 6;
const BW_MBPS: f64 = 1000.0;
/// The simulated environment's iteration time at LBS 32, which the live
/// legs pin: `0.05 + 0.001 × 32` seconds.
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

fn cfg(seed: u64) -> RunConfig {
    let mut cfg = live_config(SystemKind::Baseline, seed);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(ITERS);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg
}

fn weight_bits(m: &RunMetrics) -> Vec<Vec<Vec<u32>>> {
    m.final_weights
        .iter()
        .map(|ws| {
            ws.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

/// What the probe observed (filled in traced runs only).
#[derive(Default)]
pub struct ProbeObs {
    pub sim: SimObs,
    pub tcp: TransportObs,
}

/// Run the three legs and compare. `Err` names the first divergence.
pub fn run(seed: u64, traced: bool, epoch: Instant) -> Result<ProbeObs, String> {
    let mut obs = ProbeObs::default();
    let sim = sim::run(
        || SimSpec {
            cfg: cfg(seed),
            compute: ComputeModel::homogeneous(RANKS, 1.0, 0.001, 0.05),
            net: NetworkModel::uniform(RANKS, BW_MBPS, 0.001),
            env: "probe",
        },
        traced,
    );
    if sim.metrics.iterations != vec![ITERS; RANKS] {
        return Err(format!("probe sim iterations {:?}", sim.metrics.iterations));
    }
    let want = weight_bits(&sim.metrics);
    if traced {
        obs.sim.absorb(&sim.metrics, sim.wall_s, 32);
    }
    for kind in [TransportKind::Mem, TransportKind::Tcp] {
        let live = live::run(
            || LiveSpec {
                cfg: cfg(seed),
                n: RANKS,
                opts: LiveOpts {
                    iters: ITERS,
                    eval_every: 0,
                    bw_mbps: BW_MBPS,
                    assumed_iter_time: Some(ITER_TIME),
                    stall_timeout: Duration::from_secs(60),
                    ..Default::default()
                },
                kind,
            },
            traced && kind == TransportKind::Tcp,
            epoch,
        )
        .map_err(|e| format!("probe {kind:?}: {e}"))?;
        if live.metrics.iterations != vec![ITERS; RANKS] {
            return Err(format!(
                "probe {kind:?} iterations {:?}",
                live.metrics.iterations
            ));
        }
        if weight_bits(&live.metrics) != want {
            return Err(format!(
                "probe: strict-BSP weights differ between sim and {kind:?}"
            ));
        }
        if !live.traces.is_empty() {
            obs.tcp.absorb_protocol(&live.metrics);
            obs.tcp.absorb(
                live.traces,
                live.wall_s,
                live.establish_s,
                live.metrics.total_iterations(),
            );
        }
    }
    Ok(obs)
}
