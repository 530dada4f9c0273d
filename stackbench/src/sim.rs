//! The two simulator workloads: `sim_paper` (one figure cell) and
//! `sim_scale` (many cache-cold models at batch 1).
//!
//! Both drive `dlion_core::ClusterRunner` through its public constructor
//! and `run`; set-up is everything before `run`, the timed region is `run`.

use crate::Size;
use dlion_core::messages::Fnv8;
use dlion_core::{ClusterRunner, RunConfig, RunMetrics, SystemKind, Topology};
use dlion_microcloud::{ClusterKind, EnvId};
use dlion_simnet::schedule::PiecewiseConst;
use dlion_simnet::{ComputeModel, NetworkModel};
use std::time::Instant;

/// `sim_paper` runs the paper cell with every clock divided by this, so
/// one repetition is ≈ 1.8 s of host time instead of ≈ 7 s and a run can
/// take a median over several. Every period shrinks together — duration,
/// environment phases, GBS adjustment, re-profiling, evaluation and the DKT
/// period — so the cell keeps its shape: three capacity/bandwidth phases,
/// three GBS steps (192 → 256 → 384 → 576), LBS 32 → ≈ 100, DKT rounds.
pub const PAPER_TIME_DIVISOR: f64 = 5.0;

/// A simulator run ready to be constructed.
pub struct SimSpec {
    pub cfg: RunConfig,
    pub compute: ComputeModel,
    pub net: NetworkModel,
    pub env: &'static str,
}

fn compress(s: &PiecewiseConst, divisor: f64) -> PiecewiseConst {
    PiecewiseConst::steps(s.points().iter().map(|&(t, v)| (t / divisor, v)).collect())
}

/// `DLion` on `DynamicSysA` with the §5.1.4 defaults, time-compressed by
/// `divisor` (5 for the benchmark, larger for the toy size).
pub fn paper_cell(seed: u64, size: Size) -> SimSpec {
    let divisor = match size {
        Size::Full => PAPER_TIME_DIVISOR,
        Size::Quick => 50.0,
    };
    let mut cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
    cfg.seed = seed;
    cfg.duration /= divisor;
    cfg.eval_interval /= divisor;
    cfg.gbs.adjust_period_secs /= divisor;
    cfg.profile_interval /= divisor;
    cfg.dkt.period_iters = ((cfg.dkt.period_iters as f64 / divisor).ceil() as u64).max(2);
    cfg.capture_weights = true;
    if size == Size::Quick {
        cfg.workload.train_size = 2400;
        cfg.workload.test_size = 300;
        cfg.eval_subset = 100;
    }
    let mut spec = EnvId::DynamicSysA.spec();
    for s in spec.capacity.iter_mut().chain(spec.worker_bw.iter_mut()) {
        *s = compress(s, divisor);
    }
    SimSpec {
        cfg,
        compute: spec.compute_model(),
        net: spec.network_model(),
        env: spec.name,
    }
}

/// Iterations each rank runs in `sim_scale`. The host cost per iteration
/// grows with the iteration index at n = 1024 (the superlinear term ROADMAP
/// item 2 asks to be named), so the count is part of the workload's shape.
pub const SCALE_ITERS: u64 = 3;

/// Baseline on a rotating `kregular:8` graph of 1024 homogeneous workers at
/// batch 1: the runner, event queue, topology plane and memory carry it.
pub fn scale_cell(seed: u64, size: Size) -> SimSpec {
    let n = match size {
        Size::Full => 1024,
        Size::Quick => 48,
    };
    let mut cfg = RunConfig::paper_default(SystemKind::Baseline, ClusterKind::Cpu);
    cfg.seed = seed;
    cfg.duration = 1e9;
    cfg.eval_interval = 1e9;
    cfg.max_iters = Some(SCALE_ITERS);
    cfg.initial_lbs = 1;
    cfg.workload.train_size = 8 * n;
    cfg.workload.test_size = 16;
    cfg.eval_subset = 8;
    cfg.topology = Topology::KRegular { k: 8 };
    cfg.capture_weights = true;
    SimSpec {
        cfg,
        compute: ComputeModel::homogeneous(n, 1.0, 0.001, 0.05),
        net: NetworkModel::uniform(n, 1000.0, 0.001),
        env: "scale/kregular8",
    }
}

/// One constructed-and-run simulation with its two host times.
pub struct SimRun {
    pub setup_s: f64,
    pub wall_s: f64,
    pub metrics: RunMetrics,
}

/// Build the spec and the cluster (set-up), then run it (timed).
/// `telemetry` turns on the program's existing per-run registry — used by
/// traced runs only, for exact event and message counts.
pub fn run(make: impl FnOnce() -> SimSpec, telemetry: bool) -> SimRun {
    let t0 = Instant::now();
    let mut spec = make();
    spec.cfg.telemetry = telemetry;
    let runner = ClusterRunner::new(spec.cfg, spec.compute, spec.net, spec.env);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let metrics = runner.run();
    let wall_s = t1.elapsed().as_secs_f64();
    SimRun {
        setup_s,
        wall_s,
        metrics,
    }
}

/// The little-endian bytes of a value slice, for hashing.
pub fn f32_bytes(vs: &[f32]) -> Vec<u8> {
    vs.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Result digest of a run: final weights' bits, iteration counts, the
/// GBS/LBS traces and the wire-byte ledger. Two runs of one seed must
/// agree on it; a change meant only to speed the simulator up must leave
/// it untouched.
pub fn digest(m: &RunMetrics) -> u64 {
    // The codec's streaming 8-lane FNV: any split of the input hashes alike.
    let mut h = Fnv8::new(0);
    let mut word = |v: u64| h.update(&v.to_le_bytes());
    m.iterations.iter().for_each(|&i| word(i));
    for &(t, gbs) in &m.gbs_trace {
        word(t.to_bits());
        word(gbs as u64);
    }
    for (t, lbs) in &m.lbs_trace {
        word(t.to_bits());
        lbs.iter().for_each(|&l| word(l as u64));
    }
    for (label, bytes) in &m.wire_bytes_by_kind {
        h.update(label.as_bytes());
        h.update(&bytes.to_bits().to_le_bytes());
    }
    for t in m.final_weights.iter().flatten() {
        h.update(&f32_bytes(t.data()));
    }
    h.digest()
}

/// Σ of the exact encoded-bytes ledger.
pub fn ledger_bytes(m: &RunMetrics) -> f64 {
    m.wire_bytes_by_kind.values().sum()
}

/// Samples the run trained on, estimated from outside: each rank's
/// iterations times its time-weighted mean LBS from the LBS trace (exact
/// when the LBS never changes). `end` is the run's length on the clock the
/// trace is stamped with: virtual seconds for a simulation, training-clock
/// seconds for a live run.
pub fn estimated_samples(m: &RunMetrics, initial_lbs: usize, end: f64) -> f64 {
    let n = m.iterations.len();
    let end = end.max(f64::MIN_POSITIVE);
    (0..n)
        .map(|w| {
            let mut weighted = 0.0;
            let (mut t_prev, mut lbs_prev) = (0.0f64, initial_lbs as f64);
            for (t, lbs) in &m.lbs_trace {
                let t = t.min(end);
                weighted += lbs_prev * (t - t_prev);
                t_prev = t;
                lbs_prev = lbs.get(w).copied().unwrap_or(initial_lbs) as f64;
            }
            weighted += lbs_prev * (end - t_prev);
            m.iterations[w] as f64 * weighted / end
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_cell_keeps_three_phases() {
        let spec = paper_cell(1, Size::Full);
        assert_eq!(spec.cfg.duration, 300.0);
        assert_eq!(spec.cfg.gbs.adjust_period_secs, 100.0);
        assert_eq!(spec.cfg.dkt.period_iters, 20);
        // Phase 1 is homogeneous, phases 2 and 3 are not.
        assert_eq!(spec.compute.capacity_at(5, 50.0), 24.0);
        assert_eq!(spec.compute.capacity_at(5, 150.0), 6.0);
        assert_eq!(spec.net.bandwidth_mbps(0, 1, 150.0), 50.0);
        assert_eq!(spec.net.bandwidth_mbps(0, 1, 250.0), 20.0);
    }

    #[test]
    fn digest_sees_every_ingredient() {
        let base = RunMetrics {
            iterations: vec![3, 3],
            gbs_trace: vec![(1.0, 96)],
            ..Default::default()
        };
        let mut other = base.clone();
        other.iterations[1] = 4;
        assert_ne!(digest(&base), digest(&other));
        let mut other = base.clone();
        other.wire_bytes_by_kind.insert("grad_dense".into(), 8.0);
        assert_ne!(digest(&base), digest(&other));
        assert_eq!(digest(&base), digest(&base.clone()));
    }

    #[test]
    fn samples_estimate_is_exact_for_a_constant_lbs() {
        let m = RunMetrics {
            iterations: vec![10, 20],
            lbs_trace: vec![(0.0, vec![2, 3])],
            ..Default::default()
        };
        assert_eq!(estimated_samples(&m, 1, 4.0), 10.0 * 2.0 + 20.0 * 3.0);
    }
}
