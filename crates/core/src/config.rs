//! Run configuration: which system, which workload, which knobs.

use crate::dkt::DktConfig;
use crate::gbs::GbsConfig;
use crate::messages::WireFormat;
use crate::sync::SyncPolicy;
use dlion_microcloud::ClusterKind;
use dlion_nn::ModelSpec;
use dlion_topo::Topology;

/// The five systems of the evaluation (§5.1.4) plus the Max N-only variant
/// of Figure 16 and the ablations of Figure 14.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SystemKind {
    /// Exchange whole gradients with all workers every iteration (BSP).
    Baseline,
    /// Ako: partitioned gradient exchange, asynchronous.
    Ako,
    /// Gaia: significance-filtered gradients (threshold S%), blocking on
    /// delivery.
    Gaia,
    /// Hop: whole gradients, bounded staleness, backup workers.
    Hop,
    /// DLion with all three techniques.
    DLion,
    /// DLion ablation: no dynamic batching, no weighted update (Fig. 14's
    /// "DLion-no-DBWU").
    DLionNoDbwu,
    /// DLion ablation: dynamic batching but no weighted update (Fig. 14's
    /// "DLion-no-WU").
    DLionNoWu,
    /// Max N alone with a fixed N, none of the other techniques (Fig. 16).
    MaxNOnly(f64),
    /// Prague-style partial all-reduce with the given group size — an
    /// extension beyond the paper's four comparison systems (it discusses
    /// Prague as related work in §6).
    Prague(usize),
}

impl SystemKind {
    /// Parse a CLI system name (the lowercase of [`SystemKind::name`],
    /// plus the `maxN` / `pragueG` parameterized forms, `0 < N <= 100` and
    /// `G >= 2` — the ranges the strategies accept). All binaries share
    /// this one parser.
    pub fn parse(s: &str) -> Option<SystemKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "baseline" => SystemKind::Baseline,
            "ako" => SystemKind::Ako,
            "gaia" => SystemKind::Gaia,
            "hop" => SystemKind::Hop,
            "dlion" => SystemKind::DLion,
            "dlion-no-dbwu" => SystemKind::DLionNoDbwu,
            "dlion-no-wu" => SystemKind::DLionNoWu,
            other => {
                if let Some(n) = other.strip_prefix("max") {
                    let n: f64 = n.parse().ok()?;
                    // Also refuses NaN.
                    if !(n > 0.0 && n <= 100.0) {
                        return None;
                    }
                    SystemKind::MaxNOnly(n)
                } else if let Some(g) = other.strip_prefix("prague") {
                    let g: usize = g.trim_matches(|c| c == '(' || c == ')').parse().ok()?;
                    if g < 2 {
                        return None;
                    }
                    SystemKind::Prague(g)
                } else {
                    return None;
                }
            }
        })
    }

    /// Paper-style display name.
    pub fn name(self) -> String {
        match self {
            SystemKind::Baseline => "Baseline".into(),
            SystemKind::Ako => "Ako".into(),
            SystemKind::Gaia => "Gaia".into(),
            SystemKind::Hop => "Hop".into(),
            SystemKind::DLion => "DLion".into(),
            SystemKind::DLionNoDbwu => "DLion-no-DBWU".into(),
            SystemKind::DLionNoWu => "DLion-no-WU".into(),
            SystemKind::MaxNOnly(n) => format!("Max{n:.0}"),
            SystemKind::Prague(g) => format!("Prague(g={g})"),
        }
    }

    /// The five headline systems compared throughout §5.2.
    pub fn headline() -> [SystemKind; 5] {
        [
            SystemKind::Baseline,
            SystemKind::Hop,
            SystemKind::Gaia,
            SystemKind::Ako,
            SystemKind::DLion,
        ]
    }

    /// Does this system run the GBS/LBS controllers?
    pub fn dynamic_batching(self) -> bool {
        matches!(self, SystemKind::DLion | SystemKind::DLionNoWu)
    }

    /// Does this system apply the dynamic batching weight (Eq. 7)?
    pub fn weighted_update(self) -> bool {
        matches!(self, SystemKind::DLion)
    }

    /// Does this system run direct knowledge transfer?
    pub fn dkt(self) -> bool {
        matches!(
            self,
            SystemKind::DLion | SystemKind::DLionNoDbwu | SystemKind::DLionNoWu
        )
    }
}

/// What is being trained: dataset sizes and the model family.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub model: ModelSpec,
    pub train_size: usize,
    pub test_size: usize,
    /// Dataset generation seed (fixed across systems so they see the same
    /// data).
    pub data_seed: u64,
    /// Label skew of the per-worker shards: 0 = i.i.d., 1 = fully
    /// class-partitioned. Micro-clouds ingest data from their own edge
    /// devices, so local distributions differ; the default models a
    /// moderate geo-skew.
    pub shard_skew: f64,
}

impl Workload {
    /// The CPU-cluster workload: CipherNet over the CIFAR10 stand-in.
    pub fn cipher() -> Self {
        Workload {
            model: ModelSpec::Cipher,
            train_size: 24_000,
            test_size: 2_000,
            data_seed: 7,
            shard_skew: 0.35,
        }
    }

    /// The GPU-cluster workload: MicroMobileNet over the ImageNet stand-in.
    pub fn mobilenet() -> Self {
        Workload {
            model: ModelSpec::MobileNet,
            train_size: 24_000,
            test_size: 2_000,
            data_seed: 11,
            shard_skew: 0.35,
        }
    }

    /// The natural workload for a cluster kind.
    pub fn for_cluster(kind: ClusterKind) -> Self {
        match kind {
            ClusterKind::Cpu => Workload::cipher(),
            ClusterKind::Gpu => Workload::mobilenet(),
        }
    }
}

/// Convergence detection for open-ended runs (Fig. 21: "trained until the
/// model is fully converged").
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceCfg {
    /// Look-back window in seconds.
    pub window_secs: f64,
    /// Converged when the best mean accuracy improved less than this over
    /// the window.
    pub min_improvement: f64,
    /// Never stop before this time.
    pub min_secs: f64,
}

impl Default for ConvergenceCfg {
    fn default() -> Self {
        ConvergenceCfg {
            window_secs: 600.0,
            min_improvement: 0.005,
            min_secs: 600.0,
        }
    }
}

/// Full configuration of one simulated training run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub system: SystemKind,
    pub workload: Workload,
    /// Virtual seconds to simulate (ignored if `converge` fires earlier).
    pub duration: f64,
    /// Root seed: controls init, batch sampling, sharding, profiling noise.
    pub seed: u64,
    /// Global learning rate η (fixed; never decayed).
    pub lr: f32,
    /// Initial (and, without dynamic batching, permanent) per-worker LBS.
    pub initial_lbs: usize,
    /// Evaluate all workers every this many virtual seconds.
    pub eval_interval: f64,
    /// Test-set subset used for periodic evaluation.
    pub eval_subset: usize,
    /// Minimum N for Max N (§5.1.4: 0.85).
    pub min_n: f64,
    pub dkt: DktConfig,
    pub gbs: GbsConfig,
    /// Re-profile compute capacity every this many virtual seconds (also
    /// done on every GBS change).
    pub profile_interval: f64,
    /// Relative noise on iteration-time measurements during profiling.
    pub profile_noise: f64,
    /// Stop early on accuracy plateau.
    pub converge: Option<ConvergenceCfg>,
    /// Record per-link payload samples (Figures 8 and 20). Off by default:
    /// the trace grows with every gradient message.
    pub trace_links: bool,
    /// Collect the per-run telemetry [`dlion_telemetry::Registry`]
    /// (counters / gauges / histograms in `RunMetrics::telemetry`). Off by
    /// default; everything recorded is virtual-time-derived, so enabling it
    /// never perturbs results.
    pub telemetry: bool,
    /// Clip each gradient entry into `[-clip, clip]` before use; guards the
    /// asynchronous systems against stale-gradient blow-ups.
    pub grad_clip: f32,
    /// Communication topology (extension; the paper uses the full mesh).
    pub topology: Topology,
    /// Stop each worker after exactly this many iterations instead of at
    /// `duration`. The run then ends once every worker reached the cap and
    /// all in-flight messages drained. Used by the sim/live parity tests,
    /// where both backends must execute the same fixed amount of work.
    pub max_iters: Option<u64>,
    /// Capture every worker's final weights into
    /// [`crate::metrics::RunMetrics::final_weights`] (parity checks).
    pub capture_weights: bool,
    /// Replace the system's native `synch_training` policy (e.g. force a
    /// Baseline run into strict BSP [`SyncPolicy::Synchronous`]). The
    /// exchange strategy is unchanged; only the start-gating policy is.
    pub sync_override: Option<SyncPolicy>,
    /// Gradient wire encoding (`--wire dense|fp16|int8|topk:N`): the
    /// quantized-wire ablation axis. Dense keeps bit-exact f32 on the
    /// wire; the lossy formats are applied at send so sim and live runs
    /// see the same receiver-side gradients.
    pub wire: WireFormat,
    /// Scheduled worker departures (`--kill`), read by both backends with
    /// the same iteration-indexed semantics: a killed worker completes
    /// rounds `0..at_iter`, sends its last round's gradients, and leaves;
    /// survivors renormalize their Eq. 7 divisors from that round on
    /// (`build_cluster` seeds every worker's departures from the plan,
    /// [`crate::worker::Worker::departures`]). A rejoining kill pauses the
    /// worker for `rejoin_after` seconds (virtual in the simulator, clock
    /// seconds live); it stays a member and keeps receiving.
    pub fault: crate::fault::FaultPlan,
    /// Per-worker iteration-time multipliers (`--straggle W:F`): `(worker,
    /// factor)` with a positive finite factor (> 1 slows the worker), at
    /// most one pair per worker.
    /// The simulator applies it on top of the compute model and the live
    /// driver on its (pinned or measured) iteration time — the same
    /// place on the training clock, so `cluster_health` straggler scores
    /// match between backends; a factor of 1.0 is an exact float no-op.
    pub straggle: Vec<(usize, f64)>,
}

impl RunConfig {
    /// Paper-default configuration for a system on a cluster kind, using
    /// the §5.1.4 settings.
    pub fn paper_default(system: SystemKind, cluster: ClusterKind) -> Self {
        let dkt = if system.dkt() {
            DktConfig::default()
        } else {
            DktConfig::off()
        };
        RunConfig {
            system,
            workload: Workload::for_cluster(cluster),
            duration: 1500.0,
            seed: 1,
            lr: 0.22,
            initial_lbs: 32,
            eval_interval: 125.0,
            eval_subset: 200,
            min_n: 0.85,
            dkt,
            gbs: GbsConfig::default(),
            profile_interval: 100.0,
            profile_noise: 0.02,
            converge: None,
            trace_links: false,
            telemetry: false,
            grad_clip: 5.0,
            topology: Topology::FullMesh,
            max_iters: None,
            capture_weights: false,
            sync_override: None,
            wire: WireFormat::Dense,
            fault: crate::fault::FaultPlan::default(),
            straggle: Vec::new(),
        }
    }

    /// A scaled-down configuration for fast tests: small dataset, short
    /// duration, frequent evals.
    pub fn small_test(system: SystemKind) -> Self {
        let mut c = RunConfig::paper_default(system, ClusterKind::Cpu);
        c.workload.train_size = 1200;
        c.workload.test_size = 300;
        c.duration = 120.0;
        c.eval_interval = 30.0;
        c.eval_subset = 100;
        c.dkt.period_iters = 20;
        c
    }

    /// Worker `w`'s iteration-time multiplier: its `straggle` factor, 1.0
    /// for a worker the list does not name.
    pub fn straggle_of(&self, w: usize) -> f64 {
        let named = self.straggle.iter().find(|&&(s, _)| s == w);
        named.map_or(1.0, |&(_, f)| f)
    }

    pub fn validate(&self) {
        assert!(self.duration > 0.0);
        assert!(self.lr > 0.0);
        assert!(self.initial_lbs > 0);
        assert!(self.eval_interval > 0.0 && self.eval_subset > 0);
        assert!(self.min_n > 0.0 && self.min_n <= 100.0);
        assert!(self.profile_interval > 0.0);
        assert!(self.grad_clip > 0.0);
        if let WireFormat::TopK(n) = self.wire {
            assert!(n > 0.0 && n <= 100.0, "topk N must be in (0, 100]");
        }
        for (i, &(w, f)) in self.straggle.iter().enumerate() {
            assert!(f > 0.0 && f.is_finite(), "straggle factor must be positive");
            assert!(
                self.straggle[..i].iter().all(|&(seen, _)| seen != w),
                "worker {w} is straggled twice"
            );
        }
        self.dkt.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_feature_matrix() {
        assert!(SystemKind::DLion.dynamic_batching());
        assert!(SystemKind::DLion.weighted_update());
        assert!(SystemKind::DLion.dkt());
        assert!(!SystemKind::DLionNoDbwu.dynamic_batching());
        assert!(!SystemKind::DLionNoDbwu.weighted_update());
        assert!(SystemKind::DLionNoDbwu.dkt());
        assert!(SystemKind::DLionNoWu.dynamic_batching());
        assert!(!SystemKind::DLionNoWu.weighted_update());
        for s in [
            SystemKind::Baseline,
            SystemKind::Ako,
            SystemKind::Gaia,
            SystemKind::Hop,
            SystemKind::Prague(3),
        ] {
            assert!(
                !s.dynamic_batching() && !s.weighted_update() && !s.dkt(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn names() {
        assert_eq!(SystemKind::MaxNOnly(10.0).name(), "Max10");
        assert_eq!(SystemKind::DLionNoDbwu.name(), "DLion-no-DBWU");
        assert_eq!(SystemKind::headline().len(), 5);
    }

    #[test]
    fn paper_defaults_match_section_514() {
        let c = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
        assert_eq!(c.min_n, 0.85);
        assert_eq!(c.dkt.period_iters, 100);
        assert_eq!(c.dkt.lambda, 0.75);
        assert_eq!(c.initial_lbs, 32);
        c.validate();
    }

    #[test]
    fn dkt_disabled_for_non_dlion() {
        let c = RunConfig::paper_default(SystemKind::Gaia, ClusterKind::Cpu);
        assert_eq!(c.dkt.mode, crate::dkt::DktMode::Off);
    }

    #[test]
    fn workload_for_cluster() {
        assert_eq!(
            Workload::for_cluster(ClusterKind::Cpu).model,
            ModelSpec::Cipher
        );
        assert_eq!(
            Workload::for_cluster(ClusterKind::Gpu).model,
            ModelSpec::MobileNet
        );
    }

    #[test]
    fn small_test_validates() {
        RunConfig::small_test(SystemKind::DLion).validate();
    }
}
