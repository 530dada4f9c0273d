//! The shared pool of "standard" runs.
//!
//! Several figures (11, 13, 15, 16, 17, 18) evaluate the same systems in
//! overlapping environments with identical settings (Cipher, 1500 s). The
//! pool memoizes each `(system, env, seed)` run so the `all` command never
//! simulates the same configuration twice.

use crate::opts::ExpOpts;
use dlion_core::{run_env, RunConfig, RunMetrics, SystemKind};
use dlion_microcloud::{ClusterKind, EnvId};
use dlion_tensor::stats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Fan a batch of `(config, env)` simulation cells over the worker pool.
///
/// Every experiment that sweeps `(system, env, seed)` builds its full cell
/// list first and hands it here, so independent simulations run
/// concurrently when cores are available. Results come back in input
/// (index) order regardless of execution interleaving, so tables built
/// from them are byte-identical to the old serial loops. A cell is the
/// grain here: inside a fanned cell the runner's own gradient jobs run
/// inline (a spawn from inside a pool job runs at its join). On a
/// single-core host the whole fan is an inline serial loop.
///
/// Sweep progress (cells completed / total, elapsed, ETA) is reported at
/// `info` level on the `experiments.sweep` target as cells finish.
pub fn fan_cells(cells: &[(RunConfig, EnvId)]) -> Vec<RunMetrics> {
    let total = cells.len();
    let done = AtomicUsize::new(0);
    let t0 = Instant::now();
    dlion_tensor::par::par_map(cells, |(cfg, env)| {
        let m = run_env(cfg, *env);
        let d = done.fetch_add(1, Ordering::Relaxed) + 1;
        if total > 1 {
            let elapsed = t0.elapsed().as_secs_f64();
            let eta = elapsed / d as f64 * (total - d) as f64;
            dlion_telemetry::info!(target: "experiments.sweep",
                "{d}/{total} cells done ({} / {} / seed {}); {elapsed:.0}s elapsed, ~{eta:.0}s left",
                m.system, m.env, cfg.seed);
        }
        m
    })
}

/// The standard experiment cell: a system's paper defaults on the CPU
/// cluster, 1500 s (scaled by `--fast`), and the shared train, test and
/// evaluation sizes. Every figure and ablation starts from it.
pub fn config(opts: &ExpOpts, system: SystemKind, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::paper_default(system, ClusterKind::Cpu);
    cfg.seed = seed;
    cfg.duration = opts.dur(1500.0);
    cfg.workload.train_size = opts.train_size(24_000);
    cfg.workload.test_size = if opts.fast { 400 } else { 2000 };
    cfg.eval_subset = if opts.fast { 150 } else { 250 };
    cfg
}

/// Memoizing runner for the standard CPU-cluster configuration.
pub struct StandardRuns {
    opts: ExpOpts,
    memo: HashMap<(String, EnvId, u64), RunMetrics>,
}

impl StandardRuns {
    pub fn new(opts: &ExpOpts) -> Self {
        StandardRuns {
            opts: opts.clone(),
            memo: HashMap::new(),
        }
    }

    /// All seeds' metrics for `(system, env)`, running anything missing.
    /// Missing seeds fan over the worker pool as one batch.
    pub fn get(&mut self, system: SystemKind, env: EnvId) -> Vec<RunMetrics> {
        let missing: Vec<u64> = self
            .opts
            .seeds
            .iter()
            .copied()
            .filter(|&seed| !self.memo.contains_key(&(system.name(), env, seed)))
            .collect();
        if !missing.is_empty() {
            for &seed in &missing {
                dlion_telemetry::debug!(target: "experiments.progress",
                    "  running {} / {} / seed {seed} ...",
                    system.name(),
                    env.name()
                );
            }
            let cells: Vec<(RunConfig, EnvId)> = missing
                .iter()
                .map(|&seed| (config(&self.opts, system, seed), env))
                .collect();
            for (&seed, m) in missing.iter().zip(fan_cells(&cells)) {
                self.memo.insert((system.name(), env, seed), m);
            }
        }
        self.opts
            .seeds
            .iter()
            .map(|&seed| self.memo[&(system.name(), env, seed)].clone())
            .collect()
    }
}

/// Evaluation points averaged into the end-of-run accuracy (noise
/// smoothing; see [`RunMetrics::tail_mean_acc`]).
pub const TAIL_EVALS: usize = 3;

/// Mean and 95% CI of end-of-run accuracy across seed runs.
pub fn acc_final(runs: &[RunMetrics]) -> (f64, f64) {
    let xs: Vec<f64> = runs.iter().map(|m| m.tail_mean_acc(TAIL_EVALS)).collect();
    (stats::mean(&xs), stats::ci95(&xs))
}

/// Mean and CI of the best (peak) mean accuracy across seed runs.
pub fn acc_best(runs: &[RunMetrics]) -> (f64, f64) {
    let xs: Vec<f64> = runs.iter().map(|m| m.best_mean_acc()).collect();
    (stats::mean(&xs), stats::ci95(&xs))
}

/// Mean and CI of the across-worker accuracy std-dev (Fig. 17's metric).
pub fn acc_deviation(runs: &[RunMetrics]) -> (f64, f64) {
    let xs: Vec<f64> = runs.iter().map(|m| m.final_acc_std()).collect();
    (stats::mean(&xs), stats::ci95(&xs))
}

/// Mean time-to-target across seed runs; `None` if any run never got there.
pub fn time_to(runs: &[RunMetrics], target: f64) -> Option<f64> {
    let mut xs = Vec::new();
    for m in runs {
        xs.push(m.time_to_accuracy(target)?);
    }
    Some(stats::mean(&xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_avoids_reruns() {
        let mut sr = StandardRuns::new(&ExpOpts::fast());
        let a = sr.get(SystemKind::Baseline, EnvId::HomoA);
        assert_eq!(sr.memo.len(), 1);
        let b = sr.get(SystemKind::Baseline, EnvId::HomoA);
        assert_eq!(sr.memo.len(), 1, "second call must hit the memo");
        assert_eq!(a[0].worker_acc, b[0].worker_acc);
    }

    #[test]
    fn config_uses_paper_settings() {
        let c = config(&ExpOpts::full(), SystemKind::DLion, 3);
        assert_eq!(c.seed, 3);
        assert_eq!(c.duration, 1500.0);
        assert_eq!(c.workload.train_size, 24_000);
    }

    #[test]
    fn summary_helpers() {
        let mk = |acc: f64| RunMetrics {
            eval_times: vec![100.0],
            worker_acc: vec![vec![acc, acc + 0.02]],
            ..Default::default()
        };
        let runs = vec![mk(0.5), mk(0.6)];
        let (mean, ci) = acc_final(&runs);
        assert!((mean - 0.56).abs() < 1e-9);
        assert!(ci > 0.0);
        assert!(time_to(&runs, 0.9).is_none());
        let (dev, _) = acc_deviation(&runs);
        assert!(dev > 0.0);
    }
}
