//! Run metrics: everything the evaluation figures are derived from.
//!
//! The paper's three performance metrics (§5.1.3) map to:
//! * accuracy for a given training time → [`RunMetrics::mean_acc_at`],
//! * training time to a target accuracy → [`RunMetrics::time_to_accuracy`],
//! * best accuracy at convergence → [`RunMetrics::best_mean_acc`] together
//!   with [`RunMetrics::converged_at`].
//!
//! Per-worker accuracy series additionally give Figure 17's deviation, and
//! the GBS/LBS/link traces give Figures 6, 8, 19 and 20.

use dlion_telemetry::event;
use dlion_tensor::stats;

/// One sampled gradient transfer (Figures 8/20).
#[derive(Clone, Copy, Debug)]
pub struct LinkSample {
    pub time: f64,
    pub src: usize,
    pub dst: usize,
    pub bytes: f64,
    /// Number of gradient entries in the message.
    pub entries: usize,
    /// Max N parameter used (100 = dense).
    pub n_used: f64,
}

/// The cluster-health view of one run (DESIGN.md §4h): per-worker
/// iteration rates and straggler scores — the slowest/median ratio is the
/// same signal §3.2's LBS repartitioning acts on — plus who left the run.
/// Both backends build it in the one fold of the ranks' records
/// ([`crate::record::assemble_metrics`]), with rates taken from the
/// *training clock* (Σ `dt`: virtual in the sim, pinnable live), so under a
/// pinned iteration time the summary is bit-identical across repeat runs,
/// transports and the simulator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HealthSummary {
    /// Per-worker iteration rate on the training clock, iterations/sec
    /// (0 when the worker never completed an iteration).
    pub rates: Vec<f64>,
    /// Per-worker straggler score: `median_rate / own_rate`. 1 = exactly
    /// median, > 1 = slower than the median (0 when the rate is unknown).
    pub scores: Vec<f64>,
    /// The slowest worker (the lowest id of the highest score; 0 when
    /// nobody has a rate).
    pub straggler: usize,
    /// The straggler's score — the paper's slowest/median ratio.
    pub straggler_score: f64,
    /// Workers that left the run for good (a permanent kill): each sim
    /// rank's `Worker::departed`, the live outcomes' `departed` flags.
    pub departed: Vec<bool>,
}

impl HealthSummary {
    /// Build a summary from per-worker rates and departures. The median is
    /// taken over workers with a known (> 0) rate.
    pub fn compute(rates: Vec<f64>, departed: Vec<bool>) -> HealthSummary {
        let mut known: Vec<f64> = rates.iter().copied().filter(|&r| r > 0.0).collect();
        known.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
        let median = if known.is_empty() {
            0.0
        } else if known.len() % 2 == 1 {
            known[known.len() / 2]
        } else {
            0.5 * (known[known.len() / 2 - 1] + known[known.len() / 2])
        };
        let scores: Vec<f64> = rates
            .iter()
            .map(|&r| if r > 0.0 { median / r } else { 0.0 })
            .collect();
        // The first of equal maxima: a tied cluster names its lowest id.
        let straggler =
            (0..scores.len()).fold(0, |best, w| if scores[w] > scores[best] { w } else { best });
        let straggler_score = scores.get(straggler).copied().unwrap_or(0.0);
        HealthSummary {
            rates,
            scores,
            straggler,
            straggler_score,
            departed,
        }
    }

    /// Trace the verdict: one fixed-key `cluster_health` event per worker
    /// at training-clock time `vt`, the same columns from both backends.
    pub fn trace(&self, vt: f64, iterations: &[u64]) {
        for (w, &iters) in iterations.iter().enumerate() {
            event!(vt, w: w, "cluster_health";
                "iterations" => iters,
                "rate" => self.rates[w],
                "score" => self.scores[w],
                "departed" => self.departed[w],
                "straggler" => self.straggler);
        }
    }
}

/// Everything recorded during one run, simulated or live: the fold of the
/// ranks' records ([`crate::record::assemble_metrics`]), plus, on the
/// simulator, what only its event loop sees (`converged_at`, `link_trace`
/// and the in-loop telemetry). Times are the backend's clock: virtual
/// seconds on the simulator, wall seconds since the cluster epoch live
/// (the training clock where a field says so).
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    pub system: String,
    pub env: String,
    pub seed: u64,
    /// Time of each evaluation point.
    pub eval_times: Vec<f64>,
    /// `worker_acc[e][s]`: the test accuracy at eval point e of the s-th
    /// rank that finished the run ([`RunMetrics::eval_ids`]) — a departed
    /// rank is in no row, so a row is as wide as the survivors (every rank
    /// without departures). Before a departure a row's mean can therefore
    /// differ from the simulator's traced `eval` mean and Fig. 21's
    /// stopping rule, which average the ranks still in the run at that
    /// tick, a rank that departs later included.
    pub worker_acc: Vec<Vec<f64>>,
    /// `worker_loss[e][s]`: the test loss, shaped as `worker_acc`.
    pub worker_loss: Vec<Vec<f64>>,
    /// (time, GBS) whenever the GBS controller changed it.
    pub gbs_trace: Vec<(f64, usize)>,
    /// (time, per-worker LBS) whenever the LBS controller reassigned.
    pub lbs_trace: Vec<(f64, Vec<usize>)>,
    /// Sampled gradient transfers (only when `trace_links` is on).
    pub link_trace: Vec<LinkSample>,
    /// Total bytes sent, by payload kind: the network model's bytes on the
    /// simulator, exact encoded frame lengths live.
    pub grad_bytes: f64,
    pub weight_bytes: f64,
    pub control_bytes: f64,
    /// Bytes on the wire by *encoded* representation (`grad_dense`,
    /// `grad_sparse`, `grad_fp16`, `grad_int8`, `weights`, `control`; the
    /// labels that carried bytes) — the quantized-wire ablation column.
    /// Both backends count exact encoded frame lengths here, so sim and
    /// live rows compare one-for-one.
    pub wire_bytes_by_kind: std::collections::BTreeMap<String, f64>,
    /// Iterations completed per worker.
    pub iterations: Vec<u64>,
    /// Seconds each worker spent computing gradients (the rest is
    /// synchronization waiting or network-gated idling): the virtual steps
    /// on the simulator, wall seconds live.
    pub busy_time: Vec<f64>,
    /// Number of DKT weight merges applied cluster-wide.
    pub dkt_merges: u64,
    /// Time at which the convergence detector fired, if it did.
    pub converged_at: Option<f64>,
    /// Length of the run: the virtual end time on the simulator, the last
    /// rank's exit in wall seconds live.
    pub duration: f64,
    /// Per-run telemetry (counters / gauges / histograms), populated only
    /// when `RunConfig::telemetry` is on. The counters a record also holds
    /// (messages, bytes, DKT merges, batching rounds) are added once, by
    /// the fold, on both backends. On the simulator everything recorded is
    /// virtual-time-derived, so this is deterministic per seed.
    pub telemetry: dlion_telemetry::Registry,
    /// Cluster health summary (straggler scores, departures) — the
    /// final `cluster_health` view, always populated by both backends.
    pub health: HealthSummary,
    /// `final_weights[w]`: worker w's weight tensors at the end of the run,
    /// captured only when `RunConfig::capture_weights` is on (used by the
    /// sim/live parity tests for bit-exact comparison).
    pub final_weights: Vec<Vec<dlion_tensor::Tensor>>,
}

impl RunMetrics {
    /// Mean accuracy across workers at eval point `e`.
    pub fn mean_acc(&self, e: usize) -> f64 {
        stats::mean(&self.worker_acc[e])
    }

    /// Mean accuracy across workers at the last eval point (0 if none).
    pub fn final_mean_acc(&self) -> f64 {
        if self.worker_acc.is_empty() {
            0.0
        } else {
            self.mean_acc(self.worker_acc.len() - 1)
        }
    }

    /// Std-dev of accuracy *across workers* at the last eval point
    /// (Figure 17's metric).
    pub fn final_acc_std(&self) -> f64 {
        match self.worker_acc.last() {
            Some(row) => stats::std_dev(row),
            None => 0.0,
        }
    }

    /// Mean accuracy averaged over the last `k` evaluation points — a
    /// noise-robust "accuracy at the end of training" (fixed-LR SGD
    /// accuracy jitters between evals; the paper's bar figures implicitly
    /// smooth this by averaging runs).
    pub fn tail_mean_acc(&self, k: usize) -> f64 {
        let n = self.worker_acc.len();
        if n == 0 {
            return 0.0;
        }
        let k = k.clamp(1, n);
        let xs: Vec<f64> = (n - k..n).map(|e| self.mean_acc(e)).collect();
        stats::mean(&xs)
    }

    /// Highest mean accuracy over the whole run.
    pub fn best_mean_acc(&self) -> f64 {
        (0..self.worker_acc.len())
            .map(|e| self.mean_acc(e))
            .fold(0.0, f64::max)
    }

    /// Mean accuracy at (or before) time `t`. `eval_times` is sorted
    /// (evaluations happen in time order), so binary-search
    /// for the last eval point not after `t`.
    pub fn mean_acc_at(&self, t: f64) -> f64 {
        let e = self.eval_times.partition_point(|&te| te <= t);
        if e == 0 {
            0.0
        } else {
            self.mean_acc(e - 1)
        }
    }

    /// First time at which the mean accuracy reached `target`
    /// (linear interpolation between eval points), if ever.
    pub fn time_to_accuracy(&self, target: f64) -> Option<f64> {
        let mut prev: Option<(f64, f64)> = None;
        for (e, &t) in self.eval_times.iter().enumerate() {
            let a = self.mean_acc(e);
            if a >= target {
                return Some(match prev {
                    Some((pt, pa)) if a > pa => pt + (t - pt) * (target - pa) / (a - pa),
                    _ => t,
                });
            }
            prev = Some((t, a));
        }
        None
    }

    /// The worker ids an evaluation row holds, in row order: the ranks
    /// that did not depart.
    pub fn eval_ids(&self) -> Vec<usize> {
        let n = self.worker_acc.first().map_or(0, |r| r.len());
        let departed = |w: usize| self.health.departed.get(w).copied().unwrap_or(false);
        (0..).filter(|&w| !departed(w)).take(n).collect()
    }

    /// Write the per-worker accuracy/loss time series as CSV
    /// (`time,mean_acc,acc_w0..,loss_w0..`, a column named by its worker
    /// id: a departed rank has none) — consumed by plotting scripts and
    /// the `dlion-sim --csv` flag.
    pub fn write_timeseries_csv<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let ids = self.eval_ids();
        write!(out, "time,mean_acc")?;
        for column in ["acc", "loss"] {
            for w in &ids {
                write!(out, ",{column}_w{w}")?;
            }
        }
        writeln!(out)?;
        for (e, t) in self.eval_times.iter().enumerate() {
            write!(out, "{t},{}", self.mean_acc(e))?;
            for v in self.worker_acc[e].iter().chain(&self.worker_loss[e]) {
                write!(out, ",{v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Total bytes on the wire.
    pub fn total_bytes(&self) -> f64 {
        self.grad_bytes + self.weight_bytes + self.control_bytes
    }

    /// Total iterations across all workers.
    pub fn total_iterations(&self) -> u64 {
        self.iterations.iter().sum()
    }

    /// Compute utilization of worker `w`: fraction of the run it spent in
    /// gradient computation (vs. waiting on synchronization / network).
    pub fn utilization(&self, w: usize) -> f64 {
        if self.duration <= 0.0 {
            0.0
        } else {
            (self.busy_time.get(w).copied().unwrap_or(0.0) / self.duration).min(1.0)
        }
    }

    /// Mean compute utilization across workers.
    pub fn mean_utilization(&self) -> f64 {
        if self.busy_time.is_empty() {
            return 0.0;
        }
        let total: f64 = (0..self.busy_time.len()).map(|w| self.utilization(w)).sum();
        total / self.busy_time.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics {
            eval_times: vec![100.0, 200.0, 300.0],
            worker_acc: vec![vec![0.10, 0.12], vec![0.40, 0.44], vec![0.70, 0.66]],
            worker_loss: vec![vec![2.0; 2]; 3],
            iterations: vec![100, 90],
            ..Default::default()
        }
    }

    #[test]
    fn mean_and_final() {
        let m = metrics();
        assert!((m.mean_acc(0) - 0.11).abs() < 1e-12);
        assert!((m.final_mean_acc() - 0.68).abs() < 1e-12);
        assert!((m.best_mean_acc() - 0.68).abs() < 1e-12);
    }

    #[test]
    fn acc_at_time_steps() {
        let m = metrics();
        assert_eq!(m.mean_acc_at(50.0), 0.0);
        assert!((m.mean_acc_at(150.0) - 0.11).abs() < 1e-12);
        assert!((m.mean_acc_at(1000.0) - 0.68).abs() < 1e-12);
    }

    #[test]
    fn time_to_accuracy_interpolates() {
        let m = metrics();
        // 0.42 is reached between t=200 (0.42) — exactly at 200.
        let t = m.time_to_accuracy(0.42).unwrap();
        assert!((t - 200.0).abs() < 1e-9);
        // 0.55 between 200 (0.42) and 300 (0.68): 200 + 100*(0.13/0.26) = 250.
        let t = m.time_to_accuracy(0.55).unwrap();
        assert!((t - 250.0).abs() < 1e-9);
        assert_eq!(m.time_to_accuracy(0.9), None);
    }

    #[test]
    fn tail_mean_smooths() {
        let m = metrics();
        assert!((m.tail_mean_acc(1) - 0.68).abs() < 1e-12);
        assert!((m.tail_mean_acc(2) - (0.42 + 0.68) / 2.0).abs() < 1e-12);
        // k larger than the series clamps.
        assert!((m.tail_mean_acc(10) - (0.11 + 0.42 + 0.68) / 3.0).abs() < 1e-12);
        assert_eq!(RunMetrics::default().tail_mean_acc(3), 0.0);
    }

    #[test]
    fn deviation_across_workers() {
        let m = metrics();
        let expect = dlion_tensor::stats::std_dev(&[0.70, 0.66]);
        assert!((m.final_acc_std() - expect).abs() < 1e-12);
    }

    #[test]
    fn totals() {
        let mut m = metrics();
        m.grad_bytes = 10.0;
        m.weight_bytes = 5.0;
        m.control_bytes = 1.0;
        assert_eq!(m.total_bytes(), 16.0);
        assert_eq!(m.total_iterations(), 190);
    }

    #[test]
    fn timeseries_csv_shape() {
        let m = metrics();
        let mut buf = Vec::new();
        m.write_timeseries_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time,mean_acc,acc_w0,acc_w1,loss_w0,loss_w1"
        );
        assert_eq!(text.lines().count(), 4); // header + 3 eval points
        assert!(text.lines().nth(1).unwrap().starts_with("100,"));
        // A column is named by its worker id: with worker 1 of three
        // departed, the rows hold workers 0 and 2.
        let mut m = m;
        m.health.departed = vec![false, true, false];
        let mut buf = Vec::new();
        m.write_timeseries_csv(&mut buf).unwrap();
        let header = String::from_utf8(buf).unwrap();
        assert_eq!(
            header.lines().next().unwrap(),
            "time,mean_acc,acc_w0,acc_w2,loss_w0,loss_w2"
        );
    }

    #[test]
    fn utilization_math() {
        let mut m = metrics();
        m.duration = 200.0;
        m.busy_time = vec![150.0, 50.0];
        assert!((m.utilization(0) - 0.75).abs() < 1e-12);
        assert!((m.utilization(1) - 0.25).abs() < 1e-12);
        assert!((m.mean_utilization() - 0.5).abs() < 1e-12);
        // Clamped at 1 even if bookkeeping overshoots slightly.
        m.busy_time[0] = 500.0;
        assert_eq!(m.utilization(0), 1.0);
        // Missing entries are zero.
        assert_eq!(m.utilization(9), 0.0);
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = RunMetrics::default();
        assert_eq!(m.final_mean_acc(), 0.0);
        assert_eq!(m.final_acc_std(), 0.0);
        assert_eq!(m.best_mean_acc(), 0.0);
        assert_eq!(m.time_to_accuracy(0.5), None);
    }

    #[test]
    fn health_summary_scores_the_slowest_against_the_median() {
        // Worker 2 runs at a third of the others' rate: score 3, straggler.
        let h = HealthSummary::compute(vec![20.0, 20.0, 20.0 / 3.0], vec![false; 3]);
        assert_eq!(h.straggler, 2);
        assert!((h.straggler_score - 3.0).abs() < 1e-12);
        assert!((h.scores[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn health_summary_ties_name_the_lowest_id() {
        // Nobody has a rate: every score is 0 and the straggler is 0.
        let h = HealthSummary::compute(vec![0.0; 3], vec![false; 3]);
        assert_eq!(h.straggler, 0);
        assert_eq!(h.straggler_score, 0.0);
        // A homogeneous cluster: every score is 1, the first one wins.
        let h = HealthSummary::compute(vec![1.0; 3], vec![false; 3]);
        assert_eq!(h.straggler, 0);
        assert_eq!(h.straggler_score, 1.0);
        // A tie behind a lower-scored worker names the first of the tie.
        let h = HealthSummary::compute(vec![4.0, 2.0, 2.0], vec![false; 3]);
        assert_eq!(h.straggler, 1);
    }

    #[test]
    fn health_summary_median_skips_unknown_rates() {
        // A worker that never stepped (rate 0) neither drags the median
        // down nor becomes the straggler.
        let h = HealthSummary::compute(vec![10.0, 0.0, 10.0, 5.0], vec![false, true, false, false]);
        assert_eq!(h.scores[1], 0.0);
        assert_eq!(h.straggler, 3);
        assert!((h.straggler_score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn health_summary_empty_cluster_is_safe() {
        let h = HealthSummary::compute(Vec::new(), Vec::new());
        assert_eq!(h.straggler, 0);
        assert_eq!(h.straggler_score, 0.0);
        assert_eq!(h, HealthSummary::default());
    }
}
