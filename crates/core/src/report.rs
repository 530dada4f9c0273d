//! Human-readable run summaries.
//!
//! [`summarize`] renders a [`RunMetrics`] as the compact report the
//! examples print; it keeps presentation concerns out of the metrics type
//! itself.

use crate::metrics::RunMetrics;

/// Multi-line text summary of one run.
pub fn summarize(m: &RunMetrics) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "system: {}   env: {}   seed: {}\n",
        m.system, m.env, m.seed
    ));
    s.push_str(&format!(
        "duration: {:.0} s{}\n",
        m.duration,
        match m.converged_at {
            Some(t) => format!(" (converged at {t:.0} s)"),
            None => String::new(),
        }
    ));
    s.push_str(&format!(
        "iterations: total {} (per worker {:?})\n",
        m.total_iterations(),
        m.iterations
    ));
    s.push_str(&format!(
        "traffic: gradients {:.1} MB, weights {:.1} MB, control {:.3} MB\n",
        m.grad_bytes / 1e6,
        m.weight_bytes / 1e6,
        m.control_bytes / 1e6
    ));
    if !m.worker_acc.is_empty() {
        s.push_str(&format!(
            "accuracy: final {:.3} (tail-smoothed {:.3}, best {:.3}, worker std {:.4})\n",
            m.final_mean_acc(),
            m.tail_mean_acc(3),
            m.best_mean_acc(),
            m.final_acc_std()
        ));
    }
    if !m.busy_time.is_empty() && m.duration > 0.0 {
        s.push_str(&format!(
            "compute utilization: mean {:.0}% (per worker {})\n",
            100.0 * m.mean_utilization(),
            m.busy_time
                .iter()
                .enumerate()
                .map(|(w, _)| format!("{:.0}%", 100.0 * m.utilization(w)))
                .collect::<Vec<_>>()
                .join("/")
        ));
    }
    if m.dkt_merges > 0 {
        s.push_str(&format!(
            "direct knowledge transfer: {} merges\n",
            m.dkt_merges
        ));
    }
    if let Some((_, last)) = m.lbs_trace.last() {
        s.push_str(&format!(
            "final LBS assignment: {last:?} (GBS {})\n",
            last.iter().sum::<usize>()
        ));
    }
    // Health: only when a rate is known (any worker finished an
    // iteration with a training clock), so empty runs stay terse.
    if m.health.rates.iter().any(|&r| r > 0.0) {
        let departed: Vec<usize> = (0..m.health.departed.len())
            .filter(|&w| m.health.departed[w])
            .collect();
        s.push_str(&format!(
            "cluster health: straggler w{} (score {:.2}); rates {}{}\n",
            m.health.straggler,
            m.health.straggler_score,
            m.health
                .rates
                .iter()
                .map(|r| format!("{r:.2}"))
                .collect::<Vec<_>>()
                .join("/"),
            if departed.is_empty() {
                String::new()
            } else {
                format!("; departed {departed:?}")
            }
        ));
    }
    s
}

/// One-line summary (for tables of runs).
pub fn one_line(m: &RunMetrics) -> String {
    format!(
        "{:<10} {:<14} acc={:.3} best={:.3} iters={:>6} gradMB={:>8.0}",
        m.system,
        m.env,
        m.tail_mean_acc(3),
        m.best_mean_acc(),
        m.total_iterations(),
        m.grad_bytes / 1e6
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        RunMetrics {
            system: "DLion".into(),
            env: "Homo B".into(),
            seed: 3,
            eval_times: vec![100.0, 200.0],
            worker_acc: vec![vec![0.2, 0.22], vec![0.5, 0.48]],
            worker_loss: vec![vec![2.0; 2]; 2],
            iterations: vec![80, 82],
            grad_bytes: 5e7,
            weight_bytes: 1e7,
            control_bytes: 1e3,
            dkt_merges: 4,
            duration: 200.0,
            lbs_trace: vec![(0.0, vec![16, 16])],
            health: crate::metrics::HealthSummary::compute(
                vec![20.0, 20.0 / 3.0],
                vec![false, true],
            ),
            ..Default::default()
        }
    }

    #[test]
    fn summary_contains_key_facts() {
        let s = summarize(&metrics());
        assert!(s.contains("system: DLion"));
        assert!(s.contains("Homo B"));
        assert!(s.contains("total 162"));
        assert!(s.contains("gradients 50.0 MB"));
        assert!(s.contains("4 merges"));
        assert!(s.contains("GBS 32"));
        // Two workers at 20 and 20/3 it/s: median is their mean (13.33),
        // so the straggler's median/own score is exactly 2.
        assert!(s.contains("straggler w1 (score 2.00)"), "{s}");
        assert!(s.contains("departed [1]"), "{s}");
    }

    #[test]
    fn one_liner_is_single_line() {
        let s = one_line(&metrics());
        assert_eq!(s.lines().count(), 1);
        assert!(s.contains("DLion"));
    }

    #[test]
    fn converged_annotation() {
        let mut m = metrics();
        m.converged_at = Some(150.0);
        assert!(summarize(&m).contains("converged at 150"));
    }

    #[test]
    fn empty_metrics_summarize_safely() {
        let s = summarize(&RunMetrics::default());
        assert!(s.contains("iterations: total 0"));
    }
}
