//! Direct knowledge transfer (§3.4).
//!
//! Every `period` iterations each worker shares the average of its last `l`
//! losses. Knowing everyone's loss, a worker sends a DKT request to the
//! current *best* worker (smallest loss); the best worker replies with its
//! full model weights, which the requester merges as
//! `w ← w − λ (w − w_best)` (after Teng et al.'s leader SGD).
//!
//! The exploration of Figure 9 is captured by the knobs: `period`
//! (when-to-send), [`DktMode`] (whom-to-send) and `lambda` (how-to-merge).

use std::collections::VecDeque;

/// Whom the best weights are transferred to (Fig. 9b).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DktMode {
    /// No direct knowledge transfer.
    Off,
    /// Every worker pulls from the best (the paper's default, best result).
    Best2All,
    /// Only the worst worker pulls from the best.
    Best2Worst,
}

/// DKT configuration (paper defaults: period 100 iterations, λ = 0.75).
#[derive(Clone, Copy, Debug)]
pub struct DktConfig {
    pub mode: DktMode,
    /// Share losses / trigger a pull every this many local iterations.
    pub period_iters: u64,
    /// Merge ratio λ ∈ [0, 1].
    pub lambda: f32,
    /// Number of recent losses averaged into the shared figure (`l`).
    pub loss_window: usize,
}

impl Default for DktConfig {
    fn default() -> Self {
        DktConfig {
            mode: DktMode::Best2All,
            period_iters: 100,
            lambda: 0.75,
            loss_window: 10,
        }
    }
}

impl DktConfig {
    pub fn off() -> Self {
        DktConfig {
            mode: DktMode::Off,
            ..Default::default()
        }
    }

    pub fn validate(&self) {
        assert!(self.period_iters > 0, "DKT period must be positive");
        assert!(
            (0.0..=1.0).contains(&self.lambda),
            "lambda must be in [0,1]"
        );
        assert!(self.loss_window > 0);
    }
}

/// Per-worker DKT state: own loss history plus the latest loss heard from
/// each peer.
#[derive(Clone, Debug)]
pub struct DktState {
    cfg: DktConfig,
    worker: usize,
    n: usize,
    recent: VecDeque<f64>,
    /// Latest shared average loss per worker (including self once computed).
    known: Vec<Option<f64>>,
}

impl DktState {
    pub fn new(worker: usize, n: usize, cfg: DktConfig) -> Self {
        cfg.validate();
        assert!(worker < n);
        DktState {
            cfg,
            worker,
            n,
            recent: VecDeque::new(),
            known: vec![None; n],
        }
    }

    pub fn cfg(&self) -> &DktConfig {
        &self.cfg
    }

    /// Cluster size this state was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Record one training loss.
    pub fn record_loss(&mut self, loss: f64) {
        self.recent.push_back(loss);
        while self.recent.len() > self.cfg.loss_window {
            self.recent.pop_front();
        }
    }

    /// Average of the last `l` losses, if any were recorded.
    pub fn avg_loss(&self) -> Option<f64> {
        if self.recent.is_empty() {
            None
        } else {
            Some(self.recent.iter().sum::<f64>() / self.recent.len() as f64)
        }
    }

    /// Is this local iteration a DKT round boundary?
    pub fn is_share_round(&self, iteration: u64) -> bool {
        self.cfg.mode != DktMode::Off
            && iteration > 0
            && iteration.is_multiple_of(self.cfg.period_iters)
    }

    /// Note a loss shared by `who` (also used for our own share).
    pub fn update_known(&mut self, who: usize, loss: f64) {
        self.known[who] = Some(loss);
    }

    /// Drop everything known about `who` (`Worker::demote_peer` forgets a
    /// departed worker so it can never be chosen as a pull target).
    pub fn forget(&mut self, who: usize) {
        self.known[who] = None;
    }

    /// The worker currently believed best (smallest loss), if any losses are
    /// known. Ties break toward the lower id for determinism.
    pub fn best_worker(&self) -> Option<usize> {
        self.known
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|v| (i, v)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
    }

    /// The worker currently believed worst (largest loss).
    pub fn worst_worker(&self) -> Option<usize> {
        self.known
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|v| (i, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
    }

    /// Should this worker send a DKT pull request right now? Returns the
    /// target (best) worker if so.
    ///
    /// * `Best2All`: request whenever someone else is best.
    /// * `Best2Worst`: request only if *we* are the worst.
    pub fn pull_target(&self) -> Option<usize> {
        let best = self.best_worker()?;
        if best == self.worker {
            return None;
        }
        match self.cfg.mode {
            DktMode::Off => None,
            DktMode::Best2All => Some(best),
            DktMode::Best2Worst => {
                if self.worst_worker()? == self.worker {
                    Some(best)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(mode: DktMode) -> DktState {
        DktState::new(
            1,
            4,
            DktConfig {
                mode,
                ..Default::default()
            },
        )
    }

    #[test]
    fn loss_window_averages_last_l() {
        let mut s = DktState::new(
            0,
            2,
            DktConfig {
                loss_window: 3,
                ..Default::default()
            },
        );
        assert_eq!(s.avg_loss(), None);
        for l in [10.0, 1.0, 2.0, 3.0] {
            s.record_loss(l);
        }
        // Window of 3: (1+2+3)/3.
        assert_eq!(s.avg_loss(), Some(2.0));
    }

    #[test]
    fn share_round_every_period() {
        let s = state(DktMode::Best2All);
        assert!(!s.is_share_round(0));
        assert!(s.is_share_round(100));
        assert!(!s.is_share_round(150));
        assert!(s.is_share_round(200));
        let off = state(DktMode::Off);
        assert!(!off.is_share_round(100));
    }

    #[test]
    fn best_and_worst_selection() {
        let mut s = state(DktMode::Best2All);
        s.update_known(0, 0.5);
        s.update_known(1, 0.9);
        s.update_known(2, 0.3);
        assert_eq!(s.best_worker(), Some(2));
        assert_eq!(s.worst_worker(), Some(1));
    }

    #[test]
    fn best_ties_break_low_id() {
        let mut s = state(DktMode::Best2All);
        s.update_known(3, 0.5);
        s.update_known(0, 0.5);
        assert_eq!(s.best_worker(), Some(0));
    }

    #[test]
    fn pull_target_best2all() {
        let mut s = state(DktMode::Best2All);
        s.update_known(0, 0.2);
        s.update_known(1, 0.8); // self
        assert_eq!(s.pull_target(), Some(0));
        // If self is best, no pull.
        s.update_known(1, 0.1);
        assert_eq!(s.pull_target(), None);
    }

    #[test]
    fn pull_target_best2worst_only_when_worst() {
        let mut s = state(DktMode::Best2Worst);
        s.update_known(0, 0.2);
        s.update_known(1, 0.8); // self, currently worst
        s.update_known(2, 0.5);
        assert_eq!(s.pull_target(), Some(0));
        // Someone else becomes worst -> we stop pulling.
        s.update_known(2, 0.9);
        assert_eq!(s.pull_target(), None);
    }

    #[test]
    fn pull_target_off_mode() {
        let mut s = state(DktMode::Off);
        s.update_known(0, 0.1);
        s.update_known(1, 0.9);
        assert_eq!(s.pull_target(), None);
    }

    #[test]
    fn no_losses_no_target() {
        let s = state(DktMode::Best2All);
        assert_eq!(s.pull_target(), None);
        assert_eq!(s.best_worker(), None);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_panics() {
        DktConfig {
            lambda: 1.5,
            ..Default::default()
        }
        .validate();
    }
}
