//! The global batch size (GBS) controller (§3.2).
//!
//! Grows the GBS in two phases, driven by the two empirical findings behind
//! Figure 5 (early growth hurts accuracy; growth after the early phase is
//! safe):
//!
//! * **warm-up** — arithmetic progression `GBS += C_warmup`, stopping once
//!   GBS exceeds 1 % of the training set,
//! * **speed-up** — geometric progression `GBS *= C_speedup`, stopping once
//!   GBS exceeds 10 % of the training set (after Smith et al.).
//!
//! The learning rate is never changed. All knobs are configurable, as §3.2
//! requires.
//!
//! [`Batching`] is the control plane around the controller, decided once
//! for both backends (DESIGN.md §4n): when an adjustment round is due, who
//! contributes to it, and the Eq. 5 split that follows.

use crate::config::RunConfig;
use crate::lbs::partition_gbs;
use crate::round::Membership;
use dlion_telemetry::{debug, emit};

/// Tunables for the GBS controller.
#[derive(Clone, Copy, Debug)]
pub struct GbsConfig {
    /// Arithmetic increment during warm-up (`C_warmup`).
    pub warmup_increment: usize,
    /// Geometric factor during speed-up (`C_speedup`).
    pub speedup_factor: f64,
    /// Warm-up stops when GBS exceeds this fraction of the training set.
    pub warmup_cap_frac: f64,
    /// Speed-up stops when GBS exceeds this fraction of the training set.
    pub speedup_cap_frac: f64,
    /// Seconds of virtual time between adjustment opportunities.
    pub adjust_period_secs: f64,
}

impl Default for GbsConfig {
    fn default() -> Self {
        GbsConfig {
            warmup_increment: 64,
            speedup_factor: 1.5,
            warmup_cap_frac: 0.01,
            speedup_cap_frac: 0.10,
            adjust_period_secs: 500.0,
        }
    }
}

/// Which growth phase the controller is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GbsPhase {
    Warmup,
    Speedup,
    Done,
}

/// Automatic global-batch-size growth.
///
/// ```
/// use dlion_core::gbs::{GbsConfig, GbsController, GbsPhase};
///
/// // 6 workers x LBS 32 over a 24k-sample training set.
/// let mut gbs = GbsController::new(192, 24_000, GbsConfig::default());
/// assert_eq!(gbs.phase(), GbsPhase::Warmup);
/// while gbs.maybe_adjust().is_some() {}
/// assert_eq!(gbs.gbs(), 2_400); // stopped exactly at 10% of the data
/// assert_eq!(gbs.phase(), GbsPhase::Done);
/// ```
#[derive(Clone, Debug)]
pub struct GbsController {
    cfg: GbsConfig,
    train_size: usize,
    gbs: usize,
    phase: GbsPhase,
}

impl GbsController {
    pub fn new(initial_gbs: usize, train_size: usize, cfg: GbsConfig) -> Self {
        assert!(initial_gbs > 0 && train_size > 0);
        assert!(cfg.warmup_increment > 0);
        assert!(cfg.speedup_factor > 1.0, "speed-up must grow the GBS");
        assert!(0.0 < cfg.warmup_cap_frac && cfg.warmup_cap_frac <= cfg.speedup_cap_frac);
        let mut c = GbsController {
            cfg,
            train_size,
            gbs: initial_gbs,
            phase: GbsPhase::Warmup,
        };
        c.update_phase();
        c
    }

    fn warmup_cap(&self) -> usize {
        (self.cfg.warmup_cap_frac * self.train_size as f64) as usize
    }

    fn speedup_cap(&self) -> usize {
        (self.cfg.speedup_cap_frac * self.train_size as f64) as usize
    }

    fn update_phase(&mut self) {
        if self.gbs > self.speedup_cap() {
            self.phase = GbsPhase::Done;
        } else if self.gbs > self.warmup_cap() {
            self.phase = GbsPhase::Speedup;
        }
    }

    pub fn gbs(&self) -> usize {
        self.gbs
    }

    pub fn phase(&self) -> GbsPhase {
        self.phase
    }

    /// One adjustment opportunity (the runner calls this every
    /// `adjust_period_secs`). Returns the new GBS if it changed.
    ///
    /// Growth stops once GBS reaches each cap ("GBS increment stops if GBS
    /// is greater than x % of the data size"); the final step is clamped to
    /// the cap rather than overshooting it, since overshooting the 10 %
    /// ceiling is exactly the accuracy hazard the rule exists to avoid.
    pub fn maybe_adjust(&mut self) -> Option<usize> {
        let before = self.gbs;
        match self.phase {
            GbsPhase::Done => return None,
            GbsPhase::Warmup => {
                self.gbs = (self.gbs + self.cfg.warmup_increment).min(self.speedup_cap());
                self.update_phase();
            }
            GbsPhase::Speedup => {
                let grown = ((self.gbs as f64) * self.cfg.speedup_factor).round() as usize;
                self.gbs = grown.min(self.speedup_cap());
                if self.gbs == self.speedup_cap() {
                    self.phase = GbsPhase::Done;
                } else {
                    self.update_phase();
                }
            }
        }
        (self.gbs != before).then_some(self.gbs)
    }
}

/// The due rule of the batching cadence: round `r` is due once the
/// training clock reaches `r × period`.
fn round_due(r: u64, train_secs: f64, period: f64) -> bool {
    train_secs >= r as f64 * period
}

/// The §3.2 batching state of one cluster view. The simulator keeps one
/// per cluster, every live rank its own; the copies agree because
/// [`Batching::round`] reads nothing but the round number, the plan-seeded
/// [`Membership`] ledger and the RCP vector every member holds.
#[derive(Default)]
pub struct Batching {
    /// The growth controller and, in it, the GBS in force. `None`: no
    /// batching control at all (systems without dynamic batching).
    ctl: Option<GbsController>,
    period: f64,
    /// The next round to run. Round `r` has nominal time `r × period` on
    /// the training clock; round 0 is start-up, which only partitions.
    next: u64,
    /// Who shared the last partition: a membership change repartitions
    /// even on a round where the GBS held still.
    contributors: Vec<usize>,
    /// `(nominal time, new GBS)` per change — [`crate::RunMetrics::gbs_trace`].
    pub gbs_trace: Vec<(f64, usize)>,
    /// `(nominal time, per-worker shares)` per repartition; a worker that
    /// did not contribute holds 0 — [`crate::RunMetrics::lbs_trace`].
    pub lbs_trace: Vec<(f64, Vec<usize>)>,
}

impl Batching {
    pub fn new(cfg: &RunConfig, n: usize) -> Batching {
        let ctl = || GbsController::new(cfg.initial_lbs * n, cfg.workload.train_size, cfg.gbs);
        Batching {
            ctl: cfg.system.dynamic_batching().then(ctl),
            period: cfg.gbs.adjust_period_secs,
            ..Default::default()
        }
    }

    /// Adjustment rounds completed (start-up is not one).
    pub fn rounds(&self) -> u64 {
        self.next.saturating_sub(1)
    }

    /// Is an RCP tagged `round` still of use (a round not yet run, on a
    /// rank that adjusts at all)?
    pub fn awaits(&self, round: u64) -> bool {
        self.ctl.is_some() && round >= self.next
    }

    /// The round to run now that the training clock reads `train_secs`,
    /// if one is due. `newest_seen` is the latest round a peer has
    /// already opened: once due at all, converge on the newest due round
    /// instead of trading stale ones.
    pub fn next_due(&self, train_secs: f64, newest_seen: Option<u64>) -> Option<u64> {
        if self.ctl.is_none() || !round_due(self.next, train_secs, self.period) {
            return None;
        }
        let seen = newest_seen.filter(|&r| round_due(r, train_secs, self.period));
        Some(seen.map_or(self.next, |r| r.max(self.next)))
    }

    /// One control round: fast-forward the growth controller over every
    /// boundary up to `round`, recording each change at its nominal time,
    /// then repartition the GBS (Eq. 5) if it moved, the membership did,
    /// or the caller re-profiled (`reprofiled_at`: the row's time). The
    /// contributors are the workers the ledger counts at `iter_of(j)` —
    /// the iteration the caller knows `j` to be at — whose RCP `rcp(j)`
    /// is known; everyone else holds share 0. `rcp` is only asked when
    /// the round does repartition. Writes the contributors' `lbs_of` and
    /// returns whether it did, so the caller can resize its workers.
    /// `stamp` is the trace timestamp and emitting worker of the events.
    pub fn round(
        &mut self,
        round: u64,
        reprofiled_at: Option<f64>,
        stamp: (f64, Option<usize>),
        members: &mut Membership,
        iter_of: impl Fn(usize) -> u64,
        mut rcp: impl FnMut(usize) -> Option<f64>,
    ) -> bool {
        let Some(ctl) = self.ctl.as_mut() else {
            return false;
        };
        let (vt, who) = stamp;
        let mut moved = reprofiled_at.is_some();
        for r in self.next.max(1)..=round {
            let t = r as f64 * self.period;
            let before = ctl.phase();
            if let Some(gbs) = ctl.maybe_adjust() {
                moved = true;
                self.gbs_trace.push((t, gbs));
                let fields = [("gbs", gbs.into()), ("round", r.into()), ("t", t.into())];
                emit(vt, who, "gbs_adjust", &fields);
                debug!(target: "core.gbs", "t={t:.1}: GBS adjusted to {gbs}");
            }
            let after = ctl.phase();
            if after != before {
                let fields = [
                    ("from", format!("{before:?}").into()),
                    ("to", format!("{after:?}").into()),
                    ("gbs", ctl.gbs().into()),
                    ("round", r.into()),
                ];
                emit(vt, who, "gbs_phase", &fields);
            }
        }
        self.next = self.next.max(round + 1);
        let n = members.lbs_of.len();
        let counted: Vec<usize> = (0..n).filter(|&j| members.counts(j, iter_of(j))).collect();
        if !moved && counted == self.contributors {
            return false;
        }
        let (contributors, rcps): (Vec<usize>, Vec<f64>) = counted
            .into_iter()
            .filter_map(|j| rcp(j).map(|r| (j, r)))
            .unzip();
        if contributors.is_empty() {
            return false;
        }
        let parts = partition_gbs(ctl.gbs(), &rcps);
        let mut row = vec![0; n];
        for (&j, &lbs) in contributors.iter().zip(&parts) {
            row[j] = lbs;
            members.lbs_of[j] = lbs;
        }
        let at = reprofiled_at.unwrap_or(round as f64 * self.period);
        let fields = [
            ("gbs", ctl.gbs().into()),
            ("round", round.into()),
            ("t", at.into()),
            ("members", contributors.len().into()),
        ];
        emit(vt, who, "lbs_repartition", &fields);
        debug!(target: "core.lbs", "t={at:.1}: LBS repartition -> {row:?}");
        self.lbs_trace.push((at, row));
        self.contributors = contributors;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;

    fn cfg() -> GbsConfig {
        GbsConfig {
            warmup_increment: 64,
            speedup_factor: 2.0,
            warmup_cap_frac: 0.01,
            speedup_cap_frac: 0.10,
            adjust_period_secs: 250.0,
        }
    }

    #[test]
    fn warmup_is_arithmetic_then_speedup_geometric() {
        // Train size 24000: warm-up cap 240, speed-up cap 2400.
        let mut c = GbsController::new(192, 24_000, cfg());
        assert_eq!(c.phase(), GbsPhase::Warmup);
        assert_eq!(c.maybe_adjust(), Some(256)); // +64, crosses 240 -> speed-up
        assert_eq!(c.phase(), GbsPhase::Speedup);
        assert_eq!(c.maybe_adjust(), Some(512));
        assert_eq!(c.maybe_adjust(), Some(1024));
        assert_eq!(c.maybe_adjust(), Some(2048));
        assert_eq!(c.maybe_adjust(), Some(2400)); // clamped to the 10% cap
        assert_eq!(c.phase(), GbsPhase::Done);
        assert_eq!(c.maybe_adjust(), None);
        assert_eq!(c.gbs(), 2400);
    }

    #[test]
    fn starts_in_speedup_if_already_past_warmup_cap() {
        let mut c = GbsController::new(300, 24_000, cfg());
        assert_eq!(c.phase(), GbsPhase::Speedup);
        assert_eq!(c.maybe_adjust(), Some(600));
    }

    #[test]
    fn starts_done_if_already_past_speedup_cap() {
        let mut c = GbsController::new(3000, 24_000, cfg());
        assert_eq!(c.phase(), GbsPhase::Done);
        assert_eq!(c.maybe_adjust(), None);
    }

    #[test]
    fn gbs_is_monotone_nondecreasing() {
        let mut c = GbsController::new(32, 10_000, cfg());
        let mut prev = c.gbs();
        for _ in 0..50 {
            c.maybe_adjust();
            assert!(c.gbs() >= prev);
            prev = c.gbs();
        }
        assert_eq!(c.phase(), GbsPhase::Done);
    }

    #[test]
    fn final_gbs_is_exactly_the_cap() {
        let mut c = GbsController::new(32, 10_000, cfg());
        while c.maybe_adjust().is_some() {}
        assert_eq!(
            c.gbs(),
            1_000,
            "must stop exactly at 10% of the training set"
        );
        assert_eq!(c.phase(), GbsPhase::Done);
    }

    #[test]
    #[should_panic(expected = "speed-up must grow")]
    fn bad_speedup_factor_panics() {
        let mut c = cfg();
        c.speedup_factor = 1.0;
        GbsController::new(32, 1000, c);
    }

    /// Three DLion workers at LBS 32 (GBS 96) over 12 000 samples, one
    /// round per 0.25 s: 96 → 160 → 240 → 360 → 540 → 810 → 1200 → Done.
    /// No backend attached; start-up (round 0) has run with equal RCPs.
    fn started() -> (Batching, Membership) {
        let mut cfg = RunConfig::small_test(SystemKind::DLion);
        cfg.workload.train_size = 12_000;
        cfg.gbs.adjust_period_secs = 0.25;
        let mut b = Batching::new(&cfg, 3);
        let mut m = everyone_present(cfg.initial_lbs);
        assert!(b.round(0, None, STAMP, &mut m, |_| 0, EVEN));
        assert_eq!(b.lbs_trace, vec![(0.0, vec![32, 32, 32])]);
        (b, m)
    }

    fn everyone_present(lbs: usize) -> Membership {
        Membership {
            departed_at: vec![None; 3],
            lbs_of: vec![lbs; 3],
        }
    }

    const STAMP: (f64, Option<usize>) = (0.0, None);
    const EVEN: fn(usize) -> Option<f64> = |_| Some(1.0);
    const UNASKED: fn(usize) -> Option<f64> = |_| panic!("no repartition, no RCP draw");

    #[test]
    fn fast_forward_equals_stepping_and_stamps_nominal_times() {
        let ((mut a, mut ma), (mut b, mut mb)) = (started(), started());
        for r in 1..=4 {
            assert!(a.round(r, None, STAMP, &mut ma, |_| 5 * r, EVEN));
        }
        // One long iteration skipped rounds 1-3: round 4 catches up.
        assert!(b.round(4, None, STAMP, &mut mb, |_| 20, EVEN));
        let schedule = vec![(0.25, 160), (0.5, 240), (0.75, 360), (1.0, 540)];
        assert_eq!(a.gbs_trace, schedule);
        assert_eq!(b.gbs_trace, schedule);
        assert_eq!((a.rounds(), b.rounds()), (4, 4));
        // The skipped rounds never partitioned; the caught-up one splits
        // the GBS in force exactly like the stepped one.
        assert_eq!((a.lbs_trace.len(), b.lbs_trace.len()), (5, 2));
        assert_eq!(b.lbs_trace[1], (1.0, vec![180, 180, 180]));
        assert_eq!(a.lbs_trace[4], b.lbs_trace[1]);
        assert_eq!(ma.lbs_of, mb.lbs_of);
    }

    #[test]
    fn membership_change_repartitions_once_even_when_the_gbs_is_done() {
        let (mut b, mut m) = started();
        assert!(b.round(6, None, STAMP, &mut m, |_| 30, EVEN));
        assert_eq!(b.gbs_trace.last(), Some(&(1.5, 1200)));
        // Done, everyone still here: nothing to decide, no RCP asked.
        assert!(!b.round(7, None, STAMP, &mut m, |_| 35, UNASKED));
        m.departed_at[1] = Some(38);
        assert!(b.round(8, None, STAMP, &mut m, |_| 40, EVEN));
        assert_eq!(b.lbs_trace.last(), Some(&(2.0, vec![600, 0, 600])));
        assert_eq!(m.lbs_of, vec![600, 400, 600], "only contributors move");
        assert!(!b.round(9, None, STAMP, &mut m, |_| 45, UNASKED));
        assert_eq!(b.gbs_trace.len(), 6);
        // A re-profile repartitions regardless, stamped with its own time.
        assert!(b.round(9, Some(2.3), STAMP, &mut m, |_| 46, EVEN));
        assert_eq!(b.lbs_trace.last(), Some(&(2.3, vec![600, 0, 600])));
        assert_eq!(b.rounds(), 9);
    }

    #[test]
    fn the_ledger_at_the_trigger_iteration_picks_the_contributors() {
        let (mut b, mut m) = started();
        m.departed_at[1] = Some(17);
        // Triggered at 15 the victim still computes; at 20 it does not —
        // or, per worker, when the caller knows each one's iteration.
        assert!(b.round(3, None, STAMP, &mut m, |_| 15, EVEN));
        assert_eq!(b.lbs_trace.last(), Some(&(0.75, vec![120, 120, 120])));
        assert!(b.round(4, None, STAMP, &mut m, |_| 20, EVEN));
        assert_eq!(b.lbs_trace.last(), Some(&(1.0, vec![270, 0, 270])));
        assert!(b.round(5, None, STAMP, &mut m, |j| [24, 17, 25][j], EVEN));
        assert_eq!(b.lbs_trace.last(), Some(&(1.25, vec![405, 0, 405])));
    }

    #[test]
    fn a_worker_without_an_rcp_holds_share_zero_from_round_zero() {
        let cfg = RunConfig::small_test(SystemKind::DLion);
        let mut b = Batching::new(&cfg, 3);
        let mut m = everyone_present(cfg.initial_lbs);
        // Worker 2 was lost mid-profiling: no RCP, no mean-fill, no share.
        let rcp = |j| (j != 2).then_some(if j == 0 { 3.0 } else { 1.0 });
        assert!(b.round(0, None, STAMP, &mut m, |_| 0, rcp));
        assert_eq!(b.lbs_trace, vec![(0.0, vec![72, 24, 0])]);
        assert_eq!(b.rounds(), 0);
        // Nobody to split over: nothing is written.
        assert!(!b.round(1, None, STAMP, &mut m, |_| 5, |_| None));
        assert_eq!(b.lbs_trace.len(), 1);
    }

    #[test]
    fn rounds_come_due_at_exact_boundaries() {
        assert!(round_due(1, 0.25, 0.25) && !round_due(1, 0.25f64.next_down(), 0.25));
        assert!(round_due(3, 0.75, 0.25) && !round_due(4, 0.75, 0.25));
        let (mut b, mut m) = started();
        assert_eq!(b.next_due(0.2, None), None);
        assert_eq!(b.next_due(0.25, None), Some(1));
        // One long iteration crossed three boundaries: the rounds run one
        // by one, unless a peer already opened a later due one.
        assert_eq!(b.next_due(0.8, None), Some(1));
        assert_eq!(b.next_due(0.8, Some(3)), Some(3));
        assert_eq!(b.next_due(0.8, Some(4)), Some(1), "round 4 is not due");
        b.round(3, None, STAMP, &mut m, |_| 16, EVEN);
        assert_eq!(b.next_due(0.8, Some(3)), None);
        assert_eq!(b.next_due(1.0, None), Some(4));
        assert!(!b.awaits(3) && b.awaits(4));
        // A system without dynamic batching has no rounds at all.
        let fixed = Batching::new(&RunConfig::small_test(SystemKind::Baseline), 3);
        assert_eq!(fixed.next_due(9.0, Some(7)), None);
        assert!(!fixed.awaits(4));
    }
}
