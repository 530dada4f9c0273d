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
//! [`Batching`] is the control plane around the controller, held by every
//! rank on both backends (DESIGN.md §4n): the round schedule — GBS steps
//! and re-profiles on one clock — the RCP collect, and the Eq. 5 split a
//! decided round makes. A backend supplies the clock, the rank's own RCP
//! and the wire the [`Notice`]s travel on.

use crate::config::RunConfig;
use crate::lbs::partition_gbs;
use crate::messages::FRAME_HEADER_BYTES;
use crate::rank::{Item, Output};
use crate::worker::Worker;
use dlion_telemetry::{debug, emit};
use std::collections::BTreeMap;

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

/// A batching-plane message between two ranks (§3.2). Live, these are the
/// net-control frames `Rcp` and `Done`; the simulator sends them through
/// its network model, priced at the same encoded size. Neither is a
/// training payload: no `send`/`msg` row, no byte-ledger entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Notice {
    /// The sender's relative compute power for control round `round`
    /// (0 = start-up).
    Rcp { round: u64, rcp: f64 },
    /// The sender finished its iterations and opens no further round: no
    /// collect waits for it from here on.
    Done,
}

impl Notice {
    /// Encoded frame length: the header, plus `round u64, rcp f64`.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_BYTES + if let Notice::Rcp { .. } = self { 16 } else { 0 }
    }
}

/// The boundary after `steps` GBS steps and `profiles` re-profiles: its
/// clock time, and whether it steps the GBS, re-profiles or — the two
/// coinciding — both, as one round.
fn boundary(period: f64, every: f64, steps: u64, profiles: u64) -> (f64, bool, bool) {
    let (g, p) = ((steps + 1) as f64 * period, (profiles + 1) as f64 * every);
    (g.min(p), g <= p, p <= g)
}

/// The §3.2 batching state of one rank — each rank on either backend holds
/// its own, in [`Worker::batching`]. The control rounds are boundaries of
/// the rank's clock (the training clock live, virtual time in the
/// simulator): round 0 at start-up, then a GBS step at every `r × period`
/// and a re-profile at every `k × profile_interval`, a coinciding pair
/// being one round with one repartition. A round due on the clock is
/// *opened*: the rank's own RCP goes into the collect and out to every
/// peer it awaits ([`Worker::batching_step`]); once each awaited peer's
/// RCP for that round is in, the round is decided (`Batching::round`).
/// The copies agree because a decision reads nothing but the round number
/// and the RCPs collected for it, and every awaited peer sends the same
/// value to everyone. Each copy keeps the shares it decided: a rank prices
/// an arriving gradient with its own decisions, never with a peer's
/// (DESIGN.md §4n).
#[derive(Default)]
pub struct Batching {
    /// The growth controller and, in it, the GBS in force. `None`: no
    /// batching control at all (systems without dynamic batching).
    ctl: Option<GbsController>,
    /// Clock seconds between GBS steps, and between re-profiles.
    period: f64,
    every: f64,
    /// The next round to decide, and the GBS steps and re-profiles the
    /// rounds decided so far have passed.
    next: u64,
    steps: u64,
    profiles: u64,
    /// Who shared the last partition: a change of contributors (but for
    /// ranks that finished) repartitions even on a round where the GBS
    /// held still.
    contributors: Vec<usize>,
    /// The collect: the round this rank opened and has not decided, and
    /// the RCPs by `(round, rank)`, its own included — a round a faster
    /// peer opened first pre-arrives.
    open: Option<u64>,
    rcps: BTreeMap<(u64, usize), f64>,
    /// Peers whose [`Notice::Done`] arrived, awaited by no collect again;
    /// at this rank's own index, whether it finished.
    finished: Vec<bool>,
    /// Every rank's LBS share as this rank last decided it — the weighted
    /// Eq. 7 denominator ([`Batching::share`]). Empty without batching
    /// control, where every share is `initial` for good.
    pub(crate) shares: Vec<usize>,
    initial: usize,
    /// `(nominal time, new GBS)` per change — [`crate::RunMetrics::gbs_trace`].
    pub gbs_trace: Vec<(f64, usize)>,
    /// `(nominal time, per-worker shares)` per repartition; a worker that
    /// did not contribute holds 0 — [`crate::RunMetrics::lbs_trace`].
    pub lbs_trace: Vec<(f64, Vec<usize>)>,
}

impl Batching {
    pub fn new(cfg: &RunConfig, n: usize) -> Batching {
        let dynamic = cfg.system.dynamic_batching();
        let ctl = || GbsController::new(cfg.initial_lbs * n, cfg.workload.train_size, cfg.gbs);
        // Only a batching rank keeps per-peer state.
        let peers = if dynamic { n } else { 0 };
        Batching {
            ctl: dynamic.then(ctl),
            period: cfg.gbs.adjust_period_secs,
            every: cfg.profile_interval,
            finished: vec![false; peers],
            shares: vec![cfg.initial_lbs; peers],
            initial: cfg.initial_lbs,
            ..Default::default()
        }
    }

    /// Rank `j`'s LBS share as this rank decided it: `cfg.initial_lbs`
    /// until a round of this rank's repartitions.
    pub fn share(&self, j: usize) -> usize {
        self.shares.get(j).copied().unwrap_or(self.initial)
    }

    /// Has the clock reached the boundary of round `round` (not yet
    /// decided)? The walk stops at the first boundary past the clock, so a
    /// round number from the wire, however large, costs no more than the
    /// rounds the clock has passed.
    fn due(&self, round: u64, clock: f64) -> bool {
        let (mut steps, mut profiles) = (self.steps, self.profiles);
        for _ in self.next.max(1)..=round {
            let (at, step, profile) = boundary(self.period, self.every, steps, profiles);
            if at > clock {
                return false;
            }
            (steps, profiles) = (steps + step as u64, profiles + profile as u64);
        }
        true
    }

    /// The round to open now that the clock reads `clock`, if one is due
    /// and none is open. Once due at all, converge on the newest due
    /// round a peer already opened instead of trading stale ones.
    fn next_due(&self, me: usize, clock: f64) -> Option<u64> {
        if self.ctl.is_none() || self.open.is_some() || self.finished[me] {
            return None;
        }
        let due = |r: &u64| self.due(*r, clock);
        let newest = self.rcps.keys().next_back().map(|&(r, _)| r);
        Some(newest.filter(due).map_or(self.next, |r| r.max(self.next))).filter(due)
    }

    /// Open the round due at `clock`, if any: this rank's RCP (asked of
    /// `rcp` only then) joins the collect. Returns the notice to send to
    /// every peer the rank awaits.
    fn open(&mut self, me: usize, clock: f64, rcp: impl FnOnce() -> f64) -> Option<Notice> {
        let round = self.next_due(me, clock)?;
        let rcp = rcp();
        self.rcps.insert((round, me), rcp);
        self.open = Some(round);
        Some(Notice::Rcp { round, rcp })
    }

    /// A peer's notice: an RCP for a round not yet decided joins the
    /// collect (a decided round's is stale), a Done retires the peer.
    pub fn on_notice(&mut self, from: usize, notice: Notice) {
        match notice {
            Notice::Rcp { round, rcp } if self.ctl.is_some() && round >= self.next => {
                self.rcps.insert((round, from), rcp);
            }
            Notice::Rcp { .. } => {}
            Notice::Done => {
                if let Some(f) = self.finished.get_mut(from) {
                    *f = true;
                }
            }
        }
    }

    /// This rank finished its iterations: it opens no further round. True
    /// the first time, on a rank that batches at all — the caller then
    /// sends its awaited peers a [`Notice::Done`].
    pub(crate) fn finish(&mut self, me: usize) -> bool {
        self.ctl.is_some() && !std::mem::replace(&mut self.finished[me], true)
    }

    /// The round this rank opened and has not decided, if any, and the
    /// peers `awaited` says it waits for whose RCP for it is not in.
    fn collect<'a>(
        &'a self,
        awaited: impl Fn(usize) -> bool + 'a,
    ) -> Option<(u64, impl Iterator<Item = usize> + 'a)> {
        let round = self.open?;
        let missing = move |&j: &usize| awaited(j) && !self.rcps.contains_key(&(round, j));
        Some((round, (0..self.finished.len()).filter(missing)))
    }

    /// Decide the open round: fast-forward the growth controller over
    /// every boundary up to it, recording each change at its nominal time,
    /// then repartition the GBS (Eq. 5) over the ranks whose RCP for the
    /// round is in — everyone else holds share 0 — if the GBS moved, a
    /// re-profile boundary was passed or a working rank joined or left the
    /// contributors. Writes the contributors' shares and returns whether
    /// it repartitioned, so the caller can resize its rank. `now` stamps
    /// the trace events, emitted by rank `me`.
    fn round(&mut self, me: usize, now: f64) -> bool {
        let (Some(round), Some(ctl)) = (self.open.take(), self.ctl.as_mut()) else {
            return false;
        };
        let (mut at, mut moved) = (0.0, false);
        for r in self.next.max(1)..=round {
            let (t, step, profile) = boundary(self.period, self.every, self.steps, self.profiles);
            (at, self.steps, self.profiles) =
                (t, self.steps + step as u64, self.profiles + profile as u64);
            moved |= profile;
            let before = ctl.phase();
            // Only a GBS boundary steps the controller.
            if let Some(gbs) = step.then(|| ctl.maybe_adjust()).flatten() {
                moved = true;
                self.gbs_trace.push((t, gbs));
                let fields = [("gbs", gbs.into()), ("round", r.into()), ("t", t.into())];
                emit(now, Some(me), "gbs_adjust", &fields);
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
                emit(now, Some(me), "gbs_phase", &fields);
            }
        }
        self.next = round + 1;
        let later = self.rcps.split_off(&(self.next, 0));
        let (contributors, rcps): (Vec<usize>, Vec<f64>) = std::mem::replace(&mut self.rcps, later)
            .into_iter()
            .filter(|&((r, _), _)| r == round)
            .map(|((_, j), rcp)| (j, rcp))
            .unzip();
        // A rank that finished its iterations takes no share any more, but
        // its leaving alone is no reason to re-split the GBS.
        let finished = &self.finished;
        let working = |c: &[usize]| c.iter().filter(|&&j| !finished[j]).count();
        let kept = contributors.iter().all(|j| self.contributors.contains(j));
        if !moved && kept && working(&contributors) == working(&self.contributors) {
            return false;
        }
        let parts = partition_gbs(ctl.gbs(), &rcps);
        let mut row = vec![0; self.shares.len()];
        for (&j, &lbs) in contributors.iter().zip(&parts) {
            row[j] = lbs;
            self.shares[j] = lbs;
        }
        let fields = [
            ("gbs", ctl.gbs().into()),
            ("round", round.into()),
            ("t", at.into()),
            ("members", contributors.len().into()),
        ];
        emit(now, Some(me), "lbs_repartition", &fields);
        debug!(target: "core.lbs", "t={at:.1}: LBS repartition -> {row:?}");
        self.lbs_trace.push((at, row));
        self.contributors = contributors;
        true
    }
}

impl Worker {
    /// Does this rank await `j`'s RCPs: a batching peer that has neither
    /// finished nor been demoted?
    pub fn awaits_rcp(&self, j: usize) -> bool {
        let finished = self.batching.finished.get(j);
        j != self.id && finished == Some(&false) && !self.sync.is_demoted(j)
    }

    /// Is this rank waiting on an open collect?
    pub fn collecting(&self) -> bool {
        let collect = self.batching.collect(|j| self.awaits_rcp(j));
        collect.is_some_and(|(_, mut missing)| missing.next().is_some())
    }

    /// The open collect this rank waits on: its round and the awaited
    /// peers whose RCP for it is missing.
    pub fn awaited_rcps(&self) -> Option<(u64, Vec<usize>)> {
        let (round, missing) = self.batching.collect(|j| self.awaits_rcp(j))?;
        Some((round, missing.collect::<Vec<_>>())).filter(|(_, m)| !m.is_empty())
    }

    /// The batching plane between two iterations, the clock at `clock`:
    /// decide the open round once every awaited RCP is in (`force`: with
    /// whatever is in), resizing this rank if it repartitioned; then open
    /// the next due round, if any, with the RCP `rcp` yields, and so on.
    /// Appends a notice to `out` for each awaited peer of a round it
    /// opens; returns whether a collect is still open — the rank does not
    /// start its next iteration until none is. `now` stamps the trace
    /// events.
    pub fn batching_step(
        &mut self,
        clock: f64,
        now: f64,
        mut force: bool,
        mut rcp: impl FnMut() -> f64,
        mut out: impl FnMut(Item),
    ) -> bool {
        loop {
            if self.collecting() && !force {
                return true;
            }
            force = false;
            if self.batching.round(self.id, now) {
                self.set_lbs(self.batching.share(self.id));
            }
            let Some(notice) = self.batching.open(self.id, clock, &mut rcp) else {
                return false;
            };
            for j in (0..self.schedule.n()).filter(|&j| self.awaits_rcp(j)) {
                out(Output::Notice(j, notice).into());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::messages::KIND_NET_BASE;

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

    /// Rank 0 of three DLion workers at LBS 32 (GBS 96) over 12 000
    /// samples, a GBS step every 0.25 s: 96 → 160 → 240 → 360 → 540 →
    /// 810 → 1200 → Done. No backend attached; start-up (round 0) has run
    /// with equal RCPs.
    fn started(profile_interval: f64) -> Batching {
        let mut cfg = RunConfig::small_test(SystemKind::DLion);
        cfg.workload.train_size = 12_000;
        cfg.gbs.adjust_period_secs = 0.25;
        cfg.profile_interval = profile_interval;
        let mut b = Batching::new(&cfg, 3);
        assert_eq!(decide(&mut b, 0.0, &[1.0, 1.0, 1.0]), Some((0, true)));
        assert_eq!(b.lbs_trace, vec![(0.0, vec![32, 32, 32])]);
        b
    }

    /// Rank 0 opens the round due at `clock` and collects one RCP per
    /// peer, `rcps[j]` (a NaN: `j` is demoted and sends none), then
    /// decides it: the round and whether it repartitioned.
    fn decide(b: &mut Batching, clock: f64, rcps: &[f64]) -> Option<(u64, bool)> {
        let waiting = |b: &Batching| {
            let collect = b.collect(|j| awaits(b, j, rcps[j].is_nan()));
            collect.is_some_and(|(_, mut missing)| missing.next().is_some())
        };
        let Notice::Rcp { round, .. } = b.open(0, clock, || rcps[0])? else {
            unreachable!("open sends an RCP")
        };
        for j in (1..3).filter(|&j| !rcps[j].is_nan()) {
            let missing = !b.rcps.contains_key(&(round, j));
            assert!(waiting(b) || !missing, "decidable before {j} answered");
            b.on_notice(
                j,
                Notice::Rcp {
                    round,
                    rcp: rcps[j],
                },
            );
        }
        assert!(!waiting(b));
        Some((round, b.round(0, clock)))
    }

    /// Does rank 0 await `j`, demoted or not (`Worker::awaits_rcp`)?
    fn awaits(b: &Batching, j: usize, demoted: bool) -> bool {
        j != 0 && b.finished.get(j) == Some(&false) && !demoted
    }

    const EVEN: &[f64] = &[1.0, 1.0, 1.0];

    #[test]
    fn fast_forward_equals_stepping_and_stamps_nominal_times() {
        let (mut a, mut b) = (started(1e9), started(1e9));
        for r in 1..=4 {
            assert_eq!(decide(&mut a, 0.25 * r as f64, EVEN), Some((r, true)));
        }
        // One long iteration crossed rounds 1-4, and the peers opened
        // round 4 already: rank 0 converges on it instead of trading the
        // stale rounds.
        for j in 1..3 {
            b.on_notice(j, Notice::Rcp { round: 4, rcp: 1.0 });
        }
        assert_eq!(decide(&mut b, 1.1, EVEN), Some((4, true)));
        let schedule = vec![(0.25, 160), (0.5, 240), (0.75, 360), (1.0, 540)];
        assert_eq!(a.gbs_trace, schedule);
        assert_eq!(b.gbs_trace, schedule);
        // The skipped rounds never partitioned; the caught-up one splits
        // the GBS in force exactly like the stepped one.
        assert_eq!((a.lbs_trace.len(), b.lbs_trace.len()), (5, 2));
        assert_eq!(b.lbs_trace[1], (1.0, vec![180, 180, 180]));
        assert_eq!(a.lbs_trace[4], b.lbs_trace[1]);
        assert_eq!(a.shares, b.shares);
    }

    /// A GBS step every 0.25 s and a re-profile every 0.5 s: the pair at
    /// 0.5 and 1.0 is one round with one repartition, and once the GBS is
    /// Done only the re-profiles repartition. Re-profiling every 0.6 s
    /// interleaves its own rounds, each stamped with its own time.
    #[test]
    fn a_coinciding_gbs_step_and_re_profile_are_one_round() {
        let mut b = started(0.5);
        let mut clock = 0.0;
        while b.gbs_trace.len() < 6 || clock < 3.0 {
            clock += 0.05;
            while decide(&mut b, clock, EVEN).is_some() {}
        }
        let times: Vec<f64> = b.lbs_trace.iter().map(|&(t, _)| t).collect();
        let steps = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5];
        let profiles_after = [2.0, 2.5, 3.0];
        assert_eq!(times, [&steps[..], &profiles_after].concat());
        assert_eq!(b.next, 13, "rounds 1-12 end at 3.0 s: one per 0.25 s");
        let mut b = started(0.6);
        for clock in [0.25, 0.5, 0.6, 0.75] {
            assert!(decide(&mut b, clock, EVEN).is_some_and(|(_, moved)| moved));
        }
        let times: Vec<f64> = b.lbs_trace.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [0.0, 0.25, 0.5, 0.6, 0.75]);
        assert_eq!(b.gbs_trace.len(), 3, "a re-profile does not step the GBS");
    }

    #[test]
    fn a_contributor_change_repartitions_once_even_when_the_gbs_is_done() {
        let mut b = started(1e9);
        for r in 1..=6 {
            decide(&mut b, 0.25 * r as f64, EVEN);
        }
        assert_eq!(b.gbs_trace.last(), Some(&(1.5, 1200)));
        // Done, everyone still here: nothing to decide.
        assert_eq!(decide(&mut b, 1.75, EVEN), Some((7, false)));
        // Rank 1 departed and was demoted: it sends no RCP, nobody awaits one.
        let gone = [1.0, f64::NAN, 1.0];
        assert_eq!(decide(&mut b, 2.0, &gone), Some((8, true)));
        assert_eq!(b.lbs_trace.last(), Some(&(2.0, vec![600, 0, 600])));
        assert_eq!(b.shares, vec![600, 400, 600], "only contributors move");
        assert_eq!(decide(&mut b, 2.25, &gone), Some((9, false)));
        assert_eq!(b.gbs_trace.len(), 6);
    }

    #[test]
    fn the_rcps_in_hand_pick_the_contributors_from_round_zero() {
        let cfg = RunConfig::small_test(SystemKind::DLion);
        let mut b = Batching::new(&cfg, 3);
        // Rank 2 was lost mid-profiling: no RCP, no mean-fill, no share.
        let lost = [3.0, 1.0, f64::NAN];
        assert_eq!(decide(&mut b, 0.0, &lost), Some((0, true)));
        assert_eq!(b.lbs_trace, vec![(0.0, vec![72, 24, 0])]);
        // A round's stale RCPs are dropped once it is decided.
        b.on_notice(1, Notice::Rcp { round: 0, rcp: 5.0 });
        assert!(b.rcps.is_empty());
    }

    /// A rank whose Done arrived is not awaited, and its leaving the
    /// contributors does not re-split the GBS by itself; the next
    /// re-profile splits it over the ranks at work.
    #[test]
    fn a_finished_rank_is_not_awaited_and_takes_no_share() {
        let mut b = started(1.0);
        for r in 1..=6 {
            decide(&mut b, 0.25 * r as f64, EVEN);
        }
        assert_eq!(b.lbs_trace.last(), Some(&(1.5, vec![400, 400, 400])));
        b.on_notice(2, Notice::Done);
        assert!(!awaits(&b, 2, false) && awaits(&b, 1, false));
        let done = [1.0, 1.0, f64::NAN];
        assert_eq!(decide(&mut b, 1.75, &done), Some((7, false)));
        assert_eq!(decide(&mut b, 2.0, &done), Some((8, true)));
        assert_eq!(b.lbs_trace.last(), Some(&(2.0, vec![600, 600, 0])));
        assert!(b.finish(0) && !b.finish(0));
        assert_eq!(b.next_due(0, 9.0), None, "a finished rank opens no round");
    }

    #[test]
    fn rounds_come_due_at_exact_boundaries() {
        let mut b = started(1e9);
        assert_eq!(b.next_due(0, 0.2), None);
        assert_eq!(b.next_due(0, 0.25), Some(1));
        assert_eq!(b.next_due(0, 0.25f64.next_down()), None);
        // One long iteration crossed three boundaries: the rounds run one
        // by one, unless a peer already opened a later due one.
        assert_eq!(b.next_due(0, 0.8), Some(1));
        b.on_notice(1, Notice::Rcp { round: 4, rcp: 1.0 });
        assert_eq!(b.next_due(0, 0.8), Some(1), "round 4 is not due");
        b.on_notice(1, Notice::Rcp { round: 3, rcp: 1.0 });
        assert_eq!(b.next_due(0, 0.8), Some(1), "only the newest seen counts");
        // A round number no clock reaches is never due, and costs nothing.
        b.on_notice(
            2,
            Notice::Rcp {
                round: u64::MAX,
                rcp: 1.0,
            },
        );
        assert_eq!(b.next_due(0, 0.8), Some(1));
        b.rcps.remove(&(u64::MAX, 2));
        assert_eq!(b.next_due(0, 1.0), Some(4));
        decide(&mut b, 1.0, EVEN);
        assert_eq!(b.next_due(0, 1.0), None);
        assert_eq!(b.next_due(0, 1.25), Some(5));
        // A system without dynamic batching has no rounds at all.
        let mut fixed = Batching::new(&RunConfig::small_test(SystemKind::Baseline), 3);
        fixed.on_notice(1, Notice::Rcp { round: 7, rcp: 1.0 });
        assert_eq!(fixed.next_due(0, 9.0), None);
        assert!(!awaits(&fixed, 1, false) && !fixed.finish(0));
    }

    /// The simulator prices a notice at the live frame's encoded size.
    #[test]
    fn notices_cost_what_their_frames_do() {
        let rcp = crate::messages::encode_frame(KIND_NET_BASE + 3, &[0; 16]);
        let done = crate::messages::encode_frame(KIND_NET_BASE + 2, &[]);
        assert_eq!(Notice::Rcp { round: 1, rcp: 2.0 }.wire_len(), rcp.len());
        assert_eq!(Notice::Done.wire_len(), done.len());
    }
}
