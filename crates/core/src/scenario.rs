//! Production-shaped chaos scenarios, generated deterministically.
//!
//! The paper motivates DLion with micro-cloud dynamism — capacity that
//! ebbs with local demand, transient regional failures, preemptible
//! spot capacity, and heavy-tailed stragglers (PAPER §2). A
//! [`ScenarioSpec`] names that trouble symbolically (`--scenario
//! diurnal/outage:Mumbai@20/stragglers:3`), and [`generate`] expands it
//! into a concrete [`ScenarioPlan`]: per-worker capacity/bandwidth
//! *factor* schedules for the simulator, plus the same [`FaultPlan`]
//! and straggler list the live backend's `--kill`/`--straggle`
//! machinery consumes. Expansion is a pure function of
//! `(spec, n, seed, iters, horizon)` — every backend (and every child
//! process handed the raw `--scenario` flag) derives byte-identical
//! chaos, which is what makes sim/live chaos-parity twins possible.
//!
//! Worker-to-region mapping is fixed: worker `w` lives in Amazon region
//! `w % 6` (the `dlion-microcloud` Table 2 regions), so `outage:Ireland`
//! means the same worker set on every backend and at every scale.

use crate::fault::{FaultPlan, KillSpec};
use dlion_microcloud::REGIONS;
use dlion_simnet::{ComputeModel, NetworkModel, PiecewiseConst};
use dlion_tensor::DetRng;

/// Hard cap on generated straggler factors (a worker can be slow, not
/// stuck — unbounded Pareto tails would stall the whole BSP gate).
pub const MAX_STRAGGLE_FACTOR: f64 = 16.0;

/// Steps per diurnal period in the generated wave schedules.
const WAVE_STEPS_PER_PERIOD: usize = 8;

/// Upper bound on wave steps per worker, so an absurd
/// `horizon / period` ratio cannot balloon schedule memory.
const MAX_WAVE_STEPS: usize = 512;

/// The Amazon region hosting worker `w` (round-robin over Table 2's six
/// regions) — the shared key for region-scoped faults.
pub fn region_of(w: usize) -> usize {
    w % REGIONS.len()
}

/// One named trouble pattern. Parsed arguments that depend on the
/// cluster (`count`) or run length (`at_iter`) stay `None` until
/// [`generate`] resolves them against `(n, iters)`.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioKind {
    /// `diurnal[:PERIOD[,DEPTH]]` — capacity (and, half as deep,
    /// bandwidth) follows a cosine wave with the given period in
    /// virtual seconds, dipping to `1 - depth` at the trough. Workers
    /// are phase-shifted by region, so the cluster never dips in
    /// lockstep.
    Diurnal { period: f64, depth: f64 },
    /// `outage:REGION[@ITER[+REJOIN]]` — every worker in the region
    /// (by name or index) departs when it reaches `ITER` (default:
    /// mid-run), optionally rejoining after `REJOIN` seconds.
    Outage {
        region: usize,
        at_iter: Option<u64>,
        rejoin_after: Option<f64>,
    },
    /// `spotstorm[:COUNT][@ITER][+REJOIN]` — `COUNT` seeded-random
    /// workers (default: n/8) are preempted in a burst starting at
    /// `ITER` (default: mid-run), each at a jittered iteration within
    /// the next few rounds.
    SpotStorm {
        count: Option<usize>,
        at_iter: Option<u64>,
        rejoin_after: Option<f64>,
    },
    /// `stragglers[:COUNT[,ALPHA]]` — `COUNT` seeded-random workers
    /// (default: n/10) slow down by Pareto(α)-distributed factors
    /// (≥ 1, capped at [`MAX_STRAGGLE_FACTOR`]).
    Stragglers { count: Option<usize>, alpha: f64 },
}

/// A compound scenario: one or more [`ScenarioKind`]s joined with `/`.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    pub kinds: Vec<ScenarioKind>,
}

/// Parse `REGION` as a Table 2 region name (case-insensitive) or index.
fn parse_region(s: &str) -> Result<usize, String> {
    if let Some(i) = REGIONS.iter().position(|r| r.eq_ignore_ascii_case(s)) {
        return Ok(i);
    }
    if let Ok(i) = s.parse::<usize>() {
        if i < REGIONS.len() {
            return Ok(i);
        }
    }
    Err(format!(
        "unknown region '{s}' (want an index < {} or one of {})",
        REGIONS.len(),
        REGIONS.join("|")
    ))
}

/// Split `ARGS[@ITER][+REJOIN]` into its three optional parts.
fn split_at_rejoin(s: &str) -> Result<(&str, Option<u64>, Option<f64>), String> {
    let (head, rejoin) = match s.split_once('+') {
        Some((h, r)) => {
            let r: f64 = r.parse().map_err(|_| format!("bad rejoin delay '{r}'"))?;
            if r < 0.0 || !r.is_finite() {
                return Err(format!("rejoin delay must be finite and >= 0, got {r}"));
            }
            (h, Some(r))
        }
        None => (s, None),
    };
    let (head, at_iter) = match head.split_once('@') {
        Some((h, i)) => {
            let i: u64 = i.parse().map_err(|_| format!("bad iteration '{i}'"))?;
            (h, Some(i))
        }
        None => (head, None),
    };
    Ok((head, at_iter, rejoin))
}

impl ScenarioKind {
    fn parse(s: &str) -> Result<ScenarioKind, String> {
        let (name, args) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        match name {
            "diurnal" => {
                let (mut period, mut depth) = (600.0f64, 0.5f64);
                if let Some(a) = args {
                    let (p, d) = match a.split_once(',') {
                        Some((p, d)) => (p, Some(d)),
                        None => (a, None),
                    };
                    period = p.parse().map_err(|_| format!("bad period '{p}'"))?;
                    if let Some(d) = d {
                        depth = d.parse().map_err(|_| format!("bad depth '{d}'"))?;
                    }
                }
                if !(period > 0.0 && period.is_finite()) {
                    return Err(format!("diurnal period must be positive, got {period}"));
                }
                if !(0.0..1.0).contains(&depth) {
                    return Err(format!("diurnal depth must be in [0, 1), got {depth}"));
                }
                Ok(ScenarioKind::Diurnal { period, depth })
            }
            "outage" => {
                let a = args.ok_or("outage needs a region: outage:REGION[@ITER[+REJOIN]]")?;
                let (region, at_iter, rejoin_after) = split_at_rejoin(a)?;
                Ok(ScenarioKind::Outage {
                    region: parse_region(region)?,
                    at_iter,
                    rejoin_after,
                })
            }
            "spotstorm" => {
                let (count, at_iter, rejoin_after) = match args {
                    None => (None, None, None),
                    Some(a) => {
                        let (c, i, r) = split_at_rejoin(a)?;
                        let count = if c.is_empty() {
                            None
                        } else {
                            let c: usize =
                                c.parse().map_err(|_| format!("bad worker count '{c}'"))?;
                            if c == 0 {
                                return Err("spotstorm count must be positive".into());
                            }
                            Some(c)
                        };
                        (count, i, r)
                    }
                };
                Ok(ScenarioKind::SpotStorm {
                    count,
                    at_iter,
                    rejoin_after,
                })
            }
            "stragglers" => {
                let (mut count, mut alpha) = (None, 2.0f64);
                if let Some(a) = args {
                    let (c, al) = match a.split_once(',') {
                        Some((c, al)) => (c, Some(al)),
                        None => (a, None),
                    };
                    if !c.is_empty() {
                        let c: usize = c.parse().map_err(|_| format!("bad worker count '{c}'"))?;
                        if c == 0 {
                            return Err("stragglers count must be positive".into());
                        }
                        count = Some(c);
                    }
                    if let Some(al) = al {
                        alpha = al.parse().map_err(|_| format!("bad alpha '{al}'"))?;
                    }
                }
                if !(alpha > 0.0 && alpha.is_finite()) {
                    return Err(format!("stragglers alpha must be positive, got {alpha}"));
                }
                Ok(ScenarioKind::Stragglers { count, alpha })
            }
            other => Err(format!(
                "unknown scenario '{other}' (want diurnal|outage|spotstorm|stragglers)"
            )),
        }
    }
}

impl ScenarioSpec {
    /// Parse a `NAME[:ARGS][/NAME[:ARGS]...]` compound scenario.
    pub fn parse(s: &str) -> Result<ScenarioSpec, String> {
        if s.is_empty() {
            return Err("empty scenario spec".into());
        }
        let kinds = s
            .split('/')
            .map(ScenarioKind::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ScenarioSpec { kinds })
    }
}

/// A concrete chaos plan, expanded for one `(n, seed, iters, horizon)`.
///
/// The factor schedules are dimensionless multipliers for the
/// simulator's base models ([`ScenarioPlan::apply_to_models`]); `fault`
/// and `straggle` are exactly what `--kill`/`--straggle` carry, for
/// both backends.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioPlan {
    /// Per-worker compute-capacity multiplier over virtual time (≤ 1,
    /// bounded away from 0 so capacity never vanishes outside a kill).
    pub capacity_factor: Vec<PiecewiseConst>,
    /// Per-worker egress-bandwidth multiplier over virtual time.
    pub bandwidth_factor: Vec<PiecewiseConst>,
    /// Scheduled departures (and rejoins), iteration-indexed.
    pub fault: FaultPlan,
    /// `(worker, factor)` straggler slowdowns, factors in
    /// `[1, MAX_STRAGGLE_FACTOR]`.
    pub straggle: Vec<(usize, f64)>,
}

impl ScenarioPlan {
    /// Fold the factor schedules into the simulator's models (the live
    /// backend consumes only `fault`/`straggle`). No-op factors are
    /// skipped so unaffected models keep their interned link classes.
    pub fn apply_to_models(&self, compute: &mut ComputeModel, net: &mut NetworkModel) {
        let one = [(0.0, 1.0)];
        for (w, f) in self.capacity_factor.iter().enumerate() {
            if f.points() != one {
                compute.scale_capacity(w, f);
            }
        }
        if self.bandwidth_factor.iter().any(|f| f.points() != one) {
            net.scale_egress(&self.bandwidth_factor);
        }
    }
}

/// The phase-shifted diurnal factor wave for one worker.
fn diurnal_wave(period: f64, depth: f64, phase: f64, horizon: f64) -> PiecewiseConst {
    let dt = period / WAVE_STEPS_PER_PERIOD as f64;
    let steps = ((horizon / dt).ceil() as usize + 1).min(MAX_WAVE_STEPS);
    let points = (0..steps)
        .map(|i| {
            let t = i as f64 * dt;
            let angle = std::f64::consts::TAU * (t + phase) / period;
            // In [1 - depth, 1]: troughs at angle = π.
            (t, 1.0 - depth * 0.5 * (1.0 - angle.cos()))
        })
        .collect();
    PiecewiseConst::steps(points)
}

/// Expand `spec` into a concrete plan for `n` workers running `iters`
/// iterations over `horizon` virtual seconds. Pure: the same arguments
/// always produce a byte-identical plan, and the plan is always valid
/// (factors in (0, 1], `fault` passes [`FaultPlan::validate`],
/// straggler factors in `[1, MAX_STRAGGLE_FACTOR]`).
pub fn generate(
    spec: &ScenarioSpec,
    n: usize,
    seed: u64,
    iters: u64,
    horizon: f64,
) -> Result<ScenarioPlan, String> {
    if n == 0 {
        return Err("scenario needs at least one worker".into());
    }
    if !(horizon > 0.0 && horizon.is_finite()) {
        return Err(format!("scenario horizon must be positive, got {horizon}"));
    }
    let mut root = DetRng::seed_from_u64(seed ^ 0x5CE4_A210_C4A0_5BAD);
    let mut capacity_factor = vec![PiecewiseConst::constant(1.0); n];
    let mut bandwidth_factor = vec![PiecewiseConst::constant(1.0); n];
    let mut kills: Vec<KillSpec> = Vec::new();
    let mut straggle: Vec<(usize, f64)> = Vec::new();

    // Defaults that depend on the run: mid-run kills, clamped into the
    // valid (0, iters) window. With iters < 2 no kill can be valid, so
    // fault-bearing kinds degrade to no-ops rather than erroring — the
    // capacity/straggler parts of a compound spec still apply.
    let clamp_iter = |i: u64| i.clamp(1, iters.saturating_sub(1).max(1));
    let mid_run = clamp_iter(iters / 2);
    let kills_possible = iters >= 2;

    for (i, kind) in spec.kinds.iter().enumerate() {
        // One derived stream per kind: reordering draws inside one kind
        // never perturbs the others.
        let mut rng = root.derive(i as u64 + 1);
        match *kind {
            ScenarioKind::Diurnal { period, depth } => {
                for w in 0..n {
                    let phase = region_of(w) as f64 / REGIONS.len() as f64 * period;
                    let cap = diurnal_wave(period, depth, phase, horizon);
                    let bw = diurnal_wave(period, depth * 0.5, phase, horizon);
                    capacity_factor[w] = capacity_factor[w].product_with(&cap);
                    bandwidth_factor[w] = bandwidth_factor[w].product_with(&bw);
                }
            }
            ScenarioKind::Outage {
                region,
                at_iter,
                rejoin_after,
            } => {
                if !kills_possible {
                    continue;
                }
                let at = clamp_iter(at_iter.unwrap_or(mid_run));
                for w in (0..n).filter(|&w| region_of(w) == region) {
                    kills.push(KillSpec {
                        worker: w,
                        at_iter: at,
                        rejoin_after,
                    });
                }
            }
            ScenarioKind::SpotStorm {
                count,
                at_iter,
                rejoin_after,
            } => {
                if !kills_possible {
                    continue;
                }
                let count = count.unwrap_or_else(|| (n / 8).max(1)).min(n);
                let base = clamp_iter(at_iter.unwrap_or(mid_run));
                let window = (iters - 1 - base).min(4) as usize + 1;
                let mut victims = rng.sample_indices(n, count);
                victims.sort_unstable();
                for w in victims {
                    kills.push(KillSpec {
                        worker: w,
                        at_iter: base + rng.index(window) as u64,
                        rejoin_after,
                    });
                }
            }
            ScenarioKind::Stragglers { count, alpha } => {
                let count = count.unwrap_or_else(|| (n / 10).max(1)).min(n);
                let mut victims = rng.sample_indices(n, count);
                victims.sort_unstable();
                for w in victims {
                    // Pareto(x_m = 1, α) via inverse CDF, capped so a
                    // tail draw slows a worker instead of wedging it.
                    let u = rng.uniform();
                    let factor = (1.0 - u).powf(-1.0 / alpha).min(MAX_STRAGGLE_FACTOR);
                    straggle.push((w, factor.max(1.0)));
                }
            }
        }
    }

    // A worker can be picked by both an outage and a spot storm; the
    // fault machinery allows one kill per worker, so the first-listed
    // kind wins. Same rule for repeated straggler picks.
    let mut seen = vec![false; n];
    kills.retain(|k| !std::mem::replace(&mut seen[k.worker], true));
    let mut seen = vec![false; n];
    straggle.retain(|&(w, _)| !std::mem::replace(&mut seen[w], true));

    // Both backends require a survivor: drop trailing permanent kills
    // until one worker remains (a whole-cluster outage becomes an
    // almost-whole-cluster outage, deterministically).
    while kills.iter().filter(|k| k.rejoin_after.is_none()).count() >= n {
        let last = kills
            .iter()
            .rposition(|k| k.rejoin_after.is_none())
            .expect("count >= n >= 1 implies a permanent kill");
        kills.remove(last);
    }

    let fault = FaultPlan { kills };
    fault
        .validate(n, iters.max(2))
        .map_err(|e| format!("generated fault plan invalid: {e}"))?;
    Ok(ScenarioPlan {
        capacity_factor,
        bandwidth_factor,
        fault,
        straggle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(spec: &str, n: usize, seed: u64, iters: u64) -> ScenarioPlan {
        generate(&ScenarioSpec::parse(spec).unwrap(), n, seed, iters, 1200.0).unwrap()
    }

    #[test]
    fn parses_all_kinds() {
        for s in [
            "diurnal:600,0.5",
            "diurnal:86400,0.25",
            "outage:Mumbai",
            "outage:Ireland@10",
            "outage:Sydney@10+2.5",
            "spotstorm",
            "spotstorm:4",
            "spotstorm:4@10",
            "spotstorm:4@10+1.5",
            "stragglers:,2",
            "stragglers:3,1.5",
            "diurnal:600,0.5/outage:Oregon@8/stragglers:2,2",
        ] {
            ScenarioSpec::parse(s).unwrap_or_else(|e| panic!("'{s}': {e}"));
        }
        // Defaults resolve at parse time where they are static.
        assert_eq!(
            ScenarioSpec::parse("diurnal").unwrap().kinds[0],
            ScenarioKind::Diurnal {
                period: 600.0,
                depth: 0.5
            }
        );
        assert_eq!(
            ScenarioSpec::parse("stragglers").unwrap().kinds[0],
            ScenarioKind::Stragglers {
                count: None,
                alpha: 2.0
            }
        );
        // Regions parse by index or case-insensitive name.
        assert_eq!(
            ScenarioSpec::parse("outage:3").unwrap().kinds[0],
            ScenarioKind::Outage {
                region: 3,
                at_iter: None,
                rejoin_after: None
            }
        );
        assert_eq!(
            ScenarioSpec::parse("outage:mumbai").unwrap(),
            ScenarioSpec::parse("outage:Mumbai").unwrap()
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for s in [
            "",
            "quake",
            "diurnal:0",
            "diurnal:600,1.5",
            "diurnal:600,-0.1",
            "outage",
            "outage:Atlantis",
            "outage:9",
            "outage:Mumbai@x",
            "outage:Mumbai@5+-1",
            "spotstorm:0",
            "spotstorm:x",
            "stragglers:0",
            "stragglers:2,0",
            "stragglers:2,nan",
            "diurnal/",
        ] {
            assert!(ScenarioSpec::parse(s).is_err(), "accepted '{s}'");
        }
    }

    #[test]
    fn outage_kills_exactly_the_region() {
        let p = gen("outage:Mumbai@7", 16, 1, 20);
        let expect: Vec<usize> = (0..16).filter(|&w| w % 6 == 3).collect();
        let mut got: Vec<usize> = p.fault.kills.iter().map(|k| k.worker).collect();
        got.sort_unstable();
        assert_eq!(got, expect);
        assert!(p.fault.kills.iter().all(|k| k.at_iter == 7));
        assert!(p.straggle.is_empty());
    }

    #[test]
    fn spotstorm_respects_count_and_window() {
        let p = gen("spotstorm:5@10+2", 64, 3, 30);
        assert_eq!(p.fault.kills.len(), 5);
        for k in &p.fault.kills {
            assert!((10..15).contains(&k.at_iter), "{k:?}");
            assert_eq!(k.rejoin_after, Some(2.0));
        }
    }

    #[test]
    fn stragglers_are_pareto_capped() {
        let p = gen("stragglers:20,1.2", 64, 9, 30);
        assert_eq!(p.straggle.len(), 20);
        for &(w, f) in &p.straggle {
            assert!(w < 64);
            assert!((1.0..=MAX_STRAGGLE_FACTOR).contains(&f), "factor {f}");
        }
        // α = 1.2 is heavy-tailed: expect real spread across 20 draws.
        let max = p.straggle.iter().map(|s| s.1).fold(1.0f64, f64::max);
        assert!(max > 1.5, "no tail at all: max {max}");
    }

    #[test]
    fn diurnal_factors_bounded_and_phase_shifted() {
        let p = gen("diurnal:600,0.4", 12, 1, 30);
        for w in 0..12 {
            for &(_, v) in p.capacity_factor[w].points() {
                assert!((0.6..=1.0).contains(&v), "capacity factor {v}");
            }
            for &(_, v) in p.bandwidth_factor[w].points() {
                assert!((0.8..=1.0).contains(&v), "bandwidth factor {v}");
            }
        }
        // Different regions see different phases.
        assert_ne!(p.capacity_factor[0].points(), p.capacity_factor[1].points());
        // Same region, same wave.
        assert_eq!(p.capacity_factor[0].points(), p.capacity_factor[6].points());
        assert!(p.fault.is_empty());
    }

    #[test]
    fn whole_cluster_outage_keeps_a_survivor() {
        // n = 4 < 6 regions, so outage of region 2 kills worker 2 only;
        // kill all four regions to provoke the survivor guard.
        let p = gen(
            "outage:Virginia@2/outage:Oregon@2/outage:Ireland@2/outage:Mumbai@2",
            4,
            1,
            10,
        );
        assert_eq!(p.fault.kills.len(), 3, "one worker must survive");
        p.fault.validate(4, 10).unwrap();
    }

    #[test]
    fn overlapping_kinds_keep_first_kill_per_worker() {
        // The storm may pick workers already down with the outage; the
        // plan must still validate (one kill per worker).
        let p = gen("outage:Virginia@5/spotstorm:8@5", 12, 7, 20);
        p.fault.validate(12, 20).unwrap();
        let mut ws: Vec<usize> = p.fault.kills.iter().map(|k| k.worker).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), p.fault.kills.len());
    }

    #[test]
    fn short_runs_degrade_kills_to_noops() {
        let p = gen("outage:Virginia/stragglers:2", 8, 1, 1);
        assert!(p.fault.is_empty(), "iters < 2 leaves no valid kill window");
        assert_eq!(p.straggle.len(), 2, "stragglers still apply");
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = "diurnal:600,0.5/spotstorm:6@10+1/stragglers:8,2";
        let a = gen(spec, 128, 42, 40);
        let b = gen(spec, 128, 42, 40);
        assert_eq!(a, b);
        let c = gen(spec, 128, 43, 40);
        assert_ne!(a.fault, c.fault);
    }

    #[test]
    fn apply_to_models_scales_sim_models() {
        let p = gen("diurnal:100,0.5", 6, 1, 20);
        let mut compute = ComputeModel::homogeneous(6, 24.0, 1.0, 0.1);
        let mut net = NetworkModel::uniform(6, 1000.0, 0.001);
        p.apply_to_models(&mut compute, &mut net);
        // Worker 0's trough (phase 0) is at t = period/2 = 50.
        assert!(compute.capacity_at(0, 0.0) > compute.capacity_at(0, 50.0));
        assert!(compute.capacity_at(0, 50.0) >= 24.0 * 0.5 - 1e-9);
        assert!(net.bandwidth_mbps(0, 1, 50.0) < 1000.0);
        assert!(net.bandwidth_mbps(0, 1, 50.0) >= 750.0 - 1e-9);
        // A chaos plan with no wave leaves the models untouched.
        let p = gen("stragglers:2", 6, 1, 20);
        let mut c2 = ComputeModel::homogeneous(6, 24.0, 1.0, 0.1);
        let mut n2 = NetworkModel::uniform(6, 1000.0, 0.001);
        p.apply_to_models(&mut c2, &mut n2);
        assert_eq!(c2.capacity_at(3, 77.0), 24.0);
        assert_eq!(n2.bandwidth_mbps(2, 3, 77.0), 1000.0);
    }
}
