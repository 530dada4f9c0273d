//! Integration of the two batching controllers through the runner: the GBS
//! schedule, LBS reassignment on GBS change, and profiling under dynamism —
//! plus randomized property checks of the controller invariants the live
//! round protocol leans on (monotone growth, exact cap clamps, partitions
//! that sum to the GBS and never starve a worker).

use dlion_core::lbs::partition_gbs;
use dlion_core::{run_with_models, GbsConfig, GbsController, GbsPhase, RunConfig, SystemKind};
use dlion_microcloud::{
    CPU_BATCH_EXPONENT, CPU_COST_PER_SAMPLE, CPU_OVERHEAD, LAN_LATENCY, LAN_MBPS,
};
use dlion_simnet::{ComputeModel, NetworkModel, PiecewiseConst};
use dlion_tensor::DetRng;

fn cfg() -> RunConfig {
    let mut c = RunConfig::small_test(SystemKind::DLion);
    c.duration = 600.0;
    c.workload.train_size = 12_000; // warm-up cap 120 < 192 < speed-up cap 1200
    c.workload.test_size = 400;
    c.eval_interval = 200.0;
    c.gbs.adjust_period_secs = 150.0;
    c.profile_interval = 75.0;
    c
}

fn lan(n: usize) -> NetworkModel {
    NetworkModel::uniform(n, LAN_MBPS, LAN_LATENCY)
}

#[test]
fn gbs_grows_through_phases_and_lbs_follows() {
    let compute = ComputeModel::homogeneous(6, 24.0, CPU_COST_PER_SAMPLE, CPU_OVERHEAD)
        .with_batch_exponent(CPU_BATCH_EXPONENT);
    let m = run_with_models(&cfg(), compute, lan(6), "gbs-growth");
    // Ticks at 150/300/450/600: speed-up x1.5 each -> 288, 432, 648... but
    // capped at 10% of 12000 = 1200.
    let gbs_values: Vec<usize> = m.gbs_trace.iter().map(|&(_, g)| g).collect();
    assert!(!gbs_values.is_empty());
    assert!(
        gbs_values.windows(2).all(|w| w[1] > w[0]),
        "monotone: {gbs_values:?}"
    );
    assert!(
        *gbs_values.last().unwrap() <= 1200,
        "cap respected: {gbs_values:?}"
    );
    // Every LBS assignment sums to the GBS in force at that time.
    for (t, parts) in &m.lbs_trace {
        let expect = m
            .gbs_trace
            .iter()
            .rev()
            .find(|&&(tt, _)| tt <= *t)
            .map(|&(_, g)| g)
            .unwrap_or(192);
        assert_eq!(parts.iter().sum::<usize>(), expect, "at t={t}");
    }
    // Homogeneous cluster: shares stay near-equal even as GBS grows.
    let (_, last) = m.lbs_trace.last().unwrap();
    let (min, max) = (last.iter().min().unwrap(), last.iter().max().unwrap());
    assert!(
        *max as f64 <= 1.3 * *min as f64,
        "near-equal shares: {last:?}"
    );
}

/// The cell above re-profiles every 75 s and steps the GBS every 150 s:
/// at 150, 300, 450 and 600 the two boundaries coincide and are one round
/// with one repartition, not two rows at the same time.
#[test]
fn a_coinciding_gbs_step_and_re_profile_repartition_once() {
    let compute = ComputeModel::homogeneous(6, 24.0, CPU_COST_PER_SAMPLE, CPU_OVERHEAD)
        .with_batch_exponent(CPU_BATCH_EXPONENT);
    let m = run_with_models(&cfg(), compute, lan(6), "gbs-growth");
    let times: Vec<f64> = m.lbs_trace.iter().map(|&(t, _)| t).collect();
    assert!(
        times.contains(&150.0) && times.contains(&300.0),
        "{times:?}"
    );
    assert!(
        times.windows(2).all(|w| w[0] < w[1]),
        "two rows at one time: {times:?}"
    );
}

#[test]
fn profiling_tracks_mid_run_capacity_change() {
    // Worker 5 loses 3/4 of its cores at t=300; its LBS share must shrink
    // by roughly the superlinear factor (24/6)^(1/0.75) within a couple of
    // profiling periods.
    let mut caps = vec![PiecewiseConst::constant(24.0); 6];
    caps[5] = PiecewiseConst::steps(vec![(0.0, 24.0), (300.0, 6.0)]);
    let compute = ComputeModel::new(caps, CPU_COST_PER_SAMPLE, CPU_OVERHEAD)
        .with_batch_exponent(CPU_BATCH_EXPONENT);
    let mut c = cfg();
    // Pin the GBS so the trace isolates the capacity response.
    c.gbs.warmup_cap_frac = 0.001;
    c.gbs.speedup_cap_frac = 0.002;
    let m = run_with_models(&c, compute, lan(6), "capacity-drop");
    let share = |t_lo: f64, t_hi: f64| -> f64 {
        let rows: Vec<&Vec<usize>> = m
            .lbs_trace
            .iter()
            .filter(|(t, _)| (*t >= t_lo) && (*t < t_hi))
            .map(|(_, p)| p)
            .collect();
        assert!(!rows.is_empty(), "no assignments in [{t_lo},{t_hi})");
        let last = rows.last().unwrap();
        last[5] as f64 / last.iter().sum::<usize>() as f64
    };
    let before = share(0.0, 290.0);
    let after = share(450.0, 600.0);
    assert!(before > 0.12, "equal share before the drop: {before}");
    assert!(
        after < before / 2.5,
        "share must collapse after the drop: {before} -> {after}"
    );
}

/// Phase order as an ordinal, for asserting forward-only transitions.
fn phase_ord(p: GbsPhase) -> u8 {
    match p {
        GbsPhase::Warmup => 0,
        GbsPhase::Speedup => 1,
        GbsPhase::Done => 2,
    }
}

#[test]
fn gbs_controller_invariants_hold_over_random_configs() {
    let mut rng = DetRng::seed_from_u64(0x0067_6273_7072_6F70); // "gbsprop"
    for case in 0..300u64 {
        let train_size = 1_000 + rng.index(49_000);
        let speedup_cap_frac = rng.uniform_range(0.05, 0.20);
        let warmup_cap_frac = rng.uniform_range(0.002, speedup_cap_frac);
        let cfg = GbsConfig {
            warmup_increment: 1 + rng.index(128),
            speedup_factor: rng.uniform_range(1.05, 3.0),
            warmup_cap_frac,
            speedup_cap_frac,
            adjust_period_secs: rng.uniform_range(1.0, 1000.0),
        };
        let speedup_cap = (speedup_cap_frac * train_size as f64) as usize;
        let warmup_cap = (warmup_cap_frac * train_size as f64) as usize;
        // Start at or below the 10% ceiling (a config that starts above it
        // is just a frozen controller — covered by the unit tests).
        let initial = 1 + rng.index(speedup_cap.max(1));
        let mut ctl = GbsController::new(initial, train_size, cfg);
        let mut prev_gbs = ctl.gbs();
        let mut prev_phase = phase_ord(ctl.phase());
        let mut settled = false;
        // Worst case: increment 1 all the way to a 10_000-sample cap.
        for step in 0..30_000 {
            let adjusted = ctl.maybe_adjust();
            // Monotone non-decreasing, and `Some` exactly on change.
            assert!(
                ctl.gbs() >= prev_gbs,
                "case {case} step {step}: GBS shrank {prev_gbs} -> {}",
                ctl.gbs()
            );
            assert_eq!(adjusted.is_some(), ctl.gbs() != prev_gbs, "case {case}");
            // Never overshoots the 10% ceiling...
            assert!(
                ctl.gbs() <= speedup_cap,
                "case {case}: GBS {} above cap {speedup_cap}",
                ctl.gbs()
            );
            // ...and phases only move forward, in step with the caps.
            let phase = phase_ord(ctl.phase());
            assert!(phase >= prev_phase, "case {case}: phase went backwards");
            if ctl.gbs() > warmup_cap {
                assert_ne!(ctl.phase(), GbsPhase::Warmup, "case {case}");
            }
            prev_gbs = ctl.gbs();
            prev_phase = phase;
            if adjusted.is_none() {
                settled = true;
                break;
            }
        }
        // The fixpoint is exactly the speed-up cap (clamped, not overshot).
        assert!(settled, "case {case}: controller never settled");
        assert!(ctl.maybe_adjust().is_none());
        assert_eq!(
            ctl.gbs(),
            speedup_cap,
            "case {case}: settled off the cap (train {train_size}, init {initial})"
        );
    }
}

#[test]
fn partition_shares_sum_and_never_starve_over_random_configs() {
    let mut rng = DetRng::seed_from_u64(0x006C_6273_7072_6F70); // "lbsprop"
    for case in 0..300u64 {
        let n = 2 + rng.index(11);
        let gbs = n + rng.index(5_000);
        let rcps: Vec<f64> = (0..n).map(|_| rng.uniform_range(0.05, 100.0)).collect();
        let parts = partition_gbs(gbs, &rcps);
        assert_eq!(
            parts.iter().sum::<usize>(),
            gbs,
            "case {case}: shares must sum to the GBS exactly"
        );
        assert!(
            parts.iter().all(|&p| p >= 1),
            "case {case}: a worker starved: {parts:?}"
        );
        // Proportionality: when no ideal share is below the min-1 floor,
        // largest-remainder rounding keeps every share within one sample
        // of its ideal.
        let total: f64 = rcps.iter().sum();
        let ideals: Vec<f64> = rcps.iter().map(|&r| gbs as f64 * r / total).collect();
        if ideals.iter().all(|&x| x >= 1.0) {
            for (i, &p) in parts.iter().enumerate() {
                assert!(
                    (p as f64 - ideals[i]).abs() <= 1.0,
                    "case {case}: share {p} far from ideal {}",
                    ideals[i]
                );
            }
        }
        // Determinism: the same inputs partition the same way.
        assert_eq!(parts, partition_gbs(gbs, &rcps), "case {case}");
    }
}

#[test]
fn gbs_phase_boundaries_clamp_exactly() {
    // Train 10_000: warm-up cap 100, speed-up cap 1000. Start 1 below the
    // warm-up cap with a huge increment: the very first step must jump
    // straight into Speedup, and the last Speedup step must land exactly
    // on the cap even though 1.5x overshoots it.
    let cfg = GbsConfig {
        warmup_increment: 640,
        speedup_factor: 1.5,
        warmup_cap_frac: 0.01,
        speedup_cap_frac: 0.10,
        adjust_period_secs: 1.0,
    };
    let mut ctl = GbsController::new(99, 10_000, cfg);
    assert_eq!(ctl.phase(), GbsPhase::Warmup);
    assert_eq!(ctl.maybe_adjust(), Some(739)); // 99+640, crosses 100
    assert_eq!(ctl.phase(), GbsPhase::Speedup);
    assert_eq!(ctl.maybe_adjust(), Some(1000)); // 1108 clamped to the cap
    assert_eq!(ctl.phase(), GbsPhase::Done);
    assert_eq!(ctl.maybe_adjust(), None);
    // A warm-up whose increment alone would blow past the 10% ceiling is
    // clamped by the same rule; the Done latch then engages on the first
    // (no-op) speed-up opportunity.
    let mut ctl = GbsController::new(
        50,
        10_000,
        GbsConfig {
            warmup_increment: 5_000,
            ..cfg
        },
    );
    assert_eq!(ctl.maybe_adjust(), Some(1000));
    assert_eq!(ctl.phase(), GbsPhase::Speedup);
    assert_eq!(ctl.maybe_adjust(), None);
    assert_eq!(ctl.phase(), GbsPhase::Done);
    assert_eq!(ctl.gbs(), 1000);
}

#[test]
fn non_batching_systems_never_touch_lbs() {
    let compute = ComputeModel::homogeneous(6, 24.0, CPU_COST_PER_SAMPLE, CPU_OVERHEAD);
    for sys in [
        SystemKind::Baseline,
        SystemKind::Gaia,
        SystemKind::Ako,
        SystemKind::Hop,
    ] {
        let mut c = cfg();
        c.system = sys;
        c.dkt = dlion_core::DktConfig::off();
        let m = run_with_models(
            &c,
            ComputeModel::homogeneous(6, 24.0, CPU_COST_PER_SAMPLE, CPU_OVERHEAD),
            lan(6),
            "static",
        );
        assert!(m.lbs_trace.is_empty(), "{sys:?} must keep LBS fixed");
        assert!(m.gbs_trace.is_empty());
    }
    drop(compute);
}
