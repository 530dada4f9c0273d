//! The cluster health plane end to end: straggler scoring and departures
//! under churn, one verdict whether the plane reports or not, and
//! bit-identical health counters across repeat runs and transports.
//!
//! All runs pin the iteration time (`assumed_iter_time`) and inject a
//! `ManualClock`, so the training clock — and with it every deterministic
//! health quantity (report rounds, rates, scores, departures) —
//! is a pure function of the iteration schedule: no sleeps, no wall-clock
//! flakiness. Advisory signals (queue depths, frame latencies) are
//! deliberately *not* asserted on; they exist for the dashboard only.

use dlion_core::{FaultPlan, ManualClock, RunConfig, SyncPolicy, SystemKind};
use dlion_net::{live_config, run_live, LiveOpts, TransportKind};
use std::sync::Arc;
use std::time::Duration;

const ITER_TIME: f64 = 0.05;
const HEALTH_INTERVAL: f64 = 0.1;

fn health_cfg(iters: u64) -> RunConfig {
    let mut cfg = live_config(SystemKind::Baseline, 1);
    cfg.duration = 10_000.0;
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(iters);
    // BSP ordering makes the whole run (not just the health plane)
    // deterministic, so cross-transport comparisons are exact.
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    // Worker 2 straggling 3×, worker 1 killed after iteration 3.
    cfg.fault = FaultPlan::parse("1@3").expect("valid fault plan");
    cfg.straggle = vec![(2, 3.0)];
    cfg
}

/// The execution half of the 3-worker chaos run [`health_cfg`] describes.
fn chaos_health_opts(iters: u64) -> LiveOpts {
    LiveOpts {
        iters,
        eval_every: 0,
        bw_mbps: 1000.0,
        assumed_iter_time: Some(ITER_TIME),
        stall_timeout: Duration::from_secs(120),
        clock: Arc::new(ManualClock::new()),
        health_interval: Some(HEALTH_INTERVAL),
        ..Default::default()
    }
}

#[test]
fn straggler_and_departed_peer_are_detected_under_churn() {
    const ITERS: u64 = 8;
    let cfg = health_cfg(ITERS);
    let m = run_live(
        &cfg,
        3,
        &chaos_health_opts(ITERS),
        TransportKind::Mem,
        "live/health",
    )
    .expect("live run");
    assert_eq!(m.iterations, vec![ITERS, 3, ITERS]);
    let h = &m.health;
    // Training-clock rates: w0 and the victim run at 1/0.05 = 20 it/s,
    // the straggler at 20/3. The straggler score is the §3.2 LBS signal
    // (median/own): exactly 3 for the injected 3× factor.
    assert!((h.rates[0] - 20.0).abs() < 1e-9, "rates: {:?}", h.rates);
    assert!((h.rates[1] - 20.0).abs() < 1e-9, "rates: {:?}", h.rates);
    assert!(
        (h.rates[2] - 20.0 / 3.0).abs() < 1e-9,
        "rates: {:?}",
        h.rates
    );
    assert_eq!(h.straggler, 2, "scores: {:?}", h.scores);
    assert!(
        (h.straggler_score - 3.0).abs() < 1e-9,
        "straggler score: {}",
        h.straggler_score
    );
    // The killed worker is the one the survivors demoted.
    assert_eq!(h.departed, vec![false, true, false]);
    // Both survivors emitted reports; the straggler's slower train clock
    // means *more* rounds per iteration, never fewer. The victim may or
    // may not cross its first boundary before iteration 3 — no assert.
    assert!(h.reports[0] >= 1, "reports: {:?}", h.reports);
    assert!(h.reports[2] > h.reports[0], "reports: {:?}", h.reports);
}

#[test]
fn health_counters_are_bit_identical_across_runs_and_transports() {
    const ITERS: u64 = 8;
    let cfg = health_cfg(ITERS);
    let opts = chaos_health_opts(ITERS);
    let a = run_live(&cfg, 3, &opts, TransportKind::Mem, "live/health").expect("mem run 1");
    let b = run_live(&cfg, 3, &opts, TransportKind::Mem, "live/health").expect("mem run 2");
    let c = run_live(&cfg, 3, &opts, TransportKind::Tcp, "live/health").expect("tcp run");
    // The whole summary — rates, scores, straggler verdict, departures,
    // report counts — is deterministic: equal field-for-field
    // (f64s bit-equal via PartialEq) across repeats AND transports.
    assert_eq!(a.health, b.health, "health diverged between repeat runs");
    assert_eq!(a.health, c.health, "health diverged between Mem and TCP");
    assert_eq!(a.iterations, c.iterations);
}

#[test]
fn health_reports_ride_the_chunked_codec_unchanged() {
    // A tiny chunk size turns every gradient into a multi-chunk stream,
    // interleaved with the small control frames (acks, Dones) on the same
    // sockets. The deterministic health summary must not care.
    const ITERS: u64 = 8;
    let cfg = health_cfg(ITERS);
    let plain = run_live(
        &cfg,
        3,
        &chaos_health_opts(ITERS),
        TransportKind::Tcp,
        "live/health",
    )
    .expect("plain run");
    let opts = LiveOpts {
        chunk_bytes: 2048,
        ..chaos_health_opts(ITERS)
    };
    let chunked =
        run_live(&cfg, 3, &opts, TransportKind::Tcp, "live/health-chunk").expect("chunked run");
    assert_eq!(plain.health, chunked.health, "chunking changed the summary");
}

#[test]
fn the_verdict_is_the_same_with_the_plane_on_and_off() {
    // Without --health-interval no rank traces a report, but train_secs
    // still accumulates and a departure is still a demotion — so the
    // verdict keeps its rates, straggler and departures; only the report
    // counts differ.
    const ITERS: u64 = 8;
    let cfg = health_cfg(ITERS);
    let on = chaos_health_opts(ITERS);
    let off = LiveOpts {
        health_interval: None,
        ..chaos_health_opts(ITERS)
    };
    let on = run_live(&cfg, 3, &on, TransportKind::Mem, "live/health-on").expect("plane on");
    let off = run_live(&cfg, 3, &off, TransportKind::Mem, "live/health-off").expect("plane off");
    for (h, label) in [(&on.health, "on"), (&off.health, "off")] {
        assert_eq!(h.departed, vec![false, true, false], "plane {label}");
        assert_eq!(h.straggler, 2, "plane {label}");
    }
    assert_eq!(on.health.rates, off.health.rates);
    assert_eq!(on.health.scores, off.health.scores);
    assert!(
        on.health.reports[0] >= 1,
        "reports: {:?}",
        on.health.reports
    );
    assert_eq!(off.health.reports, vec![0, 0, 0]);
}
