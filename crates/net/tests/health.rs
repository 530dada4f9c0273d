//! The cluster health plane end to end: straggler scoring, silence
//! detection under churn, and bit-identical health counters across repeat
//! runs and transports.
//!
//! All runs pin the iteration time (`assumed_iter_time`) and inject a
//! `ManualClock`, so the training clock — and with it every deterministic
//! health quantity (report rounds, rates, scores, the silence ledger) —
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
fn straggler_and_silent_peer_are_detected_under_churn() {
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
    // The killed worker was flagged silent by the survivors' ledger-based
    // check — before its Leave/EOF demotion had to land anywhere.
    assert_eq!(h.silent, vec![false, true, false]);
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
    // The whole summary — rates, scores, straggler verdict, silence
    // ledger, report counts — is deterministic: equal field-for-field
    // (f64s bit-equal via PartialEq) across repeats AND transports.
    assert_eq!(a.health, b.health, "health diverged between repeat runs");
    assert_eq!(a.health, c.health, "health diverged between Mem and TCP");
    assert_eq!(a.iterations, c.iterations);
}

#[test]
fn health_reports_ride_the_chunked_codec_unchanged() {
    // A tiny chunk size turns every gradient into a multi-chunk stream;
    // the 112-byte stats frames interleave with those streams on the same
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
fn health_plane_off_still_scores_rates_but_flags_nothing() {
    // Without --health-interval no stats frames flow and nobody runs the
    // silence check, but train_secs still accumulates — so the summary
    // keeps its rates/straggler view and the ledgers stay empty.
    const ITERS: u64 = 8;
    let cfg = health_cfg(ITERS);
    let opts = LiveOpts {
        health_interval: None,
        ..chaos_health_opts(ITERS)
    };
    let m = run_live(&cfg, 3, &opts, TransportKind::Mem, "live/health-off").expect("live run");
    let h = &m.health;
    assert_eq!(h.straggler, 2);
    assert_eq!(h.silent, vec![false, false, false]);
    assert_eq!(h.reports, vec![0, 0, 0]);
}
