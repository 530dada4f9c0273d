//! The cluster health plane end to end: straggler scoring and departures
//! under churn, bit-identical verdicts across repeat runs and transports,
//! and a traced run that carries its health rows with no knob.
//!
//! All runs pin the iteration time (`assumed_iter_time`) and inject a
//! `ManualClock`, so the training clock — and with it every deterministic
//! health quantity (rates, scores, departures) — is a pure function of
//! the iteration schedule: no sleeps, no wall-clock flakiness. Advisory
//! values (queue depths, frame latencies) are deliberately *not* asserted
//! on; they exist for the dashboard only.

use dlion_core::{FaultPlan, ManualClock, RunConfig, SyncPolicy, SystemKind};
use dlion_net::{live_config, run_live, LiveOpts, TransportKind};
use dlion_telemetry::json::{self, Json};
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const ITER_TIME: f64 = 0.05;

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

/// A trace sink the test reads back.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A traced run is the health plane: the chaos cell on TCP, traced and
/// with no other switch, carries the verdict (one row per worker), the
/// latency of every survivor link and the departure, and each worker's
/// `iter_done` rows are the verdict's rate — their count over the sum of
/// their `dt`, bit for bit, as in a simulator trace. The sink is
/// process-wide, so this run's rows are told apart by their `env`.
#[test]
fn a_traced_live_run_carries_its_health_with_no_knob() {
    const ITERS: u64 = 8;
    const ENV: &str = "live/health-traced";
    let trace = Captured::default();
    dlion_telemetry::set_trace_writer(Box::new(trace.clone()));
    let m = run_live(
        &health_cfg(ITERS),
        3,
        &chaos_health_opts(ITERS),
        TransportKind::Tcp,
        ENV,
    );
    dlion_telemetry::stop_trace();
    let m = m.expect("traced run");
    let text = String::from_utf8(std::mem::take(&mut *trace.0.lock().unwrap())).unwrap();
    let ours = |row: &Json| {
        let env = row.get("env").and_then(Json::as_str).unwrap_or("");
        env == ENV || env.starts_with(&format!("{ENV}/"))
    };
    let rows: Vec<Json> = text
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(ours)
        .collect();
    let of_kind = |kind: &str| -> Vec<&Json> {
        let kind_of = |r: &Json| r.get("kind").and_then(Json::as_str) == Some(kind);
        rows.iter().filter(|r| kind_of(r)).collect()
    };
    let worker = |r: &Json| r.get("worker").and_then(Json::as_u64).expect("worker") as usize;
    let field = |r: &Json, key: &str| r.get("fields").and_then(|f| f.get(key)).cloned();

    let verdict = of_kind("cluster_health");
    let mut who: Vec<usize> = verdict.iter().map(|r| worker(r)).collect();
    who.sort();
    assert_eq!(who, vec![0, 1, 2], "one cluster_health row per worker");
    assert!(verdict.iter().all(|r| field(r, "rounds").is_none()));

    let links: BTreeSet<(usize, usize)> = of_kind("frame_latency")
        .iter()
        .map(|r| {
            (
                worker(r),
                field(r, "peer").and_then(|p| p.as_u64()).unwrap() as usize,
            )
        })
        .collect();
    for link in [(0, 1), (0, 2), (2, 0), (2, 1)] {
        assert!(
            links.contains(&link),
            "no frame_latency for {link:?}: {links:?}"
        );
    }

    let departed = of_kind("peer_departed");
    assert!(
        departed
            .iter()
            .any(|r| field(r, "peer").and_then(|p| p.as_u64()) == Some(1)),
        "no peer_departed row for worker 1"
    );

    let steps = of_kind("iter_done");
    for w in 0..3 {
        let dts: Vec<f64> = steps
            .iter()
            .filter(|r| worker(r) == w)
            .map(|r| field(r, "dt").and_then(|d| d.as_f64()).expect("dt"))
            .collect();
        let secs = dts.iter().fold(0.0, |sum, dt| sum + dt);
        assert_eq!(
            (dts.len() as f64 / secs).to_bits(),
            m.health.rates[w].to_bits(),
            "worker {w}: {} steps over {secs} s vs rate {}",
            dts.len(),
            m.health.rates[w]
        );
    }
}
