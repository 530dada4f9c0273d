//! A trace observes a simulation and changes nothing in it: a traced
//! `ClusterRunner` steps on the pool like an untraced one, and its
//! `iter_done` rows — one per completed iteration, written by the round
//! core — add up to the run's busy time bit for bit. The trace sink is
//! process-wide, so this file holds one test.

use dlion_core::{run_env, FaultPlan, RunConfig, RunMetrics, SystemKind};
use dlion_microcloud::EnvId;
use dlion_telemetry::json::{self, Json};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A trace sink capturing everything into a shared buffer.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A duration-bounded DLion cell with GBS growth, DKT merges and a
/// permanent kill of worker 1 after 17 iterations.
fn cell() -> RunConfig {
    let mut cfg = RunConfig::small_test(SystemKind::DLion);
    cfg.duration = 300.0;
    cfg.gbs.adjust_period_secs = 60.0;
    cfg.workload.train_size = 6000; // headroom under the GBS cap
    cfg.fault = FaultPlan::parse("1@17").expect("kill spec");
    cfg.capture_weights = true;
    cfg
}

fn run() -> RunMetrics {
    run_env(&cell(), EnvId::HeteroCpuA)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_trace_changes_nothing_and_its_iterations_add_up_to_the_busy_time() {
    let plain = run();
    let sink = Captured::default();
    dlion_telemetry::set_trace_writer(Box::new(sink.clone()));
    let traced = run();
    dlion_telemetry::stop_trace();

    assert!(plain.gbs_trace.len() > 1, "no GBS growth");
    assert!(plain.dkt_merges > 0, "no DKT merge");
    assert!(plain.health.departed[1], "worker 1 did not depart");
    assert_eq!(plain.iterations[1], 17);

    assert_eq!(plain.final_weights, traced.final_weights);
    assert_eq!(plain.iterations, traced.iterations);
    assert_eq!(bits(&plain.busy_time), bits(&traced.busy_time));
    assert_eq!(plain.wire_bytes_by_kind, traced.wire_bytes_by_kind);
    assert_eq!(plain.gbs_trace, traced.gbs_trace);
    assert_eq!(plain.lbs_trace, traced.lbs_trace);
    assert_eq!(plain.dkt_merges, traced.dkt_merges);

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let rows: Vec<Json> = text
        .lines()
        .map(|line| json::parse(line).expect("a JSON row"))
        .collect();
    let is = |r: &Json, kind: &str| r.get("kind").and_then(Json::as_str) == Some(kind);
    let worker = |r: &Json| r.get("worker").and_then(Json::as_u64).expect("worker") as usize;
    let field = |r: &Json, key: &str| {
        r.get("fields")
            .and_then(|f| f.get(key))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {key:?} in {r:?}"))
    };

    // The run ends on its duration, so some steps are still in flight:
    // they have no row and no busy time.
    for w in 0..plain.iterations.len() {
        let done: Vec<&Json> = rows
            .iter()
            .filter(|r| is(r, "iter_done") && worker(r) == w)
            .collect();
        assert_eq!(done.len() as u64, plain.iterations[w], "worker {w}");
        let secs = done.iter().fold(0.0, |sum, r| sum + field(r, "dt"));
        assert_eq!(
            secs.to_bits(),
            plain.busy_time[w].to_bits(),
            "worker {w}: Σ dt {secs} vs busy time {}",
            plain.busy_time[w]
        );
        for r in &done {
            assert!(field(r, "loss").is_finite(), "{r:?}");
            assert!(field(r, "lbs") > 0.0, "{r:?}");
        }
    }

    // `dkt_merge` has one writer, the round core: one row per merge.
    let merges = rows.iter().filter(|r| is(r, "dkt_merge")).count();
    assert_eq!(merges as u64, plain.dkt_merges);
    // A message reaching the departed rank leaves no `msg` row.
    let left = rows
        .iter()
        .find(|r| is(r, "departed") && worker(r) == 1)
        .map(|r| r.get("vtime").and_then(Json::as_f64).expect("vtime"))
        .expect("a departed row for worker 1");
    assert!(rows.iter().any(|r| is(r, "msg")));
    assert!(!rows.iter().any(|r| is(r, "msg")
        && worker(r) == 1
        && r.get("vtime").and_then(Json::as_f64).expect("vtime") > left));
}
