//! Smoke test of the real binary at toy size: all four workloads, both
//! modes, every normative metric name present, finite and typed.

use dlion_stackbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use dlion_telemetry::json::{self, Json};
use std::path::Path;
use std::process::Command;

fn run(workload: &str, seed: u64, trace: bool) -> (Json, String) {
    let trace_out =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("trace_{workload}_{seed}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .args(["run", "--quick", "--workload", workload])
        .args(["--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .expect("spawn stackbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{workload}: {stderr}");
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"));
    if trace {
        let spans = std::fs::read_to_string(&trace_out).expect("trace file written");
        assert!(spans.lines().count() > 20, "{workload}: few spans");
        for line in spans.lines().take(50) {
            let span = json::parse(line).expect("span is JSON");
            let (start, end) = (
                span.get("start_ns")
                    .and_then(Json::as_u64)
                    .expect("start_ns"),
                span.get("end_ns").and_then(Json::as_u64).expect("end_ns"),
            );
            assert!(end >= start);
            assert!(span.get("name").and_then(Json::as_str).is_some());
        }
    }
    (doc, stdout)
}

/// The result object has exactly the contract's keys and metric set.
fn check_result(doc: &Json, workload: &str, want: &[(&str, &str)], nonzero: bool) {
    let Json::Obj(members) = doc else {
        panic!("{workload}: result is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert!(doc.get("attempted").and_then(Json::as_u64).expect("whole") >= 1);
    assert_eq!(
        doc.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("{workload}: no metrics object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want_names: Vec<&str> = want.iter().map(|w| w.0).collect();
    assert_eq!(names, want_names, "{workload}");
    for ((name, m), (_, unit)) in metrics.iter().zip(want) {
        let v = m.get("value").and_then(Json::as_f64);
        let v = v.unwrap_or_else(|| panic!("{workload}: {name} is not a finite number"));
        assert!(v.is_finite(), "{workload}: {name}");
        assert!(!nonzero || v > 0.0, "{workload}: {name} = {v}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let want: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for (workload, _) in WORKLOADS {
        let (doc, stdout) = run(workload, 11, false);
        check_result(&doc, workload, &want, true);
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("detail:"))
            .expect("a detail line");
        let detail = json::parse(detail).expect("detail is JSON");
        assert!(detail.get("reps").and_then(Json::as_u64).expect("reps") >= 3);
        assert!(detail.get("digest").and_then(Json::as_str).is_some());
    }
}

#[test]
fn every_workload_fills_the_whole_ledger() {
    let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for (workload, _) in WORKLOADS {
        let (doc, _) = run(workload, 12, true);
        check_result(&doc, workload, &want, false);
        // Times are measured on every workload, exercised layer or not.
        let metrics = doc.get("metrics").expect("metrics");
        // (A residual is a difference of times and may fall below zero.)
        let timed = |m: &&dlion_stackbench::metrics::PerLayer| {
            matches!(m.unit, "us" | "ns" | "ms" | "s") && !m.name.contains("residual")
        };
        for m in PER_LAYER.iter().filter(timed) {
            let v = metrics
                .get(m.name)
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64);
            assert!(
                v.expect("present") > 0.0,
                "{workload}: {} not measured",
                m.name
            );
        }
    }
}

#[test]
fn a_simulated_result_repeats_exactly_for_a_seed() {
    let digest = |seed| {
        let (_, stdout) = run("sim_paper", seed, false);
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("detail:"))
            .expect("detail");
        json::parse(detail)
            .expect("JSON")
            .get("digest")
            .and_then(Json::as_str)
            .expect("digest")
            .to_string()
    };
    assert_eq!(digest(21), digest(21));
    assert_ne!(digest(21), digest(22));
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
            .args(args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
