//! `BENCHMARK.json` at the repo root must state the same workloads,
//! metrics, units, directions and bounds as `src/metrics.rs`, inside the
//! acceptance driver's schema.

use dlion_stackbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use dlion_telemetry::json::{self, Json};

fn load() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string `{key}`"))
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    }
}

fn arr<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(a)) => a,
        _ => panic!("array `{key}`"),
    }
}

#[test]
fn top_level_keys_and_command() {
    let doc = load();
    let mut k = keys(&doc);
    k.sort_unstable();
    assert_eq!(
        k,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<&str> = arr(&doc, "paths").iter().filter_map(Json::as_str).collect();
    assert_eq!(paths, ["stackbench"]);
    let command: Vec<&str> = arr(&doc, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    // The only repo path the command names lies under `paths`.
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
    assert!(command.contains(&"stackbench/Cargo.toml"));
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("whole");
    assert!((1..=60).contains(&secs));
    // 4 + 22 × workloads runs of (window + set-up + checks) and two builds
    // must fit 3420 s; allow each run half as much again as its window.
    let runs = 4 + 22 * WORKLOADS.len() as u64;
    assert!(
        runs * secs * 3 / 2 + 2 * 60 < 3420,
        "{runs} runs of {secs} s"
    );
}

#[test]
fn workloads_match() {
    let doc = load();
    let got: Vec<(&str, &str)> = arr(&doc, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            (str_of(w, "name"), str_of(w, "why"))
        })
        .collect();
    assert_eq!(got, WORKLOADS);
}

#[test]
fn end_to_end_metrics_match() {
    let doc = load();
    let got = arr(&doc, "end_to_end");
    assert_eq!(got.len(), END_TO_END.len());
    for (j, m) in got.iter().zip(&END_TO_END) {
        assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit);
        assert_eq!(str_of(j, "better"), m.better.as_str());
        assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
}

#[test]
fn per_layer_metrics_match() {
    let doc = load();
    let got = arr(&doc, "per_layer");
    assert_eq!(got.len(), PER_LAYER.len());
    for (j, m) in got.iter().zip(PER_LAYER) {
        assert_eq!(keys(j), ["name", "unit", "better"]);
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit);
        assert_eq!(str_of(j, "better"), m.better.as_str());
    }
}
