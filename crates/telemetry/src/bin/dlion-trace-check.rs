//! `dlion-trace-check` — validate a `--trace-out` JSONL file.
//!
//! Every line must parse as a JSON object carrying the full record schema
//! (`wall_ns`, `vtime`, `seq`, `system`, `env`, `seed`, `worker`, `kind`,
//! `fields`), and per-run sequence numbers must be monotonic. Each
//! (repeatable) `--require KIND` additionally demands at least one record
//! of that kind — how CI asserts a run actually exercised a subsystem
//! (e.g. `--require gbs_adjust` for the live batching controller, or
//! `--require cluster_health` for the health plane). Event kinds with a
//! pinned field schema (the iteration record `iter_done` and the health-,
//! topology-, control-plane and fault events below) are additionally
//! checked field-for-field on every record.
//! `--summary` prints a per-kind table with record counts and first/last
//! vtime instead of the one-line report. Exits 0 on success; exits 1 with
//! the first offending line (or the missing kind) otherwise. Used by the
//! CI telemetry smoke jobs.

use dlion_telemetry::json::{self, Json};
use std::collections::BTreeMap;

const REQUIRED_KEYS: [&str; 9] = [
    "wall_ns", "vtime", "seq", "system", "env", "seed", "worker", "kind", "fields",
];

/// Event kinds whose `fields` layout is pinned: every record of the kind
/// must carry exactly these keys. The health plane's events (DESIGN.md
/// §4h: the verdict, each link's latency and each iteration's one record,
/// the round core's `iter_done`, whose `dt` sums to the verdict's seconds
/// on both backends) and the
/// topology plane's round event (DESIGN.md §4i) are fixed-key by design
/// so traces stay diffable across runs; the control
/// plane's four (DESIGN.md §4n) each have one emitter in `dlion-core`, so
/// a simulator trace and a live trace carry the same columns; and the three
/// fault events (DESIGN.md §4e) carry the runner's fields on both backends.
const SCHEMAS: [(&str, &[&str]); 11] = [
    (
        "cluster_health",
        &["iterations", "rate", "score", "departed", "straggler"],
    ),
    (
        "iter_done",
        &["iter", "lbs", "loss", "dt", "updates", "share_dkt"],
    ),
    (
        "frame_latency",
        &[
            "peer",
            "frames",
            "depth_hw",
            "queue_p50_us",
            "queue_p99_us",
            "write_p50_us",
            "write_p99_us",
            "read_p99_us",
            "apply_p99_us",
        ],
    ),
    (
        "topology_round",
        &["round", "topology", "neighbors", "links"],
    ),
    ("gbs_adjust", &["gbs", "round", "t"]),
    ("gbs_phase", &["from", "to", "gbs", "round"]),
    ("lbs_repartition", &["gbs", "round", "t", "members"]),
    ("peer_departed", &["peer", "completed", "iter"]),
    ("departed", &["iter"]),
    ("pause", &["iter", "secs"]),
    ("rejoin", &["iter"]),
];

fn check_line(n: usize, line: &str) -> Result<Json, String> {
    let v = json::parse(line).map_err(|e| format!("line {n}: bad JSON: {e}"))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(format!("line {n}: not a JSON object"));
    }
    for key in REQUIRED_KEYS {
        if v.get(key).is_none() {
            return Err(format!("line {n}: missing required key {key:?}"));
        }
    }
    if v.get("kind").unwrap().as_str().is_none() {
        return Err(format!("line {n}: \"kind\" must be a string"));
    }
    if v.get("seq").unwrap().as_u64().is_none() {
        return Err(format!("line {n}: \"seq\" must be a non-negative integer"));
    }
    if !matches!(v.get("fields"), Some(Json::Obj(_))) {
        return Err(format!("line {n}: \"fields\" must be an object"));
    }
    let kind = v.get("kind").unwrap().as_str().unwrap();
    if let Some((_, keys)) = SCHEMAS.iter().find(|(k, _)| *k == kind) {
        let fields = v.get("fields").unwrap();
        for key in *keys {
            if fields.get(key).is_none() {
                return Err(format!("line {n}: {kind:?} record missing field {key:?}"));
            }
        }
        let Json::Obj(members) = fields else {
            unreachable!("checked above")
        };
        if members.len() != keys.len() {
            return Err(format!(
                "line {n}: {kind:?} record has {} fields, schema pins {}",
                members.len(),
                keys.len()
            ));
        }
    }
    Ok(v)
}

/// Per-kind aggregate for the summary table.
struct KindStats {
    count: usize,
    first_vt: f64,
    last_vt: f64,
}

fn run(path: &str, required: &[String], summary: bool) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = 0usize;
    let mut kinds: BTreeMap<String, KindStats> = BTreeMap::new();
    // Per-run (system, env, seed) -> last seen seq, for monotonicity.
    let mut last_seq: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = check_line(i + 1, line)?;
        records += 1;
        let kind = v.get("kind").unwrap().as_str().unwrap().to_string();
        let vt = v.get("vtime").and_then(|x| x.as_f64()).unwrap_or(0.0);
        let entry = kinds.entry(kind).or_insert(KindStats {
            count: 0,
            first_vt: vt,
            last_vt: vt,
        });
        entry.count += 1;
        entry.first_vt = entry.first_vt.min(vt);
        entry.last_vt = entry.last_vt.max(vt);
        let run_key = format!(
            "{:?}/{:?}/{:?}",
            v.get("system").unwrap(),
            v.get("env").unwrap(),
            v.get("seed").unwrap()
        );
        let seq = v.get("seq").unwrap().as_u64().unwrap();
        if let Some(&prev) = last_seq.get(&run_key) {
            if seq <= prev {
                return Err(format!(
                    "line {}: seq {seq} not monotonic within run {run_key} (prev {prev})",
                    i + 1
                ));
            }
        }
        last_seq.insert(run_key, seq);
    }
    if records == 0 {
        return Err(format!("{path}: no records"));
    }
    for kind in required {
        if !kinds.contains_key(kind) {
            return Err(format!(
                "{path}: no {kind:?} records (required via --require)"
            ));
        }
    }
    let mut out = format!("{path}: {records} records, {} run(s) OK\n", last_seq.len());
    if summary {
        out.push_str(&format!(
            "  {:<20} {:>8} {:>12} {:>12}\n",
            "kind", "count", "first_vtime", "last_vtime"
        ));
        for (kind, s) in &kinds {
            out.push_str(&format!(
                "  {kind:<20} {:>8} {:>12.6} {:>12.6}\n",
                s.count, s.first_vt, s.last_vt
            ));
        }
    } else {
        for (kind, s) in &kinds {
            out.push_str(&format!("  {kind:<16} {:>8}\n", s.count));
        }
    }
    Ok(out)
}

/// Split a `--require` value into kinds: the flag is repeatable AND takes
/// comma-separated lists, so `--require a --require b` ≡ `--require a,b`.
fn push_required(required: &mut Vec<String>, value: &str) {
    required.extend(
        value
            .split(',')
            .filter(|k| !k.is_empty())
            .map(str::to_string),
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut required: Vec<String> = Vec::new();
    let mut summary = false;
    let usage = || -> ! {
        eprintln!(
            "usage: dlion-trace-check <trace.jsonl> [--require KIND[,KIND...]]... [--summary]"
        );
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require" => match args.next() {
                Some(kinds) => push_required(&mut required, &kinds),
                None => usage(),
            },
            "--summary" => summary = true,
            _ if path.is_none() && !arg.starts_with("--") => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    match run(&path, &required, summary) {
        Ok(summary) => print!("{summary}"),
        Err(e) => {
            eprintln!("trace check FAILED: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"wall_ns":1,"vtime":0.5,"seq":0,"system":"DLion","env":"Homo A","seed":1,"worker":0,"kind":"eval","fields":{"loss":1.5}}"#;

    #[test]
    fn accepts_valid_lines() {
        assert!(check_line(1, GOOD).is_ok());
    }

    #[test]
    fn rejects_missing_keys_and_bad_json() {
        assert!(check_line(1, "{\"vtime\":1}").is_err());
        assert!(check_line(1, "not json").is_err());
        assert!(check_line(1, "[1,2,3]").is_err());
        let no_kind = GOOD.replace("\"kind\":\"eval\",", "");
        assert!(check_line(1, &no_kind).is_err());
    }

    #[test]
    fn file_validation_and_monotonic_seq() {
        let dir = std::env::temp_dir().join("dlion-trace-check-test");
        std::fs::create_dir_all(&dir).unwrap();
        let good_path = dir.join("good.jsonl");
        let second = GOOD.replace("\"seq\":0", "\"seq\":1");
        std::fs::write(&good_path, format!("{GOOD}\n{second}\n")).unwrap();
        let summary = run(good_path.to_str().unwrap(), &[], false).unwrap();
        assert!(summary.contains("2 records"));
        assert!(summary.contains("eval"));

        let bad_path = dir.join("bad.jsonl");
        std::fs::write(&bad_path, format!("{GOOD}\n{GOOD}\n")).unwrap();
        let err = run(bad_path.to_str().unwrap(), &[], false).unwrap_err();
        assert!(err.contains("not monotonic"), "{err}");

        let empty_path = dir.join("empty.jsonl");
        std::fs::write(&empty_path, "").unwrap();
        assert!(run(empty_path.to_str().unwrap(), &[], false).is_err());
    }

    #[test]
    fn summary_mode_reports_vtime_span_per_kind() {
        let dir = std::env::temp_dir().join("dlion-trace-check-summary");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let second = GOOD
            .replace("\"seq\":0", "\"seq\":1")
            .replace("\"vtime\":0.5", "\"vtime\":2.25");
        std::fs::write(&path, format!("{GOOD}\n{second}\n")).unwrap();
        let summary = run(path.to_str().unwrap(), &[], true).unwrap();
        assert!(summary.contains("first_vtime"), "{summary}");
        assert!(summary.contains("0.500000"), "{summary}");
        assert!(summary.contains("2.250000"), "{summary}");
    }

    #[test]
    fn health_schemas_are_pinned_field_for_field() {
        let ch = GOOD
            .replace("\"kind\":\"eval\"", "\"kind\":\"cluster_health\"")
            .replace(
                "{\"loss\":1.5}",
                "{\"iterations\":24,\"rate\":20,\"score\":1,\"departed\":false,\"straggler\":0}",
            );
        assert!(check_line(1, &ch).is_ok());
        // A missing schema key fails, naming the key...
        let missing = ch.replace("\"departed\":false", "\"silent\":false");
        let err = check_line(1, &missing).unwrap_err();
        assert!(err.contains("\"departed\""), "{err}");
        // ...and so does an extra field (schemas pin the exact key set).
        let extra = ch.replace("\"departed\":false", "\"departed\":false,\"silent\":false");
        let err = check_line(1, &extra).unwrap_err();
        assert!(err.contains("schema pins"), "{err}");
        // An iteration's row carries the same six fields on both backends.
        let step = GOOD
            .replace("\"kind\":\"eval\"", "\"kind\":\"iter_done\"")
            .replace(
                "{\"loss\":1.5}",
                r#"{"iter":3,"lbs":32,"loss":1.5,"dt":0.05,"updates":2,"share_dkt":false}"#,
            );
        assert!(check_line(1, &step).is_ok());
        let bare = GOOD.replace("\"kind\":\"eval\"", "\"kind\":\"iter_done\"");
        let err = check_line(1, &bare).unwrap_err();
        assert!(err.contains("\"iter\""), "{err}");
        let wall = step.replace("\"dt\":0.05", "\"dt\":0.05,\"wall\":0.01");
        let err = check_line(1, &wall).unwrap_err();
        assert!(err.contains("schema pins"), "{err}");
        // Unpinned kinds still take any fields object.
        assert!(check_line(1, GOOD).is_ok());
    }

    #[test]
    fn topology_round_schema_is_pinned_field_for_field() {
        let tr = GOOD
            .replace("\"kind\":\"eval\"", "\"kind\":\"topology_round\"")
            .replace(
                "{\"loss\":1.5}",
                "{\"round\":3,\"topology\":\"kregular:2\",\"neighbors\":2,\"links\":6}",
            );
        assert!(check_line(1, &tr).is_ok());
        let missing = tr.replace("\"links\":6", "\"edges\":6");
        let err = check_line(1, &missing).unwrap_err();
        assert!(err.contains("\"links\""), "{err}");
        let extra = tr.replace("\"links\":6", "\"links\":6,\"hub\":0");
        let err = check_line(1, &extra).unwrap_err();
        assert!(err.contains("schema pins"), "{err}");
    }

    #[test]
    fn control_plane_schemas_are_pinned_field_for_field() {
        let cases = [
            ("gbs_adjust", r#"{"gbs":160,"round":1,"t":0.25}"#, "\"t\""),
            (
                "gbs_phase",
                r#"{"from":"Warmup","to":"Speedup","gbs":160,"round":1}"#,
                "\"to\"",
            ),
            (
                "lbs_repartition",
                r#"{"gbs":160,"round":1,"t":0.25,"members":3}"#,
                "\"members\"",
            ),
            (
                "peer_departed",
                r#"{"peer":1,"completed":17,"iter":16}"#,
                "\"completed\"",
            ),
            ("departed", r#"{"iter":10}"#, "\"iter\""),
            ("pause", r#"{"iter":5,"secs":0.3}"#, "\"secs\""),
            ("rejoin", r#"{"iter":5}"#, "\"iter\""),
        ];
        for (kind, fields, key) in cases {
            let line = GOOD
                .replace("\"kind\":\"eval\"", &format!("\"kind\":\"{kind}\""))
                .replace("{\"loss\":1.5}", fields);
            assert!(check_line(1, &line).is_ok(), "{kind}");
            // Renaming a pinned key fails, naming the key...
            let missing = line.replace(&format!("{key}:"), "\"renamed\":");
            let err = check_line(1, &missing).unwrap_err();
            assert!(err.contains(key), "{kind}: {err}");
            // ...and so does a field only one backend would add.
            let extra = line.replace("}}", ",\"lbs\":54}}");
            let err = check_line(1, &extra).unwrap_err();
            assert!(err.contains("schema pins"), "{kind}: {err}");
        }
    }

    #[test]
    fn require_values_split_on_commas() {
        let mut req = Vec::new();
        push_required(&mut req, "topology_round,cluster_health");
        push_required(&mut req, "gbs_adjust");
        push_required(&mut req, ""); // empty value adds nothing
        assert_eq!(req, vec!["topology_round", "cluster_health", "gbs_adjust"]);
    }

    #[test]
    fn required_kinds_must_be_present() {
        let dir = std::env::temp_dir().join("dlion-trace-check-require");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        std::fs::write(&path, format!("{GOOD}\n")).unwrap();
        let p = path.to_str().unwrap();
        // The kind in the file satisfies the requirement...
        assert!(run(p, &["eval".to_string()], false).is_ok());
        // ...an absent one fails, naming the kind.
        let err = run(p, &["eval".to_string(), "gbs_adjust".to_string()], false).unwrap_err();
        assert!(err.contains("gbs_adjust"), "{err}");
    }
}
