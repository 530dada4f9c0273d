//! Tracing must be a pure observer: running an experiment with a JSONL
//! trace sink installed must produce byte-identical figure CSVs to running
//! it with tracing off, and every emitted record must carry the full
//! schema.

mod scratch;

use dlion_experiments::{run_experiment, ExpOpts};
use dlion_telemetry::json::{self, Json};
use scratch::ScratchDir;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A trace sink capturing everything into a shared buffer.
#[derive(Clone)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const REQUIRED_KEYS: [&str; 9] = [
    "wall_ns", "vtime", "seq", "system", "env", "seed", "worker", "kind", "fields",
];

fn fig_csvs(dir: &std::path::Path, opts: &ExpOpts, id: &str) -> Vec<(String, Vec<u8>)> {
    let tables = run_experiment(id, opts);
    let mut out = Vec::new();
    for t in &tables {
        t.write_csv(dir).unwrap();
        let path = dir.join(format!("{}.csv", t.id));
        out.push((t.id.clone(), std::fs::read(&path).unwrap()));
    }
    out
}

#[test]
fn tracing_does_not_change_figure_csvs() {
    let base = ScratchDir::new("trace-determinism");
    let off_dir = base.join("off");
    let on_dir = base.join("on");
    std::fs::create_dir_all(&off_dir).unwrap();
    std::fs::create_dir_all(&on_dir).unwrap();

    let mut opts = ExpOpts::fast();
    opts.results_dir = off_dir.clone();
    let off = fig_csvs(&off_dir, &opts, "fig6");

    // Second run with a live JSONL sink capturing every record.
    let sink = SharedSink(Arc::new(Mutex::new(Vec::new())));
    dlion_telemetry::set_trace_writer(Box::new(sink.clone()));
    opts.results_dir = on_dir.clone();
    let on = fig_csvs(&on_dir, &opts, "fig6");
    dlion_telemetry::stop_trace();

    assert_eq!(off.len(), on.len());
    for ((id_off, bytes_off), (id_on, bytes_on)) in off.iter().zip(on.iter()) {
        assert_eq!(id_off, id_on);
        assert_eq!(
            bytes_off, bytes_on,
            "{id_off}.csv must be byte-identical with tracing on vs off"
        );
    }

    // The trace itself must be non-trivial and schema-complete.
    let buf = sink.0.lock().unwrap();
    let text = String::from_utf8(buf.clone()).unwrap();
    let mut records = 0usize;
    let mut saw_iter = false;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line: {e}\n{line}"));
        assert!(matches!(v, Json::Obj(_)), "record must be an object");
        for key in REQUIRED_KEYS {
            assert!(v.get(key).is_some(), "record missing {key:?}: {line}");
        }
        if v.get("kind").unwrap().as_str() == Some("iter_done") {
            saw_iter = true;
            assert!(
                v.get("system").unwrap().as_str().is_some(),
                "in-run records must carry the run's system"
            );
        }
        records += 1;
    }
    assert!(records > 100, "trace too small: {records} records");
    assert!(saw_iter, "no iter_done records in the trace");
}
