//! Structured JSONL tracing.
//!
//! Records are emitted through a process-global sink (installed by
//! [`open_trace_file`] / [`set_trace_writer`]) but *keyed* per run: the
//! simulator installs a [`run_scope`] on its thread before processing
//! events, and every record emitted under that scope carries the run's
//! `{system, env, seed}` identity plus a per-run monotonic `seq`. Because
//! each simulated run executes on exactly one thread, `(vtime, seq)` is a
//! deterministic total order of that run's records even when several runs
//! trace concurrently into one file — readers group by `(system, env,
//! seed)` and sort by `seq`. `wall_ns` (nanoseconds since process start) is
//! advisory and the only nondeterministic field.

use crate::json;
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A typed field value on a trace record.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => json::f64_into(*v, out),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(s) => json::escape_into(s, out),
        }
    }
}

macro_rules! value_from {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value { Value::$variant(v as $cast) }
        })*
    };
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

static TRACING: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
/// Sequence numbers for records emitted outside any run scope (CLI-level
/// logs); per-run records use the scope's own deterministic counter.
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Is a trace sink installed? The fast gate for every instrumentation site.
#[inline]
pub fn tracing_on() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Install an arbitrary writer as the trace sink and enable tracing.
pub fn set_trace_writer(w: Box<dyn Write + Send>) {
    *SINK.lock().unwrap() = Some(w);
    TRACING.store(true, Ordering::Relaxed);
}

/// Open `path`, truncating, as the JSONL trace sink (the `--trace-out`
/// flag) — buffered; [`stop_trace`] flushes it.
pub fn open_trace_file(path: impl AsRef<Path>) -> std::io::Result<()> {
    let f = File::create(path)?;
    set_trace_writer(Box::new(BufWriter::new(f)));
    Ok(())
}

/// Disable tracing and close (flush + drop) the sink.
pub fn stop_trace() {
    TRACING.store(false, Ordering::Relaxed);
    if let Some(mut w) = SINK.lock().unwrap().take() {
        let _ = w.flush();
    }
}

fn wall_ns() -> u64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Ctx {
    system: String,
    env: String,
    seed: u64,
    seq: u64,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Guard restoring the previous run context on drop (contexts nest).
pub struct RunScope {
    prev: Option<Ctx>,
}

/// Enter a run context on this thread: records emitted until the guard
/// drops carry `{system, env, seed}` and draw from a fresh `seq` counter.
pub fn run_scope(system: &str, env: &str, seed: u64) -> RunScope {
    let prev = CTX.with(|c| {
        c.borrow_mut().replace(Ctx {
            system: system.to_string(),
            env: env.to_string(),
            seed,
            seq: 0,
        })
    });
    RunScope { prev }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        CTX.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Emit one structured record. Prefer the [`crate::event!`] macro, which
/// skips field construction entirely when tracing is off.
pub fn emit(vtime: f64, worker: Option<usize>, kind: &str, fields: &[(&str, Value)]) {
    if !tracing_on() {
        return;
    }
    let mut line = String::with_capacity(160);
    line.push_str("{\"wall_ns\":");
    line.push_str(&wall_ns().to_string());
    line.push_str(",\"vtime\":");
    json::f64_into(vtime, &mut line);
    CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        match ctx.as_mut() {
            Some(ctx) => {
                line.push_str(",\"seq\":");
                line.push_str(&ctx.seq.to_string());
                ctx.seq += 1;
                line.push_str(",\"system\":");
                json::escape_into(&ctx.system, &mut line);
                line.push_str(",\"env\":");
                json::escape_into(&ctx.env, &mut line);
                line.push_str(",\"seed\":");
                line.push_str(&ctx.seed.to_string());
            }
            None => {
                line.push_str(",\"seq\":");
                line.push_str(&GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed).to_string());
                line.push_str(",\"system\":null,\"env\":null,\"seed\":null");
            }
        }
    });
    line.push_str(",\"worker\":");
    match worker {
        Some(w) => line.push_str(&w.to_string()),
        None => line.push_str("null"),
    }
    line.push_str(",\"kind\":");
    json::escape_into(kind, &mut line);
    line.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        json::escape_into(k, &mut line);
        line.push(':');
        v.write_json(&mut line);
    }
    line.push_str("}}\n");
    if let Some(w) = SINK.lock().unwrap().as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};

    /// A sink that forwards each written chunk over a channel, so tests can
    /// inspect the exact lines without touching the filesystem.
    struct ChannelSink(Sender<Vec<u8>>);
    impl Write for ChannelSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    // Sink state is process-global, so everything trace-related lives in
    // one test (cargo runs tests in this binary concurrently).
    #[test]
    fn records_carry_their_run_context() {
        let (tx, rx) = channel();
        set_trace_writer(Box::new(ChannelSink(tx)));
        assert!(tracing_on());

        {
            let _run = run_scope("DLion", "Homo A", 7);
            emit(1.5, Some(3), "iter_done", &[("loss", Value::from(0.25f64))]);
            emit(2.0, None, "gbs_adjust", &[("gbs", Value::from(96u64))]);
        }
        // Outside the run scope: null run identity, global seq.
        emit(f64::NAN, None, "log", &[("msg", Value::from("hi"))]);
        stop_trace();
        assert!(!tracing_on());
        emit(0.0, None, "dropped", &[]); // must be a no-op

        let lines: Vec<String> = rx
            .try_iter()
            .map(|b| String::from_utf8(b).unwrap())
            .collect();
        assert_eq!(lines.len(), 3, "{lines:?}");

        // Schema round-trip through the in-crate parser.
        let recs: Vec<crate::json::Json> = lines
            .iter()
            .map(|l| crate::json::parse(l.trim()).unwrap())
            .collect();
        for r in &recs {
            for key in [
                "wall_ns", "vtime", "seq", "system", "env", "seed", "worker", "kind", "fields",
            ] {
                assert!(r.get(key).is_some(), "missing {key} in {r:?}");
            }
        }
        let first = &recs[0];
        assert_eq!(first.get("kind").unwrap().as_str(), Some("iter_done"));
        assert_eq!(first.get("system").unwrap().as_str(), Some("DLion"));
        assert_eq!(first.get("seed").unwrap().as_u64(), Some(7));
        assert_eq!(first.get("worker").unwrap().as_u64(), Some(3));
        assert_eq!(first.get("vtime").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            first.get("fields").unwrap().get("loss").unwrap().as_f64(),
            Some(0.25)
        );

        // Per-run seq is monotonic from 0.
        for (i, r) in recs[..2].iter().enumerate() {
            assert_eq!(r.get("seq").unwrap().as_u64(), Some(i as u64));
        }

        // The out-of-scope record has a null identity and null vtime.
        let last = &recs[2];
        assert!(last.get("system").unwrap().is_null());
        assert!(last.get("seed").unwrap().is_null());
        assert!(last.get("vtime").unwrap().is_null());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-2i32), Value::I64(-2));
        assert_eq!(Value::from(1.5f32), Value::F64(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
    }
}
