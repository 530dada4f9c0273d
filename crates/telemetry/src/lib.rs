//! # dlion-telemetry
//!
//! The observability layer of the DLion reproduction. Zero external
//! dependencies, and deterministic by construction: every structured trace
//! record is keyed on *virtual* time plus a per-run monotonic sequence
//! number, so two runs of the same seed produce the same event stream (only
//! the advisory `wall_ns` field differs). Everything is off by default and
//! compiled down to an atomic load + branch when disabled, so the simulator
//! hot path is unaffected unless a sink is installed.
//!
//! Four sub-systems:
//!
//! * **Leveled logging** ([`error!`]/[`warn!`]/[`info!`]/[`debug!`]/
//!   [`trace!`]) with per-target filtering configured from the `DLION_LOG`
//!   environment variable (e.g. `DLION_LOG=info,core.runner=debug`). Log
//!   lines go to stderr — stdout stays reserved for tables and CSV.
//! * **Structured tracing** ([`event!`], [`trace::emit`]): JSONL
//!   records `{wall_ns, vtime, seq, system, env, seed, worker, kind,
//!   fields}` appended to a sink installed with
//!   [`trace::open_trace_file`] (the `--trace-out` flag).
//! * **Metrics** ([`Registry`]): counters, max-gauges and exponential
//!   histograms aggregated per run and dumped alongside `RunMetrics`.
//! * **Profiling** ([`profiler`]): wall-clock per-phase totals
//!   (forward/backward/gemm/serialize/event-queue/eval/apply) collected by RAII
//!   scope guards and rendered as the `--profile` summary table.

pub mod json;
pub mod metrics;
pub mod profiler;
pub mod trace;

pub use metrics::{Histogram, Registry};
pub use profiler::{profile_scope, Phase, PhaseStat};
pub use trace::{
    emit, open_trace_file, run_scope, set_trace_writer, stop_trace, tracing_on, RunScope, Value,
};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Log severity, most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level name; `off`/`none` parse as `None` (logging disabled).
    pub fn parse(s: &str) -> Option<Option<Level>> {
        Some(match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" | "0" => None,
            _ => return None,
        })
    }
}

/// Highest level enabled by any filter rule (0 = logging fully off). The
/// fast gate every log macro checks before taking any lock.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

struct LogFilter {
    /// Level for targets with no matching rule (0 = off).
    default_level: u8,
    /// `(target prefix, level)` rules; longest matching prefix wins.
    rules: Vec<(String, u8)>,
}

static FILTER: Mutex<LogFilter> = Mutex::new(LogFilter {
    default_level: 0,
    rules: Vec::new(),
});

/// Configure the log filter from a `DLION_LOG`-style spec: a comma list of
/// either a bare default level (`debug`) or `target=level` rules
/// (`info,simnet=off,core.runner=trace`). Unknown tokens are ignored.
pub fn set_log_filter(spec: &str) {
    let mut default_level = 0u8;
    let mut rules: Vec<(String, u8)> = Vec::new();
    for tok in spec.split(',') {
        let tok = tok.trim();
        if tok.is_empty() {
            continue;
        }
        match tok.split_once('=') {
            Some((target, lvl)) => {
                if let Some(l) = Level::parse(lvl.trim()) {
                    rules.push((target.trim().to_string(), l.map_or(0, |l| l as u8)));
                }
            }
            None => {
                if let Some(l) = Level::parse(tok) {
                    default_level = l.map_or(0, |l| l as u8);
                }
            }
        }
    }
    // Longest prefix first so the first match is the most specific.
    rules.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
    let max = rules.iter().map(|&(_, l)| l).fold(default_level, u8::max);
    let mut f = FILTER.lock().unwrap();
    f.default_level = default_level;
    f.rules = rules;
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Initialize the log filter from `DLION_LOG`, falling back to
/// `default_spec` when the variable is unset.
pub fn init_from_env(default_spec: &str) {
    match std::env::var("DLION_LOG") {
        Ok(spec) => set_log_filter(&spec),
        Err(_) => set_log_filter(default_spec),
    }
}

/// Would a log record at `level` for `target` be emitted?
#[inline]
pub fn log_enabled(target: &str, level: Level) -> bool {
    let max = MAX_LEVEL.load(Ordering::Relaxed);
    if level as u8 > max {
        return false;
    }
    let f = FILTER.lock().unwrap();
    let lvl = f
        .rules
        .iter()
        .find(|(prefix, _)| target.starts_with(prefix.as_str()))
        .map_or(f.default_level, |&(_, l)| l);
    level as u8 <= lvl
}

/// Emit one log record (already filtered — use the macros, not this).
#[doc(hidden)]
pub fn do_log(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    let msg = std::fmt::format(args);
    eprintln!("[{:>5} {target}] {msg}", level.name());
    if tracing_on() {
        emit(
            f64::NAN,
            None,
            "log",
            &[
                ("level", Value::from(level.name())),
                ("target", Value::from(target)),
                ("msg", Value::Str(msg)),
            ],
        );
    }
}

/// Log at an explicit level: `log_at!(Level::Info, target: "x", "...", ..)`.
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, target: $target:expr, $($arg:tt)+) => {{
        let lvl = $lvl;
        let target = $target;
        if $crate::log_enabled(target, lvl) {
            $crate::do_log(lvl, target, format_args!($($arg)+));
        }
    }};
}

macro_rules! leveled {
    ($d:tt $name:ident, $lvl:ident) => {
        #[macro_export]
        macro_rules! $name {
                    (target: $d t:expr, $d($d a:tt)+) => {
                        $crate::log_at!($crate::Level::$lvl, target: $d t, $d($d a)+)
                    };
                    ($d($d a:tt)+) => {
                        $crate::log_at!($crate::Level::$lvl, target: module_path!(), $d($d a)+)
                    };
                }
    };
}

leveled!($ error, Error);
leveled!($ warn, Warn);
leveled!($ info, Info);
leveled!($ debug, Debug);
leveled!($ trace, Trace);

/// Emit a structured trace event (no-op unless tracing is on):
///
/// ```ignore
/// event!(vtime, "iter_done"; "loss" => loss, "iter" => it);
/// event!(vtime, w: worker, "msg"; "kind" => "grad");
/// ```
#[macro_export]
macro_rules! event {
    ($vt:expr, w: $w:expr, $kind:expr $(; $($k:literal => $v:expr),* $(,)?)?) => {
        if $crate::tracing_on() {
            $crate::emit($vt, Some($w), $kind, &[$($(($k, $crate::Value::from($v))),*)?]);
        }
    };
    ($vt:expr, $kind:expr $(; $($k:literal => $v:expr),* $(,)?)?) => {
        if $crate::tracing_on() {
            $crate::emit($vt, None, $kind, &[$($(($k, $crate::Value::from($v))),*)?]);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Filter state is process-global; exercise it in ONE test to avoid
    // cross-test races.
    #[test]
    fn filter_rules_and_levels() {
        set_log_filter("info,core.runner=debug,simnet=off");
        assert!(log_enabled("experiments.sweep", Level::Info));
        assert!(!log_enabled("experiments.sweep", Level::Debug));
        assert!(log_enabled("core.runner", Level::Debug));
        assert!(!log_enabled("core.runner", Level::Trace));
        assert!(!log_enabled("simnet.net", Level::Error));

        set_log_filter("off");
        assert!(!log_enabled("anything", Level::Error));

        // Unknown tokens are ignored; empty spec turns everything off.
        set_log_filter("bogus,alsobad=nope");
        assert!(!log_enabled("x", Level::Error));

        set_log_filter("trace");
        assert!(log_enabled("x", Level::Trace));
        set_log_filter("");
        assert!(!log_enabled("x", Level::Error));
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("DEBUG"), Some(Some(Level::Debug)));
        assert_eq!(Level::parse("warning"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("nonsense"), None);
    }

    #[test]
    fn level_ordering() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::Info.name(), "info");
    }
}
