//! Wall-clock per-phase profiler.
//!
//! A fixed set of [`Phase`]s covers where simulator wall time goes; RAII
//! [`ScopeGuard`]s accumulate elapsed nanoseconds into global atomic slots.
//! Disabled (the default), [`profile_scope`] is one relaxed atomic load and
//! no clock read, so instrumented hot paths (every GEMM call) stay free.
//!
//! Phases are *self-inclusive*: `Gemm` time is also inside the enclosing
//! `Forward`/`Backward` scope, so columns don't sum to 100% of wall time —
//! the table reports each phase against the whole process runtime instead.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Where simulator wall-clock time can go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Forward pass of a training step.
    Forward,
    /// Backward pass of a training step.
    Backward,
    /// Matrix-multiply kernels (nested inside Forward/Backward/Eval).
    Gemm,
    /// Building partial-gradient messages (Max N selection, sparsification).
    Serialize,
    /// Event-queue pop + dispatch bookkeeping.
    EventQueue,
    /// Periodic cluster-wide accuracy evaluation.
    Eval,
    /// Settling a worker's update log: the own and peer weight updates
    /// that waited for the model's next user.
    Apply,
}

pub const PHASE_COUNT: usize = 7;

const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "forward",
    "backward",
    "gemm",
    "serialize",
    "event_queue",
    "eval",
    "apply",
];

impl Phase {
    pub fn name(self) -> &'static str {
        PHASE_NAMES[self as usize]
    }
}

struct Slot {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }
}

static SLOTS: [Slot; PHASE_COUNT] = [
    Slot::new(),
    Slot::new(),
    Slot::new(),
    Slot::new(),
    Slot::new(),
    Slot::new(),
    Slot::new(),
];

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn the profiler on or off (the `--profile` flag).
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero all accumulated phase totals.
pub fn reset() {
    for s in &SLOTS {
        s.ns.store(0, Ordering::Relaxed);
        s.calls.store(0, Ordering::Relaxed);
    }
}

/// RAII guard: accumulates the scope's elapsed wall time into its phase.
pub struct ScopeGuard {
    phase: Phase,
    start: Option<Instant>,
}

/// Enter a profiled scope. No-op (no clock read) when profiling is off.
#[inline]
pub fn profile_scope(phase: Phase) -> ScopeGuard {
    ScopeGuard {
        phase,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let slot = &SLOTS[self.phase as usize];
            slot.ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            slot.calls.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One phase's accumulated totals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseStat {
    pub phase: &'static str,
    pub calls: u64,
    pub total_ns: u64,
}

/// Snapshot all phase totals (in [`Phase`] declaration order).
pub fn snapshot() -> Vec<PhaseStat> {
    PHASE_NAMES
        .iter()
        .zip(&SLOTS)
        .map(|(&phase, slot)| PhaseStat {
            phase,
            calls: slot.calls.load(Ordering::Relaxed),
            total_ns: slot.ns.load(Ordering::Relaxed),
        })
        .collect()
}

/// The `--profile` summary table. `wall_s` is the reference runtime the
/// percentages are computed against (pass the measured end-to-end wall
/// time).
pub fn render_table(wall_s: f64) -> String {
    let stats = snapshot();
    let mut s = String::from("phase profile (wall-clock, self-inclusive):\n");
    s.push_str(&format!(
        "  {:<12} {:>12} {:>14} {:>12} {:>8}\n",
        "phase", "calls", "total_ms", "us/call", "% wall"
    ));
    for st in &stats {
        let ms = st.total_ns as f64 / 1e6;
        let per = if st.calls > 0 {
            st.total_ns as f64 / 1e3 / st.calls as f64
        } else {
            0.0
        };
        let pct = if wall_s > 0.0 {
            100.0 * (st.total_ns as f64 / 1e9) / wall_s
        } else {
            0.0
        };
        s.push_str(&format!(
            "  {:<12} {:>12} {:>14.2} {:>12.2} {:>7.1}%\n",
            st.phase, st.calls, ms, per, pct
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is process-global; keep all assertions in one test.
    #[test]
    fn scopes_accumulate_only_when_enabled() {
        reset();
        {
            let _g = profile_scope(Phase::Gemm);
            std::hint::black_box(0u64);
        }
        let off = snapshot();
        assert_eq!(off[Phase::Gemm as usize].calls, 0, "off => no accounting");

        enable(true);
        for _ in 0..3 {
            let _g = profile_scope(Phase::Forward);
            std::hint::black_box(vec![0u8; 1024]);
        }
        {
            let _outer = profile_scope(Phase::Backward);
            let _inner = profile_scope(Phase::Gemm); // nesting is fine
        }
        enable(false);

        let stats = snapshot();
        let by_name = |n: &str| *stats.iter().find(|s| s.phase == n).unwrap();
        assert_eq!(by_name("forward").calls, 3);
        assert_eq!(by_name("backward").calls, 1);
        assert_eq!(by_name("gemm").calls, 1);
        assert_eq!(by_name("serialize").calls, 0);

        let table = render_table(1.0);
        for name in PHASE_NAMES {
            assert!(table.contains(name), "{name} missing from table");
        }

        reset();
        assert_eq!(snapshot()[Phase::Forward as usize].calls, 0);
    }

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::Forward.name(), "forward");
        assert_eq!(Phase::EventQueue.name(), "event_queue");
        assert_eq!(Phase::Eval.name(), "eval");
    }
}
