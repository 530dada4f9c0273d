//! Injectable time source for the live backend.
//!
//! Timing-driven control logic (GBS adjustment periods, peer-silence
//! watchdogs, stall deadlines) is untestable against the real clock: tests
//! either sleep for real — slow and flaky on loaded CI — or cannot reach
//! the timeout paths at all. [`Clock`] is the seam that fixes this: the
//! driver and the TCP transport read time through a `dyn Clock`, so
//! production runs use [`SystemClock`] (monotonic wall time) while tests
//! inject a [`ManualClock`] and advance it explicitly — a 100 ms peer
//! timeout fires the instant the test says 100 ms have passed.
//!
//! The trait is deliberately tiny — monotonic `now` plus `sleep` — and
//! speaks `f64` seconds, the unit every run metric and trace record
//! already uses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source. `now()` is seconds since the clock's own
/// epoch (its creation); only differences are meaningful. `Debug` so the
/// option structs that carry a clock can derive it.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Monotonic seconds since this clock's epoch.
    fn now(&self) -> f64;
    /// Block (or, for a virtual clock, advance) for `d`.
    fn sleep(&self, d: Duration);
}

/// The real thing: monotonic wall time from [`Instant`], real sleeps.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    pub fn new() -> SystemClock {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A deterministic clock that only moves when told to. Shared freely
/// across threads (time is an atomic); `sleep` advances the clock by the
/// requested duration instead of blocking, so code written against
/// [`Clock`] runs instantly under test.
///
/// ```
/// use dlion_core::clock::{Clock, ManualClock};
/// use std::time::Duration;
///
/// let c = ManualClock::new();
/// assert_eq!(c.now(), 0.0);
/// c.advance(1.5);
/// c.sleep(Duration::from_millis(500)); // returns immediately
/// assert_eq!(c.now(), 2.0);
/// ```
#[derive(Debug)]
pub struct ManualClock {
    /// Current time in seconds, stored as `f64` bits. Monotonicity is
    /// enforced by only ever adding non-negative amounts.
    now_bits: AtomicU64,
}

impl ManualClock {
    pub fn new() -> ManualClock {
        ManualClock {
            now_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Move time forward by `secs` (must be non-negative).
    pub fn advance(&self, secs: f64) {
        assert!(secs >= 0.0, "a monotonic clock cannot go backwards");
        self.now_bits
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |bits| {
                Some((f64::from_bits(bits) + secs).to_bits())
            })
            .expect("fetch_update closure always returns Some");
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.now_bits.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        self.advance(d.as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn manual_clock_advances_only_on_demand() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(0.25);
        assert_eq!(c.now(), 0.25);
        c.sleep(Duration::from_millis(750));
        assert_eq!(c.now(), 1.0);
    }

    #[test]
    fn manual_clock_is_shared_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(ManualClock::new());
        let c2 = Arc::clone(&c);
        std::thread::spawn(move || c2.advance(2.0)).join().unwrap();
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn manual_clock_rejects_negative_advance() {
        ManualClock::new().advance(-1.0);
    }
}
