//! Process-level counters from `/proc/self` and the harness watchdog.
//!
//! Everything here reads zero on a platform without procfs; the benchmark
//! is only meaningful on Linux and says so in its README.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn status_field(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 * 1024.0 / 1e6
}

/// Live threads in this process right now.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// `(voluntary, involuntary)` context switches of the main thread — the
/// thread every workload's generator and simulator loop runs on.
pub fn ctx_switches() -> (u64, u64) {
    (
        status_field("voluntary_ctxt_switches:"),
        status_field("nonvoluntary_ctxt_switches:"),
    )
}

/// `(minor faults, user s, system s)` of the whole process from
/// `/proc/self/stat`. CPU times are clock ticks at the kernel's fixed
/// `USER_HZ` of 100.
pub fn faults_and_cpu() -> (u64, f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0.0, 0.0);
    };
    // Fields after the parenthesized command name, which may hold spaces.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0, 0.0, 0.0);
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); minflt is field 10, utime 14, stime 15.
    let num = |field: usize| {
        f.get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (num(10), num(14) as f64 / 100.0, num(15) as f64 / 100.0)
}

/// A background thread that samples the thread count and enforces a
/// wall-clock deadline. The live workload runs on a manual cluster clock,
/// which disables the program's own stall timeout, so a hung run has to be
/// ended from the harness side: past the deadline the watchdog calls
/// `on_timeout` (which prints the all-ops-failed result) and exits.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    threads_peak: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(deadline: Duration, on_timeout: impl FnOnce() + Send + 'static) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let threads_peak = Arc::new(AtomicU64::new(0));
        let (stop2, peak2) = (Arc::clone(&stop), Arc::clone(&threads_peak));
        let started = Instant::now();
        let handle = std::thread::spawn(move || loop {
            // The watchdog itself is not part of the program.
            peak2.fetch_max(threads().saturating_sub(1), Ordering::Relaxed);
            if started.elapsed() >= deadline {
                on_timeout();
                std::process::exit(3);
            }
            // `stop` publishes nothing but itself.
            if stop2.load(Ordering::Relaxed) {
                break;
            }
            std::thread::park_timeout(Duration::from_millis(100));
        });
        Watchdog {
            stop,
            threads_peak,
            handle: Some(handle),
        }
    }

    /// Most threads the program had alive at any sample so far.
    pub fn threads_peak(&self) -> u64 {
        self.threads_peak.load(Ordering::Relaxed)
    }

    /// Stop sampling, wait for the thread, and return the final peak (the
    /// thread samples at least once before it can see the stop).
    pub fn stop(&mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            // A panicking sampler has nothing to report; the peak stands.
            let _ = h.join();
        }
        self.threads_peak()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_counters_are_plausible_on_linux() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(peak_rss_mb() > 0.5);
        assert!(threads() >= 1);
        let (faults, user, sys) = faults_and_cpu();
        assert!(faults > 0);
        assert!(user >= 0.0 && sys >= 0.0);
    }

    #[test]
    fn watchdog_samples_at_least_once_and_stops() {
        let mut w = Watchdog::start(Duration::from_secs(3600), || {});
        let peak = w.stop();
        assert!(peak >= 1 || !std::path::Path::new("/proc/self/status").exists());
        assert_eq!(w.stop(), peak);
    }
}
