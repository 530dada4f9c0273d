//! What traced runs observed from outside, accumulated over repetitions
//! and folded into the per-layer ledger.

use crate::metrics::Ledger;
use crate::stats::{median, tail};
use crate::trace::{SpanLog, TransportTrace};
use dlion_core::RunMetrics;
use dlion_tensor::stats::mean;

/// Transport- and driver-side observations of live endpoints (from
/// [`crate::trace::TimedTransport`] and the program's `link_health()`).
#[derive(Default)]
pub struct TransportObs {
    send_us: Vec<f64>,
    recv_wait_us: Vec<f64>,
    iter_ms: Vec<f64>,
    establish_ms: Vec<f64>,
    frames: u64,
    bytes: u64,
    send_errors: u64,
    iterations: u64,
    /// Σ over ranks of the rank's wall time, and the parts of it spent
    /// inside send calls and blocked in receives.
    pub rank_wall_s: f64,
    pub send_s: f64,
    pub recv_wait_s: f64,
    /// `(Σ seconds, frames)` of the program's own link histograms.
    queue_wait: (f64, u64),
    write: (f64, u64),
    read: (f64, u64),
    gbs_rounds: u64,
    dkt_merges: u64,
    /// Every span, for the JSONL trace file.
    pub spans: Vec<SpanLog>,
}

impl TransportObs {
    /// Fold one run's endpoint traces in. `wall_s` is the run's timed
    /// region; `iterations` the rank-iterations it completed.
    pub fn absorb(
        &mut self,
        traces: Vec<TransportTrace>,
        wall_s: f64,
        establish_s: f64,
        iterations: u64,
    ) {
        self.establish_ms.push(establish_s * 1e3);
        self.iterations += iterations;
        for t in traces {
            self.rank_wall_s += wall_s;
            for name in ["send", "send_control"] {
                let d = t.log.durations(name);
                self.send_s += d.iter().sum::<f64>() / 1e9;
                self.send_us.extend(d.iter().map(|ns| ns / 1e3));
            }
            let d = t.log.durations("recv_wait");
            self.recv_wait_s += d.iter().sum::<f64>() / 1e9;
            self.recv_wait_us.extend(d.iter().map(|ns| ns / 1e3));
            self.iter_ms
                .extend(t.iter_starts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6));
            self.frames += t.frames_sent;
            self.bytes += t.bytes_sent;
            self.send_errors += t.send_errors;
            for link in &t.links {
                for (acc, h) in [
                    (&mut self.queue_wait, &link.queue_wait),
                    (&mut self.write, &link.write_time),
                    (&mut self.read, &link.read_time),
                ] {
                    acc.0 += h.sum();
                    acc.1 += h.count();
                }
            }
            self.spans.push(t.log);
        }
    }

    /// Protocol counters of a live run (GBS rounds, DKT merges).
    pub fn absorb_protocol(&mut self, m: &RunMetrics) {
        self.gbs_rounds += m.gbs_trace.len() as u64;
        self.dkt_merges += m.dkt_merges;
    }

    pub fn is_empty(&self) -> bool {
        self.rank_wall_s == 0.0
    }

    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    pub fn dkt_merges(&self) -> u64 {
        self.dkt_merges
    }

    /// Write the `tcp.*` rows.
    pub fn tcp_into(&self, l: &mut Ledger) {
        let mean_us = |(sum, n): (f64, u64)| if n == 0 { 0.0 } else { sum / n as f64 * 1e6 };
        l.set("tcp.establish_ms", median(&self.establish_ms));
        l.set("tcp.send_us_p50", median(&self.send_us));
        l.set("tcp.send_us_p99", tail(&self.send_us).value);
        l.set("tcp.recv_wait_us_p50", median(&self.recv_wait_us));
        l.set("tcp.recv_wait_us_p99", tail(&self.recv_wait_us).value);
        l.set("tcp.queue_wait_us", mean_us(self.queue_wait));
        l.set("tcp.write_us", mean_us(self.write));
        l.set("tcp.read_us", mean_us(self.read));
        l.set("tcp.frames", self.frames as f64);
        l.set("tcp.bytes", self.bytes as f64);
        l.set("tcp.send_errors", self.send_errors as f64);
    }

    /// Write the `driver.*` rows. `walked_s` is the compute time the layer
    /// walk attributes to this run's iterations and messages.
    pub fn driver_into(&self, l: &mut Ledger, walked_s: f64) {
        let wall = self.rank_wall_s.max(f64::MIN_POSITIVE);
        l.set("driver.iter_ms_p50", median(&self.iter_ms));
        l.set("driver.iter_ms_p99", tail(&self.iter_ms).value);
        l.set("driver.gate_wait_share", self.recv_wait_s / wall);
        l.set(
            "driver.residual_share",
            (self.rank_wall_s - self.send_s - self.recv_wait_s - walked_s) / wall,
        );
        l.set("driver.gbs_rounds", self.gbs_rounds as f64);
        l.set("driver.dkt_merges", self.dkt_merges as f64);
        l.set(
            "driver.frames_per_iter",
            self.frames as f64 / self.iterations.max(1) as f64,
        );
    }
}

/// Observations of simulator runs (the program's existing per-run
/// telemetry registry supplies the exact event and message counts).
#[derive(Default)]
pub struct SimObs {
    pub wall_s: f64,
    pub iterations: u64,
    pub events: u64,
    pub msgs: u64,
    pub evals: u64,
    pub dkt_merges: u64,
    pub peak_queue: f64,
    pub samples: f64,
    vtime_ms_per_iter: Vec<f64>,
    acc_final: Vec<f64>,
}

impl SimObs {
    pub fn absorb(&mut self, m: &RunMetrics, wall_s: f64, initial_lbs: usize) {
        let iters = m.total_iterations();
        self.wall_s += wall_s;
        self.iterations += iters;
        self.events += m.telemetry.counter("events");
        self.msgs += m.telemetry.counter("msgs_recv");
        self.evals += (m.worker_acc.len() * m.iterations.len()) as u64;
        self.dkt_merges += m.dkt_merges;
        self.peak_queue = self
            .peak_queue
            .max(m.telemetry.gauge("queue_depth").unwrap_or(0.0));
        self.samples += crate::sim::estimated_samples(m, initial_lbs, m.duration);
        let ranks = m.iterations.len() as f64;
        self.vtime_ms_per_iter
            .push(m.duration * ranks * 1e3 / iters.max(1) as f64);
        self.acc_final.push(m.final_mean_acc());
    }

    pub fn is_empty(&self) -> bool {
        self.iterations == 0
    }

    /// Write the `runner.*`, `sim.*` and `simnet.peak_queue` rows.
    /// `walked_s` is the layer time the walk attributes to these runs.
    pub fn into_ledger(&self, l: &mut Ledger, walked_s: f64) {
        let residual_s = self.wall_s - walked_s;
        l.set("runner.events", self.events as f64);
        l.set(
            "runner.residual_share",
            residual_s / self.wall_s.max(f64::MIN_POSITIVE),
        );
        l.set(
            "runner.residual_us_per_event",
            residual_s * 1e6 / self.events.max(1) as f64,
        );
        l.set("sim.iter_vtime_ms", mean(&self.vtime_ms_per_iter));
        l.set("sim.acc_final", mean(&self.acc_final));
        l.set("simnet.peak_queue", self.peak_queue);
    }
}
