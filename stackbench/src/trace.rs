//! Harness-side tracing: spans around the calls into each layer.
//!
//! Spans are recorded only from this package (tracing inside the program is
//! a later change), kept in memory, and written as JSONL when the run ends.
//! Two sources feed a [`SpanLog`]: the layer walk (`walk.rs`), which times
//! one rank's iteration stage by stage, and [`TimedTransport`], which wraps
//! a live endpoint and times every transport call the driver makes.

use dlion_core::messages::{Payload, WireCfg};
use dlion_core::{ExchangeTransport, LinkHealth, TransportError};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval. `parent` indexes the enclosing span in the same
/// log; `id` ties spans of one unit of work together (a rank for transport
/// spans, an iteration index for walk spans).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log with a stack of open spans. One log per thread;
/// logs merge at the end of a run.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log whose timestamps count from `epoch` (shared by every log of a
    /// run so merged spans line up).
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; close it with [`end`].
    ///
    /// [`end`]: SpanLog::end
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost-first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].dur_ns()
    }

    /// Time `f` as one span and return its result with the duration.
    pub fn time<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let idx = self.begin(name, id);
        let r = f();
        let ns = self.end(idx);
        (r, ns)
    }

    /// Record an already-measured interval under the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its direct children cover
    /// (children of one span never overlap: they come from one thread's
    /// stack). This is the time the span's own layer — or, for a span the
    /// harness opened, the harness itself — spent.
    pub fn self_time_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(covered)
    }

    /// Durations, in ns, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Σ duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<f64>() / 1e9
    }

    /// Append another thread's log, re-basing its parent links.
    pub fn merge(&mut self, other: SpanLog) {
        assert!(other.open.is_empty(), "merging a log with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Write one JSON object per span.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            writeln!(out, ",\"id\":{}}}", s.id)?;
        }
        out.flush()
    }
}

/// Everything [`TimedTransport`] observed on one endpoint.
pub struct TransportTrace {
    pub log: SpanLog,
    /// Frames and exact wire bytes this endpoint put on the wire.
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub send_errors: u64,
    /// Start times (ns) of each iteration's first gradient send — the
    /// driver's iteration boundaries as seen from the wire.
    pub iter_starts: Vec<u64>,
    /// Per-link instrumentation snapshot taken when the endpoint retired.
    pub links: Vec<LinkHealth>,
}

/// An [`ExchangeTransport`] that times every call on its way to the real
/// endpoint: `send` spans cover enqueue plus back-pressure, `recv_wait`
/// spans cover blocking receives (the driver's gate wait), and the first
/// gradient send of each iteration marks an iteration boundary.
pub struct TimedTransport {
    inner: Box<dyn ExchangeTransport>,
    trace: TransportTrace,
    last_grad_iter: Option<u64>,
}

impl TimedTransport {
    pub fn new(inner: Box<dyn ExchangeTransport>, epoch: Instant) -> TimedTransport {
        TimedTransport {
            inner,
            trace: TransportTrace {
                log: SpanLog::new(epoch),
                frames_sent: 0,
                bytes_sent: 0,
                send_errors: 0,
                iter_starts: Vec::new(),
                links: Vec::new(),
            },
            last_grad_iter: None,
        }
    }

    /// Snapshot link health, retire the endpoint and hand back the trace.
    pub fn finish(mut self) -> TransportTrace {
        self.trace.links = self.inner.link_health();
        self.trace
    }

    fn rank(&self) -> u64 {
        self.inner.me() as u64
    }
}

impl ExchangeTransport for TimedTransport {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let len = frame.len() as u64;
        let id = self.rank();
        let t0 = self.trace.log.now_ns();
        let r = self.inner.send_frame(to, frame);
        let t1 = self.trace.log.now_ns();
        self.trace.log.record("send_control", id, t0, t1);
        match &r {
            Ok(()) => {
                self.trace.frames_sent += 1;
                self.trace.bytes_sent += len;
            }
            Err(_) => self.trace.send_errors += 1,
        }
        r
    }

    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        self.inner.try_recv_frame()
    }

    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        let id = self.rank();
        let t0 = self.trace.log.now_ns();
        let r = self.inner.recv_frame_timeout(timeout);
        let t1 = self.trace.log.now_ns();
        self.trace.log.record("recv_wait", id, t0, t1);
        r
    }

    fn send_wire(
        &mut self,
        to: usize,
        payload: Arc<Payload>,
        cfg: &WireCfg,
    ) -> Result<usize, TransportError> {
        let id = self.rank();
        let grad_iter = match payload.as_ref() {
            Payload::Grad(g) => Some(g.iteration),
            _ => None,
        };
        let t0 = self.trace.log.now_ns();
        let r = self.inner.send_wire(to, payload, cfg);
        let t1 = self.trace.log.now_ns();
        self.trace.log.record("send", id, t0, t1);
        if grad_iter.is_some() && grad_iter != self.last_grad_iter {
            self.last_grad_iter = grad_iter;
            self.trace.iter_starts.push(t0);
        }
        match &r {
            Ok(bytes) => {
                self.trace.frames_sent += 1;
                self.trace.bytes_sent += *bytes as u64;
            }
            Err(_) => self.trace.send_errors += 1,
        }
        r
    }

    fn link_health(&mut self) -> Vec<LinkHealth> {
        self.inner.link_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> SpanLog {
        let mut log = SpanLog::new(Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            log.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id: 0,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // iteration [0,100) ⊃ fwd_bwd [10,60) ⊃ gemm [20,50); encode [70,90).
        let log = log_with(&[
            ("iteration", 0, 100, None),
            ("fwd_bwd", 10, 60, Some(0)),
            ("gemm", 20, 50, Some(1)),
            ("encode", 70, 90, Some(0)),
        ]);
        assert_eq!(log.self_time_ns(0), 100 - 50 - 20);
        assert_eq!(log.self_time_ns(1), 50 - 30);
        assert_eq!(log.self_time_ns(2), 30);
        assert_eq!(log.self_time_ns(3), 20);
        // Self times of a tree add back up to the root's duration.
        let total: u64 = (0..4).map(|i| log.self_time_ns(i)).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn begin_end_nest_and_record_attaches_to_the_open_span() {
        let mut log = SpanLog::new(Instant::now());
        let outer = log.begin("iteration", 7);
        let ((), _) = log.time("stage", 7, || ());
        log.record("leaf", 7, 1, 2);
        log.end(outer);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[0].end_ns >= s[1].end_ns);
        assert!(log.self_time_ns(0) <= s[0].dur_ns());
    }

    #[test]
    fn merge_rebases_parents_and_jsonl_has_one_line_per_span() {
        let mut a = log_with(&[("a", 0, 10, None)]);
        let b = log_with(&[("b", 0, 10, None), ("c", 2, 4, Some(0))]);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.total_s("c"), 2e-9);
        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            dlion_telemetry::json::parse(line).expect("valid JSON per line");
        }
        assert!(text.contains("\"parent\":null") && text.contains("\"parent\":1"));
    }
}
