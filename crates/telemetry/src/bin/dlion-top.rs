//! `dlion-top` — a refreshing text dashboard over a health trace stream.
//!
//! ```text
//! dlion-top <trace.jsonl> [--once] [--interval S]
//! ```
//!
//! Point it at the `--trace-out` file of a run started with
//! `--health-interval`: it tails the JSONL stream and renders a per-worker
//! / per-link cluster view every `--interval` seconds (default 1.0),
//! clearing the screen between refreshes like `top`. `--once` reads the
//! whole file, prints one snapshot and exits — the mode CI uses to render
//! a recorded stream.
//!
//! The dashboard consumes the health plane's fixed-key events
//! (`worker_health`, `cluster_health`, `frame_latency`), `peer_departed`
//! and the topology plane's `topology_round` (active topology name in the
//! header, per-worker neighbor count in the NBRS column); all other kinds
//! count toward the record total but render nothing. A worker is tagged
//! DEPARTED once a survivor demotes it (`peer_departed`) or the verdict's
//! `departed` column says so — the same record on both backends. Lines
//! that do not parse are skipped silently — a live tail can observe a torn
//! final line that the next refresh completes.

use dlion_telemetry::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;

/// Latest `worker_health` report from one worker.
#[derive(Clone, Debug, Default)]
struct WorkerRow {
    round: u64,
    iter: u64,
    rate: f64,
    gbs_round: u64,
    deferred: u64,
    sendq: u64,
    scratch_hw: u64,
}

/// One worker's row of the final `cluster_health` verdict.
#[derive(Clone, Debug, Default)]
struct ClusterRow {
    iterations: u64,
    rate: f64,
    score: f64,
    departed: bool,
}

/// End-of-run `frame_latency` percentiles for one directed link.
#[derive(Clone, Debug, Default)]
struct LinkRow {
    frames: u64,
    depth_hw: u64,
    queue_p50_us: f64,
    queue_p99_us: f64,
    write_p99_us: f64,
    read_p99_us: f64,
    apply_p99_us: f64,
}

/// Everything the dashboard knows, folded from the stream so far.
#[derive(Debug, Default)]
struct State {
    records: usize,
    workers: BTreeMap<usize, WorkerRow>,
    departed: BTreeSet<usize>,
    cluster: BTreeMap<usize, ClusterRow>,
    /// The cluster-level straggler verdict, once `cluster_health` arrives.
    straggler: Option<usize>,
    links: BTreeMap<(usize, usize), LinkRow>,
    /// Active topology name from the latest `topology_round` event.
    topology: Option<String>,
    /// Per-worker (round, neighbor count) from its latest `topology_round`.
    neighbors: BTreeMap<usize, (u64, u64)>,
}

fn num(fields: &Json, key: &str) -> f64 {
    fields.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0)
}

fn flag(fields: &Json, key: &str) -> bool {
    matches!(fields.get(key), Some(Json::Bool(true)))
}

impl State {
    /// Fold one JSONL line in. Unparseable lines are ignored, not errors.
    fn ingest(&mut self, line: &str) {
        let Ok(v) = json::parse(line) else { return };
        let Some(kind) = v.get("kind").and_then(|k| k.as_str()) else {
            return;
        };
        let worker = v.get("worker").and_then(|w| w.as_u64()).unwrap_or(0) as usize;
        let Some(fields) = v.get("fields") else {
            return;
        };
        self.records += 1;
        match kind {
            "worker_health" => {
                let row = self.workers.entry(worker).or_default();
                // Keep the newest round (tail order is arrival order, but
                // multi-worker streams interleave freely).
                if (num(fields, "round") as u64) < row.round {
                    return;
                }
                *row = WorkerRow {
                    round: num(fields, "round") as u64,
                    iter: num(fields, "iter") as u64,
                    rate: num(fields, "rate"),
                    gbs_round: num(fields, "gbs_round") as u64,
                    deferred: num(fields, "deferred") as u64,
                    sendq: num(fields, "sendq") as u64,
                    scratch_hw: num(fields, "scratch_hw") as u64,
                };
            }
            "peer_departed" => {
                self.departed.insert(num(fields, "peer") as usize);
            }
            "cluster_health" => {
                self.cluster.insert(
                    worker,
                    ClusterRow {
                        iterations: num(fields, "iterations") as u64,
                        rate: num(fields, "rate"),
                        score: num(fields, "score"),
                        departed: flag(fields, "departed"),
                    },
                );
                self.straggler = Some(num(fields, "straggler") as usize);
            }
            "topology_round" => {
                if let Some(name) = fields.get("topology").and_then(|t| t.as_str()) {
                    self.topology = Some(name.to_string());
                }
                let round = num(fields, "round") as u64;
                let nbrs = num(fields, "neighbors") as u64;
                let entry = self.neighbors.entry(worker).or_insert((round, nbrs));
                if round >= entry.0 {
                    *entry = (round, nbrs);
                }
            }
            "frame_latency" => {
                self.links.insert(
                    (worker, num(fields, "peer") as usize),
                    LinkRow {
                        frames: num(fields, "frames") as u64,
                        depth_hw: num(fields, "depth_hw") as u64,
                        queue_p50_us: num(fields, "queue_p50_us"),
                        queue_p99_us: num(fields, "queue_p99_us"),
                        write_p99_us: num(fields, "write_p99_us"),
                        read_p99_us: num(fields, "read_p99_us"),
                        apply_p99_us: num(fields, "apply_p99_us"),
                    },
                );
            }
            _ => {}
        }
    }

    fn status(&self, w: usize) -> String {
        let mut tags = Vec::new();
        if self.straggler == Some(w) {
            tags.push("STRAGGLER");
        }
        if self.departed.contains(&w) || self.cluster.get(&w).is_some_and(|c| c.departed) {
            tags.push("DEPARTED");
        }
        if tags.is_empty() {
            "ok".to_string()
        } else {
            tags.join(" ")
        }
    }

    /// Render the dashboard. Pure — the unit tests and `--once` snapshot
    /// mode exercise exactly what the refresh loop prints.
    fn render(&self) -> String {
        let mut out = format!("dlion-top — {} records\n", self.records);
        if let Some(t) = &self.topology {
            out.push_str(&format!("topology: {t}\n"));
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<6} {:>6} {:>7} {:>11} {:>5} {:>5} {:>6} {:>6} {:>10}  {}\n",
            "WORKER",
            "ROUND",
            "ITER",
            "RATE(sps)",
            "GBS",
            "NBRS",
            "DEFER",
            "SENDQ",
            "SCRATCH",
            "STATUS"
        ));
        let ids: BTreeSet<usize> = self
            .workers
            .keys()
            .chain(self.cluster.keys())
            .chain(self.neighbors.keys())
            .chain(self.departed.iter())
            .copied()
            .collect();
        for w in &ids {
            let row = self.workers.get(w).cloned().unwrap_or_default();
            let nbrs = self
                .neighbors
                .get(w)
                .map_or("-".to_string(), |(_, n)| n.to_string());
            out.push_str(&format!(
                "w{:<5} {:>6} {:>7} {:>11.1} {:>5} {:>5} {:>6} {:>6} {:>10}  {}\n",
                w,
                row.round,
                row.iter,
                row.rate,
                row.gbs_round,
                nbrs,
                row.deferred,
                row.sendq,
                row.scratch_hw,
                self.status(*w)
            ));
        }
        if let Some(s) = self.straggler {
            let score = self.cluster.get(&s).map_or(0.0, |c| c.score);
            out.push_str(&format!("\ncluster: straggler w{s} (score {score:.2})\n"));
            for (w, c) in &self.cluster {
                out.push_str(&format!(
                    "  w{w}: {} iters at {:.2}/s, score {:.2}\n",
                    c.iterations, c.rate, c.score
                ));
            }
        }
        if !self.links.is_empty() {
            out.push_str(&format!(
                "\n{:<9} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                "LINK", "FRAMES", "DEPTH", "Q_P50us", "Q_P99us", "WR_P99us", "RD_P99us", "AP_P99us"
            ));
            for ((w, p), l) in &self.links {
                out.push_str(&format!(
                    "w{w}->w{p:<4} {:>7} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}\n",
                    l.frames,
                    l.depth_hw,
                    l.queue_p50_us,
                    l.queue_p99_us,
                    l.write_p99_us,
                    l.read_p99_us,
                    l.apply_p99_us
                ));
            }
        }
        out
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut path: Option<String> = None;
    let mut once = false;
    let mut interval = 1.0f64;
    let usage = || -> ! {
        eprintln!("usage: dlion-top <trace.jsonl> [--once] [--interval S]");
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) if s > 0.0 => interval = s,
                _ => usage(),
            },
            _ if path.is_none() && !arg.starts_with("--") => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };

    let mut state = State::default();
    let mut offset = 0usize;
    loop {
        // Re-read from the last offset: works on both finished files and
        // ones still being appended to by a live run.
        match std::fs::read(&path) {
            Ok(bytes) if bytes.len() > offset => {
                // Only consume complete lines; a torn tail waits a tick.
                let end = bytes[offset..]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map(|p| offset + p + 1)
                    .unwrap_or(offset);
                if let Ok(chunk) = std::str::from_utf8(&bytes[offset..end]) {
                    for line in chunk.lines() {
                        state.ingest(line);
                    }
                    offset = end;
                }
            }
            Ok(_) => {}
            Err(e) => {
                if once {
                    eprintln!("dlion-top: cannot read {path}: {e}");
                    std::process::exit(1);
                }
                // Tail mode: the file may simply not exist yet.
            }
        }
        if once {
            print!("{}", state.render());
            return;
        }
        // ANSI clear + home, like `top`.
        print!("\x1b[2J\x1b[H{}", state.render());
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(worker: usize, kind: &str, fields: &str) -> String {
        format!(
            "{{\"wall_ns\":1,\"vtime\":0.4,\"seq\":0,\"system\":\"DLion\",\"env\":\"live/3w\",\
             \"seed\":1,\"worker\":{worker},\"kind\":\"{kind}\",\"fields\":{fields}}}"
        )
    }

    #[test]
    fn renders_worker_rows_departures_and_straggler() {
        let mut s = State::default();
        s.ingest(&line(
            0,
            "worker_health",
            r#"{"round":2,"iter":8,"rate":612.5,"gbs_round":1,"deferred":0,"sendq":2,"scratch_hw":1024}"#,
        ));
        // A stale round must not clobber the newer report.
        s.ingest(&line(
            0,
            "worker_health",
            r#"{"round":1,"iter":4,"rate":100.0,"gbs_round":0,"deferred":0,"sendq":0,"scratch_hw":0}"#,
        ));
        s.ingest(&line(
            0,
            "peer_departed",
            r#"{"peer":1,"completed":9,"iter":9}"#,
        ));
        s.ingest(&line(
            2,
            "cluster_health",
            r#"{"iterations":24,"rounds":6,"rate":6.67,"score":3.0,"departed":false,"straggler":2}"#,
        ));
        s.ingest(&line(
            0,
            "frame_latency",
            r#"{"peer":2,"frames":40,"depth_hw":3,"queue_p50_us":10.0,"queue_p99_us":80.0,"write_p50_us":5.0,"write_p99_us":50.0,"read_p99_us":30.0,"apply_p99_us":20.0}"#,
        ));
        // Unknown kinds and garbage are counted / skipped, never fatal.
        s.ingest(&line(0, "iter_done", r#"{"loss":1.5}"#));
        s.ingest("not json at all");

        let out = s.render();
        assert!(out.contains("612.5"), "{out}");
        assert_eq!(s.workers[&0].round, 2);
        assert!(out.contains("straggler w2 (score 3.00)"), "{out}");
        assert!(out.contains("DEPARTED"), "{out}");
        assert!(out.contains("STRAGGLER"), "{out}");
        assert!(out.contains("w0->w2"), "{out}");
        assert!(out.contains("6 records"), "{out}");
    }

    #[test]
    fn topology_rounds_show_name_and_neighbor_counts() {
        let mut s = State::default();
        s.ingest(&line(
            0,
            "topology_round",
            r#"{"round":0,"topology":"kregular:2","neighbors":2,"links":6}"#,
        ));
        s.ingest(&line(
            1,
            "topology_round",
            r#"{"round":0,"topology":"kregular:2","neighbors":2,"links":6}"#,
        ));
        // A newer round replaces the count; a stale one must not.
        s.ingest(&line(
            1,
            "topology_round",
            r#"{"round":3,"topology":"kregular:2","neighbors":1,"links":6}"#,
        ));
        s.ingest(&line(
            1,
            "topology_round",
            r#"{"round":2,"topology":"kregular:2","neighbors":4,"links":6}"#,
        ));
        let out = s.render();
        assert!(out.contains("topology: kregular:2"), "{out}");
        assert!(out.contains("NBRS"), "{out}");
        assert_eq!(s.neighbors[&0], (0, 2));
        assert_eq!(s.neighbors[&1], (3, 1));
    }

    #[test]
    fn empty_stream_renders_header_only() {
        let s = State::default();
        let out = s.render();
        assert!(out.contains("0 records"), "{out}");
        assert!(out.contains("WORKER"), "{out}");
        assert!(!out.contains("straggler"), "{out}");
    }
}
