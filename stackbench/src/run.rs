//! `stackbench run`: one workload, one process, one result line.
//!
//! A run executes the output checks, then repeats the workload's timed
//! region for `--seconds` (never fewer than three repetitions; repetition
//! *k* uses seed `S + k`), and prints as its last line of standard output
//! the result object the acceptance driver reads. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ledger.

use crate::metrics::{Ledger, END_TO_END, PER_LAYER};
use crate::obs::{SimObs, TransportObs};
use crate::procfs::{self, Watchdog};
use crate::stats::{median, summary, trimmed_mean, Summary};
use crate::trace::SpanLog;
use crate::walk::{walk, Shapes, WalkTimes};
use crate::{live, probe, sim, wire, Size};
use dlion_core::{SystemKind, Topology};
use dlion_telemetry::json::f64_into;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SimPaper,
    SimScale,
    LiveTcp,
    WireExchange,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SimPaper,
        Workload::SimScale,
        Workload::LiveTcp,
        Workload::WireExchange,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim_paper",
            Workload::SimScale => "sim_scale",
            Workload::LiveTcp => "live_tcp",
            Workload::WireExchange => "wire_exchange",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where a traced run writes its spans as JSONL.
    pub trace_out: PathBuf,
}

/// A run that exceeds this is killed by the watchdog and counted as
/// all-ops-failed (the acceptance driver allows 180 s).
const DEADLINE: Duration = Duration::from_secs(170);

/// One repetition of a workload's timed region, as seen from outside.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    /// Rank-iterations (endpoint-rounds for `wire_exchange`) completed.
    work: f64,
    /// Exact encoded bytes put on the (real or modelled) wire.
    wire_bytes: f64,
    ops: u64,
    ops_failed: u64,
    digest: u64,
}

/// What the traced repetitions of the workload itself observed.
#[derive(Default)]
struct Subject {
    sim: SimObs,
    net: TransportObs,
    /// `live_tcp`: training samples behind the traced repetitions.
    live_samples: f64,
    /// `live_tcp`: every repetition's final mean accuracy.
    live_acc: Vec<f64>,
    /// `wire_exchange`: per-round harness time outside the program, µs.
    generator_lag_us: Vec<f64>,
    decode_failures: u64,
    spans: Vec<SpanLog>,
}

impl Subject {
    /// Training samples behind the traced repetitions' iterations.
    fn samples(&self) -> f64 {
        self.sim.samples + self.live_samples
    }
}

/// The simulator cell a workload runs, if it runs one.
fn sim_cell(w: Workload) -> Option<fn(u64, Size) -> sim::SimSpec> {
    match w {
        Workload::SimPaper => Some(sim::paper_cell),
        Workload::SimScale => Some(sim::scale_cell),
        Workload::LiveTcp | Workload::WireExchange => None,
    }
}

fn check(ok: bool, errors: &mut Vec<String>, msg: impl FnOnce() -> String) {
    if !ok {
        errors.push(msg());
    }
}

fn one_rep(
    a: &RunArgs,
    seed: u64,
    traced: bool,
    epoch: Instant,
    subject: &mut Subject,
    errors: &mut Vec<String>,
) -> Result<Rep, String> {
    match a.workload {
        Workload::SimPaper | Workload::SimScale => {
            let cell = sim_cell(a.workload).expect("a simulator workload");
            let (mut initial_lbs, mut scheduled) = (0, None);
            let r = sim::run(
                || {
                    let spec = cell(seed, a.size);
                    initial_lbs = spec.cfg.initial_lbs;
                    scheduled = spec.cfg.max_iters.map(|k| k * spec.compute.n() as u64);
                    spec
                },
                traced,
            );
            let m = &r.metrics;
            let done = m.total_iterations();
            // The paper cell is bounded by virtual time, not a count: what
            // it completed is what was scheduled, and a rank that never
            // stepped is the failure.
            let ops = scheduled.unwrap_or(done);
            let idle = m.iterations.iter().filter(|&&i| i == 0).count() as u64;
            check(m.final_mean_acc().is_finite(), errors, || {
                format!("seed {seed}: non-finite accuracy")
            });
            if traced {
                subject.sim.absorb(m, r.wall_s, initial_lbs);
            }
            Ok(Rep {
                setup_s: r.setup_s,
                wall_s: r.wall_s,
                work: done as f64,
                wire_bytes: sim::ledger_bytes(m),
                ops,
                ops_failed: (ops - done.min(ops)) + idle,
                digest: sim::digest(m),
            })
        }
        Workload::LiveTcp => {
            let (mut want_gbs, mut iters) = (Vec::new(), 0);
            let r = live::run(
                || {
                    let spec = live::tcp_cell(seed, a.size);
                    want_gbs = live::expected_gbs_trace(&spec);
                    iters = spec.opts.iters;
                    spec
                },
                traced,
                epoch,
            )?;
            let m = &r.metrics;
            let ranks = m.iterations.len() as u64;
            let done = m.total_iterations();
            check(m.iterations.iter().all(|&i| i == iters), errors, || {
                format!(
                    "seed {seed}: iterations {:?}, scheduled {iters}",
                    m.iterations
                )
            });
            check(r.gbs_traces.iter().all(|t| *t == want_gbs), errors, || {
                format!(
                    "seed {seed}: GBS traces {:?}, pinned clock implies {want_gbs:?}",
                    r.gbs_traces
                )
            });
            let loss = m.worker_loss.last().map_or(f64::NAN, |l| l[0]);
            check(loss.is_finite(), errors, || {
                format!("seed {seed}: final loss {loss}")
            });
            subject.live_acc.push(m.final_mean_acc());
            if traced {
                let train_secs = iters as f64 * live::PINNED_ITER_SECS;
                subject.live_samples += sim::estimated_samples(m, 32, train_secs);
                subject.net.absorb_protocol(m);
                subject.net.absorb(r.traces, r.wall_s, r.establish_s, done);
            }
            Ok(Rep {
                setup_s: r.setup_s,
                wall_s: r.wall_s,
                work: done as f64,
                wire_bytes: sim::ledger_bytes(m),
                ops: ranks * iters,
                ops_failed: ranks * iters - done.min(ranks * iters),
                digest: sim::digest(m),
            })
        }
        Workload::WireExchange => {
            let r = wire::run(seed, a.size, traced, epoch)?;
            check(r.frames_failed == 0, errors, || {
                format!(
                    "seed {seed}: {} of {} frames not delivered bit-identical",
                    r.frames_failed, r.frames_sent
                )
            });
            let rounds = r.frames_sent / (wire::ENDPOINTS * (wire::ENDPOINTS - 1)) as u64;
            if let Some(log) = r.generator {
                // Harness time per round: the comparisons plus whatever the
                // round span does not hand to the transport or the codec.
                let per_round = |name: &str| log.total_s(name) / rounds.max(1) as f64;
                let program = r
                    .traces
                    .iter()
                    .map(|t| t.log.total_s("send") + t.log.total_s("recv_wait"))
                    .sum::<f64>()
                    / rounds.max(1) as f64;
                let lag = per_round("round") - program - per_round("decode");
                subject.generator_lag_us.push(lag * 1e6);
                subject.decode_failures += r.decode_failures;
                subject.net.absorb(
                    r.traces,
                    r.wall_s,
                    r.establish_s,
                    rounds * wire::ENDPOINTS as u64,
                );
                subject.spans.push(log);
            }
            Ok(Rep {
                setup_s: r.setup_s,
                wall_s: r.wall_s,
                work: (rounds * wire::ENDPOINTS as u64) as f64,
                wire_bytes: r.verified_bytes as f64,
                ops: r.frames_sent,
                ops_failed: r.frames_failed,
                digest: r.input_digest,
            })
        }
    }
}

/// Output checks that need no measurement: the parity probe, and for the
/// simulator workloads a toy-size cell run twice to the same digest.
fn verify(a: &RunArgs, epoch: Instant, errors: &mut Vec<String>) -> probe::ProbeObs {
    let obs = probe::run(a.seed, a.trace, epoch).unwrap_or_else(|e| {
        errors.push(e);
        probe::ProbeObs::default()
    });
    if let Some(cell) = sim_cell(a.workload) {
        let digest = || sim::digest(&sim::run(|| cell(a.seed, Size::Quick), false).metrics);
        let (d1, d2) = (digest(), digest());
        check(d1 == d2, errors, || {
            format!("same seed, different digests: {d1:016x} vs {d2:016x}")
        });
    }
    obs
}

/// The shapes the workload presents to each layer, for the walk.
fn shapes(a: &RunArgs, subject: &Subject, probe_peak_queue: f64) -> Shapes {
    let mean_lbs = |fallback: usize| {
        let iters = subject.sim.iterations.max(subject.net.iterations());
        if subject.samples() > 0.0 && iters > 0 {
            (subject.samples() / iters as f64).round().max(1.0) as usize
        } else {
            fallback
        }
    };
    let depth = |peak: f64| if peak > 0.0 { peak } else { probe_peak_queue }.max(1.0) as usize;
    match a.workload {
        Workload::SimPaper => {
            let spec = sim::paper_cell(a.seed, a.size);
            let lbs = mean_lbs(64);
            Shapes {
                degree: 5,
                lbs,
                bw_mbps: 50.0,
                iter_time: spec.compute.iter_time(0, lbs, 0.0),
                topology: Topology::FullMesh,
                n: 6,
                queue_depth: depth(subject.sim.peak_queue),
                frames: None,
                seed: a.seed,
                cfg: spec.cfg,
            }
        }
        Workload::SimScale => {
            let spec = sim::scale_cell(a.seed, a.size);
            Shapes {
                degree: 8,
                lbs: 1,
                bw_mbps: 1000.0,
                iter_time: spec.compute.iter_time(0, 1, 0.0),
                topology: spec.cfg.topology,
                n: spec.compute.n(),
                queue_depth: depth(subject.sim.peak_queue),
                frames: None,
                seed: a.seed,
                cfg: spec.cfg,
            }
        }
        Workload::LiveTcp => {
            let spec = live::tcp_cell(a.seed, a.size);
            Shapes {
                degree: 1,
                lbs: mean_lbs(48),
                bw_mbps: spec.opts.bw_mbps,
                iter_time: live::PINNED_ITER_SECS,
                topology: Topology::FullMesh,
                n: 2,
                queue_depth: depth(0.0),
                frames: None,
                seed: a.seed,
                cfg: spec.cfg,
            }
        }
        Workload::WireExchange => Shapes {
            cfg: dlion_net::live_config(SystemKind::DLion, a.seed),
            degree: wire::ENDPOINTS - 1,
            lbs: 32,
            bw_mbps: 50.0,
            iter_time: live::PINNED_ITER_SECS,
            topology: Topology::FullMesh,
            n: wire::ENDPOINTS,
            queue_depth: depth(0.0),
            frames: Some(wire::generate(a.seed, a.size).kinds),
            seed: a.seed,
        },
    }
}

/// Layer time × exact counts for a simulator's runs.
fn walked_sim_s(o: &SimObs, t: &WalkTimes) -> f64 {
    o.iterations as f64 * (t.batch + t.fwd_bwd + t.apply_own + t.generate + t.neighbors)
        + o.msgs as f64 * (t.apply_peer + t.transfer + t.neighbors)
        + o.events as f64 * t.queue_op
        + o.evals as f64 * t.eval
        + o.dkt_merges as f64 * t.merge
}

/// Compute the rank threads of live runs spent in walked layers: every
/// iteration's own step, and every received frame's decode + apply.
fn walked_live_s(o: &TransportObs, degree: usize, t: &WalkTimes) -> f64 {
    let iters = o.iterations() as f64;
    iters * (t.batch + t.fwd_bwd + t.apply_own + t.generate)
        + iters * degree as f64 * (t.decode + t.apply_peer)
}

fn metric_json(out: &mut String, name: &str, value: f64, unit: &str) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":{\"value\":");
    f64_into(value, out);
    out.push_str(",\"unit\":\"");
    out.push_str(unit);
    out.push_str("\"}");
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        metric_json(&mut s, name, *value, unit);
    }
    s.push_str("}}");
    s
}

fn summary_json(s: &Summary) -> String {
    let mut out = format!("{{\"n\":{}", s.n);
    for (k, v) in [
        ("min", s.min),
        ("q1", s.q1),
        ("median", s.median),
        ("q3", s.q3),
        ("max", s.max),
    ] {
        out.push_str(&format!(",\"{k}\":"));
        f64_into(v, &mut out);
    }
    out.push('}');
    out
}

/// Run one workload and print its result. Returns the process exit code:
/// 0 when every output check held, 1 otherwise.
pub fn run(a: RunArgs) -> i32 {
    let epoch = Instant::now();
    let name = a.workload.name();
    let watchdog = Watchdog::start(DEADLINE, move || {
        eprintln!("stackbench: {name} exceeded {DEADLINE:?}; killed by the harness watchdog");
        println!("{}", result_line(false, 1, 1, &[]));
    });
    let mut errors = Vec::new();
    let probe_obs = verify(&a, epoch, &mut errors);

    // Traced runs alternate untraced and traced repetitions (their ratio
    // is the tracing overhead) and keep 30 % of the window for the walk.
    let window = if a.trace { 0.6 * a.seconds } else { a.seconds };
    let min_reps = if a.trace { 4 } else { 3 };
    let mut subject = Subject::default();
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let k = reps.len() as u64;
        let traced = a.trace && k % 2 == 1;
        let t0 = Instant::now();
        match one_rep(&a, a.seed + k, traced, epoch, &mut subject, &mut errors) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                errors.push(format!("rep {k}: {e}"));
                break;
            }
        }
        let last = t0.elapsed().as_secs_f64();
        let enough = reps.len() >= min_reps;
        if enough && started.elapsed().as_secs_f64() + last > window {
            break;
        }
    }

    // Single seeds can end in a dead network (loss ln 10) at the paper's
    // learning rate; training as a whole must still learn. The toy size
    // stops after 100 iterations, too early for a threshold.
    if a.size == Size::Full && !subject.live_acc.is_empty() {
        let mean = dlion_tensor::stats::mean(&subject.live_acc);
        check(mean >= 0.25, &mut errors, || {
            format!("mean final accuracy {mean} over {:?}", subject.live_acc)
        });
    }
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.ops_failed).sum();
    check(failed == 0, &mut errors, || {
        format!("{failed} of {attempted} operations failed")
    });
    let metrics: Vec<(&str, f64, &str)> = if reps.len() < min_reps {
        Vec::new()
    } else if !a.trace {
        let all = |f: fn(&Rep) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
        let detail = [
            ("iters_per_s", all(|r| r.work / r.wall_s)),
            ("wire_mb_per_s", all(|r| r.wire_bytes / 1e6 / r.wall_s)),
            ("setup_s", all(|r| r.setup_s)),
            ("rep_wall_s", all(|r| r.wall_s)),
        ];
        // Bytes per unit of work depend on the repetition's seed (Max N
        // selects by gradient value), host speed does not: take the mean of
        // the first and the median of the second.
        let mb_per_work = reps.iter().map(|r| r.wire_bytes).sum::<f64>()
            / reps.iter().map(|r| r.work).sum::<f64>()
            / 1e6;
        let mut line = format!(
            "detail:{{\"workload\":\"{name}\",\"seed\":{},\"reps\":{},\"digest\":\"{:016x}\"",
            a.seed,
            reps.len(),
            reps[0].digest
        );
        for (k, xs) in &detail {
            line.push_str(&format!(",\"{k}\":{}", summary_json(&summary(xs))));
        }
        println!("{line}}}");
        let samples = |k: &str| &detail.iter().find(|d| d.0 == k).expect("listed").1;
        END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "peak_rss_mb" => procfs::peak_rss_mb(),
                    "wire_mb_per_s" => median(samples("iters_per_s")) * mb_per_work,
                    "setup_s" => trimmed_mean(samples("setup_s")),
                    other => median(samples(other)),
                };
                (m.name, v, m.unit)
            })
            .collect()
    } else {
        let mut ledger = Ledger::default();
        let mut walk_log = SpanLog::new(epoch);
        let sh = shapes(&a, &subject, probe_obs.sim.peak_queue);
        let degree = sh.degree;
        let times = walk(sh, &mut ledger, &mut walk_log, 0.3 * a.seconds);

        // Rows of layers the workload exercises come from its own traced
        // repetitions; the rest from the parity probe's legs.
        let sim_obs = if subject.sim.is_empty() {
            &probe_obs.sim
        } else {
            &subject.sim
        };
        sim_obs.into_ledger(&mut ledger, walked_sim_s(sim_obs, &times));
        let tcp_obs = if subject.net.is_empty() {
            &probe_obs.tcp
        } else {
            &subject.net
        };
        tcp_obs.tcp_into(&mut ledger);
        // Only `live_tcp` runs the driver; `wire_exchange` drives its
        // endpoints from the generator thread.
        let (driver_obs, driver_degree) = if a.workload == Workload::LiveTcp {
            (&subject.net, degree)
        } else {
            (&probe_obs.tcp, 1)
        };
        driver_obs.driver_into(
            &mut ledger,
            walked_live_s(driver_obs, driver_degree, &times),
        );
        ledger.set("nn.samples", subject.samples());
        ledger.set(
            "dkt.merges",
            (subject.sim.dkt_merges + subject.net.dkt_merges()) as f64,
        );
        ledger.set(
            "messages.decode_failures",
            ledger.get("messages.decode_failures").unwrap_or(0.0) + subject.decode_failures as f64,
        );

        // Repetitions alternate untraced, traced: each adjacent pair ran
        // under about the same host conditions, so the median of the
        // pairs' ratios is steadier than a ratio of medians.
        let per_work = |r: &Rep| r.wall_s / r.work;
        let pairs: Vec<f64> = reps
            .chunks_exact(2)
            .map(|p| (per_work(&p[1]) / per_work(&p[0]) - 1.0) * 100.0)
            .collect();
        ledger.set("bench.trace_overhead_pct", median(&pairs));
        // Harness time the numbers include: per `wire_exchange` round, or
        // per walked iteration (the iteration span's self time).
        let lag_us = if subject.generator_lag_us.is_empty() {
            let spans = walk_log.spans();
            let own: Vec<f64> = (0..spans.len())
                .filter(|&i| spans[i].name == "iteration")
                .map(|i| walk_log.self_time_ns(i) as f64 / 1e3)
                .collect();
            median(&own)
        } else {
            median(&subject.generator_lag_us)
        };
        ledger.set("bench.generator_lag_us", lag_us);

        let (faults, user_s, sys_s) = procfs::faults_and_cpu();
        let (vol, invol) = procfs::ctx_switches();
        ledger.set("proc.user_cpu_s", user_s);
        ledger.set("proc.sys_cpu_s", sys_s);
        ledger.set("proc.minor_faults", faults as f64);
        ledger.set("proc.ctx_switches_vol", vol as f64);
        ledger.set("proc.ctx_switches_invol", invol as f64);
        ledger.set("proc.threads_peak", watchdog.threads_peak() as f64);

        let missing = ledger.missing();
        check(missing.is_empty(), &mut errors, || {
            format!("ledger rows never measured: {missing:?}")
        });

        let mut all = walk_log;
        for log in subject.spans.drain(..).chain(subject.net.spans.drain(..)) {
            all.merge(log);
        }
        let written = a
            .trace_out
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::File::create(&a.trace_out))
            .and_then(|f| all.write_jsonl(std::io::BufWriter::new(f)));
        match written {
            Ok(()) => eprintln!(
                "stackbench: {} spans written to {}",
                all.spans().len(),
                a.trace_out.display()
            ),
            Err(e) => eprintln!(
                "stackbench: trace not written to {}: {e}",
                a.trace_out.display()
            ),
        }

        PER_LAYER
            .iter()
            .map(|m| (m.name, ledger.get(m.name).unwrap_or(0.0), m.unit))
            .collect()
    };

    check(metrics.iter().all(|m| m.1.is_finite()), &mut errors, || {
        "a metric is not finite".to_string()
    });
    for e in &errors {
        eprintln!("stackbench: {name}: check failed: {e}");
    }
    drop(watchdog);
    let correct = errors.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    i32::from(!correct)
}
