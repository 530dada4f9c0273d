//! Chaos-parity twins (DESIGN.md §4k): one *generated* scenario — a
//! regional outage plus a Pareto straggler — drives the simulator's
//! fault/straggle machinery and the live backend's, and all three
//! backends (sim, Mem, TCP) agree bit-for-bit on the survivors' weights
//! and on the cluster-health verdict (departures, rates, scores and the
//! straggler), with the live health plane reporting. This is what makes
//! `--scenario` a portable chaos format rather than two dialects that
//! merely share a parser. Its rejoining twin pauses the outage victim
//! instead (`0@3+0.2`): one kill semantic on both backends, so every
//! rank's weights agree, the paused one's included.

use dlion_core::messages::{Payload, WireCfg};
use dlion_core::scenario::{generate, ScenarioPlan, ScenarioSpec};
use dlion_core::{
    run_with_models, DktMode, FaultPlan, RunConfig, RunMetrics, SyncPolicy, SystemKind,
};
use dlion_net::{live_config, run_live, LiveOpts, TransportKind};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_telemetry::json;
use dlion_tensor::Tensor;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N: usize = 4;
const ITERS: u64 = 8;
const BW_MBPS: f64 = 1000.0;
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

/// Virginia (worker 0 at n=4) goes down for good after iteration 3, and
/// one Pareto straggler slows down.
const OUTAGE: &str = "outage:Virginia@3/stragglers:1,3.0";
/// The same, but Virginia comes back after 0.2 s.
const PAUSE: &str = "outage:Virginia@3+0.2/stragglers:1,3.0";

/// The scenario under test. Picks the first seed whose straggler is *not*
/// the outage victim, so the straggler verdict is non-degenerate. The
/// scan is deterministic, so every run of a test exercises the same plan.
fn scenario(spec: &str) -> (u64, ScenarioPlan) {
    let spec = ScenarioSpec::parse(spec).expect("spec");
    for seed in 1..64 {
        let plan = generate(&spec, N, seed, ITERS, 10_000.0).expect("generate");
        if plan.fault.kill_of(0).is_some() && plan.straggle.len() == 1 && plan.straggle[0].0 != 0 {
            return (seed, plan);
        }
    }
    panic!("no seed under 64 separates victim and straggler");
}

fn twin_cfg(plan: &ScenarioPlan) -> RunConfig {
    let mut cfg = live_config(SystemKind::Baseline, 1);
    cfg.fault = plan.fault.clone();
    cfg.straggle = plan.straggle.clone();
    cfg.duration = 10_000.0; // never the stopping condition; max_iters is
    cfg.eval_interval = 10_000.0;
    cfg.max_iters = Some(ITERS);
    cfg.capture_weights = true;
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg
}

fn sim_run(plan: &ScenarioPlan) -> RunMetrics {
    let cfg = twin_cfg(plan);
    let mut compute = ComputeModel::homogeneous(N, 1.0, 0.001, 0.05);
    let mut net = NetworkModel::uniform(N, BW_MBPS, 0.001);
    // No-op for this scenario (no diurnal wave) but part of the recipe:
    // the sim consumes every plane of the plan.
    plan.apply_to_models(&mut compute, &mut net);
    run_with_models(&cfg, compute, net, "scenario-twin")
}

/// The live half, with the health plane on: its reports must not change
/// the verdict the simulator reaches without one.
fn live_run(plan: &ScenarioPlan, kind: TransportKind) -> RunMetrics {
    let opts = LiveOpts {
        iters: ITERS,
        eval_every: 0,
        bw_mbps: BW_MBPS,
        assumed_iter_time: Some(ITER_TIME),
        stall_timeout: Duration::from_secs(120),
        health_interval: Some(2.0 * ITER_TIME),
        ..Default::default()
    };
    run_live(&twin_cfg(plan), N, &opts, kind, "live/scenario-twin").expect("live run")
}

fn weight_bits(weights: &[Vec<Tensor>]) -> Vec<Vec<Vec<u32>>> {
    weights
        .iter()
        .map(|ws| {
            ws.iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

#[test]
fn generated_scenario_is_bit_identical_across_sim_mem_and_tcp() {
    let (seed, plan) = scenario(OUTAGE);
    let victim = plan.fault.kills[0].worker;
    let (slow, _) = plan.straggle[0];
    assert_eq!(victim, 0, "Virginia maps to worker 0 at n=4");
    assert_ne!(slow, victim, "seed {seed} must separate the roles");

    let sim = sim_run(&plan);
    let mem = live_run(&plan, TransportKind::Mem);
    let tcp = live_run(&plan, TransportKind::Tcp);

    // Every backend ran the same schedule: the victim stopped at its
    // kill iteration, everyone else finished.
    let expected: Vec<u64> = (0..N)
        .map(|w| {
            if w == victim {
                plan.fault.kills[0].at_iter
            } else {
                ITERS
            }
        })
        .collect();
    for (m, label) in [(&sim, "sim"), (&mem, "mem"), (&tcp, "tcp")] {
        assert_eq!(m.iterations, expected, "{label} iteration schedule");
    }

    // Survivor weights are bit-identical across all three backends. The
    // victim's slot is skipped: the sim parks a departed worker (its
    // last weights remain capturable) while the live backend's slot is
    // empty — only the survivors' math is required to agree.
    let (sw, mw, tw) = (
        weight_bits(&sim.final_weights),
        weight_bits(&mem.final_weights),
        weight_bits(&tcp.final_weights),
    );
    for w in (0..N).filter(|&w| w != victim) {
        assert!(!sw[w].is_empty(), "sim captured no weights for {w}");
        assert_eq!(sw[w], mw[w], "sim vs mem weights diverged at worker {w}");
        assert_eq!(mw[w], tw[w], "mem vs tcp weights diverged at worker {w}");
    }

    // The cluster-health verdict matches: the same departures and
    // straggler, and the iteration rates/scores bit-match because the sim
    // multiplies its modelled iteration time by the straggle factor
    // exactly where the live driver multiplies its pinned assumed time.
    let departed: Vec<bool> = (0..N).map(|w| w == victim).collect();
    assert_eq!(sim.health.departed, departed, "sim departures");
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (m, label) in [(&mem, "mem"), (&tcp, "tcp")] {
        assert_eq!(m.health.departed, departed, "{label} departures");
        assert_eq!(
            m.health.straggler, sim.health.straggler,
            "{label} straggler"
        );
        assert_eq!(
            bits(&m.health.rates),
            bits(&sim.health.rates),
            "{label} health rates diverged from sim"
        );
        assert_eq!(
            bits(&m.health.scores),
            bits(&sim.health.scores),
            "{label} health scores diverged from sim"
        );
    }
    assert_eq!(
        sim.health.straggler, slow,
        "straggler flag missed the slow worker"
    );
}

/// The rejoining twin: the outage victim pauses for 0.2 s (`0@3+0.2`)
/// instead of leaving. Both backends pause it alike — it stops stepping,
/// keeps receiving, stays a member and resumes — so every rank finishes
/// every iteration with the same bits on all three backends, the paused
/// one included, and the health verdict matches. (The live driver used to
/// run a second protocol here — Leave, late Hello, a weight pull — after
/// which the rank trained ungated, on weights no simulator run had.)
#[test]
fn a_rejoining_kill_pauses_bit_identically_on_sim_mem_and_tcp() {
    let (_, plan) = scenario(PAUSE);
    assert_eq!(plan.fault.render(), "0@3+0.2");

    let sim = sim_run(&plan);
    let mem = live_run(&plan, TransportKind::Mem);
    let tcp = live_run(&plan, TransportKind::Tcp);

    for (m, label) in [(&sim, "sim"), (&mem, "mem"), (&tcp, "tcp")] {
        assert_eq!(m.iterations, vec![ITERS; N], "{label} iteration schedule");
        // The paused rank is a member to the end: it is evaluated too.
        let acc = m.worker_acc.last().expect("final eval");
        assert_eq!(acc.len(), N, "{label}: a rank missing from the final eval");
        assert!(
            acc.iter().all(|&a| a > 0.0),
            "{label}: no accuracy: {acc:?}"
        );
    }
    let (sw, mw, tw) = (
        weight_bits(&sim.final_weights),
        weight_bits(&mem.final_weights),
        weight_bits(&tcp.final_weights),
    );
    for w in 0..N {
        assert!(!sw[w].is_empty(), "sim captured no weights for {w}");
        assert_eq!(sw[w], mw[w], "sim vs mem weights diverged at worker {w}");
        assert_eq!(mw[w], tw[w], "mem vs tcp weights diverged at worker {w}");
    }
    // Nobody departed: a paused rank is a member.
    assert_eq!(sim.health.departed, vec![false; N], "sim departures");
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for (m, label) in [(&mem, "mem"), (&tcp, "tcp")] {
        assert_eq!(m.health.departed, sim.health.departed, "{label} departures");
        assert_eq!(
            bits(&m.health.rates),
            bits(&sim.health.rates),
            "{label} health rates diverged from sim"
        );
        assert_eq!(
            bits(&m.health.scores),
            bits(&sim.health.scores),
            "{label} health scores diverged from sim"
        );
        assert_eq!(
            m.health.straggler, sim.health.straggler,
            "{label} straggler"
        );
    }
}

/// A trace sink the test reads back.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Run `env`'s control sends as traced, `(from, to, kind)`, sorted.
fn control_sends(rows: &str, env: &str) -> Vec<(u64, u64, String)> {
    let mut sends: Vec<_> = rows
        .lines()
        .filter_map(|line| {
            let row = json::parse(line).ok()?;
            let fields = row.get("fields")?;
            let kind = fields.get("kind").and_then(|k| k.as_str());
            let ours = row.get("env")?.as_str()?.starts_with(env);
            let control = !matches!(kind, None | Some("grad") | Some("weights"));
            let send = row.get("kind")?.as_str()? == "send";
            (ours && send && control).then_some((
                row.get("worker")?.as_u64()?,
                fields.get("to")?.as_u64()?,
                kind?.to_string(),
            ))
        })
        .collect();
    sends.sort();
    sends
}

/// The post-round twin: Baseline with Best2All DKT every 4 rounds under
/// strict BSP, worker 1 killed on a share round (`1@4`) and after one
/// (`1@6`). Both backends execute the round core's one post-round
/// sequence — gradients, then either the Leaves or the DKT sends to the
/// peers the ledger counts for the next round and gating has not demoted
/// — so every loss share and Leave goes from and to the same ranks on
/// sim, Mem and TCP, and the control bytes agree. (The live driver used to
/// share losses on the kill round and send its Leaves after the round's
/// DKT; the simulator shared losses with the departed rank.) The sends are
/// read back from the trace, whose sink is process-wide: rows of the
/// other tests here, running alongside, are told apart by their `env`.
///
/// Two live races stay out of the cell. A DKT pull is decided on the
/// losses a rank has read when its share round comes, and a peer's
/// same-round share can race in first: pulls are left out of the
/// comparison, and λ = 0 makes a pull move no weight. And a send to the
/// victim after the last gradient it waits for races its exit (a live
/// send to an exited rank fails and is not counted): the victim of `1@6`
/// still waits for round 4's gradients, which follow round 4's shares.
#[test]
fn post_round_traffic_under_a_kill_is_identical_on_sim_mem_and_tcp() {
    const N: usize = 3;
    const ITERS: u64 = 10;
    let trace = Captured::default();
    dlion_telemetry::set_trace_writer(Box::new(trace.clone()));
    let request = Payload::DktRequest.wire_len(&WireCfg::default()) as f64;
    for kill in ["1@4", "1@6"] {
        let mut cfg = live_config(SystemKind::Baseline, 1);
        cfg.dkt.mode = DktMode::Best2All;
        cfg.dkt.period_iters = 4;
        cfg.dkt.lambda = 0.0;
        cfg.fault = FaultPlan::parse(kill).expect("kill spec");
        cfg.duration = 10_000.0;
        cfg.eval_interval = 10_000.0;
        cfg.max_iters = Some(ITERS);
        cfg.capture_weights = true;
        cfg.sync_override = Some(SyncPolicy::Synchronous);
        let sim = run_with_models(
            &cfg,
            ComputeModel::homogeneous(N, 1.0, 0.001, 0.05),
            NetworkModel::uniform(N, BW_MBPS, 0.001),
            "sim/post-round-twin",
        );
        let opts = LiveOpts {
            iters: ITERS,
            eval_every: 0,
            bw_mbps: BW_MBPS,
            assumed_iter_time: Some(ITER_TIME),
            stall_timeout: Duration::from_secs(120),
            ..Default::default()
        };
        let live = |kind, env| run_live(&cfg, N, &opts, kind, env).expect("live run");
        let mem = live(TransportKind::Mem, "live/post-round-twin-mem");
        let tcp = live(TransportKind::Tcp, "live/post-round-twin-tcp");
        let rows = String::from_utf8(std::mem::take(&mut *trace.0.lock().unwrap())).unwrap();
        let traffic = |m: &RunMetrics, env: &str| {
            let (pulls, sends): (Vec<_>, Vec<_>) = control_sends(&rows, env)
                .into_iter()
                .partition(|(_, _, kind)| kind == "dkt_request");
            let control = m.wire_bytes_by_kind["control"] - request * pulls.len() as f64;
            (sends, control)
        };
        let want = traffic(&sim, "sim/post-round-twin");
        assert!(
            want.0.iter().any(|(_, _, kind)| kind == "leave"),
            "{kill}: no Leave"
        );
        let sw = weight_bits(&sim.final_weights);
        for (m, env) in [
            (&mem, "live/post-round-twin-mem"),
            (&tcp, "live/post-round-twin-tcp"),
        ] {
            assert_eq!(m.iterations, sim.iterations, "{kill}: {env} iterations");
            let mw = weight_bits(&m.final_weights);
            for w in [0, 2] {
                assert!(!sw[w].is_empty(), "{kill}: sim captured no weights for {w}");
                assert_eq!(sw[w], mw[w], "{kill}: sim vs {env} weights at worker {w}");
            }
            assert_eq!(
                traffic(m, env),
                want,
                "{kill}: sim vs {env} control traffic"
            );
        }
    }
    dlion_telemetry::stop_trace();
}
