//! `dlion-sim` — run one micro-cloud training simulation from the command
//! line and print its report.
//!
//! ```text
//! dlion-sim [--env NAME] [--duration SECS] [--iters N] [--skew F] [--gpu]
//!           [--trace-links] [--curve] [--profile]
//!           [shared flags: dlion_core::args::SIM_FLAGS]
//! ```
//!
//! `--scenario` injects generated production-shaped chaos (see
//! `dlion_core::scenario`): the same spec string handed to `dlion-live`
//! expands to the identical fault/straggler plan, so sim and live runs
//! are chaos-parity twins. The simulator additionally folds the
//! scenario's diurnal capacity/bandwidth waves into the environment's
//! resource models.
//!
//! Observability (see DESIGN.md § Observability):
//!
//! * `--trace-out FILE` streams every simulation event as one JSON line
//!   (including the end-of-run per-worker `cluster_health` events, on
//!   virtual time — parity-comparable with a live run's and renderable
//!   with `dlion-top FILE --once`),
//! * `--profile` prints a wall-clock per-phase breakdown after the run,
//! * `--telemetry` prints the run's counter/gauge/histogram registry,
//! * `DLION_LOG=debug` (or `info,core.gbs=debug`, …) turns on stderr
//!   logging; stdout stays reserved for the report/CSV.
//!
//! Examples:
//!
//! ```text
//! cargo run --release --bin dlion-sim -- --system dlion --env hetero-sys-b
//! cargo run --release --bin dlion-sim -- --system ako --env homo-b --curve
//! cargo run --release --bin dlion-sim -- --system dlion --gpu --env hetero-sys-c
//! ```

use dlion::core::args::{parse_positive, parse_unit, SIM_FLAGS};
use dlion::core::report;
use dlion::prelude::*;

#[derive(Debug)]
struct Cli {
    /// The flag subset shared with the live binaries ([`SIM_FLAGS`])
    /// lives in the typed [`RunSpec`] builder — defined once in
    /// `dlion_core::args` for all three CLIs.
    spec: RunSpec,
    env: EnvId,
    duration: f64,
    iters: Option<u64>,
    skew: Option<f64>,
    gpu: bool,
    trace_links: bool,
    curve: bool,
    profile: bool,
}

fn parse_cli(mut args: Args) -> Result<Cli, UsageError> {
    let mut cli = Cli {
        spec: RunSpec::default(),
        env: EnvId::HeteroSysA,
        duration: 1500.0,
        iters: None,
        skew: None,
        gpu: false,
        trace_links: false,
        curve: false,
        profile: false,
    };
    while let Some(flag) = args.next_flag() {
        if cli.spec.apply_sim_flag(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--env" => {
                cli.env = args.parse_with(&flag, |s| {
                    EnvId::parse(s).ok_or_else(|| format!("unknown environment '{s}'"))
                })?
            }
            "--duration" => cli.duration = args.parse_with(&flag, parse_positive)?,
            "--iters" => cli.iters = Some(args.parse(&flag)?),
            "--skew" => cli.skew = Some(args.parse_with(&flag, parse_unit)?),
            "--gpu" => cli.gpu = true,
            "--trace-links" => cli.trace_links = true,
            "--curve" => cli.curve = true,
            "--profile" => cli.profile = true,
            "--help" | "-h" => return Err(UsageError::new(flag, "help requested")),
            _ => return Err(UsageError::unknown(flag)),
        }
    }
    // Typed construction-time validation against the environment's worker
    // count: a bad spec prints usage instead of panicking mid-build.
    let n = cli.env.spec().capacity.len();
    cli.spec
        .topology
        .validate(n, cli.spec.seed)
        .map_err(|e| UsageError::new("--topology", e.reason))?;
    if cli.spec.scenario.is_some() {
        scenario_plan(&cli, n).map_err(|e| UsageError::new("--scenario", e))?;
    }
    Ok(cli)
}

/// Expand the CLI's `--scenario` (if any) against the environment's
/// worker count. Kill iterations index the run's iteration budget:
/// `--iters` when given, otherwise a nominal 2 s/iteration estimate of
/// how many rounds fit in `--duration`.
fn scenario_plan(cli: &Cli, n: usize) -> Result<Option<ScenarioPlan>, String> {
    match &cli.spec.scenario {
        None => Ok(None),
        Some(sc) => {
            let iters = cli.iters.unwrap_or(((cli.duration / 2.0) as u64).max(2));
            dlion::core::scenario::generate(sc, n, cli.spec.seed, iters, cli.duration).map(Some)
        }
    }
}

fn usage() -> ! {
    eprint!(
        "usage: dlion-sim [--env homo-a|homo-b|homo-c|hetero-cpu-a|hetero-cpu-b|hetero-net-a|hetero-net-b|\n\
         \x20                      hetero-sys-a|hetero-sys-b|hetero-sys-c|dynamic-sys-a|dynamic-sys-b]\n\
         \x20                [--duration SECS] [--iters N] [--skew F] [--gpu] [--trace-links] [--curve] [--profile]\n\
         {SIM_FLAGS}"
    );
    std::process::exit(2);
}

fn main() {
    let cli = parse_cli(Args::from_env()).unwrap_or_else(|e| {
        eprintln!("dlion-sim: {e}");
        usage();
    });
    let plan = scenario_plan(&cli, cli.env.spec().capacity.len()).expect("validated in parse_cli");
    let Cli {
        spec,
        env,
        duration,
        iters,
        skew,
        gpu,
        trace_links,
        curve,
        profile,
    } = cli;
    let system = spec.system;
    let trace_out = spec.trace_out.clone();
    let csv = spec.csv.clone();
    let telemetry = spec.telemetry;

    let cluster = if gpu {
        ClusterKind::Gpu
    } else {
        ClusterKind::Cpu
    };
    let mut cfg = RunConfig::paper_default(system, cluster);
    cfg.duration = duration;
    cfg.seed = spec.seed;
    cfg.max_iters = iters;
    cfg.trace_links = trace_links;
    cfg.telemetry = telemetry;
    cfg.wire = spec.wire;
    cfg.topology = spec.topology;
    if let Some(v) = spec.lr {
        cfg.lr = v;
    }
    if let Some(v) = skew {
        cfg.workload.shard_skew = v;
    }

    // Expand `--scenario` against this environment: the fault/straggler
    // parts feed the runner (the exact plan a live run would derive from
    // the same spec), the factor schedules scale the env's models.
    let env_spec = env.spec();
    let mut compute = env_spec.compute_model();
    let mut net = env_spec.network_model();
    if let Some(plan) = &plan {
        plan.apply_to_models(&mut compute, &mut net);
        cfg.fault = plan.fault.clone();
        cfg.straggle = plan.straggle.clone();
    }

    dlion::telemetry::init_from_env("info");
    if let Some(path) = &trace_out {
        dlion::telemetry::open_trace_file(path).expect("open trace file");
    }
    if profile {
        dlion::telemetry::profiler::enable(true);
    }

    dlion::telemetry::info!(target: "dlion_sim",
        "simulating {} in {} for {duration} virtual seconds ...",
        system.name(),
        env.name()
    );
    let t0 = std::time::Instant::now();
    let m = run_with_models(&cfg, compute, net, env_spec.name);
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(path) = &trace_out {
        dlion::telemetry::stop_trace();
        dlion::telemetry::info!(target: "dlion_sim", "trace written to {path}");
    }
    print!("{}", report::summarize(&m));
    if profile {
        println!("\n{}", dlion::telemetry::profiler::render_table(wall_s));
    }
    if telemetry {
        println!("\nper-run telemetry:\n{}", m.telemetry.render_table());
    }
    if let Some(path) = csv {
        let f = std::fs::File::create(&path).expect("create csv");
        let mut f = std::io::BufWriter::new(f);
        m.write_timeseries_csv(&mut f).expect("write csv");
        std::io::Write::flush(&mut f).expect("flush csv");
        dlion::telemetry::info!(target: "dlion_sim", "time series written to {path}");
    }
    if curve {
        println!("\naccuracy over time:");
        for (e, t) in m.eval_times.iter().enumerate() {
            let acc = m.mean_acc(e);
            let bar = "#".repeat((acc * 60.0).round() as usize);
            println!("  t={t:>6.0}s  {acc:.3}  {bar}");
        }
    }
    if trace_links {
        println!("\nper-link mean gradient entries:");
        let n = m.iterations.len();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let xs: Vec<f64> = m
                    .link_trace
                    .iter()
                    .filter(|s| s.src == src && s.dst == dst)
                    .map(|s| s.entries as f64)
                    .collect();
                if !xs.is_empty() {
                    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                    println!("  {src} -> {dst}: {mean:>8.0}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion::core::messages::WireFormat;

    fn cli(list: &[&str]) -> Result<Cli, UsageError> {
        parse_cli(Args::new(list.iter().map(|s| s.to_string())))
    }

    #[test]
    fn flags_parse_through_shared_args() {
        let c = cli(&["--system", "prague3", "--env", "dynamic-sys-a", "--gpu"]).unwrap();
        assert_eq!(c.spec.system, SystemKind::Prague(3));
        assert_eq!(c.env, EnvId::DynamicSysA);
        assert!(c.gpu);
        assert_eq!(c.spec.wire, WireFormat::Dense);
        let c = cli(&["--wire", "topk:15"]).unwrap();
        assert_eq!(c.spec.wire, WireFormat::TopK(15.0));
    }

    #[test]
    fn bad_values_name_the_flag() {
        assert_eq!(cli(&["--system", "bogus"]).unwrap_err().flag, "--system");
        assert_eq!(cli(&["--env", "nowhere"]).unwrap_err().flag, "--env");
        assert_eq!(cli(&["--duration", "long"]).unwrap_err().flag, "--duration");
        assert_eq!(cli(&["--wire", "fp8"]).unwrap_err().flag, "--wire");
        assert_eq!(cli(&["--what"]).unwrap_err().flag, "--what");
    }

    /// Numbers outside a flag's range are usage errors naming the range,
    /// not a panic in `RunConfig::validate`, a run that never ends, or a
    /// value silently clamped by the shard split.
    #[test]
    fn out_of_range_numbers_are_usage_errors() {
        let cases = [
            ("--lr", "nan", "finite and above zero"),
            ("--lr", "-1", "finite and above zero"),
            ("--lr", "0", "finite and above zero"),
            ("--duration", "-1", "finite and above zero"),
            ("--duration", "nan", "finite and above zero"),
            ("--duration", "inf", "finite and above zero"),
            ("--skew", "2", "[0, 1]"),
            ("--skew", "nan", "[0, 1]"),
        ];
        for (flag, value, range) in cases {
            let e = cli(&[flag, value]).unwrap_err();
            assert_eq!(e.flag, flag, "{flag} {value}");
            assert!(e.reason.contains(range), "{flag} {value}: {e}");
        }
        let c = cli(&["--lr", "0.1", "--duration", "60", "--skew", "1"]).unwrap();
        assert_eq!(
            (c.spec.lr, c.duration, c.skew),
            (Some(0.1), 60.0, Some(1.0))
        );
    }

    #[test]
    fn scenario_flag_expands_against_the_env() {
        let c = cli(&[
            "--scenario",
            "outage:Mumbai@5/stragglers:2,2",
            "--iters",
            "20",
        ])
        .unwrap();
        let plan = scenario_plan(&c, 6).unwrap().unwrap();
        assert_eq!(plan.fault.kills.len(), 1, "one Mumbai worker among 6");
        assert_eq!(plan.fault.kills[0].worker, 3);
        assert_eq!(plan.straggle.len(), 2);
        // Without --iters the kill window derives from --duration.
        let c = cli(&["--scenario", "outage:Mumbai", "--duration", "100"]).unwrap();
        let plan = scenario_plan(&c, 6).unwrap().unwrap();
        assert_eq!(
            plan.fault.kills[0].at_iter, 25,
            "mid-run of 100s / 2s per iter"
        );
        // Malformed and unexpandable specs surface as usage errors.
        assert_eq!(
            cli(&["--scenario", "quake"]).unwrap_err().flag,
            "--scenario"
        );
    }

    #[test]
    fn topology_flag_parses_and_validates_against_env_size() {
        let c = cli(&["--topology", "kregular:2"]).unwrap();
        assert_eq!(c.spec.topology, Topology::KRegular { k: 2 });
        let c = cli(&["--topology", "hier:3"]).unwrap();
        assert_eq!(c.spec.topology, Topology::Hier { g: 3 });
        // Hub 9 does not exist in a 6-worker environment; a typed usage
        // error names the flag instead of panicking in the runner.
        let e = cli(&["--topology", "star:9"]).unwrap_err();
        assert_eq!(e.flag, "--topology");
        assert_eq!(
            cli(&["--topology", "mesh5"]).unwrap_err().flag,
            "--topology"
        );
        // Degree 6 does not fit 6 workers (k must be < n).
        assert_eq!(
            cli(&["--topology", "kregular:6"]).unwrap_err().flag,
            "--topology"
        );
    }
}
