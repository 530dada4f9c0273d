//! `dlion-live` — run a real N-worker training cluster on this machine
//! and print the same report `dlion-sim` prints for simulated runs.
//!
//! ```text
//! dlion-live [--transport tcp|mem|procs] [--peers HOST:PORT,...] [--port-base P]
//!            [shared flags: dlion_core::args::SIM_FLAGS and LIVE_FLAGS]
//! ```
//!
//! All shared flags live in [`RunSpec`]; this binary only adds the
//! transport selector and the procs-mode addressing flags. Procs-mode
//! children parse the shared flags exactly as the user typed them
//! ([`child_argv`]), so a new shared flag reaches them without this file
//! naming it.
//!
//! Transports:
//!
//! * `tcp` (default) — every worker is a thread of this process, the
//!   gradients travel over real loopback TCP sockets;
//! * `mem` — same threads, in-process channels instead of sockets;
//! * `procs` — the cluster spans separate `dlion-worker` OS processes
//!   (spawned next to this binary) meshed over explicit `--peers`
//!   addresses (or the `--port-base` loopback sugar); outcomes come back
//!   as JSON on the children's stdout.
//!
//! `--virtual R` places R virtual ranks on every host: `--workers 64
//! --virtual 16 --transport procs` runs the 64-rank cluster on 4 OS
//! processes, one socket mesh between them. With `tcp` the hosts share
//! one process but still talk over per-host loopback links carrying route
//! markers, so the wire matches procs mode; `mem` channels are rank space
//! (one process has no host link to share), so there `--virtual` changes
//! nothing. Strict-BSP runs stay bit-identical to the flat (and
//! simulated) cluster — placement changes where ranks live, not what
//! they compute.
//!
//! `--kill W@I[+R]` injects deterministic churn: worker `W` departs after
//! completing iteration `I`. Survivors demote the departed peer and
//! renormalize their weighted averaging; the run completes and the report
//! covers the surviving membership. With `+R` the worker pauses there for
//! `R` seconds instead, as in the simulator: it stays a member and its
//! peers wait for it (`R` must stay under `--stall-secs`).
//!
//! `--trace-out FILE` is the health plane: a traced run also carries each
//! link's `frame_latency` and the `cluster_health` verdict, which
//! `dlion-top FILE` renders. An untraced run does none of that work.
//!
//! Examples:
//!
//! ```text
//! cargo run --release --bin dlion-live -- --workers 3 --system dlion --iters 60
//! cargo run --release --bin dlion-live -- --workers 8 --virtual 4 --iters 40
//! cargo run --release --bin dlion-live -- --workers 6 --virtual 3 --system baseline \
//!     --transport procs --port-base 7300
//! ```

use dlion_core::args::{child_argv, LIVE_FLAGS, SIM_FLAGS};
use dlion_core::{report, Args, RunSpec, UsageError};
use dlion_net::{
    assemble_metrics, live_config, loopback_addrs, parse_peers, run_live_virtual, LiveOpts,
    TransportKind, WorkerOutcome,
};
use std::io::Read;
use std::net::SocketAddr;

#[derive(Debug)]
struct Cli {
    spec: RunSpec,
    /// Each shared flag as typed, with its values: what procs-mode
    /// children parse.
    shared: Vec<Vec<String>>,
    transport: String,
    peers: Option<Vec<SocketAddr>>,
    port_base: u16,
}

fn parse_cli(mut args: Args) -> Result<Cli, UsageError> {
    let mut cli = Cli {
        spec: RunSpec::default(),
        shared: Vec::new(),
        transport: "tcp".to_string(),
        peers: None,
        port_base: 7300,
    };
    let mut workers_given = false;
    while let Some(flag) = args.next_flag() {
        if flag == "--workers" {
            workers_given = true; // apply_flag consumes it below
        }
        if cli.spec.apply_flag(&flag, &mut args)? {
            cli.shared.push(args.current().to_vec());
            continue;
        }
        match flag.as_str() {
            "--transport" => cli.transport = args.value(&flag)?,
            "--peers" => cli.peers = Some(args.parse_with(&flag, parse_peers)?),
            "--port-base" => cli.port_base = args.parse(&flag)?,
            "--help" | "-h" => return Err(UsageError::new(flag, "help requested")),
            _ => return Err(UsageError::unknown(flag)),
        }
    }
    if !matches!(cli.transport.as_str(), "tcp" | "mem" | "procs") {
        return Err(UsageError::new(
            "--transport",
            format!("'{}' is not tcp, mem or procs", cli.transport),
        ));
    }
    if let Some(peers) = &cli.peers {
        if cli.transport != "procs" {
            return Err(UsageError::new(
                "--peers",
                "explicit addresses need --transport procs (tcp/mem run in-process)",
            ));
        }
        cli.spec.size_from_peers(peers.len(), workers_given)?;
    }
    cli.spec.validate()?;
    Ok(cli)
}

fn usage() -> ! {
    eprint!(
        "usage: dlion-live [--transport tcp|mem|procs] [--peers HOST:PORT,...] [--port-base P]\n\
         {SIM_FLAGS}{LIVE_FLAGS}"
    );
    std::process::exit(2);
}

/// Append each per-host child trace into the parent's file so one
/// `dlion-trace-check` invocation covers the whole procs-mode run. The
/// checker's seq monotonicity is per run scope (`system/env/seed`), and
/// every child writes under its own `…/w{rank}` scopes, so plain
/// concatenation stays valid.
fn merge_child_traces(path: &str, hosts: usize) {
    use std::io::Write;
    let mut out = std::fs::OpenOptions::new()
        .append(true)
        .open(path)
        .expect("open merged trace");
    for h in 0..hosts {
        let part = format!("{path}.w{h}");
        let bytes = std::fs::read(&part).expect("read child trace");
        out.write_all(&bytes).expect("append child trace");
        let _ = std::fs::remove_file(&part);
    }
    out.flush().expect("flush merged trace");
}

fn run_procs(cli: &Cli, env_label: &str) -> Vec<WorkerOutcome> {
    let spec = &cli.spec;
    let hosts = spec.host_count();
    let addrs = cli
        .peers
        .clone()
        .unwrap_or_else(|| loopback_addrs(hosts, cli.port_base));
    let peers_arg = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    // The children rebuild the identical cluster from the tokens this
    // process parsed. Output paths stay with the parent (children get
    // per-host trace files instead, merged after the run).
    let child_argv = child_argv(&cli.shared, spec.workers);
    let exe = std::env::current_exe().expect("current exe");
    let worker_bin = exe.with_file_name("dlion-worker");
    let mut children = Vec::with_capacity(hosts);
    for id in 0..hosts {
        let mut cmd = std::process::Command::new(&worker_bin);
        cmd.args(&child_argv)
            .arg("--id")
            .arg(id.to_string())
            .arg("--peers")
            .arg(&peers_arg)
            .arg("--env-label")
            .arg(env_label)
            .stdout(std::process::Stdio::piped());
        if let Some(path) = &spec.trace_out {
            cmd.arg("--trace-out").arg(format!("{path}.w{id}"));
        }
        children.push(cmd.spawn().unwrap_or_else(|e| {
            eprintln!("dlion-live: cannot spawn {}: {e}", worker_bin.display());
            std::process::exit(1);
        }));
    }
    // Each child prints one outcome line per hosted rank (R of them
    // under --virtual R); the cluster is whole when the rank count
    // matches the spec.
    let mut outcomes = Vec::with_capacity(spec.workers);
    for (id, mut child) in children.into_iter().enumerate() {
        let mut stdout = String::new();
        child
            .stdout
            .take()
            .expect("piped stdout")
            .read_to_string(&mut stdout)
            .expect("read worker stdout");
        let status = child.wait().expect("wait for worker");
        if !status.success() {
            eprintln!("dlion-live: worker host {id} failed ({status})");
            std::process::exit(1);
        }
        for line in stdout.lines().filter_map(|l| l.strip_prefix("outcome:")) {
            outcomes.push(WorkerOutcome::from_json(line).unwrap_or_else(|e| {
                eprintln!("dlion-live: worker host {id} outcome unreadable: {e}");
                std::process::exit(1);
            }));
        }
    }
    if outcomes.len() != spec.workers {
        eprintln!(
            "dlion-live: expected {} rank outcomes, got {}",
            spec.workers,
            outcomes.len()
        );
        std::process::exit(1);
    }
    outcomes
}

fn main() {
    let cli = parse_cli(Args::from_env()).unwrap_or_else(|e| {
        eprintln!("dlion-live: {e}");
        usage();
    });
    let spec = &cli.spec;
    let workers = spec.workers;

    let mut cfg = live_config(spec.system, spec.seed);
    spec.configure(&mut cfg).unwrap_or_else(|e| {
        eprintln!("dlion-live: {e}");
        usage();
    });
    let opts = LiveOpts::from_spec(spec);

    dlion_telemetry::init_from_env("info");
    let env_label = format!("live/{workers}w");
    dlion_telemetry::info!(target: "dlion_live",
        "running {} on {workers} live workers ({}, {} per host) for {} iterations ...",
        spec.system.name(), cli.transport, spec.virtual_ranks, opts.iters);
    if !cfg.fault.is_empty() {
        dlion_telemetry::info!(target: "dlion_live",
            "fault plan: {}", cfg.fault.render());
    }

    let m = match cli.transport.as_str() {
        "tcp" | "mem" => {
            if let Some(path) = &spec.trace_out {
                dlion_telemetry::open_trace_file(path).expect("open trace file");
            }
            let kind = if cli.transport == "tcp" {
                TransportKind::Tcp
            } else {
                TransportKind::Mem
            };
            let ranks_per_host = spec.virtual_ranks;
            let result = run_live_virtual(&cfg, workers, ranks_per_host, &opts, kind, &env_label);
            if spec.trace_out.is_some() {
                dlion_telemetry::stop_trace();
            }
            match result {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("dlion-live: {e}");
                    std::process::exit(1);
                }
            }
        }
        "procs" => {
            let outcomes = run_procs(&cli, &env_label);
            // The parent owns the merged trace: cluster-level events
            // (cluster_health rollups from assemble_metrics) land in
            // `path` first, then the per-host files are appended.
            if let Some(path) = &spec.trace_out {
                dlion_telemetry::open_trace_file(path).expect("open trace file");
            }
            let m = assemble_metrics(&cfg, &env_label, outcomes);
            if let Some(path) = &spec.trace_out {
                dlion_telemetry::stop_trace();
                merge_child_traces(path, spec.host_count());
                dlion_telemetry::info!(target: "dlion_live",
                    "merged per-host traces into {path}");
            }
            m
        }
        _ => unreachable!("transport validated in parse_cli"),
    };

    print!("{}", report::summarize(&m));
    if spec.telemetry {
        println!("\nper-run telemetry:\n{}", m.telemetry.render_table());
    }
    if let Some(path) = &spec.csv {
        let f = std::fs::File::create(path).expect("create csv");
        let mut f = std::io::BufWriter::new(f);
        m.write_timeseries_csv(&mut f).expect("write csv");
        std::io::Write::flush(&mut f).expect("flush csv");
        dlion_telemetry::info!(target: "dlion_live", "time series written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_core::messages::WireFormat;
    use dlion_core::Topology;

    fn cli(list: &[&str]) -> Result<Cli, UsageError> {
        parse_cli(Args::new(list.iter().map(|s| s.to_string())))
    }

    #[test]
    fn defaults_hold_and_kill_plan_parses() {
        let c = cli(&["--kill", "1@10+0.5", "--iters", "40"]).unwrap();
        assert_eq!(c.spec.workers, 3);
        assert_eq!(c.spec.virtual_ranks, 1);
        assert_eq!(c.transport, "tcp");
        assert_eq!(c.spec.fault.kills.len(), 1);
        assert_eq!(c.spec.fault.kills[0].worker, 1);
    }

    #[test]
    fn kill_plan_is_validated_against_workers_and_iters() {
        // Kill iteration beyond the run length is rejected up front.
        let e = cli(&["--iters", "10", "--kill", "1@50"]).unwrap_err();
        assert_eq!(e.flag, "--kill");
        let e = cli(&["--workers", "2", "--kill", "2@5"]).unwrap_err();
        assert_eq!(e.flag, "--kill");
    }

    #[test]
    fn peers_imply_procs_and_set_worker_count() {
        let c = cli(&[
            "--transport",
            "procs",
            "--peers",
            "10.0.0.1:7300,10.0.0.2:7300",
        ])
        .unwrap();
        assert_eq!(c.spec.workers, 2);
        let e = cli(&["--peers", "10.0.0.1:7300,10.0.0.2:7300"]).unwrap_err();
        assert_eq!(e.flag, "--peers");
    }

    #[test]
    fn virtual_ranks_multiply_the_peer_list() {
        // Two host addresses × 3 ranks per host = a 6-rank cluster.
        let c = cli(&[
            "--transport",
            "procs",
            "--virtual",
            "3",
            "--peers",
            "10.0.0.1:7300,10.0.0.2:7300",
        ])
        .unwrap();
        assert_eq!(c.spec.workers, 6);
        assert_eq!(c.spec.host_count(), 2);
        // With --workers explicit the peer list must match the HOST
        // count, not the rank count.
        let c = cli(&[
            "--transport",
            "procs",
            "--workers",
            "6",
            "--virtual",
            "3",
            "--peers",
            "10.0.0.1:7300,10.0.0.2:7300",
        ])
        .unwrap();
        assert_eq!(c.spec.workers, 6);
        let e = cli(&[
            "--transport",
            "procs",
            "--workers",
            "6",
            "--virtual",
            "2",
            "--peers",
            "10.0.0.1:7300,10.0.0.2:7300",
        ])
        .unwrap_err();
        assert_eq!(e.flag, "--peers");
        // In-process transports take --virtual directly.
        let c = cli(&["--workers", "8", "--virtual", "4"]).unwrap();
        assert_eq!((c.spec.workers, c.spec.virtual_ranks), (8, 4));
        let e = cli(&["--workers", "4", "--virtual", "5"]).unwrap_err();
        assert_eq!(e.flag, "--virtual");
    }

    #[test]
    fn procs_children_get_the_shared_flags_as_typed() {
        let c = cli(&[
            "--transport",
            "procs",
            "--virtual",
            "2",
            "--port-base",
            "7451",
            "--scenario",
            "outage:Oregon@2",
            "--trace-out",
            "/tmp/t.jsonl",
            "--telemetry",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(
            child_argv(&c.shared, c.spec.workers),
            [
                "--virtual",
                "2",
                "--scenario",
                "outage:Oregon@2",
                "--telemetry",
                "--seed",
                "9",
                "--workers",
                "3"
            ]
        );
    }

    #[test]
    fn unknown_system_names_the_flag() {
        let e = cli(&["--system", "bogus"]).unwrap_err();
        assert_eq!(e.flag, "--system");
    }

    #[test]
    fn wire_flags_parse() {
        let c = cli(&["--wire", "fp16", "--chunk-bytes", "65536"]).unwrap();
        assert_eq!(c.spec.wire, WireFormat::Fp16);
        assert_eq!(c.spec.chunk_bytes, 65536);
        let c = cli(&["--wire", "topk:5"]).unwrap();
        assert_eq!(c.spec.wire, WireFormat::TopK(5.0));
        let d = cli(&[]).unwrap();
        assert_eq!(d.spec.wire, WireFormat::Dense);
        let e = cli(&["--wire", "fp32"]).unwrap_err();
        assert_eq!(e.flag, "--wire");
        let e = cli(&["--chunk-bytes", "0"]).unwrap_err();
        assert_eq!(e.flag, "--chunk-bytes");
    }

    #[test]
    fn straggle_flag_parses_and_validates() {
        let c = cli(&["--straggle", "2:3"]).unwrap();
        assert_eq!(c.spec.straggle, vec![(2, 3.0)]);
        let d = cli(&[]).unwrap();
        assert!(d.spec.straggle.is_empty());
        // Worker 5 does not exist in the default 3-worker cluster.
        let e = cli(&["--straggle", "5:2"]).unwrap_err();
        assert_eq!(e.flag, "--straggle");
    }

    #[test]
    fn topology_flag_parses_and_validates_against_workers() {
        let c = cli(&["--workers", "4", "--topology", "ring"]).unwrap();
        assert_eq!(c.spec.topology, Topology::Ring);
        let c = cli(&["--workers", "6", "--topology", "kregular:2"]).unwrap();
        assert_eq!(c.spec.topology, Topology::KRegular { k: 2 });
        let d = cli(&[]).unwrap();
        assert_eq!(d.spec.topology, Topology::FullMesh);
        // Hub 5 does not exist in the default 3-worker cluster; the
        // typed validation names the flag instead of panicking later.
        let e = cli(&["--topology", "star:5"]).unwrap_err();
        assert_eq!(e.flag, "--topology");
        let e = cli(&["--topology", "mesh9"]).unwrap_err();
        assert_eq!(e.flag, "--topology");
    }

    #[test]
    fn gbs_flags_parse() {
        let c = cli(&["--gbs-adjust-period", "0.25"]).unwrap();
        assert_eq!(c.spec.gbs_adjust_period, Some(0.25));
        let d = cli(&[]).unwrap();
        assert_eq!(d.spec.gbs_adjust_period, None);
        let e = cli(&["--gbs-adjust-period", "soon"]).unwrap_err();
        assert_eq!(e.flag, "--gbs-adjust-period");
    }
}
