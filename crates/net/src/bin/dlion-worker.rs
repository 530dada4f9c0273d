//! `dlion-worker` — one live *host* as its own OS process; the unit
//! `dlion-live --transport procs` composes a cluster from, and the unit
//! you start by hand on each machine of a real multi-host micro-cloud.
//!
//! ```text
//! dlion-worker --id I (--peers HOST:PORT,... | --workers N [--port-base P])
//!              [--virtual R] [shared RunSpec flags...] [--env-label L]
//! ```
//!
//! With the default `--virtual 1` each process hosts exactly one worker
//! (rank) and `--id` is that worker's id. With `--virtual R` the process
//! is a host carrying `R` virtual ranks (ranks `I·R .. min((I+1)·R,
//! workers)`), each with its own `TcpTransport` endpoint over the host's
//! one set of links, and `--id` names the host; the cluster then spans
//! `ceil(workers / R)` processes. Either way the process prints one
//! `outcome:{json}` line per rank it hosted.
//!
//! `--peers` is the primary addressing interface: the comma-separated
//! list names every *host's* listen address, in host-id order, and this
//! process binds the entry at `--id`. `--workers N [--port-base P]` is
//! loopback sugar for `--peers 127.0.0.1:P,127.0.0.1:P+1,...` over the
//! host count — handy on one machine, meaningless across several.
//!
//! Every process rebuilds the *whole* deterministic cluster from the
//! shared [`RunSpec`] flags ([`LiveCluster::new`] is a pure function of
//! the config) and runs the rank slots its host id names — so all processes
//! agree on every worker's shard, initial weights and RNG stream without
//! any central coordinator. With a `--kill` plan naming a hosted rank,
//! that rank departs at the planned iteration (exit code 0, outcome
//! marked departed), or pauses there if the kill has `+R` — the chaos
//! harness for churn testing.

use dlion_core::args::RunSpec;
use dlion_core::{Args, UsageError};
use dlion_net::{
    live_config, loopback_addrs, parse_peers, LiveCluster, LiveError, LiveOpts, TcpTransport,
};
use std::net::{SocketAddr, TcpListener};

#[derive(Debug)]
struct Cli {
    /// Host id: the index into `addrs` this process binds.
    id: usize,
    /// Per-host listen addresses, in host-id order.
    addrs: Vec<SocketAddr>,
    spec: RunSpec,
    env_label: String,
}

fn parse_cli(mut args: Args) -> Result<Cli, UsageError> {
    let mut id: Option<usize> = None;
    let mut workers_given = false;
    let mut port_base = 7300u16;
    let mut peers: Option<Vec<SocketAddr>> = None;
    let mut spec = RunSpec::default();
    let mut env_label = "live/procs".to_string();
    while let Some(flag) = args.next_flag() {
        if flag == "--workers" {
            workers_given = true;
        }
        if spec.apply_flag(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--id" => id = Some(args.parse(&flag)?),
            "--port-base" => port_base = args.parse(&flag)?,
            "--peers" => peers = Some(args.parse_with(&flag, parse_peers)?),
            "--env-label" => env_label = args.value(&flag)?,
            "--help" | "-h" => return Err(UsageError::new(flag, "help requested")),
            _ => return Err(UsageError::unknown(flag)),
        }
    }
    let id = id.ok_or_else(|| UsageError::new("--id", "required"))?;
    let addrs = match peers {
        Some(addrs) => {
            spec.size_from_peers(addrs.len(), workers_given)?;
            addrs
        }
        None if workers_given => loopback_addrs(spec.host_count(), port_base),
        None => {
            return Err(UsageError::new(
                "--workers",
                "required unless --peers is given",
            ))
        }
    };
    spec.validate()?;
    if id >= addrs.len() {
        return Err(UsageError::new("--id", "must be < the number of hosts"));
    }
    Ok(Cli {
        id,
        addrs,
        spec,
        env_label,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: dlion-worker --id I (--peers HOST:PORT,... | --workers N [--port-base P])\n\
         \x20                   [--virtual R] [--system NAME] [--seed N] [--iters K]\n\
         \x20                   [--eval-every K] [--train N] [--test N] [--lr F]\n\
         \x20                   [--queue-cap N] [--bw-mbps F] [--assumed-iter-time S]\n\
         \x20                   [--stall-secs S] [--peer-timeout S] [--kill W@I[+R],...]\n\
         \x20                   [--topology SPEC] [--wire dense|fp16|int8|topk[:N]]\n\
         \x20                   [--chunk-bytes B] [--gbs-adjust-period S] [--straggle W:F,...]\n\
         \x20                   [--env-label L] [--trace-out FILE] [--telemetry]"
    );
    std::process::exit(2);
}

fn main() {
    let cli = parse_cli(Args::from_env()).unwrap_or_else(|e| {
        eprintln!("dlion-worker: {e}");
        usage();
    });
    let spec = &cli.spec;
    let host = cli.id;

    let mut cfg = live_config(spec.system, spec.seed);
    spec.configure(&mut cfg).unwrap_or_else(|e| {
        eprintln!("dlion-worker: {e}");
        usage();
    });
    let opts = LiveOpts::from_spec(spec);

    dlion_telemetry::init_from_env("info");
    if let Some(path) = &spec.trace_out {
        dlion_telemetry::open_trace_file(path).expect("open trace file");
    }

    let listener = TcpListener::bind(cli.addrs[host]).unwrap_or_else(|e| {
        eprintln!("dlion-worker: cannot bind {}: {e}", cli.addrs[host]);
        std::process::exit(1);
    });
    let fail = |what: &str, e: LiveError| -> ! {
        eprintln!("dlion-worker {host}: {what}: {e}");
        std::process::exit(1);
    };

    // Every process builds the identical cluster from the shared flags
    // and runs the rank slots its host id names.
    let cluster = LiveCluster::new(
        &cfg,
        spec.workers,
        spec.virtual_ranks,
        &opts,
        &cli.env_label,
    )
    .unwrap_or_else(|e| fail("bad placement", e));
    let endpoints = TcpTransport::establish_linked(
        host,
        listener,
        &cli.addrs,
        spec.seed,
        &cluster.tcp_opts(),
        &cluster.host_links()[host],
    )
    .unwrap_or_else(|e| fail("mesh setup failed", e));
    let results = cluster.run_ranks(endpoints);
    if spec.trace_out.is_some() {
        dlion_telemetry::stop_trace();
    }
    let mut failed = false;
    for r in results {
        match r {
            Ok(outcome) => println!("outcome:{}", outcome.to_json()),
            Err(e) => {
                eprintln!("dlion-worker {host}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_core::messages::WireFormat;

    fn cli(list: &[&str]) -> Result<Cli, UsageError> {
        parse_cli(Args::new(list.iter().map(|s| s.to_string())))
    }

    #[test]
    fn workers_port_base_is_loopback_sugar() {
        let c = cli(&["--id", "1", "--workers", "3", "--port-base", "7400"]).unwrap();
        assert_eq!(c.addrs, loopback_addrs(3, 7400));
        assert_eq!(c.id, 1);
    }

    #[test]
    fn peers_list_is_primary() {
        let c = cli(&["--id", "0", "--peers", "10.0.0.1:7300,10.0.0.2:7300"]).unwrap();
        assert_eq!(c.addrs.len(), 2);
        assert_eq!(c.spec.workers, 2);
        assert_eq!(c.addrs[1], "10.0.0.2:7300".parse().unwrap());
    }

    #[test]
    fn virtual_ranks_shrink_the_host_list() {
        // 6 ranks over 3 per host = 2 host processes.
        let c = cli(&[
            "--id",
            "1",
            "--workers",
            "6",
            "--virtual",
            "3",
            "--port-base",
            "7500",
        ])
        .unwrap();
        assert_eq!(c.spec.host_count(), 2);
        assert_eq!(c.addrs, loopback_addrs(2, 7500));
        // A peer list sizes hosts, and with --virtual it implies ranks.
        let c = cli(&[
            "--id",
            "0",
            "--virtual",
            "2",
            "--peers",
            "10.0.0.1:7300,10.0.0.2:7300",
        ])
        .unwrap();
        assert_eq!(c.spec.workers, 4);
        // Host/list mismatch is caught when both are given.
        let e = cli(&[
            "--id",
            "0",
            "--workers",
            "6",
            "--virtual",
            "3",
            "--peers",
            "10.0.0.1:7300,10.0.0.2:7300,10.0.0.3:7300",
        ])
        .unwrap_err();
        assert_eq!(e.flag, "--peers");
    }

    #[test]
    fn errors_name_the_offending_flag() {
        assert_eq!(cli(&["--workers", "2"]).unwrap_err().flag, "--id");
        assert_eq!(
            cli(&["--id", "0", "--workers", "two"]).unwrap_err().flag,
            "--workers"
        );
        assert_eq!(
            cli(&["--id", "5", "--workers", "3"]).unwrap_err().flag,
            "--id"
        );
        assert_eq!(cli(&["--id", "0", "--bogus"]).unwrap_err().flag, "--bogus");
    }

    #[test]
    fn wire_flags_parse() {
        let c = cli(&[
            "--id",
            "0",
            "--workers",
            "2",
            "--wire",
            "int8",
            "--chunk-bytes",
            "8192",
        ])
        .unwrap();
        assert_eq!(c.spec.wire, WireFormat::Int8);
        assert_eq!(c.spec.chunk_bytes, 8192);
        let e = cli(&["--id", "0", "--workers", "2", "--wire", "f64"]).unwrap_err();
        assert_eq!(e.flag, "--wire");
    }

    #[test]
    fn straggle_flag_parses() {
        let c = cli(&["--id", "0", "--workers", "3", "--straggle", "2:3,0:1.5"]).unwrap();
        assert_eq!(c.spec.straggle, vec![(2, 3.0), (0, 1.5)]);
        let e = cli(&["--id", "0", "--workers", "2", "--straggle", "2x3"]).unwrap_err();
        assert_eq!(e.flag, "--straggle");
        let e = cli(&["--id", "0", "--workers", "2", "--straggle", "1:0"]).unwrap_err();
        assert_eq!(e.flag, "--straggle");
    }

    #[test]
    fn kill_plans_validate_against_cluster_shape() {
        let ok = cli(&["--id", "0", "--workers", "3", "--kill", "1@10"]).unwrap();
        assert_eq!(ok.spec.fault.kills.len(), 1);
        // Worker 7 does not exist in a 3-worker cluster.
        let e = cli(&["--id", "0", "--workers", "3", "--kill", "7@10"]).unwrap_err();
        assert_eq!(e.flag, "--kill");
    }
}
