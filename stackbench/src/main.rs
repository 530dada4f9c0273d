//! `stackbench` — command-line entry of the whole-stack benchmark.
//!
//! ```text
//! stackbench run --workload W --seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE]
//! stackbench suite --out FILE [--seeds 10] [--seed-base 1] [--seconds 15] [--quick]
//! stackbench compare A.json B.json
//! ```

use dlion_core::args::{Args, UsageError};
use dlion_stackbench::compare::{compare, suite, SuiteArgs};
use dlion_stackbench::run::{run, RunArgs, Workload};
use dlion_stackbench::Size;
use std::path::PathBuf;

const USAGE: &str = "usage:
  stackbench run --workload sim_paper|sim_scale|live_tcp|wire_exchange --seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE]
  stackbench suite --out FILE [--seeds 10] [--seed-base 1] [--seconds 15] [--quick]
  stackbench compare A.json B.json";

fn parse_run(mut args: Args) -> Result<RunArgs, UsageError> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 15.0f64, false);
    let (mut size, mut trace_out) = (Size::Full, None);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--workload" => {
                workload = Some(args.parse_with(&flag, |s| {
                    Workload::parse(s).ok_or_else(|| format!("unknown workload '{s}'"))
                })?)
            }
            "--seed" => seed = args.parse(&flag)?,
            "--seconds" => seconds = args.parse(&flag)?,
            "--trace" => {
                trace = args.parse_with(&flag, |s| match s {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err("expected 0 or 1".to_string()),
                })?
            }
            "--quick" => size = Size::Quick,
            "--trace-out" => trace_out = Some(PathBuf::from(args.value(&flag)?)),
            _ => return Err(UsageError::unknown(flag)),
        }
    }
    let workload = workload.ok_or_else(|| UsageError::new("--workload", "required"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(UsageError::new("--seconds", "must be in (0, 60]"));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        size,
        trace_out: trace_out.unwrap_or_else(|| {
            PathBuf::from(format!("stackbench/out/trace_{}.jsonl", workload.name()))
        }),
    })
}

fn parse_suite(mut args: Args) -> Result<SuiteArgs, UsageError> {
    let mut a = SuiteArgs {
        out: PathBuf::new(),
        seeds: 10,
        seed_base: 1,
        seconds: 15,
        quick: false,
    };
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--out" => a.out = PathBuf::from(args.value(&flag)?),
            "--seeds" => a.seeds = args.parse(&flag)?,
            "--seed-base" => a.seed_base = args.parse(&flag)?,
            "--seconds" => a.seconds = args.parse(&flag)?,
            "--quick" => a.quick = true,
            _ => return Err(UsageError::unknown(flag)),
        }
    }
    if a.out.as_os_str().is_empty() {
        return Err(UsageError::new("--out", "required"));
    }
    if a.seeds < 2 {
        return Err(UsageError::new("--seeds", "a set needs at least two seeds"));
    }
    Ok(a)
}

fn main() {
    let mut args = Args::from_env();
    let usage = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("stackbench: {e}\n{USAGE}");
        std::process::exit(2)
    };
    let code = match args.next_flag().as_deref() {
        Some("run") => run(parse_run(args).unwrap_or_else(|e| usage(&e))),
        Some("suite") => {
            let a = parse_suite(args).unwrap_or_else(|e| usage(&e));
            suite(&a).unwrap_or_else(|e| {
                eprintln!("stackbench: {e}");
                1
            })
        }
        Some("compare") => match (args.next_flag(), args.next_flag(), args.next_flag()) {
            (Some(a), Some(b), None) => {
                compare(PathBuf::from(a).as_path(), PathBuf::from(b).as_path()).unwrap_or_else(
                    |e| {
                        eprintln!("stackbench: {e}");
                        2
                    },
                )
            }
            _ => usage(&"compare takes exactly two files"),
        },
        Some(other) => usage(&format!("unknown command '{other}'")),
        None => usage(&"no command"),
    };
    std::process::exit(code);
}
