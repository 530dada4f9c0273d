//! CLI for regenerating the DLion paper's tables and figures.
//!
//! ```text
//! experiments [--seeds N] [--fast] [--out DIR] [--md FILE] <id> [<id> ...] | all | list
//! ```
//!
//! `--md FILE` additionally appends every produced table as GitHub-flavoured
//! markdown to FILE (used to assemble EXPERIMENTS.md).

use dlion_experiments::{ExpOpts, Session, ALL_IDS};
use dlion_telemetry::{info, warn};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--seeds N] [--fast] [--out DIR] <id> [<id> ...]\n\
         ids: {} | all | list",
        ALL_IDS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    // Progress goes through leveled stderr logging (`DLION_LOG` overrides;
    // default info) — stdout stays reserved for the rendered tables.
    dlion_telemetry::init_from_env("info");
    let mut seeds = 1usize;
    let mut fast = false;
    let mut out = "results".to_string();
    let mut md: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--fast" => fast = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--md" => md = Some(args.next().unwrap_or_else(|| usage())),
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            id if ALL_IDS.contains(&id) => ids.push(id.to_string()),
            _ => usage(),
        }
    }
    if ids.is_empty() {
        usage();
    }
    ids.dedup();

    let opts = ExpOpts::new(seeds, fast, &out);
    let mut session = Session::new(&opts);
    let total = Instant::now();
    for id in &ids {
        let started = Instant::now();
        info!(target: "experiments", "=== {id} ===");
        let tables = session.run(id);
        for t in &tables {
            println!("{}", t.render());
            if let Err(e) = t.write_csv(&opts.results_dir) {
                warn!(target: "experiments", "could not write {}.csv: {e}", t.id);
            }
            if let Some(path) = &md {
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .expect("open markdown report");
                writeln!(f, "{}", t.to_markdown()).expect("write markdown report");
            }
        }
        info!(target: "experiments",
            "=== {id} done in {:.1}s ===",
            started.elapsed().as_secs_f64()
        );
    }
    info!(target: "experiments",
        "all done in {:.1}s; CSVs in {}",
        total.elapsed().as_secs_f64(),
        out
    );
}
