//! CLI for regenerating the DLion paper's tables and figures.
//!
//! ```text
//! experiments [--seeds N] [--fast] [--out DIR] [--md FILE] <id> [<id> ...] | all | list
//! ```
//!
//! Each id runs once, in the order first given (`verdicts` last, since it
//! reads the CSVs the others write). `--md FILE` replaces the text between
//! FILE's `<!-- RESULTS START -->` and `<!-- RESULTS END -->` markers with
//! every table this run printed, verdicts last; EXPERIMENTS.md's region is
//! `experiments --seeds 3 all --md EXPERIMENTS.md`, and nothing else writes
//! a measured number there.

use dlion_experiments::output::{replace_results, results_region, RESULTS_END, RESULTS_START};
use dlion_experiments::{ExpOpts, Session, ALL_IDS};
use dlion_telemetry::{info, warn};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--seeds N] [--fast] [--out DIR] [--md FILE] <id> [<id> ...]\n\
         ids: {} | all | list",
        ALL_IDS.join(" ")
    );
    std::process::exit(2);
}

/// `path`'s text with its results region replaced by `region`.
fn spliced(path: &str, region: &str) -> Result<String, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    replace_results(&doc, region)
        .ok_or_else(|| format!("{path} lacks the {RESULTS_START} / {RESULTS_END} markers"))
}

fn fail(msg: &str) -> ! {
    eprintln!("experiments: {msg}");
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
    let mut seen = std::collections::HashSet::new();
    ids.retain(|id| seen.insert(id.clone()));
    ids.sort_by_key(|id| id == "verdicts");
    // A report without markers fails now, not after the run.
    if let Some(path) = &md {
        spliced(path, "").unwrap_or_else(|e| fail(&e));
    }

    let opts = ExpOpts::new(seeds, fast, &out);
    let mut session = Session::new(&opts);
    let mut printed = Vec::new();
    let total = Instant::now();
    for id in &ids {
        let started = Instant::now();
        info!(target: "experiments", "=== {id} ===");
        for t in session.run(id) {
            println!("{}", t.render());
            if let Err(e) = t.write_csv(&opts.results_dir) {
                warn!(target: "experiments", "could not write {}.csv: {e}", t.id);
            }
            printed.push(t);
        }
        info!(target: "experiments",
            "=== {id} done in {:.1}s ===",
            started.elapsed().as_secs_f64()
        );
    }
    if let Some(path) = &md {
        let doc =
            spliced(path, &results_region(&printed, seeds, fast)).unwrap_or_else(|e| fail(&e));
        std::fs::write(path, doc).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
    }
    info!(target: "experiments",
        "all done in {:.1}s; CSVs in {}",
        total.elapsed().as_secs_f64(),
        out
    );
}
