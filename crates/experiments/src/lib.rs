//! # dlion-experiments
//!
//! Regenerates every table and figure of the DLion paper's evaluation
//! (§5). Each experiment id maps to one function that runs the required
//! simulations and returns paper-style [`output::Table`]s, which the CLI
//! prints and writes as CSV under `results/`.
//!
//! Run `cargo run -p dlion-experiments --release -- all` (or a single id
//! like `fig11`). `--fast` shrinks durations ~10× for smoke testing;
//! `--seeds N` averages over N seeds (the paper averages 3 runs).

pub mod ablations;
pub mod explore;
pub mod headline;
pub mod opts;
pub mod output;
pub mod standard;
pub mod tables;
pub mod traces;
pub mod verdicts;

pub use opts::ExpOpts;
pub use output::Table;

/// All experiment ids, in paper order (plus reproduction-specific
/// ablations and, last, the shape-check verdicts over the written CSVs).
pub const ALL_IDS: [&str; 23] = [
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "table1",
    "table2",
    "table3",
    "ablations",
    "topology",
    "scenario",
    "verdicts",
];

/// An experiment session: shares the pool of memoized "standard" 1500 s
/// runs across figures (Figures 11/13/14/15/16/17/18 overlap heavily in
/// the `(system, environment, seed)` combinations they need).
pub struct Session {
    opts: ExpOpts,
    pool: standard::StandardRuns,
}

impl Session {
    pub fn new(opts: &ExpOpts) -> Self {
        Session {
            opts: opts.clone(),
            pool: standard::StandardRuns::new(opts),
        }
    }

    /// Run one experiment id. Panics on unknown ids (the CLI validates).
    pub fn run(&mut self, id: &str) -> Vec<Table> {
        let opts = &self.opts;
        match id {
            "fig5" => vec![explore::fig5(opts)],
            "fig6" => vec![explore::fig6(opts)],
            "fig7" => vec![explore::fig7(opts)],
            "fig8" => vec![traces::fig8(opts)],
            "fig9" => explore::fig9(opts),
            "fig11" => vec![headline::fig11(opts, &mut self.pool)],
            "fig12" => vec![headline::fig12(opts)],
            "fig13" => vec![headline::fig13(opts, &mut self.pool)],
            "fig14" => vec![headline::fig14(opts, &mut self.pool)],
            "fig15" => vec![headline::fig15(opts, &mut self.pool)],
            "fig16" => vec![headline::fig16(opts, &mut self.pool)],
            "fig17" => vec![headline::fig17(opts, &mut self.pool)],
            "fig18" => vec![headline::fig18(opts, &mut self.pool)],
            "fig19" => vec![traces::fig19(opts)],
            "fig20" => vec![traces::fig20(opts)],
            "fig21" => vec![headline::fig21(opts)],
            "table1" => vec![tables::table1()],
            "table2" => vec![tables::table2()],
            "table3" => vec![tables::table3()],
            "ablations" => ablations::ablations(opts),
            "topology" => vec![ablations::extension_topology(opts)],
            "scenario" => vec![ablations::extension_scenario(opts)],
            "verdicts" => vec![verdicts::verdicts(&opts.results_dir)],
            other => panic!("unknown experiment id: {other}"),
        }
    }
}

/// Dispatch one experiment id with a one-shot session.
pub fn run_experiment(id: &str, opts: &ExpOpts) -> Vec<Table> {
    Session::new(opts).run(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_reuses_standard_runs_across_figures() {
        // fig11 and fig13 share the (system, Homo A, seed) combinations;
        // a shared session must produce identical Homo A columns without
        // re-simulating (identical because memoized, not just determinism).
        let opts = ExpOpts::fast();
        let mut s = Session::new(&opts);
        let t11 = s.run("fig11").remove(0);
        let t13 = s.run("fig13").remove(0);
        let col = |t: &Table, sys: &str| -> String {
            t.rows.iter().find(|r| r[0] == sys).unwrap()[1].clone()
        };
        for sys in ["Baseline", "DLion"] {
            assert_eq!(col(&t11, sys), col(&t13, sys), "Homo A column for {sys}");
        }
    }

    #[test]
    fn all_ids_dispatch_static_tables() {
        // The data-only tables run instantly and must always succeed.
        let opts = ExpOpts::fast();
        for id in ["table1", "table2", "table3"] {
            let ts = run_experiment(id, &opts);
            assert!(!ts.is_empty());
            assert!(!ts[0].rows.is_empty(), "{id} produced no rows");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment id")]
    fn unknown_id_panics() {
        run_experiment("fig99", &ExpOpts::fast());
    }
}

#[cfg(test)]
#[path = "../tests/scratch/mod.rs"]
pub(crate) mod scratch;
