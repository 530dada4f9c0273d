//! Reproduction-specific ablations beyond the paper's own figures,
//! covering design choices DESIGN.md calls out: the DKT contribution inside
//! full DLion, and the sensitivity of the minimum-N floor (§5.1.4 sets it
//! to 0.85 without exploring it).

use crate::opts::ExpOpts;
use crate::output::{fmt_pm, Table};
use crate::standard::{config, fan_cells};
use dlion_core::{DktConfig, SystemKind};
use dlion_microcloud::EnvId;
use dlion_tensor::stats;

/// The ablation tables and the Prague extension (the topology and
/// scenario extensions are their own ids).
pub fn ablations(opts: &ExpOpts) -> Vec<Table> {
    vec![
        ablation_dkt(opts),
        ablation_min_n(opts),
        extension_prague(opts),
    ]
}

/// Topology extension: DLion over sparse gossip graphs on the constrained
/// WAN — the figure-style sweep of topology vs. final loss vs. gradient
/// wire bytes (DESIGN.md §4i). Covers the static graphs and the rotating
/// schedules (k-regular gossip, Moshpit-style groups, hierarchical
/// aggregators).
pub fn extension_topology(opts: &ExpOpts) -> Table {
    use dlion_core::Topology;
    let mut t = Table::new(
        "extension_topology",
        "DLion over sparse communication topologies (Homo B, 1500 s)",
        &[
            "Topology",
            "Accuracy",
            "Final loss",
            "Gradient MB sent",
            "Iterations",
        ],
    );
    let topos = [
        Topology::FullMesh,
        Topology::Ring,
        Topology::Star { hub: 0 },
        Topology::KRegular { k: 2 },
        Topology::Groups { g: 2 },
        Topology::Hier { g: 2 },
    ];
    let mut cells = Vec::new();
    for topo in topos {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            cfg.topology = topo;
            dlion_telemetry::debug!(target: "experiments.progress","  running DLion on {} / seed {seed} ...", topo.name());
            cells.push((cfg, EnvId::HomoB));
        }
    }
    let metrics = fan_cells(&cells);
    for (topo, runs) in topos.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let mut accs = Vec::new();
        let mut losses = Vec::new();
        let mut bytes = Vec::new();
        let mut iters = Vec::new();
        for m in runs {
            accs.push(m.tail_mean_acc(3));
            losses.push(m.worker_loss.last().map_or(0.0, |row| stats::mean(row)));
            // Source the traffic from the wire ledger so the column matches
            // what `wire_bytes_by_kind` traces report, format for format.
            let grad_wire: f64 = m
                .wire_bytes_by_kind
                .iter()
                .filter(|(k, _)| k.starts_with("grad_"))
                .map(|(_, v)| v)
                .sum();
            bytes.push(grad_wire / 1e6);
            iters.push(m.total_iterations() as f64);
        }
        t.row(vec![
            topo.name(),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
            format!("{:.3}", stats::mean(&losses)),
            format!("{:.0}", stats::mean(&bytes)),
            format!("{:.0}", stats::mean(&iters)),
        ]);
    }
    t
}

/// Scenario extension (DESIGN.md §4k): DLion under generated
/// production-shaped chaos. Every row expands one `--scenario` spec
/// against the Homo B cluster — the same strings (and therefore the
/// bit-identical fault/straggler plans) a live run would get, so the
/// table doubles as the sweep behind EXPERIMENTS.md's scenario section.
pub fn extension_scenario(opts: &ExpOpts) -> Table {
    use dlion_core::run_with_models;
    use dlion_core::scenario::{generate, ScenarioSpec};
    let mut t = Table::new(
        "extension_scenario",
        "DLion under generated chaos scenarios (Homo B, 1500 s)",
        &[
            "Scenario",
            "Accuracy",
            "Final loss",
            "Iterations",
            "Survivors",
        ],
    );
    let specs = [
        "none",
        "diurnal:600,0.5",
        "outage:Oregon@40",
        "spotstorm:2@30+60",
        "stragglers:2,2.5",
        "outage:Oregon@40/stragglers:1,3",
    ];
    let env = EnvId::HomoB.spec();
    let n = env.n_workers();
    let mut cells = Vec::new();
    for sc in specs {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            let mut plan = None;
            if sc != "none" {
                let spec = ScenarioSpec::parse(sc).expect("sweep spec");
                // Same iteration-budget estimate the `dlion-sim` CLI
                // uses for duration-driven runs: ~2 s per round.
                let iters = ((cfg.duration / 2.0) as u64).max(2);
                let p = generate(&spec, n, seed, iters, cfg.duration).expect("sweep plan");
                cfg.fault = p.fault.clone();
                cfg.straggle = p.straggle.clone();
                plan = Some(p);
            }
            dlion_telemetry::debug!(target: "experiments.progress",
                "  running DLion under scenario '{sc}' / seed {seed} ...");
            cells.push((cfg, plan));
        }
    }
    let metrics = dlion_tensor::par::par_map(&cells, |(cfg, plan)| {
        // The resource models are rebuilt per cell (they are not
        // `Clone`): same env spec + same plan -> the same schedules.
        let mut compute = env.compute_model();
        let mut net = env.network_model();
        if let Some(p) = plan {
            p.apply_to_models(&mut compute, &mut net);
        }
        run_with_models(cfg, compute, net, env.name)
    });
    for (sc, runs) in specs.iter().zip(metrics.chunks(opts.seeds.len())) {
        // An evaluation row holds the ranks that finished the run.
        let survivors = runs[0].worker_acc.last().map_or(0, Vec::len);
        let mut accs = Vec::new();
        let mut losses = Vec::new();
        let mut iters = Vec::new();
        for m in runs {
            accs.push(m.tail_mean_acc(3));
            losses.push(m.worker_loss.last().map_or(0.0, |row| stats::mean(row)));
            iters.push(m.total_iterations() as f64);
        }
        t.row(vec![
            sc.to_string(),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
            format!("{:.3}", stats::mean(&losses)),
            format!("{:.0}", stats::mean(&iters)),
            format!("{survivors}/{n}"),
        ]);
    }
    t
}

/// Prague extension (§6 related work): partial all-reduce with different
/// group sizes against DLion on a heterogeneous system.
fn extension_prague(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "extension_prague",
        "Prague-style partial all-reduce vs. DLion on Hetero SYS A (1500 s)",
        &["System", "Accuracy", "Gradient MB sent"],
    );
    let systems = [
        SystemKind::Prague(2),
        SystemKind::Prague(3),
        SystemKind::Prague(6),
        SystemKind::DLion,
    ];
    let mut cells = Vec::new();
    for sys in systems {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            cfg.system = sys;
            if !sys.dkt() {
                cfg.dkt = DktConfig::off();
            }
            dlion_telemetry::debug!(target: "experiments.progress","  running {} / seed {seed} ...", sys.name());
            cells.push((cfg, EnvId::HeteroSysA));
        }
    }
    let metrics = fan_cells(&cells);
    for (sys, runs) in systems.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let mut accs = Vec::new();
        let mut bytes = Vec::new();
        for m in runs {
            accs.push(m.tail_mean_acc(3));
            bytes.push(m.grad_bytes / 1e6);
        }
        t.row(vec![
            sys.name(),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
            format!("{:.0}", stats::mean(&bytes)),
        ]);
    }
    t
}

/// DLion with vs. without DKT, and the deviation across workers — isolates
/// the accuracy contribution of direct knowledge transfer inside the full
/// system.
fn ablation_dkt(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "ablation_dkt",
        "DLion with/without direct knowledge transfer: accuracy and worker deviation after 1500 s",
        &[
            "Environment",
            "DLion acc",
            "DLion-no-DKT acc",
            "DLion dev",
            "no-DKT dev",
        ],
    );
    let envs = [EnvId::HomoB, EnvId::HeteroSysB];
    let mut cells = Vec::new();
    for env in envs {
        for &seed in &opts.seeds {
            let cfg_on = config(opts, SystemKind::DLion, seed);
            let mut cfg_off = config(opts, SystemKind::DLion, seed);
            cfg_off.dkt = DktConfig::off();
            dlion_telemetry::debug!(target: "experiments.progress","  running DKT ablation in {} / seed {seed} ...", env.name());
            cells.push((cfg_on, env));
            cells.push((cfg_off, env));
        }
    }
    let metrics = fan_cells(&cells);
    for (env, runs) in envs.into_iter().zip(metrics.chunks(2 * opts.seeds.len())) {
        let (mut a_on, mut a_off, mut d_on, mut d_off) = (vec![], vec![], vec![], vec![]);
        for pair in runs.chunks(2) {
            let (on, off) = (&pair[0], &pair[1]);
            a_on.push(on.tail_mean_acc(3));
            a_off.push(off.tail_mean_acc(3));
            d_on.push(on.final_acc_std());
            d_off.push(off.final_acc_std());
        }
        t.row(vec![
            env.name().to_string(),
            fmt_pm(stats::mean(&a_on), stats::ci95(&a_on)),
            fmt_pm(stats::mean(&a_off), stats::ci95(&a_off)),
            format!("{:.4}", stats::mean(&d_on)),
            format!("{:.4}", stats::mean(&d_off)),
        ]);
    }
    t
}

/// Sensitivity of the minimum-N floor on a heterogeneous network: too low
/// starves thin links of gradient signal, too high overloads them.
fn ablation_min_n(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "ablation_min_n",
        "Sensitivity of the Max N minimum (paper: 0.85) on Hetero NET A",
        &["min N", "Accuracy", "Gradient MB sent"],
    );
    let floors = [0.085, 0.85, 8.5];
    let mut cells = Vec::new();
    for min_n in floors {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            cfg.min_n = min_n;
            dlion_telemetry::debug!(target: "experiments.progress","  running min_n {min_n} / seed {seed} ...");
            cells.push((cfg, EnvId::HeteroNetA));
        }
    }
    let metrics = fan_cells(&cells);
    for (min_n, runs) in floors.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let mut accs = Vec::new();
        let mut bytes = Vec::new();
        for m in runs {
            accs.push(m.tail_mean_acc(3));
            bytes.push(m.grad_bytes / 1e6);
        }
        t.row(vec![
            format!("{min_n}"),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
            format!("{:.0}", stats::mean(&bytes)),
        ]);
    }
    t
}
