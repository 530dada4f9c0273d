//! The exploratory studies of §3 (Figures 5–7 and 9): the empirical results
//! that motivated the GBS controller, Max N, and DKT designs.

use crate::opts::ExpOpts;
use crate::output::{fmt_pm, fmt_time, Table};
use crate::standard::{config, fan_cells};
use dlion_core::config::ConvergenceCfg;
use dlion_core::{run_with_models, DktConfig, DktMode, RunConfig, SystemKind};
use dlion_microcloud::{
    ClusterKind, EnvId, CPU_COST_PER_SAMPLE, CPU_OVERHEAD, LAN_LATENCY, LAN_MBPS,
};
use dlion_nn::{Dataset, ModelSpec, Sgd};
use dlion_simnet::{ComputeModel, NetworkModel};
use dlion_tensor::{stats, DetRng};

/// Figure 5: model accuracy after a fixed number of epochs, as GBS doubling
/// starts at different epochs. Reproduces the two findings behind the GBS
/// controller: doubling from epoch 0/1 hurts; from epoch ≥ 2 it is safe.
pub fn fig5(opts: &ExpOpts) -> Table {
    let train = opts.train_size(8_000);
    let test = 1_000;
    let epochs = if opts.fast { 5 } else { 15 };
    let initial_gbs = 192; // 6 workers x LBS 32
    let cap = train / 10; // the 10% rule
    let starts: Vec<Option<usize>> = vec![Some(0), Some(1), Some(2), Some(4), Some(8), None];

    let mut t = Table::new(
        "fig5",
        &format!("Accuracy after {epochs} epochs as GBS is doubled starting at different epochs (6 workers, initial LBS 32)"),
        &["GBS doubling start epoch", "Final accuracy", "Total updates"],
    );
    for start in starts {
        let mut accs = Vec::new();
        let mut updates = 0usize;
        for &seed in &opts.seeds {
            let ds = Dataset::synth_vision(train + test, 7);
            let mut rng = DetRng::seed_from_u64(seed);
            let mut model = ModelSpec::Cipher.build(&ds.sample_shape(), ds.classes(), &mut rng);
            let test_idx: Vec<usize> = (train..train + 500).collect();
            let shard: Vec<usize> = (0..train).collect();
            let sgd = Sgd::new(0.3);
            let mut gbs = initial_gbs;
            updates = 0;
            for epoch in 0..epochs {
                // Double at the start of every epoch >= s, capped at 10% of
                // the training set (the speed-up rule's ceiling).
                if let Some(s) = start {
                    if epoch >= s {
                        gbs = (gbs * 2).min(cap.max(initial_gbs));
                    }
                }
                let iters = train.div_ceil(gbs);
                for _ in 0..iters {
                    sgd.step(&mut model, &ds, &shard, gbs, &mut rng);
                    updates += 1;
                }
            }
            accs.push(model.evaluate(&ds, &test_idx, 125).accuracy);
        }
        let label = match start {
            Some(s) => format!("epoch {s}"),
            None => "never (fixed GBS)".to_string(),
        };
        t.row(vec![
            label,
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
            updates.to_string(),
        ]);
    }
    t
}

/// Figure 6: LBS per worker over time as the GBS controller grows the GBS in
/// a heterogeneous compute environment (cores 24/24/12/12/4/4).
pub fn fig6(opts: &ExpOpts) -> Table {
    let mut cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
    cfg.duration = opts.dur(1000.0);
    cfg.workload.train_size = opts.train_size(24_000);
    cfg.profile_interval = 50.0;
    // Mirror the paper's Figure 6 cadence (GBS grows ~every 250 s).
    cfg.gbs.adjust_period_secs = 250.0;
    let compute = ComputeModel::heterogeneous(
        &[24.0, 24.0, 12.0, 12.0, 4.0, 4.0],
        CPU_COST_PER_SAMPLE,
        CPU_OVERHEAD,
    );
    let net = NetworkModel::uniform(6, LAN_MBPS, LAN_LATENCY);
    dlion_telemetry::debug!(target: "experiments.progress","  running DLion LBS trace (hetero cores 24/24/12/12/4/4) ...");
    let m = run_with_models(&cfg, compute, net, "Hetero cores 24/24/12/12/4/4");
    let mut t = Table::new(
        "fig6",
        "LBS adjustment per worker as GBS grows (hetero cores 24/24/12/12/4/4)",
        &["time (s)", "GBS", "w0", "w1", "w2", "w3", "w4", "w5"],
    );
    for (time, parts) in &m.lbs_trace {
        let gbs: usize = parts.iter().sum();
        let mut row = vec![format!("{time:.0}"), gbs.to_string()];
        row.extend(parts.iter().map(|p| p.to_string()));
        t.row(row);
    }
    t
}

/// Figure 7: final accuracy of Max N (integrated with DKT, homogeneous
/// cluster) for different fixed N values — larger N, higher accuracy.
pub fn fig7(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "fig7",
        "Accuracy of Max N with different N values, trained to convergence (homogeneous environment)",
        &["N", "Best accuracy"],
    );
    let ns = [1.0, 10.0, 50.0, 100.0];
    let mut cells = Vec::new();
    for n in ns {
        for &seed in &opts.seeds {
            let mut cfg = RunConfig::paper_default(SystemKind::MaxNOnly(n), ClusterKind::Cpu);
            cfg.seed = seed;
            cfg.duration = opts.dur(2200.0);
            cfg.workload.train_size = opts.train_size(24_000);
            cfg.workload.test_size = if opts.fast { 400 } else { 2000 };
            cfg.eval_subset = if opts.fast { 150 } else { 250 };
            // "integrated with DLion": DKT stays on.
            cfg.dkt = DktConfig::default();
            cfg.converge = Some(ConvergenceCfg {
                window_secs: opts.dur(500.0),
                min_improvement: 0.004,
                min_secs: opts.dur(700.0),
            });
            dlion_telemetry::debug!(target: "experiments.progress","  running Max{n} to convergence / seed {seed} ...");
            cells.push((cfg, EnvId::HomoA));
        }
    }
    let metrics = fan_cells(&cells);
    for (n, runs) in ns.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let accs: Vec<f64> = runs.iter().map(|m| m.best_mean_acc()).collect();
        t.row(vec![
            format!("{n}"),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
        ]);
    }
    t
}

/// Figure 9: the three DKT exploration studies.
pub fn fig9(opts: &ExpOpts) -> Vec<Table> {
    vec![fig9a(opts), fig9b(opts), fig9c(opts)]
}

/// Figure 9a: when-to-send — training time to the target accuracy vs. the
/// weight-exchange period.
fn fig9a(opts: &ExpOpts) -> Table {
    let target = if opts.fast { 0.30 } else { 0.55 };
    let mut t = Table::new(
        "fig9a",
        &format!(
            "DKT when-to-send: time (s) to {:.0}% accuracy vs. exchange period (Homo B)",
            target * 100.0
        ),
        &["Period (iterations)", "Time to target (s)"],
    );
    let periods = [10u64, 100, 500, 1000];
    let mut cells = Vec::new();
    for period in periods {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            cfg.duration = opts.dur(2000.0);
            cfg.dkt.period_iters = period;
            dlion_telemetry::debug!(target: "experiments.progress","  running DKT period {period} / seed {seed} ...");
            cells.push((cfg, EnvId::HomoB));
        }
    }
    let metrics = fan_cells(&cells);
    for (period, runs) in periods.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let mut times = Vec::new();
        let mut reached = true;
        for m in runs {
            match m.time_to_accuracy(target) {
                Some(tt) => times.push(tt),
                None => reached = false,
            }
        }
        t.row(vec![
            period.to_string(),
            if reached {
                fmt_time(Some(stats::mean(&times)))
            } else {
                fmt_time(None)
            },
        ]);
    }
    t
}

/// Figure 9b: whom-to-send — No_DKT vs. DKT_Best2worst vs. DKT_Best2all.
fn fig9b(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "fig9b",
        "DKT whom-to-send: accuracy after 1500 s (Homo B)",
        &["Variant", "Final accuracy"],
    );
    let variants = [
        ("No_DKT", DktMode::Off),
        ("DKT_Best2worst", DktMode::Best2Worst),
        ("DKT_Best2all", DktMode::Best2All),
    ];
    let mut cells = Vec::new();
    for (label, mode) in variants {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            cfg.dkt.mode = mode;
            dlion_telemetry::debug!(target: "experiments.progress","  running {label} / seed {seed} ...");
            cells.push((cfg, EnvId::HomoB));
        }
    }
    let metrics = fan_cells(&cells);
    for ((label, _), runs) in variants.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let accs: Vec<f64> = runs.iter().map(|m| m.tail_mean_acc(3)).collect();
        t.row(vec![
            label.to_string(),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
        ]);
    }
    t
}

/// Figure 9c: how-to-merge — the λ sweep.
fn fig9c(opts: &ExpOpts) -> Table {
    let mut t = Table::new(
        "fig9c",
        "DKT how-to-merge: accuracy after 1500 s vs. merge ratio λ (Homo B)",
        &["lambda", "Final accuracy"],
    );
    let lambdas = [0.0f32, 0.25, 0.5, 0.75, 1.0];
    let mut cells = Vec::new();
    for lambda in lambdas {
        for &seed in &opts.seeds {
            let mut cfg = config(opts, SystemKind::DLion, seed);
            cfg.dkt.lambda = lambda;
            if lambda == 0.0 {
                // λ = 0 is No_DKT; skip the useless weight traffic.
                cfg.dkt.mode = DktMode::Off;
            }
            dlion_telemetry::debug!(target: "experiments.progress","  running lambda {lambda} / seed {seed} ...");
            cells.push((cfg, EnvId::HomoB));
        }
    }
    let metrics = fan_cells(&cells);
    for (lambda, runs) in lambdas.into_iter().zip(metrics.chunks(opts.seeds.len())) {
        let accs: Vec<f64> = runs.iter().map(|m| m.tail_mean_acc(3)).collect();
        t.row(vec![
            format!("{lambda}"),
            fmt_pm(stats::mean(&accs), stats::ci95(&accs)),
        ]);
    }
    t
}
