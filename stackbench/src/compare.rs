//! `stackbench suite` and `stackbench compare`: complete sets of runs, and
//! the before/after table every later performance claim uses.
//!
//! A *set* is what the acceptance driver gathers: each workload run once
//! per seed with tracing off (plus one traced run per workload for the
//! ledger), every run in its own child process so peak RSS and allocator
//! state never leak between them. `compare` holds two sets against the
//! bounds in [`crate::metrics::END_TO_END`].

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::Workload;
use crate::stats::{iqr_share, median};
use dlion_telemetry::json::{self, escape_into, Json};
use std::path::Path;
use std::process::Command;

pub struct SuiteArgs {
    pub out: std::path::PathBuf,
    pub seeds: u64,
    pub seed_base: u64,
    pub seconds: u64,
    pub quick: bool,
}

fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = format!("{{\"nproc\":{nproc},\"cpu\":");
    escape_into(&cpu, &mut s);
    s.push('}');
    s
}

/// Run one child and return `(detail JSON or null, result JSON)`.
fn child(w: Workload, seed: u64, a: &SuiteArgs, trace: bool) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .filter(|l| json::parse(l).is_ok())
        .ok_or_else(|| format!("{} seed {seed}: no result line", w.name()))?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail:"))
        .unwrap_or("null");
    if !out.status.success() {
        eprintln!(
            "stackbench: {} seed {seed} exited with {}:\n{}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    Ok((detail.to_string(), result.to_string()))
}

/// Run a complete set and write it to `a.out`. Exit code 1 if any run
/// reported `correct: false`.
pub fn suite(a: &SuiteArgs) -> Result<i32, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        for i in 0..=a.seeds {
            // The last run of each workload is the traced one, on the
            // first seed.
            let (seed, trace) = if i == a.seeds {
                (a.seed_base, true)
            } else {
                (a.seed_base + 1000 * i, false)
            };
            let (detail, result) = child(w, seed, a, trace)?;
            all_correct &= result.contains("\"correct\":true");
            eprintln!(
                "stackbench: {} seed {seed} trace {}: {result}",
                w.name(),
                u8::from(trace)
            );
            runs.push(format!(
                "{{\"workload\":\"{}\",\"seed\":{seed},\"trace\":{trace},\"detail\":{detail},\"result\":{result}}}",
                w.name()
            ));
        }
    }
    let doc = format!(
        "{{\"host\":{},\"seconds\":{},\"quick\":{},\"runs\":[\n{}\n]}}\n",
        host_json(),
        a.seconds,
        a.quick,
        runs.join(",\n")
    );
    if let Some(dir) = a.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&a.out, doc).map_err(|e| format!("{}: {e}", a.out.display()))?;
    Ok(i32::from(!all_correct))
}

/// One set, read back: per workload, every run's metric values.
struct Set {
    runs: Vec<Json>,
}

impl Set {
    fn load(path: &Path) -> Result<Set, String> {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Set::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Set, String> {
        match json::parse(text)?.get("runs") {
            Some(Json::Arr(runs)) => Ok(Set { runs: runs.clone() }),
            _ => Err("no `runs` array".into()),
        }
    }

    fn of<'a>(&'a self, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Json> + 'a {
        self.runs.iter().filter(move |r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && matches!(r.get("trace"), Some(Json::Bool(t)) if *t == trace)
        })
    }

    fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.of(workload, trace)
            .filter_map(|r| {
                r.get("result")?
                    .get("metrics")?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    /// `failed / attempted` over every untraced run of the workload.
    fn failure_rate(&self, workload: &str) -> f64 {
        let sum = |key: &str| -> f64 {
            self.of(workload, false)
                .filter_map(|r| r.get("result")?.get(key)?.as_f64())
                .sum()
        };
        sum("failed") / sum("attempted").max(1.0)
    }

    fn all_correct(&self, workload: &str) -> bool {
        self.of(workload, false).all(|r| {
            matches!(
                r.get("result").and_then(|x| x.get("correct")),
                Some(Json::Bool(true))
            )
        })
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Higher => -rel,
        Better::Lower => rel,
    }
}

/// A row's verdict: a median worse by more than the bound is a breach;
/// otherwise a spread wider than the bound on either side leaves the row
/// unresolved, not unchanged.
pub fn verdict(worse: f64, spread_a: f64, spread_b: f64, bound: f64) -> &'static str {
    if worse > bound {
        "BREACH"
    } else if spread_a > bound || spread_b > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Print one row per metric × workload; exit code 1 on any breach, any
/// rise in `ops_failed / ops`, or any incorrect run.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (Set::load(a_path)?, Set::load(b_path)?);
    let mut bad = 0;
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "iqr A", "iqr B", "bound"
    );
    for w in Workload::ALL {
        let w = w.name();
        for m in &END_TO_END {
            let (va, vb) = (a.values(w, false, m.name), b.values(w, false, m.name));
            if va.len() < 2 || vb.len() < 2 {
                println!("{w:<14} {:<14} needs two runs on each side: BREACH", m.name);
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worse_by(ma, mb, m.better);
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            // Set-up spread is reported but, as in the acceptance check,
            // only its median is held to the bound.
            let v = if m.name == "setup_s" {
                verdict(worse, 0.0, 0.0, m.bound)
            } else {
                verdict(worse, sa, sb, m.bound)
            };
            bad += i32::from(v == "BREACH");
            println!(
                "{w:<14} {:<14} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {v}",
                m.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0
            );
        }
        let (fa, fb) = (a.failure_rate(w), b.failure_rate(w));
        if fb > fa || !a.all_correct(w) || !b.all_correct(w) {
            println!(
                "{w:<14} ops_failed/ops {fa:.6} -> {fb:.6}, or an output check failed: BREACH"
            );
            bad += 1;
        }
    }
    // The ledger has no bounds: its rows say where a difference sits.
    println!("\nper-layer ledger (one traced run per side, no verdict):");
    for w in Workload::ALL {
        let w = w.name();
        for m in PER_LAYER {
            let (va, vb) = (a.values(w, true, m.name), b.values(w, true, m.name));
            if let (Some(&x), Some(&y)) = (va.first(), vb.first()) {
                let rel = if x == 0.0 {
                    0.0
                } else {
                    (y - x) / x.abs() * 100.0
                };
                println!(
                    "{w:<14} {:<30} {x:>14.4} {y:>14.4} {rel:>+8.1}% {:<5} moves: {}",
                    m.name, m.unit, m.moves
                );
            }
        }
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_respects_direction() {
        assert!((worse_by(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worse_by(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.11, 0.01, 0.01, 0.10), "BREACH");
        // A breach stays a breach however noisy the sides are.
        assert_eq!(verdict(0.30, 0.5, 0.5, 0.10), "BREACH");
        assert_eq!(verdict(0.02, 0.12, 0.01, 0.10), "unresolved");
        assert_eq!(verdict(-0.30, 0.01, 0.11, 0.10), "unresolved");
        assert_eq!(verdict(0.09, 0.05, 0.05, 0.10), "ok");
        assert_eq!(verdict(-0.50, 0.05, 0.05, 0.10), "ok");
    }

    #[test]
    fn a_set_reads_back() {
        let run = |seed: u64, v: f64| {
            format!(
                "{{\"workload\":\"sim_paper\",\"seed\":{seed},\"trace\":false,\"detail\":null,\
                 \"result\":{{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{\
                 \"iters_per_s\":{{\"value\":{v},\"unit\":\"1/s\"}}}}}}}}"
            )
        };
        let doc = format!(
            "{{\"runs\":[{},{},{}]}}",
            run(1, 10.0),
            run(2, 10.2),
            run(3, 9.9)
        );
        let set = Set::parse(&doc).unwrap();
        assert_eq!(
            set.values("sim_paper", false, "iters_per_s"),
            vec![10.0, 10.2, 9.9]
        );
        assert!(set.values("sim_paper", true, "iters_per_s").is_empty());
        assert_eq!(set.failure_rate("sim_paper"), 0.0);
        assert!(set.all_correct("sim_paper"));
        assert!(Set::parse("{}").is_err());
    }
}
