//! `dlion-stackbench` — the repo's benchmark for the whole stack.
//!
//! Four workloads run against the *public* APIs of the existing crates
//! (nothing outside this package changes, and no metric needs a new flag,
//! feature or environment variable in the program):
//!
//! | workload | what runs |
//! |---|---|
//! | `sim_paper` | `ClusterRunner`, DLion on DynamicSysA — one figure cell |
//! | `sim_scale` | `ClusterRunner`, 1024 Baseline workers on `kregular:8`, batch 1 |
//! | `live_tcp` | `run_worker` × 2 over loopback TCP, pinned training clock |
//! | `wire_exchange` | `loopback_mesh(3)` moving 1–5 MB frames, no compute |
//!
//! `stackbench run` measures one workload in one process; `suite` gathers
//! a complete set of runs; `compare` holds two sets against the regression
//! bounds. See `README.md` in this directory and `BENCHMARK.json` at the
//! repo root.

pub mod compare;
pub mod live;
pub mod metrics;
pub mod obs;
pub mod probe;
pub mod procfs;
pub mod run;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod walk;
pub mod wire;

/// Workload size: the benchmark's own, or a toy size for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}
