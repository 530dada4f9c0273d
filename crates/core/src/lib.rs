//! # dlion-core
//!
//! The DLion system (HPDC '21) and the four comparison systems the paper
//! evaluates against, all running over the `dlion-simnet` micro-cloud
//! simulator with real SGD inside a virtual clock.
//!
//! ## The three DLion techniques
//!
//! * **Weighted dynamic batching** (§3.2) — [`gbs::GbsController`] grows the
//!   global batch size through warm-up (arithmetic) and speed-up (geometric)
//!   phases; [`lbs`] profiles workers and splits the GBS proportionally to
//!   relative compute power (Eq. 5); [`weighted`] applies the dynamic
//!   batching weight `db_j^k = LBS_j / LBS_k` in the model update (Eq. 7).
//! * **Per-link prioritized gradient exchange** (§3.3) — [`maxn::MaxNPlanner`]
//!   implements the Max N data-quality-assurance selection and the
//!   transmission-speed-assurance inversion from per-link bandwidth budgets
//!   to the largest admissible N.
//! * **Direct knowledge transfer** (§3.4) — [`dkt`] tracks loss averages,
//!   elects the best worker, and merges pulled weights with
//!   `w ← w − λ(w − w_best)`.
//!
//! ## The framework
//!
//! Like the paper's prototype, the comparison systems are plugins: each is a
//! small [`strategy::ExchangeStrategy`] implementation (Baseline, Ako, Gaia,
//! Hop — Table 1's generality claim), combined with a [`sync::SyncPolicy`]
//! (`synch_training` in the paper's API). A worker's main loop (Fig. 10) is
//! split in two: [`round`] is the rank protocol itself — weighted
//! self-update, partial-gradient generation, the post-round sends, model
//! update on arrival, strict-BSP flush, DKT, the planned kill — shared by
//! every backend, and
//! [`runner::ClusterRunner`] plays the Redis queues and the clock for the
//! simulator: event queue, compute/network models, batch-size ticks.

pub mod args;
pub mod clock;
pub mod cluster;
pub mod config;
pub mod dkt;
pub mod fault;
pub mod gbs;
pub mod lbs;
pub mod maxn;
pub mod messages;
pub mod metrics;
pub mod rank;
pub mod record;
pub mod report;
pub mod round;
pub mod runner;
pub mod scenario;
pub mod strategy;
pub mod sync;
pub mod transport;
pub mod weighted;
pub mod worker;

pub use args::{Args, RunSpec, UsageError};
pub use clock::{Clock, ManualClock, SystemClock};
pub use cluster::{build_cluster, ClusterInit};
pub use config::{RunConfig, SystemKind, Workload};
pub use dkt::{DktConfig, DktMode, DktState};
pub use fault::{FaultPlan, KillSpec};
pub use gbs::{GbsConfig, GbsController, GbsPhase};
pub use maxn::MaxNPlanner;
pub use messages::{GradMsg, Payload, WireError};
pub use metrics::{HealthSummary, RunMetrics};
pub use rank::{Host, Input, Output, Outputs, Rank, Wait};
pub use record::{assemble_metrics, EvalPoint, WorkerOutcome};
pub use runner::{run_env, run_with_models, ClusterRunner};
pub use scenario::{ScenarioKind, ScenarioPlan, ScenarioSpec};
pub use strategy::{ExchangeStrategy, PeerUpdate, StrategyCtx};
pub use sync::{SyncPolicy, SyncState};
// Topology types live in `dlion-topo` since PR 8; core re-exports them so
// `dlion_core::Topology` keeps working for every consumer.
pub use dlion_topo::{TopoError, Topology, TopologySchedule};
pub use transport::{mem_mesh, ExchangeTransport, LinkHealth, MemTransport, TransportError};
