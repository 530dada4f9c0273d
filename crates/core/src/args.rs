//! Shared command-line parsing for the `dlion-*` binaries.
//!
//! All three CLIs (`dlion-sim`, `dlion-live`, `dlion-worker`) used to
//! carry their own hand-rolled flag loop that exited the process on the
//! first malformed value. This module gives them one vocabulary:
//! [`Args`] walks the argument list, and every failure is a typed
//! [`UsageError`] carrying the offending flag and a reason — `main`
//! prints exactly one coherent message (error + usage) instead of
//! panicking or silently swallowing which flag was wrong.
//!
//! On top of the cursor sits [`RunSpec`]: the typed union of every flag
//! the three binaries share. Each binary's parse loop first offers a
//! flag to the spec ([`RunSpec::apply_flag`] /
//! [`RunSpec::apply_sim_flag`]) and only handles its own extras when the
//! spec declines — so a new shared flag (e.g. `--virtual`) is defined
//! once, here, and `dlion-live --transport procs` children inherit it
//! automatically through [`RunSpec::to_argv`], which emits exactly the
//! non-default flags (spec → argv → spec is a lossless round trip).

use crate::config::SystemKind;
use crate::fault::FaultPlan;
use crate::messages::{WireFormat, DEFAULT_CHUNK_BYTES};
use dlion_topo::Topology;
use std::collections::VecDeque;
use std::fmt;
use std::net::SocketAddr;
use std::str::FromStr;

/// A command-line problem tied to the flag that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError {
    /// The flag (or stray token) that could not be handled.
    pub flag: String,
    /// What was wrong with it.
    pub reason: String,
}

impl UsageError {
    pub fn new(flag: impl Into<String>, reason: impl Into<String>) -> Self {
        UsageError {
            flag: flag.into(),
            reason: reason.into(),
        }
    }

    /// The error for a flag the binary does not know.
    pub fn unknown(flag: impl Into<String>) -> Self {
        UsageError::new(flag, "unknown flag")
    }
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.reason)
    }
}

impl std::error::Error for UsageError {}

/// Cursor over the raw argument list. Typical use:
///
/// ```
/// # use dlion_core::args::{Args, UsageError};
/// fn parse(mut args: Args) -> Result<u64, UsageError> {
///     let mut seed = 1u64;
///     while let Some(flag) = args.next_flag() {
///         match flag.as_str() {
///             "--seed" => seed = args.parse(&flag)?,
///             _ => return Err(UsageError::unknown(flag)),
///         }
///     }
///     Ok(seed)
/// }
/// assert_eq!(parse(Args::new(["--seed".into(), "7".into()])), Ok(7));
/// assert!(parse(Args::new(["--seed".into()])).is_err());
/// ```
pub struct Args {
    argv: VecDeque<String>,
}

impl Args {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Self {
        Args {
            argv: std::env::args().skip(1).collect(),
        }
    }

    pub fn new(argv: impl IntoIterator<Item = String>) -> Self {
        Args {
            argv: argv.into_iter().collect(),
        }
    }

    /// The next flag token, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.argv.pop_front()
    }

    /// The value following `flag`; errors if the list is exhausted.
    pub fn value(&mut self, flag: &str) -> Result<String, UsageError> {
        self.argv
            .pop_front()
            .ok_or_else(|| UsageError::new(flag, "missing value"))
    }

    /// Parse `flag`'s value with its type's `FromStr`.
    pub fn parse<T>(&mut self, flag: &str) -> Result<T, UsageError>
    where
        T: FromStr,
        T::Err: fmt::Display,
    {
        let raw = self.value(flag)?;
        raw.parse()
            .map_err(|e| UsageError::new(flag, format!("bad value '{raw}': {e}")))
    }

    /// Parse `flag`'s value with a custom parser returning `Err(reason)`
    /// on failure (system names, peer lists, fault plans, ...).
    pub fn parse_with<T>(
        &mut self,
        flag: &str,
        parser: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, UsageError> {
        let raw = self.value(flag)?;
        parser(&raw).map_err(|reason| UsageError::new(flag, reason))
    }
}

/// Parse a `--straggle` spec: comma-separated `W:F` pairs, e.g.
/// `2:3` or `0:1.5,2:4` — worker `W` runs `F`× slower on the training
/// clock. Factors must be positive and finite and no worker may be named
/// twice (the domain `RunConfig::validate` asserts).
pub fn parse_straggle(s: &str) -> Result<Vec<(usize, f64)>, String> {
    let mut out: Vec<(usize, f64)> = Vec::new();
    for part in s.split(',') {
        let (w, f) = part
            .split_once(':')
            .ok_or_else(|| format!("expected W:F, got '{part}'"))?;
        let w: usize = w.parse().map_err(|_| format!("bad worker id '{w}'"))?;
        let f: f64 = f.parse().map_err(|_| format!("bad factor '{f}'"))?;
        // NaN factors must also be rejected, hence not `f <= 0.0`.
        if !(f > 0.0 && f.is_finite()) {
            return Err(format!("factor must be positive and finite, got {f}"));
        }
        if out.iter().any(|&(seen, _)| seen == w) {
            return Err(format!("worker {w} is straggled twice"));
        }
        out.push((w, f));
    }
    Ok(out)
}

/// A span of seconds (`--stall-secs`, `--peer-timeout`,
/// `--gbs-adjust-period`, `--assumed-iter-time`):
/// finite and above zero. A negative, NaN or infinite span makes no
/// `Duration`, and a zero period never moves on.
fn parse_secs(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|e| format!("bad value '{s}': {e}"))?;
    if !(v > 0.0 && v.is_finite()) {
        return Err(format!("seconds must be finite and above zero, got {s}"));
    }
    Ok(v)
}

/// A count of frames or bytes (`--queue-cap`, `--chunk-bytes`): at least
/// one.
fn parse_count(s: &str) -> Result<usize, String> {
    match s.parse() {
        Ok(0) => Err("must be at least 1".into()),
        Ok(v) => Ok(v),
        Err(e) => Err(format!("bad value '{s}': {e}")),
    }
}

/// Parse a `host:port,host:port,…` peer list (`--peers`).
pub fn parse_peers(s: &str) -> Result<Vec<SocketAddr>, String> {
    let addrs: Result<Vec<SocketAddr>, String> = s
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse()
                .map_err(|_| format!("bad peer address '{p}' (want host:port)"))
        })
        .collect();
    let addrs = addrs?;
    if addrs.len() < 2 {
        return Err("need at least two peer addresses".into());
    }
    Ok(addrs)
}

/// The CLI spelling of a system name — the exact token
/// [`SystemKind::parse`] accepts back.
fn system_cli_name(system: SystemKind) -> String {
    match system {
        SystemKind::MaxNOnly(n) => format!("max{n}"),
        SystemKind::Prague(g) => format!("prague{g}"),
        other => other.name().to_ascii_lowercase(),
    }
}

/// The typed union of every flag the `dlion-*` binaries share.
///
/// A binary's parse loop offers each flag to the spec first and handles
/// its own extras only when the spec declines (`Ok(false)`):
///
/// ```
/// # use dlion_core::args::{Args, RunSpec, UsageError};
/// fn parse(mut args: Args) -> Result<RunSpec, UsageError> {
///     let mut spec = RunSpec::default();
///     while let Some(flag) = args.next_flag() {
///         if spec.apply_flag(&flag, &mut args)? {
///             continue;
///         }
///         return Err(UsageError::unknown(flag));
///     }
///     Ok(spec)
/// }
/// let spec = parse(Args::new(["--workers".into(), "8".into(),
///                             "--virtual".into(), "4".into()])).unwrap();
/// assert_eq!((spec.workers, spec.virtual_ranks), (8, 4));
/// ```
///
/// [`RunSpec::to_argv`] inverts the parse: it emits exactly the
/// non-default flags, so `spec → argv → spec` round-trips losslessly
/// (property-tested below) and a procs-mode parent can hand its whole
/// configuration to child processes without naming each flag.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    pub system: SystemKind,
    pub seed: u64,
    /// Total logical worker (rank) count.
    pub workers: usize,
    /// Virtual ranks per host process (`--virtual R`): 1 keeps the
    /// classic one-rank-per-process layout; R > 1 puts R ranks on each
    /// host, sharing its links (see `dlion_net::tcp`).
    pub virtual_ranks: usize,
    pub iters: u64,
    pub eval_every: u64,
    pub train: Option<usize>,
    pub test: Option<usize>,
    pub lr: Option<f32>,
    pub wire: WireFormat,
    pub chunk_bytes: usize,
    pub topology: Topology,
    pub queue_cap: usize,
    pub bw_mbps: f64,
    pub assumed_iter_time: Option<f64>,
    pub stall_secs: f64,
    pub peer_timeout: Option<f64>,
    pub fault: FaultPlan,
    pub straggle: Vec<(usize, f64)>,
    /// Generated chaos (`--scenario NAME[:ARGS][/...]`). Carried
    /// symbolically: [`RunSpec::to_argv`] re-emits the raw spec (never
    /// the expanded `--kill`/`--straggle`), so spawned children expand
    /// the identical plan themselves from `(spec, workers, seed, iters)`.
    pub scenario: Option<crate::scenario::ScenarioSpec>,
    pub gbs_adjust_period: Option<f64>,
    pub trace_out: Option<String>,
    pub telemetry: bool,
    pub csv: Option<String>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            system: SystemKind::DLion,
            seed: 1,
            workers: 3,
            virtual_ranks: 1,
            iters: 30,
            eval_every: 0,
            train: None,
            test: None,
            lr: None,
            wire: WireFormat::Dense,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            topology: Topology::FullMesh,
            queue_cap: 64,
            bw_mbps: 1000.0,
            assumed_iter_time: None,
            stall_secs: 60.0,
            peer_timeout: None,
            fault: FaultPlan::default(),
            straggle: Vec::new(),
            scenario: None,
            gbs_adjust_period: None,
            trace_out: None,
            telemetry: false,
            csv: None,
        }
    }
}

impl RunSpec {
    /// Offer one flag from the subset shared with `dlion-sim` (the
    /// simulator has no live-transport knobs, so live-only flags like
    /// `--iters` stay unknown there instead of being silently accepted).
    /// Returns `Ok(true)` if the flag was consumed.
    pub fn apply_sim_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, UsageError> {
        match flag {
            "--system" => {
                self.system = args.parse_with(flag, |s| {
                    SystemKind::parse(s).ok_or_else(|| format!("unknown system '{s}'"))
                })?
            }
            "--seed" => self.seed = args.parse(flag)?,
            "--lr" => self.lr = Some(args.parse(flag)?),
            "--wire" => self.wire = args.parse_with(flag, WireFormat::parse)?,
            "--topology" => self.topology = args.parse_with(flag, Topology::parse)?,
            "--scenario" => {
                self.scenario = Some(args.parse_with(flag, crate::scenario::ScenarioSpec::parse)?)
            }
            "--trace-out" => self.trace_out = Some(args.value(flag)?),
            "--telemetry" => self.telemetry = true,
            "--csv" => self.csv = Some(args.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Offer one flag from the full shared set (sim subset plus the live
    /// backend's knobs). Returns `Ok(true)` if the flag was consumed.
    pub fn apply_flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, UsageError> {
        if self.apply_sim_flag(flag, args)? {
            return Ok(true);
        }
        match flag {
            "--workers" => self.workers = args.parse(flag)?,
            "--virtual" => self.virtual_ranks = args.parse(flag)?,
            "--iters" => self.iters = args.parse(flag)?,
            "--eval-every" => self.eval_every = args.parse(flag)?,
            "--train" => self.train = Some(args.parse(flag)?),
            "--test" => self.test = Some(args.parse(flag)?),
            "--chunk-bytes" => self.chunk_bytes = args.parse_with(flag, parse_count)?,
            "--queue-cap" => self.queue_cap = args.parse_with(flag, parse_count)?,
            "--bw-mbps" => self.bw_mbps = args.parse(flag)?,
            "--assumed-iter-time" => {
                self.assumed_iter_time = Some(args.parse_with(flag, parse_secs)?)
            }
            "--stall-secs" => self.stall_secs = args.parse_with(flag, parse_secs)?,
            "--peer-timeout" => self.peer_timeout = Some(args.parse_with(flag, parse_secs)?),
            "--kill" => self.fault = args.parse_with(flag, FaultPlan::parse)?,
            "--straggle" => self.straggle = args.parse_with(flag, parse_straggle)?,
            "--gbs-adjust-period" => {
                self.gbs_adjust_period = Some(args.parse_with(flag, parse_secs)?)
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Cross-flag validation shared by `dlion-live` and `dlion-worker`
    /// (each adds its own transport-specific checks on top).
    pub fn validate(&self) -> Result<(), UsageError> {
        if self.workers < 2 {
            return Err(UsageError::new("--workers", "need at least 2 workers"));
        }
        if self.virtual_ranks == 0 {
            return Err(UsageError::new(
                "--virtual",
                "need at least 1 rank per host",
            ));
        }
        if self.virtual_ranks > self.workers {
            return Err(UsageError::new(
                "--virtual",
                format!(
                    "{} ranks per host exceeds the {}-worker cluster",
                    self.virtual_ranks, self.workers
                ),
            ));
        }
        self.fault
            .validate(self.workers, self.iters)
            .map_err(|e| UsageError::new("--kill", e))?;
        let chaos_flag = if self.scenario.is_some() {
            if !self.fault.is_empty() || !self.straggle.is_empty() {
                return Err(UsageError::new(
                    "--scenario",
                    "combines with --kill/--straggle; pick one chaos source",
                ));
            }
            "--scenario"
        } else {
            "--kill"
        };
        // Expansion can fail (e.g. a region outage that leaves no survivor
        // is repaired, but a zero-worker plan cannot be); surface that at
        // parse time, not mid-run.
        let (fault, _) = self.chaos().map_err(|e| UsageError::new("--scenario", e))?;
        // A paused rank stays a member, so its neighbors wait for it: a
        // pause as long as the stall timeout fails the run.
        for k in &fault.kills {
            if let Some(r) = k.rejoin_after.filter(|&r| r >= self.stall_secs) {
                return Err(UsageError::new(
                    chaos_flag,
                    format!(
                        "worker {} pauses {r} s, not under --stall-secs {}: its peers would stall",
                        k.worker, self.stall_secs
                    ),
                ));
            }
        }
        for &(w, _) in &self.straggle {
            if w >= self.workers {
                return Err(UsageError::new(
                    "--straggle",
                    format!("worker {w} out of range for {} workers", self.workers),
                ));
            }
        }
        self.topology
            .validate(self.workers, self.seed)
            .map_err(|e| UsageError::new("--topology", e.reason))?;
        Ok(())
    }

    /// The chaos this spec injects on the live path: the explicit
    /// `--kill`/`--straggle` flags, or — when `--scenario` is given —
    /// the generated plan's fault/straggler parts. Pure in
    /// `(scenario, workers, seed, iters)`, so every process parsing the
    /// same argv (parent and spawned children alike) derives identical
    /// chaos. [`RunSpec::configure`] writes it into the config.
    pub fn chaos(&self) -> Result<(FaultPlan, Vec<(usize, f64)>), String> {
        match &self.scenario {
            None => Ok((self.fault.clone(), self.straggle.clone())),
            Some(sc) => {
                // The live backend ignores the capacity/bandwidth factor
                // schedules, so any positive horizon expands the same
                // fault/straggle; use the nominal one-second iteration.
                let plan = crate::scenario::generate(sc, self.workers, self.seed, self.iters, {
                    (self.iters as f64).max(1.0)
                })?;
                Ok((plan.fault, plan.straggle))
            }
        }
    }

    /// Number of host processes this spec spans: `ceil(workers / virtual)`.
    pub fn host_count(&self) -> usize {
        self.workers.div_ceil(self.virtual_ranks)
    }

    /// Reconcile a `--peers` list of `peers` addresses with `--workers` /
    /// `--virtual`. Peer addresses name HOSTS (each carries `virtual`
    /// ranks): without an explicit `--workers` the list sizes the
    /// cluster, with one it must match the spec's host count.
    pub fn size_from_peers(&mut self, peers: usize, workers_given: bool) -> Result<(), UsageError> {
        if !workers_given {
            self.workers = peers * self.virtual_ranks;
        } else if peers != self.host_count() {
            return Err(UsageError::new(
                "--peers",
                format!(
                    "{peers} addresses but --workers {} --virtual {} needs {} hosts",
                    self.workers,
                    self.virtual_ranks,
                    self.host_count()
                ),
            ));
        }
        Ok(())
    }

    /// The single spec → config mapping: apply everything that describes
    /// the *run* — workload sizes, learning rate, wire format, topology
    /// and the chaos plan (explicit `--kill`/`--straggle` or the
    /// `--scenario` expansion) — to a config (typically one from
    /// `live_config(spec.system, spec.seed)`). Both backends read these
    /// fields from the config and nowhere else. The pure execution knobs
    /// (iters, queue caps, timeouts) go to
    /// `LiveOpts::from_spec`. Fails only on a `--scenario` that cannot
    /// expand, which [`RunSpec::validate`] reports first.
    pub fn configure(&self, cfg: &mut crate::config::RunConfig) -> Result<(), UsageError> {
        (cfg.fault, cfg.straggle) = self.chaos().map_err(|e| UsageError::new("--scenario", e))?;
        if let Some(v) = self.train {
            cfg.workload.train_size = v;
        }
        if let Some(v) = self.test {
            cfg.workload.test_size = v;
        }
        if let Some(v) = self.lr {
            cfg.lr = v;
        }
        if let Some(v) = self.gbs_adjust_period {
            cfg.gbs.adjust_period_secs = v;
        }
        cfg.wire = self.wire;
        cfg.topology = self.topology;
        cfg.telemetry = self.telemetry;
        Ok(())
    }

    /// Emit exactly the flags that differ from [`RunSpec::default`], in a
    /// fixed order, such that parsing them back through
    /// [`RunSpec::apply_flag`] reproduces `self` bit-for-bit.
    pub fn to_argv(&self) -> Vec<String> {
        let d = RunSpec::default();
        let mut argv = Vec::new();
        let mut flag = |name: &str, value: Option<String>| {
            argv.push(name.to_string());
            argv.extend(value);
        };
        if self.system != d.system {
            flag("--system", Some(system_cli_name(self.system)));
        }
        if self.seed != d.seed {
            flag("--seed", Some(self.seed.to_string()));
        }
        if self.workers != d.workers {
            flag("--workers", Some(self.workers.to_string()));
        }
        if self.virtual_ranks != d.virtual_ranks {
            flag("--virtual", Some(self.virtual_ranks.to_string()));
        }
        if self.iters != d.iters {
            flag("--iters", Some(self.iters.to_string()));
        }
        if self.eval_every != d.eval_every {
            flag("--eval-every", Some(self.eval_every.to_string()));
        }
        if let Some(v) = self.train {
            flag("--train", Some(v.to_string()));
        }
        if let Some(v) = self.test {
            flag("--test", Some(v.to_string()));
        }
        if let Some(v) = self.lr {
            flag("--lr", Some(v.to_string()));
        }
        if self.wire != d.wire {
            flag("--wire", Some(self.wire.render()));
        }
        if self.chunk_bytes != d.chunk_bytes {
            flag("--chunk-bytes", Some(self.chunk_bytes.to_string()));
        }
        if self.topology != d.topology {
            flag("--topology", Some(self.topology.render()));
        }
        if self.queue_cap != d.queue_cap {
            flag("--queue-cap", Some(self.queue_cap.to_string()));
        }
        if self.bw_mbps != d.bw_mbps {
            flag("--bw-mbps", Some(self.bw_mbps.to_string()));
        }
        if let Some(v) = self.assumed_iter_time {
            flag("--assumed-iter-time", Some(v.to_string()));
        }
        if self.stall_secs != d.stall_secs {
            flag("--stall-secs", Some(self.stall_secs.to_string()));
        }
        if let Some(v) = self.peer_timeout {
            flag("--peer-timeout", Some(v.to_string()));
        }
        if !self.fault.is_empty() {
            flag("--kill", Some(self.fault.render()));
        }
        if !self.straggle.is_empty() {
            let spec = self
                .straggle
                .iter()
                .map(|(w, f)| format!("{w}:{f}"))
                .collect::<Vec<_>>()
                .join(",");
            flag("--straggle", Some(spec));
        }
        if let Some(sc) = &self.scenario {
            flag("--scenario", Some(sc.render()));
        }
        if let Some(v) = self.gbs_adjust_period {
            flag("--gbs-adjust-period", Some(v.to_string()));
        }
        if let Some(v) = &self.trace_out {
            flag("--trace-out", Some(v.clone()));
        }
        if self.telemetry {
            flag("--telemetry", None);
        }
        if let Some(v) = &self.csv {
            flag("--csv", Some(v.clone()));
        }
        argv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn walks_flags_and_values() {
        let mut a = args(&["--iters", "30", "--label", "x"]);
        assert_eq!(a.next_flag().as_deref(), Some("--iters"));
        assert_eq!(a.parse::<u64>("--iters").unwrap(), 30);
        assert_eq!(a.next_flag().as_deref(), Some("--label"));
        assert_eq!(a.value("--label").unwrap(), "x");
        assert_eq!(a.next_flag(), None);
    }

    #[test]
    fn errors_carry_the_offending_flag() {
        let mut a = args(&["--iters"]);
        a.next_flag();
        let e = a.parse::<u64>("--iters").unwrap_err();
        assert_eq!(e.flag, "--iters");
        assert!(e.reason.contains("missing"));

        let mut a = args(&["--iters", "soon"]);
        a.next_flag();
        let e = a.parse::<u64>("--iters").unwrap_err();
        assert_eq!(e.flag, "--iters");
        assert!(e.reason.contains("soon"), "{e}");
        assert!(format!("{e}").starts_with("--iters:"));
    }

    /// Tiny deterministic generator for the round-trip property test.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    fn random_spec(rng: &mut Lcg) -> RunSpec {
        let mut s = RunSpec {
            workers: 2 + rng.below(14) as usize,
            ..RunSpec::default()
        };
        if rng.chance(50) {
            s.system = [
                SystemKind::Baseline,
                SystemKind::Ako,
                SystemKind::Gaia,
                SystemKind::Hop,
                SystemKind::DLionNoWu,
                SystemKind::DLionNoDbwu,
                SystemKind::MaxNOnly(0.5 + rng.below(100) as f64 / 2.0),
                SystemKind::Prague(2 + rng.below(4) as usize),
            ][rng.below(8) as usize];
        }
        if rng.chance(50) {
            s.seed = rng.next();
        }
        if rng.chance(30) {
            s.virtual_ranks = 1 + rng.below(s.workers as u64) as usize;
        }
        if rng.chance(50) {
            s.iters = 1 + rng.below(200);
        }
        if rng.chance(30) {
            s.eval_every = rng.below(50);
        }
        if rng.chance(30) {
            s.train = Some(100 + rng.below(10_000) as usize);
        }
        if rng.chance(30) {
            s.test = Some(50 + rng.below(1_000) as usize);
        }
        if rng.chance(30) {
            s.lr = Some(rng.below(1000) as f32 / 1001.0);
        }
        if rng.chance(40) {
            s.wire = [
                WireFormat::Fp16,
                WireFormat::Int8,
                WireFormat::TopK(1.0 + rng.below(99) as f64 / 2.0),
            ][rng.below(3) as usize];
        }
        if rng.chance(30) {
            s.chunk_bytes = 1 << (6 + rng.below(14));
        }
        if rng.chance(40) {
            s.topology = [
                Topology::Ring,
                Topology::Star { hub: 0 },
                Topology::KRegular { k: 1 },
                Topology::Groups { g: 2 },
            ][rng.below(4) as usize];
        }
        if rng.chance(30) {
            s.queue_cap = 1 + rng.below(512) as usize;
        }
        if rng.chance(30) {
            s.bw_mbps = 1.0 + rng.below(10_000) as f64 / 7.0;
        }
        if rng.chance(30) {
            s.assumed_iter_time = Some(rng.below(1000) as f64 / 999.0 + 0.001);
        }
        if rng.chance(30) {
            s.stall_secs = 1.0 + rng.below(300) as f64 / 3.0;
        }
        if rng.chance(30) {
            s.peer_timeout = Some(0.1 + rng.below(100) as f64 / 10.0);
        }
        if rng.chance(30) {
            let worker = rng.below(s.workers as u64) as usize;
            let rejoin = rng.chance(50).then(|| 0.5 + rng.below(20) as f64 / 4.0);
            s.fault = FaultPlan {
                kills: vec![KillSpec {
                    worker,
                    at_iter: 1 + rng.below(s.iters.max(2) - 1),
                    rejoin_after: rejoin,
                }],
            };
        }
        if rng.chance(30) {
            s.straggle = vec![(
                rng.below(s.workers as u64) as usize,
                1.0 + rng.below(40) as f64 / 8.0,
            )];
        }
        if rng.chance(30) {
            let specs = [
                "diurnal",
                "diurnal:120,0.25",
                "outage:Mumbai@5+1.5",
                "spotstorm:2@3",
                "stragglers:2,1.5",
                "diurnal:600,0.5/outage:Oregon@4/stragglers:1,2",
            ];
            let raw = specs[rng.below(specs.len() as u64) as usize];
            s.scenario = Some(crate::scenario::ScenarioSpec::parse(raw).unwrap());
        }
        if rng.chance(30) {
            s.gbs_adjust_period = Some(0.05 + rng.below(100) as f64 / 100.0);
        }
        if rng.chance(20) {
            s.trace_out = Some(format!("/tmp/t{}.jsonl", rng.below(100)));
        }
        if rng.chance(30) {
            s.telemetry = true;
        }
        if rng.chance(20) {
            s.csv = Some(format!("/tmp/c{}.csv", rng.below(100)));
        }
        s
    }

    fn reparse(argv: Vec<String>) -> RunSpec {
        let mut spec = RunSpec::default();
        let mut args = Args::new(argv);
        while let Some(flag) = args.next_flag() {
            assert!(
                spec.apply_flag(&flag, &mut args).unwrap(),
                "to_argv emitted a flag apply_flag does not know: {flag}"
            );
        }
        spec
    }

    use crate::config::SystemKind;
    use crate::fault::{FaultPlan, KillSpec};
    use crate::messages::WireFormat;
    use dlion_topo::Topology;

    #[test]
    fn spec_to_argv_to_spec_round_trips() {
        let mut rng = Lcg(0x5EED_CAFE);
        for case in 0..400 {
            let spec = random_spec(&mut rng);
            let argv = spec.to_argv();
            let back = reparse(argv.clone());
            assert_eq!(spec, back, "case {case}: argv {argv:?}");
        }
        // The default spec needs no flags at all.
        assert!(RunSpec::default().to_argv().is_empty());
    }

    #[test]
    fn spec_validates_cross_flag_constraints() {
        let mut s = RunSpec {
            workers: 4,
            ..RunSpec::default()
        };
        s.validate().unwrap();
        s.virtual_ranks = 5;
        assert_eq!(s.validate().unwrap_err().flag, "--virtual");
        s.virtual_ranks = 2;
        s.validate().unwrap();
        s.straggle = vec![(9, 2.0)];
        assert_eq!(s.validate().unwrap_err().flag, "--straggle");
        s.straggle.clear();
        s.fault = FaultPlan::parse("9@5").unwrap();
        assert_eq!(s.validate().unwrap_err().flag, "--kill");
        s.fault = FaultPlan::default();
        s.workers = 1;
        assert_eq!(s.validate().unwrap_err().flag, "--workers");
    }

    /// Survivors wait for a paused rank; a pause of at least the stall
    /// timeout would fail the run after `--stall-secs`, so it is refused
    /// up front, from `--kill` and from a `--scenario` expansion alike.
    #[test]
    fn a_pause_the_stall_timeout_would_cut_short_is_refused() {
        let mut s = RunSpec {
            workers: 4,
            iters: 20,
            ..RunSpec::default()
        };
        s.fault = FaultPlan::parse("1@5+59.5").unwrap();
        s.validate().unwrap();
        for kill in ["1@5+90", "1@5+60", "0@2,1@5+60"] {
            s.fault = FaultPlan::parse(kill).unwrap();
            let e = s.validate().unwrap_err();
            assert_eq!(e.flag, "--kill", "{kill}: {e}");
        }
        s.stall_secs = 120.0;
        s.fault = FaultPlan::parse("1@5+90").unwrap();
        s.validate().unwrap();
        s.fault = FaultPlan::default();
        s.scenario = Some(crate::scenario::ScenarioSpec::parse("spotstorm:2@5+120").unwrap());
        assert_eq!(s.validate().unwrap_err().flag, "--scenario");
        s.scenario = Some(crate::scenario::ScenarioSpec::parse("spotstorm:2@5+3").unwrap());
        s.validate().unwrap();
    }

    #[test]
    fn scenario_flag_parses_expands_and_excludes_explicit_chaos() {
        let mut spec = RunSpec {
            workers: 6,
            ..RunSpec::default()
        };
        let mut a = args(&["outage:Mumbai@5/stragglers:2,2"]);
        assert!(spec.apply_sim_flag("--scenario", &mut a).unwrap());
        spec.validate().unwrap();
        let (fault, straggle) = spec.chaos().unwrap();
        // Worker 3 is the only Mumbai resident among 6 workers.
        assert_eq!(fault.kills.len(), 1);
        assert_eq!(fault.kills[0].worker, 3);
        assert_eq!(fault.kills[0].at_iter, 5);
        assert_eq!(straggle.len(), 2);
        // Same argv, same expansion: what a spawned child would derive.
        let back = reparse(spec.to_argv());
        assert_eq!(back.chaos().unwrap(), spec.chaos().unwrap());
        // Mixing generated and explicit chaos is ambiguous; reject it.
        spec.straggle = vec![(1, 2.0)];
        assert_eq!(spec.validate().unwrap_err().flag, "--scenario");
        spec.straggle.clear();
        spec.fault = FaultPlan::parse("1@3").unwrap();
        assert_eq!(spec.validate().unwrap_err().flag, "--scenario");
        // A malformed spec names the flag.
        let mut a = args(&["quake:9"]);
        let e = spec.apply_sim_flag("--scenario", &mut a).unwrap_err();
        assert_eq!(e.flag, "--scenario");
    }

    #[test]
    fn configure_is_the_one_spec_to_config_mapping() {
        use crate::config::RunConfig;
        let mut spec = RunSpec {
            workers: 6,
            wire: WireFormat::Fp16,
            fault: FaultPlan::parse("1@3").unwrap(),
            straggle: vec![(2, 3.0)],
            ..RunSpec::default()
        };
        let mut cfg = RunConfig::small_test(SystemKind::Baseline);
        spec.configure(&mut cfg).unwrap();
        assert_eq!(cfg.wire, WireFormat::Fp16);
        assert_eq!(cfg.fault, spec.fault);
        assert_eq!(cfg.straggle, vec![(2, 3.0)]);
        // A scenario expands into the same two fields.
        spec.fault = FaultPlan::default();
        spec.straggle.clear();
        let sc = "outage:Mumbai@5/stragglers:2,2";
        spec.scenario = Some(crate::scenario::ScenarioSpec::parse(sc).unwrap());
        spec.configure(&mut cfg).unwrap();
        assert_eq!(
            (cfg.fault.clone(), cfg.straggle.clone()),
            spec.chaos().unwrap()
        );
        assert_eq!(cfg.fault.kills[0].worker, 3);
    }

    #[test]
    fn peer_lists_size_or_check_the_host_count() {
        let mut s = RunSpec {
            virtual_ranks: 3,
            ..RunSpec::default()
        };
        // No explicit --workers: two host addresses x 3 ranks each.
        s.size_from_peers(2, false).unwrap();
        assert_eq!((s.workers, s.host_count()), (6, 2));
        // Explicit --workers: the list must match the HOST count.
        s.size_from_peers(2, true).unwrap();
        assert_eq!(s.size_from_peers(6, true).unwrap_err().flag, "--peers");
    }

    #[test]
    fn host_count_is_ceil_division() {
        let mut s = RunSpec {
            workers: 8,
            virtual_ranks: 4,
            ..RunSpec::default()
        };
        assert_eq!(s.host_count(), 2);
        s.workers = 9;
        assert_eq!(s.host_count(), 3);
        s.virtual_ranks = 1;
        assert_eq!(s.host_count(), 9);
    }

    /// Each of these used to panic (`Duration::from_secs_f64`, a zero-slot
    /// channel, the LBS controller's period) or hang inside a run; each is
    /// a usage error naming its flag now.
    #[test]
    fn knobs_that_would_panic_or_hang_a_run_are_usage_errors() {
        let refused = [
            ("--queue-cap", "0"),
            ("--chunk-bytes", "0"),
            ("--stall-secs", "-1"),
            ("--stall-secs", "nan"),
            ("--peer-timeout", "-1"),
            ("--peer-timeout", "inf"),
            ("--gbs-adjust-period", "0"),
            ("--assumed-iter-time", "0"),
            ("--assumed-iter-time", "-0.05"),
        ];
        for (flag, value) in refused {
            let e = RunSpec::default()
                .apply_flag(flag, &mut args(&[value]))
                .unwrap_err();
            assert_eq!(e.flag, flag, "{flag} {value}: {e}");
        }
        let mut spec = RunSpec::default();
        assert!(spec.apply_flag("--queue-cap", &mut args(&["1"])).unwrap());
        assert_eq!(spec.queue_cap, 1);
    }

    #[test]
    fn sim_subset_declines_live_only_flags() {
        let mut spec = RunSpec::default();
        let mut a = args(&["42"]);
        assert!(spec.apply_sim_flag("--seed", &mut a).unwrap());
        assert_eq!(spec.seed, 42);
        let mut a = args(&["10"]);
        assert!(!spec.apply_sim_flag("--iters", &mut a).unwrap());
    }

    #[test]
    fn straggle_spec_parses_and_rejects_bad_factors() {
        assert_eq!(parse_straggle("2:3").unwrap(), vec![(2, 3.0)]);
        assert_eq!(
            parse_straggle("0:1.5,2:4").unwrap(),
            vec![(0, 1.5), (2, 4.0)]
        );
        assert!(parse_straggle("2").is_err());
        assert!(parse_straggle("2:0").is_err());
        assert!(parse_straggle("2:-1").is_err());
        assert!(parse_straggle("2:NaN").is_err());
        assert!(parse_straggle("2:inf").is_err());
        // The live driver would read the first factor, the runner the last.
        assert!(parse_straggle("1:2,1:3").is_err());
    }

    #[test]
    fn peer_lists_need_two_valid_addresses() {
        let peers = parse_peers("127.0.0.1:7000,127.0.0.1:7001").unwrap();
        assert_eq!(peers.len(), 2);
        assert!(parse_peers("127.0.0.1:7000").is_err());
        assert!(parse_peers("nonsense").is_err());
    }

    #[test]
    fn custom_parser_reasons_surface() {
        let mut a = args(&["--system", "bogus"]);
        a.next_flag();
        let e = a
            .parse_with("--system", |s| {
                Err::<u8, _>(format!("unknown system '{s}'"))
            })
            .unwrap_err();
        assert_eq!(e, UsageError::new("--system", "unknown system 'bogus'"));
        assert_eq!(UsageError::unknown("--bad").reason, "unknown flag");
    }
}
