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
//! once, here, and its usage line once, in [`SIM_FLAGS`] / [`LIVE_FLAGS`].
//! The tokens the user typed are the only encoding of a run:
//! `dlion-live --transport procs` keeps each shared flag as typed
//! ([`Args::current`]) and hands its children those tokens
//! ([`child_argv`]), which they parse through the same grammar.

use crate::config::SystemKind;
use crate::fault::FaultPlan;
use crate::messages::{WireFormat, DEFAULT_CHUNK_BYTES};
use dlion_topo::Topology;
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
    argv: Vec<String>,
    /// Index of the next unread token.
    next: usize,
    /// Index of the token [`Args::next_flag`] returned last.
    flag_at: usize,
}

impl Args {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Self {
        Args::new(std::env::args().skip(1))
    }

    pub fn new(argv: impl IntoIterator<Item = String>) -> Self {
        Args {
            argv: argv.into_iter().collect(),
            next: 0,
            flag_at: 0,
        }
    }

    /// The next flag token, if any.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag_at = self.next;
        self.take()
    }

    fn take(&mut self) -> Option<String> {
        let token = self.argv.get(self.next).cloned();
        self.next += usize::from(token.is_some());
        token
    }

    /// The last flag and the values read after it, as typed.
    pub fn current(&self) -> &[String] {
        &self.argv[self.flag_at..self.next]
    }

    /// The value following `flag`; errors if the list is exhausted.
    pub fn value(&mut self, flag: &str) -> Result<String, UsageError> {
        self.take()
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

/// A rate or a span of seconds (`--lr`, `--stall-secs`, `--peer-timeout`,
/// `--gbs-adjust-period`, `--assumed-iter-time`, `dlion-sim --duration`):
/// finite and above zero. A NaN, negative or zero value fails
/// `RunConfig::validate` or makes no `Duration`, a zero period never moves
/// on, and an infinite run never ends.
pub fn parse_positive<T>(s: &str) -> Result<T, String>
where
    T: FromStr + Into<f64> + Copy,
    T::Err: fmt::Display,
{
    let v: T = s.parse().map_err(|e| format!("bad value '{s}': {e}"))?;
    if !(v.into() > 0.0 && v.into().is_finite()) {
        return Err(format!("must be finite and above zero, got {s}"));
    }
    Ok(v)
}

/// A share in [0, 1] (`dlion-sim --skew`). NaN is refused too.
pub fn parse_unit(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|e| format!("bad value '{s}': {e}"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("must be in [0, 1], got {s}"));
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
/// A spec has no way back to flags: a procs-mode parent forwards the
/// tokens it parsed ([`child_argv`]), so a child re-parses exactly what
/// the user typed (property-tested below).
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
    /// symbolically: procs-mode children get the flag as typed (never
    /// the expanded `--kill`/`--straggle`) and expand the identical plan
    /// themselves from `(spec, workers, seed, iters)`.
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
                    SystemKind::parse(s).ok_or_else(|| {
                        format!("unknown system '{s}' (maxN takes 0 < N <= 100, pragueG G >= 2)")
                    })
                })?
            }
            "--seed" => self.seed = args.parse(flag)?,
            "--lr" => self.lr = Some(args.parse_with(flag, parse_positive)?),
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
            "--bw-mbps" => self.bw_mbps = args.parse_with(flag, parse_positive)?,
            "--assumed-iter-time" => {
                self.assumed_iter_time = Some(args.parse_with(flag, parse_positive)?)
            }
            "--stall-secs" => self.stall_secs = args.parse_with(flag, parse_positive)?,
            "--peer-timeout" => self.peer_timeout = Some(args.parse_with(flag, parse_positive)?),
            "--kill" => self.fault = args.parse_with(flag, FaultPlan::parse)?,
            "--straggle" => self.straggle = args.parse_with(flag, parse_straggle)?,
            "--gbs-adjust-period" => {
                self.gbs_adjust_period = Some(args.parse_with(flag, parse_positive)?)
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
    /// `LiveOpts::from_spec`. Fails on a `--scenario` that cannot expand
    /// (which [`RunSpec::validate`] reports first), on fewer training
    /// samples than workers and on a test set smaller than the config's
    /// eval subset.
    pub fn configure(&self, cfg: &mut crate::config::RunConfig) -> Result<(), UsageError> {
        (cfg.fault, cfg.straggle) = self.chaos().map_err(|e| UsageError::new("--scenario", e))?;
        if let Some(v) = self.train {
            cfg.workload.train_size = v;
        }
        if let Some(v) = self.test {
            cfg.workload.test_size = v;
        }
        if cfg.workload.train_size < self.workers {
            return Err(UsageError::new(
                "--train",
                format!(
                    "must be at least --workers ({}), a sample per worker; got {}",
                    self.workers, cfg.workload.train_size
                ),
            ));
        }
        if cfg.workload.test_size < cfg.eval_subset {
            return Err(UsageError::new(
                "--test",
                format!(
                    "must be at least the eval subset ({}); got {}",
                    cfg.eval_subset, cfg.workload.test_size
                ),
            ));
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
}

/// What a `dlion-live --transport procs` child parses ahead of its own
/// addressing flags: the parent's shared flags as typed and in order
/// (`shared` holds each one as [`Args::current`] gave it after
/// [`RunSpec::apply_flag`] took it), minus the parent's output paths
/// `--trace-out` and `--csv`, then `--workers` with the rank count the
/// parent resolved, which overrides any typed one. Parsed through the same
/// grammar it gives the child the parent's spec without those two paths.
pub fn child_argv(shared: &[Vec<String>], workers: usize) -> Vec<String> {
    let mut argv: Vec<String> = shared
        .iter()
        .filter(|f| !matches!(f[0].as_str(), "--trace-out" | "--csv"))
        .flatten()
        .cloned()
        .collect();
    argv.extend(["--workers".to_string(), workers.to_string()]);
    argv
}

/// Usage lines of the flags [`RunSpec::apply_sim_flag`] takes; every
/// binary prints them after its own first line.
pub const SIM_FLAGS: &str = "  [--system baseline|ako|gaia|hop|dlion|dlion-no-wu|dlion-no-dbwu|maxN|pragueG]
  [--seed N] [--lr F] [--wire dense|fp16|int8|topk[:N]]
  [--topology full|ring|star:H|kregular:K|groups:G|hier:G]
  [--scenario diurnal[:P[,D]]|outage:REGION[@I[+R]]|spotstorm[:C][@I][+R]|stragglers[:C[,A]] (joined with /)]
  [--trace-out FILE] [--telemetry] [--csv FILE]
";

/// Usage lines of the flags [`RunSpec::apply_flag`] adds to
/// [`SIM_FLAGS`]; the live binaries print both.
pub const LIVE_FLAGS: &str =
    "  [--workers N] [--virtual R] [--iters K] [--eval-every K] [--train N] [--test N]
  [--chunk-bytes B] [--queue-cap N] [--bw-mbps F] [--assumed-iter-time S]
  [--stall-secs S] [--peer-timeout S] [--kill W@I[+R],...] [--straggle W:F,...]
  [--gbs-adjust-period S]
";

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

    /// Tiny deterministic generator for the argv property test.
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

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len() as u64) as usize]
        }
    }

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A parent's parse as `dlion-live` runs it: shared flags through
    /// `apply_flag`, kept as typed, beside its own `--transport`,
    /// `--port-base` and `--peers`. Returns the spec, the kept tokens and
    /// the host count the children are addressed over.
    fn parse_parent(argv: &[String]) -> Result<(RunSpec, Vec<Vec<String>>, usize), UsageError> {
        let mut spec = RunSpec::default();
        let mut shared = Vec::new();
        let mut peers = None;
        let mut workers_given = false;
        let mut args = Args::new(argv.iter().cloned());
        while let Some(flag) = args.next_flag() {
            workers_given |= flag == "--workers";
            if spec.apply_flag(&flag, &mut args)? {
                shared.push(args.current().to_vec());
                continue;
            }
            match flag.as_str() {
                "--transport" | "--port-base" => drop(args.value(&flag)?),
                "--peers" => peers = Some(args.parse_with(&flag, parse_peers)?.len()),
                _ => return Err(UsageError::unknown(flag)),
            }
        }
        if let Some(peers) = peers {
            spec.size_from_peers(peers, workers_given)?;
        }
        spec.validate()?;
        let hosts = spec.host_count();
        Ok((spec, shared, hosts))
    }

    /// The shared half of `dlion-worker`'s grammar, with a `--peers` list
    /// of `hosts` addresses after `argv`.
    fn parse_child(argv: Vec<String>, hosts: usize) -> RunSpec {
        let mut spec = RunSpec::default();
        let mut workers_given = false;
        let mut args = Args::new(argv);
        while let Some(flag) = args.next_flag() {
            workers_given |= flag == "--workers";
            assert!(
                spec.apply_flag(&flag, &mut args).unwrap(),
                "the child's grammar refuses {flag}"
            );
        }
        spec.size_from_peers(hosts, workers_given).unwrap();
        spec.validate().unwrap();
        spec
    }

    /// A random parent argv: shared flags (some typed twice) and the
    /// parent's own, in random order. Most are valid; `parse_parent`
    /// decides.
    fn random_argv(rng: &mut Lcg) -> Vec<String> {
        let workers = if rng.chance(70) { 2 + rng.below(14) } else { 3 };
        let iters = if rng.chance(50) {
            1 + rng.below(200)
        } else {
            30
        };
        let virt = 1 + rng.below(workers);
        let mut flags: Vec<Vec<String>> = Vec::new();
        let mut flag = |keep: bool, name: &str, value: Option<String>| {
            if keep {
                flags.push(std::iter::once(name.to_string()).chain(value).collect());
            }
        };
        let systems = [
            "baseline",
            "ako",
            "gaia",
            "hop",
            "dlion",
            "dlion-no-wu",
            "DLion-no-dbwu",
            "max5",
            "max0.85",
            "prague2",
            "prague(3)",
        ];
        flag(rng.chance(50), "--system", Some(rng.pick(&systems).into()));
        flag(rng.chance(50), "--seed", Some(rng.next().to_string()));
        flag(rng.chance(10), "--seed", Some("7".into()));
        let typed = workers != 3 || rng.chance(30);
        flag(typed, "--workers", Some(workers.to_string()));
        flag(rng.chance(30), "--virtual", Some(virt.to_string()));
        flag(iters != 30, "--iters", Some(iters.to_string()));
        flag(
            rng.chance(30),
            "--eval-every",
            Some(rng.below(50).to_string()),
        );
        flag(
            rng.chance(30),
            "--train",
            Some((100 + rng.below(10_000)).to_string()),
        );
        flag(
            rng.chance(30),
            "--test",
            Some((100 + rng.below(1_000)).to_string()),
        );
        flag(
            rng.chance(30),
            "--lr",
            Some(rng.pick(&["0.05", "1e-3", "0.3"]).into()),
        );
        let wires = ["dense", "fp16", "int8", "topk", "topk:25", "topk:0.5"];
        flag(rng.chance(40), "--wire", Some(rng.pick(&wires).into()));
        flag(
            rng.chance(30),
            "--chunk-bytes",
            Some((1u64 << (6 + rng.below(14))).to_string()),
        );
        let topologies = ["full", "ring", "star", "star:1", "kregular:1", "groups:2"];
        flag(
            rng.chance(40),
            "--topology",
            Some(rng.pick(&topologies).into()),
        );
        flag(
            rng.chance(30),
            "--queue-cap",
            Some((1 + rng.below(512)).to_string()),
        );
        flag(
            rng.chance(30),
            "--bw-mbps",
            Some(rng.pick(&["125.5", "1e3", "0.5"]).into()),
        );
        flag(rng.chance(30), "--assumed-iter-time", Some("0.05".into()));
        flag(
            rng.chance(30),
            "--stall-secs",
            Some((1 + rng.below(300)).to_string()),
        );
        flag(rng.chance(30), "--peer-timeout", Some("2.5".into()));
        let victim = rng.below(workers);
        let at = 1 + rng.below(iters);
        let rejoin = if rng.chance(50) { "" } else { "+0.5" };
        flag(
            rng.chance(20),
            "--kill",
            Some(format!("{victim}@{at}{rejoin}")),
        );
        flag(
            rng.chance(20),
            "--straggle",
            Some(format!("{}:2.5", rng.below(workers))),
        );
        let scenarios = [
            "diurnal",
            "diurnal:120,0.25",
            "outage:Mumbai@1+1.5",
            "spotstorm:1@1",
            "stragglers:1,1.5",
            "diurnal:600,0.5/outage:Oregon@1/stragglers:1,2",
        ];
        flag(
            rng.chance(20),
            "--scenario",
            Some(rng.pick(&scenarios).into()),
        );
        flag(rng.chance(30), "--gbs-adjust-period", Some("0.25".into()));
        flag(
            rng.chance(20),
            "--trace-out",
            Some(format!("/tmp/t{}.jsonl", rng.below(9))),
        );
        flag(rng.chance(30), "--telemetry", None);
        flag(
            rng.chance(20),
            "--csv",
            Some(format!("/tmp/c{}.csv", rng.below(9))),
        );
        flag(rng.chance(50), "--transport", Some("procs".into()));
        flag(
            rng.chance(30),
            "--port-base",
            Some((7000 + rng.below(999)).to_string()),
        );
        let hosts = workers.div_ceil(virt);
        let list = (0..hosts)
            .map(|h| format!("10.0.0.{h}:7300"))
            .collect::<Vec<_>>()
            .join(",");
        flag(rng.chance(20), "--peers", Some(list));
        for i in (1..flags.len()).rev() {
            flags.swap(i, rng.below(i as u64 + 1) as usize);
        }
        flags.concat()
    }

    /// Every valid parent argv gives each child the parent's spec, bar the
    /// parent's output paths, with the rank count the parent resolved.
    #[test]
    fn children_parse_the_parents_spec_from_its_tokens() {
        let mut rng = Lcg(0x5EED_CAFE);
        let mut valid = 0;
        for case in 0..600 {
            let argv = random_argv(&mut rng);
            let Ok((parent, shared, hosts)) = parse_parent(&argv) else {
                continue;
            };
            valid += 1;
            let child_argv = child_argv(&shared, parent.workers);
            let child = parse_child(child_argv.clone(), hosts);
            let want = RunSpec {
                trace_out: None,
                csv: None,
                ..parent
            };
            assert_eq!(child, want, "case {case}: {argv:?} -> {child_argv:?}");
            for own in [
                "--transport",
                "--port-base",
                "--peers",
                "--trace-out",
                "--csv",
            ] {
                assert!(!child_argv.iter().any(|t| t == own), "case {case}: {own}");
            }
        }
        assert!(valid >= 300, "only {valid} valid argvs drawn");
    }

    /// Three ranks on two hosts: the children must not size the cluster
    /// from the host list (2 × 2 = 4 ranks).
    #[test]
    fn uneven_placement_reaches_the_children_whole() {
        let argv = strings(&["--transport", "procs", "--workers", "3", "--virtual", "2"]);
        let (parent, shared, hosts) = parse_parent(&argv).unwrap();
        assert_eq!((parent.workers, hosts), (3, 2));
        let child = parse_child(child_argv(&shared, parent.workers), hosts);
        assert_eq!((child.workers, child.host_count()), (3, 2));
        // The default rank count reaches them too.
        let (parent, shared, hosts) = parse_parent(&strings(&["--virtual", "2"])).unwrap();
        assert_eq!(
            parse_child(child_argv(&shared, parent.workers), hosts).workers,
            3
        );
    }

    /// Each flag the usage text names parses with a sample value through
    /// the grammar whose text names it.
    #[test]
    fn usage_text_names_only_flags_the_grammar_takes() {
        let sample = |flag: &str| match flag {
            "--system" => Some("hop"),
            "--seed" | "--workers" | "--iters" | "--eval-every" | "--queue-cap" => Some("4"),
            "--virtual" => Some("2"),
            "--lr" | "--assumed-iter-time" | "--gbs-adjust-period" => Some("0.05"),
            "--wire" => Some("topk:5"),
            "--topology" => Some("ring"),
            "--scenario" => Some("diurnal/outage:Oregon@3"),
            "--trace-out" => Some("/tmp/t.jsonl"),
            "--csv" => Some("/tmp/t.csv"),
            "--telemetry" => None,
            "--train" | "--test" | "--chunk-bytes" => Some("4096"),
            "--bw-mbps" | "--stall-secs" | "--peer-timeout" => Some("2.5"),
            "--kill" => Some("1@3+0.5"),
            "--straggle" => Some("1:2"),
            other => panic!("no sample value for {other}"),
        };
        for (text, sim) in [(SIM_FLAGS, true), (LIVE_FLAGS, false)] {
            let flags: Vec<&str> = text
                .split('[')
                .filter_map(|t| t.strip_prefix("--"))
                .map(|t| &t[..t.find([' ', ']']).unwrap()])
                .collect();
            assert!(flags.len() >= 8, "{flags:?}");
            for name in flags {
                let flag = format!("--{name}");
                let mut a = Args::new(sample(&flag).map(String::from));
                let mut spec = RunSpec::default();
                let took = if sim {
                    spec.apply_sim_flag(&flag, &mut a)
                } else {
                    spec.apply_flag(&flag, &mut a)
                };
                assert_eq!(took, Ok(true), "{flag}");
                assert!(a.next_flag().is_none(), "{flag} left its value");
            }
        }
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
        // The child gets the token as typed and expands the same plan.
        let sc = "outage:Mumbai@5/stragglers:2,2";
        let (parent, shared, hosts) =
            parse_parent(&strings(&["--workers", "6", "--scenario", sc])).unwrap();
        assert_eq!(parent, spec);
        let argv = child_argv(&shared, parent.workers);
        assert!(argv.windows(2).any(|f| f == ["--scenario", sc]), "{argv:?}");
        assert_eq!(
            parse_child(argv, hosts).chaos().unwrap(),
            spec.chaos().unwrap()
        );
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

    #[test]
    fn out_of_range_systems_are_usage_errors() {
        let system = |name: &str| {
            let mut a = args(&["--system", name]);
            let flag = a.next_flag().unwrap();
            let mut spec = RunSpec::default();
            spec.apply_sim_flag(&flag, &mut a).map(|_| spec.system)
        };
        for bad in "max0 max-5 max150 max100.5 maxnan maxinf prague0 prague1 prague(1)".split(' ') {
            let e = system(bad).unwrap_err();
            assert_eq!(e.flag, "--system", "{bad}");
            assert!(e.reason.starts_with(&format!("unknown system '{bad}'")));
        }
        assert_eq!(system("max100"), Ok(SystemKind::MaxNOnly(100.0)));
        assert_eq!(system("max0.85"), Ok(SystemKind::MaxNOnly(0.85)));
        assert_eq!(system("prague2"), Ok(SystemKind::Prague(2)));
        assert_eq!(system("prague(3)"), Ok(SystemKind::Prague(3)));
    }

    #[test]
    fn out_of_range_numbers_are_usage_errors() {
        let lr = |v: &str| {
            let mut a = args(&["--lr", v]);
            let flag = a.next_flag().unwrap();
            let mut spec = RunSpec::default();
            spec.apply_flag(&flag, &mut a).map(|_| spec.lr)
        };
        for bad in ["nan", "-1", "0", "-0", "inf", "1e39"] {
            let e = lr(bad).unwrap_err();
            assert_eq!(e.flag, "--lr", "{bad}");
            assert!(e.reason.contains("finite and above zero"), "{bad}: {e}");
        }
        assert_eq!(lr("fast").unwrap_err().flag, "--lr");
        assert_eq!(lr("0.05"), Ok(Some(0.05)));
        for bad in ["nan", "-5", "0", "inf"] {
            let e = RunSpec::default()
                .apply_flag("--bw-mbps", &mut args(&[bad]))
                .unwrap_err();
            assert_eq!(e.flag, "--bw-mbps", "{bad}");
            assert!(e.reason.contains("finite and above zero"), "{bad}: {e}");
        }
        // The workload sizes meet their bounds where the spec meets the
        // config: a shard per worker, and the eval subset (100 here).
        let configure = |list: &[&str]| {
            let mut a = args(list);
            let mut spec = RunSpec::default();
            while let Some(flag) = a.next_flag() {
                assert!(spec.apply_flag(&flag, &mut a).unwrap(), "{flag}");
            }
            let mut cfg = crate::config::RunConfig::small_test(SystemKind::DLion);
            spec.configure(&mut cfg)
        };
        for (bad, flag, bound) in [
            (&["--train", "0"][..], "--train", "--workers"),
            (&["--train", "1", "--workers", "2"], "--train", "--workers"),
            (&["--train", "5", "--workers", "6"], "--train", "--workers"),
            (&["--test", "50"], "--test", "100"),
            (&["--test", "99"], "--test", "100"),
        ] {
            let e = configure(bad).unwrap_err();
            assert_eq!(e.flag, flag, "{bad:?}");
            assert!(e.reason.contains(bound), "{bad:?}: {e}");
        }
        configure(&["--train", "2", "--workers", "2", "--test", "100"]).unwrap();
        assert_eq!(parse_positive::<f64>("600"), Ok(600.0));
        assert!(parse_positive::<f64>("-inf").is_err());
        for bad in ["2", "-0.1", "nan", "inf"] {
            assert!(parse_unit(bad).unwrap_err().contains("[0, 1]"), "{bad}");
        }
        assert_eq!(parse_unit("0"), Ok(0.0));
        assert_eq!(parse_unit("1"), Ok(1.0));
    }
}
