//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer ledger with the end-to-end metric
//! each entry should move. `BENCHMARK.json` at the repo root states the
//! same tables for the acceptance driver; `tests/contract.rs` holds the two
//! against each other.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// `(name, why)` — one line each, repeated in `BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim_paper",
        "one figure cell (DLion on DynamicSysA, 6 workers, LBS 32-100): real SGD on the GEMM path, all three techniques; tensor+nn carry it",
    ),
    (
        "sim_scale",
        "1024 cache-cold Baseline workers on kregular:8 at batch 1: runner, event queue, topology and memory carry it; a GEMM gain must not move it",
    ),
    (
        "live_tcp",
        "2 DLion ranks over loopback TCP with a pinned training clock: many small latency-bound frames interleaved with compute (driver + tcp)",
    ),
    (
        "wire_exchange",
        "3 endpoints exchange 1-5 MB dense/fp16/sparse/weights frames with no compute: the bandwidth-bound codec + socket path live_tcp never reaches",
    ),
];

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Every end-to-end metric is defined on every workload (the acceptance
/// driver requires it); README "End-to-end metrics" gives the per-workload
/// definitions. The bounds are the largest the driver allows: ten
/// back-to-back runs on the shared 2-core sandbox spread 4-14 % between
/// their quartiles in a quiet hour (README "Noise"), and a bound has to
/// clear three times that.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "iters_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer ledger entry. `moves` names the end-to-end metric and
/// workload it should move — written down before anything is optimized.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const COMPUTE: &str = "iters_per_s on sim_paper (batch ~64) and sim_scale (batch 1)";
const COMPUTE_ALL: &str = "iters_per_s on sim_paper, sim_scale, live_tcp";
const MAXN: &str = "iters_per_s on sim_paper, live_tcp; wire_mb_per_s unaffected";
const CODEC: &str = "wire_mb_per_s on wire_exchange; live_tcp only through small-frame cost";
const RUNNER: &str = "iters_per_s on sim_scale; ~no effect on sim_paper";
const TCP: &str = "wire_mb_per_s on wire_exchange; iters_per_s on live_tcp";
const DRIVER: &str = "iters_per_s on live_tcp";
const NONE: &str = "none - explains the other numbers";

/// The ledger, layer by layer (layers are this repo's modules).
pub const PER_LAYER: &[PerLayer] = &[
    // tensor
    pl("tensor.matmul_us", "us", Lower, COMPUTE),
    pl("tensor.conv2d_fwd_us", "us", Lower, COMPUTE),
    pl("tensor.conv2d_bwd_us", "us", Lower, COMPUTE),
    // nn
    pl("nn.batch_us", "us", Lower, COMPUTE_ALL),
    pl("nn.fwd_bwd_us_p50", "us", Lower, COMPUTE_ALL),
    pl("nn.fwd_bwd_us_p99", "us", Lower, COMPUTE_ALL),
    pl(
        "nn.apply_dense_us",
        "us",
        Lower,
        "iters_per_s on sim_scale (x8 per iteration), sim_paper",
    ),
    pl(
        "nn.apply_sparse_us",
        "us",
        Lower,
        "iters_per_s on sim_paper, live_tcp",
    ),
    pl("nn.eval_us", "us", Lower, "iters_per_s on sim_paper"),
    pl("nn.samples", "count", Higher, NONE),
    // core::maxn
    pl("maxn.plan_us", "us", Lower, MAXN),
    pl("maxn.select_us", "us", Lower, MAXN),
    pl("maxn.entries_selected", "count", Higher, NONE),
    pl("maxn.selected_share", "ratio", Higher, NONE),
    // core::strategy / core::dkt
    pl(
        "strategy.generate_us",
        "us",
        Lower,
        "iters_per_s on sim_paper, live_tcp",
    ),
    pl("dkt.merge_us", "us", Lower, "iters_per_s on sim_paper"),
    pl("dkt.merges", "count", Higher, NONE),
    // core::messages
    pl("messages.encode_mb_s.dense", "MB/s", Higher, CODEC),
    pl("messages.encode_mb_s.fp16", "MB/s", Higher, CODEC),
    pl("messages.encode_mb_s.sparse", "MB/s", Higher, CODEC),
    pl("messages.encode_mb_s.weights", "MB/s", Higher, CODEC),
    pl("messages.decode_mb_s.dense", "MB/s", Higher, CODEC),
    pl("messages.decode_mb_s.fp16", "MB/s", Higher, CODEC),
    pl("messages.decode_mb_s.sparse", "MB/s", Higher, CODEC),
    pl("messages.decode_mb_s.weights", "MB/s", Higher, CODEC),
    pl("messages.first_chunk_us", "us", Lower, CODEC),
    pl("messages.bytes_per_frame", "B", Lower, NONE),
    pl("messages.decode_failures", "count", Lower, NONE),
    // core::runner
    pl("runner.events", "count", Lower, NONE),
    pl("runner.residual_share", "ratio", Lower, RUNNER),
    pl("runner.residual_us_per_event", "us", Lower, RUNNER),
    // simulated results (exact per seed): where protocol changes show
    pl(
        "sim.iter_vtime_ms",
        "vms",
        Lower,
        "sim_paper: overlap / Max N budgets / batching, with iters_per_s flat",
    ),
    pl(
        "sim.acc_final",
        "ratio",
        Higher,
        "sim_paper: freed link time spent on a larger N",
    ),
    // simnet
    pl("simnet.queue_op_ns", "ns", Lower, RUNNER),
    pl("simnet.transfer_ns", "ns", Lower, RUNNER),
    pl("simnet.peak_queue", "count", Lower, NONE),
    // topo
    pl("topo.neighbors_ns", "ns", Lower, RUNNER),
    pl("topo.links_per_round", "count", Lower, NONE),
    // microcloud
    pl(
        "microcloud.env_build_ms",
        "ms",
        Lower,
        "setup_s on sim_paper",
    ),
    // net::tcp
    pl(
        "tcp.establish_ms",
        "ms",
        Lower,
        "setup_s on live_tcp, wire_exchange",
    ),
    pl("tcp.send_us_p50", "us", Lower, TCP),
    pl("tcp.send_us_p99", "us", Lower, TCP),
    pl("tcp.recv_wait_us_p50", "us", Lower, TCP),
    pl("tcp.recv_wait_us_p99", "us", Lower, TCP),
    pl("tcp.queue_wait_us", "us", Lower, TCP),
    pl("tcp.write_us", "us", Lower, TCP),
    pl("tcp.read_us", "us", Lower, TCP),
    pl("tcp.frames", "count", Lower, NONE),
    pl("tcp.bytes", "B", Lower, NONE),
    pl("tcp.send_errors", "count", Lower, NONE),
    // net::driver
    pl("driver.iter_ms_p50", "ms", Lower, DRIVER),
    pl("driver.iter_ms_p99", "ms", Lower, DRIVER),
    pl("driver.gate_wait_share", "ratio", Lower, DRIVER),
    pl("driver.residual_share", "ratio", Lower, DRIVER),
    pl("driver.gbs_rounds", "count", Higher, NONE),
    pl("driver.dkt_merges", "count", Higher, NONE),
    pl("driver.frames_per_iter", "count", Lower, DRIVER),
    // telemetry
    pl(
        "telemetry.disabled_gate_ns",
        "ns",
        Lower,
        "none - x sites per iteration must stay < 1 % of an iteration",
    ),
    pl("telemetry.event_ns", "ns", Lower, NONE),
    // the harness itself
    pl(
        "bench.trace_overhead_pct",
        "%",
        Lower,
        "none - shows the numbers measure the program, not the harness",
    ),
    pl(
        "bench.generator_lag_us",
        "us",
        Lower,
        "none - harness time per wire_exchange round outside the program",
    ),
    // process
    pl("proc.user_cpu_s", "s", Lower, NONE),
    pl(
        "proc.sys_cpu_s",
        "s",
        Lower,
        "none - the sys-CPU swing behind iters_per_s noise",
    ),
    pl("proc.minor_faults", "count", Lower, "peak_rss_mb"),
    pl("proc.ctx_switches_vol", "count", Lower, NONE),
    pl("proc.ctx_switches_invol", "count", Lower, NONE),
    pl(
        "proc.threads_peak",
        "count",
        Lower,
        "none - the transport-thread evidence for ROADMAP item 4",
    ),
];

/// Named measurements gathered during a traced run. Every [`PER_LAYER`]
/// name must be set exactly by the end; a miss is a harness bug.
#[derive(Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a ledger metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Names in [`PER_LAYER`] nobody set.
    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let ok = |s: &str, max: usize, extra: &str| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok(name, 64, "_.-") && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in &END_TO_END {
            assert!(ok(m.name, 64, "_.-") && seen.insert(m.name), "{}", m.name);
            assert!(ok(m.unit, 16, "_/%.-"), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(ok(m.name, 64, "_.-") && seen.insert(m.name), "{}", m.name);
            assert!(ok(m.unit, 16, "_/%.-"), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn ledger_reports_what_is_missing() {
        let mut l = Ledger::default();
        assert_eq!(l.missing().len(), PER_LAYER.len());
        l.set("tcp.frames", 3.0);
        assert_eq!(l.get("tcp.frames"), Some(3.0));
        assert_eq!(l.missing().len(), PER_LAYER.len() - 1);
    }
}
