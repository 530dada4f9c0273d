//! Table 3 of the paper: the emulated micro-cloud environments.
//!
//! Each environment fixes, for six workers, (a) a compute-capacity schedule
//! (cores, or AWS GPU instance types) and (b) a per-worker network bandwidth
//! schedule. A directed link `i→j` carries `min(bw_i, bw_j)` — the worker
//! with the scarcer uplink bounds the pair, which is how per-worker `tc`
//! shaping behaves.
//!
//! `Hetero NET B` (used by Figure 17 but absent from Table 3) is defined as
//! the network-reversed variant of Hetero NET A, mirroring how Hetero SYS B
//! reverses Hetero SYS A.

use crate::{
    CPU_BATCH_EXPONENT, CPU_COST_PER_SAMPLE, CPU_OVERHEAD, DYNAMIC_PHASE_SECS, GPU_BATCH_EXPONENT,
    GPU_COST_PER_SAMPLE, GPU_OVERHEAD, GPU_P28X_UNITS, GPU_P2X_UNITS, LAN_LATENCY, LAN_MBPS,
    N_WORKERS, WAN_LATENCY,
};
use dlion_simnet::{ComputeModel, NetworkModel, PiecewiseConst};

/// Which emulated cluster an environment belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterKind {
    /// The 6-machine local CPU cluster (Cipher / CIFAR10 stand-in).
    Cpu,
    /// The 6-instance Amazon GPU cluster (MobileNet / ImageNet stand-in).
    Gpu,
}

/// Identifiers for every Table 3 environment (plus Hetero NET B, see module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnvId {
    HomoA,
    HomoB,
    HomoC,
    HeteroCpuA,
    HeteroCpuB,
    HeteroNetA,
    HeteroNetB,
    HeteroSysA,
    HeteroSysB,
    HeteroSysC,
    DynamicSysA,
    DynamicSysB,
}

impl EnvId {
    /// All environments, in Table 3 order (with Hetero NET B appended after
    /// Hetero NET A).
    pub fn all() -> Vec<EnvId> {
        use EnvId::*;
        vec![
            HomoA,
            HomoB,
            HomoC,
            HeteroCpuA,
            HeteroCpuB,
            HeteroNetA,
            HeteroNetB,
            HeteroSysA,
            HeteroSysB,
            HeteroSysC,
            DynamicSysA,
            DynamicSysB,
        ]
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            EnvId::HomoA => "Homo A",
            EnvId::HomoB => "Homo B",
            EnvId::HomoC => "Homo C",
            EnvId::HeteroCpuA => "Hetero CPU A",
            EnvId::HeteroCpuB => "Hetero CPU B",
            EnvId::HeteroNetA => "Hetero NET A",
            EnvId::HeteroNetB => "Hetero NET B",
            EnvId::HeteroSysA => "Hetero SYS A",
            EnvId::HeteroSysB => "Hetero SYS B",
            EnvId::HeteroSysC => "Hetero SYS C",
            EnvId::DynamicSysA => "Dynamic SYS A",
            EnvId::DynamicSysB => "Dynamic SYS B",
        }
    }

    /// Parse a kebab- or snake-case name like `hetero-sys-b` (case
    /// insensitive) into an environment id.
    pub fn parse(name: &str) -> Option<EnvId> {
        Some(match name.to_ascii_lowercase().replace('_', "-").as_str() {
            "homo-a" => EnvId::HomoA,
            "homo-b" => EnvId::HomoB,
            "homo-c" => EnvId::HomoC,
            "hetero-cpu-a" => EnvId::HeteroCpuA,
            "hetero-cpu-b" => EnvId::HeteroCpuB,
            "hetero-net-a" => EnvId::HeteroNetA,
            "hetero-net-b" => EnvId::HeteroNetB,
            "hetero-sys-a" => EnvId::HeteroSysA,
            "hetero-sys-b" => EnvId::HeteroSysB,
            "hetero-sys-c" => EnvId::HeteroSysC,
            "dynamic-sys-a" => EnvId::DynamicSysA,
            "dynamic-sys-b" => EnvId::DynamicSysB,
            _ => return None,
        })
    }

    /// Materialize the environment spec.
    pub fn spec(self) -> EnvSpec {
        let cpu_full = vec![24.0; N_WORKERS];
        let hetero_cpu_a = vec![24.0, 24.0, 12.0, 12.0, 6.0, 6.0];
        let hetero_cpu_b = vec![24.0, 24.0, 24.0, 24.0, 24.0, 4.0];
        let lan = vec![LAN_MBPS; N_WORKERS];
        let net_50 = vec![50.0; N_WORKERS];
        let net_a = vec![50.0, 50.0, 35.0, 35.0, 20.0, 20.0];
        let net_b = vec![20.0, 20.0, 35.0, 35.0, 50.0, 50.0];
        let gpu_homo = vec![GPU_P2X_UNITS; N_WORKERS];
        let gpu_hetero = vec![
            GPU_P28X_UNITS,
            GPU_P28X_UNITS,
            GPU_P2X_UNITS,
            GPU_P2X_UNITS,
            GPU_P2X_UNITS,
            GPU_P2X_UNITS,
        ];
        let net_c = vec![190.0, 190.0, 140.0, 140.0, 100.0, 100.0];

        let constant = |vals: &[f64]| {
            vals.iter()
                .map(|&v| PiecewiseConst::constant(v))
                .collect::<Vec<_>>()
        };
        // Per-worker phase schedules for the dynamic environments: one value
        // per sub-environment, each lasting DYNAMIC_PHASE_SECS.
        let phased = |per_phase: &[&[f64]]| -> Vec<PiecewiseConst> {
            (0..N_WORKERS)
                .map(|w| {
                    let vals: Vec<f64> = per_phase.iter().map(|p| p[w]).collect();
                    PiecewiseConst::phases(&vals, DYNAMIC_PHASE_SECS)
                })
                .collect()
        };

        dlion_telemetry::debug!(target: "microcloud.envs", "materializing env spec {self:?}");
        match self {
            EnvId::HomoA => EnvSpec::cpu("Homo A", constant(&cpu_full), constant(&lan), true),
            EnvId::HomoB => EnvSpec::cpu("Homo B", constant(&cpu_full), constant(&net_50), false),
            EnvId::HomoC => EnvSpec::gpu("Homo C", constant(&gpu_homo), constant(&lan), true),
            EnvId::HeteroCpuA => EnvSpec::cpu(
                "Hetero CPU A",
                constant(&hetero_cpu_a),
                constant(&lan),
                true,
            ),
            EnvId::HeteroCpuB => EnvSpec::cpu(
                "Hetero CPU B",
                constant(&hetero_cpu_b),
                constant(&lan),
                true,
            ),
            EnvId::HeteroNetA => {
                EnvSpec::cpu("Hetero NET A", constant(&cpu_full), constant(&net_a), false)
            }
            EnvId::HeteroNetB => {
                EnvSpec::cpu("Hetero NET B", constant(&cpu_full), constant(&net_b), false)
            }
            EnvId::HeteroSysA => EnvSpec::cpu(
                "Hetero SYS A",
                constant(&hetero_cpu_a),
                constant(&net_a),
                false,
            ),
            EnvId::HeteroSysB => EnvSpec::cpu(
                "Hetero SYS B",
                constant(&hetero_cpu_a),
                constant(&net_b),
                false,
            ),
            EnvId::HeteroSysC => EnvSpec::gpu(
                "Hetero SYS C",
                constant(&gpu_hetero),
                constant(&net_c),
                false,
            ),
            EnvId::DynamicSysA => EnvSpec::cpu(
                "Dynamic SYS A",
                phased(&[&cpu_full, &hetero_cpu_a, &hetero_cpu_a]),
                phased(&[&net_50, &net_a, &net_b]),
                false,
            ),
            EnvId::DynamicSysB => EnvSpec::cpu(
                "Dynamic SYS B",
                phased(&[&hetero_cpu_a, &hetero_cpu_a, &cpu_full]),
                phased(&[&net_b, &net_a, &net_50]),
                false,
            ),
        }
    }
}

/// A fully-specified 6-worker environment.
pub struct EnvSpec {
    pub name: &'static str,
    pub cluster: ClusterKind,
    /// Per-worker capacity schedules (cores / GPU units).
    pub capacity: Vec<PiecewiseConst>,
    /// Per-worker network bandwidth schedules (Mbps).
    pub worker_bw: Vec<PiecewiseConst>,
    /// True if workers talk over a LAN (affects latency).
    pub lan: bool,
}

impl EnvSpec {
    fn cpu(
        name: &'static str,
        capacity: Vec<PiecewiseConst>,
        worker_bw: Vec<PiecewiseConst>,
        lan: bool,
    ) -> Self {
        EnvSpec {
            name,
            cluster: ClusterKind::Cpu,
            capacity,
            worker_bw,
            lan,
        }
    }

    fn gpu(
        name: &'static str,
        capacity: Vec<PiecewiseConst>,
        worker_bw: Vec<PiecewiseConst>,
        lan: bool,
    ) -> Self {
        EnvSpec {
            name,
            cluster: ClusterKind::Gpu,
            capacity,
            worker_bw,
            lan,
        }
    }

    pub fn n_workers(&self) -> usize {
        self.capacity.len()
    }

    /// Build the compute model (workload cost law depends on the cluster).
    pub fn compute_model(&self) -> ComputeModel {
        let (cost, overhead, beta) = match self.cluster {
            ClusterKind::Cpu => (CPU_COST_PER_SAMPLE, CPU_OVERHEAD, CPU_BATCH_EXPONENT),
            ClusterKind::Gpu => (GPU_COST_PER_SAMPLE, GPU_OVERHEAD, GPU_BATCH_EXPONENT),
        };
        ComputeModel::new(self.capacity.clone(), cost, overhead).with_batch_exponent(beta)
    }

    /// Build the network model: link `i→j` = min(bw_i, bw_j).
    pub fn network_model(&self) -> NetworkModel {
        let n = self.n_workers();
        let latency = if self.lan { LAN_LATENCY } else { WAN_LATENCY };
        let mut net = NetworkModel::uniform(n, LAN_MBPS, latency);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    net.set_link(i, j, self.worker_bw[i].min_with(&self.worker_bw[j]));
                }
            }
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_core_counts() {
        // Totals follow Table 3's rows: 144 / 84 / 124. (The paper's §5.2.3
        // text says 88 and 114, which don't match its own Table 3 rows
        // 24/24/12/12/6/6 = 84 and 24/24/24/24/24/4 = 124; the table wins.)
        let cores = |env: EnvId| -> f64 {
            let spec = env.spec();
            spec.capacity.iter().map(|c| c.value_at(0.0)).sum()
        };
        assert_eq!(cores(EnvId::HomoA), 144.0);
        assert_eq!(cores(EnvId::HeteroCpuA), 84.0);
        assert_eq!(cores(EnvId::HeteroCpuB), 124.0);
    }

    #[test]
    fn link_bandwidth_is_pairwise_min() {
        let net = EnvId::HeteroNetA.spec().network_model();
        // worker 0 (50) -> worker 4 (20): min = 20.
        assert_eq!(net.bandwidth_mbps(0, 4, 0.0), 20.0);
        assert_eq!(net.bandwidth_mbps(4, 0, 0.0), 20.0);
        assert_eq!(net.bandwidth_mbps(0, 1, 0.0), 50.0);
        assert_eq!(net.bandwidth_mbps(2, 3, 0.0), 35.0);
    }

    #[test]
    fn homo_a_is_lan() {
        let spec = EnvId::HomoA.spec();
        assert!(spec.lan);
        let net = spec.network_model();
        assert_eq!(net.bandwidth_mbps(0, 5, 0.0), LAN_MBPS);
    }

    #[test]
    fn sys_b_reverses_sys_a_network_but_not_compute() {
        let a = EnvId::HeteroSysA.spec();
        let b = EnvId::HeteroSysB.spec();
        for w in 0..6 {
            assert_eq!(a.capacity[w].value_at(0.0), b.capacity[w].value_at(0.0));
            assert_eq!(
                a.worker_bw[w].value_at(0.0),
                b.worker_bw[5 - w].value_at(0.0)
            );
        }
        // In SYS A powerful workers have more bandwidth; in SYS B less.
        assert_eq!(a.worker_bw[0].value_at(0.0), 50.0);
        assert_eq!(b.worker_bw[0].value_at(0.0), 20.0);
    }

    #[test]
    fn gpu_envs_use_gpu_cost_law() {
        let spec = EnvId::HomoC.spec();
        assert_eq!(spec.cluster, ClusterKind::Gpu);
        let cm = spec.compute_model();
        assert!((cm.iter_time(0, 32, 0.0) - 0.5).abs() < 0.01);
        let hc = EnvId::HeteroSysC.spec();
        // p2.8xlarge workers are 8x the capacity of p2.xlarge.
        assert_eq!(
            hc.capacity[0].value_at(0.0),
            8.0 * hc.capacity[5].value_at(0.0)
        );
    }

    #[test]
    fn dynamic_sys_a_phases() {
        let spec = EnvId::DynamicSysA.spec();
        // Phase 1 (0-500 s): Homo B — 24 cores, 50 Mbps everywhere.
        assert_eq!(spec.capacity[4].value_at(100.0), 24.0);
        assert_eq!(spec.worker_bw[4].value_at(100.0), 50.0);
        // Phase 2 (500-1000 s): Hetero SYS A.
        assert_eq!(spec.capacity[4].value_at(600.0), 6.0);
        assert_eq!(spec.worker_bw[4].value_at(600.0), 20.0);
        // Phase 3 (1000+ s): Hetero SYS B — same cores, reversed network.
        assert_eq!(spec.capacity[4].value_at(1100.0), 6.0);
        assert_eq!(spec.worker_bw[4].value_at(1100.0), 50.0);
    }

    #[test]
    fn dynamic_sys_b_is_reverse_order() {
        let a = EnvId::DynamicSysA.spec();
        let b = EnvId::DynamicSysB.spec();
        for w in 0..6 {
            // Phase 1 of B == phase 3 of A, and vice versa.
            assert_eq!(
                b.worker_bw[w].value_at(100.0),
                a.worker_bw[w].value_at(1100.0)
            );
            assert_eq!(
                b.worker_bw[w].value_at(1100.0),
                a.worker_bw[w].value_at(100.0)
            );
        }
    }

    #[test]
    fn all_envs_materialize() {
        for id in EnvId::all() {
            let spec = id.spec();
            assert_eq!(spec.n_workers(), N_WORKERS, "{}", spec.name);
            let _ = spec.compute_model();
            let _ = spec.network_model();
            assert!(!spec.name.is_empty());
        }
    }

    #[test]
    fn parse_roundtrips_all_ids() {
        for id in EnvId::all() {
            let kebab = id.name().to_ascii_lowercase().replace(' ', "-");
            assert_eq!(EnvId::parse(&kebab), Some(id), "{kebab}");
        }
        assert_eq!(EnvId::parse("HETERO_SYS_C"), Some(EnvId::HeteroSysC));
        assert_eq!(EnvId::parse("mars-one"), None);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(EnvId::HeteroSysC.name(), "Hetero SYS C");
        assert_eq!(EnvId::DynamicSysB.name(), "Dynamic SYS B");
    }
}
