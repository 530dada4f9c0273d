//! Tier-1 guard for "one description": a live run is described by its
//! `RunConfig` and nothing else. The fault plan and the wire format set on
//! the config — with a *default* `LiveOpts` — must take effect on the live
//! backend exactly as they do on the simulator: worker 1 departs after
//! iteration 3, and gradients travel as fp16.

use dlion::core::messages::WireFormat;
use dlion::core::{FaultPlan, SystemKind};
use dlion::net::{live_config, run_live, LiveOpts, TransportKind};

#[test]
fn live_run_reads_fault_and_wire_from_the_config() {
    let mut cfg = live_config(SystemKind::Baseline, 1);
    cfg.fault = FaultPlan::parse("1@3").expect("valid fault plan");
    cfg.wire = WireFormat::Fp16;
    let opts = LiveOpts::default();
    let m = run_live(&cfg, 3, &opts, TransportKind::Mem, "live/described").expect("live run");
    assert_eq!(
        m.iterations,
        vec![opts.iters, 3, opts.iters],
        "cfg.fault did not reach the live driver"
    );
    let fp16 = m
        .wire_bytes_by_kind
        .get("grad_fp16")
        .copied()
        .unwrap_or(0.0);
    assert!(
        fp16 > 0.0,
        "cfg.wire did not reach the live driver: {:?}",
        m.wire_bytes_by_kind
    );
    assert!(!m.wire_bytes_by_kind.contains_key("grad_dense"));
}
