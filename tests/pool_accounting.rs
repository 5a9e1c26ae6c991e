//! Pooled-scratch accounting across the full hierarchy.
//!
//! The engine recycles scratch aggressively — MSHR target lists, L2
//! waiter-chain nodes, trace and DRAM-read slab slots — so the steady
//! state allocates nothing. The flip side of pooling is leak risk: every
//! pooled buffer must be back home once a run drains. Under
//! `debug_assertions`, `GpuSystem::run` asserts exactly that at the end
//! of every drained run; this suite drains every L1D model family (ideal
//! SRAM, the FUSE controller in by-NVM and dynamic modes) so a recycle
//! regression in any model fails loudly here rather than as a slow leak
//! in a sweep. A run a cycle cap stops mid-flight is dropped, never
//! reused, so it owes no pool accounting; its profile must still tile
//! the cycles it ran.

use fuse::core::config::L1Preset;
use fuse::gpu::config::GpuConfig;
use fuse::gpu::system::GpuSystem;
use fuse::workloads::by_name;

fn system(preset: L1Preset, workload: &str) -> GpuSystem {
    let spec = by_name(workload).expect("Table II workload exists");
    let cfg = GpuConfig {
        num_sms: 2,
        warps_per_sm: 8,
        ..GpuConfig::gtx480()
    };
    GpuSystem::new(
        cfg,
        |_| preset.build_model(),
        move |sm, warp| spec.program(sm, warp, 64),
    )
}

#[test]
fn completed_runs_end_with_pools_at_home() {
    for preset in [L1Preset::L1Sram, L1Preset::ByNvm, L1Preset::DyFuse] {
        for workload in ["GEMM", "ATAX", "gaussian"] {
            let mut sys = system(preset, workload);
            // `run` itself asserts (under debug_assertions) that every
            // pooled buffer came home; the checks below are the
            // release-mode-visible part of the same contract.
            let stats = sys.run(2_000_000);
            assert!(
                sys.is_done(),
                "{}/{workload}: the budget is ample, the run must drain",
                preset.name()
            );
            for s in 0..sys.config().num_sms {
                assert_eq!(
                    sys.l1(s).outstanding_misses(),
                    0,
                    "{}/{workload}: SM {s} L1 kept live MSHR entries",
                    preset.name()
                );
            }
            assert_eq!(sys.stats(), stats, "a drained system is at rest");
        }
    }
}

#[test]
fn capped_traced_run_tiles_its_profile_windows() {
    let mut sys = system(L1Preset::DyFuse, "histo");
    sys.enable_profiler(128);
    sys.enable_tracer(1 << 12);
    let stats = sys.run(400);
    assert_eq!(stats.cycles, 400);
    assert!(!sys.is_done(), "the cap must strand in-flight work");
    let profile = sys.take_profile().expect("profiler was on");
    let covered: u64 = profile.series.samples.iter().map(|s| s.len).sum();
    assert_eq!(covered, 400, "windows tile the capped run");
    assert!(sys.take_trace().is_some());
}
