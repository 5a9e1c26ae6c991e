//! Integration tests for the beyond-the-paper extensions: the §VI eDRAM
//! discussion configuration and §VII warp throttling, both through the
//! public runner API.

use fuse::core::config::{edram_dy_fuse, L1Preset};
use fuse::runner::{run_l1_config, run_workload, RunConfig};
use fuse::workloads::by_name;

fn rc() -> RunConfig {
    RunConfig {
        ops_scale: 0.4,
        ..RunConfig::standard()
    }
}

#[test]
fn edram_configuration_refreshes_and_underperforms_stt() {
    let spec = by_name("ATAX").expect("known workload");
    let stt = run_workload(&spec, L1Preset::DyFuse, &rc());
    let cfg = edram_dy_fuse(rc().gpu.clock_ghz);
    let edram = run_l1_config(&spec, Some(&cfg), "eDRAM-FUSE", &rc());
    assert!(edram.metrics.refresh_events > 0, "eDRAM must refresh");
    assert_eq!(stt.metrics.refresh_events, 0, "STT-MRAM never refreshes");
    // §VI: half the capacity plus refresh loses to STT-MRAM.
    assert!(
        edram.ipc() < stt.ipc(),
        "eDRAM ({:.3}) should underperform STT ({:.3}) on a thrashing workload",
        edram.ipc(),
        stt.ipc()
    );
    assert!(edram.miss_rate() > stt.miss_rate());
}

#[test]
fn throttling_cannot_beat_dy_fuse_on_thrashing_workloads() {
    // §VII: the best warp throttle on the SRAM baseline stays below FUSE.
    let spec = by_name("BICG").expect("known workload");
    let dy = run_workload(&spec, L1Preset::DyFuse, &rc());
    for limit in [24usize, 12, 6] {
        let mut rc_t = rc();
        rc_t.gpu.active_warp_limit = Some(limit);
        let throttled = run_workload(&spec, L1Preset::L1Sram, &rc_t);
        assert_eq!(throttled.sim.instructions, dy.sim.instructions);
        assert!(
            throttled.ipc() < dy.ipc(),
            "throttle {limit}: {:.3} must stay below Dy-FUSE {:.3}",
            throttled.ipc(),
            dy.ipc()
        );
    }
}
