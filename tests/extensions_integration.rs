//! Integration tests for the beyond-the-paper extensions: the §VI eDRAM
//! discussion configuration, §VII warp throttling, GTO scheduling and the
//! replacement-policy knobs — all through the public runner API.

use fuse::cache::replacement::PolicyKind;
use fuse::core::config::{edram_dy_fuse, L1Preset, WritePolicy};
use fuse::gpu::sm::SchedulerPolicy;
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

#[test]
fn gto_scheduling_runs_the_full_stack() {
    let spec = by_name("gaussian").expect("known workload");
    let mut rc_g = rc();
    rc_g.gpu.scheduler = SchedulerPolicy::Gto;
    let gto = run_workload(&spec, L1Preset::DyFuse, &rc_g);
    let lrr = run_workload(&spec, L1Preset::DyFuse, &rc());
    assert_eq!(gto.sim.instructions, lrr.sim.instructions);
    assert!(gto.ipc() > 0.0);
}

#[test]
fn write_through_l1_multiplies_outgoing_write_traffic() {
    // §VI: the paper adopts write-back; a write-through L1 (prior-work
    // assumption) must push every store to L2, inflating outgoing traffic
    // on a write-heavy workload without changing the executed program.
    let spec = by_name("PVC").expect("known workload");
    let wb_cfg = L1Preset::DyFuse.config();
    let mut wt_cfg = L1Preset::DyFuse.config();
    wt_cfg.write_policy = WritePolicy::WriteThrough;
    let wb = run_l1_config(&spec, Some(&wb_cfg), "write-back", &rc());
    let wt = run_l1_config(&spec, Some(&wt_cfg), "write-through", &rc());
    assert_eq!(wb.sim.instructions, wt.sim.instructions);
    assert!(
        wt.outgoing_requests() > wb.outgoing_requests(),
        "write-through must send more traffic: {} vs {}",
        wt.outgoing_requests(),
        wb.outgoing_requests()
    );
    // Write-back keeps dirty lines; write-through never writes back.
    assert!(wb.sim.l1.writebacks > 0);
    assert_eq!(
        wt.sim.l1.writebacks, 0,
        "write-through lines are never dirty"
    );
}

#[test]
fn stt_replacement_policy_is_configurable() {
    // Base-FUSE with pseudo-LRU in the set-associative STT bank (the
    // low-cost alternative the paper cites) runs and differs from FIFO.
    let spec = by_name("SYR2K").expect("known workload");
    let fifo_cfg = L1Preset::BaseFuse.config();
    let mut plru_cfg = L1Preset::BaseFuse.config();
    plru_cfg.stt_policy = PolicyKind::PseudoLru;
    let fifo = run_l1_config(&spec, Some(&fifo_cfg), "Base-FUSE/FIFO", &rc());
    let plru = run_l1_config(&spec, Some(&plru_cfg), "Base-FUSE/pLRU", &rc());
    assert_eq!(fifo.sim.instructions, plru.sim.instructions);
    // Same machine, same workload: both retire with sane miss rates, and
    // the policies genuinely change eviction behaviour.
    assert!(fifo.miss_rate() > 0.0 && plru.miss_rate() > 0.0);
    assert_ne!(
        fifo.sim.l1.evictions, plru.sim.l1.evictions,
        "different replacement policies should evict differently"
    );
}
