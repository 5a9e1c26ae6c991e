//! System-level tests of warp throttling.

use fuse_gpu::config::GpuConfig;
use fuse_gpu::l1d::IdealL1;
use fuse_gpu::system::GpuSystem;
use fuse_gpu::warp::{MemOp, StreamProgram, WarpOp, WarpProgram};

fn workload(sm: usize, warp: u16, ops: usize) -> Box<dyn WarpProgram> {
    let base = ((sm as u64) << 24) | ((warp as u64) << 14);
    let v: Vec<WarpOp> = (0..ops)
        .flat_map(|i| {
            [
                WarpOp::Mem(MemOp::strided(
                    0x20,
                    false,
                    base + (i as u64 % 8) * 128,
                    4,
                    32,
                )),
                WarpOp::Compute { cycles: 1 },
            ]
        })
        .collect();
    Box::new(StreamProgram::new(v))
}

fn run(cfg: GpuConfig) -> fuse_gpu::stats::SimStats {
    let mut sys = GpuSystem::new(cfg, |_| Box::new(IdealL1::new()), |s, w| workload(s, w, 20));
    let stats = sys.run(5_000_000);
    assert!(sys.is_done(), "system must drain");
    stats
}

#[test]
fn throttled_system_retires_everything_with_less_parallelism() {
    let base = GpuConfig {
        num_sms: 2,
        warps_per_sm: 8,
        ..GpuConfig::gtx480()
    };
    let full = run(base.clone());
    let throttled = run(GpuConfig {
        active_warp_limit: Some(2),
        ..base
    });
    assert_eq!(full.instructions, throttled.instructions, "same total work");
    assert!(
        throttled.cycles >= full.cycles,
        "fewer active warps cannot finish faster on a latency-bound stream: {} vs {}",
        throttled.cycles,
        full.cycles
    );
}

#[test]
#[should_panic(expected = "at least one active warp")]
fn zero_warp_throttle_is_rejected() {
    let cfg = GpuConfig {
        active_warp_limit: Some(0),
        ..GpuConfig::gtx480()
    };
    cfg.validate();
}
