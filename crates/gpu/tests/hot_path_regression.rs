//! Pins the engine's observable statistics across hot-path refactors.
//!
//! The slab request tables, reused output buffers and O(1) drain counters
//! must be *invisible* in the statistics: these scenarios were captured on
//! the pre-refactor engine (HashMap tables, per-tick allocations, full-scan
//! `is_done`) with the every-cycle drain check, and every later engine must
//! reproduce them bit for bit. A diff here means the "optimisation" changed
//! simulated behaviour.

use fuse_gpu::config::GpuConfig;
use fuse_gpu::l1d::IdealL1;
use fuse_gpu::stats::SimStats;
use fuse_gpu::system::GpuSystem;
use fuse_gpu::warp::{MemOp, StreamProgram, WarpOp, WarpProgram};

fn small_cfg() -> GpuConfig {
    GpuConfig {
        num_sms: 2,
        warps_per_sm: 4,
        ..GpuConfig::gtx480()
    }
}

fn streaming_program(sm: usize, warp: u16, ops: usize) -> Box<dyn WarpProgram> {
    let base = (sm as u64 * 64 + warp as u64) << 20; // line-aligned
    let v: Vec<WarpOp> = (0..ops)
        .map(|i| WarpOp::Mem(MemOp::strided(0x20, false, base + i as u64 * 128, 4, 32)))
        .collect();
    Box::new(StreamProgram::new(v))
}

/// The `runs_to_completion_and_counts` scenario: 2 SMs x 4 warps x 10
/// streaming loads, all cold.
fn streaming_stats() -> SimStats {
    let mut sys = GpuSystem::new(
        small_cfg(),
        |_| Box::new(IdealL1::new()),
        |s, w| streaming_program(s, w, 10),
    );
    sys.run(1_000_000)
}

/// The `off_chip_residency_is_recorded` scenario: short streams whose
/// latency decomposition (network vs memory residency) is measured.
fn residency_stats() -> SimStats {
    let mut sys = GpuSystem::new(
        small_cfg(),
        |_| Box::new(IdealL1::new()),
        |s, w| streaming_program(s, w, 4),
    );
    sys.run(1_000_000)
}

/// The `reuse_hits_in_l1_after_warmup` scenario: every warp reads the same
/// 8 lines twice, so the second pass hits and misses stay at 16.
fn reuse_stats() -> SimStats {
    let mk = |_s: usize, _w: u16| {
        let v: Vec<WarpOp> = (0..8)
            .chain(0..8)
            .map(|i| WarpOp::Mem(MemOp::strided(0x40, false, i as u64 * 128, 4, 32)))
            .collect();
        Box::new(StreamProgram::new(v)) as Box<dyn WarpProgram>
    };
    let mut sys = GpuSystem::new(small_cfg(), |_| Box::new(IdealL1::new()), mk);
    sys.run(1_000_000)
}

/// The `stores_generate_writeback_traffic_to_l2` scenario: a single warp
/// of streaming stores (write-allocate traffic, no read responses).
fn stores_stats() -> SimStats {
    let mk = |_s: usize, _w: u16| {
        let v: Vec<WarpOp> = (0..4)
            .map(|i| WarpOp::Mem(MemOp::strided(0x40, true, i as u64 * 128, 4, 32)))
            .collect();
        Box::new(StreamProgram::new(v)) as Box<dyn WarpProgram>
    };
    let cfg = GpuConfig {
        num_sms: 1,
        warps_per_sm: 1,
        ..GpuConfig::gtx480()
    };
    let mut sys = GpuSystem::new(cfg, |_| Box::new(IdealL1::new()), mk);
    sys.run(1_000_000)
}

// Captured on the pre-refactor engine (commit with HashMap request
// tables), Debug-formatted, then re-rendered without the interconnect
// `queue_depth_sum`/`cycles` and cache `evictions` counters once those
// were deleted (every remaining value unchanged); `cargo test -p
// fuse-gpu --test hot_path_regression -- --nocapture` re-prints the live
// values.
const STREAMING_SEED: &str = "SimStats { cycles: 2208, instructions: 80, l1: CacheStats { hits: 0, misses: 80, mshr_merges: 0, reservation_fails: 0, writebacks: 0, bypasses: 0 }, l2: CacheStats { hits: 0, misses: 80, mshr_merges: 0, reservation_fails: 0, writebacks: 0, bypasses: 0 }, sm: SmStats { instructions: 80, issue_cycles: 80, mem_stall_cycles: 4334, reservation_stall_cycles: 0, idle_cycles: 2 }, outgoing_requests: 80, req_net: IcntStats { packets: 80, flits: 80 }, rsp_net: IcntStats { packets: 80, flits: 400 }, dram_accesses: 80, dram_row_hits: 0, energy: EnergyCounters { sram_reads: 0, sram_writes: 80, stt_reads: 0, stt_writes: 0, l2_accesses: 80, dram_accesses: 80, net_flits: 480, warp_instructions: 80 }, net_residency: 6400, mem_residency: 10037, completed_reads: 80, num_sms: 2 }";

const RESIDENCY_SEED: &str = "SimStats { cycles: 963, instructions: 32, l1: CacheStats { hits: 0, misses: 32, mshr_merges: 0, reservation_fails: 0, writebacks: 0, bypasses: 0 }, l2: CacheStats { hits: 0, misses: 32, mshr_merges: 0, reservation_fails: 0, writebacks: 0, bypasses: 0 }, sm: SmStats { instructions: 32, issue_cycles: 32, mem_stall_cycles: 1892, reservation_stall_cycles: 0, idle_cycles: 2 }, outgoing_requests: 32, req_net: IcntStats { packets: 32, flits: 32 }, rsp_net: IcntStats { packets: 32, flits: 160 }, dram_accesses: 32, dram_row_hits: 0, energy: EnergyCounters { sram_reads: 0, sram_writes: 32, stt_reads: 0, stt_writes: 0, l2_accesses: 32, dram_accesses: 32, net_flits: 192, warp_instructions: 32 }, net_residency: 2560, mem_residency: 4218, completed_reads: 32, num_sms: 2 }";

const REUSE_SEED: &str = "SimStats { cycles: 1241, instructions: 128, l1: CacheStats { hits: 64, misses: 16, mshr_merges: 48, reservation_fails: 0, writebacks: 0, bypasses: 0 }, l2: CacheStats { hits: 0, misses: 8, mshr_merges: 8, reservation_fails: 0, writebacks: 0, bypasses: 0 }, sm: SmStats { instructions: 128, issue_cycles: 128, mem_stall_cycles: 2352, reservation_stall_cycles: 0, idle_cycles: 2 }, outgoing_requests: 16, req_net: IcntStats { packets: 16, flits: 16 }, rsp_net: IcntStats { packets: 16, flits: 80 }, dram_accesses: 8, dram_row_hits: 4, energy: EnergyCounters { sram_reads: 64, sram_writes: 16, stt_reads: 0, stt_writes: 0, l2_accesses: 16, dram_accesses: 8, net_flits: 96, warp_instructions: 128 }, net_residency: 1280, mem_residency: 1120, completed_reads: 16, num_sms: 2 }";

const STORES_SEED: &str = "SimStats { cycles: 193, instructions: 4, l1: CacheStats { hits: 0, misses: 4, mshr_merges: 0, reservation_fails: 0, writebacks: 0, bypasses: 0 }, l2: CacheStats { hits: 0, misses: 4, mshr_merges: 0, reservation_fails: 0, writebacks: 0, bypasses: 0 }, sm: SmStats { instructions: 4, issue_cycles: 4, mem_stall_cycles: 0, reservation_stall_cycles: 0, idle_cycles: 189 }, outgoing_requests: 4, req_net: IcntStats { packets: 4, flits: 4 }, rsp_net: IcntStats { packets: 4, flits: 20 }, dram_accesses: 4, dram_row_hits: 2, energy: EnergyCounters { sram_reads: 0, sram_writes: 4, stt_reads: 0, stt_writes: 0, l2_accesses: 4, dram_accesses: 4, net_flits: 24, warp_instructions: 4 }, net_residency: 320, mem_residency: 382, completed_reads: 4, num_sms: 1 }";

#[test]
fn streaming_matches_seed_engine() {
    let s = streaming_stats();
    println!("STREAMING {s:?}");
    assert_eq!(format!("{s:?}"), STREAMING_SEED);
}

#[test]
fn residency_matches_seed_engine() {
    let s = residency_stats();
    println!("RESIDENCY {s:?}");
    assert_eq!(format!("{s:?}"), RESIDENCY_SEED);
}

#[test]
fn reuse_matches_seed_engine() {
    let s = reuse_stats();
    println!("REUSE {s:?}");
    assert_eq!(format!("{s:?}"), REUSE_SEED);
}

#[test]
fn stores_matches_seed_engine() {
    let s = stores_stats();
    println!("STORES {s:?}");
    assert_eq!(format!("{s:?}"), STORES_SEED);
}
