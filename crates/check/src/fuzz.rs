//! Seeded random-trace fuzzing: small adversarial machines (tiny MSHRs,
//! single-entry L2 miss tables, starved DRAM queues, narrow
//! interconnects) running random warp programs, each case executed in
//! lockstep on both engines under the reference-model oracle.
//!
//! Everything is a pure function of the seed, so any failing case
//! reproduces from its [`FuzzSpec`] alone — which is what the shrinker
//! minimizes and the `.repro` files under `tests/repros/` pin.

use fuse_core::config::{build_l1, L1Preset};
use fuse_gpu::config::GpuConfig;
use fuse_gpu::l1d::L1dModel;
use fuse_gpu::system::GpuSystem;
use fuse_gpu::warp::{MemOp, StreamProgram, WarpOp, WarpProgram};
use fuse_mem::dram::DramTiming;
use fuse_workloads::rng::Xoshiro256pp;

use crate::lockstep::{run_lockstep, LockstepReport};

/// Presets the fuzzer rotates through: the baseline, the simplest and
/// the most elaborate FUSE hybrids, and the unbounded Oracle L1 (which
/// exercises the `IdealL1` MSHR path the presets do not).
const FUZZ_PRESETS: [L1Preset; 5] = [
    L1Preset::L1Sram,
    L1Preset::Hybrid,
    L1Preset::BaseFuse,
    L1Preset::DyFuse,
    L1Preset::Oracle,
];

/// One fully-determined fuzz case. Every field is data — two equal specs
/// run identical simulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzSpec {
    /// Root seed for the per-warp program generators.
    pub seed: u64,
    /// SMs in the machine.
    pub sms: usize,
    /// Warps per SM.
    pub warps: usize,
    /// Instructions per warp.
    pub ops: usize,
    /// Shared footprint in 128 B lines — small values force merges,
    /// evictions and row conflicts.
    pub footprint_lines: u64,
    /// Percent of memory ops that are stores.
    pub store_pct: u8,
    /// Percent of memory ops with scattered (per-lane random) addresses.
    pub scatter_pct: u8,
    /// Percent of ops that are compute (non-memory).
    pub compute_pct: u8,
    /// L1 MSHR entries (structural hazard pressure).
    pub mshr_entries: usize,
    /// L2 outstanding-miss table entries per slice (retry pressure).
    pub l2_pending: usize,
    /// DRAM queue capacity per channel (deferred-push pressure).
    pub dram_queue: usize,
    /// L1D preset under test.
    pub preset: L1Preset,
    /// Cycle cap (safety net; cases normally retire).
    pub max_cycles: u64,
}

impl FuzzSpec {
    /// Derives a randomized case from `seed` alone.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        FuzzSpec {
            seed,
            sms: 1 + rng.range_usize(3),
            warps: 1 + rng.range_usize(8),
            ops: 2 + rng.range_usize(23),
            footprint_lines: 1 + rng.range_u64(512),
            store_pct: rng.range_u64(61) as u8,
            scatter_pct: rng.range_u64(51) as u8,
            compute_pct: rng.range_u64(41) as u8,
            mshr_entries: 1 + rng.range_usize(16),
            l2_pending: 1 + rng.range_usize(16),
            dram_queue: 1 + rng.range_usize(8),
            preset: FUZZ_PRESETS[rng.range_usize(FUZZ_PRESETS.len())],
            max_cycles: 4_000_000,
        }
    }

    /// The machine this case runs on: a deliberately cramped two-channel
    /// GPU where every structural limit is within reach of a short trace.
    pub fn gpu_config(&self) -> GpuConfig {
        GpuConfig {
            num_sms: self.sms,
            warps_per_sm: self.warps,
            l2_banks: 4,
            l2_sets: 16,
            l2_ways: 2,
            l2_latency: 10,
            l2_mshr_entries: self.l2_pending,
            icnt_latency: 8,
            icnt_flits_per_cycle: 5,
            dram_channels: 2,
            dram: DramTiming {
                banks: 4,
                lines_per_row: 4,
                window: 4,
                queue_capacity: self.dram_queue,
                burst: 2,
                ..DramTiming::default()
            },
            ..GpuConfig::gtx480()
        }
    }

    fn build_l1(&self) -> Box<dyn L1dModel> {
        let (model, _) = build_l1(self.preset.l1().as_ref(), Some(self.mshr_entries));
        model()
    }

    /// Generates warp `(sm, warp)`'s instruction stream — a pure
    /// function of the spec, so both engines (and any replay) see the
    /// same trace.
    pub fn program(&self, sm: usize, warp: usize) -> Vec<WarpOp> {
        let warp_seed = self
            .seed
            .wrapping_add((sm as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((warp as u64).wrapping_mul(0xd1b5_4a32_d192_ed03));
        let mut rng = Xoshiro256pp::seed_from_u64(warp_seed);
        let mut ops = Vec::with_capacity(self.ops);
        for _ in 0..self.ops {
            if rng.range_u64(100) < self.compute_pct as u64 {
                ops.push(WarpOp::Compute {
                    cycles: 1 + rng.range_u64(4) as u8,
                });
                continue;
            }
            let is_store = rng.range_u64(100) < self.store_pct as u64;
            let pc = 0x100 + rng.range_u64(8) as u32 * 8;
            let op = if rng.range_u64(100) < self.scatter_pct as u64 {
                let active = 1 + rng.range_usize(32);
                let addrs: Vec<u64> = (0..active)
                    .map(|_| rng.range_u64(self.footprint_lines) * 128 + rng.range_u64(32) * 4)
                    .collect();
                MemOp::scattered(pc, is_store, &addrs)
            } else {
                let base = rng.range_u64(self.footprint_lines) * 128;
                let elem = 4 << rng.range_u64(2);
                let active = 1 + rng.range_u64(32) as u8;
                MemOp::strided(pc, is_store, base, elem, active)
            };
            ops.push(WarpOp::Mem(op));
        }
        ops
    }

    /// Builds the ready-to-run system for this case.
    pub fn build_system(&self) -> GpuSystem {
        let spec = *self;
        GpuSystem::new(
            self.gpu_config(),
            move |_| spec.build_l1(),
            move |sm, warp| {
                Box::new(StreamProgram::new(spec.program(sm, warp as usize)))
                    as Box<dyn WarpProgram>
            },
        )
    }
}

/// Runs one fuzz case in lockstep on both engines under the oracle.
pub fn run_case(spec: &FuzzSpec) -> LockstepReport {
    run_lockstep(|| spec.build_system(), spec.max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_and_programs_are_deterministic() {
        let a = FuzzSpec::from_seed(99);
        let b = FuzzSpec::from_seed(99);
        assert_eq!(a, b);
        assert_eq!(a.program(1, 3), b.program(1, 3));
        assert_ne!(
            FuzzSpec::from_seed(99),
            FuzzSpec::from_seed(100),
            "different seeds give different cases"
        );
    }

    #[test]
    fn a_handful_of_seeds_pass_lockstep() {
        for seed in 0..4 {
            let spec = FuzzSpec::from_seed(seed);
            let report = run_case(&spec);
            assert!(
                report.ok(),
                "seed {seed} ({spec:?}) diverged: {:?}",
                report.violations
            );
            assert_eq!(
                report.skip_stats.instructions,
                (spec.sms * spec.warps * spec.ops) as u64,
                "seed {seed} did not retire every instruction"
            );
        }
    }

    #[test]
    fn oracle_cases_honour_mshr_entries() {
        let spec = (0..)
            .map(FuzzSpec::from_seed)
            .find(|s| s.preset == L1Preset::Oracle)
            .expect("some seed draws the Oracle");
        let stats = |mshr_entries| {
            run_case(&FuzzSpec {
                mshr_entries,
                ..spec
            })
            .skip_stats
        };
        assert_ne!(stats(1), stats(16), "{spec:?}");
    }

    #[test]
    fn structural_pressure_fields_reach_the_machine() {
        let spec = FuzzSpec {
            dram_queue: 1,
            l2_pending: 1,
            ..FuzzSpec::from_seed(0)
        };
        let cfg = spec.gpu_config();
        assert_eq!(cfg.dram.queue_capacity, 1);
        assert_eq!(cfg.l2_mshr_entries, 1);
        cfg.validate();
    }
}
