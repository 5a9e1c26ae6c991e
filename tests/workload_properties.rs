//! Property tests over the workload generators and the simulation engine:
//! arbitrary calibrations must produce valid, deterministic traces and
//! self-consistent runs. Each property runs over a fixed list of seeded
//! calibrations so every build checks the same inputs.

use fuse::core::config::L1Preset;
use fuse::gpu::coalesce::coalesce;
use fuse::gpu::config::GpuConfig;
use fuse::gpu::warp::{WarpOp, WarpProgram};
use fuse::runner::{run_workload, RunConfig};
use fuse::workloads::gen::GenProgram;
use fuse::workloads::rng::Xoshiro256pp;
use fuse::workloads::spec::{ClassMix, Suite, WorkloadSpec};

/// Seeded calibrations: case `i` draws from `Xoshiro256pp::seed_from_u64(i)`.
const CASES: u64 = 24;

/// A uniform draw from `lo..hi`.
fn uniform(rng: &mut Xoshiro256pp, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A calibration anywhere in the generator's valid parameter space.
fn spec(rng: &mut Xoshiro256pp) -> WorkloadSpec {
    WorkloadSpec {
        name: "prop",
        suite: Suite::PolyBench,
        apki: uniform(rng, 1.0, 200.0),
        paper_bypass_ratio: 0.0,
        mix: ClassMix {
            wm: uniform(rng, 0.0, 1.0),
            read_intensive: uniform(rng, 0.0, 1.0),
            worm: uniform(rng, 0.01, 1.0),
            woro: uniform(rng, 0.0, 1.0),
        },
        irregularity: uniform(rng, 0.0, 1.0),
        pitch_lines: 64,
        worm_region_lines: 8 + rng.range_u64(4088),
        ri_region_lines: 48,
        wm_region_lines: 16,
        local_reuse: uniform(rng, 0.0, 0.9),
        scatter_lines: 1 + rng.range_usize(16),
        ops_per_warp: 64,
    }
}

#[test]
fn generated_traces_are_valid_and_deterministic() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let spec = spec(&mut rng);
        let sm = rng.range_usize(8);
        let warp = rng.range_u64(48) as u16;
        let drain = || {
            let mut p = GenProgram::new(spec, sm, warp, 64);
            let mut ops = Vec::new();
            while let Some(op) = p.next_op() {
                if let WarpOp::Mem(m) = &op {
                    // Every memory op coalesces to 1..=32 valid lines.
                    let lines = coalesce(m);
                    assert!(
                        !lines.is_empty() && lines.len() <= 32,
                        "seed {seed}: {} lines",
                        lines.len()
                    );
                }
                ops.push(op);
            }
            assert_eq!(ops.len(), 64, "seed {seed}");
            ops
        };
        assert_eq!(drain(), drain(), "seed {seed}: same seed, same trace");
    }
}

#[test]
fn simulation_invariants_hold_for_arbitrary_workloads() {
    let rc = RunConfig {
        gpu: GpuConfig {
            num_sms: 2,
            warps_per_sm: 4,
            ..GpuConfig::gtx480()
        },
        ops_scale: 1.0,
        max_cycles: 2_000_000,
        ..RunConfig::smoke()
    };
    for seed in 0..CASES {
        let spec = spec(&mut Xoshiro256pp::seed_from_u64(seed));
        for preset in [L1Preset::L1Sram, L1Preset::DyFuse] {
            let r = run_workload(&spec, preset, &rc);
            let what = format!("seed {seed} / {}", preset.name());
            // The whole program retires within the cycle cap.
            assert_eq!(r.sim.instructions, 2 * 4 * 64, "{what}");
            let l1 = r.sim.l1;
            assert_eq!(
                l1.accesses(),
                l1.hits + l1.misses + l1.mshr_merges,
                "{what}"
            );
            assert!(r.sim.outgoing_requests >= l1.misses, "{what}");
            assert!(r.energy.total_nj() >= 0.0, "{what}");
        }
    }
}
