//! Engine-level property test: arbitrary small programs must retire
//! exactly, deterministically, with conserved request accounting. It runs
//! over a fixed list of seeded programs so every build checks the same
//! inputs.

use fuse_gpu::config::GpuConfig;
use fuse_gpu::l1d::IdealL1;
use fuse_gpu::system::GpuSystem;
use fuse_gpu::warp::{MemOp, StreamProgram, WarpOp};

/// Seeded programs: case `i` runs on `SplitMix(i)`.
const CASES: u64 = 24;

/// SplitMix64: a dependency-free seeded generator for the property below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Debug, Clone, Copy)]
enum OpSpec {
    Compute(u8),
    Load { base: u64, stride: u64 },
    Store { base: u64, stride: u64 },
}

/// `1..24` instructions: compute delays of 1..4 cycles, loads at element
/// strides of 4, 64 or 128 bytes, and unit-stride stores.
fn program(rng: &mut SplitMix) -> Vec<OpSpec> {
    (0..1 + rng.below(23))
        .map(|_| match rng.below(3) {
            0 => OpSpec::Compute(1 + rng.below(3) as u8),
            1 => OpSpec::Load {
                base: rng.below(1 << 20),
                stride: [4, 64, 128][rng.below(3) as usize],
            },
            _ => OpSpec::Store {
                base: rng.below(1 << 20),
                stride: 4,
            },
        })
        .collect()
}

fn build(spec: &[OpSpec], salt: u64) -> Vec<WarpOp> {
    let mem = |i: usize, is_store: bool, base: u64, stride: u64| {
        WarpOp::Mem(MemOp::strided(
            (i as u32) * 4,
            is_store,
            base + salt * (1 << 22),
            stride,
            32,
        ))
    };
    spec.iter()
        .enumerate()
        .map(|(i, s)| match *s {
            OpSpec::Compute(cycles) => WarpOp::Compute { cycles },
            OpSpec::Load { base, stride } => mem(i, false, base, stride),
            OpSpec::Store { base, stride } => mem(i, true, base, stride),
        })
        .collect()
}

#[test]
fn programs_retire_exactly_and_deterministically() {
    for seed in 0..CASES {
        let spec = program(&mut SplitMix(seed));
        let run = || {
            let cfg = GpuConfig {
                num_sms: 2,
                warps_per_sm: 3,
                ..GpuConfig::gtx480()
            };
            let mut sys = GpuSystem::new(
                cfg,
                |_| Box::new(IdealL1::new()),
                |sm, warp| {
                    Box::new(StreamProgram::new(build(
                        &spec,
                        (sm * 3 + warp as usize) as u64,
                    )))
                },
            );
            let stats = sys.run(5_000_000);
            (sys.is_done(), stats)
        };
        let (done, a) = run();
        let (_, b) = run();
        assert!(done, "seed {seed}: system failed to drain");
        assert_eq!(a, b, "seed {seed}: non-deterministic engine");
        assert_eq!(a.instructions as usize, spec.len() * 6, "seed {seed}");
        // Energy counters mirror engine counters.
        assert_eq!(a.energy.warp_instructions, a.instructions, "seed {seed}");
        assert_eq!(a.energy.dram_accesses, a.dram_accesses, "seed {seed}");
        // Every L1 miss produced an outgoing request; every completed read
        // was delivered back.
        assert!(a.outgoing_requests >= a.l1.misses, "seed {seed}");
        assert!(a.completed_reads <= a.outgoing_requests, "seed {seed}");
    }
}
