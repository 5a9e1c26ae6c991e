//! Seeded property test for the event engine's wake array (DESIGN.md
//! §3i).
//!
//! The wake array's single safety contract is *conservativeness*: a
//! quiet SM's registered wake must never sit later than the SM's live
//! `next_event` answer, and hot SMs must keep their wake parked. An
//! early wake only costs a no-op dispatch; a late wake silently loses an
//! event and corrupts statistics. This test drives randomly drawn
//! (workload, preset, machine) cells cycle by cycle through the engine's
//! debug stepping hook and audits the wakes between every pair of ticks
//! — the per-cycle interleavings a whole-run bitwise comparison (which
//! `tests/skip_equivalence.rs` also pins) can mask.

use fuse::core::config::L1Preset;
use fuse::gpu::system::GpuSystem;
use fuse::gpu::GpuConfig;
use fuse::workloads::all_workloads;

/// Deterministic 64-bit LCG (Knuth MMIX constants) — the test needs
/// reproducible draws, not statistical quality.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[test]
fn wake_registry_stays_conservative_on_seeded_random_cells() {
    let workloads = all_workloads();
    let mut rng = Lcg(0x0005_eeda_c717_e5e7);
    for case in 0..10 {
        let spec = &workloads[rng.pick(workloads.len() as u64) as usize];
        let preset = if rng.pick(2) == 0 {
            L1Preset::L1Sram
        } else {
            L1Preset::DyFuse
        };
        let cfg = GpuConfig {
            num_sms: 1 + rng.pick(3) as usize,
            warps_per_sm: 2 + rng.pick(6) as usize,
            ..GpuConfig::gtx480()
        };
        let ops = 6 + rng.pick(10) as usize;
        let label = format!(
            "case {case}: {} / {} ({} SMs, {} warps, {ops} ops)",
            spec.name,
            preset.name(),
            cfg.num_sms,
            cfg.warps_per_sm
        );
        let mut sys = GpuSystem::new(
            cfg,
            |_| preset.build_model(),
            |sm, warp| spec.program(sm, warp, ops),
        );
        let mut drained = false;
        for cycle in 0..200_000u64 {
            sys.debug_step();
            sys.debug_audit_wakes()
                .unwrap_or_else(|e| panic!("{label}, after cycle {cycle}: {e}"));
            if sys.is_done() {
                drained = true;
                break;
            }
        }
        assert!(drained, "{label}: workload did not drain in 200k cycles");
    }
}
