//! Property tests over the DRAM timing model and energy arithmetic, each
//! run over a fixed list of seeded cases so every build checks the same
//! inputs.

use std::collections::HashSet;

use fuse_mem::dram::{DramChannel, DramRequest, DramTiming};
use fuse_mem::energy::{EnergyCounters, EnergyParams};
use fuse_mem::tech::BankParams;

/// Seeds per property: case `i` runs on `SplitMix(i)`.
const CASES: u64 = 64;

/// SplitMix64: a dependency-free seeded generator for the properties below.
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

    /// `1..max_len` read requests to lines `0..max_line`, ids in order.
    fn reads(&mut self, max_line: u64, max_len: u64) -> Vec<DramRequest> {
        (0..1 + self.below(max_len - 1))
            .map(|id| DramRequest {
                id,
                line: self.below(max_line),
                is_write: false,
            })
            .collect()
    }
}

#[test]
fn every_accepted_dram_request_completes_exactly_once() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let mut ch = DramChannel::new(DramTiming::default());
        let mut accepted = HashSet::new();
        for req in rng.reads(256, 60) {
            if ch.try_push(req) {
                accepted.insert(req.id);
            }
        }
        let mut completed = HashSet::new();
        for now in 0..200_000u64 {
            for c in ch.tick(now) {
                assert!(
                    c.finished_at <= now,
                    "seed {seed}: completion from the future"
                );
                assert!(
                    completed.insert(c.id),
                    "seed {seed}: duplicate completion {}",
                    c.id
                );
            }
            if completed.len() == accepted.len() {
                break;
            }
        }
        assert_eq!(completed, accepted, "seed {seed}");
    }
}

#[test]
fn dram_completions_never_precede_minimum_latency() {
    let t = DramTiming::default();
    let min_latency = (t.t_cl * t.clock_ratio) as u64; // best case: row hit
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let mut ch = DramChannel::new(t);
        for req in rng.reads(64, 30) {
            let _ = ch.try_push(req);
        }
        let mut now = 0;
        while ch.occupancy() > 0 {
            assert!(now < 100_000, "seed {seed}: channel never drained");
            for c in ch.tick(now) {
                assert!(
                    c.finished_at >= min_latency,
                    "seed {seed}: completion at {} beats tCL {min_latency}",
                    c.finished_at
                );
            }
            now += 1;
        }
    }
}

#[test]
fn energy_is_monotone_in_events_and_cycles() {
    let params = EnergyParams {
        sram: Some(BankParams::sram_16kb()),
        stt: Some(BankParams::stt_64kb()),
        ..EnergyParams::default()
    };
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let mut a = EnergyCounters::new();
        a.stt_reads = rng.below(1000);
        a.stt_writes = rng.below(1000);
        let cycles = rng.below(1_000_000);
        let mut b = a;
        b.stt_writes += 1;
        let ea = params.evaluate(&a, cycles);
        let eb = params.evaluate(&b, cycles);
        assert!(
            eb.total_nj() > ea.total_nj(),
            "seed {seed}: an extra write must cost energy"
        );
        let ec = params.evaluate(&a, cycles + 1000);
        assert!(
            ec.total_nj() >= ea.total_nj(),
            "seed {seed}: longer runs cannot cost less"
        );
        for v in [
            ea.sram_dynamic_nj,
            ea.sram_leakage_nj,
            ea.stt_dynamic_nj,
            ea.stt_leakage_nj,
            ea.l2_nj,
            ea.dram_nj,
            ea.network_nj,
            ea.compute_nj,
        ] {
            assert!(v >= 0.0, "seed {seed}: negative breakdown component");
        }
    }
}

#[test]
fn bank_interpolation_stays_within_reason() {
    // Exhaustive over 1..512 KB.
    for capacity_kb in 1u64..512 {
        let sram = BankParams::sram_for_capacity(capacity_kb * 1024);
        let stt = BankParams::stt_for_capacity(capacity_kb * 1024);
        assert!(sram.read_energy_nj > 0.0 && sram.leakage_mw > 0.0);
        assert!(stt.read_energy_nj > 0.0 && stt.leakage_mw > 0.0);
        assert_eq!(stt.write_latency, 5 * stt.read_latency, "{capacity_kb} KB");
        // STT leaks far less than SRAM at every size (the non-volatility
        // argument of the paper).
        assert!(stt.leakage_mw < sram.leakage_mw, "{capacity_kb} KB");
    }
}
