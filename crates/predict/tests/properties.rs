//! Property tests over the predictors: counters stay bounded, the
//! classification is total, and training is deterministic. Each property
//! runs over a fixed list of seeded cases so every build checks the same
//! inputs.

use fuse_cache::line::LineAddr;
use fuse_predict::class::ReadLevel;
use fuse_predict::dead_write::{DeadWriteConfig, DeadWritePredictor};
use fuse_predict::read_level::{AccuracyTracker, ReadLevelConfig, ReadLevelPredictor};

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

    /// `1..max_len` accesses `(warp < 48, pc < max_pc, line < max_line,
    /// is_store)`.
    fn accesses(&mut self, max_pc: u64, max_line: u64, max_len: u64) -> Vec<Access> {
        (0..1 + self.below(max_len - 1))
            .map(|_| Access {
                warp: self.below(48) as u16,
                pc: self.below(max_pc) as u32,
                line: LineAddr(self.below(max_line)),
                is_store: self.below(2) == 1,
            })
            .collect()
    }
}

struct Access {
    warp: u16,
    pc: u32,
    line: LineAddr,
    is_store: bool,
}

#[test]
fn classification_is_total_under_arbitrary_streams() {
    for seed in 0..CASES {
        let accesses = SplitMix(seed).accesses(4096, 512, 800);
        let mut p = ReadLevelPredictor::new(ReadLevelConfig::default());
        for a in &accesses {
            let sig = ReadLevelPredictor::pc_signature(a.pc);
            p.observe(a.warp, sig, a.line, a.is_store);
            // classify never panics and returns one of the four levels
            // for any signature.
            assert!(matches!(
                p.classify(sig),
                ReadLevel::Wm | ReadLevel::Worm | ReadLevel::Woro | ReadLevel::Neutral
            ));
        }
        let (observed, sampled) = p.sample_counts();
        assert_eq!(observed as usize, accesses.len(), "seed {seed}");
        assert!(sampled <= observed, "seed {seed}");
    }
}

#[test]
fn training_is_deterministic() {
    for seed in 0..CASES {
        let accesses = SplitMix(seed).accesses(1024, 256, 400);
        let run = || {
            let mut p = ReadLevelPredictor::new(ReadLevelConfig::default());
            for a in &accesses {
                let sig = ReadLevelPredictor::pc_signature(a.pc);
                p.observe(a.warp, sig, a.line, a.is_store);
            }
            (0u16..64).map(|sig| p.classify(sig)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "seed {seed}");
    }
}

#[test]
fn dead_write_predictions_are_stable_and_bounded() {
    for seed in 0..CASES {
        let accesses = SplitMix(seed).accesses(1024, 100_000, 600);
        let mut d = DeadWritePredictor::new(DeadWriteConfig::default());
        for a in &accesses {
            let sig = ReadLevelPredictor::pc_signature(a.pc);
            d.observe(a.warp, sig, a.line, a.is_store);
            let _ = d.predict_dead(sig); // never panics
        }
    }
}

#[test]
fn accuracy_tracker_totals_are_conserved() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let grades = rng.below(200);
        let mut t = AccuracyTracker::default();
        for _ in 0..grades {
            let class = ReadLevel::decode(rng.below(4) as u32);
            t.record(class, rng.below(10) as u32);
        }
        assert_eq!(t.total(), grades, "seed {seed}");
        assert!((0.0..=1.0).contains(&t.accuracy()), "seed {seed}");
    }
}
