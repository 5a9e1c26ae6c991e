//! NVM-resident counting-Bloom-filter array (§IV-C, Fig. 12d).
//!
//! FUSE keeps its CBFs in a small STT-MRAM 2D MTJ island so they do not eat
//! SRAM area. All CBFs share peripherals: a *test* activates every filter's
//! hashed counters in parallel and senses them against a zero/non-zero
//! reference in a single STT read (the paper measures 591 ps — under one
//! cache cycle); increments/decrements ride on the Y-port and overlap the
//! corresponding data-array write.
//!
//! This module holds one counting Bloom filter per tag-array partition,
//! keyed by [`line_keys`], with saturating counters, and counts tests,
//! positives and false positives: Fig. 20's false-positive rate reads
//! them. The energy model reads no CBF count.

use crate::bloom::{line_keys, MAX_HASHES};
use crate::line::LineAddr;

/// Statistics of CBF usage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CbfStats {
    /// Whole-array test operations (one per probe; all CBFs in parallel).
    pub tests: u64,
    /// Per-filter positive responses across all tests.
    pub positives: u64,
    /// Positives that turned out not to contain the key (measured by the
    /// caller via [`NvmCbfArray::record_false_positive`]).
    pub false_positives: u64,
}

impl CbfStats {
    /// False positives per individual filter test (Fig. 20's y-axis).
    ///
    /// Returns 0 for an unused array rather than NaN.
    pub fn false_positive_rate(&self, filters: usize) -> f64 {
        let filter_tests = self.tests.saturating_mul(filters as u64);
        if filter_tests == 0 {
            0.0
        } else {
            self.false_positives as f64 / filter_tests as f64
        }
    }
}

/// An array of counting Bloom filters, one per tag partition.
///
/// # Examples
///
/// ```
/// use fuse_cache::nvm_cbf::NvmCbfArray;
/// use fuse_cache::line::LineAddr;
/// let mut a = NvmCbfArray::new(8, 16, 3, 2);
/// a.increment(2, LineAddr(77));
/// let positives = a.test_all(LineAddr(77));
/// assert!(positives.contains(&2));
/// ```
#[derive(Debug, Clone)]
pub struct NvmCbfArray {
    num_filters: usize,
    slots: usize,
    hashes: u32,
    max: u8,
    /// All filters' counters, slot-major: `counters[k * num_filters + f]`
    /// is filter `f`'s counter `k`. The low bits hold the count (at most
    /// 7 wide); the top bit is the sticky `SATURATED` flag.
    counters: Vec<u8>,
    /// The zero/non-zero sense of each counter row, one bit per filter:
    /// bit `f % 64` of `nonzero[k * words + f / 64]` is set iff filter
    /// `f`'s counter `k` is non-zero. A whole-array *test* ANDs one mask
    /// row per hash key — the simulator's analogue of the paper's
    /// all-filters-in-parallel sensing.
    nonzero: Vec<u64>,
    /// Mask words per counter row (`num_filters.div_ceil(64)`).
    words: usize,
    stats: CbfStats,
}

/// Counter-byte flag: the counter overflowed and can no longer track
/// removals. Free because counters are at most 7 bits wide.
const SATURATED: u8 = 0x80;

impl NvmCbfArray {
    /// Creates `num_filters` CBFs of `slots` counters (`counter_bits` wide)
    /// and `hashes` hash functions each.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, `counter_bits > 7`, or `hashes`
    /// exceeds [`MAX_HASHES`].
    pub fn new(num_filters: usize, slots: usize, hashes: u32, counter_bits: u32) -> Self {
        assert!(num_filters > 0, "need at least one filter");
        assert!(slots > 0 && hashes > 0, "filter geometry must be non-zero");
        assert!(
            (1..=7).contains(&counter_bits),
            "counter width must be 1..=7 bits"
        );
        assert!(
            hashes as usize <= MAX_HASHES,
            "at most {MAX_HASHES} hash functions"
        );
        let words = num_filters.div_ceil(64);
        NvmCbfArray {
            num_filters,
            slots,
            hashes,
            max: ((1u16 << counter_bits) - 1) as u8,
            counters: vec![0; num_filters * slots],
            nonzero: vec![0; words * slots],
            words,
            stats: CbfStats::default(),
        }
    }

    /// Tests every filter in parallel (one NVM-CBF *test* operation) and
    /// returns the indices of the positive partitions, in index order.
    pub fn test_all(&mut self, line: LineAddr) -> Vec<usize> {
        let mut out = Vec::new();
        self.test_all_into(line, &mut out);
        out
    }

    /// Allocation-free [`NvmCbfArray::test_all`]: writes the positive
    /// partition indices into `out` (cleared first), in index order. The
    /// filters share one geometry, so the hash keys are computed once;
    /// each 64-filter word of the answer is the AND of that word across
    /// the keys' non-zero mask rows.
    pub fn test_all_into(&mut self, line: LineAddr, out: &mut Vec<usize>) {
        self.stats.tests += 1;
        out.clear();
        let mut keybuf = [0usize; MAX_HASHES];
        let keys = line_keys(line, self.slots, self.hashes, &mut keybuf);
        for w in 0..self.words {
            let mut mask = keys
                .iter()
                .fold(!0u64, |m, &k| m & self.nonzero[k * self.words + w]);
            while mask != 0 {
                out.push(w * 64 + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
        self.stats.positives += out.len() as u64;
    }

    /// Records that the positive response of some partition was false
    /// (caller discovers this while polling tags).
    pub fn record_false_positive(&mut self) {
        self.stats.false_positives += 1;
    }

    /// Adds the test-side counts of `delta` (`tests`, `positives`,
    /// `false_positives`) without testing: the replay of probes whose
    /// responses the caller already knows, against unchanged filters.
    pub fn replay_tests(&mut self, delta: CbfStats) {
        self.stats.tests += delta.tests;
        self.stats.positives += delta.positives;
        self.stats.false_positives += delta.false_positives;
    }

    /// Inserts `line` into partition `p`'s filter.
    pub fn increment(&mut self, p: usize, line: LineAddr) {
        let mut keybuf = [0usize; MAX_HASHES];
        for &k in line_keys(line, self.slots, self.hashes, &mut keybuf) {
            let c = &mut self.counters[k * self.num_filters + p];
            if *c & !SATURATED == self.max {
                // Once saturated, the counter can no longer track
                // removals; it must stick at max to preserve
                // no-false-negatives.
                *c |= SATURATED;
            } else {
                if *c == 0 {
                    self.nonzero[k * self.words + p / 64] |= 1 << (p % 64);
                }
                *c += 1;
            }
        }
    }

    /// Removes `line` from partition `p`'s filter.
    pub fn decrement(&mut self, p: usize, line: LineAddr) {
        let mut keybuf = [0usize; MAX_HASHES];
        for &k in line_keys(line, self.slots, self.hashes, &mut keybuf) {
            let c = &mut self.counters[k * self.num_filters + p];
            if *c & SATURATED != 0 {
                continue; // sticky: cannot tell how many members remain
            }
            debug_assert!(*c > 0, "decrement of non-member {line}");
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.nonzero[k * self.words + p / 64] &= !(1 << (p % 64));
            }
        }
    }

    /// Usage statistics.
    pub fn stats(&self) -> CbfStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_test_positive_in_their_partition() {
        let mut a = NvmCbfArray::new(4, 16, 3, 2);
        a.increment(1, LineAddr(10));
        a.increment(3, LineAddr(20));
        assert!(a.test_all(LineAddr(10)).contains(&1));
        assert!(a.test_all(LineAddr(20)).contains(&3));
    }

    #[test]
    fn removal_clears_partition() {
        let mut a = NvmCbfArray::new(4, 16, 3, 2);
        a.increment(0, LineAddr(10));
        a.decrement(0, LineAddr(10));
        assert!(!a.test_all(LineAddr(10)).contains(&0));
    }

    #[test]
    fn stats_count_events() {
        let mut a = NvmCbfArray::new(2, 16, 3, 2);
        a.increment(0, LineAddr(1));
        a.test_all(LineAddr(1));
        a.test_all(LineAddr(2));
        a.record_false_positive();
        a.decrement(0, LineAddr(1));
        let s = a.stats();
        assert_eq!(s.tests, 2);
        assert_eq!(s.positives, 1, "only the member's test is positive");
        assert_eq!(s.false_positives, 1);
        assert!(s.false_positive_rate(2) > 0.0);
    }

    #[test]
    fn saturation_is_sticky_and_safe() {
        let mut a = NvmCbfArray::new(1, 4, 1, 2);
        // Drive one counter past its 2-bit max, then remove as often.
        for _ in 0..10 {
            a.increment(0, LineAddr(1));
        }
        for _ in 0..9 {
            a.decrement(0, LineAddr(1));
        }
        // The saturated counter cannot tell how many members remain, so
        // it sticks: membership may be over-reported, never lost.
        assert_eq!(a.test_all(LineAddr(1)), vec![0]);
    }

    #[test]
    fn more_hashes_reduce_false_positives() {
        let fp_rate = |hashes: u32| {
            let mut a = NvmCbfArray::new(1, 128, hashes, 2);
            for i in 0..8u64 {
                a.increment(0, LineAddr(i * 131));
            }
            let probes = 4000u64;
            let fp = (0..probes)
                .filter(|i| !a.test_all(LineAddr(1_000_000 + i)).is_empty())
                .count();
            fp as f64 / probes as f64
        };
        let (one, three) = (fp_rate(1), fp_rate(3));
        assert!(
            three < one,
            "3 hash functions ({three}) should beat 1 ({one}) at this load factor"
        );
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn wide_counters_rejected() {
        let _ = NvmCbfArray::new(1, 16, 3, 8);
    }

    #[test]
    fn empty_array_rate_is_zero() {
        let a = NvmCbfArray::new(2, 16, 3, 2);
        assert_eq!(a.stats().false_positive_rate(2), 0.0);
    }
}
