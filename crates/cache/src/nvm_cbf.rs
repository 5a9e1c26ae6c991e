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
//! keyed by [`line_keys`], with saturating counters, and tracks the event
//! counts the energy model and Fig. 20 need.

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
    /// Counter increment operations.
    pub increments: u64,
    /// Counter decrement operations.
    pub decrements: u64,
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
    /// is filter `f`'s counter `k`. A whole-array *test* reads one
    /// contiguous `num_filters`-byte row per hash key — the physical
    /// analogue of the paper's all-filters-in-parallel sensing, and the
    /// layout that keeps the simulator's hottest loop in cache.
    counters: Vec<u8>,
    /// Sticky saturation flags, same layout as `counters`.
    saturated: Vec<bool>,
    stats: CbfStats,
}

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
        NvmCbfArray {
            num_filters,
            slots,
            hashes,
            max: ((1u16 << counter_bits) - 1) as u8,
            counters: vec![0; num_filters * slots],
            saturated: vec![false; num_filters * slots],
            stats: CbfStats::default(),
        }
    }

    /// Number of filters (= tag partitions).
    pub fn num_filters(&self) -> usize {
        self.num_filters
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
    /// each key then reads one contiguous counter row, and the candidate
    /// list shrinks monotonically key over key.
    pub fn test_all_into(&mut self, line: LineAddr, out: &mut Vec<usize>) {
        self.stats.tests += 1;
        out.clear();
        let nf = self.num_filters;
        let mut keybuf = [0usize; MAX_HASHES];
        let keys = line_keys(line, self.slots, self.hashes, &mut keybuf);
        let first = &self.counters[keys[0] * nf..(keys[0] + 1) * nf];
        out.extend((0..nf).filter(|&f| first[f] > 0));
        for &k in &keys[1..] {
            let row = &self.counters[k * nf..(k + 1) * nf];
            out.retain(|&f| row[f] > 0);
        }
        self.stats.positives += out.len() as u64;
    }

    /// Records that the positive response of some partition was false
    /// (caller discovers this while polling tags).
    pub fn record_false_positive(&mut self) {
        self.stats.false_positives += 1;
    }

    /// Inserts `line` into partition `p`'s filter.
    pub fn increment(&mut self, p: usize, line: LineAddr) {
        self.stats.increments += 1;
        let mut keybuf = [0usize; MAX_HASHES];
        for &k in line_keys(line, self.slots, self.hashes, &mut keybuf) {
            let i = k * self.num_filters + p;
            if self.counters[i] == self.max {
                // Once saturated, the counter can no longer track
                // removals; it must stick at max to preserve
                // no-false-negatives.
                self.saturated[i] = true;
            } else {
                self.counters[i] += 1;
            }
        }
    }

    /// Removes `line` from partition `p`'s filter.
    pub fn decrement(&mut self, p: usize, line: LineAddr) {
        self.stats.decrements += 1;
        let mut keybuf = [0usize; MAX_HASHES];
        for &k in line_keys(line, self.slots, self.hashes, &mut keybuf) {
            let i = k * self.num_filters + p;
            if self.saturated[i] {
                continue; // sticky: cannot tell how many members remain
            }
            debug_assert!(self.counters[i] > 0, "decrement of non-member {line}");
            self.counters[i] = self.counters[i].saturating_sub(1);
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
        assert_eq!(s.increments, 1);
        assert_eq!(s.decrements, 1);
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
