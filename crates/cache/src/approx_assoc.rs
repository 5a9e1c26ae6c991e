//! Associativity-approximation logic (§III-B, Fig. 7a).
//!
//! The STT-MRAM bank is organised as a fully-associative store, but instead
//! of one comparator per line (30.6× area, 28.3× power of a 4-way cache per
//! the paper), the tag array is split into partitions, each guarded by a
//! counting Bloom filter. A probe:
//!
//! 1. tests all CBFs in parallel (sub-cycle on the NVM-CBF island),
//! 2. polls only the positive partitions, comparing their tags with a small
//!    number of parallel comparators (4), one partition per cycle,
//! 3. stops at the first match.
//!
//! CBF false positives cost extra polling cycles but never correctness.
//! Replacement is FIFO over the whole store (the paper's choice, §V).

use crate::line::LineAddr;
use crate::nvm_cbf::{CbfStats, NvmCbfArray};
use crate::tag_array::TagEntry;

/// Geometry of the approximate fully-associative store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxConfig {
    /// Total lines in the store (512 for the 64 KB STT bank).
    pub lines: usize,
    /// Number of CBFs / tag partitions (paper: 128).
    pub num_cbfs: usize,
    /// Counters per CBF (paper sweeps 32/64/128 "slots"; default 128 to
    /// match the paper's final configuration in §V-B).
    pub cbf_slots: usize,
    /// Hash functions per CBF (paper: 3).
    pub cbf_hashes: u32,
    /// Bits per CBF counter (paper: 2).
    pub cbf_counter_bits: u32,
    /// Parallel tag comparators (paper: 4).
    pub comparators: usize,
}

impl Default for ApproxConfig {
    fn default() -> Self {
        ApproxConfig {
            lines: 512,
            num_cbfs: 128,
            cbf_slots: 128,
            cbf_hashes: 3,
            cbf_counter_bits: 2,
            comparators: 4,
        }
    }
}

impl ApproxConfig {
    /// Lines covered by each CBF partition.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not divisible by `num_cbfs`.
    pub fn lines_per_partition(&self) -> usize {
        assert!(
            self.num_cbfs > 0 && self.lines.is_multiple_of(self.num_cbfs),
            "lines ({}) must divide evenly into {} partitions",
            self.lines,
            self.num_cbfs
        );
        self.lines / self.num_cbfs
    }
}

/// Result of one approximate probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxProbe {
    /// Slot of the matching line, if resident.
    pub way: Option<usize>,
    /// Tag-search latency in cycles (≥ 1).
    pub search_cycles: u32,
    /// Partitions polled before resolving.
    pub partitions_polled: u32,
    /// Polled partitions whose CBF response was a false positive.
    pub false_positives: u32,
}

/// Fully-associative tag store searched through per-partition CBFs.
///
/// # Examples
///
/// ```
/// use fuse_cache::approx_assoc::{ApproxAssocStore, ApproxConfig};
/// use fuse_cache::line::LineAddr;
///
/// let mut s = ApproxAssocStore::new(ApproxConfig::default());
/// s.fill(LineAddr(1), false, 0);
/// let probe = s.probe(LineAddr(1));
/// assert!(probe.way.is_some());
/// assert!(probe.search_cycles <= 2, "paper: 1-2 cycles in practice");
/// ```
#[derive(Debug, Clone)]
pub struct ApproxAssocStore {
    cfg: ApproxConfig,
    entries: Vec<TagEntry>,
    fifo_next: usize,
    cbfs: NvmCbfArray,
    valid_count: usize,
    /// Positive-partition scratch reused across probes (a probe per L1
    /// access makes this the simulator's hottest allocation site
    /// otherwise).
    positives_buf: Vec<usize>,
}

impl ApproxAssocStore {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is inconsistent (see
    /// [`ApproxConfig::lines_per_partition`]) or has zero comparators.
    pub fn new(cfg: ApproxConfig) -> Self {
        let _ = cfg.lines_per_partition();
        assert!(cfg.comparators > 0, "need at least one comparator");
        ApproxAssocStore {
            entries: vec![
                TagEntry {
                    line: LineAddr(0),
                    valid: false,
                    dirty: false,
                    aux: 0
                };
                cfg.lines
            ],
            fifo_next: 0,
            cbfs: NvmCbfArray::new(
                cfg.num_cbfs,
                cfg.cbf_slots,
                cfg.cbf_hashes,
                cfg.cbf_counter_bits,
            ),
            cfg,
            valid_count: 0,
            positives_buf: Vec::new(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> ApproxConfig {
        self.cfg
    }

    /// Lines currently resident.
    pub fn valid_lines(&self) -> usize {
        self.valid_count
    }

    /// Total capacity in lines.
    pub fn lines(&self) -> usize {
        self.cfg.lines
    }

    /// CBF statistics (Fig. 20).
    pub fn cbf_stats(&self) -> CbfStats {
        self.cbfs.stats()
    }

    /// Counts the CBF tests, positives and false positives of `delta` as
    /// if the probes that produced them ran again against unchanged
    /// contents (see [`NvmCbfArray::replay_tests`]).
    pub fn replay_cbf_tests(&mut self, delta: CbfStats) {
        self.cbfs.replay_tests(delta);
    }

    fn partition_of_slot(&self, slot: usize) -> usize {
        slot / self.cfg.lines_per_partition()
    }

    fn poll_partition(&self, p: usize, line: LineAddr) -> Option<usize> {
        let lpp = self.cfg.lines_per_partition();
        let base = p * lpp;
        (base..base + lpp).find(|&i| self.entries[i].valid && self.entries[i].line == line)
    }

    /// Cycles needed to poll one partition with the configured comparators.
    fn cycles_per_partition(&self) -> u32 {
        self.cfg
            .lines_per_partition()
            .div_ceil(self.cfg.comparators) as u32
    }

    /// Searches for `line`, modelling the CBF-guided serialized tag search.
    ///
    /// The CBF test itself completes within the probe cycle (591 ps per the
    /// paper); every polled partition costs
    /// `ceil(lines_per_partition / comparators)` cycles, and a miss with no
    /// positive partitions resolves in a single cycle.
    pub fn probe(&mut self, line: LineAddr) -> ApproxProbe {
        let mut positives = std::mem::take(&mut self.positives_buf);
        self.cbfs.test_all_into(line, &mut positives);
        let per_partition = self.cycles_per_partition();
        let mut polled = 0u32;
        let mut false_pos = 0u32;
        let mut way = None;
        for &p in &positives {
            polled += 1;
            match self.poll_partition(p, line) {
                Some(slot) => {
                    way = Some(slot);
                    break;
                }
                None => {
                    false_pos += 1;
                    self.cbfs.record_false_positive();
                }
            }
        }
        self.positives_buf = positives;
        ApproxProbe {
            way,
            search_cycles: (polled * per_partition).max(1),
            partitions_polled: polled,
            false_positives: false_pos,
        }
    }

    /// Returns the entry in `slot` for in-place mutation (dirty bit, aux).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn entry_mut(&mut self, slot: usize) -> &mut TagEntry {
        &mut self.entries[slot]
    }

    /// Immutable access to the entry in `slot`.
    pub fn entry(&self, slot: usize) -> &TagEntry {
        &self.entries[slot]
    }

    /// Inserts `line` at the FIFO cursor, returning the evicted entry, if
    /// any. Updates the affected partition CBFs.
    ///
    /// `line` must not be resident (debug-asserted).
    pub fn fill(&mut self, line: LineAddr, dirty: bool, aux: u32) -> Option<TagEntry> {
        debug_assert!(
            self.poll_all(line).is_none(),
            "fill of resident line {line}"
        );
        let slot = self.fifo_next;
        self.fifo_next = (self.fifo_next + 1) % self.cfg.lines;
        let p = self.partition_of_slot(slot);
        let evicted = self.entries[slot];
        if evicted.valid {
            self.cbfs.decrement(p, evicted.line);
        } else {
            self.valid_count += 1;
        }
        self.entries[slot] = TagEntry {
            line,
            valid: true,
            dirty,
            aux,
        };
        self.cbfs.increment(p, line);
        evicted.valid.then_some(evicted)
    }

    /// Removes `line` from the store (and its partition CBF), returning the
    /// entry if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<TagEntry> {
        let slot = self.poll_all(line)?;
        let p = self.partition_of_slot(slot);
        let entry = self.entries[slot];
        self.entries[slot] = TagEntry {
            line: LineAddr(0),
            valid: false,
            dirty: false,
            aux: 0,
        };
        self.cbfs.decrement(p, entry.line);
        self.valid_count -= 1;
        Some(entry)
    }

    /// Exact search without CBF involvement (simulator bookkeeping only).
    fn poll_all(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.valid && e.line == line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ApproxAssocStore {
        ApproxAssocStore::new(ApproxConfig {
            lines: 32,
            num_cbfs: 8,
            cbf_slots: 16,
            cbf_hashes: 3,
            cbf_counter_bits: 2,
            comparators: 4,
        })
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut s = small();
        s.fill(LineAddr(7), true, 3);
        let p = s.probe(LineAddr(7));
        let way = p.way.expect("resident line must be found");
        assert!(s.entry(way).dirty);
        assert_eq!(s.entry(way).aux, 3);
    }

    #[test]
    fn probe_miss_costs_one_cycle_when_filters_agree() {
        let mut s = small();
        let p = s.probe(LineAddr(1234));
        assert!(p.way.is_none());
        assert_eq!(p.search_cycles, 1);
        assert_eq!(p.partitions_polled, 0);
    }

    #[test]
    fn any_line_can_occupy_any_slot() {
        // 33 fills wrap the FIFO cursor: fully associative placement.
        let mut s = small();
        for i in 0..32 {
            assert!(s.fill(LineAddr(i), false, 0).is_none());
        }
        assert_eq!(s.valid_lines(), 32);
        let evicted = s.fill(LineAddr(100), false, 0).expect("store full");
        assert_eq!(evicted.line, LineAddr(0), "FIFO evicts the oldest fill");
        assert!(s.probe(LineAddr(100)).way.is_some());
        assert!(s.probe(LineAddr(0)).way.is_none());
    }

    #[test]
    fn eviction_updates_cbf_no_stale_positives_pile_up() {
        let mut s = small();
        // Churn far more lines than capacity.
        for i in 0..500u64 {
            if s.probe(LineAddr(i % 97)).way.is_none() {
                s.fill(LineAddr(i % 97), false, 0);
            }
        }
        // The store still resolves every probe correctly.
        for i in 0..97u64 {
            let p = s.probe(LineAddr(i));
            if let Some(w) = p.way {
                assert_eq!(s.entry(w).line, LineAddr(i));
            }
        }
    }

    #[test]
    fn search_cycles_grow_with_false_positives() {
        let mut s = small();
        for i in 0..32 {
            s.fill(LineAddr(i), false, 0);
        }
        let mut max_cycles = 0;
        for i in 0..2000u64 {
            let p = s.probe(LineAddr(10_000 + i));
            assert!(p.way.is_none());
            assert_eq!(p.false_positives, p.partitions_polled);
            max_cycles = max_cycles.max(p.search_cycles);
        }
        let stats = s.cbf_stats();
        assert!(stats.tests >= 2000);
        // With 8 partitions of 4 lines each and 3-hash CBFs some false
        // positives occur, each costing exactly one extra polling cycle.
        if stats.false_positives > 0 {
            assert!(max_cycles > 1);
        }
    }

    #[test]
    fn invalidate_removes_line_and_cbf_entry() {
        let mut s = small();
        s.fill(LineAddr(5), true, 0);
        let e = s.invalidate(LineAddr(5)).unwrap();
        assert!(e.dirty);
        assert!(s.probe(LineAddr(5)).way.is_none());
        assert_eq!(s.valid_lines(), 0);
        assert!(s.invalidate(LineAddr(5)).is_none());
    }

    #[test]
    fn default_config_matches_paper() {
        let c = ApproxConfig::default();
        assert_eq!(c.lines, 512);
        assert_eq!(c.num_cbfs, 128);
        assert_eq!(c.cbf_hashes, 3);
        assert_eq!(c.comparators, 4);
        assert_eq!(c.lines_per_partition(), 4);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_partitioning_rejected() {
        let _ = ApproxAssocStore::new(ApproxConfig {
            lines: 30,
            num_cbfs: 8,
            ..ApproxConfig::default()
        });
    }
}
