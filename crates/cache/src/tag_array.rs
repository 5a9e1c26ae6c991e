//! Generic set-associative tag store.
//!
//! Used for the SRAM L1 banks, the set-associative STT-MRAM banks
//! (`By-NVM`, `Hybrid`, `Base-FUSE`), the L2 slices, and — with a single
//! set — the exact fully-associative `FA-SRAM` baseline.

use crate::hash::FxHashMap;
use crate::line::LineAddr;
use crate::replacement::{PolicyKind, ReplState};

/// Associativity at or above which a probe goes through a hash index
/// instead of a linear way scan. Narrow arrays stay scan-based: the scan
/// is a few comparisons over one cache line, cheaper than hashing.
const INDEXED_WAYS: usize = 16;

/// One tag entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagEntry {
    /// The cached line.
    pub line: LineAddr,
    /// Valid bit.
    pub valid: bool,
    /// Dirty bit (write-back caches).
    pub dirty: bool,
    /// Caller-defined auxiliary word; the FUSE controller stores the
    /// read-level class predicted at fill time plus observed-write counts
    /// here, so eviction can grade the prediction (Fig. 16).
    pub aux: u32,
}

impl TagEntry {
    const INVALID: TagEntry = TagEntry {
        line: LineAddr(0),
        valid: false,
        dirty: false,
        aux: 0,
    };
}

/// A set-associative tag array with per-set replacement state.
///
/// # Examples
///
/// ```
/// use fuse_cache::{tag_array::TagArray, replacement::PolicyKind, line::LineAddr};
/// let mut t = TagArray::new(2, 2, PolicyKind::Lru);
/// assert_eq!(t.lines(), 4);
/// t.fill(LineAddr(10), true, 0);
/// let hit = t.touch(LineAddr(10)).is_some();
/// assert!(hit);
/// ```
#[derive(Debug, Clone)]
pub struct TagArray {
    sets: usize,
    ways: usize,
    entries: Vec<TagEntry>,
    repl: Vec<ReplState>,
    valid_count: usize,
    /// Line → entry index, maintained for wide (e.g. fully-associative)
    /// arrays where the way scan dominates; `None` on narrow arrays.
    /// Purely an acceleration structure — it never changes outcomes.
    index: Option<FxHashMap<LineAddr, u32>>,
    /// Per-fill victim-selection scratch (`occupied` mask), recycled so a
    /// fill never allocates once warmed to `ways` capacity.
    occupied_scratch: Vec<bool>,
}

impl TagArray {
    /// Creates an empty array of `sets` × `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is zero or not a power of two (the index function is
    /// a bit mask), or if `ways` is zero.
    pub fn new(sets: usize, ways: usize, policy: PolicyKind) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be non-zero");
        TagArray {
            sets,
            ways,
            entries: vec![TagEntry::INVALID; sets * ways],
            repl: (0..sets).map(|_| ReplState::new(policy, ways)).collect(),
            valid_count: 0,
            index: (ways >= INDEXED_WAYS).then(FxHashMap::default),
            occupied_scratch: Vec::new(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total line capacity.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of valid lines currently held.
    pub fn valid_lines(&self) -> usize {
        self.valid_count
    }

    /// Set index for a line.
    pub fn set_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    /// Checks for `line` without disturbing replacement state.
    pub fn probe(&self, line: LineAddr) -> Option<usize> {
        if let Some(ix) = &self.index {
            let i = *ix.get(&line)? as usize;
            debug_assert!(self.entries[i].valid && self.entries[i].line == line);
            return Some(i);
        }
        let set = self.set_index(line);
        let base = set * self.ways;
        (0..self.ways)
            .map(|w| base + w)
            .find(|&i| self.entries[i].valid && self.entries[i].line == line)
    }

    /// Looks up `line`, updating replacement recency on a hit; returns the
    /// entry for in-place mutation (e.g. setting the dirty bit). The
    /// returned entry's `line` and `valid` fields must not be changed —
    /// the array's lookup index assumes they are stable.
    pub fn touch(&mut self, line: LineAddr) -> Option<&mut TagEntry> {
        let idx = self.probe(line)?;
        let set = idx / self.ways;
        let way = idx % self.ways;
        self.repl[set].on_access(way);
        Some(&mut self.entries[idx])
    }

    /// Inserts `line`, evicting the replacement victim if the set is full.
    /// Returns the evicted valid entry, if any.
    ///
    /// `line` must not already be resident (checked with a debug assertion);
    /// use [`TagArray::touch`] for hits.
    pub fn fill(&mut self, line: LineAddr, dirty: bool, aux: u32) -> Option<TagEntry> {
        debug_assert!(self.probe(line).is_none(), "fill of resident line {line}");
        let set = self.set_index(line);
        let base = set * self.ways;
        self.occupied_scratch.clear();
        self.occupied_scratch
            .extend((0..self.ways).map(|w| self.entries[base + w].valid));
        let way = self.repl[set].victim(&self.occupied_scratch);
        let idx = base + way;
        let evicted = self.entries[idx];
        self.entries[idx] = TagEntry {
            line,
            valid: true,
            dirty,
            aux,
        };
        self.repl[set].on_fill(way);
        if !evicted.valid {
            self.valid_count += 1;
        }
        if let Some(ix) = &mut self.index {
            if evicted.valid {
                ix.remove(&evicted.line);
            }
            ix.insert(line, idx as u32);
        }
        evicted.valid.then_some(evicted)
    }

    /// Invalidates `line`, returning its entry (for write-back) if present.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<TagEntry> {
        let idx = self.probe(line)?;
        let entry = self.entries[idx];
        self.entries[idx] = TagEntry::INVALID;
        self.valid_count -= 1;
        if let Some(ix) = &mut self.index {
            ix.remove(&line);
        }
        Some(entry)
    }

    /// Iterates over all valid entries.
    pub fn iter_valid(&self) -> impl Iterator<Item = &TagEntry> {
        self.entries.iter().filter(|e| e.valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> TagArray {
        TagArray::new(4, 2, PolicyKind::Lru)
    }

    #[test]
    fn probe_miss_on_empty() {
        assert!(arr().probe(LineAddr(5)).is_none());
    }

    #[test]
    fn fill_then_hit() {
        let mut t = arr();
        assert!(t.fill(LineAddr(5), false, 7).is_none());
        let e = t.touch(LineAddr(5)).expect("must hit");
        assert_eq!(e.aux, 7);
        assert!(!e.dirty);
        e.dirty = true;
        assert!(t.touch(LineAddr(5)).expect("still resident").dirty);
        assert_eq!(t.valid_lines(), 1);
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut t = arr();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        t.fill(LineAddr(0), false, 0);
        t.fill(LineAddr(4), false, 0);
        let evicted = t.fill(LineAddr(8), true, 0).expect("set full, must evict");
        assert_eq!(evicted.line, LineAddr(0), "LRU victim is the oldest fill");
        assert!(t.probe(LineAddr(0)).is_none());
        assert!(t.probe(LineAddr(4)).is_some());
        assert_eq!(t.valid_lines(), 2);
    }

    #[test]
    fn lru_recency_protects_hot_line() {
        let mut t = arr();
        t.fill(LineAddr(0), false, 0);
        t.fill(LineAddr(4), false, 0);
        t.touch(LineAddr(0));
        let evicted = t.fill(LineAddr(8), false, 0).unwrap();
        assert_eq!(evicted.line, LineAddr(4));
    }

    #[test]
    fn invalidate_returns_entry() {
        let mut t = arr();
        t.fill(LineAddr(3), true, 9);
        let e = t.invalidate(LineAddr(3)).unwrap();
        assert!(e.dirty);
        assert_eq!(e.aux, 9);
        assert!(t.probe(LineAddr(3)).is_none());
        assert_eq!(t.valid_lines(), 0);
        assert!(t.invalidate(LineAddr(3)).is_none());
    }

    #[test]
    fn single_set_behaves_fully_associative() {
        let mut t = TagArray::new(1, 4, PolicyKind::Lru);
        for i in 0..4 {
            t.fill(LineAddr(i * 1000 + 7), false, 0);
        }
        assert_eq!(t.valid_lines(), 4);
        // No conflict evictions until capacity is reached.
        let e = t.fill(LineAddr(99), false, 0);
        assert!(e.is_some());
    }

    #[test]
    fn no_duplicate_lines_after_random_ops() {
        use std::collections::HashSet;
        let mut t = TagArray::new(8, 4, PolicyKind::Fifo);
        let mut x = 12345u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr(x >> 33);
            if t.probe(line).is_none() {
                t.fill(line, false, 0);
            } else {
                t.touch(line);
            }
        }
        let mut seen = HashSet::new();
        for e in t.iter_valid() {
            assert!(seen.insert(e.line), "duplicate line {:?}", e.line);
        }
        assert_eq!(seen.len(), t.valid_lines());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_rejected() {
        let _ = TagArray::new(3, 2, PolicyKind::Lru);
    }
}
