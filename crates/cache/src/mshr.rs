//! Miss-status holding registers (MSHR).
//!
//! The L1D is non-blocking: misses allocate an MSHR entry and secondary
//! misses to the same line merge into it (§II-A1). FUSE extends the classic
//! MSHR table's *destination bits* so a fill can be routed to the SRAM bank,
//! the STT-MRAM bank, or straight to the core (bypass) — §IV-A, Fig. 8.

use crate::line::LineAddr;

/// Where a fill must be delivered (the paper's extended destination bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FillDest {
    /// Allocate in the SRAM bank.
    #[default]
    Sram,
    /// Allocate in the STT-MRAM bank.
    Stt,
    /// Deliver to the core only; do not allocate (WORO / dead-write bypass).
    Bypass,
}

/// One merged requester waiting on a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrTarget {
    /// SM-local warp index to wake.
    pub warp: u16,
    /// Whether the requester was a store (affects dirty state on fill).
    pub is_store: bool,
    /// The PC signature of the instruction, for predictor training on fill.
    pub pc_sig: u16,
}

/// Outcome of an allocation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the miss must be sent down the hierarchy.
    NewMiss,
    /// Merged into an existing entry for the same line; no new traffic.
    Merged,
    /// No free entry (structural hazard) — the access must be retried.
    FullEntries,
    /// The entry for this line cannot take more targets — retry.
    FullTargets,
}

#[derive(Debug, Clone)]
struct Entry {
    dest: FillDest,
    targets: Vec<MshrTarget>,
}

/// The MSHR table.
///
/// # Examples
///
/// ```
/// use fuse_cache::mshr::{Mshr, MshrOutcome, MshrTarget, FillDest};
/// use fuse_cache::line::LineAddr;
///
/// let mut mshr = Mshr::new(4, 8);
/// let t = MshrTarget { warp: 0, is_store: false, pc_sig: 0 };
/// assert_eq!(mshr.allocate(LineAddr(1), t, FillDest::Sram), MshrOutcome::NewMiss);
/// assert_eq!(mshr.allocate(LineAddr(1), t, FillDest::Sram), MshrOutcome::Merged);
/// let (dest, targets) = mshr.complete(LineAddr(1)).unwrap();
/// assert_eq!(dest, FillDest::Sram);
/// assert_eq!(targets.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Mshr {
    /// Outstanding lines, index-aligned with `entries`: every lookup scans
    /// this contiguous array rather than the wider entries. Allocated at
    /// capacity, so it never grows.
    lines: Vec<LineAddr>,
    entries: Vec<Entry>,
    capacity: usize,
    max_targets: usize,
    /// Recycled target lists handed back via [`Mshr::recycle`]: a new
    /// miss reuses one (capacity intact) instead of allocating, so the
    /// steady-state miss path stays off the heap.
    spare: Vec<Vec<MshrTarget>>,
}

impl Mshr {
    /// Creates a table with `capacity` entries of up to `max_targets`
    /// merged requesters each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(capacity: usize, max_targets: usize) -> Self {
        assert!(
            capacity > 0 && max_targets > 0,
            "MSHR geometry must be non-zero"
        );
        Mshr {
            lines: Vec::with_capacity(capacity),
            entries: Vec::new(),
            capacity,
            max_targets,
            spare: Vec::new(),
        }
    }

    fn position(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }

    /// Current number of outstanding lines.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// True if a miss for `line` is already outstanding.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(&line)
    }

    /// Attempts to allocate or merge a miss.
    ///
    /// The first requester of a line fixes the fill destination; later
    /// merges keep it (the fill routing was already decided when the
    /// request left for L2 — §IV-A).
    pub fn allocate(&mut self, line: LineAddr, target: MshrTarget, dest: FillDest) -> MshrOutcome {
        if let Some(i) = self.position(line) {
            let e = &mut self.entries[i];
            if e.targets.len() >= self.max_targets {
                return MshrOutcome::FullTargets;
            }
            e.targets.push(target);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::FullEntries;
        }
        let mut targets = self.spare.pop().unwrap_or_default();
        targets.push(target);
        self.lines.push(line);
        self.entries.push(Entry { dest, targets });
        MshrOutcome::NewMiss
    }

    /// Retires the entry for `line` when its fill arrives, returning the
    /// destination bits and every merged requester to wake.
    ///
    /// Hand the target list back through [`Mshr::recycle`] once consumed
    /// so the next miss reuses its storage; dropping it instead is
    /// correct but allocates on a later miss.
    pub fn complete(&mut self, line: LineAddr) -> Option<(FillDest, Vec<MshrTarget>)> {
        let idx = self.position(line)?;
        self.lines.swap_remove(idx);
        let e = self.entries.swap_remove(idx);
        Some((e.dest, e.targets))
    }

    /// Returns a consumed target list to the internal pool (cleared,
    /// capacity kept). The pool is bounded by the table capacity.
    pub fn recycle(&mut self, mut targets: Vec<MshrTarget>) {
        if self.spare.len() < self.capacity {
            targets.clear();
            self.spare.push(targets);
        }
    }

    /// Iterates every outstanding entry as `(line, target count)`, in
    /// table order. Introspection for an external checker: a reference
    /// model replaying the same allocate/complete stream must see the
    /// same outstanding set.
    pub fn iter_entries(&self) -> impl Iterator<Item = (LineAddr, usize)> + '_ {
        self.lines
            .iter()
            .zip(&self.entries)
            .map(|(&line, e)| (line, e.targets.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(warp: u16) -> MshrTarget {
        MshrTarget {
            warp,
            is_store: false,
            pc_sig: 0,
        }
    }

    #[test]
    fn allocate_then_complete() {
        let mut m = Mshr::new(2, 4);
        assert_eq!(
            m.allocate(LineAddr(1), t(0), FillDest::Stt),
            MshrOutcome::NewMiss
        );
        assert!(m.contains(LineAddr(1)));
        let (dest, targets) = m.complete(LineAddr(1)).unwrap();
        assert_eq!(dest, FillDest::Stt);
        assert_eq!(targets, vec![t(0)]);
        assert!(!m.contains(LineAddr(1)));
    }

    #[test]
    fn merges_do_not_create_traffic() {
        let mut m = Mshr::new(2, 4);
        m.allocate(LineAddr(1), t(0), FillDest::Sram);
        assert_eq!(
            m.allocate(LineAddr(1), t(1), FillDest::Stt),
            MshrOutcome::Merged
        );
        assert_eq!(m.occupancy(), 1);
        let (dest, targets) = m.complete(LineAddr(1)).unwrap();
        assert_eq!(
            dest,
            FillDest::Sram,
            "first requester fixed the destination"
        );
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn entry_capacity_enforced() {
        let mut m = Mshr::new(2, 4);
        m.allocate(LineAddr(1), t(0), FillDest::Sram);
        m.allocate(LineAddr(2), t(0), FillDest::Sram);
        assert_eq!(
            m.allocate(LineAddr(3), t(0), FillDest::Sram),
            MshrOutcome::FullEntries
        );
    }

    #[test]
    fn target_capacity_enforced() {
        let mut m = Mshr::new(2, 2);
        m.allocate(LineAddr(1), t(0), FillDest::Sram);
        m.allocate(LineAddr(1), t(1), FillDest::Sram);
        assert_eq!(
            m.allocate(LineAddr(1), t(2), FillDest::Sram),
            MshrOutcome::FullTargets
        );
        // But a different line still allocates.
        assert_eq!(
            m.allocate(LineAddr(2), t(2), FillDest::Sram),
            MshrOutcome::NewMiss
        );
    }

    #[test]
    fn recycled_target_lists_are_reused() {
        let mut m = Mshr::new(2, 8);
        for round in 0..10 {
            m.allocate(LineAddr(round), t(0), FillDest::Sram);
            m.allocate(LineAddr(round), t(1), FillDest::Sram);
            let (_, targets) = m.complete(LineAddr(round)).unwrap();
            assert_eq!(targets.len(), 2);
            let cap = targets.capacity();
            m.recycle(targets);
            assert!(cap >= 2, "recycled list keeps its capacity");
        }
        assert!(m.spare.len() <= 2, "pool bounded by table capacity");
    }

    #[test]
    fn introspection_sees_every_outstanding_entry() {
        let mut m = Mshr::new(4, 8);
        m.allocate(LineAddr(7), t(0), FillDest::Sram);
        m.allocate(LineAddr(7), t(1), FillDest::Sram);
        m.allocate(LineAddr(9), t(2), FillDest::Stt);
        let mut entries: Vec<_> = m.iter_entries().collect();
        entries.sort_unstable();
        assert_eq!(entries, vec![(LineAddr(7), 2), (LineAddr(9), 1)]);
        m.complete(LineAddr(7));
        assert_eq!(m.iter_entries().collect::<Vec<_>>(), [(LineAddr(9), 1)]);
    }

    #[test]
    fn line_array_stays_in_step_with_the_entries() {
        let mut m = Mshr::new(4, 8);
        let cap = m.lines.capacity();
        let sorted = |m: &Mshr| {
            let mut v: Vec<_> = m.iter_entries().collect();
            v.sort_unstable();
            v
        };
        m.allocate(LineAddr(10), t(0), FillDest::Sram);
        m.allocate(LineAddr(11), t(1), FillDest::Stt);
        m.allocate(LineAddr(12), t(2), FillDest::Bypass);
        // A merge lands on its own line's entry.
        assert_eq!(
            m.allocate(LineAddr(10), t(3), FillDest::Stt),
            MshrOutcome::Merged
        );
        assert_eq!(
            sorted(&m),
            [(LineAddr(10), 2), (LineAddr(11), 1), (LineAddr(12), 1)]
        );
        // Completing the middle entry swaps the last one into its slot:
        // each remaining line must still own its destination and targets.
        assert_eq!(
            m.complete(LineAddr(11)).unwrap(),
            (FillDest::Stt, vec![t(1)])
        );
        assert!(!m.contains(LineAddr(11)));
        assert_eq!(sorted(&m), [(LineAddr(10), 2), (LineAddr(12), 1)]);
        assert_eq!(
            m.complete(LineAddr(12)).unwrap(),
            (FillDest::Bypass, vec![t(2)])
        );
        assert_eq!(
            m.complete(LineAddr(10)).unwrap(),
            (FillDest::Sram, vec![t(0), t(3)])
        );
        // Emptied through `complete`, the table refills to capacity.
        assert!(!m.contains(LineAddr(10)));
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.iter_entries().count(), 0);
        for line in 30..34 {
            assert_eq!(
                m.allocate(LineAddr(line), t(0), FillDest::Stt),
                MshrOutcome::NewMiss
            );
        }
        assert_eq!(
            m.allocate(LineAddr(34), t(0), FillDest::Stt),
            MshrOutcome::FullEntries
        );
        assert_eq!(m.lines.capacity(), cap, "the line array never grows");
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let mut m = Mshr::new(1, 1);
        assert!(m.complete(LineAddr(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_geometry_rejected() {
        let _ = Mshr::new(0, 1);
    }
}
