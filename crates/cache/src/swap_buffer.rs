//! Swap buffer (§IV-A).
//!
//! A few 128 B data registers crossing the SRAM/STT-MRAM bank boundary.
//! When the cache controller evicts a line from SRAM towards STT-MRAM, the
//! data parks here so the SRAM way frees immediately; the matching "F"
//! command in the tag queue later drains it into the STT bank when the bank
//! is idle. While parked, the line is still serviceable (the tag-queue
//! FIFO discipline replaces snooping — see the paper's coherence argument).

use crate::line::LineAddr;

/// One parked eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapEntry {
    /// The migrating line.
    pub line: LineAddr,
    /// Dirty state carried across the migration.
    pub dirty: bool,
    /// Auxiliary word (predictor class) carried across the migration.
    pub aux: u32,
}

/// The swap buffer: a tiny FIFO of migrating lines.
///
/// # Examples
///
/// ```
/// use fuse_cache::swap_buffer::{SwapBuffer, SwapEntry};
/// use fuse_cache::line::LineAddr;
///
/// let mut b = SwapBuffer::new(3);
/// assert!(b.push(SwapEntry { line: LineAddr(1), dirty: true, aux: 0 }));
/// assert!(b.contains(LineAddr(1)));
/// assert_eq!(b.pop_front().unwrap().line, LineAddr(1));
/// ```
#[derive(Debug, Clone)]
pub struct SwapBuffer {
    entries: std::collections::VecDeque<SwapEntry>,
    capacity: usize,
    peak: usize,
}

impl SwapBuffer {
    /// Creates a buffer with `capacity` 128 B registers (paper: 3).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "swap buffer needs at least one register");
        SwapBuffer {
            entries: std::collections::VecDeque::new(),
            capacity,
            peak: 0,
        }
    }

    /// Registers available.
    pub fn free(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// True when no migration can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// True when no migration is parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Migrations currently parked. The cycle-skipping engine relies on
    /// every parked entry being covered by a queued or replayable tag
    /// command (`swap.len() <= tq.len() + replay.len()`), so the
    /// controller's quiescence check asserts against this count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Highest simultaneous occupancy observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Parks an eviction; returns `false` when full (caller must stall or
    /// retry).
    pub fn push(&mut self, entry: SwapEntry) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push_back(entry);
        self.peak = self.peak.max(self.entries.len());
        true
    }

    /// The oldest parked entry, if any, removed for draining into the STT
    /// bank. FIFO order matches the tag queue's "F" commands.
    pub fn pop_front(&mut self) -> Option<SwapEntry> {
        self.entries.pop_front()
    }

    /// Serves a hit on a parked line (data is available immediately from
    /// the buffer — §IV-A).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|e| e.line == line)
    }

    /// Mutable access to a parked line's entry (for aux updates when a
    /// store hits an in-flight migration).
    pub fn entry_mut(&mut self, line: LineAddr) -> Option<&mut SwapEntry> {
        self.entries.iter_mut().find(|e| e.line == line)
    }

    /// Removes a parked line (e.g. superseded by an invalidation).
    pub fn remove(&mut self, line: LineAddr) -> Option<SwapEntry> {
        let idx = self.entries.iter().position(|e| e.line == line)?;
        self.entries.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u64) -> SwapEntry {
        SwapEntry {
            line: LineAddr(n),
            dirty: false,
            aux: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut b = SwapBuffer::new(3);
        b.push(e(1));
        b.push(e(2));
        b.push(e(3));
        assert!(b.is_full());
        assert!(!b.push(e(4)), "full buffer must refuse");
        assert_eq!(b.pop_front().unwrap().line, LineAddr(1));
        assert_eq!(b.pop_front().unwrap().line, LineAddr(2));
        assert_eq!(b.free(), 2);
    }

    #[test]
    fn in_flight_lines_are_serviceable() {
        let mut b = SwapBuffer::new(3);
        b.push(e(7));
        assert!(b.contains(LineAddr(7)));
        b.entry_mut(LineAddr(7)).expect("parked").dirty = true;
        assert!(b.pop_front().unwrap().dirty);
        assert!(b.entry_mut(LineAddr(7)).is_none());
    }

    #[test]
    fn remove_superseded_entry() {
        let mut b = SwapBuffer::new(2);
        b.push(e(1));
        b.push(e(2));
        assert_eq!(b.remove(LineAddr(1)).unwrap().line, LineAddr(1));
        assert!(!b.contains(LineAddr(1)));
        assert_eq!(b.pop_front().unwrap().line, LineAddr(2));
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut b = SwapBuffer::new(3);
        b.push(e(1));
        b.push(e(2));
        b.pop_front();
        b.pop_front();
        assert_eq!(b.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_capacity_rejected() {
        let _ = SwapBuffer::new(0);
    }
}
