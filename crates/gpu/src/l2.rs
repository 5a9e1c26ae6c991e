//! Banked, shared, write-back L2 cache.
//!
//! Twelve 64 KB slices on the Fermi preset (Table I: 786 KB / 64 sets /
//! 8 ways), each behind the interconnect. A slice services one packet per
//! cycle after an ECC-laden pipeline latency, merges secondary misses per
//! line, and talks to its DRAM channel for misses and dirty evictions.

use std::collections::VecDeque;

use crate::icnt::Packet;
use crate::l1d::OutgoingKind;
use crate::slab::{Chain, ChainArena};
use fuse_cache::hash::FxHashMap;
use fuse_cache::line::LineAddr;
use fuse_cache::replacement::PolicyKind;
use fuse_cache::stats::CacheStats;
use fuse_cache::tag_array::TagArray;

/// Everything a slice produced this cycle.
///
/// Callers own the buffer and pass it to [`L2Bank::tick`] /
/// [`L2Bank::dram_fill`], which *append*; recycling one `L2Output` across
/// cycles keeps the engine's hot path allocation-free.
#[derive(Debug, Default)]
pub struct L2Output {
    /// Read responses heading back to SMs.
    pub responses: Vec<Packet>,
    /// Lines to read from DRAM.
    pub dram_reads: Vec<LineAddr>,
    /// Lines to write to DRAM (dirty evictions).
    pub dram_writes: Vec<LineAddr>,
}

impl L2Output {
    /// Empties all three lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.responses.clear();
        self.dram_reads.clear();
        self.dram_writes.clear();
    }

    /// True when nothing was produced.
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty() && self.dram_reads.is_empty() && self.dram_writes.is_empty()
    }
}

/// One L2 slice.
///
/// # Examples
///
/// ```
/// use fuse_gpu::l2::L2Bank;
/// use fuse_gpu::icnt::Packet;
/// use fuse_gpu::l1d::OutgoingKind;
/// use fuse_cache::line::LineAddr;
///
/// use fuse_gpu::l2::L2Output;
///
/// let mut bank = L2Bank::new(64, 8, 30, 32);
/// let p = Packet { gid: 1, sm: 0, bank: 0, line: LineAddr(7),
///                  kind: OutgoingKind::FillRead, flits: 1 };
/// bank.enqueue(p, 0);
/// let mut out = L2Output::default(); // reused across cycles
/// for now in 0..40 {
///     bank.tick(now, &mut out);
/// }
/// assert_eq!(out.dram_reads, vec![LineAddr(7)]); // cold miss goes to DRAM
/// ```
#[derive(Debug)]
pub struct L2Bank {
    tags: TagArray,
    latency: u32,
    inbox: VecDeque<(u64, Packet)>, // (service_ready_at, packet)
    /// Outstanding DRAM reads: the waiter list of each missed line, as a
    /// [`Chain`] through the shared `waiters` arena. A `Vec<Packet>` per
    /// miss would allocate on every new miss; the arena recycles nodes,
    /// so steady-state miss merging never touches the heap.
    pending: FxHashMap<LineAddr, Chain>,
    waiters: ChainArena<Packet>,
    pending_capacity: usize,
    stats: CacheStats,
    accesses: u64,
    retries: u64,
}

impl L2Bank {
    /// Creates a slice of `sets` × `ways` lines with `latency` cycles of
    /// service pipeline and `pending_capacity` outstanding miss lines.
    pub fn new(sets: usize, ways: usize, latency: u32, pending_capacity: usize) -> Self {
        L2Bank {
            tags: TagArray::new(sets, ways, PolicyKind::Lru),
            latency,
            inbox: VecDeque::new(),
            pending: FxHashMap::default(),
            waiters: ChainArena::new(),
            pending_capacity,
            stats: CacheStats::default(),
            accesses: 0,
            retries: 0,
        }
    }

    /// Accepts a packet delivered by the request network at `now`.
    pub fn enqueue(&mut self, packet: Packet, now: u64) {
        self.inbox.push_back((now + self.latency as u64, packet));
    }

    /// True when the slice has no queued or outstanding work.
    pub fn is_idle(&self) -> bool {
        self.inbox.is_empty() && self.pending.is_empty()
    }

    /// Packets waiting in the service pipeline. The engine skips ticking
    /// a slice whose inbox is empty — such a tick is a no-op.
    pub fn queued_packets(&self) -> usize {
        self.inbox.len()
    }

    /// Earliest cycle at or after `now` whose tick would service a
    /// packet: the ready time at the head of the inbox. The inbox is FIFO
    /// by ready time (every push — delivery or retry — stamps
    /// `push-cycle + latency` with a constant latency), so the head is the
    /// minimum. `None` when the inbox is empty; outstanding misses in the
    /// pending table wake via [`L2Bank::dram_fill`], an external event.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.inbox.front().map(|&(at, _)| at.max(now))
    }

    /// Total bank accesses (for the energy model).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Packets re-queued because the miss table was full.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Waiter nodes currently threaded on some pending-miss chain
    /// (pool accounting: zero at rest).
    pub fn waiter_nodes_live(&self) -> usize {
        self.waiters.live()
    }

    /// Lines with an outstanding DRAM fill (checker introspection: one
    /// entry per in-flight read miss; a reference model replaying the
    /// bank's queue/fill events must see the same set).
    pub fn pending_lines(&self) -> usize {
        self.pending.len()
    }

    /// Services at most one packet whose pipeline delay elapsed, appending
    /// everything produced to the caller-owned `out`.
    pub fn tick(&mut self, now: u64, out: &mut L2Output) {
        let ready = matches!(self.inbox.front(), Some(&(at, _)) if at <= now);
        if !ready {
            return;
        }
        let (_, packet) = self.inbox.pop_front().expect("front exists");
        self.accesses += 1;
        match packet.kind {
            OutgoingKind::WriteThrough => self.service_write(packet, out),
            OutgoingKind::FillRead | OutgoingKind::BypassRead => {
                self.service_read(packet, now, out)
            }
        }
    }

    fn service_write(&mut self, packet: Packet, out: &mut L2Output) {
        if let Some(entry) = self.tags.touch(packet.line) {
            entry.dirty = true;
            self.stats.hits += 1;
            return;
        }
        // Write-allocate: the 128 B payload is a full line.
        self.stats.misses += 1;
        if let Some(evicted) = self.tags.fill(packet.line, true, 0) {
            if evicted.dirty {
                self.stats.writebacks += 1;
                out.dram_writes.push(evicted.line);
            }
        }
    }

    fn service_read(&mut self, packet: Packet, now: u64, out: &mut L2Output) {
        // A line already being fetched merges regardless of tag state.
        if let Some(chain) = self.pending.get_mut(&packet.line) {
            self.waiters.push_back(chain, packet);
            self.stats.mshr_merges += 1;
            return;
        }
        if self.tags.touch(packet.line).is_some() {
            self.stats.hits += 1;
            out.responses.push(packet);
            return;
        }
        if self.pending.len() >= self.pending_capacity {
            // Structural: recycle through the pipeline.
            self.retries += 1;
            self.stats.reservation_fails += 1;
            self.inbox.push_back((now + self.latency as u64, packet));
            return;
        }
        self.stats.misses += 1;
        out.dram_reads.push(packet.line);
        let mut chain = Chain::new();
        self.waiters.push_back(&mut chain, packet);
        self.pending.insert(packet.line, chain);
    }

    /// Delivers a DRAM read completion: fills the slice and releases every
    /// waiting requester as responses.
    pub fn dram_fill(&mut self, line: LineAddr, out: &mut L2Output) {
        if self.tags.probe(line).is_none() {
            if let Some(evicted) = self.tags.fill(line, false, 0) {
                if evicted.dirty {
                    self.stats.writebacks += 1;
                    out.dram_writes.push(evicted.line);
                }
            }
        }
        if let Some(chain) = self.pending.remove(&line) {
            // Drain in merge (FIFO) order — identical to the order the
            // old Vec-per-line design released waiters in.
            self.waiters.drain(chain, |p| out.responses.push(p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(gid: u64, line: u64) -> Packet {
        Packet {
            gid,
            sm: 0,
            bank: 0,
            line: LineAddr(line),
            kind: OutgoingKind::FillRead,
            flits: 1,
        }
    }

    fn write(gid: u64, line: u64) -> Packet {
        Packet {
            gid,
            sm: 0,
            bank: 0,
            line: LineAddr(line),
            kind: OutgoingKind::WriteThrough,
            flits: 5,
        }
    }

    fn run(bank: &mut L2Bank, cycles: u64) -> L2Output {
        let mut all = L2Output::default();
        for now in 0..cycles {
            bank.tick(now, &mut all);
        }
        all
    }

    #[test]
    fn miss_goes_to_dram_then_hit_after_fill() {
        let mut bank = L2Bank::new(16, 4, 5, 8);
        bank.enqueue(read(1, 7), 0);
        let out = run(&mut bank, 10);
        assert_eq!(out.dram_reads, vec![LineAddr(7)]);
        assert!(out.responses.is_empty());
        let mut out = L2Output::default();
        bank.dram_fill(LineAddr(7), &mut out);
        assert_eq!(out.responses.len(), 1);
        assert_eq!(out.responses[0].gid, 1);
        // Subsequent read hits without DRAM.
        bank.enqueue(read(2, 7), 20);
        let out = {
            let mut all = L2Output::default();
            for now in 20..30 {
                bank.tick(now, &mut all);
            }
            all
        };
        assert!(out.dram_reads.is_empty());
        assert_eq!(out.responses.len(), 1);
        assert_eq!(bank.stats().hits, 1);
    }

    #[test]
    fn secondary_read_misses_merge() {
        let mut bank = L2Bank::new(16, 4, 1, 8);
        bank.enqueue(read(1, 9), 0);
        bank.enqueue(read(2, 9), 0);
        let out = run(&mut bank, 5);
        assert_eq!(out.dram_reads.len(), 1, "one DRAM read for two requesters");
        let mut out = L2Output::default();
        bank.dram_fill(LineAddr(9), &mut out);
        assert_eq!(out.responses.len(), 2);
        assert_eq!(bank.stats().mshr_merges, 1);
    }

    #[test]
    fn pipeline_latency_is_respected() {
        let mut bank = L2Bank::new(16, 4, 30, 8);
        bank.enqueue(read(1, 3), 0);
        let mut out = L2Output::default();
        for now in 0..30 {
            bank.tick(now, &mut out);
            assert!(out.dram_reads.is_empty(), "too early at {now}");
        }
        bank.tick(30, &mut out);
        assert_eq!(out.dram_reads.len(), 1);
    }

    #[test]
    fn write_allocates_and_dirty_eviction_reaches_dram() {
        let mut bank = L2Bank::new(1, 2, 1, 8);
        bank.enqueue(write(1, 1), 0);
        bank.enqueue(write(2, 2), 0);
        bank.enqueue(write(3, 3), 0); // evicts dirty line 1
        let out = run(&mut bank, 10);
        assert_eq!(out.dram_writes, vec![LineAddr(1)]);
        assert_eq!(bank.stats().writebacks, 1);
    }

    #[test]
    fn pending_capacity_recycles_packets() {
        let mut bank = L2Bank::new(16, 4, 1, 1);
        bank.enqueue(read(1, 1), 0);
        bank.enqueue(read(2, 2), 0); // table full -> retried
        let out = run(&mut bank, 20);
        assert!(bank.retries() >= 1, "full table must force recycling");
        // The retried packet eventually issued its own DRAM read? No — the
        // table stays full until a fill; it keeps recycling.
        assert_eq!(out.dram_reads.len(), 1);
        let mut o = L2Output::default();
        bank.dram_fill(LineAddr(1), &mut o);
        let out2 = run(&mut bank, 40);
        assert_eq!(
            out2.dram_reads.len(),
            1,
            "retry succeeds after fill frees a slot"
        );
    }

    #[test]
    fn next_event_is_the_inbox_head() {
        let mut bank = L2Bank::new(16, 4, 30, 8);
        assert_eq!(bank.next_event(0), None);
        bank.enqueue(read(1, 3), 0); // ready at 30
        assert_eq!(bank.next_event(1), Some(30));
        assert_eq!(
            bank.next_event(50),
            Some(50),
            "overdue packets clamp to now"
        );
        let mut out = L2Output::default();
        bank.tick(30, &mut out);
        assert_eq!(bank.next_event(31), None);
        // The outstanding miss is not an intrinsic event: it waits on DRAM.
        assert!(!bank.is_idle());
    }

    #[test]
    fn bypass_reads_are_cached_in_l2() {
        let mut bank = L2Bank::new(16, 4, 1, 8);
        let mut p = read(1, 4);
        p.kind = OutgoingKind::BypassRead;
        bank.enqueue(p, 0);
        let _ = run(&mut bank, 5);
        let mut o = L2Output::default();
        bank.dram_fill(LineAddr(4), &mut o);
        assert_eq!(o.responses.len(), 1);
        // The L1 bypassed it, but L2 keeps a copy (the paper's By-NVM
        // bypass goes "to the underlying L2 cache").
        bank.enqueue(read(2, 4), 10);
        let mut out = L2Output::default();
        for now in 10..20 {
            bank.tick(now, &mut out);
        }
        assert!(!out.responses.is_empty());
    }
}
