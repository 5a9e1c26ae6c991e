//! The L1D model interface, plus the "Oracle" ideal cache of Fig. 3.
//!
//! Every L1D configuration the paper evaluates (L1-SRAM, FA-SRAM, By-NVM,
//! Hybrid, Base-FUSE, FA-FUSE, Dy-FUSE — implemented in `fuse-core`)
//! plugs into the SM through [`L1dModel`]. The contract is event-driven:
//!
//! * the SM calls [`L1dModel::access`] when a warp issues a line request;
//! * the system calls [`L1dModel::tick`] once per cycle, delivers fills via
//!   [`L1dModel::push_response`], collects new misses via
//!   [`L1dModel::drain_outgoing`] and wakes warps via
//!   [`L1dModel::drain_completions`].

use std::any::Any;

use fuse_cache::hash::FxHashSet;
use fuse_cache::line::LineAddr;
use fuse_cache::mshr::{FillDest, Mshr, MshrOutcome, MshrTarget};
use fuse_cache::stats::CacheStats;
use fuse_mem::energy::EnergyCounters;

/// One coalesced line request from a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Access {
    /// SM-local warp index.
    pub warp: u16,
    /// PC of the issuing instruction.
    pub pc: u32,
    /// Target line.
    pub line: LineAddr,
    /// True for stores.
    pub is_store: bool,
}

/// Immediate outcome of an L1 access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Outcome {
    /// Load serviced this cycle (SRAM-speed hit); the warp does not block.
    HitNow,
    /// Load accepted but completes later (STT path, swap buffer, miss);
    /// the warp blocks until its id emerges from
    /// [`L1dModel::drain_completions`].
    Pending,
    /// Store absorbed (stores never block the warp; GPU store buffers).
    StoreAccepted,
    /// Structural hazard (MSHR/queue/bank busy) — retry next cycle.
    ReservationFail,
}

/// What an outgoing (L1 → L2) request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutgoingKind {
    /// Read that fills the L1 when it returns.
    FillRead,
    /// Read delivered to the core only (WORO / dead-write bypass).
    BypassRead,
    /// 128 B of write data (write-back of a dirty victim, or a bypassed
    /// store written through to L2). No response.
    WriteThrough,
}

impl OutgoingKind {
    /// Whether the L2 sends a response back for this request.
    pub fn expects_response(self) -> bool {
        !matches!(self, OutgoingKind::WriteThrough)
    }
}

/// A request leaving the L1 towards the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutgoingReq {
    /// L1-local id; responses echo it.
    pub id: u64,
    /// Target line.
    pub line: LineAddr,
    /// Request class.
    pub kind: OutgoingKind,
}

/// A fill/data response returning from the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Response {
    /// Echo of [`OutgoingReq::id`].
    pub id: u64,
    /// The line whose data arrived.
    pub line: LineAddr,
}

/// The interface every L1D configuration implements.
///
/// `Send` is a supertrait so an [`crate::sm::Sm`] (which owns its L1 as a
/// `Box<dyn L1dModel>`), and with it a whole [`crate::system::GpuSystem`],
/// can be built on one thread and moved to another. Models hold only
/// owned state, so in practice this costs implementors nothing.
pub trait L1dModel: Send {
    /// One warp line-request. Called at most a few times per cycle (the
    /// coalesced lines of the instruction the SM issued).
    fn access(&mut self, now: u64, acc: L1Access) -> L1Outcome;

    /// Advances internal pipelines (tag queue, swap buffer, bank busy).
    fn tick(&mut self, now: u64);

    /// Delivers a fill / bypass-read response.
    fn push_response(&mut self, now: u64, rsp: L1Response);

    /// Moves newly generated outgoing requests into `out`.
    fn drain_outgoing(&mut self, out: &mut Vec<OutgoingReq>);

    /// Moves completed pending loads into `out` (one warp id per completed
    /// line request).
    fn drain_completions(&mut self, out: &mut Vec<u16>);

    /// Earliest cycle at or after `now` at which this L1 could change
    /// observable state without external input: undrained outgoing
    /// requests or completions, a pipeline retire, a bank-busy expiry, a
    /// scheduled refresh… `None` means the model is quiescent until the
    /// next [`L1dModel::access`] or [`L1dModel::push_response`]. The
    /// engine's cycle-skipping fast-forwards the clock over spans with no
    /// event anywhere (see `GpuSystem::run`), so a conservative answer
    /// must err early: the default claims an event every cycle, which
    /// disables skipping around the model but is always correct.
    fn next_event(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    /// Outstanding misses (MSHR occupancy) — the pool-accounting probe:
    /// zero at rest means every pooled target list is back in its pool.
    fn outstanding_misses(&self) -> usize {
        0
    }

    /// Appends the lines with an outstanding miss (one per MSHR entry) to
    /// `out` — lockstep-checker introspection: a reference model replaying
    /// the same access/fill stream must reconstruct exactly this set. The
    /// default reports nothing, which a checker must treat as "model does
    /// not expose its MSHR", not as "no misses outstanding".
    fn outstanding_lines(&self, out: &mut Vec<LineAddr>) {
        let _ = out;
    }

    /// Abandons in-flight state, returning every pooled buffer (MSHR
    /// target lists, parked migrations, replay queues) to its pool. For
    /// a run a cycle cap stopped mid-flight: the fills will never
    /// arrive. Statistics are kept; the model need not be usable for
    /// further simulation afterwards.
    fn reset_in_flight(&mut self) {}

    /// Hit/miss statistics.
    fn stats(&self) -> CacheStats;

    /// L1-side energy event counts (SRAM/STT reads and writes).
    fn energy(&self) -> EnergyCounters;

    /// Escape hatch for configuration-specific metrics (the runner
    /// downcasts to `fuse-core`'s controller to read stall breakdowns,
    /// predictor accuracy, CBF statistics…).
    fn as_any(&self) -> &dyn Any;
}

/// The Fig. 3 "Oracle GPU" L1: unbounded capacity, so only cold misses
/// leave the SM. An upper bound on what any real L1D organisation can do.
///
/// # Examples
///
/// ```
/// use fuse_gpu::l1d::{IdealL1, L1Access, L1Outcome, L1dModel};
/// use fuse_cache::line::LineAddr;
///
/// let mut l1 = IdealL1::new();
/// let acc = L1Access { warp: 0, pc: 0, line: LineAddr(9), is_store: false };
/// assert_eq!(l1.access(0, acc), L1Outcome::Pending); // cold miss
/// ```
#[derive(Debug)]
pub struct IdealL1 {
    resident: FxHashSet<LineAddr>,
    mshr: Mshr,
    outgoing: Vec<OutgoingReq>,
    completions: Vec<u16>,
    next_id: u64,
    stats: CacheStats,
    energy: EnergyCounters,
}

impl IdealL1 {
    /// Creates an empty ideal cache (32-entry MSHR, as the baselines use).
    pub fn new() -> Self {
        IdealL1 {
            resident: FxHashSet::default(),
            mshr: Mshr::new(32, 8),
            outgoing: Vec::new(),
            completions: Vec::new(),
            next_id: 0,
            stats: CacheStats::default(),
            energy: EnergyCounters::default(),
        }
    }
}

impl Default for IdealL1 {
    fn default() -> Self {
        Self::new()
    }
}

impl L1dModel for IdealL1 {
    fn access(&mut self, _now: u64, acc: L1Access) -> L1Outcome {
        if self.resident.contains(&acc.line) {
            self.stats.hits += 1;
            if acc.is_store {
                self.energy.sram_writes += 1;
                return L1Outcome::StoreAccepted;
            }
            self.energy.sram_reads += 1;
            return L1Outcome::HitNow;
        }
        let target = MshrTarget {
            warp: acc.warp,
            is_store: acc.is_store,
            pc_sig: 0,
        };
        match self.mshr.allocate(acc.line, target, FillDest::Sram) {
            MshrOutcome::NewMiss => {
                self.stats.misses += 1;
                let id = self.next_id;
                self.next_id += 1;
                self.outgoing.push(OutgoingReq {
                    id,
                    line: acc.line,
                    kind: OutgoingKind::FillRead,
                });
                if acc.is_store {
                    L1Outcome::StoreAccepted
                } else {
                    L1Outcome::Pending
                }
            }
            MshrOutcome::Merged => {
                self.stats.mshr_merges += 1;
                if acc.is_store {
                    L1Outcome::StoreAccepted
                } else {
                    L1Outcome::Pending
                }
            }
            MshrOutcome::FullEntries | MshrOutcome::FullTargets => {
                self.stats.reservation_fails += 1;
                L1Outcome::ReservationFail
            }
        }
    }

    fn tick(&mut self, _now: u64) {}

    fn push_response(&mut self, _now: u64, rsp: L1Response) {
        self.resident.insert(rsp.line);
        self.energy.sram_writes += 1; // the fill
        if let Some((_, targets)) = self.mshr.complete(rsp.line) {
            for t in &targets {
                if !t.is_store {
                    self.completions.push(t.warp);
                }
            }
            self.mshr.recycle(targets);
        }
    }

    fn drain_outgoing(&mut self, out: &mut Vec<OutgoingReq>) {
        out.append(&mut self.outgoing);
    }

    fn drain_completions(&mut self, out: &mut Vec<u16>) {
        out.append(&mut self.completions);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // No internal pipelines: the only events are undrained buffers
        // (which the SM and the engine pick up on the next tick).
        if self.outgoing.is_empty() && self.completions.is_empty() {
            None
        } else {
            Some(now)
        }
    }

    fn outstanding_misses(&self) -> usize {
        self.mshr.occupancy()
    }

    fn outstanding_lines(&self, out: &mut Vec<LineAddr>) {
        out.extend(self.mshr.iter_entries().map(|(line, _)| line));
    }

    fn reset_in_flight(&mut self) {
        self.mshr.reset();
        self.outgoing.clear();
        self.completions.clear();
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn energy(&self) -> EnergyCounters {
        self.energy
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(line: u64) -> L1Access {
        L1Access {
            warp: 1,
            pc: 0,
            line: LineAddr(line),
            is_store: false,
        }
    }

    #[test]
    fn cold_miss_then_permanent_hits() {
        let mut l1 = IdealL1::new();
        assert_eq!(l1.access(0, load(5)), L1Outcome::Pending);
        let mut out = Vec::new();
        l1.drain_outgoing(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, OutgoingKind::FillRead);
        l1.push_response(
            10,
            L1Response {
                id: out[0].id,
                line: LineAddr(5),
            },
        );
        let mut done = Vec::new();
        l1.drain_completions(&mut done);
        assert_eq!(done, vec![1]);
        // Never misses again: infinite capacity.
        for _ in 0..100 {
            assert_eq!(l1.access(20, load(5)), L1Outcome::HitNow);
        }
        assert_eq!(l1.stats().misses, 1);
        assert_eq!(l1.stats().hits, 100);
    }

    #[test]
    fn secondary_misses_merge() {
        let mut l1 = IdealL1::new();
        l1.access(0, load(7));
        let acc2 = L1Access { warp: 2, ..load(7) };
        assert_eq!(l1.access(0, acc2), L1Outcome::Pending);
        let mut out = Vec::new();
        l1.drain_outgoing(&mut out);
        assert_eq!(out.len(), 1, "merged miss must not create traffic");
        l1.push_response(
            5,
            L1Response {
                id: out[0].id,
                line: LineAddr(7),
            },
        );
        let mut done = Vec::new();
        l1.drain_completions(&mut done);
        assert_eq!(done.len(), 2, "both warps wake");
    }

    #[test]
    fn stores_never_block() {
        let mut l1 = IdealL1::new();
        let st = L1Access {
            warp: 0,
            pc: 0,
            line: LineAddr(3),
            is_store: true,
        };
        assert_eq!(l1.access(0, st), L1Outcome::StoreAccepted);
        let mut done = Vec::new();
        let mut out = Vec::new();
        l1.drain_outgoing(&mut out);
        l1.push_response(
            5,
            L1Response {
                id: out[0].id,
                line: LineAddr(3),
            },
        );
        l1.drain_completions(&mut done);
        assert!(done.is_empty(), "stores produce no warp completions");
    }

    #[test]
    fn mshr_exhaustion_reservation_fails() {
        let mut l1 = IdealL1::new();
        for i in 0..32 {
            assert_eq!(l1.access(0, load(i)), L1Outcome::Pending);
        }
        assert_eq!(l1.access(0, load(99)), L1Outcome::ReservationFail);
        assert_eq!(l1.stats().reservation_fails, 1);
    }
}
