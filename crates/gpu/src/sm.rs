//! Streaming multiprocessor: warp scheduling and issue.
//!
//! One warp instruction issues per SM per cycle (the paper's in-order
//! 32-wide pipeline at warp granularity). Memory instructions coalesce into
//! line requests that go to the SM's private L1D; a warp blocks until all
//! its outstanding loads complete, exactly like GPGPU-Sim's scoreboard on
//! the destination register. Warps are scheduled loose-round-robin, with
//! priority to a warp that still holds the LSU (partially issued coalesced
//! access).

use std::collections::VecDeque;

use crate::coalesce::{coalesce_into, LineSet};
use crate::convert::narrow;
use crate::l1d::{L1Access, L1Outcome, L1dModel, OutgoingReq};
use crate::warp::{WarpOp, WarpProgram};
use fuse_cache::line::LineAddr;
use fuse_obs::trace::{TraceEvent, TraceKind, TraceRing};

/// Line requests the L1 port accepts per cycle (128 B external bus feeding
/// a 64 B-wide 2x-clocked internal bus — §III-A of the paper).
pub const L1_PORT_WIDTH: usize = 2;

/// Per-SM execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp instructions issued.
    pub instructions: u64,
    /// Cycles in which something issued.
    pub issue_cycles: u64,
    /// Cycles with nothing issuable because every candidate warp was
    /// blocked on outstanding memory (the paper's off-chip stall).
    pub mem_stall_cycles: u64,
    /// Cycles lost to structural L1 rejections (MSHR/bank/queue full).
    pub reservation_stall_cycles: u64,
    /// Cycles with no runnable work (warps retired or in compute delay).
    pub idle_cycles: u64,
}

#[derive(Debug, Default)]
struct WarpState {
    outstanding: u32,
    pending: VecDeque<(LineAddr, bool, u32)>, // (line, is_store, pc)
    finished: bool,
}

impl WarpState {
    fn retired(&self) -> bool {
        self.finished && self.outstanding == 0 && self.pending.is_empty()
    }
}

/// One streaming multiprocessor with its private L1D.
pub struct Sm {
    l1: Box<dyn L1dModel>,
    programs: Vec<Box<dyn WarpProgram>>,
    warps: Vec<WarpState>,
    rr: usize,
    stats: SmStats,
    completions: Vec<u16>,
    /// Warps `0..activated` may run; grows as throttled warps retire.
    activated: usize,
    warp_limit: usize,
    /// Outstanding retirement obligations: one per unfinished warp, plus
    /// one per outstanding load and per pending line request. Zero iff
    /// every warp retired, making [`Sm::done`] O(1) so the engine can
    /// check for drain every cycle.
    live: u64,
    /// The warp holding un-replayed coalesced lines, if any. At most one
    /// warp can hold the LSU: Phase A replays it exclusively until its
    /// lines drain, and only then can Phase B issue another memory op —
    /// so Phase A is a single lookup, not a scan.
    lsu_warp: Option<u16>,
    /// Warps with outstanding loads. With `lsu_warp` this makes the
    /// issue-bubble classification (mem stall vs idle) O(1).
    waiting_warps: usize,
    /// Whether the most recent tick ended in an issue bubble (nothing
    /// issued, no LSU replay). The event engine's wake registration
    /// (DESIGN.md §3i) reads this: a non-bubble tick means
    /// the SM acted this cycle and `now + 1` is a safe conservative
    /// wake, so the full [`Sm::next_event`] scan is only paid on the
    /// busy→stalled transition cycle.
    bubble: bool,
    /// Activated, unfinished warps with no outstanding loads — the Phase B
    /// candidate pool (busy-on-compute warps included). Zero lets the
    /// issue stage skip the Phase B scan.
    ready_warps: usize,
    /// Finished warps. Every finished warp is retired (it can only finish
    /// with nothing outstanding or pending), so the throttle's running-warp
    /// count is `activated - finished_warps` without a scan.
    finished_warps: usize,
    /// Packed per-warp issue-eligibility horizon: the compute-delay expiry
    /// for a runnable warp, `u64::MAX` for one that is finished or blocked
    /// on outstanding loads. Folds the Phase B candidate test into one
    /// comparison over a dense array instead of three loads from the
    /// pointer-laden [`WarpState`].
    wake_at: Vec<u64>,
    /// Coalescing scratch, owned by the SM for its lifetime so issuing a
    /// memory instruction never allocates. Only Phase B of `issue` uses
    /// it, and its contents never outlive the call.
    coalesce_buf: LineSet,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("warps", &self.warps.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM with one program per warp.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty.
    pub fn new(l1: Box<dyn L1dModel>, programs: Vec<Box<dyn WarpProgram>>) -> Self {
        let n = programs.len();
        Self::with_warp_limit(l1, programs, n)
    }

    /// Creates an SM that throttles concurrency to `warp_limit` active
    /// warps (CCWS-style); a retired warp releases its slot to the next
    /// resident warp.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or `warp_limit` is zero.
    pub fn with_warp_limit(
        l1: Box<dyn L1dModel>,
        programs: Vec<Box<dyn WarpProgram>>,
        warp_limit: usize,
    ) -> Self {
        assert!(!programs.is_empty(), "an SM needs at least one warp");
        assert!(warp_limit > 0, "need at least one active warp");
        let n = programs.len();
        Sm {
            l1,
            programs,
            warps: (0..n).map(|_| WarpState::default()).collect(),
            rr: 0,
            stats: SmStats::default(),
            completions: Vec::new(),
            activated: warp_limit.min(n),
            warp_limit,
            live: n as u64,
            lsu_warp: None,
            waiting_warps: 0,
            bubble: false,
            ready_warps: warp_limit.min(n),
            finished_warps: 0,
            wake_at: vec![0; n],
            coalesce_buf: LineSet::new(),
        }
    }

    /// The SM's L1D (for configuration-specific metric extraction).
    pub fn l1(&self) -> &dyn L1dModel {
        self.l1.as_ref()
    }

    /// Execution statistics.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// True once every warp retired and no loads are outstanding. O(1):
    /// the `live` counter tracks the warp scan exactly.
    pub fn done(&self) -> bool {
        debug_assert_eq!(
            self.live == 0,
            self.warps.iter().all(|w| w.retired()),
            "live counter diverged from warp state"
        );
        self.live == 0
    }

    /// Moves this cycle's L1 → L2 requests into `out`.
    pub fn drain_outgoing(&mut self, out: &mut Vec<OutgoingReq>) {
        self.l1.drain_outgoing(out);
    }

    /// Delivers a fill response to the L1.
    pub fn push_response(&mut self, now: u64, rsp: crate::l1d::L1Response) {
        self.l1.push_response(now, rsp);
    }

    /// Outstanding L1 misses (pool accounting — see
    /// [`L1dModel::outstanding_misses`]).
    pub fn outstanding_misses(&self) -> usize {
        self.l1.outstanding_misses()
    }

    /// Outstanding retirement obligations: one per unfinished warp plus
    /// one per outstanding load and pending coalesced line. Checker
    /// introspection — zero iff [`Sm::done`].
    pub fn live_obligations(&self) -> u64 {
        self.live
    }

    /// Warps currently blocked on outstanding loads (checker
    /// introspection; drives the mem-stall classification).
    pub fn waiting_warps(&self) -> usize {
        self.waiting_warps
    }

    /// Whether a warp currently holds the LSU with un-replayed coalesced
    /// lines (checker introspection).
    pub fn lsu_held(&self) -> bool {
        self.lsu_warp.is_some()
    }

    /// Whether the most recent tick issued nothing (and held no LSU
    /// replay). Read by the event engine's wake registration: after a
    /// non-bubble tick the SM may act again next cycle, so `now + 1` is
    /// registered without a scan; after a bubble the precise
    /// [`Sm::next_event`] answer is worth its O(warps) cost because it
    /// buys a multi-cycle skip.
    pub fn ticked_bubble(&self) -> bool {
        self.bubble
    }

    /// Advances one cycle: L1 pipelines, load wake-ups, then issue.
    pub fn tick(&mut self, now: u64) {
        self.tick_traced(now, None);
    }

    /// [`Sm::tick`] with an optional event tracer. `tracer` carries the
    /// ring and this SM's index (the SM does not know its own position);
    /// Phase B records a coalesce trace point when it issues a memory
    /// instruction.
    pub fn tick_traced(&mut self, now: u64, tracer: Option<(&mut TraceRing, u32)>) {
        self.bubble = false;
        self.l1.tick(now);
        self.completions.clear();
        self.l1.drain_completions(&mut self.completions);
        for i in 0..self.completions.len() {
            let w = self.completions[i] as usize;
            debug_assert!(self.warps[w].outstanding > 0, "spurious completion");
            self.warps[w].outstanding -= 1;
            self.live -= 1;
            if self.warps[w].outstanding == 0 {
                // A warp with loads in flight is never finished, so it
                // rejoins the Phase B pool the moment the last fill lands.
                // Its compute delay expired before the memory op issued,
                // so it is issuable immediately.
                self.waiting_warps -= 1;
                self.ready_warps += 1;
                self.wake_at[w] = now;
            }
        }
        // Throttling: release slots of retired warps to waiting ones.
        if self.activated < self.warps.len() {
            let running = self.activated - self.finished_warps;
            let free = self.warp_limit.saturating_sub(running);
            let grown = (self.activated + free).min(self.warps.len());
            // Newly activated warps are fresh: unfinished, nothing in
            // flight — straight into the candidate pool.
            self.ready_warps += grown - self.activated;
            self.activated = grown;
        }
        self.issue(now, tracer);
    }

    /// Earliest cycle at or after `now` at which this SM could do
    /// anything observable: an L1 event, a warp retrying its coalesced
    /// access (every cycle — even rejections mutate L1 statistics), or a
    /// warp becoming issuable when its compute delay expires. Returns
    /// `None` when every warp is permanently blocked on external input
    /// (outstanding loads) or retired.
    ///
    /// The scan covers the *would-be* activation window: `tick` expands
    /// `activated` before issuing, so a warp whose slot frees this cycle
    /// (because an earlier warp retired last cycle) can issue immediately
    /// and must count as an event now.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.lsu_warp.is_some() {
            return Some(now); // Phase A retries every cycle
        }
        let mut earliest = match self.l1.next_event(now) {
            Some(t) if t <= now => return Some(now),
            e => e,
        };
        let n = if self.activated < self.warps.len() {
            let running = self.activated - self.finished_warps;
            (self.activated + self.warp_limit.saturating_sub(running)).min(self.warps.len())
        } else {
            self.activated
        };
        for &t in &self.wake_at[..n] {
            if t <= now {
                return Some(now); // issuable (or retiring) this cycle
            }
            if t != u64::MAX {
                earliest = Some(earliest.map_or(t, |c: u64| c.min(t)));
            }
            // MAX: finished, or blocked until a completion (an L1 event).
        }
        earliest
    }

    /// Bulk-credits `span` skipped cycles of stall classification, exactly
    /// as `span` issue-less ticks would have: the bubble is a memory stall
    /// while any warp waits on loads (or holds unreplayed coalesced
    /// lines), idle otherwise. Warp state cannot change inside a skipped
    /// span (every change is an event), so one classification covers it.
    pub fn advance_idle(&mut self, span: u64) {
        if self.waiting_warps > 0 || self.lsu_warp.is_some() {
            self.stats.mem_stall_cycles += span;
        } else {
            self.stats.idle_cycles += span;
        }
    }

    fn issue(&mut self, now: u64, tracer: Option<(&mut TraceRing, u32)>) {
        let n = self.activated;
        // Phase A: the warp still holding the LSU finishes its coalesced
        // access first.
        if let Some(wi) = self.lsu_warp {
            let wi = wi as usize;
            if self.issue_pending(now, wi) {
                self.stats.issue_cycles += 1;
            } else {
                self.stats.reservation_stall_cycles += 1;
            }
            return;
        }
        // Phase B: fetch a new instruction from a ready warp, loose
        // round-robin from the warp after the last issuer. An empty
        // candidate pool (every warp finished or blocked on memory) skips
        // the scan outright.
        for off in 0..if self.ready_warps > 0 { n } else { 0 } {
            let wi = (self.rr + off) % n;
            if self.wake_at[wi] > now {
                continue; // finished, blocked on memory, or in compute delay
            }
            match self.programs[wi].next_op() {
                None => {
                    self.warps[wi].finished = true;
                    self.live -= 1;
                    self.ready_warps -= 1;
                    self.finished_warps += 1;
                    self.wake_at[wi] = u64::MAX;
                    continue; // retiring is free; keep scanning
                }
                Some(WarpOp::Compute { cycles }) => {
                    self.stats.instructions += 1;
                    self.stats.issue_cycles += 1;
                    self.wake_at[wi] = now + cycles.max(1) as u64;
                    self.rr = (wi + 1) % n;
                    return;
                }
                Some(WarpOp::Mem(op)) => {
                    self.stats.instructions += 1;
                    self.stats.issue_cycles += 1;
                    coalesce_into(&op, &mut self.coalesce_buf);
                    if let Some((ring, sm_idx)) = tracer {
                        ring.record(TraceEvent {
                            t: now,
                            dur: 0,
                            line: self.coalesce_buf.as_slice().first().map_or(0, |l| l.0),
                            kind: TraceKind::Coalesce,
                            track: sm_idx,
                            aux: u32::from(narrow::<u16, _>(wi))
                                | (u32::from(narrow::<u16, _>(self.coalesce_buf.len())) << 16),
                        });
                    }
                    self.live += self.coalesce_buf.len() as u64;
                    let w = &mut self.warps[wi];
                    debug_assert!(w.pending.is_empty(), "Phase B warp holds the LSU");
                    for &line in self.coalesce_buf.as_slice() {
                        w.pending.push_back((line, op.is_store, op.pc));
                    }
                    self.lsu_warp = Some(narrow(wi));
                    self.issue_pending(now, wi);
                    self.rr = (wi + 1) % n;
                    return;
                }
            }
        }
        // Nothing issued this cycle: classify the bubble.
        self.bubble = true;
        if self.waiting_warps > 0 || self.lsu_warp.is_some() {
            self.stats.mem_stall_cycles += 1;
        } else {
            self.stats.idle_cycles += 1;
        }
    }

    /// Issues up to [`L1_PORT_WIDTH`] of warp `wi`'s pending line requests
    /// this cycle; returns whether any made progress.
    fn issue_pending(&mut self, now: u64, wi: usize) -> bool {
        let had_outstanding = self.warps[wi].outstanding > 0;
        let mut progress = false;
        let mut budget = L1_PORT_WIDTH;
        while let Some(&(line, is_store, pc)) = self.warps[wi].pending.front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let outcome = self.l1.access(
                now,
                L1Access {
                    warp: narrow(wi),
                    pc,
                    line,
                    is_store,
                },
            );
            match outcome {
                L1Outcome::HitNow | L1Outcome::StoreAccepted => {
                    self.warps[wi].pending.pop_front();
                    self.live -= 1;
                    progress = true;
                }
                L1Outcome::Pending => {
                    // One pending line becomes one outstanding load: the
                    // warp's retirement obligation count is unchanged.
                    self.warps[wi].pending.pop_front();
                    self.warps[wi].outstanding += 1;
                    progress = true;
                }
                L1Outcome::ReservationFail => break,
            }
        }
        let w = &self.warps[wi];
        if w.pending.is_empty() {
            self.lsu_warp = None; // LSU released
        }
        if !had_outstanding && w.outstanding > 0 {
            self.waiting_warps += 1;
            self.ready_warps -= 1; // blocked on memory until the fills land
            self.wake_at[wi] = u64::MAX;
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1d::IdealL1;
    use crate::warp::{MemOp, StreamProgram};

    fn mem(pc: u32, base: u64, store: bool) -> WarpOp {
        WarpOp::Mem(MemOp::strided(pc, store, base, 4, 32))
    }

    fn run_sm(mut sm: Sm, max: u64) -> (Sm, u64) {
        let mut cycles = 0;
        for now in 0..max {
            sm.tick(now);
            // Feed fills back instantly (memory modelled elsewhere).
            let mut out = Vec::new();
            sm.drain_outgoing(&mut out);
            for r in out {
                if r.kind.expects_response() {
                    sm.push_response(
                        now,
                        crate::l1d::L1Response {
                            id: r.id,
                            line: r.line,
                        },
                    );
                }
            }
            cycles = now + 1;
            if sm.done() {
                break;
            }
        }
        (sm, cycles)
    }

    #[test]
    fn single_warp_executes_everything() {
        let prog = StreamProgram::new(vec![
            WarpOp::Compute { cycles: 1 },
            mem(0x10, 0x1000, false),
            mem(0x14, 0x1000, true),
            WarpOp::Compute { cycles: 3 },
        ]);
        let sm = Sm::new(Box::new(IdealL1::new()), vec![Box::new(prog)]);
        let (sm, cycles) = run_sm(sm, 1000);
        assert!(sm.done());
        assert_eq!(sm.stats().instructions, 4);
        assert!(cycles >= 5, "compute delay must cost cycles");
    }

    #[test]
    fn warp_blocks_on_load_until_fill() {
        // No fills delivered: the warp must stay blocked.
        let prog = StreamProgram::new(vec![mem(0, 0, false), WarpOp::Compute { cycles: 1 }]);
        let mut sm = Sm::new(Box::new(IdealL1::new()), vec![Box::new(prog)]);
        for now in 0..50 {
            sm.tick(now);
        }
        assert!(!sm.done());
        assert_eq!(
            sm.stats().instructions,
            1,
            "second instruction must not issue"
        );
        assert!(sm.stats().mem_stall_cycles > 40);
    }

    #[test]
    fn stores_do_not_block() {
        let prog = StreamProgram::new(vec![mem(0, 0, true), WarpOp::Compute { cycles: 1 }]);
        let mut sm = Sm::new(Box::new(IdealL1::new()), vec![Box::new(prog)]);
        for now in 0..10 {
            sm.tick(now);
        }
        assert_eq!(sm.stats().instructions, 2, "store is fire-and-forget");
    }

    #[test]
    fn round_robin_interleaves_warps() {
        let mk = || {
            Box::new(StreamProgram::new(vec![
                WarpOp::Compute { cycles: 1 },
                WarpOp::Compute { cycles: 1 },
            ])) as Box<dyn WarpProgram>
        };
        let sm = Sm::new(Box::new(IdealL1::new()), vec![mk(), mk(), mk()]);
        let (sm, cycles) = run_sm(sm, 100);
        assert!(sm.done());
        assert_eq!(sm.stats().instructions, 6);
        // 6 instructions at 1 IPC: 6 issue cycles (+1 drain cycle).
        assert!(cycles <= 8, "RR should keep the pipe full, took {cycles}");
    }

    #[test]
    fn irregular_access_issues_many_lines() {
        // 32 lanes at 128 B stride: 32 distinct lines from one instruction.
        let op = WarpOp::Mem(MemOp::strided(0, false, 0, 128, 32));
        let prog = StreamProgram::new(vec![op]);
        let sm = Sm::new(Box::new(IdealL1::new()), vec![Box::new(prog)]);
        let (sm, _) = run_sm(sm, 1000);
        assert!(sm.done());
        let stats = sm.l1().stats();
        assert_eq!(stats.misses, 32);
    }

    #[test]
    fn next_event_skips_compute_delays_and_blocks_on_loads() {
        let prog = StreamProgram::new(vec![
            WarpOp::Compute { cycles: 10 },
            mem(0x10, 0x1000, false),
        ]);
        let mut sm = Sm::new(Box::new(IdealL1::new()), vec![Box::new(prog)]);
        sm.tick(0); // issues the compute; busy until 10
        assert_eq!(sm.next_event(1), Some(10), "compute expiry is the event");
        for now in 1..10 {
            sm.tick(now); // dead cycles: nothing issuable
        }
        let idle_before = sm.stats().idle_cycles;
        assert_eq!(idle_before, 9, "cycles 1..10 are idle bubbles");
        sm.tick(10); // issues the load; miss goes to the L1's buffer
        assert_eq!(
            sm.next_event(11),
            Some(11),
            "undrained outgoing request pins the SM"
        );
        let mut out = Vec::new();
        sm.drain_outgoing(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            sm.next_event(11),
            None,
            "warp blocked on an outstanding load has no intrinsic event"
        );
    }

    #[test]
    fn advance_idle_matches_ticked_classification() {
        // One warp blocked on a load: dead cycles classify as mem stall.
        let mk = || {
            let mut sm = Sm::new(
                Box::new(IdealL1::new()),
                vec![Box::new(StreamProgram::new(vec![mem(0, 0, false)]))],
            );
            sm.tick(0);
            let mut out = Vec::new();
            sm.drain_outgoing(&mut out);
            sm
        };
        let mut ticked = mk();
        let mut skipped = mk();
        for now in 1..21 {
            ticked.tick(now);
        }
        skipped.advance_idle(20);
        assert_eq!(ticked.stats(), skipped.stats());
    }

    #[test]
    fn next_event_sees_warps_the_throttle_will_activate() {
        // Warp 0 retires at tick 0; the throttle slot frees, so warp 1 —
        // outside the *current* activation window — can issue next tick.
        let p0 = StreamProgram::new(vec![]);
        let p1 = StreamProgram::new(vec![WarpOp::Compute { cycles: 1 }]);
        let mut sm = Sm::with_warp_limit(
            Box::new(IdealL1::new()),
            vec![Box::new(p0), Box::new(p1)],
            1,
        );
        sm.tick(0); // warp 0 retires during the issue scan
        assert_eq!(
            sm.next_event(1),
            Some(1),
            "newly activatable warp is an immediate event"
        );
        sm.tick(1);
        assert_eq!(sm.stats().instructions, 1);
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn empty_sm_rejected() {
        let _ = Sm::new(Box::new(IdealL1::new()), vec![]);
    }

    #[test]
    fn warp_throttling_limits_concurrency_but_retires_everything() {
        // 4 warps, limit 1: they must run one after another, so two
        // 1-cycle computes per warp take ~8 issue cycles instead of 8
        // interleaved at full width — but everything still retires.
        let mk = || {
            Box::new(StreamProgram::new(vec![
                WarpOp::Compute { cycles: 1 },
                WarpOp::Compute { cycles: 1 },
            ])) as Box<dyn WarpProgram>
        };
        let mut sm = Sm::with_warp_limit(Box::new(IdealL1::new()), vec![mk(), mk(), mk(), mk()], 1);
        for now in 0..100 {
            sm.tick(now);
            if sm.done() {
                break;
            }
        }
        assert!(sm.done(), "throttled warps must still all retire");
        assert_eq!(sm.stats().instructions, 8);
    }

    #[test]
    fn throttled_sm_blocks_later_warps_until_earlier_retire() {
        // Warp 0 blocks forever on an unanswered load; warp 1 must never
        // start under a limit of 1.
        let p0 = StreamProgram::new(vec![mem(0, 0, false)]);
        let p1 = StreamProgram::new(vec![WarpOp::Compute { cycles: 1 }]);
        let mut sm = Sm::with_warp_limit(
            Box::new(IdealL1::new()),
            vec![Box::new(p0), Box::new(p1)],
            1,
        );
        for now in 0..50 {
            sm.tick(now); // no fills delivered: warp 0 stays blocked
        }
        assert_eq!(sm.stats().instructions, 1, "warp 1 must be throttled out");
    }
}
