//! The functional reference model: replays the engine's event stream and
//! flags anything the memory-hierarchy protocol forbids.
//!
//! The oracle is allocation-unconstrained by design — `HashMap`s,
//! `VecDeque`s and growable violation lists everywhere the engine uses
//! slabs and pools. Where the engine is clever, the model is obvious;
//! divergence between the two is how the cleverness gets audited.

use std::collections::{HashMap, VecDeque};

use fuse_gpu::check::{CheckEvent, CheckSink};
use fuse_gpu::config::GpuConfig;
use fuse_gpu::l1d::OutgoingKind;
use fuse_gpu::slab::NO_SLOT;
use fuse_gpu::system::GpuSystem;
use fuse_mem::dram::DramTiming;

/// Violations kept verbatim; the rest are only counted. Keeps a badly
/// broken run from drowning the report (and the fuzzer's memory).
const MAX_VIOLATIONS: usize = 32;

/// Model state for one in-flight, response-expecting read.
#[derive(Debug, Clone, Copy)]
struct ReadState {
    sm: usize,
    line: u64,
    injected_at: u64,
    delivered_at: Option<u64>,
    l2_out_at: Option<u64>,
    bank: usize,
}

/// One observed DRAM read completion, kept for the end-of-run legality
/// sweep (per-bank and per-bus lower bounds need the completions in
/// `finished_at` order, which the per-event stream does not guarantee
/// when one tick collects several).
#[derive(Debug, Clone, Copy)]
struct FillRec {
    channel: usize,
    local_line: u64,
    queued_at: u64,
    finished_at: u64,
    row_hit: bool,
}

/// The lockstep reference model. Attach with
/// [`GpuSystem::attach_check_sink`], run, detach, then call
/// [`Oracle::finalize`]; [`Oracle::violations`] holds everything the
/// model objected to.
#[derive(Debug, Clone)]
pub struct Oracle {
    icnt_latency: u64,
    l2_latency: u64,
    l2_banks: usize,
    timing: DramTiming,
    record: bool,
    events: Vec<CheckEvent>,
    live: HashMap<u64, ReadState>,
    /// Injection cycles of write-throughs not yet delivered. The request
    /// network is one FIFO, so write deliveries match injections in
    /// order even though writes carry no id.
    wt_in_flight: VecDeque<u64>,
    wt_injected: u64,
    wt_delivered: u64,
    /// Queue cycles of DRAM reads awaiting their fill, keyed by
    /// (channel, L2-level line). The L2's per-line miss merging means at
    /// most one outstanding fill per line in practice; the deque keeps
    /// the model honest rather than assuming it.
    queued_reads: HashMap<(usize, u64), VecDeque<u64>>,
    queued_outstanding: usize,
    fills: Vec<FillRec>,
    last_cycle_end: Option<u64>,
    /// Cycles skipped since the last ticked cycle (continuity check).
    pending_skip: u64,
    retired: u64,
    violations: Vec<String>,
    suppressed: u64,
}

impl Oracle {
    /// A fresh model for a system built from `cfg`. `record` keeps the
    /// full event stream for cross-engine diffing (the lockstep harness
    /// wants it; a lone invariant check can leave it off).
    pub fn new(cfg: &GpuConfig, record: bool) -> Self {
        Oracle {
            icnt_latency: cfg.icnt_latency as u64,
            l2_latency: cfg.l2_latency as u64,
            l2_banks: cfg.l2_banks,
            timing: cfg.dram,
            record,
            events: Vec::new(),
            live: HashMap::new(),
            wt_in_flight: VecDeque::new(),
            wt_injected: 0,
            wt_delivered: 0,
            queued_reads: HashMap::new(),
            queued_outstanding: 0,
            fills: Vec::new(),
            last_cycle_end: None,
            pending_skip: 0,
            retired: 0,
            violations: Vec::new(),
            suppressed: 0,
        }
    }

    /// Everything the model objected to, in observation order. Empty
    /// means the run was consistent with the protocol.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Violations beyond the first `MAX_VIOLATIONS` (32) that were
    /// counted but not kept.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Reads that completed their full round trip.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The recorded event stream (empty unless constructed with
    /// `record = true`).
    pub fn events(&self) -> &[CheckEvent] {
        &self.events
    }

    fn flag(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        } else {
            self.suppressed += 1;
        }
    }

    fn on_outgoing(&mut self, sm: usize, gid: u64, line: u64, kind: OutgoingKind, at: u64) {
        if !kind.expects_response() {
            if gid != NO_SLOT {
                self.flag(format!(
                    "write-through carries live gid {gid} at cycle {at}"
                ));
            }
            self.wt_injected += 1;
            self.wt_in_flight.push_back(at);
            return;
        }
        if gid == NO_SLOT {
            self.flag(format!("read injected without a gid at cycle {at}"));
            return;
        }
        let state = ReadState {
            sm,
            line,
            injected_at: at,
            delivered_at: None,
            l2_out_at: None,
            bank: (line % self.l2_banks as u64) as usize,
        };
        if self.live.insert(gid, state).is_some() {
            self.flag(format!(
                "gid {gid} reused while still in flight (cycle {at})"
            ));
        }
    }

    fn on_req_deliver(
        &mut self,
        gid: u64,
        sm: usize,
        bank: usize,
        line: u64,
        kind: OutgoingKind,
        at: u64,
    ) {
        if !kind.expects_response() {
            self.wt_delivered += 1;
            match self.wt_in_flight.pop_front() {
                Some(injected) if at < injected + self.icnt_latency => self.flag(format!(
                    "write-through delivered at {at}, {} cycles after injection \
                     (network latency is {})",
                    at - injected,
                    self.icnt_latency
                )),
                Some(_) => {}
                None => self.flag(format!(
                    "write-through delivered at {at} with none in flight"
                )),
            }
            return;
        }
        let (icnt_latency, l2_banks) = (self.icnt_latency, self.l2_banks as u64);
        let mut flags: Vec<String> = Vec::new();
        match self.live.get_mut(&gid) {
            None => flags.push(format!("gid {gid} delivered at {at} but never injected")),
            Some(st) => {
                if st.delivered_at.is_some() {
                    flags.push(format!("gid {gid} delivered twice (cycle {at})"));
                }
                if at < st.injected_at + icnt_latency {
                    flags.push(format!(
                        "gid {gid} crossed the request network in {} cycles (latency {})",
                        at - st.injected_at,
                        icnt_latency
                    ));
                }
                if st.line != line || st.sm != sm {
                    flags.push(format!(
                        "gid {gid} mutated in flight: injected (sm {}, line {:#x}), \
                         delivered (sm {sm}, line {line:#x})",
                        st.sm, st.line
                    ));
                }
                if bank as u64 != line % l2_banks {
                    flags.push(format!(
                        "gid {gid} delivered to bank {bank}, but line {line:#x} \
                         homes on bank {}",
                        line % l2_banks
                    ));
                }
                st.delivered_at = Some(at);
                st.bank = bank;
            }
        }
        for f in flags {
            self.flag(f);
        }
    }

    fn on_l2_response(&mut self, gid: u64, bank: usize, line: u64, at: u64) {
        let l2_latency = self.l2_latency;
        let mut flags: Vec<String> = Vec::new();
        match self.live.get_mut(&gid) {
            None => flags.push(format!(
                "L2 bank {bank} responded to unknown gid {gid} at {at}"
            )),
            Some(st) => {
                if st.l2_out_at.is_some() {
                    flags.push(format!("gid {gid} got two L2 responses (cycle {at})"));
                }
                match st.delivered_at {
                    None => flags.push(format!("gid {gid} answered by L2 at {at} before delivery")),
                    // Every read spends at least one service pass in the
                    // slice pipeline, even when the fill that releases it
                    // arrives earlier.
                    Some(d) if at < d + l2_latency => flags.push(format!(
                        "gid {gid} answered {} cycles after delivery (L2 latency {})",
                        at - d,
                        l2_latency
                    )),
                    Some(_) => {}
                }
                if st.bank != bank || st.line != line {
                    flags.push(format!(
                        "gid {gid} response from bank {bank} line {line:#x}, \
                         expected bank {} line {:#x}",
                        st.bank, st.line
                    ));
                }
                st.l2_out_at = Some(at);
            }
        }
        for f in flags {
            self.flag(f);
        }
    }

    fn on_respond(&mut self, gid: u64, sm: usize, line: u64, at: u64) {
        match self.live.remove(&gid) {
            None => self.flag(format!("gid {gid} retired at {at} without being in flight")),
            Some(st) => {
                self.retired += 1;
                if st.sm != sm || st.line != line {
                    self.flag(format!(
                        "gid {gid} retired to (sm {sm}, line {line:#x}), \
                         issued by (sm {}, line {:#x})",
                        st.sm, st.line
                    ));
                }
                match st.l2_out_at {
                    None => self.flag(format!("gid {gid} retired at {at} before its L2 response")),
                    Some(l2) if at < l2 + self.icnt_latency => self.flag(format!(
                        "gid {gid} crossed the response network in {} cycles (latency {})",
                        at - l2,
                        self.icnt_latency
                    )),
                    Some(_) => {}
                }
            }
        }
    }

    fn on_dram_queued(&mut self, channel: usize, line: u64, is_read: bool, at: u64) {
        if !is_read {
            return; // writes complete invisibly; nothing to balance
        }
        self.queued_reads
            .entry((channel, line))
            .or_default()
            .push_back(at);
        self.queued_outstanding += 1;
    }

    fn on_dram_fill(
        &mut self,
        channel: usize,
        line: u64,
        queued_at: u64,
        finished_at: u64,
        row_hit: bool,
        at: u64,
    ) {
        // The engine's single strongest cross-engine invariant: both the
        // tick engine (which ticks occupied channels every cycle) and the
        // skip engine (whose next-event fold includes every in-service
        // finish time) collect a completion on exactly the cycle the data
        // leaves the pins. A skip that overshoots a DRAM completion
        // surfaces here.
        if at != finished_at {
            self.flag(format!(
                "DRAM fill for line {line:#x} collected at {at}, \
                 data was ready at {finished_at} (skip overshoot?)"
            ));
        }
        match self.queued_reads.get_mut(&(channel, line)) {
            Some(q) if !q.is_empty() => {
                self.queued_outstanding -= 1;
                let expect = q.pop_front().expect("checked non-empty");
                if q.is_empty() {
                    self.queued_reads.remove(&(channel, line));
                }
                if expect != queued_at {
                    self.flag(format!(
                        "DRAM fill for line {line:#x} claims queue time {queued_at}, \
                         model has {expect}"
                    ));
                }
            }
            _ => self.flag(format!(
                "DRAM fill for line {line:#x} on channel {channel} at {at} \
                 was never queued"
            )),
        }
        let min = self.timing.min_read_latency_sm(row_hit);
        if finished_at < queued_at + min {
            self.flag(format!(
                "DRAM read of line {line:#x} finished {} cycles after queueing; \
                 a {} needs at least {min}",
                finished_at - queued_at,
                if row_hit { "row hit" } else { "row miss" }
            ));
        }
        self.fills.push(FillRec {
            channel,
            local_line: line / self.l2_banks as u64,
            queued_at,
            finished_at,
            row_hit,
        });
    }

    fn on_skip(&mut self, from: u64, span: u64) {
        if span == 0 {
            self.flag(format!("zero-length skip at cycle {from}"));
        }
        if let Some(last) = self.last_cycle_end {
            let expect = last + 1 + self.pending_skip;
            if from != expect {
                self.flag(format!(
                    "skip starts at {from}, but the clock stands at {expect}"
                ));
            }
        }
        self.pending_skip += span;
    }

    /// End-of-run checks. `quiescent` should be
    /// [`GpuSystem::is_done`] — a capped run legitimately ends with
    /// requests still in flight, so only the DRAM legality sweep runs
    /// for it.
    pub fn finalize(&mut self, sys: &GpuSystem, quiescent: bool) {
        if quiescent {
            self.check_quiescence(sys);
        }
        self.check_dram_legality();
    }

    /// At rest every book must balance: the model's in-flight sets empty,
    /// and every engine-side pool and queue it mirrors drained.
    fn check_quiescence(&mut self, sys: &GpuSystem) {
        if !self.live.is_empty() {
            let mut gids: Vec<u64> = self.live.keys().copied().collect();
            gids.sort_unstable();
            self.flag(format!(
                "{} read(s) never retired at quiescence (gids {:?} ...)",
                gids.len(),
                &gids[..gids.len().min(8)]
            ));
        }
        if self.wt_injected != self.wt_delivered {
            self.flag(format!(
                "write-through books unbalanced: {} injected, {} delivered",
                self.wt_injected, self.wt_delivered
            ));
        }
        if self.queued_outstanding != 0 {
            self.flag(format!(
                "{} DRAM read(s) queued but never filled",
                self.queued_outstanding
            ));
        }
        let cfg = sys.config();
        if sys.traces_live() != 0 {
            self.flag(format!(
                "engine trace slab holds {} entries at rest",
                sys.traces_live()
            ));
        }
        if sys.dram_reads_live() != 0 {
            self.flag(format!(
                "engine DRAM-read slab holds {} entries at rest",
                sys.dram_reads_live()
            ));
        }
        if sys.pending_dram_entries() != 0 {
            self.flag(format!(
                "{} deferred DRAM pushes at rest",
                sys.pending_dram_entries()
            ));
        }
        for bank in 0..cfg.l2_banks {
            let b = sys.l2_slice(bank);
            if b.pending_lines() != 0 || b.waiter_nodes_live() != 0 || b.queued_packets() != 0 {
                self.flag(format!(
                    "L2 bank {bank} not drained at rest: {} pending lines, \
                     {} waiter nodes, {} queued packets",
                    b.pending_lines(),
                    b.waiter_nodes_live(),
                    b.queued_packets()
                ));
            }
        }
        let mut lines = Vec::new();
        for si in 0..cfg.num_sms {
            let sm = sys.sm(si);
            lines.clear();
            sm.l1().outstanding_lines(&mut lines);
            if !lines.is_empty() {
                self.flag(format!(
                    "SM {si} L1 holds {} outstanding miss line(s) at rest",
                    lines.len()
                ));
            }
            if sm.live_obligations() != 0 || sm.waiting_warps() != 0 || sm.lsu_held() {
                self.flag(format!(
                    "SM {si} not at rest: {} live obligations, {} waiting warps, \
                     LSU held: {}",
                    sm.live_obligations(),
                    sm.waiting_warps(),
                    sm.lsu_held()
                ));
            }
        }
    }

    /// Replays every observed read completion in data order and checks
    /// the lower bounds the channel's timing parameters impose. All
    /// bounds are conservative: intervening *writes* complete invisibly
    /// and only push true completion times later, so an observed
    /// violation is a real one.
    fn check_dram_legality(&mut self) {
        let timing = self.timing;
        let mut fills = std::mem::take(&mut self.fills);
        fills.sort_by_key(|f| (f.channel, f.finished_at, f.local_line));
        let mut flags: Vec<String> = Vec::new();
        // (last completion, last row-opener queue time) per (channel, bank).
        let mut bank_state: HashMap<(usize, usize), (u64, Option<u64>)> = HashMap::new();
        let mut bus_last: HashMap<usize, u64> = HashMap::new();
        for f in &fills {
            let bank = timing.bank_of(f.local_line);
            // One shared data bus per channel: bursts cannot overlap.
            if let Some(prev) = bus_last.get(&f.channel) {
                if f.finished_at < prev + timing.burst_sm() {
                    flags.push(format!(
                        "channel {} bus overlap: completions at {} and {} are \
                         closer than one {}-cycle burst",
                        f.channel,
                        prev,
                        f.finished_at,
                        timing.burst_sm()
                    ));
                }
            }
            bus_last.insert(f.channel, f.finished_at);
            let entry = bank_state.entry((f.channel, bank)).or_insert((0, None));
            let (prev_done, opener) = *entry;
            if prev_done > 0 {
                // A prior read completion left its row open, so a
                // non-hit now is a row conflict (precharge + activate +
                // CAS), not a cold miss.
                let gap = if f.row_hit {
                    timing.min_read_latency_sm(true)
                } else {
                    timing.min_conflict_gap_sm()
                };
                if f.finished_at < prev_done + gap {
                    flags.push(format!(
                        "channel {} bank {bank}: completion at {} only {} cycles \
                         after the previous ({} required for a {})",
                        f.channel,
                        f.finished_at,
                        f.finished_at - prev_done,
                        gap,
                        if f.row_hit { "row hit" } else { "row conflict" }
                    ));
                }
            }
            if !f.row_hit {
                // tRAS: the row this access closes was activated no
                // earlier than its opener's arrival, and a row must stay
                // open tRAS before precharge.
                if let Some(opened) = opener {
                    let min = opened + timing.min_open_to_conflict_data_sm();
                    if f.finished_at < min {
                        flags.push(format!(
                            "channel {} bank {bank}: row closed too soon — conflict \
                             data at {}, opener queued at {opened}, tRAS demands {min}",
                            f.channel, f.finished_at
                        ));
                    }
                }
                *entry = (f.finished_at, Some(f.queued_at));
            } else {
                entry.0 = f.finished_at;
            }
        }
        self.fills = fills;
        for f in flags {
            self.flag(f);
        }
    }
}

impl CheckSink for Oracle {
    fn event(&mut self, e: CheckEvent) {
        if self.record {
            self.events.push(e);
        }
        match e {
            CheckEvent::Outgoing {
                sm,
                gid,
                line,
                kind,
                at,
            } => self.on_outgoing(sm, gid, line, kind, at),
            CheckEvent::ReqDeliver {
                gid,
                sm,
                bank,
                line,
                kind,
                at,
            } => self.on_req_deliver(gid, sm, bank, line, kind, at),
            CheckEvent::L2Response {
                gid,
                bank,
                line,
                at,
            } => self.on_l2_response(gid, bank, line, at),
            CheckEvent::DramQueued {
                channel,
                line,
                is_read,
                at,
                ..
            } => self.on_dram_queued(channel, line, is_read, at),
            CheckEvent::DramFill {
                channel,
                line,
                queued_at,
                finished_at,
                row_hit,
                at,
                ..
            } => self.on_dram_fill(channel, line, queued_at, finished_at, row_hit, at),
            CheckEvent::Respond { gid, sm, line, at } => self.on_respond(gid, sm, line, at),
            CheckEvent::Skip { from, span } => self.on_skip(from, span),
        }
    }

    fn cycle_end(&mut self, sys: &GpuSystem, cycle: u64) {
        if let Some(last) = self.last_cycle_end {
            let expect = last + 1 + self.pending_skip;
            if cycle != expect {
                self.flag(format!(
                    "clock jumped from {last} (+{} skipped) to {cycle}",
                    self.pending_skip
                ));
            }
        }
        self.last_cycle_end = Some(cycle);
        self.pending_skip = 0;
        // Cardinality lockstep, every ticked cycle: the model's in-flight
        // read set is exactly the engine's trace slab, and its queued
        // DRAM read set exactly the engine's read slab.
        if sys.traces_live() != self.live.len() {
            self.flag(format!(
                "cycle {cycle}: engine tracks {} in-flight reads, model {}",
                sys.traces_live(),
                self.live.len()
            ));
        }
        if sys.dram_reads_live() != self.queued_outstanding {
            self.flag(format!(
                "cycle {cycle}: engine holds {} outstanding DRAM reads, model {}",
                sys.dram_reads_live(),
                self.queued_outstanding
            ));
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        Oracle::new(&GpuConfig::gtx480(), false)
    }

    fn inject(o: &mut Oracle, gid: u64, line: u64, at: u64) {
        o.event(CheckEvent::Outgoing {
            sm: 0,
            gid,
            line,
            kind: OutgoingKind::FillRead,
            at,
        });
    }

    #[test]
    fn a_legal_round_trip_is_clean() {
        let mut o = oracle();
        let cfg = GpuConfig::gtx480();
        let (net, l2) = (cfg.icnt_latency as u64, cfg.l2_latency as u64);
        inject(&mut o, 7, 24, 0);
        o.event(CheckEvent::ReqDeliver {
            gid: 7,
            sm: 0,
            bank: 0,
            line: 24,
            kind: OutgoingKind::FillRead,
            at: net,
        });
        o.event(CheckEvent::L2Response {
            gid: 7,
            bank: 0,
            line: 24,
            at: net + l2,
        });
        o.event(CheckEvent::Respond {
            gid: 7,
            sm: 0,
            line: 24,
            at: net + l2 + net,
        });
        assert!(o.violations().is_empty(), "{:?}", o.violations());
        assert_eq!(o.retired(), 1);
    }

    #[test]
    fn double_retirement_is_flagged() {
        let mut o = oracle();
        inject(&mut o, 3, 0, 0);
        o.event(CheckEvent::Respond {
            gid: 3,
            sm: 0,
            line: 0,
            at: 100,
        });
        o.event(CheckEvent::Respond {
            gid: 3,
            sm: 0,
            line: 0,
            at: 101,
        });
        assert!(o
            .violations()
            .iter()
            .any(|v| v.contains("without being in flight")));
    }

    #[test]
    fn impossibly_fast_network_crossing_is_flagged() {
        let mut o = oracle();
        inject(&mut o, 1, 12, 10);
        o.event(CheckEvent::ReqDeliver {
            gid: 1,
            sm: 0,
            bank: 0,
            line: 12,
            kind: OutgoingKind::FillRead,
            at: 11, // gtx480 latency is 40
        });
        assert!(o
            .violations()
            .iter()
            .any(|v| v.contains("crossed the request network")));
    }

    #[test]
    fn skip_overshooting_a_dram_completion_is_flagged() {
        let mut o = oracle();
        o.event(CheckEvent::DramQueued {
            channel: 0,
            bank: 0,
            line: 0,
            is_read: true,
            at: 0,
        });
        o.event(CheckEvent::DramFill {
            channel: 0,
            bank: 0,
            line: 0,
            queued_at: 0,
            finished_at: 60,
            row_hit: false,
            at: 65, // collected 5 cycles late
        });
        assert!(o.violations().iter().any(|v| v.contains("skip overshoot")));
    }

    #[test]
    fn dram_timing_lower_bound_is_enforced() {
        let mut o = oracle();
        o.event(CheckEvent::DramQueued {
            channel: 0,
            bank: 0,
            line: 0,
            is_read: true,
            at: 100,
        });
        o.event(CheckEvent::DramFill {
            channel: 0,
            bank: 0,
            line: 0,
            queued_at: 100,
            finished_at: 103, // a cold miss needs (tRCD + tCL + burst) x ratio
            row_hit: false,
            at: 103,
        });
        assert!(o.violations().iter().any(|v| v.contains("needs at least")));
    }

    #[test]
    fn bus_overlap_is_caught_in_the_legality_sweep() {
        let mut o = oracle();
        let t = GpuConfig::gtx480().dram;
        let legal = t.min_read_latency_sm(false);
        for (i, line) in [0u64, 12].iter().enumerate() {
            // Lines 0 and 12 home on the same channel (12 banks, 6
            // channels); their bursts land one cycle apart — impossible
            // on one shared bus.
            o.event(CheckEvent::DramQueued {
                channel: 0,
                bank: 0,
                line: *line,
                is_read: true,
                at: 0,
            });
            o.event(CheckEvent::DramFill {
                channel: 0,
                bank: 0,
                line: *line,
                queued_at: 0,
                finished_at: legal + i as u64,
                row_hit: false,
                at: legal + i as u64,
            });
        }
        let sys = tiny_system();
        o.finalize(&sys, false);
        assert!(o.violations().iter().any(|v| v.contains("bus overlap")));
    }

    #[test]
    fn clock_continuity_tracks_skip_spans() {
        let mut o = oracle();
        let mut sys = tiny_system();
        sys.run(1); // advance once so cycle_end's sys queries are cheapest
        o.cycle_end(&sys, 5);
        o.event(CheckEvent::Skip { from: 6, span: 10 });
        o.cycle_end(&sys, 16); // 5 + 1 + 10: consistent
        assert!(o.violations().is_empty(), "{:?}", o.violations());
        o.event(CheckEvent::Skip { from: 18, span: 1 }); // clock stands at 17
        assert!(o.violations().iter().any(|v| v.contains("clock stands at")));
    }

    fn tiny_system() -> GpuSystem {
        use fuse_gpu::l1d::IdealL1;
        use fuse_gpu::warp::{StreamProgram, WarpOp};
        GpuSystem::new(
            GpuConfig {
                num_sms: 1,
                warps_per_sm: 1,
                ..GpuConfig::gtx480()
            },
            |_| Box::new(IdealL1::new()),
            |_, _| Box::new(StreamProgram::new(vec![WarpOp::Compute { cycles: 1 }])),
        )
    }
}
