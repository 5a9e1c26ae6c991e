//! The whole-GPU cycle engine.
//!
//! Wires SMs (with their pluggable L1Ds) to the L2 slices through the
//! request/response networks, and the slices to the DRAM channels. Each
//! simulated cycle advances every component once; requests carry a global
//! id so their network vs L2+DRAM residency can be decomposed (Fig. 1a).
//!
//! The per-cycle path is allocation-free in steady state: in-flight
//! request state lives in slot-reusing [`Slab`] tables (the global id *is*
//! the slot), every component writes into caller-owned buffers that the
//! engine recycles across cycles, and drained L2 slices and DRAM channels
//! are skipped outright. `is_done` is O(number of components), so the run
//! loop checks it every cycle and stops the exact cycle the hierarchy
//! drains.
//!
//! Observability is opt-in and pay-for-what-you-use (DESIGN.md §3e):
//! [`GpuSystem::enable_profiler`] samples the engine's monotonic counters
//! at fixed window boundaries (skips are clamped at boundaries, which is
//! stats-neutral because every bulk credit is linear in the span), and
//! [`GpuSystem::enable_tracer`] records packet-level trace points into a
//! fixed ring. With both off the per-tick cost is a pair of `None`
//! checks: [`SimStats`] stays bitwise identical and the steady-state loop
//! stays allocation-free.
//!
//! Busy cycles are *active-set scheduled* (DESIGN.md §3i): every
//! component — each SM, each network direction, each L2 slice, each DRAM
//! channel — keeps its next wake cycle registered in a preallocated
//! [`WakeWheel`], phases dispatch only components due at `now` (crediting
//! the rest through their `advance_idle` classification, which is
//! bitwise-equivalent to a dead tick), and the inter-tick skip peek is
//! the wheel's O(1) minimum instead of an O(SMs × warps) rescan.
//! [`GpuSystem::set_active_set`] turns this off (`--no-active-set` from
//! the CLI) to fall back to dispatch-everything ticks for debugging.

use std::collections::VecDeque;
use std::time::Instant;

use crate::check::{CheckEvent, CheckSink};
use crate::config::GpuConfig;
use crate::convert::narrow;
use crate::icnt::{Interconnect, Packet};
use crate::l1d::{L1Response, L1dModel, OutgoingReq};
use crate::l2::{L2Bank, L2Output};
use crate::slab::{Slab, NO_SLOT};
use crate::sm::{Sm, SmStats};
use crate::stats::SimStats;
use crate::warp::WarpProgram;
use crate::wheel::{WakeWheel, NEVER};
use fuse_cache::line::LineAddr;
use fuse_cache::stats::CacheStats;
use fuse_mem::dram::{DramChannel, DramCompletion, DramRequest};
use fuse_mem::energy::EnergyCounters;
use fuse_obs::profile::{CounterSnapshot, CycleProfiler, ProfileReport};
use fuse_obs::trace::{TraceEvent, TraceKind, TraceRing};

#[derive(Debug, Clone, Copy)]
struct Trace {
    sm: usize,
    l1_id: u64,
    t_inject: u64,
    t_l2_in: u64,
    t_l2_out: u64,
}

/// The simulated GPU.
///
/// Construct with an L1 factory (one L1D per SM — this is where the FUSE
/// configurations plug in) and a program factory (one instruction stream
/// per warp), then [`GpuSystem::run`].
pub struct GpuSystem {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    req_net: Interconnect,
    rsp_net: Interconnect,
    l2: Vec<L2Bank>,
    dram: Vec<DramChannel>,
    /// In-flight read traces; the packet gid is the slab slot
    /// ([`NO_SLOT`] for packets that never need a lookup).
    traces: Slab<Trace>,
    /// Outstanding DRAM reads; the DRAM request id is the slab slot.
    /// Carries the queue cycle so the tracer can emit the DRAM span.
    dram_reads: Slab<(usize, LineAddr, u64)>,
    /// Per-channel retry queues for pushes that found the channel full. A
    /// single global queue would head-of-line block: the first request
    /// stuck on a full channel would also stall requests destined for
    /// channels with room.
    pending_dram: Vec<VecDeque<DramRequest>>,
    /// Total entries across `pending_dram` (O(1) `is_done` term).
    pending_dram_total: usize,
    /// Event-driven cycle skipping: when a tick ends with nothing due,
    /// jump the clock to the earliest component event instead of grinding
    /// through dead cycles. Statistics are bulk-credited so `SimStats` is
    /// bitwise identical either way.
    skip: bool,
    skipped_cycles: u64,
    /// Active-set tick scheduling (DESIGN.md §3i): busy cycles dispatch
    /// only components whose registered wake cycle is due, crediting
    /// everyone else through the same `advance_idle` classification the
    /// skip engine uses — so [`SimStats`] stays bitwise identical to the
    /// always-tick engine.
    active: bool,
    /// Per-component wake registry: SMs first, then the two network
    /// directions, the L2 banks and the DRAM channels. Only *quiet* SMs
    /// carry live entries — hot SMs and every memory-side component are
    /// parked at [`NEVER`] (see `arm_wheel`). Preallocated; updates
    /// never touch the heap.
    wheel: WakeWheel,
    /// The active set itself: `hot[si]` means SM `si` acted on its last
    /// dispatch (issued, replayed its LSU, or was just delivered a fill)
    /// and is dispatched again next cycle without consulting the wheel.
    /// Steady busy state therefore costs one bool load per SM per cycle
    /// and zero wheel updates; the wheel is touched only on hot↔quiet
    /// transitions.
    hot: Vec<bool>,
    /// Number of set entries in `hot` (O(1) "no skip possible" test).
    hot_count: usize,
    /// Component dispatches actually performed during ticked cycles.
    component_ticks: u64,
    /// Dispatch opportunities: components × ticked cycles. The ratio to
    /// `component_ticks` is the sweep layer's `ticked_frac`.
    component_opportunities: u64,
    cycle: u64,
    net_residency: u64,
    mem_residency: u64,
    completed_reads: u64,
    /// Opt-in cycle-attribution profiler (boxed: keeps the disabled
    /// engine's struct layout lean and the per-tick check a null test).
    profiler: Option<Box<CycleProfiler>>,
    /// Opt-in packet-level event tracer (boxed for the same reason).
    tracer: Option<Box<TraceRing>>,
    /// Opt-in lockstep check sink ([`crate::check`]): receives one event
    /// per observable state transition plus a per-cycle callback. Like
    /// the tracer, `None` costs one branch per site and touches no
    /// statistic either way.
    check: Option<Box<dyn CheckSink>>,
    // Scratch buffers recycled every cycle (steady-state zero allocation).
    outgoing_buf: Vec<OutgoingReq>,
    fill_buf: Vec<(usize, LineAddr)>,
    deliver_buf: Vec<Packet>,
    dram_done_buf: Vec<DramCompletion>,
    l2_out: L2Output,
}

impl std::fmt::Debug for GpuSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuSystem")
            .field("cycle", &self.cycle)
            .field("sms", &self.sms.len())
            .finish_non_exhaustive()
    }
}

impl GpuSystem {
    /// Builds the system. `l1_factory(sm)` supplies each SM's L1D;
    /// `program_factory(sm, warp)` supplies each warp's instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`GpuConfig::validate`]).
    pub fn new(
        cfg: GpuConfig,
        mut l1_factory: impl FnMut(usize) -> Box<dyn L1dModel>,
        mut program_factory: impl FnMut(usize, u16) -> Box<dyn WarpProgram>,
    ) -> Self {
        cfg.validate();
        let sms = (0..cfg.num_sms)
            .map(|s| {
                let programs = (0..cfg.warps_per_sm)
                    .map(|w| program_factory(s, narrow(w)))
                    .collect();
                let limit = cfg.active_warp_limit.unwrap_or(cfg.warps_per_sm);
                let mut sm = Sm::with_warp_limit(l1_factory(s), programs, limit);
                sm.set_scheduler(cfg.scheduler);
                sm
            })
            .collect();
        let l2 = (0..cfg.l2_banks)
            .map(|_| {
                L2Bank::new(
                    cfg.l2_sets,
                    cfg.l2_ways,
                    cfg.l2_latency,
                    cfg.l2_mshr_entries,
                )
            })
            .collect();
        let dram = (0..cfg.dram_channels)
            .map(|_| DramChannel::new(cfg.dram))
            .collect();
        // One wheel slot per dispatchable component: every SM, each
        // network direction, every L2 bank, every DRAM channel. Every SM
        // starts hot (dispatched until it proves quiet), so all slots
        // are parked — memory-side components are gated by direct O(1)
        // per-cycle tests and never arm theirs (see `arm_wheel`).
        let components = cfg.num_sms + 2 + cfg.l2_banks + cfg.dram_channels;
        let mut wheel = WakeWheel::new(components);
        for c in 0..components {
            wheel.set(c, NEVER);
        }
        GpuSystem {
            req_net: Interconnect::new(cfg.icnt_latency, cfg.icnt_flits_per_cycle),
            rsp_net: Interconnect::new(cfg.icnt_latency, cfg.icnt_flits_per_cycle),
            sms,
            l2,
            dram,
            traces: Slab::new(),
            dram_reads: Slab::new(),
            pending_dram: (0..cfg.dram_channels).map(|_| VecDeque::new()).collect(),
            pending_dram_total: 0,
            skip: true,
            skipped_cycles: 0,
            active: true,
            wheel,
            hot: vec![true; cfg.num_sms],
            hot_count: cfg.num_sms,
            component_ticks: 0,
            component_opportunities: 0,
            cfg,
            cycle: 0,
            net_residency: 0,
            mem_residency: 0,
            completed_reads: 0,
            profiler: None,
            tracer: None,
            check: None,
            outgoing_buf: Vec::new(),
            fill_buf: Vec::new(),
            deliver_buf: Vec::new(),
            dram_done_buf: Vec::new(),
            l2_out: L2Output::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The L1D of SM `sm` (downcast via
    /// [`L1dModel::as_any`] for configuration-specific metrics).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn l1(&self, sm: usize) -> &dyn L1dModel {
        self.sms[sm].l1()
    }

    /// Enables or disables event-driven cycle skipping (on by default).
    /// The engines are observationally equivalent — [`SimStats`] is
    /// bitwise identical — so turning skipping off is only useful for
    /// debugging the skip logic itself or timing the cycle-by-cycle path.
    pub fn set_cycle_skipping(&mut self, on: bool) {
        self.skip = on;
    }

    /// Cycles the run fast-forwarded over instead of ticking (0 with
    /// skipping disabled). Deliberately *not* part of [`SimStats`]: the
    /// two engines must produce identical statistics.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Enables or disables active-set tick scheduling (on by default).
    /// With it on, a busy cycle dispatches only the components whose
    /// registered wake is due and credits the rest through their
    /// `advance_idle` classification; [`SimStats`] is bitwise identical
    /// either way, so turning it off is only useful for debugging the
    /// wake registration itself or timing the dispatch-everything path.
    pub fn set_active_set(&mut self, on: bool) {
        self.active = on;
        if on {
            self.arm_wheel();
        }
    }

    /// Arms the active set for (re-)entry into active-set mode: every SM
    /// is hot (dispatched every cycle until a bubble tick proves it
    /// quiet — conservative after arbitrary external mutation), and
    /// every wheel slot is parked at [`NEVER`]. Memory-side components
    /// are gated by direct O(1) occupancy/`next_event` tests each cycle
    /// and contribute to the skip horizon through
    /// [`GpuSystem::mem_next_event`], so their wheel slots carry no
    /// information — parking them keeps
    /// [`crate::wheel::WakeWheel::peek_min`] a quiet-SM-only horizon.
    fn arm_wheel(&mut self) {
        self.wheel.fill(NEVER);
        self.hot.fill(true);
        self.hot_count = self.hot.len();
    }

    /// Component dispatches actually performed during ticked cycles.
    /// Like [`GpuSystem::skipped_cycles`], deliberately not part of
    /// [`SimStats`]: it measures the engine, not the simulated machine.
    pub fn component_ticks(&self) -> u64 {
        self.component_ticks
    }

    /// Dispatch opportunities (components × ticked cycles) — the
    /// denominator for the sweep layer's `ticked_frac`.
    pub fn component_opportunities(&self) -> u64 {
        self.component_opportunities
    }

    /// Advances exactly one cycle through the normal tick path (no skip,
    /// no profiler bookkeeping). Hook for the seeded active-set property
    /// test, which audits the wake registry between individual cycles.
    #[doc(hidden)]
    pub fn debug_step(&mut self) {
        self.tick();
    }

    /// Audits the wake registry against live `next_event` answers: the
    /// heap structure must be intact, every registered SM wake must be
    /// *at or before* the SM's true next event — early wakes cost a
    /// no-op dispatch, late wakes lose events (DESIGN.md §3i) — and
    /// every memory-side slot must still be parked at [`NEVER`] (those
    /// components are gated by direct per-cycle tests, never by the
    /// wheel).
    #[doc(hidden)]
    pub fn debug_audit_wakes(&self) -> Result<(), String> {
        self.wheel.audit()?;
        let now = self.cycle;
        for (si, sm) in self.sms.iter().enumerate() {
            let wake = self.wheel.get(si);
            if self.hot[si] {
                // Hot SMs are dispatched unconditionally every cycle;
                // their wheel slot must be parked so a stale entry can
                // never shadow the hot flag after demotion.
                if wake != NEVER {
                    return Err(format!(
                        "SM {si}: hot but wheel slot is armed ({wake}) \
                         instead of parked at NEVER"
                    ));
                }
                continue;
            }
            let truth = sm.next_event(now).unwrap_or(NEVER);
            if wake > truth {
                return Err(format!(
                    "SM {si}: registered wake {wake} is after its true \
                     next event {truth} at cycle {now}"
                ));
            }
        }
        for c in self.sms.len()..self.wheel.len() {
            if self.wheel.get(c) != NEVER {
                return Err(format!(
                    "memory-side component {c}: wheel slot is armed \
                     ({}) but must stay parked at NEVER",
                    self.wheel.get(c)
                ));
            }
        }
        Ok(())
    }

    /// Enables the cycle-attribution profiler with the given window
    /// length (in simulated cycles). Windows close at exact multiples of
    /// `window` from the enable point; skips are clamped at boundaries,
    /// which is stats-neutral because every bulk credit is linear in the
    /// span. Call before [`GpuSystem::run`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn enable_profiler(&mut self, window: u64) {
        let mut p = CycleProfiler::new(window);
        p.rebase(self.cycle, self.counter_snapshot(), self.skipped_cycles);
        self.profiler = Some(Box::new(p));
    }

    /// Enables packet-level event tracing into a ring holding `capacity`
    /// events (oldest overwritten once full; nothing allocates after this
    /// call).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_tracer(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(TraceRing::with_capacity(capacity)));
    }

    /// Finalizes and detaches the profiler, flushing the partial last
    /// window. `None` if profiling was never enabled.
    pub fn take_profile(&mut self) -> Option<ProfileReport> {
        let snap = self.counter_snapshot();
        let now = self.cycle;
        let skipped = self.skipped_cycles;
        self.profiler.take().map(|p| p.finish(now, snap, skipped))
    }

    /// Detaches the trace ring. `None` if tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceRing> {
        self.tracer.take().map(|b| *b)
    }

    /// Attaches a lockstep check sink ([`crate::check::CheckSink`]).
    /// Replaces any sink already attached. The sink observes every
    /// subsequent cycle until [`GpuSystem::detach_check_sink`].
    pub fn attach_check_sink(&mut self, sink: Box<dyn CheckSink>) {
        self.check = Some(sink);
    }

    /// Detaches and returns the check sink, if one was attached.
    pub fn detach_check_sink(&mut self) -> Option<Box<dyn CheckSink>> {
        self.check.take()
    }

    /// In-flight response-expecting reads (live trace-slab slots).
    pub fn traces_live(&self) -> usize {
        self.traces.len()
    }

    /// Outstanding DRAM reads (live dram-read-slab slots).
    pub fn dram_reads_live(&self) -> usize {
        self.dram_reads.len()
    }

    /// DRAM pushes deferred on full channels, summed over channels.
    pub fn pending_dram_entries(&self) -> usize {
        self.pending_dram_total
    }

    /// Read access to an L2 slice (checker introspection).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn l2_slice(&self, bank: usize) -> &L2Bank {
        &self.l2[bank]
    }

    /// Read access to a DRAM channel (checker introspection).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn dram_channel(&self, channel: usize) -> &DramChannel {
        &self.dram[channel]
    }

    /// Read access to an SM (checker introspection).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn sm(&self, sm: usize) -> &Sm {
        &self.sms[sm]
    }

    /// Snapshot of the engine's monotonic counters, used by the profiler
    /// to compute per-window deltas. Cheap: a handful of sums over
    /// per-component counters.
    fn counter_snapshot(&self) -> CounterSnapshot {
        let mut snap = CounterSnapshot {
            outgoing_packets: self.req_net.stats().packets,
            ..CounterSnapshot::default()
        };
        for sm in &self.sms {
            let st = sm.stats();
            snap.issue_cycles += st.issue_cycles;
            snap.mem_stall_cycles += st.mem_stall_cycles;
            snap.reservation_stall_cycles += st.reservation_stall_cycles;
            snap.idle_cycles += st.idle_cycles;
            let l1 = sm.l1().stats();
            snap.l1_hits += l1.hits;
            snap.l1_misses += l1.misses;
        }
        for b in &self.l2 {
            snap.l2_accesses += b.accesses();
        }
        for c in &self.dram {
            snap.dram_accesses += c.stats().accesses;
        }
        snap
    }

    /// Runs until every warp retires and the hierarchy drains, or
    /// `max_cycles` elapses. Returns the run's statistics.
    pub fn run(&mut self, max_cycles: u64) -> SimStats {
        if self.active {
            // A caller may have mutated components between runs (queued
            // DRAM work, delivered responses, reset in-flight state):
            // re-register every SM as due so the first tick rebuilds
            // the wake registry from live `next_event` answers.
            self.arm_wheel();
        }
        while self.cycle < max_cycles {
            // Close profiling windows *before* the boundary tick so each
            // window covers exactly `[start, start + window)`. Skip spans
            // are clamped to the boundary below, so the clock lands here
            // exactly; the extra tick this forces at a boundary is
            // stats-equivalent to being inside a skip span. The box is
            // lifted out for the duration so the snapshot (which borrows
            // the whole system) and the close happen in one pass.
            if let Some(mut p) = self.profiler.take() {
                if self.cycle >= p.next_boundary() {
                    p.close_window(self.cycle, self.counter_snapshot(), self.skipped_cycles);
                }
                self.profiler = Some(p);
            }
            self.tick();
            // is_done() is O(#components) thanks to the live counters, so
            // checking every cycle is cheap and the run ends the exact
            // cycle the hierarchy drains (no % 64 overshoot).
            if self.is_done() {
                break;
            }
            if self.skip {
                let now = self.cycle;
                let mut target = match self.next_event_cycle(now) {
                    Some(t) => t.min(max_cycles),
                    // No component will ever act again without input that
                    // is not coming (possible only under a cycle cap a
                    // workload outruns): burn the rest of the budget.
                    None => max_cycles,
                };
                // Land on window boundaries so skipped spans bulk-credit
                // windows exactly like stall counters (stats-neutral:
                // every bulk credit is linear in the span).
                if let Some(p) = &self.profiler {
                    target = target.min(p.next_boundary());
                }
                if target > now {
                    self.advance_idle(target - now);
                }
            }
        }
        #[cfg(debug_assertions)]
        if self.is_done() {
            self.assert_quiescent_pools();
        }
        self.stats()
    }

    /// True once all warps retired and no request is in flight anywhere.
    /// O(number of components): every term is a counter comparison, so the
    /// run loop affords calling this every cycle.
    pub fn is_done(&self) -> bool {
        self.sms.iter().all(|sm| sm.done())
            && self.req_net.is_idle()
            && self.rsp_net.is_idle()
            && self.traces.is_empty()
            && self.pending_dram_total == 0
            && self.l2.iter().all(|b| b.is_idle())
            && self.dram.iter().all(|c| c.occupancy() == 0)
    }

    /// The earliest cycle at or after `now` at which *any* component does
    /// observable work — the cycle the engine may fast-forward to. `None`
    /// when every component is quiescent (deadlock: only reachable under
    /// a cycle cap). With active-set scheduling on, the SM half — the
    /// expensive one, a per-warp scan across every SM — collapses to an
    /// O(1) wheel peek (every tick leaves the registry current); the
    /// memory side is still scanned directly, exactly as the legacy
    /// engine does, because its `next_event` answers change with packets
    /// queued *this same cycle* and caching them eagerly costs more per
    /// cycle than the scan. Without active-set, the full component scan
    /// (early-returning `Some(now)` as soon as anything is due
    /// immediately, so the can't-skip case stays cheap).
    fn next_event_cycle(&self, now: u64) -> Option<u64> {
        if self.active {
            // Any hot SM ticks every cycle: no skip is possible, and the
            // whole memory-side scan — per-channel DRAM queue walks
            // included — is not worth computing. This is the busy-cycle
            // common case, answered by one counter load.
            if self.hot_count > 0 {
                return Some(now);
            }
            let sm = self.wheel.peek_min();
            // Some quiet SM is due right now (a wake below `now` is a
            // stale-early registration — always safe, the dispatch is a
            // no-op): again no skip is possible.
            if sm <= now {
                return Some(now);
            }
            return match (sm, self.mem_next_event(now)) {
                (NEVER, None) => None,
                (NEVER, Some(m)) => Some(m.max(now)),
                (t, None) => Some(t),
                (t, Some(m)) => Some(t.min(m)),
            };
        }
        let mut earliest = match self.mem_next_event(now) {
            Some(t) if t <= now => return Some(now),
            Some(t) => t,
            None => u64::MAX,
        };
        for sm in &self.sms {
            if let Some(t) = sm.next_event(now) {
                debug_assert!(t >= now, "component scheduled an event in the past");
                if t <= now {
                    return Some(now);
                }
                earliest = earliest.min(t);
            }
        }
        if earliest == u64::MAX {
            None
        } else {
            Some(earliest)
        }
    }

    /// [`GpuSystem::next_event_cycle`] restricted to the memory side
    /// (networks, L2, DRAM, retry queues).
    fn mem_next_event(&self, now: u64) -> Option<u64> {
        // DRAM retry queues are serviced (and count channel rejections)
        // every cycle they are non-empty: a hard barrier.
        if self.pending_dram_total > 0 {
            return Some(now);
        }
        let mut earliest = u64::MAX;
        let mut fold = |e: Option<u64>| -> bool {
            match e {
                Some(t) => {
                    debug_assert!(t >= now, "component scheduled an event in the past");
                    earliest = earliest.min(t);
                    t <= now
                }
                None => false,
            }
        };
        if fold(self.req_net.next_event(now)) || fold(self.rsp_net.next_event(now)) {
            return Some(now);
        }
        for b in &self.l2 {
            if fold(b.next_event(now)) {
                return Some(now);
            }
        }
        for c in &self.dram {
            if fold(c.next_event(now)) {
                return Some(now);
            }
        }
        if earliest == u64::MAX {
            None
        } else {
            Some(earliest)
        }
    }

    /// Fast-forwards the clock over `span` cycles in which no component
    /// has work, bulk-crediting every per-cycle statistic exactly as the
    /// ticked engine would have accrued it: interconnect cycle/queue-depth
    /// counters and per-SM stall classification. All other state is
    /// provably unchanged by a dead tick (see DESIGN.md, "Event-driven
    /// cycle skipping").
    fn advance_idle(&mut self, span: u64) {
        debug_assert!(span > 0, "empty skip");
        for sm in &mut self.sms {
            sm.advance_idle(span);
        }
        if let Some(sink) = &mut self.check {
            sink.event(CheckEvent::Skip {
                from: self.cycle,
                span,
            });
        }
        self.req_net.advance_idle(span);
        self.rsp_net.advance_idle(span);
        self.cycle += span;
        self.skipped_cycles += span;
    }

    /// The five engine phases, listed exactly once. The profiler's
    /// sampled path walks the same list with an `Instant` lap between
    /// entries; the unsampled path pays no timer reads.
    const PHASES: [fn(&mut GpuSystem, u64); 5] = [
        GpuSystem::phase_sms,
        GpuSystem::phase_inject,
        GpuSystem::phase_l2,
        GpuSystem::phase_dram,
        GpuSystem::phase_respond,
    ];

    fn tick(&mut self) {
        let now = self.cycle;
        // Every ticked cycle offers one dispatch per component; the
        // phases below count what they actually dispatch.
        self.component_opportunities += self.wheel.len() as u64;
        // 1 in SAMPLE_PERIOD ticks is phase-timed; the rest take the plain
        // path (no Instant reads). With the profiler off this is one
        // branch.
        let sample = match &mut self.profiler {
            Some(p) => p.note_tick(),
            None => false,
        };
        if sample {
            let mut ns = [0u64; 5];
            let mut mark = Instant::now();
            for (phase, slot) in Self::PHASES.iter().zip(ns.iter_mut()) {
                phase(self, now);
                let t = Instant::now();
                *slot += t.duration_since(mark).as_nanos() as u64;
                mark = t;
            }
            if let Some(p) = &mut self.profiler {
                p.add_phase_sample(ns);
            }
        } else {
            for phase in Self::PHASES {
                phase(self, now);
            }
        }
        // The sink needs simultaneous access to itself (mut) and the
        // system (shared): temporarily lift it out of the struct.
        if let Some(mut sink) = self.check.take() {
            sink.cycle_end(self, now);
            self.check = Some(sink);
        }
        self.cycle += 1;
    }

    /// Phase 1: SMs — L1 pipelines, wake-ups, issue (the coalesce trace
    /// point lives inside the SM's issue stage). With active-set
    /// scheduling on, an SM whose registered wake lies in the future is
    /// credited one idle/stall cycle instead of being ticked — a dead
    /// tick classifies the cycle identically (pinned by
    /// `sm::tests::advance_idle_matches_ticked_classification`), so the
    /// stats are bitwise the same either way.
    fn phase_sms(&mut self, now: u64) {
        for (si, sm) in self.sms.iter_mut().enumerate() {
            if self.active && !self.hot[si] && !self.wheel.due(si, now) {
                sm.advance_idle(1);
                continue;
            }
            self.component_ticks += 1;
            let tracer = self.tracer.as_deref_mut().map(|t| (t, narrow(si)));
            sm.tick_traced(now, tracer);
        }
    }

    /// Phases 2–3: collect new L1 → L2 requests into the request network
    /// and deliver due request packets to their L2 slices. Only
    /// response-expecting reads need a trace slot; write-throughs carry
    /// the NO_SLOT sentinel and are never looked up again.
    fn phase_inject(&mut self, now: u64) {
        for si in 0..self.sms.len() {
            if self.active {
                // An SM that was not due this cycle was not ticked in
                // phase 1 and cannot hold fresh outgoing requests (they
                // are drained the same cycle they are produced).
                if !self.hot[si] && !self.wheel.due(si, now) {
                    continue;
                }
            }
            self.outgoing_buf.clear();
            self.sms[si].drain_outgoing(&mut self.outgoing_buf);
            for i in 0..self.outgoing_buf.len() {
                let req = self.outgoing_buf[i];
                self.inject_req(si, req, now);
            }
            if self.active {
                // Hot↔quiet transition bookkeeping, *after* the drain (an
                // undrained request pins `next_event` to the present). A
                // non-bubble tick means the SM acted and may act again
                // next cycle: it is (or stays) hot, costing nothing per
                // cycle in steady state. A bubble tick sends it quiet
                // with its exact horizon — the O(warps) `next_event`
                // scan is paid only on that transition cycle, where it
                // buys a multi-cycle gap in dispatching.
                if self.sms[si].ticked_bubble() {
                    if self.hot[si] {
                        self.hot[si] = false;
                        self.hot_count -= 1;
                    }
                    let wake = self.sms[si].next_event(now + 1).unwrap_or(NEVER);
                    self.wheel.set(si, wake);
                } else if !self.hot[si] {
                    self.hot[si] = true;
                    self.hot_count += 1;
                    self.wheel.set(si, NEVER);
                }
            }
        }
        // The request network is due when a packet was pushed this cycle
        // (always delivered to it before this point) or a queued head
        // matures; `next_event` folds both, so the test is exact.
        if !self.active || self.req_net.next_event(now).is_some_and(|t| t <= now) {
            self.component_ticks += 1;
            self.deliver_requests(now);
        } else {
            self.req_net.advance_idle(1);
        }
    }

    /// Admits one L1 → L2 request from SM `si` into the request network:
    /// allocates the trace slot (response-expecting reads only), emits the
    /// trace/check events and pushes the packet.
    fn inject_req(&mut self, si: usize, req: OutgoingReq, now: u64) {
        let bank = self.cfg.l2_bank_of(req.line.0);
        let gid = if req.kind.expects_response() {
            self.traces.insert(Trace {
                sm: si,
                l1_id: req.id,
                t_inject: now,
                t_l2_in: now,
                t_l2_out: now,
            })
        } else {
            NO_SLOT
        };
        if let Some(ring) = &mut self.tracer {
            ring.record(TraceEvent {
                t: now,
                dur: 0,
                line: req.line.0,
                kind: if req.kind.expects_response() {
                    TraceKind::IcntInject
                } else {
                    TraceKind::WriteThrough
                },
                track: narrow(si),
                aux: narrow(bank),
            });
        }
        if let Some(sink) = &mut self.check {
            sink.event(CheckEvent::Outgoing {
                sm: si,
                gid,
                line: req.line.0,
                kind: req.kind,
                at: now,
            });
        }
        self.req_net.push(Packet {
            gid,
            sm: si,
            bank,
            line: req.line,
            kind: req.kind,
            flits: Packet::request_flits(req.kind),
        });
    }

    /// Delivers request packets due at `now` to their L2 slices (the back
    /// half of the inject phase).
    fn deliver_requests(&mut self, now: u64) {
        let mut deliver = std::mem::take(&mut self.deliver_buf);
        deliver.clear();
        self.req_net.tick_into(now, &mut deliver);
        for p in deliver.drain(..) {
            if let Some(tr) = self.traces.get_mut(p.gid) {
                tr.t_l2_in = now;
            }
            if let Some(sink) = &mut self.check {
                sink.event(CheckEvent::ReqDeliver {
                    gid: p.gid,
                    sm: p.sm,
                    bank: p.bank,
                    line: p.line.0,
                    kind: p.kind,
                    at: now,
                });
            }
            self.l2[p.bank].enqueue(p, now);
        }
        self.deliver_buf = deliver;
    }

    /// Phase 4: L2 service. A slice with an empty input queue has nothing
    /// to do this cycle and is skipped; the active-set engine skips
    /// harder — a queued head that has not matured is also a no-op tick
    /// (the slice early-returns without touching a statistic), so the
    /// direct `next_event` test is exact. It must be direct rather than
    /// wheel-cached because `deliver_requests` ran earlier *this same
    /// cycle* and can make a slice due immediately when `l2_latency` is
    /// zero.
    fn phase_l2(&mut self, now: u64) {
        let mut out = std::mem::take(&mut self.l2_out);
        out.clear();
        for bi in 0..self.l2.len() {
            let due = if self.active {
                self.l2[bi].next_event(now).is_some_and(|t| t <= now)
            } else {
                self.l2[bi].queued_packets() != 0
            };
            if !due {
                continue;
            }
            self.component_ticks += 1;
            self.l2[bi].tick(now, &mut out);
            self.handle_l2_output(bi, &mut out, now);
        }
        self.l2_out = out;
    }

    /// Phases 5–6: retry deferred DRAM pushes (per channel, so one full
    /// channel cannot head-of-line block traffic destined for channels
    /// with room), collect completions (skipping drained channels), then
    /// apply the fills. Writes carry NO_SLOT and complete silently.
    fn phase_dram(&mut self, now: u64) {
        for ch in 0..self.dram.len() {
            while let Some(&req) = self.pending_dram[ch].front() {
                if self.dram[ch].try_push(req) {
                    self.pending_dram[ch].pop_front();
                    self.pending_dram_total -= 1;
                } else {
                    break;
                }
            }
        }

        self.fill_buf.clear();
        let mut dram_done = std::mem::take(&mut self.dram_done_buf);
        for ci in 0..self.dram.len() {
            // Both engines gate a channel on its O(1) occupancy counter —
            // ticking a channel whose banks are all mid-service is a
            // no-op (statistics accrue only on actual service and
            // rejected pushes), and computing the channel's exact
            // `next_event` here costs more per cycle (an O(window) queue
            // scan) than the dead ticks it would avoid.
            if self.dram[ci].occupancy() == 0 {
                continue;
            }
            self.component_ticks += 1;
            dram_done.clear();
            self.dram[ci].tick_into(now, &mut dram_done);
            for done in &dram_done {
                if let Some((bank, line, queued)) = self.dram_reads.remove(done.id) {
                    if let Some(ring) = &mut self.tracer {
                        ring.record(TraceEvent {
                            t: queued,
                            dur: now.saturating_sub(queued),
                            line: line.0,
                            kind: TraceKind::SpanDram,
                            track: narrow(ci),
                            aux: narrow(bank),
                        });
                    }
                    if let Some(sink) = &mut self.check {
                        sink.event(CheckEvent::DramFill {
                            channel: ci,
                            bank,
                            line: line.0,
                            queued_at: queued,
                            finished_at: done.finished_at,
                            row_hit: done.row_hit,
                            at: now,
                        });
                    }
                    self.fill_buf.push((bank, line));
                }
            }
        }
        self.dram_done_buf = dram_done;
        let mut out = std::mem::take(&mut self.l2_out);
        for i in 0..self.fill_buf.len() {
            let (bank, line) = self.fill_buf[i];
            self.l2[bank].dram_fill(line, &mut out);
            self.handle_l2_output(bank, &mut out, now);
        }
        self.l2_out = out;
    }

    /// Phase 7: deliver responses back to the L1s. The round trip's three
    /// spans (request network, L2+DRAM, response network) are traced here
    /// because this is the only place the full timeline is in hand.
    fn phase_respond(&mut self, now: u64) {
        // Direct due test for the same reason as phase 4: responses were
        // pushed into the network earlier this cycle (phases 4–6), so a
        // wheel entry registered last cycle could be stale-late.
        if self.active && self.rsp_net.next_event(now).is_none_or(|t| t > now) {
            self.rsp_net.advance_idle(1);
            return;
        }
        self.component_ticks += 1;
        let mut deliver = std::mem::take(&mut self.deliver_buf);
        self.rsp_net.tick_into(now, &mut deliver);
        for p in deliver.drain(..) {
            let tr = self.traces.remove(p.gid).expect("response without a trace");
            self.net_residency +=
                tr.t_l2_in.saturating_sub(tr.t_inject) + now.saturating_sub(tr.t_l2_out);
            self.mem_residency += tr.t_l2_out.saturating_sub(tr.t_l2_in);
            self.completed_reads += 1;
            if let Some(ring) = &mut self.tracer {
                let gid = narrow(p.gid);
                ring.record(TraceEvent {
                    t: tr.t_inject,
                    dur: tr.t_l2_in.saturating_sub(tr.t_inject),
                    line: p.line.0,
                    kind: TraceKind::SpanNetReq,
                    track: narrow(tr.sm),
                    aux: gid,
                });
                ring.record(TraceEvent {
                    t: tr.t_l2_in,
                    dur: tr.t_l2_out.saturating_sub(tr.t_l2_in),
                    line: p.line.0,
                    kind: TraceKind::SpanL2Dram,
                    track: narrow(p.bank),
                    aux: gid,
                });
                ring.record(TraceEvent {
                    t: tr.t_l2_out,
                    dur: now.saturating_sub(tr.t_l2_out),
                    line: p.line.0,
                    kind: TraceKind::SpanNetRsp,
                    track: narrow(tr.sm),
                    aux: gid,
                });
            }
            if let Some(sink) = &mut self.check {
                sink.event(CheckEvent::Respond {
                    gid: p.gid,
                    sm: tr.sm,
                    line: p.line.0,
                    at: now,
                });
            }
            self.sms[tr.sm].push_response(
                now,
                L1Response {
                    id: tr.l1_id,
                    line: p.line,
                },
            );
            if self.active && !self.hot[tr.sm] {
                // A delivered fill wakes the warp: the SM has work next
                // cycle no matter what its earlier registration said.
                self.hot[tr.sm] = true;
                self.hot_count += 1;
                self.wheel.set(tr.sm, NEVER);
            }
        }
        self.deliver_buf = deliver;
    }

    /// Drains `out` into the response network and the DRAM queues,
    /// leaving it empty (and its capacity intact) for the next caller.
    fn handle_l2_output(&mut self, bank: usize, out: &mut L2Output, now: u64) {
        for p in out.responses.drain(..) {
            if let Some(tr) = self.traces.get_mut(p.gid) {
                tr.t_l2_out = now;
            }
            if let Some(sink) = &mut self.check {
                sink.event(CheckEvent::L2Response {
                    gid: p.gid,
                    bank,
                    line: p.line.0,
                    at: now,
                });
            }
            self.rsp_net.push(Packet {
                flits: Packet::RESPONSE_FLITS,
                ..p
            });
        }
        for i in 0..out.dram_reads.len() {
            let line = out.dram_reads[i];
            self.queue_dram(bank, line, true, now);
        }
        out.dram_reads.clear();
        for i in 0..out.dram_writes.len() {
            let line = out.dram_writes[i];
            self.queue_dram(bank, line, false, now);
        }
        out.dram_writes.clear();
    }

    fn queue_dram(&mut self, bank: usize, line: LineAddr, is_read: bool, now: u64) {
        let channel = self.cfg.dram_channel_of_bank(bank);
        // Reads need their (bank, line) back at fill time: the slab slot
        // rides along as the request id. Writes complete silently.
        let id = if is_read {
            self.dram_reads.insert((bank, line, now))
        } else {
            NO_SLOT
        };
        if let Some(ring) = &mut self.tracer {
            ring.record(TraceEvent {
                t: now,
                dur: 0,
                line: line.0,
                kind: if is_read {
                    TraceKind::DramRead
                } else {
                    TraceKind::DramWrite
                },
                track: narrow(channel),
                aux: narrow(bank),
            });
        }
        if let Some(sink) = &mut self.check {
            sink.event(CheckEvent::DramQueued {
                channel,
                bank,
                line: line.0,
                is_read,
                at: now,
            });
        }
        // Channel-local address keeps row-buffer locality for streams.
        let request = DramRequest {
            id,
            line: line.0 / self.cfg.l2_banks as u64,
            is_write: !is_read,
            arrival: now,
        };
        // FIFO per channel: if this channel already has deferred pushes,
        // queue behind them rather than jumping ahead.
        if !self.pending_dram[channel].is_empty() || !self.dram[channel].try_push(request) {
            self.pending_dram[channel].push_back(request);
            self.pending_dram_total += 1;
        }
    }

    /// Abandons every in-flight request and returns all pooled scratch
    /// (MSHR target lists, L2 waiter-chain nodes, trace and DRAM-read
    /// slots) to its home pool. For harness reuse after a capped run ends
    /// with misses still in flight; statistics already accrued are kept.
    pub fn reset_in_flight(&mut self) {
        for sm in &mut self.sms {
            sm.reset_in_flight();
        }
        for b in &mut self.l2 {
            b.reset_in_flight();
        }
        self.req_net.reset_in_flight();
        self.rsp_net.reset_in_flight();
        self.traces.clear();
        self.dram_reads.clear();
        for q in &mut self.pending_dram {
            q.clear();
        }
        self.pending_dram_total = 0;
        for c in &mut self.dram {
            c.reset_in_flight();
        }
        #[cfg(debug_assertions)]
        self.assert_quiescent_pools();
    }

    /// Debug-only pool accounting: at rest, every pooled buffer must be
    /// home. A failure here means a recycle path leaked (e.g. an MSHR
    /// target Vec dropped instead of returned to the spare pool).
    #[cfg(debug_assertions)]
    fn assert_quiescent_pools(&self) {
        assert!(
            self.traces.is_empty(),
            "trace slab still holds {} in-flight reads at rest",
            self.traces.len()
        );
        assert!(
            self.dram_reads.is_empty(),
            "dram-read slab still holds {} entries at rest",
            self.dram_reads.len()
        );
        assert_eq!(self.pending_dram_total, 0, "deferred DRAM pushes at rest");
        for (bi, b) in self.l2.iter().enumerate() {
            assert_eq!(
                b.waiter_nodes_live(),
                0,
                "L2 bank {bi} leaked waiter-chain nodes"
            );
        }
        for (si, sm) in self.sms.iter().enumerate() {
            assert_eq!(
                sm.outstanding_misses(),
                0,
                "SM {si} L1 still holds live MSHR entries at rest"
            );
        }
    }

    /// Assembles the run statistics so far.
    pub fn stats(&self) -> SimStats {
        let mut l1 = CacheStats::default();
        let mut sm = SmStats::default();
        let mut energy = EnergyCounters::default();
        for s in &self.sms {
            l1.merge(&s.l1().stats());
            energy.merge(&s.l1().energy());
            let st = s.stats();
            sm.instructions += st.instructions;
            sm.issue_cycles += st.issue_cycles;
            sm.mem_stall_cycles += st.mem_stall_cycles;
            sm.reservation_stall_cycles += st.reservation_stall_cycles;
            sm.idle_cycles += st.idle_cycles;
        }
        let mut l2 = CacheStats::default();
        let mut l2_accesses = 0;
        for b in &self.l2 {
            l2.merge(&b.stats());
            l2_accesses += b.accesses();
        }
        let mut dram_accesses = 0;
        let mut dram_row_hits = 0;
        for c in &self.dram {
            let s = c.stats();
            dram_accesses += s.accesses;
            dram_row_hits += s.row_hits;
        }
        energy.l2_accesses = l2_accesses;
        energy.dram_accesses = dram_accesses;
        energy.net_flits = self.req_net.stats().flits + self.rsp_net.stats().flits;
        energy.warp_instructions = sm.instructions;

        SimStats {
            cycles: self.cycle,
            instructions: sm.instructions,
            l1,
            l2,
            sm,
            outgoing_requests: self.req_net.stats().packets,
            req_net: self.req_net.stats(),
            rsp_net: self.rsp_net.stats(),
            dram_accesses,
            dram_row_hits,
            energy,
            net_residency: self.net_residency,
            mem_residency: self.mem_residency,
            completed_reads: self.completed_reads,
            num_sms: narrow(self.cfg.num_sms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l1d::IdealL1;
    use crate::warp::{MemOp, StreamProgram, WarpOp};

    fn small_cfg() -> GpuConfig {
        GpuConfig {
            num_sms: 2,
            warps_per_sm: 4,
            ..GpuConfig::gtx480()
        }
    }

    fn streaming_program(sm: usize, warp: u16, ops: usize) -> Box<dyn WarpProgram> {
        let base = (sm as u64 * 64 + warp as u64) << 20; // line-aligned
        let v: Vec<WarpOp> = (0..ops)
            .map(|i| WarpOp::Mem(MemOp::strided(0x20, false, base + i as u64 * 128, 4, 32)))
            .collect();
        Box::new(StreamProgram::new(v))
    }

    #[test]
    fn runs_to_completion_and_counts() {
        let mut sys = GpuSystem::new(
            small_cfg(),
            |_| Box::new(IdealL1::new()),
            |s, w| streaming_program(s, w, 10),
        );
        let stats = sys.run(1_000_000);
        assert!(sys.is_done(), "system must drain");
        assert_eq!(stats.instructions, 2 * 4 * 10);
        // Every line is cold in an ideal L1 with distinct bases.
        assert_eq!(stats.l1.misses, 80);
        assert_eq!(stats.outgoing_requests, 80);
        assert_eq!(stats.dram_accesses, 80, "all L2 cold misses reach DRAM");
        assert!(stats.ipc() > 0.0);
        assert!(stats.cycles > 100, "off-chip latency must be visible");
    }

    #[test]
    fn off_chip_residency_is_recorded() {
        let mut sys = GpuSystem::new(
            small_cfg(),
            |_| Box::new(IdealL1::new()),
            |s, w| streaming_program(s, w, 4),
        );
        let stats = sys.run(1_000_000);
        assert_eq!(stats.completed_reads, 32);
        // One-way icnt latency is 40: round trip at least 80.
        assert!(
            stats.avg_net_cycles() >= 80.0,
            "net {}",
            stats.avg_net_cycles()
        );
        assert!(
            stats.avg_mem_cycles() >= 30.0,
            "mem {}",
            stats.avg_mem_cycles()
        );
        let (net, dram) = stats.offchip_decomposition();
        assert!(net > 0.0 && dram > 0.0);
    }

    #[test]
    fn reuse_hits_in_l1_after_warmup() {
        // All warps read the same small array twice.
        let mk = |_s: usize, _w: u16| {
            let v: Vec<WarpOp> = (0..8)
                .chain(0..8)
                .map(|i| WarpOp::Mem(MemOp::strided(0x40, false, i as u64 * 128, 4, 32)))
                .collect();
            Box::new(StreamProgram::new(v)) as Box<dyn WarpProgram>
        };
        let mut sys = GpuSystem::new(small_cfg(), |_| Box::new(IdealL1::new()), mk);
        let stats = sys.run(1_000_000);
        assert!(stats.l1.hits > 0, "second pass must hit");
        // 8 distinct lines per SM; everything else merges or hits.
        assert_eq!(stats.l1.misses, 16);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 6),
            );
            sys.run(1_000_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn full_channel_does_not_block_other_channels() {
        // A 1-deep channel queue makes the second push to channel 0 defer;
        // a push to channel 1 must still land immediately. The old single
        // global retry queue would have deferred it behind channel 0's.
        let cfg = GpuConfig {
            num_sms: 1,
            warps_per_sm: 1,
            dram: fuse_mem::dram::DramTiming {
                queue_capacity: 1,
                ..GpuConfig::gtx480().dram
            },
            ..GpuConfig::gtx480()
        };
        let banks_per_channel = cfg.l2_banks / cfg.dram_channels;
        let mut sys = GpuSystem::new(
            cfg,
            |_| Box::new(IdealL1::new()),
            |_, _| Box::new(StreamProgram::new(Vec::new())) as Box<dyn WarpProgram>,
        );
        // Writes carry NO_SLOT: no trace or slab bookkeeping to satisfy.
        sys.queue_dram(0, LineAddr(0), false, 0);
        sys.queue_dram(0, LineAddr(1), false, 0);
        sys.queue_dram(banks_per_channel, LineAddr(2), false, 0);
        assert_eq!(sys.dram[0].occupancy(), 1, "channel 0 accepts one");
        assert_eq!(
            sys.dram[1].occupancy(),
            1,
            "channel 1 must not wait behind channel 0's deferred push"
        );
        assert_eq!(sys.pending_dram_total, 1);
        for _ in 0..10_000 {
            sys.tick();
            if sys.is_done() {
                break;
            }
        }
        assert!(sys.is_done(), "deferred pushes must drain");
        let total: u64 = sys.dram.iter().map(|c| c.stats().accesses).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn cycle_skipping_preserves_stats_bitwise() {
        let run = |skip: bool| {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 10),
            );
            sys.set_cycle_skipping(skip);
            let stats = sys.run(1_000_000);
            (stats, sys.skipped_cycles())
        };
        let (fast, skipped) = run(true);
        let (slow, none) = run(false);
        assert_eq!(fast, slow, "skip engine must be observationally exact");
        assert_eq!(none, 0);
        assert!(
            skipped > 0,
            "a memory-latency-bound run must have dead cycles to skip"
        );
    }

    #[test]
    fn active_set_preserves_stats_bitwise() {
        // All four engine corners (active-set × cycle-skip) must agree
        // bitwise; the active-set corners must actually elide dispatches.
        let run = |active: bool, skip: bool| {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 10),
            );
            sys.set_active_set(active);
            sys.set_cycle_skipping(skip);
            let stats = sys.run(1_000_000);
            (stats, sys.component_ticks(), sys.component_opportunities())
        };
        let (base, full_ticks, _) = run(false, false);
        for (active, skip) in [(true, true), (true, false), (false, true)] {
            let (stats, ticks, opps) = run(active, skip);
            assert_eq!(stats, base, "active={active} skip={skip}");
            if active {
                assert!(
                    ticks < full_ticks,
                    "active={active} skip={skip}: dispatched {ticks}, \
                     always-tick dispatched {full_ticks}"
                );
                assert!(ticks <= opps);
            }
        }
    }

    #[test]
    fn active_set_wakes_stay_conservative_under_stepping() {
        // Drive the engine cycle by cycle through the public debug hook
        // and audit the wake registry between every pair of ticks: no
        // registered wake may sit later than the component's live
        // `next_event` answer (a late wake is a lost event).
        let mut sys = GpuSystem::new(
            small_cfg(),
            |_| Box::new(IdealL1::new()),
            |s, w| streaming_program(s, w, 6),
        );
        for cycle in 0..5_000 {
            sys.debug_step();
            sys.debug_audit_wakes()
                .unwrap_or_else(|e| panic!("after cycle {cycle}: {e}"));
            if sys.is_done() {
                return;
            }
        }
        panic!("workload did not drain in 5k stepped cycles");
    }

    #[test]
    fn cycle_skipping_matches_on_l1_reuse() {
        let mk = |_s: usize, _w: u16| {
            let v: Vec<WarpOp> = (0..8)
                .chain(0..8)
                .map(|i| WarpOp::Mem(MemOp::strided(0x40, false, i as u64 * 128, 4, 32)))
                .collect();
            Box::new(StreamProgram::new(v)) as Box<dyn WarpProgram>
        };
        let run = |skip: bool| {
            let mut sys = GpuSystem::new(small_cfg(), |_| Box::new(IdealL1::new()), mk);
            sys.set_cycle_skipping(skip);
            sys.run(1_000_000)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn cycle_skipping_respects_the_cycle_cap() {
        // An infinite-latency stand-in: warps that never finish issuing.
        let run = |skip: bool| {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 100),
            );
            sys.set_cycle_skipping(skip);
            sys.run(500)
        };
        let fast = run(true);
        let slow = run(false);
        assert_eq!(fast, slow);
        assert_eq!(fast.cycles, 500, "cap must bound the skip target");
    }

    #[test]
    fn profiling_leaves_stats_bitwise_identical_on_both_engines() {
        let run = |skip: bool, window: Option<u64>| {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 10),
            );
            sys.set_cycle_skipping(skip);
            if let Some(win) = window {
                sys.enable_profiler(win);
            }
            let stats = sys.run(1_000_000);
            (stats, sys.take_profile())
        };
        let (plain, none) = run(true, None);
        assert!(none.is_none());
        let (skip_prof, skip_report) = run(true, Some(128));
        let (tick_prof, tick_report) = run(false, Some(128));
        assert_eq!(plain, skip_prof, "profiling must not perturb SimStats");
        assert_eq!(plain, tick_prof);
        let (sr, tr) = (skip_report.unwrap(), tick_report.unwrap());
        assert_eq!(
            sr.series, tr.series,
            "windowed series must be engine-independent"
        );
        let covered: u64 = sr.series.samples.iter().map(|w| w.len).sum();
        assert_eq!(covered, plain.cycles, "windows must tile the whole run");
        let issue: u64 = sr
            .series
            .samples
            .iter()
            .map(|w| w.counters.issue_cycles)
            .sum();
        assert_eq!(issue, plain.sm.issue_cycles, "deltas must sum to the total");
    }

    #[test]
    fn profiler_windows_tile_exactly_at_every_alignment() {
        // Boundary-clamp audit: degenerate windows (1), sampling-period
        // multiples (64), and windows larger than the whole run must all
        // tile [0, cycles) with no zero-length, oversized, or overlapping
        // window — on both engines, where skip targets are clamped to
        // window boundaries.
        for window in [1u64, 64, 4096, 1 << 20] {
            for skip in [true, false] {
                let mut sys = GpuSystem::new(
                    small_cfg(),
                    |_| Box::new(IdealL1::new()),
                    |s, w| streaming_program(s, w, 10),
                );
                sys.set_cycle_skipping(skip);
                sys.enable_profiler(window);
                let stats = sys.run(1_000_000);
                let report = sys.take_profile().expect("profiler was on");
                let samples = &report.series.samples;
                let covered: u64 = samples.iter().map(|s| s.len).sum();
                assert_eq!(covered, stats.cycles, "window={window} skip={skip}");
                let expected = stats.cycles.div_ceil(window);
                assert_eq!(
                    samples.len() as u64,
                    expected,
                    "window={window} skip={skip}: wrong window count"
                );
                let mut start = 0;
                for (i, s) in samples.iter().enumerate() {
                    assert_eq!(s.start, start, "window {i} misaligned");
                    assert!(s.len > 0, "window {i} is empty");
                    assert!(s.len <= window, "window {i} overflows");
                    let is_last = i + 1 == samples.len();
                    assert!(
                        is_last || s.len == window,
                        "only the final window may be partial"
                    );
                    start += s.len;
                }
            }
        }
    }

    #[test]
    fn run_length_landing_exactly_on_a_boundary_yields_one_window() {
        // The sharpest boundary edge: the run draining exactly at a window
        // boundary. window == cycles must produce exactly one full window
        // (not a full one plus an empty one); window == cycles - 1 must
        // produce a full window and a 1-cycle partial; window == cycles + 1
        // one partial window. Both engines must agree on the series.
        let total = {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 10),
            );
            sys.run(1_000_000).cycles
        };
        assert!(total > 2, "run long enough to probe boundaries");
        let run = |window: u64, skip: bool| {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 10),
            );
            sys.set_cycle_skipping(skip);
            sys.enable_profiler(window);
            let stats = sys.run(1_000_000);
            assert_eq!(stats.cycles, total, "profiler must not change the run");
            sys.take_profile().expect("profiler was on")
        };
        for skip in [true, false] {
            let exact = run(total, skip);
            let lens: Vec<u64> = exact.series.samples.iter().map(|s| s.len).collect();
            assert_eq!(lens, vec![total], "skip={skip}: exactly one full window");

            let minus = run(total - 1, skip);
            let lens: Vec<u64> = minus.series.samples.iter().map(|s| s.len).collect();
            assert_eq!(lens, vec![total - 1, 1], "skip={skip}");

            let plus = run(total + 1, skip);
            let lens: Vec<u64> = plus.series.samples.iter().map(|s| s.len).collect();
            assert_eq!(lens, vec![total], "skip={skip}: one partial window");
        }
        // And the windowed series itself is engine-independent at the
        // exact-boundary alignment.
        assert_eq!(run(total, true).series, run(total, false).series);
    }

    #[test]
    fn capped_run_with_boundary_aligned_cap_closes_windows_once() {
        // Cap the run mid-flight with the cap sitting exactly on a window
        // boundary: the profiler must report cap/window full windows, no
        // trailing empty one, on both engines.
        for skip in [true, false] {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 100),
            );
            sys.set_cycle_skipping(skip);
            sys.enable_profiler(100);
            let stats = sys.run(500);
            assert_eq!(stats.cycles, 500);
            let report = sys.take_profile().expect("profiler was on");
            let lens: Vec<u64> = report.series.samples.iter().map(|s| s.len).collect();
            assert_eq!(lens, vec![100; 5], "skip={skip}");
        }
    }

    #[test]
    fn tracer_records_the_full_read_path_and_exports_valid_json() {
        let mut sys = GpuSystem::new(
            small_cfg(),
            |_| Box::new(IdealL1::new()),
            |s, w| streaming_program(s, w, 4),
        );
        sys.enable_tracer(4096);
        let stats = sys.run(1_000_000);
        let ring = sys.take_trace().expect("tracer was enabled");
        assert_eq!(ring.dropped(), 0, "4096 slots must hold this small run");
        use fuse_obs::trace::TraceKind as K;
        let count = |k: K| ring.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(K::SpanNetReq), stats.completed_reads);
        assert_eq!(count(K::SpanL2Dram), stats.completed_reads);
        assert_eq!(count(K::SpanNetRsp), stats.completed_reads);
        assert_eq!(count(K::SpanDram), stats.dram_accesses);
        assert!(count(K::Coalesce) > 0, "issue-stage trace point must fire");
        let js = ring.chrome_trace_json();
        fuse_obs::json::validate(&js).expect("chrome trace must be valid JSON");
    }

    #[test]
    fn tracing_does_not_perturb_stats() {
        let run = |trace: bool| {
            let mut sys = GpuSystem::new(
                small_cfg(),
                |_| Box::new(IdealL1::new()),
                |s, w| streaming_program(s, w, 10),
            );
            if trace {
                sys.enable_tracer(64);
            }
            sys.run(1_000_000)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn reset_in_flight_drains_a_capped_run_to_quiescence() {
        let mut sys = GpuSystem::new(
            small_cfg(),
            |_| Box::new(IdealL1::new()),
            |s, w| streaming_program(s, w, 50),
        );
        // Cap the run mid-flight: requests are stranded in every layer.
        let stats = sys.run(300);
        assert_eq!(stats.cycles, 300);
        assert!(!sys.is_done(), "cap must strand in-flight work");
        sys.reset_in_flight();
        assert!(
            sys.traces.is_empty() && sys.dram_reads.is_empty(),
            "slabs must come back empty"
        );
        assert!(sys.req_net.is_idle() && sys.rsp_net.is_idle());
        assert!(sys.l2.iter().all(|b| b.is_idle()));
        assert!(sys.dram.iter().all(|c| c.occupancy() == 0));
    }

    #[test]
    fn stores_generate_writeback_traffic_to_l2() {
        let mk = |_s: usize, _w: u16| {
            let v: Vec<WarpOp> = (0..4)
                .map(|i| WarpOp::Mem(MemOp::strided(0x40, true, i as u64 * 128, 4, 32)))
                .collect();
            Box::new(StreamProgram::new(v)) as Box<dyn WarpProgram>
        };
        let cfg = GpuConfig {
            num_sms: 1,
            warps_per_sm: 1,
            ..GpuConfig::gtx480()
        };
        let mut sys = GpuSystem::new(cfg, |_| Box::new(IdealL1::new()), mk);
        let stats = sys.run(1_000_000);
        assert!(sys.is_done());
        // Write-allocate: store misses fetch their lines.
        assert_eq!(stats.l1.misses, 4);
    }
}
