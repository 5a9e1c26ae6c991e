//! GDDR5-like DRAM channel timing model.
//!
//! The paper configures GPGPU-Sim with 6 DRAM channels and
//! `tCL/tRCD/tRAS = 12/12/28` (Table I). We model each channel as a set of
//! banks with open-row state, a bounded request queue scheduled
//! FR-FCFS-lite (row hits first within a window, then oldest), and a shared
//! data bus occupied for the burst duration of each access.
//!
//! All DRAM timing parameters are expressed in DRAM-clock cycles and scaled
//! to SM cycles by `clock_ratio` (GPU DRAM runs its wide interface at a low
//! frequency — §II-A2 of the paper).

use std::collections::VecDeque;

/// DRAM timing parameters (DRAM-clock cycles) and geometry.
///
/// # Examples
///
/// ```
/// use fuse_mem::dram::DramTiming;
/// let t = DramTiming::default();
/// assert_eq!(t.t_cl, 12);
/// assert_eq!(t.t_rcd, 12);
/// assert_eq!(t.t_ras, 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency.
    pub t_cl: u32,
    /// RAS-to-CAS delay.
    pub t_rcd: u32,
    /// Row-active time (minimum activate-to-precharge).
    pub t_ras: u32,
    /// Row precharge time.
    pub t_rp: u32,
    /// Data-bus cycles occupied by one 128 B burst.
    pub burst: u32,
    /// SM cycles per DRAM cycle (GPU DRAM interface is wide but slow).
    pub clock_ratio: u32,
    /// Banks per channel.
    pub banks: usize,
    /// Cache lines per DRAM row (2 KB row / 128 B line).
    pub lines_per_row: u64,
    /// FR-FCFS reordering window (entries inspected per scheduling step).
    pub window: usize,
    /// Maximum queued requests per channel.
    pub queue_capacity: usize,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            t_cl: 12,
            t_rcd: 12,
            t_ras: 28,
            t_rp: 12,
            burst: 4,
            clock_ratio: 2,
            banks: 8,
            lines_per_row: 16,
            window: 16,
            queue_capacity: 64,
        }
    }
}

impl DramTiming {
    /// Converts DRAM-clock cycles to SM cycles. Widens before multiplying
    /// so large configured timings cannot wrap `u32` silently.
    fn sm(&self, dram_cycles: u32) -> u64 {
        dram_cycles as u64 * self.clock_ratio as u64
    }

    /// SM cycles the shared data bus is held per access (the burst phase).
    /// No two accesses on one channel may finish closer together than this.
    pub fn burst_sm(&self) -> u64 {
        self.sm(self.burst)
    }

    /// Declarative legality rule: the minimum SM cycles between a request
    /// arriving at the channel and its data leaving the pins. A row hit
    /// pays at least `tCL + burst`; anything else pays at least
    /// `tRCD + tCL + burst` (a conflict additionally pays `tRP`, but a
    /// completion alone cannot distinguish conflict from cold miss, so
    /// this is the sound lower bound for every `row_hit = false` access).
    pub fn min_read_latency_sm(&self, row_hit: bool) -> u64 {
        if row_hit {
            self.sm(self.t_cl) + self.burst_sm()
        } else {
            self.sm(self.t_rcd) + self.sm(self.t_cl) + self.burst_sm()
        }
    }

    /// Declarative legality rule: minimum SM cycles between two
    /// consecutive completions on the *same bank* when the later one
    /// missed the open row (precharge + activate + CAS + burst). The
    /// earlier access left the bank busy until its own data cycle, so the
    /// conflicting follow-up cannot finish sooner than this after it.
    pub fn min_conflict_gap_sm(&self) -> u64 {
        self.sm(self.t_rp) + self.sm(self.t_rcd) + self.sm(self.t_cl) + self.burst_sm()
    }

    /// Declarative legality rule (tRAS): once an access opens a row, a
    /// later access that closes it cannot deliver data sooner than
    /// `tRAS + tRP + tRCD + tCL + burst` SM cycles after the *arrival* of
    /// the opener (the row must stay active `tRAS` before precharge).
    pub fn min_open_to_conflict_data_sm(&self) -> u64 {
        self.sm(self.t_ras) + self.min_conflict_gap_sm()
    }

    /// The bank a channel-local line address maps to (rows round-robin
    /// across banks). Exported so a checker can reconstruct bank state
    /// from the address stream alone.
    pub fn bank_of(&self, line: u64) -> usize {
        (self.row_of(line) as usize) % self.banks
    }

    /// The DRAM row a channel-local line address falls in.
    pub fn row_of(&self, line: u64) -> u64 {
        line / self.lines_per_row
    }
}

/// One request entering a DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Opaque id the caller uses to match completions.
    pub id: u64,
    /// Cache-line address (byte address >> line bits).
    pub line: u64,
    /// True for writes (writes complete at bus time; no response payload).
    pub is_write: bool,
}

/// A finished DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// The id of the completed [`DramRequest`].
    pub id: u64,
    /// SM cycle at which the data left the channel.
    pub finished_at: u64,
    /// Whether the access hit the open row.
    pub row_hit: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
    activated_at: u64,
}

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total accesses serviced.
    pub accesses: u64,
    /// Row-buffer hits among them.
    pub row_hits: u64,
}

/// One DRAM channel: bounded queue, banked row-buffer state, shared bus.
///
/// Drive it by calling [`DramChannel::try_push`] when requests arrive and
/// [`DramChannel::tick`] once per SM cycle; completions come back with the
/// SM cycle at which their data is valid.
///
/// # Examples
///
/// ```
/// use fuse_mem::dram::{DramChannel, DramRequest, DramTiming};
/// let mut ch = DramChannel::new(DramTiming::default());
/// assert!(ch.try_push(DramRequest { id: 1, line: 0, is_write: false }));
/// let mut done = Vec::new();
/// for now in 0..200 {
///     done.extend(ch.tick(now));
/// }
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].id, 1);
/// ```
#[derive(Debug)]
pub struct DramChannel {
    timing: DramTiming,
    banks: Vec<Bank>,
    queue: VecDeque<DramRequest>,
    in_service: Vec<DramCompletion>,
    bus_free_at: u64,
    stats: DramStats,
    /// Earliest SM cycle at which [`DramChannel::pick`] could succeed
    /// given the current queue and bank state; the scheduler scan is
    /// skipped before then. Reset to 0 ("unknown") whenever the queue or
    /// bank state changes, so the bound is always conservative.
    sched_ready_at: u64,
}

impl DramChannel {
    /// Creates an idle channel.
    pub fn new(timing: DramTiming) -> Self {
        DramChannel {
            banks: vec![Bank::default(); timing.banks],
            timing,
            queue: VecDeque::new(),
            in_service: Vec::new(),
            bus_free_at: 0,
            stats: DramStats::default(),
            sched_ready_at: 0,
        }
    }

    /// Enqueues a request; returns `false` if the channel queue is full,
    /// in which case the caller must retry later.
    pub fn try_push(&mut self, req: DramRequest) -> bool {
        if self.queue.len() >= self.timing.queue_capacity {
            return false;
        }
        self.queue.push_back(req);
        self.sched_ready_at = 0; // the new entry may be schedulable at once
        true
    }

    /// Number of requests waiting or in flight.
    pub fn occupancy(&self) -> usize {
        self.queue.len() + self.in_service.len()
    }

    /// Earliest SM cycle at or after `now` whose tick would do work:
    /// finish an in-service access, or schedule a queued one. The
    /// FR-FCFS-lite scheduler starts a request the first cycle some
    /// windowed entry's bank is ready (`ready_at <= now`), so the earliest
    /// schedule time is the minimum `ready_at` over the reorder window;
    /// bank state only changes when an access is scheduled, i.e. at an
    /// event, so the bound stays exact across the skipped span. `None`
    /// when the channel is empty.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut earliest: Option<u64> = None;
        let mut fold = |t: u64| {
            let t = t.max(now);
            earliest = Some(earliest.map_or(t, |c| c.min(t)));
        };
        for c in &self.in_service {
            fold(c.finished_at);
        }
        let window = self.timing.window.min(self.queue.len());
        for req in self.queue.iter().take(window) {
            let (bank, _) = self.bank_and_row(req.line);
            fold(self.banks[bank].ready_at);
        }
        earliest
    }

    /// Channel statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The timing parameters this channel services requests under
    /// (checker introspection: the legality lower bounds derive from
    /// these).
    pub fn timing(&self) -> &DramTiming {
        &self.timing
    }

    fn bank_and_row(&self, line: u64) -> (usize, u64) {
        (self.timing.bank_of(line), self.timing.row_of(line))
    }

    /// Advances the channel to SM cycle `now`, scheduling at most one new
    /// access, and returns every access whose data completed at or before
    /// `now`.
    ///
    /// Convenience wrapper over [`DramChannel::tick_into`] for tests and
    /// examples; simulation engines should recycle a completion buffer.
    pub fn tick(&mut self, now: u64) -> Vec<DramCompletion> {
        let mut done = Vec::new();
        self.tick_into(now, &mut done);
        done
    }

    /// Advances the channel to SM cycle `now`, appending every access whose
    /// data completed at or before `now` to the caller-owned `done`.
    pub fn tick_into(&mut self, now: u64, done: &mut Vec<DramCompletion>) {
        // Start at most one access per cycle; the data bus is reserved for
        // the burst phase only, so bank activates overlap freely. A failed
        // pick means every windowed bank is busy; the queue and bank state
        // then stay frozen until the earliest `ready_at`, so the scan is
        // provably futile before that cycle and skipped.
        if !self.queue.is_empty() && now >= self.sched_ready_at {
            if let Some(idx) = self.pick(now) {
                let req = self.queue.remove(idx).expect("picked index is in range");
                let completion = self.service(req, now);
                self.in_service.push(completion);
                self.sched_ready_at = 0; // bank state changed: retry next cycle
            } else {
                let window = self.timing.window.min(self.queue.len());
                self.sched_ready_at = self
                    .queue
                    .iter()
                    .take(window)
                    .map(|req| self.banks[self.bank_and_row(req.line).0].ready_at)
                    .min()
                    .expect("non-empty queue has a windowed entry");
            }
        }
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].finished_at <= now {
                done.push(self.in_service.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// FR-FCFS-lite: first row-hit within the window whose bank is ready,
    /// else the oldest request whose bank is ready, else none.
    fn pick(&self, now: u64) -> Option<usize> {
        let window = self.timing.window.min(self.queue.len());
        let mut oldest_ready: Option<usize> = None;
        for i in 0..window {
            let (bank, row) = self.bank_and_row(self.queue[i].line);
            let b = &self.banks[bank];
            if b.ready_at > now {
                continue;
            }
            if b.open_row == Some(row) {
                return Some(i);
            }
            if oldest_ready.is_none() {
                oldest_ready = Some(i);
            }
        }
        oldest_ready
    }

    fn service(&mut self, req: DramRequest, now: u64) -> DramCompletion {
        let t = self.timing;
        let (bank_idx, row) = self.bank_and_row(req.line);
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.ready_at);

        let row_hit = bank.open_row == Some(row);
        let access_latency = if row_hit {
            t.sm(t.t_cl)
        } else if bank.open_row.is_some() {
            // Precharge the open row (respecting tRAS since activation),
            // activate the new one, then CAS.
            let earliest_pre = bank.activated_at + t.sm(t.t_ras);
            let pre_start = start.max(earliest_pre);
            let extra_wait = pre_start - start;
            extra_wait + t.sm(t.t_rp) + t.sm(t.t_rcd) + t.sm(t.t_cl)
        } else {
            t.sm(t.t_rcd) + t.sm(t.t_cl)
        };

        // The shared data bus is held only for the burst phase.
        let data_start = (start + access_latency).max(self.bus_free_at);
        let data_at = data_start + t.sm(t.burst);
        if !row_hit {
            bank.activated_at = start;
        }
        bank.open_row = Some(row);
        bank.ready_at = data_at;
        self.bus_free_at = data_at;

        self.stats.accesses += 1;
        if row_hit {
            self.stats.row_hits += 1;
        }

        DramCompletion {
            id: req.id,
            finished_at: data_at,
            row_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(ch: &mut DramChannel, until: u64) -> Vec<DramCompletion> {
        let mut all = Vec::new();
        for now in 0..until {
            all.extend(ch.tick(now));
        }
        all
    }

    #[test]
    fn closed_row_access_latency() {
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        });
        let done = drain(&mut ch, 300);
        assert_eq!(done.len(), 1);
        // tRCD + tCL + burst, all x clock_ratio 2 = (12+12+4)*2 = 56.
        assert_eq!(done[0].finished_at, 56);
        assert!(!done[0].row_hit);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        });
        ch.try_push(DramRequest {
            id: 2,
            line: 1,
            is_write: false,
        });
        // line in a different row, same bank cadence not guaranteed; use a
        // far line mapping to another row.
        ch.try_push(DramRequest {
            id: 3,
            line: 16 * 8,
            is_write: false,
        });
        let done = drain(&mut ch, 2000);
        assert_eq!(done.len(), 3);
        let by_id = |id| done.iter().find(|c| c.id == id).unwrap();
        assert!(
            by_id(2).row_hit,
            "same-row follow-up should hit the open row"
        );
        assert!(!by_id(1).row_hit);
    }

    #[test]
    fn row_hits_are_preferred_over_older_conflicts() {
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        // Open row 0 in bank 0.
        ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        });
        let _ = drain(&mut ch, 80);
        // Conflict (row 8 -> bank 0) enqueued before a row-0 hit.
        ch.try_push(DramRequest {
            id: 2,
            line: 16 * 8,
            is_write: false,
        });
        ch.try_push(DramRequest {
            id: 3,
            line: 1,
            is_write: false,
        });
        let mut order = Vec::new();
        for now in 80..2000 {
            for c in ch.tick(now) {
                order.push(c.id);
            }
        }
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], 3, "row hit should be serviced first (FR-FCFS)");
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let t = DramTiming {
            queue_capacity: 2,
            ..DramTiming::default()
        };
        let mut ch = DramChannel::new(t);
        assert!(ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        }));
        assert!(ch.try_push(DramRequest {
            id: 2,
            line: 1,
            is_write: false,
        }));
        assert!(!ch.try_push(DramRequest {
            id: 3,
            line: 2,
            is_write: false,
        }));
        assert_eq!(ch.occupancy(), 2, "a refused push queues nothing");
    }

    #[test]
    fn bus_serialises_back_to_back_bursts() {
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        });
        ch.try_push(DramRequest {
            id: 2,
            line: 1,
            is_write: false,
        });
        let done = drain(&mut ch, 500);
        let f1 = done.iter().find(|c| c.id == 1).unwrap().finished_at;
        let f2 = done.iter().find(|c| c.id == 2).unwrap().finished_at;
        assert!(
            f2 >= f1 + (t.burst * t.clock_ratio) as u64,
            "bursts must not overlap"
        );
    }

    #[test]
    fn stats_track_accesses_and_hits() {
        let mut ch = DramChannel::new(DramTiming::default());
        for i in 0..4 {
            ch.try_push(DramRequest {
                id: i,
                line: i,
                is_write: false,
            });
        }
        let _ = drain(&mut ch, 1000);
        let s = ch.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.row_hits, 3, "lines 1..3 hit the row opened by line 0");
    }

    #[test]
    fn next_event_brackets_every_state_change() {
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        assert_eq!(ch.next_event(0), None, "empty channel is eventless");
        ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        });
        // Idle bank: schedulable immediately.
        assert_eq!(ch.next_event(0), Some(0));
        let mut done = Vec::new();
        ch.tick_into(0, &mut done);
        assert!(done.is_empty());
        // In service, finishes at 56 (tRCD+tCL+burst at ratio 2).
        assert_eq!(ch.next_event(1), Some(56));
        // A queued same-bank follow-up can't start before the bank frees.
        ch.try_push(DramRequest {
            id: 2,
            line: 1,
            is_write: false,
        });
        assert_eq!(ch.next_event(1), Some(56));
        // Skipping to the event and ticking there makes progress.
        ch.tick_into(56, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(ch.next_event(57), Some(56 + (t.t_cl + t.burst) as u64 * 2));
    }

    #[test]
    fn skipped_dead_cycles_are_no_ops() {
        // Ticking the channel on every cycle next_event deems dead must
        // not change any observable state or statistic.
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        for i in 0..3 {
            ch.try_push(DramRequest {
                id: i,
                line: i * 16, // distinct rows, distinct banks
                is_write: false,
            });
        }
        let mut done = Vec::new();
        let mut now = 0;
        while ch.occupancy() > 0 && now < 10_000 {
            let event = ch.next_event(now).expect("busy channel has an event");
            for dead in now..event {
                let stats_before = ch.stats();
                let occ_before = ch.occupancy();
                ch.tick_into(dead, &mut done);
                assert_eq!(ch.stats(), stats_before, "dead tick mutated stats");
                assert_eq!(ch.occupancy(), occ_before, "dead tick moved work");
            }
            now = event;
            ch.tick_into(now, &mut done);
            now += 1;
        }
        assert_eq!(done.len(), 3);
    }

    #[test]
    fn exported_legality_bounds_match_the_service_math() {
        let t = DramTiming::default();
        // Defaults: tCL/tRCD/tRAS/tRP = 12/12/28/12, burst 4, ratio 2.
        assert_eq!(t.burst_sm(), 8);
        assert_eq!(t.min_read_latency_sm(true), (12 + 4) * 2);
        assert_eq!(t.min_read_latency_sm(false), (12 + 12 + 4) * 2);
        assert_eq!(t.min_conflict_gap_sm(), (12 + 12 + 12 + 4) * 2);
        assert_eq!(
            t.min_open_to_conflict_data_sm(),
            (28 + 12 + 12 + 12 + 4) * 2
        );
        assert_eq!(t.bank_of(0), 0);
        assert_eq!(t.bank_of(16), 1, "next row, next bank");
        assert_eq!(t.row_of(31), 1);
    }

    #[test]
    fn sm_scaling_is_widening() {
        // u32 * u32 would wrap here; the exported bounds must not.
        let t = DramTiming {
            t_cl: u32::MAX,
            clock_ratio: 4,
            ..DramTiming::default()
        };
        assert!(t.min_read_latency_sm(true) > u32::MAX as u64);
    }

    #[test]
    fn every_completion_respects_the_declared_lower_bounds() {
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        // A mix of hits, conflicts and bank-parallel streams.
        for i in 0..24u64 {
            ch.try_push(DramRequest {
                id: i,
                line: (i * 7) % 64,
                is_write: i % 5 == 0,
            });
        }
        let done = drain(&mut ch, 10_000);
        assert_eq!(done.len(), 24);
        for c in &done {
            assert!(
                c.finished_at >= t.min_read_latency_sm(c.row_hit),
                "completion {} beat the declared minimum",
                c.id
            );
        }
        // Bus serialisation: completions on one channel are at least one
        // burst apart.
        let mut finishes: Vec<u64> = done.iter().map(|c| c.finished_at).collect();
        finishes.sort_unstable();
        for w in finishes.windows(2) {
            assert!(w[1] >= w[0] + t.burst_sm(), "bursts overlapped on the bus");
        }
    }

    #[test]
    fn different_banks_overlap_access_latency() {
        // Rows map to banks round-robin; rows 0 and 1 live in banks 0 and 1.
        let t = DramTiming::default();
        let mut ch = DramChannel::new(t);
        ch.try_push(DramRequest {
            id: 1,
            line: 0,
            is_write: false,
        });
        ch.try_push(DramRequest {
            id: 2,
            line: 16,
            is_write: false,
        });
        let done = drain(&mut ch, 500);
        let f2 = done.iter().find(|c| c.id == 2).unwrap().finished_at;
        // Bank-parallel: second access hides most of its activate behind the
        // first one's; it must finish well before 2x the single latency.
        assert!(f2 < 2 * 56, "bank-level parallelism missing: f2={f2}");
    }
}
