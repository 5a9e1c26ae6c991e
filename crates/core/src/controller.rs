//! The FUSE L1D controller (Figs. 5, 8, 9, 10).
//!
//! One controller implements every finite configuration of Table I; the
//! features present in the [`L1Config`] decide which datapaths exist:
//!
//! * **Arbitration** (Fig. 9): SRAM probe → swap-buffer snoop (by tag-queue
//!   FIFO matching, not hardware snooping) → STT probe (exact or
//!   CBF-approximate) → miss path with predicted placement / bypass.
//! * **Non-blocking STT** (Fig. 10): loads hitting STT-MRAM and SRAM→STT
//!   victim migrations wait in the 16-entry tag queue while the swap
//!   buffer holds migration data; a write *update* to STT data (a
//!   misprediction) flushes the queue and occupies the bank for the full
//!   5-cycle write.
//! * **Blocking configurations** (`Hybrid`, `SttOnly`, `By-NVM`): while the
//!   STT bank is busy the whole L1D rejects accesses — exactly the stall
//!   the paper's Fig. 15 charges to `Hybrid`.
//!
//! Single-copy invariant: a line lives in the SRAM bank, the STT bank or
//! the swap buffer — never two at once (the paper's consistency argument
//! in §III-A).

use std::any::Any;
use std::collections::VecDeque;

use fuse_cache::approx_assoc::ApproxAssocStore;
use fuse_cache::hash::FxHashMap;
use fuse_cache::line::LineAddr;
use fuse_cache::mshr::{FillDest, Mshr, MshrOutcome, MshrTarget};
use fuse_cache::nvm_cbf::CbfStats;
use fuse_cache::replacement::PolicyKind;

use fuse_cache::stats::CacheStats;
use fuse_cache::swap_buffer::{SwapBuffer, SwapEntry};
use fuse_cache::tag_array::{TagArray, TagEntry};
use fuse_cache::tag_queue::{TagCmd, TagCmdKind, TagQueue};
use fuse_gpu::l1d::{
    L1Access, L1Outcome, L1Response, L1dModel, OutgoingKind, OutgoingReq, MSHR_TARGETS,
};
use fuse_mem::energy::EnergyCounters;
use fuse_predict::class::ReadLevel;
use fuse_predict::dead_write::DeadWritePredictor;
use fuse_predict::read_level::ReadLevelPredictor;

use crate::config::{L1Config, Placement, RefreshSpec, SttOrganization};
use crate::metrics::L1Metrics;

/// Aux-word packing: bits 0–1 read-level class, 2–7 writes-while-resident
/// (saturating at 63), 8–17 PC signature of the filling instruction.
fn pack_aux(class: ReadLevel, writes: u32, sig: u16) -> u32 {
    class.encode() | (writes.min(63) << 2) | ((sig as u32 & 0x3FF) << 8)
}

fn aux_class(aux: u32) -> ReadLevel {
    ReadLevel::decode(aux & 0x3)
}

fn aux_writes(aux: u32) -> u32 {
    (aux >> 2) & 0x3F
}

fn aux_sig(aux: u32) -> u16 {
    ((aux >> 8) & 0x3FF) as u16
}

fn aux_bump_write(aux: u32) -> u32 {
    pack_aux(aux_class(aux), aux_writes(aux) + 1, aux_sig(aux))
}

/// The STT-MRAM bank's tag organisation.
#[derive(Debug)]
enum SttStore {
    SetAssoc(TagArray),
    Approx(ApproxAssocStore),
}

/// The counters a rejected lookup adds: its only effect on the L1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FailCounters {
    reservation_fails: u64,
    tag_searches: u64,
    tag_search_cycles: u64,
    tq_full_rejections: u64,
    /// Test-side CBF counts (`tests`, `positives`, `false_positives`).
    cbf: CbfStats,
}

impl FailCounters {
    /// The counts added since `before`.
    fn since(self, before: FailCounters) -> FailCounters {
        FailCounters {
            reservation_fails: self.reservation_fails - before.reservation_fails,
            tag_searches: self.tag_searches - before.tag_searches,
            tag_search_cycles: self.tag_search_cycles - before.tag_search_cycles,
            tq_full_rejections: self.tq_full_rejections - before.tq_full_rejections,
            cbf: CbfStats {
                tests: self.cbf.tests - before.cbf.tests,
                positives: self.cbf.positives - before.cbf.positives,
                false_positives: self.cbf.false_positives - before.cbf.false_positives,
            },
        }
    }
}

/// A rejected access and the counters its lookup added, valid while the
/// controller's contents generation still equals `generation`.
#[derive(Debug, Clone, Copy)]
struct FailedAccess {
    acc: L1Access,
    generation: u64,
    added: FailCounters,
}

/// The FUSE L1D cache controller.
///
/// Implements [`L1dModel`]; plug it into a [`fuse_gpu::system::GpuSystem`]
/// via the L1 factory. See the crate docs for an example.
#[derive(Debug)]
pub struct FuseL1 {
    cfg: L1Config,
    sram: Option<TagArray>,
    stt: Option<SttStore>,
    stt_read_lat: u32,
    stt_write_lat: u32,
    stt_busy_until: u64,
    stt_refresh: Option<RefreshSpec>,
    next_refresh_at: u64,
    mshr: Mshr,
    miss_class: FxHashMap<LineAddr, ReadLevel>,
    swap: Option<SwapBuffer>,
    tq: Option<TagQueue>,
    replay: VecDeque<TagCmd>,
    blocked_fills: VecDeque<L1Response>,
    pending_reads: Vec<(u16, u64)>,
    predictor: Option<ReadLevelPredictor>,
    dead: Option<DeadWritePredictor>,
    outgoing: Vec<OutgoingReq>,
    completions: Vec<u16>,
    next_id: u64,
    stats: CacheStats,
    metrics: L1Metrics,
    energy: EnergyCounters,
    /// Bumped on every change to state a lookup reads: tags, CBFs, swap
    /// buffer, tag queue, MSHR and predictors.
    generation: u64,
    /// The last rejected access; its retries at an unchanged `generation`
    /// replay its counters instead of repeating the lookup.
    last_fail: Option<FailedAccess>,
}

impl FuseL1 {
    /// Builds the controller for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`L1Config::validate`]).
    pub fn new(cfg: L1Config) -> Self {
        cfg.validate();
        let sram = cfg
            .sram
            .as_ref()
            .map(|g| TagArray::new(g.sets, g.ways, PolicyKind::Lru));
        let stt = cfg.stt.as_ref().map(|g| match g.organization {
            SttOrganization::SetAssoc { sets, ways } => {
                SttStore::SetAssoc(TagArray::new(sets, ways, PolicyKind::Fifo))
            }
            SttOrganization::Approximate(a) => SttStore::Approx(ApproxAssocStore::new(a)),
        });
        let (stt_read_lat, stt_write_lat) = cfg
            .stt
            .as_ref()
            .map(|g| (g.params.read_latency, g.params.write_latency))
            .unwrap_or((1, 1));
        let stt_refresh = cfg.stt.as_ref().and_then(|g| g.refresh);
        let predictor = match cfg.placement {
            Placement::Predictor(p) => Some(ReadLevelPredictor::new(p)),
            Placement::SramFirst => None,
        };
        let dead = cfg.dead_write_bypass.map(DeadWritePredictor::new);
        let (swap, tq) = match cfg.non_blocking {
            Some(nb) => (
                Some(SwapBuffer::new(nb.swap_entries)),
                Some(TagQueue::new(nb.tag_queue_entries)),
            ),
            None => (None, None),
        };
        FuseL1 {
            mshr: Mshr::new(cfg.mshr_entries, MSHR_TARGETS),
            sram,
            stt,
            stt_read_lat,
            stt_write_lat,
            stt_busy_until: 0,
            next_refresh_at: stt_refresh.map(|r| r.interval_cycles).unwrap_or(u64::MAX),
            stt_refresh,
            miss_class: FxHashMap::default(),
            swap,
            tq,
            replay: VecDeque::new(),
            blocked_fills: VecDeque::new(),
            pending_reads: Vec::new(),
            predictor,
            dead,
            outgoing: Vec::new(),
            completions: Vec::new(),
            next_id: 0,
            stats: CacheStats::default(),
            metrics: L1Metrics::default(),
            energy: EnergyCounters::default(),
            generation: 0,
            last_fail: None,
            cfg,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &L1Config {
        &self.cfg
    }

    /// FUSE-specific metrics (stall classes, migrations, predictor
    /// accuracy, CBF statistics).
    pub fn metrics(&self) -> L1Metrics {
        let mut m = self.metrics;
        if let Some(SttStore::Approx(store)) = &self.stt {
            m.cbf = store.cbf_stats();
        }
        m
    }

    /// The read-level predictor, if this configuration has one.
    pub fn predictor(&self) -> Option<&ReadLevelPredictor> {
        self.predictor.as_ref()
    }

    fn classify(&self, sig: u16) -> ReadLevel {
        match &self.predictor {
            Some(p) => p.classify(sig),
            None => ReadLevel::Neutral,
        }
    }

    fn train(&mut self, acc: &L1Access) {
        let sig = ReadLevelPredictor::pc_signature(acc.pc);
        if let Some(p) = &mut self.predictor {
            p.observe(acc.warp, sig, acc.line, acc.is_store);
        }
        if let Some(d) = &mut self.dead {
            d.observe(acc.warp, sig, acc.line, acc.is_store);
        }
    }

    /// Current values of the counters a rejected lookup adds.
    fn fail_counters(&self) -> FailCounters {
        FailCounters {
            reservation_fails: self.stats.reservation_fails,
            tag_searches: self.metrics.tag_searches,
            tag_search_cycles: self.metrics.tag_search_cycles,
            tq_full_rejections: self.metrics.tag_queue_full_rejections,
            cbf: match &self.stt {
                Some(SttStore::Approx(store)) => store.cbf_stats(),
                _ => CbfStats::default(),
            },
        }
    }

    /// Adds the counters of a memoised rejection, as its lookup would.
    fn replay_fail(&mut self, added: FailCounters) {
        self.stats.reservation_fails += added.reservation_fails;
        self.metrics.tag_searches += added.tag_searches;
        self.metrics.tag_search_cycles += added.tag_search_cycles;
        self.metrics.tag_queue_full_rejections += added.tq_full_rejections;
        if let Some(SttStore::Approx(store)) = &mut self.stt {
            store.replay_cbf_tests(added.cbf);
        }
    }

    fn push_outgoing(&mut self, line: LineAddr, kind: OutgoingKind) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.outgoing.push(OutgoingReq { id, line, kind });
        id
    }

    /// A line leaves the L1 for good: write back if dirty and grade the
    /// fill-time prediction against the writes actually observed.
    fn finalize_eviction(&mut self, entry: TagEntry) {
        if entry.dirty {
            self.stats.writebacks += 1;
            self.push_outgoing(entry.line, OutgoingKind::WriteThrough);
        }
        if self.predictor.is_some() {
            self.metrics
                .accuracy
                .record(aux_class(entry.aux), aux_writes(entry.aux));
        }
    }

    /// Writes a line into the STT bank (fill or migration), occupying the
    /// bank for the 5-cycle write and finalizing any evicted victim.
    fn insert_into_stt(&mut self, now: u64, line: LineAddr, dirty: bool, aux: u32) {
        self.energy.stt_writes += 1;
        self.stt_busy_until = self.stt_busy_until.max(now) + self.stt_write_lat as u64;
        let evicted = match self.stt.as_mut().expect("insert requires an STT bank") {
            SttStore::SetAssoc(tags) => tags.fill(line, dirty, aux),
            SttStore::Approx(store) => store.fill(line, dirty, aux),
        };
        if let Some(victim) = evicted {
            self.finalize_eviction(victim);
        }
    }

    /// Routes an SRAM victim per the Fig. 9 decision tree.
    fn evict_from_sram(&mut self, now: u64, entry: TagEntry) {
        if self.stt.is_none() {
            self.finalize_eviction(entry);
            return;
        }
        // WORO victims are not worth migrating: send them home.
        if self.predictor.is_some() && self.classify(aux_sig(entry.aux)) == ReadLevel::Woro {
            self.metrics.woro_evictions += 1;
            self.finalize_eviction(entry);
            return;
        }
        self.energy.sram_reads += 1; // reading the victim out of the bank
        match (&mut self.swap, &mut self.tq) {
            (Some(swap), Some(tq)) => {
                if swap.is_full() || tq.is_full() {
                    // Graceful fallback: evict to L2 rather than stalling.
                    self.finalize_eviction(entry);
                    return;
                }
                swap.push(SwapEntry {
                    line: entry.line,
                    dirty: entry.dirty,
                    aux: entry.aux,
                });
                tq.push(TagCmd {
                    kind: TagCmdKind::Migrate,
                    line: entry.line,
                    warp: 0,
                    enqueued_at: now,
                    extra_cycles: 0,
                });
                self.metrics.migrations_to_stt += 1;
            }
            _ => {
                // Blocking Hybrid: the migration write occupies the bank
                // now; the SM eats the stall through rejections.
                self.metrics.migrations_to_stt += 1;
                self.insert_into_stt(now, entry.line, entry.dirty, entry.aux);
            }
        }
    }

    /// In-place write update of STT-resident data (misprediction path):
    /// flush the tag queue, replay its commands later, occupy the bank.
    fn stt_write_update(&mut self, now: u64) {
        self.metrics.stt_write_updates += 1;
        if let Some(tq) = &mut self.tq {
            let flushed = tq.flush();
            if !flushed.is_empty() {
                self.metrics.tq_flushes += 1;
                self.replay.extend(flushed);
            }
        }
        self.energy.stt_writes += 1;
        self.stt_busy_until = self.stt_busy_until.max(now) + self.stt_write_lat as u64;
    }

    /// Probes the STT bank. `Ok(Some(..))` on a hit with the resolved
    /// outcome, `Ok(None)` on a miss, `Err(())` when the access must be
    /// retried (queue full).
    fn probe_stt(&mut self, now: u64, acc: &L1Access, sig: u16) -> Result<Option<L1Outcome>, ()> {
        let Some(stt) = self.stt.as_mut() else {
            return Ok(None);
        };
        let (hit_entry, search_cycles) = match stt {
            SttStore::SetAssoc(tags) => (tags.probe(acc.line), 0u32),
            SttStore::Approx(store) => {
                let probe = store.probe(acc.line);
                self.metrics.tag_searches += 1;
                self.metrics.tag_search_cycles += probe.search_cycles as u64;
                (probe.way, probe.search_cycles)
            }
        };
        let Some(slot_or_idx) = hit_entry else {
            return Ok(None);
        };

        if acc.is_store {
            let migrate_to_sram = self.predictor.is_some() && self.sram.is_some();
            if migrate_to_sram {
                // Fig. 9: a write hitting STT data is a WM misprediction —
                // pull the line into SRAM before serving the store.
                let entry = match self.stt.as_mut().expect("probed") {
                    SttStore::SetAssoc(tags) => {
                        let line = acc.line;
                        tags.invalidate(line).expect("probed entry exists")
                    }
                    SttStore::Approx(store) => {
                        store.invalidate(acc.line).expect("probed entry exists")
                    }
                };
                self.energy.stt_reads += 1;
                self.stt_busy_until = self.stt_busy_until.max(now) + self.stt_read_lat as u64;
                self.metrics.migrations_to_sram += 1;
                self.stats.hits += 1;
                self.energy.sram_writes += 1;
                let aux = aux_bump_write(entry.aux);
                let evicted = self
                    .sram
                    .as_mut()
                    .expect("migrate_to_sram requires SRAM")
                    .fill(acc.line, true, aux);
                if let Some(victim) = evicted {
                    self.evict_from_sram(now, victim);
                }
                return Ok(Some(L1Outcome::StoreAccepted));
            }
            // In-place write update (flushes the queue when present).
            self.stats.hits += 1;
            let e = match self.stt.as_mut().expect("probed") {
                SttStore::SetAssoc(tags) => tags.touch(acc.line).expect("probed entry exists"),
                SttStore::Approx(store) => store.entry_mut(slot_or_idx),
            };
            e.dirty = true;
            e.aux = aux_bump_write(e.aux);
            self.stt_write_update(now);
            return Ok(Some(L1Outcome::StoreAccepted));
        }

        // Load hit on STT-MRAM.
        match &mut self.tq {
            Some(tq) => {
                if tq.is_full() {
                    self.metrics.tag_queue_full_rejections += 1;
                    self.stats.reservation_fails += 1;
                    return Err(());
                }
                tq.push(TagCmd {
                    kind: TagCmdKind::Read,
                    line: acc.line,
                    warp: acc.warp,
                    enqueued_at: now,
                    extra_cycles: search_cycles,
                });
            }
            None => {
                // Blocking bank: bank-free was checked before the probe.
                self.stt_busy_until = now + self.stt_read_lat as u64;
                self.pending_reads.push((acc.warp, self.stt_busy_until));
            }
        }
        self.stats.hits += 1;
        self.energy.stt_reads += 1;
        // Loads are served in place: promoting hits back to SRAM (a victim
        // buffer) is the "simplistic" strategy §III-A measures at -63% vs
        // Oracle and rejects, because every promotion costs an extra
        // STT-MRAM write for the displaced SRAM victim.
        let _ = sig;
        Ok(Some(L1Outcome::Pending))
    }

    fn handle_miss(&mut self, _now: u64, acc: &L1Access, sig: u16) -> L1Outcome {
        let class = self.classify(sig);
        let dead = self
            .dead
            .as_ref()
            .map(|d| d.predict_dead(sig))
            .unwrap_or(false);
        let bypass = dead || class == ReadLevel::Woro;

        if bypass && acc.is_store && !self.mshr.contains(acc.line) {
            // Dead/WORO store: write through, no allocation, no blocking.
            self.stats.bypasses += 1;
            self.metrics.bypassed_stores += 1;
            self.push_outgoing(acc.line, OutgoingKind::WriteThrough);
            return L1Outcome::StoreAccepted;
        }

        let dest = if bypass {
            FillDest::Bypass
        } else {
            match class {
                ReadLevel::Worm if self.stt.is_some() => FillDest::Stt,
                _ if self.sram.is_some() => FillDest::Sram,
                _ => FillDest::Stt,
            }
        };
        let target = MshrTarget {
            warp: acc.warp,
            is_store: acc.is_store,
            pc_sig: sig,
        };
        match self.mshr.allocate(acc.line, target, dest) {
            MshrOutcome::NewMiss => {
                self.stats.misses += 1;
                self.miss_class.insert(acc.line, class);
                let kind = if dest == FillDest::Bypass {
                    self.stats.bypasses += 1;
                    self.metrics.bypassed_loads += 1;
                    OutgoingKind::BypassRead
                } else {
                    OutgoingKind::FillRead
                };
                self.push_outgoing(acc.line, kind);
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

    /// Looks `acc` up: banks, swap buffer, then the miss path. A
    /// `ReservationFail` from here changes counters only (see
    /// [`FailCounters`]).
    fn handle_access(&mut self, now: u64, acc: &L1Access) -> L1Outcome {
        let sig = ReadLevelPredictor::pc_signature(acc.pc);

        // 1. SRAM bank.
        if let Some(sram) = &mut self.sram {
            if let Some(e) = sram.touch(acc.line) {
                self.stats.hits += 1;
                if acc.is_store {
                    e.dirty = true;
                    e.aux = aux_bump_write(e.aux);
                    self.energy.sram_writes += 1;
                    return L1Outcome::StoreAccepted;
                }
                self.energy.sram_reads += 1;
                return L1Outcome::HitNow;
            }
        }

        // 2. Swap buffer (in-flight migrations are serviceable, §IV-A).
        if let Some(swap) = &mut self.swap {
            if swap.contains(acc.line) {
                self.stats.hits += 1;
                self.energy.sram_reads += 1; // register-file read
                if acc.is_store {
                    let e = swap.entry_mut(acc.line).expect("contains checked");
                    e.dirty = true;
                    e.aux = aux_bump_write(e.aux);
                    return L1Outcome::StoreAccepted;
                }
                return L1Outcome::HitNow;
            }
        }

        // 3. STT-MRAM bank.
        match self.probe_stt(now, acc, sig) {
            Err(()) => return L1Outcome::ReservationFail,
            Ok(Some(outcome)) => return outcome,
            Ok(None) => {}
        }

        // 4. Miss.
        self.handle_miss(now, acc, sig)
    }
}

impl FuseL1 {
    /// Applies a fill/bypass response: routes data per the MSHR's
    /// destination bits, wakes merged loads.
    fn apply_response(&mut self, now: u64, rsp: L1Response) {
        let Some((dest, targets)) = self.mshr.complete(rsp.line) else {
            return; // stray response (cannot happen in-system)
        };
        self.generation += 1;
        let class = self
            .miss_class
            .remove(&rsp.line)
            .unwrap_or(ReadLevel::Neutral);
        let store_count = targets.iter().filter(|t| t.is_store).count() as u32;
        let sig = targets.first().map(|t| t.pc_sig).unwrap_or(0);
        let fill_dirty = store_count > 0;
        match dest {
            FillDest::Bypass => {}
            FillDest::Sram => {
                self.energy.sram_writes += 1;
                let aux = pack_aux(class, store_count, sig);
                let evicted = self
                    .sram
                    .as_mut()
                    .expect("SRAM fill destination requires the bank")
                    .fill(rsp.line, fill_dirty, aux);
                if let Some(victim) = evicted {
                    self.evict_from_sram(now, victim);
                }
            }
            FillDest::Stt => {
                let aux = pack_aux(class, store_count, sig);
                self.insert_into_stt(now, rsp.line, fill_dirty, aux);
            }
        }
        for t in &targets {
            if !t.is_store {
                self.completions.push(t.warp);
            }
        }
        self.mshr.recycle(targets);
    }
}

impl L1dModel for FuseL1 {
    fn access(&mut self, now: u64, acc: L1Access) -> L1Outcome {
        // Blocking configurations stall the whole L1D while the STT bank
        // writes (the paper's Hybrid pathology). The test depends on time,
        // so it runs ahead of the retry memo on every call.
        if self.cfg.non_blocking.is_none() && self.stt.is_some() && self.stt_busy_until > now {
            self.metrics.stt_busy_rejections += 1;
            self.stats.reservation_fails += 1;
            return L1Outcome::ReservationFail;
        }
        // A warp holding the LSU re-sends its rejected access every cycle.
        // Until the generation moves, the lookup would fail the same way
        // and add the same counts, so add them and skip it.
        if let Some(fail) = self
            .last_fail
            .filter(|f| f.acc == acc && f.generation == self.generation)
        {
            if cfg!(debug_assertions) {
                // Audit every memo hit against the lookup it skips.
                let before = self.fail_counters();
                let outcome = self.handle_access(now, &acc);
                let added = self.fail_counters().since(before);
                assert!(
                    outcome == L1Outcome::ReservationFail && added == fail.added,
                    "memoised retry of {acc:?} diverged: {outcome:?}, {added:?} vs {:?}",
                    fail.added
                );
            } else {
                self.replay_fail(fail.added);
            }
            return L1Outcome::ReservationFail;
        }
        let before = self.fail_counters();
        let outcome = self.handle_access(now, &acc);
        if outcome == L1Outcome::ReservationFail {
            self.last_fail = Some(FailedAccess {
                acc,
                generation: self.generation,
                added: self.fail_counters().since(before),
            });
        } else {
            self.train(&acc);
            self.generation += 1;
        }
        outcome
    }

    fn tick(&mut self, now: u64) {
        // Volatile (eDRAM) banks: periodic refresh occupies the bank.
        if now >= self.next_refresh_at {
            let r = self
                .stt_refresh
                .expect("refresh scheduled only when configured");
            self.stt_busy_until = self.stt_busy_until.max(now) + r.busy_cycles;
            self.metrics.refresh_events += 1;
            self.next_refresh_at += r.interval_cycles;
        }
        // Blocking configurations: drain fills that waited for the bank.
        while self.stt_busy_until <= now {
            match self.blocked_fills.pop_front() {
                Some(rsp) => self.apply_response(now, rsp),
                None => break,
            }
        }
        // Replay commands displaced by a flush, oldest first.
        if let Some(tq) = &mut self.tq {
            while let Some(&cmd) = self.replay.front() {
                if tq.push(cmd) {
                    self.replay.pop_front();
                    self.generation += 1;
                } else {
                    break;
                }
            }
        }
        // Serve one tag-queue command when the bank is free.
        if self.stt_busy_until <= now {
            let cmd = self.tq.as_mut().and_then(|tq| tq.pop());
            if let Some(cmd) = cmd {
                self.generation += 1;
                match cmd.kind {
                    TagCmdKind::Read => {
                        let ready = now + cmd.extra_cycles as u64 + self.stt_read_lat as u64;
                        self.stt_busy_until = ready;
                        self.pending_reads.push((cmd.warp, ready));
                    }
                    TagCmdKind::Migrate | TagCmdKind::Fill => {
                        // Pop the matching swap register by line, not by
                        // FIFO position: a write-update flush replays its
                        // "F" commands behind entries queued meanwhile, so
                        // head-of-queue and head-of-buffer can diverge.
                        let entry = self
                            .swap
                            .as_mut()
                            .expect("migrations require a swap buffer")
                            .remove(cmd.line)
                            .expect("migration command without a parked line");
                        self.insert_into_stt(now, entry.line, entry.dirty, entry.aux);
                    }
                }
            }
        }
        // Complete finished STT reads.
        let mut i = 0;
        while i < self.pending_reads.len() {
            if self.pending_reads[i].1 <= now {
                let (warp, _) = self.pending_reads.swap_remove(i);
                self.completions.push(warp);
            } else {
                i += 1;
            }
        }
    }

    fn push_response(&mut self, now: u64, rsp: L1Response) {
        // Blocking configurations have no swap buffer: a fill needs the
        // data-array write port, so it waits while the STT bank is busy —
        // exactly the hindrance the swap buffer of §IV-A removes.
        if self.cfg.non_blocking.is_none() && self.stt.is_some() && self.stt_busy_until > now {
            self.metrics.stt_busy_rejections += 1;
            self.blocked_fills.push_back(rsp);
            return;
        }
        self.apply_response(now, rsp);
    }

    fn drain_outgoing(&mut self, out: &mut Vec<OutgoingReq>) {
        out.append(&mut self.outgoing);
    }

    fn drain_completions(&mut self, out: &mut Vec<u16>) {
        out.append(&mut self.completions);
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        // Undrained buffers must reach the SM/engine on the next tick.
        if !self.outgoing.is_empty() || !self.completions.is_empty() {
            return Some(now);
        }
        let mut earliest: Option<u64> = None;
        let mut fold = |t: u64| {
            let t = t.max(now);
            earliest = Some(earliest.map_or(t, |c: u64| c.min(t)));
        };
        // Refresh fires one interval per tick, so the scheduled instant is
        // always a barrier; the engine may jump to it but never past it.
        if self.stt_refresh.is_some() {
            fold(self.next_refresh_at);
        }
        // Bank-gated work — blocked fills, tag-queue commands, replayed
        // flush victims — advances the first tick the STT bank is free.
        if !self.blocked_fills.is_empty()
            || !self.replay.is_empty()
            || self.tq.as_ref().is_some_and(|tq| !tq.is_empty())
        {
            fold(self.stt_busy_until);
        }
        for &(_, ready) in &self.pending_reads {
            fold(ready);
        }
        // Skip-safety invariant: a parked migration with no covering tag
        // command would make the controller look quiescent while work
        // remains, silently deadlocking a skipped run.
        debug_assert!(
            self.swap.as_ref().map_or(0, |s| s.len())
                <= self.tq.as_ref().map_or(0, |tq| tq.len()) + self.replay.len(),
            "swap-buffer entry without a queued or replayable command"
        );
        earliest
    }

    fn outstanding_misses(&self) -> usize {
        self.mshr.occupancy()
    }

    fn outstanding_lines(&self, out: &mut Vec<fuse_cache::line::LineAddr>) {
        out.extend(self.mshr.iter_entries().map(|(line, _)| line));
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
    use crate::config::L1Preset;

    fn load(warp: u16, pc: u32, line: u64) -> L1Access {
        L1Access {
            warp,
            pc,
            line: LineAddr(line),
            is_store: false,
        }
    }

    fn store(warp: u16, pc: u32, line: u64) -> L1Access {
        L1Access {
            warp,
            pc,
            line: LineAddr(line),
            is_store: true,
        }
    }

    /// Completes all outstanding fills immediately, like a zero-latency L2.
    fn feed_fills(l1: &mut FuseL1, now: u64) {
        let mut out = Vec::new();
        l1.drain_outgoing(&mut out);
        for r in out {
            if r.kind.expects_response() {
                l1.push_response(
                    now,
                    L1Response {
                        id: r.id,
                        line: r.line,
                    },
                );
            }
        }
    }

    #[test]
    fn aux_packing_roundtrip() {
        for class in [
            ReadLevel::Wm,
            ReadLevel::Worm,
            ReadLevel::Woro,
            ReadLevel::Neutral,
        ] {
            for writes in [0u32, 1, 5, 63, 100] {
                for sig in [0u16, 511, 1023] {
                    let aux = pack_aux(class, writes, sig);
                    assert_eq!(aux_class(aux), class);
                    assert_eq!(aux_writes(aux), writes.min(63));
                    assert_eq!(aux_sig(aux), sig);
                }
            }
        }
        let aux = pack_aux(ReadLevel::Worm, 2, 7);
        assert_eq!(aux_writes(aux_bump_write(aux)), 3);
    }

    #[test]
    fn sram_hit_after_fill() {
        let mut l1 = FuseL1::new(L1Preset::L1Sram.config());
        assert_eq!(l1.access(0, load(0, 0x40, 9)), L1Outcome::Pending);
        feed_fills(&mut l1, 1);
        let mut done = Vec::new();
        l1.drain_completions(&mut done);
        assert_eq!(done, vec![0]);
        assert_eq!(l1.access(2, load(0, 0x40, 9)), L1Outcome::HitNow);
        assert_eq!(l1.stats().hits, 1);
        assert_eq!(l1.stats().misses, 1);
    }

    #[test]
    fn blocking_stt_write_stalls_the_l1() {
        // SttOnly: a store fill occupies the bank for 5 cycles; accesses
        // during that window are rejected.
        let mut l1 = FuseL1::new(L1Preset::SttOnly.config());
        assert_eq!(l1.access(0, store(0, 0x40, 1)), L1Outcome::StoreAccepted);
        feed_fills(&mut l1, 10); // fill at cycle 10: bank busy until 15
        assert_eq!(l1.access(11, load(1, 0x44, 1)), L1Outcome::ReservationFail);
        assert!(l1.metrics().stt_busy_rejections >= 1);
        // After the write completes the load hits.
        l1.tick(15);
        assert_eq!(l1.access(15, load(1, 0x44, 1)), L1Outcome::Pending);
        l1.tick(16);
        let mut done = Vec::new();
        l1.drain_completions(&mut done);
        assert_eq!(done, vec![1]);
    }

    #[test]
    fn base_fuse_does_not_stall_on_stt_writes() {
        let mut l1 = FuseL1::new(L1Preset::BaseFuse.config());
        // Fill SRAM (SramFirst placement) then force an eviction cascade
        // towards STT: lines 0, 64, 128 share SRAM set 0 (64 sets, 2 ways).
        for (t, line) in [0u64, 64, 128, 192].iter().enumerate() {
            assert_ne!(
                l1.access(t as u64, load(0, 0x40, *line)),
                L1Outcome::ReservationFail
            );
            feed_fills(&mut l1, t as u64);
        }
        // Victims migrated through the swap buffer, not a stall.
        assert!(l1.metrics().migrations_to_stt >= 1);
        assert_eq!(l1.metrics().stt_busy_rejections, 0);
        // While the migration drains, SRAM accesses still succeed.
        l1.tick(10);
        assert_eq!(l1.access(10, load(0, 0x40, 192)), L1Outcome::HitNow);
    }

    #[test]
    fn migrated_line_hits_in_stt_after_drain() {
        let mut l1 = FuseL1::new(L1Preset::BaseFuse.config());
        for (t, line) in [0u64, 64, 128].iter().enumerate() {
            l1.access(t as u64, load(0, 0x40, *line));
            feed_fills(&mut l1, t as u64);
        }
        // Line 0 was evicted from SRAM into the swap buffer; drain it.
        for now in 3..40 {
            l1.tick(now);
        }
        // It must now hit in STT (Pending through the tag queue).
        let outcome = l1.access(40, load(3, 0x44, 0));
        assert_eq!(outcome, L1Outcome::Pending);
        for now in 40..50 {
            l1.tick(now);
        }
        let mut done = Vec::new();
        l1.drain_completions(&mut done);
        assert!(
            done.contains(&3),
            "STT hit must complete through the tag queue"
        );
    }

    #[test]
    fn swap_buffer_hit_is_immediate() {
        let mut l1 = FuseL1::new(L1Preset::BaseFuse.config());
        for (t, line) in [0u64, 64, 128].iter().enumerate() {
            l1.access(t as u64, load(0, 0x40, *line));
            feed_fills(&mut l1, t as u64);
        }
        // Line 0 sits in the swap buffer right now (no ticks yet).
        assert_eq!(l1.access(3, load(5, 0x48, 0)), L1Outcome::HitNow);
    }

    #[test]
    fn dy_fuse_bypasses_streaming_blocks() {
        let mut l1 = FuseL1::new(L1Preset::DyFuse.config());
        // Warp 0 (sampled) streams: every line touched exactly once. The
        // predictor must converge to WORO and start bypassing.
        for i in 0..4000u64 {
            let acc = load(0, 0x80, 10_000 + i * 3);
            if l1.access(i, acc) == L1Outcome::ReservationFail {
                continue;
            }
            feed_fills(&mut l1, i);
            l1.tick(i);
        }
        assert!(
            l1.metrics().bypassed_loads > 0,
            "WORO stream must eventually bypass: {:?}",
            l1.predictor().map(|p| p.sample_counts())
        );
    }

    #[test]
    fn dy_fuse_write_hit_on_stt_migrates_to_sram() {
        let mut l1 = FuseL1::new(L1Preset::DyFuse.config());
        // Teach the predictor that pc 0x90 blocks are WORM so they land in
        // STT on fill: warp 0 writes once, reads many.
        for i in 0..200u64 {
            let line = 5_000 + (i % 4);
            l1.access(i, load(0, 0x90, line));
            feed_fills(&mut l1, i);
            l1.tick(i);
        }
        assert_eq!(
            l1.predictor()
                .unwrap()
                .classify(ReadLevelPredictor::pc_signature(0x90)),
            ReadLevel::Worm
        );
        // New WORM-classified line goes to STT.
        l1.access(300, load(1, 0x90, 7_777));
        feed_fills(&mut l1, 300);
        for now in 300..320 {
            l1.tick(now);
        }
        // A store now hits STT: must migrate into SRAM and serve from there.
        let before = l1.metrics().migrations_to_sram;
        assert_eq!(
            l1.access(320, store(2, 0x94, 7_777)),
            L1Outcome::StoreAccepted
        );
        assert_eq!(l1.metrics().migrations_to_sram, before + 1);
        assert_eq!(
            l1.access(321, load(2, 0x94, 7_777)),
            L1Outcome::HitNow,
            "now in SRAM"
        );
    }

    #[test]
    fn by_nvm_bypasses_dead_writes() {
        let mut l1 = FuseL1::new(L1Preset::ByNvm.config());
        // Warp 0 streams stores: dead writes.
        let mut bypassed_before = 0;
        for i in 0..4000u64 {
            let acc = store(0, 0x50, 20_000 + i * 5);
            let now = i * 8; // leave the bank time to drain writes
            if l1.access(now, acc) == L1Outcome::ReservationFail {
                continue;
            }
            feed_fills(&mut l1, now);
            bypassed_before = l1.metrics().bypassed_stores;
        }
        assert!(
            bypassed_before > 0,
            "dead-write predictor must trigger bypasses"
        );
        assert!(l1.stats().bypasses > 0);
    }

    #[test]
    fn tag_queue_flush_on_write_update() {
        // Base-FUSE (no predictor): stores hitting STT write in place and
        // flush pending queue entries, which are replayed.
        let mut l1 = FuseL1::new(L1Preset::BaseFuse.config());
        // Put lines 0,64,128 in: line 0 migrates to STT; drain fully.
        for (t, line) in [0u64, 64, 128].iter().enumerate() {
            l1.access(t as u64, load(0, 0x40, *line));
            feed_fills(&mut l1, t as u64);
        }
        for now in 3..60 {
            l1.tick(now);
        }
        // Queue a read of the STT-resident line 0, then store to it before
        // the queue drains.
        assert_eq!(l1.access(100, load(1, 0x44, 0)), L1Outcome::Pending);
        assert_eq!(l1.access(100, store(2, 0x48, 0)), L1Outcome::StoreAccepted);
        assert!(l1.metrics().stt_write_updates >= 1);
        assert!(l1.metrics().tq_flushes >= 1, "pending read must be flushed");
        // The flushed read replays and completes eventually.
        for now in 101..140 {
            l1.tick(now);
        }
        let mut done = Vec::new();
        l1.drain_completions(&mut done);
        assert!(done.contains(&1), "flushed read must replay, got {done:?}");
    }

    #[test]
    fn eviction_grades_predictions() {
        let mut l1 = FuseL1::new(L1Preset::DyFuse.config());
        // Stream conflicting lines (same SRAM set) to force evictions
        // before the predictor converges to bypassing.
        for i in 0..600u64 {
            let acc = load(0, 0xA0, i * 64);
            if l1.access(i, acc) == L1Outcome::ReservationFail {
                continue;
            }
            feed_fills(&mut l1, i);
            l1.tick(i);
        }
        let acc = l1.metrics().accuracy;
        assert!(acc.total() > 0, "evictions must be graded");
    }

    #[test]
    fn fa_fuse_counts_tag_searches() {
        let mut l1 = FuseL1::new(L1Preset::FaFuse.config());
        for i in 0..300u64 {
            let acc = load(0, 0x40, i);
            if l1.access(i, acc) != L1Outcome::ReservationFail {
                feed_fills(&mut l1, i);
            }
            l1.tick(i);
        }
        let m = l1.metrics();
        assert!(m.tag_searches > 0);
        assert!(m.avg_tag_search_cycles() >= 1.0);
        assert!(m.cbf.tests > 0, "CBF must be exercised");
    }

    #[test]
    fn every_retry_counts_until_a_fill_frees_the_mshr() {
        let mut l1 = FuseL1::new(L1Preset::DyFuse.config());
        let entries = l1.config().mshr_entries as u64;
        for i in 0..entries {
            assert_eq!(l1.access(i, load(0, 0x40, 1_000 + i)), L1Outcome::Pending);
        }
        let counts = |l1: &FuseL1| {
            let m = l1.metrics();
            [l1.stats().reservation_fails, m.tag_searches, m.cbf.tests]
        };
        let before = counts(&l1);
        let blocked = load(1, 0x44, 9_999);
        const RETRIES: u64 = 25;
        for now in 100..100 + RETRIES {
            assert_eq!(l1.access(now, blocked), L1Outcome::ReservationFail);
        }
        // Each retry is a full probe in the statistics (Fig. 7b, Fig. 20),
        // whether the lookup ran or its memo answered.
        let after = counts(&l1);
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(a - b, RETRIES);
        }
        assert!(
            l1.last_fail
                .is_some_and(|f| f.acc == blocked && f.generation == l1.generation),
            "the retries must be served by a current memo"
        );
        // The fill that frees an entry moves the generation: the next retry
        // looks up again and is accepted.
        l1.push_response(
            200,
            L1Response {
                id: 0,
                line: LineAddr(1_000),
            },
        );
        assert_eq!(l1.access(201, blocked), L1Outcome::Pending);
    }

    #[test]
    fn a_tag_queue_pop_ends_a_memoised_rejection() {
        let mut l1 = FuseL1::new(L1Preset::FaFuse.config());
        let queue = l1.config().non_blocking.unwrap().tag_queue_entries;
        // Lines 64 apart share SRAM set 0 (2 ways): each fill past the
        // second migrates the oldest line to STT, and the ticks drain it.
        let lines: Vec<u64> = (0..queue as u64 + 3).map(|i| i * 64).collect();
        let mut now = 0;
        for &line in &lines {
            assert_ne!(
                l1.access(now, load(0, 0x40, line)),
                L1Outcome::ReservationFail
            );
            feed_fills(&mut l1, now);
            for _ in 0..20 {
                now += 1;
                l1.tick(now);
            }
        }
        // One cycle of STT load hits fills the tag queue...
        for (warp, &line) in (1..).zip(&lines[..queue]) {
            assert_eq!(l1.access(now, load(warp, 0x44, line)), L1Outcome::Pending);
        }
        // ...so the next STT hit is rejected, and its retries with it.
        let blocked = load(40, 0x48, lines[queue]);
        for _ in 0..5 {
            assert_eq!(l1.access(now, blocked), L1Outcome::ReservationFail);
        }
        assert_eq!(l1.metrics().tag_queue_full_rejections, 5);
        // Serving one command frees a slot; the retry must see it.
        l1.tick(now);
        assert_eq!(l1.access(now + 1, blocked), L1Outcome::Pending);
    }

    #[test]
    fn single_copy_invariant_under_churn() {
        // A line must never be resident in SRAM and STT simultaneously.
        let mut l1 = FuseL1::new(L1Preset::DyFuse.config());
        for i in 0..3000u64 {
            let line = (i * 7) % 300;
            let is_store = i % 5 == 0;
            let acc = L1Access {
                warp: (i % 48) as u16,
                pc: 0x40 + ((i % 6) * 4) as u32,
                line: LineAddr(line),
                is_store,
            };
            let _ = l1.access(i, acc);
            feed_fills(&mut l1, i);
            l1.tick(i);
            if i % 97 == 0 {
                if let (Some(sram), Some(SttStore::Approx(stt))) = (&l1.sram, &l1.stt) {
                    for e in sram.iter_valid() {
                        // Exact check against the approx store's bookkeeping.
                        let mut s = stt.clone();
                        assert!(
                            s.invalidate(e.line).is_none(),
                            "line {:?} duplicated across banks at cycle {i}",
                            e.line
                        );
                    }
                }
            }
        }
    }
}
