//! FUSE-specific L1D metrics (Figs. 15, 16, 20 and Table II).

use fuse_cache::nvm_cbf::CbfStats;
use fuse_predict::read_level::AccuracyTracker;

/// Controller-level event counters beyond plain hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct L1Metrics {
    /// Accesses rejected because the STT bank was busy writing — the
    /// paper's "STT-MRAM stall" (Fig. 15). Dominant in blocking `Hybrid`.
    pub stt_busy_rejections: u64,
    /// Accesses rejected because the tag queue was full — the paper's
    /// "tag search stall" (Fig. 15). Only the approximate organisations
    /// generate these.
    pub tag_queue_full_rejections: u64,
    /// Total serialized tag-search cycles spent by the approximation logic.
    pub tag_search_cycles: u64,
    /// Approximate probes performed.
    pub tag_searches: u64,
    /// SRAM → STT victim migrations (through the swap buffer when
    /// non-blocking).
    pub migrations_to_stt: u64,
    /// STT → SRAM migrations on write-hit mispredictions (Dy-FUSE).
    pub migrations_to_sram: u64,
    /// SRAM victims sent straight to L2 because the predictor said WORO.
    pub woro_evictions: u64,
    /// In-place STT data writes (write update after a misprediction) —
    /// each one flushes the tag queue (§IV-A, ~7% of requests).
    pub stt_write_updates: u64,
    /// Tag-queue flush events.
    pub tq_flushes: u64,
    /// Demand loads bypassed around the L1 (WORO / dead-fill).
    pub bypassed_loads: u64,
    /// Demand stores bypassed (written through to L2).
    pub bypassed_stores: u64,
    /// Read-level prediction grades (Fig. 16).
    pub accuracy: AccuracyTracker,
    /// CBF statistics (Fig. 20), captured from the approximate store.
    pub cbf: CbfStats,
    /// Refresh bursts performed (eDRAM discussion configuration only).
    pub refresh_events: u64,
}

impl L1Metrics {
    /// Mean tag-search latency of the approximation logic, cycles
    /// (the paper observes 1–2).
    pub fn avg_tag_search_cycles(&self) -> f64 {
        if self.tag_searches == 0 {
            0.0
        } else {
            self.tag_search_cycles as f64 / self.tag_searches as f64
        }
    }

    /// Total stall-causing rejections, by the paper's two classes.
    pub fn stall_events(&self) -> (u64, u64) {
        (self.stt_busy_rejections, self.tag_queue_full_rejections)
    }

    /// Element-wise accumulation (summing per-SM metrics).
    pub fn merge(&mut self, other: &L1Metrics) {
        self.stt_busy_rejections += other.stt_busy_rejections;
        self.tag_queue_full_rejections += other.tag_queue_full_rejections;
        self.tag_search_cycles += other.tag_search_cycles;
        self.tag_searches += other.tag_searches;
        self.migrations_to_stt += other.migrations_to_stt;
        self.migrations_to_sram += other.migrations_to_sram;
        self.woro_evictions += other.woro_evictions;
        self.stt_write_updates += other.stt_write_updates;
        self.tq_flushes += other.tq_flushes;
        self.bypassed_loads += other.bypassed_loads;
        self.bypassed_stores += other.bypassed_stores;
        self.accuracy.merge(&other.accuracy);
        self.refresh_events += other.refresh_events;
        self.cbf.tests += other.cbf.tests;
        self.cbf.positives += other.cbf.positives;
        self.cbf.false_positives += other.cbf.false_positives;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_predict::class::ReadLevel;

    #[test]
    fn avg_search_cycles() {
        let mut m = L1Metrics::default();
        assert_eq!(m.avg_tag_search_cycles(), 0.0);
        m.tag_searches = 4;
        m.tag_search_cycles = 6;
        assert!((m.avg_tag_search_cycles() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = L1Metrics::default();
        let mut b = L1Metrics {
            stt_busy_rejections: 2,
            tag_queue_full_rejections: 3,
            migrations_to_stt: 4,
            ..L1Metrics::default()
        };
        b.accuracy.record(ReadLevel::Worm, 1);
        b.cbf.tests = 7;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.stt_busy_rejections, 4);
        assert_eq!(a.tag_queue_full_rejections, 6);
        assert_eq!(a.migrations_to_stt, 8);
        assert_eq!(a.accuracy.trues, 2);
        assert_eq!(a.cbf.tests, 14);
        assert_eq!(a.stall_events(), (4, 6));
    }
}
