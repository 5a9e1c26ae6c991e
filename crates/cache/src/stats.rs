//! Cache statistics common to every bank and level.

/// Hit/miss/traffic counters for one cache structure.
///
/// # Examples
///
/// ```
/// use fuse_cache::stats::CacheStats;
/// let mut s = CacheStats::default();
/// s.hits = 3;
/// s.misses = 1;
/// assert_eq!(s.accesses(), 4);
/// assert_eq!(s.miss_rate(), 0.25);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed (primary misses only; merges are hits on
    /// the MSHR, tracked separately).
    pub misses: u64,
    /// Secondary misses merged into an outstanding MSHR entry.
    pub mshr_merges: u64,
    /// Accesses rejected for structural reasons (MSHR full, bank busy,
    /// queue full); the warp retries.
    pub reservation_fails: u64,
    /// Dirty evictions written back to the next level.
    pub writebacks: u64,
    /// Accesses bypassed around this cache (WORO / dead-write prediction).
    pub bypasses: u64,
}

impl CacheStats {
    /// Demand accesses (hits + primary misses + merges).
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.mshr_merges
    }

    /// Miss rate over demand accesses; merges count as misses from the
    /// core's perspective (they still wait for the fill), matching how
    /// GPGPU-Sim reports L1D miss rate.
    ///
    /// Returns 0 when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        let acc = self.accesses();
        if acc == 0 {
            0.0
        } else {
            (self.misses + self.mshr_merges) as f64 / acc as f64
        }
    }

    /// Hit rate complement of [`CacheStats::miss_rate`].
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            1.0 - self.miss_rate()
        }
    }

    /// Element-wise accumulation (for summing per-SM stats).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.mshr_merges += other.mshr_merges;
        self.reservation_fails += other.reservation_fails;
        self.writebacks += other.writebacks;
        self.bypasses += other.bypasses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn merges_count_as_misses_for_rate() {
        let s = CacheStats {
            hits: 2,
            misses: 1,
            mshr_merges: 1,
            ..CacheStats::default()
        };
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.miss_rate(), 0.5);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = CacheStats {
            hits: 1,
            ..CacheStats::default()
        };
        let b = CacheStats {
            hits: 2,
            writebacks: 3,
            bypasses: 4,
            ..CacheStats::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 3);
        assert_eq!(a.writebacks, 3);
        assert_eq!(a.bypasses, 4);
    }
}
