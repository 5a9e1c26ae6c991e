//! Replacement policies.
//!
//! The paper uses LRU in SRAM banks and the L2 (GPGPU-Sim defaults) and FIFO
//! in the STT-MRAM bank, because "the circuit complexity of LRU is not
//! affordable in a full-associative cache" (§V).

/// Which replacement policy a [`ReplState`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// True least-recently-used (recency stamps).
    #[default]
    Lru,
    /// First-in first-out (insertion stamps, untouched by hits).
    Fifo,
}

/// Per-set replacement state for one of the [`PolicyKind`]s.
///
/// The state tracks `ways` slots identified by their way index. Victim
/// selection prefers invalid ways (tracked by the caller through
/// [`ReplState::on_fill`] / the `occupied` mask).
#[derive(Debug, Clone)]
pub struct ReplState {
    kind: PolicyKind,
    /// Recency (Lru) or insertion (Fifo) stamps.
    stamps: Vec<u64>,
    clock: u64,
}

impl ReplState {
    /// Creates state for a set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn new(kind: PolicyKind, ways: usize) -> Self {
        assert!(ways > 0, "a set must have at least one way");
        ReplState {
            kind,
            stamps: vec![0; ways],
            clock: 0,
        }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.stamps.len()
    }

    /// Records a hit on `way` (hits do not refresh FIFO order).
    pub fn on_access(&mut self, way: usize) {
        if self.kind == PolicyKind::Lru {
            self.on_fill(way);
        }
    }

    /// Records a fill into `way` (insertion).
    pub fn on_fill(&mut self, way: usize) {
        self.clock += 1;
        self.stamps[way] = self.clock;
    }

    /// Picks the victim way among the occupied ways (`occupied[w]` true means
    /// way `w` holds a valid line). Invalid ways are always preferred.
    pub fn victim(&self, occupied: &[bool]) -> usize {
        debug_assert_eq!(occupied.len(), self.ways());
        if let Some(w) = occupied.iter().position(|o| !o) {
            return w;
        }
        self.stamps
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| **s)
            .map(|(w, _)| w)
            .expect("set has at least one way")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut s = ReplState::new(PolicyKind::Lru, 4);
        let occ = [true; 4];
        for w in 0..4 {
            s.on_fill(w);
        }
        s.on_access(0); // 1 is now the LRU
        assert_eq!(s.victim(&occ), 1);
        s.on_access(1);
        assert_eq!(s.victim(&occ), 2);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut s = ReplState::new(PolicyKind::Fifo, 4);
        let occ = [true; 4];
        for w in 0..4 {
            s.on_fill(w);
        }
        s.on_access(0);
        s.on_access(0);
        assert_eq!(
            s.victim(&occ),
            0,
            "FIFO must evict the oldest fill despite hits"
        );
        s.on_fill(0);
        assert_eq!(s.victim(&occ), 1);
    }

    #[test]
    fn invalid_ways_always_win() {
        let mut s = ReplState::new(PolicyKind::Lru, 4);
        s.on_fill(0);
        s.on_fill(1);
        let occ = [true, true, false, true];
        assert_eq!(s.victim(&occ), 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_rejected() {
        let _ = ReplState::new(PolicyKind::Lru, 0);
    }
}
