//! Warp instruction streams.
//!
//! Warps execute [`WarpOp`]s produced lazily by a [`WarpProgram`], so a
//! billion-instruction workload never materialises in memory. Memory
//! operations carry the raw 32-lane byte addresses; the SM's coalescer
//! ([`crate::coalesce`]) folds them into line requests exactly as the
//! hardware would.

/// One warp-level memory instruction: up to 32 lane addresses plus the PC
/// that issued it (the PC feeds the read-level predictor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemOp {
    /// Program counter of the static instruction.
    pub pc: u32,
    /// True for stores.
    pub is_store: bool,
    /// Byte address accessed by each active lane.
    pub lanes: [u64; 32],
    /// Number of active lanes (1..=32).
    pub active: u8,
}

impl MemOp {
    /// A fully-coalesced access: `active` lanes reading consecutive
    /// `elem_bytes` elements starting at `base` — the common regular GPU
    /// pattern (one or two 128 B lines per warp).
    ///
    /// # Panics
    ///
    /// Panics if `active` is 0 or exceeds 32, or `elem_bytes` is 0.
    pub fn strided(pc: u32, is_store: bool, base: u64, elem_bytes: u64, active: u8) -> Self {
        assert!((1..=32).contains(&active), "active lanes must be 1..=32");
        assert!(elem_bytes > 0, "element size must be non-zero");
        let mut lanes = [0u64; 32];
        for (i, lane) in lanes.iter_mut().enumerate().take(active as usize) {
            *lane = base + i as u64 * elem_bytes;
        }
        MemOp {
            pc,
            is_store,
            lanes,
            active,
        }
    }

    /// A scattered access: every active lane supplies its own address
    /// (irregular workloads — ATAX, BICG, Mars — produce these).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or longer than 32.
    pub fn scattered(pc: u32, is_store: bool, addrs: &[u64]) -> Self {
        assert!(
            (1..=32).contains(&addrs.len()),
            "1..=32 lane addresses required"
        );
        let mut lanes = [0u64; 32];
        lanes[..addrs.len()].copy_from_slice(addrs);
        MemOp {
            pc,
            is_store,
            lanes,
            active: addrs.len() as u8,
        }
    }

    /// The active lane addresses.
    pub fn active_lanes(&self) -> &[u64] {
        &self.lanes[..self.active as usize]
    }
}

/// One warp instruction.
// `Mem` keeps the 32 per-lane addresses inline: a `WarpOp` lives on the
// generator hot path, and boxing would cost a heap round-trip per issued
// memory instruction.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpOp {
    /// A non-memory instruction occupying the warp for `cycles` cycles
    /// (issue takes one; `cycles > 1` models long-latency ALU chains).
    Compute {
        /// Cycles before the warp can issue again (≥ 1).
        cycles: u8,
    },
    /// A memory instruction.
    Mem(MemOp),
}

/// Lazily yields a warp's instruction stream.
///
/// Implementations must be deterministic: the simulator may interleave
/// calls across warps arbitrarily, but each warp's own sequence must be a
/// pure function of its constructor inputs (reproducibility of every
/// figure depends on it).
/// `Send` is a supertrait so SMs (which own their warp programs), and
/// with them a whole [`crate::system::GpuSystem`], can move between
/// threads. Program generators are pure owned state, so the bound is free
/// in practice.
pub trait WarpProgram: Send {
    /// The next instruction, or `None` when the warp has retired.
    fn next_op(&mut self) -> Option<WarpOp>;
}

/// A trivial [`WarpProgram`] over a pre-built vector — handy for tests and
/// examples; real workloads use the generators in `fuse-workloads`.
///
/// # Examples
///
/// ```
/// use fuse_gpu::warp::{StreamProgram, WarpOp, WarpProgram};
/// let mut p = StreamProgram::new(vec![WarpOp::Compute { cycles: 1 }]);
/// assert!(p.next_op().is_some());
/// assert!(p.next_op().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct StreamProgram {
    ops: std::vec::IntoIter<WarpOp>,
}

impl StreamProgram {
    /// Wraps a prepared op list.
    pub fn new(ops: Vec<WarpOp>) -> Self {
        StreamProgram {
            ops: ops.into_iter(),
        }
    }
}

impl WarpProgram for StreamProgram {
    fn next_op(&mut self) -> Option<WarpOp> {
        self.ops.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_lanes_are_consecutive() {
        let op = MemOp::strided(0x40, false, 1000, 4, 32);
        assert_eq!(op.active_lanes().len(), 32);
        assert_eq!(op.lanes[0], 1000);
        assert_eq!(op.lanes[31], 1000 + 31 * 4);
    }

    #[test]
    fn scattered_preserves_addresses() {
        let op = MemOp::scattered(0x44, true, &[5, 10, 15]);
        assert_eq!(op.active, 3);
        assert_eq!(op.active_lanes(), &[5, 10, 15]);
        assert!(op.is_store);
    }

    #[test]
    fn stream_program_drains_in_order() {
        let ops = vec![
            WarpOp::Compute { cycles: 2 },
            WarpOp::Mem(MemOp::strided(0, false, 0, 4, 1)),
        ];
        let mut p = StreamProgram::new(ops.clone());
        assert_eq!(p.next_op(), Some(ops[0].clone()));
        assert_eq!(p.next_op(), Some(ops[1].clone()));
        assert_eq!(p.next_op(), None);
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn zero_active_lanes_rejected() {
        let _ = MemOp::strided(0, false, 0, 4, 0);
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn oversized_scatter_rejected() {
        let addrs = [0u64; 33];
        let _ = MemOp::scattered(0, false, &addrs);
    }
}
