//! Counting global allocator: the allocation-budget harness.
//!
//! The cycle engine's performance contract (DESIGN.md §3d) is that the
//! steady-state hot loop performs **zero** heap operations — everything
//! per-cycle runs out of recycled scratch buffers, slabs and inline
//! arrays. [`CountingAlloc`] wraps the system allocator with relaxed
//! atomic counters so a test or bench can *prove* that, instead of
//! trusting code review:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: fuse_bench::alloc::CountingAlloc = fuse_bench::alloc::CountingAlloc;
//!
//! let before = fuse_bench::alloc::allocations();
//! run_hot_loop();
//! assert_eq!(fuse_bench::alloc::allocations() - before, 0);
//! ```
//!
//! `#[global_allocator]` must be declared in the *binary* crate, so the
//! wrapper lives here and each harness (`benches/alloc_budget.rs`,
//! `tests/alloc_budget.rs`) installs it itself. Counters are global and
//! process-wide: measure on a single thread with no concurrent tests in
//! the same process, or deltas will include foreign allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fuse::core::config::L1Preset;
use fuse::gpu::config::GpuConfig;
use fuse::gpu::system::GpuSystem;
use fuse::gpu::warp::{MemOp, WarpOp, WarpProgram};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator counting every `alloc` and growing
/// `realloc` (shrinks and frees are not new heap traffic).
pub struct CountingAlloc;

// SAFETY: defers every operation to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps atomic counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap operations (allocations + growing reallocations) since process
/// start. Meaningful only when [`CountingAlloc`] is installed as the
/// `#[global_allocator]`; returns 0 otherwise.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocation delta across `f`, plus its return value.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let value = f();
    (allocations() - before, value)
}

/// A never-retiring warp stream sweeping a shared working set — the
/// canonical steady-state scenario both allocation harnesses measure.
///
/// Every op touches exactly one 128 B line (32 consecutive 4-byte lanes);
/// one op in 16 is a store, so the write-through and dirty-line paths stay
/// exercised. The sweep covers [`WORKING_SET_LINES`] lines: 8× the 32 KB
/// L1-SRAM (permanent thrash — every structure from the coalescer to the
/// MSHRs and the interconnect keeps working) yet only a third of the
/// GTX480-class 768 KB L2, so after one cold pass the traffic settles into
/// a repeating L1-miss/L2-hit rhythm with every buffer, slab and map at
/// its high-water mark. Per-warp offsets stagger the sweeps so requests
/// interleave rather than march in lockstep.
#[derive(Debug)]
pub struct SteadyLoop {
    next: u64,
    offset: u64,
}

/// Lines in the [`SteadyLoop`] working set (× 128 B = 256 KB).
pub const WORKING_SET_LINES: u64 = 2048;

const STEADY_BASE: u64 = 0x4000_0000;

impl SteadyLoop {
    /// The stream for warp `warp` of SM `sm`.
    pub fn new(sm: usize, warp: u16) -> Self {
        SteadyLoop {
            next: 0,
            offset: (sm as u64 * 97 + warp as u64 * 31) % WORKING_SET_LINES,
        }
    }
}

impl WarpProgram for SteadyLoop {
    fn next_op(&mut self) -> Option<WarpOp> {
        let i = self.next;
        self.next += 1;
        let line = (self.offset + i) % WORKING_SET_LINES;
        let base = STEADY_BASE + line * 128;
        let is_store = i % 16 == 7;
        Some(WarpOp::Mem(MemOp::strided(
            if is_store { 0x48 } else { 0x40 },
            is_store,
            base,
            4,
            32,
        )))
    }
}

/// A small GTX480-class machine (2 SMs × 8 warps) running [`SteadyLoop`]
/// streams against `preset`'s L1D. Warps never retire, so
/// [`GpuSystem::run`]'s cycle cap bounds each measurement window and the
/// system can be re-`run` to extend it.
pub fn steady_state_system(preset: L1Preset) -> GpuSystem {
    let cfg = GpuConfig {
        num_sms: 2,
        warps_per_sm: 8,
        ..GpuConfig::gtx480()
    };
    GpuSystem::new(
        cfg,
        |_| preset.build_model(),
        |sm, warp| Box::new(SteadyLoop::new(sm, warp)),
    )
}

/// Runs [`steady_state_system`] for `warmup` cycles, then measures the
/// allocation delta over the next `measure` cycles. Returns
/// `(allocations, cycles_measured)` — `(0, _)` is the §3d contract.
pub fn steady_state_delta(preset: L1Preset, warmup: u64, measure: u64) -> (u64, u64) {
    let mut sys = steady_state_system(preset);
    sys.run(warmup);
    let start_cycle = sys.stats().cycles;
    let (delta, stats) = count_allocations(|| sys.run(warmup + measure));
    (delta, stats.cycles - start_cycle)
}
