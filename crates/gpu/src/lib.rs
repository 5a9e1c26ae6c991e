//! # fuse-gpu — cycle-driven GPU memory-hierarchy simulator
//!
//! The GPGPU-Sim stand-in for the FUSE reproduction (Zhang, Jung, Kandemir,
//! HPCA 2019). It models the parts of the GPU the paper's evaluation is
//! sensitive to:
//!
//! * [`sm`] — streaming multiprocessors issuing one warp instruction per
//!   cycle from lazily generated per-warp programs ([`warp`]), with memory
//!   coalescing ([`coalesce`]) and precise per-warp blocking on outstanding
//!   loads;
//! * [`l1d`] — the [`l1d::L1dModel`] trait every L1D configuration
//!   implements (the FUSE controller lives in `fuse-core`), plus the
//!   infinite "Oracle" cache of Fig. 3;
//! * [`icnt`] — a bandwidth- and latency-modelled interconnect carrying
//!   requests to the shared L2 slices and fills back (this is where the
//!   paper's "outgoing memory references" are counted);
//! * [`l2`] — banked, set-associative, write-back L2;
//! * DRAM — re-exported from `fuse-mem` ([`fuse_mem::dram`]);
//! * [`system`] — the engine wiring everything together, with the off-chip
//!   residency decomposition needed for Fig. 1.
//!
//! The compute pipeline is deliberately abstract (1 warp-instruction issue
//! per SM per cycle, no intra-warp dependency stalls): every figure in the
//! paper compares L1D organisations against each other, and that relative
//! comparison is driven by memory behaviour, which this engine models in
//! detail. See DESIGN.md §5 for the fidelity argument.
//!
//! # Examples
//!
//! ```
//! use fuse_gpu::config::GpuConfig;
//! use fuse_gpu::system::GpuSystem;
//! use fuse_gpu::l1d::IdealL1;
//! use fuse_gpu::warp::{StreamProgram, WarpOp, MemOp};
//!
//! // Two warps streaming over a small array through an ideal L1.
//! let cfg = GpuConfig { num_sms: 1, warps_per_sm: 2, ..GpuConfig::gtx480() };
//! let mut sys = GpuSystem::new(
//!     cfg,
//!     |_| Box::new(IdealL1::new()),
//!     |sm, warp| {
//!         let base = (sm * 2 + warp as usize) as u64 * 4096;
//!         let ops: Vec<WarpOp> = (0..8)
//!             .map(|i| WarpOp::Mem(MemOp::strided(0x100, false, base + i * 128, 4, 32)))
//!             .collect();
//!         Box::new(StreamProgram::new(ops))
//!     },
//! );
//! let stats = sys.run(100_000);
//! assert!(stats.instructions > 0);
//! ```

pub mod check;
pub mod coalesce;
pub mod config;
pub mod convert;
pub mod icnt;
pub mod l1d;
pub mod l2;
pub mod slab;
pub mod sm;
pub mod stats;
pub mod system;
pub mod warp;

pub use check::{CheckEvent, CheckSink};
pub use config::GpuConfig;
pub use l1d::{IdealL1, L1Access, L1Outcome, L1Response, L1dModel, OutgoingKind, OutgoingReq};
pub use stats::SimStats;
pub use system::GpuSystem;
pub use warp::{MemOp, StreamProgram, WarpOp, WarpProgram};
