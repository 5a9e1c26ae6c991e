//! # fuse — reproduction of *FUSE: Fusing STT-MRAM into GPUs to Alleviate
//! Off-Chip Memory Access Overheads* (Zhang, Jung, Kandemir — HPCA 2019)
//!
//! This umbrella crate ties the workspace together and provides the
//! experiment [`runner`] used by every example, integration test and
//! figure-regeneration bench:
//!
//! * [`mem`] ([`fuse_mem`]) — SRAM/STT-MRAM technology tables, energy and
//!   area models, DRAM timing;
//! * [`cache`] ([`fuse_cache`]) — tag arrays, MSHRs, counting Bloom
//!   filters, the associativity-approximation store, swap buffer and tag
//!   queue;
//! * [`predict`] ([`fuse_predict`]) — the read-level predictor and the
//!   DASCA-style dead-write predictor;
//! * [`gpu`] ([`fuse_gpu`]) — the cycle-driven GPU memory-hierarchy
//!   simulator (SMs, interconnect, L2, DRAM);
//! * [`obs`] ([`fuse_obs`]) — opt-in observability: the windowed
//!   cycle-attribution profiler and the Chrome-trace event tracer;
//! * [`core`] ([`fuse_core`]) — the FUSE L1D controller and all of Table
//!   I's L1D configurations;
//! * [`workloads`] ([`fuse_workloads`]) — the 21 calibrated synthetic
//!   benchmarks of Table II;
//! * [`check`] ([`fuse_check`]) — the lockstep reference-model oracle,
//!   differential fuzzer and trace shrinker behind `fusesim check`;
//! * [`serve`] ([`fuse_serve`]) — the content-addressed result cache and
//!   the batch simulation service behind `fusesim serve` (DESIGN.md §3h).
//!
//! # Quickstart
//!
//! Compare Dy-FUSE against the SRAM baseline on an irregular workload:
//!
//! ```
//! use fuse::runner::{run_workload, RunConfig};
//! use fuse::core::config::L1Preset;
//! use fuse::workloads::by_name;
//!
//! let cfg = RunConfig::smoke(); // tiny budget for doctests
//! let atax = by_name("ATAX").unwrap();
//! let base = run_workload(&atax, L1Preset::L1Sram, &cfg);
//! let fuse = run_workload(&atax, L1Preset::DyFuse, &cfg);
//! assert!(base.sim.instructions == fuse.sim.instructions);
//! println!("speedup: {:.2}x", fuse.ipc() / base.ipc());
//! ```

pub use fuse_cache as cache;
pub use fuse_check as check;
pub use fuse_core as core;
pub use fuse_gpu as gpu;
pub use fuse_mem as mem;
pub use fuse_obs as obs;
pub use fuse_predict as predict;
pub use fuse_serve as serve;
pub use fuse_workloads as workloads;

pub mod runner;
pub mod sweep;

pub use runner::{
    geomean, lockstep_workload, preset_by_name, run_l1_config, run_workload, RunConfig, RunResult,
    ServeBackend,
};
pub use sweep::{SweepCell, SweepConfig, SweepPlan, SweepReport};
