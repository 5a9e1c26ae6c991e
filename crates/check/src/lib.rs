//! `fuse-check` — lockstep reference-model oracle for the FUSE engine.
//!
//! The optimized engine in `fuse-gpu` earns its speed from intrusive
//! bookkeeping: slab-allocated request ids, pooled MSHR target lists,
//! waiter chains threaded through a shared arena, and an event-driven
//! skip engine that fast-forwards dead cycles. Each of those tricks is a
//! place a subtle bug can hide while every aggregate statistic still
//! looks plausible. This crate is the antidote: a deliberately simple,
//! allocation-unconstrained *functional* model of the memory hierarchy
//! that runs in lockstep with the real engine (attached as a
//! [`fuse_gpu::check::CheckSink`]) and cross-checks what the engine
//! claims against what the protocol allows.
//!
//! Three layers, from cheapest to most thorough:
//!
//! * [`oracle::Oracle`] — consumes the engine's event stream and checks
//!   conservation (every tracked read retires exactly once, write-through
//!   injection balances delivery), ordering (inject → deliver → L2 →
//!   respond with interconnect and L2 latency lower bounds), DRAM timing
//!   legality (tCL/tRCD/tRP/tRAS lower bounds, bus serialization), and
//!   skip-engine exactness (fast-forwards land on states the tick engine
//!   would reach; DRAM completions are collected at exactly
//!   `finished_at`).
//! * [`lockstep`] — runs the same system twice, skip engine vs. tick
//!   engine, with an oracle attached to each, and diffs the two event
//!   streams and the final statistics bitwise.
//! * [`fuzz`] + [`shrink`](mod@shrink) + [`repro`] — a seeded random-trace fuzzer
//!   over small adversarial machines (tiny MSHRs, single-entry L2 miss
//!   tables, starved DRAM queues), a greedy spec shrinker that minimizes
//!   any divergence, and a text repro format so minimized cases can be
//!   pinned under `tests/repros/`.
//!
//! The model is intentionally *not* cycle-accurate: it never predicts
//! when something happens, only whether what did happen was legal. That
//! keeps it simple enough to trust while still catching the bug classes
//! that matter (double retirement, lost requests, skip overshoot,
//! impossible DRAM timings, leaked pool entries).

pub mod fuzz;
pub mod lockstep;
pub mod oracle;
pub mod repro;
pub mod shrink;

pub use fuzz::{run_case, FuzzSpec};
pub use lockstep::{run_lockstep, LockstepReport};
pub use oracle::Oracle;
pub use shrink::shrink;
