//! # fuse-serve — content-addressed result cache and batch service
//!
//! Design-space exploration is dominated by *repeated, overlapping*
//! configurations: a ratio sweep shares its baseline column with every
//! other figure, a re-run after an unrelated code change repeats the whole
//! grid, and a long-running exploration service sees the same popular
//! cells thousands of times. Every simulation cell in this workspace is a
//! deterministic pure function of its full configuration, so each result
//! only ever needs to be computed **once**.
//!
//! This crate provides the machinery that makes cache hits skip the
//! engine entirely (DESIGN.md §3h):
//!
//! * [`key`] — [`key::CellKey`]: a content digest over (workload spec,
//!   machine config, L1 configuration, engine version, budget). Any field change invalidates; nothing else does — the
//!   engine selection included, since both engines produce the same
//!   record.
//! * [`record`] — [`record::CellRecord`]: the engine-independent outcome
//!   of one cell ([`fuse_gpu::stats::SimStats`], controller metrics,
//!   energy breakdown) with a versioned, checksummed text serialisation.
//! * [`store`] — [`store::ResultCache`]: an in-memory + persisted-on-disk
//!   cache with LRU byte-budget eviction and corrupt-entry quarantine.
//! * [`server`] — the `fusesim serve` front-end: a bounded job queue and
//!   worker pool behind Unix-socket and TCP listeners, with request
//!   coalescing (two in-flight requests for the same [`key::CellKey`]
//!   share one simulation), shared-token authentication, per-connection
//!   deadlines, `BUSY` load shedding and panic-isolated workers.
//! * [`transport`] — [`transport::Endpoint`] / [`transport::Listener`] /
//!   [`transport::Conn`]: one address-and-stream surface over both
//!   transports, including the shutdown self-wake.
//! * [`auth`] — constant-time shared-token comparison for the `AUTH`
//!   protocol line.
//! * [`proto`] — the line-based wire protocol shared by server and
//!   client.
//! * [`client`] — the dialing side ([`client::request`]): retries with
//!   exponential backoff, honors `BUSY retry-after`, treats auth
//!   rejection as fatal.
//!
//! The crate deliberately knows nothing about *how* a cell is simulated:
//! callers inject that through [`server::CellBackend`] (the `fusesim`
//! binary wires it to the experiment runner), which keeps the dependency
//! graph acyclic — the umbrella `fuse` crate consumes this one.

pub mod auth;
pub mod client;
pub mod key;
pub mod proto;
pub mod record;
pub mod server;
pub mod store;
pub mod transport;

pub use client::ClientConfig;
pub use key::{CellKey, KeyParts, ENGINE_VERSION};
pub use record::CellRecord;
pub use server::{CellBackend, ServeOptions, Server, ServerConfig};
pub use store::{CacheStatsSnapshot, ResultCache, VerifyOutcome};
pub use transport::{Conn, Endpoint, Listener};
