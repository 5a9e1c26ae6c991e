//! # fuse-cache — cache microarchitecture building blocks
//!
//! Structures shared by every L1D configuration in the FUSE reproduction
//! (Zhang, Jung, Kandemir, HPCA 2019):
//!
//! * [`tag_array`] — generic set-associative tag store with pluggable
//!   replacement ([`replacement`]), used for SRAM banks, pure-NVM banks and
//!   the L2 slices.
//! * [`mshr`] — miss-status holding registers with merge and the paper's
//!   extended *destination-bits* field (§IV-A) that routes fills to the
//!   SRAM or STT-MRAM bank.
//! * [`bloom`] / [`nvm_cbf`] — Bloom-filter key derivation and the
//!   STT-MRAM resident counting-Bloom-filter array of §IV-C.
//! * [`approx_assoc`] — the associativity-approximation logic of §III-B:
//!   a fully-associative store searched through per-partition CBFs and a
//!   small number of serialized comparators.
//! * [`swap_buffer`] / [`tag_queue`] — the non-blocking migration machinery
//!   of §IV-A.
//!
//! # Examples
//!
//! ```
//! use fuse_cache::line::LineAddr;
//! use fuse_cache::tag_array::TagArray;
//! use fuse_cache::replacement::PolicyKind;
//!
//! let mut tags = TagArray::new(64, 4, PolicyKind::Lru);
//! let line = LineAddr::from_byte_addr(0x1000);
//! assert!(tags.probe(line).is_none());
//! tags.fill(line, false, 0);
//! assert!(tags.probe(line).is_some());
//! ```

pub mod approx_assoc;
pub mod bloom;
pub mod hash;
pub mod line;
pub mod mshr;
pub mod nvm_cbf;
pub mod replacement;
pub mod stats;
pub mod swap_buffer;
pub mod tag_array;
pub mod tag_queue;

pub use approx_assoc::{ApproxAssocStore, ApproxConfig, ApproxProbe};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use line::{LineAddr, LINE_BYTES, LINE_SHIFT};
pub use mshr::{Mshr, MshrOutcome, MshrTarget};
pub use nvm_cbf::NvmCbfArray;
pub use replacement::PolicyKind;
pub use stats::CacheStats;
pub use swap_buffer::SwapBuffer;
pub use tag_array::{TagArray, TagEntry};
pub use tag_queue::{TagCmd, TagCmdKind, TagQueue};
