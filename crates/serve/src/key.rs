//! Content-addressed cell keys.
//!
//! A [`CellKey`] digests **everything** that can change a cell's
//! simulation outcome: the full workload spec, the full machine
//! configuration, the full L1D configuration, the resolved instruction
//! budget, the engine selection (skip/tick, active set) and the
//! engine's semantic version + feature-flag fingerprint. Two processes,
//! two machines or two months apart, the same inputs derive the same key
//! — and perturbing any single field derives a different one (pinned by
//! this crate's `key_properties` test).
//!
//! # Invalidation contract
//!
//! The canonical text embeds the `Debug` rendering of
//! [`fuse_workloads::spec::WorkloadSpec`], [`fuse_gpu::config::GpuConfig`]
//! and [`fuse_core::config::L1Config`]. `Debug` output is exhaustive for
//! these plain-data structs, so **adding a field to any of them
//! automatically changes every key** — the failure mode is a spurious
//! re-simulation, never a stale hit. Changes that alter engine semantics
//! *without* touching a config struct must bump [`ENGINE_VERSION`]
//! instead; that constant is part of every canonical text, so one bump
//! invalidates the world. Runs with observers attached (profiler, tracer,
//! check oracle) are not representable as keys at all — callers bypass
//! the cache for them.
//!
//! # Collisions
//!
//! The digest is 128 bits of non-cryptographic FNV-1a. Collisions are
//! astronomically unlikely at cache scales (millions of entries), and
//! harmless anyway: every persisted entry stores its full canonical text,
//! and [`crate::store::ResultCache`] treats a text mismatch on lookup as
//! a miss, so a collision costs one re-simulation, never a wrong result.

use fuse_core::config::L1Config;
use fuse_gpu::config::GpuConfig;
use fuse_workloads::spec::WorkloadSpec;

/// Semantic version of the simulation engine, embedded in every cell key.
///
/// **Bump this whenever a change alters simulated statistics** without
/// touching a configuration struct: a scheduler fix, a new DRAM policy, a
/// reordered tick phase. The PR checklist item is one constant edit; the
/// reward is that stale hits across engine revisions are structurally
/// impossible.
pub const ENGINE_VERSION: &str = "fuse-engine-v7";

/// Engine-visible compile-time feature flags, embedded in every key.
///
/// The workspace currently compiles the engine identically under every
/// feature combination (the `proptest` feature only gates test files), so
/// the list is empty — but the slot exists so a future semantics-bearing
/// feature joins the key by adding one string here.
pub const ENGINE_FEATURES: &[&str] = &[];

/// The L1D column of a cell, as a sweep plan describes it.
#[derive(Debug, Clone, Copy)]
pub enum L1Column<'a> {
    /// A named preset. `config` is its resolved Table I configuration,
    /// `None` only for the Oracle preset (which has no finite geometry —
    /// its behaviour is defined entirely by the engine version).
    Preset {
        /// Preset name (e.g. `"Dy-FUSE"`).
        name: &'a str,
        /// Resolved configuration; `None` for Oracle.
        config: Option<&'a L1Config>,
    },
    /// An arbitrary configuration column (ratio sweeps, ablations).
    Custom {
        /// Column label.
        name: &'a str,
        /// The configuration.
        config: &'a L1Config,
    },
}

/// Everything that determines one cell's outcome.
#[derive(Debug, Clone, Copy)]
pub struct KeyParts<'a> {
    /// The workload row.
    pub workload: &'a WorkloadSpec,
    /// The L1D column.
    pub l1: L1Column<'a>,
    /// The machine.
    pub gpu: &'a GpuConfig,
    /// Resolved warp-instruction budget (ops-scale and `FUSE_SCALE`
    /// already applied — the number the generators actually receive).
    pub ops_per_warp: usize,
    /// Hard cycle cap.
    pub max_cycles: u64,
    /// Event-driven cycle skipping on? (Statistics are engine-identical,
    /// but `skipped_cycles` in the recorded result is not, so the key
    /// distinguishes the engines.)
    pub skip: bool,
    /// Active-set tick scheduling on? Statistics are engine-identical
    /// here too, but keying the axis keeps the invalidation contract
    /// structural rather than resting on the equivalence proof.
    pub active_set: bool,
}

/// A derived content digest plus the canonical text it digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    /// 32 lowercase hex characters (128-bit digest) — the on-disk entry
    /// name and the coalescing map key.
    pub hex: String,
    /// The canonical text the digest covers; persisted alongside the
    /// entry and compared on lookup, so digest collisions degrade to
    /// misses instead of wrong results.
    pub text: String,
}

impl CellKey {
    /// Derives the key for `parts`.
    pub fn derive(parts: &KeyParts<'_>) -> CellKey {
        let text = canonical_text(parts);
        CellKey {
            hex: digest_hex(&text),
            text,
        }
    }

    /// The two-character shard prefix of the on-disk layout.
    pub fn shard_prefix(&self) -> &str {
        &self.hex[..2]
    }
}

/// Renders the canonical key text for `parts`.
///
/// One field per line, header first; the config structs are embedded via
/// their exhaustive `Debug` renderings (see the module docs for why that
/// is the safe direction).
pub fn canonical_text(parts: &KeyParts<'_>) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("fuse-cell-key-v2\n");
    s.push_str(&format!("engine={ENGINE_VERSION}\n"));
    s.push_str(&format!("features={}\n", ENGINE_FEATURES.join(",")));
    s.push_str(&format!("skip={}\n", parts.skip));
    s.push_str(&format!("active_set={}\n", parts.active_set));
    s.push_str(&format!("ops_per_warp={}\n", parts.ops_per_warp));
    s.push_str(&format!("max_cycles={}\n", parts.max_cycles));
    s.push_str(&format!("workload={:?}\n", parts.workload));
    s.push_str(&format!("gpu={:?}\n", parts.gpu));
    match parts.l1 {
        L1Column::Preset { name, config } => {
            s.push_str(&format!("l1.kind=preset\nl1.name={name}\n"));
            match config {
                Some(cfg) => s.push_str(&format!("l1.config={cfg:?}\n")),
                None => s.push_str("l1.config=unbounded\n"),
            }
        }
        L1Column::Custom { name, config } => {
            s.push_str(&format!(
                "l1.kind=custom\nl1.name={name}\nl1.config={config:?}\n"
            ));
        }
    }
    s
}

/// FNV-1a offset basis (the standard 64-bit one).
const FNV_OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent starting state for the digest's high half.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a pass over `bytes` from `state`.
pub fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// 128-bit digest of `text` as 32 lowercase hex characters.
///
/// Two FNV-1a lanes from independent offsets; the second lane folds the
/// first lane's result in so the halves do not cancel on related inputs.
pub fn digest_hex(text: &str) -> String {
    let lo = fnv1a64(FNV_OFFSET_A, text.as_bytes());
    let hi = fnv1a64(FNV_OFFSET_B ^ lo.rotate_left(32), text.as_bytes());
    format!("{hi:016x}{lo:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuse_core::config::L1Preset;

    fn parts<'a>(w: &'a WorkloadSpec, gpu: &'a GpuConfig, l1: &'a L1Config) -> KeyParts<'a> {
        KeyParts {
            workload: w,
            l1: L1Column::Preset {
                name: "Dy-FUSE",
                config: Some(l1),
            },
            gpu,
            ops_per_warp: 1000,
            max_cycles: 1_000_000,
            skip: true,
            active_set: true,
        }
    }

    #[test]
    fn digest_is_hex_and_stable_within_a_process() {
        let w = fuse_workloads::by_name("ATAX").unwrap();
        let gpu = GpuConfig::gtx480();
        let l1 = L1Preset::DyFuse.config();
        let a = CellKey::derive(&parts(&w, &gpu, &l1));
        let b = CellKey::derive(&parts(&w, &gpu, &l1));
        assert_eq!(a, b);
        assert_eq!(a.hex.len(), 32);
        assert!(a.hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(a.hex, digest_hex(&a.text));
    }

    #[test]
    fn engine_version_and_every_header_field_reach_the_text() {
        let w = fuse_workloads::by_name("ATAX").unwrap();
        let gpu = GpuConfig::gtx480();
        let l1 = L1Preset::DyFuse.config();
        let k = CellKey::derive(&parts(&w, &gpu, &l1));
        for needle in [
            ENGINE_VERSION,
            "skip=true",
            "active_set=true",
            "ops_per_warp=1000",
            "max_cycles=1000000",
            "l1.name=Dy-FUSE",
        ] {
            assert!(k.text.contains(needle), "missing {needle:?}");
        }
    }

    /// Cross-process pin of the digest function itself. The expected
    /// values were computed by an independent FNV-1a implementation, so
    /// this fails if the hash ever drifts between builds — which would
    /// silently invalidate every persisted cache entry. A deliberate
    /// change must bump the key header version, not edit these strings.
    #[test]
    fn digest_values_are_pinned_across_processes() {
        assert_eq!(digest_hex(""), "e840040bcc499da6cbf29ce484222325");
        let probe =
            "fuse-cell-key-v1\nengine=fuse-engine-v7\nfeatures=\ngolden probe: do not change\n";
        assert_eq!(digest_hex(probe), "e2410510ec9d0969d5937c07b122c5c9");
    }

    #[test]
    fn oracle_column_has_no_finite_config() {
        let w = fuse_workloads::by_name("ATAX").unwrap();
        let gpu = GpuConfig::gtx480();
        let l1 = L1Preset::DyFuse.config();
        let mut p = parts(&w, &gpu, &l1);
        p.l1 = L1Column::Preset {
            name: "Oracle",
            config: None,
        };
        let k = CellKey::derive(&p);
        assert!(k.text.contains("l1.config=unbounded"));
    }
}
