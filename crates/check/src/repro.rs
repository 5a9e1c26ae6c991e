//! `.repro` files: a minimized [`FuzzSpec`] as plain `key = value` text,
//! so a divergence the fuzzer found once can be replayed forever from
//! `tests/repros/` without the seed schedule that produced it.
//!
//! The format is deliberately dumb — comments start with `#`, one field
//! per line, unknown keys are errors (a typo must not silently weaken a
//! pin). Example:
//!
//! ```text
//! # fuse-check repro
//! # reason: engines disagree on statistics: cycles ...
//! seed = 42
//! sms = 1
//! warps = 2
//! ops = 4
//! footprint_lines = 1
//! store_pct = 0
//! scatter_pct = 0
//! compute_pct = 0
//! mshr_entries = 2
//! l2_pending = 1
//! dram_queue = 1
//! preset = L1-SRAM
//! max_cycles = 4000000
//! ```

use std::ops::RangeInclusive;

use fuse_core::config::L1Preset;

use crate::fuzz::FuzzSpec;

// Bounds on the sizes a replay builds from: it allocates `sms × warps ×
// ops` warp ops (at most 35 MB per engine), spreads addresses over
// `footprint_lines` lines of 128 B and may tick to `max_cycles`. Each
// admits every generated spec (at most 3 SMs, 8 warps, 24 ops, 512
// lines, 4M cycles) with room to hand-edit, and the shrinker only ever
// lowers a field.
const SMS: RangeInclusive<u64> = 1..=8;
const WARPS: RangeInclusive<u64> = 1..=64;
const OPS: RangeInclusive<u64> = 0..=256;
const FOOTPRINT_LINES: RangeInclusive<u64> = 1..=1 << 32;
const MAX_CYCLES: RangeInclusive<u64> = 0..=16_000_000;
// A structure of zero entries cannot build (an MSHR) or never drains
// (an L2 miss table or DRAM queue retries every request forever).
const CAPACITY: RangeInclusive<u64> = 1..=u64::MAX;

/// Serializes `spec` (with an optional human-readable `reason` header)
/// into the `.repro` text format.
pub fn to_text(spec: &FuzzSpec, reason: Option<&str>) -> String {
    let mut out = String::from("# fuse-check repro\n");
    if let Some(r) = reason {
        for line in r.lines() {
            out.push_str("# reason: ");
            out.push_str(line);
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "seed = {}\nsms = {}\nwarps = {}\nops = {}\nfootprint_lines = {}\n\
         store_pct = {}\nscatter_pct = {}\ncompute_pct = {}\nmshr_entries = {}\n\
         l2_pending = {}\ndram_queue = {}\npreset = {}\nmax_cycles = {}\n",
        spec.seed,
        spec.sms,
        spec.warps,
        spec.ops,
        spec.footprint_lines,
        spec.store_pct,
        spec.scatter_pct,
        spec.compute_pct,
        spec.mshr_entries,
        spec.l2_pending,
        spec.dram_queue,
        spec.preset.name(),
        spec.max_cycles
    ));
    out
}

/// Parses a `.repro` file back into a [`FuzzSpec`].
///
/// # Errors
///
/// Returns a message naming the offending line for unknown keys, bad
/// numbers, sizes outside the bounds a replay can build and drain,
/// percentages above 100, unknown presets, or missing fields.
pub fn from_text(text: &str) -> Result<FuzzSpec, String> {
    // Start from a placeholder and require every field to be present.
    let mut spec = FuzzSpec {
        seed: 0,
        sms: 0,
        warps: 0,
        ops: 0,
        footprint_lines: 0,
        store_pct: 0,
        scatter_pct: 0,
        compute_pct: 0,
        mshr_entries: 0,
        l2_pending: 0,
        dram_queue: 0,
        preset: L1Preset::L1Sram,
        max_cycles: 0,
    };
    let mut seen: Vec<&str> = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`, got {line:?}", ln + 1))?;
        let (key, value) = (key.trim(), value.trim());
        let num = |v: &str| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("line {}: bad number {v:?} for {key}", ln + 1))
        };
        let within = |v: &str, range: RangeInclusive<u64>| -> Result<u64, String> {
            Some(num(v)?)
                .filter(|n| range.contains(n))
                .ok_or_else(|| format!("line {}: {key} {v} is outside {range:?}", ln + 1))
        };
        let pct = |v: &str| -> Result<u8, String> {
            u8::try_from(num(v)?)
                .ok()
                .filter(|p| *p <= 100)
                .ok_or_else(|| format!("line {}: {key} {v} is not a percentage", ln + 1))
        };
        match key {
            "seed" => spec.seed = num(value)?,
            "sms" => spec.sms = within(value, SMS)? as usize,
            "warps" => spec.warps = within(value, WARPS)? as usize,
            "ops" => spec.ops = within(value, OPS)? as usize,
            "footprint_lines" => spec.footprint_lines = within(value, FOOTPRINT_LINES)?,
            "store_pct" => spec.store_pct = pct(value)?,
            "scatter_pct" => spec.scatter_pct = pct(value)?,
            "compute_pct" => spec.compute_pct = pct(value)?,
            "mshr_entries" => spec.mshr_entries = within(value, CAPACITY)? as usize,
            "l2_pending" => spec.l2_pending = within(value, CAPACITY)? as usize,
            "dram_queue" => spec.dram_queue = within(value, CAPACITY)? as usize,
            "max_cycles" => spec.max_cycles = within(value, MAX_CYCLES)?,
            "preset" => {
                spec.preset = L1Preset::ALL
                    .into_iter()
                    .find(|p| p.name() == value)
                    .ok_or_else(|| format!("line {}: unknown preset {value:?}", ln + 1))?;
            }
            other => return Err(format!("line {}: unknown key {other:?}", ln + 1)),
        }
        seen.push(match key {
            "preset" => "preset",
            k => {
                // Borrow a 'static copy of the key name for the
                // missing-field check below.
                const KEYS: [&str; 13] = [
                    "seed",
                    "sms",
                    "warps",
                    "ops",
                    "footprint_lines",
                    "store_pct",
                    "scatter_pct",
                    "compute_pct",
                    "mshr_entries",
                    "l2_pending",
                    "dram_queue",
                    "max_cycles",
                    "preset",
                ];
                KEYS.into_iter().find(|s| *s == k).expect("key was matched")
            }
        });
    }
    for required in [
        "seed",
        "sms",
        "warps",
        "ops",
        "footprint_lines",
        "store_pct",
        "scatter_pct",
        "compute_pct",
        "mshr_entries",
        "l2_pending",
        "dram_queue",
        "preset",
        "max_cycles",
    ] {
        if !seen.contains(&required) {
            return Err(format!("missing field {required:?}"));
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_fuzz_preset() {
        for seed in 0..16 {
            let spec = FuzzSpec::from_seed(seed);
            let text = to_text(&spec, Some("synthetic"));
            let parsed = from_text(&text).expect("round trip");
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_text("seed = x").is_err(), "bad number");
        assert!(from_text("bogus = 1").is_err(), "unknown key");
        assert!(from_text("preset = Nope").is_err(), "unknown preset");
        assert!(
            from_text("seed = 1").unwrap_err().contains("missing field"),
            "incomplete spec"
        );
        assert!(from_text("just words").is_err(), "no assignment");
        // Values that parse as numbers but cannot be replayed: each must
        // be an error naming its line, never a panic in `run_case` or a
        // silent truncation.
        let base = to_text(&FuzzSpec::from_seed(3), None);
        for (key, bad) in [
            ("sms", "0"),
            ("sms", "1000000000"),
            ("warps", "0"),
            ("warps", "70000"),
            ("ops", "1000000000"),
            ("footprint_lines", "0"),
            ("footprint_lines", "18446744073709551615"),
            ("mshr_entries", "0"),
            ("l2_pending", "0"),
            ("dram_queue", "0"),
            ("max_cycles", "18446744073709551615"),
            ("store_pct", "300"),
            ("scatter_pct", "101"),
            ("compute_pct", "256"),
        ] {
            let text: String = base
                .lines()
                .map(|l| match l.split_once(" = ") {
                    Some((k, _)) if k == key => format!("{key} = {bad}\n"),
                    _ => format!("{l}\n"),
                })
                .collect();
            let err = from_text(&text).expect_err(&format!("{key} = {bad} must be rejected"));
            assert!(err.starts_with("line ") && err.contains(key), "got {err:?}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = FuzzSpec::from_seed(5);
        let mut text = String::from("\n# leading comment\n\n");
        text.push_str(&to_text(&spec, Some("multi\nline reason")));
        assert_eq!(from_text(&text).expect("parses"), spec);
    }
}
