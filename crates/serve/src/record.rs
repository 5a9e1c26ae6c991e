//! Persisted cell results.
//!
//! A [`CellRecord`] is the engine-independent outcome of one simulation
//! cell — exactly the payload an experiment needs to render a figure row
//! without touching the engine: the full [`SimStats`], the summed FUSE
//! controller metrics and the evaluated energy breakdown. Engine
//! telemetry (skipped cycles, dispatch counts) is not recorded: the
//! event engine and the always-tick reference produce the same record.
//!
//! The record holds no labels: a cell is keyed by its configuration, and
//! one configuration may be a column under several names, so each reader
//! labels the record with its own row and column.
//!
//! # On-disk format (`fuse-cell-record-v4`)
//!
//! A single UTF-8 text file:
//!
//! ```text
//! fuse-cell-record-v4
//! key=<32 hex digest>
//! keytext=<byte length N>
//! <N bytes of canonical key text (multi-line)>
//! sim.cycles=456
//! ...one line per statistic field...
//! energy.l2_nj=0x40a3880000000000
//! checksum=<16 hex FNV-1a of everything above>
//! ```
//!
//! Integer fields serialise in decimal; floating-point fields serialise
//! as IEEE-754 bit patterns (`0x…`) so a parse → serialize round trip is
//! **byte-exact** — the property the warm-sweep byte-identity guarantee
//! rests on. The trailing checksum plus the embedded key text let
//! [`crate::store::ResultCache`] detect truncation, bit rot and digest
//! collisions, quarantining the entry instead of returning a wrong
//! result (or panicking).
//!
//! The field lists are single-sourced through the `with_*_fields!`
//! macros, so the writer and the parser cannot drift apart — a field
//! added to one direction is added to both or fails to compile.

use fuse_core::metrics::L1Metrics;
use fuse_gpu::stats::SimStats;
use fuse_mem::energy::EnergyBreakdown;

use crate::key::{fnv1a64, CellKey};

/// Format tag at the top of every entry file. Bump on any layout change;
/// old-version files parse as corrupt and are quarantined, never
/// misinterpreted.
pub const RECORD_FORMAT: &str = "fuse-cell-record-v4";

/// The recorded outcome of one simulation cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellRecord {
    /// Engine statistics.
    pub sim: SimStats,
    /// FUSE controller metrics summed over SMs.
    pub metrics: L1Metrics,
    /// Evaluated energy breakdown.
    pub energy: EnergyBreakdown,
}

/// Applies `$op!(ctx…, "name", field.path)` to every integer-valued
/// statistic field of a [`CellRecord`].
macro_rules! with_int_fields {
    ($op:ident, $($ctx:tt)*) => {
        $op!($($ctx)*, "sim.cycles", sim, cycles);
        $op!($($ctx)*, "sim.instructions", sim, instructions);
        $op!($($ctx)*, "sim.l1.hits", sim, l1, hits);
        $op!($($ctx)*, "sim.l1.misses", sim, l1, misses);
        $op!($($ctx)*, "sim.l1.mshr_merges", sim, l1, mshr_merges);
        $op!($($ctx)*, "sim.l1.reservation_fails", sim, l1, reservation_fails);
        $op!($($ctx)*, "sim.l1.writebacks", sim, l1, writebacks);
        $op!($($ctx)*, "sim.l1.bypasses", sim, l1, bypasses);
        $op!($($ctx)*, "sim.l2.hits", sim, l2, hits);
        $op!($($ctx)*, "sim.l2.misses", sim, l2, misses);
        $op!($($ctx)*, "sim.l2.mshr_merges", sim, l2, mshr_merges);
        $op!($($ctx)*, "sim.l2.reservation_fails", sim, l2, reservation_fails);
        $op!($($ctx)*, "sim.l2.writebacks", sim, l2, writebacks);
        $op!($($ctx)*, "sim.l2.bypasses", sim, l2, bypasses);
        $op!($($ctx)*, "sim.sm.instructions", sim, sm, instructions);
        $op!($($ctx)*, "sim.sm.issue_cycles", sim, sm, issue_cycles);
        $op!($($ctx)*, "sim.sm.mem_stall_cycles", sim, sm, mem_stall_cycles);
        $op!($($ctx)*, "sim.sm.reservation_stall_cycles", sim, sm, reservation_stall_cycles);
        $op!($($ctx)*, "sim.sm.idle_cycles", sim, sm, idle_cycles);
        $op!($($ctx)*, "sim.outgoing_requests", sim, outgoing_requests);
        $op!($($ctx)*, "sim.req_net.packets", sim, req_net, packets);
        $op!($($ctx)*, "sim.req_net.flits", sim, req_net, flits);
        $op!($($ctx)*, "sim.rsp_net.packets", sim, rsp_net, packets);
        $op!($($ctx)*, "sim.rsp_net.flits", sim, rsp_net, flits);
        $op!($($ctx)*, "sim.dram_accesses", sim, dram_accesses);
        $op!($($ctx)*, "sim.dram_row_hits", sim, dram_row_hits);
        $op!($($ctx)*, "sim.energy.sram_reads", sim, energy, sram_reads);
        $op!($($ctx)*, "sim.energy.sram_writes", sim, energy, sram_writes);
        $op!($($ctx)*, "sim.energy.stt_reads", sim, energy, stt_reads);
        $op!($($ctx)*, "sim.energy.stt_writes", sim, energy, stt_writes);
        $op!($($ctx)*, "sim.energy.l2_accesses", sim, energy, l2_accesses);
        $op!($($ctx)*, "sim.energy.dram_accesses", sim, energy, dram_accesses);
        $op!($($ctx)*, "sim.energy.net_flits", sim, energy, net_flits);
        $op!($($ctx)*, "sim.energy.warp_instructions", sim, energy, warp_instructions);
        $op!($($ctx)*, "sim.net_residency", sim, net_residency);
        $op!($($ctx)*, "sim.mem_residency", sim, mem_residency);
        $op!($($ctx)*, "sim.completed_reads", sim, completed_reads);
        $op!($($ctx)*, "sim.num_sms", sim, num_sms);
        $op!($($ctx)*, "metrics.stt_busy_rejections", metrics, stt_busy_rejections);
        $op!($($ctx)*, "metrics.tag_queue_full_rejections", metrics, tag_queue_full_rejections);
        $op!($($ctx)*, "metrics.tag_search_cycles", metrics, tag_search_cycles);
        $op!($($ctx)*, "metrics.tag_searches", metrics, tag_searches);
        $op!($($ctx)*, "metrics.migrations_to_stt", metrics, migrations_to_stt);
        $op!($($ctx)*, "metrics.migrations_to_sram", metrics, migrations_to_sram);
        $op!($($ctx)*, "metrics.woro_evictions", metrics, woro_evictions);
        $op!($($ctx)*, "metrics.stt_write_updates", metrics, stt_write_updates);
        $op!($($ctx)*, "metrics.tq_flushes", metrics, tq_flushes);
        $op!($($ctx)*, "metrics.bypassed_loads", metrics, bypassed_loads);
        $op!($($ctx)*, "metrics.bypassed_stores", metrics, bypassed_stores);
        $op!($($ctx)*, "metrics.accuracy.trues", metrics, accuracy, trues);
        $op!($($ctx)*, "metrics.accuracy.falses", metrics, accuracy, falses);
        $op!($($ctx)*, "metrics.accuracy.neutrals", metrics, accuracy, neutrals);
        $op!($($ctx)*, "metrics.cbf.tests", metrics, cbf, tests);
        $op!($($ctx)*, "metrics.cbf.positives", metrics, cbf, positives);
        $op!($($ctx)*, "metrics.cbf.false_positives", metrics, cbf, false_positives);
        $op!($($ctx)*, "metrics.refresh_events", metrics, refresh_events);
    };
}

/// Applies `$op!(ctx…, "name", field.path)` to every f64-valued field.
macro_rules! with_f64_fields {
    ($op:ident, $($ctx:tt)*) => {
        $op!($($ctx)*, "energy.sram_dynamic_nj", energy, sram_dynamic_nj);
        $op!($($ctx)*, "energy.sram_leakage_nj", energy, sram_leakage_nj);
        $op!($($ctx)*, "energy.stt_dynamic_nj", energy, stt_dynamic_nj);
        $op!($($ctx)*, "energy.stt_leakage_nj", energy, stt_leakage_nj);
        $op!($($ctx)*, "energy.l2_nj", energy, l2_nj);
        $op!($($ctx)*, "energy.dram_nj", energy, dram_nj);
        $op!($($ctx)*, "energy.network_nj", energy, network_nj);
        $op!($($ctx)*, "energy.compute_nj", energy, compute_nj);
    };
}

macro_rules! emit_int {
    ($out:expr, $r:expr, $name:literal, $($f:ident),+) => {
        $out.push_str($name);
        $out.push('=');
        $out.push_str(&$r$(.$f)+.to_string());
        $out.push('\n');
    };
}

macro_rules! emit_f64 {
    ($out:expr, $r:expr, $name:literal, $($f:ident),+) => {
        $out.push_str($name);
        $out.push_str(&format!("=0x{:016x}\n", $r$(.$f)+.to_bits()));
    };
}

macro_rules! take_int {
    ($fields:expr, $r:expr, $name:literal, $($f:ident),+) => {
        $r$(.$f)+ = int_field($fields, $name)?;
    };
}

macro_rules! take_f64 {
    ($fields:expr, $r:expr, $name:literal, $($f:ident),+) => {
        $r$(.$f)+ = f64::from_bits(bits_field($fields, $name)?);
    };
}

impl CellRecord {
    /// Serialises this record under `key` in the [`RECORD_FORMAT`]
    /// format, checksum included.
    pub fn serialize(&self, key: &CellKey) -> String {
        let mut out = String::with_capacity(2048 + key.text.len());
        out.push_str(RECORD_FORMAT);
        out.push('\n');
        out.push_str(&format!("key={}\n", key.hex));
        out.push_str(&format!("keytext={}\n", key.text.len()));
        out.push_str(&key.text);
        with_int_fields!(emit_int, out, self);
        with_f64_fields!(emit_f64, out, self);
        out.push_str(&format!(
            "checksum={:016x}\n",
            fnv1a64(0xcbf2_9ce4_8422_2325, out.as_bytes())
        ));
        out
    }

    /// Parses a [`RECORD_FORMAT`] file back into (record, key hex,
    /// canonical key text).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on any corruption: wrong format
    /// tag, checksum mismatch, truncated key text, missing or
    /// unparseable field. Callers quarantine on `Err` — this function
    /// never panics on hostile input.
    pub fn parse(data: &str) -> Result<(CellRecord, String, String), String> {
        let (body, checksum_line) = data
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .ok_or("truncated: no checksum line")?;
        let body_with_nl = &data[..body.len() + 1];
        let want = checksum_line
            .strip_prefix("checksum=")
            .ok_or("truncated: last line is not a checksum")?;
        let got = format!(
            "{:016x}",
            fnv1a64(0xcbf2_9ce4_8422_2325, body_with_nl.as_bytes())
        );
        if want != got {
            return Err(format!(
                "checksum mismatch: file says {want}, content is {got}"
            ));
        }

        let mut rest = body_with_nl;
        if next_line(&mut rest, "format tag")? != RECORD_FORMAT {
            return Err("unknown format tag".to_string());
        }
        let key_hex = next_line(&mut rest, "key")?
            .strip_prefix("key=")
            .ok_or("missing key line")?
            .to_string();
        let keytext_len: usize = next_line(&mut rest, "keytext length")?
            .strip_prefix("keytext=")
            .ok_or("missing keytext line")?
            .parse()
            .map_err(|_| "bad keytext length")?;
        if rest.len() < keytext_len || !rest.is_char_boundary(keytext_len) {
            return Err("truncated key text".to_string());
        }
        let key_text = rest[..keytext_len].to_string();
        let mut fields = std::collections::HashMap::new();
        for l in rest[keytext_len..].lines() {
            let (k, v) = l.split_once('=').ok_or_else(|| format!("bad line {l:?}"))?;
            fields.insert(k, v);
        }

        let fields = &fields;
        let mut r = CellRecord::default();
        with_int_fields!(take_int, fields, r);
        with_f64_fields!(take_f64, fields, r);
        Ok((r, key_hex, key_text))
    }
}

fn next_line<'a>(rest: &mut &'a str, what: &str) -> Result<&'a str, String> {
    let (l, r) = rest
        .split_once('\n')
        .ok_or_else(|| format!("truncated before {what}"))?;
    *rest = r;
    Ok(l)
}

fn int_field<T: std::str::FromStr>(
    fields: &std::collections::HashMap<&str, &str>,
    name: &str,
) -> Result<T, String> {
    fields
        .get(name)
        .ok_or_else(|| format!("missing field {name}"))?
        .parse()
        .map_err(|_| format!("unparseable field {name}"))
}

fn bits_field(fields: &std::collections::HashMap<&str, &str>, name: &str) -> Result<u64, String> {
    let v = fields
        .get(name)
        .ok_or_else(|| format!("missing field {name}"))?;
    let hex = v
        .strip_prefix("0x")
        .ok_or_else(|| format!("field {name} is not a bit pattern"))?;
    u64::from_str_radix(hex, 16).map_err(|_| format!("unparseable field {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{CellKey, KeyParts};
    use fuse_core::config::L1Preset;
    use fuse_gpu::config::GpuConfig;

    fn sample_key() -> CellKey {
        let w = fuse_workloads::by_name("ATAX").unwrap();
        let gpu = GpuConfig::gtx480();
        let l1 = L1Preset::DyFuse.config();
        CellKey::derive(&KeyParts {
            workload: &w,
            l1: Some(&l1),
            gpu: &gpu,
            ops_per_warp: 100,
            max_cycles: 1000,
        })
    }

    fn sample_record() -> CellRecord {
        let mut r = CellRecord::default();
        r.sim.cycles = 123_456;
        r.sim.instructions = 999;
        r.sim.l1.hits = 42;
        r.sim.num_sms = 15;
        r.metrics.tag_searches = 7;
        r.metrics.accuracy.trues = 3;
        r.energy.l2_nj = 1234.5678901234;
        r.energy.compute_nj = -0.0; // sign bit must survive
        r
    }

    #[test]
    fn round_trip_is_exact_and_byte_stable() {
        let key = sample_key();
        let rec = sample_record();
        let text = rec.serialize(&key);
        let (back, hex, keytext) = CellRecord::parse(&text).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(hex, key.hex);
        assert_eq!(keytext, key.text);
        // Serialising the parsed record reproduces the bytes exactly.
        assert_eq!(back.serialize(&key), text);
        // The negative-zero bit pattern survived.
        assert_eq!(back.energy.compute_nj.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn corruption_is_detected_not_panicked() {
        let key = sample_key();
        let text = sample_record().serialize(&key);
        // A damaged file may parse only if it decodes to exactly the
        // record that was written: re-serialising what came back must
        // reproduce the original bytes (so even float sign bits match).
        let same_or_err = |data: &str, what: &str| {
            if let Ok((rec, hex, keytext)) = CellRecord::parse(data) {
                let back = rec.serialize(&CellKey { hex, text: keytext });
                assert_eq!(back, text, "{what} parsed as a different record");
            }
        };
        // Every single-bit flip of every byte. The format is pure ASCII,
        // so a high-bit flip makes the text invalid UTF-8: it never
        // reaches `parse`, because the store's `read_to_string` fails.
        let bytes = text.as_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                match String::from_utf8(flipped) {
                    Ok(flipped) => same_or_err(&flipped, &format!("flip of bit {bit} at {i}")),
                    Err(_) => assert_eq!(bit, 7, "only high-bit flips leave UTF-8"),
                }
            }
        }
        // Every truncation (any byte index is a char boundary in ASCII).
        for cut in 0..text.len() {
            same_or_err(&text[..cut], &format!("cut at {cut}"));
        }
        // Losing only the final newline loses nothing.
        let unterminated = &text[..text.len() - 1];
        let (rec, _, _) =
            CellRecord::parse(unterminated).expect("parses without the final newline");
        assert_eq!(rec.serialize(&key), text);
        assert!(CellRecord::parse("not a record at all").is_err());
    }

    #[test]
    fn missing_field_is_corrupt() {
        let key = sample_key();
        let text = sample_record().serialize(&key);
        // Drop the sim.cycles line and re-checksum so only the schema
        // check can catch it.
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with("sim.cycles=") && !l.starts_with("checksum="))
            .map(|l| format!("{l}\n"))
            .collect();
        let sum = format!(
            "checksum={:016x}\n",
            fnv1a64(0xcbf2_9ce4_8422_2325, body.as_bytes())
        );
        let doctored = format!("{body}{sum}");
        let err = CellRecord::parse(&doctored).unwrap_err();
        assert!(err.contains("sim.cycles"), "got {err:?}");
    }
}
