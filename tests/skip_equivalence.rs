//! Engine-equivalence gate for the event engine.
//!
//! The event ("skip") engine — active-set dispatch plus fast-forwarding
//! over dead cycles — and the always-tick reference ("tick") engine must
//! be *observationally identical*: every field of
//! [`fuse::gpu::stats::SimStats`] — cycles, stall classifications,
//! interconnect counters, cache and DRAM statistics — must match bitwise
//! for every Table II workload on every Fig. 13 configuration, on the
//! smoke machine and on the 15-SM machine. Any divergence means a
//! component's `next_event` under-reported an event, a wake was
//! registered late or `advance_idle` mis-credited a counter, so this
//! test is the contract the event engine is held to.
//!
//! A second axis pins every workload × {L1-SRAM, Dy-FUSE} on both
//! engines against *recorded* digests ([`SEED_DIGESTS`]), captured on
//! the engine that still used the standard library's SipHash maps. The
//! hot maps have since moved to the in-repo FxHash tables
//! (`fuse_cache::hash`), which is only legal because no stats-affecting
//! path iterates a map in bucket order — the digest comparison proves
//! that audit held, and holds future hasher or container swaps to the
//! same standard.

use std::collections::HashSet;

use fuse::core::config::L1Preset;
use fuse::runner::{run_workload, RunConfig};
use fuse::workloads::spec::WorkloadSpec;
use fuse::workloads::{all_workloads, by_name};

fn smoke(skip: bool) -> RunConfig {
    RunConfig {
        skip,
        ..RunConfig::smoke()
    }
}

/// Runs `spec` on `preset` under both engines and checks the statistics
/// agree bitwise and only the event engine fast-forwards. Returns the
/// event engine's skipped cycles.
fn assert_engines_agree(spec: &WorkloadSpec, preset: L1Preset, rc: &RunConfig) -> u64 {
    let fast = run_workload(spec, preset, rc);
    let slow = run_workload(
        spec,
        preset,
        &RunConfig {
            skip: false,
            ..rc.clone()
        },
    );
    assert_eq!(
        fast.sim,
        slow.sim,
        "stats diverged on {} / {}",
        spec.name,
        preset.name()
    );
    assert_eq!(
        slow.skipped_cycles, 0,
        "tick engine must never fast-forward"
    );
    fast.skipped_cycles
}

#[test]
fn skip_and_tick_engines_agree_bitwise_on_every_workload() {
    let rc = smoke(true);
    let mut total_skipped = 0u64;
    for spec in all_workloads() {
        for preset in L1Preset::FIG13 {
            total_skipped += assert_engines_agree(&spec, preset, &rc);
        }
    }
    assert!(
        total_skipped > 0,
        "the grid must contain at least one skippable span, or the skip \
         engine is a no-op and this test proves nothing"
    );
}

/// The 15-SM machine that produces the paper's Fig. 13 numbers (the
/// smoke machine has 2 SMs), at a tenth of the default budget.
#[test]
fn skip_and_tick_engines_agree_on_the_full_machine() {
    let rc = RunConfig {
        ops_scale: 0.1,
        ..RunConfig::standard()
    };
    for workload in ["ATAX", "GEMM"] {
        let spec = by_name(workload).expect("Table II workload exists");
        for preset in [L1Preset::L1Sram, L1Preset::DyFuse] {
            assert_engines_agree(&spec, preset, &rc);
        }
    }
}

/// One FNV-1a pass over `text` from `h`.
fn fnv1a(mut h: u64, text: &str) -> u64 {
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the `Debug` rendering of [`fuse::gpu::stats::SimStats`] —
/// every counter participates, so two equal digests mean bitwise-equal
/// statistics.
fn stats_digest(sim: &fuse::gpu::stats::SimStats) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, &format!("{sim:?}"))
}

/// `(workload, preset, digest)` for every Table II workload under
/// [`RunConfig::smoke`], recorded on the std-`HashMap` (SipHash) engine
/// before the FxHash swap. `fuse-engine-v9` re-rendered them without the
/// nine counters it deleted, after checking that every remaining field of
/// every smoke and Fig. 13 cell was unchanged. Regenerate by running
/// `stats_match_the_recorded_std_hasher_digests` with `--nocapture`
/// after an *intentional* stats change.
const SEED_DIGESTS: &[(&str, &str, u64)] = &[
    ("2DCONV", "L1-SRAM", 0xe918a8f563d5ca1c),
    ("2DCONV", "Dy-FUSE", 0x070329b09a751756),
    ("2MM", "L1-SRAM", 0xbb10546a9beb3bce),
    ("2MM", "Dy-FUSE", 0xa23c7d23e9f0597d),
    ("3MM", "L1-SRAM", 0x32eec7ea27b95ba2),
    ("3MM", "Dy-FUSE", 0x3594b2f8dcba7d10),
    ("ATAX", "L1-SRAM", 0x88bf8e45a315ac97),
    ("ATAX", "Dy-FUSE", 0xfeb34e7bb5e9946d),
    ("BICG", "L1-SRAM", 0x851bad90db8ebec2),
    ("BICG", "Dy-FUSE", 0x637f2880494bf91f),
    ("cfd", "L1-SRAM", 0x8ac8b518c20ae5ed),
    ("cfd", "Dy-FUSE", 0x07a9118bc634d214),
    ("FDTD", "L1-SRAM", 0xd08bfa1895cfc1d2),
    ("FDTD", "Dy-FUSE", 0xf1f36c0c1e7ab302),
    ("gaussian", "L1-SRAM", 0xfa9af6a707d0e6dd),
    ("gaussian", "Dy-FUSE", 0xf8da2e47ff82fd2e),
    ("GEMM", "L1-SRAM", 0xcd1ae992137ec0cc),
    ("GEMM", "Dy-FUSE", 0x936f808a08e2d949),
    ("GESUM", "L1-SRAM", 0xbd6ee9a68694d9c9),
    ("GESUM", "Dy-FUSE", 0x3c0d66c1e9589a89),
    ("II", "L1-SRAM", 0xbf87e4199963bd72),
    ("II", "Dy-FUSE", 0x395e4871d04cfd95),
    ("MVT", "L1-SRAM", 0xb0dff0cf5c057a95),
    ("MVT", "Dy-FUSE", 0xc2bbfbf0778eaaac),
    ("PVC", "L1-SRAM", 0xff3a75f66f3ff68d),
    ("PVC", "Dy-FUSE", 0x109f4d7340e37bb1),
    ("PVR", "L1-SRAM", 0xbe22976032bf5088),
    ("PVR", "Dy-FUSE", 0xe9d08a65160dbc15),
    ("pathf", "L1-SRAM", 0xa31168d2b885a3de),
    ("pathf", "Dy-FUSE", 0x77686f576580e7a6),
    ("SS", "L1-SRAM", 0x1d84e64b2d8708db),
    ("SS", "Dy-FUSE", 0x18b13dcd3d86ff28),
    ("srad_v1", "L1-SRAM", 0x99cdcb5185aceca7),
    ("srad_v1", "Dy-FUSE", 0x60e725f872fd0229),
    ("SM", "L1-SRAM", 0x662143a00078a5c7),
    ("SM", "Dy-FUSE", 0x19fdae1acd671294),
    ("SYR2K", "L1-SRAM", 0x764dcd9c33f95e06),
    ("SYR2K", "Dy-FUSE", 0x45715dc271c076ca),
    ("mri-g", "L1-SRAM", 0xc0bbcb77129be7a6),
    ("mri-g", "Dy-FUSE", 0x70cf7fe9d762d8f9),
    ("histo", "L1-SRAM", 0xbcaed0703cde3bab),
    ("histo", "Dy-FUSE", 0xc8a50d9effaa94f9),
];

/// `(ENGINE_VERSION, outcome digest)`, oldest first. The digest is
/// FNV-1a over the `Debug` of everything a cached cell record serves —
/// `sim`, `metrics` and `energy` — for every [`SEED_DIGESTS`] cell on
/// the event engine. [`SEED_DIGESTS`] covers `SimStats` alone, while the
/// paper ledger's energy, stall and predictor figures read the rest from
/// persisted records, which every cache key ties to
/// [`fuse::serve::ENGINE_VERSION`]. A change that moves any of it must
/// bump the version and append a pair here, or stores filled before the
/// change would serve stale results as hits.
const OUTCOME_DIGESTS: &[(&str, u64)] = &[
    ("fuse-engine-v7", 0x2387_5129_8264_603f),
    // v8 ends a run only once every L1 MSHR is empty. That moves cells of
    // the blocking presets alone, and this grid runs none of them.
    ("fuse-engine-v8", 0x2387_5129_8264_603f),
    // v9 deletes nine never-read counters from the record; every value
    // that remains is unchanged, only the rendering moves.
    ("fuse-engine-v9", 0xe035_a1ff_a933_7380),
];

/// Third axis: the observability layer must be a pure observer. With the
/// cycle-attribution profiler enabled on every cell of the grid, the
/// statistics must still match the recorded seed digests bitwise (so
/// profiling cannot perturb simulated behaviour), and the windowed stall
/// series must come out identical under the skip and tick engines (so
/// clamping skips at window boundaries credits windows exactly). The
/// engine-dependent parts — per-window skip totals — live outside the
/// series and are checked for internal consistency instead.
#[test]
fn profiling_preserves_digests_and_the_series_is_engine_independent() {
    let window = 2_048;
    let fast_rc = RunConfig {
        metrics_window: Some(window),
        ..smoke(true)
    };
    let slow_rc = RunConfig {
        metrics_window: Some(window),
        ..smoke(false)
    };
    for &(workload, config, want) in SEED_DIGESTS {
        let spec = by_name(workload).expect("Table II workload exists");
        let preset = match config {
            "L1-SRAM" => L1Preset::L1Sram,
            "Dy-FUSE" => L1Preset::DyFuse,
            other => panic!("unknown preset {other} in the digest table"),
        };
        let fast = run_workload(&spec, preset, &fast_rc);
        assert_eq!(
            stats_digest(&fast.sim),
            want,
            "{workload} / {config}: enabling the profiler changed the \
             statistics — observability must be a pure observer"
        );
        let slow = run_workload(&spec, preset, &slow_rc);
        assert_eq!(fast.sim, slow.sim, "{workload} / {config}: engine split");
        let fp = fast.profile.as_ref().expect("profiler was on (skip)");
        let sp = slow.profile.as_ref().expect("profiler was on (tick)");
        assert_eq!(
            fp.series, sp.series,
            "{workload} / {config}: windowed series diverged between the \
             skip and tick engines"
        );
        let covered: u64 = fp.series.samples.iter().map(|s| s.len).sum();
        assert_eq!(covered, fast.sim.cycles, "windows must tile the run");
        let skipped: u64 = fp.window_skipped.iter().sum();
        assert_eq!(
            skipped, fast.skipped_cycles,
            "per-window skip totals must sum to the run's skip count"
        );
        assert!(
            sp.window_skipped.iter().all(|&s| s == 0),
            "the tick engine never fast-forwards, per window included"
        );
    }
}

/// Clearing `active_set` alone, with skipping left on, must select the
/// same always-tick reference as clearing `skip`: every cell reproduces
/// its recorded digest and never fast-forwards.
#[test]
fn active_set_toggle_matches_the_recorded_digests() {
    let rc = RunConfig {
        active_set: false,
        ..smoke(true)
    };
    for &(workload, config, want) in SEED_DIGESTS {
        let spec = by_name(workload).expect("Table II workload exists");
        let preset = match config {
            "L1-SRAM" => L1Preset::L1Sram,
            "Dy-FUSE" => L1Preset::DyFuse,
            other => panic!("unknown preset {other} in the digest table"),
        };
        let r = run_workload(&spec, preset, &rc);
        assert_eq!(
            stats_digest(&r.sim),
            want,
            "{workload} / {config}: active_set=false diverged from the \
             recorded digest"
        );
        assert_eq!(
            r.skipped_cycles, 0,
            "{workload} / {config}: active_set=false must select the \
             reference engine, which never fast-forwards"
        );
    }
}

/// Both engines must reproduce the recorded digests bit for bit on the
/// whole grid, and the event engine must actually elide component
/// dispatches somewhere (otherwise active-set dispatch is dead weight).
/// See DESIGN.md §3i for the conservativeness argument. The event
/// engine's cells also pin [`OUTCOME_DIGESTS`].
#[test]
fn stats_match_the_recorded_std_hasher_digests() {
    assert_eq!(
        SEED_DIGESTS.len(),
        all_workloads().len() * 2,
        "the digest table must cover the whole (workload x preset) grid"
    );
    let (mut elided, mut outcome) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for skip in [true, false] {
        let rc = smoke(skip);
        for &(workload, config, want) in SEED_DIGESTS {
            let spec = by_name(workload).expect("Table II workload exists");
            let preset = match config {
                "L1-SRAM" => L1Preset::L1Sram,
                "Dy-FUSE" => L1Preset::DyFuse,
                other => panic!("unknown preset {other} in the digest table"),
            };
            let r = run_workload(&spec, preset, &rc);
            let got = stats_digest(&r.sim);
            if skip {
                println!("    (\"{workload}\", \"{config}\", 0x{got:016x}),");
                assert!(
                    r.component_ticks <= r.component_opportunities,
                    "{workload} / {config}: dispatch accounting overflow"
                );
                elided += r.component_opportunities - r.component_ticks;
                outcome = fnv1a(
                    outcome,
                    &format!("{:?}{:?}{:?}", r.sim, r.metrics, r.energy),
                );
            }
            assert_eq!(
                got, want,
                "{workload} / {config} (skip={skip}): statistics diverged \
                 from the recorded SipHash-engine digest — a container or \
                 hasher change leaked into simulated behaviour"
            );
        }
    }
    assert!(
        elided > 0,
        "the event engine elided no dispatches anywhere on the grid"
    );
    let versions: HashSet<&str> = OUTCOME_DIGESTS.iter().map(|(v, _)| *v).collect();
    assert_eq!(
        versions.len(),
        OUTCOME_DIGESTS.len(),
        "one digest per version"
    );
    assert_eq!(
        OUTCOME_DIGESTS.last().copied(),
        Some((fuse::serve::ENGINE_VERSION, outcome)),
        "cached outcomes changed: bump ENGINE_VERSION (crates/serve/src/key.rs) \
         and append (\"<new version>\", 0x{outcome:016x}) to OUTCOME_DIGESTS"
    );
}
