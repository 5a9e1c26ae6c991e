//! Engine-equivalence gate for event-driven cycle skipping.
//!
//! The skip engine (`GpuSystem::run` fast-forwarding over dead cycles) and
//! the plain tick engine must be *observationally identical*: every field
//! of [`fuse::gpu::stats::SimStats`] — cycles, stall classifications,
//! interconnect counters, cache and DRAM statistics — must match bitwise
//! for every Table II workload on both the SRAM baseline and the full
//! Dy-FUSE configuration. Any divergence means a component's
//! `next_event` under-reported an event or `advance_idle` mis-credited a
//! counter, so this test is the contract the skip engine is held to.
//!
//! A second axis pins the same grid against *recorded* digests
//! ([`SEED_DIGESTS`]), captured on the engine that still used the
//! standard library's SipHash maps. The hot maps have since moved to the
//! in-repo FxHash tables (`fuse_cache::hash`), which is only legal
//! because no stats-affecting path iterates a map in bucket order — the
//! digest comparison proves that audit held, and holds future hasher or
//! container swaps to the same standard.

use fuse::core::config::L1Preset;
use fuse::runner::{run_workload, RunConfig};
use fuse::workloads::{all_workloads, by_name};

fn smoke(skip: bool) -> RunConfig {
    RunConfig {
        skip,
        ..RunConfig::smoke()
    }
}

#[test]
fn skip_and_tick_engines_agree_bitwise_on_every_workload() {
    let fast_rc = smoke(true);
    let slow_rc = smoke(false);
    let mut total_skipped = 0u64;
    for spec in all_workloads() {
        for preset in [L1Preset::L1Sram, L1Preset::DyFuse] {
            let fast = run_workload(&spec, preset, &fast_rc);
            let slow = run_workload(&spec, preset, &slow_rc);
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
            total_skipped += fast.skipped_cycles;
        }
    }
    assert!(
        total_skipped > 0,
        "the grid must contain at least one skippable span, or the skip \
         engine is a no-op and this test proves nothing"
    );
}

/// FNV-1a over the `Debug` rendering of [`fuse::gpu::stats::SimStats`] —
/// every counter participates, so two equal digests mean bitwise-equal
/// statistics.
fn stats_digest(sim: &fuse::gpu::stats::SimStats) -> u64 {
    let s = format!("{sim:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(workload, preset, digest)` for every Table II workload under
/// [`RunConfig::smoke`], recorded on the std-`HashMap` (SipHash) engine
/// before the FxHash swap. Regenerate by running
/// `stats_match_the_recorded_std_hasher_digests` with `--nocapture`
/// after an *intentional* stats change.
const SEED_DIGESTS: &[(&str, &str, u64)] = &[
    ("2DCONV", "L1-SRAM", 0x52e63bed16aa17a8),
    ("2DCONV", "Dy-FUSE", 0xba8340ae6ce7a570),
    ("2MM", "L1-SRAM", 0xf09c3c572b0cfaf5),
    ("2MM", "Dy-FUSE", 0x1ce1356266a25823),
    ("3MM", "L1-SRAM", 0xe75226cf9a2fcf89),
    ("3MM", "Dy-FUSE", 0x20a2fb13e7e54eac),
    ("ATAX", "L1-SRAM", 0xfc7a406c122977f0),
    ("ATAX", "Dy-FUSE", 0x7a7d6c1408989bdc),
    ("BICG", "L1-SRAM", 0xb85dff80f0baff8a),
    ("BICG", "Dy-FUSE", 0xa768f3f7dd75146d),
    ("cfd", "L1-SRAM", 0x15d63142ed64a91d),
    ("cfd", "Dy-FUSE", 0xff159d070935716e),
    ("FDTD", "L1-SRAM", 0x02ecf3e4442f1d51),
    ("FDTD", "Dy-FUSE", 0x062572b2233dbeec),
    ("gaussian", "L1-SRAM", 0xb2deea09d21d32ea),
    ("gaussian", "Dy-FUSE", 0xcc62e50548e66acc),
    ("GEMM", "L1-SRAM", 0xbe3fc79018cc2ac4),
    ("GEMM", "Dy-FUSE", 0xda85811f5ed64250),
    ("GESUM", "L1-SRAM", 0x9e832f02617699e4),
    ("GESUM", "Dy-FUSE", 0xcce02de3a00d33b2),
    ("II", "L1-SRAM", 0xf0c05cc97fef35e6),
    ("II", "Dy-FUSE", 0x6193ee7be3081b3a),
    ("MVT", "L1-SRAM", 0x8c65e9ff6f725e5a),
    ("MVT", "Dy-FUSE", 0xe9ce24962f9cecd5),
    ("PVC", "L1-SRAM", 0x5a251ae172c3a91d),
    ("PVC", "Dy-FUSE", 0x861b240cfd6c84a2),
    ("PVR", "L1-SRAM", 0x0bcbe6eade3c27cd),
    ("PVR", "Dy-FUSE", 0xc8a613add70ee2c2),
    ("pathf", "L1-SRAM", 0x99924a50a7fa29d0),
    ("pathf", "Dy-FUSE", 0x54030f61115ed3cc),
    ("SS", "L1-SRAM", 0x2965a4b2e860d5ff),
    ("SS", "Dy-FUSE", 0x792a22b4eae8bca7),
    ("srad_v1", "L1-SRAM", 0x2c997177d7a70a8c),
    ("srad_v1", "Dy-FUSE", 0x7cf57c9f0e8e7ff3),
    ("SM", "L1-SRAM", 0xcad656449b455b64),
    ("SM", "Dy-FUSE", 0x9d7bdca7c87dd2c8),
    ("SYR2K", "L1-SRAM", 0xb108317d9f3285e2),
    ("SYR2K", "Dy-FUSE", 0x91e1ff466ee18123),
    ("mri-g", "L1-SRAM", 0x39105739ef536281),
    ("mri-g", "Dy-FUSE", 0x2631090714c616a5),
    ("histo", "L1-SRAM", 0x1af3184901ee39c7),
    ("histo", "Dy-FUSE", 0xd31ff5fc57cc1b24),
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

/// Fourth axis: active-set tick scheduling. Both scheduler modes — the
/// wake-wheel engine (the default) and always-tick (`--no-active-set`) —
/// must reproduce the recorded digests bit for bit on the whole grid,
/// and the active-set mode must actually elide component dispatches
/// somewhere (otherwise the wheel is dead weight and this axis proves
/// nothing). See DESIGN.md §3i for the conservativeness argument.
#[test]
fn active_set_toggle_matches_the_recorded_digests() {
    let mut elided = 0u64;
    for active in [true, false] {
        let rc = RunConfig {
            active_set: active,
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
                "{workload} / {config}: active_set={active} diverged from \
                 the recorded digest"
            );
            if active {
                assert!(
                    r.component_ticks <= r.component_opportunities,
                    "{workload} / {config}: dispatch accounting overflow"
                );
                elided += r.component_opportunities - r.component_ticks;
            }
        }
    }
    assert!(
        elided > 0,
        "active-set scheduling elided no dispatches anywhere on the grid"
    );
}

#[test]
fn stats_match_the_recorded_std_hasher_digests() {
    assert_eq!(
        SEED_DIGESTS.len(),
        all_workloads().len() * 2,
        "the digest table must cover the whole (workload x preset) grid"
    );
    let rc = smoke(true);
    for &(workload, config, want) in SEED_DIGESTS {
        let spec = by_name(workload).expect("Table II workload exists");
        let preset = match config {
            "L1-SRAM" => L1Preset::L1Sram,
            "Dy-FUSE" => L1Preset::DyFuse,
            other => panic!("unknown preset {other} in the digest table"),
        };
        let r = run_workload(&spec, preset, &rc);
        let got = stats_digest(&r.sim);
        println!("    (\"{workload}\", \"{config}\", 0x{got:016x}),");
        assert_eq!(
            got, want,
            "{workload} / {config}: statistics diverged from the recorded \
             SipHash-engine digest — a container or hasher change leaked \
             into simulated behaviour"
        );
    }
}
