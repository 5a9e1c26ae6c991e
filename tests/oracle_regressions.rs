//! Replays every pinned `.repro` case under `tests/repros/` through the
//! lockstep oracle and requires a clean report.
//!
//! A `.repro` file is a minimized [`fuse::check::FuzzSpec`] — either
//! hand-crafted to sit on a known structural hazard, or written by
//! `fusesim check` when the fuzzer finds a divergence and the shrinker
//! minimizes it. Dropping a file in the directory is all it takes to
//! pin a bug; this runner picks it up by name automatically.

use fuse::check::{repro, run_case};
use fuse::core::config::L1Preset;

fn repro_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

/// Every pinned repro parses, runs in lockstep on both engines under the
/// oracle, drains, and reports zero violations.
#[test]
fn every_pinned_repro_passes_lockstep() {
    let mut paths: Vec<_> = std::fs::read_dir(repro_dir())
        .expect("tests/repros exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "repro"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "no .repro files found — wrong directory?"
    );

    for path in &paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(path).expect("readable repro");
        let spec =
            repro::from_text(&text).unwrap_or_else(|e| panic!("{name}: malformed repro: {e}"));
        let report = run_case(&spec);
        assert!(
            report.ok(),
            "{name} regressed:\n  spec: {spec:?}\n  violations:\n    {}",
            report.violations.join("\n    ")
        );
        assert_eq!(
            report.skip_stats.instructions,
            (spec.sms * spec.warps * spec.ops) as u64,
            "{name}: some warp never retired"
        );
    }
}

/// The pinned cases really sit on the hazards they claim to pin: each one
/// must visibly exercise its structural pressure point, so a future
/// config change can't silently turn a repro into a no-op.
#[test]
fn pinned_repros_exercise_their_hazards() {
    let load = |name: &str| {
        let text = std::fs::read_to_string(repro_dir().join(name)).expect("readable repro");
        repro::from_text(&text).expect("parses")
    };

    let mshr = load("mshr-exhaustion.repro");
    assert_eq!(mshr.mshr_entries, 1, "must keep the single-entry L1 MSHR");

    let l2 = load("l2-pending-retry.repro");
    assert_eq!(l2.l2_pending, 1, "must keep the single-entry L2 miss table");

    let dram = load("dram-queue-deferral.repro");
    assert_eq!(dram.dram_queue, 1, "must keep the single-slot DRAM queue");

    let wt = load("store-heavy-writethrough.repro");
    assert!(wt.store_pct >= 50, "must stay store-dominated");
    // Every response-expecting read completes in a drained run, so the
    // remaining outgoing requests are write-through packets.
    let stats = run_case(&wt).skip_stats;
    assert!(
        stats.outgoing_requests > stats.completed_reads,
        "must inject write-through packets"
    );

    let parked = load("blocked-fill-drain.repro");
    assert_eq!(parked.preset, L1Preset::Hybrid, "must keep a blocking L1");
}
