//! # fuse-bench — engine and service benchmarks
//!
//! The paper's figures and tables are regenerated by `fusesim paper`
//! ([`fuse::paper`]); the bench targets under `benches/` measure the
//! simulator itself: allocation discipline (`alloc_budget`), profiling
//! overhead (`obs_overhead`), the result cache and service
//! (`serve_load`) and hot data structures (`micro_structures`). This
//! library holds their shared pieces: the default bench budget, the
//! `BENCH_sweep.json` recorder, the counting allocator and the timing
//! harness.
//!
//! Budgets: grid benches default to a reduced instruction budget
//! (`ops_scale` 0.35) unless the `FUSE_SCALE` environment variable is
//! set (e.g. `FUSE_SCALE=2`) for longer runs.

use fuse::runner::RunConfig;
use fuse::sweep::SweepReport;

pub mod alloc;
pub mod timing;

pub use timing::{black_box, Harness, Measurement};

/// The default bench budget: the paper's GTX480-class machine with a
/// reduced per-warp instruction budget unless `FUSE_SCALE` is set.
pub fn bench_config() -> RunConfig {
    let mut rc = RunConfig::standard();
    if std::env::var("FUSE_SCALE").is_err() {
        rc.ops_scale = 0.35;
    }
    rc
}

/// Where sweep timing entries land: `FUSE_SWEEP_JSON` if set, else
/// `BENCH_sweep.json` at the workspace root (cargo runs benches with the
/// package directory as cwd, so a relative default would scatter files).
pub fn sweep_json_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("FUSE_SWEEP_JSON") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json")
}

/// Prints `report`'s timing summary and upserts its entry in
/// [`sweep_json_path`]. Failures to write are reported, not fatal — a
/// read-only checkout should still run the benches.
pub fn record_sweep(report: &SweepReport) {
    println!("{}", report.timing_summary());
    let path = sweep_json_path();
    if let Err(e) = report.write_json(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_reduced_by_default() {
        // The test environment does not set FUSE_SCALE.
        if std::env::var("FUSE_SCALE").is_err() {
            assert!(bench_config().ops_scale < 1.0);
        }
    }
}
