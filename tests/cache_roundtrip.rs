//! The result cache's central guarantee, at full figure scale: warming
//! the cache never changes a sweep's answer. A cold run of the complete
//! fig. 13 grid (21 workloads × {L1-SRAM, Dy-FUSE} = 42 cells) populates
//! the store; a warm re-run — including one through a freshly opened
//! cache handle, as a new process would see it — answers every cell
//! without simulating and produces a byte-identical engine-independent
//! report. Invalidating one cell re-runs exactly that cell.

use std::path::PathBuf;
use std::sync::Arc;

use fuse::core::config::L1Preset;
use fuse::runner::RunConfig;
use fuse::serve::ResultCache;
use fuse::sweep::{SweepPlan, SweepReport};
use fuse::workloads::all_workloads;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fuse_cache_roundtrip_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The full fig. 13 grid under the smoke budget (42 cells).
fn fig13_grid() -> SweepPlan {
    SweepPlan::new("fig13-roundtrip", RunConfig::smoke())
        .workloads(all_workloads())
        .presets(&[L1Preset::L1Sram, L1Preset::DyFuse])
}

fn run_with(cache: &Arc<ResultCache>) -> SweepReport {
    fig13_grid().cache(Arc::clone(cache)).run()
}

#[test]
fn warm_fig13_grid_is_all_hits_and_byte_identical() {
    let dir = tmp_dir("warm");

    let cache = Arc::new(ResultCache::open(&dir, None).expect("cache opens"));
    let cold = run_with(&cache);
    assert_eq!(cold.cells.len(), 42);
    assert_eq!(cold.cache_hits, Some(0));
    assert_eq!(cold.cache_misses, Some(42));

    // Same handle: every cell answered from the store, zero simulated.
    let warm = run_with(&cache);
    assert_eq!(warm.cache_hits, Some(42));
    assert_eq!(warm.cache_misses, Some(0));
    assert_eq!(
        warm.stats_json(),
        cold.stats_json(),
        "warm report must be byte-identical to cold"
    );

    // Fresh handle over the same directory — what a second `fusesim`
    // invocation sees. Persistence, not process memory, carries the hits.
    let reopened = Arc::new(ResultCache::open(&dir, None).expect("cache reopens"));
    let warm2 = run_with(&reopened);
    assert_eq!(warm2.cache_hits, Some(42));
    assert_eq!(warm2.cache_misses, Some(0));
    assert_eq!(warm2.stats_json(), cold.stats_json());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalidating_one_cell_reruns_only_that_cell() {
    let dir = tmp_dir("incremental");

    let cache = Arc::new(ResultCache::open(&dir, None).expect("cache opens"));
    let cold = run_with(&cache);
    assert_eq!(cold.cache_misses, Some(42));

    // Drop one recorded cell, as `fusesim cache rm <digest>` would.
    let victim = fuse::runner::cell_key(
        &fuse::workloads::by_name("ATAX").expect("ATAX exists"),
        L1Preset::DyFuse.l1().as_ref(),
        &RunConfig::smoke(),
    );
    assert!(cache.remove(&victim.hex), "victim cell was recorded");

    let incremental = run_with(&cache);
    assert_eq!(incremental.cache_hits, Some(41));
    assert_eq!(incremental.cache_misses, Some(1));
    assert_eq!(
        incremental.stats_json(),
        cold.stats_json(),
        "re-simulating an invalidated cell must reproduce its statistics"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
