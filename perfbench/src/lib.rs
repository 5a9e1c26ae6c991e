//! The repository benchmark: four workloads (`fuse-read`, `fuse-write`,
//! `grid-fig13`, `serve-mix`) measured end to end with tracing off, plus a
//! separate traced run per workload that splits host time by layer.
//!
//! Everything here drives the engine through public seams only:
//! `GpuSystem::new` with the `L1dModel` and `WarpProgram` factories,
//! `SweepPlan::run`, `Server` + `ServeBackend`, and `client::request`. The
//! timing decorators of the traced run live in [`timed`]; nothing inside
//! the simulator is instrumented. See `README.md` for the metric map.

pub mod engine;
pub mod metrics;
pub mod serve_mix;
pub mod timed;

use std::time::Instant;

/// The seed whose inputs are the canonical ones: identity warp remap and
/// the unmodified workload generators, so its statistics must equal
/// `runner::run_workload` bit for bit.
pub const DEFAULT_SEED: u64 = 0;

/// SplitMix64: a tiny, well-mixed generator for the benchmark's own
/// inputs (request streams, warp remaps). Deterministic per seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on the independent stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The seeded (SM, warp) → (SM', warp') remap of an engine workload: slot
/// `i = sm * warps + warp` runs the generator stream of `remap[i]`. A
/// permutation of the slots, so every stream runs exactly once and the
/// workload's calibration is unchanged; [`DEFAULT_SEED`] is the identity.
pub fn warp_remap(seed: u64, sms: usize, warps: usize) -> Vec<(usize, u16)> {
    let mut slots: Vec<(usize, u16)> = (0..sms)
        .flat_map(|s| (0..warps).map(move |w| (s, w as u16)))
        .collect();
    if seed != DEFAULT_SEED {
        Rng::new(seed, 1).shuffle(&mut slots);
    }
    slots
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile in 50..=99 that still has at least ten
/// samples above it (nearest-rank), as `(percentile, value)`. With fewer
/// than twenty samples no percentile qualifies and the median is returned
/// as percentile 50, so a short run never reports a tail it did not see.
pub fn tail_percentile(xs: &[f64]) -> (u32, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in (50..=99u32).rev() {
        let rank = (p as usize * n).div_ceil(100);
        if rank >= 1 && n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (50, median(xs))
}

/// Seconds since `t` as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host metadata printed with every result, so rows from different hosts
/// or toolchains are never compared silently.
pub fn host_metadata() -> Vec<(&'static str, String)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("git_rev", run("git", &["rev-parse", "--short=12", "HEAD"])),
        ("rustc", run("rustc", &["-V"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ]
}
