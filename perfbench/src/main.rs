//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fuse-read|fuse-write|grid-fig13|serve-mix|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --emit-benchmark-json
//! ```
//!
//! Prints host metadata and every measured metric (`name = value unit`),
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced run (`--trace 1`). Exits non-zero when any
//! correctness gate fails. Scratch files go to `.perfbench-out/` under the
//! working directory; the traced run writes its full report there too.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fuse::core::config::L1Preset;
use fuse_perfbench::metrics::{benchmark_json, Outcome, RUN_SECONDS, WORKLOADS};
use fuse_perfbench::{engine, host_metadata, peak_rss_mb, serve_mix, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <fuse-read|fuse-write|grid-fig13|serve-mix|all> \
                     [--seed N] [--seconds S] [--trace 0|1] | --emit-benchmark-json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-benchmark-json" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Some(args))
}

fn run_workload(name: &str, args: &Args, scratch: &Path) -> Outcome {
    let fuse_by_name = |n: &str| fuse::workloads::by_name(n).expect("paper workload");
    let mut out = match name {
        "fuse-read" => engine::long_cell(
            &fuse_by_name("ATAX"),
            L1Preset::DyFuse,
            &engine::gtx480(1.0),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "fuse-write" => engine::long_cell(
            &fuse_by_name("SS"),
            L1Preset::DyFuse,
            &engine::gtx480(1.0),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "grid-fig13" => engine::grid(args.seed, args.seconds, args.trace),
        "serve-mix" => serve_mix::run(args.seed, args.seconds, args.trace, scratch),
        other => unreachable!("workload {other} was validated"),
    };
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".perfbench-out");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.iter().map(|(w, _)| *w).collect(),
        one => vec![one],
    };
    let mut header = format!(
        "perfbench seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in host_metadata() {
        header.push_str(&format!(" {k}={v:?}"));
    }
    let mut ok = true;
    for name in names {
        let out = run_workload(name, &args, &scratch);
        let report = format!("{header}\nworkload {name}\n{}", out.human());
        print!("{report}");
        if args.trace {
            let path = scratch.join(format!("{name}-seed{}-trace.txt", args.seed));
            if let Err(e) = std::fs::write(&path, &report) {
                eprintln!("perfbench: {}: {e}", path.display());
            }
        }
        match out.result_line(args.trace) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                ok = false;
            }
        }
        ok &= out.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
