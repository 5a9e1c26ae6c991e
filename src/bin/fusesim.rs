//! `fusesim` — command-line driver for the FUSE reproduction.
//!
//! Runs any (workload, L1 configuration) pair on either machine preset and
//! prints the full metric set, without writing a line of Rust:
//!
//! ```console
//! $ fusesim run --workload ATAX --config Dy-FUSE
//! $ fusesim run --workload GEMM --config L1-SRAM --volta --scale 2
//! $ fusesim compare --workload BICG
//! $ fusesim sweep --workloads ATAX,BICG,GEMM --configs fig13 --json BENCH_sweep.json
//! $ fusesim paper --scale 0.35
//! $ fusesim list
//! ```
//!
//! `compare` and `sweep` execute their grids on the parallel sweep engine
//! ([`fuse::sweep::SweepPlan`]); results are identical to serial runs,
//! only faster.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuse::core::config::L1Preset;
use fuse::runner::{preset_by_name, RunConfig, RunResult, ServeBackend};
use fuse::serve::proto::CellSpec;
use fuse::serve::{
    auth, client, ClientConfig, Endpoint, Listener, ResultCache, ServeOptions, Server,
    ServerConfig, VerifyOutcome,
};
use fuse::sweep::SweepPlan;
use fuse::workloads::{all_workloads, by_name};

const USAGE: &str = "\
fusesim — FUSE (HPCA 2019) reproduction driver

USAGE:
    fusesim list                         list workloads and L1 configurations
    fusesim run [OPTIONS]                run one (workload, config) pair
    fusesim compare [OPTIONS]            run every L1 configuration on one workload
    fusesim sweep [OPTIONS]              run a (workloads x configs) grid in parallel
    fusesim paper [OPTIONS]              regenerate every paper figure and table:
                                         print each artefact's per-workload tables,
                                         then the graded Markdown ledger that
                                         EXPERIMENTS.md commits (--scale, --threads,
                                         --cache-dir, --cache-max-bytes; without
                                         --cache-dir a temporary store dedupes the
                                         cells and is removed on exit)
    fusesim check [OPTIONS]              run the event engine and the always-tick
                                         reference engine in lockstep under the
                                         fuse-check reference-model oracle (workload
                                         grid + seeded fuzzing; exits non-zero on any
                                         divergence)
    fusesim cache <ACTION> [OPTIONS]     inspect or maintain a result cache
                                         (--cache-dir). ACTION is one of:
                                           stats            print entry/byte/hit counters
                                           verify           re-digest every entry; corrupt
                                                            ones are quarantined and fail
                                                            the command
                                           gc --max-bytes N evict LRU entries over N bytes
                                           rm <DIGEST>      invalidate one cell by digest
    fusesim serve [OPTIONS]              serve batched sweep requests over a Unix
                                         socket (--socket) and/or TCP (--listen,
                                         requires --auth-token) backed by a result
                                         cache (--cache-dir); overlapping requests
                                         for the same cell share one simulation, a
                                         full job queue sheds with BUSY, and worker
                                         panics never hang clients
    fusesim submit [CELLS] [OPTIONS]     client for `fusesim serve`: send a batch of
                                         <workload>/<config> cells (or --workloads x
                                         --configs), --ping, --server-stats, or
                                         --shutdown over --socket or --addr; retries
                                         transient failures and honors BUSY backoff

OPTIONS:
    --workload <NAME>    workload name from Table II (default: ATAX)
    --config <NAME>      L1 configuration (default: Dy-FUSE)
    --workloads <LIST>   comma-separated workloads, or `all` (sweep; default all)
    --configs <LIST>     comma-separated configs, `all`, or `fig13` (sweep; default fig13)
    --threads <N>        sweep/paper worker threads (default: all cores)
    --name <NAME>        sweep entry name used as the BENCH_sweep.json
                         merge key (sweep; default cli-sweep)
    --json <PATH>        append the sweep entry to a BENCH_sweep.json file
    --stats-json <PATH>  write the engine-independent stats digest (sweep)
    --metrics-out <PATH> write the windowed stall-breakdown profile as JSON
                         (run; enables the cycle-attribution profiler)
    --trace-out <PATH>   write a Chrome trace_event JSON — load it in
                         Perfetto or about:tracing (run; enables tracing)
    --metrics-window <N> profiling window in cycles (default 4096; with
                         `sweep`, opts every cell into profiling)
    --trace-capacity <N> event-ring capacity (default 65536; oldest events
                         are overwritten once full)
    --seeds <N>          fuzz seeds to run (check; default 64; 0 skips fuzzing)
    --seed-base <N>      first fuzz seed (check; default 0)
    --skip-grid          skip the workload-grid lockstep pass (check)
    --repro-dir <PATH>   where minimized repros of fuzz failures are written
                         (check; default tests/repros)
    --volta              use the Fig. 19 Volta-class machine
    --scale <F>          instruction-budget multiplier (default 1.0)
    --quiet              print only the one-line summary
    --cache-dir <PATH>   content-addressed result cache (run/compare/sweep/
                         paper/cache/serve): cells whose key is already recorded
                         return without simulating; results are bitwise
                         identical to cold runs. Incompatible with the
                         profiler/tracer flags — observed runs are never
                         cached
    --cache-max-bytes <N> byte budget for --cache-dir; least-recently-used
                         entries are evicted over budget
    --max-bytes <N>      target size for `cache gc`
    --socket <PATH>      Unix socket path (serve/submit)
    --listen <ADDR>      TCP listen address, e.g. 127.0.0.1:7070 — port 0
                         picks a free port, printed on start (serve;
                         requires --auth-token; may be combined with
                         --socket to serve both transports)
    --addr <HOST:PORT>   TCP server address (submit; alternative to --socket)
    --auth-token <TOK>   shared token: clients must open with `AUTH <TOK>`
                         (serve over TCP: required; submit: sent first)
    --workers <N>        simulation worker threads (serve; default 2)
    --queue <N>          bounded job-queue capacity (serve; default 64)
    --max-conns <N>      concurrent connection limit; extra connections
                         get `BUSY retry-after=<ms>` (serve; default 64)
    --io-timeout-ms <N>  per-connection read/write deadline so dead peers
                         cannot pin handler threads (serve; default 30000)
    --timeout-ms <N>     per-attempt connect/read/write deadline (submit;
                         default 30000)
    --retries <N>        extra attempts with exponential backoff on
                         transient failures and BUSY (submit; default 3)
    --ping               liveness probe (submit)
    --server-stats       query cache counters (submit)
    --shutdown           stop the server after in-flight work (submit)
";

#[derive(Debug)]
struct Args {
    command: String,
    workload: String,
    config: String,
    workloads: String,
    configs: String,
    threads: Option<usize>,
    name: Option<String>,
    json: Option<String>,
    stats_json: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    metrics_window: Option<u64>,
    trace_capacity: Option<usize>,
    volta: bool,
    scale: f64,
    quiet: bool,
    seeds: u64,
    seed_base: u64,
    skip_grid: bool,
    repro_dir: String,
    cache_dir: Option<String>,
    cache_max_bytes: Option<u64>,
    max_bytes: Option<u64>,
    socket: Option<String>,
    listen: Option<String>,
    addr: Option<String>,
    auth_token: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    max_conns: Option<usize>,
    io_timeout_ms: Option<u64>,
    timeout_ms: Option<u64>,
    retries: Option<u32>,
    ping: bool,
    server_stats: bool,
    shutdown: bool,
    /// Non-flag tokens after the command: the `cache` action (+ digest
    /// for `rm`) or `submit` cell tokens.
    positionals: Vec<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let command = argv.next().unwrap_or_else(|| "help".to_string());
    let mut args = Args {
        command,
        workload: "ATAX".to_string(),
        config: "Dy-FUSE".to_string(),
        workloads: "all".to_string(),
        configs: "fig13".to_string(),
        threads: None,
        name: None,
        json: None,
        stats_json: None,
        metrics_out: None,
        trace_out: None,
        metrics_window: None,
        trace_capacity: None,
        volta: false,
        scale: 1.0,
        quiet: false,
        seeds: 64,
        seed_base: 0,
        skip_grid: false,
        repro_dir: "tests/repros".to_string(),
        cache_dir: None,
        cache_max_bytes: None,
        max_bytes: None,
        socket: None,
        listen: None,
        addr: None,
        auth_token: None,
        workers: None,
        queue: None,
        max_conns: None,
        io_timeout_ms: None,
        timeout_ms: None,
        retries: None,
        ping: false,
        server_stats: false,
        shutdown: false,
        positionals: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = argv.next().ok_or("--workload needs a value")?;
            }
            "--config" => {
                args.config = argv.next().ok_or("--config needs a value")?;
            }
            "--workloads" => {
                args.workloads = argv.next().ok_or("--workloads needs a value")?;
            }
            "--configs" => {
                args.configs = argv.next().ok_or("--configs needs a value")?;
            }
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(n);
            }
            "--name" => {
                args.name = Some(argv.next().ok_or("--name needs a value")?);
            }
            "--json" => {
                args.json = Some(argv.next().ok_or("--json needs a value")?);
            }
            "--stats-json" => {
                args.stats_json = Some(argv.next().ok_or("--stats-json needs a value")?);
            }
            "--metrics-out" => {
                args.metrics_out = Some(argv.next().ok_or("--metrics-out needs a value")?);
            }
            "--trace-out" => {
                args.trace_out = Some(argv.next().ok_or("--trace-out needs a value")?);
            }
            "--metrics-window" => {
                let v = argv.next().ok_or("--metrics-window needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad window {v:?}"))?;
                if n == 0 {
                    return Err("--metrics-window must be at least 1".to_string());
                }
                args.metrics_window = Some(n);
            }
            "--trace-capacity" => {
                let v = argv.next().ok_or("--trace-capacity needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad capacity {v:?}"))?;
                if n == 0 {
                    return Err("--trace-capacity must be at least 1".to_string());
                }
                args.trace_capacity = Some(n);
            }
            "--seeds" => {
                let v = argv.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad seed count {v:?}"))?;
            }
            "--seed-base" => {
                let v = argv.next().ok_or("--seed-base needs a value")?;
                args.seed_base = v.parse().map_err(|_| format!("bad seed base {v:?}"))?;
            }
            "--skip-grid" => args.skip_grid = true,
            "--repro-dir" => {
                args.repro_dir = argv.next().ok_or("--repro-dir needs a value")?;
            }
            "--volta" => args.volta = true,
            "--quiet" => args.quiet = true,
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad scale {v:?}"))?;
                if !(args.scale.is_finite() && args.scale > 0.0) {
                    return Err(format!("scale must be finite and positive, got {v:?}"));
                }
            }
            "--cache-dir" => {
                args.cache_dir = Some(argv.next().ok_or("--cache-dir needs a value")?);
            }
            "--cache-max-bytes" => {
                let v = argv.next().ok_or("--cache-max-bytes needs a value")?;
                args.cache_max_bytes =
                    Some(v.parse().map_err(|_| format!("bad byte budget {v:?}"))?);
            }
            "--max-bytes" => {
                let v = argv.next().ok_or("--max-bytes needs a value")?;
                args.max_bytes = Some(v.parse().map_err(|_| format!("bad byte target {v:?}"))?);
            }
            "--socket" => {
                args.socket = Some(argv.next().ok_or("--socket needs a value")?);
            }
            "--listen" => {
                args.listen = Some(argv.next().ok_or("--listen needs a value")?);
            }
            "--addr" => {
                args.addr = Some(argv.next().ok_or("--addr needs a value")?);
            }
            "--auth-token" => {
                args.auth_token = Some(argv.next().ok_or("--auth-token needs a value")?);
            }
            "--max-conns" => {
                let v = argv.next().ok_or("--max-conns needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad connection limit {v:?}"))?;
                if n == 0 {
                    return Err("--max-conns must be at least 1".to_string());
                }
                args.max_conns = Some(n);
            }
            "--io-timeout-ms" => {
                let v = argv.next().ok_or("--io-timeout-ms needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad deadline {v:?}"))?;
                if n == 0 {
                    return Err("--io-timeout-ms must be at least 1".to_string());
                }
                args.io_timeout_ms = Some(n);
            }
            "--timeout-ms" => {
                let v = argv.next().ok_or("--timeout-ms needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad deadline {v:?}"))?;
                if n == 0 {
                    return Err("--timeout-ms must be at least 1".to_string());
                }
                args.timeout_ms = Some(n);
            }
            "--retries" => {
                let v = argv.next().ok_or("--retries needs a value")?;
                args.retries = Some(v.parse().map_err(|_| format!("bad retry count {v:?}"))?);
            }
            "--workers" => {
                let v = argv.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                args.workers = Some(n);
            }
            "--queue" => {
                let v = argv.next().ok_or("--queue needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad queue capacity {v:?}"))?;
                if n == 0 {
                    return Err("--queue must be at least 1".to_string());
                }
                args.queue = Some(n);
            }
            "--ping" => args.ping = true,
            "--server-stats" => args.server_stats = true,
            "--shutdown" => args.shutdown = true,
            other if !other.starts_with("--") => {
                args.positionals.push(other.to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !args.positionals.is_empty() && !matches!(args.command.as_str(), "cache" | "submit") {
        return Err(format!(
            "unexpected argument {:?} (only `cache` and `submit` take positional arguments)",
            args.positionals[0]
        ));
    }
    Ok(args)
}

fn run_config(args: &Args) -> Result<RunConfig, String> {
    let mut rc = if args.volta {
        RunConfig::volta()
    } else {
        RunConfig::standard()
    };
    rc.ops_scale *= args.scale;
    if args.metrics_out.is_some() || args.metrics_window.is_some() {
        rc.metrics_window = Some(args.metrics_window.unwrap_or(4096));
    }
    if args.trace_out.is_some() || args.trace_capacity.is_some() {
        rc.trace_capacity = Some(args.trace_capacity.unwrap_or(65536));
    }
    if args.cache_dir.is_some() && rc.observed() {
        return Err(
            "--cache-dir cannot be combined with --metrics-out/--metrics-window or \
             --trace-out/--trace-capacity: profiles and traces are not part of a \
             cached record, so a hit would silently drop them"
                .to_string(),
        );
    }
    Ok(rc)
}

/// Opens the cache selected by `--cache-dir`/`--cache-max-bytes`, if any.
fn open_cache(args: &Args) -> Result<Option<Arc<ResultCache>>, String> {
    match &args.cache_dir {
        Some(dir) => ResultCache::open(Path::new(dir), args.cache_max_bytes)
            .map(|c| Some(Arc::new(c)))
            .map_err(|e| format!("opening cache {dir}: {e}")),
        None => Ok(None),
    }
}

fn print_result(r: &RunResult, quiet: bool) {
    println!(
        "{} / {}: IPC {:.4}  miss {:.3}  outgoing {}  cycles {}  L1 energy {:.0} nJ",
        r.workload,
        r.config,
        r.ipc(),
        r.miss_rate(),
        r.outgoing_requests(),
        r.sim.cycles,
        r.l1_energy_nj()
    );
    if quiet {
        return;
    }
    let s = &r.sim;
    println!("  instructions {}   APKI {:.1}", s.instructions, s.apki());
    println!(
        "  L1: hits {}  misses {}  merges {}  bypasses {}  writebacks {}",
        s.l1.hits, s.l1.misses, s.l1.mshr_merges, s.l1.bypasses, s.l1.writebacks
    );
    println!(
        "  L2: hits {}  misses {}   DRAM: accesses {}  row hits {}",
        s.l2.hits, s.l2.misses, s.dram_accesses, s.dram_row_hits
    );
    println!(
        "  off-chip read residency: net {:.0} cyc, L2+DRAM {:.0} cyc ({} reads)",
        s.avg_net_cycles(),
        s.avg_mem_cycles(),
        s.completed_reads
    );
    let m = &r.metrics;
    if m.tag_searches > 0 || m.migrations_to_stt > 0 || m.accuracy.total() > 0 {
        println!(
            "  FUSE: migrations SRAM->STT {}  STT->SRAM {}  WORO evictions {}  bypassed {}+{}",
            m.migrations_to_stt,
            m.migrations_to_sram,
            m.woro_evictions,
            m.bypassed_loads,
            m.bypassed_stores
        );
        println!(
            "  stalls: STT-busy {}  tag-queue-full {}  flushes {}  avg tag search {:.2} cyc",
            m.stt_busy_rejections,
            m.tag_queue_full_rejections,
            m.tq_flushes,
            m.avg_tag_search_cycles()
        );
        if m.accuracy.total() > 0 {
            println!(
                "  predictor: {} true / {} false / {} neutral over {} graded evictions",
                m.accuracy.trues,
                m.accuracy.falses,
                m.accuracy.neutrals,
                m.accuracy.total()
            );
        }
    }
    let e = &r.energy;
    println!(
        "  energy: total {:.0} nJ (L1 {:.0}, L2 {:.0}, net {:.0}, DRAM {:.0}, compute {:.0})",
        e.total_nj(),
        e.l1_nj(),
        e.l2_nj,
        e.network_nj,
        e.dram_nj,
        e.compute_nj
    );
}

fn cmd_list() {
    println!("workloads (Table II):");
    for w in all_workloads() {
        println!(
            "  {:<8} {:<8} APKI {:>5.1}  paper bypass {:>4.2}  irregularity {:.2}",
            w.name,
            w.suite.to_string(),
            w.apki,
            w.paper_bypass_ratio,
            w.irregularity
        );
    }
    println!("\nL1 configurations (Table I):");
    for p in L1Preset::ALL {
        println!("  {}", p.name());
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let spec = by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?} (try `fusesim list`)", args.workload))?;
    let preset = preset_by_name(&args.config)
        .ok_or_else(|| format!("unknown config {:?} (try `fusesim list`)", args.config))?;
    let mut plan = SweepPlan::new("run", run_config(args)?)
        .workloads([spec])
        .presets(&[preset]);
    if let Some(cache) = open_cache(args)? {
        plan = plan.cache(cache);
    }
    let report = plan.run();
    if report.cache_hits == Some(1) && !args.quiet {
        println!("cache hit (no simulation run)");
    }
    let r = &report.cell(0, 0).result;
    print_result(r, args.quiet);
    if let Some(path) = &args.metrics_out {
        let profile = r
            .profile
            .as_ref()
            .expect("--metrics-out enables the profiler");
        std::fs::write(path, profile.to_json(&r.workload, &r.config))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {} profiling windows to {path}",
            profile.series.samples.len()
        );
    }
    if let Some(path) = &args.trace_out {
        let trace = r.trace.as_ref().expect("--trace-out enables the tracer");
        std::fs::write(path, trace.chrome_trace_json())
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {} trace events to {path} (load in Perfetto or about:tracing)",
            trace.len()
        );
        if trace.dropped() > 0 {
            println!(
                "  note: ring filled; {} oldest events were overwritten (raise --trace-capacity)",
                trace.dropped()
            );
        }
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let spec = by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?} (try `fusesim list`)", args.workload))?;
    let mut plan = SweepPlan::new("compare", run_config(args)?)
        .workloads([spec])
        .presets(&L1Preset::ALL);
    if let Some(t) = args.threads {
        plan = plan.threads(t);
    }
    if let Some(cache) = open_cache(args)? {
        plan = plan.cache(cache);
    }
    let report = plan.run();
    let mut base = None;
    println!(
        "{:<10} {:>9} {:>8} {:>11} {:>10} {:>9}",
        "config", "IPC", "miss", "outgoing", "L1 nJ", "vs base"
    );
    for cell in report.row(0) {
        let r = &cell.result;
        let b = *base.get_or_insert(r.ipc());
        println!(
            "{:<10} {:>9.4} {:>8.3} {:>11} {:>10.0} {:>8.2}x",
            r.config,
            r.ipc(),
            r.miss_rate(),
            r.outgoing_requests(),
            r.l1_energy_nj(),
            r.ipc() / b
        );
    }
    if !args.quiet {
        println!("{}", report.timing_summary());
    }
    Ok(())
}

fn parse_sweep_workloads(list: &str) -> Result<Vec<fuse::workloads::spec::WorkloadSpec>, String> {
    if list.eq_ignore_ascii_case("all") {
        return Ok(all_workloads());
    }
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| by_name(name).ok_or_else(|| format!("unknown workload {name:?}")))
        .collect()
}

fn parse_sweep_presets(list: &str) -> Result<Vec<L1Preset>, String> {
    if list.eq_ignore_ascii_case("all") {
        return Ok(L1Preset::ALL.to_vec());
    }
    if list.eq_ignore_ascii_case("fig13") {
        return Ok(L1Preset::FIG13.to_vec());
    }
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| preset_by_name(name).ok_or_else(|| format!("unknown config {name:?}")))
        .collect()
}

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let workloads = parse_sweep_workloads(&args.workloads)?;
    let presets = parse_sweep_presets(&args.configs)?;
    if workloads.is_empty() || presets.is_empty() {
        return Err("sweep needs at least one workload and one config".to_string());
    }
    let name = args.name.as_deref().unwrap_or("cli-sweep");
    let mut plan = SweepPlan::new(name, run_config(args)?)
        .workloads(workloads)
        .presets(&presets);
    if let Some(t) = args.threads {
        plan = plan.threads(t);
    }
    if let Some(cache) = open_cache(args)? {
        plan = plan.cache(cache);
    }
    let report = plan.run();

    print!("{:<10}", "workload");
    for c in &report.configs {
        print!(" {c:>10}");
    }
    println!(" (IPC)");
    for (wi, w) in report.workloads.iter().enumerate() {
        print!("{w:<10}");
        for cell in report.row(wi) {
            print!(" {:>10.4}", cell.result.ipc());
        }
        println!();
    }
    println!("{}", report.timing_summary());
    if let (Some(h), Some(m)) = (report.cache_hits, report.cache_misses) {
        println!("cache: {h} hit(s), {m} miss(es)");
    }
    if let Some(path) = &args.json {
        report
            .write_json(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote sweep entry to {path}");
    }
    if let Some(path) = &args.stats_json {
        report
            .write_stats_json(std::path::Path::new(path))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote stats digest to {path}");
    }
    Ok(())
}

/// `fusesim paper` — every artefact's tables, then the ledger block, then
/// how many cells it simulated.
fn cmd_paper(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    // Without --cache-dir, a scratch store dedupes the cells and goes.
    let scratch = std::env::temp_dir().join(format!("fusesim-paper-{}", std::process::id()));
    let dir = args
        .cache_dir
        .as_deref()
        .map_or(scratch.as_path(), Path::new);
    let cache = ResultCache::open(dir, args.cache_max_bytes)
        .map_err(|e| format!("opening cache {}: {e}", dir.display()))?;
    let ledger = fuse::paper::run(
        args.scale,
        args.threads,
        &Arc::new(cache),
        &mut std::io::stdout(),
    );
    if args.cache_dir.is_none() {
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let ledger = ledger.map_err(|e| format!("writing tables: {e}"))?;
    println!("\n{}", ledger.block);
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "paper: {} cell(s) simulated in {secs:.1}s",
        ledger.simulated
    );
    Ok(())
}

/// Differential verification: a lockstep pass over the workload grid,
/// then seeded fuzzing over adversarial small machines. Any divergence
/// is minimized with the shrinker, written as a `.repro`, and fails the
/// command.
fn cmd_check(args: &Args) -> Result<(), String> {
    use fuse::check::{repro, run_case, shrink, FuzzSpec};

    let mut failures = 0usize;

    if !args.skip_grid {
        let rc = RunConfig {
            ops_scale: RunConfig::smoke().ops_scale * args.scale,
            ..RunConfig::smoke()
        };
        let workloads = all_workloads();
        println!(
            "lockstep grid: {} workloads x {} Fig. 13 presets, both engines, oracle attached",
            workloads.len(),
            L1Preset::FIG13.len()
        );
        for w in &workloads {
            for preset in L1Preset::FIG13 {
                let report = fuse::runner::lockstep_workload(w, preset, &rc);
                if report.ok() {
                    if !args.quiet {
                        println!(
                            "  ok   {:<8} {:<8} ({} events)",
                            w.name,
                            preset.name(),
                            report.events_compared
                        );
                    }
                } else {
                    failures += 1;
                    println!("  FAIL {:<8} {:<8}", w.name, preset.name());
                    for v in &report.violations {
                        println!("       {v}");
                    }
                }
            }
        }
    }

    if args.seeds > 0 {
        println!(
            "fuzz: {} seeds starting at {}, adversarial machines, both engines",
            args.seeds, args.seed_base
        );
        for seed in args.seed_base..args.seed_base + args.seeds {
            let spec = FuzzSpec::from_seed(seed);
            let report = run_case(&spec);
            if report.ok() {
                if !args.quiet {
                    println!("  ok   seed {seed} ({} events)", report.events_compared);
                }
                continue;
            }
            failures += 1;
            println!(
                "  FAIL seed {seed}: {}",
                report
                    .violations
                    .first()
                    .map_or("unknown violation", String::as_str)
            );
            let minimal = shrink(&spec, |s| !run_case(s).ok(), 200);
            let reason = run_case(&minimal)
                .violations
                .first()
                .cloned()
                .unwrap_or_else(|| "shrunk case no longer fails (flaky?)".to_string());
            let text = repro::to_text(&minimal, Some(&reason));
            std::fs::create_dir_all(&args.repro_dir)
                .map_err(|e| format!("creating {}: {e}", args.repro_dir))?;
            let path = format!("{}/fuzz-seed-{seed}.repro", args.repro_dir);
            std::fs::write(&path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            println!("       minimized repro written to {path}:");
            for line in text.lines() {
                println!("       {line}");
            }
        }
    }

    if failures > 0 {
        Err(format!("{failures} divergence(s) found"))
    } else {
        println!("all checks passed: zero divergences");
        Ok(())
    }
}

/// `fusesim cache <stats|verify|gc|rm>` — inspect and maintain a
/// `--cache-dir` without running any simulation.
fn cmd_cache(args: &Args) -> Result<(), String> {
    let cache = open_cache(args)?.ok_or("cache needs --cache-dir")?;
    let action = args
        .positionals
        .first()
        .map(String::as_str)
        .unwrap_or("stats");
    match action {
        "stats" => {
            let s = cache.stats();
            println!(
                "entries {}  bytes {}  hits {}  misses {}  inserts {}  evictions {}  quarantined {}",
                s.entries, s.bytes, s.hits, s.misses, s.inserts, s.evictions, s.quarantined
            );
            Ok(())
        }
        "verify" => {
            let outcomes = cache.verify();
            let mut corrupt = 0usize;
            for o in &outcomes {
                match o {
                    VerifyOutcome::Ok { digest } => {
                        if !args.quiet {
                            println!("  ok      {digest}");
                        }
                    }
                    VerifyOutcome::Corrupt { digest, reason } => {
                        corrupt += 1;
                        println!("  CORRUPT {digest}: {reason} (quarantined)");
                    }
                }
            }
            println!("{} entries verified, {corrupt} corrupt", outcomes.len());
            if corrupt > 0 {
                Err(format!("{corrupt} corrupt entr(ies) quarantined"))
            } else {
                Ok(())
            }
        }
        "gc" => {
            let target = args.max_bytes.ok_or("cache gc needs --max-bytes")?;
            let evicted = cache.gc(target);
            let s = cache.stats();
            println!(
                "evicted {evicted} entr(ies); {} entries, {} bytes remain",
                s.entries, s.bytes
            );
            Ok(())
        }
        "rm" => {
            let digest = args
                .positionals
                .get(1)
                .ok_or("cache rm needs a digest (see `cache verify` output)")?;
            if cache.remove(digest) {
                println!("removed {digest}");
                Ok(())
            } else {
                Err(format!("no entry {digest}"))
            }
        }
        other => Err(format!(
            "unknown cache action {other:?} (expected stats, verify, gc or rm)"
        )),
    }
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    if args.socket.is_none() && args.listen.is_none() {
        return Err("serve needs --socket and/or --listen".to_string());
    }
    if args.listen.is_some() && args.auth_token.is_none() {
        return Err("serving TCP requires --auth-token (the socket is network-reachable)".into());
    }
    if let Some(token) = &args.auth_token {
        auth::validate_token(token)?;
    }
    let cache = open_cache(args)?.ok_or("serve needs --cache-dir")?;
    let rc = run_config(args)?;
    let config = ServerConfig {
        workers: args.workers.unwrap_or(2),
        queue_capacity: args.queue.unwrap_or(64),
    };
    let io_timeout = Duration::from_millis(args.io_timeout_ms.unwrap_or(30_000));
    let opts = ServeOptions {
        auth_token: args.auth_token.clone(),
        read_timeout: io_timeout,
        write_timeout: io_timeout,
        max_connections: args.max_conns.unwrap_or(64),
        ..ServeOptions::default()
    };
    let mut listeners = Vec::new();
    if let Some(socket) = &args.socket {
        let l = Listener::bind_unix(Path::new(socket))
            .map_err(|e| format!("binding unix:{socket}: {e}"))?;
        listeners.push(l);
    }
    if let Some(addr) = &args.listen {
        let l = Listener::bind_tcp(addr).map_err(|e| format!("binding tcp:{addr}: {e}"))?;
        listeners.push(l);
    }
    let server = Server::new(Arc::new(ServeBackend::new(rc)), cache, config);
    for l in &listeners {
        // The actual bound endpoint: `--listen 127.0.0.1:0` resolves to
        // the kernel-assigned port here, which scripts parse.
        println!(
            "serving on {} ({} workers, queue {}, {} conns max{})",
            l.endpoint().describe(),
            config.workers,
            config.queue_capacity,
            opts.max_connections,
            if opts.auth_token.is_some() {
                ", auth required"
            } else {
                ""
            }
        );
    }
    // One serve loop per listener; a SHUTDOWN on either transport wakes
    // and stops both. Errors are joined after all loops exit so one
    // transport failing does not strand the other's cleanup.
    let results: Vec<std::io::Result<()>> = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .iter()
            .map(|l| scope.spawn(|| server.serve(l, &opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve loop panicked"))
            .collect()
    });
    server.join();
    for (l, r) in listeners.iter().zip(&results) {
        if let Err(e) = r {
            return Err(format!("serving {}: {e}", l.endpoint().describe()));
        }
    }
    let s = server.cache().stats();
    println!(
        "served: {} hits, {} misses, {} coalesced, {} panics contained; cache holds {} entries",
        s.hits,
        s.misses,
        server.coalesced(),
        server.panicked(),
        s.entries
    );
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let endpoint = match (&args.socket, &args.addr) {
        (Some(_), Some(_)) => {
            return Err("submit takes --socket or --addr, not both".to_string());
        }
        (Some(socket), None) => Endpoint::unix(socket),
        (None, Some(addr)) => Endpoint::tcp(addr.clone()),
        (None, None) => return Err("submit needs --socket or --addr".to_string()),
    };
    let request = if args.ping {
        "PING".to_string()
    } else if args.server_stats {
        "STATS".to_string()
    } else if args.shutdown {
        "SHUTDOWN".to_string()
    } else {
        let cells: Vec<String> = if args.positionals.is_empty() {
            let workloads = parse_sweep_workloads(&args.workloads)?;
            let presets = parse_sweep_presets(&args.configs)?;
            workloads
                .iter()
                .flat_map(|w| presets.iter().map(|p| format!("{}/{}", w.name, p.name())))
                .collect()
        } else {
            for c in &args.positionals {
                CellSpec::parse(c)?; // fail fast, before the round trip
            }
            args.positionals.clone()
        };
        format!("SWEEP {}", cells.join(" "))
    };
    let mut cfg = ClientConfig::new(endpoint);
    cfg.auth_token = args.auth_token.clone();
    cfg.io_timeout = Duration::from_millis(args.timeout_ms.unwrap_or(30_000));
    if let Some(retries) = args.retries {
        cfg.retries = retries;
    }
    let lines = client::request(&cfg, &request)?;
    let mut errors = 0usize;
    for line in &lines {
        println!("{line}");
        if line.starts_with("ERR") {
            errors += 1;
        }
    }
    if errors > 0 {
        Err(format!("{errors} cell(s) failed"))
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "sweep" => cmd_sweep(&args),
        "paper" => cmd_paper(&args),
        "check" => cmd_check(&args),
        "cache" => cmd_cache(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        _ => {
            println!("{USAGE}");
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_run_flags() {
        let a = args(&[
            "run",
            "--workload",
            "GEMM",
            "--config",
            "By-NVM",
            "--volta",
            "--scale",
            "2",
        ])
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.workload, "GEMM");
        assert_eq!(a.config, "By-NVM");
        assert!(a.volta);
        assert_eq!(a.scale, 2.0);
        let rc = run_config(&a).unwrap();
        assert!(rc.skip && rc.active_set, "the event engine is the default");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_scale() {
        assert!(args(&["run", "--bogus"]).is_err());
        assert!(args(&["run", "--scale", "0"]).is_err());
        assert!(args(&["run", "--scale", "x"]).is_err());
        // These parse as f64 but are no budget: NaN would round it to the
        // 8-op floor, infinity would saturate it to the cycle cap.
        for bad in ["NaN", "inf", "-inf"] {
            let e = args(&["run", "--scale", bad]).unwrap_err();
            assert!(e.contains("finite"), "{bad}: got {e:?}");
        }
        assert!(args(&["run", "--workload"]).is_err());
    }

    #[test]
    fn preset_lookup_is_case_insensitive() {
        assert_eq!(preset_by_name("dy-fuse"), Some(L1Preset::DyFuse));
        assert_eq!(preset_by_name("L1-SRAM"), Some(L1Preset::L1Sram));
        assert_eq!(preset_by_name("nope"), None);
    }

    #[test]
    fn parses_sweep_flags() {
        let a = args(&[
            "sweep",
            "--workloads",
            "ATAX,BICG",
            "--configs",
            "fig13",
            "--threads",
            "4",
            "--json",
            "out.json",
            "--stats-json",
            "digest.json",
        ])
        .unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.stats_json.as_deref(), Some("digest.json"));
        assert_eq!(parse_sweep_workloads(&a.workloads).unwrap().len(), 2);
        assert_eq!(
            parse_sweep_presets(&a.configs).unwrap(),
            L1Preset::FIG13.to_vec()
        );
    }

    #[test]
    fn parses_observability_flags_and_applies_defaults() {
        let a = args(&[
            "run",
            "--metrics-out",
            "prof.json",
            "--trace-out",
            "trace.json",
        ])
        .unwrap();
        let rc = run_config(&a).unwrap();
        assert_eq!(rc.metrics_window, Some(4096), "default window");
        assert_eq!(rc.trace_capacity, Some(65536), "default ring capacity");

        let b = args(&["run", "--metrics-window", "512", "--trace-capacity", "16"]).unwrap();
        let rc = run_config(&b).unwrap();
        assert_eq!(rc.metrics_window, Some(512));
        assert_eq!(rc.trace_capacity, Some(16));

        let plain = run_config(&args(&["run"]).unwrap()).unwrap();
        assert_eq!(plain.metrics_window, None, "observability is opt-in");
        assert_eq!(plain.trace_capacity, None);

        assert!(args(&["run", "--metrics-window", "0"]).is_err());
        assert!(args(&["run", "--trace-capacity", "0"]).is_err());
        assert!(args(&["run", "--metrics-out"]).is_err());
    }

    #[test]
    fn parses_cache_flags_and_actions() {
        let a = args(&["cache", "stats", "--cache-dir", "/tmp/c"]).unwrap();
        assert_eq!(a.command, "cache");
        assert_eq!(a.positionals, vec!["stats"]);
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/c"));

        let a = args(&[
            "cache",
            "gc",
            "--cache-dir",
            "/tmp/c",
            "--max-bytes",
            "1000",
        ])
        .unwrap();
        assert_eq!(a.positionals, vec!["gc"]);
        assert_eq!(a.max_bytes, Some(1000));

        let a = args(&["cache", "rm", "deadbeef", "--cache-dir", "/tmp/c"]).unwrap();
        assert_eq!(a.positionals, vec!["rm", "deadbeef"]);

        let a = args(&[
            "sweep",
            "--cache-dir",
            "/tmp/c",
            "--cache-max-bytes",
            "4096",
        ])
        .unwrap();
        assert_eq!(a.cache_max_bytes, Some(4096));
        assert!(run_config(&a).is_ok());
    }

    #[test]
    fn cache_refuses_the_profiler_and_tracer() {
        for observer in [
            &["run", "--cache-dir", "/tmp/c", "--metrics-out", "m.json"][..],
            &["run", "--cache-dir", "/tmp/c", "--trace-out", "t.json"][..],
            &["sweep", "--cache-dir", "/tmp/c", "--metrics-window", "512"][..],
            &["run", "--cache-dir", "/tmp/c", "--trace-capacity", "16"][..],
        ] {
            let a = args(observer).unwrap();
            let e = run_config(&a).unwrap_err();
            assert!(e.contains("--cache-dir"), "got {e:?}");
        }
    }

    #[test]
    fn parses_serve_and_submit_flags() {
        let a = args(&[
            "serve",
            "--socket",
            "/tmp/f.sock",
            "--cache-dir",
            "/tmp/c",
            "--workers",
            "4",
            "--queue",
            "128",
        ])
        .unwrap();
        assert_eq!(a.socket.as_deref(), Some("/tmp/f.sock"));
        assert_eq!(a.workers, Some(4));
        assert_eq!(a.queue, Some(128));

        let a = args(&[
            "submit",
            "ATAX/Dy-FUSE",
            "GEMM/L1-SRAM",
            "--socket",
            "/tmp/f.sock",
        ])
        .unwrap();
        assert_eq!(a.positionals, vec!["ATAX/Dy-FUSE", "GEMM/L1-SRAM"]);

        let a = args(&["submit", "--socket", "/tmp/f.sock", "--shutdown"]).unwrap();
        assert!(a.shutdown && !a.ping && !a.server_stats);

        assert!(args(&["serve", "--workers", "0"]).is_err());
        assert!(args(&["serve", "--queue", "0"]).is_err());
    }

    #[test]
    fn parses_tcp_transport_flags() {
        let a = args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--auth-token",
            "s3cr3t",
            "--cache-dir",
            "/tmp/c",
            "--max-conns",
            "8",
            "--io-timeout-ms",
            "5000",
        ])
        .unwrap();
        assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(a.auth_token.as_deref(), Some("s3cr3t"));
        assert_eq!(a.max_conns, Some(8));
        assert_eq!(a.io_timeout_ms, Some(5000));

        let a = args(&[
            "submit",
            "ATAX/Dy-FUSE",
            "--addr",
            "127.0.0.1:7070",
            "--auth-token",
            "s3cr3t",
            "--timeout-ms",
            "2000",
            "--retries",
            "5",
        ])
        .unwrap();
        assert_eq!(a.addr.as_deref(), Some("127.0.0.1:7070"));
        assert_eq!(a.timeout_ms, Some(2000));
        assert_eq!(a.retries, Some(5));

        assert!(args(&["serve", "--max-conns", "0"]).is_err());
        assert!(args(&["serve", "--io-timeout-ms", "0"]).is_err());
        assert!(args(&["submit", "--timeout-ms", "0"]).is_err());
    }

    #[test]
    fn serve_and_submit_validate_their_transport_combinations() {
        // TCP serving without a token must be refused up front.
        let a = args(&["serve", "--listen", "127.0.0.1:0", "--cache-dir", "/tmp/c"]).unwrap();
        let e = cmd_serve(&a).unwrap_err();
        assert!(e.contains("--auth-token"), "got {e:?}");
        // Unframeable tokens (whitespace cannot survive the one-line
        // protocol) are refused before binding anything.
        let a = args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--auth-token",
            "two words",
            "--cache-dir",
            "/tmp/c",
        ])
        .unwrap();
        let e = cmd_serve(&a).unwrap_err();
        assert!(e.contains("auth token"), "got {e:?}");
        // No transport at all.
        let a = args(&["serve", "--cache-dir", "/tmp/c"]).unwrap();
        assert!(cmd_serve(&a)
            .unwrap_err()
            .contains("--socket and/or --listen"));
        // submit: exactly one transport.
        let a = args(&["submit", "--ping"]).unwrap();
        assert!(cmd_submit(&a).unwrap_err().contains("--socket or --addr"));
        let a = args(&[
            "submit",
            "--ping",
            "--socket",
            "/tmp/f.sock",
            "--addr",
            "1.2.3.4:1",
        ])
        .unwrap();
        assert!(cmd_submit(&a).unwrap_err().contains("not both"));
    }

    #[test]
    fn positionals_are_rejected_outside_cache_and_submit() {
        let e = args(&["run", "stray"]).unwrap_err();
        assert!(e.contains("positional"), "got {e:?}");
        assert!(args(&["sweep", "ATAX/Dy-FUSE"]).is_err());
    }

    #[test]
    fn sweep_lists_reject_unknown_names() {
        assert!(parse_sweep_workloads("ATAX,nope").is_err());
        assert!(parse_sweep_presets("Dy-FUSE,bogus").is_err());
        assert!(args(&["sweep", "--threads", "0"]).is_err());
        assert_eq!(
            parse_sweep_workloads("all").unwrap().len(),
            all_workloads().len()
        );
    }
}
