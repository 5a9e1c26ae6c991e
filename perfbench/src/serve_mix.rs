//! `serve-mix`: two closed-loop clients over authenticated TCP loopback
//! against an in-process `Server` whose cache was half persisted by a
//! separate handle, as after a restart.
//!
//! The run is a sequence of epochs. Each epoch persists the seeded half of
//! the 42-cell universe into a fresh cache directory, opens a server on
//! it, and lets both clients send their seeded request streams; so every
//! epoch exercises all three store paths — disk reads of the persisted
//! half, memoised hits, and coalesced misses that simulate and insert.
//! Every `CELL` reply is checked against a reference run of its cell.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fuse::runner::{RunConfig, ServeBackend};
use fuse::serve::proto::CellSpec;
use fuse::serve::{
    client, CellBackend, CellKey, CellRecord, ClientConfig, Endpoint, Listener, ResultCache,
    ServeOptions, Server, ServerConfig,
};

use crate::engine::{self, CellRun};
use crate::metrics::{Outcome, PER_EPOCH};
use crate::timed::{Spans, TimedBackend, Totals};
use crate::{median, secs, tail_percentile, Rng, DEFAULT_SEED};

const TOKEN: &str = "perfbench-serve-mix";
/// Closed-loop clients (the host has two cores).
const CLIENTS: usize = 2;
/// Requests each client sends per epoch.
const REQUESTS: usize = 40;
/// Cells per request: uniform in `1..=MAX_CELLS`.
const MAX_CELLS: usize = 8;
/// Zipf exponent of cell popularity.
const ZIPF_S: f64 = 1.0;
/// Attempts per request before it counts as refused.
const ATTEMPTS: u32 = 4;
/// Direct-call samples per traced epoch (connect+AUTH, wire).
const PROBES: usize = 10;

/// The 42-cell universe with its references and the persisted half.
struct Universe {
    cells: Vec<CellSpec>,
    keys: Vec<CellKey>,
    /// (cycles, instructions) of a reference run of each cell.
    reference: Vec<(u64, u64)>,
    /// The production record of each persisted cell.
    persisted: Vec<Option<CellRecord>>,
    /// Cumulative popularity over cells, most popular first in `rank`.
    cdf: Vec<f64>,
    rank: Vec<usize>,
}

impl Universe {
    fn token(&self, i: usize) -> String {
        self.cells[i].token()
    }

    /// The `SWEEP` request line for cells `req`.
    fn sweep_line(&self, req: &[usize]) -> String {
        let tokens: Vec<String> = req.iter().map(|&c| self.token(c)).collect();
        format!("SWEEP {}", tokens.join(" "))
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cdf[self.cdf.len() - 1];
        self.rank[self
            .cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)]
    }

    /// One client's seeded request stream for one epoch.
    fn requests(&self, seed: u64, epoch: u64, client: u64) -> Vec<Vec<usize>> {
        let mut rng = Rng::new(seed, 100 + epoch * CLIENTS as u64 + client);
        (0..REQUESTS)
            .map(|_| {
                let k = 1 + rng.below(MAX_CELLS);
                let mut cells: Vec<usize> = Vec::with_capacity(k);
                while cells.len() < k {
                    let c = self.draw(&mut rng);
                    if !cells.contains(&c) {
                        cells.push(c);
                    }
                }
                cells
            })
            .collect()
    }
}

/// Builds the universe: reference runs on the benchmark's direct path
/// (traced when `spans` is given), production records for the persisted
/// half. Per workload the seed persists one of its two cells.
fn universe(seed: u64, spans: Option<&Arc<Spans>>, out: &mut Outcome) -> (Universe, Vec<CellRun>) {
    let rc = RunConfig::smoke();
    let backend = ServeBackend::new(rc.clone());
    let mut pick = Rng::new(seed, 2);
    let mut u = Universe {
        cells: Vec::new(),
        keys: Vec::new(),
        reference: Vec::new(),
        persisted: Vec::new(),
        cdf: Vec::new(),
        rank: Vec::new(),
    };
    let mut runs = Vec::new();
    for spec in fuse::workloads::all_workloads() {
        let keep = pick.below(2);
        for (ci, preset) in engine::GRID_PRESETS.into_iter().enumerate() {
            let cell = CellSpec {
                workload: spec.name.to_string(),
                config: preset.name().to_string(),
            };
            let r = engine::run(
                engine::build(&spec, preset, &rc, DEFAULT_SEED, spans),
                preset,
                &rc,
            );
            out.gate(engine::check_complete(&r.sim, &spec, &rc));
            let key = backend.key(&cell).expect("universe cells are known");
            let persisted = (ci == keep).then(|| {
                let rec = backend.simulate(&cell).expect("universe cells simulate");
                out.gate(engine::check_same(
                    &format!("{} record vs reference", cell.token()),
                    (&rec.sim, &rec.metrics),
                    (&r.sim, &r.metrics),
                ));
                rec
            });
            u.reference.push((r.sim.cycles, r.sim.instructions));
            u.cells.push(cell);
            u.keys.push(key);
            u.persisted.push(persisted);
            runs.push(r);
        }
    }
    // Popularity order is fixed (not seeded), so every seed sees the same
    // mix statistics; the seed drives the draws and the persisted half.
    u.rank = (0..u.cells.len()).collect();
    Rng::new(0x5EED, 3).shuffle(&mut u.rank);
    let mut acc = 0.0;
    u.cdf = (0..u.cells.len())
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    (u, runs)
}

/// What the clients of all epochs observed.
#[derive(Default)]
struct Tally {
    latency_ms: Vec<f64>,
    cached: u64,
    computed: u64,
    reply_cycles: u64,
    busy: u64,
    retries: u64,
}

/// Checks one `SWEEP` response against the request and the references;
/// returns (cached, computed, Σ cycles).
fn check_reply(lines: &[String], req: &[usize], u: &Universe) -> Result<(u64, u64, u64), String> {
    if lines.len() != req.len() + 1 {
        return Err(format!("{} lines for {} cells", lines.len(), req.len()));
    }
    let (mut cached, mut computed, mut cycles) = (0, 0, 0);
    for (line, &c) in lines.iter().zip(req) {
        let f: Vec<&str> = line.split(' ').collect();
        let field = |i: usize, key: &str| {
            f.get(i)
                .and_then(|s| s.strip_prefix(key))
                .and_then(|v| v.parse::<u64>().ok())
        };
        let (want_cycles, want_instr) = u.reference[c];
        let ok = f.len() == 6
            && f[0] == "CELL"
            && f[1] == u.token(c)
            && field(4, "cycles=") == Some(want_cycles)
            && field(5, "instructions=") == Some(want_instr);
        if !ok {
            return Err(format!(
                "reply {line:?} does not match the reference of {} ({want_cycles} cycles, \
                 {want_instr} instructions)",
                u.token(c)
            ));
        }
        match f[2] {
            "cached" => cached += 1,
            _ => computed += 1,
        }
        cycles += want_cycles;
    }
    let done = &lines[req.len()];
    if done != &format!("DONE hits={cached} misses={computed} errors=0") {
        return Err(format!("unexpected terminal line {done:?}"));
    }
    Ok((cached, computed, cycles))
}

/// One client's closed loop: send each request after the previous reply.
fn client_loop(endpoint: &Endpoint, reqs: &[Vec<usize>], u: &Universe, out: &mut Outcome) -> Tally {
    let mut cfg = ClientConfig::new(endpoint.clone());
    cfg.auth_token = Some(TOKEN.to_string());
    // Retries are made here, so BUSY replies and retries can be counted.
    cfg.retries = 0;
    let mut t = Tally::default();
    for req in reqs {
        let line = u.sweep_line(req);
        let start = Instant::now();
        let mut attempt = 1;
        let reply = loop {
            match client::request(&cfg, &line) {
                Ok(lines) => break Ok(lines),
                Err(e) => {
                    if e.contains("server busy") {
                        t.busy += 1;
                    }
                    if attempt == ATTEMPTS {
                        break Err(e);
                    }
                    t.retries += 1;
                    std::thread::sleep(Duration::from_millis(5 << attempt));
                    attempt += 1;
                }
            }
        };
        t.latency_ms.push(start.elapsed().as_secs_f64() * 1e3);
        out.gate(reply.and_then(|lines| {
            let (cached, computed, cycles) = check_reply(&lines, req, u)?;
            t.cached += cached;
            t.computed += computed;
            t.reply_cycles += cycles;
            Ok(())
        }));
    }
    t
}

/// Per-layer samples from the direct calls of traced epochs (µs).
#[derive(Default)]
struct Probes {
    store_get_us: Vec<f64>,
    store_insert_us: Vec<f64>,
    connect_auth_us: Vec<f64>,
    wire_us: Vec<f64>,
    disk_hits: u64,
    coalesced: u64,
    misses: u64,
    backend: Totals,
}

/// Times `AUTH` round trips on fresh connections.
fn probe_connect(endpoint: &Endpoint, p: &mut Probes) -> Result<(), String> {
    for _ in 0..PROBES {
        let t = Instant::now();
        let mut conn = endpoint
            .connect(Duration::from_secs(10))
            .map_err(|e| format!("dial: {e}"))?;
        writeln!(conn, "AUTH {TOKEN}").map_err(|e| format!("send AUTH: {e}"))?;
        let mut reply = String::new();
        BufReader::new(conn)
            .read_line(&mut reply)
            .map_err(|e| format!("read AUTH reply: {e}"))?;
        if reply.trim_end() != "OK" {
            return Err(format!("AUTH refused: {reply:?}"));
        }
        p.connect_auth_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Times the same warm batches over TCP and in process; the difference
/// is the wire cost.
fn probe_wire(
    server: &Server,
    endpoint: &Endpoint,
    reqs: &[Vec<usize>],
    u: &Universe,
    p: &mut Probes,
) -> Result<(), String> {
    let mut cfg = ClientConfig::new(endpoint.clone());
    cfg.auth_token = Some(TOKEN.to_string());
    let (mut tcp, mut local) = (Vec::new(), Vec::new());
    for req in reqs.iter().take(PROBES) {
        let specs: Vec<CellSpec> = req.iter().map(|&c| u.cells[c].clone()).collect();
        let line = u.sweep_line(req);
        let t = Instant::now();
        client::request(&cfg, &line)?;
        tcp.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        server.resolve_batch(&specs);
        local.push(t.elapsed().as_secs_f64() * 1e6);
    }
    p.wire_us.push(median(&tcp) - median(&local));
    Ok(())
}

/// The timed part and set-up time of one epoch.
struct Epoch {
    setup_s: f64,
    wall_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn epoch(
    u: &Universe,
    dir: &Path,
    seed: u64,
    index: u64,
    traced: bool,
    tally: &mut Tally,
    probes: &mut Probes,
    out: &mut Outcome,
) -> Result<Epoch, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let _ = std::fs::remove_dir_all(dir);
    {
        // A separate handle persists the seeded half, as a previous
        // server process would have. This prepares the input; the set-up
        // timed below is the restart itself.
        let store = ResultCache::open(dir, None).map_err(io)?;
        for (key, rec) in u.keys.iter().zip(&u.persisted) {
            if let Some(rec) = rec {
                let ti = Instant::now();
                store.insert(key, rec.clone()).map_err(io)?;
                probes
                    .store_insert_us
                    .push(ti.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let t = Instant::now();
    let timed_backend =
        traced.then(|| Arc::new(TimedBackend::new(ServeBackend::new(RunConfig::smoke()))));
    let backend: Arc<dyn CellBackend> = match &timed_backend {
        Some(b) => b.clone(),
        None => Arc::new(ServeBackend::new(RunConfig::smoke())),
    };
    let server = Arc::new(Server::new(
        backend,
        Arc::new(ResultCache::open(dir, None).map_err(io)?),
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
        },
    ));
    let listener = Listener::bind_tcp("127.0.0.1:0").map_err(io)?;
    let endpoint = listener.endpoint();
    let opts = ServeOptions {
        auth_token: Some(TOKEN.to_string()),
        ..ServeOptions::default()
    };
    let streams: Vec<Vec<Vec<usize>>> = (0..CLIENTS as u64)
        .map(|c| u.requests(seed, index, c))
        .collect();
    let setup_s = secs(t);

    let (wall_s, probed) = std::thread::scope(|s| {
        let acceptor = {
            let server = server.clone();
            s.spawn(move || server.serve(&listener, &opts))
        };
        let t = Instant::now();
        let clients: Vec<_> = streams
            .iter()
            .map(|reqs| {
                let endpoint = endpoint.clone();
                s.spawn(move || {
                    let mut local = Outcome::default();
                    let t = client_loop(&endpoint, reqs, u, &mut local);
                    (t, local)
                })
            })
            .collect();
        for c in clients {
            let (t, local) = c.join().expect("client thread panicked");
            tally.latency_ms.extend(t.latency_ms);
            tally.cached += t.cached;
            tally.computed += t.computed;
            tally.reply_cycles += t.reply_cycles;
            tally.busy += t.busy;
            tally.retries += t.retries;
            out.merge(local);
        }
        let wall_s = secs(t);
        let probed = if traced {
            probe_connect(&endpoint, probes)
                .and_then(|()| probe_wire(&server, &endpoint, &streams[0], u, probes))
        } else {
            Ok(())
        };
        server.request_shutdown();
        let served = acceptor.join().expect("acceptor thread panicked");
        (
            wall_s,
            served.map_err(|e| format!("serve loop: {e}")).and(probed),
        )
    });
    probed?;
    server.join();

    if traced {
        // Direct reads of the persisted half on a fresh handle: the disk
        // path of a first hit after a restart.
        let store = ResultCache::open(dir, None).map_err(io)?;
        for (key, rec) in u.keys.iter().zip(&u.persisted) {
            if rec.is_some() {
                let t = Instant::now();
                let hit = store.get(key).is_some();
                probes.store_get_us.push(t.elapsed().as_secs_f64() * 1e6);
                if !hit {
                    return Err(format!("persisted cell {} missing", key.hex));
                }
            }
        }
        let requested: std::collections::BTreeSet<usize> =
            streams.iter().flatten().flatten().copied().collect();
        probes.disk_hits += requested
            .iter()
            .filter(|&&c| u.persisted[c].is_some())
            .count() as u64;
        probes.coalesced += server.coalesced();
        probes.misses += server.cache().stats().inserts;
        if let Some(b) = &timed_backend {
            probes.backend.merge(&b.totals());
        }
    }
    std::fs::remove_dir_all(dir).map_err(io)?;
    Ok(Epoch { setup_s, wall_s })
}

/// The `serve-mix` workload. Cache directories live under `scratch`.
pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();
    let spans = trace.then(Spans::new);
    let t_ref = Instant::now();
    let (u, runs) = universe(seed, spans.as_ref(), &mut out);
    let reference_s = secs(t_ref);
    let mut tally = Tally::default();
    let mut probes = Probes::default();
    let (mut setup, mut wall, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    let (mut index, mut last_s) = (0u64, 0.0);
    while engine::another(t0, seconds, last_s, index as usize, trace && index < 2) {
        let traced = trace && index % 2 == 1;
        let t_epoch = Instant::now();
        let dir = scratch.join(format!("serve-mix-{}-{index}", std::process::id()));
        match epoch(
            &u,
            &dir,
            seed,
            index,
            traced,
            &mut tally,
            &mut probes,
            &mut out,
        ) {
            Ok(e) => {
                setup.push(e.setup_s);
                if traced {
                    traced_wall.push(e.wall_s);
                } else {
                    wall.push(e.wall_s);
                }
            }
            Err(e) => {
                out.gate(Err(format!("epoch {index}: {e}")));
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
        }
        last_s = secs(t_epoch);
        index += 1;
    }
    if wall.is_empty() {
        return out;
    }

    let total_wall: f64 = wall.iter().chain(&traced_wall).sum();
    let (pct, tail) = tail_percentile(&tally.latency_ms);
    out.set("setup_s", median(&setup), "s");
    out.set("wall_s", median(&wall), "s");
    out.set(
        "sim_cycles_per_s",
        tally.reply_cycles as f64 / total_wall,
        "cycles/s",
    );
    out.set("req_ms_p50", median(&tally.latency_ms), "ms");
    out.set("req_ms_p99", tail, "ms");
    out.set("req_ms_p99.percentile", pct as f64, "pct");
    out.set("req_ms.samples", tally.latency_ms.len() as f64, "count");
    out.set(
        "req_per_s",
        tally.latency_ms.len() as f64 / total_wall,
        "1/s",
    );
    out.set("serve.reference_s", reference_s, "s");
    out.set("serve.epochs", index as f64, "count");

    if let Some(spans) = &spans {
        let refs: Vec<&CellRun> = runs.iter().collect();
        engine::engine_layers(&mut out, &refs, &spans.totals());
        out.set("sweep.busy_frac", 0.0, "frac");
        let replies = (tally.cached + tally.computed) as f64;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        out.set(
            "serve.connect_auth_us",
            median(&probes.connect_auth_us),
            "us",
        );
        out.set("serve.key_us", probes.backend.key.mean_ns() / 1e3, "us");
        out.set("serve.store_get_us", median(&probes.store_get_us), "us");
        out.set(
            "serve.store_insert_us",
            median(&probes.store_insert_us),
            "us",
        );
        out.set(
            "serve.simulate_ms",
            probes.backend.simulate.mean_ns() / 1e6,
            "ms",
        );
        out.set("serve.wire_us", mean(&probes.wire_us), "us");
        out.set(
            "serve.hit_frac",
            tally.cached as f64 / replies.max(1.0),
            "frac",
        );
        // Counters are per epoch, so they do not grow with run length.
        let traced_epochs = traced_wall.len() as f64;
        let per_epoch = |n: u64, epochs: f64| n as f64 / epochs;
        out.set(
            "serve.disk_hits",
            per_epoch(probes.disk_hits, traced_epochs),
            PER_EPOCH,
        );
        out.set(
            "serve.coalesced",
            per_epoch(probes.coalesced, traced_epochs),
            PER_EPOCH,
        );
        out.set(
            "serve.misses",
            per_epoch(probes.misses, traced_epochs),
            PER_EPOCH,
        );
        out.set(
            "serve.busy_replies",
            per_epoch(tally.busy, index as f64),
            PER_EPOCH,
        );
        out.set(
            "serve.retries",
            per_epoch(tally.retries, index as f64),
            PER_EPOCH,
        );
        out.set(
            "trace.overhead",
            median(&traced_wall) / median(&wall),
            "ratio",
        );
    }
    out
}
