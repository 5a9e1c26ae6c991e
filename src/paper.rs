//! The paper ledger: every artefact of the FUSE paper's evaluation,
//! regenerated from one declarative list and graded against the paper.
//!
//! The list holds one entry per row of EXPERIMENTS.md's table: an id,
//! the paper's value, the cells the row reads as [`SweepPlan`] grids, a
//! reducer to per-workload tables and a measured value, and a shape rule
//! (✅ the shape reproduces, 🟡 the direction is right but the magnitude
//! is off, ❌ it does not reproduce). Khairy et al. (PAPERS.md) report a
//! model's fidelity as per-metric error against a reference; the ledger
//! does the same against the paper's published numbers.
//!
//! [`run`] is the cell provider. Every plan shares one [`ResultCache`],
//! so a cell that several entries read simulates once, and a warm rerun
//! simulates nothing. Each entry declares its figure's own columns: a
//! cell is keyed by its workload, machine, L1 configuration and budget,
//! never by its column's label, so Fig. 18's 1/2 split and each
//! ablation's paper value share the Dy-FUSE cell, and Fig. 20's 3-hash,
//! 128-slot filter shares FA-FUSE's.

use std::collections::HashMap;
use std::io::{self, Write};
use std::iter::once;
use std::sync::Arc;

use fuse_cache::approx_assoc::ApproxConfig;
use fuse_core::config::{
    dy_fuse_with_ratio, edram_dy_fuse, L1Config, L1Preset, NonBlocking, Placement, SttOrganization,
};
use fuse_gpu::config::{GpuConfig, THREADS_PER_WARP};
use fuse_gpu::{coalesce::coalesce, warp::WarpOp};
use fuse_mem::area::{
    data_array_cell_area_f2, dy_fuse_area, l1_sram_area, paper_table3, AreaReport,
};
use fuse_mem::tech::BankParams;
use fuse_predict::read_level::ReadLevelConfig;
use fuse_serve::store::ResultCache;
use fuse_workloads::spec::{Suite, WorkloadSpec};
use fuse_workloads::suites::{by_suite, fig18_workloads, fig20_workloads, fig3_workloads};
use fuse_workloads::{all_workloads, by_name};

use crate::runner::{geomean, RunConfig, RunResult};
use crate::sweep::{SweepCell, SweepPlan, SweepReport};
use crate::table::{f, pct, x, Table};

/// The line that opens the generated block in EXPERIMENTS.md.
pub const BEGIN: &str = "<!-- fusesim paper: begin -->";
/// The line that closes it.
pub const END: &str = "<!-- fusesim paper: end -->";

/// A value within this fraction of the paper's reproduces its magnitude.
const TOLERANCE: f64 = 0.25;

/// What [`run`] returns besides the tables it writes.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// The Markdown table, [`BEGIN`] and [`END`] lines included.
    pub block: String,
    /// Cells simulated rather than read from the cache: every distinct
    /// cell on a cold cache (441 at `--scale 0.35`), none on a warm one.
    pub simulated: u64,
}

/// Regenerates every artefact at `scale` × the default instruction
/// budget (Fig. 19 at `scale` × the Volta budget): runs each entry's
/// grids on `threads` sweep workers against `cache`, writes each
/// artefact's per-workload tables to `tables` as it completes, and
/// returns the graded block.
///
/// # Errors
///
/// Propagates errors from writing to `tables`.
pub fn run(
    scale: f64,
    threads: Option<usize>,
    cache: &Arc<ResultCache>,
    tables: &mut dyn Write,
) -> io::Result<Ledger> {
    // `FUSE_SCALE` multiplies the budget too; name the equivalent flag.
    let scale_flag = gtx480(scale).ops_scale;
    let mut block = format!(
        "{BEGIN}\nGenerated by `fusesim paper --scale {scale_flag}`; regenerate it, do not \
         edit it.\n\n| Artefact | Paper | Measured | Shape | Ledger id |\n|---|---|---|---|---|\n"
    );
    let mut simulated = 0;
    for e in ENTRIES {
        let mut reports = Vec::new();
        for mut plan in (e.cells)(scale) {
            (plan.threads, plan.cache) = (threads, Some(Arc::clone(cache)));
            let report = plan.run();
            simulated += report.cache_misses.unwrap_or(0);
            reports.push(report);
        }
        let mut rendered = Vec::new();
        let (text, shape) = match (e.reduce)(&reports, &mut rendered) {
            Some((text, values)) => (text, (e.grade)(&values)),
            None => ("n/a".to_string(), "n/a"),
        };
        for t in &rendered {
            tables.write_all(t.render().as_bytes())?;
        }
        let (artefact, paper, id) = (e.artefact, e.paper, e.id);
        block += &format!("| {artefact} | {paper} | {text} | {shape} | `{id}` |\n");
    }
    block += END;
    block.push('\n');
    Ok(Ledger { block, simulated })
}

/// A reduced outcome: the Markdown "Measured" cell and the values the
/// entry's shape rule reads.
type Measured = (String, Vec<f64>);

/// One row of the ledger.
struct Entry {
    id: &'static str,
    artefact: &'static str,
    paper: &'static str,
    /// The grids the reducer reads, at the ledger's budget scale.
    cells: fn(f64) -> Vec<SweepPlan>,
    /// Reduces the executed grids, in `cells` order, to per-workload
    /// tables and the measured value; `None` when no data qualifies.
    reduce: fn(&[SweepReport], &mut Vec<Table>) -> Option<Measured>,
    /// The shape rule over the measured values.
    grade: fn(&[f64]) -> &'static str,
}

/// ✅ when `close` and `direction` hold, 🟡 when only `direction` does.
fn grade(close: bool, direction: bool) -> &'static str {
    match (close, direction) {
        (true, true) => "✅",
        (false, true) => "🟡",
        _ => "❌",
    }
}

/// `got` is within [`TOLERANCE`] of the paper's `paper`.
fn near(got: f64, paper: f64) -> bool {
    (got - paper).abs() <= TOLERANCE * paper.abs()
}

/// `got` reaches a benefit the paper claims, less the tolerance.
fn reaches(got: f64, paper: f64) -> bool {
    got >= (1.0 - TOLERANCE) * paper
}

/// `got` stays under a bound the paper claims, plus the tolerance.
fn under(got: f64, paper: f64) -> bool {
    got <= (1.0 + TOLERANCE) * paper
}

fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

fn times(v: f64) -> String {
    format!("{v:.2}×")
}

/// A signed percentage with a typographic minus.
fn signed(v: f64) -> String {
    format!("{:+.1}%", 100.0 * v).replace('-', "−")
}

/// The paper's 15-SM GTX480-class machine at `scale` × the default
/// instruction budget.
fn gtx480(scale: f64) -> RunConfig {
    let mut rc = RunConfig::standard();
    rc.ops_scale *= scale;
    rc
}

fn grid(name: &str, rc: RunConfig, workloads: Vec<WorkloadSpec>) -> SweepPlan {
    SweepPlan::new(name, rc).workloads(workloads)
}

/// Every workload on the GTX480-class machine × `presets`.
fn all(name: &str, scale: f64, presets: &[L1Preset]) -> Vec<SweepPlan> {
    vec![grid(name, gtx480(scale), all_workloads()).presets(presets)]
}

fn named(names: &[&str]) -> Vec<WorkloadSpec> {
    names
        .iter()
        .map(|n| by_name(n).expect("Table II name"))
        .collect()
}

/// A table whose `|`-separated `headers` follow `first`.
fn table(title: &str, first: &str, headers: &str) -> Table {
    let mut t = Table::new(title);
    t.headers(&once(first).chain(headers.split('|')).collect::<Vec<_>>());
    t
}

/// One row per workload of `r`: its name, then `cells` of its index and
/// row.
fn per_workload<F>(r: &SweepReport, title: &str, headers: &str, cells: F) -> Table
where
    F: Fn(usize, &[SweepCell]) -> Vec<String>,
{
    let mut t = table(title, "workload", headers);
    for (wi, w) in r.workloads.iter().enumerate() {
        t.row(once(w.clone()).chain(cells(wi, r.row(wi))).collect());
    }
    t
}

/// One row per workload of `r` with `cols[c][row]` at `prec` decimals.
fn series_table(
    r: &SweepReport,
    title: &str,
    headers: &str,
    cols: &[Vec<f64>],
    prec: usize,
) -> Table {
    per_workload(r, title, headers, |wi, _| {
        cols.iter().map(|c| f(c[wi], prec)).collect()
    })
}

/// Appends a `label` row of `values` at `prec` decimals.
fn summary(t: &mut Table, label: &str, values: &[f64], prec: usize) {
    let mut row = vec![label.to_string()];
    row.extend(values.iter().map(|v| f(*v, prec)));
    t.row(row);
}

/// `value` of each workload row of `r`.
fn per_row(r: &SweepReport, value: impl Fn(&[SweepCell]) -> f64) -> Vec<f64> {
    (0..r.workloads.len()).map(|wi| value(r.row(wi))).collect()
}

/// Per column, `metric` of each workload row.
fn columns(r: &SweepReport, metric: fn(&RunResult) -> f64) -> Vec<Vec<f64>> {
    (0..r.configs.len())
        .map(|ci| per_row(r, |row| metric(&row[ci].result)))
        .collect()
}

/// [`columns`] divided row by row by the first column.
fn normalised(r: &SweepReport, metric: fn(&RunResult) -> f64) -> Vec<Vec<f64>> {
    let cols = columns(r, metric);
    let norm = |c: &Vec<f64>| c.iter().zip(&cols[0]).map(|(v, b)| v / b).collect();
    cols.iter().map(norm).collect()
}

/// The Fig. 13/17/19 layout: `metric` normalised to the first column,
/// one row per workload, then GMEANS. Returns the other columns' gmeans.
fn gmean_table(
    r: &SweepReport,
    title: &str,
    metric: fn(&RunResult) -> f64,
    tables: &mut Vec<Table>,
) -> Vec<f64> {
    let series = normalised(r, metric);
    let mut t = series_table(r, title, &r.configs[1..].join("|"), &series[1..], 2);
    let gmeans: Vec<f64> = series[1..].iter().map(|s| geomean(s)).collect();
    summary(&mut t, "GMEANS", &gmeans, 2);
    tables.push(t);
    gmeans
}

/// An FA-FUSE configuration with a custom CBF geometry (Fig. 20 sweeps
/// hash-function count and counter slots).
fn fa_fuse_with_cbf(hashes: u32, slots: usize) -> L1Config {
    let mut cfg = L1Preset::FaFuse.config();
    let stt = cfg.stt.as_mut().expect("FA-FUSE has an STT bank");
    let SttOrganization::Approximate(a) = &mut stt.organization else {
        unreachable!("FA-FUSE is approximate");
    };
    (a.cbf_hashes, a.cbf_slots) = (hashes, slots);
    cfg
}

/// An *exact* fully-associative STT bank under the Base-FUSE datapath —
/// the "Fully assoc." comparator of Fig. 7b.
fn exact_fa_fuse() -> L1Config {
    let mut cfg = L1Preset::FaFuse.config();
    let stt = cfg.stt.as_mut().expect("FA-FUSE has an STT bank");
    let ways = stt.organization.lines();
    stt.organization = SttOrganization::SetAssoc { sets: 1, ways };
    cfg
}

/// Fig. 18's SRAM:STT splits of the 32 KB budget; 1/2 is Dy-FUSE.
const RATIOS: [(u64, u64, &str); 5] = [
    (1, 16, "1/16"),
    (1, 8, "1/8"),
    (1, 4, "1/4"),
    (1, 2, "1/2"),
    (3, 4, "3/4"),
];

/// Fig. 20's (hashes, slots) columns. 3 hashes × 128 slots is FA-FUSE,
/// where each sweep's false-positive cut is measured.
const HASHES: [(u32, usize); 5] = [(1, 128), (2, 128), (3, 128), (4, 128), (5, 128)];
const SLOTS: [(u32, usize); 3] = [(3, 32), (3, 64), (3, 128)];

fn cbf_grid(scale: f64, columns: &[(u32, usize)]) -> Vec<SweepPlan> {
    let mut plan = grid("fig20", gtx480(scale), fig20_workloads());
    for &(hashes, slots) in columns {
        plan = plan.custom(
            format!("CBF-{hashes}x{slots}"),
            fa_fuse_with_cbf(hashes, slots),
        );
    }
    vec![plan]
}

/// Fig. 20's FP-rate table, and the share of the first column's mean FP
/// rate that FA-FUSE's filter removes (`None` if the first saw none).
fn cbf_table(r: &SweepReport, title: &str, headers: &str, t: &mut Vec<Table>) -> Option<f64> {
    let sci = |v: f64| {
        if v == 0.0 {
            "0".into()
        } else {
            format!("{v:.1e}")
        }
    };
    let rate = |c: &SweepCell| c.result.metrics.cbf.false_positive_rate(128);
    t.push(per_workload(r, title, headers, |_, row| {
        row.iter().map(|c| sci(rate(c))).collect()
    }));
    let fa = r.configs.iter().position(|c| c == "CBF-3x128")?;
    let first = mean(&per_row(r, |row| rate(&row[0]))).filter(|m| *m > 0.0)?;
    Some(1.0 - mean(&per_row(r, |row| rate(&row[fa])))? / first)
}

/// A Dy-FUSE knob swept on ATAX (irregular, read-dominated) and PVC
/// (write-heavy); the column of the paper's value is Dy-FUSE itself.
struct Knob {
    label: &'static str,
    title: &'static str,
    values: &'static [usize],
    paper: usize,
    set: fn(&mut L1Config, usize),
}

fn non_blocking(c: &mut L1Config) -> &mut NonBlocking {
    c.non_blocking.as_mut().expect("Dy-FUSE is non-blocking")
}

const KNOBS: [Knob; 4] = [
    Knob {
        label: "swap",
        title: "Ablation — swap-buffer depth (paper: 3), IPC vs paper config",
        values: &[1, 2, 3, 8],
        paper: 3,
        set: |c, n| non_blocking(c).swap_entries = n,
    },
    Knob {
        label: "tq",
        title: "Ablation — tag-queue depth (paper: 16), IPC vs paper config",
        values: &[2, 8, 16, 64],
        paper: 16,
        set: |c, n| non_blocking(c).tag_queue_entries = n,
    },
    Knob {
        label: "th",
        title: "Ablation — WORO threshold unused_th (paper: 14), IPC vs paper config",
        values: &[6, 10, 14],
        paper: 14,
        set: |c, th| {
            let Placement::Predictor(rl) = &mut c.placement else {
                unreachable!("Dy-FUSE predicts placement");
            };
            let h = &mut rl.history;
            h.unused_threshold = u8::try_from(th).expect("threshold fits a 4-bit counter");
            // Keep the paper's counter start unless it would leave the
            // neutral band 1 < init_counter < unused_threshold.
            if h.init_counter >= h.unused_threshold {
                h.init_counter = h.unused_threshold / 2;
            }
        },
    },
    Knob {
        label: "mshr",
        title: "Ablation — MSHR entries (paper: 32), IPC vs paper config",
        values: &[8, 16, 32, 64],
        paper: 32,
        set: |c, n| c.mshr_entries = n,
    },
];

impl Knob {
    fn config(&self, value: usize) -> L1Config {
        let mut cfg = L1Preset::DyFuse.config();
        (self.set)(&mut cfg, value);
        cfg
    }

    fn cells(&self, scale: f64) -> Vec<SweepPlan> {
        let mut plan = grid("ablation", gtx480(scale), named(&["ATAX", "PVC"]));
        for &v in self.values {
            plan = plan.custom(format!("{}={v}", self.label), self.config(v));
        }
        vec![plan]
    }

    /// One row per setting of IPC normalised to the paper's; the value
    /// is the best normalised IPC another setting reaches.
    fn reduce(&self, r: &[SweepReport], tables: &mut Vec<Table>) -> Option<Measured> {
        let paper = self.values.iter().position(|v| *v == self.paper)?;
        let mut t = table(self.title, "variant", &r[0].workloads.join("|"));
        let (mut best, mut others) = (0.0f64, Vec::new());
        for (ci, label) in r[0].configs.iter().enumerate() {
            let ratios = per_row(&r[0], |row| row[ci].result.ipc() / row[paper].result.ipc());
            let shown: Vec<String> = ratios.iter().map(|v| f(*v, 3)).collect();
            if ci != paper {
                best = ratios.iter().copied().fold(best, f64::max);
                others.push(format!("{label} {}", shown.join("/")));
            }
            t.row(once(label.clone()).chain(shown).collect());
        }
        tables.push(t);
        let at = format!("{} ({})", r[0].configs[paper], r[0].workloads.join("/"));
        let text = format!("IPC vs {at}: {}", others.join(", "));
        Some((text, vec![best]))
    }

    /// ✅ when no other setting beats the paper's by more than 3% on
    /// either workload, the scatter neighbouring settings show: the
    /// paper's choice sits at the knee.
    fn grade(v: &[f64]) -> &'static str {
        grade(v[0] <= 1.03, true)
    }
}

const FIG3: &str = "Vanilla GPU|STT-MRAM GPU|Oracle GPU";
const THROTTLED: [&str; 4] = ["ATAX", "BICG", "GESUM", "SYR2K"];
const WARP_LIMITS: [usize; 4] = [48, 24, 12, 6];

fn fig3_grid(scale: f64) -> Vec<SweepPlan> {
    let presets = [L1Preset::L1Sram, L1Preset::SttOnly, L1Preset::Oracle];
    vec![grid("fig03", gtx480(scale), fig3_workloads()).presets(&presets)]
}

fn offchip(row: &[SweepCell]) -> (f64, f64) {
    row[0].result.sim.offchip_decomposition()
}

const ENTRIES: &[Entry] = &[
    Entry {
        id: "fig1a",
        artefact: "Fig. 1a — off-chip share of execution",
        paper: "~75% mean",
        cells: |s| all("fig01", s, &[L1Preset::L1Sram]),
        reduce: |r, tables| {
            let t =
                "Fig. 1a — execution time fraction lost to off-chip accesses (L1-SRAM baseline)";
            let h = "network|DRAM|off-chip total|avg net cyc|avg mem cyc";
            tables.push(per_workload(&r[0], t, h, |_, row| {
                let (s, (net, dram)) = (&row[0].result.sim, offchip(row));
                let (nc, mc) = (f(s.avg_net_cycles(), 0), f(s.avg_mem_cycles(), 0));
                vec![pct(net), pct(dram), pct(net + dram), nc, mc]
            }));
            let m = mean(&per_row(&r[0], |row| offchip(row).0 + offchip(row).1))?;
            Some((format!("**{}** mean", pct(m)), vec![m]))
        },
        // Most of the baseline's time goes off chip.
        grade: |v| grade(near(v[0], 0.75), v[0] > 0.5),
    },
    Entry {
        id: "fig1b",
        artefact: "Fig. 1b — off-chip share of energy",
        paper: "~71% mean",
        cells: |s| all("fig01", s, &[L1Preset::L1Sram]),
        reduce: |r, tables| {
            let t = "Fig. 1b — GPU energy fraction (L1-SRAM baseline)";
            let share = |row: &[SweepCell]| row[0].result.energy.offchip_fraction();
            let h = "L2$|L1D$|compute (SM)|off-chip";
            tables.push(per_workload(&r[0], t, h, |_, row| {
                let e = &row[0].result.energy;
                let [l2, l1, sm] =
                    [e.l2_nj, e.l1_nj(), e.compute_nj].map(|v| pct(v / e.total_nj()));
                vec![l2, l1, sm, pct(share(row))]
            }));
            let m = mean(&per_row(&r[0], share))?;
            Some((format!("**{}** mean", pct(m)), vec![m]))
        },
        grade: |v| grade(near(v[0], 0.71), v[0] > 0.5),
    },
    Entry {
        id: "fig3a",
        artefact: "Fig. 3a — Oracle L1D miss reduction",
        paper: "−58 pts",
        cells: fig3_grid,
        reduce: |r, tables| {
            let miss = columns(&r[0], RunResult::miss_rate);
            let t = "Fig. 3a — L1D miss rate";
            tables.push(series_table(&r[0], t, FIG3, &miss, 3));
            let cut: Vec<f64> = miss[0].iter().zip(&miss[2]).map(|(v, o)| v - o).collect();
            let m = 100.0 * mean(&cut)?;
            Some((format!("**−{m:.1} pts** mean"), vec![m]))
        },
        grade: |v| grade(near(v[0], 58.0), v[0] > 0.0),
    },
    Entry {
        id: "fig3b",
        artefact: "Fig. 3b — Oracle speedup over Vanilla",
        paper: "~6×",
        cells: fig3_grid,
        reduce: |r, tables| {
            let ipc = normalised(&r[0], RunResult::ipc);
            let t = "Fig. 3b — IPC normalised to Vanilla GPU";
            tables.push(per_workload(&r[0], t, FIG3, |wi, _| {
                ipc.iter().map(|s| x(s[wi])).collect()
            }));
            let g = geomean(&ipc[2]);
            Some((format!("**{}** gmean", times(g)), vec![g]))
        },
        grade: |v| grade(near(v[0], 6.0), v[0] > 1.0),
    },
    Entry {
        id: "fig6",
        artefact: "Fig. 6 — WORM-like share of blocks",
        paper: "80–90%",
        cells: |_| Vec::new(),
        reduce: |_, tables| {
            let t = "Fig. 6 — read-level decomposition of referenced blocks";
            let mut t = table(t, "workload", "WM|read-intensive|WORM|WORO|blocks");
            let mut shares = Vec::new();
            for w in all_workloads() {
                let ([wm, ri, worm, woro], blocks) = read_levels(&w);
                let total = (wm + ri + worm + woro) as f64;
                // The paper's WORM-like headline folds in read-intensive.
                shares.push((worm + ri) as f64 / total);
                let [wm, ri, worm, woro] = [wm, ri, worm, woro].map(|c| pct(c as f64 / total));
                t.row(vec![w.name.into(), wm, ri, worm, woro, blocks.to_string()]);
            }
            tables.push(t);
            let m = mean(&shares)?;
            let text = format!("**{}** mean (WORM + read-intensive)", pct(m));
            Some((text, vec![m]))
        },
        grade: |v| grade(near(v[0], 0.85), v[0] > 0.5),
    },
    Entry {
        id: "fig7b",
        artefact: "Fig. 7b — approx vs exact full assoc.",
        paper: "<2% gap",
        cells: |s| {
            use Suite::*;
            let suites = [PolyBench, Mars, Rodinia, Parboil];
            let plan = |suite: Suite| {
                let plan = grid(&suite.to_string(), gtx480(s), by_suite(suite));
                plan.presets(&[L1Preset::FaFuse])
                    .custom("Fully assoc.", exact_fa_fuse())
            };
            suites.map(plan).into()
        },
        reduce: |r, tables| {
            let t =
                "Fig. 7b — IPC of approximate vs exact full associativity (normalised to exact)";
            let mut t = table(t, "suite", "Approximate|Fully assoc.|avg tag-search cycles");
            let (mut gap, mut worst, mut lo, mut hi) = (0.0f64, "", f64::INFINITY, 0.0f64);
            for suite in r {
                let ratio = geomean(&per_row(suite, |c| c[0].result.ipc() / c[1].result.ipc()));
                let search = per_row(suite, |c| c[0].result.metrics.avg_tag_search_cycles());
                let search = mean(&search)?;
                if (ratio - 1.0).abs() >= gap {
                    (gap, worst) = ((ratio - 1.0).abs(), suite.name.as_str());
                }
                (lo, hi) = (lo.min(search), hi.max(search));
                let name = suite.name.clone();
                t.row(vec![name, f(ratio, 3), f(1.0, 3), f(search, 2)]);
            }
            tables.push(t);
            let text = format!(
                "**{}** worst-suite gap ({worst}); {lo:.2}–{hi:.2}-cycle searches",
                pct(gap)
            );
            Some((text, vec![gap, hi]))
        },
        // The paper's gap bound, with the 1–2-cycle searches of §III-B.
        grade: |v| grade(under(v[0], 0.02) && v[1] <= 2.0, v[0] < 0.1),
    },
    Entry {
        id: "fig13",
        artefact: "Fig. 13 — IPC vs L1-SRAM (gmean)",
        paper: "Dy-FUSE 3.17×, FA 2.35×, Base 0.85×, Hybrid 0.77×, By-NVM ~1.4×, FA-SRAM 1.63×",
        cells: |s| all("fig13", s, &L1Preset::FIG13),
        reduce: |r, tables| {
            let t = "Fig. 13 — IPC normalised to L1-SRAM";
            let g = gmean_table(&r[0], t, RunResult::ipc, tables);
            let [nvm, fa_sram, hybrid, base, fa, dy] = [0, 1, 2, 3, 4, 5].map(|i| times(g[i]));
            let text = format!(
                "Dy-FUSE **{dy}**, FA **{fa}**, Base **{base}**, Hybrid **{hybrid}**, \
                 By-NVM **{nvm}**, FA-SRAM **{fa_sram}**"
            );
            Some((text, g))
        },
        // The ordering Hybrid ≤ Base-FUSE < FA-FUSE < Dy-FUSE, and the gain.
        grade: |g| {
            let ordered = g[2] <= g[3] && g[3] < g[4] && g[4] < g[5];
            grade(near(g[5], 3.17), ordered && g[5] > 1.0)
        },
    },
    Entry {
        id: "fig13.outgoing",
        artefact: "— outgoing memory references",
        paper: "−32%",
        cells: |s| all("fig13", s, &[L1Preset::L1Sram, L1Preset::DyFuse]),
        reduce: |r, _| {
            let out = |c: &SweepCell| c.result.outgoing_requests() as f64;
            let m = mean(&per_row(&r[0], |row| 1.0 - out(&row[1]) / out(&row[0])))?;
            let text = format!("**{}** (Dy-FUSE vs L1-SRAM, mean)", signed(-m));
            Some((text, vec![m]))
        },
        grade: |v| grade(reaches(v[0], 0.32), v[0] > 0.0),
    },
    Entry {
        id: "fig14",
        artefact: "Fig. 14 — L1D miss rate (mean)",
        paper: "hybrid family −21.6%, FA-FUSE up to −86% on irregular",
        cells: |s| all("fig13", s, &L1Preset::FIG13),
        reduce: |r, tables| {
            let (miss, h) = (columns(&r[0], RunResult::miss_rate), r[0].configs.join("|"));
            let mut t = series_table(&r[0], "Fig. 14 — L1D miss rate", &h, &miss, 3);
            let m: Vec<f64> = miss.iter().map(|m| mean(m).unwrap_or(0.0)).collect();
            summary(&mut t, "MEAN", &m, 3);
            tables.push(t);
            // FA-FUSE's deepest per-workload cut below L1-SRAM.
            let cuts: Vec<f64> = miss[5]
                .iter()
                .zip(&miss[0])
                .map(|(fa, l1)| 1.0 - fa / l1)
                .collect();
            let at = (0..cuts.len()).max_by(|a, b| cuts[*a].total_cmp(&cuts[*b]))?;
            let (deepest, at) = (cuts[at], &r[0].workloads[at]);
            let [l1, nvm, fa_sram, hybrid, base, fa, dy] =
                [0, 1, 2, 3, 4, 5, 6].map(|i| f(m[i], 2));
            let (cut, deepest_cut) = (signed(m[3] / m[0] - 1.0), signed(-deepest));
            let text = format!(
                "L1-SRAM {l1} → Hybrid {hybrid} / Base {base} ({cut}), By-NVM {nvm}, FA-SRAM \
                 {fa_sram}, **FA-FUSE {fa} / Dy-FUSE {dy}**; FA-FUSE **{deepest_cut}** on {at}"
            );
            Some((text, vec![m[0], m[3], m[4], m[5], deepest]))
        },
        // L1-SRAM misses most, the hybrid family sits below it, and
        // FA-FUSE's deepest per-workload cut reaches the paper's 86%.
        grade: |v| grade(reaches(v[4], 0.86), v[1..4].iter().all(|m| *m < v[0])),
    },
    Entry {
        id: "fig15",
        artefact: "Fig. 15 — stall classes",
        paper: "Base-FUSE keeps ~22% of Hybrid's stalls; FA tag stalls ≈3%",
        cells: |s| {
            use L1Preset::*;
            all("fig15", s, &[Hybrid, BaseFuse, FaFuse])
        },
        reduce: |r, tables| {
            // Hybrid's STT stall count is each workload's unit.
            let stalls = |row: &[SweepCell]| {
                let unit = row[0].result.metrics.stt_busy_rejections.max(1);
                let [b, fa] = [1, 2].map(|i| row[i].result.metrics.stall_events());
                [unit, b.0, b.1, fa.0, fa.1].map(|n| n as f64 / unit as f64)
            };
            let t = "Fig. 15 — L1D stall events normalised to Hybrid's STT-MRAM stalls";
            let h = "Hybrid STT|Base-FUSE STT|Base-FUSE tag|FA-FUSE STT|FA-FUSE tag";
            let cells = |_, row: &[SweepCell]| stalls(row).map(|v| f(v, 3)).into();
            tables.push(per_workload(&r[0], t, h, cells));
            let kept = mean(&per_row(&r[0], |row| stalls(row)[1] + stalls(row)[2]))?;
            let tag = mean(&per_row(&r[0], |row| stalls(row)[4]))?;
            let (kept_pct, tag_pct) = (pct(kept), pct(tag));
            let text = format!("Base-FUSE keeps **{kept_pct}**; FA tag stalls **{tag_pct}**");
            Some((text, vec![kept, tag]))
        },
        // Base-FUSE removes most of Hybrid's STT stalls.
        grade: |v| grade(near(v[0], 0.22) && under(v[1], 0.03), v[0] < 1.0),
    },
    Entry {
        id: "fig16",
        artefact: "Fig. 16 — predictor accuracy",
        paper: "95% mean / 85% worst",
        cells: |s| all("fig16", s, &[L1Preset::DyFuse]),
        reduce: |r, tables| {
            let t = "Fig. 16 — read-level predictor accuracy (Dy-FUSE)";
            let h = "True|Neutral|False|graded evictions";
            tables.push(per_workload(&r[0], t, h, |_, row| {
                let a = row[0].result.metrics.accuracy;
                let share = |n: u64| pct(n as f64 / a.total().max(1) as f64);
                let [yes, neutral, no] = [a.trues, a.neutrals, a.falses].map(share);
                vec![yes, neutral, no, a.total().to_string()]
            }));
            // Accuracy over confident (non-neutral) predictions, where
            // enough exist to mean something: short runs leave some
            // workloads all-neutral.
            let accuracies: Vec<f64> = (r[0].cells.iter().map(|c| c.result.metrics.accuracy))
                .filter(|a| a.trues + a.falses >= 100)
                .map(|a| a.trues as f64 / (a.trues + a.falses) as f64)
                .collect();
            let m = mean(&accuracies)?;
            let worst = accuracies.iter().copied().fold(1.0, f64::min);
            let (n, of) = (accuracies.len(), r[0].workloads.len());
            let text = format!(
                "**{}** mean / **{}** worst over confident grades (≥100 graded, {n} of {of} \
                 workloads)",
                pct(m),
                pct(worst)
            );
            Some((text, vec![m, worst]))
        },
        grade: |v| grade(near(v[0], 0.95) && near(v[1], 0.85), v[0] > 0.5),
    },
    Entry {
        id: "fig17",
        artefact: "Fig. 17 — L1D energy vs L1-SRAM",
        paper: "Dy-FUSE −53%",
        cells: |s| {
            use L1Preset::*;
            all("fig17", s, &[L1Sram, ByNvm, BaseFuse, FaFuse, DyFuse])
        },
        reduce: |r, tables| {
            let t = "Fig. 17 — L1D energy normalised to L1-SRAM";
            let g = gmean_table(&r[0], t, RunResult::l1_energy_nj, tables);
            let [nvm, fa, dy] = [0, 2, 3].map(|i| signed(g[i] - 1.0));
            let text = format!("Dy-FUSE **{dy}** (FA-FUSE {fa}, By-NVM {nvm})");
            Some((text, vec![1.0 - g[3]]))
        },
        grade: |v| grade(reaches(v[0], 0.53), v[0] > 0.0),
    },
    Entry {
        id: "fig18",
        artefact: "Fig. 18 — SRAM:STT ratio sweep",
        paper: "best at 1/2; 3/4 loses capacity",
        cells: |s| {
            let mut plan = grid("fig18", gtx480(s), fig18_workloads());
            for (num, den, name) in RATIOS {
                plan = plan.custom(name, dy_fuse_with_ratio(num, den));
            }
            vec![plan]
        },
        reduce: |r, tables| {
            let ipc = normalised(&r[0], RunResult::ipc);
            let h = RATIOS.map(|r| r.2).join("|");
            let t = "Fig. 18a — IPC normalised to the 1/16 split";
            let mut t = series_table(&r[0], t, &h, &ipc, 2);
            let g: Vec<f64> = ipc.iter().map(|s| geomean(s)).collect();
            summary(&mut t, "GMEANS", &g, 2);
            tables.push(t);
            let miss = columns(&r[0], RunResult::miss_rate);
            tables.push(series_table(
                &r[0],
                "Fig. 18b — L1D miss rate",
                &h,
                &miss,
                3,
            ));
            let by_gmean = |a: &usize, b: &usize| g[*a].total_cmp(&g[*b]);
            let best = (0..RATIOS.len()).max_by(by_gmean).expect("five splits");
            let worst = (0..RATIOS.len()).min_by(by_gmean).expect("five splits");
            let vs = (0..RATIOS.len()).filter(|i| *i != best);
            let vs: Vec<String> = vs
                .map(|i| format!("{} {}", RATIOS[i].2, signed(g[i] / g[best] - 1.0)))
                .collect();
            let text = format!("best at **{}**; vs best: {}", RATIOS[best].2, vs.join(", "));
            Some((text, vec![best as f64, worst as f64]))
        },
        // The 1/2 split wins; the capacity-losing 3/4 split loses most.
        grade: |v| grade(v[0] == 3.0, v[1] == 4.0),
    },
    Entry {
        id: "fig19",
        artefact: "Fig. 19 — Volta machine (gmean)",
        paper: "Base 1.35× / FA 1.82× / Dy 1.96×",
        cells: |s| {
            use L1Preset::*;
            let mut rc = RunConfig::volta();
            rc.ops_scale *= s;
            let presets = [L1Sram, ByNvm, Hybrid, BaseFuse, FaFuse, DyFuse];
            vec![grid("fig19", rc, all_workloads()).presets(&presets)]
        },
        reduce: |r, tables| {
            let t = "Fig. 19 — IPC normalised to L1-SRAM on the Volta-class machine";
            let g = gmean_table(&r[0], t, RunResult::ipc, tables);
            let [base, fa, dy] = [2, 3, 4].map(|i| times(g[i]));
            let text = format!("Base **{base}** / FA **{fa}** / Dy **{dy}**");
            Some((text, g[2..].to_vec()))
        },
        grade: |v| {
            let close = near(v[0], 1.35) && near(v[1], 1.82) && near(v[2], 1.96);
            grade(close, v.iter().all(|g| *g > 1.0))
        },
    },
    Entry {
        id: "fig20a",
        artefact: "Fig. 20a — CBF false positives, 1→3 hashes",
        paper: "−98.4%",
        cells: |s| cbf_grid(s, &HASHES),
        reduce: |r, tables| {
            let t = "Fig. 20a — CBF false-positive rate vs hash functions (128 slots)";
            let h = "CBF-1func|CBF-2func|CBF-3func|CBF-4func|CBF-5func";
            let cut = cbf_table(&r[0], t, h, tables)?;
            Some((format!("**{}**", signed(-cut)), vec![cut]))
        },
        grade: |v| grade(reaches(v[0], 0.984), v[0] > 0.0),
    },
    Entry {
        id: "fig20b",
        artefact: "Fig. 20b — CBF false positives, 32→128 slots",
        paper: "−99%",
        cells: |s| cbf_grid(s, &SLOTS),
        reduce: |r, tables| {
            let t = "Fig. 20b — CBF false-positive rate vs slots per filter (3 hashes)";
            let cut = cbf_table(&r[0], t, "32slots|64slots|128slots", tables)?;
            Some((format!("**{}**", signed(-cut)), vec![cut]))
        },
        grade: |v| grade(reaches(v[0], 0.99), v[0] > 0.0),
    },
    Entry {
        id: "table1",
        artefact: "Table I — configuration",
        paper: "(input)",
        cells: |_| Vec::new(),
        reduce: |_, tables| {
            tables.extend(table1());
            Some(("printed for line-by-line audit".into(), Vec::new()))
        },
        // An input, not a measurement.
        grade: |_| "✅",
    },
    Entry {
        id: "table2",
        artefact: "Table II — APKI / bypass ratio",
        paper: "per kilo *thread* instr",
        cells: |s| all("table2", s, &[L1Preset::ByNvm]),
        reduce: |r, tables| {
            let bypass = |c: &SweepCell| {
                let (sim, m) = (&c.result.sim, &c.result.metrics);
                let demand = sim.l1.accesses() + m.bypassed_stores;
                let b = (m.bypassed_loads + m.bypassed_stores) as f64;
                if demand == 0 {
                    0.0
                } else {
                    b / demand as f64
                }
            };
            let t = "Table II — workloads: measured vs paper";
            let h = "suite|APKI (paper)|APKI (measured)|bypass (paper)|bypass (measured)";
            let mut t = table(t, "workload", h);
            let (mut apki, mut bypassed) = (Vec::new(), Vec::new());
            for (w, c) in all_workloads().iter().zip(&r[0].cells) {
                let a = (w.apki, c.result.sim.apki());
                let b = (w.paper_bypass_ratio, bypass(c));
                let mut row = vec![w.name.to_string(), w.suite.to_string()];
                row.extend([f(a.0, 1), f(a.1, 1), f(b.0, 2), f(b.1, 2)]);
                t.row(row);
                apki.push(a);
                bypassed.push(b);
            }
            tables.push(t);
            let (a, b) = (spearman(&apki), spearman(&bypassed));
            let text = format!(
                "per kilo *warp* instr; rank correlation with the paper: APKI **{a:.2}**, \
                 bypass **{b:.2}**"
            );
            Some((text, vec![a, b]))
        },
        // APKI counts warp instructions, so only orderings compare: both
        // rank correlations positive, APKI's strong.
        grade: |v| grade(false, v[0] >= 0.5 && v[1] > 0.0),
    },
    Entry {
        id: "table3",
        artefact: "Table III — area",
        paper: "Dy-FUSE < +0.7%",
        cells: |_| Vec::new(),
        reduce: |_, tables| {
            let (worst, overhead) = table3(tables);
            let text = format!(
                "component counts match to ≤{} (most exact); support-logic overhead **{:+.2}%**",
                pct(worst),
                100.0 * overhead
            );
            Some((text, vec![worst, overhead]))
        },
        grade: |v| grade(v[0] <= 0.05 && under(v[1], 0.007), v[1] < 0.02),
    },
    Entry {
        id: "edram",
        artefact: "§VI discussion: eDRAM instead of STT-MRAM",
        paper: "STT-MRAM (denser, no refresh)",
        cells: |s| {
            let (rc, workloads) = (gtx480(s), named(&["ATAX", "BICG", "GEMM", "SYR2K", "PVC"]));
            let edram = edram_dy_fuse(rc.gpu.clock_ghz);
            let plan = grid("edram", rc, workloads).presets(&[L1Preset::DyFuse]);
            vec![plan.custom("eDRAM-FUSE", edram)]
        },
        reduce: |r, tables| {
            let t = "Discussion (§VI) — Dy-FUSE with STT-MRAM vs eDRAM in the non-SRAM bank";
            let h = "STT IPC|eDRAM IPC|eDRAM/STT|STT miss|eDRAM miss|refreshes";
            tables.push(per_workload(&r[0], t, h, |_, row| {
                let (stt, edram) = (&row[0].result, &row[1].result);
                let [si, ei, sm, em] = [stt.ipc(), edram.ipc(), stt.miss_rate(), edram.miss_rate()];
                let mut cells = [si, ei].map(|v| f(v, 3)).to_vec();
                cells.extend([f(ei / si, 2), f(sm, 3), f(em, 3)]);
                cells.push(edram.metrics.refresh_events.to_string());
                cells
            }));
            let ratio = |row: &[SweepCell]| row[1].result.ipc() / row[0].result.ipc();
            let g = geomean(&per_row(&r[0], ratio));
            let text = format!(
                "eDRAM Dy-FUSE at **{}** of STT Dy-FUSE (half the capacity, plus refresh)",
                times(g)
            );
            Some((text, vec![g]))
        },
        grade: |v| grade(true, v[0] < 1.0),
    },
    Entry {
        id: "throttling",
        artefact: "§VII related work: warp throttling (CCWS-class)",
        paper: "FUSE keeps every warp and still wins",
        cells: |s| {
            // Four throttled L1-SRAM machines, then Dy-FUSE unthrottled.
            let plan = |limit: Option<usize>| {
                let mut rc = gtx480(s);
                rc.gpu.active_warp_limit = limit;
                let preset = limit.map_or(L1Preset::DyFuse, |_| L1Preset::L1Sram);
                grid("throttling", rc, named(&THROTTLED)).presets(&[preset])
            };
            let limits = WARP_LIMITS.map(Some).into_iter().chain(once(None));
            limits.map(plan).collect()
        },
        reduce: |r, tables| {
            let t =
                "Related work — warp throttling (L1-SRAM) vs Dy-FUSE, IPC normalised to 48 warps";
            let h: Vec<String> = WARP_LIMITS.iter().map(|l| format!("{l} warps")).collect();
            let mut t = table(t, "workload", &(h.join("|") + "|Dy-FUSE/48"));
            let (mut best, mut dy) = (Vec::new(), Vec::new());
            for (wi, w) in THROTTLED.iter().enumerate() {
                let ipc: Vec<f64> = r.iter().map(|rep| rep.cell(wi, 0).result.ipc()).collect();
                let norm: Vec<f64> = ipc.iter().map(|v| v / ipc[0]).collect();
                let (throttled, fuse) = norm.split_at(WARP_LIMITS.len());
                best.push(throttled.iter().copied().fold(0.0, f64::max));
                dy.push(fuse[0]);
                let mut row = vec![w.to_string()];
                row.extend(norm.iter().map(|n| f(*n, 2)));
                t.row(row);
            }
            tables.push(t);
            let [best, dy] = [geomean(&best), geomean(&dy)];
            let (throttled, fuse) = (times(best), times(dy));
            let text = format!(
                "best throttled L1-SRAM **{throttled}** vs Dy-FUSE **{fuse}** on the thrashing \
                 workloads"
            );
            Some((text, vec![best, dy]))
        },
        grade: |v| grade(true, v[1] > v[0]),
    },
    Entry {
        id: "ablation.swap",
        artefact: "Ablation: swap-buffer depth",
        paper: "3 entries",
        cells: |s| KNOBS[0].cells(s),
        reduce: |r, t| KNOBS[0].reduce(r, t),
        grade: Knob::grade,
    },
    Entry {
        id: "ablation.tq",
        artefact: "Ablation: tag-queue depth",
        paper: "16 entries",
        cells: |s| KNOBS[1].cells(s),
        reduce: |r, t| KNOBS[1].reduce(r, t),
        grade: Knob::grade,
    },
    Entry {
        id: "ablation.unused_th",
        artefact: "Ablation: `unused_th`",
        paper: "14",
        cells: |s| KNOBS[2].cells(s),
        reduce: |r, t| KNOBS[2].reduce(r, t),
        grade: Knob::grade,
    },
    Entry {
        id: "ablation.mshr",
        artefact: "Ablation: MSHR entries",
        paper: "32 entries",
        cells: |s| KNOBS[3].cells(s),
        reduce: |r, t| KNOBS[3].reduce(r, t),
        grade: Knob::grade,
    },
];

/// Fig. 6's trace of a representative slice of the machine (4 SMs × 16
/// warps): touches per read level — write-multiple, read-intensive,
/// WORM, WORO — and the number of distinct blocks. Each block weighs
/// its touches: Fig. 6 decomposes the request stream, so a WORM matrix
/// swept thousands of times must outweigh many once-touched lines.
fn read_levels(w: &WorkloadSpec) -> ([u64; 4], usize) {
    let mut counts: HashMap<u64, (u32, u32)> = HashMap::new();
    for (sm, warp) in (0..4).flat_map(|sm| (0..16u16).map(move |warp| (sm, warp))) {
        let mut p = w.program(sm, warp, 2_000);
        while let Some(op) = p.next_op() {
            let WarpOp::Mem(m) = op else { continue };
            for line in coalesce(&m) {
                let e = counts.entry(line.0).or_insert((0, 0));
                *(if m.is_store { &mut e.0 } else { &mut e.1 }) += 1;
            }
        }
    }
    let mut classes = [0u64; 4];
    for &(writes, reads) in counts.values() {
        let touches = u64::from(writes + reads);
        let class = match writes {
            _ if touches <= 2 => 3,                          // WORO
            w if w >= 2 && u64::from(w) * 4 >= touches => 0, // write-multiple
            w if w >= 2 => 1,                                // read-intensive
            _ => 2,                                          // WORM
        };
        classes[class] += touches;
    }
    (classes, counts.len())
}

/// Spearman rank correlation of (paper, measured) pairs: the Pearson
/// correlation of their ranks, ties sharing their mean rank.
fn spearman(pairs: &[(f64, f64)]) -> f64 {
    let ranks = |key: fn(&(f64, f64)) -> f64| {
        let v: Vec<f64> = pairs.iter().map(key).collect();
        let count = |keep: &dyn Fn(f64) -> bool| v.iter().filter(|y| keep(**y)).count() as f64;
        let rank = |x: f64| count(&|y| y < x) + (count(&|y| y == x) - 1.0) / 2.0;
        let ranks: Vec<f64> = v.iter().map(|x| rank(*x)).collect();
        let m = mean(&ranks).unwrap_or(0.0);
        ranks.into_iter().map(|r| r - m).collect::<Vec<f64>>()
    };
    let (a, b) = (ranks(|p| p.0), ranks(|p| p.1));
    let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f64>();
    dot(&a, &b) / (dot(&a, &a) * dot(&b, &b)).sqrt()
}

/// Table I: the machine and every L1D preset, for a line-by-line audit.
fn table1() -> [Table; 2] {
    let g = GpuConfig::gtx480();
    let mut general = table(
        "Table I — general configuration",
        "parameter",
        "value|paper",
    );
    let l2_kb = g.l2_banks * g.l2_sets * g.l2_ways * 128 / 1024;
    let dram = format!("{}/{}/{}", g.dram.t_cl, g.dram.t_rcd, g.dram.t_ras);
    let (nb, a, rl) = (
        NonBlocking::default(),
        ApproxConfig::default(),
        ReadLevelConfig::default(),
    );
    let cbfs = format!("{}/{}", a.num_cbfs, a.cbf_hashes);
    let sampler = format!("{}/{}", rl.sampler_ways, rl.sampler_sets);
    let history = format!("{}/{}", rl.history.entries, rl.history.unused_threshold);
    for (parameter, value, paper) in [
        ("SMs", g.num_sms.to_string(), "15"),
        ("warps/SM", g.warps_per_sm.to_string(), "48"),
        ("threads/warp", THREADS_PER_WARP.to_string(), "32"),
        ("threads/SM", g.threads_per_sm().to_string(), "1536"),
        ("L2 banks", g.l2_banks.to_string(), "12"),
        ("L2 size", format!("{l2_kb} KB"), "786 KB"),
        (
            "L2 sets/assoc per bank",
            format!("{}/{}", g.l2_sets, g.l2_ways),
            "64/8",
        ),
        ("DRAM channels", g.dram_channels.to_string(), "6"),
        ("tCL/tRCD/tRAS", dram, "12/12/28"),
        ("request queue", nb.tag_queue_entries.to_string(), "16"),
        ("swap buffer entries", nb.swap_entries.to_string(), "3"),
        ("CBFs / hash functions", cbfs, "128/3"),
        ("sampler assoc/sets", sampler, "8/4"),
        ("history entries/threshold", history, "1024/14"),
    ] {
        general.row(vec![parameter.into(), value, paper.into()]);
    }
    let headers = "SRAM KB (sets/ways)|STT KB (org)|STT R/W cycles|SRAM R/W nJ|STT R/W nJ|\
                   leakage mW (SRAM+STT)|non-blocking|placement";
    let mut presets = table("Table I — L1D configurations", "config", headers);
    let dash = |s: Option<String>| s.unwrap_or_else(|| "-".into());
    let energy = |b: BankParams| format!("{}/{}", f(b.read_energy_nj, 2), f(b.write_energy_nj, 2));
    let leak = |b: Option<BankParams>| b.map_or_else(|| "0".into(), |b| f(b.leakage_mw, 1));
    let org = |o: SttOrganization| match o {
        SttOrganization::SetAssoc { sets, ways } => format!("{sets}x{ways}"),
        SttOrganization::Approximate(a) => format!("FA/{} CBFs", a.num_cbfs),
    };
    let kb = |lines: usize| lines * 128 / 1024;
    for p in L1Preset::ALL.into_iter().filter(|p| *p != L1Preset::Oracle) {
        let c = p.config();
        let (sram, stt) = (c.sram, c.stt);
        let (sram_p, stt_p) = (sram.map(|s| s.params), stt.map(|s| s.params));
        let placement = match c.placement {
            Placement::SramFirst => "SRAM-first",
            Placement::Predictor(_) => "read-level predictor",
        };
        presets.row(vec![
            p.name().into(),
            dash(sram.map(|s| format!("{} ({}x{})", kb(s.sets * s.ways), s.sets, s.ways))),
            dash(stt.map(|s| format!("{} ({})", kb(s.organization.lines()), org(s.organization)))),
            dash(stt_p.map(|s| format!("{}/{}", s.read_latency, s.write_latency))),
            dash(sram_p.map(energy)),
            dash(stt_p.map(energy)),
            format!("{}+{}", leak(sram_p), leak(stt_p)),
            if c.non_blocking.is_some() {
                "yes"
            } else {
                "no"
            }
            .into(),
            placement.into(),
        ]);
    }
    [general, presets]
}

/// Table III's transistor counts, model vs paper. Returns the largest
/// deviation of a support-logic component from the paper, and Dy-FUSE's
/// support-logic overhead over the whole L1D.
fn table3(tables: &mut Vec<Table>) -> (f64, f64) {
    let mut worst = 0.0f64;
    for (name, report) in [("L1-SRAM", l1_sram_area()), ("Dy-FUSE", dy_fuse_area())] {
        let paper = paper_table3(name);
        let title = format!("Table III — {name} transistor counts");
        let mut t = table(&title, "component", "model|paper|delta");
        for c in &report.components {
            let p = paper.iter().find(|(n, _)| *n == c.name).map(|(_, v)| *v);
            let delta = p.map(|v| 100.0 * (c.transistors as f64 - v as f64) / v as f64);
            // The data arrays differ on purpose: the paper equalises
            // their silicon, not their transistors (see below).
            if c.name != "data array" {
                worst = worst.max(delta.map_or(0.0, f64::abs) / 100.0);
            }
            let p = p.map_or_else(|| "-".into(), |v| v.to_string());
            let delta = delta.map_or_else(|| "-".into(), |d| format!("{d:+.1}%"));
            t.row(vec![c.name.into(), c.transistors.to_string(), p, delta]);
        }
        let totals = [
            report.total_transistors(),
            paper.iter().map(|(_, v)| v).sum(),
        ];
        let [model, paper] = totals.map(|n| n.to_string());
        t.row(vec!["TOTAL".into(), model, paper, "".into()]);
        tables.push(t);
    }
    // The paper equalises the data arrays' silicon (STT-MRAM cells are
    // 36 F² against SRAM's 140 F²), then compares the logic on top.
    let base_array = data_array_cell_area_f2(32 * 1024, 0) as f64;
    let support = |r: AreaReport| {
        let logic = r.components.iter().filter(|c| c.name != "data array");
        logic.map(|c| c.transistors).sum::<u64>() as f64
    };
    let (base, fuse) = (support(l1_sram_area()), support(dy_fuse_area()));
    (worst, (fuse - base) / (base + base_array / 140.0 * 6.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::cell_key;
    use std::collections::HashSet;

    /// The cache key of every cell of `plan`, as the sweep derives them.
    fn cell_keys(plan: &SweepPlan) -> Vec<String> {
        let rc = &plan.run_config;
        let cells = plan
            .workloads
            .iter()
            .flat_map(|w| plan.configs.iter().map(move |c| (w, c)));
        cells
            .map(|(w, c)| cell_key(w, c.l1.as_ref(), rc).hex)
            .collect()
    }

    /// Every figure's own configurations build, and an ablation's other
    /// settings differ from the paper's.
    #[test]
    fn figure_configurations_validate() {
        let dy = L1Preset::DyFuse.config();
        for knob in &KNOBS {
            for &v in knob.values.iter().filter(|v| **v != knob.paper) {
                assert_ne!(knob.config(v), dy, "{}={v} must differ", knob.label);
                knob.config(v).validate();
            }
        }
        // unused_th leaves the paper's counter start only where the
        // neutral band demands it.
        for (th, init) in [(6, 3), (10, 8), (14, 8)] {
            let Placement::Predictor(rl) = KNOBS[2].config(th).placement else {
                panic!("Dy-FUSE predicts placement");
            };
            assert_eq!(rl.history.init_counter, init, "th={th}");
        }
        for (h, s) in HASHES.into_iter().chain(SLOTS) {
            fa_fuse_with_cbf(h, s).validate();
        }
        let exact = exact_fa_fuse().stt.expect("STT bank").organization;
        assert_eq!(exact, SttOrganization::SetAssoc { sets: 1, ways: 512 });
    }

    /// 975 declared cells, 441 distinct (the old harnesses ran 893): the
    /// figures' own columns that equal a preset (Fig. 18's 1/2 split,
    /// Fig. 20's 3×128 filter, each ablation's paper value) share its
    /// cell. No plan repeats a key, so its workers never simulate one
    /// cell twice.
    #[test]
    fn declared_cells_dedupe_to_the_distinct_keys() {
        let (mut declared, mut distinct) = (0, HashSet::new());
        for plan in ENTRIES.iter().flat_map(|e| (e.cells)(0.35)) {
            let keys = cell_keys(&plan);
            declared += keys.len();
            assert_eq!(keys.iter().collect::<HashSet<_>>().len(), keys.len());
            distinct.extend(keys);
        }
        assert_eq!((declared, distinct.len()), (975, 441));
    }

    #[test]
    fn a_reducer_without_qualifying_data_reports_none() {
        // Smoke runs grade too few evictions for a confident accuracy.
        let plan = SweepPlan::new("fig16", RunConfig::smoke()).workloads(by_name("cfd"));
        let report = plan.presets(&[L1Preset::DyFuse]).run();
        let fig16 = ENTRIES.iter().find(|e| e.id == "fig16").expect("fig16");
        let mut tables = Vec::new();
        assert!((fig16.reduce)(&[report], &mut tables).is_none());
        assert!(!tables[0].render().contains("NaN"));
    }

    #[test]
    fn tied_values_share_their_mean_rank() {
        let pairs = [(1.0, 10.0), (2.0, 30.0), (2.0, 20.0), (3.0, 40.0)];
        assert!(
            (spearman(&pairs) - 0.9487).abs() < 1e-4,
            "ties share a mean rank"
        );
    }
}
