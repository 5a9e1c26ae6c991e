//! Self-tests of the benchmark itself: the decorators must not perturb
//! the simulation, the seeded inputs must keep each workload's
//! calibration, and the result format must match `BENCHMARK.json`.

use fuse::core::config::L1Preset;
use fuse::runner::{RunConfig, ServeBackend};
use fuse::serve::proto::CellSpec;
use fuse::serve::CellBackend;
use fuse_perfbench::engine::{build, grid_plan, run};
use fuse_perfbench::metrics::{benchmark_json, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use fuse_perfbench::timed::{Spans, TimedBackend};
use fuse_perfbench::{tail_percentile, warp_remap, DEFAULT_SEED};

#[test]
fn traced_run_is_bitwise_identical_to_untraced() {
    let rc = RunConfig::smoke();
    for (name, preset) in [("ATAX", L1Preset::DyFuse), ("SS", L1Preset::L1Sram)] {
        let spec = fuse::workloads::by_name(name).expect("paper workload");
        for seed in [DEFAULT_SEED, 7] {
            let plain = run(build(&spec, preset, &rc, seed, None), preset, &rc);
            let spans = Spans::new();
            let traced = run(build(&spec, preset, &rc, seed, Some(&spans)), preset, &rc);
            assert_eq!(plain.sim, traced.sim, "{name} seed {seed}: SimStats");
            assert_eq!(
                plain.metrics, traced.metrics,
                "{name} seed {seed}: L1Metrics"
            );
            let totals = spans.totals();
            assert!(totals.access.calls > 0 && totals.access.timed > 0);
            assert!(totals.next_op.calls >= plain.sim.instructions);
            assert!(traced.profile.is_some(), "the phase profiler was on");
        }
    }
    let cell = CellSpec {
        workload: "gaussian".to_string(),
        config: "Dy-FUSE".to_string(),
    };
    let plain = ServeBackend::new(rc.clone());
    let timed = TimedBackend::new(ServeBackend::new(rc));
    assert_eq!(plain.key(&cell), timed.key(&cell));
    let (a, b) = (
        plain.simulate(&cell).unwrap(),
        timed.simulate(&cell).unwrap(),
    );
    assert_eq!((a.sim, a.metrics), (b.sim, b.metrics));
    assert_eq!(timed.totals().simulate.calls, 1);
}

#[test]
fn default_seed_path_equals_run_workload() {
    let rc = RunConfig::smoke();
    let spec = fuse::workloads::by_name("BICG").expect("paper workload");
    let direct = run(
        build(&spec, L1Preset::DyFuse, &rc, DEFAULT_SEED, None),
        L1Preset::DyFuse,
        &rc,
    );
    let prod = fuse::run_workload(&spec, L1Preset::DyFuse, &rc);
    assert_eq!(direct.sim, prod.sim);
    assert_eq!(direct.metrics, prod.metrics);
    assert_eq!(direct.energy, prod.energy);
}

#[test]
fn warp_remap_is_a_bijection() {
    let identity = warp_remap(DEFAULT_SEED, 15, 48);
    for (i, (sm, warp)) in identity.iter().enumerate() {
        assert_eq!(
            (*sm, *warp as usize),
            (i / 48, i % 48),
            "default seed is the identity"
        );
    }
    for seed in 1..20 {
        let remap = warp_remap(seed, 15, 48);
        assert_ne!(remap, identity, "seed {seed} must move some warp");
        let mut sorted = remap.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, identity, "seed {seed}: every slot exactly once");
        assert_eq!(remap, warp_remap(seed, 15, 48), "same seed, same remap");
    }
}

#[test]
fn grid_reseed_keeps_the_calibration() {
    let rc = RunConfig::smoke();
    let (a, b) = (grid_plan(DEFAULT_SEED, &rc), grid_plan(3, &rc));
    assert_eq!(a.len(), 42);
    for (x, y) in a.workloads.iter().zip(&b.workloads) {
        assert_ne!(x.name, y.name);
        assert_eq!(
            fuse::workloads::spec::WorkloadSpec { name: x.name, ..*y },
            *x,
            "only the generator seed may change"
        );
    }
    assert_eq!(
        a.workloads[0].name, "2DCONV",
        "the default seed is canonical"
    );
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(tail_percentile(&xs(1000)), (99, 990.0));
    assert_eq!(tail_percentile(&xs(500)), (98, 490.0));
    assert_eq!(tail_percentile(&xs(100)), (90, 90.0));
    assert_eq!(tail_percentile(&xs(20)), (50, 10.0));
    for n in [20, 57, 100, 333, 1000, 5000] {
        let (p, v) = tail_percentile(&xs(n));
        let beyond = xs(n).iter().filter(|x| **x > v).count();
        assert!(beyond >= 10, "n={n}: p{p} has {beyond} samples beyond");
        if p < 99 {
            let next = (p as usize + 1) * n;
            assert!(
                n - next.div_ceil(100) < 10,
                "n={n}: p{} would also qualify",
                p + 1
            );
        }
    }
    assert_eq!(
        tail_percentile(&xs(7)),
        (50, 4.0),
        "short runs report the median"
    );
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(m.name), "bad metric name {:?}", m.name);
        assert!(unit_ok(m.unit), "bad unit {:?}", m.unit);
        assert!(matches!(m.better, "higher" | "lower"));
        names.push(m.name);
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    for (name, why) in WORKLOADS {
        assert!(name_ok(name));
        assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "every name is used once");
}

#[test]
fn committed_benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with `perfbench --emit-benchmark-json > BENCHMARK.json`"
    );
    fuse::obs::json::validate(&committed).expect("BENCHMARK.json parses");
}

#[test]
fn result_line_lists_exactly_the_declared_metrics() {
    let mut out = Outcome::default();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        out.set(m.name, 1.5, m.unit);
    }
    out.set("extra.only_in_the_report", 2.0, "count");
    out.gate(Ok(()));
    for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let line = out.result_line(trace).expect("all metrics present");
        fuse::obs::json::validate(&line).expect("result line parses");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert_eq!(line.matches("\"value\"").count(), list.len());
        assert!(!line.contains("extra."));
    }
    out.gate(Err("boom".to_string()));
    assert!(!out.correct());
    let mut empty = Outcome::default();
    empty.set("setup_s", 1.0, "s");
    assert!(
        empty.result_line(false).is_err(),
        "a missing metric is an error"
    );
}
