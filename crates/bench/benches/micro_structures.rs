//! Micro-benchmarks of the core data structures: the hot paths every
//! simulated cycle exercises (tag probes, CBF tests, approximate search,
//! predictor training, MSHR traffic, DRAM scheduling) plus a whole-system
//! throughput measurement. Uses the in-repo [`fuse_bench::timing`] harness
//! (no criterion), so the workspace resolves offline.

use fuse::core::config::L1Preset;
use fuse::runner::{run_workload, RunConfig};
use fuse_bench::timing::{black_box, Harness};
use fuse_cache::approx_assoc::{ApproxAssocStore, ApproxConfig};
use fuse_cache::line::LineAddr;
use fuse_cache::mshr::{FillDest, Mshr, MshrTarget};
use fuse_cache::nvm_cbf::NvmCbfArray;
use fuse_cache::replacement::PolicyKind;
use fuse_cache::tag_array::TagArray;
use fuse_mem::dram::{DramChannel, DramRequest, DramTiming};
use fuse_predict::read_level::{ReadLevelConfig, ReadLevelPredictor};
use fuse_workloads::by_name;

fn bench_tag_array(h: &Harness) {
    let mut tags = TagArray::new(64, 4, PolicyKind::Lru);
    let mut i = 0u64;
    h.run("tag_array_probe_touch_fill_64x4", || {
        i = i.wrapping_add(0x9E3779B9);
        let line = LineAddr(i >> 8 & 0xFFFF);
        if tags.touch(black_box(line)).is_none() {
            tags.fill(line, i & 1 == 0, 0);
        }
    });
}

/// The approximate bank's whole-array CBF test on Table I's geometry
/// (128 filters × 128 slots, 3 hashes), every partition holding its 4
/// lines, as in a warm Dy-FUSE STT bank.
fn bench_cbf(h: &Harness) {
    let c = ApproxConfig::default();
    let mut cbfs = NvmCbfArray::new(c.num_cbfs, c.cbf_slots, c.cbf_hashes, c.cbf_counter_bits);
    for i in 0..c.lines as u64 {
        cbfs.increment(i as usize / c.lines_per_partition(), LineAddr(i * 3));
    }
    let mut positives = Vec::with_capacity(c.num_cbfs);
    let mut i = 0u64;
    h.run("nvm_cbf_test_all_128x128_3hash", || {
        i = i.wrapping_add(7);
        cbfs.test_all_into(black_box(LineAddr(i & 0x7FF)), &mut positives);
        black_box(positives.len());
    });
}

fn bench_approx_store(h: &Harness) {
    let mut s = ApproxAssocStore::new(ApproxConfig::default());
    for i in 0..512u64 {
        s.fill(LineAddr(i * 3), false, 0);
    }
    let mut i = 0u64;
    h.run("approx_assoc_probe_512line", || {
        i = i.wrapping_add(7);
        black_box(s.probe(LineAddr(i & 0x7FF)));
    });
}

fn bench_predictor(h: &Harness) {
    let mut p = ReadLevelPredictor::new(ReadLevelConfig::default());
    let mut i = 0u64;
    h.run("read_level_observe_classify", || {
        i += 1;
        let sig = ReadLevelPredictor::pc_signature((i & 0x3F) as u32 * 4);
        p.observe(
            (i % 48) as u16,
            sig,
            LineAddr(i & 0xFFF),
            i.is_multiple_of(5),
        );
        black_box(p.classify(sig));
    });
}

fn bench_mshr(h: &Harness) {
    let mut m = Mshr::new(32, 8);
    let t = MshrTarget {
        warp: 0,
        is_store: false,
        pc_sig: 0,
    };
    let mut i = 0u64;
    h.run("mshr_allocate_complete_32", || {
        i += 1;
        let line = LineAddr(i & 0x1F);
        m.allocate(line, t, FillDest::Sram);
        black_box(m.complete(line));
    });
}

fn bench_dram(h: &Harness) {
    let mut ch = DramChannel::new(DramTiming::default());
    let mut now = 0u64;
    let mut id = 0u64;
    h.run("dram_channel_tick", || {
        now += 1;
        if ch.occupancy() < 8 {
            id += 1;
            ch.try_push(DramRequest {
                id,
                line: id * 17,
                is_write: false,
            });
        }
        black_box(ch.tick(now).len());
    });
}

fn bench_full_system() {
    let spec = by_name("gaussian").expect("known workload");
    let rc = RunConfig::smoke();
    let m = Harness::coarse().run("system/dy_fuse_gaussian_smoke", || {
        black_box(run_workload(&spec, L1Preset::DyFuse, &rc).sim.cycles);
    });
    let sim_cycles = run_workload(&spec, L1Preset::DyFuse, &rc).sim.cycles;
    println!(
        "  -> engine throughput: {:.0} simulated cycles/s (smoke budget, {} cycles/run)",
        sim_cycles as f64 / (m.median_ns / 1e9),
        sim_cycles
    );
}

fn main() {
    let h = Harness::default();
    bench_tag_array(&h);
    bench_cbf(&h);
    bench_approx_store(&h);
    bench_predictor(&h);
    bench_mshr(&h);
    bench_dram(&h);
    bench_full_system();
}
