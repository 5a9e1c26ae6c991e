//! Property tests over the cache building blocks, each run over a fixed
//! list of seeded cases so every build checks the same inputs.

use std::collections::{HashMap, HashSet, VecDeque};

use fuse_cache::approx_assoc::{ApproxAssocStore, ApproxConfig};
use fuse_cache::bloom::{line_keys, MAX_HASHES};
use fuse_cache::line::LineAddr;
use fuse_cache::mshr::{FillDest, Mshr, MshrOutcome, MshrTarget};
use fuse_cache::nvm_cbf::{CbfStats, NvmCbfArray};
use fuse_cache::replacement::PolicyKind;
use fuse_cache::swap_buffer::{SwapBuffer, SwapEntry};
use fuse_cache::tag_array::TagArray;

/// Seeds per property: case `i` runs on `SplitMix(i)`.
const CASES: u64 = 64;

/// The counting-Bloom-filter array as it was before the non-zero masks:
/// one byte counter plus one sticky saturation flag per counter, and a
/// test that filters each key's counter row byte by byte.
struct ByteScanCbf {
    num_filters: usize,
    slots: usize,
    hashes: u32,
    max: u8,
    counters: Vec<u8>,
    saturated: Vec<bool>,
    stats: CbfStats,
}

impl ByteScanCbf {
    fn new(num_filters: usize, slots: usize, hashes: u32, counter_bits: u32) -> Self {
        ByteScanCbf {
            num_filters,
            slots,
            hashes,
            max: ((1u16 << counter_bits) - 1) as u8,
            counters: vec![0; num_filters * slots],
            saturated: vec![false; num_filters * slots],
            stats: CbfStats::default(),
        }
    }

    fn test_all(&mut self, line: LineAddr) -> Vec<usize> {
        self.stats.tests += 1;
        let nf = self.num_filters;
        let mut keybuf = [0usize; MAX_HASHES];
        let keys = line_keys(line, self.slots, self.hashes, &mut keybuf);
        let first = &self.counters[keys[0] * nf..(keys[0] + 1) * nf];
        let mut out: Vec<usize> = (0..nf).filter(|&f| first[f] > 0).collect();
        for &k in &keys[1..] {
            let row = &self.counters[k * nf..(k + 1) * nf];
            out.retain(|&f| row[f] > 0);
        }
        self.stats.positives += out.len() as u64;
        out
    }

    fn increment(&mut self, p: usize, line: LineAddr) {
        let mut keybuf = [0usize; MAX_HASHES];
        for &k in line_keys(line, self.slots, self.hashes, &mut keybuf) {
            let i = k * self.num_filters + p;
            if self.counters[i] == self.max {
                self.saturated[i] = true;
            } else {
                self.counters[i] += 1;
            }
        }
    }

    fn decrement(&mut self, p: usize, line: LineAddr) {
        let mut keybuf = [0usize; MAX_HASHES];
        for &k in line_keys(line, self.slots, self.hashes, &mut keybuf) {
            let i = k * self.num_filters + p;
            if !self.saturated[i] {
                self.counters[i] = self.counters[i].saturating_sub(1);
            }
        }
    }
}

/// SplitMix64: a dependency-free seeded generator for the properties below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A line address in `0..n`.
    fn line(&mut self, n: usize) -> LineAddr {
        LineAddr(self.below(n) as u64)
    }
}

#[test]
fn cbf_masks_test_like_the_byte_scan() {
    let mut rng = SplitMix(0x00CB_F5EE_D000);
    let mut out = Vec::new();
    for counter_bits in 1..=7u32 {
        let mut saturations = 0;
        for hashes in 1..=MAX_HASHES as u32 {
            for num_filters in [1usize, 63, 64, 65, 128] {
                // One slot folds every key onto a single counter, so even
                // 7-bit counters saturate within the run.
                let slots = [1usize, 5, 16][rng.below(3)];
                let mut cbf = NvmCbfArray::new(num_filters, slots, hashes, counter_bits);
                let mut reference = ByteScanCbf::new(num_filters, slots, hashes, counter_bits);
                // A few hot filters take half the inserts; the rest spread.
                let hot = [0, num_filters / 2, num_filters - 1];
                let mut members: Vec<(usize, LineAddr)> = Vec::new();
                for _ in 0..1500 {
                    match rng.below(10) {
                        0..=4 => {
                            let p = if rng.below(2) == 0 {
                                hot[rng.below(3)]
                            } else {
                                rng.below(num_filters)
                            };
                            let line = LineAddr(rng.below(64) as u64);
                            cbf.increment(p, line);
                            reference.increment(p, line);
                            members.push((p, line));
                        }
                        5..=7 if !members.is_empty() => {
                            let (p, line) = members.swap_remove(rng.below(members.len()));
                            cbf.decrement(p, line);
                            reference.decrement(p, line);
                        }
                        _ => {
                            let line = LineAddr(rng.below(96) as u64);
                            cbf.test_all_into(line, &mut out);
                            let expected = reference.test_all(line);
                            assert_eq!(
                                out, expected,
                                "positives for {line} ({num_filters} filters, {slots} slots, \
                                 {hashes} hashes, {counter_bits}-bit counters)"
                            );
                        }
                    }
                    assert_eq!(cbf.stats(), reference.stats);
                }
                saturations += reference.saturated.iter().filter(|&&s| s).count();
            }
        }
        assert!(
            saturations > 0,
            "{counter_bits}-bit counters never saturated: the property missed the sticky path"
        );
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Access(LineAddr),
    Invalidate(LineAddr),
}

/// `1..max_len` accesses and invalidations over lines `0..max_line`.
fn ops(rng: &mut SplitMix, max_line: usize, max_len: usize) -> Vec<Op> {
    (0..1 + rng.below(max_len - 1))
        .map(|_| {
            let line = rng.line(max_line);
            if rng.below(2) == 0 {
                Op::Access(line)
            } else {
                Op::Invalidate(line)
            }
        })
        .collect()
}

#[test]
fn cbf_never_false_negative() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let hashes = 1 + rng.below(4) as u32;
        let slots = 16 + rng.below(240);
        let mut members: Vec<LineAddr> = (0..rng.below(40)).map(|_| rng.line(10_000)).collect();
        members.sort_unstable();
        members.dedup();
        // Filter 1 stays empty, so a member's test names filter 0 only.
        let mut f = NvmCbfArray::new(2, slots, hashes, 2);
        for &m in &members {
            f.increment(0, m);
        }
        for &m in &members {
            assert_eq!(
                f.test_all(m),
                [0],
                "seed {seed}: member {m} reported absent"
            );
        }
        // Removing a member never breaks the remaining members.
        if let Some((&gone, rest)) = members.split_first() {
            f.decrement(0, gone);
            for &m in rest {
                assert_eq!(
                    f.test_all(m),
                    [0],
                    "seed {seed}: member {m} lost with {gone}"
                );
            }
        }
        // Probes only exercise the no-panic path (false positives allowed).
        for _ in 0..rng.below(200) {
            let _ = f.test_all(rng.line(10_000));
        }
    }
}

#[test]
fn tag_array_never_duplicates_and_counts_correctly() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let policy = [PolicyKind::Lru, PolicyKind::Fifo][rng.below(2)];
        let mut tags = TagArray::new(8, 4, policy);
        for op in ops(&mut rng, 64, 400) {
            match op {
                Op::Access(line) => {
                    if tags.touch(line).is_none() {
                        tags.fill(line, false, 0);
                    }
                    assert!(
                        tags.probe(line).is_some(),
                        "seed {seed}: {line} absent after fill"
                    );
                }
                Op::Invalidate(line) => {
                    tags.invalidate(line);
                    assert!(tags.probe(line).is_none(), "seed {seed}: {line} survived");
                }
            }
            let mut seen = HashSet::new();
            for e in tags.iter_valid() {
                assert!(seen.insert(e.line), "seed {seed}: duplicate {}", e.line);
            }
            assert_eq!(seen.len(), tags.valid_lines(), "seed {seed}");
            assert!(tags.valid_lines() <= tags.lines(), "seed {seed}");
        }
    }
}

#[test]
fn approx_store_agrees_with_reference_model() {
    let cfg = ApproxConfig {
        lines: 64,
        num_cbfs: 16,
        cbf_slots: 32,
        cbf_hashes: 3,
        cbf_counter_bits: 2,
        comparators: 4,
    };
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let mut store = ApproxAssocStore::new(cfg);
        // Reference: a FIFO cursor over 64 positional slots; an
        // invalidated slot holds a tombstone until the cursor refills it.
        let mut reference: Vec<LineAddr> = Vec::new();
        let mut cursor = 0usize;
        for op in ops(&mut rng, 512, 300) {
            match op {
                Op::Access(line) => {
                    let probe = store.probe(line);
                    let expected = reference.contains(&line);
                    assert_eq!(
                        probe.way.is_some(),
                        expected,
                        "seed {seed}: probe disagrees for {line}"
                    );
                    assert!(probe.search_cycles >= 1);
                    if !expected {
                        store.fill(line, false, 0);
                        if reference.len() < 64 {
                            reference.push(line);
                            cursor = reference.len() % 64;
                        } else {
                            reference[cursor] = line;
                            cursor = (cursor + 1) % 64;
                        }
                    }
                }
                Op::Invalidate(line) => {
                    let got = store.invalidate(line).is_some();
                    let at = reference.iter().position(|&x| x == line);
                    assert_eq!(got, at.is_some(), "seed {seed}: invalidate of {line}");
                    if let Some(i) = at {
                        reference[i] = LineAddr(u64::MAX); // never matched
                    }
                }
            }
        }
    }
}

#[test]
fn mshr_merges_are_bounded() {
    let t = MshrTarget {
        warp: 0,
        is_store: false,
        pc_sig: 0,
    };
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let mut m = Mshr::new(8, 4);
        let mut outstanding: HashMap<LineAddr, usize> = HashMap::new();
        for _ in 0..1 + rng.below(199) {
            let line = rng.line(16);
            match m.allocate(line, t, FillDest::Sram) {
                MshrOutcome::NewMiss => {
                    assert!(outstanding.len() < 8, "seed {seed}");
                    outstanding.insert(line, 1);
                }
                MshrOutcome::Merged => {
                    let c = outstanding.get_mut(&line).expect("merge into a live entry");
                    *c += 1;
                    assert!(*c <= 4, "seed {seed}: merge count exceeded");
                }
                MshrOutcome::FullEntries => assert_eq!(outstanding.len(), 8, "seed {seed}"),
                MshrOutcome::FullTargets => assert_eq!(outstanding[&line], 4, "seed {seed}"),
            }
            assert_eq!(m.occupancy(), outstanding.len(), "seed {seed}");
        }
        for (&line, &targets) in &outstanding {
            let (_, got) = m.complete(line).expect("entry exists");
            assert_eq!(got.len(), targets, "seed {seed}");
        }
        assert_eq!(m.occupancy(), 0, "seed {seed}");
    }
}

#[test]
fn swap_buffer_is_fifo_under_interleaving() {
    for seed in 0..CASES {
        let mut rng = SplitMix(seed);
        let mut buf = SwapBuffer::new(3);
        let mut model: VecDeque<LineAddr> = VecDeque::new();
        for i in 0..1 + rng.below(49) {
            let line = rng.line(100);
            let accepted = buf.push(SwapEntry {
                line,
                dirty: false,
                aux: 0,
            });
            assert_eq!(accepted, model.len() < 3, "seed {seed}");
            if accepted {
                model.push_back(line);
            }
            if i % 2 == 1 {
                assert_eq!(
                    buf.pop_front().map(|e| e.line),
                    model.pop_front(),
                    "seed {seed}"
                );
            }
        }
        while let Some(e) = buf.pop_front() {
            assert_eq!(Some(e.line), model.pop_front(), "seed {seed}");
        }
        assert!(model.is_empty(), "seed {seed}");
    }
}
