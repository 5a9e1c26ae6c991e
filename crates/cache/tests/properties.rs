//! Property tests over the cache building blocks.
//!
//! The seeded properties run in every build. The rest need the `proptest`
//! dev-dependency, which is kept out of the offline workspace; build them
//! with `--features proptest` after restoring the dependency in Cargo.toml.

use fuse_cache::bloom::{line_keys, MAX_HASHES};
use fuse_cache::line::LineAddr;
use fuse_cache::nvm_cbf::{CbfStats, NvmCbfArray};

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
        self.stats.increments += 1;
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
        self.stats.decrements += 1;
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

#[cfg(feature = "proptest")]
mod proptests {
    use proptest::prelude::*;

    use fuse_cache::approx_assoc::{ApproxAssocStore, ApproxConfig};
    use fuse_cache::line::LineAddr;
    use fuse_cache::mshr::{FillDest, Mshr, MshrOutcome, MshrTarget};
    use fuse_cache::nvm_cbf::NvmCbfArray;
    use fuse_cache::replacement::PolicyKind;
    use fuse_cache::swap_buffer::{SwapBuffer, SwapEntry};
    use fuse_cache::tag_array::TagArray;

    #[derive(Debug, Clone)]
    enum Op {
        Access(u64),
        Invalidate(u64),
    }

    fn arb_ops(max_line: u64, n: usize) -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                (0..max_line).prop_map(Op::Access),
                (0..max_line).prop_map(Op::Invalidate),
            ],
            1..n,
        )
    }

    proptest! {
        #[test]
        fn cbf_never_false_negative(
            members in prop::collection::hash_set(0u64..10_000, 0..40),
            probes in prop::collection::vec(0u64..10_000, 0..200),
            hashes in 1u32..5,
            slots in 16usize..256,
        ) {
            // Filter 1 stays empty, so a member's test names filter 0 only.
            let mut f = NvmCbfArray::new(2, slots, hashes, 2);
            for &m in &members {
                f.increment(0, LineAddr(m));
            }
            for &m in &members {
                prop_assert!(f.test_all(LineAddr(m)) == [0], "member {m} reported absent");
            }
            // Removing a member never breaks the remaining members.
            let mut iter = members.iter();
            if let Some(&gone) = iter.next() {
                f.decrement(0, LineAddr(gone));
                for &m in iter {
                    prop_assert!(f.test_all(LineAddr(m)) == [0]);
                }
            }
            // Probes only exercise the no-panic path (false positives allowed).
            for &p in &probes {
                let _ = f.test_all(LineAddr(p));
            }
        }

        #[test]
        fn tag_array_never_duplicates_and_counts_correctly(
            ops in arb_ops(64, 400),
            policy in prop_oneof![Just(PolicyKind::Lru), Just(PolicyKind::Fifo)],
        ) {
            let mut tags = TagArray::new(8, 4, policy);
            for op in &ops {
                match op {
                    Op::Access(l) => {
                        let line = LineAddr(*l);
                        if tags.touch(line).is_none() {
                            tags.fill(line, false, 0);
                        }
                        prop_assert!(tags.probe(line).is_some(), "just-filled line absent");
                    }
                    Op::Invalidate(l) => {
                        let line = LineAddr(*l);
                        tags.invalidate(line);
                        prop_assert!(tags.probe(line).is_none());
                    }
                }
                let mut seen = std::collections::HashSet::new();
                for e in tags.iter_valid() {
                    prop_assert!(seen.insert(e.line), "duplicate {:?}", e.line);
                }
                prop_assert_eq!(seen.len(), tags.valid_lines());
                prop_assert!(tags.valid_lines() <= tags.lines());
            }
        }

        #[test]
        fn approx_store_agrees_with_reference_model(ops in arb_ops(512, 300)) {
            let cfg = ApproxConfig {
                lines: 64,
                num_cbfs: 16,
                cbf_slots: 32,
                cbf_hashes: 3,
                cbf_counter_bits: 2,
                comparators: 4,
            };
            let mut store = ApproxAssocStore::new(cfg);
            // Reference: FIFO over a simple vec.
            let mut reference: Vec<LineAddr> = Vec::new();
            let mut cursor = 0usize;
            for op in &ops {
                match op {
                    Op::Access(l) => {
                        let line = LineAddr(*l);
                        let probe = store.probe(line);
                        let expected = reference.contains(&line);
                        prop_assert_eq!(probe.way.is_some(), expected, "probe disagrees for {}", line);
                        prop_assert!(probe.search_cycles >= 1);
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
                    Op::Invalidate(l) => {
                        let line = LineAddr(*l);
                        let got = store.invalidate(line).is_some();
                        let had = reference.contains(&line);
                        prop_assert_eq!(got, had);
                        if had {
                            // Keep slots aligned: mark the slot empty the same
                            // way the store does (slot is reused only by FIFO
                            // cursor). The reference keeps position semantics.
                            let idx = reference.iter().position(|x| *x == line).expect("had");
                            reference[idx] = LineAddr(u64::MAX); // tombstone never matched
                        }
                    }
                }
            }
        }

        #[test]
        fn mshr_merges_are_bounded(lines in prop::collection::vec(0u64..16, 1..200)) {
            let mut m = Mshr::new(8, 4);
            let t = MshrTarget { warp: 0, is_store: false, pc_sig: 0 };
            let mut outstanding: std::collections::HashMap<u64, usize> = Default::default();
            for &l in &lines {
                match m.allocate(LineAddr(l), t, FillDest::Sram) {
                    MshrOutcome::NewMiss => {
                        prop_assert!(outstanding.len() < 8);
                        outstanding.insert(l, 1);
                    }
                    MshrOutcome::Merged => {
                        let c = outstanding.get_mut(&l).expect("merge into live entry");
                        *c += 1;
                        prop_assert!(*c <= 4, "merge count exceeded");
                    }
                    MshrOutcome::FullEntries => {
                        prop_assert_eq!(outstanding.len(), 8);
                    }
                    MshrOutcome::FullTargets => {
                        prop_assert_eq!(outstanding[&l], 4);
                    }
                }
                prop_assert_eq!(m.occupancy(), outstanding.len());
            }
            for (&l, &targets) in &outstanding {
                let (_, got) = m.complete(LineAddr(l)).expect("entry exists");
                prop_assert_eq!(got.len(), targets);
            }
            prop_assert_eq!(m.occupancy(), 0);
        }

        #[test]
        fn swap_buffer_is_fifo_under_interleaving(pushes in prop::collection::vec(0u64..100, 1..50)) {
            let mut buf = SwapBuffer::new(3);
            let mut model: std::collections::VecDeque<u64> = Default::default();
            for (i, &l) in pushes.iter().enumerate() {
                let entry = SwapEntry { line: LineAddr(l), dirty: false, aux: 0 };
                let accepted = buf.push(entry);
                prop_assert_eq!(accepted, model.len() < 3);
                if accepted {
                    model.push_back(l);
                }
                if i % 2 == 1 {
                    let got = buf.pop_front().map(|e| e.line.0);
                    prop_assert_eq!(got, model.pop_front());
                }
            }
            while let Some(e) = buf.pop_front() {
                prop_assert_eq!(Some(e.line.0), model.pop_front());
            }
            prop_assert!(model.is_empty());
        }
    }
}
