//! Bloom-filter key derivation (§IV-C, Fig. 12).
//!
//! FUSE instantiates many small counting Bloom filters — one per tag-array
//! partition, held in [`crate::nvm_cbf::NvmCbfArray`] — to narrow the
//! fully-associative tag search down to a few candidate partitions. Keys
//! are derived by double hashing so any number of hash functions can be
//! configured (Fig. 20a sweeps 1–5).

use crate::line::LineAddr;

/// Upper bound on hash functions for the stack-allocated key buffer
/// ([`line_keys`]). The paper sweeps 1–5 (Fig. 20a).
pub const MAX_HASHES: usize = 8;

fn hash2(line: LineAddr) -> (u64, u64) {
    let h1 = line.mix();
    // An independent second mix (different odd multiplier).
    let mut z = line.0.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    let h2 = z ^ (z >> 33);
    (h1, h2 | 1) // odd step so all slots are reachable
}

/// Writes the double-hashed key sequence for `line` over a filter of
/// `slots` counters and `hashes` hash functions into `buf`, returning the
/// filled prefix. Filters of equal geometry always agree on keys, which
/// lets a same-geometry filter array hash once per probe.
///
/// # Panics
///
/// Panics if `hashes` exceeds [`MAX_HASHES`] or `slots` is zero.
pub fn line_keys(
    line: LineAddr,
    slots: usize,
    hashes: u32,
    buf: &mut [usize; MAX_HASHES],
) -> &[usize] {
    let n = hashes as usize;
    assert!(n <= MAX_HASHES, "at most {MAX_HASHES} hash functions");
    assert!(slots > 0, "filter geometry must be non-zero");
    let (h1, h2) = hash2(line);
    let m = slots as u64;
    for (i, slot) in buf[..n].iter_mut().enumerate() {
        *slot = (h1.wrapping_add((i as u64).wrapping_mul(h2)) % m) as usize;
    }
    &buf[..n]
}
