//! Memory technology and bank parameter tables (paper Table I).
//!
//! The FUSE paper characterises each on-chip bank by its capacity, read/write
//! latency in L1D cycles, per-access dynamic energy (nJ) and leakage power
//! (mW). Those constants came from CACTI 6.5 and NVSim; here they are
//! transcribed directly from Table I. Capacities not present in Table I
//! (used by the Fig. 18 SRAM:STT ratio sweep) are linearly interpolated in
//! capacity, which matches the first-order capacity scaling of both tools.

/// The memory technology a bank is built from.
///
/// # Examples
///
/// ```
/// use fuse_mem::tech::MemTechnology;
/// assert!(MemTechnology::SttMram.cell_area_f2() < MemTechnology::Sram.cell_area_f2());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemTechnology {
    /// Six-transistor SRAM (140 F² per cell).
    #[default]
    Sram,
    /// One-transistor one-MTJ spin-transfer-torque MRAM (36 F² per cell).
    SttMram,
    /// Embedded DRAM (discussed in §VI of the paper, ~80 F² per cell).
    EDram,
}

impl MemTechnology {
    /// Cell area in units of F² (feature-size squared), per the paper:
    /// SRAM 140 F² [ITRS 2013], STT-MRAM 36 F², eDRAM 60–100 F² (midpoint).
    pub fn cell_area_f2(self) -> u32 {
        match self {
            MemTechnology::Sram => 140,
            MemTechnology::SttMram => 36,
            MemTechnology::EDram => 80,
        }
    }
}

impl std::fmt::Display for MemTechnology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemTechnology::Sram => f.write_str("SRAM"),
            MemTechnology::SttMram => f.write_str("STT-MRAM"),
            MemTechnology::EDram => f.write_str("eDRAM"),
        }
    }
}

/// Latency, energy and leakage parameters of one cache bank.
///
/// All latencies are in L1D clock cycles; energies in nJ per 128 B access;
/// leakage in mW.
///
/// # Examples
///
/// ```
/// use fuse_mem::tech::BankParams;
/// let b = BankParams::stt_64kb();
/// assert_eq!(b.read_latency, 1);
/// assert_eq!(b.write_latency, 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankParams {
    /// Technology the bank is built from.
    pub technology: MemTechnology,
    /// Usable data capacity in bytes.
    pub capacity_bytes: u64,
    /// Read access latency in cycles.
    pub read_latency: u32,
    /// Write access latency in cycles (5× read for STT-MRAM per the paper).
    pub write_latency: u32,
    /// Dynamic read energy, nJ per access.
    pub read_energy_nj: f64,
    /// Dynamic write energy, nJ per access.
    pub write_energy_nj: f64,
    /// Static leakage power, mW.
    pub leakage_mw: f64,
}

impl BankParams {
    /// The 32 KB 4-way SRAM bank of the `L1-SRAM` baseline (Table I).
    pub fn sram_32kb() -> Self {
        BankParams {
            technology: MemTechnology::Sram,
            capacity_bytes: 32 * 1024,
            read_latency: 1,
            write_latency: 1,
            read_energy_nj: 0.15,
            write_energy_nj: 0.12,
            leakage_mw: 58.0,
        }
    }

    /// The 16 KB 2-way SRAM bank used by all hybrid configurations (Table I).
    pub fn sram_16kb() -> Self {
        BankParams {
            technology: MemTechnology::Sram,
            capacity_bytes: 16 * 1024,
            read_latency: 1,
            write_latency: 1,
            read_energy_nj: 0.09,
            write_energy_nj: 0.07,
            leakage_mw: 36.0,
        }
    }

    /// The 64 KB STT-MRAM bank used by all hybrid configurations (Table I).
    pub fn stt_64kb() -> Self {
        BankParams {
            technology: MemTechnology::SttMram,
            capacity_bytes: 64 * 1024,
            read_latency: 1,
            write_latency: 5,
            read_energy_nj: 0.26,
            write_energy_nj: 2.4,
            leakage_mw: 2.5,
        }
    }

    /// The 128 KB pure STT-MRAM bank of the `By-NVM` baseline (Table I).
    pub fn stt_128kb() -> Self {
        BankParams {
            technology: MemTechnology::SttMram,
            capacity_bytes: 128 * 1024,
            read_latency: 1,
            write_latency: 5,
            read_energy_nj: 1.2,
            write_energy_nj: 2.9,
            leakage_mw: 2.8,
        }
    }

    /// An eDRAM bank of arbitrary capacity (§VI of the paper): ~2× the
    /// density of SRAM (60–100 F² per cell), read/write latency between
    /// SRAM and STT-MRAM, low leakage — but the cells must be refreshed
    /// every ~40 µs, which the cache controller models as periodic bank
    /// busy time.
    ///
    /// Constants are CACTI-class estimates for a 32 KB bank, scaled
    /// linearly in capacity like the other technologies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn edram_for_capacity(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "bank capacity must be non-zero");
        let scale = capacity_bytes as f64 / (32.0 * 1024.0);
        BankParams {
            technology: MemTechnology::EDram,
            capacity_bytes,
            read_latency: 2,
            write_latency: 2,
            read_energy_nj: 0.20 * scale.max(0.25),
            write_energy_nj: 0.22 * scale.max(0.25),
            leakage_mw: 6.0 * scale.max(0.25),
        }
    }

    /// An SRAM bank of arbitrary capacity, interpolated/extrapolated linearly
    /// in capacity between the two published SRAM points (16 KB and 32 KB).
    ///
    /// Used by the Fig. 18 SRAM:STT ratio sweep, which needs 2 KB – 24 KB
    /// SRAM banks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn sram_for_capacity(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "bank capacity must be non-zero");
        let lo = Self::sram_16kb();
        let hi = Self::sram_32kb();
        Self::interpolate(lo, hi, capacity_bytes)
    }

    /// An STT-MRAM bank of arbitrary capacity, interpolated/extrapolated
    /// linearly in capacity between the published 64 KB and 128 KB points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    pub fn stt_for_capacity(capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "bank capacity must be non-zero");
        let lo = Self::stt_64kb();
        let hi = Self::stt_128kb();
        Self::interpolate(lo, hi, capacity_bytes)
    }

    fn interpolate(lo: Self, hi: Self, capacity_bytes: u64) -> Self {
        debug_assert_eq!(lo.technology, hi.technology);
        let span = (hi.capacity_bytes - lo.capacity_bytes) as f64;
        let t = (capacity_bytes as f64 - lo.capacity_bytes as f64) / span;
        let lerp = |a: f64, b: f64| (a + (b - a) * t).max(a.min(b) * 0.05);
        BankParams {
            technology: lo.technology,
            capacity_bytes,
            read_latency: lo.read_latency,
            write_latency: lo.write_latency,
            read_energy_nj: lerp(lo.read_energy_nj, hi.read_energy_nj),
            write_energy_nj: lerp(lo.write_energy_nj, hi.write_energy_nj),
            leakage_mw: lerp(lo.leakage_mw, hi.leakage_mw),
        }
    }

    /// Number of 128 B cache lines this bank can hold.
    pub fn lines(&self, line_bytes: u64) -> u64 {
        self.capacity_bytes / line_bytes
    }
}

impl Default for BankParams {
    fn default() -> Self {
        Self::sram_32kb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sram_points() {
        let b = BankParams::sram_32kb();
        assert_eq!(b.capacity_bytes, 32768);
        assert_eq!(b.leakage_mw, 58.0);
        let b = BankParams::sram_16kb();
        assert_eq!(b.read_energy_nj, 0.09);
        assert_eq!(b.write_energy_nj, 0.07);
    }

    #[test]
    fn table1_stt_points() {
        let b = BankParams::stt_128kb();
        assert_eq!(b.read_energy_nj, 1.2);
        assert_eq!(b.write_energy_nj, 2.9);
        assert_eq!(b.write_latency, 5);
        let b = BankParams::stt_64kb();
        assert_eq!(b.read_energy_nj, 0.26);
        assert_eq!(b.write_energy_nj, 2.4);
    }

    #[test]
    fn interpolation_hits_published_endpoints() {
        let b = BankParams::sram_for_capacity(32 * 1024);
        assert!((b.read_energy_nj - 0.15).abs() < 1e-9);
        let b = BankParams::stt_for_capacity(64 * 1024);
        assert!((b.write_energy_nj - 2.4).abs() < 1e-9);
    }

    #[test]
    fn interpolation_is_monotone_in_capacity() {
        let small = BankParams::sram_for_capacity(8 * 1024);
        let big = BankParams::sram_for_capacity(24 * 1024);
        assert!(small.leakage_mw < big.leakage_mw);
        assert!(small.read_energy_nj < big.read_energy_nj);
    }

    #[test]
    fn extrapolation_never_goes_nonpositive() {
        let tiny = BankParams::sram_for_capacity(1024);
        assert!(tiny.read_energy_nj > 0.0);
        assert!(tiny.leakage_mw > 0.0);
    }

    #[test]
    fn lines_geometry() {
        assert_eq!(BankParams::sram_32kb().lines(128), 256);
        assert_eq!(BankParams::stt_64kb().lines(128), 512);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = BankParams::sram_for_capacity(0);
    }
}
