//! L1D configurations (paper Table I) and the SRAM:STT ratio sweep
//! (Fig. 18).

use fuse_cache::approx_assoc::ApproxConfig;
use fuse_cache::replacement::PolicyKind;
use fuse_mem::tech::BankParams;
use fuse_predict::dead_write::DeadWriteConfig;
use fuse_predict::read_level::ReadLevelConfig;

/// How the STT-MRAM bank's tags are organised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SttOrganization {
    /// Conventional set-associative bank (By-NVM, Hybrid, Base-FUSE).
    SetAssoc {
        /// Number of sets (power of two).
        sets: usize,
        /// Associativity.
        ways: usize,
    },
    /// Approximate fully-associative bank (FA-FUSE, Dy-FUSE, §III-B).
    Approximate(ApproxConfig),
}

impl SttOrganization {
    /// Total line capacity.
    pub fn lines(&self) -> usize {
        match self {
            SttOrganization::SetAssoc { sets, ways } => sets * ways,
            SttOrganization::Approximate(c) => c.lines,
        }
    }
}

/// L1D write policy (§VI): the paper argues real GPU L1Ds are write-back
/// with synchronisation-based consistency, while some prior work assumed
/// write-through; both are available for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Dirty lines written back on eviction (the paper's choice).
    #[default]
    WriteBack,
    /// Every store is also forwarded to L2 (prior-work assumption
    /// \[46\], \[17\]); lines are never dirty.
    WriteThrough,
}

/// Block-placement policy between the banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All fills go to SRAM; SRAM victims migrate to STT-MRAM (the
    /// "simplistic" strategy of §III-A, used by Hybrid/Base-FUSE/FA-FUSE).
    SramFirst,
    /// Read-level-predicted placement (Dy-FUSE, §IV-B): WM → SRAM,
    /// WORM → STT, WORO → bypass, neutral → SRAM.
    Predictor(ReadLevelConfig),
}

/// Geometry of the SRAM bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramGeometry {
    /// Sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Latency/energy parameters.
    pub params: BankParams,
}

/// Periodic refresh of a volatile NVM-slot technology (eDRAM, §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshSpec {
    /// Cycles between refresh bursts (eDRAM: ~40 µs of core cycles).
    pub interval_cycles: u64,
    /// Bank-busy cycles per refresh burst.
    pub busy_cycles: u64,
}

/// Geometry of the non-SRAM bank (STT-MRAM, or eDRAM for the §VI
/// discussion comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SttGeometry {
    /// Tag organisation.
    pub organization: SttOrganization,
    /// Latency/energy parameters (write latency 5× read for STT-MRAM).
    pub params: BankParams,
    /// Periodic refresh (None for non-volatile STT-MRAM — the paper's
    /// argument for preferring it over eDRAM).
    pub refresh: Option<RefreshSpec>,
}

/// Non-blocking support structures (§IV-A). Absent in plain `Hybrid`,
/// where an STT write stalls the L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonBlocking {
    /// Swap-buffer registers (paper: 3).
    pub swap_entries: usize,
    /// Tag-queue entries (paper: 16).
    pub tag_queue_entries: usize,
}

impl Default for NonBlocking {
    fn default() -> Self {
        NonBlocking {
            swap_entries: 3,
            tag_queue_entries: 16,
        }
    }
}

/// A fully-specified L1D configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct L1Config {
    /// SRAM bank, if present.
    pub sram: Option<SramGeometry>,
    /// STT-MRAM bank, if present.
    pub stt: Option<SttGeometry>,
    /// SRAM replacement policy (paper/GPGPU-Sim default: LRU).
    pub sram_policy: PolicyKind,
    /// Set-associative STT replacement policy (paper: FIFO, §V — "the
    /// circuit complexity of LRU is not affordable"; the approximate
    /// organisation is inherently FIFO and ignores this field).
    pub stt_policy: PolicyKind,
    /// Placement policy.
    pub placement: Placement,
    /// Write policy (§VI; default write-back).
    pub write_policy: WritePolicy,
    /// DASCA-style dead-write bypass (By-NVM only).
    pub dead_write_bypass: Option<DeadWriteConfig>,
    /// Swap buffer + tag queue, if the configuration is non-blocking.
    pub non_blocking: Option<NonBlocking>,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Merged requesters per MSHR entry.
    pub mshr_targets: usize,
}

impl L1Config {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if no bank is present, or a predictor placement is configured
    /// without an STT bank.
    pub fn validate(&self) {
        assert!(
            self.sram.is_some() || self.stt.is_some(),
            "L1 needs at least one bank"
        );
        if matches!(self.placement, Placement::Predictor(_)) {
            assert!(
                self.stt.is_some(),
                "predicted placement requires an STT bank"
            );
        }
    }
}

/// The named L1D configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L1Preset {
    /// 32 KB 4-way SRAM — the baseline every figure normalises to.
    L1Sram,
    /// 32 KB fully-associative SRAM (unrealistically expensive; idealised).
    FaSram,
    /// 128 KB 4-way pure STT-MRAM without bypass (Fig. 3 "STT-MRAM GPU").
    SttOnly,
    /// 128 KB 4-way pure STT-MRAM with dead-write bypass (DASCA).
    ByNvm,
    /// 16 KB 2-way SRAM + 64 KB 2-way STT-MRAM, blocking STT writes.
    Hybrid,
    /// Hybrid + swap buffer + tag queue.
    BaseFuse,
    /// Base-FUSE + approximate fully-associative STT bank.
    FaFuse,
    /// FA-FUSE + read-level predictor (the full FUSE design).
    DyFuse,
    /// Unbounded L1 (Fig. 3 "Oracle GPU").
    Oracle,
}

impl L1Preset {
    /// All presets, in the paper's presentation order.
    pub const ALL: [L1Preset; 9] = [
        L1Preset::L1Sram,
        L1Preset::FaSram,
        L1Preset::SttOnly,
        L1Preset::ByNvm,
        L1Preset::Hybrid,
        L1Preset::BaseFuse,
        L1Preset::FaFuse,
        L1Preset::DyFuse,
        L1Preset::Oracle,
    ];

    /// The six configurations plotted in Fig. 13/14 plus the baseline.
    pub const FIG13: [L1Preset; 7] = [
        L1Preset::L1Sram,
        L1Preset::ByNvm,
        L1Preset::FaSram,
        L1Preset::Hybrid,
        L1Preset::BaseFuse,
        L1Preset::FaFuse,
        L1Preset::DyFuse,
    ];

    /// The paper's name for the preset.
    pub fn name(self) -> &'static str {
        match self {
            L1Preset::L1Sram => "L1-SRAM",
            L1Preset::FaSram => "FA-SRAM",
            L1Preset::SttOnly => "STT-MRAM",
            L1Preset::ByNvm => "By-NVM",
            L1Preset::Hybrid => "Hybrid",
            L1Preset::BaseFuse => "Base-FUSE",
            L1Preset::FaFuse => "FA-FUSE",
            L1Preset::DyFuse => "Dy-FUSE",
            L1Preset::Oracle => "Oracle",
        }
    }

    /// The Table I configuration for this preset.
    ///
    /// # Panics
    ///
    /// Panics for [`L1Preset::Oracle`], which has no finite configuration —
    /// use [`L1Preset::build_model`] instead.
    pub fn config(self) -> L1Config {
        let base = |sram, stt| L1Config {
            sram,
            stt,
            sram_policy: PolicyKind::Lru,
            stt_policy: PolicyKind::Fifo,
            placement: Placement::SramFirst,
            write_policy: WritePolicy::WriteBack,
            dead_write_bypass: None,
            non_blocking: None,
            mshr_entries: 32,
            mshr_targets: 8,
        };
        let sram_32k_4w = SramGeometry {
            sets: 64,
            ways: 4,
            params: BankParams::sram_32kb(),
        };
        let sram_32k_fa = SramGeometry {
            sets: 1,
            ways: 256,
            params: BankParams::sram_32kb(),
        };
        let sram_16k_2w = SramGeometry {
            sets: 64,
            ways: 2,
            params: BankParams::sram_16kb(),
        };
        let stt_128k_4w = SttGeometry {
            organization: SttOrganization::SetAssoc { sets: 256, ways: 4 },
            params: BankParams::stt_128kb(),
            refresh: None,
        };
        let stt_64k_2w = SttGeometry {
            organization: SttOrganization::SetAssoc { sets: 256, ways: 2 },
            params: BankParams::stt_64kb(),
            refresh: None,
        };
        let stt_64k_fa = SttGeometry {
            organization: SttOrganization::Approximate(ApproxConfig::default()),
            params: BankParams::stt_64kb(),
            refresh: None,
        };
        match self {
            L1Preset::L1Sram => base(Some(sram_32k_4w), None),
            L1Preset::FaSram => base(Some(sram_32k_fa), None),
            L1Preset::SttOnly => base(None, Some(stt_128k_4w)),
            L1Preset::ByNvm => L1Config {
                dead_write_bypass: Some(DeadWriteConfig::default()),
                ..base(None, Some(stt_128k_4w))
            },
            L1Preset::Hybrid => base(Some(sram_16k_2w), Some(stt_64k_2w)),
            L1Preset::BaseFuse => L1Config {
                non_blocking: Some(NonBlocking::default()),
                ..base(Some(sram_16k_2w), Some(stt_64k_2w))
            },
            L1Preset::FaFuse => L1Config {
                non_blocking: Some(NonBlocking::default()),
                ..base(Some(sram_16k_2w), Some(stt_64k_fa))
            },
            L1Preset::DyFuse => L1Config {
                non_blocking: Some(NonBlocking::default()),
                placement: Placement::Predictor(ReadLevelConfig::default()),
                ..base(Some(sram_16k_2w), Some(stt_64k_fa))
            },
            L1Preset::Oracle => panic!("Oracle has no finite configuration"),
        }
    }

    /// Builds a ready-to-plug L1D model (handles `Oracle` via
    /// [`fuse_gpu::l1d::IdealL1`]).
    pub fn build_model(self) -> Box<dyn fuse_gpu::l1d::L1dModel> {
        match self {
            L1Preset::Oracle => Box::new(fuse_gpu::l1d::IdealL1::new()),
            other => Box::new(crate::controller::FuseL1::new(other.config())),
        }
    }

    /// Bank parameters for the energy model (SRAM, STT), if present.
    pub fn energy_banks(self) -> (Option<BankParams>, Option<BankParams>) {
        match self {
            L1Preset::Oracle => (Some(BankParams::sram_32kb()), None),
            other => {
                let cfg = other.config();
                (cfg.sram.map(|s| s.params), cfg.stt.map(|s| s.params))
            }
        }
    }
}

impl std::fmt::Display for L1Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A Dy-FUSE configuration with `sram_num/sram_den` of the 32 KB area
/// budget spent on SRAM and the rest on (4× denser) STT-MRAM — the Fig. 18
/// sensitivity sweep. `1/2` reproduces the default Dy-FUSE.
///
/// # Panics
///
/// Panics if the fraction is not in (0, 1), or the resulting geometry
/// cannot be tiled (SRAM lines not divisible into power-of-two sets, STT
/// lines not divisible into 4-line CBF partitions).
pub fn dy_fuse_with_ratio(sram_num: u64, sram_den: u64) -> L1Config {
    assert!(
        sram_num > 0 && sram_num < sram_den,
        "SRAM fraction must be in (0,1)"
    );
    let budget: u64 = 32 * 1024;
    let sram_bytes = budget * sram_num / sram_den;
    let stt_bytes = (budget - sram_bytes) * 4;
    let sram_lines = (sram_bytes / 128) as usize;
    let stt_lines = (stt_bytes / 128) as usize;

    // Keep 2-way SRAM when lines/2 is a power of two; otherwise grow the
    // associativity until the set count is (e.g. 24 KB -> 64 sets x 3 ways).
    let (sets, ways) = (1..=8usize)
        .filter(|w| sram_lines.is_multiple_of(*w) && (sram_lines / w).is_power_of_two())
        .map(|w| (sram_lines / w, w))
        .find(|&(_, w)| w >= 2)
        .unwrap_or_else(|| panic!("cannot tile {sram_lines} SRAM lines into sets"));

    assert!(
        stt_lines.is_multiple_of(4),
        "STT lines must tile into 4-line partitions"
    );
    let approx = ApproxConfig {
        lines: stt_lines,
        num_cbfs: stt_lines / 4,
        ..ApproxConfig::default()
    };
    L1Config {
        sram: Some(SramGeometry {
            sets,
            ways,
            params: BankParams::sram_for_capacity(sram_bytes),
        }),
        sram_policy: PolicyKind::Lru,
        stt_policy: PolicyKind::Fifo,
        write_policy: WritePolicy::WriteBack,
        stt: Some(SttGeometry {
            organization: SttOrganization::Approximate(approx),
            params: BankParams::stt_for_capacity(stt_bytes.max(1)),
            refresh: None,
        }),
        placement: Placement::Predictor(ReadLevelConfig::default()),
        dead_write_bypass: None,
        non_blocking: Some(NonBlocking::default()),
        mshr_entries: 32,
        mshr_targets: 8,
    }
}

/// The §VI discussion configuration: Dy-FUSE with the non-SRAM bank built
/// from eDRAM instead of STT-MRAM, under the same 32 KB silicon budget.
///
/// eDRAM is only ~2× as dense as SRAM (60–100 F² vs 140 F²), so the same
/// budget buys a 32 KB bank (256 lines) instead of STT-MRAM's 64 KB —
/// and the cells must be refreshed every ~40 µs, costing periodic bank
/// busy time. The paper prefers STT-MRAM on both counts.
pub fn edram_dy_fuse(clock_ghz: f64) -> L1Config {
    let mut cfg = L1Preset::DyFuse.config();
    let lines = 256usize; // 16 KB x 2 density / 128 B
    let approx = ApproxConfig {
        lines,
        num_cbfs: lines / 4,
        ..ApproxConfig::default()
    };
    cfg.stt = Some(SttGeometry {
        organization: SttOrganization::Approximate(approx),
        params: BankParams::edram_for_capacity(lines as u64 * 128),
        refresh: Some(RefreshSpec {
            // 40 us retention at the core clock; refresh a 256-line bank
            // one row pair per cycle.
            interval_cycles: (40e-6 * clock_ghz * 1e9) as u64,
            busy_cycles: lines as u64 / 2,
        }),
    });
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_capacities() {
        let c = L1Preset::L1Sram.config();
        let s = c.sram.unwrap();
        assert_eq!(s.sets * s.ways * 128, 32 * 1024);
        assert!(c.stt.is_none());

        let c = L1Preset::ByNvm.config();
        assert_eq!(c.stt.unwrap().organization.lines() * 128, 128 * 1024);
        assert!(c.dead_write_bypass.is_some());

        let c = L1Preset::DyFuse.config();
        assert_eq!(c.sram.unwrap().sets, 64);
        assert_eq!(c.sram.unwrap().ways, 2);
        assert_eq!(c.stt.unwrap().organization.lines(), 512);
        assert!(matches!(c.placement, Placement::Predictor(_)));
        assert!(c.non_blocking.is_some());
    }

    #[test]
    fn hybrid_is_blocking_base_fuse_is_not() {
        assert!(L1Preset::Hybrid.config().non_blocking.is_none());
        assert!(L1Preset::BaseFuse.config().non_blocking.is_some());
        // Same banks otherwise.
        let h = L1Preset::Hybrid.config();
        let b = L1Preset::BaseFuse.config();
        assert_eq!(h.sram, b.sram);
        assert_eq!(h.stt, b.stt);
    }

    #[test]
    fn fa_fuse_differs_from_base_only_in_organization() {
        let b = L1Preset::BaseFuse.config();
        let f = L1Preset::FaFuse.config();
        assert_eq!(b.sram, f.sram);
        assert!(matches!(
            f.stt.unwrap().organization,
            SttOrganization::Approximate(_)
        ));
        assert!(matches!(
            b.stt.unwrap().organization,
            SttOrganization::SetAssoc { .. }
        ));
    }

    #[test]
    fn every_finite_preset_validates() {
        for p in L1Preset::ALL {
            if p != L1Preset::Oracle {
                p.config().validate();
            }
        }
    }

    #[test]
    fn ratio_sweep_geometries() {
        for (num, den, sram_kb, stt_kb) in [
            (1, 16, 2, 120),
            (1, 8, 4, 112),
            (1, 4, 8, 96),
            (1, 2, 16, 64),
            (3, 4, 24, 32),
        ] {
            let c = dy_fuse_with_ratio(num, den);
            let s = c.sram.unwrap();
            assert_eq!(s.sets * s.ways * 128, sram_kb * 1024, "{num}/{den} SRAM");
            assert_eq!(
                c.stt.unwrap().organization.lines() * 128,
                stt_kb * 1024,
                "{num}/{den} STT"
            );
        }
    }

    #[test]
    fn half_ratio_equals_default_dy_fuse_capacities() {
        let sweep = dy_fuse_with_ratio(1, 2);
        let default = L1Preset::DyFuse.config();
        assert_eq!(
            sweep.sram.unwrap().sets * sweep.sram.unwrap().ways,
            default.sram.unwrap().sets * default.sram.unwrap().ways
        );
        assert_eq!(
            sweep.stt.unwrap().organization.lines(),
            default.stt.unwrap().organization.lines()
        );
    }

    #[test]
    fn names_are_the_papers() {
        assert_eq!(L1Preset::DyFuse.to_string(), "Dy-FUSE");
        assert_eq!(L1Preset::ByNvm.to_string(), "By-NVM");
    }

    #[test]
    fn edram_discussion_config_builds() {
        let cfg = edram_dy_fuse(0.7);
        cfg.validate();
        let stt = cfg.stt.unwrap();
        assert_eq!(
            stt.organization.lines(),
            256,
            "eDRAM: half the STT capacity"
        );
        let r = stt.refresh.expect("eDRAM must refresh");
        assert_eq!(r.interval_cycles, 28_000);
        assert!(matches!(
            stt.params.technology,
            fuse_mem::tech::MemTechnology::EDram
        ));
    }

    #[test]
    #[should_panic(expected = "no finite configuration")]
    fn oracle_config_panics() {
        let _ = L1Preset::Oracle.config();
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn bad_ratio_rejected() {
        let _ = dy_fuse_with_ratio(2, 2);
    }
}
