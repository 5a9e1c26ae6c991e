//! GPU system configuration and the paper's two machine presets.

use crate::icnt::Packet;
use crate::l1d::OutgoingKind;
use fuse_mem::dram::DramTiming;

/// Threads per warp (32, fixed by the CUDA model).
pub const THREADS_PER_WARP: usize = 32;

/// Whole-GPU configuration (Table I, "General Configuration" column).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors (paper: 15 Fermi-like, 84 Volta-like).
    pub num_sms: usize,
    /// Resident warps per SM (paper: 48).
    pub warps_per_sm: usize,
    /// L2 slices (paper: 12, two per DRAM channel).
    pub l2_banks: usize,
    /// Sets per L2 slice (786 KB / 12 slices / 8 ways / 128 B = 64).
    pub l2_sets: usize,
    /// L2 associativity (paper: 8).
    pub l2_ways: usize,
    /// L2 service latency in SM cycles (tag + ECC + data; the paper calls
    /// L2 ~60× slower than L1 including the interconnect round trip).
    pub l2_latency: u32,
    /// L2-side MSHR entries per slice.
    pub l2_mshr_entries: usize,
    /// One-way interconnect pipeline latency, SM cycles.
    pub icnt_latency: u32,
    /// Aggregate interconnect injection bandwidth, flits/cycle/direction.
    pub icnt_flits_per_cycle: u32,
    /// DRAM channels (paper: 6).
    pub dram_channels: usize,
    /// DRAM timing (Table I: tCL/tRCD/tRAS = 12/12/28).
    pub dram: DramTiming,
    /// Core clock in GHz (for energy conversion only).
    pub clock_ghz: f64,
    /// Warp throttling à la CCWS [Rogers et al., MICRO 2012] — at most this
    /// many warps run concurrently per SM; retired warps release slots.
    /// `None` runs all resident warps (the paper's FUSE position: keep
    /// thread-level parallelism maximal and fix the cache instead).
    pub active_warp_limit: Option<usize>,
}

impl GpuConfig {
    /// The paper's primary machine: a GTX480/Fermi-class GPU with 15 SMs,
    /// 48 warps/SM, a 27-node butterfly interconnect, 12 L2 banks of 64 KB
    /// and 6 GDDR5 channels.
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            warps_per_sm: 48,
            l2_banks: 12,
            l2_sets: 64,
            l2_ways: 8,
            l2_latency: 30,
            l2_mshr_entries: 32,
            icnt_latency: 40,
            icnt_flits_per_cycle: 16,
            dram_channels: 6,
            dram: DramTiming {
                burst: 2,
                ..DramTiming::default()
            },
            clock_ghz: 0.7,
            active_warp_limit: None,
        }
    }

    /// The Volta-class machine of Fig. 19: 84 SMs, 6 MB L2 and ~5× the
    /// memory bandwidth (900 GB/s), per §V-B "Volta GPU".
    pub fn volta() -> Self {
        GpuConfig {
            num_sms: 84,
            warps_per_sm: 64,
            l2_banks: 24,
            l2_sets: 256,
            l2_ways: 8,
            l2_latency: 30,
            l2_mshr_entries: 64,
            icnt_latency: 40,
            icnt_flits_per_cycle: 96,
            dram_channels: 24,
            dram: DramTiming {
                burst: 2,
                ..DramTiming::default()
            },
            clock_ghz: 1.4,
            active_warp_limit: None,
        }
    }

    /// Total resident threads (paper: 1536 per SM on the Fermi preset).
    pub fn threads_per_sm(&self) -> usize {
        self.warps_per_sm * THREADS_PER_WARP
    }

    /// L2 slice index for a line (fine-grained interleave).
    pub fn l2_bank_of(&self, line: u64) -> usize {
        (line % self.l2_banks as u64) as usize
    }

    /// DRAM channel for an L2 slice (two slices per channel on the Fermi
    /// preset).
    pub fn dram_channel_of_bank(&self, bank: usize) -> usize {
        bank * self.dram_channels / self.l2_banks
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (zero SMs/warps, L2 banks not a
    /// multiple of DRAM channels, non-power-of-two L2 sets), or an
    /// interconnect narrower than its largest packet.
    pub fn validate(&self) {
        assert!(
            self.num_sms > 0 && self.warps_per_sm > 0,
            "need SMs and warps"
        );
        assert!(
            self.warps_per_sm <= u16::MAX as usize,
            "warp indices are u16 throughout the engine (LSU slots, MSHR \
             targets): more than 65535 warps per SM would alias"
        );
        assert!(
            self.l2_banks.is_multiple_of(self.dram_channels),
            "L2 banks must spread evenly over DRAM channels"
        );
        assert!(
            self.l2_sets.is_power_of_two(),
            "L2 sets must be a power of two"
        );
        if let Some(limit) = self.active_warp_limit {
            assert!(limit > 0, "warp throttling needs at least one active warp");
        }
        // A packet injects only whole within one cycle's flit budget, so
        // a narrower network would hold its first data packet forever.
        let widest = Packet::RESPONSE_FLITS.max(Packet::request_flits(OutgoingKind::WriteThrough));
        assert!(
            self.icnt_flits_per_cycle >= widest,
            "the interconnect must inject a {widest}-flit data packet in one cycle"
        );
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx480_matches_table1() {
        let c = GpuConfig::gtx480();
        c.validate();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.warps_per_sm, 48);
        assert_eq!(c.threads_per_sm(), 1536);
        assert_eq!(c.l2_banks, 12);
        assert_eq!(c.dram_channels, 6);
        // 12 banks x 64 sets x 8 ways x 128 B = 786 KB total L2.
        assert_eq!(c.l2_banks * c.l2_sets * c.l2_ways * 128, 786_432);
    }

    #[test]
    fn volta_is_bigger_everywhere() {
        let v = GpuConfig::volta();
        v.validate();
        let f = GpuConfig::gtx480();
        assert!(v.num_sms > f.num_sms);
        assert!(v.l2_banks * v.l2_sets * v.l2_ways > f.l2_banks * f.l2_sets * f.l2_ways);
        assert!(v.dram_channels > f.dram_channels);
        // 24 banks x 256 sets x 8 ways x 128 B = 6 MB L2.
        assert_eq!(v.l2_banks * v.l2_sets * v.l2_ways * 128, 6 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "5-flit data packet")]
    fn interconnect_narrower_than_a_data_packet_is_rejected() {
        GpuConfig {
            icnt_flits_per_cycle: 4,
            ..GpuConfig::gtx480()
        }
        .validate();
    }

    #[test]
    fn bank_to_channel_mapping_is_balanced() {
        let c = GpuConfig::gtx480();
        let mut per_channel = vec![0; c.dram_channels];
        for b in 0..c.l2_banks {
            per_channel[c.dram_channel_of_bank(b)] += 1;
        }
        assert!(
            per_channel.iter().all(|&n| n == 2),
            "two L2 banks per channel"
        );
    }

    #[test]
    fn line_interleave_covers_all_banks() {
        let c = GpuConfig::gtx480();
        let mut seen = vec![false; c.l2_banks];
        for line in 0..c.l2_banks as u64 {
            seen[c.l2_bank_of(line)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
