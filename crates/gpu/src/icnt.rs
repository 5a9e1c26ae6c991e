//! Interconnection network between the SMs and the shared L2 slices.
//!
//! The paper configures a 27-node butterfly (15 SMs + 12 L2 banks). We
//! abstract the topology to a pipelined fabric per direction with a fixed
//! traversal latency and a finite aggregate injection bandwidth in
//! flits/cycle; queueing at the injection port provides the contention the
//! paper measures (Fig. 1a's "Network" share). Every packet leaving the L1
//! through the request network is one of the paper's *outgoing memory
//! references* — the quantity FUSE reduces by 32%.

use std::collections::VecDeque;

use crate::l1d::OutgoingKind;
use fuse_cache::line::LineAddr;

/// One packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// System-wide request id (traces latency decomposition).
    pub gid: u64,
    /// Source/destination SM.
    pub sm: usize,
    /// Destination/source L2 bank.
    pub bank: usize,
    /// Line the packet concerns.
    pub line: LineAddr,
    /// Request class (responses inherit the class of their request).
    pub kind: OutgoingKind,
    /// Size in 32 B flits (1 for a read header, 5 for 128 B + header).
    pub flits: u32,
}

impl Packet {
    /// Flit size of a request of `kind` (header-only reads, 128 B + header
    /// for data-carrying packets).
    pub fn request_flits(kind: OutgoingKind) -> u32 {
        match kind {
            OutgoingKind::FillRead | OutgoingKind::BypassRead => 1,
            OutgoingKind::WriteThrough => 5,
        }
    }

    /// Flit size of the response to a read (data always comes back as a
    /// full line).
    pub const RESPONSE_FLITS: u32 = 5;
}

/// Aggregate traffic counters for one direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IcntStats {
    /// Packets injected.
    pub packets: u64,
    /// Flits moved.
    pub flits: u64,
}

/// One direction of the fabric.
///
/// # Examples
///
/// ```
/// use fuse_gpu::icnt::{Interconnect, Packet};
/// use fuse_gpu::l1d::OutgoingKind;
/// use fuse_cache::line::LineAddr;
///
/// let mut net = Interconnect::new(10, 16);
/// net.push(Packet { gid: 0, sm: 0, bank: 0, line: LineAddr(1),
///                   kind: OutgoingKind::FillRead, flits: 1 });
/// let mut delivered = Vec::new();
/// for now in 0..12 {
///     delivered.extend(net.tick(now));
/// }
/// assert_eq!(delivered.len(), 1);
/// ```
#[derive(Debug)]
pub struct Interconnect {
    latency: u32,
    flits_per_cycle: u32,
    inject: VecDeque<Packet>,
    in_flight: VecDeque<(u64, Packet)>, // (deliver_at, packet), FIFO by time
    stats: IcntStats,
}

impl Interconnect {
    /// Creates a fabric direction with `latency` cycles traversal and
    /// `flits_per_cycle` aggregate injection bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `flits_per_cycle` is zero.
    pub fn new(latency: u32, flits_per_cycle: u32) -> Self {
        assert!(flits_per_cycle > 0, "bandwidth must be non-zero");
        Interconnect {
            latency,
            flits_per_cycle,
            inject: VecDeque::new(),
            in_flight: VecDeque::new(),
            stats: IcntStats::default(),
        }
    }

    /// Queues a packet for injection (SM/L2-side buffering is unbounded;
    /// contention shows up as queueing delay, not rejection).
    pub fn push(&mut self, packet: Packet) {
        self.stats.packets += 1;
        self.stats.flits += packet.flits as u64;
        self.inject.push_back(packet);
    }

    /// Advances one cycle: injects as many whole packets as the bandwidth
    /// allows and returns everything that completed traversal.
    ///
    /// Convenience wrapper over [`Interconnect::tick_into`] for tests and
    /// examples; the engine's hot path recycles its own buffer instead.
    pub fn tick(&mut self, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Advances one cycle, appending every packet that completed traversal
    /// to the caller-owned `out`.
    pub fn tick_into(&mut self, now: u64, out: &mut Vec<Packet>) {
        let mut budget = self.flits_per_cycle;
        while let Some(front) = self.inject.front() {
            if front.flits > budget {
                break; // head-of-line packet waits for a fresh cycle
            }
            budget -= front.flits;
            let p = self.inject.pop_front().expect("front exists");
            self.in_flight.push_back((now + self.latency as u64, p));
        }
        while let Some(&(at, _)) = self.in_flight.front() {
            if at > now {
                break;
            }
            out.push(self.in_flight.pop_front().expect("front exists").1);
        }
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.inject.is_empty() && self.in_flight.is_empty()
    }

    /// Earliest cycle at or after `now` whose tick does observable work:
    /// `now` while the injection queue is non-empty (injection is
    /// attempted every cycle), else the delivery time at the head of the
    /// in-flight FIFO (packets are ordered by insertion, and the latency
    /// is constant, so the head is the minimum). Every other tick is a
    /// no-op. `None` when fully idle.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if !self.inject.is_empty() {
            return Some(now);
        }
        self.in_flight.front().map(|&(at, _)| at.max(now))
    }

    /// Traffic counters.
    pub fn stats(&self) -> IcntStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(gid: u64, flits: u32) -> Packet {
        Packet {
            gid,
            sm: 0,
            bank: 0,
            line: LineAddr(gid),
            kind: OutgoingKind::FillRead,
            flits,
        }
    }

    #[test]
    fn delivery_after_latency() {
        let mut net = Interconnect::new(5, 16);
        net.push(pkt(1, 1));
        for now in 0..5 {
            assert!(net.tick(now).is_empty(), "too early at {now}");
        }
        let d = net.tick(5);
        assert_eq!(d.len(), 1);
        assert!(net.is_idle());
    }

    #[test]
    fn bandwidth_limits_injection() {
        let mut net = Interconnect::new(0, 5);
        // Three 5-flit packets: one per cycle.
        for g in 0..3 {
            net.push(pkt(g, 5));
        }
        assert_eq!(net.tick(0).len(), 1);
        assert_eq!(net.tick(1).len(), 1);
        assert_eq!(net.tick(2).len(), 1);
    }

    #[test]
    fn small_packets_share_a_cycle() {
        let mut net = Interconnect::new(0, 4);
        for g in 0..4 {
            net.push(pkt(g, 1));
        }
        assert_eq!(net.tick(0).len(), 4);
    }

    #[test]
    fn order_is_preserved() {
        let mut net = Interconnect::new(2, 16);
        net.push(pkt(1, 1));
        net.push(pkt(2, 1));
        let mut seen = Vec::new();
        for now in 0..5 {
            seen.extend(net.tick(now).into_iter().map(|p| p.gid));
        }
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Interconnect::new(1, 16);
        net.push(pkt(1, 5));
        net.push(pkt(2, 1));
        let _ = net.tick(0);
        let s = net.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.flits, 6);
    }

    #[test]
    fn next_event_tracks_queue_and_flight() {
        let mut net = Interconnect::new(5, 16);
        assert_eq!(net.next_event(3), None, "idle fabric has no events");
        net.push(pkt(1, 1));
        assert_eq!(net.next_event(3), Some(3), "queued packet injects now");
        let _ = net.tick(3); // injected; delivers at 8
        assert_eq!(net.next_event(4), Some(8));
        let _ = net.tick(8);
        assert_eq!(net.next_event(9), None);
    }

    #[test]
    fn request_flit_sizes() {
        assert_eq!(Packet::request_flits(OutgoingKind::FillRead), 1);
        assert_eq!(Packet::request_flits(OutgoingKind::BypassRead), 1);
        assert_eq!(Packet::request_flits(OutgoingKind::WriteThrough), 5);
    }
}
