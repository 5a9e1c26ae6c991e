//! Timing decorators for the traced run.
//!
//! Each decorator wraps one layer's public trait, forwards every call
//! unchanged and records a span around the layer's work: every call is
//! counted, one call in [`SAMPLE`] is timed (the measured cost of reading
//! the clock is subtracted). Spans accumulate inside the decorator, which
//! is owned by one SM or warp, and are folded into the shared [`Spans`]
//! when it drops — the simulated hot path never takes a lock.

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fuse::cache::line::LineAddr;
use fuse::cache::stats::CacheStats;
use fuse::gpu::l1d::{L1Access, L1Outcome, L1Response, L1dModel, OutgoingReq};
use fuse::gpu::warp::{WarpOp, WarpProgram};
use fuse::mem::energy::EnergyCounters;
use fuse::serve::proto::CellSpec;
use fuse::serve::{CellBackend, CellKey, CellRecord};

/// One call in this many is timed; every call is counted.
pub const SAMPLE: u64 = 8;

/// The calls made to one method of a layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub timed: u64,
    /// Nanoseconds inside the timed calls.
    pub ns: u64,
}

impl Span {
    /// Mean nanoseconds per timed call.
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.ns as f64 / self.timed as f64
        }
    }

    /// Estimated nanoseconds across all calls.
    pub fn total_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }

    fn merge(&mut self, o: &Span) {
        self.calls += o.calls;
        self.timed += o.timed;
        self.ns += o.ns;
    }

    /// Records one fully timed call of `ns` nanoseconds.
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.timed += 1;
        self.ns += ns;
    }

    #[inline]
    fn time<R>(&mut self, floor: u64, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !(self.calls - 1).is_multiple_of(SAMPLE) {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns += (t.elapsed().as_nanos() as u64).saturating_sub(floor);
        self.timed += 1;
        r
    }
}

/// Span totals per layer method.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// `L1dModel::access`.
    pub access: Span,
    /// `L1dModel::tick`.
    pub tick: Span,
    /// `L1dModel::push_response`.
    pub push_response: Span,
    /// `L1dModel::drain_outgoing`.
    pub drain_outgoing: Span,
    /// `L1dModel::drain_completions`.
    pub drain_completions: Span,
    /// `WarpProgram::next_op`.
    pub next_op: Span,
    /// `CellBackend::key`.
    pub key: Span,
    /// `CellBackend::simulate`.
    pub simulate: Span,
}

impl Totals {
    /// Adds `o`'s spans to these.
    pub fn merge(&mut self, o: &Totals) {
        self.access.merge(&o.access);
        self.tick.merge(&o.tick);
        self.push_response.merge(&o.push_response);
        self.drain_outgoing.merge(&o.drain_outgoing);
        self.drain_completions.merge(&o.drain_completions);
        self.next_op.merge(&o.next_op);
        self.key.merge(&o.key);
        self.simulate.merge(&o.simulate);
    }

    /// Estimated nanoseconds inside the L1 controller (all five methods).
    pub fn l1_ns(&self) -> f64 {
        [
            self.access,
            self.tick,
            self.push_response,
            self.drain_outgoing,
            self.drain_completions,
        ]
        .iter()
        .map(Span::total_ns)
        .sum()
    }
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Spans {
    floor: u64,
    totals: Mutex<Totals>,
}

impl Spans {
    /// An empty store, with the clock-read cost calibrated on this host.
    pub fn new() -> Arc<Spans> {
        let mut reads: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        reads.sort_unstable();
        Arc::new(Spans {
            floor: reads[reads.len() / 2],
            totals: Mutex::new(Totals::default()),
        })
    }

    /// Everything folded in so far.
    pub fn totals(&self) -> Totals {
        *self.totals.lock().expect("span store lock")
    }

    fn absorb(&self, local: &Totals) {
        // Called from `Drop`: a poisoned lock only loses this sample.
        if let Ok(mut t) = self.totals.lock() {
            t.merge(local);
        }
    }
}

/// Times an SM's L1 controller. `as_any` forwards to the wrapped model,
/// so metric collection downcasts straight through the decorator.
pub struct TimedL1 {
    inner: Box<dyn L1dModel>,
    local: Totals,
    floor: u64,
    sink: Arc<Spans>,
}

impl TimedL1 {
    /// Wraps `inner`, reporting into `sink`.
    pub fn new(inner: Box<dyn L1dModel>, sink: &Arc<Spans>) -> TimedL1 {
        TimedL1 {
            inner,
            local: Totals::default(),
            floor: sink.floor,
            sink: sink.clone(),
        }
    }
}

impl Drop for TimedL1 {
    fn drop(&mut self) {
        self.sink.absorb(&self.local);
    }
}

impl L1dModel for TimedL1 {
    fn access(&mut self, now: u64, acc: L1Access) -> L1Outcome {
        let inner = &mut self.inner;
        self.local
            .access
            .time(self.floor, || inner.access(now, acc))
    }

    fn tick(&mut self, now: u64) {
        let inner = &mut self.inner;
        self.local.tick.time(self.floor, || inner.tick(now));
    }

    fn push_response(&mut self, now: u64, rsp: L1Response) {
        let inner = &mut self.inner;
        self.local
            .push_response
            .time(self.floor, || inner.push_response(now, rsp));
    }

    fn drain_outgoing(&mut self, out: &mut Vec<OutgoingReq>) {
        let inner = &mut self.inner;
        self.local
            .drain_outgoing
            .time(self.floor, || inner.drain_outgoing(out));
    }

    fn drain_completions(&mut self, out: &mut Vec<u16>) {
        let inner = &mut self.inner;
        self.local
            .drain_completions
            .time(self.floor, || inner.drain_completions(out));
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        self.inner.next_event(now)
    }

    fn outstanding_misses(&self) -> usize {
        self.inner.outstanding_misses()
    }

    fn outstanding_lines(&self, out: &mut Vec<LineAddr>) {
        self.inner.outstanding_lines(out);
    }

    fn reset_in_flight(&mut self) {
        self.inner.reset_in_flight();
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.inner.energy()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Times a warp's instruction generator.
pub struct TimedProgram {
    inner: Box<dyn WarpProgram>,
    local: Totals,
    floor: u64,
    sink: Arc<Spans>,
}

impl TimedProgram {
    /// Wraps `inner`, reporting into `sink`.
    pub fn new(inner: Box<dyn WarpProgram>, sink: &Arc<Spans>) -> TimedProgram {
        TimedProgram {
            inner,
            local: Totals::default(),
            floor: sink.floor,
            sink: sink.clone(),
        }
    }
}

impl Drop for TimedProgram {
    fn drop(&mut self) {
        self.sink.absorb(&self.local);
    }
}

impl WarpProgram for TimedProgram {
    fn next_op(&mut self) -> Option<WarpOp> {
        let inner = &mut self.inner;
        self.local.next_op.time(self.floor, || inner.next_op())
    }
}

/// Times the service's key derivation and simulation. These calls are
/// few and long, so every one is timed.
pub struct TimedBackend<B> {
    inner: B,
    local: Mutex<Totals>,
}

impl<B: CellBackend> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> TimedBackend<B> {
        TimedBackend {
            inner,
            local: Mutex::new(Totals::default()),
        }
    }

    /// The spans recorded so far.
    pub fn totals(&self) -> Totals {
        *self.local.lock().expect("backend span lock")
    }

    fn timed<R>(&self, pick: fn(&mut Totals) -> &mut Span, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        pick(&mut self.local.lock().expect("backend span lock")).add(ns);
        r
    }
}

impl<B: CellBackend> CellBackend for TimedBackend<B> {
    fn key(&self, spec: &CellSpec) -> Result<CellKey, String> {
        self.timed(|t| &mut t.key, || self.inner.key(spec))
    }

    fn simulate(&self, spec: &CellSpec) -> Result<CellRecord, String> {
        self.timed(|t| &mut t.simulate, || self.inner.simulate(spec))
    }
}
