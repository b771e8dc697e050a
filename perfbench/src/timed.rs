//! A forwarding [`Rma`] wrapper that times protocol code from outside.
//!
//! Every `Rma` method is forwarded explicitly — including the ones the
//! trait gives default bodies (`put_from_mem_cached`,
//! `flag_wait_local_until` and the span/message/delivery hooks). A
//! wrapper that leaned on the defaults would silently turn cached puts
//! into uncached ones, parked deadline waits into poll loops and drop
//! every recorded span, changing virtual time and the event stream.
//! The self-tests pin wrapped and unwrapped runs to identical
//! makespans, `SimStats` and recorded events.
//!
//! Protocol self time is the host time spent inside a measured
//! broadcast call but outside every forwarded call. On the simulator
//! only the baton holder runs, so the intervals of different cores are
//! disjoint and their sum is wall time.

use scc_hal::{CoreId, FlagValue, MemRange, MpbAddr, MsgId, Rma, RmaResult, Span, Time};
use std::time::{Duration, Instant};

/// Per-core call counts and protocol self time, of the calls made
/// inside [`TimedRma::measure`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtoCounters {
    /// `put_from_mem`, `put_from_mem_cached`, `put_from_mpb`.
    pub put: u64,
    /// `get_to_mem`, `get_to_mpb`.
    pub get: u64,
    pub flag_put: u64,
    /// `flag_wait_local` and `flag_wait_local_until`.
    pub flag_wait: u64,
    pub flag_read: u64,
    /// Every other engine-bound call: `compute`, `mem_write`.
    pub other: u64,
    /// Host time inside measured calls but outside forwarded calls.
    pub self_time: Duration,
}

impl ProtoCounters {
    /// All engine-bound calls; the observability hooks are not RMA
    /// operations and are not counted.
    pub fn rma_calls(&self) -> u64 {
        self.put + self.get + self.flag_put + self.flag_wait + self.flag_read + self.other
    }

    pub fn add(&mut self, o: &ProtoCounters) {
        self.put += o.put;
        self.get += o.get;
        self.flag_put += o.flag_put;
        self.flag_wait += o.flag_wait;
        self.flag_read += o.flag_read;
        self.other += o.other;
        self.self_time += o.self_time;
    }
}

/// What a forwarded call is counted as.
#[derive(Clone, Copy)]
enum Call {
    Put,
    Get,
    FlagPut,
    FlagWait,
    FlagRead,
    Other,
    /// Observability hooks: timed as outside the protocol, not counted.
    Hook,
}

/// Wraps one core's `Rma` handle. Calls are counted and clocks read
/// only while a [`TimedRma::measure`] call is running.
pub struct TimedRma<'a, R: Rma + ?Sized> {
    inner: &'a mut R,
    counters: ProtoCounters,
    /// Start of the current protocol interval, while measuring.
    mark: Option<Instant>,
}

impl<'a, R: Rma + ?Sized> TimedRma<'a, R> {
    pub fn new(inner: &'a mut R) -> TimedRma<'a, R> {
        TimedRma { inner, counters: ProtoCounters::default(), mark: None }
    }

    /// Run one protocol call (a broadcast) and charge the host time it
    /// spends between forwarded calls to protocol self time.
    pub fn measure<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.mark = Some(Instant::now());
        let out = f(self);
        if let Some(m) = self.mark.take() {
            self.counters.self_time += m.elapsed();
        }
        out
    }

    pub fn counters(&self) -> ProtoCounters {
        self.counters
    }

    /// Close the protocol interval, count and forward the call, reopen
    /// the interval.
    fn forward<T>(&mut self, call: Call, f: impl FnOnce(&mut R) -> T) -> T {
        let Some(mark) = self.mark else { return f(self.inner) };
        let c = &mut self.counters;
        c.self_time += mark.elapsed();
        match call {
            Call::Put => c.put += 1,
            Call::Get => c.get += 1,
            Call::FlagPut => c.flag_put += 1,
            Call::FlagWait => c.flag_wait += 1,
            Call::FlagRead => c.flag_read += 1,
            Call::Other => c.other += 1,
            Call::Hook => {}
        }
        let out = f(self.inner);
        self.mark = Some(Instant::now());
        out
    }
}

impl<R: Rma + ?Sized> Rma for TimedRma<'_, R> {
    fn core(&self) -> CoreId {
        self.inner.core()
    }

    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn mem_len(&self) -> usize {
        self.inner.mem_len()
    }

    fn put_from_mem(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.forward(Call::Put, |r| r.put_from_mem(src, dst))
    }

    fn put_from_mpb(&mut self, src_line: usize, dst: MpbAddr, lines: usize) -> RmaResult<()> {
        self.forward(Call::Put, |r| r.put_from_mpb(src_line, dst, lines))
    }

    fn put_from_mem_cached(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.forward(Call::Put, |r| r.put_from_mem_cached(src, dst))
    }

    fn get_to_mem(&mut self, src: MpbAddr, dst: MemRange) -> RmaResult<()> {
        self.forward(Call::Get, |r| r.get_to_mem(src, dst))
    }

    fn get_to_mpb(&mut self, src: MpbAddr, dst_line: usize, lines: usize) -> RmaResult<()> {
        self.forward(Call::Get, |r| r.get_to_mpb(src, dst_line, lines))
    }

    fn flag_put(&mut self, dst: MpbAddr, value: FlagValue) -> RmaResult<()> {
        self.forward(Call::FlagPut, |r| r.flag_put(dst, value))
    }

    fn flag_read_local(&mut self, line: usize) -> RmaResult<FlagValue> {
        self.forward(Call::FlagRead, |r| r.flag_read_local(line))
    }

    fn flag_wait_local(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
    ) -> RmaResult<FlagValue> {
        self.forward(Call::FlagWait, |r| r.flag_wait_local(line, pred))
    }

    fn flag_wait_local_until(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Time,
    ) -> RmaResult<FlagValue> {
        self.forward(Call::FlagWait, |r| r.flag_wait_local_until(line, pred, deadline))
    }

    fn mem_write(&mut self, offset: usize, data: &[u8]) -> RmaResult<()> {
        self.forward(Call::Other, |r| r.mem_write(offset, data))
    }

    fn mem_read(&self, offset: usize, buf: &mut [u8]) -> RmaResult<()> {
        // `&self` cannot close the interval; protocols read back
        // only outside a measured call.
        self.inner.mem_read(offset, buf)
    }

    fn compute(&mut self, t: Time) {
        self.forward(Call::Other, |r| r.compute(t))
    }

    fn span_begin(&mut self, span: Span) {
        self.forward(Call::Hook, |r| r.span_begin(span))
    }

    fn span_end(&mut self, span: Span) {
        self.forward(Call::Hook, |r| r.span_end(span))
    }

    fn msg_tag(&mut self, msg: Option<MsgId>) {
        self.forward(Call::Hook, |r| r.msg_tag(msg))
    }

    fn delivery_begin(&mut self, epoch: u32) {
        self.forward(Call::Hook, |r| r.delivery_begin(epoch))
    }

    fn delivery_end(&mut self, epoch: u32) {
        self.forward(Call::Hook, |r| r.delivery_end(epoch))
    }
}
