//! The conservative sequential discrete-event engine.
//!
//! Each simulated core runs the user's SPMD closure as a fiber (its own
//! stack, see [`crate::handoff`]) on the thread that called
//! [`run_spmd`]. Exactly one simulated core is *runnable* at any
//! instant; events are ordered by `(virtual time, sequence number)`, so
//! runs are bit-for-bit deterministic.
//!
//! ## Baton-passing: the engine runs on the cores' stacks
//!
//! There is no scheduler context. The engine state (chip, event heap,
//! pending ops) lives in one `RefCell` — the *baton* — and the event
//! loop is executed by whichever core is currently runnable: when a
//! core issues a timed request it keeps processing events inline until
//! either its own grant is produced (it simply returns — no switch at
//! all, the common case for back-to-back operations of one core) or a
//! grant for another core comes up, in which case it deposits the grant
//! in that core's slot and switches straight to that core's stack. It
//! resumes when some other core hands it a grant in turn. The engine is
//! never borrowed across a switch, and the strict grant→request
//! alternation per core is what fixes the event order.
//!
//! Operations are *simulated* (resources reserved, completion time
//! computed) at issue and their memory effects applied at completion —
//! the completion time is each op's linearization point, which keeps
//! reads, writes and flag parking globally time-ordered.
//!
//! ## The coalesced fast path
//!
//! A multi-line op is stepped one cache line per event. Pushing and
//! popping the heap once per line is pure bookkeeping whenever the
//! pending op is the only thing happening on the chip — the next
//! line-completion event would come straight back as the heap minimum.
//! The stepper therefore peeks the heap: while the just-simulated line
//! completes strictly before the earliest queued event, it advances
//! the clock and steps the next line directly. The `(time, seq)` order
//! is preserved exactly — a queued event at the same instant has a
//! smaller sequence number and would run first, so the fast path only
//! triggers on *strictly earlier* completions — and each elided heap
//! round-trip still counts in `SimStats::events`, keeping counters,
//! recorded events and end times bit-identical to a run with coalescing
//! disabled (see `SimConfig::coalesce`).

use crate::chip::{Chip, SimStats};
use crate::fault::{FaultPlan, FaultState};
use crate::handoff::{self, Sp};
use crate::ops::{self, Effect, Op};
use crate::params::SimParams;
use scc_hal::{
    CoreId, FlagValue, MemRange, MpbAddr, MsgId, Rma, RmaError, RmaResult, Span, Time, NUM_CORES,
};
use scc_obs::{EventLog, FaultKind, FlightRecorder, ObsEvent};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ffi::c_void;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Configuration of a simulator run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of participating cores (`P ≤ 48`).
    pub num_cores: usize,
    /// Private off-chip memory per core, in bytes.
    pub mem_bytes: usize,
    /// Chip timing parameters.
    pub params: SimParams,
    /// Step op lines in a tight loop while no other event can
    /// intervene (default on). Virtual-time behaviour is identical
    /// either way; the knob exists so tests can regress-check that
    /// claim and to help bisect engine bugs.
    pub coalesce: bool,
    /// Record the full structured event stream (ops, queue waits with
    /// resource ids, park/wake, handoffs, protocol-phase spans) into
    /// [`SimReport::events`] for the `scc-obs` exporters. Off by
    /// default; virtual times and [`SimStats`] are identical either
    /// way (see the `obs_equivalence` test).
    pub record: bool,
    /// Flight-recorder capacity: when non-zero (and [`record`] is
    /// off), the run records into a bounded ring that retains only the
    /// last `flight` events at fixed memory cost, and
    /// [`SimReport::events`] holds that window — byte-identical to the
    /// tail of a full recording (see `obs_equivalence`). Virtual times
    /// and [`SimStats`] are unaffected, exactly as with [`record`].
    /// A full recording subsumes any window, so [`record`] wins when
    /// both are set.
    ///
    /// [`record`]: SimConfig::record
    pub flight: usize,
    /// Deterministic fault schedule (see [`crate::fault`]). The
    /// default plan is empty: no faults, no RNG, and — guarded by the
    /// `fault_plan_empty_is_identity` test — bit-identical stats and
    /// virtual times to builds that predate the field.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_cores: NUM_CORES,
            mem_bytes: 4 << 20,
            params: SimParams::default(),
            coalesce: true,
            record: false,
            flight: 0,
            faults: FaultPlan::default(),
        }
    }
}

impl SimConfig {
    pub fn with_cores(num_cores: usize) -> SimConfig {
        SimConfig { num_cores, ..SimConfig::default() }
    }

    /// Default config with the flight recorder on: retain the last
    /// `capacity` events in a bounded ring (see [`SimConfig::flight`]).
    pub fn flight(capacity: usize) -> SimConfig {
        SimConfig { flight: capacity, ..SimConfig::default() }
    }
}

/// Whole-run failure of a simulation.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The [`SimConfig`] cannot describe a run (e.g. `num_cores`
    /// outside `1..=48`).
    Config(String),
    /// Every unfinished core was parked on a flag nobody can write.
    Deadlock { parked: Vec<(CoreId, usize)> },
    /// A core panicked or the engine wedged.
    Engine(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "invalid simulator config: {m}"),
            SimError::Deadlock { parked } => {
                write!(f, "simulation deadlock; parked: ")?;
                for (c, l) in parked {
                    write!(f, "{c}@line{l} ")?;
                }
                Ok(())
            }
            SimError::Engine(m) => write!(f, "engine failure: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a successful run.
#[derive(Debug)]
pub struct SimReport<R> {
    /// Per-core return values of the SPMD closure.
    pub results: Vec<R>,
    /// Virtual time at which each core finished.
    pub end_times: Vec<Time>,
    /// Virtual time at which the last core finished.
    pub makespan: Time,
    /// Engine counters.
    pub stats: SimStats,
    /// Structured event stream, when [`SimConfig::record`] was set.
    pub events: Option<Vec<ObsEvent>>,
}

// ---- messages ----------------------------------------------------------

enum Request {
    /// A timed operation; `msg` is the message tag active on the
    /// issuing core (always `None` when recording is off).
    Op {
        op: Op,
        msg: Option<MsgId>,
    },
    Park {
        line: usize,
        /// With a deadline, the engine schedules a timer that unparks
        /// the core when it fires first; the waiter then re-reads the
        /// flag and surfaces [`RmaError::Timeout`] itself.
        deadline: Option<Time>,
    },
    Compute(Time),
    /// Untimed private-memory write; `buf` is the core's reusable
    /// scratch buffer carrying the payload, returned in the grant.
    MemWrite {
        offset: usize,
        buf: Vec<u8>,
    },
    /// Untimed private-memory read; the engine fills `buf` in place.
    MemRead {
        offset: usize,
        len: usize,
        buf: Vec<u8>,
    },
}

enum Grant {
    Go {
        now: Time,
    },
    /// Completion of a MemRead/MemWrite: hands the scratch buffer back.
    Buf {
        now: Time,
        buf: Vec<u8>,
    },
    Flag {
        now: Time,
        value: FlagValue,
    },
    /// Validation failure; returns the scratch buffer when the request
    /// carried one, so rejection does not leak the core's buffer.
    Rejected {
        err: RmaError,
        buf: Option<Vec<u8>>,
    },
    Deadlock,
}

// ---- event queue ---------------------------------------------------------

#[derive(PartialEq, Eq)]
struct Event {
    at: Time,
    seq: u64,
    kind: EventKind,
}

#[derive(PartialEq, Eq)]
enum EventKind {
    /// Wake a core with a plain `Go` (start, compute done, park wake)
    /// — or with `Deadlock` if the core was deadlock-notified.
    Resume(usize),
    /// Advance the core's pending op by one cache line, or — once all
    /// lines are done — apply its effects and resume the core.
    Step(usize),
    /// A park deadline fired for the core. The token is the park
    /// generation it was armed for: a timer whose token no longer
    /// matches (the core was woken, or re-parked since) is stale and
    /// ignored.
    Timeout(usize, u64),
}

struct PendingOp {
    op: Op,
    remaining: usize,
    issued: Time,
    msg: Option<MsgId>,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// ---- the engine ----------------------------------------------------------

/// What one turn of the event loop produced.
enum Advanced {
    /// Core `.0` becomes runnable and receives grant `.1`.
    Granted(usize, Grant),
    /// Every core finished; the run result can be assembled.
    RunComplete,
    /// The engine wedged; the run must be aborted.
    Fatal(String),
}

enum Submitted {
    /// The request completed immediately (untimed or rejected); the
    /// submitting core stays runnable.
    Ready(Grant),
    /// The request scheduled future events; the submitter must drive
    /// the event loop.
    Blocked,
}

/// All mutable engine state, owned by the baton `RefCell` in [`Shared`].
struct Engine {
    chip: Chip,
    coalesce: bool,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    now: Time,
    pending: Vec<Option<PendingOp>>,
    parked: Vec<Option<usize>>,
    /// Park generation per core; a deadline timer captures the value
    /// at arming time and fires only if it still matches.
    park_seq: Vec<u64>,
    /// Fault-injection state; `None` for an empty plan, so the default
    /// path pays a single never-taken branch per hook.
    faults: Option<FaultState>,
    /// Cores whose next `Resume` must deliver `Grant::Deadlock`.
    deadlock_notified: Vec<bool>,
    finished: Vec<bool>,
    end_times: Vec<Time>,
    done: usize,
    n: usize,
    deadlocks: Vec<(CoreId, usize)>,
    deadlock_rounds: u32,
    /// Set once the run is being torn down; every later submit fails.
    fatal: bool,
}

impl Engine {
    fn new(cfg: &SimConfig) -> Engine {
        let n = cfg.num_cores;
        let mut chip = Chip::new(cfg.params, n, cfg.mem_bytes);
        if cfg.record {
            chip.recorder = Some(Box::new(EventLog::new()));
        } else if cfg.flight > 0 {
            chip.recorder = Some(Box::new(FlightRecorder::new(cfg.flight)));
        }
        let mut e = Engine {
            chip,
            coalesce: cfg.coalesce,
            queue: BinaryHeap::with_capacity(2 * n + 8),
            seq: 0,
            now: Time::ZERO,
            pending: (0..n).map(|_| None).collect(),
            parked: vec![None; n],
            park_seq: vec![0; n],
            faults: (!cfg.faults.is_empty()).then(|| FaultState::new(cfg.faults.clone())),
            deadlock_notified: vec![false; n],
            finished: vec![false; n],
            end_times: vec![Time::ZERO; n],
            done: 0,
            n,
            deadlocks: Vec::new(),
            deadlock_rounds: 0,
            fatal: false,
        };
        for i in 0..n {
            e.push(Time::ZERO, EventKind::Resume(i));
        }
        e
    }

    fn push(&mut self, at: Time, kind: EventKind) {
        self.chip.stats.heap_pushes += 1;
        self.queue.push(Reverse(Event { at, seq: self.seq, kind }));
        self.seq += 1;
    }

    /// Record one structured event; a single never-taken branch when
    /// recording is off.
    #[inline]
    fn record(&mut self, ev: ObsEvent) {
        if let Some(r) = self.chip.recorder.as_mut() {
            r.record(ev);
        }
    }

    /// Count and record a grant passing from `from` to core `to`.
    fn hand_off(&mut self, from: CoreId, to: usize) {
        self.chip.stats.handoffs += 1;
        let at = self.now;
        self.record(ObsEvent::Handoff { from, to: CoreId(to as u8), at });
    }

    fn granted(&mut self, core: usize, grant: Grant) -> Advanced {
        Advanced::Granted(core, grant)
    }

    fn ready(&mut self, g: Grant) -> Result<Submitted, SimError> {
        Ok(Submitted::Ready(g))
    }

    /// Feed one request of `core` into the engine. `Ready` responses
    /// leave the core runnable; `Blocked` means the core must drive
    /// [`advance`](Self::advance) until a grant emerges.
    fn submit(&mut self, core: usize, req: Request) -> Result<Submitted, SimError> {
        if self.fatal {
            return Err(SimError::Engine("engine torn down".into()));
        }
        match req {
            Request::Compute(t) => {
                let at = self.now + t;
                self.record(ObsEvent::Compute {
                    core: CoreId(core as u8),
                    start: self.now,
                    end: at,
                });
                self.push(at, EventKind::Resume(core));
                Ok(Submitted::Blocked)
            }
            Request::Park { line, deadline } => {
                if line >= scc_hal::MPB_LINES_PER_CORE {
                    return self.ready(Grant::Rejected {
                        err: RmaError::MpbOutOfRange {
                            addr: MpbAddr::new(CoreId(core as u8), 0),
                            lines: line,
                        },
                        buf: None,
                    });
                }
                self.chip.stats.parks += 1;
                self.record(ObsEvent::Park { core: CoreId(core as u8), line, at: self.now });
                self.parked[core] = Some(line);
                self.park_seq[core] += 1;
                if let Some(dl) = deadline {
                    // The timer keeps the queue non-empty, so a core
                    // waiting with a deadline can never trip the
                    // deadlock detector — it wakes and recovers.
                    let token = self.park_seq[core];
                    self.push(dl.max(self.now), EventKind::Timeout(core, token));
                }
                Ok(Submitted::Blocked)
            }
            Request::MemRead { offset, len, mut buf } => {
                let g = if offset + len <= self.chip.mem_bytes() {
                    buf.clear();
                    buf.extend_from_slice(self.chip.private_slice(CoreId(core as u8), offset, len));
                    Grant::Buf { now: self.now, buf }
                } else {
                    Grant::Rejected {
                        err: RmaError::MemOutOfRange {
                            offset,
                            len,
                            mem_len: self.chip.mem_bytes(),
                        },
                        buf: Some(buf),
                    }
                };
                self.ready(g)
            }
            Request::MemWrite { offset, buf } => {
                let g = if offset + buf.len() <= self.chip.mem_bytes() {
                    self.chip
                        .private_slice_mut(CoreId(core as u8), offset, buf.len())
                        .copy_from_slice(&buf);
                    Grant::Buf { now: self.now, buf }
                } else {
                    Grant::Rejected {
                        err: RmaError::MemOutOfRange {
                            offset,
                            len: buf.len(),
                            mem_len: self.chip.mem_bytes(),
                        },
                        buf: Some(buf),
                    }
                };
                self.ready(g)
            }
            Request::Op { op, msg } => {
                if let Err(e) = ops::validate(&self.chip, CoreId(core as u8), &op) {
                    return self.ready(Grant::Rejected { err: e, buf: None });
                }
                self.chip.stats.ops += 1;
                let mut overhead = ops::op_overhead(&self.chip, &op);
                if self.faults.is_some() {
                    let extra = self
                        .faults
                        .as_ref()
                        .map_or(Time::ZERO, |f| f.slow_extra(CoreId(core as u8), self.now));
                    if extra > Time::ZERO {
                        self.chip.stats.faults += 1;
                        self.chip.stats.fault_lost += extra;
                        self.record(ObsEvent::Fault {
                            core: CoreId(core as u8),
                            kind: FaultKind::CoreSlow,
                            at: self.now,
                            lost: extra,
                        });
                        overhead += extra;
                    }
                }
                let remaining = ops::total_lines(&op);
                self.pending[core] = Some(PendingOp { op, remaining, issued: self.now, msg });
                self.push(self.now + overhead, EventKind::Step(core));
                Ok(Submitted::Blocked)
            }
        }
    }

    /// Record that `core` finished. The caller must then drive
    /// [`advance`](Self::advance) to pass the baton on (or complete the
    /// run).
    fn submit_finish(&mut self, core: usize) {
        self.finished[core] = true;
        self.end_times[core] = self.now;
        self.record(ObsEvent::Finish { core: CoreId(core as u8), at: self.now });
        self.done += 1;
    }

    /// Run the event loop until a core becomes runnable, the run
    /// completes, or the engine wedges.
    fn advance(&mut self) -> Advanced {
        loop {
            if self.done == self.n {
                return Advanced::RunComplete;
            }
            let Some(Reverse(ev)) = self.queue.pop() else {
                if let Some(fatal) = self.handle_deadlock() {
                    return Advanced::Fatal(fatal);
                }
                continue;
            };
            self.chip.stats.events += 1;
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.chip.set_prune_horizon(self.now);
            match ev.kind {
                EventKind::Resume(i) => {
                    let g = if std::mem::take(&mut self.deadlock_notified[i]) {
                        Grant::Deadlock
                    } else {
                        Grant::Go { now: self.now }
                    };
                    return self.granted(i, g);
                }
                EventKind::Step(i) => {
                    if let Some(g) = self.step(i) {
                        return self.granted(i, g);
                    }
                }
                EventKind::Timeout(i, token) => {
                    if self.park_seq[i] == token {
                        if let Some(line) = self.parked[i].take() {
                            // Timer-driven wake: the waiter re-reads
                            // the flag and reports the timeout itself.
                            // Close the park interval with a self-wake
                            // so leg accounting stays tiled.
                            self.record(ObsEvent::Wake {
                                core: CoreId(i as u8),
                                line,
                                at: self.now,
                                writer: CoreId(i as u8),
                            });
                            return self.granted(i, Grant::Go { now: self.now });
                        }
                    }
                    // Stale timer: a write woke the core first (or it
                    // re-parked since). Nothing to do.
                }
            }
        }
    }

    /// Process a `Step` event for core `i`, coalescing subsequent line
    /// steps while no other queued event can precede them. Returns the
    /// grant once the whole op completed, `None` if the next line went
    /// back to the heap.
    ///
    /// Invariant: a coalesced step is taken only when the just-computed
    /// line completion is *strictly earlier* than the heap minimum. The
    /// event the slow path would have pushed carries a fresh (maximal)
    /// sequence number, so at equal times the queued event wins — which
    /// is exactly what popping from the heap would have done. Elided
    /// pops still increment `stats.events`; only `stats.heap_pushes`
    /// and `stats.coalesced_steps` reveal which path executed.
    fn step(&mut self, i: usize) -> Option<Grant> {
        loop {
            let p = self.pending[i].as_mut().expect("Step without a pending op");
            if p.remaining == 0 {
                let done = self.pending[i].take().expect("pending vanished");
                self.record(ObsEvent::Op {
                    core: CoreId(i as u8),
                    kind: ops::op_kind(&done.op),
                    lines: ops::total_lines(&done.op),
                    start: done.issued,
                    end: self.now,
                    msg: done.msg,
                });
                return Some(self.apply_op(i, &done.op));
            }
            p.remaining -= 1;
            let mut line_done =
                ops::simulate_line(&mut self.chip, CoreId(i as u8), &p.op, self.now);
            if self.faults.is_some() {
                if let Some(d) = self.faults.as_mut().and_then(FaultState::line_delay) {
                    self.chip.stats.faults += 1;
                    self.chip.stats.fault_lost += d;
                    self.record(ObsEvent::Fault {
                        core: CoreId(i as u8),
                        kind: FaultKind::LinkDelay,
                        at: line_done,
                        lost: d,
                    });
                    // The delay is applied before the coalesce peek,
                    // so both scheduling paths see the same completion
                    // instant and the run stays deterministic.
                    line_done += d;
                }
            }
            let fast =
                self.coalesce && self.queue.peek().is_none_or(|Reverse(head)| line_done < head.at);
            if fast {
                // The elided event: count it as popped, advance the clock.
                self.chip.stats.events += 1;
                self.chip.stats.coalesced_steps += 1;
                self.now = line_done;
                self.chip.set_prune_horizon(line_done);
            } else {
                self.push(line_done, EventKind::Step(i));
                return None;
            }
        }
    }

    fn apply_op(&mut self, core: usize, op: &Op) -> Grant {
        if self.faults.is_some() {
            // Lost notification: only *remote* flag deposits traverse a
            // mesh link and can be dropped. The transfer's time was
            // already charged; the deposit simply never happens, so no
            // parked waiter wakes and no flag line changes.
            if let Op::FlagPut { dst, .. } = op {
                if dst.core.index() != core
                    && self.faults.as_mut().is_some_and(FaultState::drop_notification)
                {
                    self.chip.stats.faults += 1;
                    self.record(ObsEvent::Fault {
                        core: CoreId(core as u8),
                        kind: FaultKind::LostNotification,
                        at: self.now,
                        lost: Time::ZERO,
                    });
                    return Grant::Go { now: self.now };
                }
            }
        }
        match ops::apply(&mut self.chip, CoreId(core as u8), op) {
            Effect::None => Grant::Go { now: self.now },
            Effect::Flag(value) => {
                if let Op::ReadLine { line } = op {
                    self.record(ObsEvent::FlagSample {
                        core: CoreId(core as u8),
                        line: *line,
                        value: value.0,
                        at: self.now,
                    });
                }
                Grant::Flag { now: self.now, value }
            }
            Effect::Wrote(region) => {
                self.record(ObsEvent::MpbWrite {
                    owner: region.core,
                    line: region.first_line,
                    lines: region.lines,
                    writer: CoreId(core as u8),
                    value: if let Op::FlagPut { value, .. } = op { Some(value.0) } else { None },
                    at: self.now,
                });
                // Wake every core parked on a just-written line; the
                // wake carries the commit timestamp, and the waiter
                // re-reads the flag before trusting it.
                for w in 0..self.parked.len() {
                    if let Some(line) = self.parked[w] {
                        if region.covers(CoreId(w as u8), line) {
                            self.parked[w] = None;
                            self.record(ObsEvent::Wake {
                                core: CoreId(w as u8),
                                line,
                                at: self.now,
                                writer: CoreId(core as u8),
                            });
                            self.push(self.now, EventKind::Resume(w));
                        }
                    }
                }
                Grant::Go { now: self.now }
            }
        }
    }

    /// Queue empty but cores unfinished: everyone left is parked on a
    /// flag that no scheduled op will ever write. Notify them one at a
    /// time through ordinary `Resume` events so their subsequent
    /// requests keep a deterministic order. Returns a message if the
    /// engine is wedged beyond recovery.
    fn handle_deadlock(&mut self) -> Option<String> {
        self.deadlock_rounds += 1;
        if self.deadlock_rounds > 100 {
            return Some("livelock: cores keep re-parking after deadlock notification".into());
        }
        let victims: Vec<usize> =
            (0..self.parked.len()).filter(|&i| self.parked[i].is_some()).collect();
        if victims.is_empty() {
            return Some("engine stalled: queue empty, cores unfinished, none parked".into());
        }
        for v in victims {
            let line = self.parked[v].take().expect("victim must be parked");
            self.deadlocks.push((CoreId(v as u8), line));
            self.deadlock_notified[v] = true;
            self.push(self.now, EventKind::Resume(v));
        }
        None
    }

    fn make_result(&mut self) -> Result<RunOutput, SimError> {
        if self.deadlocks.is_empty() {
            Ok(RunOutput {
                end_times: std::mem::take(&mut self.end_times),
                events: self.chip.recorder.as_mut().map(|r| r.drain()),
                stats: self.chip.stats.clone(),
            })
        } else {
            Err(SimError::Deadlock { parked: std::mem::take(&mut self.deadlocks) })
        }
    }
}

struct RunOutput {
    end_times: Vec<Time>,
    events: Option<Vec<ObsEvent>>,
    stats: SimStats,
}

/// Per-run state shared by the caller of [`run_spmd`] and the run's
/// core fibers. Only the running context touches it, and the engine is
/// never borrowed across a switch.
struct Shared {
    engine: RefCell<Engine>,
    /// The grant each core finds when it is next resumed.
    grants: Vec<Cell<Option<Grant>>>,
    /// Saved stack pointer of every suspended context: cores `0..n`,
    /// then the caller of `run_spmd` at index `n`.
    sp: Vec<Cell<Sp>>,
    /// Set when a core's fiber has run to its end: nothing it owned is
    /// left on its stack, and it is never resumed.
    exited: Vec<Cell<bool>>,
    /// The run's result, set by the last core to finish — or the first
    /// error that stopped the run.
    outcome: RefCell<Option<Result<RunOutput, SimError>>>,
    /// First panic raised by a core; `run_spmd` re-raises it.
    panic: Cell<Option<Box<dyn Any + Send>>>,
    num_cores: usize,
    mem_bytes: usize,
    recording: bool,
}

impl Shared {
    /// Index of the `run_spmd` caller's context in [`Shared::sp`].
    fn caller(&self) -> usize {
        self.num_cores
    }

    /// Suspend context `from` and resume context `to`; returns when
    /// some context switches back to `from`.
    fn switch(&self, from: usize, to: usize) {
        // SAFETY: `sp[to]` is a suspended context on a mapped stack:
        // cores' stacks stay mapped until every core has exited, an
        // exited core is never a target (the caller resumes only cores
        // not yet exited, and an exiting core hands its turn to one that
        // is runnable or to the caller), and the caller is suspended in
        // `run_spmd` whenever a core runs.
        unsafe { handoff::switch(self.sp[from].as_ptr(), self.sp[to].get()) }
    }

    /// Deposit `grant` for `core` and switch to it from context `from`.
    fn hand_to(&self, from: usize, core: usize, grant: Grant) {
        self.grants[core].set(Some(grant));
        self.switch(from, core);
    }

    /// Stop the run. The first error stays the run's outcome; every
    /// later request fails at once.
    fn fail(&self, err: SimError) {
        self.engine.borrow_mut().fatal = true;
        self.outcome.borrow_mut().get_or_insert(Err(err));
    }
}

// ---- the per-core handle ---------------------------------------------------

/// The [`Rma`] endpoint handed to the SPMD closure for one simulated
/// core. Requests are fed straight into the shared engine; virtual
/// time advances only through timed operations.
///
/// A core handle belongs to the thread running its fiber and cannot be
/// sent to another:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<scc_sim::SimCore>();
/// ```
pub struct SimCore {
    id: CoreId,
    /// Cached `SimConfig::record`, so span annotations cost one local
    /// branch (no engine borrow) when recording is off.
    recording: bool,
    now: Cell<Time>,
    parked_line: Cell<usize>,
    /// Message tag applied to subsequent timed ops ([`Rma::msg_tag`]).
    /// Only ever set while recording, so untraced runs carry `None`
    /// with zero bookkeeping.
    cur_msg: Cell<Option<MsgId>>,
    /// Reusable payload buffer for untimed memory requests; it rides
    /// along in the request and comes back in the grant, so steady
    /// state does no allocation per call.
    scratch: RefCell<Vec<u8>>,
    shared: Rc<Shared>,
}

impl SimCore {
    /// Submit one request and run the engine until this core's grant is
    /// available — inline when possible, via one switch to the core the
    /// engine grants next otherwise.
    fn rpc(&self, req: Request) -> RmaResult<Grant> {
        let me = self.id.index();
        let shared = &*self.shared;
        let mut eng = shared.engine.borrow_mut();
        let grant = match eng.submit(me, req).map_err(|e| RmaError::Engine(e.to_string()))? {
            Submitted::Ready(g) => g,
            Submitted::Blocked => match eng.advance() {
                Advanced::Granted(core, g) if core == me => g,
                Advanced::Granted(core, g) => {
                    eng.hand_off(self.id, core);
                    drop(eng);
                    shared.hand_to(me, core, g);
                    shared.grants[me]
                        .take()
                        .ok_or_else(|| RmaError::Engine("core resumed without a grant".into()))?
                }
                Advanced::RunComplete => {
                    // Unreachable: this core has not finished. Treat it
                    // as a wedge rather than trusting the impossible.
                    drop(eng);
                    shared.fail(SimError::Engine("run completed with a core mid-op".into()));
                    return Err(RmaError::Engine("engine wedged".into()));
                }
                Advanced::Fatal(msg) => {
                    drop(eng);
                    shared.fail(SimError::Engine(msg.clone()));
                    return Err(RmaError::Engine(msg));
                }
            },
        };
        match grant {
            Grant::Rejected { err, buf } => {
                if let Some(b) = buf {
                    self.scratch.replace(b);
                }
                Err(err)
            }
            Grant::Deadlock => {
                Err(RmaError::Deadlock { core: self.id, line: self.parked_line.get() })
            }
            g => {
                match &g {
                    Grant::Go { now } | Grant::Buf { now, .. } | Grant::Flag { now, .. } => {
                        self.now.set(*now)
                    }
                    _ => unreachable!(),
                }
                Ok(g)
            }
        }
    }

    fn op(&self, op: Op) -> RmaResult<Grant> {
        self.rpc(Request::Op { op, msg: self.cur_msg.get() })
    }

    /// Retire this core: record its end time and advance the event
    /// loop. Returns the context to switch to: the next runnable core
    /// (its grant already deposited), or the caller of `run_spmd` once
    /// the run has completed or stopped.
    fn finish(&self) -> usize {
        let shared = &*self.shared;
        let mut eng = shared.engine.borrow_mut();
        if eng.fatal {
            return shared.caller();
        }
        eng.submit_finish(self.id.index());
        match eng.advance() {
            Advanced::RunComplete => {
                let result = eng.make_result();
                drop(eng);
                shared.outcome.replace(Some(result));
                shared.caller()
            }
            Advanced::Granted(core, g) => {
                eng.hand_off(self.id, core);
                drop(eng);
                shared.grants[core].set(Some(g));
                core
            }
            Advanced::Fatal(msg) => {
                drop(eng);
                shared.fail(SimError::Engine(msg));
                shared.caller()
            }
        }
    }

    /// Deposit a span event into the recorder. Spans carry no virtual
    /// time of their own — they are stamped with this core's current
    /// clock — so annotating a collective cannot perturb the run. Only
    /// reached when recording.
    fn record_span(&self, begin: bool, span: Span) {
        let at = self.now.get();
        let ev = if begin {
            ObsEvent::SpanBegin { core: self.id, span, at }
        } else {
            ObsEvent::SpanEnd { core: self.id, span, at }
        };
        self.shared.engine.borrow_mut().record(ev);
    }

    /// Deposit a delivery-window boundary. Same discipline as
    /// [`record_span`](Self::record_span): untimed, stamped with this
    /// core's clock, only reached while recording.
    fn record_delivery(&self, begin: bool, epoch: u32) {
        let at = self.now.get();
        let ev = if begin {
            ObsEvent::DeliveryBegin { core: self.id, epoch, at }
        } else {
            ObsEvent::DeliveryEnd { core: self.id, epoch, at }
        };
        self.shared.engine.borrow_mut().record(ev);
    }
}

impl Rma for SimCore {
    fn core(&self) -> CoreId {
        self.id
    }

    fn num_cores(&self) -> usize {
        self.shared.num_cores
    }

    fn now(&self) -> Time {
        self.now.get()
    }

    fn mem_len(&self) -> usize {
        self.shared.mem_bytes
    }

    fn put_from_mem(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.op(Op::PutFromMem { src, dst, cached: false }).map(drop)
    }

    fn put_from_mpb(&mut self, src_line: usize, dst: MpbAddr, lines: usize) -> RmaResult<()> {
        self.op(Op::PutFromMpb { src_line, dst, lines }).map(drop)
    }

    fn put_from_mem_cached(&mut self, src: MemRange, dst: MpbAddr) -> RmaResult<()> {
        self.op(Op::PutFromMem { src, dst, cached: true }).map(drop)
    }

    fn get_to_mem(&mut self, src: MpbAddr, dst: MemRange) -> RmaResult<()> {
        self.op(Op::GetToMem { src, dst }).map(drop)
    }

    fn get_to_mpb(&mut self, src: MpbAddr, dst_line: usize, lines: usize) -> RmaResult<()> {
        self.op(Op::GetToMpb { src, dst_line, lines }).map(drop)
    }

    fn flag_put(&mut self, dst: MpbAddr, value: FlagValue) -> RmaResult<()> {
        self.op(Op::FlagPut { dst, value }).map(drop)
    }

    fn flag_read_local(&mut self, line: usize) -> RmaResult<FlagValue> {
        match self.op(Op::ReadLine { line })? {
            Grant::Flag { value, .. } => Ok(value),
            _ => Err(RmaError::Engine("flag read returned no value".into())),
        }
    }

    fn flag_wait_local(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
    ) -> RmaResult<FlagValue> {
        loop {
            let v = self.flag_read_local(line)?;
            if pred(v) {
                return Ok(v);
            }
            self.parked_line.set(line);
            self.rpc(Request::Park { line, deadline: None })?;
        }
    }

    fn flag_wait_local_until(
        &mut self,
        line: usize,
        pred: &mut dyn FnMut(FlagValue) -> bool,
        deadline: Time,
    ) -> RmaResult<FlagValue> {
        loop {
            let v = self.flag_read_local(line)?;
            if pred(v) {
                return Ok(v);
            }
            if self.now() >= deadline {
                return Err(RmaError::Timeout { core: self.id, line, deadline });
            }
            self.parked_line.set(line);
            self.rpc(Request::Park { line, deadline: Some(deadline) })?;
        }
    }

    fn mem_write(&mut self, offset: usize, data: &[u8]) -> RmaResult<()> {
        let mut buf = self.scratch.take();
        buf.clear();
        buf.extend_from_slice(data);
        match self.rpc(Request::MemWrite { offset, buf })? {
            Grant::Buf { buf, .. } => {
                self.scratch.replace(buf);
                Ok(())
            }
            _ => Err(RmaError::Engine("memory write returned no buffer".into())),
        }
    }

    fn mem_read(&self, offset: usize, buf: &mut [u8]) -> RmaResult<()> {
        let scratch = self.scratch.take();
        match self.rpc(Request::MemRead { offset, len: buf.len(), buf: scratch })? {
            Grant::Buf { buf: filled, .. } => {
                buf.copy_from_slice(&filled);
                self.scratch.replace(filled);
                Ok(())
            }
            _ => Err(RmaError::Engine("memory read returned no bytes".into())),
        }
    }

    fn compute(&mut self, t: Time) {
        // Plain time passage cannot fail except on engine teardown,
        // where the error will surface on the next fallible call.
        let _ = self.rpc(Request::Compute(t));
    }

    fn span_begin(&mut self, span: Span) {
        if self.recording {
            self.record_span(true, span);
        }
    }

    fn span_end(&mut self, span: Span) {
        if self.recording {
            self.record_span(false, span);
        }
    }

    fn msg_tag(&mut self, msg: Option<MsgId>) {
        if self.recording {
            self.cur_msg.set(msg);
        }
    }

    fn delivery_begin(&mut self, epoch: u32) {
        if self.recording {
            self.record_delivery(true, epoch);
        }
    }

    fn delivery_end(&mut self, epoch: u32) {
        if self.recording {
            self.record_delivery(false, epoch);
        }
    }
}

/// What a core fiber starts from: its id, the closure and a slot for
/// its result. Lives in `run_spmd`'s frame, which outlives every fiber.
struct Launch<'a, R, F> {
    shared: &'a Rc<Shared>,
    f: &'a F,
    id: usize,
    result: Cell<Option<R>>,
}

impl<R, F: Fn(&mut SimCore) -> R> Launch<'_, R, F> {
    /// Run the core's closure once it receives its start grant. Returns
    /// the context to switch to when the fiber exits.
    fn run(&self) -> usize {
        let shared = self.shared;
        let Some(Grant::Go { now }) = shared.grants[self.id].take() else {
            // Aborted before the core ever started.
            return shared.caller();
        };
        let mut core = SimCore {
            id: CoreId(self.id as u8),
            recording: shared.recording,
            now: Cell::new(now),
            parked_line: Cell::new(0),
            cur_msg: Cell::new(None),
            scratch: RefCell::new(Vec::new()),
            shared: Rc::clone(shared),
        };
        let r = (self.f)(&mut core);
        let next = core.finish();
        self.result.set(Some(r));
        next
    }
}

/// Body of every core fiber: run the core, catching a panic so it can
/// be re-raised on the caller's stack, then hand the turn on for good.
///
/// # Safety
///
/// `arg` must point to a `Launch<R, F>` that outlives the fiber.
unsafe extern "C" fn core_main<R, F: Fn(&mut SimCore) -> R>(arg: *mut c_void) -> ! {
    // SAFETY: `run_spmd` passes this core's `Launch`, which lives in its
    // frame; that frame does not return before every core has exited.
    let launch = unsafe { &*arg.cast::<Launch<'_, R, F>>() };
    let shared: &Shared = launch.shared;
    let next = match catch_unwind(AssertUnwindSafe(|| launch.run())) {
        Ok(next) => next,
        Err(payload) => {
            shared.fail(SimError::Engine("a core panicked".into()));
            let first = shared.panic.take().unwrap_or(payload);
            shared.panic.set(Some(first));
            shared.caller()
        }
    };
    // Everything the core owned has been dropped; this stack holds only
    // plain data from here on and is never resumed.
    shared.exited[launch.id].set(true);
    shared.switch(launch.id, next);
    unreachable!("an exited core fiber was resumed");
}

/// Run `f` as an SPMD program on the simulated chip: one invocation per
/// core, all starting at virtual time zero. Returns when every core's
/// closure has returned.
///
/// The run is fully deterministic: same config and same (per-core
/// deterministic) closure ⇒ identical report, independent of host
/// scheduling.
///
/// Every core runs as a fiber on the calling thread; fiber stacks are
/// reused across runs on the same thread. A panic in a core stops the
/// run: every other core is resumed with an [`RmaError::Engine`]
/// ("run aborted") so its closure returns and its locals drop, and then
/// the first panic is re-raised here.
pub fn run_spmd<R, F>(cfg: &SimConfig, f: F) -> Result<SimReport<R>, SimError>
where
    F: Fn(&mut SimCore) -> R,
{
    let n = cfg.num_cores;
    if !(1..=NUM_CORES).contains(&n) {
        return Err(SimError::Config(format!("num_cores must be in 1..={NUM_CORES}, got {n}")));
    }
    let _in_flight = crate::telemetry::InFlightGuard::enter();
    let shared = Rc::new(Shared {
        engine: RefCell::new(Engine::new(cfg)),
        grants: (0..n).map(|_| Cell::new(None)).collect(),
        sp: (0..=n).map(|_| Cell::new(std::ptr::null_mut())).collect(),
        exited: (0..n).map(|_| Cell::new(false)).collect(),
        outcome: RefCell::new(None),
        panic: Cell::new(None),
        num_cores: n,
        mem_bytes: cfg.mem_bytes,
        recording: cfg.record || cfg.flight > 0,
    });
    let caller = shared.caller();
    let launches: Vec<Launch<'_, R, F>> =
        (0..n).map(|id| Launch { shared: &shared, f: &f, id, result: Cell::new(None) }).collect();
    let stacks: Vec<handoff::Stack> = (0..n).map(|_| handoff::lease()).collect();
    for (i, (launch, stack)) in launches.iter().zip(&stacks).enumerate() {
        let arg = std::ptr::from_ref(launch).cast_mut().cast::<c_void>();
        shared.sp[i].set(handoff::prepare(stack, core_main::<R, F>, arg));
    }

    // Kick the run: hand the first grant (core 0's start `Go`) to its
    // core. Control comes back here once the run completes or stops.
    let first = {
        let mut eng = shared.engine.borrow_mut();
        match eng.advance() {
            Advanced::Granted(core, g) => {
                // The kick has no issuing core; record it as the baton
                // appearing at its first holder.
                eng.hand_off(CoreId(core as u8), core);
                Some((core, g))
            }
            Advanced::RunComplete | Advanced::Fatal(_) => None,
        }
    };
    match first {
        Some((core, g)) => shared.hand_to(caller, core, g),
        None => shared.fail(SimError::Engine("engine wedged before any core started".into())),
    }

    // A stopped run leaves cores suspended mid-request. Resume each
    // with a rejection: its closure returns, its locals drop, and its
    // fiber exits back here.
    for i in 0..n {
        if !shared.exited[i].get() {
            shared.fail(SimError::Engine("run aborted".into()));
            let err = RmaError::Engine("run aborted".into());
            shared.hand_to(caller, i, Grant::Rejected { err, buf: None });
        }
    }
    stacks.into_iter().for_each(handoff::release);
    if let Some(p) = shared.panic.take() {
        resume_unwind(p);
    }

    let out = shared
        .outcome
        .take()
        .unwrap_or_else(|| Err(SimError::Engine("run ended without an outcome".into())))?;
    let collected: Vec<R> = launches.into_iter().filter_map(|l| l.result.into_inner()).collect();
    if collected.len() != n {
        return Err(SimError::Engine("some cores never started".into()));
    }
    let makespan = out.end_times.iter().copied().fold(Time::ZERO, Time::max);
    crate::telemetry::add_run(&out.stats);
    Ok(SimReport {
        results: collected,
        end_times: out.end_times,
        makespan,
        stats: out.stats,
        events: out.events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scc_hal::RmaExt;

    #[test]
    fn trivial_run_finishes_at_time_zero() {
        let cfg = SimConfig { num_cores: 4, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| c.core().index()).unwrap();
        assert_eq!(rep.results, vec![0, 1, 2, 3]);
        assert_eq!(rep.makespan, Time::ZERO);
    }

    #[test]
    fn single_op_advances_virtual_time_exactly() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            if c.core().index() == 0 {
                c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), 4).unwrap();
            }
            c.now()
        })
        .unwrap();
        // C_put_mpb(4, 1) = 0.069 + 4·(0.136 + 0.136) µs = 1.157 µs.
        assert_eq!(rep.results[0], Time::from_ns(69 + 4 * (136 + 136)));
        assert_eq!(rep.results[1], Time::ZERO);
    }

    #[test]
    fn flag_handoff_moves_data_between_cores() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let msg = b"on-chip hello";
        let rep = run_spmd(&cfg, move |c| -> RmaResult<Vec<u8>> {
            if c.core().index() == 0 {
                c.mem_write(0, msg)?;
                // Stage into own MPB (line 1..), then signal core 1.
                c.put_from_mem(MemRange::new(0, msg.len()), MpbAddr::new(CoreId(0), 1))?;
                c.flag_put(MpbAddr::new(CoreId(1), 0), FlagValue(7))?;
                Ok(Vec::new())
            } else {
                c.flag_wait_eq(0, FlagValue(7))?;
                c.get_to_mem(MpbAddr::new(CoreId(0), 1), MemRange::new(64, msg.len()))?;
                c.mem_to_vec(MemRange::new(64, msg.len()))
            }
        })
        .unwrap();
        let got = rep.results[1].as_ref().unwrap();
        assert_eq!(got.as_slice(), msg);
        // The receiver must finish after the sender's data put started.
        assert!(rep.end_times[1] > rep.end_times[0].saturating_sub(Time::US));
    }

    #[test]
    fn deadlock_detected_and_reported() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let err = run_spmd(&cfg, |c| -> RmaResult<()> {
            if c.core().index() == 1 {
                // Nobody ever writes this flag.
                c.flag_wait_eq(3, FlagValue(1))?;
            }
            Ok(())
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { parked } => {
                assert_eq!(parked, vec![(CoreId(1), 3)]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn rejected_op_reports_error_without_advancing_time() {
        let cfg = SimConfig { num_cores: 1, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            let e = c.get_to_mpb(MpbAddr::new(CoreId(0), 250), 0, 20).unwrap_err();
            assert!(matches!(e, RmaError::MpbOutOfRange { .. }));
            c.now()
        })
        .unwrap();
        assert_eq!(rep.results[0], Time::ZERO);
    }

    #[test]
    fn compute_advances_time_without_touching_resources() {
        let cfg = SimConfig { num_cores: 1, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            c.compute(Time::from_us_f64(2.5));
            c.now()
        })
        .unwrap();
        assert_eq!(rep.results[0], Time::from_us_f64(2.5));
        assert_eq!(rep.stats.ops, 0);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        let cfg = SimConfig { num_cores: 8, mem_bytes: 4096, ..SimConfig::default() };
        let prog = |c: &mut SimCore| -> Time {
            let me = c.core().index();
            let next = CoreId(((me + 1) % 8) as u8);
            for round in 1..=5u32 {
                c.flag_put(MpbAddr::new(next, 1), FlagValue(round)).unwrap();
                c.flag_wait_ge(1, FlagValue(round)).unwrap();
            }
            c.now()
        };
        let a = run_spmd(&cfg, prog).unwrap();
        let b = run_spmd(&cfg, prog).unwrap();
        assert_eq!(a.results, b.results);
        assert_eq!(a.end_times, b.end_times);
        assert_eq!(a.stats, b.stats);
        assert!(a.makespan > Time::ZERO);
    }

    #[test]
    fn mem_rw_is_untimed_and_isolated() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            c.mem_write(0, &[c.core().0 + 1; 8]).unwrap();
            let mut buf = [0u8; 8];
            c.mem_read(0, &mut buf).unwrap();
            (c.now(), buf)
        })
        .unwrap();
        assert_eq!(rep.results[0], (Time::ZERO, [1u8; 8]));
        assert_eq!(rep.results[1], (Time::ZERO, [2u8; 8]));
    }

    #[test]
    fn oversized_mem_access_rejected() {
        let cfg = SimConfig { num_cores: 1, mem_bytes: 64, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            let e = c.mem_write(60, &[0u8; 8]).unwrap_err();
            matches!(e, RmaError::MemOutOfRange { .. })
        })
        .unwrap();
        assert!(rep.results[0]);
    }

    #[test]
    fn mem_rw_reuses_the_scratch_buffer_across_rejections() {
        // A rejected access must hand the scratch buffer back so later
        // valid accesses still see correct data.
        let cfg = SimConfig { num_cores: 1, mem_bytes: 64, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            assert!(c.mem_write(60, &[1u8; 8]).is_err());
            c.mem_write(0, &[7u8; 8]).unwrap();
            let mut buf = [0u8; 8];
            assert!(c.mem_read(60, &mut buf).is_err());
            c.mem_read(0, &mut buf).unwrap();
            buf
        })
        .unwrap();
        assert_eq!(rep.results[0], [7u8; 8]);
    }

    #[test]
    fn coalescing_counts_elided_events() {
        // A single 32-line op on an otherwise idle chip coalesces every
        // line step after the first pop.
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let rep = run_spmd(&cfg, |c| {
            if c.core().index() == 0 {
                c.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), 32).unwrap();
            }
        })
        .unwrap();
        assert!(rep.stats.coalesced_steps >= 31, "stats: {:?}", rep.stats);
        assert_eq!(rep.stats.events, rep.stats.heap_pushes + rep.stats.coalesced_steps);
    }

    #[test]
    fn panicking_core_aborts_the_run() {
        let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
        let outcome = std::panic::catch_unwind(|| {
            let _ = run_spmd(&cfg, |c| {
                if c.core().index() == 1 {
                    panic!("core exploded");
                }
                c.compute(Time::US);
            });
        });
        let p = outcome.expect_err("panic must propagate to the caller");
        let msg = p.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "core exploded");
    }

    #[test]
    fn core_count_outside_the_chip_is_a_config_error() {
        for n in [0, NUM_CORES + 1] {
            let cfg = SimConfig { num_cores: n, mem_bytes: 4096, ..SimConfig::default() };
            match run_spmd(&cfg, |_| ()) {
                Err(SimError::Config(m)) => assert!(m.contains(&n.to_string()), "{m}"),
                other => panic!("num_cores = {n}: expected a config error, got {other:?}"),
            }
        }
    }

    /// The counters' gap is the events still queued at completion: a
    /// deadline timer whose waiter was woken by a write first. The same
    /// program without a deadline leaves nothing queued.
    #[test]
    fn event_gap_counts_the_deadline_timers_left_queued() {
        let far = Time::from_us_f64(1000.0);
        let gap = |deadline: bool| {
            let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
            let rep = run_spmd(&cfg, move |c| -> RmaResult<()> {
                if c.core().index() == 0 {
                    c.compute(Time::US);
                    c.flag_put(MpbAddr::new(CoreId(1), 0), FlagValue(1))
                } else if deadline {
                    c.flag_wait_local_until(0, &mut |v| v == FlagValue(1), far).map(drop)
                } else {
                    c.flag_wait_local(0, &mut |v| v == FlagValue(1)).map(drop)
                }
            })
            .unwrap();
            assert!(rep.results.iter().all(Result::is_ok));
            assert!(rep.makespan < far, "the deadline must lie past the makespan");
            assert_eq!(rep.stats.parks, 1, "core 1 must have waited");
            rep.stats.heap_pushes + rep.stats.coalesced_steps - rep.stats.events
        };
        assert_eq!(gap(false), 0);
        assert_eq!(gap(true), 1);
    }
}
