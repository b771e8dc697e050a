//! The correctness checker, and the observability work the soak does
//! on every recorded run.
//!
//! A broadcast counts as failed when its payload differs at any
//! receiver, when its run returned an `RmaError`/`SimError`, when the
//! engine's event accounting breaks, when the audit of its recorded
//! stream reports a violation, when its journeys or quantile sketch
//! disagree with the per-core results, when a healthy soak epoch
//! breaches the SLO, or when its virtual outputs differ from the
//! reference.
//!
//! Event accounting: every event the engine pushes is either popped
//! (and counted in `events`) or still queued when the last core
//! finishes. Plain protocols leave nothing queued, so their runs must
//! satisfy `events == heap_pushes + coalesced_steps` exactly. A
//! reliable protocol's deadline wait arms a timer on every park, and a
//! timer whose deadline lies past the makespan is still queued at
//! completion. A park at `at` with patience `w` has its deadline at or
//! before `at + w`, and a core's patience never exceeds the policy
//! timeout times `backoff` to the power of that core's timeouts that
//! did not end in a recovery (a recovery ends its wait). So a
//! recorded reliable run may leave at most as many pushes unpopped as
//! it has parks with `at + w ≥ makespan`. Every run with a reference
//! must leave exactly as many as the reference run did, and an
//! unrecorded reliable run needs one.

use crate::run::{hash_bytes, payload, soak_policy, Outcome, ROOT};
use crate::workload::Scenario;
use oc_bcast::RelStats;
use scc_hal::Time;
use scc_obs::{
    audit, AuditSpec, EpochRollup, JourneyBook, LatencyHistogram, ObsEvent, QuantileSketch,
    SloPolicy,
};
use scc_sim::SimStats;
use std::time::{Duration, Instant};

/// The soak's watchdog budgets: healthy epochs finish well under
/// 100 µs, a recovery stalls its epoch by the 600 µs timeout.
fn soak_slo() -> SloPolicy {
    SloPolicy {
        p99_budget: Some(Time::from_us_f64(300.0)),
        makespan_budget: Some(Time::from_us_f64(450.0)),
        zero_recoveries: true,
    }
}

/// What the obs layer made of one recorded run, and what it cost.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    pub events: u64,
    pub violations: Vec<String>,
    /// Invariant instances the audit examined.
    pub audit_checked: u64,
    pub journeys: usize,
    /// Epochs that breached the SLO.
    pub breached: Vec<usize>,
    /// `exact ≤ sketch < 2·exact` failed for the run's p99.
    pub sketch_off: bool,
    pub audit: Duration,
    pub journey: Duration,
    pub sketch: Duration,
}

fn diff(now: RelStats, before: RelStats) -> RelStats {
    RelStats {
        timeouts: now.timeouts - before.timeouts,
        probes: now.probes - before.probes,
        recoveries: now.recoveries - before.recoveries,
        renotifies: now.renotifies - before.renotifies,
    }
}

/// Per-receiver delivered latency of epoch `e`: return time minus the
/// root's call time.
fn latencies(o: &Outcome, e: usize) -> impl Iterator<Item = Time> + '_ {
    let start = o.cores[ROOT.index()].t0[e];
    o.cores
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != ROOT.index())
        .map(move |(_, c)| c.t1[e] - start)
}

/// Audit, journeys, sketch and SLO for a recorded run.
pub fn observe(sc: &Scenario, o: &Outcome) -> Observed {
    let events = o.events.as_deref().unwrap_or(&[]);
    let mut obs = Observed { events: events.len() as u64, ..Observed::default() };

    let t = Instant::now();
    let spec = match (sc.reliable(), sc.faulted()) {
        (false, _) => AuditSpec::plain(),
        (true, false) => AuditSpec::reliable(),
        (true, true) => AuditSpec::faulted(),
    };
    let report = audit(events, &spec.with_makespan(o.makespan));
    obs.audit = t.elapsed();
    obs.audit_checked = report.checked();
    obs.violations =
        report.violations.iter().map(|v| format!("{}: {}", v.class, v.detail)).collect();

    let t = Instant::now();
    obs.journeys = JourneyBook::from_events(events).journeys.len();
    obs.journey = t.elapsed();

    let t = Instant::now();
    let slo = soak_slo();
    let mut sketch = QuantileSketch::new();
    let mut all = LatencyHistogram::new();
    let mut prev = vec![RelStats::default(); o.cores.len()];
    for e in 0..sc.epochs {
        let mut hist = LatencyHistogram::new();
        let mut makespan = Time::ZERO;
        for lat in latencies(o, e) {
            hist.record(lat);
            all.record(lat);
            sketch.record(lat);
            makespan = makespan.max(lat);
        }
        let (mut timeouts, mut recoveries) = (0, 0);
        for (c, before) in o.cores.iter().zip(prev.iter_mut()) {
            let now = c.rel.get(e).copied().unwrap_or_default();
            let d = diff(now, *before);
            *before = now;
            timeouts += d.timeouts;
            recoveries += d.recoveries;
        }
        let rollup = EpochRollup {
            epoch: e as u32,
            p99: hist.quantile(0.99).unwrap_or(Time::ZERO),
            makespan,
            timeouts,
            recoveries,
            faults: 0,
        };
        if !slo.check(&rollup).is_empty() {
            obs.breached.push(e);
        }
    }
    if let (Some(exact), Some(sk)) = (all.quantile(0.99), sketch.quantile(0.99)) {
        obs.sketch_off = !(exact <= sk && sk.as_ps() < 2 * exact.as_ps().max(1));
    }
    obs.sketch = t.elapsed();
    obs
}

/// Digest of a run's virtual outputs: makespans, the virtual-time
/// `SimStats` counters, per-core call/return instants, received
/// payloads and recovery counters. The engine's own bookkeeping
/// (`events`, `heap_pushes`, `coalesced_steps`, `handoffs`), host
/// timings and the recorded stream itself are left out: a host-only
/// change may move them, and recording on and off digest alike.
pub fn digest(o: &Outcome) -> u64 {
    let SimStats {
        ops,
        lines_moved,
        port_wait,
        router_wait,
        mc_wait,
        parks,
        port_busy,
        router_busy,
        mc_busy,
        port_wait_by_tile,
        port_busy_by_tile,
        router_wait_by_tile,
        router_busy_by_tile,
        mc_wait_by_ctrl,
        mc_busy_by_ctrl,
        link_wait,
        link_busy,
        faults,
        fault_lost,
        ..
    } = &o.stats;
    let mut s = format!(
        "{:?}|{:?}|{ops} {lines_moved} {parks} {faults} {fault_lost:?}\
         |{port_wait:?} {router_wait:?} {mc_wait:?} {port_busy:?} {router_busy:?} {mc_busy:?}\
         |{port_wait_by_tile:?}{port_busy_by_tile:?}{router_wait_by_tile:?}{router_busy_by_tile:?}\
         |{mc_wait_by_ctrl:?}{mc_busy_by_ctrl:?}{link_wait:?}{link_busy:?}",
        o.makespan, o.end_times
    );
    for c in &o.cores {
        s.push_str(&format!("|{:?}{:?}{:?}{:?}", c.t0, c.t1, c.received, c.rel));
    }
    hash_bytes(s.as_bytes())
}

/// Pushed events still queued when the run completed.
pub fn unpopped(stats: &SimStats) -> Option<u64> {
    (stats.heap_pushes + stats.coalesced_steps).checked_sub(stats.events)
}

/// Upper bound on the deadline timers a recorded reliable run can
/// leave queued: its parks close enough to the makespan for their
/// deadline to lie at or past it.
fn timers_past_makespan(o: &Outcome, events: &[ObsEvent]) -> u64 {
    let policy = soak_policy();
    let patience: Vec<u64> = o
        .cores
        .iter()
        .map(|c| {
            // Patience doubles only after a timeout that did not
            // recover; a recovery ends the wait.
            let retries = c.rel.last().map_or(0, |r| r.timeouts.saturating_sub(r.recoveries));
            let backoff = u64::from(policy.backoff.max(2));
            let grow = u32::try_from(retries).ok().and_then(|t| backoff.checked_pow(t));
            grow.and_then(|g| policy.timeout.as_ps().checked_mul(g)).unwrap_or(u64::MAX)
        })
        .collect();
    let end = o.makespan.as_ps();
    events
        .iter()
        .filter(|e| match e {
            ObsEvent::Park { core, at, .. } => {
                at.as_ps().saturating_add(patience[core.index()]) >= end
            }
            _ => false,
        })
        .count() as u64
}

/// What a run must reproduce: the virtual-output digest and the
/// unpopped event count of the same scenario's first run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub unpopped: u64,
}

impl Reference {
    pub fn of(o: &Outcome) -> Reference {
        Reference { digest: digest(o), unpopped: unpopped(&o.stats).unwrap_or(u64::MAX) }
    }
}

/// The checker's verdict on one scenario run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Why, for the failures (first few only).
    pub reasons: Vec<String>,
}

impl Verdict {
    pub fn add(&mut self, o: &Verdict) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for r in &o.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r.clone());
            }
        }
    }
}

/// Judge one scenario run. `observed` is required for recorded runs;
/// `reference` is what the run must reproduce, when it is known. An
/// unrecorded reliable run needs a reference for its event accounting.
pub fn verdict(
    sc: &Scenario,
    run: &Result<Outcome, String>,
    observed: Option<&Observed>,
    reference: Option<&Reference>,
) -> Verdict {
    let attempted = sc.epochs as u64;
    let all = |why: String| Verdict { attempted, failed: attempted, reasons: vec![why] };
    let o = match run {
        Ok(o) => o,
        Err(e) => return all(format!("run failed: {e}")),
    };
    let what = sc.describe();
    if o.cores.iter().any(|c| c.received.len() != sc.epochs) {
        return all(format!("{what}: a core returned a short result"));
    }
    let gap = unpopped(&o.stats);
    let bounded = match (sc.reliable(), o.events.as_deref()) {
        (false, _) => gap == Some(0),
        (true, Some(events)) => gap.is_some_and(|g| g <= timers_past_makespan(o, events)),
        (true, None) => reference.is_some(),
    };
    if !bounded || reference.is_some_and(|r| gap != Some(r.unpopped)) {
        return all(format!(
            "{what}: {} events for {} heap pushes + {} coalesced steps",
            o.stats.events, o.stats.heap_pushes, o.stats.coalesced_steps
        ));
    }
    if let Some(r) = reference {
        if digest(o) != r.digest {
            return all(format!("{what}: virtual outputs differ from the reference digest"));
        }
    }
    if o.events.is_some() {
        let Some(obs) = observed else { return all(format!("{what}: recorded run not observed")) };
        if let Some(v) = obs.violations.first() {
            return all(format!("{what}: audit: {v} ({} violations)", obs.violations.len()));
        }
        if obs.journeys != sc.epochs * sc.cores {
            return all(format!(
                "{what}: {} journeys for {} epochs x {} cores",
                obs.journeys, sc.epochs, sc.cores
            ));
        }
        if obs.sketch_off {
            return all(format!("{what}: quantile sketch outside its error bound"));
        }
    }
    let mut v = Verdict { attempted, ..Verdict::default() };
    let mut expected = vec![0u8; sc.lines * 32];
    for e in 0..sc.epochs {
        payload(sc.payload_seed, e, &mut expected);
        let want = hash_bytes(&expected);
        let bad = o.cores.iter().position(|c| c.received[e] != want);
        // The SLO budgets are the soak's: they bind its healthy epochs.
        let healthy_soak = sc.reliable() && !sc.faulted();
        let breached = healthy_soak && observed.is_some_and(|obs| obs.breached.contains(&e));
        if bad.is_some() || breached {
            v.failed += 1;
            if v.reasons.len() < 4 {
                v.reasons.push(match bad {
                    Some(core) => format!("{what}: epoch {e}: payload differs at core {core}"),
                    None => format!("{what}: healthy epoch {e} breached the SLO"),
                });
            }
        }
    }
    v
}
