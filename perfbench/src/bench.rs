//! The closed loop: set-up, timed passes, the traced run and
//! the metrics each produces.

use crate::check::{observe, unpopped, verdict, Reference, Verdict};
use crate::host::{peak_rss_kib, Pinning, Usage};
use crate::run::{empty_run, run_scenario};
use crate::stats::{mean, median, quantile, tail_percentile};
use crate::timed::ProtoCounters;
use crate::workload::{Proto, Scenario, Workload, SOAK_CORES, SOAK_LINES};
use oc_bcast::{Algorithm, RelStats};
use scc_sim::handoff::pool_stats;
use scc_sim::FaultPlan;
use std::time::{Duration, Instant};

/// One run of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Passes run back to back until at least this much host time has
    /// passed (at least one pass).
    pub seconds: f64,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports: its metrics, the checker's totals, and lines
/// of context (tail percentile, digest, failure reasons).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub verdict: Verdict,
    pub notes: Vec<String>,
}

/// The fixed scenario every process runs once before timing: it spawns
/// the worker pool at the workload's largest core count and touches
/// every code path the workload's first timed scenario needs.
pub fn warm_up(w: Workload, seed: u64) -> Scenario {
    let (cores, proto, lines, epochs, record) = match w {
        Workload::BulkBcast => (48, Proto::Plain(Algorithm::oc_default()), 96, 1, false),
        Workload::SmallBcast => (48, Proto::Plain(Algorithm::oc_default()), 4, 8, false),
        Workload::AuditedSoak => (SOAK_CORES, Proto::ReliableOc(7), SOAK_LINES, 8, true),
    };
    Scenario {
        cores,
        proto,
        lines,
        epochs,
        record,
        faults: FaultPlan::default(),
        payload_seed: seed,
    }
}

/// Set-up: generate the pass and run the warm-up scenario through the
/// checker.
pub fn setup(cfg: &Config) -> (Vec<Scenario>, Verdict) {
    let pass = cfg.workload.pass(cfg.seed);
    let w = warm_up(cfg.workload, cfg.seed);
    let out = run_scenario(&w, false, w.record);
    let obs = out.as_ref().ok().filter(|o| o.events.is_some()).map(|o| observe(&w, o));
    (pass, verdict(&w, &out, obs.as_ref(), None))
}

/// Totals of one pass over the scenario list.
#[derive(Clone, Debug, Default)]
struct PassOut {
    /// Whole pass: runs, observability work and checks.
    wall: Duration,
    /// Sum of the `run_spmd` calls alone.
    run_wall: Duration,
    /// Host ms per scenario (run, observability work and checks).
    scenario_ms: Vec<f64>,
    refs: Vec<Reference>,
    verdict: Verdict,
    usage: Usage,
    events: u64,
    heap_pushes: u64,
    coalesced_steps: u64,
    unpopped: u64,
    ops: u64,
    lines_moved: u64,
    handoffs: u64,
    parks: u64,
    pool_reused: u64,
    proto: ProtoCounters,
    rel: RelStats,
    recorded: u64,
    audit: Duration,
    audit_checked: u64,
    journey: Duration,
    sketch: Duration,
}

/// Run every scenario of `pass` once. `timed` wraps the cores in the
/// timing `Rma`; `flip_record` inverts each scenario's recording
/// switch. Every run is judged against its `reference` if given.
fn run_pass(
    pass: &[Scenario],
    timed: bool,
    flip_record: bool,
    reference: Option<&[Reference]>,
) -> PassOut {
    let mut p = PassOut::default();
    let usage = Usage::now();
    let reused = pool_stats().reused;
    let start = Instant::now();
    for (i, sc) in pass.iter().enumerate() {
        let t = Instant::now();
        let out = run_scenario(sc, timed, sc.record != flip_record);
        let obs = out.as_ref().ok().filter(|o| o.events.is_some()).map(|o| observe(sc, o));
        let v = verdict(sc, &out, obs.as_ref(), reference.map(|r| &r[i]));
        p.scenario_ms.push(t.elapsed().as_secs_f64() * 1e3);
        p.verdict.add(&v);
        match &out {
            Ok(o) => {
                p.refs.push(Reference::of(o));
                p.run_wall += o.host;
                p.events += o.stats.events;
                p.heap_pushes += o.stats.heap_pushes;
                p.coalesced_steps += o.stats.coalesced_steps;
                p.unpopped += unpopped(&o.stats).unwrap_or(0);
                p.ops += o.stats.ops;
                p.lines_moved += o.stats.lines_moved;
                p.handoffs += o.stats.handoffs;
                p.parks += o.stats.parks;
                p.proto.add(&o.proto());
                p.rel.accumulate(o.rel());
            }
            Err(_) => p.refs.push(Reference { digest: 0, unpopped: u64::MAX }),
        }
        if let Some(obs) = obs {
            p.recorded += obs.events;
            p.audit += obs.audit;
            p.audit_checked += obs.audit_checked;
            p.journey += obs.journey;
            p.sketch += obs.sketch;
        }
    }
    p.wall = start.elapsed();
    p.usage = Usage::now().since(&usage);
    p.pool_reused = pool_stats().reused - reused;
    p
}

/// Combined digest of a pass: what the pinned table holds.
fn pass_digest(refs: &[Reference]) -> u64 {
    refs.iter().fold(0xA5A5_5A5A_0F0F_F0F0u64, |h, r| {
        (h ^ r.digest).wrapping_mul(0x100_0000_01B3).rotate_left(23)
    })
}

/// Check the first pass against the pinned digest of `(workload,
/// seed)`; any mismatch fails every broadcast of the pass.
fn check_pinned(cfg: &Config, first: &mut PassOut, notes: &mut Vec<String>) {
    let d = pass_digest(&first.refs);
    notes.push(format!("digest {} seed {}: {d:#018x}", cfg.workload.name(), cfg.seed));
    if let Some(want) = crate::pinned::digest(cfg.workload, cfg.seed) {
        if want != d {
            first.verdict.failed = first.verdict.attempted;
            first
                .verdict
                .reasons
                .push(format!("pass digest {d:#018x} differs from the pinned {want:#018x}"));
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Set-up samples taken for `setup_s`; the median is reported.
pub const SETUP_PROBES: usize = 21;

/// The untraced run: end-to-end metrics. `setup_probe` sets up a fresh
/// process and returns its set-up time; it is called
/// [`SETUP_PROBES`] times, spread over the timed loop between passes,
/// so that the samples see the same host as the passes do.
pub fn end_to_end(
    cfg: &Config,
    setup_probe: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Report, String> {
    let mut notes = Vec::new();
    let (pass, warm) = setup(cfg);
    let mut total = warm;
    let mut setups = Vec::with_capacity(SETUP_PROBES);
    let start = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let reference = passes.first().map(|p| p.refs.clone());
        let mut p = run_pass(&pass, false, false, reference.as_deref());
        if passes.is_empty() {
            check_pinned(cfg, &mut p, &mut notes);
        }
        total.add(&p.verdict);
        passes.push(p);
        let due = (start.elapsed().as_secs_f64() / cfg.seconds * SETUP_PROBES as f64).ceil();
        while setups.len() < SETUP_PROBES.min(due as usize) {
            setups.push(setup_probe()?);
        }
    }
    while setups.len() < SETUP_PROBES {
        setups.push(setup_probe()?);
    }
    let bcasts_per_pass: u64 = pass.iter().map(|s| s.epochs as u64).sum();
    let samples: Vec<f64> = passes.iter().flat_map(|p| p.scenario_ms.iter().copied()).collect();
    let tail = tail_percentile(samples.len());
    notes.push(format!(
        "{} passes of {} scenarios ({bcasts_per_pass} broadcasts); run_ms_tail is p{tail} of {} samples",
        passes.len(),
        pass.len(),
        samples.len()
    ));
    let verified = |p: &PassOut| (p.verdict.attempted - p.verdict.failed) as f64;
    let rates: Vec<String> =
        passes.iter().map(|p| format!("{:.4}", verified(p) / secs(p.wall))).collect();
    notes.push(format!("broadcasts per second, pass by pass: {}", rates.join(" ")));
    // The host alternates between fast and slow phases that last from
    // seconds to minutes. Totals and means over passes weigh the phases
    // by their share of the run; a median over passes would jump to
    // whichever phase held the majority of them.
    let sum = |f: &dyn Fn(&PassOut) -> f64| passes.iter().map(f).sum::<f64>();
    let bcasts = (passes.len() as u64 * bcasts_per_pass) as f64;
    let pass_p50s: Vec<f64> = passes.iter().map(|p| median(&p.scenario_ms)).collect();
    let metrics = vec![
        metric("bcast_per_s", sum(&verified) / sum(&|p| secs(p.wall)), "1/s"),
        metric("run_ms_p50", mean(&pass_p50s), "ms"),
        metric("run_ms_tail", quantile(&samples, tail as f64 / 100.0), "ms"),
        metric("cpu_ms_per_bcast", sum(&|p| secs(p.usage.cpu())) * 1e3 / bcasts, "ms"),
        metric("setup_s", median(&setups), "s"),
        metric("peak_rss_mb", peak_rss_kib().map_or(f64::NAN, |k| k as f64 / 1024.0), "MB"),
    ];
    Ok(Report { metrics, verdict: total, notes })
}

/// Run `f` with every thread of the process unpinned, then pin them
/// again. A failure to change the placement is noted.
fn unpinned<T>(pinning: Option<&Pinning>, notes: &mut Vec<String>, f: impl FnOnce() -> T) -> T {
    if pinning.is_some_and(|p| !p.unpin()) {
        notes.push("could not unpin every thread".into());
    }
    let t = f();
    if pinning.is_some_and(|p| !p.pin()) {
        notes.push("could not pin every thread again".into());
    }
    t
}

/// The traced run: per-layer metrics. Untraced (U), traced (T) and
/// unpinned (X) passes rotate — on the soak also a pass with recording
/// off (F) — until the time is up; counts come from the first pass of
/// a kind (they repeat exactly), times are medians per pass.
pub fn per_layer(cfg: &Config, pinning: Option<&Pinning>) -> Report {
    let mut notes = Vec::new();
    let (pass, warm) = setup(cfg);
    let mut total = warm;
    let soak = cfg.workload == Workload::AuditedSoak;
    let (mut u, mut t, mut f, mut x): (Vec<PassOut>, Vec<PassOut>, Vec<PassOut>, Vec<PassOut>) =
        Default::default();
    let start = Instant::now();
    while u.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let reference = u.first().map(|p| p.refs.clone());
        let mut p = run_pass(&pass, false, false, reference.as_deref());
        if u.is_empty() {
            check_pinned(cfg, &mut p, &mut notes);
        }
        let reference = reference.unwrap_or_else(|| p.refs.clone());
        total.add(&p.verdict);
        u.push(p);
        // Wrapped, unrecorded and unpinned runs must all reproduce the
        // first pass exactly.
        let p = run_pass(&pass, true, false, Some(&reference));
        total.add(&p.verdict);
        t.push(p);
        if soak {
            let p = run_pass(&pass, false, true, Some(&reference));
            total.add(&p.verdict);
            f.push(p);
        }
        let p = unpinned(pinning, &mut notes, || run_pass(&pass, false, false, Some(&reference)));
        total.add(&p.verdict);
        x.push(p);
    }
    let med =
        |ps: &[PassOut], g: &dyn Fn(&PassOut) -> f64| median(&ps.iter().map(g).collect::<Vec<_>>());
    let (u0, t0) = (&u[0], &t[0]);

    // Per-run fixed cost: empty runs at the pass's core counts.
    let empty_runs = || -> Vec<f64> {
        (0..pass.len().max(20) * 3)
            .map(|i| empty_run(pass[i % pass.len()].cores).as_secs_f64() * 1e6)
            .collect()
    };
    let fixed = empty_runs();
    let fixed_unpinned = unpinned(pinning, &mut notes, empty_runs);

    // Recording cost: only the soak records. Its own passes are the
    // "on" side and its flipped passes the "off" side; on the other
    // workloads every obs.* figure is zero.
    let record_overhead =
        if soak { med(&u, &|p| secs(p.run_wall)) - med(&f, &|p| secs(p.run_wall)) } else { 0.0 };

    let events = u0.events as f64;
    let proto_self = med(&t, &|p| secs(p.proto.self_time));
    let engine_self = med(&t, &|p| secs(p.run_wall) - secs(p.proto.self_time));
    let user = med(&u, &|p| secs(p.usage.user));
    let sys = med(&u, &|p| secs(p.usage.sys));
    let wall = med(&u, &|p| secs(p.wall));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let trace_overhead = med(&t, &|p| secs(p.run_wall)) / med(&u, &|p| secs(p.run_wall)) - 1.0;
    notes.push(format!(
        "{} untraced + {} traced + {} unpinned passes of {} scenarios; traced-run overhead {:+.1}%",
        u.len(),
        t.len(),
        x.len(),
        pass.len(),
        trace_overhead * 100.0
    ));
    let tp = &t0.proto;
    let metrics = vec![
        metric("pass_wall_s", wall, "s"),
        metric("trace.overhead_share", trace_overhead, "ratio"),
        metric("engine.events", events, "count"),
        metric("engine.heap_pushes", u0.heap_pushes as f64, "count"),
        metric("engine.coalesced_steps", u0.coalesced_steps as f64, "count"),
        metric("engine.unpopped_events", u0.unpopped as f64, "count"),
        metric("engine.ops", u0.ops as f64, "count"),
        metric("engine.lines_moved", u0.lines_moved as f64, "count"),
        metric("engine.coalesced_share", ratio(u0.coalesced_steps as f64, events), "ratio"),
        metric("engine.self_s", engine_self, "s"),
        metric("engine.ns_per_event", engine_self * 1e9 / events, "ns"),
        metric("handoff.count", u0.handoffs as f64, "count"),
        metric("handoff.parks", u0.parks as f64, "count"),
        metric("handoff.per_event", ratio(u0.handoffs as f64, events), "ratio"),
        metric("handoff.pool_spawned", pool_stats().spawned as f64, "count"),
        metric("handoff.pool_reused", u0.pool_reused as f64, "count"),
        metric("handoff.run_fixed_us", median(&fixed), "us"),
        metric("handoff.run_fixed_unpinned_us", median(&fixed_unpinned), "us"),
        metric("handoff.unpinned_pass_wall_s", med(&x, &|p| secs(p.wall)), "s"),
        metric("handoff.unpinned_cpu_s", med(&x, &|p| secs(p.usage.cpu())), "s"),
        metric("proc.user_s", user, "s"),
        metric("proc.sys_s", sys, "s"),
        metric("proc.idle_s", wall - user - sys, "s"),
        metric("proc.sys_share", ratio(sys, user + sys), "ratio"),
        metric("proc.vol_csw", med(&u, &|p| p.usage.vol_csw as f64), "count"),
        metric("proc.invol_csw", med(&u, &|p| p.usage.invol_csw as f64), "count"),
        metric("proto.self_s", proto_self, "s"),
        metric("proto.rma_calls", tp.rma_calls() as f64, "count"),
        metric("proto.put", tp.put as f64, "count"),
        metric("proto.get", tp.get as f64, "count"),
        metric("proto.flag_put", tp.flag_put as f64, "count"),
        metric("proto.flag_wait", tp.flag_wait as f64, "count"),
        metric("proto.flag_read", tp.flag_read as f64, "count"),
        metric("proto.wait_parked_share", ratio(u0.parks as f64, tp.flag_wait as f64), "ratio"),
        metric("proto.timeouts", u0.rel.timeouts as f64, "count"),
        metric("proto.probes", u0.rel.probes as f64, "count"),
        metric("proto.recoveries", u0.rel.recoveries as f64, "count"),
        metric("proto.renotifies", u0.rel.renotifies as f64, "count"),
        metric(
            "proto.recovery_share",
            ratio(u0.rel.recoveries as f64, u0.rel.timeouts as f64),
            "ratio",
        ),
        metric("obs.events_recorded", u0.recorded as f64, "count"),
        metric("obs.record_overhead_s", record_overhead, "s"),
        metric("obs.audit_s", med(&u, &|p| secs(p.audit)), "s"),
        metric("obs.audit_checked", u0.audit_checked as f64, "count"),
        metric("obs.journey_s", med(&u, &|p| secs(p.journey)), "s"),
        metric("obs.sketch_s", med(&u, &|p| secs(p.sketch)), "s"),
    ];
    Report { metrics, verdict: total, notes }
}
