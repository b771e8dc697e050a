//! Running one scenario through the simulator's public entry points.

use crate::timed::{ProtoCounters, TimedRma};
use crate::workload::{Proto, Scenario};
use oc_bcast::{Broadcaster, OcBcast, OcConfig, RelStats, Reliability, ReliableBinomial};
use scc_hal::{CoreId, MemRange, Rma, RmaError, RmaResult, Time};
use scc_obs::ObsEvent;
use scc_rcce::{Barrier, MpbAllocator};
use scc_sim::{run_spmd, SimConfig, SimCore, SimStats};
use std::time::{Duration, Instant};

pub(crate) const ROOT: CoreId = CoreId(0);

/// The soak's reliability policy: the timeout sits above the longest
/// legitimate fault-free wait, so healthy epochs never time out.
pub(crate) fn soak_policy() -> Reliability {
    Reliability { timeout: Time::from_us_f64(600.0), ..Reliability::standard() }
}

/// What one core saw, per epoch.
#[derive(Clone, Debug, Default)]
pub struct CoreOut {
    /// Virtual time the core entered the broadcast.
    pub t0: Vec<Time>,
    /// Virtual time the core returned from it.
    pub t1: Vec<Time>,
    /// Hash of the bytes the core held after the broadcast.
    pub received: Vec<u64>,
    /// Cumulative recovery counters after each epoch (reliable only).
    pub rel: Vec<RelStats>,
    pub proto: ProtoCounters,
}

/// A completed `run_spmd` call.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub makespan: Time,
    pub end_times: Vec<Time>,
    pub stats: SimStats,
    pub events: Option<Vec<ObsEvent>>,
    pub cores: Vec<CoreOut>,
    /// Host wall time of the `run_spmd` call.
    pub host: Duration,
}

impl Outcome {
    /// Protocol counters summed over cores.
    pub fn proto(&self) -> ProtoCounters {
        let mut p = ProtoCounters::default();
        for c in &self.cores {
            p.add(&c.proto);
        }
        p
    }

    /// Recovery counters summed over cores, at the end of the run.
    pub fn rel(&self) -> RelStats {
        let mut r = RelStats::default();
        for c in &self.cores {
            if let Some(last) = c.rel.last() {
                r.accumulate(*last);
            }
        }
        r
    }
}

/// Epoch `epoch`'s payload: seeded bytes, different in every epoch so
/// a stale buffer can never pass.
pub fn payload(seed: u64, epoch: usize, buf: &mut [u8]) {
    let mut x = seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
}

/// 64-bit hash of a byte string, eight bytes at a time.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(29);
    }
    h
}

/// A core handle the scenario body can run on: either the bare
/// simulator core or the timing wrapper around it.
trait Probe: Rma + Sized {
    /// Run one epoch's protocol work.
    fn protocol<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T;
    fn proto_counters(&self) -> ProtoCounters;
}

impl Probe for SimCore {
    fn protocol<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        f(self)
    }

    fn proto_counters(&self) -> ProtoCounters {
        ProtoCounters::default()
    }
}

impl<R: Rma> Probe for TimedRma<'_, R> {
    fn protocol<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        self.measure(f)
    }

    fn proto_counters(&self) -> ProtoCounters {
        self.counters()
    }
}

fn layout_err(e: impl std::fmt::Debug) -> RmaError {
    RmaError::Engine(format!("MPB layout does not fit: {e:?}"))
}

/// The SPMD body of a scenario on one core.
fn core_body<C: Probe>(c: &mut C, sc: &Scenario) -> RmaResult<CoreOut> {
    let mut alloc = MpbAllocator::new();
    let msg = MemRange::new(0, sc.lines * 32);
    let mut buf = vec![0u8; msg.len];
    let mut out = CoreOut::default();
    let root = c.core() == ROOT;
    let p = c.num_cores();
    // Every protocol shares this loop; `bcast` runs one epoch's
    // collective and returns the instant the broadcast itself started
    // plus the core's cumulative recovery counters.
    type Epoch<'a, C> = dyn FnMut(&mut C) -> RmaResult<(Time, Option<RelStats>)> + 'a;
    let mut epochs = |c: &mut C, bcast: &mut Epoch<C>| {
        for e in 0..sc.epochs {
            if root {
                payload(sc.payload_seed, e, &mut buf);
                c.mem_write(0, &buf)?;
            }
            let (t0, rel) = c.protocol(|c| bcast(c))?;
            out.t0.push(t0);
            out.t1.push(c.now());
            c.mem_read(0, &mut buf)?;
            out.received.push(hash_bytes(&buf));
            out.rel.extend(rel);
        }
        Ok::<(), RmaError>(())
    };
    match sc.proto {
        Proto::Plain(alg) => {
            let mut bar = Barrier::new(&mut alloc, p).map_err(layout_err)?;
            let mut b = Broadcaster::new(&mut alloc, alg, p).map_err(layout_err)?;
            epochs(c, &mut |c| {
                bar.wait(c)?;
                let t0 = c.now();
                b.bcast(c, ROOT, msg)?;
                Ok((t0, None))
            })?;
        }
        Proto::ReliableOc(k) => {
            let mut b = OcBcast::new_reliable(&mut alloc, OcConfig::with_k(k), soak_policy())
                .map_err(layout_err)?;
            epochs(c, &mut |c| {
                let t0 = c.now();
                b.bcast_reliable(c, ROOT, msg)?;
                Ok((t0, b.rel_stats()))
            })?;
        }
        Proto::ReliableBinomial => {
            let mut b = ReliableBinomial::new(&mut alloc, p, soak_policy()).map_err(layout_err)?;
            epochs(c, &mut |c| {
                let t0 = c.now();
                b.bcast(c, ROOT, msg)?;
                Ok((t0, Some(b.stats())))
            })?;
        }
    }
    out.proto = c.proto_counters();
    Ok(out)
}

/// Run `sc` once. `timed` puts every core behind [`TimedRma`];
/// `record` overrides the scenario's recording switch (the traced run
/// flips it to measure recording overhead). Any simulator or protocol
/// error is returned as text.
pub fn run_scenario(sc: &Scenario, timed: bool, record: bool) -> Result<Outcome, String> {
    let cfg = SimConfig {
        num_cores: sc.cores,
        mem_bytes: (sc.lines * 32).next_power_of_two().max(1 << 16),
        record,
        faults: sc.faults.clone(),
        ..SimConfig::default()
    };
    let start = Instant::now();
    let rep = if timed {
        run_spmd(&cfg, |c| core_body(&mut TimedRma::new(c), sc))
    } else {
        run_spmd(&cfg, |c| core_body(c, sc))
    };
    let host = start.elapsed();
    let rep = rep.map_err(|e| format!("{}: {e}", sc.describe()))?;
    let cores = rep
        .results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| format!("{}: core {i}: {e}", sc.describe())))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        makespan: rep.makespan,
        end_times: rep.end_times,
        stats: rep.stats,
        events: rep.events,
        cores,
        host,
    })
}

/// `run_spmd` with an empty body: the per-run fixed cost at `cores`.
pub fn empty_run(cores: usize) -> Duration {
    let cfg = SimConfig { num_cores: cores, mem_bytes: 1 << 16, ..SimConfig::default() };
    let start = Instant::now();
    run_spmd(&cfg, |_| ()).expect("an empty run cannot fail");
    start.elapsed()
}
