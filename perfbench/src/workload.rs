//! The three seeded workloads and the scenarios they are made of.
//!
//! A workload is a *pass*: a fixed-length list of scenarios drawn from
//! the seed, each one `run_spmd` call. The benchmark runs passes back to
//! back in a closed loop. Every pass of every seed holds the same
//! strata (algorithm × size class × core count), with the seed choosing
//! the exact sizes, tunings, fault seeds and order — so the host work
//! of a pass barely depends on the seed, while no two seeds simulate
//! the same inputs.

use oc_bcast::{Algorithm, OcConfig, TreeStrategy};
use scc_hal::Time;
use scc_sim::FaultPlan;
use std::fmt;

/// SplitMix64: the benchmark's only source of input randomness.
#[derive(Clone, Debug)]
pub(crate) struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x0005_EED0_F5CC_B0A5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.range(0, xs.len() - 1)]
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.range(0, i));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkBcast,
    SmallBcast,
    AuditedSoak,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::BulkBcast, Workload::SmallBcast, Workload::AuditedSoak];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkBcast => "bulk_bcast",
            Workload::SmallBcast => "small_bcast",
            Workload::AuditedSoak => "audited_soak",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One pass of scenarios for `seed`.
    pub fn pass(self, seed: u64) -> Vec<Scenario> {
        let mut rng = Rng::new(seed ^ (self as u64) << 56);
        let mut pass = match self {
            Workload::BulkBcast => bulk(&mut rng),
            Workload::SmallBcast => small(&mut rng),
            Workload::AuditedSoak => soak(&mut rng),
        };
        if self != Workload::AuditedSoak {
            // The soak keeps its phase order: healthy, faulted, healthy.
            rng.shuffle(&mut pass);
        }
        pass
    }
}

/// Which broadcast a scenario runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// A plain protocol through `oc_bcast::Broadcaster`, each epoch
    /// preceded by a barrier.
    Plain(Algorithm),
    /// `OcBcast::bcast_reliable` with degree `k`, no barrier.
    ReliableOc(usize),
    /// `ReliableBinomial`, no barrier.
    ReliableBinomial,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Plain(Algorithm::OcBcast(c)) => write!(
                f,
                "oc k={} M={} fan={}{}",
                c.k,
                c.chunk_lines,
                c.notify_fanout,
                if c.strategy == TreeStrategy::ById { "" } else { " topo" }
            ),
            Proto::Plain(a) => f.write_str(&a.label()),
            Proto::ReliableOc(k) => write!(f, "reliable oc k={k}"),
            Proto::ReliableBinomial => f.write_str("reliable binomial"),
        }
    }
}

/// One `run_spmd` call: `epochs` back-to-back broadcasts of `lines`
/// cache lines from core 0 on `cores` cores.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub cores: usize,
    pub proto: Proto,
    pub lines: usize,
    pub epochs: usize,
    /// Record the full event stream, audit it and build its journeys.
    pub record: bool,
    /// Empty except in the soak's drop phase.
    pub faults: FaultPlan,
    /// Seeds the epoch payloads.
    pub payload_seed: u64,
}

impl Scenario {
    pub fn faulted(&self) -> bool {
        self.faults.drop_notification_ppm > 0
    }

    pub fn reliable(&self) -> bool {
        !matches!(self.proto, Proto::Plain(_))
    }

    pub fn describe(&self) -> String {
        format!(
            "{} P={} {}cl x{}{}",
            self.proto,
            self.cores,
            self.lines,
            self.epochs,
            if self.faulted() { " faulted" } else { "" }
        )
    }
}

fn plain(cores: usize, alg: Algorithm, lines: usize, epochs: usize, seed: u64) -> Scenario {
    Scenario {
        cores,
        proto: Proto::Plain(alg),
        lines,
        epochs,
        record: false,
        faults: FaultPlan::default(),
        payload_seed: seed,
    }
}

/// Barrier lines (⌈log₂ 48⌉) + notify flag + `k` done flags + two
/// payload buffers must fit a core's 256-line MPB.
fn oc_fits(k: usize, chunk: usize) -> bool {
    6 + 1 + k + 2 * chunk <= 256
}

/// Jitter `x` by a seeded factor in `[1 - pct/100, 1 + pct/100]`.
fn jitter(rng: &mut Rng, x: usize, pct: usize) -> usize {
    (x * rng.range(100 - pct, 100 + pct)).div_ceil(100)
}

/// Fig. 8b / tune / ablation style: one large broadcast at P = 48 per
/// scenario. Strata: OC-Bcast k ∈ {2, 7, 47} at five size rungs, each
/// rung with its own tuning (chunk, notification fan-out, tree layout)
/// so a pass covers the tune and ablation grid, plus scatter-allgather
/// at the three rungs where Fig. 8b compares it. The seed jitters
/// every size by up to ±3 %.
fn bulk(rng: &mut Rng) -> Vec<Scenario> {
    const RUNGS: [usize; 5] = [96, 480, 1536, 3072, 4608];
    const CHUNKS: [usize; 5] = [96, 48, 120, 64, 96];
    const FANOUTS: [usize; 5] = [2, 3, 2, 0, 2]; // 0: sequential (fan-out k)
    let mut out = Vec::new();
    for k in [2, 7, 47] {
        for (i, &rung) in RUNGS.iter().enumerate() {
            let mut chunk = CHUNKS[i];
            while !oc_fits(k, chunk) {
                chunk /= 2;
            }
            let alg = Algorithm::OcBcast(OcConfig {
                k,
                chunk_lines: chunk,
                notify_fanout: if FANOUTS[i] == 0 { k.max(2) } else { FANOUTS[i] },
                strategy: if i % 2 == 1 { TreeStrategy::TopologyAware } else { TreeStrategy::ById },
                ..OcConfig::default()
            });
            out.push(plain(48, alg, jitter(rng, rung, 3), 1, rng.next_u64()));
        }
    }
    for rung in [1536, 3072, 4608] {
        out.push(plain(48, Algorithm::ScatterAllgather, jitter(rng, rung, 3), 1, rng.next_u64()));
    }
    out
}

/// Fig. 8a / soak style: 32 back-to-back small broadcasts per
/// scenario. Strata: OC-Bcast k ∈ {7, 47} and binomial at six core
/// counts from 8 to 48; the seed adds 0 or 1 core and draws the size
/// from 1–16 lines, small sizes more likely.
fn small(rng: &mut Rng) -> Vec<Scenario> {
    const RUNGS: [usize; 6] = [8, 16, 24, 32, 40, 47];
    const LINES: [usize; 8] = [1, 1, 2, 2, 4, 6, 8, 16];
    let mut out = Vec::new();
    for alg in [Algorithm::oc_with_k(7), Algorithm::oc_with_k(47), Algorithm::Binomial] {
        for &rung in &RUNGS {
            let cores = rung + rng.range(0, 1);
            out.push(plain(cores, alg, rng.pick(&LINES), 32, rng.next_u64()));
        }
    }
    out
}

/// Soak cores and message size (the registry soak's configuration).
pub const SOAK_CORES: usize = 24;
pub const SOAK_LINES: usize = 8;

/// The soak pattern, fully recorded: for reliable OC k = 7 and
/// reliable binomial, a healthy phase, a seeded drop phase and a
/// healthy phase, each phase one or more runs of back-to-back epochs.
/// OC gets 3 + 2 + 3 runs and binomial 1 + 1 + 1, as the registry soak
/// also weights OC. The uneven split keeps the median run inside the
/// OC cluster rather than on the boundary between the protocols' costs.
fn soak(rng: &mut Rng) -> Vec<Scenario> {
    let mut out = Vec::new();
    for (proto, runs) in [(Proto::ReliableOc(7), [3, 2, 3]), (Proto::ReliableBinomial, [1, 1, 1])] {
        for (drop_ppm, runs) in [0, 20_000, 0].into_iter().zip(runs) {
            for _ in 0..runs {
                out.push(Scenario {
                    cores: SOAK_CORES,
                    proto,
                    lines: SOAK_LINES,
                    epochs: 24,
                    record: true,
                    faults: FaultPlan {
                        seed: rng.next_u64(),
                        drop_notification_ppm: drop_ppm,
                        delay_ppm: drop_ppm / 2,
                        delay: if drop_ppm > 0 { Time(5_000_000) } else { Time::ZERO },
                        ..FaultPlan::default()
                    },
                    payload_seed: rng.next_u64(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_seeded() {
        for w in Workload::ALL {
            let a: Vec<String> = w.pass(7).iter().map(Scenario::describe).collect();
            let b: Vec<String> = w.pass(7).iter().map(Scenario::describe).collect();
            let c: Vec<String> = w.pass(8).iter().map(Scenario::describe).collect();
            assert_eq!(a, b, "{}", w.name());
            assert_eq!(a.len(), c.len(), "{}", w.name());
            assert_ne!(w.pass(7)[0].payload_seed, w.pass(8)[0].payload_seed, "{}", w.name());
        }
    }
}
