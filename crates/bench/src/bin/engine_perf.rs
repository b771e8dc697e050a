//! Engine self-benchmark: how fast the simulator itself retires events,
//! measured on (a) a raw op-throughput loop and (b) a Figure-8b-like
//! OC-Bcast size sweep at P = 48. This measures the host-side DES
//! engine — event coalescing, core fibers, stack-switch handoffs — not
//! the simulated SCC, whose virtual-time results are identical whatever
//! the engine speed.
//!
//! Run: `cargo run --release -p scc-bench --bin engine_perf`
//! (SCC_BENCH_QUICK=1 shrinks the sweep; the JSON lands in
//! `BENCH_engine.json` in the working directory.)

use oc_bcast::{Algorithm, Broadcaster};
use scc_bench::{engine_artifact, quick, EngineSample};
use scc_hal::{CoreId, MemRange, MpbAddr, Rma, RmaResult};
use scc_rcce::MpbAllocator;
use scc_sim::{handoff, run_spmd, SimConfig, SimStats};
use std::time::Instant;

/// Time one full `run_spmd` with the given workload.
fn timed<F>(cfg: &SimConfig, label: &str, reps: u32, f: F) -> EngineSample
where
    F: Fn(&mut scc_sim::SimCore) -> RmaResult<()> + Send + Sync,
{
    // One untimed warmup run maps the fiber stacks.
    run_spmd(cfg, &f).expect("warmup");
    let t0 = Instant::now();
    let mut stats = SimStats::default();
    for _ in 0..reps {
        let rep = run_spmd(cfg, &f).expect("run");
        stats = rep.stats; // identical every rep (deterministic engine)
    }
    let wall_s = t0.elapsed().as_secs_f64() / reps as f64;
    EngineSample { label: label.into(), wall_s, stats }
}

/// Fixed per-run cost at P = 48: fiber set-up, chip construction,
/// start grants, teardown — no ops at all.
fn null_run(reps: u32) -> EngineSample {
    let cfg = SimConfig { num_cores: 48, mem_bytes: 4096, ..SimConfig::default() };
    timed(&cfg, "null_p48", reps, |_| Ok(()))
}

fn raw_ops(reps: u32) -> EngineSample {
    let cfg = SimConfig { num_cores: 2, mem_bytes: 4096, ..SimConfig::default() };
    let ops = 10_000usize;
    timed(&cfg, "raw_one_line_puts_10k", reps, move |core| {
        if core.core().index() == 0 {
            for _ in 0..ops {
                core.put_from_mpb(0, MpbAddr::new(CoreId(1), 0), 1)?;
            }
        }
        Ok(())
    })
}

fn bcast_point(lines: usize, reps: u32) -> EngineSample {
    // 256 KB of private memory per core is plenty for the largest
    // sweep point (4608 lines = 144 KB) and keeps chip construction
    // out of the measurement.
    let cfg = SimConfig { num_cores: 48, mem_bytes: 1 << 18, ..SimConfig::default() };
    let bytes = lines * 32;
    timed(&cfg, &format!("oc_k7_p48_{lines}CL"), reps, move |core| {
        let mut alloc = MpbAllocator::new();
        let mut bc = Broadcaster::new(&mut alloc, Algorithm::oc_with_k(7), 48).expect("ctx");
        if core.core().index() == 0 {
            let payload: Vec<u8> = (0..bytes).map(|i| (i % 253) as u8).collect();
            core.mem_write(0, &payload)?;
        }
        bc.bcast(core, CoreId(0), MemRange::new(0, bytes))
    })
}

fn main() {
    let (sizes, reps): (Vec<usize>, u32) =
        if quick() { (vec![1, 96, 768], 1) } else { (vec![1, 16, 96, 97, 768, 4608], 3) };

    let mut samples = vec![null_run(reps), raw_ops(reps)];
    for &m in &sizes {
        samples.push(bcast_point(m, reps));
    }

    println!("# engine_perf — host-side DES engine throughput");
    println!(
        "# {:<24} {:>10} {:>12} {:>14} {:>10} {:>10}",
        "workload", "wall ms", "events", "events/s", "coalesced", "handoffs"
    );
    for s in &samples {
        println!(
            "{:<26} {:>10.3} {:>12} {:>14.0} {:>10} {:>10}",
            s.label,
            s.wall_s * 1e3,
            s.stats.events,
            s.events_per_sec(),
            s.stats.coalesced_steps,
            s.stats.handoffs
        );
    }

    let total_wall: f64 = samples.iter().map(|s| s.wall_s).sum();
    let total_events: u64 = samples.iter().map(|s| s.stats.events).sum();
    let pool = handoff::pool_stats();
    println!(
        "# total: {:.1} ms for {} events ({:.0} events/s); {} fiber stacks mapped, {} reused",
        total_wall * 1e3,
        total_events,
        total_events as f64 / total_wall,
        pool.spawned,
        pool.reused
    );

    let out = engine_artifact(quick(), reps, &samples, &pool);
    std::fs::write("BENCH_engine.json", &out).expect("write BENCH_engine.json");
    println!("# wrote BENCH_engine.json");
}
