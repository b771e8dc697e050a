//! Teardown of the core fibers `run_spmd` runs on its calling thread:
//!
//! * when one core panics mid-run, or the run deadlocks, every other
//!   core's closure still returns and drops its locals, the fiber stacks
//!   go back to the thread's free list, and the next run on the same
//!   thread succeeds;
//! * a core that recurses without bound hits its stack's guard page and
//!   the process dies by signal instead of returning.

use scc_hal::{CoreId, FlagValue, MpbAddr, Rma, RmaExt, RmaResult, Time};
use scc_sim::{handoff, run_spmd, SimConfig, SimCore, SimError};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

const P: usize = 8;

/// Counts its own drops: one per core that created it.
struct Tracker(Rc<Cell<usize>>);

impl Drop for Tracker {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

fn cfg() -> SimConfig {
    SimConfig { num_cores: P, mem_bytes: 4096, ..SimConfig::default() }
}

#[test]
fn stopped_runs_drop_every_core_and_recycle_the_stacks() {
    // Panic: every core but 3 waits on flag line 5, which only core 3
    // would write; core 3 panics after 1 µs instead, once the others
    // are parked.
    let drops = Rc::new(Cell::new(0));
    let payload = catch_unwind(AssertUnwindSafe(|| {
        run_spmd(&cfg(), |c: &mut SimCore| -> RmaResult<()> {
            let _t = Tracker(Rc::clone(&drops));
            if c.core().index() == 3 {
                c.compute(Time::US);
                panic!("core exploded mid-run");
            }
            c.flag_wait_eq(5, FlagValue(1))
        })
    }))
    .expect_err("the core's panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>().copied(), Some("core exploded mid-run"));
    assert_eq!(drops.get(), P, "every core's locals must be dropped after a panic");
    let mapped = handoff::pool_stats().spawned;

    // Deadlock: cores 1.. wait on a flag nobody writes.
    drops.set(0);
    let err = run_spmd(&cfg(), |c: &mut SimCore| -> RmaResult<()> {
        let _t = Tracker(Rc::clone(&drops));
        if c.core().index() != 0 {
            c.flag_wait_eq(3, FlagValue(1))?;
        }
        Ok(())
    })
    .unwrap_err();
    assert!(matches!(err, SimError::Deadlock { ref parked } if parked.len() == P - 1), "{err}");
    assert_eq!(drops.get(), P, "every core's locals must be dropped after a deadlock");

    // The thread is fit for another run, on the same stacks.
    let rep = run_spmd(&cfg(), |c: &mut SimCore| -> RmaResult<Time> {
        let me = c.core().index();
        c.flag_put(MpbAddr::new(CoreId(((me + 1) % P) as u8), 1), FlagValue(1))?;
        c.flag_wait_eq(1, FlagValue(1))?;
        Ok(c.now())
    })
    .expect("a run after stopped runs must succeed");
    assert!(rep.results.iter().all(Result::is_ok));
    assert_eq!(
        handoff::pool_stats().spawned,
        mapped,
        "the stopped runs' stacks must have been reused, not leaked"
    );
}

fn recurse(depth: u64) -> u64 {
    let frame = std::hint::black_box([depth; 64]);
    if std::hint::black_box(depth) == u64::MAX {
        return frame[0];
    }
    recurse(depth + 1).wrapping_add(frame[7])
}

/// Run only in a child process by the test below.
#[test]
#[ignore = "overflows a fiber stack; run as a child process"]
fn unbounded_recursion_child() {
    let _ = run_spmd(&cfg(), |c: &mut SimCore| if c.core().index() == 1 { recurse(0) } else { 0 });
}

#[test]
fn unbounded_recursion_dies_at_the_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--ignored", "--exact", "unbounded_recursion_child", "--test-threads", "1"])
        .output()
        .expect("spawn the test binary");
    // SIGSEGV (11) on the guard page, or SIGBUS (7) on some kernels.
    let signal = out.status.signal();
    assert!(
        matches!(signal, Some(11) | Some(7)),
        "child must die by signal at the guard page, got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}
