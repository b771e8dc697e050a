//! Host-resource probe: CPU time and context switches of this process,
//! all threads included, read with `getrusage(2)`, and its peak RSS,
//! read from `/proc/self/status`.

use std::time::Duration;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

/// `cpu_set_t`: a 1024-bit CPU mask.
const CPU_SET_BYTES: usize = 128;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// A CPU mask.
#[derive(Clone, Copy)]
struct Mask([u8; CPU_SET_BYTES]);

/// Apply `mask` to every thread of this process: the threads that
/// exist now, and through them every thread they spawn later. Returns
/// `false` if a thread's mask could not be set.
fn set_all_threads(mask: &Mask) -> bool {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return false };
    let mut ok = true;
    for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `mask.0` is a readable buffer of exactly
        // `CPU_SET_BYTES` bytes, the size passed; `tid` names a thread
        // of this process (one that has exited since is refused, and
        // then has no mask to set).
        ok &= unsafe { sched_setaffinity(tid, CPU_SET_BYTES, mask.0.as_ptr()) } == 0;
    }
    ok
}

/// The process's CPU placement: pinned to one CPU, or free on the CPUs
/// it was started with.
///
/// The simulator hands one baton between its core threads, so at most
/// one of them is runnable and a single CPU costs no parallelism. What
/// pinning removes is the cross-CPU wake-up on every baton handoff,
/// whose latency on a virtual machine depends on the host's load. The
/// timed passes run pinned for steady figures; the traced run also
/// measures unpinned passes, which is how the repository's own
/// programs run.
#[derive(Clone, Copy)]
pub struct Pinning {
    /// The mask the process was started with.
    free: Mask,
    /// Only [`Pinning::cpu`].
    one: Mask,
    /// The highest-numbered CPU the process may run on (CPU 0 usually
    /// takes the device interrupts).
    pub cpu: usize,
}

impl Pinning {
    /// Read the process's mask and pin every thread to its highest CPU.
    /// `None` if the mask could not be read or set.
    pub fn pin_process() -> Option<Pinning> {
        let mut free = Mask([0u8; CPU_SET_BYTES]);
        // SAFETY: `free.0` is a writable buffer of exactly
        // `CPU_SET_BYTES` bytes, the size passed; pid 0 names the
        // calling thread.
        if unsafe { sched_getaffinity(0, CPU_SET_BYTES, free.0.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..CPU_SET_BYTES * 8).rev().find(|&c| free.0[c / 8] & (1 << (c % 8)) != 0)?;
        let mut one = Mask([0u8; CPU_SET_BYTES]);
        one.0[cpu / 8] = 1 << (cpu % 8);
        let p = Pinning { free, one, cpu };
        p.pin().then_some(p)
    }

    /// CPUs the process may use when unpinned.
    pub fn free_cpus(&self) -> u32 {
        self.free.0.iter().map(|b| b.count_ones()).sum()
    }

    pub fn pin(&self) -> bool {
        set_all_threads(&self.one)
    }

    pub fn unpin(&self) -> bool {
        set_all_threads(&self.free)
    }
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the process's resource counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    /// Voluntary context switches (blocking waits, parks).
    pub vol_csw: u64,
    /// Involuntary context switches (preemption).
    pub invol_csw: u64,
}

fn duration(t: Timeval) -> Duration {
    Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `Rusage` matches the kernel's `struct rusage` layout
        // on 64-bit Linux (two `timeval`s of two `i64`s, then fourteen
        // `long`s), `ru` is a valid, writable, exclusively borrowed
        // instance of it for the duration of the call, and
        // `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
        Usage {
            user: duration(ru.ru_utime),
            sys: duration(ru.ru_stime),
            vol_csw: ru.ru_nvcsw.max(0) as u64,
            invol_csw: ru.ru_nivcsw.max(0) as u64,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            vol_csw: self.vol_csw.saturating_sub(earlier.vol_csw),
            invol_csw: self.invol_csw.saturating_sub(earlier.invol_csw),
        }
    }

    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// Peak resident set size of this program so far, in KiB (`VmHWM`).
/// Unlike `getrusage`'s `ru_maxrss`, it starts afresh at `exec`, so a
/// launcher that execs this program (`cargo run`) is not counted.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = Usage::now();
        assert!(b.since(&a).cpu() > Duration::ZERO, "{x}");
        assert!(peak_rss_kib().is_some_and(|k| k > 0));
    }
}
