//! Stackful fibers for the simulated cores.
//!
//! [`crate::run_spmd`] runs every core of a run as a fiber on the
//! calling thread: a private stack plus a saved stack pointer. Exactly
//! one context — the caller or one core — runs at any instant, and
//! control moves between them only through [`switch`], which pushes
//! the running context's callee-saved registers onto its own stack,
//! stores its stack pointer and resumes another context. A baton
//! handoff is therefore a user-space stack switch of a few dozen
//! instructions, not an OS thread switch.
//!
//! Stacks come from `mmap`, so pages a core never touches cost nothing,
//! and each has a `PROT_NONE` guard page below it: a core that recurses
//! without bound dies by signal instead of overwriting its neighbour's
//! stack. A per-thread free list reuses stacks across runs.

use std::cell::RefCell;
use std::ffi::c_void;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "scc-sim's fibers are written for x86_64 Linux: port `handoff::switch`, \
     `handoff::trampoline`, the frame built by `handoff::prepare` and the \
     mmap constants to this target"
);

/// Usable bytes per fiber stack: std's default for a spawned thread.
const STACK_BYTES: usize = 2 << 20;
/// Guard region below each stack: one x86_64 base page. Rust probes
/// every page of a large frame in order, so an overflow always lands
/// here first.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

// The C library std already links.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One fiber stack: a private anonymous mapping whose lowest
/// [`GUARD_BYTES`] are inaccessible.
pub(crate) struct Stack {
    base: *mut c_void,
    len: usize,
}

impl Stack {
    fn map() -> Stack {
        let len = STACK_BYTES + GUARD_BYTES;
        // SAFETY: a fresh anonymous mapping at an address of the
        // kernel's choosing touches no existing memory.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(base != MAP_FAILED, "mmap of a {len}-byte fiber stack failed");
        // SAFETY: `base` starts the mapping made above, which is longer
        // than the guard.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(rc == 0, "mprotect of a fiber stack's guard page failed");
        Stack { base, len }
    }

    /// One past the highest usable byte.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + len` is the end of this stack's mapping.
        unsafe { self.base.cast::<u8>().add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this stack's own, and a `Stack` is
        // dropped only when no suspended context lives on it. A failed
        // unmap merely leaks address space.
        unsafe { munmap(self.base, self.len) };
    }
}

static SPAWNED: AtomicU64 = AtomicU64::new(0);
static REUSED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// A stack for one core fiber: from this thread's free list, or newly
/// mapped.
pub(crate) fn lease() -> Stack {
    match FREE.with(|f| f.borrow_mut().pop()) {
        Some(s) => {
            REUSED.fetch_add(1, Ordering::Relaxed);
            s
        }
        None => {
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            Stack::map()
        }
    }
}

/// Return a stack whose fiber has exited to this thread's free list.
/// During thread teardown the list may be gone; the stack is then
/// unmapped.
pub(crate) fn release(stack: Stack) {
    let mut stack = Some(stack);
    let _ = FREE.try_with(|f| f.borrow_mut().extend(stack.take()));
}

/// Lifetime stack counters, reported in `BENCH_engine.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fiber stacks ever mapped (free-list misses).
    pub spawned: u64,
    /// Fiber stacks served from a free list.
    pub reused: u64,
}

/// Read the current stack counters (summed over all threads).
pub fn pool_stats() -> PoolStats {
    PoolStats { spawned: SPAWNED.load(Ordering::Relaxed), reused: REUSED.load(Ordering::Relaxed) }
}

/// Saved stack pointer of a suspended context.
pub(crate) type Sp = *mut u8;

/// Save the running context and resume another one.
///
/// Pushes rbp, rbx, r12–r15, MXCSR and the x87 control word — the
/// state the SysV ABI makes the callee preserve — stores the resulting
/// stack pointer in `*save`, loads `resume` and pops the same frame
/// from there. Returns when some later `switch` resumes `*save`.
///
/// # Safety
///
/// `save` must be valid for a write. `resume` must come from an
/// earlier `switch` or from [`prepare`], must not have been resumed
/// since, and its stack must still be mapped.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut Sp, resume: Sp) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First code a new fiber runs: `switch` returns here with the frame
/// [`prepare`] built, which parks the entry point in r12 and its
/// argument in rbx. The entry never returns.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    std::arch::naked_asm!("mov rdi, rbx", "call r12", "ud2")
}

/// A fiber's body: runs on the fiber's stack and must switch away for
/// good instead of returning.
pub(crate) type Entry = unsafe extern "C" fn(*mut c_void) -> !;

/// Build the initial frame on `stack`: the first [`switch`] to the
/// returned stack pointer calls `entry(arg)` on that stack.
pub(crate) fn prepare(stack: &Stack, entry: Entry, arg: *mut c_void) -> Sp {
    // From the returned stack pointer upwards: MXCSR and x87 control
    // word (the values a new thread starts with), r15, r14, r13,
    // r12 = entry, rbx = arg, rbp = 0 (ends frame-pointer walks), the
    // return address into `trampoline`, and two zero words that put the
    // trampoline's `call` on a 16-byte boundary.
    const MXCSR: u64 = 0x1F80;
    const X87_CW: u64 = 0x037F;
    let frame: [u64; 10] = [
        MXCSR | X87_CW << 32,
        0,
        0,
        0,
        entry as usize as u64,
        arg as usize as u64,
        0,
        trampoline as *const () as usize as u64,
        0,
        0,
    ];
    let top = (stack.top() as usize) & !15;
    let sp = (top - std::mem::size_of_val(&frame)) as *mut u64;
    // SAFETY: the frame's 80 bytes lie at the top of the stack's
    // writable region, which no context uses yet.
    unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
    sp.cast()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Two contexts and the value they pass back and forth.
    struct PingPong {
        main: Cell<Sp>,
        fiber: Cell<Sp>,
        value: Cell<u64>,
    }

    /// Adds each value it is handed to a running sum kept in a local,
    /// which must survive every switch, and hands the sum back.
    unsafe extern "C" fn accumulate(arg: *mut c_void) -> ! {
        // SAFETY: the test passes a `PingPong` that outlives the fiber.
        let pp = unsafe { &*arg.cast::<PingPong>() };
        let mut sum = 0u64;
        loop {
            sum += pp.value.get();
            pp.value.set(sum);
            // SAFETY: the test is suspended in its own `switch` to us.
            unsafe { switch(pp.fiber.as_ptr(), pp.main.get()) };
        }
    }

    #[test]
    fn switch_round_trips_between_fibers() {
        let stack = lease();
        let pp = PingPong {
            main: Cell::new(std::ptr::null_mut()),
            fiber: Cell::new(std::ptr::null_mut()),
            value: Cell::new(0),
        };
        let arg = std::ptr::from_ref(&pp).cast_mut().cast::<c_void>();
        pp.fiber.set(prepare(&stack, accumulate, arg));
        for i in 1..=100u64 {
            pp.value.set(i);
            // SAFETY: the fiber is freshly prepared or suspended in its
            // loop, and its stack is mapped until `release` below.
            unsafe { switch(pp.main.as_ptr(), pp.fiber.get()) };
            assert_eq!(pp.value.get(), i * (i + 1) / 2);
        }
        // The fiber stays suspended for good; it owns nothing to drop.
        release(stack);
    }

    #[test]
    fn free_list_reuses_stacks_on_this_thread() {
        let a = lease();
        let base = a.base;
        release(a);
        let b = lease();
        assert_eq!(b.base, base, "a released stack must be leased again");
        release(b);
    }
}
