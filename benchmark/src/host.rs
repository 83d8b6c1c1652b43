//! The two things the benchmark asks of the host's operating system: one
//! CPU to itself, and a clock that counts only the time the process ran.
//!
//! **One CPU.**  A run pins itself to a single CPU of those it may use
//! before it first calls into the engine, so `available_parallelism` is 1
//! and every operation runs on the calling thread.  On the 2-vCPU sizing
//! host an operation fanned out over both vCPUs waits for the slower of the
//! two, and the same operations measured both ways were faster on one CPU
//! and about half as noisy.  What the fan-out itself costs is measured by
//! the `shard.*` probes of the traced run.
//!
//! **CPU time.**  The sizing host's hypervisor withholds between nothing
//! and a tenth of the vCPU's time, minutes on end (`steal` in
//! `/proc/stat`).  The guest kernel leaves withheld time out of a process's
//! CPU time, so timed spans read `CLOCK_PROCESS_CPUTIME_ID`: user and
//! system time of every thread of the process.  Pinned to one CPU, with an
//! engine that never sleeps, that is the wall time the span would take on a
//! host that leaves the process alone.  It is blind to waiting — a sleep, a
//! blocking read, a lock held by a descheduled thread — so every span also
//! reads the wall clock and the traced run reports the ratio of the two
//! (`bench.wall_per_cpu`).  `README.md` ("One CPU, CPU time, reference
//! speed") has the measurements behind both choices.

use std::time::Duration;

/// Pin the calling thread — and every thread it spawns later — to the
/// highest-numbered CPU it is allowed to run on.  Returns that CPU, or
/// `None` where the platform has no such call or the call fails; the run
/// then goes on unpinned and says so in its result file.
pub fn pin_to_one_cpu() -> Option<usize> {
    imp::pin_to_one_cpu()
}

/// CPU time this process has used so far, all threads together; `None`
/// where the platform has no such clock (callers fall back to wall time).
pub fn cpu_time() -> Option<Duration> {
    imp::cpu_time()
}

/// The clock timed spans read: [`cpu_time`], or the wall time since the
/// first call where the host has no CPU clock.
pub fn clock() -> Duration {
    static ORIGIN: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    cpu_time().unwrap_or_else(|| ORIGIN.get_or_init(std::time::Instant::now).elapsed())
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod imp {
    use std::time::Duration;

    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    // std links the C library on Linux, so its symbols resolve without a
    // `libc` crate, which the offline workspace does not have.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }

    /// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
        if got != 0 {
            return None;
        }
        let word = allowed.iter().rposition(|&w| w != 0)?;
        let bit = 63 - allowed[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly the byte length passed
        // and is only read; pid 0 names the calling thread.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (set == 0).then_some(word * 64 + bit)
    }

    pub fn cpu_time() -> Option<Duration> {
        let mut now = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `now` is a live, writable `timespec` with the layout the
        // 64-bit Linux C library expects.
        let got = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
        (got == 0).then(|| Duration::new(now.sec as u64, now.nsec as u32))
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }

    pub fn cpu_time() -> Option<std::time::Duration> {
        None
    }
}

#[cfg(test)]
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu() {
        // On its own thread: the test harness's other threads stay free.
        let cpus = std::thread::spawn(|| {
            pin_to_one_cpu().map(|_| std::thread::available_parallelism().map_or(0, |n| n.get()))
        })
        .join()
        .expect("the pinning thread does not panic");
        assert_eq!(cpus, Some(1));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time().expect("Linux has the clock");
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..20_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let worked = cpu_time().expect("Linux has the clock") - before;
        assert!(worked > Duration::from_millis(5), "{worked:?}");
    }
}
