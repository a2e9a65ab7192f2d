//! Process-resource helpers. For the link-count scaling benchmarks:
//! raising `RLIMIT_NOFILE` (10k links cost ~20k fds across both socket
//! ends, exceeding the common 1024/4096 soft limits) and boosting
//! thread scheduling priority (measurement threads starve behind
//! ten-thousand-thread workloads). For the engine: how much freed heap
//! the allocator keeps before it hands pages back to the kernel.

use std::io;

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(not(target_os = "linux"))]
const RLIMIT_NOFILE: i32 = 8;

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Raises the soft `RLIMIT_NOFILE` toward `want` fds (capped at the
/// hard limit; privileged processes may raise the hard limit too).
/// Returns the soft limit now in effect.
///
/// # Errors
///
/// The underlying `getrlimit`/`setrlimit` error if the limit could not
/// even be read; a partially satisfied raise is success.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live, properly laid-out rlimit the kernel
    // fills in.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= want {
        return Ok(lim.rlim_cur);
    }
    // First try within the hard limit, then (if privileged) above it.
    let tries = [want.min(lim.rlim_max), want.max(lim.rlim_max)];
    for target in tries {
        let req = Rlimit {
            rlim_cur: target,
            rlim_max: lim.rlim_max.max(target),
        };
        // SAFETY: passing a live, properly laid-out rlimit by pointer.
        if unsafe { setrlimit(RLIMIT_NOFILE, &req) } == 0 {
            lim.rlim_cur = target;
            lim.rlim_max = req.rlim_max;
            if target >= want {
                break;
            }
        }
    }
    Ok(lim.rlim_cur)
}

const PRIO_PROCESS: i32 = 0;

extern "C" {
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Sets the calling **thread**'s nice value — on Linux,
/// `setpriority(PRIO_PROCESS, 0, …)` applies to the calling thread,
/// not the whole process. Benchmark sampler threads use a negative
/// value to keep reading `/proc` on schedule while ten thousand
/// runnable worker threads would otherwise starve an ordinary-priority
/// thread for entire measure windows.
///
/// # Errors
///
/// The OS error if the priority could not be set (negative values need
/// `CAP_SYS_NICE`); callers should treat failure as a degraded
/// measurement, not a fatal condition.
pub fn set_thread_priority(nice: i32) -> io::Result<()> {
    // SAFETY: plain syscall on immediate arguments; no memory handed
    // to the kernel.
    if unsafe { setpriority(PRIO_PROCESS, 0, nice) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// glibc's `M_TRIM_THRESHOLD` (`malloc.h`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_TRIM_THRESHOLD: i32 = -1;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Lets every malloc arena keep up to `bytes` of freed memory at its top
/// before returning pages to the kernel (glibc's `M_TRIM_THRESHOLD`,
/// 128 KiB by default and otherwise moved only by the sizes of large
/// blocks the process happens to free). Process-wide; returns whether
/// the allocator took the value (`false` on allocators without the
/// knob, which is harmless).
pub fn set_malloc_trim_threshold(bytes: usize) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        let value = i32::try_from(bytes).unwrap_or(i32::MAX);
        // SAFETY: plain libc call on immediate arguments; glibc takes
        // its own lock and the setting affects no memory in use.
        unsafe { mallopt(M_TRIM_THRESHOLD, value) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = bytes;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_threshold_is_taken_where_the_knob_exists() {
        let taken = set_malloc_trim_threshold(16 << 20);
        assert_eq!(taken, cfg!(all(target_os = "linux", target_env = "gnu")));
    }

    #[test]
    fn set_thread_priority_to_current_level_succeeds() {
        // Nice 0 → a no-op or a lowering, both always permitted.
        set_thread_priority(0).expect("set own thread priority");
    }

    #[test]
    fn raise_never_lowers_the_limit() {
        let a = raise_nofile_limit(1024).expect("read limit");
        assert!(a > 0);
        let b = raise_nofile_limit(1024).expect("read limit again");
        assert!(b >= a.min(1024));
    }
}
