//! `/proc/self` readers: CPU time, threads, memory, context switches.

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 on every
/// Linux ABI this benchmark runs on. `stat` times are only used where
/// tick resolution is enough: the user/system split and whole-thread
/// totals. Per-window CPU time comes from [`cpu_s`].
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stat {
    pub user_s: f64,
    pub system_s: f64,
    pub threads: u64,
}

impl Stat {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.system_s
    }
}

/// Parses one `stat` line. The `comm` field may hold spaces and
/// parentheses, so fields are counted from after the last `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `comm`: state is field 0, utime 11, stime 12, num_threads 17.
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(Stat {
        user_s: ticks(11)? as f64 / TICKS_PER_SEC,
        system_s: ticks(12)? as f64 / TICKS_PER_SEC,
        threads: ticks(17)?,
    })
}

/// The fields of `/proc/<pid>/status` (or a task's) the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    pub vm_hwm_kb: u64,
    pub vm_rss_kb: u64,
    pub voluntary_ctx: u64,
    pub nonvoluntary_ctx: u64,
}

pub fn parse_status(text: &str) -> Status {
    let field = |key: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Status {
        vm_hwm_kb: field("VmHWM:"),
        vm_rss_kb: field("VmRSS:"),
        voluntary_ctx: field("voluntary_ctxt_switches:"),
        nonvoluntary_ctx: field("nonvoluntary_ctxt_switches:"),
    }
}

/// Process CPU time and thread count right now.
pub fn stat() -> Stat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

/// CPU time the calling thread has used since it started.
pub fn thread_cpu_s() -> f64 {
    fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0.0, |s| s.cpu_s())
}

/// CPU time of the process's live threads from the scheduler's own
/// nanosecond accounting (`schedstat`), in seconds. `stat`'s user and
/// system times are sampled at the 10 ms tick: over a 2 s window that is
/// ±5 % of noise on a busy process and 5 % steps on a mostly idle one.
/// Threads that have exited are not counted; the measured threads live
/// through their window. Falls back to `stat` where `schedstat` is not
/// compiled in.
pub fn cpu_s() -> f64 {
    let ns: u64 = fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|text| parse_schedstat(&text))
        .sum();
    if ns > 0 {
        ns as f64 / 1e9
    } else {
        stat().cpu_s()
    }
}

/// On-CPU nanoseconds, the first field of a `schedstat` line.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Process memory figures right now.
pub fn status() -> Status {
    fs::read_to_string("/proc/self/status")
        .map(|t| parse_status(&t))
        .unwrap_or_default()
}

/// Context switches (voluntary + involuntary) summed over the live
/// threads of this process. Threads that already exited are not
/// counted; the relay's threads live for the whole measurement.
pub fn ctx_switches_all_tasks() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|text| {
            let s = parse_status(&text);
            s.voluntary_ctx + s.nonvoluntary_ctx
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_hostile_comm() {
        let line = "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 567 0 0 20 0 7 0 100 1000000 250 18446744073709551615";
        let s = parse_stat(line).expect("parses");
        assert_eq!(s.threads, 7);
        assert!((s.user_s - 12.34).abs() < 1e-9);
        assert!((s.system_s - 5.67).abs() < 1e-9);
        assert!((s.cpu_s() - 18.01).abs() < 1e-9);
        assert!(parse_stat("no paren here").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn status_fields() {
        let text = "Name:\tbench\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t5\n\
                    voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        let s = parse_status(text);
        assert_eq!(
            s,
            Status {
                vm_hwm_kb: 20480,
                vm_rss_kb: 10240,
                voluntary_ctx: 12,
                nonvoluntary_ctx: 3
            }
        );
        assert_eq!(parse_status(""), Status::default());
    }

    #[test]
    fn schedstat_first_field() {
        assert_eq!(parse_schedstat("502830 66452 2\n"), Some(502_830));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn live_readers_return_something() {
        assert!(cpu_s() > 0.0);
        assert!(stat().threads >= 1);
        assert!(status().vm_hwm_kb > 0);
        assert!(ctx_switches_all_tasks() > 0 || cfg!(not(target_os = "linux")));
    }
}
