//! Core-clock calibration for the single-threaded workloads.
//!
//! The host's core clock is not constant: on the machine this benchmark
//! was written on it sits at a base rate and jumps up to 30 % higher for
//! anything from half a second to a whole run, depending on what the
//! other tenants of the physical CPU are doing. A CPU-bound
//! single-threaded workload follows it one to one, so its run-to-run
//! spread was 25–30 % whatever the window length — wider than any bound
//! a regression check could use.
//!
//! `sim_tree` and the coding workloads therefore measure the clock while
//! they run. Work alternates with a short dependent multiply–rotate
//! chain whose cost is a fixed number of core cycles per iteration; the
//! chain's rate over [`NOMINAL_RATE`] is how much faster than nominal
//! the core ran, and the work's wall time is multiplied by it. All
//! their time-based metrics are thus *time at the nominal clock*. A
//! clock 30 % off nominal then moves them by about 5 % (memory time
//! does not follow the core clock). The relay workloads run five
//! threads on both cores and spend half their time in the kernel; no
//! single thread's chain stands for them, and they report plain wall
//! time.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::LatencyHist;

/// Chain iterations per second at the nominal clock: the rate the host
/// the benchmark was written on sits at most of the time (it moves
/// between 5.0e8 and 8.2e8). On another host every normalised metric
/// scales by one common factor.
pub const NOMINAL_RATE: f64 = 6.3e8;

/// Work and calibration alternate in spans this long, so both see the
/// same mixture of clock states: the clock flips between neighbouring
/// steps within tens of milliseconds, and a calibration taken only
/// every 25 ms was as often wrong about the slice it stood for as right.
/// A fifth of a run goes into calibration.
const WORK_SPAN: Duration = Duration::from_millis(4);
const CHAIN_SPAN: Duration = Duration::from_millis(1);
/// Spans are summed over blocks this long and the block's work time is
/// scaled by the block's chain rate.
const BLOCK: Duration = Duration::from_millis(100);
const BURST_ITERS: u32 = 10_000;

/// `iters` dependent steps of multiply, rotate, xor: five cycles of
/// latency each on every x86-64 and AArch64 core of the last decade,
/// with no memory access, so its rate is the core clock.
fn chain(mut x: u64, iters: u32) -> u64 {
    for _ in 0..iters {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23) ^ 0x5851_F42D_4C95_7F2D;
    }
    x
}

/// Chain iterations and the seconds they took.
#[derive(Debug, Clone, Copy, Default)]
struct ChainRun {
    iters: u64,
    secs: f64,
}

impl ChainRun {
    /// Runs the chain for one [`CHAIN_SPAN`] and adds it to the total.
    fn run(&mut self) {
        let started = Instant::now();
        loop {
            black_box(chain(black_box(self.iters | 1), BURST_ITERS));
            self.iters += u64::from(BURST_ITERS);
            if started.elapsed() >= CHAIN_SPAN {
                break;
            }
        }
        self.secs += started.elapsed().as_secs_f64();
    }

    /// The core clock over nominal while the chain ran.
    fn scale(&self) -> f64 {
        self.iters as f64 / self.secs.max(1e-9) / NOMINAL_RATE
    }
}

/// The core clock relative to nominal, right now.
pub fn scale_now() -> f64 {
    let mut run = ChainRun::default();
    run.run();
    run.scale()
}

/// Times of one stretch of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Wall time spent in the work itself (calibration excluded).
    pub wall_s: f64,
    /// The same, at the nominal clock.
    pub nominal_s: f64,
}

impl Timed {
    /// Mean clock scale over the stretch.
    pub fn scale(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.nominal_s / self.wall_s
        } else {
            1.0
        }
    }
}

/// One measurement window of a single-threaded workload.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub timed: Timed,
    /// Units of work completed.
    pub units: u64,
    /// Process CPU time over the window, calibration included.
    pub cpu_s: f64,
    /// Wall time of the whole window, calibration included.
    pub elapsed_s: f64,
}

impl Window {
    /// Units per second at the nominal clock.
    pub fn rate(&self) -> f64 {
        self.units as f64 / self.timed.nominal_s.max(1e-12)
    }

    /// CPU microseconds per unit at the nominal clock. The calibration
    /// chain is pure CPU, so its wall time is taken off first.
    pub fn cpu_us_per_unit(&self) -> f64 {
        let work_cpu = (self.cpu_s - (self.elapsed_s - self.timed.wall_s)).max(0.0);
        work_cpu * self.timed.scale() * 1e6 / self.units.max(1) as f64
    }
}

/// Runs `setup` with the clock measured on both sides and returns what
/// it returned with its duration in seconds at the nominal clock.
pub fn timed_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let before = scale_now();
    let started = Instant::now();
    let built = setup();
    let wall = started.elapsed().as_secs_f64();
    (built, wall * (before + scale_now()) / 2.0)
}

/// Repeats `op` for `len` of wall time, alternating spans of work with
/// spans of calibration. Each call of `op` is timed on its own and
/// recorded in `hist` at the nominal clock (by the previous block's
/// scale, the latest known while the block runs).
pub fn repeat_for(len: Duration, hist: &mut LatencyHist, mut op: impl FnMut()) -> Timed {
    let end = Instant::now() + len;
    let mut timed = Timed::default();
    let mut scale = scale_now();
    loop {
        let block_start = Instant::now();
        if block_start >= end {
            return timed;
        }
        let block_end = (block_start + BLOCK).min(end);
        let mut work_s = 0.0;
        let mut calibration = ChainRun::default();
        let mut before = block_start;
        while before < block_end {
            let span_end = before + WORK_SPAN;
            let span_start = before;
            loop {
                op();
                let after = Instant::now();
                hist.record(((after - before).as_nanos() as f64 * scale) as u64);
                before = after;
                if after >= span_end {
                    break;
                }
            }
            work_s += (before - span_start).as_secs_f64();
            calibration.run();
            before = Instant::now();
        }
        scale = calibration.scale();
        timed.wall_s += work_s;
        timed.nominal_s += work_s * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_depends_on_every_step() {
        assert_ne!(chain(1, 10), chain(1, 11));
        assert_ne!(chain(1, 10), chain(2, 10));
    }

    #[test]
    fn scale_is_a_plausible_clock_ratio() {
        let s = scale_now();
        assert!(s > 0.05 && s < 20.0, "{s}");
    }

    #[test]
    fn repeat_for_accounts_work_time_at_both_clocks() {
        let mut hist = LatencyHist::default();
        let mut calls = 0u64;
        let t = repeat_for(Duration::from_millis(60), &mut hist, || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(1));
        });
        assert_eq!(hist.count(), calls);
        // Four fifths of the time is work, one fifth calibration.
        assert!(
            calls >= 20 && t.wall_s >= 0.035 && t.wall_s < 0.5,
            "{calls} calls, {t:?}"
        );
        assert!((t.scale() - t.nominal_s / t.wall_s).abs() < 1e-12);
        assert_eq!(Timed::default().scale(), 1.0);
    }

    #[test]
    fn window_rates_use_the_nominal_clock() {
        let w = Window {
            timed: Timed {
                wall_s: 1.0,
                nominal_s: 1.25, // the core ran 25 % above nominal
            },
            units: 1_000,
            cpu_s: 1.1,
            elapsed_s: 1.1, // 0.1 s of calibration
        };
        assert!((w.rate() - 800.0).abs() < 1e-9);
        assert!((w.cpu_us_per_unit() - 1_250.0).abs() < 1e-6);
    }

    #[test]
    fn timed_setup_returns_the_value_and_a_positive_time() {
        let (v, s) = timed_setup(|| 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
    }
}
