//! How one run's measurement time is cut into windows.

use std::time::Duration;

use crate::stats::Windows;
use crate::Opts;

/// A run measures six equal windows. A traced run traces every second
/// one, so the cost of tracing is measured inside one run, against the
/// same warmed-up program, and end-to-end numbers never come from
/// traced windows.
pub const WINDOWS: usize = 6;

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub windows: usize,
    pub window_len: Duration,
    trace: bool,
}

impl Plan {
    pub fn new(opts: &Opts) -> Self {
        Self {
            windows: WINDOWS,
            window_len: Duration::from_secs_f64(opts.seconds as f64 / WINDOWS as f64),
            trace: opts.trace,
        }
    }

    pub fn traced(&self, window: usize) -> bool {
        self.trace && window % 2 == 1
    }

    /// Indices of the traced (or untraced) windows.
    pub fn indices(&self, traced: bool) -> impl Iterator<Item = usize> + '_ {
        (0..self.windows).filter(move |&i| self.traced(i) == traced)
    }

    /// `f(window)` of every traced (or untraced) window.
    pub fn of_windows<T>(&self, windows: &[T], traced: bool, f: impl Fn(&T) -> f64) -> Windows {
        Windows(self.indices(traced).map(|i| f(&windows[i])).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(trace: bool) -> Opts {
        Opts {
            seed: 1,
            seconds: 12,
            trace,
        }
    }

    #[test]
    fn untraced_run_has_six_untraced_windows() {
        let p = Plan::new(&opts(false));
        assert_eq!(p.indices(false).count(), 6);
        assert_eq!(p.indices(true).count(), 0);
        assert_eq!(p.window_len, Duration::from_secs(2));
    }

    #[test]
    fn traced_run_alternates() {
        let p = Plan::new(&opts(true));
        assert_eq!(p.indices(false).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(p.indices(true).collect::<Vec<_>>(), vec![1, 3, 5]);
        let windows = [0.0, 1.0, 3.0, 6.0, 10.0, 15.0];
        assert_eq!(
            p.of_windows(&windows, false, |w| *w).0,
            vec![0.0, 3.0, 10.0]
        );
        assert_eq!(p.of_windows(&windows, true, |w| *w).0, vec![1.0, 6.0, 15.0]);
    }
}
