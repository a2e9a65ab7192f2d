//! What a workload run produces and how it is printed.

use std::collections::BTreeMap;

use crate::spec::{self, MetricSpec};
use crate::stats::{median, LatencyHist, Windows};

/// One metric's reported value, with the per-window values it was
/// chosen from when the metric is windowed.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub value: f64,
    pub windows: Option<Windows>,
    /// Printed after the value: sample counts, unsupported percentiles.
    pub note: String,
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (messages sent, generations coded, hop
    /// messages simulated) and how many of them failed their check.
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, Measured>,
    /// Set when the load generator, not the program, limited the run.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.values.insert(
            name,
            Measured {
                value,
                windows: None,
                note,
            },
        );
    }

    /// Records a windowed metric: the best window is the value.
    pub fn set_windows(&mut self, name: &'static str, windows: Windows) {
        let better = spec::end_to_end(name)
            .map(|(m, _)| m.better)
            .or_else(|| {
                spec::PER_LAYER
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.better)
            })
            .unwrap_or_else(|| panic!("{name} is not in the spec"));
        self.values.insert(
            name,
            Measured {
                value: windows.best(better),
                windows: Some(windows),
                note: String::new(),
            },
        );
    }

    /// Both goodput metrics from the per-window rate of units of work,
    /// each carrying `payload_bytes` of payload.
    pub fn set_goodput(&mut self, units_per_s: Windows, payload_bytes: usize) {
        let mb = units_per_s.0.iter().map(|r| r * payload_bytes as f64 / 1e6);
        self.set_windows("goodput_mb_per_s", Windows(mb.collect()));
        self.set_windows("goodput_msgs_per_s", units_per_s);
    }

    /// Both latency metrics from the per-window histograms (`hists`
    /// holds the windows to report, in nanoseconds). The note gives
    /// the smallest window's sample count and says so when a window has
    /// fewer than ten samples beyond its p99.
    pub fn set_latency(&mut self, hists: &[&LatencyHist], what: &str) {
        let quantiles = |q: f64| {
            let us = hists
                .iter()
                .filter_map(|h| h.quantile_ns(q))
                .map(|ns| ns / 1e3);
            Windows(us.collect())
        };
        self.set_windows("latency_p50_us", quantiles(0.50));
        self.set_windows("latency_p99_us", quantiles(0.99));
        let fewest = hists.iter().map(|h| h.count()).min().unwrap_or(0);
        let thin = if hists.iter().all(|h| h.supports(0.99)) {
            ""
        } else {
            "; fewer than 10 beyond p99"
        };
        if let Some(m) = self.values.get_mut("latency_p99_us") {
            m.note = format!("(>= {fewest} {what} per window{thin})");
        }
    }

    /// `setup_s` as the median of the run's set-ups.
    pub fn set_setup(&mut self, setups_s: &[f64]) {
        self.set_noted(
            "setup_s",
            median(setups_s),
            format!("(median of {} set-ups)", setups_s.len()),
        );
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Exit code of the command for this outcome: any failed check or
    /// an invalid run is an error.
    pub fn exit_code(&self) -> i32 {
        if self.correct() && self.invalid.is_none() {
            0
        } else {
            1
        }
    }

    /// Prints every metric of `specs` by name with its unit, then the
    /// result line the driver reads: one JSON object, last on stdout.
    pub fn print<'a>(&self, workload: &str, specs: impl Iterator<Item = &'a MetricSpec>) {
        let mut metrics = serde_json::Map::new();
        for m in specs {
            let measured = self.values.get(m.name).cloned().unwrap_or_default();
            let spread = measured.windows.as_ref().map_or(String::new(), |w| {
                format!(
                    "  [windows min {:.4} median {:.4} max {:.4}]",
                    w.min(),
                    w.median(),
                    w.max()
                )
            });
            println!(
                "{workload:<16} {:<40} {:>16.4} {:<6}{spread} {}",
                m.name, measured.value, m.unit, measured.note
            );
            metrics.insert(
                m.name.to_string(),
                serde_json::json!({"value": measured.value, "unit": m.unit}),
            );
        }
        if let Some(why) = &self.invalid {
            println!("{workload:<16} INVALID RUN: {why}");
        }
        println!(
            "{workload:<16} attempted {} failed {} ({})",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
        println!(
            "{}",
            serde_json::json!({
                "correct": self.correct(),
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": serde_json::Value::Object(metrics),
            })
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_failure_is_a_nonzero_exit() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        assert_eq!(o.exit_code(), 0);
        o.failed = 1;
        assert_eq!(o.exit_code(), 1);
        o.failed = 0;
        o.invalid = Some("writer was the bottleneck".into());
        assert_eq!(o.exit_code(), 1);
        assert_eq!(
            Outcome::default().exit_code(),
            1,
            "nothing attempted is not a pass"
        );
    }

    #[test]
    fn windowed_metric_reports_its_best_window() {
        let mut o = Outcome::default();
        o.set_windows("goodput_msgs_per_s", Windows(vec![1.0, 3.0, 2.0]));
        o.set_windows("latency_p50_us", Windows(vec![1.0, 3.0, 2.0]));
        assert_eq!(o.get("goodput_msgs_per_s"), 3.0);
        assert_eq!(o.get("latency_p50_us"), 1.0);
        assert_eq!(o.get("missing"), 0.0);
    }

    #[test]
    fn goodput_latency_and_setup_helpers() {
        let mut o = Outcome::default();
        o.set_goodput(Windows(vec![1_000.0, 2_000.0]), 500);
        assert_eq!(
            (o.get("goodput_msgs_per_s"), o.get("goodput_mb_per_s")),
            (2_000.0, 1.0)
        );
        let (mut fast, mut slow) = (LatencyHist::default(), LatencyHist::default());
        (0..2_000).for_each(|_| fast.record(1_000));
        (0..50).for_each(|_| slow.record(9_000));
        o.set_latency(&[&fast, &slow], "samples");
        assert!(
            (o.get("latency_p50_us") - 1.0).abs() < 0.02,
            "the best window's"
        );
        assert_eq!(
            o.values["latency_p99_us"].note,
            "(>= 50 samples per window; fewer than 10 beyond p99)"
        );
        o.set_setup(&[3.0, 1.0, 2.0]);
        assert_eq!(o.get("setup_s"), 2.0);
    }
}
