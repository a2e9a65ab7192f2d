//! `run` and `repeat`: whole sets of workloads, each in its own child
//! process so that peak memory, CPU time and thread counts belong to
//! that workload alone.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::spec;
use crate::stats::Better;
use crate::Opts;

/// The metrics one child printed on its result line.
type Metrics = BTreeMap<String, f64>;

/// Runs one workload in a child process, passing its output through,
/// and returns the metrics of its result line; `None` if it failed.
fn child(workload: &str, opts: &Opts) -> Option<Metrics> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, result) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    if !output.status.success() {
        println!("{result}");
        return None;
    }
    parse_result(result)
}

/// Parses a result line: `Some` only for a correct run.
fn parse_result(line: &str) -> Option<Metrics> {
    let v: serde_json::Value = serde_json::from_str(line).ok()?;
    if v["correct"].as_bool() != Some(true) {
        return None;
    }
    v["metrics"]
        .as_object()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
        .collect()
}

/// `run`: every workload once. Fails if any workload does.
pub fn run_set(workloads: &[&'static str], opts: &Opts) -> ExitCode {
    let failed: Vec<_> = workloads
        .iter()
        .filter(|w| child(w, opts).is_none())
        .collect();
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {failed:?}");
        ExitCode::FAILURE
    }
}

/// By how much `second` is worse than `first`, as a share of `first`;
/// negative when it is better.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let base = first.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Higher => (first - second) / base,
        Better::Lower => (second - first) / base,
    }
}

/// `repeat`: the untraced set twice on this build; per workload and
/// end-to-end metric both values, the relative difference, and whether
/// the second stayed within the metric's bound of the first. This is
/// the evidence that the benchmark repeats, and the tool to run before
/// claiming that a change moved anything.
pub fn repeat(workloads: &[&'static str], opts: &Opts) -> ExitCode {
    let opts = Opts {
        trace: false,
        ..*opts
    };
    let mut sets = Vec::new();
    for round in 0..2u64 {
        // Another seed per set, as the driver does between its runs.
        let opts = Opts {
            seed: opts.seed + round,
            ..opts
        };
        let mut set = BTreeMap::new();
        for &w in workloads {
            match child(w, &opts) {
                Some(metrics) => set.insert(w, metrics),
                None => {
                    eprintln!("{w} failed in set {}", round + 1);
                    return ExitCode::FAILURE;
                }
            };
        }
        sets.push(set);
    }
    println!(
        "\n{:<16} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "set 1", "set 2", "worse", "bound"
    );
    let mut all_within = true;
    for &w in workloads {
        for (m, bound) in spec::END_TO_END {
            let (a, b) = (sets[0][w][m.name], sets[1][w][m.name]);
            let worse = worsening(m.better, a, b);
            let within = worse <= *bound;
            all_within &= within;
            println!(
                "{w:<16} {:<20} {a:>14.4} {b:>14.4} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                worse * 100.0,
                bound * 100.0,
                if within { "within" } else { "OUTSIDE" }
            );
        }
    }
    if all_within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Lower, 100.0, 90.0) < 0.0);
    }

    #[test]
    fn result_line_round_trip() {
        let line = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.25, "unit": "s"}}}"#;
        let m = parse_result(line).expect("parses");
        assert_eq!(m["setup_s"], 0.25);
        assert!(
            parse_result(&line.replace("true", "false")).is_none(),
            "incorrect runs carry no metrics"
        );
        assert!(parse_result("not json").is_none());
    }
}
