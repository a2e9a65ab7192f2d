//! The repository's benchmark: six workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from traced runs. See README.md.
//!
//! ```text
//! ioverlay-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//! ioverlay-benchmark run    [--seed N] [--seconds S] [--traced] [--workload W]
//! ioverlay-benchmark repeat [--seed N] [--seconds S]
//! ioverlay-benchmark spec
//! ```

mod clock;
mod coding;
mod payload;
mod plan;
mod probes;
mod procfs;
mod relay;
mod repeat;
mod report;
mod sim;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use relay::{Loop, Pacing, RelayWorkload};
use report::Outcome;
use trace::TraceFile;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Seconds of measurement (warm-up and set-up come on top).
    pub seconds: u64,
    pub trace: bool,
}

fn run_workload(name: &'static str, opts: &Opts, file: &mut TraceFile) -> std::io::Result<Outcome> {
    let closed = |payload, outstanding| RelayWorkload {
        payload,
        load: Loop::Closed { outstanding },
    };
    Ok(match name {
        // Outstanding messages: enough to keep the relay's two
        // 1024-message queues busy, few enough (360 KB and 8 MB on the
        // wire) that the loop, not a socket buffer, bounds the backlog.
        "relay_small" => relay::run(name, closed(64, 4096), opts, file)?,
        "relay_large" => relay::run(name, closed(16 * 1024, 512), opts, file)?,
        "relay_paced" => {
            let pacing = Pacing {
                tick: Duration::from_millis(1),
                per_tick: 20,
            };
            let load = Loop::Open(pacing);
            relay::run(name, RelayWorkload { payload: 256, load }, opts, file)?
        }
        "sim_tree" => sim::run(opts, file),
        "coding_lossfree" => coding::run(name, 0.0, opts, file),
        "coding_lossy" => coding::run(name, 0.10, opts, file),
        _ => unreachable!("workload names are checked against the spec"),
    })
}

/// Where a traced run leaves its Chrome trace: beside the benchmark's
/// sources, inside the checkout.
fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// Set in the environment of the second attempt after an invalid run.
const RETRY_MARK: &str = "IOVERLAY_BENCHMARK_RETRY";

/// One workload, one process: the driver's entry point. Prints every
/// metric, then the result line.
fn single(name: &'static str, opts: &Opts) -> ExitCode {
    let mut file = TraceFile::default();
    let mut outcome = match run_workload(name, opts, &mut file) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // A run the load generator limited says nothing about the program:
    // measure once more before giving up — in a fresh process, so that
    // this attempt's memory does not show in the next one's.
    if let (Some(why), None) = (&outcome.invalid, std::env::var_os(RETRY_MARK)) {
        eprintln!("{name}: invalid run ({why}), measuring again");
        let again = std::env::current_exe().and_then(|exe| {
            Command::new(exe)
                .args(std::env::args_os().skip(1))
                .env(RETRY_MARK, "1")
                .status()
        });
        return match again {
            Ok(status) => ExitCode::from(status.code().unwrap_or(1) as u8),
            Err(e) => {
                eprintln!("{name}: cannot run again: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.trace {
        probes::all(&mut outcome, &mut file);
        let (large, small) = (
            outcome.get("simnet.ns_per_hop_msg"),
            outcome.get("simnet.small_ns_per_hop_msg"),
        );
        if small > 0.0 {
            outcome.set("simnet.scale_penalty", large / small);
        }
        let path = trace_path(name);
        match file.write_chrome(&path) {
            Ok(()) => println!(
                "{name:<16} {} spans written to {}",
                file.span_count(),
                path.display()
            ),
            Err(e) => {
                eprintln!("{name}: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome.print(name, spec::PER_LAYER.iter());
    } else {
        outcome.print(name, spec::END_TO_END.iter().map(|(m, _)| m));
    }
    ExitCode::from(outcome.exit_code() as u8)
}

struct Cli {
    command: Option<String>,
    workload: Option<&'static str>,
    opts: Opts,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: spec::RUN_SECONDS,
            trace: false,
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = spec::WORKLOADS.iter().find(|w| w.name == name.as_str());
                cli.workload = Some(known.ok_or(format!("unknown workload {name}"))?.name);
            }
            "--seed" => {
                cli.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                cli.opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&cli.opts.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--trace" => cli.opts.trace = value("0 or 1")? == "1",
            "--traced" => cli.opts.trace = true,
            "run" | "repeat" | "spec" if cli.command.is_none() => cli.command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\nusage: --workload W [--seed N] [--seconds S] [--trace 0|1] | run | repeat | spec");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&'static str> = match cli.workload {
        Some(w) => vec![w],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    match (cli.command.as_deref(), cli.workload) {
        (None, Some(w)) => single(w, &cli.opts),
        (Some("spec"), _) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        (Some("run"), _) => repeat::run_set(&workloads, &cli.opts),
        (Some("repeat"), _) => repeat::repeat(&workloads, &cli.opts),
        _ => {
            eprintln!("give --workload W, or one of: run, repeat, spec");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_command_line() {
        let cli =
            parse(&args("--workload sim_tree --seed 42 --seconds 7 --trace 1")).expect("parses");
        assert_eq!(cli.workload, Some("sim_tree"));
        assert_eq!(
            (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
            (42, 7, true)
        );
        assert!(cli.command.is_none());
        assert!(
            !parse(&args("--workload sim_tree --trace 0"))
                .expect("parses")
                .opts
                .trace
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("frobnicate")).is_err());
        assert_eq!(
            parse(&args("repeat --seed 3"))
                .expect("parses")
                .command
                .as_deref(),
            Some("repeat")
        );
    }
}
