//! The repository's benchmark: one workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_hot [--seed 7] [--seconds 20] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --calibrate 6
//! ```
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! the reasoning behind the estimators.

mod calibrate;
mod harness;
mod layers;
mod probe;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use harness::{RunArgs, REFERENCE_SECONDS};
use workloads::Workload;

const USAGE: &str = "usage: elmem-benchmark --workload <serve_hot|serve_cold|elastic_day|migrate> \
[--seed N] [--seconds N] [--trace 0|1]\n       elmem-benchmark --calibrate K [--seed N] \
[--seconds N] [--distinct-seeds]";

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 7;
/// Fewest interleaved sets a calibration may make.
const MIN_CALIBRATION_SETS: usize = 5;
/// Longest run the frozen counts may be scaled to, seconds.
const MAX_SECONDS: u64 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run(RunArgs),
    Calibrate {
        sets: usize,
        seed: u64,
        seconds: u64,
        distinct_seeds: bool,
    },
}

/// Parses the command line (without the program name).
fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut sets = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = REFERENCE_SECONDS;
    let mut trace = false;
    let mut distinct_seeds = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse() {
                    Ok(n) if (1..=MAX_SECONDS).contains(&n) => n,
                    _ => return Err(format!("bad --seconds `{v}` (1..={MAX_SECONDS})")),
                };
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--calibrate" => {
                let v = value()?;
                sets = match v.parse() {
                    Ok(k) if k >= MIN_CALIBRATION_SETS => Some(k),
                    _ => {
                        return Err(format!(
                            "bad --calibrate `{v}` (at least {MIN_CALIBRATION_SETS} sets)"
                        ))
                    }
                };
            }
            "--distinct-seeds" => distinct_seeds = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (workload, sets) {
        (Some(_), Some(_)) => Err("`--workload` and `--calibrate` exclude each other".to_string()),
        (Some(workload), None) => Ok(Command::Run(RunArgs {
            workload,
            seed,
            seconds,
            trace,
        })),
        (None, Some(sets)) => Ok(Command::Calibrate {
            sets,
            seed,
            seconds,
            distinct_seeds,
        }),
        (None, None) => Err("one of `--workload` or `--calibrate` is required".to_string()),
    }
}

fn main() -> ExitCode {
    // Measure library defaults: no ELMEM_* knob (jobs, shards, preset,
    // migration jobs) may leak in from the caller's environment. Done
    // before any thread exists.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("ELMEM_") {
            std::env::remove_var(&name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match parse_args(&args) {
        Ok(Command::Run(args)) => harness::run(args),
        Ok(Command::Calibrate {
            sets,
            seed,
            seconds,
            distinct_seeds,
        }) => calibrate::run(sets, seed, seconds, distinct_seeds),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_pipelines_command_line_parses() {
        let cmd = parse(&[
            "--workload",
            "migrate",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        assert_eq!(
            cmd,
            Ok(Command::Run(RunArgs {
                workload: Workload::Migrate,
                seed: 11,
                seconds: 20,
                trace: true
            }))
        );
        assert_eq!(
            parse(&["--workload", "serve_hot"]),
            Ok(Command::Run(RunArgs {
                workload: Workload::ServeHot,
                seed: DEFAULT_SEED,
                seconds: REFERENCE_SECONDS,
                trace: false
            }))
        );
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for bad in [
            &["--workload", "serve_warm"][..],
            &["--workload"],
            &["--workload", "serve_hot", "--frobnicate"],
            &["--workload", "serve_hot", "--trace", "2"],
            &["--workload", "serve_hot", "--seed", "-1"],
            &["--workload", "serve_hot", "--seconds", "0"],
            &["--workload", "serve_hot", "--seconds", "61"],
            &["--calibrate", "4"],
            &["--calibrate", "6", "--workload", "migrate"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(
            parse(&["--calibrate", "6", "--distinct-seeds"]),
            Ok(Command::Calibrate {
                sets: 6,
                seed: DEFAULT_SEED,
                seconds: REFERENCE_SECONDS,
                distinct_seeds: true
            })
        );
    }
}
