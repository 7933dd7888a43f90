//! `--calibrate K`: is the benchmark steadier than its own bounds?
//!
//! Runs K interleaved rounds — one round is every workload once, each in a
//! fresh process, so two runs of one workload are minutes apart as they are
//! in the pipeline — and judges the end-to-end metrics the way the pipeline
//! does: the quartile spread of all K values, and the shift between the
//! median of the first half of the rounds and the median of the second.
//! The table it prints is what `CALIBRATION.md` records.

use std::collections::BTreeMap;
use std::process::Command;

use crate::report::{RunReport, END_TO_END};
use crate::stats::python_quartiles;
use crate::workloads::Workload;

/// What one child run reported.
struct Observation {
    report: RunReport,
    /// The `count.*` lines of its listing.
    counts: Vec<(String, String)>,
}

fn observe(workload: Workload, seed: u64, seconds: u64) -> Result<Observation, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.spec().name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("run exited with {}:\n{stdout}", out.status));
    }
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let counts = stdout
        .lines()
        .filter(|l| l.starts_with("count."))
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            Some((words.next()?.to_string(), words.next()?.to_string()))
        })
        .collect();
    Ok(Observation {
        report: RunReport::parse(last)?,
        counts,
    })
}

fn median(values: &[f64]) -> f64 {
    match values {
        [one] => *one,
        _ => python_quartiles(values).map_or(f64::NAN, |(_, m, _)| m),
    }
}

/// Quartile spread as a share of the median (0 for a single value).
fn spread(values: &[f64]) -> f64 {
    python_quartiles(values).map_or(0.0, |(q1, m, q3)| (q3 - q1) / m)
}

/// Runs the calibration; `true` when every metric is within its limits.
pub fn run(rounds: usize, seed: u64, seconds: u64, distinct_seeds: bool) -> bool {
    let mut values: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<(usize, String), Vec<String>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..rounds {
        let round_seed = if distinct_seeds {
            seed + round as u64
        } else {
            seed
        };
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!(
                "round {}/{rounds}: {} seed {round_seed}",
                round + 1,
                workload.spec().name
            );
            match observe(workload, round_seed, seconds) {
                Ok(obs) => {
                    ok &= obs.report.correct;
                    for (name, ..) in END_TO_END {
                        let v = obs.report.metric(name).unwrap_or(f64::NAN);
                        values.entry((w, name)).or_default().push(v);
                    }
                    for (name, v) in obs.counts {
                        counts.entry((w, name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }

    let seeds = if distinct_seeds {
        format!("seeds {seed}..={}", seed + rounds as u64 - 1)
    } else {
        format!("seed {seed} in every round")
    };
    println!("### `--calibrate {rounds}` ({seeds}, --seconds {seconds})\n");
    println!(
        "| workload | metric | unit | median | q1 | q3 | pooled spread | 1st-half median | \
         2nd-half median | gap | wider half | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|---|");
    for ((w, name), v) in &values {
        let (_, unit, higher_better, bound) = END_TO_END
            .into_iter()
            .find(|(n, ..)| n == name)
            .expect("only end-to-end metrics are collected");
        if v.len() < rounds || v.iter().any(|x| !x.is_finite()) {
            println!(
                "| {} | {name} | {unit} | missing runs | | | | | | | | {bound} | FAIL |",
                Workload::ALL[*w].spec().name
            );
            ok = false;
            continue;
        }
        let (q1, med, q3) = python_quartiles(v).expect("at least five rounds");
        let (first, second) = v.split_at(v.len() / 2);
        let (m1, m2) = (median(first), median(second));
        // Positive when the second half is worse than the first.
        let gap = if higher_better {
            (m1 - m2) / m1
        } else {
            (m2 - m1) / m1
        };
        let pooled = (q3 - q1) / med;
        let exact = !distinct_seeds && name.starts_with("sim_");
        let verdict = if exact {
            v.iter().all(|x| x.to_bits() == v[0].to_bits())
        } else {
            pooled <= bound && gap.abs() <= bound / 2.0
        };
        ok &= verdict;
        println!(
            "| {} | {name} | {unit} | {med:.6} | {q1:.6} | {q3:.6} | {pooled:.4} | {m1:.6} | \
             {m2:.6} | {gap:+.4} | {:.4} | {bound} | {} |",
            Workload::ALL[*w].spec().name,
            spread(first).max(spread(second)),
            match (verdict, exact) {
                (true, true) => "identical",
                (true, false) => "ok",
                (false, _) => "FAIL",
            }
        );
    }
    println!("\nValues by round:\n");
    println!(
        "| workload | metric | {} |",
        (1..=rounds)
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}", "---|".repeat(rounds));
    for ((w, name), v) in &values {
        let cells: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!(
            "| {} | {name} | {} |",
            Workload::ALL[*w].spec().name,
            cells.join(" | ")
        );
    }
    if !distinct_seeds {
        let differing: Vec<String> = counts
            .iter()
            .filter(|(_, v)| v.iter().any(|x| x != &v[0]))
            .map(|((w, name), _)| format!("{}/{name}", Workload::ALL[*w].spec().name))
            .collect();
        if differing.is_empty() {
            println!("\nEvery `count.*` is identical in all {rounds} rounds.");
        } else {
            println!(
                "\nFAIL: counts differ between rounds: {}",
                differing.join(", ")
            );
            ok = false;
        }
    }
    println!("\nVerdict: {}", if ok { "ok" } else { "FAIL" });
    ok
}
