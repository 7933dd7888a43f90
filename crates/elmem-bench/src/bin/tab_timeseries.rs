//! **Fig. 2 time series** — the post-scaling recovery curve as JSON.
//!
//! Runs the Fig. 2 scale-in scenario under a steady load, baseline
//! (immediate scale-in, cold cache) vs ElMem (FuseCache migration first),
//! and emits the telemetry time series — per-window hit rate, DB load,
//! member count, bytes migrated — as machine-readable JSON under
//! `results/`, alongside the full telemetry dump of the ElMem run.
//!
//! `--smoke` runs a seconds-long small-tier version for CI. The claims the
//! figure is built on are asserted in both modes: the baseline hit rate
//! dips at the scaling commit and recovers afterwards, and two runs with
//! the same seed produce byte-identical telemetry dumps.

use elmem_bench::exp::Preset;
use elmem_bench::figures::tab_timeseries;
use elmem_core::{ExperimentResult, SeriesPoint};
use elmem_util::{SimTime, TelemetryConfig};
use std::fmt::Write as _;

/// Mean hit rate over series windows starting in `[from, to)` seconds,
/// counting only windows that saw lookups.
fn mean_hit(series: &[SeriesPoint], from: u64, to: u64) -> f64 {
    let pts: Vec<_> = series
        .iter()
        .filter(|p| {
            let s = p.window_start.as_secs();
            s >= from && s < to && p.lookups > 0
        })
        .collect();
    pts.iter().map(|p| p.hit_rate()).sum::<f64>() / pts.len().max(1) as f64
}

/// Lowest per-window hit rate over `[from, to)` seconds.
fn min_hit(series: &[SeriesPoint], from: u64, to: u64) -> f64 {
    series
        .iter()
        .filter(|p| {
            let s = p.window_start.as_secs();
            s >= from && s < to && p.lookups > 0
        })
        .map(|p| p.hit_rate())
        .fold(1.0, f64::min)
}

/// One policy's curve as a JSON object: the commit tick plus the telemetry
/// series with the derived per-window hit rate attached.
fn curve_json(label: &str, r: &ExperimentResult) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"policy\":\"{label}\"");
    match r.events.first() {
        Some(ev) => {
            let _ = write!(
                out,
                ",\"decided_at_ns\":{},\"committed_at_ns\":{}",
                ev.decided_at.as_nanos(),
                ev.committed_at.as_nanos()
            );
        }
        None => out.push_str(",\"decided_at_ns\":null,\"committed_at_ns\":null"),
    }
    out.push_str(",\"points\":[");
    for (i, p) in r.telemetry.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Splice the derived hit rate into the canonical point encoding so
        // plotting scripts need no arithmetic.
        let mut point = String::new();
        p.write_json(&mut point);
        let body = point.strip_suffix('}').unwrap_or(&point);
        let _ = write!(out, "{body},\"hit_rate\":{}}}", p.hit_rate());
    }
    out.push_str("]}");
    out
}

fn main() {
    let preset = Preset::from_cli();
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!(
        "== Fig. 2 time series: scale-in recovery curves{} ==\n",
        if smoke { " [smoke]" } else { "" }
    );

    let t = tab_timeseries(preset, smoke, 42);
    let (baseline, elmem, seed) = (&t.baseline, &t.elmem, t.seed);
    let (scale_s, tail_from, tail_to) = (t.scale_s, t.tail.0, t.tail.1);
    let window_ns = TelemetryConfig::default().sample_every.as_nanos();
    // Determinism: a same-seed rerun of the baseline reproduced its
    // telemetry dump, byte for byte.
    assert!(
        t.rerun_identical,
        "same-seed runs must produce byte-identical telemetry dumps"
    );

    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"scenario\":\"scale_in\",\"mode\":\"{}\",\"seed\":{seed},\
         \"scale_tick_ns\":{},\"window_ns\":{window_ns},\"curves\":[{},{}]}}",
        if smoke { "smoke" } else { "full" },
        SimTime::from_secs(scale_s).as_nanos(),
        curve_json("baseline", baseline),
        curve_json("elmem", elmem),
    );
    std::fs::create_dir_all("results").expect("create results/");
    let curve_path = if smoke {
        "results/tab_timeseries_smoke.json"
    } else {
        "results/tab_timeseries.json"
    };
    std::fs::write(curve_path, &doc).expect("write recovery curves");
    let dump_path = if smoke {
        "results/tab_timeseries_telemetry_smoke.json"
    } else {
        "results/tab_timeseries_telemetry.json"
    };
    std::fs::write(dump_path, elmem.telemetry.to_json()).expect("write telemetry dump");

    for (label, r) in [("baseline", baseline), ("elmem", elmem)] {
        let commit = r.events.first().expect("scale-in ran").committed_at;
        let pre = mean_hit(&r.telemetry.series, scale_s / 2, scale_s);
        let dip = min_hit(&r.telemetry.series, commit.as_secs(), tail_to);
        let tail = mean_hit(&r.telemetry.series, tail_from, tail_to);
        println!(
            "{label:<9} commit={commit:<9}  pre_hit={pre:>6.4}  dip_hit={dip:>6.4}  \
             tail_hit={tail:>6.4}  events={}  bytes_migrated={}",
            r.telemetry.recorded_events,
            r.telemetry
                .series
                .last()
                .map(|p| p.bytes_migrated)
                .unwrap_or(0),
        );
    }
    println!("\nwrote {curve_path} and {dump_path}");

    // The claims the figure is built on, checked on every run (CI runs the
    // smoke version): the baseline's hit rate dips when the cold scale-in
    // commits and climbs back as survivors refill, and the curve carries
    // the scaling decision in its event stream.
    let series = &baseline.telemetry.series;
    let commit = baseline.events.first().expect("scale-in ran").committed_at;
    let pre = mean_hit(series, scale_s / 2, scale_s);
    let dip = min_hit(series, commit.as_secs(), tail_from);
    let tail = mean_hit(series, tail_from, tail_to);
    assert!(
        dip < pre - 0.03,
        "baseline hit rate must dip at the scaling tick (pre {pre:.4}, dip {dip:.4})"
    );
    assert!(
        tail > dip + 0.5 * (pre - dip),
        "baseline hit rate must recover from the dip (pre {pre:.4}, dip {dip:.4}, tail {tail:.4})"
    );
    for r in [baseline, elmem] {
        assert!(
            r.telemetry
                .events
                .iter()
                .any(|e| e.kind.label() == "scaling_decided"),
            "telemetry event stream must carry the scaling decision"
        );
    }
    // ElMem migrates the retiring node's hot items before the flip, so its
    // worst post-scaling window stays above the baseline's.
    let elmem_commit = elmem.events.first().expect("scale-in ran").committed_at;
    let elmem_dip = min_hit(&elmem.telemetry.series, elmem_commit.as_secs(), tail_from);
    assert!(
        elmem_dip >= dip,
        "elmem's post-scaling dip ({elmem_dip:.4}) must not undercut the baseline's ({dip:.4})"
    );

    println!(
        "Interpretation: the baseline flips membership at the decision tick \
         with a cold survivor set — every request that hashed to the retired \
         node misses and queues on the database until survivors refill, the \
         Fig. 2 dip. ElMem first migrates the retiring node's hottest items \
         through FuseCache and only then commits, so its curve shows the \
         membership flip without the miss trough."
    );
}
