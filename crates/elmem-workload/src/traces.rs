//! The five demand traces of Fig. 5.
//!
//! The paper drives its experiments with trace *snippets* "where demand
//! varies considerably", showing only normalized request rates "as these
//! are modified per system capabilities". We reproduce the published
//! shapes as piecewise-linear normalized curves (1-minute resolution over
//! a one-hour window, like the paper's plots):
//!
//! * **SYS** (Facebook): high plateau, steep drop around the 30-min mark to
//!   a low valley — drives the 10→7 scale-in;
//! * **ETC** (Facebook): diurnal dip and recovery — 10→9 then 9→10;
//! * **SAP**: gradual stepped decline — 10→9 then 9→8;
//! * **NLANR**: rise then fall — 8→9 then 9→8;
//! * **Microsoft**: bursty decline — 10→9 then 9→8.

use elmem_util::SimTime;

/// Which published trace shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Facebook SYS \[12\].
    FacebookSys,
    /// Facebook ETC \[12\].
    FacebookEtc,
    /// SAP enterprise application trace \[49\].
    Sap,
    /// NLANR/WITS network trace \[50\].
    Nlanr,
    /// Microsoft storage trace \[23\].
    Microsoft,
}

impl TraceKind {
    /// All five traces, in the paper's Fig. 5 order.
    pub const ALL: [TraceKind; 5] = [
        TraceKind::FacebookSys,
        TraceKind::FacebookEtc,
        TraceKind::Sap,
        TraceKind::Nlanr,
        TraceKind::Microsoft,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::FacebookSys => "SYS",
            TraceKind::FacebookEtc => "ETC",
            TraceKind::Sap => "SAP",
            TraceKind::Nlanr => "NLANR",
            TraceKind::Microsoft => "Microsoft",
        }
    }

    /// The normalized demand curve (per-minute samples over one hour).
    pub fn demand_trace(self) -> DemandTrace {
        let samples: Vec<f64> = match self {
            // High plateau (~1.0), steep drop at min 30 to ~0.35 valley.
            TraceKind::FacebookSys => (0..60)
                .map(|m| match m {
                    0..=27 => 0.95 + 0.05 * ((m % 5) as f64 / 5.0),
                    28..=32 => 0.95 - 0.12 * f64::from(m - 27),
                    _ => 0.35 + 0.03 * (((m * 7) % 10) as f64 / 10.0),
                })
                .collect(),
            // Diurnal dip: 1.0 → 0.55 trough around min 30 → back to ~0.95.
            TraceKind::FacebookEtc => (0..60)
                .map(|m| {
                    let x = f64::from(m) / 59.0;
                    let dip = 0.45 * (-((x - 0.5) * (x - 0.5)) / 0.02).exp();
                    (1.0 - dip).clamp(0.0, 1.0)
                })
                .collect(),
            // Stepped gradual decline 1.0 → 0.5.
            TraceKind::Sap => (0..60)
                .map(|m| match m {
                    0..=14 => 1.0,
                    15..=29 => 0.85,
                    30..=44 => 0.68,
                    _ => 0.52,
                })
                .collect(),
            // Rise 0.6 → 1.0 by min 20, fall back to 0.55 by min 50.
            TraceKind::Nlanr => (0..60)
                .map(|m| match m {
                    0..=19 => 0.6 + 0.4 * f64::from(m) / 19.0,
                    20..=29 => 1.0,
                    30..=49 => 1.0 - 0.45 * f64::from(m - 29) / 20.0,
                    _ => 0.55,
                })
                .collect(),
            // Bursty decline: 1.0 → 0.45 with ±0.08 bursts.
            TraceKind::Microsoft => (0..60)
                .map(|m| {
                    let base = 1.0 - 0.55 * f64::from(m) / 59.0;
                    let burst = if m % 7 == 3 { 0.08 } else { 0.0 };
                    (base + burst).clamp(0.0, 1.0)
                })
                .collect(),
        };
        DemandTrace::new(samples, SimTime::from_secs(60))
    }
}

impl std::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A normalized demand curve: samples in `[0, 1]` at fixed spacing, linearly
/// interpolated, multiplied by a peak rate at query time.
///
/// # Example
///
/// ```
/// use elmem_workload::DemandTrace;
/// use elmem_util::SimTime;
///
/// let tr = DemandTrace::new(vec![1.0, 0.5], SimTime::from_secs(60));
/// assert_eq!(tr.normalized_at(SimTime::from_secs(30)), 0.75);
/// assert_eq!(tr.duration(), SimTime::from_secs(60));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTrace {
    samples: Vec<f64>,
    /// Time between consecutive samples.
    step: SimTime,
}

impl DemandTrace {
    /// Creates a trace from normalized samples spaced `step` apart.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, contains values outside `[0, 1]`,
    /// or `step` is zero.
    pub fn new(samples: Vec<f64>, step: SimTime) -> Self {
        assert!(!samples.is_empty(), "empty trace");
        assert!(step > SimTime::ZERO, "zero step");
        assert!(
            samples.iter().all(|&s| (0.0..=1.0).contains(&s)),
            "samples must be normalized to [0, 1]"
        );
        DemandTrace { samples, step }
    }

    /// The normalized samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sample spacing.
    pub fn step(&self) -> SimTime {
        self.step
    }

    /// Total duration covered: `(len - 1) * step` (last sample holds after).
    pub fn duration(&self) -> SimTime {
        self.step * (self.samples.len() as u64 - 1).max(1)
    }

    /// Normalized demand at `t` (linear interpolation; clamped at the ends).
    pub fn normalized_at(&self, t: SimTime) -> f64 {
        let pos = t.as_nanos() as f64 / self.step.as_nanos() as f64;
        let idx = pos.floor() as usize;
        if idx + 1 >= self.samples.len() {
            return *self.samples.last().expect("nonempty");
        }
        let frac = pos - idx as f64;
        self.samples[idx] * (1.0 - frac) + self.samples[idx + 1] * frac
    }

    /// Parses a trace from newline-separated numbers (comments start with
    /// `#`; blank lines are skipped). Values are normalized by the maximum,
    /// so raw request-per-interval counts — the form real traces like the
    /// paper's Facebook/Microsoft inputs arrive in — can be pasted
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns a message when `step` is zero, no samples are present, a
    /// line fails to parse, or a value is negative/non-finite.
    ///
    /// # Example
    ///
    /// ```
    /// use elmem_workload::DemandTrace;
    /// use elmem_util::SimTime;
    ///
    /// let trace = DemandTrace::parse(
    ///     "# req/min\n1200\n600\n\n300\n",
    ///     SimTime::from_secs(60),
    /// ).unwrap();
    /// assert_eq!(trace.samples(), &[1.0, 0.5, 0.25]);
    /// ```
    pub fn parse(text: &str, step: SimTime) -> Result<DemandTrace, String> {
        if step == SimTime::ZERO {
            return Err("zero step between samples".to_string());
        }
        let mut raw = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let v: f64 = line
                .parse()
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("line {}: invalid demand {v}", lineno + 1));
            }
            raw.push(v);
        }
        if raw.is_empty() {
            return Err("no samples".to_string());
        }
        let peak = raw.iter().copied().fold(0.0, f64::max);
        if peak <= 0.0 {
            return Err("all samples are zero".to_string());
        }
        Ok(DemandTrace::new(
            raw.into_iter().map(|v| v / peak).collect(),
            step,
        ))
    }

    /// The largest normalized demand in the trace.
    pub fn peak(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }

    /// The smallest normalized demand in the trace.
    pub fn trough(&self) -> f64 {
        self.samples.iter().copied().fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_traces_are_valid_and_hourlong() {
        for kind in TraceKind::ALL {
            let t = kind.demand_trace();
            assert_eq!(t.samples().len(), 60, "{kind}");
            assert!(
                t.peak() <= 1.0 && t.peak() > 0.8,
                "{kind} peak {}",
                t.peak()
            );
            assert!(t.trough() >= 0.0, "{kind}");
        }
    }

    #[test]
    fn sys_has_steep_midpoint_drop() {
        let t = TraceKind::FacebookSys.demand_trace();
        let before = t.normalized_at(SimTime::from_secs(25 * 60));
        let after = t.normalized_at(SimTime::from_secs(40 * 60));
        assert!(
            before > 2.0 * after,
            "SYS should drop >2x: {before} -> {after}"
        );
    }

    #[test]
    fn etc_dips_then_recovers() {
        let t = TraceKind::FacebookEtc.demand_trace();
        let start = t.normalized_at(SimTime::ZERO);
        let mid = t.normalized_at(SimTime::from_secs(30 * 60));
        let end = t.normalized_at(SimTime::from_secs(59 * 60));
        assert!(mid < start - 0.2, "mid {mid} vs start {start}");
        assert!(end > mid + 0.2, "end {end} vs mid {mid}");
    }

    #[test]
    fn nlanr_rises_then_falls() {
        let t = TraceKind::Nlanr.demand_trace();
        let start = t.normalized_at(SimTime::ZERO);
        let peak = t.normalized_at(SimTime::from_secs(25 * 60));
        let end = t.normalized_at(SimTime::from_secs(55 * 60));
        assert!(peak > start + 0.2);
        assert!(end < peak - 0.2);
    }

    #[test]
    fn interpolation_midpoint() {
        let t = DemandTrace::new(vec![0.0, 1.0], SimTime::from_secs(10));
        assert!((t.normalized_at(SimTime::from_secs(5)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn holds_last_sample_beyond_end() {
        let t = DemandTrace::new(vec![0.2, 0.8], SimTime::from_secs(10));
        assert_eq!(t.normalized_at(SimTime::from_secs(1000)), 0.8);
    }

    #[test]
    #[should_panic]
    fn unnormalized_samples_rejected() {
        let _ = DemandTrace::new(vec![1.5], SimTime::from_secs(1));
    }

    #[test]
    fn parse_normalizes_and_skips_comments() {
        let t = DemandTrace::parse("# header\n10\n5\n\n2.5\n", SimTime::from_secs(60)).unwrap();
        assert_eq!(t.samples(), &[1.0, 0.5, 0.25]);
        assert_eq!(t.step(), SimTime::from_secs(60));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DemandTrace::parse("abc", SimTime::from_secs(1)).is_err());
        assert!(DemandTrace::parse("", SimTime::from_secs(1)).is_err());
        assert!(DemandTrace::parse("0\n0", SimTime::from_secs(1)).is_err());
        assert!(DemandTrace::parse("-1", SimTime::from_secs(1)).is_err());
        let err = DemandTrace::parse("1\nxyz", SimTime::from_secs(1)).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn parse_rejects_a_zero_step() {
        let err = DemandTrace::parse("1\n", SimTime::ZERO).unwrap_err();
        assert!(err.contains("step"), "{err}");
    }

    #[test]
    fn display_names() {
        assert_eq!(TraceKind::FacebookSys.to_string(), "SYS");
        assert_eq!(TraceKind::Microsoft.to_string(), "Microsoft");
    }
}
