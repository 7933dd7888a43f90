//! Statistics utilities: percentiles and per-second timelines of tail
//! response times (how the paper reports Fig. 2/6/8).

use crate::time::SimTime;

/// Computes the `q`-quantile (0.0–1.0) of a set of samples using the
/// nearest-rank method on a sorted copy.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or NaN.
///
/// # Example
///
/// ```
/// use elmem_util::stats::quantile;
/// let xs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
/// assert_eq!(quantile(&xs, 0.95), Some(10.0));
/// assert_eq!(quantile(&xs, 0.5), Some(5.0));
/// ```
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// One point of a reported timeline: a one-second bucket with its hit rate
/// and tail response time, matching the per-second plots of Figs. 2, 6, 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Bucket start, whole seconds since simulation start.
    pub second: u64,
    /// Cache hit rate over the bucket (0–1); `NaN`-free: 1.0 when idle.
    pub hit_rate: f64,
    /// 95th-percentile response time over the bucket, in milliseconds.
    pub p95_ms: f64,
    /// Mean response time over the bucket, in milliseconds.
    pub mean_ms: f64,
    /// Number of web requests completed in the bucket.
    pub requests: u64,
}

/// Accumulates per-second hit-rate / response-time buckets.
///
/// The paper reports "the hit rate and the 95%ile response time, for each
/// second" (§V-B1); this type is that measurement pipeline.
///
/// # Example
///
/// ```
/// use elmem_util::stats::TimelineRecorder;
/// use elmem_util::SimTime;
///
/// let mut rec = TimelineRecorder::new();
/// rec.record_request(SimTime::from_millis(100), 5.0, 3, 3);
/// rec.record_request(SimTime::from_millis(1200), 50.0, 0, 3);
/// let tl = rec.finish();
/// assert_eq!(tl.len(), 2);
/// assert_eq!(tl[0].hit_rate, 1.0);
/// assert_eq!(tl[1].hit_rate, 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimelineRecorder {
    buckets: Vec<Bucket>,
}

#[derive(Debug, Clone, Default)]
struct Bucket {
    second: u64,
    rts_ms: Vec<f64>,
    hits: u64,
    lookups: u64,
}

impl TimelineRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed web request.
    ///
    /// * `at` — completion time;
    /// * `rt_ms` — the request's (weighted) response time in milliseconds;
    /// * `hits` / `lookups` — cache lookups that hit vs. total, for the
    ///   request's multi-get batch.
    pub fn record_request(&mut self, at: SimTime, rt_ms: f64, hits: u64, lookups: u64) {
        let second = at.as_secs();
        // Buckets stay in second order. Completions arrive almost in order,
        // so the newest bucket is the usual one; an out-of-order completion
        // lands in its second's bucket, inserted if that second has none.
        let i = match self.buckets.last() {
            Some(b) if b.second == second => self.buckets.len() - 1,
            Some(b) if b.second > second => self.buckets.partition_point(|b| b.second < second),
            _ => self.buckets.len(),
        };
        if self.buckets.get(i).is_none_or(|b| b.second != second) {
            let bucket = Bucket {
                second,
                ..Bucket::default()
            };
            self.buckets.insert(i, bucket);
        }
        let b = &mut self.buckets[i];
        b.rts_ms.push(rt_ms);
        b.hits += hits;
        b.lookups += lookups;
    }

    /// Finalizes into a dense timeline (one point per bucket that saw
    /// traffic, in time order).
    pub fn finish(self) -> Vec<TimelinePoint> {
        self.buckets
            .into_iter()
            .map(|b| {
                let p95 = quantile(&b.rts_ms, 0.95).unwrap_or(0.0);
                let mean = if b.rts_ms.is_empty() {
                    0.0
                } else {
                    b.rts_ms.iter().sum::<f64>() / b.rts_ms.len() as f64
                };
                TimelinePoint {
                    second: b.second,
                    hit_rate: if b.lookups == 0 {
                        1.0
                    } else {
                        b.hits as f64 / b.lookups as f64
                    },
                    p95_ms: p95,
                    mean_ms: mean,
                    requests: b.rts_ms.len() as u64,
                }
            })
            .collect()
    }
}

/// Summary of post-scaling degradation for a timeline, relative to a scaling
/// instant: the two quantities the paper headlines (peak RT and restoration
/// time) plus the average post-scaling p95.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSummary {
    /// Highest per-second p95 at/after the scaling action, ms.
    pub peak_p95_ms: f64,
    /// Average per-second p95 at/after the scaling action, ms
    /// (the paper's "average of the 1-second 95%ile RTs after the mark").
    pub mean_p95_ms: f64,
    /// Seconds from the scaling action until p95 returns below
    /// `restore_threshold_ms` and stays below it for at least
    /// [`RESTORE_SUSTAIN_SECS`] consecutive observed seconds (or to the end
    /// of the timeline); `None` if never restored.
    pub restoration_secs: Option<u64>,
    /// Pre-scaling average p95, ms (for reference).
    pub pre_p95_ms: f64,
}

/// How long the p95 must stay below the threshold for the system to count
/// as restored (isolated later spikes don't reset the clock).
pub const RESTORE_SUSTAIN_SECS: usize = 120;

/// Computes a [`DegradationSummary`] from a timeline and the second at which
/// the scaling action took effect.
///
/// `restore_threshold_ms` defines "stable": restoration is the first
/// post-scaling second from which the p95 stays below the threshold for
/// [`RESTORE_SUSTAIN_SECS`] consecutive observed seconds (or through the
/// end of the timeline).
pub fn degradation_summary(
    timeline: &[TimelinePoint],
    scale_second: u64,
    restore_threshold_ms: f64,
) -> DegradationSummary {
    let pre: Vec<f64> = timeline
        .iter()
        .filter(|p| p.second < scale_second && p.requests > 0)
        .map(|p| p.p95_ms)
        .collect();
    let post: Vec<&TimelinePoint> = timeline
        .iter()
        .filter(|p| p.second >= scale_second && p.requests > 0)
        .collect();
    let peak = post.iter().map(|p| p.p95_ms).fold(0.0, f64::max);
    let mean = if post.is_empty() {
        0.0
    } else {
        post.iter().map(|p| p.p95_ms).sum::<f64>() / post.len() as f64
    };
    // Restoration: the first point from which the p95 stays under the
    // threshold for RESTORE_SUSTAIN_SECS consecutive observed points (or
    // to the end of the timeline).
    let mut restoration = None;
    let mut run_start: Option<usize> = None;
    for (i, p) in post.iter().enumerate() {
        if p.p95_ms <= restore_threshold_ms {
            let start = *run_start.get_or_insert(i);
            if i - start + 1 >= RESTORE_SUSTAIN_SECS || i + 1 == post.len() {
                restoration = Some(if start == 0 {
                    0
                } else {
                    post[start].second - scale_second
                });
                break;
            }
        } else {
            run_start = None;
        }
    }
    DegradationSummary {
        peak_p95_ms: peak,
        mean_p95_ms: mean,
        restoration_secs: restoration,
        pre_p95_ms: if pre.is_empty() {
            0.0
        } else {
            pre.iter().sum::<f64>() / pre.len() as f64
        },
    }
}

/// Mean of `field` over the timeline points with traffic whose second lies
/// in any of `windows` (each `(from, to)`, half-open), summed in timeline
/// order; `None` when no point does. The one windowed mean every figure and test reads a timeline with.
pub fn window_mean(
    timeline: &[TimelinePoint],
    windows: &[(u64, u64)],
    field: impl Fn(&TimelinePoint) -> f64,
) -> Option<f64> {
    let values: Vec<f64> = timeline
        .iter()
        .filter(|p| {
            p.requests > 0
                && windows
                    .iter()
                    .any(|&(from, to)| p.second >= from && p.second < to)
        })
        .map(field)
        .collect();
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Seconds from `crash_second` until the per-second hit rate climbs back to
/// `target` and stays there for `sustain_secs` consecutive observed seconds
/// (or through the end of the timeline); `None` if it never recovers.
///
/// The complement of [`degradation_summary`] for failure experiments: a
/// crash costs *capacity* (misses), not queueing, so recovery is measured on
/// the hit rate rather than the p95.
pub fn hit_rate_recovery_secs(
    timeline: &[TimelinePoint],
    crash_second: u64,
    target: f64,
    sustain_secs: usize,
) -> Option<u64> {
    let post: Vec<&TimelinePoint> = timeline
        .iter()
        .filter(|p| p.second >= crash_second && p.requests > 0)
        .collect();
    let mut run_start: Option<usize> = None;
    for (i, p) in post.iter().enumerate() {
        if p.hit_rate >= target {
            let start = *run_start.get_or_insert(i);
            if i - start + 1 >= sustain_secs || i + 1 == post.len() {
                return Some(post[start].second - crash_second);
            }
        } else {
            run_start = None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.95), Some(95.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_single_sample() {
        assert_eq!(quantile(&[3.5], 0.95), Some(3.5));
    }

    #[test]
    #[should_panic]
    fn quantile_out_of_range_panics() {
        let _ = quantile(&[1.0], 1.5);
    }

    fn tl(hit: impl Fn(u64) -> f64) -> Vec<TimelinePoint> {
        (0..100)
            .map(|s| TimelinePoint {
                second: s,
                hit_rate: hit(s),
                p95_ms: 1.0,
                mean_ms: 1.0,
                requests: 10,
            })
            .collect()
    }

    #[test]
    fn hit_rate_recovery_finds_the_sustained_return() {
        // Crash at 20 drops the hit rate; it recovers at 50 with one
        // transient dip at 55 that must reset the clock.
        let t = tl(|s| match s {
            0..=19 => 0.95,
            20..=49 => 0.60,
            55 => 0.60,
            _ => 0.95,
        });
        assert_eq!(hit_rate_recovery_secs(&t, 20, 0.9, 10), Some(36));
        // A short sustain window accepts the first return at 50.
        assert_eq!(hit_rate_recovery_secs(&t, 20, 0.9, 3), Some(30));
    }

    #[test]
    fn hit_rate_recovery_none_when_never_restored() {
        let t = tl(|s| if s < 20 { 0.95 } else { 0.5 });
        assert_eq!(hit_rate_recovery_secs(&t, 20, 0.9, 5), None);
    }

    #[test]
    fn window_mean_reads_seconds_with_traffic_inside_the_windows() {
        let mut t = tl(|s| s as f64 / 100.0);
        t[12].requests = 0;
        let hit = |windows: &[(u64, u64)]| window_mean(&t, windows, |p| p.hit_rate);
        assert_eq!(hit(&[(10, 14)]), Some((0.10 + 0.11 + 0.13) / 3.0));
        // A union of windows, each second counted once.
        assert_eq!(
            hit(&[(10, 12), (11, 12), (98, 500)]),
            Some((0.10 + 0.11 + 0.98 + 0.99) / 4.0)
        );
        assert_eq!(hit(&[(12, 13)]), None);
        assert_eq!(hit(&[(100, 200)]), None);
    }

    #[test]
    fn hit_rate_recovery_immediate_when_never_degraded() {
        let t = tl(|_| 0.95);
        assert_eq!(hit_rate_recovery_secs(&t, 20, 0.9, 5), Some(0));
    }

    #[test]
    fn timeline_buckets_by_second() {
        let mut rec = TimelineRecorder::new();
        rec.record_request(SimTime::from_millis(0), 1.0, 1, 1);
        rec.record_request(SimTime::from_millis(999), 2.0, 0, 1);
        rec.record_request(SimTime::from_millis(1000), 3.0, 1, 1);
        let tl = rec.finish();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].requests, 2);
        assert_eq!(tl[0].hit_rate, 0.5);
        assert_eq!(tl[1].requests, 1);
    }

    #[test]
    fn timeline_handles_out_of_order_completions() {
        let mut rec = TimelineRecorder::new();
        rec.record_request(SimTime::from_secs(0), 1.0, 1, 1);
        rec.record_request(SimTime::from_secs(2), 9.0, 1, 1);
        rec.record_request(SimTime::from_millis(500), 2.0, 0, 1);
        let tl = rec.finish();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].requests, 2);
    }

    #[test]
    fn timeline_keeps_a_late_completion_in_a_second_without_a_bucket() {
        // Second 9 completes after second 11, with nothing yet in 9–10:
        // its request, hits and lookups get a bucket of their own, in
        // second order, between the ones around it.
        let mut rec = TimelineRecorder::new();
        rec.record_request(SimTime::from_secs(8), 1.0, 1, 1);
        rec.record_request(SimTime::from_secs(11), 2.0, 1, 1);
        rec.record_request(SimTime::from_millis(9_500), 7.0, 0, 4);
        rec.record_request(SimTime::from_millis(9_900), 3.0, 2, 4);
        let tl = rec.finish();
        let seconds: Vec<u64> = tl.iter().map(|p| p.second).collect();
        assert_eq!(seconds, vec![8, 9, 11]);
        assert_eq!(tl.iter().map(|p| p.requests).sum::<u64>(), 4);
        assert_eq!(tl[1].requests, 2);
        assert_eq!(tl[1].hit_rate, 0.25);
        assert_eq!(tl[1].mean_ms, 5.0);
    }

    #[test]
    fn timeline_idle_hit_rate_is_one() {
        let mut rec = TimelineRecorder::new();
        rec.record_request(SimTime::ZERO, 1.0, 0, 0);
        let tl = rec.finish();
        assert_eq!(tl[0].hit_rate, 1.0);
    }

    #[test]
    fn degradation_summary_basic() {
        let tl: Vec<TimelinePoint> = (0..10)
            .map(|s| TimelinePoint {
                second: s,
                hit_rate: 1.0,
                p95_ms: if (3..6).contains(&s) { 100.0 } else { 5.0 },
                mean_ms: 5.0,
                requests: 10,
            })
            .collect();
        let d = degradation_summary(&tl, 3, 10.0);
        assert_eq!(d.peak_p95_ms, 100.0);
        assert_eq!(d.restoration_secs, Some(3));
        assert!((d.pre_p95_ms - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degradation_never_restored() {
        let tl: Vec<TimelinePoint> = (0..5)
            .map(|s| TimelinePoint {
                second: s,
                hit_rate: 0.5,
                p95_ms: 100.0,
                mean_ms: 50.0,
                requests: 1,
            })
            .collect();
        let d = degradation_summary(&tl, 2, 10.0);
        assert_eq!(d.restoration_secs, None);
    }

    #[test]
    fn degradation_no_spike_restores_immediately() {
        let tl: Vec<TimelinePoint> = (0..5)
            .map(|s| TimelinePoint {
                second: s,
                hit_rate: 1.0,
                p95_ms: 5.0,
                mean_ms: 4.0,
                requests: 1,
            })
            .collect();
        let d = degradation_summary(&tl, 2, 10.0);
        assert_eq!(d.restoration_secs, Some(0));
    }
}
