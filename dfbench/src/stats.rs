//! The benchmark's own arithmetic: percentiles and the tail rule,
//! backlog-growth detection and `slo_rate` selection, and open-loop
//! due-time latency with generator-lag accounting.

use std::time::{Duration, Instant};

/// Percentiles the tail rule may report, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A backlog counts as growing when it rises faster than this share of
/// the offered rate, per second.
pub const GROWTH_SHARE: f64 = 0.05;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps decimal percentiles such as 99.9 from rounding
    // up a rank through binary representation error.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` for fewer than
/// eleven samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted values (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Mean, or 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency samples summarised as median, a fixed percentile and the
/// tail-rule percentile.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Median, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// Highest percentile with ten samples beyond it.
    pub tail_pct: Option<f64>,
    /// Latency at `tail_pct`, ms.
    pub tail_ms: f64,
}

impl Latency {
    /// Summarise samples in milliseconds (all zero for none).
    pub fn of(samples_ms: &[f64]) -> Latency {
        if samples_ms.is_empty() {
            return Latency {
                n: 0,
                p50_ms: 0.0,
                p99_ms: 0.0,
                tail_pct: None,
                tail_ms: 0.0,
            };
        }
        let mut v = samples_ms.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_percentile(v.len());
        Latency {
            n: v.len(),
            p50_ms: percentile(&v, 50.0),
            p99_ms: percentile(&v, 99.0),
            tail_pct,
            tail_ms: percentile(&v, tail_pct.unwrap_or(50.0)),
        }
    }

    /// Whether p99 rests on at least [`TAIL_MIN_BEYOND`] samples.
    pub fn p99_supported(&self) -> bool {
        self.tail_pct.is_some_and(|p| p >= 99.0)
    }
}

/// Least-squares slope of `(t_s, outstanding)` samples, in instances
/// per second; 0 for fewer than two distinct times.
pub fn backlog_slope(samples: &[(f64, f64)]) -> f64 {
    let n = samples.len() as f64;
    if samples.len() < 2 {
        return 0.0;
    }
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let my = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let sxx: f64 = samples.iter().map(|s| (s.0 - mt) * (s.0 - mt)).sum();
    if sxx == 0.0 {
        return 0.0;
    }
    let sxy: f64 = samples.iter().map(|s| (s.0 - mt) * (s.1 - my)).sum();
    sxy / sxx
}

/// Whether a backlog rising at `slope`/s grows under `rate`/s offered.
pub fn backlog_growing(slope: f64, rate: f64) -> bool {
    slope > GROWTH_SHARE * rate
}

/// What one fixed-rate open-loop phase delivered.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Offered rate, instances/s.
    pub rate: f64,
    /// Completions per second over the phase.
    pub achieved: f64,
    /// Due-time latency of every completed instance.
    pub latency: Latency,
    /// Backlog slope, instances/s.
    pub backlog_slope: f64,
    /// Requests that failed or missed the deadline.
    pub failed: usize,
    /// Requests issued.
    pub attempted: usize,
}

impl Phase {
    /// Whether the phase meets the latency limit on p99 (backed by
    /// enough samples), completes every request in time, and keeps
    /// its backlog flat.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.latency.p99_supported()
            && self.latency.p99_ms <= limit_ms
            && !backlog_growing(self.backlog_slope, self.rate)
    }
}

/// The phase with the highest offered rate that meets the limit.
pub fn slo_phase(phases: &[Phase], limit_ms: f64) -> Option<&Phase> {
    phases
        .iter()
        .filter(|p| p.meets(limit_ms))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
}

/// How late the generator issued a request: submit start minus due
/// time, zero when it was early.
pub fn generator_lag(due: Instant, submitted: Instant) -> Duration {
    submitted.saturating_duration_since(due)
}

/// Open-loop latency of one request, timed from when it was due: the
/// generator's lag plus the server's submit-to-result time.
pub fn due_latency(due: Instant, submitted: Instant, elapsed: Duration) -> Duration {
    generator_lag(due, submitted) + elapsed
}

/// Offsets (seconds) of `count` arrivals spread over `span_s` as a
/// Poisson process conditioned on its count: sorted uniform draws.
pub fn poisson_offsets(count: usize, span_s: f64, mut uniform: impl FnMut() -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..count).map(|_| uniform() * span_s).collect();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let l = Latency::of(&v);
        assert!(l.p99_supported());
        assert_eq!(l.tail_ms, 990.0);
        assert!(!Latency::of(&v[..999]).p99_supported());
        assert_eq!(Latency::of(&[]).n, 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn backlog_slope_detects_growth() {
        let flat: Vec<(f64, f64)> = (0..20)
            .map(|i| (i as f64 * 0.1, if i % 2 == 0 { 3.0 } else { 5.0 }))
            .collect();
        assert!(backlog_slope(&flat).abs() < 2.0);
        assert!(!backlog_growing(backlog_slope(&flat), 300.0));
        // 150 instances/s more than the server completes.
        let rising: Vec<(f64, f64)> = (0..20).map(|i| (i as f64 * 0.1, i as f64 * 15.0)).collect();
        assert!((backlog_slope(&rising) - 150.0).abs() < 1e-9);
        assert!(backlog_growing(backlog_slope(&rising), 600.0));
        assert_eq!(backlog_slope(&[(1.0, 4.0)]), 0.0);
    }

    fn phase(rate: f64, p99_ms: f64, slope: f64) -> Phase {
        // Fifteen slow samples put the nearest-rank p99 on `p99_ms`.
        let samples: Vec<f64> = (0..1000)
            .map(|i| if i < 985 { 1.0 } else { p99_ms })
            .collect();
        Phase {
            rate,
            achieved: rate,
            latency: Latency::of(&samples),
            backlog_slope: slope,
            failed: 0,
            attempted: 1000,
        }
    }

    #[test]
    fn slo_rate_is_highest_passing_rate() {
        let phases = [
            phase(200.0, 20.0, 0.0),
            phase(350.0, 60.0, 1.0),
            phase(700.0, 900.0, 250.0),
        ];
        assert_eq!(slo_phase(&phases, 100.0).unwrap().rate, 350.0);
        // A latency breach or a growing backlog each disqualify.
        let phases = [
            phase(200.0, 20.0, 0.0),
            phase(350.0, 140.0, 1.0),
            phase(400.0, 50.0, 60.0),
        ];
        assert_eq!(slo_phase(&phases, 100.0).unwrap().rate, 200.0);
        assert!(slo_phase(&[phase(700.0, 900.0, 0.0)], 100.0).is_none());
    }

    #[test]
    fn due_time_latency_counts_generator_lag() {
        let due = Instant::now();
        let late = due + Duration::from_millis(3);
        assert_eq!(generator_lag(due, late), Duration::from_millis(3));
        assert_eq!(
            due_latency(due, late, Duration::from_millis(5)),
            Duration::from_millis(8)
        );
        // An early submission has no lag and adds nothing.
        assert_eq!(generator_lag(late, due), Duration::ZERO);
        assert_eq!(
            due_latency(late, due, Duration::from_millis(5)),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn poisson_offsets_are_sorted_and_in_span() {
        let mut x = 0.0f64;
        let v = poisson_offsets(100, 2.0, || {
            x = (x + 0.618_033_988_7) % 1.0;
            x
        });
        assert_eq!(v.len(), 100);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        assert!(v.iter().all(|&t| (0.0..2.0).contains(&t)));
    }
}
