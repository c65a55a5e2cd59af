//! Summary statistics and open-loop pacing.

use std::time::{Duration, Instant};

/// Percentiles the benchmark may report, ascending.
pub const PERCENTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile in [`PERCENTILES`] that still has at least ten
/// samples beyond it out of `n`; `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// A latency sample set summarised as the median plus the tail
/// percentile the sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The reportable tail percentile and its value, if any.
    pub tail: Option<(f64, f64)>,
    /// The 99th percentile (reported per layer whatever the count).
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = median(&sorted)?;
        let tail = tail_percentile(sorted.len())
            .and_then(|p| percentile(&sorted, p).map(|value| (p, value)));
        Some(Summary {
            n: sorted.len(),
            p50,
            tail,
            p99: percentile(&sorted, 0.99)?,
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.1}", self.p50)?;
        if let Some((p, value)) = self.tail {
            write!(f, ", p{} {:.1}", p * 100.0, value)?;
        }
        write!(f, " (n = {})", self.n)
    }
}

/// Open-loop schedule: request `i` is due at `start + i × interval`,
/// whether or not earlier requests have completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval: Duration,
}

impl Schedule {
    /// A schedule sending `rate` requests per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Blocks until request `i` is due (sleeping for the bulk of the wait
    /// and spinning for the last stretch) and returns how late the
    /// generator was when it got there.
    pub fn wait_for(&self, i: u64) -> Duration {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return now - due;
            }
            let left = due - now;
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Latency of a request completed at `done`, counted from when it was
    /// due rather than when it was sent, so a stall is charged to every
    /// request queued behind it.
    pub fn latency(&self, i: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50.0));
        assert_eq!(percentile(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(99_999), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let samples: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let summary = Summary::of(&samples).unwrap();
        assert_eq!(summary.n, 1_000);
        assert_eq!(summary.p50, 500.5);
        assert_eq!(summary.tail, Some((0.99, 990.0)));
        assert_eq!(summary.p99, 990.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 1_000.0); // one request per ms
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(5) - start, Duration::from_millis(5));
        // A 10 ms stall before request 0 completes: request 3, sent right
        // after the stall, is charged the time it spent waiting to be
        // sent, not just its own service time.
        let stalled_until = start + Duration::from_millis(10);
        let done = stalled_until + Duration::from_micros(50);
        assert_eq!(
            schedule.latency(3, done),
            Duration::from_millis(7) + Duration::from_micros(50)
        );
        // Completing before the due time (impossible for a real send)
        // never yields a negative latency.
        assert_eq!(schedule.latency(20, done), Duration::ZERO);
    }

    #[test]
    fn generator_lateness_is_measured_against_the_schedule() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 10_000.0);
        // Waiting for an already-past request returns immediately with
        // the full lateness.
        std::thread::sleep(Duration::from_millis(2));
        let late = schedule.wait_for(1);
        assert!(late >= Duration::from_micros(1_900), "late by {late:?}");
        // Waiting for a future request never returns before its due time
        // (how late it wakes up is the host's to decide).
        let ahead = schedule.due(100);
        schedule.wait_for(100);
        assert!(Instant::now() >= ahead);
    }
}
