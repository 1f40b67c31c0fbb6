//! Latency samples, percentiles and the windowed throughput estimate.

use std::time::Duration;

/// Latency samples of one operation class, in nanoseconds, each tagged
/// with the window of the measured phase it completed in.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    samples: Vec<(u32, u64)>,
}

fn nearest_rank_us(sorted_nanos: &[u64], p: f64) -> f64 {
    let rank = (p * sorted_nanos.len() as f64).ceil() as usize;
    sorted_nanos[rank.clamp(1, sorted_nanos.len()) - 1] as f64 / 1e3
}

impl Latencies {
    /// Record a latency that completed in `window`.
    pub fn record(&mut self, window: u32, d: Duration) {
        self.samples.push((window, d.as_nanos() as u64));
    }

    pub fn merge(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-quantile (`0 < p <= 1`) of all samples in microseconds, by
    /// the nearest-rank rule: the smallest sample with at least `p` of the
    /// samples at or below it. 0 when there are no samples.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u64> = self.samples.iter().map(|s| s.1).collect();
        sorted.sort_unstable();
        nearest_rank_us(&sorted, p)
    }

    /// Samples per window, for windows `0..windows`.
    pub fn count_per_window(&self, windows: u32) -> Vec<u64> {
        let mut counts = vec![0; windows as usize];
        for &(w, _) in &self.samples {
            if w < windows {
                counts[w as usize] += 1;
            }
        }
        counts
    }

    /// Mean over the given windows of each window's own median latency,
    /// in microseconds. Windows without a sample are skipped; 0 when none
    /// has one.
    pub fn median_in_windows_us(&self, windows: &[u32]) -> f64 {
        let medians: Vec<f64> = windows
            .iter()
            .filter_map(|&w| {
                let mut nanos: Vec<u64> = self
                    .samples
                    .iter()
                    .filter(|s| s.0 == w)
                    .map(|s| s.1)
                    .collect();
                nanos.sort_unstable();
                (!nanos.is_empty()).then(|| nearest_rank_us(&nanos, 0.5))
            })
            .collect();
        if medians.is_empty() {
            0.0
        } else {
            medians.iter().sum::<f64>() / medians.len() as f64
        }
    }

    /// Mean in microseconds; 0 when there are no samples.
    pub fn mean_us(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.1).sum::<u64>() as f64 / self.samples.len() as f64 / 1e3
    }
}

/// The window of `width` that a completion at `since_start` falls in.
pub fn window_of(since_start: Duration, width: Duration) -> u32 {
    (since_start.as_nanos() / width.as_nanos()) as u32
}

/// The fastest tenth (at least one) of the windows whose `work` is given,
/// fastest first. Empty when there is no window.
///
/// What disturbs a run on a shared host — stolen CPU time, a neighbour
/// filling the memory bus — only ever slows it, for seconds at a time, so
/// the windows it left alone are the ones that got most done. Over ten
/// seeds the median of all windows spread 11–21 % between runs, the mean
/// of these 8–13 %.
pub fn fastest_tenth(work: &[f64]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..work.len() as u32).collect();
    order.sort_by(|&a, &b| work[b as usize].total_cmp(&work[a as usize]));
    order.truncate((order.len() / 10).max(1));
    order
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(us: &[u64]) -> Latencies {
        let mut l = Latencies::default();
        for &u in us {
            l.record(0, Duration::from_micros(u));
        }
        l
    }

    #[test]
    fn latency_is_taken_in_the_windows_named() {
        let mut l = Latencies::default();
        // Windows 0 and 2 run at about 100 microseconds, window 1 is
        // disturbed and holds as many samples as the other two together,
        // window 3 has no sample.
        for (window, us) in [(0, 100), (0, 102), (0, 98), (2, 104), (2, 103), (2, 109)] {
            l.record(window, Duration::from_micros(us));
        }
        for _ in 0..6 {
            l.record(1, Duration::from_micros(900));
        }
        // Window medians 100 and 104; the empty window is skipped.
        assert_eq!(l.median_in_windows_us(&[0, 2, 3]), 102.0);
        assert_eq!(l.median_in_windows_us(&[1]), 900.0);
        assert_eq!(l.median_in_windows_us(&[3]), 0.0);
        // The pooled median leans towards the disturbed window.
        assert_eq!(l.percentile_us(0.5), 109.0);
    }

    #[test]
    fn percentiles_follow_the_nearest_rank_rule() {
        let l = lat(&[50, 10, 40, 20, 30]);
        assert_eq!(l.percentile_us(0.5), 30.0);
        assert_eq!(l.percentile_us(0.2), 10.0);
        assert_eq!(l.percentile_us(0.21), 20.0);
        assert_eq!(l.percentile_us(0.99), 50.0);
        assert_eq!(l.percentile_us(1.0), 50.0);
        assert_eq!(l.mean_us(), 30.0);
        // Even count: the lower middle sample.
        assert_eq!(lat(&[1, 2, 3, 4]).percentile_us(0.5), 2.0);
        assert_eq!(Latencies::default().percentile_us(0.5), 0.0);
    }

    #[test]
    fn merged_recorders_rank_over_all_samples() {
        let mut a = lat(&[1, 2, 3]);
        a.merge(&lat(&[10, 20]));
        assert_eq!(a.len(), 5);
        assert_eq!(a.percentile_us(0.5), 3.0);
    }

    #[test]
    fn fastest_tenth_ranks_windows_by_work() {
        assert!(fastest_tenth(&[]).is_empty());
        // Fewer than ten windows: the best one; a stall is never it.
        assert_eq!(fastest_tenth(&[100.0, 100.0, 10.0, 120.0, 100.0]), [3]);
        // Twenty windows with 10, 20, ..., 200: the best two.
        let work: Vec<f64> = (1..=30).map(|w| f64::from(w % 20 * 10)).collect();
        assert_eq!(fastest_tenth(&work[..20]), [18, 17]);
        // 29 windows still give two, 30 give three.
        assert_eq!(fastest_tenth(&work[..29]).len(), 2);
        assert_eq!(fastest_tenth(&work).len(), 3);
    }

    #[test]
    fn samples_are_counted_in_their_windows() {
        let width = Duration::from_millis(250);
        assert_eq!(window_of(Duration::from_millis(249), width), 0);
        assert_eq!(window_of(Duration::from_millis(250), width), 1);
        assert_eq!(window_of(Duration::from_millis(5_010), width), 20);
        let mut l = Latencies::default();
        for window in [0, 0, 2, 2, 2, 5] {
            l.record(window, Duration::from_micros(1));
        }
        // Window 5 lies beyond the three asked for.
        assert_eq!(l.count_per_window(3), [2, 0, 3]);
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
