//! Order statistics over latency samples and the program's log2
//! histograms.

use csar_obs::HistSnapshot;

/// Nearest-rank quantile `q` (0..=1) of `sorted`; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Latency samples in nanoseconds, reported in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ns: Vec<u64>,
}

impl Latencies {
    /// Record one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.ns.len() as u64
    }

    /// Quantile `q` in microseconds; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile_us(&self.ns, q)
    }

    /// Quantile `q` in microseconds of each of up to `windows` runs of
    /// consecutive samples (in recording order, at least [`MIN_WINDOW`]
    /// each), then the median over those windows; 0 when empty.
    ///
    /// A pooled quantile follows the slowest stretches of a run as well,
    /// which on a shared host are where the host, not the program, was
    /// slow. The median over windows follows a typical stretch instead.
    pub fn windowed_quantile_us(&self, q: f64, windows: usize) -> f64 {
        let n = self.ns.len();
        let windows = windows.min(n / MIN_WINDOW).max(1);
        let mut per: Vec<f64> = (0..windows)
            .map(|w| quantile_us(&self.ns[w * n / windows..(w + 1) * n / windows], q))
            .collect();
        median(&mut per)
    }
}

/// Fewest samples a window of [`Latencies::windowed_quantile_us`] holds.
pub const MIN_WINDOW: usize = 200;

fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let mut us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    quantile(&us, q)
}

/// Median of a log2 histogram, interpolated linearly inside the bucket
/// that holds it (bucket `i > 0` spans `[2^(i-1), 2^i)`). 0 when absent
/// or empty.
pub fn hist_median(h: Option<&HistSnapshot>) -> f64 {
    let Some(h) = h else { return 0.0 };
    let total: u64 = h.buckets.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut below = 0u64;
    for &(b, n) in &h.buckets {
        if (below + n) as f64 >= target {
            if b == 0 {
                return 0.0;
            }
            let lo = (1u64 << (b - 1).min(63)) as f64;
            let hi = lo * 2.0;
            return lo + (hi - lo) * (target - below as f64) / n as f64;
        }
        below += n;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_one_slow_window() {
        let mut lat = Latencies::default();
        for w in 0..5u64 {
            for i in 1..=MIN_WINDOW as u64 {
                // One window in five is ten times slower.
                lat.push(i * 1000 * if w == 2 { 10 } else { 1 });
            }
        }
        assert_eq!(lat.windowed_quantile_us(0.99, 5), 198.0);
        assert_eq!(lat.windowed_quantile_us(0.99, 100), 198.0);
        assert_eq!(lat.quantile_us(0.99), 1900.0);
        assert_eq!(Latencies::default().windowed_quantile_us(0.99, 5), 0.0);
    }

    #[test]
    fn hist_median_interpolates_inside_bucket() {
        // 10 samples in [1024, 2048): the median sits mid-bucket.
        let h = HistSnapshot {
            name: "x".into(),
            count: 10,
            sum: 0,
            buckets: vec![(11, 10)],
        };
        assert_eq!(hist_median(Some(&h)), 1536.0);
        assert_eq!(hist_median(None), 0.0);
    }
}
