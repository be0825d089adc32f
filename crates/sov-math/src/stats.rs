//! Streaming statistics, percentiles and histograms.
//!
//! The paper's characterization methodology (Sec. V-C, Fig. 10) reports
//! best-case, mean, and 99th-percentile latencies plus standard deviations.
//! [`Summary`] collects samples and answers exactly those queries;
//! [`Histogram`] supports the reuse-frequency histogram of Fig. 4a.

/// A collection of `f64` samples with summary-statistics queries.
///
/// Stores all samples in recording order (experiments in this workspace
/// are at most a few hundred thousand frames), enabling exact percentiles
/// rather than sketch approximations. Queries never change the summary, so
/// two summaries compare equal exactly when they recorded the same samples
/// in the same order, whatever was asked of them.
///
/// # Example
///
/// ```
/// use sov_math::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    samples: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean. Returns `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation. Returns `0.0` when empty.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / self.samples.len() as f64;
        var.sqrt()
    }

    /// Minimum sample (the "best case" in the paper's terminology).
    ///
    /// Returns `0.0` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample (the "worst case"). Returns `0.0` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Exact percentile `p ∈ [0, 100]` by nearest-rank on the sorted samples
    /// (sorts a copy; the summary itself is left as recorded).
    ///
    /// Returns `0.0` when empty.
    ///
    /// # Panics
    ///
    /// Panics if a NaN sample was recorded, or (debug builds) if `p` is
    /// outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        debug_assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample recorded"));
        let n = sorted.len();
        // Guard the ceil against upward float error at exact-integer
        // ranks (e.g. 99.9% of 1000 samples is rank 999, but the
        // product lands at 999.0000000000001).
        let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
        sorted[rank.clamp(1, n) - 1]
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// 99th percentile, as reported in Fig. 10a.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// 99.9th percentile — the deep tail COLA-style accounting cares
    /// about: at 10 control Hz, p99.9 is the worst frame of every
    /// ~100 s of driving.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.percentile(99.9)
    }

    /// Read-only view of the recorded samples, in recording order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow bins.
///
/// Used to reproduce the reuse-frequency histogram of Fig. 4a.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((value - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Number of bins.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// `(bin_center, count)` pairs for plotting.
    pub fn centers(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + (i as f64 + 0.5) * width, c))
    }

    /// Total recorded values including under/overflow.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Values recorded below the range.
    #[must_use]
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Values recorded at or above the range's upper bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Coefficient of variation (`σ / μ`) of a set of samples — a scalar
/// irregularity measure used in the LiDAR reuse study.
///
/// Returns `0.0` for empty input or zero mean.
#[must_use]
pub fn coefficient_of_variation(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    if mean.abs() < 1e-300 {
        return 0.0;
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(99.0), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_basic_stats() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 4.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Summary = (1..=100).map(f64::from).collect();
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(1.0), 1.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn deep_tail_percentiles() {
        let s: Summary = (1..=1000).map(f64::from).collect();
        assert_eq!(s.p99(), 990.0);
        assert_eq!(s.p999(), 999.0);
        // With few samples p99.9 collapses onto the max by nearest rank.
        let small: Summary = (1..=10).map(f64::from).collect();
        assert_eq!(small.p999(), small.max());
    }

    #[test]
    fn percentile_after_interleaved_records() {
        let mut s = Summary::new();
        s.record(10.0);
        assert_eq!(s.percentile(50.0), 10.0);
        s.record(1.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn queries_do_not_change_equality() {
        let a: Summary = [3.0, 1.0, 2.0].into_iter().collect();
        let b = a.clone();
        assert_eq!(a.percentile(50.0), 2.0);
        assert_eq!((a.median(), a.p99(), a.p999()), (2.0, 3.0, 3.0));
        assert_eq!(a, b, "a queried summary must still equal its twin");
        assert_eq!(a.samples(), &[3.0, 1.0, 2.0], "recording order kept");
    }

    #[test]
    fn extend_and_from_iterator_agree() {
        let a: Summary = vec![1.0, 2.0, 3.0].into_iter().collect();
        let mut b = Summary::new();
        b.extend(vec![1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        h.record(-1.0);
        h.record(10.0);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn histogram_centers() {
        let h = Histogram::new(0.0, 4.0, 4);
        let centers: Vec<f64> = h.centers().map(|(c, _)| c).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }

    #[test]
    fn cv_increases_with_spread() {
        let tight = coefficient_of_variation(&[9.0, 10.0, 11.0]);
        let wide = coefficient_of_variation(&[1.0, 10.0, 19.0]);
        assert!(wide > tight);
    }
}
