//! Percentiles from raw samples.
//!
//! Every timing the benchmark reports is computed here from the full
//! list of samples, by nearest rank, never from fixed-bucket histograms
//! (which interpolate inside a bucket and can only ever return a bucket
//! edge). Each percentile travels with its sample count.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample such that at least `p` percent of the samples are at
/// or below it (rank `ceil(p/100 * n)`, clamped to `1..=n`).
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `0..=100`; both are bugs
/// in the caller.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// A sorted set of raw samples.
#[derive(Clone, Debug)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Takes ownership of the samples and sorts them.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; `0.0` when there are no samples (callers
    /// that need a value check [`Dist::n`] and count an empty set as a
    /// failed check).
    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            nearest_rank(&self.sorted, p)
        }
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50.0), 5.0);
        assert_eq!(nearest_rank(&xs, 90.0), 9.0);
        assert_eq!(nearest_rank(&xs, 91.0), 10.0);
        assert_eq!(nearest_rank(&xs, 99.0), 10.0);
        assert_eq!(nearest_rank(&xs, 100.0), 10.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn p99_of_a_hundred_is_the_99th_sample_not_an_interpolation() {
        let xs: Vec<f64> = (1..=100).map(|i| f64::from(i) * 1.5).collect();
        assert_eq!(nearest_rank(&xs, 99.0), 148.5);
        assert_eq!(nearest_rank(&xs, 50.0), 75.0);
    }

    #[test]
    fn dist_sorts_and_counts() {
        let d = Dist::new(vec![3.0, 1.0, 2.0, 10.0]);
        assert_eq!(d.n(), 4);
        assert_eq!(d.p(50.0), 2.0);
        assert_eq!(d.p(100.0), 10.0);
        assert_eq!(d.sum(), 16.0);
        assert_eq!(Dist::new(Vec::new()).p(50.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_slice_panics() {
        let _ = nearest_rank(&[], 50.0);
    }
}
