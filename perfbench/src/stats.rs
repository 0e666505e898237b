//! Order statistics over timing samples.

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|v| !v.is_nan());
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile `p` in `0..=100`; NaN for an empty set,
    /// so a boundary that saw no calls cannot pass for a measured 0.
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted[self.rank(p).clamp(1, self.sorted.len()) - 1]
    }

    /// 1-based nearest rank of percentile `p`.
    fn rank(&self, p: f64) -> usize {
        (p * self.sorted.len() as f64 / 100.0).ceil() as usize
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Whether percentile `p` has at least ten samples beyond it; each
    /// reported percentile prints this next to its sample count.
    pub fn supports(&self, p: f64) -> bool {
        self.sorted.len().saturating_sub(self.rank(p)) >= 10
    }
}

/// The median of `values` (NaN for none).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.median(), 50.0);
        assert_eq!(d.pct(90.0), 90.0);
        assert_eq!(d.pct(99.0), 99.0);
        assert!(d.supports(90.0));
        assert!(!d.supports(99.0));
        assert!(Dist::default().median().is_nan());
    }
}
