//! Order statistics over timing samples. Nothing here computes a mean: host
//! times on a shared machine are bimodal, and a mean follows whichever mode
//! dominated a run.

/// Order statistics of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest percentile with at least ten samples beyond it (the largest
    /// sample when there are ten or fewer).
    pub tail: f64,
    /// Percentile rank of `tail`, in percent.
    pub tail_pct: f64,
    /// Largest sample.
    pub max: f64,
}

/// Samples beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = |p: f64| sorted[((p * (n - 1) as f64).round() as usize).min(n - 1)];
        let (tail, tail_pct) = if n > TAIL_BEYOND {
            let at = n - TAIL_BEYOND - 1;
            (sorted[at], 100.0 * (at + 1) as f64 / n as f64)
        } else {
            (sorted[n - 1], 100.0)
        };
        Some(Self {
            n,
            min: sorted[0],
            q1: rank(0.25),
            median: rank(0.5),
            q3: rank(0.75),
            tail,
            tail_pct,
            max: sorted[n - 1],
        })
    }

    /// One-line rendering with every statistic scaled by `scale` (for
    /// example `1e3` to print seconds as milliseconds).
    #[must_use]
    pub fn line(&self, scale: f64, unit: &str) -> String {
        format!(
            "n={} min={:.4} q1={:.4} median={:.4} q3={:.4} p{:.2}={:.4} max={:.4} {unit}",
            self.n,
            self.min * scale,
            self.q1 * scale,
            self.median * scale,
            self.q3 * scale,
            self.tail_pct,
            self.tail * scale,
            self.max * scale,
        )
    }
}

/// Median of `samples` (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Geometric mean of positive values (`None` when empty). This is the
/// paper's Table 2 aggregate over networks, not a timing statistic.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_of_a_known_set() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 26.0, 51.0, 76.0, 101.0)
        );
        // Exactly ten samples lie beyond the tail.
        assert_eq!(s.tail, 91.0);
        assert_eq!(samples.iter().filter(|v| **v > s.tail).count(), 10);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]).unwrap() - 10.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
    }
}
