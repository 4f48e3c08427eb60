//! Order statistics over timing samples.
//!
//! Every timing the harness reports is a median, and where the sample is
//! large enough also the highest percentile that still has at least ten
//! samples beyond it: a tail percentile resting on fewer samples is one or two
//! slow statements, not a property of the system.

/// Percentiles tried from the top; the first with enough samples beyond wins.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// How many samples must lie beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

/// Median and supported tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it, when one above the median exists.
    pub tail: Option<(f64, f64)>,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.6}", self.p50)?;
        if let Some((p, v)) = self.tail {
            write!(f, "  p{p} {v:.6}")?;
        }
        write!(f, "  (n={})", self.n)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 100]; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest ladder percentile with at least ten samples beyond it.
pub fn supported_tail(n: usize) -> Option<f64> {
    // The small slack keeps `10_000 * 0.1 %` from rounding to 9.999... samples.
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 + 1e-6 >= MIN_BEYOND)
}

/// Median plus the supported tail percentile of `samples`.
pub fn summarize(samples: &[f64]) -> Summary {
    Summary {
        n: samples.len(),
        p50: median(samples),
        tail: supported_tail(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 24 samples: only the median is supported (p75 leaves 6 beyond).
        assert_eq!(supported_tail(24), None);
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(supported_tail(40), Some(75.0));
        // 110 samples: p90 leaves 11, p95 leaves 5.5.
        assert_eq!(supported_tail(110), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let samples: Vec<f64> = (1..=110).map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 110);
        assert_eq!(s.p50, 55.5);
        assert_eq!(s.tail, Some((90.0, 99.0)));
        assert!(s.to_string().contains("(n=110)"));
        assert_eq!(summarize(&samples[..24]).tail, None);
    }
}
