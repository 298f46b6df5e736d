//! Order statistics over samples, computed the way Python's
//! `statistics.median` and `statistics.quantiles(n=4)` compute them, so
//! the quartiles printed here match a reader's own check.

/// Median, first and third quartile of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile (exclusive method).
    pub q1: f64,
    /// Third quartile (exclusive method).
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut x = samples.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let median = if n % 2 == 1 {
            x[n / 2]
        } else {
            (x[n / 2 - 1] + x[n / 2]) / 2.0
        };
        Summary {
            median,
            q1: quartile(&x, 1),
            q3: quartile(&x, 3),
            n,
        }
    }

    /// Interquartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartile `i` (1 or 3) of sorted data, `statistics.quantiles`'
/// default exclusive method.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    if len == 1 {
        return sorted[0];
    }
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        let s = Summary::of(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (3.0, 3.0, 3.0, 0.0));
    }
}
