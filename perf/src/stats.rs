//! Order statistics with the benchmark's sample-count rule.

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in (0, 1).
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it: a tail
/// estimate resting on a handful of samples is noise, not a metric.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of unsorted values (mean of the two middle ones for an even
/// count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the driver's spread is computed this
/// way, so `compare` must match it. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, clamped into the data
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median; `None`
/// below two values or for a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, ten beyond — just reportable.
        assert_eq!(
            percentile(&v, 0.95),
            Some(Pct {
                value: 190.0,
                samples: 200
            })
        );
        // p99 of 200: rank 198, two beyond — not reportable.
        assert_eq!(percentile(&v, 0.99), None);
        // p95 of 199: rank 190, nine beyond.
        assert_eq!(percentile(&v[..199], 0.95), None);
        assert_eq!(percentile(&v[..20], 0.5).map(|p| p.value), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
