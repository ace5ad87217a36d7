//! Order statistics for host timings.
//!
//! Quartiles use the same "exclusive" interpolation as Python's
//! `statistics.quantiles(values, n=4)`, so a median printed here and one
//! computed over the printed values agree. A tail percentile is emitted
//! only when at least [`MIN_BEYOND`] samples lie beyond it; below that it
//! is noise.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median and quartiles of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles by Python's exclusive method. A single sample is its own
/// quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(Quartiles {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        });
    }
    let cut = |i: usize| {
        // Python's exclusive method: position i·(n + 1)/4, clamped to
        // the inner order statistics, with exact-integer interpolation
        // weights (which extrapolate at the clamped ends).
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Quartiles {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    })
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `values`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "tail percentile must lie in (0, 1)");
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.n, q.q1, q.median, q.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond.
        assert_eq!(tail(&v, 0.90), Some(90.0));
        // p99 of 100 samples: one beyond — not reported.
        assert_eq!(tail(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Some(990.0));
        assert_eq!(tail(&v[..99], 0.90), None);
    }
}
