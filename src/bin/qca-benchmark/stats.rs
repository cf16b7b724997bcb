//! Exact order statistics over raw sample vectors. No histogram
//! bucketing: a log-bucketed estimate is only good to ~6%, which would
//! blur every comparison by itself.

/// Nearest-rank percentile: the smallest sample with at least `pct`% of
/// all samples at or below it. `sorted` is ascending; `None` when empty.
pub fn nearest_rank(sorted: &[f64], pct: u32) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The tail percentiles a report may use, highest first.
const TAIL_PERCENTILES: [u32; 3] = [99, 95, 90];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// strictly beyond it among `n` samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&pct| n - (pct as usize * n).div_ceil(100) >= 10)
}

/// Sorts samples ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// First quartile, median and third quartile, interpolated exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive"
/// method) does, so spreads printed here equal the ones Python computes.
/// A single value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values.to_vec());
    let n = data.len();
    match n {
        0 => None,
        1 => Some([data[0]; 3]),
        // Python clamps the index and lets `delta` go negative (or past
        // 4) at the ends, extrapolating from the two outermost samples.
        _ => Some([1i64, 2, 3].map(|i| {
            let m = n as i64 + 1;
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
        })),
    }
}

/// The median (the middle quartile).
pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q[1])
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), Some(5.0));
        assert_eq!(nearest_rank(&v, 90), Some(9.0));
        assert_eq!(nearest_rank(&v, 91), Some(10.0));
        assert_eq!(nearest_rank(&v, 99), Some(10.0));
        assert_eq!(nearest_rank(&v, 0), Some(1.0));
        assert_eq!(nearest_rank(&[3.5], 99), Some(3.5));
        assert_eq!(nearest_rank(&[], 50), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&big, 99), Some(990.0));
        assert_eq!(nearest_rank(&big, 50), Some(500.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(quartiles(&[]), None);
    }
}
