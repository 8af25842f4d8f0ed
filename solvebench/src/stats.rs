//! Order statistics over latency samples.

/// How many samples must lie beyond the tail percentile.
const TAIL_BEYOND: usize = 10;

/// Median by linear interpolation between the middle samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`: the eleventh-largest sample, at percentile
/// `100·(n − 10)/n`. Falls back to the median when there are ten samples
/// or fewer.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return (50.0, median(values));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let beyond = TAIL_BEYOND as f64;
    (
        100.0 * (n as f64 - beyond) / n as f64,
        sorted[n - TAIL_BEYOND - 1],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values), (99.0, 990.0));
        let values: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail(&values), (50.0, 4.5));
    }
}
