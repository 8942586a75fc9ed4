//! Order statistics for timing samples.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentiles the tail is read at, highest first.
const TAIL_LADDER: [usize; 5] = [99, 95, 90, 75, 50];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] samples beyond it (nearest-rank), with its value.
/// `None` when there are fewer than `2 × TAIL_BEYOND` samples.
pub fn tail(xs: &[f64]) -> Option<(usize, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = (p * n).div_ceil(100);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((95, 190.0)));
        let xs: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((50, 12.0)));
        assert_eq!(tail(&xs[..19]), None);
    }
}
