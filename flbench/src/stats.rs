//! The tail statistic of the reported timings (medians come from
//! `mixnn_bench::report::percentile`).

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it, i.e. the eleventh-largest sample. Returns the
/// value and its percentile rank `100·(n−10)/n`. With eleven samples or
/// fewer the tail is the maximum (rank 100).
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (0.0, 100.0),
        _ if n <= 11 => (sorted[n - 1], 100.0),
        _ => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let (value, rank) = tail(&samples);
        assert_eq!(value, 89.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert_eq!(rank, 90.0);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0));
    }
}
