//! Order statistics the benchmark reports: medians, quartiles, the tail
//! percentile with a guaranteed sample count beyond it, and failure
//! shares.

/// Percentiles the tail is chosen from, in per-mille, highest first.
const TAIL_LADDER: [u32; 5] = [999, 990, 950, 900, 750];

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive`
/// method), so spreads printed here match the ones the acceptance
/// check computes.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *out = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    q
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The highest percentile (per-mille) of `n` samples that still has at
/// least [`MIN_BEYOND_TAIL`] samples strictly beyond its nearest rank,
/// with that count; `None` when `n` is too small for any of them.
pub fn tail_percentile(n: usize) -> Option<(u32, usize)> {
    TAIL_LADDER.iter().find_map(|&pm| {
        let beyond = n - rank(n, pm);
        (beyond >= MIN_BEYOND_TAIL).then_some((pm, beyond))
    })
}

/// 1-based nearest rank of per-mille `pm` among `n` samples.
fn rank(n: usize, pm: u32) -> usize {
    (n * pm as usize).div_ceil(1000).max(1)
}

/// Nearest-rank percentile (per-mille `pm`) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], pm: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let v = sorted(values);
    v[rank(v.len(), pm) - 1]
}

/// Share of attempted operations that failed.
///
/// # Panics
///
/// Panics when nothing was attempted or more failed than attempted.
pub fn failure_share(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "failure share of no attempts");
    assert!(
        failed <= attempted,
        "{failed} failed of {attempted} attempted"
    );
    failed as f64 / attempted as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(40), Some((750, 10)));
        assert_eq!(tail_percentile(99), Some((750, 24)));
        assert_eq!(tail_percentile(100), Some((900, 10)));
        assert_eq!(tail_percentile(199), Some((900, 19)));
        assert_eq!(tail_percentile(200), Some((950, 10)));
        assert_eq!(tail_percentile(286), Some((950, 14)));
        assert_eq!(tail_percentile(1000), Some((990, 10)));
        assert_eq!(tail_percentile(10_000), Some((999, 10)));
        for n in 1..3000 {
            if let Some((pm, beyond)) = tail_percentile(n) {
                assert!(beyond >= MIN_BEYOND_TAIL, "n={n}");
                let mut higher = TAIL_LADDER.iter().filter(|&&p| p > pm);
                assert!(higher.all(|&p| n - rank(n, p) < MIN_BEYOND_TAIL), "n={n}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 999), 100.0);
        assert_eq!(percentile(&[5.0], 500), 5.0);
    }

    #[test]
    fn failure_share_counts_against_attempts() {
        assert_eq!(failure_share(10, 0), 0.0);
        assert_eq!(failure_share(8, 2), 0.25);
        assert_eq!(failure_share(3, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "failed of")]
    fn more_failures_than_attempts_is_a_bug() {
        failure_share(1, 2);
    }
}
