//! Order statistics the benchmark reports: medians, nearest-rank
//! percentiles, the tail percentile rule, and the quartile spread used
//! to judge whether repeated runs agree.

/// Sort a sample ascending (total order; NaN never occurs in timings).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample, with the percentile
/// given in thousandths (`p_milli = 900` is p90.0): the value at 1-based
/// rank `ceil(p * n)`, clamped to at least rank 1.
pub fn percentile_milli(sorted: &[f64], p_milli: u64) -> f64 {
    let n = sorted.len() as u64;
    assert!(n > 0 && p_milli <= 1000);
    let rank = (p_milli * n).div_ceil(1000).max(1);
    sorted[(rank - 1) as usize]
}

/// Samples that must lie strictly beyond the reported tail value.
pub const TAIL_BEYOND: u64 = 10;

/// Highest reported tail percentile, in thousandths (p98). Long runs
/// (hundreds of thousands of requests) keep 2% of their samples beyond
/// the tail. On the 2-vCPU host the benchmark was sized on, loopback
/// round trips had a knee between p99 and p99.5 (50 to 69 us), so p99
/// moved by up to a quarter between runs while p98 moved a few percent.
pub const TAIL_CAP_MILLI: u64 = 980;

/// The tail percentile for `n` samples, in thousandths: the highest
/// percentile on a 0.1 grid, capped at p98, that leaves at least
/// [`TAIL_BEYOND`] samples beyond its nearest-rank value. `None` when
/// `n` is too small for any such percentile.
pub fn tail_percentile_milli(n: u64) -> Option<u64> {
    if n <= TAIL_BEYOND {
        return None;
    }
    let p = (1000 * (n - TAIL_BEYOND) / n).min(TAIL_CAP_MILLI);
    (p > 0).then_some(p)
}

/// The tail of a sample: `(value, percentile)` by
/// [`tail_percentile_milli`], the percentile as a plain number (90.6).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile_milli(xs.len() as u64)?;
    Some((percentile_milli(&sorted(xs), p), p as f64 / 10.0))
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len() as i64;
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = i * m - j * 4;
        *q = (v[(j - 1) as usize] * (4 - delta) as f64 + v[j as usize] * delta as f64) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread a metric must keep below its regression bound.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_milli(&v, 500), 50.0);
        assert_eq!(percentile_milli(&v, 900), 90.0);
        assert_eq!(percentile_milli(&v, 999), 100.0);
        assert_eq!(percentile_milli(&v, 0), 1.0);
        assert_eq!(percentile_milli(&[7.0], 500), 7.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail_percentile_milli(10), None);
        assert_eq!(tail_percentile_milli(11), Some(90));
        assert_eq!(tail_percentile_milli(20), Some(500));
        assert_eq!(tail_percentile_milli(100), Some(900));
        assert_eq!(tail_percentile_milli(107), Some(906));
        // Large samples stop at p98 and keep far more than ten beyond.
        assert_eq!(tail_percentile_milli(500), Some(980));
        assert_eq!(tail_percentile_milli(1_000_000), Some(980));
    }

    #[test]
    fn tail_always_leaves_ten_beyond() {
        for n in 11..3000u64 {
            let p = tail_percentile_milli(n).unwrap();
            let rank = (p * n).div_ceil(1000).max(1);
            assert!(n - rank >= TAIL_BEYOND, "n={n} p={p} rank={rank}");
            // And it is the highest 0.1-grid percentile that does (below
            // the cap).
            if p < TAIL_CAP_MILLI {
                let next = ((p + 1) * n).div_ceil(1000);
                assert!(n - next < TAIL_BEYOND, "n={n}: p{} also fits", p + 1);
            }
        }
    }

    #[test]
    fn tail_value_of_distinct_samples() {
        let xs: Vec<f64> = (1..=107).rev().map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(p, 90.6);
        assert_eq!(v, 97.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2], n=4) == [1.25, 3.0, 4.75]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0]), [1.25, 3.0, 4.75]);
        // Two samples extrapolate: quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn quartile_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0; 10]), 0.0);
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        assert!(quartile_spread(&steady) < 0.01);
    }
}
