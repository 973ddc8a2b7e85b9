//! Order statistics over samples.

/// Linear-interpolated percentile `p` (0–100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of quantile `p` (0–1) of `xs`: the average of
/// all order statistics weighted by a Beta(p(n+1), (1−p)(n+1)) density
/// over their ranks. Unlike a single order statistic it does not jump
/// when the rank falls between two clusters of values (two job types of
/// different cost). 0 when empty.
pub fn hd_quantile(xs: &[f64], p: f64) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let a = p * (n as f64 + 1.0);
    let b = (1.0 - p) * (n as f64 + 1.0);
    // Integrate the unnormalised density over each rank's interval by
    // the midpoint rule, then normalise by the total. The log-densities
    // are shifted by their maximum before exponentiating: at large n the
    // raw density underflows to 0 everywhere.
    const STEPS: usize = 32;
    let h = 1.0 / (n * STEPS) as f64;
    let log_w: Vec<f64> = (0..n * STEPS)
        .map(|k| {
            let t = (k as f64 + 0.5) * h;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let top = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut num, mut den) = (0.0, 0.0);
    for (x, ws) in v.iter().zip(log_w.chunks(STEPS)) {
        let w: f64 = ws.iter().map(|l| (l - top).exp()).sum();
        num += w * x;
        den += w;
    }
    num / den
}

/// Median of `xs`; 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 90.0), 4.6);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn harrell_davis_is_smooth_and_central() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b.abs().max(1.0);
        // Symmetric samples: the median estimate is the centre.
        let xs: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!(close(hd_quantile(&xs, 0.5), 5.0));
        assert!(hd_quantile(&xs, 0.9) > 7.0 && hd_quantile(&xs, 0.9) < 9.0);
        assert!(close(hd_quantile(&[3.0], 0.9), 3.0));
        assert_eq!(hd_quantile(&[], 0.5), 0.0);
        // Two clusters of equal size: one value moving across the gap
        // moves the estimate a little, where the sample median jumps.
        let mut two: Vec<f64> = [vec![10.0; 10], vec![100.0; 10]].concat();
        let before = hd_quantile(&two, 0.5);
        two[10] = 10.0;
        let after = hd_quantile(&two, 0.5);
        assert!((after - before).abs() < 20.0);
        assert!(median(&two) - 10.0 < 1e-9);
    }

    #[test]
    fn harrell_davis_survives_many_samples() {
        // 1..=5000: the raw Beta density underflows at this n.
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        let p50 = hd_quantile(&xs, 0.5);
        let p90 = hd_quantile(&xs, 0.9);
        assert!((p50 - 2500.5).abs() < 1.0, "p50 {p50}");
        assert!((p90 - 4500.5).abs() < 5.0, "p90 {p90}");
    }
}
