//! Order statistics the report uses.

/// The `p`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    sorted_quantile(&v, p)
}

fn sorted_quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentile levels a tail is reported at. Nothing above p90: on a
/// small virtual machine shared with other tenants the host slows it for
/// seconds at a time, and that alone set the p95 of a run: over five
/// runs of the same code the p95 of 2000 probe writes ranged 1.6-2.7 ms
/// and that of 200 reads beside a write feed 34-56 ms.
const LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// The highest percentile of [`LADDER`] with at least ten samples beyond
/// it, as `(percentile, value)`; the median when there are fewer than
/// twenty samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let p = LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n * (100.0 - p) >= 1000.0 - 1e-6)
        .unwrap_or(50.0);
    (p, quantile(values, p / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(p, 90.0);
        assert_eq!(v.iter().filter(|&&s| s > x).count(), 10);
        let v: Vec<f64> = (1..=50_000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&v).0, 75.0);
        assert_eq!(tail(&[5.0, 1.0]), (50.0, 3.0));
    }
}
