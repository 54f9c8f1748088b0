//! Order statistics over timing samples.

/// The median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value, or the largest when there are fewer than
/// eleven samples.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    v[if n > 10 { n - 11 } else { n - 1 }]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), 89.0);
        assert_eq!(tail(&[5.0, 7.0]), 7.0);
    }
}
