//! Estimators and small encoders shared by every workload.

/// Nearest-rank quantile: the smallest sample with at least a share `q`
/// of all samples at or below it. `p25` of 40 rep times is the 10th
/// fastest rep.
///
/// # Panics
///
/// On an empty sample set (every caller measures at least once).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn p25(samples: &[f64]) -> f64 {
    quantile(samples, 0.25)
}

pub fn p50(samples: &[f64]) -> f64 {
    quantile(samples, 0.50)
}

pub fn p75(samples: &[f64]) -> f64 {
    quantile(samples, 0.75)
}

pub fn p90(samples: &[f64]) -> f64 {
    quantile(samples, 0.90)
}

/// Relative split-half spread of an estimator: the estimate on the first
/// half of the samples against the estimate on the second half, as a
/// share of the estimate on all of them. Host drift during a run shows up
/// here, which is what makes one run's number trustworthy or not.
pub fn split_half_spread(samples: &[f64], estimator: fn(&[f64]) -> f64) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (a, b) = samples.split_at(samples.len() / 2);
    let all = estimator(samples);
    if all == 0.0 {
        return 0.0;
    }
    ((estimator(a) - estimator(b)) / all).abs()
}

/// 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash over `bytes`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A JSON number with every digit Rust's shortest round-trip form
/// carries; non-finite values become `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// An optional measurement as a JSON number or `null`.
pub fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), json_num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(p25(&xs), 10.0);
        assert_eq!(p50(&xs), 20.0);
        assert_eq!(p75(&xs), 30.0);
        assert_eq!(p90(&xs), 36.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert_eq!(p50(&[7.0]), 7.0);
        assert_eq!(p90(&[3.0, 1.0, 2.0]), 3.0);
    }

    #[test]
    fn split_half_spread_sees_drift_not_order() {
        let flat = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(split_half_spread(&flat, p50), 0.0);
        let drift = [1.0, 1.0, 1.2, 1.2];
        let s = split_half_spread(&drift, p50);
        assert!((s - 0.2).abs() < 1e-12, "{s}");
        assert_eq!(split_half_spread(&[5.0], p50), 0.0);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.2034), "1.2034");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_opt(None), "null");
    }
}
