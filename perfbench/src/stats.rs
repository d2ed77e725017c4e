//! Order statistics for the benchmark's readings.
//!
//! Percentiles use the nearest-rank rule. Time to assignment is a
//! *censored* sample: a task that is never assigned has no finite
//! value but is later than every assigned one, so it sits at the top of
//! the order. A percentile whose rank falls among the censored tasks is
//! undefined, not the largest finite value.

/// Nearest-rank index of quantile `q` in a sample of `n` values.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The `q` quantile of `values` (any order), or `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q)])
}

/// The median of `values`, or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The `q` quantile over `finite.len() + censored` observations, where
/// the `censored` ones are known only to exceed every finite value.
/// `None` when there is no observation or the rank is censored.
pub fn censored_percentile(finite: &[f64], censored: usize, q: f64) -> Option<f64> {
    let n = finite.len() + censored;
    if n == 0 {
        return None;
    }
    let r = rank(n, q);
    if r >= finite.len() {
        return None;
    }
    let mut sorted = finite.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[r])
}

/// Arithmetic mean, or 0 for an empty sample (a layer that did no work
/// spent no time).
pub fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.25), Some(25.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn censored_values_rank_above_every_finite_value() {
        let finite: Vec<f64> = (1..=90).map(f64::from).collect();
        // 90 assigned + 10 never assigned: p50 and p90 are finite ...
        assert_eq!(censored_percentile(&finite, 10, 0.5), Some(50.0));
        assert_eq!(censored_percentile(&finite, 10, 0.9), Some(90.0));
        // ... but p91 and above land among the censored tasks.
        assert_eq!(censored_percentile(&finite, 10, 0.91), None);
        assert_eq!(censored_percentile(&finite, 10, 0.99), None);
        // Dropping the censored tasks would have reported 89 as p99:
        // survivor bias.
        assert_eq!(percentile(&finite, 0.99), Some(90.0));
        assert_eq!(censored_percentile(&finite, 0, 0.99), Some(90.0));
    }

    #[test]
    fn censored_edge_cases() {
        assert_eq!(censored_percentile(&[], 0, 0.5), None);
        assert_eq!(censored_percentile(&[], 5, 0.5), None);
        assert_eq!(censored_percentile(&[2.0, 1.0], 0, 0.5), Some(1.0));
        assert_eq!(censored_percentile(&[2.0, 1.0], 2, 0.5), Some(2.0));
        assert_eq!(censored_percentile(&[2.0, 1.0], 3, 0.5), None);
    }

    #[test]
    fn mean_and_ratio_of_nothing_are_zero() {
        assert_eq!(mean(0.0, 0), 0.0);
        assert_eq!(mean(6.0, 3), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
