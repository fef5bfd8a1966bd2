//! Order statistics for the reported timings.

/// `values` sorted ascending (timings are never NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Zero-based rank, in ascending order, of the sample reported as the
/// tail of `n` samples: the highest percentile that still has at least
/// ten samples beyond it, capped at p95 (further out a 2-core box reports
/// its scheduler, not the program: the p98 of 500 requests moved 16 %
/// between runs of one binary). `None` with fewer than 23 samples: no
/// percentile above the median has ten beyond it.
pub fn tail_rank(n: usize) -> Option<usize> {
    if n < 23 {
        return None;
    }
    let p95 = (n * 95).div_ceil(100) - 1;
    Some(p95.min(n - 11))
}

/// The tail of `values` and the percentile it stands at. With too few
/// samples for a tail (see [`tail_rank`]) that is the median: a handful of
/// runs cannot support a higher claim, and their maximum is one
/// scheduling accident away from meaningless.
pub fn tail(values: &[f64]) -> (f64, f64) {
    match tail_rank(values.len()) {
        Some(rank) => (
            sorted(values)[rank],
            100.0 * (rank + 1) as f64 / values.len() as f64,
        ),
        None => (median(values), 50.0),
    }
}

/// Operations per second that `connections` closed loops sustain when an
/// operation takes the mean of `op_ms` with the slowest tenth (rounded up)
/// set aside; connections ÷ mean operation time is what a closed loop
/// completes per second. The slowest tenth goes because one operation that
/// met a scheduler hiccup moves the plain figure of a window of a few
/// operations by a fifth; the tail is `trace.op_tail_ms`'s to report.
pub fn sustained_ops_per_s(op_ms: &[f64], connections: usize) -> f64 {
    let v = sorted(op_ms);
    let kept = &v[..v.len() - v.len().div_ceil(10).min(v.len().saturating_sub(1))];
    if kept.is_empty() {
        return 0.0;
    }
    let mean_ms = kept.iter().sum::<f64>() / kept.len() as f64;
    connections as f64 * 1e3 / mean_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rate_sets_the_slowest_tenth_aside() {
        // One connection, four operations, one of them stalled: the stall goes.
        assert_eq!(
            sustained_ops_per_s(&[3000.0, 5900.0, 3000.0, 3000.0], 1),
            1.0 / 3.0
        );
        // Twenty requests on two connections: the slowest two go.
        let mut v = vec![10.0; 18];
        v.extend([500.0, 900.0]);
        assert_eq!(sustained_ops_per_s(&v, 2), 200.0);
        // A single operation is kept; none is no rate.
        assert_eq!(sustained_ops_per_s(&[250.0], 1), 4.0);
        assert_eq!(sustained_ops_per_s(&[], 1), 0.0);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Too few samples for any percentile above the median.
        assert_eq!(tail_rank(0), None);
        assert_eq!(tail_rank(22), None);
        assert_eq!(tail(&[5.0, 1.0, 9.0]), (5.0, 50.0));
        // From 23 on, exactly ten samples lie beyond the reported one ...
        for n in [23usize, 100, 219] {
            let rank = tail_rank(n).unwrap();
            assert_eq!(n - 1 - rank, 10, "n = {n}");
            assert!(rank > n / 2);
        }
        // ... until p95 itself has more than ten beyond it.
        assert_eq!(tail_rank(220), Some(208));
        assert_eq!(tail_rank(100_000), Some(94_999));
    }

    #[test]
    fn tail_reports_value_and_percentile() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v), (380.0, 95.0));
        assert_eq!(tail(&v[..100]), (90.0, 90.0));
    }
}
