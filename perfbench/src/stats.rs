//! Statistics over measured samples: nearest-rank percentiles that refuse
//! to report a tail they have too few samples for, and span self time as
//! the span minus the union of its children's intervals.

/// Fewest samples that must lie beyond a percentile's rank before the
/// percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Sort samples with `f64::total_cmp`: a NaN sorts last instead of
/// panicking a comparator.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `q` (in `0..=1`) of an already sorted sample.
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond the rank, so
/// a tail is never read off a handful of points.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of an unsorted sample by nearest rank, with no tail
/// requirement (for small sets of repeated timings, e.g. set-up runs).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    sort(&mut v);
    (!v.is_empty()).then(|| v[(v.len() - 1) / 2])
}

/// Arithmetic mean (`None` when empty).
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Total length covered by the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of a span `[start, end)`: its length minus the part of it
/// covered by the union of its children's intervals (children are
/// clipped to the parent, and overlapping children count once).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .collect();
    end.saturating_sub(start) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
        // 20 samples: p50 has 10 beyond, p60 only 8.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&v, 0.6), None);
    }

    #[test]
    fn sort_orders_nan_without_panicking() {
        let mut v = vec![3.0, f64::NAN, -1.0, f64::INFINITY, 0.5];
        sort(&mut v);
        assert_eq!(&v[..4], &[-1.0, 0.5, 3.0, f64::INFINITY]);
        assert!(v[4].is_nan());
        assert_eq!(median(&[5.0, f64::NAN, 1.0]), Some(5.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&[(20, 25), (0, 10), (2, 3)]), 15);
        assert_eq!(union_len(&[(0, 10), (10, 12)]), 12);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children covering [10, 40) of a [0, 100) span.
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40)]), 70);
        // Children are clipped to the parent.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // A child wholly outside the span takes nothing away.
        assert_eq!(self_time((0, 10), &[(20, 30)]), 10);
        assert_eq!(self_time((0, 10), &[(0, 10), (0, 10)]), 0);
    }
}
