//! Summary statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`q` in `[0, 1]`) of an ascending slice: the
/// smallest sample with at least a `q` share of the samples at or below
/// it. `0.0` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_sorted`] over an unsorted slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

/// The `q`-quantile of each consecutive `window`-sample slice of `xs`
/// (a trailing slice shorter than `min` is left out). The median of these
/// reads a tail percentile that one short stall of the host cannot move.
pub fn window_percentiles(xs: &[f64], window: usize, min: usize, q: f64) -> Vec<f64> {
    xs.chunks(window.max(1)).filter(|c| c.len() >= min).map(|c| percentile(c, q)).collect()
}

/// Geometric mean of positive values; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Total length of the union of half-open intervals `[start, end)`,
/// each clipped to `[lo, hi)`.
pub fn covered_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of
/// that interval its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - covered_len(children, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles_on_fixed_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 200 samples: p95 is the 190th value, leaving 10 beyond it.
        let ys: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&ys, 0.95), 190.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn window_percentiles_drop_short_tails() {
        let xs: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(window_percentiles(&xs, 100, 60, 0.99), vec![99.0, 199.0]);
        assert_eq!(window_percentiles(&xs, 100, 50, 0.5), vec![50.0, 150.0, 225.0]);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        // Parent [0, 100); children overlap each other and spill over
        // the parent's end: covered = [10, 40) ∪ [90, 100) = 40.
        let children = [(10, 30), (20, 40), (90, 120)];
        assert_eq!(covered_len(&children, 0, 100), 40);
        assert_eq!(self_time(0, 100, &children), 60);
        assert_eq!(self_time(0, 100, &[]), 100);
        // Disjoint children, one entirely outside the parent.
        assert_eq!(self_time(50, 80, &[(50, 55), (60, 70), (200, 300)]), 15);
        // Fully covered parent.
        assert_eq!(self_time(5, 10, &[(0, 20)]), 0);
    }
}
