//! Descriptive statistics: means, medians, percentiles, moments.
//!
//! The paper summarizes every metric by its median (robust to the heavy
//! tails of pickup-times and task-times) and occasionally by means (e.g.
//! mean trust per source, §5.1).

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (n−1 denominator); `None` when `n < 2`.
///
/// Uses Welford's single-pass algorithm for numerical stability on the
/// large, wide-ranged duration data this crate processes.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let mut m = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - m;
        m += delta / (i + 1) as f64;
        m2 += delta * (x - m);
    }
    Some(m2 / (xs.len() - 1) as f64)
}

/// Sample standard deviation; `None` when `n < 2`.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median (average of the two central order statistics for even `n`);
/// `None` for an empty slice. Does not require sorted input.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) with linear interpolation between
/// order statistics (the "linear" / R-7 convention); `None` when empty or
/// `p` out of range.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over data already sorted ascending; `None` when empty or
/// `p` out of range.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let n = sorted.len();
    if n == 1 {
        return Some(sorted[0]);
    }
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of a pre-sorted slice; `None` for an empty slice.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    percentile_sorted(sorted, 50.0)
}

/// Median via selection (expected O(n), no full sort), reordering `xs` in
/// place; `None` for an empty slice.
///
/// Bit-identical to [`median`]: both central order statistics are located
/// with `select_nth_unstable_by` and interpolated with the same R-7
/// expression `lo + (hi − lo) · frac` the sorting path uses. Prefer this
/// over [`median`] when the caller owns a scratch buffer — `median` clones
/// and fully sorts its input on every call.
pub fn median_inplace(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    if n == 1 {
        return Some(xs[0]);
    }
    let mid = n / 2;
    if n % 2 == 1 {
        let (_, m, _) = xs.select_nth_unstable_by(mid, f64::total_cmp);
        Some(*m)
    } else {
        // Even n: the upper central statistic via selection, the lower one
        // as the max of the left partition.
        let (below, hi, _) = xs.select_nth_unstable_by(mid, f64::total_cmp);
        let hi = *hi;
        let lo = below.iter().copied().max_by(f64::total_cmp).expect("n ≥ 2");
        Some(lo + (hi - lo) * 0.5)
    }
}

/// The R-7 median of `n` values given their order statistics: `kth(k)`
/// returns the `k`-th smallest value (0-based). Evaluates exactly
/// [`percentile_sorted`]'s expression at `p = 50`, so any exact
/// order-statistic source is bit-identical to [`median`] over the same
/// multiset. `None` when `n == 0`.
pub fn median_by_rank(n: usize, mut kth: impl FnMut(usize) -> f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(kth(0));
    }
    let rank = 50.0 / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let a = kth(lo);
    let b = if hi == lo { a } else { kth(hi) };
    Some(a + (b - a) * frac)
}

/// Exact median of an integer-valued pile held as 32-bit `packed` values
/// plus a 64-bit `spill` holding every value outside `0..=u32::MAX`, by
/// in-place selection (`select_nth_unstable`; both slices are reordered,
/// nothing is copied). Bit-identical to [`median`] over the same values
/// converted to `f64`; `None` when both slices are empty.
pub fn median_split(packed: &mut [u32], spill: &mut [i64]) -> Option<f64> {
    debug_assert!(
        spill.iter().all(|&v| u32::try_from(v).is_err()),
        "spill holds only non-u32 values"
    );
    // Spilled values sit wholly below (negative) or above (> u32::MAX)
    // every packed value, so the union's order statistics splice together.
    spill.sort_unstable();
    let below = spill.partition_point(|&v| v < 0);
    let n = packed.len() + spill.len();
    let n_packed = packed.len();
    median_by_rank(n, |k| {
        if k < below {
            spill[k] as f64
        } else if k - below < n_packed {
            f64::from(*packed.select_nth_unstable(k - below).1)
        } else {
            spill[k - n_packed] as f64
        }
    })
}

/// Five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum value.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when `n < 2`).
    pub stddev: f64,
}

impl Summary {
    /// Computes the summary; `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0)?,
            median: percentile_sorted(&sorted, 50.0)?,
            q3: percentile_sorted(&sorted, 75.0)?,
            max: sorted[sorted.len() - 1],
            mean: mean(xs).unwrap(),
            stddev: stddev(xs).unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn variance_matches_reference() {
        // Sample variance of [2, 4, 4, 4, 5, 5, 7, 9] is 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let v = variance(&xs).unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn variance_is_stable_under_large_offsets() {
        let base = [1.0, 2.0, 3.0, 4.0];
        let shifted: Vec<f64> = base.iter().map(|x| x + 1e12).collect();
        let v1 = variance(&base).unwrap();
        let v2 = variance(&shifted).unwrap();
        assert!((v1 - v2).abs() < 1e-3, "Welford should survive the offset: {v1} vs {v2}");
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        // R-7: rank = 0.25 * 3 = 0.75 → 1 + 0.75*(2-1) = 1.75
        assert_eq!(percentile(&xs, 25.0), Some(1.75));
        assert_eq!(percentile(&xs, 101.0), None);
        assert_eq!(percentile(&xs, -1.0), None);
    }

    #[test]
    fn median_inplace_matches_median_bit_for_bit() {
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![7.5],
            vec![3.0, 1.0, 2.0],
            vec![4.0, 1.0, 2.0, 3.0],
            vec![0.1, 0.2, 0.30000000000000004, 0.4, 1e-12, 1e12],
            (0..101).map(|i| ((i * 37) % 101) as f64 / 7.0).collect(),
            (0..100).map(|i| ((i * 61) % 100) as f64 * 1.5e-3).collect(),
        ];
        for xs in cases {
            let expected = median(&xs);
            let mut scratch = xs.clone();
            let got = median_inplace(&mut scratch);
            match (expected, got) {
                (None, None) => {}
                (Some(e), Some(g)) => assert_eq!(e.to_bits(), g.to_bits(), "{xs:?}"),
                other => panic!("mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn median_split_handles_the_edge_shapes() {
        assert_eq!(median_split(&mut [], &mut []), None);
        assert_eq!(median_split(&mut [7], &mut []), Some(7.0));
        assert_eq!(median_split(&mut [], &mut [-3]), Some(-3.0));
        assert_eq!(median_split(&mut [4, 1, 3, 2], &mut []), Some(2.5));
        assert_eq!(median_split(&mut [0, 5], &mut [-9, 1 << 40]), Some(2.5));
    }

    // The selection median over a packed/spilled pile is bit-identical to
    // the sort-based `median` of the same values: odd and even lengths,
    // heavy duplicates, single elements, negatives and values beyond `u32`.
    proptest::proptest! {
        #[test]
        fn median_split_is_bit_identical_to_median(
            draws in proptest::prop::collection::vec((0u8..4, 0i64..i64::MAX), 1..200)
        ) {
            let span = i64::MAX / 2;
            let vals: Vec<i64> = draws
                .iter()
                .map(|&(kind, raw)| match kind {
                    0 => raw % 8,
                    1 => raw % (i64::from(u32::MAX) + 1),
                    2 => i64::from(u32::MAX) + 1 + raw % span,
                    _ => -1 - raw % span,
                })
                .collect();
            let as_f64: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
            let mut packed: Vec<u32> = vals.iter().filter_map(|&v| u32::try_from(v).ok()).collect();
            let mut spill: Vec<i64> =
                vals.iter().copied().filter(|&v| u32::try_from(v).is_err()).collect();
            let want = median(&as_f64).unwrap();
            let got = median_split(&mut packed, &mut spill).unwrap();
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 33.0), Some(7.0));
    }

    #[test]
    fn sorted_variants_handle_empty_and_degenerate_input() {
        // These used to assert (and abort the process) on empty slices;
        // the analytics layer feeds them filtered piles that can
        // legitimately come out empty, so they must degrade to None.
        assert_eq!(percentile_sorted(&[], 50.0), None);
        assert_eq!(median_sorted(&[]), None);
        assert_eq!(percentile_sorted(&[1.0, 2.0], -0.5), None);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 100.5), None);
        assert_eq!(percentile_sorted(&[4.0], 99.0), Some(4.0));
        assert_eq!(median_sorted(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn sorted_variants_match_unsorted_on_sorted_input() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 100.0];
        for p in [0.0, 12.5, 25.0, 50.0, 75.0, 99.0, 100.0] {
            assert_eq!(percentile_sorted(&sorted, p), percentile(&sorted, p), "p = {p}");
        }
        assert_eq!(median_sorted(&sorted), median(&sorted));
    }

    #[test]
    fn summary_fields() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.mean, 22.0);
        assert!(s.q1 < s.median && s.median < s.q3);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_handles_single_value() {
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 5.0);
        assert_eq!(s.max, 5.0);
    }
}
