//! Percentile computation.
//!
//! One definition is used across the whole reproduction — for neighbor
//! scores (§4.2's `90percentile(·)`), for the λv aggregation and for the
//! reported delay curves — so results are internally consistent: linear
//! interpolation between closest ranks (NumPy's default), extended to
//! handle the `t = ∞` "never delivered" observations that the paper's
//! observation sets contain.
//!
//! The two closest ranks are found by **selection**, not sorting: one
//! `select_nth_unstable` on the floor rank, whose right partition's
//! minimum is the ceil rank — O(n) expected. Under `f64::total_cmp`
//! equal elements are bit-equal, so the result is bit-identical to
//! reading the same ranks from a fully sorted copy. The `_mut` variants
//! reorder their buffer in place and leave it permuted (neither sorted
//! nor in input order).

use std::cmp::Ordering;

/// Returns the `p`-th percentile (`0 ≤ p ≤ 100`) of `values` using linear
/// interpolation between closest ranks, or `None` for an empty slice.
///
/// Infinite values are legal and rank last: a multiset whose `p`-th rank
/// touches an infinite observation yields `+∞`, which is exactly the
/// penalty the paper intends for neighbors that failed to deliver more
/// than `100 − p` percent of blocks.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
///
/// # Examples
///
/// ```
/// use perigee_metrics::percentile;
///
/// let v = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 0.0), Some(1.0));
/// assert_eq!(percentile(&v, 100.0), Some(4.0));
/// assert_eq!(percentile(&v, 50.0), Some(2.5));
/// assert_eq!(percentile(&[], 90.0), None);
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut scratch = values.to_vec();
    percentile_mut(&mut scratch, p)
}

/// Like [`percentile`] but works in `values` instead of a copy — the
/// allocation-free variant for hot scoring loops that own a reusable
/// scratch buffer. Reorders `values` in place by selection, O(n)
/// expected; the buffer is left permuted.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]` or any value is NaN.
pub fn percentile_mut(values: &mut [f64], p: f64) -> Option<f64> {
    assert_percentile_range(p);
    if values.is_empty() {
        return None;
    }
    assert!(
        values.iter().all(|v| !v.is_nan()),
        "percentile input must not contain NaN"
    );
    Some(select_and_interpolate(values, p, f64::total_cmp, |x| x))
}

/// The [`percentile_mut`] of a multiset given as **order keys**: `keys`
/// stand for the values `value(k)`, and the key order must be the values'
/// `f64::total_cmp` order (`a < b` exactly when `value(a)` ranks below
/// `value(b)`, `a == b` exactly when the values are bit-equal). Selection
/// then runs on the cheap keys and only the two closest ranks are
/// mapped back, so the result is bit-identical to [`percentile_mut`]
/// over the values. `None` for an empty slice; reorders `keys` in place
/// by selection (O(n) expected) and leaves them permuted.
///
/// NaN has no place in the value order: a caller whose values could be
/// NaN must reject them while building the keys.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile_by_key_mut<K: Ord + Copy>(
    keys: &mut [K],
    p: f64,
    value: impl Fn(K) -> f64,
) -> Option<f64> {
    assert_percentile_range(p);
    if keys.is_empty() {
        return None;
    }
    Some(select_and_interpolate(keys, p, K::cmp, value))
}

/// Like [`percentile`] but maps the empty multiset to `+∞` — the scoring
/// convention: a neighbor with no observations is the worst possible.
pub fn percentile_or_inf(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(f64::INFINITY)
}

/// Like [`percentile_or_inf`] but reorders `values` in place by
/// selection, O(n) expected — no allocation; the buffer is left
/// permuted.
pub fn percentile_or_inf_mut(values: &mut [f64], p: f64) -> f64 {
    percentile_mut(values, p).unwrap_or(f64::INFINITY)
}

fn assert_percentile_range(p: f64) {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
}

/// The rank-and-interpolate rule behind every entry point, over a
/// non-empty buffer ordered by `cmp` (a total order) whose elements
/// stand for the values `value(x)`.
fn select_and_interpolate<T: Copy>(
    values: &mut [T],
    p: f64,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
    value: impl Fn(T) -> f64,
) -> f64 {
    let rank = p / 100.0 * (values.len() - 1) as f64;
    let lo_idx = rank.floor() as usize;
    let frac = rank - lo_idx as f64;
    let (_, lo, right) = values.select_nth_unstable_by(lo_idx, &mut cmp);
    let lo = value(*lo);
    if frac == 0.0 {
        return lo;
    }
    // A fractional rank has its ceil at `lo_idx + 1 ≤ len − 1`: the
    // smallest element of the (non-empty) right partition.
    let hi = value(
        *right
            .iter()
            .min_by(|a, b| cmp(a, b))
            .expect("a fractional rank leaves a right partition"),
    );
    if lo == hi {
        lo
    } else if lo.is_infinite() || hi.is_infinite() {
        // Interpolating toward (or from) ∞ is ∞; avoid ∞ − ∞ = NaN.
        f64::INFINITY
    } else {
        lo + frac * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 100.0), Some(7.0));
    }

    #[test]
    fn interpolates_linearly() {
        let v = [10.0, 20.0];
        assert_eq!(percentile(&v, 25.0), Some(12.5));
        assert_eq!(percentile(&v, 75.0), Some(17.5));
    }

    #[test]
    fn unsorted_input_is_fine() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
    }

    #[test]
    fn ninety_of_hundred_uniform() {
        let v: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let p90 = percentile(&v, 90.0).unwrap();
        assert!((p90 - 89.1).abs() < 1e-9);
    }

    #[test]
    fn infinity_dominates_when_rank_touches_it() {
        // 15% infinite: the 90th percentile lands in the infinite tail.
        let mut v: Vec<f64> = (0..85).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 15));
        assert_eq!(percentile(&v, 90.0), Some(f64::INFINITY));
        // ...but the median is unaffected.
        assert!(percentile(&v, 50.0).unwrap().is_finite());
    }

    #[test]
    fn five_percent_infinite_does_not_poison_p90() {
        let mut v: Vec<f64> = (0..95).map(|i| i as f64).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 5));
        assert!(percentile(&v, 90.0).unwrap().is_finite());
    }

    #[test]
    fn all_infinite_gives_infinite() {
        let v = [f64::INFINITY; 4];
        assert_eq!(percentile(&v, 50.0), Some(f64::INFINITY));
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(percentile(&[], 90.0), None);
        assert_eq!(percentile_or_inf(&[], 90.0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    #[should_panic(expected = "must not contain NaN")]
    fn nan_input_panics() {
        let _ = percentile(&[f64::NAN], 50.0);
    }

    #[test]
    fn monotone_in_p() {
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut last = f64::NEG_INFINITY;
        for p in 0..=100 {
            let x = percentile(&v, p as f64).unwrap();
            assert!(x >= last);
            last = x;
        }
    }
}
