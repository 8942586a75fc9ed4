//! Property-based tests of the measurement utilities.

use proptest::prelude::*;

use perigee_metrics::{
    mean, percentile, percentile_by_key_mut, percentile_mut, percentile_or_inf, std_dev,
    DelayCurve, EdgeSketch, Histogram, MultiQuantile, SketchParams, Summary,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Percentiles of a constant sample equal that constant.
    #[test]
    fn percentile_of_constant_sample(c in -1e9f64..1e9, n in 1usize..50, p in 0.0f64..100.0) {
        let v = vec![c; n];
        prop_assert_eq!(percentile(&v, p), Some(c));
    }

    /// Percentile is invariant under permutation.
    #[test]
    fn percentile_is_permutation_invariant(
        mut values in proptest::collection::vec(-1e6f64..1e6, 2..60),
        p in 0.0f64..100.0,
    ) {
        let a = percentile(&values, p);
        values.reverse();
        let b = percentile(&values, p);
        prop_assert_eq!(a, b);
    }

    /// Percentile scales linearly with the data.
    #[test]
    fn percentile_is_scale_equivariant(
        values in proptest::collection::vec(0.0f64..1e6, 1..50),
        p in 0.0f64..100.0,
        k in 0.1f64..10.0,
    ) {
        let scaled: Vec<f64> = values.iter().map(|v| v * k).collect();
        let a = percentile(&values, p).unwrap();
        let b = percentile(&scaled, p).unwrap();
        prop_assert!((b - a * k).abs() <= 1e-6 * (1.0 + b.abs()));
    }

    /// Mean lies within [min, max]; std_dev is non-negative.
    #[test]
    fn mean_and_std_bounds(values in proptest::collection::vec(-1e6f64..1e6, 2..60)) {
        let m = mean(&values).unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        prop_assert!(std_dev(&values).unwrap() >= 0.0);
    }

    /// Summary fields are totally ordered min ≤ p25 ≤ median ≤ p75 ≤ p90 ≤ max.
    #[test]
    fn summary_is_ordered(values in proptest::collection::vec(-1e6f64..1e6, 1..60)) {
        let s = Summary::of(&values).unwrap();
        prop_assert!(s.min <= s.p25);
        prop_assert!(s.p25 <= s.median);
        prop_assert!(s.median <= s.p75);
        prop_assert!(s.p75 <= s.p90);
        prop_assert!(s.p90 <= s.max);
    }

    /// Histograms conserve sample counts and fractions sum to one.
    #[test]
    fn histogram_conserves_mass(
        values in proptest::collection::vec(-50.0f64..150.0, 1..200),
        bins in 1usize..30,
    ) {
        let mut h = Histogram::new(0.0, 100.0, bins);
        h.extend(values.iter().copied());
        prop_assert_eq!(h.count(), values.len() as u64);
        let total: f64 = h.fractions().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(h.fraction_below(100.0) <= 1.0);
    }

    /// Pointwise curve means commute with constant shifts.
    #[test]
    fn curve_mean_shift_equivariance(
        a in proptest::collection::vec(0.0f64..1e5, 1..40),
        shift in 0.0f64..1e4,
    ) {
        let shifted: Vec<f64> = a.iter().map(|v| v + shift).collect();
        let c1 = DelayCurve::from_values(a.clone());
        let c2 = DelayCurve::from_values(shifted);
        let m = DelayCurve::pointwise_mean(&[c1.clone(), c2]);
        for i in 0..c1.len() {
            prop_assert!((m.value_at(i) - (c1.value_at(i) + shift / 2.0)).abs() < 1e-6);
        }
    }

    /// improvement_over is antisymmetric-ish: if a beats b, b does not beat a.
    #[test]
    fn improvement_direction_is_consistent(
        (a, b) in (3usize..40).prop_flat_map(|n| (
            proptest::collection::vec(1.0f64..1e5, n),
            proptest::collection::vec(1.0f64..1e5, n),
        )),
    ) {
        let ca = DelayCurve::from_values(a);
        let cb = DelayCurve::from_values(b);
        let ab = ca.improvement_over(&cb);
        let ba = cb.improvement_over(&ca);
        if ab > 1e-9 {
            prop_assert!(ba < 1e-9);
        }
    }
}

/// A tie-prone, adversarial observation value: a small pool of exactly
/// repeated values (forcing heavy ties), subnormals, zero, negatives and
/// a continuous range — the streams a per-edge sketch actually sees are
/// full of repeated latencies, and subnormal deltas appear after the
/// per-row min subtraction.
fn adversarial_finite() -> impl Strategy<Value = f32> {
    (0u8..12, -1.0e3f32..1.0e3f32).prop_map(|(sel, r)| match sel {
        0..=2 => 1.0,
        3..=4 => 0.0,
        5 => -1.0,
        6 => 1.0e-40,                 // subnormal
        7 => f32::MIN_POSITIVE / 4.0, // subnormal
        8 => f32::MAX / 2.0,
        _ => r,
    })
}

/// A stream element: finite four times out of five, `+∞` (the "never
/// delivered" convention) otherwise.
fn adversarial_sample() -> impl Strategy<Value = f32> {
    (0u8..5, adversarial_finite()).prop_map(|(sel, x)| if sel == 0 { f32::INFINITY } else { x })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// While at most five finite samples have arrived the sketch is
    /// *exact*: its estimate equals the dense percentile of the same
    /// stream (in the stream's own `f32` representation), infinities
    /// included, in any arrival order.
    #[test]
    fn sketch_is_exact_through_five_finite_samples(
        finites in proptest::collection::vec(adversarial_finite(), 0..6),
        infs in 0usize..6,
        p in 0.0f64..=100.0,
    ) {
        // Interleave ∞s among the finite seeds — arrival order must not
        // matter while the sketch is still in its exact regime.
        let mut stream = Vec::new();
        for (i, &x) in finites.iter().enumerate() {
            stream.push(x);
            if i < infs {
                stream.push(f32::INFINITY);
            }
        }
        for _ in finites.len().min(infs)..infs {
            stream.push(f32::INFINITY);
        }
        let params = SketchParams::new(p);
        let mut s = EdgeSketch::new();
        for &x in &stream {
            s.observe(x, &params);
        }
        // The exact-regime contract: `+∞` when the requested rank lands
        // in the infinite tail, the exact percentile of the *finite*
        // sub-stream otherwise; with no ∞s at all this is the dense
        // percentile of the whole stream.
        let finite_f64: Vec<f64> = finites.iter().map(|&x| f64::from(x)).collect();
        let total = stream.len();
        let expected = if total == 0 {
            None
        } else {
            let rank = p / 100.0 * (total - 1) as f64;
            if infs > 0 && rank > finite_f64.len() as f64 - 1.0 {
                Some(f64::INFINITY)
            } else {
                percentile(&finite_f64, p)
            }
        };
        prop_assert_eq!(s.estimate(&params), expected);
        if infs == 0 {
            let dense: Vec<f64> = stream.iter().map(|&x| f64::from(x)).collect();
            prop_assert_eq!(s.estimate(&params), percentile(&dense, p));
        }
    }

    /// On arbitrary longer streams the sketch stays inside the finite
    /// envelope and lands in the infinite tail exactly when the dense
    /// percentile does — ties, subnormals and ∞ runs included.
    #[test]
    fn sketch_bounds_and_infinite_tail_agree_with_dense(
        stream in proptest::collection::vec(adversarial_sample(), 1..200),
        p in 0.0f64..=100.0,
    ) {
        let params = SketchParams::new(p);
        let mut s = EdgeSketch::new();
        for &x in &stream {
            s.observe(x, &params);
        }
        let dense_vals: Vec<f64> = stream.iter().map(|&x| f64::from(x)).collect();
        let dense = percentile_or_inf(&dense_vals, p);
        let est = s.estimate_or_inf(&params);
        prop_assert!(!est.is_nan());
        prop_assert_eq!(
            est.is_infinite(), dense.is_infinite(),
            "sketch {} vs dense {}", est, dense
        );
        if est.is_finite() {
            let lo = stream.iter().copied().filter(|x| x.is_finite())
                .fold(f32::INFINITY, f32::min) as f64;
            let hi = stream.iter().copied().filter(|x| x.is_finite())
                .fold(f32::NEG_INFINITY, f32::max) as f64;
            prop_assert!(est >= lo && est <= hi, "{est} outside [{lo}, {hi}]");
        }
    }

    /// Replaying the same stream yields a bit-identical sketch and a
    /// bit-identical estimate — the determinism the sharded store's
    /// merge step relies on.
    #[test]
    fn sketch_is_deterministic_under_replay(
        stream in proptest::collection::vec(adversarial_sample(), 0..120),
        p in 0.0f64..=100.0,
    ) {
        let params = SketchParams::new(p);
        let (mut a, mut b) = (EdgeSketch::new(), EdgeSketch::new());
        for &x in &stream {
            a.observe(x, &params);
        }
        for &x in &stream {
            b.observe(x, &params);
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(
            a.estimate_or_inf(&params).to_bits(),
            b.estimate_or_inf(&params).to_bits()
        );
    }

    /// Each tracker of a [`MultiQuantile`] tuple lands in the infinite
    /// tail exactly when the dense percentile at its rank does.
    #[test]
    fn multi_quantile_infinite_tails_agree_with_dense(
        stream in proptest::collection::vec(adversarial_sample(), 1..150),
    ) {
        let mut m = MultiQuantile::kaspa_tuple();
        let dense_vals: Vec<f64> = stream.iter().map(|&x| f64::from(x)).collect();
        for &v in &dense_vals {
            m.observe(v);
        }
        let estimates = m.estimates_or_inf();
        for (p, est) in m.percentiles().into_iter().zip(estimates) {
            let dense = percentile_or_inf(&dense_vals, p);
            prop_assert!(!est.is_nan());
            prop_assert_eq!(
                est.is_infinite(), dense.is_infinite(),
                "p{}: sketch {} vs dense {}", p, est, dense
            );
        }
    }
}

/// A non-NaN `f64` that stresses rank selection: both zeros, both
/// infinities, subnormals of either sign, the extremes, a tiny pool of
/// exact repeats (heavy duplicates) and otherwise arbitrary bit patterns.
fn selection_value() -> impl Strategy<Value = f64> {
    (0u8..16, any::<u64>()).prop_map(|(sel, bits)| {
        let subnormal = f64::from_bits(bits & 0x000f_ffff_ffff_ffff);
        match sel {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => subnormal,
            5 => -subnormal,
            6 => f64::MAX,
            7 => f64::MIN,
            8..=11 => (bits % 4) as f64,
            _ => {
                let x = f64::from_bits(bits);
                if x.is_nan() {
                    1.5
                } else {
                    x
                }
            }
        }
    })
}

/// A percentile target: the scoring and reporting constants (0, 50, 90,
/// 100) four times out of five, an arbitrary `p ∈ [0, 100]` otherwise.
fn selection_p() -> impl Strategy<Value = f64> {
    (0u8..5, 0.0f64..=100.0).prop_map(|(sel, p)| match sel {
        0 => 0.0,
        1 => 50.0,
        2 => 90.0,
        3 => 100.0,
        _ => p,
    })
}

/// The sort-based percentile the selection kernel replaced: sort a copy
/// by `total_cmp`, then interpolate between the floor and ceil ranks.
fn sorted_reference(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo_idx, hi_idx) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo_idx as f64;
    let (lo, hi) = (sorted[lo_idx], sorted[hi_idx]);
    if frac == 0.0 || lo == hi {
        lo
    } else if lo.is_infinite() || hi.is_infinite() {
        f64::INFINITY
    } else {
        lo + frac * (hi - lo)
    }
}

/// `f64::total_cmp`'s order as an unsigned key.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

fn from_total_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

fn sorted_bits(values: &[f64]) -> Vec<u64> {
    let mut bits: Vec<u64> = values.iter().map(|&x| total_order_key(x)).collect();
    bits.sort_unstable();
    bits
}

/// Cases per selection property. The debug suite runs the default; the
/// release-mode scoring-equivalence CI step raises it through
/// `PERIGEE_EQUIVALENCE_CASES`.
fn selection_cases() -> u32 {
    std::env::var("PERIGEE_EQUIVALENCE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(selection_cases()))]

    /// Selection returns exactly the sort-based percentile, bit for bit,
    /// and only permutes its buffer.
    #[test]
    fn percentile_selection_matches_sorted_reference(
        values in proptest::collection::vec(selection_value(), 1..5000),
        p in selection_p(),
    ) {
        let expected = sorted_reference(&values, p);
        let mut buf = values.clone();
        let got = percentile_mut(&mut buf, p).expect("non-empty input");
        prop_assert_eq!(got.to_bits(), expected.to_bits(), "p{} of {} values", p, values.len());
        prop_assert!(sorted_bits(&buf) == sorted_bits(&values), "buffer is not a permutation of the input");
    }

    /// The keyed variant over order-preserving keys is bit-identical to
    /// selecting on the values themselves.
    #[test]
    fn percentile_by_key_matches_values(
        values in proptest::collection::vec(selection_value(), 1..5000),
        p in selection_p(),
    ) {
        let mut keys: Vec<u64> = values.iter().map(|&x| total_order_key(x)).collect();
        let got = percentile_by_key_mut(&mut keys, p, from_total_order_key).expect("non-empty input");
        let expected = sorted_reference(&values, p);
        prop_assert_eq!(got.to_bits(), expected.to_bits(), "p{} of {} values", p, values.len());
    }
}
