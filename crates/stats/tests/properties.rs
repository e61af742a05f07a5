//! Property-based tests for the statistical substrate.

use proptest::prelude::*;
use rws_stats::prelude::*;
use rws_stats::timeseries::Date;

proptest! {
    /// An ECDF is monotone non-decreasing and bounded by [0, 1].
    #[test]
    fn ecdf_monotone_and_bounded(mut sample in proptest::collection::vec(-1e6f64..1e6, 1..200), probes in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let e = Ecdf::new(&sample);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0f64;
        for x in sorted_probes {
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= prev - 1e-12);
            prev = v;
        }
        // Evaluating at the max of the sample yields exactly 1.
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(e.eval(*sample.last().unwrap()), 1.0);
    }

    /// The KS statistic lies in [0, 1] and is symmetric in its arguments.
    #[test]
    fn ks_statistic_bounded_and_symmetric(
        a in proptest::collection::vec(-1e3f64..1e3, 1..100),
        b in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let r1 = ks_two_sample(&a, &b);
        let r2 = ks_two_sample(&b, &a);
        prop_assert!((0.0..=1.0).contains(&r1.statistic));
        prop_assert!((0.0..=1.0).contains(&r1.p_value));
        prop_assert!((r1.statistic - r2.statistic).abs() < 1e-12);
        prop_assert!((r1.p_value - r2.p_value).abs() < 1e-12);
    }

    /// A sample compared against itself always has statistic 0.
    #[test]
    fn ks_self_comparison_is_zero(a in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let r = ks_two_sample(&a, &a);
        prop_assert_eq!(r.statistic, 0.0);
    }

    /// Quantiles are bounded by the sample extremes and monotone in p.
    #[test]
    fn quantiles_bounded_and_monotone(sample in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let min = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = min;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let q = quantile(&sample, p).unwrap();
            prop_assert!(q >= min - 1e-9 && q <= max + 1e-9);
            prop_assert!(q >= prev - 1e-9);
            prev = q;
        }
    }

    /// Shuffling preserves the multiset of elements for any seed.
    #[test]
    fn shuffle_is_a_permutation(mut v in proptest::collection::vec(0u32..1000, 0..100), seed in any::<u64>()) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut original = v.clone();
        shuffle(&mut v, &mut rng);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(v, original);
    }

    /// Sampling without replacement returns distinct elements drawn from the input.
    #[test]
    fn sampling_without_replacement_is_distinct(n in 1usize..200, k in 0usize..250, seed in any::<u64>()) {
        let items: Vec<usize> = (0..n).collect();
        let mut rng = Xoshiro256StarStar::new(seed);
        let sample = sample_without_replacement(&items, k, &mut rng);
        prop_assert_eq!(sample.len(), k.min(n));
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), k.min(n));
        prop_assert!(sample.iter().all(|x| *x < n));
    }

    /// Date round-trips through its day number.
    #[test]
    fn date_day_number_round_trip(days in 0i64..4000) {
        let d = Date::from_day_number(days);
        prop_assert_eq!(d.day_number(), days);
    }

    /// Month arithmetic: next/prev are inverses and months_until is consistent.
    #[test]
    fn month_arithmetic(year in 2000i32..2100, month in 1u8..=12, steps in 0i32..60) {
        let start = Month::new(year, month);
        let mut m = start;
        for _ in 0..steps {
            m = m.next();
        }
        prop_assert_eq!(start.months_until(m), steps);
        for _ in 0..steps {
            m = m.prev();
        }
        prop_assert_eq!(m, start);
    }

    /// The cumulative series is monotone when all inputs are non-negative, and
    /// its final value equals the series total.
    #[test]
    fn cumulative_series_monotone(values in proptest::collection::vec(0.0f64..100.0, 1..24)) {
        let start = Month::new(2023, 1);
        let mut end = start;
        for _ in 1..values.len() {
            end = end.next();
        }
        let mut s = MonthlySeries::zeros(start, end);
        let mut m = start;
        for v in &values {
            s.set(m, *v);
            m = m.next();
        }
        let c = s.cumulative();
        let cs: Vec<f64> = c.iter().map(|(_, v)| v).collect();
        for w in cs.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9);
        }
        prop_assert!((cs.last().unwrap() - s.total()).abs() < 1e-9);
    }
}
