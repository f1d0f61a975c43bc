//! Property-based tests of the simulation engine and statistics helpers.

use proptest::prelude::*;

use sharebackup_sim::{Cdf, Engine, SimRng, Summary, Time};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events always come out in (time, insertion) order, regardless of the
    /// insertion order, and the clock matches each event's timestamp.
    #[test]
    fn engine_delivery_is_time_then_fifo(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut engine: Engine<(u64, usize)> = Engine::new();
        for (seq, &t) in times.iter().enumerate() {
            engine.schedule(Time::from_nanos(t), (t, seq));
        }
        let mut seen: Vec<(u64, u64, usize)> = Vec::new();
        engine.run(&mut |_: &mut Engine<(u64, usize)>, now: Time, ev: (u64, usize)| {
            seen.push((now.as_nanos(), ev.0, ev.1));
        });
        for &(now, t, _) in &seen {
            prop_assert_eq!(now, t, "clock must equal the event timestamp");
        }
        // Sorted by (time, insertion sequence).
        for w in seen.windows(2) {
            prop_assert!(w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].2 < w[1].2));
        }
        prop_assert_eq!(seen.len(), times.len());
    }

    /// The horizon never lets a later event through and always advances the
    /// clock exactly to the horizon when one is pending beyond it.
    #[test]
    fn horizon_is_exact(times in prop::collection::vec(0u64..1000, 1..100), h in 0u64..1000) {
        let mut engine: Engine<u64> = Engine::new();
        for &t in &times {
            engine.schedule(Time::from_nanos(t), t);
        }
        engine.set_horizon(Time::from_nanos(h));
        let mut max_seen = None;
        engine.run(&mut |_: &mut Engine<u64>, _now: Time, ev: u64| {
            max_seen = Some(max_seen.unwrap_or(0).max(ev));
        });
        if let Some(m) = max_seen {
            prop_assert!(m <= h);
        }
        let beyond = times.iter().filter(|&&t| t > h).count();
        prop_assert_eq!(engine.pending(), beyond);
    }

    /// Summary invariants: min ≤ p50 ≤ p90 ≤ p99 ≤ max and min ≤ mean ≤ max.
    #[test]
    fn summary_is_ordered(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&samples).expect("nonempty");
        prop_assert!(s.min <= s.p50 + 1e-9);
        prop_assert!(s.p50 <= s.p90 + 1e-9);
        prop_assert!(s.p90 <= s.p99 + 1e-9);
        prop_assert!(s.p99 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
    }

    /// CDF: fraction_at_most is monotone and hits 0/1 at the extremes.
    #[test]
    fn cdf_is_monotone(samples in prop::collection::vec(0f64..100.0, 1..100)) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let mut last = 0.0;
        for i in 0..=100 {
            let f = cdf.fraction_at_most(i as f64);
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        prop_assert_eq!(cdf.fraction_at_most(-1.0), 0.0);
        prop_assert_eq!(cdf.fraction_at_most(101.0), 1.0);
        // Quantile is within sample range.
        let q = cdf.quantile(0.5);
        prop_assert!(q >= cdf.quantile(0.0) && q <= cdf.quantile(1.0));
    }

    /// Seeded RNG streams are reproducible and children independent.
    #[test]
    fn rng_reproducibility(seed in any::<u64>()) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.u64(), b.u64());
        }
        let r1 = SimRng::seed_from_u64(seed);
        let mut c1 = r1.child("x");
        let r2 = SimRng::seed_from_u64(seed);
        let mut c2 = r2.child("x");
        for _ in 0..8 {
            prop_assert_eq!(c1.u64(), c2.u64());
        }
    }
}
