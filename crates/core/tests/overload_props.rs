//! Property tests for the watermark admission controller.
//!
//! Three laws, each over arbitrary pressure traces: (1) pressure that
//! never reaches the low watermark never sheds; (2) pressure at or above
//! the high watermark always sheds; (3) hysteresis — on a sawtooth that
//! oscillates strictly inside the (low, high) band the controller never
//! changes state, no matter how many teeth the saw has.

use kvd_core::{AdmissionController, Watermarks};
use proptest::prelude::*;

fn watermarks() -> impl Strategy<Value = Watermarks> {
    // low in [0.1, 0.6], gap of at least 0.1 up to high ≤ 0.95.
    (0.1f64..0.6, 0.1f64..0.35).prop_map(|(low, gap)| Watermarks {
        low,
        high: low + gap,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Below the low watermark the controller never sheds — regardless of
    /// history, because the low watermark is also the recovery point.
    #[test]
    fn never_sheds_below_low(
        marks in watermarks(),
        trace in prop::collection::vec(0.0f64..1.5, 1..200),
    ) {
        let mut ac = AdmissionController::new(marks);
        for p in trace {
            let below = p < marks.low;
            let shed = ac.observe(p);
            if below {
                prop_assert!(!shed, "shed at pressure {p} < low {}", marks.low);
            }
        }
    }

    /// At or above the high watermark the controller always sheds, no
    /// matter what came before.
    #[test]
    fn always_sheds_at_high(
        marks in watermarks(),
        trace in prop::collection::vec(0.0f64..1.5, 1..200),
    ) {
        let mut ac = AdmissionController::new(marks);
        for p in trace {
            let shed = ac.observe(p);
            if p >= marks.high {
                prop_assert!(shed, "admitted at pressure {p} >= high {}", marks.high);
            }
        }
    }

    /// A sawtooth confined strictly inside the (low, high) band cannot
    /// flap the controller: zero transitions from the admitting state,
    /// and from the shedding state it stays shedding.
    #[test]
    fn sawtooth_inside_band_never_flaps(
        marks in watermarks(),
        teeth in 1usize..50,
        phase in 0.0f64..1.0,
    ) {
        let lo = marks.low + 1e-6;
        let hi = marks.high - 1e-6;
        let saw: Vec<f64> = (0..teeth * 2)
            .map(|i| {
                let t = (i as f64 / 2.0 + phase).fract();
                lo + (hi - lo) * t
            })
            .collect();

        // From the admitting state: stays admitting through the band.
        let mut ac = AdmissionController::new(marks);
        for &p in &saw {
            prop_assert!(!ac.observe(p), "flapped to shedding inside the band");
        }

        // From the shedding state: stays shedding through the band.
        let mut ac = AdmissionController::new(marks);
        prop_assert!(ac.observe(marks.high + 0.1));
        for &p in &saw {
            prop_assert!(ac.observe(p), "flapped to admitting inside the band");
        }
    }

    /// Every flip needs pressure to actually cross a watermark.
    #[test]
    fn transitions_require_crossings(
        marks in watermarks(),
        trace in prop::collection::vec(0.0f64..1.5, 1..300),
    ) {
        let mut ac = AdmissionController::new(marks);
        for &p in &trace {
            let was = ac.is_shedding();
            ac.observe(p);
            if ac.is_shedding() != was {
                // The sample that flipped the state did cross a watermark.
                if ac.is_shedding() {
                    prop_assert!(p >= marks.high);
                } else {
                    prop_assert!(p <= marks.low);
                }
            }
        }
    }
}
