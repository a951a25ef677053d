//! Backpressure signals shared across the request path.
//!
//! KV-Direct stays at 180 Mops per NIC only while its three capacity
//! envelopes hold: the reservation station's 256 in-flight operations,
//! the DMA engines' read-tag windows, and the host DRAM arbiter's
//! bandwidth quantum. [`PressureGauge`] is the common currency those
//! layers use to report how close they are to their envelope: each
//! signal is a dimensionless utilization (0 = idle, 1 = at capacity,
//! above 1 = backlogged past capacity), and the admission layer sheds on
//! the *worst* of them, because whichever resource saturates first is
//! the one that turns queueing into collapse.

use crate::ledger::PressureTerms;

/// A snapshot of the pipeline's backpressure signals.
///
/// # Examples
///
/// ```
/// use kvd_sim::PressureGauge;
///
/// let g = PressureGauge { station: 0.4, tags: 0.9, stretch: 0.1 };
/// assert_eq!(g.overall(), 0.9); // the bottleneck dominates
/// assert_eq!(PressureGauge::default().overall(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PressureGauge {
    /// Reservation-station occupancy: tracked operations (or the decode
    /// backlog expressed in station-capacities) relative to the station's
    /// 256-op envelope.
    pub station: f64,
    /// DMA read-tag pressure: outstanding host lines relative to the tag
    /// windows of every PCIe endpoint.
    pub tags: f64,
    /// Host-arbiter stretch: the fraction of the last synchronization
    /// quantum that was lost to shared-DRAM oversubscription.
    pub stretch: f64,
}

impl PressureGauge {
    /// Computes the gauge from the ledger's raw backpressure terms: each
    /// signal is its backlog divided by its capacity envelope (zero when
    /// the envelope is unknown/zero, i.e. before any batch ran).
    pub fn from_terms(t: &PressureTerms) -> PressureGauge {
        let ratio = |backlog: u64, cap: u64| {
            if cap == 0 {
                0.0
            } else {
                backlog as f64 / cap as f64
            }
        };
        PressureGauge {
            station: ratio(t.station_backlog_ps, t.station_cap_ps),
            tags: ratio(t.tag_backlog_ps, t.tag_cap_ps),
            stretch: ratio(t.stall_ps, t.quantum_ps),
        }
    }

    /// The dominant pressure signal — the admission controller's input.
    /// Negative components (never produced by well-behaved reporters) are
    /// clamped to zero.
    pub fn overall(&self) -> f64 {
        self.station.max(self.tags).max(self.stretch).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_takes_the_worst_signal() {
        let g = PressureGauge {
            station: 0.2,
            tags: 0.7,
            stretch: 0.3,
        };
        assert_eq!(g.overall(), 0.7);
        let g = PressureGauge {
            station: 1.5,
            ..PressureGauge::default()
        };
        assert_eq!(g.overall(), 1.5, "backlog past capacity is reported");
    }

    #[test]
    fn idle_gauge_never_saturates() {
        assert_eq!(PressureGauge::default().overall(), 0.0);
    }

    #[test]
    fn from_terms_divides_backlog_by_envelope() {
        let g = PressureGauge::from_terms(&PressureTerms {
            station_backlog_ps: 500,
            station_cap_ps: 1000,
            tag_backlog_ps: 300,
            tag_cap_ps: 100,
            stall_ps: 0,
            quantum_ps: 8_000_000,
        });
        assert!((g.station - 0.5).abs() < 1e-12);
        assert!((g.tags - 3.0).abs() < 1e-12);
        assert_eq!(g.stretch, 0.0);
        assert_eq!(
            PressureGauge::from_terms(&PressureTerms::default()),
            PressureGauge::default(),
            "zero envelopes (no batch yet) read as idle"
        );
    }

    #[test]
    fn negative_components_clamp_to_zero() {
        let g = PressureGauge {
            station: -0.5,
            tags: -1.0,
            stretch: -0.1,
        };
        assert_eq!(g.overall(), 0.0);
    }
}
