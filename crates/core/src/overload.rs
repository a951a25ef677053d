//! Admission control and overload accounting.
//!
//! KV-Direct's pipeline keeps its 180 Mops only while the reservation
//! station, the DMA tag pools and the host arbiter stay inside their
//! capacity envelopes; past them, every queued operation adds latency
//! without adding throughput, and a system without shedding slides into
//! congestion collapse (all capacity spent serving requests whose clients
//! have already timed out). The [`AdmissionController`] is the standard
//! antidote: a watermark pair with hysteresis. Shedding starts when the
//! dominant pressure signal crosses the *high* watermark and stops only
//! after it falls back below the *low* one, so a pressure trace that
//! oscillates between the watermarks cannot flap the admission decision
//! on every request.
//!
//! Every shed (and the reason) and every degraded-mode transition is
//! counted in the `core` section of the op-cost ledger the store and the
//! simulations expose (`admitted`, `shed_*`, `read_only_*`).

/// Hysteresis watermark pair for the admission controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Watermarks {
    /// Shedding stops when pressure falls to or below this.
    pub low: f64,
    /// Shedding starts when pressure reaches or exceeds this.
    pub high: f64,
}

impl Watermarks {
    /// Defaults tuned for the station envelope: shed at 85% occupancy,
    /// re-admit below 50%.
    pub fn paper() -> Self {
        Watermarks {
            low: 0.5,
            high: 0.85,
        }
    }
}

// Hot-key-aware shedding, layered on the admission controller.
//
// Under a skewed adversarial mix (Zipf 1.2 and beyond) indiscriminate
// watermark shedding throws away the long tail along with the hot keys
// that caused the overload. With the policy on, the processor keeps a
// space-saving rollup of hashed request keys; while the controller is
// shedding but pressure is still below `HOT_KEY_SEVERE`, only requests for
// tracked heavy hitters whose traffic share is at or above
// `HOT_KEY_MIN_SHARE` are shed — the spread traffic keeps flowing. At or
// above `HOT_KEY_SEVERE` the carve-out disappears and everything sheds,
// exactly as without the policy. The figures are sized for the paper's
// station envelope.

/// Heavy-hitter slots tracked in the space-saving rollup.
pub(crate) const HOT_KEY_TOP_K: usize = 16;
/// Minimum tracked traffic share for a key to count as hot.
pub(crate) const HOT_KEY_MIN_SHARE: f64 = 0.05;
/// Pressure at or above which shedding is unconditional again.
pub(crate) const HOT_KEY_SEVERE: f64 = 0.95;
/// Observations between halvings of the rollup, so the hot set tracks
/// the recent mix instead of all history.
pub(crate) const HOT_KEY_HALVE_EVERY: u64 = 1 << 16;

/// Configuration of the overload plane, carried in `KvDirectConfig`.
///
/// Everything defaults to *off* so existing closed-loop workloads (which
/// legitimately keep the pipeline saturated) are untouched; open-loop
/// drivers and overload-aware embedders opt in.
#[derive(Debug, Clone, Default)]
pub struct OverloadConfig {
    /// Watermark-based admission control; `None` disables shedding.
    pub admission: Option<Watermarks>,
    /// Hot-key-aware shedding: while pressure is below a severe mark,
    /// shed only the tracked heavy hitters. `false` sheds indiscriminately
    /// whenever the admission controller says shed. Only meaningful when
    /// `admission` is set.
    pub hot_key: bool,
    /// Enter read-only mode when a write fails for memory exhaustion
    /// (writes shed with `Overloaded`, reads still served) instead of
    /// failing every subsequent write with `OutOfMemory`.
    pub read_only_on_oom: bool,
    /// Leave read-only mode once memory utilization falls below this
    /// fraction (deletes drain the store); hysteresis against re-entering
    /// on the next insert.
    pub read_only_exit_utilization: f64,
}

impl OverloadConfig {
    /// The enabled profile: paper watermarks, read-only degradation with
    /// exit at 70% memory utilization. Hot-key awareness stays off; use
    /// [`OverloadConfig::hot_key_aware`] for the full defense.
    pub fn enabled() -> Self {
        OverloadConfig {
            admission: Some(Watermarks::paper()),
            hot_key: false,
            read_only_on_oom: true,
            read_only_exit_utilization: 0.7,
        }
    }

    /// The enabled profile plus per-hot-key shedding.
    pub fn hot_key_aware() -> Self {
        OverloadConfig {
            hot_key: true,
            ..OverloadConfig::enabled()
        }
    }
}

/// The watermark admission controller.
///
/// # Examples
///
/// ```
/// use kvd_core::{AdmissionController, Watermarks};
///
/// let mut ac = AdmissionController::new(Watermarks { low: 0.5, high: 0.85 });
/// assert!(!ac.observe(0.84)); // below high: admit
/// assert!(ac.observe(0.85)); // crossed high: shed
/// assert!(ac.observe(0.6)); // still above low: keep shedding (hysteresis)
/// assert!(!ac.observe(0.5)); // back at low: admit again
/// assert_eq!(ac.transitions(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AdmissionController {
    marks: Watermarks,
    shedding: bool,
    transitions: u64,
}

impl AdmissionController {
    /// Creates a controller in the admitting state.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= low <= high`.
    pub fn new(marks: Watermarks) -> Self {
        assert!(
            marks.low >= 0.0 && marks.low <= marks.high,
            "watermarks must satisfy 0 <= low <= high"
        );
        AdmissionController {
            marks,
            shedding: false,
            transitions: 0,
        }
    }

    /// Feeds one pressure sample; returns whether to shed the request
    /// that produced it.
    pub fn observe(&mut self, pressure: f64) -> bool {
        if self.shedding {
            if pressure <= self.marks.low {
                self.shedding = false;
                self.transitions += 1;
            }
        } else if pressure >= self.marks.high {
            self.shedding = true;
            self.transitions += 1;
        }
        self.shedding
    }

    /// Whether the controller is currently shedding.
    pub fn is_shedding(&self) -> bool {
        self.shedding
    }

    /// State flips (admit→shed and shed→admit) so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The configured watermarks.
    pub fn watermarks(&self) -> Watermarks {
        self.marks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_sheds_below_low_watermark() {
        let mut ac = AdmissionController::new(Watermarks::paper());
        for p in [0.0, 0.1, 0.3, 0.49, 0.2, 0.0] {
            assert!(!ac.observe(p), "shed at pressure {p}");
        }
        assert_eq!(ac.transitions(), 0);
    }

    #[test]
    fn always_sheds_at_or_above_high_watermark() {
        let mut ac = AdmissionController::new(Watermarks::paper());
        for p in [0.85, 0.9, 1.0, 2.5] {
            assert!(ac.observe(p), "admitted at pressure {p}");
        }
    }

    #[test]
    fn hysteresis_holds_between_watermarks() {
        let mut ac = AdmissionController::new(Watermarks::paper());
        // Rising through the band: still admitting.
        assert!(!ac.observe(0.7));
        // Cross high: shed.
        assert!(ac.observe(0.9));
        // Fall back into the band: STILL shedding — no flap.
        assert!(ac.observe(0.7));
        assert!(ac.observe(0.6));
        // Only crossing low clears it.
        assert!(!ac.observe(0.4));
        assert!(!ac.observe(0.7));
        assert_eq!(ac.transitions(), 2);
    }
}
