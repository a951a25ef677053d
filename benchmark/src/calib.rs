//! Host-speed calibration.
//!
//! The benchmark's host is a small shared VM whose speed wanders by
//! ±10 % from one half-minute to the next, as neighbours come and go.
//! That moves every wall-clock number of a run together, and no amount of
//! windowing inside the run can take it out. A fixed reference kernel —
//! random reads and writes over 32 MiB with a little arithmetic between
//! them, the store's own diet — is therefore timed twice in every round,
//! and each wall-clock end-to-end metric is reported at a *nominal* host
//! speed: scaled by how fast the reference ran during this run against
//! [`NOMINAL_MSTEPS`].
//!
//! What it buys, over five sets of ten seeds on four workloads (README,
//! "Why the numbers are calibrated"): the typical quartile spread of a
//! wall-clock metric falls from about 12 % as clocked to about 7.5 %, and
//! the worst block of every metric gets narrower (CPU per op 19 % → 12 %,
//! parallel engine 17 % → 10 %), which is what lets three of the bounds
//! sit below the contract's ceiling. It is not free of losses: about one
//! block in four is wider after the correction than before, when a
//! neighbour slows the reference kernel's memory traffic but not the
//! engines'. The reference kernel is the benchmark's own code, so a
//! product change cannot move it, and `host.reference_msteps` is reported
//! so that any value can be turned back into what the clock read.
//!
//! `setup_s` is left as clocked. Readings taken before and after a
//! set-up run on a cache the rounds never see (nothing else has run yet),
//! so they read a third faster than the rounds' and made `setup_s`
//! noisier, not steadier.

use std::time::{Duration, Instant};

/// The reference speed metrics are quoted at, in M steps per second —
/// about what this kernel does on the 2.1 GHz benchmark host when the
/// host is quiet. Only ratios against it matter.
pub const NOMINAL_MSTEPS: f64 = 100.0;

const WORDS: usize = 4 << 20;
const STEPS_PER_CHECK: u64 = 20_000;

pub struct Reference {
    words: Vec<u64>,
    state: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            words: vec![1; WORDS],
            state: 0x139_408D_CBBF_7A44,
        }
    }
}

impl Reference {
    /// Runs the kernel for about `budget` and returns its speed in
    /// M steps per second.
    pub fn measure(&mut self, budget: Duration) -> f64 {
        let start = Instant::now();
        let (mut steps, mut sum, mut x) = (0u64, 0u64, self.state);
        while start.elapsed() < budget {
            for _ in 0..STEPS_PER_CHECK {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let at = x as usize & (WORDS - 1);
                sum = sum.wrapping_add(self.words[at]).rotate_left(7) ^ x;
                self.words[at] = sum;
            }
            steps += STEPS_PER_CHECK;
        }
        self.state = x ^ std::hint::black_box(sum);
        steps as f64 / start.elapsed().as_secs_f64() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_kernel_runs_and_reports_a_speed() {
        let mut r = Reference::default();
        let speed = r.measure(Duration::from_millis(5));
        assert!(speed.is_finite() && speed > 0.1, "{speed}");
    }
}
