//! Deterministic, seed-driven fault injection for the hardware models.
//!
//! Real programmable-NIC deployments see link errors the happy-path
//! simulation ignores: corrupted or replayed TLPs on PCIe, DMA tags that
//! time out, DRAM bit errors (some ECC-correctable, some not), host
//! memory stalls, and packet loss/reorder on the 40 GbE link. A
//! [`FaultPlane`] gives each hardware model a private, seeded stream of
//! such events so the whole failure schedule is a pure function of the
//! seed: two runs with the same seed inject byte-identical fault
//! sequences and therefore produce byte-identical counters, which is what
//! makes recovery machinery testable.
//!
//! Design rules:
//!
//! * Every component forks its own plane ([`FaultPlane::fork`]) so fault
//!   draws in one model never perturb another model's schedule.
//! * A channel whose rate is `0.0` never consumes randomness, so a
//!   disabled plane (all rates zero, the default) is behaviorally inert:
//!   timing, stats and RNG streams are bit-identical to a build without
//!   fault injection.
//! * Planes count every event they inject into an [`OpLedger`] (the
//!   workspace-wide op-cost ledger), in the channel fields of its `pcie`,
//!   `dram` and `net` sections; [`OpLedger::total_faults`] sums them.

use crate::ledger::{CostSource, OpLedger};
use crate::rng::DetRng;

/// Per-channel fault probabilities. All rates are per-event (per DMA
/// transaction, per DRAM line access, per packet). The default is all
/// zeros: no faults, no RNG consumption.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a DMA read TLP arrives corrupted (LCRC mismatch); the
    /// engine must retry the transaction.
    pub pcie_corrupt: f64,
    /// Probability a completion TLP is replayed by the link layer; the
    /// duplicate is detected and absorbed, costing only bookkeeping.
    pub pcie_replay: f64,
    /// Probability a read completion never arrives and the tag must be
    /// reclaimed by timeout.
    pub pcie_timeout: f64,
    /// Probability a NIC DRAM line access flips at least one bit.
    pub dram_bit_error: f64,
    /// Given a bit error, probability ECC cannot correct it (multi-bit).
    pub dram_uncorrectable: f64,
    /// Probability a host memory access stalls (refresh/contention),
    /// adding latency.
    pub host_stall: f64,
    /// Probability a network packet is dropped.
    pub net_drop: f64,
    /// Probability a network packet is delivered out of order.
    pub net_reorder: f64,
}

impl FaultRates {
    /// No faults anywhere (the default).
    pub const ZERO: FaultRates = FaultRates {
        pcie_corrupt: 0.0,
        pcie_replay: 0.0,
        pcie_timeout: 0.0,
        dram_bit_error: 0.0,
        dram_uncorrectable: 0.0,
        host_stall: 0.0,
        net_drop: 0.0,
        net_reorder: 0.0,
    };

    /// Uniform pressure: every channel fires with probability `rate`;
    /// a quarter of DRAM bit errors are uncorrectable. `uniform(0.0)` is
    /// exactly [`FaultRates::ZERO`], so a zero-rate plane stays disabled.
    pub fn uniform(rate: f64) -> FaultRates {
        if rate == 0.0 {
            return FaultRates::ZERO;
        }
        FaultRates {
            pcie_corrupt: rate,
            pcie_replay: rate,
            pcie_timeout: rate,
            dram_bit_error: rate,
            dram_uncorrectable: 0.25,
            host_stall: rate,
            net_drop: rate,
            net_reorder: rate,
        }
    }

    /// True when every channel is silent.
    pub fn is_zero(&self) -> bool {
        *self == FaultRates::ZERO
    }
}

/// Outcome of one PCIe DMA transaction draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieFault {
    /// Transaction proceeds normally.
    None,
    /// Completion corrupted; retry required.
    Corrupt,
    /// Duplicate completion; absorbed, no retry.
    Replay,
    /// Completion lost; tag reclaimed by timeout, then retry.
    Timeout,
}

/// Outcome of one NIC DRAM line access draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramFault {
    /// Clean access.
    None,
    /// Single-bit error, corrected by ECC (latency penalty only).
    Corrected,
    /// Multi-bit error ECC can detect but not correct.
    Uncorrectable,
}

/// Outcome of one network packet draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Packet delivered in order.
    None,
    /// Packet dropped; transport must retransmit.
    Drop,
    /// Packet delayed past a later packet.
    Reorder,
}

/// Result of [`FaultPlane::transaction`]: how a bounded-retry engine
/// experienced one logical operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOutcome {
    /// Retries performed before success (0 on the clean path).
    pub retries: u32,
    /// True when the retry budget ran out and the operation failed.
    pub failed: bool,
}

impl TxnOutcome {
    /// The clean, no-fault outcome.
    pub const CLEAN: TxnOutcome = TxnOutcome {
        retries: 0,
        failed: false,
    };
}

/// A seeded source of fault decisions for one simulated component.
#[derive(Debug, Clone)]
pub struct FaultPlane {
    rates: FaultRates,
    /// `!rates.is_zero()`, kept beside the rates: the hot paths ask per op.
    enabled: bool,
    rng: DetRng,
    ledger: OpLedger,
}

impl FaultPlane {
    /// A plane injecting faults per `rates`, deterministically from `seed`.
    pub fn new(rates: FaultRates, seed: u64) -> Self {
        FaultPlane {
            rates,
            enabled: !rates.is_zero(),
            rng: DetRng::seed(seed),
            ledger: OpLedger::default(),
        }
    }

    /// A plane that never fires and never consumes randomness.
    pub fn disabled() -> Self {
        FaultPlane::new(FaultRates::ZERO, 0)
    }

    /// Derives an independent child plane with the same rates; used to
    /// give each component its own decorrelated fault schedule.
    pub fn fork(&mut self, salt: u64) -> FaultPlane {
        FaultPlane {
            rates: self.rates,
            enabled: self.enabled,
            rng: self.rng.fork(salt),
            ledger: OpLedger::default(),
        }
    }

    /// True when at least one channel can fire.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Bernoulli draw that consumes no randomness when `p` is zero, so a
    /// silent channel cannot perturb other draws.
    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.chance(p)
    }

    /// Draws the fate of one PCIe DMA transaction. Severity order:
    /// timeout beats corruption beats replay.
    #[inline]
    pub fn pcie_fault(&mut self) -> PcieFault {
        if self.chance(self.rates.pcie_timeout) {
            self.ledger.pcie.timeouts += 1;
            PcieFault::Timeout
        } else if self.chance(self.rates.pcie_corrupt) {
            self.ledger.pcie.corruptions += 1;
            PcieFault::Corrupt
        } else if self.chance(self.rates.pcie_replay) {
            self.ledger.pcie.replays += 1;
            PcieFault::Replay
        } else {
            PcieFault::None
        }
    }

    /// Draws the fate of one NIC DRAM line access.
    #[inline]
    pub fn dram_fault(&mut self) -> DramFault {
        if self.chance(self.rates.dram_bit_error) {
            if self.chance(self.rates.dram_uncorrectable) {
                self.ledger.dram.uncorrectable += 1;
                DramFault::Uncorrectable
            } else {
                self.ledger.dram.corrected += 1;
                DramFault::Corrected
            }
        } else {
            DramFault::None
        }
    }

    /// Draws whether one host memory access stalls.
    #[inline]
    pub fn host_stall(&mut self) -> bool {
        if self.chance(self.rates.host_stall) {
            self.ledger.dram.host_stalls += 1;
            true
        } else {
            false
        }
    }

    /// Draws the fate of one network packet. Drop beats reorder.
    pub fn net_fault(&mut self) -> NetFault {
        if self.chance(self.rates.net_drop) {
            self.ledger.net.drops += 1;
            NetFault::Drop
        } else if self.chance(self.rates.net_reorder) {
            self.ledger.net.reorders += 1;
            NetFault::Reorder
        } else {
            NetFault::None
        }
    }

    /// Models one logical operation under bounded retry: each attempt
    /// suffers the PCIe and DRAM channels; attempts repeat (counting
    /// retries) until a clean attempt or until `max_retries` extra
    /// attempts have been burned, which fails the operation.
    ///
    /// Replayed TLPs and ECC-corrected bit errors are absorbed without a
    /// retry; corruption, timeouts and uncorrectable errors force one.
    #[inline]
    pub fn transaction(&mut self, max_retries: u32) -> TxnOutcome {
        if !self.enabled() {
            return TxnOutcome::CLEAN;
        }
        let mut retries = 0;
        loop {
            let pcie = self.pcie_fault();
            let dram = self.dram_fault();
            let must_retry = matches!(pcie, PcieFault::Corrupt | PcieFault::Timeout)
                || dram == DramFault::Uncorrectable;
            if !must_retry {
                return TxnOutcome {
                    retries,
                    failed: false,
                };
            }
            if retries == max_retries {
                self.ledger.pcie.exhausted += 1;
                return TxnOutcome {
                    retries,
                    failed: true,
                };
            }
            retries += 1;
            self.ledger.pcie.retries += 1;
        }
    }
}

impl CostSource for FaultPlane {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(&self.ledger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_is_inert_and_consumes_no_rng() {
        let mut p = FaultPlane::disabled();
        let before = p.clone();
        for _ in 0..1000 {
            assert_eq!(p.pcie_fault(), PcieFault::None);
            assert_eq!(p.dram_fault(), DramFault::None);
            assert!(!p.host_stall());
            assert_eq!(p.net_fault(), NetFault::None);
            assert_eq!(p.transaction(3), TxnOutcome::CLEAN);
        }
        assert_eq!(OpLedger::of(&p), OpLedger::of(&before));
        // The RNG stream was never advanced: forks from both planes with
        // the same salt must agree.
        let mut a = p;
        let mut b = before;
        assert_eq!(
            a.fork(7).rng.u64(),
            b.fork(7).rng.u64(),
            "disabled draws must not consume randomness"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let rates = FaultRates::uniform(0.1);
        let mut a = FaultPlane::new(rates, 42);
        let mut b = FaultPlane::new(rates, 42);
        for _ in 0..10_000 {
            assert_eq!(a.pcie_fault(), b.pcie_fault());
            assert_eq!(a.dram_fault(), b.dram_fault());
            assert_eq!(a.net_fault(), b.net_fault());
        }
        assert_eq!(OpLedger::of(&a), OpLedger::of(&b));
        assert!(OpLedger::of(&a).total_faults() > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let rates = FaultRates::uniform(0.05);
        let mut a = FaultPlane::new(rates, 1);
        let mut b = FaultPlane::new(rates, 2);
        let sa: Vec<PcieFault> = (0..256).map(|_| a.pcie_fault()).collect();
        let sb: Vec<PcieFault> = (0..256).map(|_| b.pcie_fault()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut root = FaultPlane::new(FaultRates::uniform(0.2), 9);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let s1: Vec<DramFault> = (0..256).map(|_| c1.dram_fault()).collect();
        let s2: Vec<DramFault> = (0..256).map(|_| c2.dram_fault()).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn rates_are_respected_statistically() {
        let rates = FaultRates {
            net_drop: 0.1,
            ..FaultRates::ZERO
        };
        let mut p = FaultPlane::new(rates, 3);
        let trials = 100_000;
        let drops = (0..trials)
            .filter(|_| p.net_fault() == NetFault::Drop)
            .count() as f64;
        let frac = drops / trials as f64;
        assert!((frac - 0.1).abs() < 0.01, "drop rate {frac}");
        assert_eq!(OpLedger::of(&p).net.drops, drops as u64);
        assert_eq!(OpLedger::of(&p).net.reorders, 0);
    }

    #[test]
    fn transaction_retries_then_fails_under_certain_fault() {
        let rates = FaultRates {
            pcie_corrupt: 1.0,
            ..FaultRates::ZERO
        };
        let mut p = FaultPlane::new(rates, 5);
        let out = p.transaction(3);
        assert!(out.failed);
        assert_eq!(out.retries, 3);
        assert_eq!(OpLedger::of(&p).pcie.retries, 3);
        assert_eq!(OpLedger::of(&p).pcie.exhausted, 1);
        assert_eq!(OpLedger::of(&p).pcie.corruptions, 4);
    }

    #[test]
    fn transaction_absorbs_benign_faults() {
        // Replays and corrected ECC errors never force a retry.
        let rates = FaultRates {
            pcie_replay: 1.0,
            dram_bit_error: 1.0,
            dram_uncorrectable: 0.0,
            ..FaultRates::ZERO
        };
        let mut p = FaultPlane::new(rates, 6);
        for _ in 0..100 {
            let out = p.transaction(3);
            assert!(!out.failed);
            assert_eq!(out.retries, 0);
        }
        assert_eq!(OpLedger::of(&p).pcie.replays, 100);
        assert_eq!(OpLedger::of(&p).dram.corrected, 100);
        assert_eq!(OpLedger::of(&p).pcie.retries, 0);
    }

    #[test]
    fn uncorrectable_fraction_applies() {
        let rates = FaultRates {
            dram_bit_error: 1.0,
            dram_uncorrectable: 0.25,
            ..FaultRates::ZERO
        };
        let mut p = FaultPlane::new(rates, 7);
        let trials = 40_000;
        for _ in 0..trials {
            p.dram_fault();
        }
        let c = OpLedger::of(&p).dram;
        assert_eq!(c.corrected + c.uncorrectable, trials);
        let frac = c.uncorrectable as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "uncorrectable frac {frac}");
    }
}
