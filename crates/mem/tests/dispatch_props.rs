//! Property tests for the dispatched memory stack.
//!
//! The load dispatcher + NIC DRAM cache + host memory must be
//! *functionally invisible*: any access pattern, any dispatch ratio, any
//! alignment — the bytes that come back equal what a flat memory returns.
//! (The paper's correctness story depends on this: the cache is
//! write-back with ECC-bit metadata and no valid bits, so an encoding
//! slip silently corrupts the KVS.)
//!
//! Host memory holds the model's only copy of every byte, so a stale
//! NIC DRAM line cannot show in the bytes read back. [`StaleLines`]
//! looks for it in the cache metadata instead.
//!
//! Prefetch and peek hints are not accesses: an engine that gets them
//! interleaved with its accesses must end every access in exactly the
//! state of a twin that got none.

use std::collections::BTreeSet;

use kvd_mem::{
    AdaptiveCacheConfig, DispatchConfig, DispatchedMemory, FlatMemory, MemoryEngine, NicDramConfig,
    LINE,
};
use kvd_sim::{Bandwidth, FaultPlane, FaultRates};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const CAP: u64 = 1 << 18; // 256 KiB host: four 64 KiB pages

fn dispatched(ratio: f64) -> DispatchedMemory {
    dispatched_faulty(ratio, FaultPlane::disabled())
}

fn dispatched_faulty(ratio: f64, faults: FaultPlane) -> DispatchedMemory {
    DispatchedMemory::with_faults(
        CAP,
        NicDramConfig {
            capacity: CAP / 16,
            bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
        },
        DispatchConfig::new(ratio),
        faults,
    )
}

#[derive(Debug, Clone)]
enum Access {
    Write {
        addr: u64,
        data: Vec<u8>,
    },
    Read {
        addr: u64,
        len: usize,
    },
    /// `prefetch` (or, if `peek`, `peek_line`) of `addr`'s line, given
    /// to the engine under test and not to its twin.
    Hint {
        addr: u64,
        peek: bool,
    },
}

/// `accesses`, with one op in nine a hint anywhere in the address space
/// or a little past it. A differential case draws a ninth more ops than
/// it did before hints, so it still makes as many accesses.
fn hinted(accesses: impl Strategy<Value = Access> + 'static) -> impl Strategy<Value = Access> {
    prop_oneof![
        8 => accesses,
        1 => (0u64..CAP + 4096, any::<bool>()).prop_map(|(addr, peek)| Access::Hint { addr, peek }),
    ]
}

fn access() -> impl Strategy<Value = Access> {
    prop_oneof![
        (0u64..CAP - 512, prop::collection::vec(any::<u8>(), 1..300))
            .prop_map(|(addr, data)| Access::Write { addr, data }),
        (0u64..CAP - 512, 1usize..300).prop_map(|(addr, len)| Access::Read { addr, len }),
    ]
}

/// Accesses of 1-600 B, half of them starting within 600 B below a
/// 64 KiB page boundary so that they straddle host pages as well as
/// cache lines.
fn long_access() -> impl Strategy<Value = Access> {
    let addr = || {
        prop_oneof![
            0u64..CAP - 600,
            (1u64..CAP >> 16, 1u64..600).prop_map(|(page, back)| (page << 16) - back),
        ]
    };
    prop_oneof![
        (addr(), prop::collection::vec(any::<u8>(), 1..=600))
            .prop_map(|(addr, data)| Access::Write { addr, data }),
        (addr(), 1usize..=600).prop_map(|(addr, len)| Access::Read { addr, len }),
    ]
}

/// The stale-line oracle: the lines written over PCIe while resident.
///
/// A write to a line that is resident but not cacheable goes to host
/// memory past the NIC DRAM's copy, which is stale from then on. The
/// copy stops mattering once the line is no longer resident, or once it
/// is filled afresh. Until then the line must never be cacheable: the
/// engine would serve the stale copy (the retune sweep retires lines
/// entering the cacheable band for this reason, DESIGN.md §16).
#[derive(Default)]
struct StaleLines(BTreeSet<u64>);

impl StaleLines {
    /// Updates the shadow after an access of `len` bytes at `addr` that
    /// made `fills` cache fills, and fails if a stale line is resident
    /// and cacheable.
    fn after(
        &mut self,
        d: &DispatchedMemory,
        (addr, len, write): (u64, usize, bool),
        fills: u64,
    ) -> Result<(), TestCaseError> {
        let touched = addr / LINE..=(addr + len as u64 - 1) / LINE;
        let cacheable = |line: u64| d.dispatcher().is_cacheable(line);
        self.0
            .retain(|&l| d.is_resident(l) && !(fills > 0 && touched.contains(&l)));
        if write {
            let written_past = touched.filter(|&l| d.is_resident(l) && !cacheable(l));
            self.0.extend(written_past);
        }
        match self.0.iter().find(|&&l| cacheable(l)) {
            Some(line) => Err(TestCaseError::fail(format!(
                "line {line} is stale, resident and cacheable at ratio {}",
                d.dispatcher().ratio()
            ))),
            None => Ok(()),
        }
    }
}

/// Applies `ops` to a fresh engine from `engine` and to a flat memory,
/// comparing every read and running the stale-line oracle after every
/// access, then reads the whole address space back from both. A second
/// engine from `engine`, the twin, gets every access but no hint, and
/// must stay in the same counted and cached state.
fn check_against_flat(
    engine: impl Fn() -> DispatchedMemory,
    ops: &[Access],
) -> Result<(), TestCaseError> {
    let (mut d, mut twin) = (engine(), engine());
    let mut f = FlatMemory::new(CAP);
    let mut stale = StaleLines::default();
    let fills = |d: &DispatchedMemory| d.cache_stats().admitted_fills;
    for op in ops {
        let before = fills(&d);
        let access = match op {
            Access::Write { addr, data } => {
                d.write(*addr, data);
                twin.write(*addr, data);
                f.write(*addr, data);
                (*addr, data.len(), true)
            }
            Access::Read { addr, len } => {
                let mut a = vec![0u8; *len];
                let mut b = vec![0u8; *len];
                d.read(*addr, &mut a);
                twin.read(*addr, &mut b);
                prop_assert_eq!(&a, &b, "twin divergence at {:#x}+{}", addr, len);
                f.read(*addr, &mut b);
                prop_assert_eq!(&a, &b, "divergence at {:#x}+{}", addr, len);
                (*addr, *len, false)
            }
            Access::Hint { addr, peek: false } => {
                d.prefetch(*addr);
                continue;
            }
            Access::Hint { addr, peek: true } => {
                // The borrowed line is the host's, byte for byte.
                prop_assert_eq!(
                    d.peek_line(*addr),
                    f.peek_line(*addr),
                    "peek at {:#x}",
                    addr
                );
                if let Some(line) = d.peek_line(*addr) {
                    let mut b = [0u8; LINE as usize];
                    f.read(*addr / LINE * LINE, &mut b);
                    prop_assert_eq!(line, &b, "peek at {:#x}", addr);
                }
                continue;
            }
        };
        stale.after(&d, access, fills(&d) - before)?;
        same_state(&d, &twin, access)?;
    }
    // Full sweep at the end catches stale dirty lines that were never
    // re-read during the run.
    let mut a = vec![0u8; 4096];
    let mut b = vec![0u8; 4096];
    for chunk in 0..(CAP / 4096) {
        let before = fills(&d);
        d.read(chunk * 4096, &mut a);
        f.read(chunk * 4096, &mut b);
        prop_assert_eq!(&a, &b, "sweep divergence in chunk {}", chunk);
        stale.after(&d, (chunk * 4096, 4096, false), fills(&d) - before)?;
        twin.read(chunk * 4096, &mut b);
    }
    same_state(&d, &twin, (0, CAP as usize, false))
}

/// Fails unless `d` and `twin` hold the same counters, cache-plane
/// section and ECC record, and the same residency for every line of the
/// access `(addr, len, _)`.
fn same_state(
    d: &DispatchedMemory,
    twin: &DispatchedMemory,
    (addr, len, _): (u64, usize, bool),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.stats(), twin.stats());
    prop_assert_eq!(d.cache_stats(), twin.cache_stats());
    prop_assert_eq!(d.ecc(), twin.ecc());
    for line in addr / LINE..=(addr + len as u64 - 1) / LINE {
        prop_assert_eq!(d.is_resident(line), twin.is_resident(line), "line {}", line);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential with every plane on: retunes every 64 line accesses
    /// (so thresholds migrate and lines retire mid-access), TinyLFU
    /// rejections, ECC rebuilds, host stalls and — in the cases that draw
    /// a low threshold — the bypass breaker. Placement and cost may do
    /// what they like; the bytes may not.
    #[test]
    fn adaptive_faulty_engine_equals_flat(
        ratio_pct in 5u32..=95,
        seed in any::<u64>(),
        bypass_after in 1u64..200,
        ops in prop::collection::vec(hinted(long_access()), 1..135),
    ) {
        let rates = FaultRates {
            dram_bit_error: 0.2,
            dram_uncorrectable: 0.3,
            host_stall: 0.1,
            ..FaultRates::ZERO
        };
        let engine = || {
            let mut d = dispatched_faulty(ratio_pct as f64 / 100.0, FaultPlane::new(rates, seed));
            d.set_bypass_threshold(bypass_after);
            let mut cfg = AdaptiveCacheConfig::data_path(seed);
            cfg.epoch_accesses = 64;
            d.set_adaptive(cfg);
            d
        };
        check_against_flat(engine, &ops)?;
    }

    /// Differential: dispatched == flat for every pattern and ratio.
    #[test]
    fn dispatched_equals_flat(
        ratio_pct in 0u32..=100,
        ops in prop::collection::vec(hinted(access()), 1..169),
    ) {
        check_against_flat(|| dispatched(ratio_pct as f64 / 100.0), &ops)?;
    }

    /// Cache-hit accounting is conservative: hits never exceed total
    /// lookups, and a PCIe-only engine never reports DRAM traffic.
    #[test]
    fn accounting_sane(ops in prop::collection::vec(access(), 1..100)) {
        let mut d = dispatched(0.5);
        let mut zero = dispatched(0.0);
        for op in &ops {
            match op {
                Access::Write { addr, data } => {
                    d.write(*addr, data);
                    zero.write(*addr, data);
                }
                Access::Read { addr, len } => {
                    let mut buf = vec![0u8; *len];
                    d.read(*addr, &mut buf);
                    zero.read(*addr, &mut buf);
                }
                Access::Hint { .. } => unreachable!("access() draws no hints"),
            }
        }
        let s = d.stats();
        prop_assert!(s.cache_hits <= s.cache_hits + s.cache_misses);
        let z = zero.stats();
        prop_assert_eq!(z.dram_reads + z.dram_writes, 0);
        prop_assert_eq!(z.cache_hits, 0);
    }
}
