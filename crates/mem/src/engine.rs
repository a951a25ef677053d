//! The unified memory access engine (paper §3.3.4, Figure 4).
//!
//! Both the hash index and slab-allocated KV data are reached through a
//! single engine that accounts every access — the paper's evaluation
//! currency is *memory accesses per KV operation* (Figures 6, 9, 10, 11).
//!
//! Two engines implement [`MemoryEngine`]:
//!
//! * [`FlatMemory`] — functional storage with access counting only; used
//!   for the pure algorithmic experiments where the paper also abstracts
//!   away the device (hash-table access counts).
//! * [`DispatchedMemory`] — the full stack: host memory behind PCIe, NIC
//!   DRAM cache, and the hash-based load dispatcher.

use kvd_pcie::config::TWO_ENDPOINT_GBYTES_PER_SEC;
use kvd_sim::{CacheCosts, CostSource, DramFault, FaultPlane, OpLedger};

use crate::dispatch::{hash_line, optimal_ratio_measured, DispatchConfig, LoadDispatcher};
use crate::host::HostMemory;
use crate::nicdram::{NicDram, NicDramConfig, Place, Victim, NIC_DRAM_GBYTES_PER_SEC};
use crate::sketch::{FreqSketch, SketchConfig};
use crate::LINE;

/// Maximum bytes one DMA request covers (PCIe max payload: the paper's
/// engine splits above 256 B).
pub const MAX_DMA_PAYLOAD: u64 = 256;

/// Read or write, for trace recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A memory read.
    Read,
    /// A memory write.
    Write,
}

/// Access accounting shared by all engines.
///
/// A "DMA op" is one PCIe request (up to [`MAX_DMA_PAYLOAD`] bytes); a
/// "DRAM op" is one 64 B NIC-DRAM access. The paper's *memory access
/// count* is `dma_reads + dma_writes + dram_reads + dram_writes` — every
/// random access to either device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// PCIe DMA read requests issued.
    pub dma_reads: u64,
    /// PCIe DMA write requests issued.
    pub dma_writes: u64,
    /// Payload bytes moved by DMA reads.
    pub dma_read_bytes: u64,
    /// Payload bytes moved by DMA writes.
    pub dma_write_bytes: u64,
    /// NIC DRAM line reads.
    pub dram_reads: u64,
    /// NIC DRAM line writes.
    pub dram_writes: u64,
    /// Cache hits in NIC DRAM.
    pub cache_hits: u64,
    /// Cache misses in NIC DRAM.
    pub cache_misses: u64,
}

impl AccessStats {
    /// Total random memory accesses (the paper's Figure 6/9/11 metric).
    pub fn accesses(&self) -> u64 {
        self.dma_reads + self.dma_writes + self.dram_reads + self.dram_writes
    }

    /// Difference since an earlier snapshot.
    pub fn since(&self, earlier: &AccessStats) -> AccessStats {
        AccessStats {
            dma_reads: self.dma_reads - earlier.dma_reads,
            dma_writes: self.dma_writes - earlier.dma_writes,
            dma_read_bytes: self.dma_read_bytes - earlier.dma_read_bytes,
            dma_write_bytes: self.dma_write_bytes - earlier.dma_write_bytes,
            dram_reads: self.dram_reads - earlier.dram_reads,
            dram_writes: self.dram_writes - earlier.dram_writes,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
        }
    }

    /// The request counts alone.
    #[inline]
    pub fn traffic(&self) -> Traffic {
        Traffic {
            dma_reads: self.dma_reads,
            dma_writes: self.dma_writes,
            dram_reads: self.dram_reads,
            dram_writes: self.dram_writes,
        }
    }

    /// Cache hit rate over the lookups in this (possibly windowed) stats
    /// view; 0 if there were none.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }
}

/// Requests issued per device — the part of [`AccessStats`] a timing
/// model charges per operation, cheap enough to read around every one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// PCIe DMA read requests issued.
    pub dma_reads: u64,
    /// PCIe DMA write requests issued.
    pub dma_writes: u64,
    /// NIC DRAM line reads.
    pub dram_reads: u64,
    /// NIC DRAM line writes.
    pub dram_writes: u64,
}

/// Byte-addressable memory with access accounting.
///
/// All KVS structures (hash index, slab data, allocator stacks) run on
/// this interface, so the same data-structure code is measured against
/// [`FlatMemory`] for access counts and [`DispatchedMemory`] for the full
/// device stack.
pub trait MemoryEngine {
    /// Reads `buf.len()` bytes at `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]);

    /// Writes `data` at `addr`.
    fn write(&mut self, addr: u64, data: &[u8]);

    /// Address-space capacity in bytes.
    fn capacity(&self) -> u64;

    /// Accumulated access statistics.
    fn stats(&self) -> AccessStats;

    /// The request counts of [`stats`](Self::stats). Engines that hold
    /// their statistics override this to read just the four.
    fn traffic(&self) -> Traffic {
        self.stats().traffic()
    }

    /// Resets the statistics (storage contents are kept).
    fn reset_stats(&mut self);

    /// Hints that the host line holding `addr` is about to be accessed.
    /// A hint is not an access: it counts nothing and moves no cache,
    /// admission, fault or RNG state. Engines without host bytes of
    /// their own ignore it.
    #[inline]
    fn prefetch(&self, _addr: u64) {}

    /// The host line holding `addr`, borrowed without an access (as
    /// uncounted as [`prefetch`](Self::prefetch)). `None` where the
    /// engine lends no bytes or the line was never written.
    #[inline]
    fn peek_line(&self, _addr: u64) -> Option<&[u8; LINE as usize]> {
        None
    }

    /// Reads a little-endian `u64`.
    fn read_u64(&mut self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

/// Number of DMA requests needed for an access of `len` bytes.
fn dma_requests(len: usize) -> u64 {
    ((len as u64).div_ceil(MAX_DMA_PAYLOAD)).max(1)
}

/// Functional memory with access counting only (no devices, no timing).
///
/// # Examples
///
/// ```
/// use kvd_mem::{FlatMemory, MemoryEngine};
///
/// let mut m = FlatMemory::new(1 << 20);
/// m.write(64, b"key");
/// let mut buf = [0u8; 3];
/// m.read(64, &mut buf);
/// assert_eq!(&buf, b"key");
/// assert_eq!(m.stats().dma_reads, 1);
/// assert_eq!(m.stats().dma_writes, 1);
/// ```
pub struct FlatMemory {
    mem: HostMemory,
    stats: AccessStats,
}

impl FlatMemory {
    /// Creates a flat memory with `capacity` bytes of address space.
    pub fn new(capacity: u64) -> Self {
        FlatMemory {
            mem: HostMemory::new(capacity),
            stats: AccessStats::default(),
        }
    }
}

impl MemoryEngine for FlatMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.mem.read(addr, buf);
        self.stats.dma_reads += dma_requests(buf.len());
        self.stats.dma_read_bytes += buf.len() as u64;
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        self.mem.write(addr, data);
        self.stats.dma_writes += dma_requests(data.len());
        self.stats.dma_write_bytes += data.len() as u64;
    }

    fn capacity(&self) -> u64 {
        self.mem.capacity()
    }

    #[inline]
    fn prefetch(&self, addr: u64) {
        self.mem.prefetch(addr);
    }

    #[inline]
    fn peek_line(&self, addr: u64) -> Option<&[u8; LINE as usize]> {
        self.mem.line(addr)
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    #[inline]
    fn traffic(&self) -> Traffic {
        self.stats.traffic()
    }

    fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }
}

/// ECC and degradation accounting of a [`DispatchedMemory`].
///
/// Faults are injected by the engine's [`FaultPlane`]; every injection is
/// *recovered* — data bytes are never corrupted — and these counters record
/// what the recovery cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EccStats {
    /// Single-bit DRAM errors silently fixed by ECC.
    pub corrected: u64,
    /// Multi-bit errors ECC could only detect, forcing a line rebuild.
    pub uncorrectable: u64,
    /// Lines refetched from host memory after an uncorrectable error.
    pub refetches: u64,
    /// Dirty lines salvaged to host *before* the refetch (the cached copy
    /// was the only copy, so it is written back first).
    pub rescue_writebacks: u64,
    /// Host-memory stall events on the PCIe path.
    pub host_stalls: u64,
    /// Whether the degradation breaker has retired the NIC DRAM cache.
    pub bypassed: bool,
}

/// Uncorrectable errors tolerated before [`DispatchedMemory`] retires the
/// NIC DRAM cache and serves everything over PCIe (graceful degradation).
pub const DEFAULT_BYPASS_THRESHOLD: u64 = 16;

/// Largest load-dispatch-ratio move per retune step (gradual migration).
const MAX_STEP: f64 = 0.05;

/// No retune when the measured optimum is within this band of the current
/// ratio (hysteresis).
const DEADBAND: f64 = 0.02;

/// Lower clamp on the retuned load dispatch ratio.
const MIN_RATIO: f64 = 0.05;

/// Upper clamp on the retuned load dispatch ratio.
const MAX_RATIO: f64 = 0.95;

const _: () = {
    assert!(0.0 <= MIN_RATIO && MIN_RATIO < MAX_RATIO && MAX_RATIO <= 1.0);
    assert!(MAX_STEP > 0.0 && DEADBAND >= 0.0 && DEADBAND < MAX_RATIO - MIN_RATIO);
};

/// Configuration of the adaptive cache plane (off by default).
///
/// When enabled on a [`DispatchedMemory`], three mechanisms replace the
/// paper's static policies:
///
/// 1. a sampled [`FreqSketch`] over line addresses tracks access
///    frequency on the data path;
/// 2. cache fills become **TinyLFU-style**: on a conflict miss the
///    incomer must out-count the coldest resident of its set or the fill
///    is rejected (the access is served over PCIe and nothing is
///    displaced), so one-hit-wonder lines stop evicting hot buckets;
/// 3. every `epoch_accesses` line accesses the load dispatch ratio is
///    re-solved from the **measured** windowed hit rate
///    ([`optimal_ratio_measured`]) and migrated toward the optimum in
///    steps of at most `MAX_STEP`, with a `DEADBAND` of hysteresis so
///    a noisy hit rate does not thrash the threshold. Lines whose
///    cacheability changes are retired in one sweep (dirty ones written
///    back) instead of a full flush.
#[derive(Debug, Clone)]
pub struct AdaptiveCacheConfig {
    /// Frequency sketch shape and sampling (seeded — determinism).
    pub sketch: SketchConfig,
    /// Line accesses between retune steps (access-count driven, never
    /// wall clock, so parallel runs stay bit-identical).
    pub epoch_accesses: u64,
    /// PCIe throughput term of the balance equation (GB/s); the NIC DRAM
    /// term is [`NIC_DRAM_GBYTES_PER_SEC`].
    pub tput_pcie: f64,
    /// Starvation escape hatch (the W-TinyLFU window, made deterministic):
    /// every `admit_every`-th *consecutive* rejected fill is admitted
    /// anyway, so a freshly shifted hot set — whose sketch counts are
    /// still building — cannot be locked out indefinitely by stale
    /// residents. `0` disables the hatch (pure TinyLFU).
    pub admit_every: u64,
}

impl AdaptiveCacheConfig {
    /// Data-path defaults: the PCIe term is the paper's two Gen3 x8
    /// endpoints ([`TWO_ENDPOINT_GBYTES_PER_SEC`]), and a [`SketchConfig`]
    /// sized for the hot path.
    pub fn data_path(seed: u64) -> Self {
        AdaptiveCacheConfig {
            sketch: SketchConfig::data_path(seed),
            epoch_accesses: 8192,
            tput_pcie: TWO_ENDPOINT_GBYTES_PER_SEC,
            admit_every: 8,
        }
    }
}

/// Live state of the adaptive plane.
struct AdaptiveState {
    cfg: AdaptiveCacheConfig,
    sketch: FreqSketch,
    /// Line accesses since the last retune step.
    epoch_ticks: u64,
    /// Consecutive rejected fills (drives the `admit_every` hatch).
    reject_streak: u64,
    /// Stats snapshot at the start of the current epoch (windowed hit
    /// rate for the balance equation).
    epoch_base: AccessStats,
}

/// The full memory stack: host memory behind PCIe DMA, NIC DRAM as a
/// write-back cache for the hash-selected cacheable portion.
///
/// Host memory holds every byte; the NIC DRAM keeps only its tags and
/// dirty bits, which decide what each access costs on which device.
/// Access statistics feed the throughput composition used in the system
/// benchmarks.
///
/// # Examples
///
/// ```
/// use kvd_mem::{DispatchConfig, DispatchedMemory, MemoryEngine, NicDramConfig};
///
/// let mut m = DispatchedMemory::new(
///     1 << 20, // 1 MiB host
///     NicDramConfig { capacity: 1 << 16, ..NicDramConfig::paper_scaled(1) },
///     DispatchConfig::new(0.5),
/// );
/// m.write(4096, b"value");
/// let mut buf = [0u8; 5];
/// m.read(4096, &mut buf);
/// assert_eq!(&buf, b"value");
/// ```
pub struct DispatchedMemory {
    host: HostMemory,
    cache: NicDram,
    dispatcher: LoadDispatcher,
    stats: AccessStats,
    cache_stats: CacheCosts,
    adaptive: Option<AdaptiveState>,
    /// Stats snapshot for the caller-facing windowed hit rate.
    window_base: AccessStats,
    faults: FaultPlane,
    ecc: EccStats,
    bypass_threshold: u64,
}

impl DispatchedMemory {
    /// Creates the stack with the given host capacity, NIC DRAM and
    /// dispatch configuration.
    pub fn new(host_capacity: u64, dram: NicDramConfig, dispatch: DispatchConfig) -> Self {
        DispatchedMemory::with_faults(host_capacity, dram, dispatch, FaultPlane::disabled())
    }

    /// Creates the stack with DRAM bit errors and host stalls drawn from
    /// `faults`.
    pub fn with_faults(
        host_capacity: u64,
        dram: NicDramConfig,
        dispatch: DispatchConfig,
        faults: FaultPlane,
    ) -> Self {
        DispatchedMemory {
            cache: NicDram::new(dram, host_capacity),
            host: HostMemory::new(host_capacity),
            dispatcher: LoadDispatcher::new(dispatch),
            stats: AccessStats::default(),
            cache_stats: CacheCosts::default(),
            adaptive: None,
            window_base: AccessStats::default(),
            faults,
            ecc: EccStats::default(),
            bypass_threshold: DEFAULT_BYPASS_THRESHOLD,
        }
    }

    /// Turns on the adaptive cache plane (frequency sketch, TinyLFU
    /// admission, online retune). Idempotent-ish: replaces any previous
    /// adaptive state.
    pub fn set_adaptive(&mut self, cfg: AdaptiveCacheConfig) {
        self.adaptive = Some(AdaptiveState {
            sketch: FreqSketch::new(cfg.sketch),
            epoch_ticks: 0,
            reject_streak: 0,
            epoch_base: self.stats,
            cfg,
        });
    }

    /// The cache plane's counters: fills, evictions, and the adaptive
    /// plane's admission and retune decisions. `hot_key_sheds` stays zero
    /// here; the core counts it.
    pub fn cache_stats(&self) -> CacheCosts {
        self.cache_stats
    }

    /// The dispatcher (for inspecting the configured ratio).
    pub fn dispatcher(&self) -> &LoadDispatcher {
        &self.dispatcher
    }

    /// NIC DRAM cache hit rate since boot. Unlike the raw device
    /// counters this includes admission-rejected misses, which never
    /// reach the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Hit rate since the last [`roll_hit_window`] — the "recent" signal
    /// the retune loop and pressure gauges want, as opposed to the
    /// since-boot [`cache_hit_rate`].
    ///
    /// [`roll_hit_window`]: DispatchedMemory::roll_hit_window
    /// [`cache_hit_rate`]: DispatchedMemory::cache_hit_rate
    pub fn windowed_hit_rate(&self) -> f64 {
        self.stats.since(&self.window_base).hit_rate()
    }

    /// Starts a fresh hit-rate window (snapshots the current stats).
    pub fn roll_hit_window(&mut self) {
        self.window_base = self.stats;
    }

    /// The engine's fault plane (injection counters live here).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// ECC recovery and degradation statistics.
    pub fn ecc(&self) -> &EccStats {
        &self.ecc
    }

    /// Overrides the uncorrectable-error count that trips the cache-bypass
    /// breaker (default [`DEFAULT_BYPASS_THRESHOLD`]).
    pub fn set_bypass_threshold(&mut self, threshold: u64) {
        self.bypass_threshold = threshold.max(1);
    }

    /// Whether host line `line` is resident in the NIC DRAM — the
    /// metadata a test needs to look for a stale resident line, since
    /// the bytes of one can no longer differ.
    pub fn is_resident(&self, line: u64) -> bool {
        self.cache.locate(line).slot.is_some()
    }

    /// Charges one dirty line's write-back to host memory over PCIe.
    fn write_back(stats: &mut AccessStats) {
        stats.dma_writes += 1;
        stats.dma_write_bytes += LINE;
    }

    /// (Re)builds `slot` as `place`'s line: whatever valid line the slot
    /// held is displaced — written back first if dirty — and the line is
    /// fetched over PCIe into the slot. Returns the displaced line, if any.
    fn fetch_into(&mut self, slot: usize, place: &Place) -> Option<Victim> {
        let victim = self.cache.install(slot, place);
        if victim.is_some_and(|v| v.dirty) {
            Self::write_back(&mut self.stats);
        }
        self.stats.dma_reads += 1;
        self.stats.dma_read_bytes += LINE;
        // The fill itself is a DRAM write.
        self.stats.dram_writes += 1;
        victim
    }

    /// Rebuilds a cache line hit by an uncorrectable DRAM error: a dirty
    /// line is salvaged to host first (it is the only copy), then the line
    /// is refetched so the damaged bits are overwritten. Data survives;
    /// only extra traffic and counters show the event happened.
    #[cold]
    fn recover_uncorrectable(&mut self, slot: usize, place: &Place) {
        self.ecc.uncorrectable += 1;
        let salvaged = self.fetch_into(slot, place);
        if salvaged.is_some_and(|v| v.dirty) {
            self.ecc.rescue_writebacks += 1;
        }
        self.ecc.refetches += 1;
        if self.ecc.uncorrectable >= self.bypass_threshold {
            self.trip_bypass();
        }
    }

    /// Retires the NIC DRAM cache after persistent uncorrectable errors:
    /// all dirty lines are flushed to host, then every access goes over
    /// PCIe. The store keeps serving — degraded, not dead.
    #[cold]
    fn trip_bypass(&mut self) {
        self.ecc.bypassed = true;
        let stats = &mut self.stats;
        self.cache.retire_if(|_| true, |_| Self::write_back(stats));
    }

    /// Feeds the adaptive plane one line access: sketch observation,
    /// heavy-hitter rollup, and the epoch tick. Returns whether that tick
    /// makes a [`retune`](Self::retune) due.
    fn observe_line(&mut self, line: u64) -> bool {
        let Some(ad) = &mut self.adaptive else {
            return false;
        };
        if ad.sketch.observe(line) {
            self.cache_stats.sketch_samples += 1;
        }
        ad.epoch_ticks += 1;
        ad.epoch_ticks >= ad.cfg.epoch_accesses
    }

    /// One retune step: re-solve the balance equation with the epoch's
    /// measured hit rate, move the dispatch threshold at most `MAX_STEP`
    /// toward the optimum (with hysteresis), and retire the lines whose
    /// cacheability changed — dirty ones written back, nothing flushed
    /// wholesale.
    #[cold]
    fn retune(&mut self) {
        let ad = self
            .adaptive
            .as_mut()
            .expect("retune without adaptive state");
        ad.epoch_ticks = 0;
        let win = self.stats.since(&ad.epoch_base);
        ad.epoch_base = self.stats;
        if win.cache_hits + win.cache_misses == 0 {
            return; // nothing cacheable this epoch: no signal
        }
        let target =
            optimal_ratio_measured(win.hit_rate(), NIC_DRAM_GBYTES_PER_SEC, ad.cfg.tput_pcie)
                .clamp(MIN_RATIO, MAX_RATIO);
        let current = self.dispatcher.ratio();
        if (target - current).abs() <= DEADBAND {
            return; // hysteresis: hold the threshold against noise
        }
        let next = current + (target - current).clamp(-MAX_STEP, MAX_STEP);
        let old_t = self.dispatcher.threshold();
        self.dispatcher.set_ratio(next);
        let new_t = self.dispatcher.threshold();
        let (lo, hi) = (old_t.min(new_t), old_t.max(new_t));
        // Retire every resident line in the migration band. Demotions
        // (threshold down) may be dirty and write back; promotions
        // (threshold up) retire stale copies left from before an earlier
        // demotion — those are clean by invariant.
        let stats = &mut self.stats;
        let (clean, dirty) = self.cache.retire_if(
            |line| {
                let h = hash_line(line);
                h > lo && h <= hi
            },
            |_| Self::write_back(stats),
        );
        self.cache_stats.retune_steps += 1;
        self.cache_stats.demoted_lines += clean + dirty;
    }

    /// TinyLFU admission for a conflict miss on `line`: picks the way and
    /// decides whether the incomer earns it. `None` means rejected —
    /// serve over PCIe, displace nothing. Invalid ways always admit; a
    /// coldest resident with zero estimated frequency is surrendered
    /// (that is how a cold cache warms); otherwise the incomer must
    /// strictly out-count the coldest resident.
    fn admit(&mut self, line: u64, place: &Place) -> Option<usize> {
        let Some(ad) = self.adaptive.as_mut() else {
            return Some(self.cache.rr_victim(place));
        };
        let mut coldest: Option<(usize, u32)> = None;
        for (way, occupant) in self.cache.occupants(place).iter().enumerate() {
            match occupant {
                None => return Some(way), // free way: no displacement
                Some(resident) => {
                    let est = ad.sketch.estimate(*resident);
                    if coldest.is_none_or(|(_, c)| est < c) {
                        coldest = Some((way, est));
                    }
                }
            }
        }
        let (way, cold_est) = coldest.expect("set has at least one way");
        if cold_est == 0 || ad.sketch.estimate(line) > cold_est {
            ad.reject_streak = 0;
            Some(way)
        } else {
            ad.reject_streak += 1;
            if ad.cfg.admit_every > 0 && ad.reject_streak >= ad.cfg.admit_every {
                // Starvation hatch: admit this one anyway (see
                // `AdaptiveCacheConfig::admit_every`).
                ad.reject_streak = 0;
                Some(way)
            } else {
                self.cache_stats.rejected_fills += 1;
                None
            }
        }
    }

    /// Charges a rejected or degraded line share of `len` bytes to PCIe
    /// as one DMA request of its own.
    fn pcie_direct(&mut self, len: usize, pass: &mut Pass) {
        debug_assert_eq!(pass.run, 0, "a cacheable line closes the run before it");
        pass.run = len as u64;
        self.settle(pass);
    }

    /// A miss on cacheable `line`: picks and fills a slot, unless
    /// admission rejects the line (`None`: serve it over PCIe, pollute
    /// nothing).
    fn fill(&mut self, line: u64, place: &Place, faulty: bool) -> Option<usize> {
        self.stats.cache_misses += 1;
        if faulty && self.faults.host_stall() {
            self.ecc.host_stalls += 1;
        }
        let slot = place.way(self.admit(line, place)?);
        if let Some(victim) = self.fetch_into(slot, place) {
            self.cache_stats.conflict_fills += 1;
            self.cache_stats.evict_dirty += u64::from(victim.dirty);
            self.cache_stats.evict_clean += u64::from(!victim.dirty);
        }
        self.cache_stats.admitted_fills += 1;
        Some(slot)
    }

    /// Counts the `len` bytes of an access that fall in cacheable `line`
    /// against the NIC DRAM: the line is resolved once, filled on an
    /// admitted miss, and marked dirty by a write.
    #[inline]
    fn cache_line(&mut self, line: u64, len: usize, pass: &mut Pass) {
        let place = self.cache.locate(line);
        let slot = match place.slot {
            Some(slot) => {
                pass.hits += 1;
                slot
            }
            None => match self.fill(line, &place, pass.faulty) {
                Some(slot) => slot,
                None => return self.pcie_direct(len, pass),
            },
        };
        // The DRAM access may trip an ECC event on the stored line.
        if pass.faulty {
            match self.faults.dram_fault() {
                DramFault::None => {}
                DramFault::Corrected => self.ecc.corrected += 1,
                DramFault::Uncorrectable => self.recover_uncorrectable(slot, &place),
            }
            if self.ecc.bypassed {
                // The breaker tripped on this very access. Recovery left
                // the line clean (host copy authoritative), so charge the
                // access to PCIe like every line from now on.
                (pass.cached, pass.observing) = (false, false);
                return self.pcie_direct(len, pass);
            }
        }
        pass.dram_ops += 1;
        if pass.kind == AccessKind::Write {
            self.cache.mark_dirty(slot);
        }
    }

    /// Counts one line's share of an access: `len` bytes of `line`. Feed
    /// the adaptive plane first — it may retune, which moves the dispatch
    /// threshold and retires lines — and only then decide, once, which
    /// device serves the line. Cacheable lines go through the cache
    /// individually; non-cacheable runs coalesce into DMA requests of up
    /// to [`MAX_DMA_PAYLOAD`].
    #[inline]
    fn count_line(&mut self, line: u64, len: usize, pass: &mut Pass) {
        if pass.observing && self.observe_line(line) {
            // The retune reads the epoch's hit rate.
            self.stats.cache_hits += std::mem::take(&mut pass.hits);
            self.retune();
        }
        if pass.cached && self.dispatcher.is_cacheable(line) {
            if pass.run != 0 {
                self.settle(pass);
            }
            self.cache_line(line, len, pass);
        } else {
            // Straight to host over PCIe.
            if pass.faulty && self.faults.host_stall() {
                self.ecc.host_stalls += 1;
            }
            pass.run += len as u64;
        }
    }

    /// Counts an access of `len` bytes at `addr`, line by line, on the
    /// device that serves each line. The caller then moves the bytes
    /// with one [`HostMemory`] read or write: host memory holds them all.
    #[inline]
    fn count(&mut self, addr: u64, len: usize, kind: AccessKind) {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.host.capacity()),
            "access out of bounds"
        );
        // What no line of one access can change is read once; the breaker
        // is read again only where a fault draw could have tripped it.
        let cached = !self.ecc.bypassed;
        let mut pass = Pass {
            kind,
            faulty: self.faults.enabled(),
            observing: cached && self.adaptive.is_some(),
            cached,
            run: 0,
            hits: 0,
            dram_ops: 0,
        };
        if len != 0 && (addr % LINE) as usize + len <= LINE as usize {
            // Inside one line (every bucket, every inline KV): no split.
            self.count_line(addr / LINE, len, &mut pass);
        } else {
            let mut off = 0usize;
            while off < len {
                let a = addr + off as u64;
                let n = (LINE as usize - (a % LINE) as usize).min(len - off);
                self.count_line(a / LINE, n, &mut pass);
                off += n;
            }
        }
        self.settle(&mut pass);
    }

    /// Folds an access's tallies into the statistics: the completed run of
    /// non-cacheable bytes as DMA requests, the cache hits and the DRAM
    /// line operations.
    fn settle(&mut self, pass: &mut Pass) {
        let requests = pass.run.div_ceil(MAX_DMA_PAYLOAD);
        let s = &mut self.stats;
        s.cache_hits += pass.hits;
        match pass.kind {
            AccessKind::Read => {
                s.dma_reads += requests;
                s.dma_read_bytes += pass.run;
                s.dram_reads += pass.dram_ops;
            }
            AccessKind::Write => {
                s.dma_writes += requests;
                s.dma_write_bytes += pass.run;
                s.dram_writes += pass.dram_ops;
            }
        }
        (pass.run, pass.hits, pass.dram_ops) = (0, 0, 0);
    }
}

/// What [`DispatchedMemory::count`] reads once and tallies until it settles.
struct Pass {
    kind: AccessKind,
    /// Some fault channel can fire (a zero-rate plane draws nothing).
    faulty: bool,
    /// The breaker has not retired the cache — and the adaptive plane is on.
    cached: bool,
    observing: bool,
    /// Bytes of the current non-cacheable run, cache hits, DRAM line operations.
    run: u64,
    hits: u64,
    dram_ops: u64,
}

impl MemoryEngine for DispatchedMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.count(addr, buf.len(), AccessKind::Read);
        self.host.read(addr, buf);
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        self.count(addr, data.len(), AccessKind::Write);
        self.host.write(addr, data);
    }

    fn capacity(&self) -> u64 {
        self.host.capacity()
    }

    #[inline]
    fn prefetch(&self, addr: u64) {
        self.host.prefetch(addr);
    }

    #[inline]
    fn peek_line(&self, addr: u64) -> Option<&[u8; LINE as usize]> {
        self.host.line(addr)
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    #[inline]
    fn traffic(&self) -> Traffic {
        self.stats.traffic()
    }

    fn reset_stats(&mut self) {
        // The hit-rate snapshots and the cache plane's counters count from
        // the same origin as the stats: both feed one ledger section, where
        // fills are a subset of misses. The ECC counters and the bypass
        // breaker are recovery state, not statistics, and stay.
        self.stats = AccessStats::default();
        self.cache_stats = CacheCosts::default();
        self.window_base = self.stats;
        if let Some(ad) = &mut self.adaptive {
            ad.epoch_base = self.stats;
        }
    }
}

/// Folds an [`AccessStats`] into the ledger's PCIe and DRAM sections
/// (traffic and cache behavior only — fault events belong to the fault
/// plane that injected them).
fn emit_access_stats(s: &AccessStats, out: &mut OpLedger) {
    out.pcie.dma_reads += s.dma_reads;
    out.pcie.dma_writes += s.dma_writes;
    out.pcie.read_bytes += s.dma_read_bytes;
    out.pcie.write_bytes += s.dma_write_bytes;
    out.dram.reads += s.dram_reads;
    out.dram.writes += s.dram_writes;
    out.dram.cache_hits += s.cache_hits;
    out.dram.cache_misses += s.cache_misses;
}

impl CostSource for FlatMemory {
    fn emit_costs(&self, out: &mut OpLedger) {
        emit_access_stats(&self.stats, out);
    }
}

impl CostSource for DispatchedMemory {
    fn emit_costs(&self, out: &mut OpLedger) {
        emit_access_stats(&self.stats, out);
        out.cache.merge(&self.cache_stats);
        // ECC recovery bookkeeping that is disjoint from the fault
        // plane's own counts: what recovery *did*, not what was injected.
        out.dram.refetches += self.ecc.refetches;
        out.dram.rescue_writebacks += self.ecc.rescue_writebacks;
        self.faults.emit_costs(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::Bandwidth;

    fn dispatched(ratio: f64) -> DispatchedMemory {
        DispatchedMemory::new(
            1 << 20,
            NicDramConfig {
                capacity: 1 << 16,
                bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
            },
            DispatchConfig::new(ratio),
        )
    }

    #[test]
    fn flat_memory_counts_requests() {
        let mut m = FlatMemory::new(1 << 20);
        let mut buf = [0u8; 64];
        m.read(0, &mut buf);
        m.read(0, &mut buf);
        m.write(0, &buf);
        let s = m.stats();
        assert_eq!(s.dma_reads, 2);
        assert_eq!(s.dma_writes, 1);
        assert_eq!(s.accesses(), 3);
        // A 254B KV needs one request; a 300B one needs two.
        let mut big = [0u8; 254];
        m.read(0, &mut big);
        assert_eq!(m.stats().dma_reads, 3);
        let mut bigger = [0u8; 300];
        m.read(0, &mut bigger);
        assert_eq!(m.stats().dma_reads, 5);
    }

    #[test]
    fn flat_memory_reset_keeps_contents() {
        let mut m = FlatMemory::new(1 << 20);
        m.write(10, b"abc");
        m.reset_stats();
        assert_eq!(m.stats(), AccessStats::default());
        let mut buf = [0u8; 3];
        m.read(10, &mut buf);
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn dispatched_roundtrip_all_ratios() {
        for ratio in [0.0, 0.3, 1.0] {
            let mut m = dispatched(ratio);
            for i in 0..64u64 {
                let addr = i * 997 % ((1 << 20) - 16);
                m.write_u64(addr, i * 31 + 7);
            }
            for i in 0..64u64 {
                let addr = i * 997 % ((1 << 20) - 16);
                assert_eq!(m.read_u64(addr), i * 31 + 7, "ratio {ratio} addr {addr}");
            }
        }
    }

    #[test]
    fn dispatched_matches_flat_reference() {
        // Differential test: DispatchedMemory must behave exactly like a
        // flat memory for any access pattern.
        let mut d = dispatched(0.5);
        let mut f = FlatMemory::new(1 << 20);
        let mut rng = kvd_sim::DetRng::seed(99);
        for _ in 0..2000 {
            let addr = rng.u64_below((1 << 20) - 300);
            let len = 1 + rng.usize_below(300);
            if rng.chance(0.5) {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                d.write(addr, &data);
                f.write(addr, &data);
            } else {
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                d.read(addr, &mut a);
                f.read(addr, &mut b);
                assert_eq!(a, b, "divergence at {addr:#x}+{len}");
            }
        }
    }

    #[test]
    fn pcie_only_never_touches_dram() {
        let mut m = dispatched(0.0);
        let mut buf = [0u8; 64];
        for i in 0..100 {
            m.read(i * 64, &mut buf);
        }
        let s = m.stats();
        assert_eq!(s.dram_reads + s.dram_writes, 0);
        assert_eq!(s.dma_reads, 100);
    }

    #[test]
    fn fully_cacheable_repeated_access_hits() {
        let mut m = dispatched(1.0);
        let mut buf = [0u8; 64];
        m.read(4096, &mut buf); // may miss
        m.reset_stats();
        for _ in 0..10 {
            m.read(4096, &mut buf);
        }
        let s = m.stats();
        assert_eq!(s.cache_hits, 10);
        assert_eq!(s.dma_reads, 0, "hits must not touch PCIe");
        assert_eq!(s.dram_reads, 10);
    }

    #[test]
    fn cacheable_write_then_evict_then_read_back() {
        // Force an eviction by dirtying a line and then filling its whole
        // 4-way set with conflicting lines; verify the dirty data
        // survived via host write-back.
        let mut m = dispatched(1.0);
        let sets = (1u64 << 16) / LINE / crate::nicdram::WAYS as u64; // 256
        let line_a = 3u64;
        m.write(line_a * LINE, &[0xAB; 64]);
        for tag in 4..8u64 {
            m.write((tag * sets + 3) * LINE, &[0xCD; 64]);
        }
        let mut buf = [0u8; 64];
        m.read(line_a * LINE, &mut buf); // must refetch from host
        assert_eq!(buf, [0xAB; 64]);
        assert!(m.stats().dma_writes >= 1, "dirty eviction must write back");
        let s = m.cache_stats();
        assert!(s.evict_dirty >= 1, "satellite: dirty evictions visible");
        assert!(s.conflict_fills >= s.evict_clean + s.evict_dirty);
    }

    fn adaptive(ratio: f64, seed: u64, epoch: u64) -> DispatchedMemory {
        let mut m = dispatched(ratio);
        let mut cfg = AdaptiveCacheConfig::data_path(seed);
        cfg.epoch_accesses = epoch;
        m.set_adaptive(cfg);
        m
    }

    #[test]
    fn adaptive_engine_matches_flat_reference() {
        // The adaptive plane changes *placement and cost*, never bytes:
        // differential against flat memory through admission rejections,
        // retune sweeps, and threshold migrations in both directions.
        let mut d = adaptive(0.5, 3, 512);
        let mut f = FlatMemory::new(1 << 20);
        let mut rng = kvd_sim::DetRng::seed(123);
        for _ in 0..4000 {
            let addr = rng.u64_below((1 << 20) - 300);
            let len = 1 + rng.usize_below(300);
            if rng.chance(0.5) {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                d.write(addr, &data);
                f.write(addr, &data);
            } else {
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                d.read(addr, &mut a);
                f.read(addr, &mut b);
                assert_eq!(a, b, "divergence at {addr:#x}+{len}");
            }
        }
        let cs = d.cache_stats();
        assert!(cs.sketch_samples > 0, "sketch must sample");
        assert!(cs.retune_steps > 0, "retune must fire at this epoch size");
    }

    #[test]
    fn adaptive_plane_is_seed_deterministic() {
        let run = || {
            let mut m = adaptive(0.5, 7, 256);
            let mut rng = kvd_sim::DetRng::seed(5);
            let mut buf = [0u8; 64];
            for _ in 0..3000 {
                let addr = rng.u64_below((1 << 20) - 64);
                if rng.chance(0.3) {
                    m.write(addr, &buf);
                } else {
                    m.read(addr, &mut buf);
                }
            }
            (m.stats(), m.cache_stats(), m.dispatcher().ratio().to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tinylfu_admission_shields_hot_lines_from_scans() {
        let mut m = dispatched(1.0);
        let mut cfg = AdaptiveCacheConfig::data_path(1);
        cfg.sketch.sample_period = 1; // count everything: deterministic estimates
        cfg.admit_every = 0; // pure TinyLFU: the hatch has its own test below
        m.set_adaptive(cfg);
        let sets = (1u64 << 16) / LINE / crate::nicdram::WAYS as u64;
        let hot: Vec<u64> = (4..8).map(|t| t * sets).collect(); // one full set
        let mut buf = [0u8; 64];
        for _ in 0..20 {
            for &l in &hot {
                m.read(l * LINE, &mut buf);
            }
        }
        // A one-hit-wonder scan through the same set (tags 8..58 all
        // exist at ratio 16 with 4 ways: 64 tags).
        for t in 8..58u64 {
            m.read(t * sets * LINE, &mut buf);
        }
        assert!(
            m.cache_stats().rejected_fills >= 40,
            "scan lines must be rejected: {:?}",
            m.cache_stats()
        );
        // The hot set survived the scan: re-reads are all hits.
        let before = m.stats().cache_hits;
        for &l in &hot {
            m.read(l * LINE, &mut buf);
        }
        assert_eq!(m.stats().cache_hits, before + hot.len() as u64);
    }

    #[test]
    fn starvation_hatch_admits_every_nth_consecutive_rejection() {
        let mut m = dispatched(1.0);
        let mut cfg = AdaptiveCacheConfig::data_path(1);
        cfg.sketch.sample_period = 1;
        cfg.admit_every = 8;
        m.set_adaptive(cfg);
        let sets = (1u64 << 16) / LINE / crate::nicdram::WAYS as u64;
        let mut buf = [0u8; 64];
        // Pin a hot set, then stream one-hit wonders through it forever:
        // without the hatch nothing new is ever admitted, with it every
        // 8th consecutive rejection lets one through.
        for _ in 0..20 {
            for t in 4..8u64 {
                m.read(t * sets * LINE, &mut buf);
            }
        }
        for t in 8..40u64 {
            m.read(t * sets * LINE, &mut buf);
        }
        let s = m.cache_stats();
        // 32 scan fills: streaks of 7 rejections punctuated by a hatch
        // admission (the first admission resets the victim estimate, so
        // later scan lines evict the previous scan line, not a hot one).
        assert!(s.rejected_fills >= 7, "scan must mostly be rejected: {s:?}");
        let displaced = s.conflict_fills;
        assert!(
            displaced > 0,
            "the hatch must admit at least one scan line: {s:?}"
        );
    }

    #[test]
    fn retune_climbs_toward_measured_optimum() {
        // A perfectly cache-friendly workload (hit rate -> 1) rebalances
        // toward l* = d/(p + h*d) = 12.8/26.0 ~ 0.49 from below, in
        // MAX_STEP increments.
        let mut m = adaptive(0.2, 2, 256);
        let cacheable: Vec<u64> = (0..4096u64)
            .filter(|&l| m.dispatcher().is_cacheable(l))
            .take(32)
            .collect();
        let mut buf = [0u8; 64];
        for _ in 0..200 {
            for &l in &cacheable {
                m.read(l * LINE, &mut buf);
            }
        }
        let ratio = m.dispatcher().ratio();
        assert!(
            (0.42..=0.55).contains(&ratio),
            "ratio {ratio} did not converge (steps: {})",
            m.cache_stats().retune_steps
        );
        assert!(m.cache_stats().retune_steps >= 2);
    }

    /// Warms an adaptive engine to one tick short of a retune that will
    /// move the ratio from `ratio` by one `MAX_STEP`, then makes the
    /// crossing access an 8-byte read of a line inside the migrated band.
    /// Returns the engine, the line and what that one access cost.
    fn read_across_a_retune(ratio: f64) -> (DispatchedMemory, u64, AccessStats) {
        const EPOCH: u64 = 64;
        let mut m = adaptive(ratio, 9, EPOCH);
        // An all-hit epoch solves to l* ~ 0.5: up from 0.2, down from 0.9.
        let next = ratio + if ratio < 0.5 { 0.05 } else { -0.05 };
        let (old_t, new_t) = (
            m.dispatcher().threshold(),
            LoadDispatcher::new(DispatchConfig::new(next)).threshold(),
        );
        let in_band =
            |l: &u64| hash_line(*l) > old_t.min(new_t) && hash_line(*l) <= old_t.max(new_t);
        let stays_cached = |l: &u64| hash_line(*l) <= old_t.min(new_t);
        let warm: Vec<u64> = (0..4096u64).filter(stays_cached).take(8).collect();
        let crossing = (0..4096u64).find(in_band).expect("a line in the band");
        let mut buf = [0u8; 8];
        for i in 0..EPOCH - 1 {
            m.read(warm[i as usize % warm.len()] * LINE, &mut buf);
        }
        assert_eq!(m.cache_stats().retune_steps, 0);
        let before = m.stats();
        m.read(crossing * LINE, &mut buf);
        assert_eq!(
            m.cache_stats().retune_steps,
            1,
            "the crossing access retunes"
        );
        assert!((m.dispatcher().ratio() - next).abs() < 1e-9);
        let cost = m.stats().since(&before);
        (m, crossing, cost)
    }

    #[test]
    fn retune_on_the_crossing_access_promotes_its_line_and_charges_the_cache_once() {
        let (m, line, cost) = read_across_a_retune(0.2);
        assert!(m.dispatcher().is_cacheable(line), "promoted by this access");
        // Served by the cache: one miss, one 64 B fill over PCIe, one DRAM
        // read — and no second PCIe request for the 8 bytes themselves.
        assert_eq!((cost.cache_misses, cost.dram_reads), (1, 1));
        assert_eq!((cost.dma_reads, cost.dma_read_bytes), (1, LINE));
    }

    #[test]
    fn retune_on_the_crossing_access_demotes_its_line_and_charges_pcie_once() {
        let (m, line, cost) = read_across_a_retune(0.9);
        assert!(!m.dispatcher().is_cacheable(line), "demoted by this access");
        // Served from host: one 8-byte DMA read, nothing on the DRAM.
        assert_eq!((cost.dma_reads, cost.dma_read_bytes), (1, 8));
        assert_eq!(cost.dram_reads + cost.cache_hits + cost.cache_misses, 0);
    }

    #[test]
    fn reset_stats_restarts_the_hit_rate_windows_too() {
        // A steady-state measurement resets the engine after preload. The
        // window and epoch snapshots must restart with the counters, or
        // the next delta runs `since` below zero.
        let mut m = adaptive(0.5, 4, 256);
        let mut rng = kvd_sim::DetRng::seed(8);
        let mut buf = [0u8; 64];
        let mut drive = |m: &mut DispatchedMemory, n: u64| {
            for _ in 0..n {
                m.read(rng.u64_below(4096) * LINE, &mut buf);
            }
        };
        drive(&mut m, 300); // past the first retune, mid-epoch
        m.roll_hit_window();
        drive(&mut m, 50);
        m.reset_stats();
        assert_eq!(
            m.windowed_hit_rate(),
            0.0,
            "an empty window, not a wrapped one"
        );
        drive(&mut m, 300); // crosses the next epoch boundary
        assert!((0.0..=1.0).contains(&m.windowed_hit_rate()));
        assert!(m.stats().cache_hits + m.stats().cache_misses <= 300);
    }

    #[test]
    fn reset_stats_restarts_the_cache_plane_counters_with_the_stats() {
        // Preload, reset, measure: the fills and misses of the measured
        // phase go into one ledger section, where every fill is a miss.
        let mut m = dispatched(1.0);
        let mut buf = [0u8; 64];
        // The cache boots holding the first 1024 lines; start past them.
        for i in 1024..1536u64 {
            m.read(i * LINE, &mut buf); // preload: 512 misses, 512 fills
        }
        assert_eq!(m.cache_stats().admitted_fills, 512);
        m.reset_stats();
        assert_eq!(m.cache_stats(), CacheCosts::default());
        for i in 1024..1536u64 {
            m.read(i * LINE, &mut buf); // resident: all hits
        }
        m.read(2000 * LINE, &mut buf); // one miss, one fill
        let mut ledger = OpLedger::default();
        m.emit_costs(&mut ledger);
        assert_eq!(
            (ledger.dram.cache_misses, ledger.cache.admitted_fills),
            (1, 1)
        );
    }

    #[test]
    fn reset_stats_leaves_recovery_state_alone() {
        let mut m = DispatchedMemory::with_faults(
            1 << 20,
            NicDramConfig {
                capacity: 1 << 16,
                bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
            },
            DispatchConfig::new(1.0),
            FaultPlane::new(
                kvd_sim::FaultRates {
                    dram_bit_error: 1.0,
                    dram_uncorrectable: 1.0,
                    ..kvd_sim::FaultRates::ZERO
                },
                3,
            ),
        );
        m.set_bypass_threshold(2);
        let mut buf = [0u8; 64];
        m.read(0, &mut buf);
        m.read(LINE, &mut buf);
        assert!(
            m.ecc().bypassed,
            "two uncorrectable errors trip the breaker"
        );
        let ecc = *m.ecc();
        m.reset_stats();
        assert_eq!(
            *m.ecc(),
            ecc,
            "the breaker and its counts are not statistics"
        );
    }

    #[test]
    fn windowed_hit_rate_is_recent_not_lifetime() {
        let mut m = dispatched(1.0);
        let mut buf = [0u8; 64];
        // Cold pass over non-resident lines: all misses.
        for i in 0..64u64 {
            m.read((1024 + i) * LINE, &mut buf);
        }
        assert_eq!(m.windowed_hit_rate(), 0.0);
        m.roll_hit_window();
        // Hot pass: all hits — the window sees only these.
        for i in 0..64u64 {
            m.read((1024 + i) * LINE, &mut buf);
        }
        assert_eq!(m.windowed_hit_rate(), 1.0);
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-9, "lifetime is mixed");
    }

    #[test]
    fn noncacheable_run_coalesces_dma() {
        let mut m = dispatched(0.0);
        let mut buf = vec![0u8; 256];
        m.read(0, &mut buf);
        // 256 contiguous non-cacheable bytes = 1 DMA request.
        assert_eq!(m.stats().dma_reads, 1);
        let mut buf = vec![0u8; 512];
        m.read(0, &mut buf);
        assert_eq!(m.stats().dma_reads, 3);
    }

    fn dispatched_faulty(ratio: f64, rates: kvd_sim::FaultRates, seed: u64) -> DispatchedMemory {
        DispatchedMemory::with_faults(
            1 << 20,
            NicDramConfig {
                capacity: 1 << 16,
                bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
            },
            DispatchConfig::new(ratio),
            FaultPlane::new(rates, seed),
        )
    }

    #[test]
    fn disabled_fault_plane_is_bit_identical_to_plain_engine() {
        let mut plain = dispatched(0.5);
        let mut faulty = dispatched_faulty(0.5, kvd_sim::FaultRates::ZERO, 7);
        let mut rng = kvd_sim::DetRng::seed(4);
        for _ in 0..500 {
            let addr = rng.u64_below((1 << 20) - 64);
            if rng.chance(0.5) {
                let mut data = [0u8; 48];
                rng.fill_bytes(&mut data);
                plain.write(addr, &data);
                faulty.write(addr, &data);
            } else {
                let mut a = [0u8; 48];
                let mut b = [0u8; 48];
                plain.read(addr, &mut a);
                faulty.read(addr, &mut b);
                assert_eq!(a, b);
            }
        }
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(*faulty.ecc(), EccStats::default());
        assert_eq!(faulty.faults().ledger().total_faults(), 0);
    }

    #[test]
    fn corrected_ecc_errors_only_count() {
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 1.0,
            dram_uncorrectable: 0.0, // every bit error is correctable
            ..kvd_sim::FaultRates::ZERO
        };
        let mut m = dispatched_faulty(1.0, rates, 7);
        let mut clean = dispatched(1.0);
        let mut buf = [0u8; 64];
        for i in 0..50u64 {
            m.write(i * 64, &[i as u8; 64]);
            clean.write(i * 64, &[i as u8; 64]);
        }
        for i in 0..50u64 {
            m.read(i * 64, &mut buf);
            assert_eq!(buf, [i as u8; 64], "ECC-corrected data must be intact");
        }
        assert!(m.ecc().corrected > 0);
        assert_eq!(m.ecc().uncorrectable, 0);
        assert_eq!(m.ecc().refetches, 0);
        // Corrected errors are free: no extra traffic vs the clean engine.
        for i in 0..50u64 {
            clean.read(i * 64, &mut buf);
        }
        assert_eq!(m.stats(), clean.stats());
    }

    #[test]
    fn uncorrectable_error_on_clean_line_refetches() {
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 1.0,
            dram_uncorrectable: 1.0, // every bit error is fatal to the line
            ..kvd_sim::FaultRates::ZERO
        };
        let mut m = dispatched_faulty(1.0, rates, 7);
        m.set_bypass_threshold(1_000_000); // keep the breaker out of the way
        let mut buf = [0u8; 64];
        m.read(4096, &mut buf); // clean line: rebuild is refetch-only
        assert_eq!(m.ecc().uncorrectable, 1);
        assert_eq!(m.ecc().refetches, 1);
        assert_eq!(m.ecc().rescue_writebacks, 0);
        assert!(m.stats().dma_reads >= 1, "refetch goes over PCIe");
    }

    #[test]
    fn uncorrectable_error_on_dirty_line_salvages_first() {
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 1.0,
            dram_uncorrectable: 1.0,
            ..kvd_sim::FaultRates::ZERO
        };
        let mut m = dispatched_faulty(1.0, rates, 7);
        m.set_bypass_threshold(1_000_000);
        // The write itself draws a fault on a clean line (refetch only),
        // then dirties it; the read's fault hits the now-dirty line.
        m.write(4096, &[0xEE; 64]);
        let rescued_before = m.ecc().rescue_writebacks;
        let mut buf = [0u8; 64];
        m.read(4096, &mut buf);
        assert_eq!(buf, [0xEE; 64], "dirty data must survive the rebuild");
        assert!(m.ecc().rescue_writebacks > rescued_before);
        // After recovery the authoritative copy reached host memory, so a
        // fresh engine sharing nothing would... (cannot share HostMemory;
        // instead verify the line is clean now: another uncorrectable hit
        // must not rescue again).
        let rescued = m.ecc().rescue_writebacks;
        m.read(4096, &mut buf);
        assert_eq!(buf, [0xEE; 64]);
        assert_eq!(m.ecc().rescue_writebacks, rescued, "line was left clean");
    }

    #[test]
    fn persistent_uncorrectable_errors_trip_cache_bypass() {
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 1.0,
            dram_uncorrectable: 1.0,
            ..kvd_sim::FaultRates::ZERO
        };
        let mut m = dispatched_faulty(1.0, rates, 7);
        m.set_bypass_threshold(4);
        // Dirty a few lines so the breaker has something to flush.
        for i in 0..8u64 {
            m.write(i * 64, &[i as u8 + 1; 64]);
        }
        assert!(m.ecc().bypassed, "breaker should have tripped");
        let dram_ops_at_trip = m.stats().dram_reads + m.stats().dram_writes;
        // Degraded mode: everything over PCIe, and all data still intact.
        let mut buf = [0u8; 64];
        for i in 0..8u64 {
            m.read(i * 64, &mut buf);
            assert_eq!(buf, [i as u8 + 1; 64], "flush must preserve dirty data");
        }
        let s = m.stats();
        assert_eq!(s.dram_reads + s.dram_writes, dram_ops_at_trip);
        assert!(m.ecc().uncorrectable >= 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn access_end_overflow_is_out_of_bounds() {
        // `addr + len` wraps past zero, so a plain add passes the check in
        // a release build. The first such access still dies, in host
        // memory's own range check — after its fill retagged a slot with
        // a truncated tag; the second one *hits* that slot. Hence twice
        // per engine, every shape; three are caught so that the fourth
        // can be the test's own panic.
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let twice = |ratio: f64, write: bool| {
            let mut m = dispatched(ratio);
            let mut wrapped = move || match write {
                true => m.write(u64::MAX - 3, &[0u8; 8]),
                false => m.read(u64::MAX - 3, &mut [0u8; 8]),
            };
            let first = catch_unwind(AssertUnwindSafe(&mut wrapped));
            assert!(first.is_err(), "first access went through");
            wrapped()
        };
        for (ratio, write) in [(0.0, false), (0.0, true), (1.0, true)] {
            let second = catch_unwind(|| twice(ratio, write));
            assert!(second.is_err(), "second access went through");
        }
        twice(1.0, false);
    }

    /// One access: a write of `buf` if `write`, else a read into it.
    fn access(m: &mut DispatchedMemory, addr: u64, buf: &mut [u8], write: bool) {
        match write {
            true => m.write(addr, buf),
            false => m.read(addr, buf),
        }
    }

    /// Drives `split` with one seeded trace of reads and writes of up to
    /// four lines, handing it each access whole; returns everything the
    /// engine exposes plus a digest of the bytes read.
    fn drive_split(
        mut m: DispatchedMemory,
        split: impl Fn(&mut DispatchedMemory, u64, &mut [u8], bool),
    ) -> (AccessStats, CacheCosts, EccStats, OpLedger, u64, u64) {
        let mut rng = kvd_sim::DetRng::seed(0x5EED_11FE);
        let (mut buf, mut digest) = ([0u8; 256], 0u64);
        for _ in 0..6000 {
            // A small working set, so lines are re-read, dirtied, evicted.
            let addr = rng.u64_below(48 << 10) * 5 % ((1 << 20) - 256);
            let len = 1 + rng.usize_below(256);
            if rng.chance(0.4) {
                rng.fill_bytes(&mut buf[..len]);
                split(&mut m, addr, &mut buf[..len], true);
            } else {
                split(&mut m, addr, &mut buf[..len], false);
                for &b in &buf[..len] {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        let ratio = m.dispatcher().ratio().to_bits();
        let faults = m.faults().ledger().clone();
        (m.stats(), m.cache_stats(), *m.ecc(), faults, ratio, digest)
    }

    #[test]
    fn single_line_path_and_line_loop_agree() {
        // The same trace twice: each access issued whole (more than one
        // line: the loop), and split by hand at line boundaries into
        // pieces that each lie inside one line (the straight path).
        let whole = access;
        let by_hand = |m: &mut DispatchedMemory, addr: u64, buf: &mut [u8], write: bool| {
            let mut off = 0usize;
            while off < buf.len() {
                let a = addr + off as u64;
                let n = (LINE as usize - (a % LINE) as usize).min(buf.len() - off);
                access(m, a, &mut buf[off..off + n], write);
                off += n;
            }
        };
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 0.05,
            dram_uncorrectable: 0.2,
            host_stall: 0.1,
            ..kvd_sim::FaultRates::ZERO
        };
        // Everything cacheable, adaptive plane on (sketch, admission and
        // the starvation hatch run; no epoch ends, so no retune moves the
        // ratio): no non-cacheable run exists to coalesce, so every
        // counter agrees.
        let adaptive_all_cacheable = || {
            let mut m = dispatched_faulty(1.0, rates, 21);
            m.set_bypass_threshold(u64::MAX);
            let mut cfg = AdaptiveCacheConfig::data_path(5);
            cfg.epoch_accesses = u64::MAX;
            m.set_adaptive(cfg);
            m
        };
        let (a, b) = (
            drive_split(adaptive_all_cacheable(), whole),
            drive_split(adaptive_all_cacheable(), by_hand),
        );
        assert!(a.1.rejected_fills > 0 && a.2.uncorrectable > 0 && a.2.host_stalls > 0);
        assert_eq!(a, b);
        // Retuning dispatch with the breaker tripping mid-trace: whole
        // accesses coalesce non-cacheable runs into fewer DMA requests
        // than the pieces, and nothing else may differ.
        let retuning = || {
            let mut m = dispatched_faulty(0.5, rates, 22);
            m.set_bypass_threshold(60);
            let mut cfg = AdaptiveCacheConfig::data_path(6);
            cfg.epoch_accesses = 512;
            m.set_adaptive(cfg);
            m
        };
        let (mut a, mut b) = (
            drive_split(retuning(), whole),
            drive_split(retuning(), by_hand),
        );
        assert!(a.1.retune_steps > 0 && a.2.bypassed);
        assert!(a.0.dma_reads < b.0.dma_reads && a.0.dma_writes < b.0.dma_writes);
        (a.0.dma_reads, a.0.dma_writes) = (0, 0);
        (b.0.dma_reads, b.0.dma_writes) = (0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn faulty_engine_still_matches_flat_reference() {
        // The fault plane injects and recovers; bytes must stay exact.
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 0.3,
            dram_uncorrectable: 0.25,
            host_stall: 0.1,
            ..kvd_sim::FaultRates::ZERO
        };
        let mut d = dispatched_faulty(0.5, rates, 11);
        d.set_bypass_threshold(50); // let the breaker trip mid-run
        let mut f = FlatMemory::new(1 << 20);
        let mut rng = kvd_sim::DetRng::seed(99);
        for _ in 0..2000 {
            let addr = rng.u64_below((1 << 20) - 300);
            let len = 1 + rng.usize_below(300);
            if rng.chance(0.5) {
                let mut data = vec![0u8; len];
                rng.fill_bytes(&mut data);
                d.write(addr, &data);
                f.write(addr, &data);
            } else {
                let mut a = vec![0u8; len];
                let mut b = vec![0u8; len];
                d.read(addr, &mut a);
                f.read(addr, &mut b);
                assert_eq!(a, b, "divergence at {addr:#x}+{len}");
            }
        }
        assert!(d.ecc().bypassed, "this rate must have tripped the breaker");
        assert!(d.ecc().corrected > 0);
        assert!(d.ecc().rescue_writebacks > 0);
        assert!(d.ecc().host_stalls > 0);
    }

    #[test]
    fn fault_schedule_is_seed_deterministic() {
        let rates = kvd_sim::FaultRates {
            dram_bit_error: 0.2,
            dram_uncorrectable: 0.25,
            host_stall: 0.05,
            ..kvd_sim::FaultRates::ZERO
        };
        let run = |seed: u64| {
            let mut m = dispatched_faulty(0.5, rates, seed);
            let mut rng = kvd_sim::DetRng::seed(1);
            let mut buf = [0u8; 64];
            for _ in 0..1000 {
                let addr = rng.u64_below((1 << 20) - 64);
                if rng.chance(0.5) {
                    m.write(addr, &buf);
                } else {
                    m.read(addr, &mut buf);
                }
            }
            (m.stats(), *m.ecc(), m.faults().ledger().clone())
        };
        assert_eq!(run(7), run(7));
        let (_, e7, _) = run(7);
        let (_, e8, _) = run(8);
        assert_ne!(e7, e8, "different seeds must differ somewhere");
        assert!(e7.corrected + e7.uncorrectable > 0);
    }

    #[test]
    fn stats_since_subtracts() {
        let mut m = FlatMemory::new(1 << 16);
        let mut buf = [0u8; 8];
        m.read(0, &mut buf);
        let snap = m.stats();
        m.read(0, &mut buf);
        m.write(0, &buf);
        let d = m.stats().since(&snap);
        assert_eq!(d.dma_reads, 1);
        assert_eq!(d.dma_writes, 1);
    }
}
