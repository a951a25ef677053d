//! NIC on-board DRAM modelled as the tags and dirty bits of a 4-way
//! set-associative write-back cache.
//!
//! The paper's programmable NIC carries 4 GiB of DDR3-1600 (12.8 GB/s) —
//! an order of magnitude smaller than the 64 GiB host KVS and slightly
//! slower than the two PCIe Gen3 x8 links combined (§3.3.4). KV-Direct
//! uses it as a cache for the *cacheable portion* of host memory selected
//! by the load dispatcher.
//!
//! Per-line metadata (address tag + dirty + valid flags) is stored in the
//! spare ECC bits: ECC DRAM has 8 ECC bits per 64 data bits; widening the
//! Hamming parity granularity from 64 to 512 data bits frees 8 bits per
//! 64 B line (§4, "DRAM Load Dispatcher"; the paper widens to 256 bits
//! for 6 spare bits and a direct-mapped cache — we spend two more ECC
//! bits to get 4-way associativity with a valid bit, see DESIGN.md §16).
//! The valid bit is what lets the adaptive plane retire lines when the
//! load-dispatch threshold migrates: a demoted line's cached copy would
//! otherwise go stale while host writes bypass the cache, then be served
//! again if the line is later re-promoted.
//!
//! That spare-bit word is all this model keeps. Which lines are resident
//! and dirty decides which device serves an access and which evictions
//! owe a write-back — every count the timing plane charges — while the
//! bytes themselves live once, in [`HostMemory`](crate::HostMemory).

use kvd_sim::Bandwidth;

use crate::LINE;

/// Spare metadata bits available per 64 B line via the ECC trick
/// (parity granularity widened from 64 to 512 data bits).
pub const ECC_SPARE_BITS: u32 = 8;

/// Random-access bandwidth of the paper's NIC DRAM, GB/s (a single
/// DDR3-1600 channel: 12.8 GB/s).
pub const NIC_DRAM_GBYTES_PER_SEC: f64 = 12.8;

/// Associativity of the cache. With [`ECC_SPARE_BITS`] = 8 and
/// `tag bits = log2(host:DRAM ratio) + log2(WAYS)`, a dirty bit and a
/// valid bit, the paper's 16:1 capacity ratio fits exactly
/// (4 + 2 + 1 + 1 = 8).
pub const WAYS: usize = 4;

/// Configuration of the NIC on-board DRAM.
#[derive(Debug, Clone)]
pub struct NicDramConfig {
    /// Capacity in bytes (paper: 4 GiB; scaled down in tests).
    pub capacity: u64,
    /// Random-access bandwidth (paper: [`NIC_DRAM_GBYTES_PER_SEC`]).
    pub bandwidth: Bandwidth,
}

/// A way's [`ECC_SPARE_BITS`] are the byte `tag << 2 | DIRTY | VALID`; a
/// set's four make one `u32`, way 0 lowest: one load, one compare per lookup.
const VALID: u32 = 1;
const DIRTY: u32 = 2;
/// Times a byte value: that value in every way's byte.
const WAYWISE: u32 = 0x0101_0101;

/// Where a host line lives, or would live, in the cache: its set, its
/// tag and — if it is resident — its slot. [`NicDram::locate`] is the one
/// place this is worked out; the memory engine does it once per line
/// access and hands the result to everything that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Place {
    /// Slot index of way 0 of the line's set (slots are way-major
    /// within a set: `set * WAYS + way`).
    base: usize,
    tag: u8,
    /// The slot holding the line, `None` on a miss.
    pub slot: Option<usize>,
}

impl Place {
    /// The slot of `way` in this line's set.
    pub fn way(&self, way: usize) -> usize {
        assert!(way < WAYS, "way out of range");
        self.base + way
    }
}

/// The valid line an [`NicDram::install`] displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The displaced host line.
    pub line: u64,
    /// Whether it was dirty, i.e. its eviction owes a write-back to host
    /// memory.
    pub dirty: bool,
}

/// A 4-way set-associative, write-back, 64 B-line cache over host line
/// addresses.
///
/// Host lines map to sets by `line % sets`; the tag is `line / sets`,
/// which together with the dirty and valid bits must fit the ECC spare
/// bits (`log2(ratio) + log2(WAYS)` tag bits + 2 ≤ 8 ⇒ host:DRAM
/// capacity ratio ≤ 16, exactly the paper's ratio).
///
/// The cache owns the tags, the dirty and valid bits and the round-robin
/// cursors — no bytes and no policy: [`locate`] resolves a line to its
/// [`Place`], [`occupants`] and [`rr_victim`] give a replacement policy
/// its candidates, [`install`] retags a slot and reports what it
/// displaced, and [`mark_dirty`] records a write hit.
///
/// # Examples
///
/// ```
/// use kvd_mem::{NicDram, NicDramConfig, LINE, NIC_DRAM_GBYTES_PER_SEC};
/// use kvd_sim::Bandwidth;
///
/// let cfg = NicDramConfig {
///     capacity: 64 * 1024,
///     bandwidth: Bandwidth::from_gbytes_per_sec(NIC_DRAM_GBYTES_PER_SEC),
/// };
/// let mut cache = NicDram::new(cfg, 16 * 64 * 1024); // 16:1 host ratio
/// assert!(cache.locate(0).slot.is_some()); // tags 0..3 start resident (zeroed)
/// let far = 4 * (64 * 1024 / LINE); // tag 4: not resident
/// let place = cache.locate(far);
/// assert_eq!(place.slot, None);
/// // Fill it over the round-robin victim: clean tag 0, nothing to save.
/// let slot = place.way(cache.rr_victim(&place));
/// let victim = cache.install(slot, &place);
/// assert_eq!(victim.map(|v| (v.line, v.dirty)), Some((0, false)));
/// assert_eq!(cache.locate(far).slot, Some(slot));
/// ```
///
/// [`locate`]: NicDram::locate
/// [`occupants`]: NicDram::occupants
/// [`rr_victim`]: NicDram::rr_victim
/// [`install`]: NicDram::install
/// [`mark_dirty`]: NicDram::mark_dirty
pub struct NicDram {
    sets: u64,
    /// One packed word per set (see [`VALID`]).
    meta: Vec<u32>,
    /// Per-set round-robin replacement cursor.
    rr: Vec<u8>,
}

impl NicDram {
    /// Creates a cache for a host memory of `host_capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the host:DRAM ratio needs more metadata than the ECC
    /// spare bits provide, or if sizes are not multiples of the 64 B line.
    pub fn new(cfg: NicDramConfig, host_capacity: u64) -> Self {
        assert_eq!(cfg.capacity % LINE, 0, "capacity must be line-aligned");
        assert_eq!(
            host_capacity % LINE,
            0,
            "host capacity must be line-aligned"
        );
        let slots = cfg.capacity / LINE;
        assert!(
            slots >= WAYS as u64 && slots.is_multiple_of(WAYS as u64),
            "cache too small for {WAYS}-way sets"
        );
        let sets = slots / WAYS as u64;
        let ratio = host_capacity.div_ceil(cfg.capacity).max(1);
        // Tag bits = log2(ratio · WAYS); together with the dirty and valid
        // bits they must fit the ECC spare bits.
        let tag_bits = (ratio * WAYS as u64).next_power_of_two().trailing_zeros();
        assert!(
            tag_bits + 2 <= ECC_SPARE_BITS,
            "host:DRAM ratio {ratio} needs more metadata than {ECC_SPARE_BITS} ECC spare bits"
        );
        // Initialization stays coherent without any flush: way `w` of
        // every set holds tag `w`, valid and clean — the first `capacity`
        // bytes of a zero-initialized host memory, as if loaded at boot
        // (bytes `w << 2 | VALID`: 0x01, 0x05, 0x09, 0x0D).
        NicDram {
            sets,
            meta: vec![0x0D09_0501; sets as usize],
            rr: vec![0; sets as usize],
        }
    }

    /// Resolves `host_line` to its set, tag and — if resident — slot.
    #[inline]
    pub fn locate(&self, host_line: u64) -> Place {
        // Every `with_memory` size gives a power of two: shift and mask.
        let sets = self.sets;
        let (set, tag) = if sets.is_power_of_two() {
            (host_line & (sets - 1), host_line >> sets.trailing_zeros())
        } else {
            (host_line % sets, host_line / sets)
        };
        debug_assert!(tag < 1 << (ECC_SPARE_BITS - 2), "tag overflow");
        // A valid way holding `tag`, dirty or not, XORs to a zero byte; the
        // borrow trick is exact for the lowest one.
        let want = ((tag as u32) << 2 | VALID) * WAYWISE;
        let x = (self.meta[set as usize] & !(DIRTY * WAYWISE)) ^ want;
        let hit = x.wrapping_sub(WAYWISE) & !x & (0x80 * WAYWISE);
        let (base, tag) = (set as usize * WAYS, tag as u8);
        let slot = (hit != 0).then(|| base + hit.trailing_zeros() as usize / 8);
        Place { base, tag, slot }
    }

    /// The metadata byte of `slot` and the host line it names if valid.
    #[inline]
    fn resident(&self, slot: usize) -> (u32, u64) {
        let meta = self.meta[slot / WAYS] >> (slot % WAYS * 8) & 0xFF;
        (meta, (meta >> 2) as u64 * self.sets + (slot / WAYS) as u64)
    }

    /// The host lines resident in `place`'s set, by way (`None` for
    /// invalid ways) — the candidates a frequency-aware replacement
    /// policy compares against.
    #[inline]
    pub fn occupants(&self, place: &Place) -> [Option<u64>; WAYS] {
        std::array::from_fn(|w| {
            let (meta, line) = self.resident(place.base + w);
            (meta & VALID != 0).then_some(line)
        })
    }

    /// The default replacement choice for `place`'s set: an invalid way
    /// if one exists, else the set's round-robin cursor (advanced).
    #[inline]
    pub fn rr_victim(&mut self, place: &Place) -> usize {
        let invalid = !self.meta[place.base / WAYS] & (VALID * WAYWISE);
        if invalid != 0 {
            return invalid.trailing_zeros() as usize / 8;
        }
        let cursor = &mut self.rr[place.base / WAYS];
        let w = *cursor as usize % WAYS;
        *cursor = ((w + 1) % WAYS) as u8;
        w
    }

    /// Marks resident `slot` dirty: a write hit, whose eviction now owes
    /// a write-back.
    #[inline]
    pub fn mark_dirty(&mut self, slot: usize) {
        debug_assert!(self.resident(slot).0 & VALID != 0, "invalid slot written");
        self.meta[slot / WAYS] |= DIRTY << (slot % WAYS * 8);
    }

    /// Hands `slot` over to `place`'s line, valid and clean, and returns
    /// the valid line it held, if any — a dirty one owes a write-back.
    /// Installing a resident line over itself is how the ECC path
    /// rebuilds it (salvage if dirty, then refetch).
    #[inline]
    pub fn install(&mut self, slot: usize, place: &Place) -> Option<Victim> {
        debug_assert!((place.base..place.base + WAYS).contains(&slot));
        let (old, line) = self.resident(slot);
        let dirty = old & DIRTY != 0;
        let new = (place.tag as u32) << 2 | VALID;
        self.meta[slot / WAYS] ^= (old ^ new) << (slot % WAYS * 8);
        (old & VALID != 0).then_some(Victim { line, dirty })
    }

    /// Invalidates every resident line for which `retire` returns true —
    /// the threshold-migration sweep of the adaptive dispatcher, and with
    /// an always-true predicate the drain of the degradation breaker.
    /// Each dirty line is handed to `writeback` before invalidation.
    /// Returns `(clean, dirty)` lines retired.
    pub fn retire_if(
        &mut self,
        mut retire: impl FnMut(u64) -> bool,
        mut writeback: impl FnMut(u64),
    ) -> (u64, u64) {
        let (mut clean, mut dirty) = (0u64, 0u64);
        for slot in 0..self.meta.len() * WAYS {
            let (m, line) = self.resident(slot);
            if m & VALID == 0 || !retire(line) {
                continue;
            }
            if m & DIRTY != 0 {
                writeback(line);
                dirty += 1;
            } else {
                clean += 1;
            }
            self.meta[slot / WAYS] &= !(0xFF << (slot % WAYS * 8));
        }
        (clean, dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> NicDram {
        // 4 KiB cache (64 slots = 16 sets x 4 ways) over a 64 KiB host:
        // ratio 16, like the paper.
        NicDram::new(
            NicDramConfig {
                capacity: 4096,
                bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
            },
            64 * 1024,
        )
    }

    /// Sets in the test cache (16).
    const SETS: u64 = 4096 / LINE / WAYS as u64;

    fn resident(c: &NicDram, line: u64) -> bool {
        c.locate(line).slot.is_some()
    }

    /// Fills `line` over the round-robin victim, as the engine's miss
    /// path does, dirty for a write-allocate; returns the slot and the
    /// displaced line.
    fn fill(c: &mut NicDram, line: u64, dirty: bool) -> (usize, Option<Victim>) {
        let place = c.locate(line);
        assert_eq!(place.slot, None, "fill of a resident line");
        let slot = place.way(c.rr_victim(&place));
        let victim = c.install(slot, &place);
        if dirty {
            c.mark_dirty(slot);
        }
        (slot, victim)
    }

    #[test]
    fn cold_cache_holds_low_tags_clean() {
        let mut c = cache();
        // Tag `w` starts resident in way `w`, coherent with zeroed host
        // memory (the no-flush initialization).
        for tag in 0..WAYS as u64 {
            let place = c.locate(tag * SETS + 5);
            assert_eq!(
                place.slot,
                Some(place.way(tag as usize)),
                "tag {tag} must start resident in way {tag}"
            );
        }
        // Tag WAYS does not fit the initial residency.
        assert!(!resident(&c, WAYS as u64 * SETS + 5));
        // And every initial line is clean: retiring the set owes nothing.
        let retired = c.retire_if(|line| line % SETS == 5, |line| panic!("{line} dirty"));
        assert_eq!(retired, (WAYS as u64, 0));
    }

    #[test]
    fn fill_then_hit() {
        let mut c = cache();
        let line = WAYS as u64 * SETS + 3; // tag 4, set 3
        let (slot, victim) = fill(&mut c, line, false);
        let victim = victim.expect("set was full of valid lines");
        assert!(!victim.dirty, "initial lines are clean");
        assert_eq!(victim.line % SETS, 3, "victim comes from the same set");
        assert!(!resident(&c, victim.line), "the victim is gone");
        assert_eq!(
            c.locate(line).slot,
            Some(slot),
            "resident in the filled slot"
        );
        assert_eq!(c.locate(line), c.locate(line), "locating changes nothing");
    }

    #[test]
    fn four_way_set_holds_four_conflicting_lines() {
        let mut c = cache();
        // Four lines of the same set (tags 4..8) can all be resident at
        // once after the initial occupants rotate out.
        for tag in 4..8u64 {
            fill(&mut c, tag * SETS + 2, false);
        }
        for tag in 4..8u64 {
            assert!(resident(&c, tag * SETS + 2), "tag {tag} evicted too early");
        }
        // A fifth conflicting line displaces one of them.
        fill(&mut c, 8 * SETS + 2, false);
        let n = (4..9u64).filter(|&t| resident(&c, t * SETS + 2)).count();
        assert_eq!(n, WAYS);
    }

    #[test]
    fn dirty_eviction_reports_its_line() {
        let mut c = cache();
        // Dirty the tag-0 occupant of set 9, then displace it by filling
        // enough conflicting lines to wrap the round-robin cursor.
        let slot = c.locate(9).slot.unwrap();
        c.mark_dirty(slot);
        let fills: Vec<_> = (4..8u64)
            .map(|tag| fill(&mut c, tag * SETS + 9, false))
            .collect();
        let dirty: Vec<_> = fills
            .iter()
            .filter(|f| f.1.is_some_and(|v| v.dirty))
            .collect();
        assert_eq!(dirty.len(), 1, "the dirty line surfaces exactly once");
        assert_eq!(
            *dirty[0],
            (
                slot,
                Some(Victim {
                    line: 9,
                    dirty: true
                })
            ),
            "from the slot it was dirtied in"
        );
    }

    #[test]
    fn fill_marked_dirty_writes_back_later() {
        let mut c = cache();
        let target = WAYS as u64 * SETS + 1; // tag 4, set 1
        let (slot, first) = fill(&mut c, target, true); // write-allocate
        assert!(!first.unwrap().dirty);
        // Displace the whole set; the dirty fill must surface.
        let dirty: Vec<_> = (5..9u64)
            .map(|tag| fill(&mut c, tag * SETS + 1, false))
            .filter(|f| f.1.is_some_and(|v| v.dirty))
            .collect();
        let victim = Victim {
            line: target,
            dirty: true,
        };
        assert_eq!(dirty, vec![(slot, Some(victim))]);
    }

    #[test]
    fn reinstalling_a_resident_line_reports_itself_and_leaves_it_clean() {
        let mut c = cache();
        let place = c.locate(6);
        let slot = place.slot.unwrap();
        c.mark_dirty(slot);
        assert_eq!(
            c.install(slot, &place),
            Some(Victim {
                line: 6,
                dirty: true
            })
        );
        assert_eq!(c.locate(6).slot, Some(slot), "rebuilt in its own slot");
        assert_eq!(
            c.install(slot, &place),
            Some(Victim {
                line: 6,
                dirty: false
            })
        );
    }

    #[test]
    fn occupants_reports_the_set() {
        let mut c = cache();
        let place = c.locate(7);
        // Initially: tags 0..WAYS of set 7.
        for (w, line) in c.occupants(&place).iter().enumerate() {
            assert_eq!(*line, Some(w as u64 * SETS + 7));
        }
        // After retiring one way, it reads back as None.
        c.retire_if(|line| line == SETS + 7, |_| {});
        let occ = c.occupants(&place);
        assert_eq!(occ[1], None);
        assert_eq!(occ[0], Some(7));
    }

    #[test]
    fn rr_victim_prefers_invalid_ways() {
        let mut c = cache();
        c.retire_if(|line| line == 2 * SETS + 3, |_| {});
        let place = c.locate(3 + 4 * SETS);
        assert_eq!(c.rr_victim(&place), 2, "invalid way wins");
        // With all ways valid again, the cursor rotates.
        fill(&mut c, 4 * SETS + 3, false);
        let (a, b) = (c.rr_victim(&place), c.rr_victim(&place));
        assert_ne!(a, b, "cursor must advance");
    }

    #[test]
    fn retire_sweep_writes_back_dirty_and_invalidates() {
        let mut c = cache();
        let slot = c.locate(5).slot.unwrap();
        c.mark_dirty(slot); // dirty line 5 (tag 0, set 5)
        let mut written = Vec::new();
        let (clean, dirty) = c.retire_if(
            |line| line % SETS == 5, // everything in set 5
            |line| written.push(line),
        );
        assert_eq!(dirty, 1);
        assert_eq!(clean, WAYS as u64 - 1);
        assert_eq!(written, vec![5]);
        assert_eq!(
            c.occupants(&c.locate(5)),
            [None; WAYS],
            "retired lines are gone"
        );
        // A retired dirty line must not write back again.
        assert_eq!(c.retire_if(|_| true, |_| panic!("nothing is dirty")).1, 0);
    }

    /// The cache's metadata as it was before the ways were packed: one
    /// `(tag, dirty, valid)` per slot, every lookup a scan.
    struct Naive {
        sets: u64,
        meta: Vec<(u8, bool, bool)>,
        rr: Vec<u8>,
    }

    impl Naive {
        fn new(sets: u64) -> Naive {
            Naive {
                sets,
                meta: (0..sets as usize * WAYS)
                    .map(|i| ((i % WAYS) as u8, false, true))
                    .collect(),
                rr: vec![0; sets as usize],
            }
        }

        fn locate(&self, line: u64) -> Place {
            let (base, tag) = ((line % self.sets) as usize * WAYS, (line / self.sets) as u8);
            let slot = (base..base + WAYS).find(|&s| self.meta[s].2 && self.meta[s].0 == tag);
            Place { base, tag, slot }
        }

        fn line_of(&self, slot: usize) -> u64 {
            self.meta[slot].0 as u64 * self.sets + (slot / WAYS) as u64
        }

        fn rr_victim(&mut self, place: &Place) -> usize {
            if let Some(w) = (0..WAYS).find(|&w| !self.meta[place.base + w].2) {
                return w;
            }
            let cursor = &mut self.rr[place.base / WAYS];
            let w = *cursor as usize % WAYS;
            *cursor = ((w + 1) % WAYS) as u8;
            w
        }

        fn install(&mut self, slot: usize, place: &Place) -> Option<Victim> {
            let (_, dirty, valid) = self.meta[slot];
            let line = self.line_of(slot);
            self.meta[slot] = (place.tag, false, true);
            valid.then_some(Victim { line, dirty })
        }

        /// Retired lines in slot order, with their dirty bits.
        fn retire_if(&mut self, retire: impl Fn(u64) -> bool) -> Vec<(u64, bool)> {
            let mut out = Vec::new();
            for slot in 0..self.meta.len() {
                let line = self.line_of(slot);
                if self.meta[slot].2 && retire(line) {
                    out.push((line, self.meta[slot].1));
                    self.meta[slot] = (0, false, false);
                }
            }
            out
        }
    }

    #[test]
    fn packed_sets_match_a_per_way_model() {
        // 16 sets (shift and mask) and 12 sets (divide), ratio 16 both.
        for sets in [16u64, 12] {
            let capacity = sets * WAYS as u64 * LINE;
            let mut c = NicDram::new(
                NicDramConfig {
                    capacity,
                    bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
                },
                16 * capacity,
            );
            let mut m = Naive::new(sets);
            let mut rng = kvd_sim::DetRng::seed(0x91C_D7A3 ^ sets);
            let lines = 16 * sets * WAYS as u64;
            for step in 0..20_000u32 {
                let line = rng.u64_below(lines);
                let place = c.locate(line);
                assert_eq!(place, m.locate(line), "step {step}: locate({line})");
                let occupants: [Option<u64>; WAYS] = std::array::from_fn(|w| {
                    let slot = place.way(w);
                    m.meta[slot].2.then(|| m.line_of(slot))
                });
                assert_eq!(c.occupants(&place), occupants, "step {step}");
                match place.slot {
                    // A write hit dirties the line; a rebuild cleans it.
                    Some(slot) if rng.chance(0.5) => {
                        c.mark_dirty(slot);
                        m.meta[slot].1 = true;
                    }
                    Some(slot) if rng.chance(0.2) => {
                        assert_eq!(c.install(slot, &place), m.install(slot, &place));
                    }
                    Some(_) => {}
                    None => {
                        let way = c.rr_victim(&place);
                        assert_eq!(way, m.rr_victim(&place), "step {step}: victim way");
                        let slot = place.way(way);
                        let victim = c.install(slot, &place);
                        assert_eq!(victim, m.install(slot, &place), "step {step}: victim");
                    }
                }
                assert_eq!(c.rr, m.rr, "step {step}: cursors");
                if step % 500 == 499 {
                    // A migration sweep: a hash-like band of lines.
                    let band = rng.u64_below(5);
                    let retire = |line: u64| line.wrapping_mul(0x9E37_79B9) % 5 == band;
                    let mut retired = Vec::new();
                    let (clean, dirty) = c.retire_if(retire, |line| retired.push(line));
                    let expect = m.retire_if(retire);
                    let expect_dirty: Vec<u64> =
                        expect.iter().filter(|r| r.1).map(|r| r.0).collect();
                    assert_eq!(retired, expect_dirty, "step {step}: write-back order");
                    assert_eq!((clean + dirty) as usize, expect.len(), "step {step}");
                    assert_eq!(dirty as usize, expect_dirty.len(), "step {step}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ECC spare bits")]
    fn rejects_ratio_beyond_ecc_bits() {
        // Ratio 32 needs 5+2 tag bits + dirty + valid = 9 > 8 spare bits.
        NicDram::new(
            NicDramConfig {
                capacity: 4096,
                bandwidth: Bandwidth::from_gbytes_per_sec(12.8),
            },
            32 * 4096,
        );
    }

    #[test]
    fn paper_ratio_fits_ecc_bits() {
        // 16:1 (the paper's 64GiB:4GiB) needs 6 tag bits + dirty + valid = 8.
        let cfg = NicDramConfig {
            capacity: (4u64 << 30) / 1024,
            bandwidth: Bandwidth::from_gbytes_per_sec(NIC_DRAM_GBYTES_PER_SEC),
        };
        NicDram::new(cfg, (64u64 << 30) / 1024);
    }
}
