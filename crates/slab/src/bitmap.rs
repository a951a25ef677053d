//! The global allocation bitmap (paper §3.3.2).
//!
//! One bit per 32 B granule of the dynamic region tracks whether the
//! granule is allocated. It exists to "help to merge small free slabs back
//! to larger slabs": a free slab can coalesce with its buddy only if every
//! granule of the buddy is free.

use crate::class::GRANULE;

/// A bitmap over the granules of the dynamic allocation region.
///
/// # Examples
///
/// ```
/// use kvd_slab::AllocBitmap;
///
/// let mut bm = AllocBitmap::new(0, 4096);
/// bm.set_range(0, 64, true);
/// assert!(bm.any_set(0, 64));
/// assert!(!bm.any_set(64, 64));
/// ```
#[derive(Debug, Clone)]
pub struct AllocBitmap {
    base: u64,
    words: Vec<u64>,
    granules: u64,
}

impl AllocBitmap {
    /// Creates an all-free bitmap over `[base, base + len)` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `base` and `len` are granule-aligned.
    pub fn new(base: u64, len: u64) -> Self {
        assert_eq!(base % GRANULE, 0, "base must be granule-aligned");
        assert_eq!(len % GRANULE, 0, "length must be granule-aligned");
        let granules = len / GRANULE;
        AllocBitmap {
            base,
            words: vec![0; granules.div_ceil(64) as usize],
            granules,
        }
    }

    fn granule_of(&self, addr: u64) -> u64 {
        assert!(addr >= self.base, "address below region");
        let g = (addr - self.base) / GRANULE;
        assert!(g < self.granules, "address beyond region");
        g
    }

    /// Marks `[addr, addr + len)` as allocated (`true`) or free (`false`).
    pub fn set_range(&mut self, addr: u64, len: u64, allocated: bool) {
        let start = self.granule_of(addr);
        let count = len / GRANULE;
        assert!(start + count <= self.granules, "range beyond region");
        for g in start..start + count {
            let (w, b) = ((g / 64) as usize, g % 64);
            if allocated {
                self.words[w] |= 1 << b;
            } else {
                self.words[w] &= !(1 << b);
            }
        }
    }

    /// Returns `true` if any granule in `[addr, addr + len)` is allocated.
    pub fn any_set(&self, addr: u64, len: u64) -> bool {
        let start = self.granule_of(addr);
        let count = len / GRANULE;
        (start..start + count).any(|g| {
            let (w, b) = ((g / 64) as usize, g % 64);
            self.words[w] & (1 << b) != 0
        })
    }

    /// Returns `true` if the single granule at `addr` is allocated.
    pub fn is_set(&self, addr: u64) -> bool {
        self.any_set(addr, GRANULE)
    }

    /// Number of allocated granules (popcount; used in tests/invariants).
    pub fn allocated_granules(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_clear_ranges() {
        let mut bm = AllocBitmap::new(1024, 2048);
        bm.set_range(1024, 512, true);
        assert!(bm.any_set(1024, 512));
        assert!(bm.is_set(1024 + 480));
        assert!(!bm.any_set(1536, 512));
        bm.set_range(1024, 256, false);
        assert!(!bm.any_set(1024, 256));
        assert!(bm.any_set(1280, 256));
        assert_eq!(bm.allocated_granules(), 8);
    }

    #[test]
    fn word_boundary_crossing() {
        // 64 granules per word; a range spanning the boundary.
        let mut bm = AllocBitmap::new(0, 4096 * GRANULE);
        let addr = 60 * GRANULE;
        bm.set_range(addr, 10 * GRANULE, true);
        for g in 0..70 {
            let set = bm.is_set(g * GRANULE);
            assert_eq!(set, (60..70).contains(&g), "granule {g}");
        }
    }

    #[test]
    #[should_panic(expected = "granule-aligned")]
    fn rejects_unaligned_base() {
        AllocBitmap::new(7, 64);
    }

    #[test]
    #[should_panic(expected = "beyond region")]
    fn rejects_out_of_range() {
        let mut bm = AllocBitmap::new(0, 64);
        bm.set_range(64, 32, true);
    }

    #[test]
    #[should_panic(expected = "below region")]
    fn rejects_below_base() {
        let bm = AllocBitmap::new(1024, 64);
        bm.is_set(0);
    }
}
