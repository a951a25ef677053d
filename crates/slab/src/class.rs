//! Slab size classes.
//!
//! Allocation sizes round up to the nearest power of two ("slab size",
//! paper §3.3.2), starting at the 32 B granularity the paper picks as "a
//! trade-off between internal fragmentation and allocation metadata
//! overhead".

/// Allocation granularity in bytes; also the unit of the 31-bit pointers
/// in hash slots (32 B granularity over 64 GiB needs 31 bits).
pub const GRANULE: u64 = 32;

/// Maximum number of size classes (32 B … 64 KiB). The class index is
/// stored in a 4-bit type field (0 = empty, 1..=12 = class).
pub const MAX_CLASSES: usize = 12;

/// A slab size class: `size = 32 << index`.
///
/// # Examples
///
/// ```
/// use kvd_slab::SlabClass;
///
/// let c = SlabClass::for_size(100).unwrap();
/// assert_eq!(c.size(), 128);
/// assert_eq!(SlabClass::for_size(32).unwrap().size(), 32);
/// assert_eq!(SlabClass::for_size(512).unwrap().size(), 512);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlabClass(u8);

impl SlabClass {
    /// Creates a class from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_CLASSES`.
    pub fn from_index(index: usize) -> Self {
        assert!(index < MAX_CLASSES, "class index {index} out of range");
        SlabClass(index as u8)
    }

    /// The smallest class whose slabs fit `size` bytes, or `None` if
    /// `size` exceeds the largest class.
    pub fn for_size(size: u64) -> Option<Self> {
        if size == 0 {
            return Some(SlabClass(0));
        }
        let granules = size.div_ceil(GRANULE);
        let idx = granules.next_power_of_two().trailing_zeros() as usize;
        if idx < MAX_CLASSES {
            Some(SlabClass(idx as u8))
        } else {
            None
        }
    }

    /// Decodes the 4-bit type field from a hash slot (1-based; 0 = empty).
    pub fn from_type_field(field: u8) -> Option<Self> {
        if field == 0 || field as usize > MAX_CLASSES {
            None
        } else {
            Some(SlabClass(field - 1))
        }
    }

    /// Encodes this class as a 1-based type field.
    pub fn type_field(self) -> u8 {
        self.0 + 1
    }

    /// The class index (0-based).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Slab size in bytes.
    pub fn size(self) -> u64 {
        GRANULE << self.0
    }

    /// The next larger class, if any.
    pub fn larger(self) -> Option<Self> {
        if (self.0 as usize) + 1 < MAX_CLASSES {
            Some(SlabClass(self.0 + 1))
        } else {
            None
        }
    }

    /// The next smaller class, if any.
    pub fn smaller(self) -> Option<Self> {
        if self.0 > 0 {
            Some(SlabClass(self.0 - 1))
        } else {
            None
        }
    }

    /// Iterates all classes from smallest to largest.
    pub fn all() -> impl Iterator<Item = SlabClass> {
        (0..MAX_CLASSES).map(|i| SlabClass(i as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_powers_of_two_from_granule() {
        let sizes: Vec<u64> = SlabClass::all().map(|c| c.size()).collect();
        assert_eq!(sizes[0], 32);
        assert_eq!(sizes[1], 64);
        assert_eq!(sizes[4], 512); // the paper's largest listed class
        assert_eq!(*sizes.last().unwrap(), 64 * 1024);
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn for_size_rounds_up() {
        assert_eq!(SlabClass::for_size(1).unwrap().size(), 32);
        assert_eq!(SlabClass::for_size(33).unwrap().size(), 64);
        assert_eq!(SlabClass::for_size(64).unwrap().size(), 64);
        assert_eq!(SlabClass::for_size(65).unwrap().size(), 128);
        assert_eq!(SlabClass::for_size(64 * 1024).unwrap().size(), 64 * 1024);
        assert!(SlabClass::for_size(64 * 1024 + 1).is_none());
    }

    #[test]
    fn zero_size_gets_smallest() {
        assert_eq!(SlabClass::for_size(0).unwrap(), SlabClass::from_index(0));
    }

    #[test]
    fn type_field_roundtrip() {
        for c in SlabClass::all() {
            assert_eq!(SlabClass::from_type_field(c.type_field()), Some(c));
        }
        assert_eq!(SlabClass::from_type_field(0), None);
        assert_eq!(SlabClass::from_type_field(13), None);
    }

    #[test]
    fn larger_smaller_navigation() {
        let c = SlabClass::for_size(64).unwrap();
        assert_eq!(c.larger().unwrap().size(), 128);
        assert_eq!(c.smaller().unwrap().size(), 32);
        assert_eq!(SlabClass::from_index(0).smaller(), None);
        assert_eq!(SlabClass::from_index(MAX_CLASSES - 1).larger(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_bounds() {
        SlabClass::from_index(MAX_CLASSES);
    }
}
