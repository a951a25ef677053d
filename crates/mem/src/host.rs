//! Sparse host memory.
//!
//! The paper's KVS occupies 64 GiB of host memory. To let the same address
//! arithmetic run on a development machine, [`HostMemory`] is paged and
//! allocates 64 KiB pages on first touch; untouched pages read as zero.
//!
//! Pages are found by index, not by hashing: a two-level table whose
//! root has one entry per 64 MiB of address space and whose leaves
//! (8 KiB, allocated with their first page) hold 1024 page pointers
//! each. Every engine access ends here, so the lookup is two dependent
//! loads; a 1 TiB address space costs a 128 KiB root and nothing more
//! until it is written.

/// Page size for sparse allocation (simulation artifact, not a paper
/// parameter).
const PAGE_SHIFT: u32 = 16;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Pages per leaf of the page table.
const LEAF_SHIFT: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_SHIFT;

type Page = [u8; PAGE_SIZE];
type Leaf = [Option<Box<Page>>; LEAF_PAGES];

/// A sparse, allocate-on-touch byte-addressable memory.
///
/// # Examples
///
/// ```
/// use kvd_mem::HostMemory;
///
/// let mut m = HostMemory::new(1 << 30); // 1 GiB address space
/// m.write(0x1234_5678, b"hello");
/// let mut buf = [0u8; 5];
/// m.read(0x1234_5678, &mut buf);
/// assert_eq!(&buf, b"hello");
/// // Untouched memory reads as zero.
/// m.read(0, &mut buf);
/// assert_eq!(&buf, &[0; 5]);
/// ```
pub struct HostMemory {
    root: Vec<Option<Box<Leaf>>>,
    resident_pages: u64,
    capacity: u64,
}

impl HostMemory {
    /// Creates a memory with `capacity` bytes of address space.
    pub fn new(capacity: u64) -> Self {
        let leaves = capacity.div_ceil(1 << (PAGE_SHIFT + LEAF_SHIFT));
        HostMemory {
            root: (0..leaves).map(|_| None).collect(),
            resident_pages: 0,
            capacity,
        }
    }

    /// Total address-space capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes of memory actually resident (allocated pages).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages * PAGE_SIZE as u64
    }

    fn check_range(&self, addr: u64, len: usize) {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.capacity),
            "access [{addr:#x}, +{len}) out of bounds (capacity {:#x})",
            self.capacity
        );
    }

    /// The part of `[addr, addr + len)` that lies in `addr`'s page, as
    /// `(page number, offset in page, bytes)`.
    fn span(addr: u64, len: usize) -> (usize, usize, usize) {
        let in_page = (addr & (PAGE_SIZE as u64 - 1)) as usize;
        (
            (addr >> PAGE_SHIFT) as usize,
            in_page,
            (PAGE_SIZE - in_page).min(len),
        )
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    #[inline]
    pub fn read(&self, mut addr: u64, mut buf: &mut [u8]) {
        self.check_range(addr, buf.len());
        while !buf.is_empty() {
            let (page, in_page, n) = Self::span(addr, buf.len());
            let (head, rest) = buf.split_at_mut(n);
            match self.root[page >> LEAF_SHIFT]
                .as_ref()
                .and_then(|leaf| leaf[page & (LEAF_PAGES - 1)].as_ref())
            {
                Some(p) => head.copy_from_slice(&p[in_page..in_page + n]),
                None => head.fill(0),
            }
            addr += n as u64;
            buf = rest;
        }
    }

    /// Writes `data` at `addr`, allocating pages as needed.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    #[inline(always)] // the hint alone left a tail call per write access
    pub fn write(&mut self, mut addr: u64, mut data: &[u8]) {
        self.check_range(addr, data.len());
        while !data.is_empty() {
            let (page, in_page, n) = Self::span(addr, data.len());
            let (head, rest) = data.split_at(n);
            let leaf = self.root[page >> LEAF_SHIFT]
                .get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
            let p = leaf[page & (LEAF_PAGES - 1)].get_or_insert_with(|| {
                self.resident_pages += 1;
                // Zeroed on the heap: a page never exists on the stack.
                vec![0u8; PAGE_SIZE]
                    .into_boxed_slice()
                    .try_into()
                    .expect("page-sized allocation")
            });
            p[in_page..in_page + n].copy_from_slice(head);
            addr += n as u64;
            data = rest;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let m = HostMemory::new(1 << 20);
        let mut buf = [0xAAu8; 16];
        m.read(1000, &mut buf);
        assert_eq!(buf, [0; 16]);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut m = HostMemory::new(1 << 20);
        // Straddle the 64KiB page boundary.
        let addr = (1 << 16) - 3;
        let data: Vec<u8> = (0..10).collect();
        m.write(addr, &data);
        let mut buf = vec![0u8; 10];
        m.read(addr, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn sparse_residency() {
        let mut m = HostMemory::new(1 << 40); // 1 TiB address space
        m.write(1 << 39, &[1]);
        assert_eq!(m.resident_bytes(), PAGE_SIZE as u64);
        assert_eq!(m.capacity(), 1 << 40);
    }

    #[test]
    fn u64_helpers() {
        let mut m = HostMemory::new(1 << 20);
        m.write_u64(64, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(64), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_read() {
        let m = HostMemory::new(100);
        let mut buf = [0u8; 8];
        m.read(96, &mut buf);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_write() {
        let mut m = HostMemory::new(100);
        m.write(u64::MAX - 2, &[1, 2, 3]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut m = HostMemory::new(1 << 20);
        m.write(10, b"aaaa");
        m.write(12, b"bb");
        let mut buf = [0u8; 4];
        m.read(10, &mut buf);
        assert_eq!(&buf, b"aabb");
    }
}
