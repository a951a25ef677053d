//! Sparse host memory.
//!
//! The paper's KVS occupies 64 GiB of host memory. To let the same address
//! arithmetic run on a development machine, [`HostMemory`] is paged and
//! allocates 64 KiB pages on first touch; untouched pages read as zero.
//!
//! Every page starts on a 64 B boundary, so each simulated line (a hash
//! bucket, a slab line) is exactly one CPU cache line: a lookup touches
//! the one line the paper counts, and one prefetch covers it. The
//! allocator only promises 16 B, so a page is allocated one line larger
//! and used from its first line boundary; the allocation stays a lazily
//! zeroed `calloc`.
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

/// One host cache line: a page holds whole lines, so none straddles two.
const LINE_BYTES: usize = crate::LINE as usize;

type Page = [u8; PAGE_SIZE];
/// A page's allocation: one line of slack, so that the page proper can
/// start on a line boundary wherever the allocator put it.
type Frame = [u8; PAGE_SIZE + LINE_BYTES];
type Leaf = [Option<Box<Frame>>; LEAF_PAGES];

/// Where the line-aligned page starts in `frame`.
#[inline]
fn page_offset(frame: &Frame) -> usize {
    frame.as_ptr().align_offset(LINE_BYTES)
}

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
    capacity: u64,
}

impl HostMemory {
    /// Creates a memory with `capacity` bytes of address space.
    pub fn new(capacity: u64) -> Self {
        let leaves = capacity.div_ceil(1 << (PAGE_SHIFT + LEAF_SHIFT));
        HostMemory {
            root: (0..leaves).map(|_| None).collect(),
            capacity,
        }
    }

    /// Total address-space capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
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
            let (_, in_page, n) = Self::span(addr, buf.len());
            let (head, rest) = buf.split_at_mut(n);
            match self.page(addr) {
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
            let frame = leaf[page & (LEAF_PAGES - 1)].get_or_insert_with(|| {
                // Zeroed on the heap: a page never exists on the stack.
                vec![0u8; PAGE_SIZE + LINE_BYTES]
                    .into_boxed_slice()
                    .try_into()
                    .expect("frame-sized allocation")
            });
            let at = page_offset(frame) + in_page;
            frame[at..at + n].copy_from_slice(head);
            addr += n as u64;
            data = rest;
        }
    }

    /// The resident page holding `addr`, if it was ever written.
    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        let page = (addr >> PAGE_SHIFT) as usize;
        let frame =
            self.root.get(page >> LEAF_SHIFT)?.as_ref()?[page & (LEAF_PAGES - 1)].as_deref()?;
        let at = page_offset(frame);
        frame[at..at + PAGE_SIZE].try_into().ok()
    }

    /// The 64 B line holding `addr`, borrowed in place: no copy and no
    /// access counted. `None` if its page was never written (it reads as
    /// zero) or the line does not lie wholly within capacity.
    #[inline]
    pub fn line(&self, addr: u64) -> Option<&[u8; LINE_BYTES]> {
        if addr >= self.capacity & !(LINE_BYTES as u64 - 1) {
            return None;
        }
        let at = (addr & (PAGE_SIZE - LINE_BYTES) as u64) as usize;
        self.page(addr)?[at..at + LINE_BYTES].try_into().ok()
    }

    /// Hints the CPU to pull the line holding `addr` into its caches, so
    /// a later [`read`](Self::read) of it does not wait on DRAM: pages
    /// are line-aligned, so the one CPU line it names is the whole
    /// simulated line. A no-op where [`line`](Self::line) is `None` and
    /// on targets other than x86-64; it changes no state either way.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        #[cfg(target_arch = "x86_64")]
        if let Some(line) = self.line(addr) {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: a prefetch is a hint that never dereferences its
            // pointer and cannot fault; `line` borrows mapped memory.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
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
    }

    #[test]
    fn sparse_residency() {
        let mut m = HostMemory::new(1 << 40); // 1 TiB address space
        m.write(1 << 39, &[1]);
        let mut buf = [0u8; 2];
        m.read((1 << 39) - 1, &mut buf);
        assert_eq!(buf, [0, 1]);
        assert_eq!(m.capacity(), 1 << 40);
    }

    #[test]
    fn u64_helpers() {
        let mut m = HostMemory::new(1 << 20);
        // A little-endian word, as the table's slot and chain words are.
        m.write(64, &0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes());
        let mut b = [0u8; 8];
        m.read(64, &mut b);
        assert_eq!(u64::from_le_bytes(b), 0xDEAD_BEEF_CAFE_F00D);
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
    fn line_borrows_what_read_copies() {
        // Capacity ends mid-page, on a line boundary.
        let cap = 3 * PAGE_SIZE as u64 / 2;
        let mut m = HostMemory::new(cap);
        let data: Vec<u8> = (0..=255).cycle().take(cap as usize).collect();
        m.write(0, &data);
        let last_of_page = PAGE_SIZE as u64 - LINE_BYTES as u64;
        let last_of_cap = cap - LINE_BYTES as u64;
        for line in [0, 64, last_of_page, PAGE_SIZE as u64, last_of_cap] {
            let mut buf = [0u8; LINE_BYTES];
            m.read(line, &mut buf);
            // Any address inside the line names the whole line.
            for addr in [line, line + 1, line + LINE_BYTES as u64 - 1] {
                assert_eq!(m.line(addr), Some(&buf), "line at {addr:#x}");
            }
        }
        assert_eq!(m.line(cap), None);
        assert_eq!(m.line(u64::MAX), None);
    }

    #[test]
    fn every_line_is_a_cpu_line() {
        const PAGES: u64 = 64;
        let page = PAGE_SIZE as u64;
        let mut m = HostMemory::new(PAGES * page);
        // Scattered order (37 is coprime with 64), each write straddling
        // the edge below page `p`, so frames land at varied offsets.
        let edge_data = |p: u64| -> Vec<u8> { (0..20).map(|i| (p * 31 + i) as u8).collect() };
        for p in (0..PAGES).map(|i| (i * 37) % PAGES).filter(|&p| p > 0) {
            m.write(p * page - 7, &edge_data(p));
        }
        for a in (0..PAGES * page).step_by(LINE_BYTES) {
            let line = m.line(a).expect("every page was written");
            assert_eq!(line.as_ptr() as usize % 64, 0, "line at {a:#x}");
        }
        for p in 1..PAGES {
            let mut buf = [0u8; 20];
            m.read(p * page - 7, &mut buf);
            assert_eq!(buf[..], edge_data(p)[..], "edge below page {p}");
        }
    }

    #[test]
    fn line_is_none_on_an_unwritten_page() {
        let mut m = HostMemory::new(1 << 20);
        m.write(PAGE_SIZE as u64, &[7]);
        assert_eq!(m.line(0), None);
        assert_eq!(m.line(2 * PAGE_SIZE as u64), None);
        assert_eq!(m.line(PAGE_SIZE as u64 + 100).map(|l| l[0]), Some(0));
        assert_eq!(m.line(PAGE_SIZE as u64).map(|l| l[0]), Some(7));
    }

    #[test]
    fn prefetch_never_maps_or_changes_memory() {
        // Capacity not a multiple of a line: the partial last line has
        // no `line` and no prefetch.
        let mut m = HostMemory::new(PAGE_SIZE as u64 + 100);
        m.write(10, b"abc");
        for addr in [
            0,
            10,
            PAGE_SIZE as u64 - 1,
            PAGE_SIZE as u64,
            PAGE_SIZE as u64 + 99,
        ]
        .into_iter()
        .chain([PAGE_SIZE as u64 + 100, 1 << 40, u64::MAX])
        {
            m.prefetch(addr);
        }
        assert_eq!(
            m.line(PAGE_SIZE as u64),
            None,
            "the second page stays unmapped"
        );
        assert_eq!(m.line(PAGE_SIZE as u64 + 64), None);
        let mut buf = [0u8; 3];
        m.read(10, &mut buf);
        assert_eq!(&buf, b"abc");
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
