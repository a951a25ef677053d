//! Host memory as one anonymous mapping.
//!
//! The paper's KVS occupies 64 GiB of host memory. To let the same address
//! arithmetic run on a development machine, [`HostMemory`] maps its whole
//! capacity privately and anonymously, with no swap reservation: the
//! kernel backs and zero-fills a page on first touch, so a 1 TiB address
//! space costs nothing until it is written. An access is a bounds check
//! and one copy at `base + addr`. The base is 2 MiB-aligned, so each
//! simulated line (a bucket, a slab line) is one CPU cache line.
//!
//! [`HostMemory::dense_prefix`] puts the hash index's bucket array, which
//! every operation reads at a random line, on 2 MiB transparent huge pages
//! and the rest on 4 KiB pages. The array's RSS is then its touched 2 MiB
//! pages; where the kernel's THP mode is `never`, the advice does nothing
//! (DESIGN.md §11). The flags are Linux's, so this is Linux-only, as CI is.

use std::ffi::c_void;

#[cfg(not(target_os = "linux"))]
compile_error!("HostMemory maps its bytes with Linux mmap and madvise flags");

/// One host cache line.
const LINE_BYTES: usize = crate::LINE as usize;
/// A transparent huge page (x86-64 and AArch64 with 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_FAILED: *mut c_void = !0 as *mut c_void;
const MADV_HUGEPAGE: i32 = 14;
const MADV_NOHUGEPAGE: i32 = 15;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
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
    /// Address 0: the first 2 MiB boundary inside the mapping.
    base: *mut u8,
    capacity: u64,
    /// The mapping as `mmap` returned it, `capacity + HUGE_PAGE` long.
    map: *mut c_void,
}

// SAFETY: `base` and `map` point into a mapping that this value alone
// owns and unmaps; no other value aliases it. Its bytes are written only
// through `&mut self`, and `&self` methods only read them or advise the
// kernel, so moving the value to another thread or sharing `&HostMemory`
// between threads is as sound as for a `Box<[u8]>`.
unsafe impl Send for HostMemory {}
// SAFETY: see `Send`: shared access never writes a byte.
unsafe impl Sync for HostMemory {}

impl HostMemory {
    /// Creates a memory with `capacity` bytes of address space.
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping.
    pub fn new(capacity: u64) -> Self {
        let len = usize::try_from(capacity)
            .ok()
            .and_then(|c| c.checked_add(HUGE_PAGE))
            .expect("capacity fits the address space");
        // SAFETY: a fresh private anonymous mapping at an address the
        // kernel chooses aliases no existing memory.
        let map = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        assert!(map != MAP_FAILED, "mmap of {len} bytes failed");
        // The mapping is one huge page longer than the capacity, so the
        // capacity fits after its first 2 MiB boundary.
        let head = map.cast::<u8>().align_offset(HUGE_PAGE);
        HostMemory {
            // SAFETY: `head < HUGE_PAGE`, so the result lies in the mapping.
            base: unsafe { map.cast::<u8>().add(head) },
            capacity,
            map,
        }
    }

    /// Total address-space capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The whole address space. Untouched pages read as zero.
    #[inline]
    fn bytes(&self) -> &[u8] {
        // SAFETY: `[base, base + capacity)` lies in the mapping (see
        // `new`), which is readable, initialised (zero-filled on first
        // touch) and lives as long as `self`; `&self` excludes writers.
        unsafe { std::slice::from_raw_parts(self.base, self.capacity as usize) }
    }

    /// The whole address space, for writing.
    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `bytes`, and the mapping is writable; `&mut self`
        // excludes every other borrow of it.
        unsafe { std::slice::from_raw_parts_mut(self.base, self.capacity as usize) }
    }

    fn check_range(&self, addr: u64, len: usize) -> std::ops::Range<usize> {
        assert!(
            addr.checked_add(len as u64)
                .is_some_and(|end| end <= self.capacity),
            "access [{addr:#x}, +{len}) out of bounds (capacity {:#x})",
            self.capacity
        );
        addr as usize..addr as usize + len
    }

    /// Reads `buf.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    #[inline]
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        let range = self.check_range(addr, buf.len());
        buf.copy_from_slice(&self.bytes()[range]);
    }

    /// Writes `data` at `addr`; the kernel backs untouched pages.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity.
    #[inline]
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let range = self.check_range(addr, data.len());
        self.bytes_mut()[range].copy_from_slice(data);
    }

    /// The 64 B line holding `addr`, borrowed in place: no copy and no
    /// access counted. Zeros until written; `None` if the line does not
    /// lie wholly within capacity.
    #[inline]
    pub fn line(&self, addr: u64) -> Option<&[u8; LINE_BYTES]> {
        if addr >= self.capacity & !(LINE_BYTES as u64 - 1) {
            return None;
        }
        let at = addr as usize & !(LINE_BYTES - 1);
        self.bytes()[at..at + LINE_BYTES].try_into().ok()
    }

    /// Hints the CPU to pull the line holding `addr` into its caches, so
    /// a later [`read`](Self::read) of it does not wait on DRAM: the
    /// address space is line-aligned, so the one CPU line it names is the
    /// whole simulated line. A no-op where [`line`](Self::line) is `None`
    /// and on targets other than x86-64; it changes no state either way.
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

    /// Advises 2 MiB pages on the first `len` bytes (rounded down to
    /// 2 MiB), the array every operation reads at a random line, and
    /// 4 KiB pages on the rest. Changes no byte and ignores a refusal:
    /// where the kernel's THP mode is `never`, nothing changes.
    pub fn dense_prefix(&self, len: u64) {
        let huge = len.min(self.capacity) as usize / HUGE_PAGE * HUGE_PAGE;
        let rest = self.capacity as usize - huge;
        // SAFETY: both ranges lie in the mapping and start on a 2 MiB
        // boundary; these two advice values change no contents.
        unsafe {
            madvise(self.base.cast(), huge, MADV_HUGEPAGE);
            madvise(self.base.add(huge).cast(), rest, MADV_NOHUGEPAGE);
        }
    }
}

impl Drop for HostMemory {
    fn drop(&mut self) {
        // SAFETY: `map` is the mapping `new` made, with its length; no
        // borrow of it outlives `self`. A failure is ignored: it would
        // only leak address space.
        unsafe { munmap(self.map, self.capacity as usize + HUGE_PAGE) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel's base page: accesses cross its boundaries unnoticed.
    const PAGE_SIZE: usize = 4096;

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
        // Straddle a 64 KiB boundary.
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
    fn a_tebibyte_is_written_at_its_top_and_reads_zero_elsewhere() {
        let cap = 1u64 << 40;
        let mut m = HostMemory::new(cap);
        m.dense_prefix(32 << 20);
        m.write(cap - 8, b"the top!");
        let mut buf = [0xAAu8; 8];
        m.read(cap - 8, &mut buf);
        assert_eq!(&buf, b"the top!");
        for addr in [0, 1 << 20, 32 << 20, 1 << 39, cap - 16] {
            let mut buf = [0xAAu8; 8];
            m.read(addr, &mut buf);
            assert_eq!(buf, [0; 8], "at {addr:#x}");
        }
        let top_line = cap - LINE_BYTES as u64;
        assert_eq!(&m.line(top_line).unwrap()[56..], b"the top!");
    }

    #[test]
    fn accesses_straddle_a_huge_page_boundary() {
        // With and without the hint, and with the boundary at the end of
        // the hinted prefix.
        for hint in [None, Some(2 * HUGE_PAGE as u64), Some(HUGE_PAGE as u64)] {
            let mut m = HostMemory::new(4 * HUGE_PAGE as u64);
            if let Some(len) = hint {
                m.dense_prefix(len);
            }
            let data: Vec<u8> = (0..200).map(|i| i as u8 ^ 0x5A).collect();
            for edge in [HUGE_PAGE as u64, 2 * HUGE_PAGE as u64] {
                let addr = edge - 77;
                m.write(addr, &data);
                let mut buf = vec![0u8; data.len()];
                m.read(addr, &mut buf);
                assert_eq!(buf, data, "hint {hint:?}, edge {edge:#x}");
                let line = m.line(edge - 1).expect("a whole line");
                assert_eq!(line[..], data[13..77], "hint {hint:?}, edge {edge:#x}");
            }
        }
    }

    #[test]
    fn the_hint_changes_no_byte() {
        // Capacity not a multiple of a line or a huge page, prefix not a
        // multiple of a huge page: the hint rounds down.
        let cap = 3 * HUGE_PAGE as u64 + 100;
        let mut plain = HostMemory::new(cap);
        let mut hinted = HostMemory::new(cap);
        hinted.dense_prefix(HUGE_PAGE as u64 + 4096);
        let mut rng = kvd_sim::DetRng::seed(7);
        let mut a = [0u8; 300];
        let mut b = [0u8; 300];
        for i in 0..2000 {
            let len = rng.usize_below(a.len() + 1);
            let addr = rng.u64_below(cap - len as u64 + 1);
            if i % 3 == 0 {
                rng.fill_bytes(&mut a[..len]);
                plain.write(addr, &a[..len]);
                hinted.write(addr, &a[..len]);
            }
            plain.read(addr, &mut a[..len]);
            hinted.read(addr, &mut b[..len]);
            assert_eq!(a[..len], b[..len], "read [{addr:#x}, +{len})");
            assert_eq!(plain.line(addr), hinted.line(addr), "line at {addr:#x}");
        }
        // The partial last line is lent by neither.
        let last = cap & !(LINE_BYTES as u64 - 1);
        assert_eq!(hinted.line(last), None);
        assert_eq!(plain.line(last), None);
        // A prefix beyond capacity is clamped, not refused.
        hinted.dense_prefix(u64::MAX);
        plain.read(0, &mut a);
        hinted.read(0, &mut b);
        assert_eq!(a, b);
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
        // the edge below page `p`.
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
    fn line_is_zeros_on_an_unwritten_page() {
        let mut m = HostMemory::new(1 << 20);
        m.write(PAGE_SIZE as u64, &[7]);
        assert_eq!(m.line(0), Some(&[0; LINE_BYTES]));
        assert_eq!(m.line(2 * PAGE_SIZE as u64), Some(&[0; LINE_BYTES]));
        assert_eq!(m.line(PAGE_SIZE as u64 + 100).map(|l| l[0]), Some(0));
        assert_eq!(m.line(PAGE_SIZE as u64).map(|l| l[0]), Some(7));
    }

    #[test]
    fn prefetch_never_changes_memory() {
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
            Some(&[0; LINE_BYTES]),
            "the second page still reads as zeros"
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
