//! The split NIC/host slab allocator (paper §3.3.2, Figure 8).
//!
//! The main allocator logic runs on the host CPU; the NIC holds per-size
//! caches of free-slab entries as double-ended stacks. The NIC pops/pushes
//! the left end on allocation/deallocation; the right end syncs with the
//! host-side pool in batches over DMA when watermarks trip, so the
//! amortized DMA cost per allocation is far below one operation.
//!
//! When a pool runs dry the host daemon *splits* a larger slab — a pure
//! entry copy, "without the need for computation", because the slab type
//! is carried inside the slab entry. When no larger slab is available,
//! buddies are *lazily merged* back into larger slabs using the global
//! allocation bitmap (see [`crate::merge`] for the standalone bitmap /
//! radix-sort merge kernels benchmarked in Figure 12).

use kvd_sim::{CostSource, OpLedger, SlabCosts};

use crate::bitmap::AllocBitmap;
use crate::class::{SlabClass, GRANULE};

/// Configuration for a [`SlabAllocator`].
#[derive(Debug, Clone)]
pub struct SlabConfig {
    /// Base address of the dynamic allocation region.
    pub base: u64,
    /// Length of the region in bytes (granule-aligned).
    pub len: u64,
    /// Largest class handed out (paper default: 512 B).
    pub max_class: SlabClass,
    /// NIC-side stack capacity per class (entries) — the high watermark.
    pub nic_stack_capacity: usize,
    /// Entries moved per DMA synchronization batch.
    pub sync_batch: usize,
}

impl SlabConfig {
    /// The paper's configuration over a given region: classes up to 512 B,
    /// NIC stacks of 64 entries, 32-entry sync batches.
    pub fn paper(base: u64, len: u64) -> Self {
        SlabConfig {
            base,
            len,
            max_class: SlabClass::for_size(512).expect("512B is a valid class"),
            nic_stack_capacity: 64,
            sync_batch: 32,
        }
    }

    /// Like [`SlabConfig::paper`] but with classes up to 64 KiB, for
    /// vector-value workloads (Table 2).
    pub fn extended(base: u64, len: u64) -> Self {
        SlabConfig {
            max_class: SlabClass::for_size(64 * 1024).expect("64KiB is a valid class"),
            ..SlabConfig::paper(base, len)
        }
    }
}

/// An allocated slab: address plus its size class.
///
/// The class is part of the address identity — a hash slot stores the
/// 31-bit pointer and the type field, and frees must present both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabAddr {
    /// Byte address of the slab.
    pub addr: u64,
    /// Its size class.
    pub class: SlabClass,
}

/// The split NIC/host slab allocator.
///
/// # Examples
///
/// ```
/// use kvd_slab::{SlabAllocator, SlabConfig};
///
/// let mut a = SlabAllocator::new(SlabConfig::paper(0, 1 << 20));
/// let s = a.alloc(100).expect("plenty of memory");
/// assert_eq!(s.class.size(), 128);
/// a.free(s);
/// ```
pub struct SlabAllocator {
    cfg: SlabConfig,
    /// NIC-side free-entry stacks, one per class (index by class index).
    nic: Vec<Vec<u64>>,
    /// Host-side authoritative pools.
    host: Vec<Vec<u64>>,
    bitmap: AllocBitmap,
    stats: SlabCosts,
}

impl SlabAllocator {
    /// Creates an allocator over the configured region, carving it into
    /// max-class slabs (plus a descending tail for the remainder).
    ///
    /// # Panics
    ///
    /// Panics if the region is not granule-aligned or the configuration is
    /// degenerate.
    pub fn new(cfg: SlabConfig) -> Self {
        assert_eq!(cfg.base % GRANULE, 0, "base must be granule-aligned");
        assert_eq!(cfg.len % GRANULE, 0, "length must be granule-aligned");
        assert!(cfg.sync_batch > 0, "sync batch must be positive");
        assert!(
            cfg.nic_stack_capacity >= cfg.sync_batch,
            "NIC stack must hold at least one sync batch"
        );
        let classes = cfg.max_class.index() + 1;
        let mut host: Vec<Vec<u64>> = vec![Vec::new(); classes];
        // Carve: as many max-class slabs as fit, then descend through the
        // smaller classes for the tail.
        let mut cursor = cfg.base;
        let end = cfg.base + cfg.len;
        let mut class = cfg.max_class;
        loop {
            let size = class.size();
            while cursor + size <= end {
                host[class.index()].push(cursor);
                cursor += size;
            }
            match class.smaller() {
                Some(c) => class = c,
                None => break,
            }
        }
        SlabAllocator {
            nic: vec![Vec::new(); classes],
            host,
            bitmap: AllocBitmap::new(cfg.base, cfg.len),
            stats: SlabCosts::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SlabConfig {
        &self.cfg
    }

    /// Allocates a slab fitting `size` bytes; returns `None` when the
    /// region is exhausted (after attempting splits and lazy merging) or
    /// `size` exceeds the largest configured class.
    pub fn alloc(&mut self, size: u64) -> Option<SlabAddr> {
        let class = match SlabClass::for_size(size) {
            Some(c) if c <= self.cfg.max_class => c,
            _ => {
                self.stats.failed_allocs += 1;
                return None;
            }
        };
        match self.pop_entry(class) {
            Some(addr) => {
                self.bitmap.set_range(addr, class.size(), true);
                self.stats.allocs += 1;
                Some(SlabAddr { addr, class })
            }
            None => {
                self.stats.failed_allocs += 1;
                None
            }
        }
    }

    /// Returns a slab to its pool.
    ///
    /// # Panics
    ///
    /// Panics on double free or a slab that was never allocated (the
    /// allocation bitmap is authoritative).
    pub fn free(&mut self, slab: SlabAddr) {
        assert!(
            slab.class <= self.cfg.max_class,
            "slab class larger than configured maximum"
        );
        let size = slab.class.size();
        assert_eq!(
            (slab.addr - self.cfg.base) % size,
            0,
            "free of misaligned slab {:#x}",
            slab.addr
        );
        assert!(
            self.bitmap.is_set(slab.addr),
            "double free or foreign slab at {:#x}",
            slab.addr
        );
        self.bitmap.set_range(slab.addr, size, false);
        self.nic[slab.class.index()].push(slab.addr);
        self.stats.frees += 1;
        // High watermark: spill a batch back to the host pool (one DMA).
        if self.nic[slab.class.index()].len() > self.cfg.nic_stack_capacity {
            let stack = &mut self.nic[slab.class.index()];
            let n = self.cfg.sync_batch.min(stack.len());
            self.host[slab.class.index()].extend(stack.drain(stack.len() - n..));
            self.stats.dma_syncs += 1;
            self.stats.entries_synced += n as u64;
        }
    }

    /// Pops a free entry of `class` from the NIC stack, refilling from the
    /// host (and splitting/merging there) as needed.
    fn pop_entry(&mut self, class: SlabClass) -> Option<u64> {
        if let Some(addr) = self.nic[class.index()].pop() {
            return Some(addr);
        }
        // Low watermark (empty): refill a batch from the host pool.
        if !self.ensure_host(class) {
            // Last resort: lazy merging may rebuild larger slabs from
            // scattered small ones — or coalesce fragmented small pools so
            // a split can succeed.
            self.lazy_merge();
            if !self.ensure_host(class) {
                return None;
            }
        }
        let pool = &mut self.host[class.index()];
        let n = self.cfg.sync_batch.min(pool.len());
        self.nic[class.index()].extend(pool.drain(pool.len() - n..));
        self.stats.dma_syncs += 1;
        self.stats.entries_synced += n as u64;
        self.nic[class.index()].pop()
    }

    /// Ensures the host pool of `class` can serve a full sync batch,
    /// splitting larger slabs as needed (the host daemon's low-watermark
    /// behaviour). Returns `false` if the pool stays empty.
    fn ensure_host(&mut self, class: SlabClass) -> bool {
        while self.host[class.index()].len() < self.cfg.sync_batch {
            if !self.split_one_into(class) {
                break;
            }
        }
        !self.host[class.index()].is_empty()
    }

    /// Splits one slab of the next larger class into two of `class`,
    /// recursively replenishing the larger pool if it is empty.
    /// Splitting copies entries; the slab type travels inside the entry so
    /// no computation is needed (paper §3.3.2).
    fn split_one_into(&mut self, class: SlabClass) -> bool {
        let Some(larger) = class.larger() else {
            return false;
        };
        if larger > self.cfg.max_class {
            return false;
        }
        if self.host[larger.index()].is_empty() && !self.split_one_into(larger) {
            return false;
        }
        let addr = match self.host[larger.index()].pop() {
            Some(a) => a,
            None => return false,
        };
        self.host[class.index()].push(addr);
        self.host[class.index()].push(addr + class.size());
        self.stats.splits += 1;
        true
    }

    /// Lazy merging: coalesce free buddies across all pools (host + NIC)
    /// into larger classes, guided by the allocation bitmap.
    pub fn lazy_merge(&mut self) {
        self.stats.merge_passes += 1;
        // Pull every free entry to the host side (the daemon's view).
        for c in 0..self.host.len() {
            let drained: Vec<u64> = self.nic[c].drain(..).collect();
            self.host[c].extend(drained);
        }
        for c_idx in 0..self.host.len() - 1 {
            let class = SlabClass::from_index(c_idx);
            let size = class.size();
            let pair = size * 2;
            let mut pool = std::mem::take(&mut self.host[c_idx]);
            pool.sort_unstable();
            let mut keep = Vec::with_capacity(pool.len());
            let mut i = 0;
            while i < pool.len() {
                let a = pool[i];
                let buddy_aligned = (a - self.cfg.base).is_multiple_of(pair);
                if buddy_aligned && i + 1 < pool.len() && pool[i + 1] == a + size {
                    self.host[c_idx + 1].push(a);
                    self.stats.merges += 1;
                    i += 2;
                } else {
                    keep.push(a);
                    i += 1;
                }
            }
            self.host[c_idx] = keep;
        }
    }

    /// Total free bytes across all pools (host + NIC caches).
    pub fn free_bytes(&self) -> u64 {
        SlabClass::all()
            .take(self.host.len())
            .map(|c| {
                let n = self.host[c.index()].len() + self.nic[c.index()].len();
                n as u64 * c.size()
            })
            .sum()
    }

    /// Bytes currently allocated (from the bitmap).
    pub fn allocated_bytes(&self) -> u64 {
        self.bitmap.allocated_granules() * GRANULE
    }

    /// Checks internal invariants; used by tests and property checks.
    ///
    /// # Panics
    ///
    /// Panics if free accounting and the allocation bitmap disagree, or if
    /// any free entry is misaligned or out of range.
    pub fn check_invariants(&self) {
        assert_eq!(
            self.free_bytes() + self.allocated_bytes(),
            self.cfg.len,
            "free + allocated must cover the region"
        );
        for c in SlabClass::all().take(self.host.len()) {
            for &addr in self.host[c.index()].iter().chain(&self.nic[c.index()]) {
                assert_eq!(
                    (addr - self.cfg.base) % c.size(),
                    0,
                    "misaligned free entry"
                );
                assert!(addr + c.size() <= self.cfg.base + self.cfg.len);
                assert!(
                    !self.bitmap.any_set(addr, c.size()),
                    "free entry {addr:#x} marked allocated"
                );
            }
        }
    }
}

impl CostSource for SlabAllocator {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.slab.merge(&self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SlabAllocator {
        SlabAllocator::new(SlabConfig::paper(0, 64 * 1024))
    }

    #[test]
    fn rounds_up_to_class() {
        let mut a = small();
        assert_eq!(a.alloc(1).unwrap().class.size(), 32);
        assert_eq!(a.alloc(33).unwrap().class.size(), 64);
        assert_eq!(a.alloc(512).unwrap().class.size(), 512);
        assert!(a.alloc(513).is_none(), "beyond paper max class");
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = small();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        while let Some(s) = a.alloc(100) {
            ranges.push((s.addr, s.addr + s.class.size()));
        }
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {w:?}");
        }
        // The whole region should be consumed by 128B slabs.
        assert_eq!(ranges.len(), 64 * 1024 / 128);
        a.check_invariants();
    }

    #[test]
    fn free_then_realloc_reuses() {
        let mut a = small();
        let s = a.alloc(100).unwrap();
        a.free(s);
        let t = a.alloc(100).unwrap();
        assert_eq!(s.addr, t.addr, "LIFO reuse from the NIC stack");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut a = small();
        let s = a.alloc(64).unwrap();
        a.free(s);
        a.free(s);
    }

    #[test]
    fn splitting_cascades_from_large_slabs() {
        let mut a = small();
        // Everything starts as 512B slabs; a 32B alloc forces splits
        // 512→256→128→64→32.
        let s = a.alloc(1).unwrap();
        assert_eq!(s.class.size(), 32);
        assert!(OpLedger::of(&a).slab.splits >= 4);
        a.check_invariants();
    }

    #[test]
    fn merge_rebuilds_large_slabs() {
        let mut a = small();
        // Exhaust as 32B slabs, free all, then ask for 512B.
        let slabs: Vec<SlabAddr> = std::iter::from_fn(|| a.alloc(1)).collect();
        assert!(a.alloc(512).is_none() || a.free_bytes() >= 512);
        for s in slabs {
            a.free(s);
        }
        let big = a.alloc(512);
        assert!(big.is_some(), "lazy merge must rebuild a 512B slab");
        assert!(OpLedger::of(&a).slab.merges > 0);
        assert!(OpLedger::of(&a).slab.merge_passes >= 1);
        a.check_invariants();
    }

    #[test]
    fn amortized_dma_below_paper_bound() {
        let mut a = small();
        // Steady-state churn: alternating alloc/free bursts.
        let mut live = Vec::new();
        for round in 0..100 {
            for _ in 0..20 {
                if let Some(s) = a.alloc(64) {
                    live.push(s);
                }
            }
            for _ in 0..20 {
                if round % 2 == 0 {
                    if let Some(s) = live.pop() {
                        a.free(s);
                    }
                }
            }
        }
        let st = OpLedger::of(&a).slab;
        let dma_per_op = st.dma_syncs as f64 / (st.allocs + st.frees) as f64;
        assert!(
            dma_per_op < 0.1,
            "amortized DMA per op {dma_per_op} exceeds the paper's bound"
        );
    }

    #[test]
    fn exhaustion_returns_none_not_panic() {
        let mut a = SlabAllocator::new(SlabConfig::paper(0, 1024));
        let n = std::iter::from_fn(|| a.alloc(512)).count();
        assert_eq!(n, 2);
        assert!(a.alloc(512).is_none());
        assert!(OpLedger::of(&a).slab.failed_allocs >= 1);
        a.check_invariants();
    }

    #[test]
    fn extended_classes_hold_large_vectors() {
        let mut a = SlabAllocator::new(SlabConfig::extended(0, 1 << 20));
        let s = a.alloc(64 * 1024).unwrap();
        assert_eq!(s.class.size(), 64 * 1024);
        assert!(a.alloc(64 * 1024 + 1).is_none());
    }

    #[test]
    fn nonzero_base_respected() {
        let base = 1 << 20;
        let mut a = SlabAllocator::new(SlabConfig::paper(base, 4096));
        let s = a.alloc(32).unwrap();
        assert!(s.addr >= base && s.addr < base + 4096);
        a.free(s);
        a.check_invariants();
    }

    #[test]
    fn unaligned_region_tail_is_carved_smaller() {
        // 544 = 512 + 32: one 512B slab and one 32B slab.
        let a = SlabAllocator::new(SlabConfig::paper(0, 544));
        assert_eq!(a.free_bytes(), 544);
    }

    #[test]
    fn workload_shift_small_to_large() {
        // Paper §5.1.2: merging is "practically only triggered when the
        // workload shifts from small KV to large KV".
        let mut a = small();
        let small_slabs: Vec<SlabAddr> = std::iter::from_fn(|| a.alloc(32)).collect();
        for s in small_slabs {
            a.free(s);
        }
        let before = OpLedger::of(&a).slab.merge_passes;
        // Shift to large KVs.
        let mut got = 0;
        while a.alloc(512).is_some() {
            got += 1;
        }
        assert_eq!(got, 64 * 1024 / 512);
        assert!(OpLedger::of(&a).slab.merge_passes > before);
    }
}
