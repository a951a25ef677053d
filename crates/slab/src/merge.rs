//! Standalone slab-merging kernels (paper §5.1.2, Figure 12).
//!
//! Merging free slab slots back into larger slabs means finding buddy
//! pairs among millions of free addresses. The paper compares two host-side
//! implementations:
//!
//! * **Bitmap** — fill the global allocation bitmap with the free slots
//!   (random offsets ⇒ random memory accesses), then scan it linearly for
//!   aligned free pairs. Dominated by the random writes; does not
//!   parallelize usefully.
//! * **Radix sort** — sort the free addresses (LSD radix, sequential
//!   passes), then scan adjacent entries. "Radix sort scales better to
//!   multiple cores than simple bitmap": the paper merges 4 billion slots
//!   in 30 s on one core and 1.8 s on 32 cores.
//!
//! Both kernels return identical merge results; Figure 12's harness times
//! them (wall-clock — these run on the real host CPU, just like the
//! paper's daemon).

use crate::class::GRANULE;

/// Result of a merge pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Base addresses of merged (double-size) slabs, sorted.
    pub merged: Vec<u64>,
    /// Free slots that found no buddy, sorted.
    pub unmerged: Vec<u64>,
}

/// Merges buddies among `free` slots of `slab_size` via the bitmap method.
///
/// `region_len` bounds the bitmap (one bit per granule, as in the real
/// allocator). Addresses are region-relative (base 0).
///
/// # Examples
///
/// ```
/// use kvd_slab::merge_bitmap;
///
/// let out = merge_bitmap(&[64, 0, 128], 1024, 64);
/// assert_eq!(out.merged, vec![0]);      // 0 and 64 form a 128B buddy pair
/// assert_eq!(out.unmerged, vec![128]);  // 128 is unpaired (buddy is 192)
/// ```
pub fn merge_bitmap(free: &[u64], region_len: u64, slab_size: u64) -> MergeOutcome {
    assert!(slab_size >= GRANULE && slab_size.is_power_of_two());
    let slots = region_len / slab_size;
    let mut bits = vec![0u64; (slots as usize).div_ceil(64)];
    // Phase 1: random writes into the bitmap (this is what the paper's
    // bitmap numbers measure — "filling the allocation bitmap with
    // potentially random offsets").
    for &addr in free {
        debug_assert_eq!(addr % slab_size, 0, "misaligned free slot");
        let slot = addr / slab_size;
        bits[(slot / 64) as usize] |= 1 << (slot % 64);
    }
    // Phase 2: linear scan for buddy pairs (even slot + odd slot).
    let mut merged = Vec::new();
    let mut unmerged = Vec::new();
    for pair in 0..slots / 2 {
        let even = 2 * pair;
        let odd = even + 1;
        let e = bits[(even / 64) as usize] >> (even % 64) & 1 != 0;
        let o = bits[(odd / 64) as usize] >> (odd % 64) & 1 != 0;
        match (e, o) {
            (true, true) => merged.push(even * slab_size),
            (true, false) => unmerged.push(even * slab_size),
            (false, true) => unmerged.push(odd * slab_size),
            (false, false) => {}
        }
    }
    // Odd trailing slot (region not a multiple of 2·slab_size).
    if slots % 2 == 1 {
        let last = slots - 1;
        if bits[(last / 64) as usize] >> (last % 64) & 1 != 0 {
            unmerged.push(last * slab_size);
        }
    }
    MergeOutcome { merged, unmerged }
}

/// Merges buddies among `free` slots via parallel LSD radix sort.
///
/// Equivalent output to [`merge_bitmap`], but the dominant phase (sorting)
/// parallelizes across `threads` cores.
pub fn merge_radix(free: &[u64], slab_size: u64, threads: usize) -> MergeOutcome {
    assert!(slab_size >= GRANULE && slab_size.is_power_of_two());
    assert!(threads >= 1);
    let mut keys: Vec<u64> = free.to_vec();
    radix_sort(&mut keys, threads);
    let mut merged = Vec::new();
    let mut unmerged = Vec::new();
    let pair = slab_size * 2;
    let mut i = 0;
    while i < keys.len() {
        let a = keys[i];
        debug_assert_eq!(a % slab_size, 0, "misaligned free slot");
        if a.is_multiple_of(pair) && i + 1 < keys.len() && keys[i + 1] == a + slab_size {
            merged.push(a);
            i += 2;
        } else {
            unmerged.push(a);
            i += 1;
        }
    }
    MergeOutcome { merged, unmerged }
}

/// Parallel LSD radix sort: 8 passes of 8-bit digits. Each pass computes
/// per-thread digit histograms, prefix-sums them into disjoint output
/// windows, and scatters in parallel.
fn radix_sort(keys: &mut Vec<u64>, threads: usize) {
    const DIGITS: usize = 256;
    let n = keys.len();
    if n == 0 {
        return;
    }
    let threads = threads.min(n);
    let mut src = std::mem::take(keys);
    let mut dst = vec![0u64; n];
    let max = src.iter().copied().max().unwrap_or(0);
    let passes = (64 - max.leading_zeros() as usize).div_ceil(8);
    for pass in 0..passes.max(1) {
        let shift = pass * 8;
        let chunk = n.div_ceil(threads);
        // Per-thread digit histograms.
        let mut hists = vec![vec![0usize; DIGITS]; threads];
        // A panicking sort thread panics the caller when its scope ends.
        std::thread::scope(|s| {
            for (t, hist) in hists.iter_mut().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                let slice = &src[lo.min(n)..hi];
                s.spawn(move || {
                    for &k in slice {
                        hist[(k >> shift) as usize & 0xFF] += 1;
                    }
                });
            }
        });
        // Global prefix sums: offsets[t][d] = start of thread t's digit-d
        // output window.
        let mut offsets = vec![vec![0usize; DIGITS]; threads];
        let mut acc = 0usize;
        for d in 0..DIGITS {
            for t in 0..threads {
                offsets[t][d] = acc;
                acc += hists[t][d];
            }
        }
        // Parallel scatter: each (thread, digit) window is disjoint, so
        // threads write disjoint regions of `dst`.
        let dst_ptr = SendPtr(dst.as_mut_ptr());
        std::thread::scope(|s| {
            for (t, offs) in offsets.iter_mut().enumerate() {
                let lo = (t * chunk).min(n);
                let hi = ((t + 1) * chunk).min(n);
                let slice = &src[lo..hi];
                s.spawn(move || {
                    // Bind the wrapper (not its field) so the closure
                    // captures the `Send` SendPtr, not the raw pointer.
                    let dst = dst_ptr;
                    for &k in slice {
                        let d = (k >> shift) as usize & 0xFF;
                        // SAFETY: `offs[d]` starts at this thread's
                        // exclusive window for digit `d` (global prefix
                        // sum over per-thread histograms) and is bumped
                        // once per element counted in that histogram, so
                        // every index written here is unique across all
                        // threads and within bounds (`acc` totals `n`).
                        unsafe {
                            *dst.0.add(offs[d]) = k;
                        }
                        offs[d] += 1;
                    }
                });
            }
        });
        std::mem::swap(&mut src, &mut dst);
    }
    *keys = src;
}

/// A raw pointer wrapper that may cross thread boundaries.
#[derive(Clone, Copy)]
struct SendPtr(*mut u64);

// SAFETY: the scatter phase writes strictly disjoint index sets per
// thread (see the SAFETY comment at the write site); the pointer itself
// carries no thread affinity.
unsafe impl Send for SendPtr {}
// SAFETY: shared access is only used to copy the pointer value.
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::DetRng;

    fn random_free_slots(n: usize, slots: u64, slab: u64, seed: u64) -> Vec<u64> {
        // Sample n distinct slots.
        let mut rng = DetRng::seed(seed);
        let mut set = std::collections::HashSet::new();
        while set.len() < n {
            set.insert(rng.u64_below(slots) * slab);
        }
        set.into_iter().collect()
    }

    #[test]
    fn bitmap_and_radix_agree() {
        let slab = 64u64;
        let region = 1 << 20;
        let free = random_free_slots(5000, region / slab, slab, 42);
        let a = merge_bitmap(&free, region, slab);
        let mut b = merge_radix(&free, slab, 4);
        b.merged.sort_unstable();
        b.unmerged.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.merged.len() * 2 + a.unmerged.len(), free.len());
    }

    #[test]
    fn all_slots_free_merges_everything() {
        let slab = 32u64;
        let region = 4096u64;
        let free: Vec<u64> = (0..region / slab).map(|i| i * slab).collect();
        let out = merge_bitmap(&free, region, slab);
        assert_eq!(out.merged.len() as u64, region / slab / 2);
        assert!(out.unmerged.is_empty());
        let out2 = merge_radix(&free, slab, 2);
        assert_eq!(out2.merged.len(), out.merged.len());
    }

    #[test]
    fn no_buddies_no_merges() {
        let slab = 32u64;
        // Only even slots free: every buddy (odd slot) is missing.
        let free: Vec<u64> = (0..64).map(|i| i * 2 * slab).collect();
        let out = merge_radix(&free, slab, 3);
        assert!(out.merged.is_empty());
        assert_eq!(out.unmerged.len(), 64);
    }

    #[test]
    fn radix_sort_sorts() {
        let mut rng = DetRng::seed(7);
        let mut v: Vec<u64> = (0..10_000).map(|_| rng.u64()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v, 4);
        assert_eq!(v, expect);
    }

    #[test]
    fn radix_sort_thread_counts_agree() {
        let mut rng = DetRng::seed(8);
        let base: Vec<u64> = (0..5000).map(|_| rng.u64_below(1 << 40)).collect();
        let mut reference = base.clone();
        reference.sort_unstable();
        for t in [1, 2, 3, 8, 16] {
            let mut v = base.clone();
            radix_sort(&mut v, t);
            assert_eq!(v, reference, "threads = {t}");
        }
    }

    #[test]
    fn radix_sort_empty_and_tiny() {
        let mut empty: Vec<u64> = vec![];
        radix_sort(&mut empty, 4);
        assert!(empty.is_empty());
        let mut one = vec![5u64];
        radix_sort(&mut one, 4);
        assert_eq!(one, vec![5]);
    }

    #[test]
    fn odd_region_tail_handled() {
        // Region of 3 slabs: slot 2 has no buddy slot 3.
        let slab = 32u64;
        let free = vec![0, 32, 64];
        let out = merge_bitmap(&free, 96, slab);
        assert_eq!(out.merged, vec![0]);
        assert_eq!(out.unmerged, vec![64]);
    }
}
