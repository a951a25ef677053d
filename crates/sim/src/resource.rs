//! Contention models shared by the hardware simulations.
//!
//! Three primitives cover every bottleneck in the paper's evaluation:
//!
//! * [`BandwidthLink`] — serialization on a shared link (PCIe lanes, DDR3
//!   channel, 40 GbE port). Requests queue behind each other; the link
//!   tracks when it next becomes free.
//! * [`CreditPool`] — PCIe credit-based flow control (the root complex in
//!   the paper advertises 88 posted / 84 non-posted header credits).
//! * [`TagPool`] — PCIe DMA read tags (the paper's FPGA DMA engine supports
//!   64 tags, capping read concurrency at 64 requests in flight).

use crate::time::{Bandwidth, SimTime};

/// A bandwidth-limited, work-conserving serial link.
///
/// A transfer submitted at time `t` starts at `max(t, link free time)` and
/// occupies the link for `bytes / bandwidth`. This is the standard
/// single-server queue used for PCIe lane serialization, the NIC DRAM
/// channel and the Ethernet port.
///
/// # Examples
///
/// ```
/// use kvd_sim::{Bandwidth, BandwidthLink, SimTime};
///
/// let mut link = BandwidthLink::new(Bandwidth::from_gbytes_per_sec(1.0));
/// let done1 = link.transfer(SimTime::ZERO, 1000); // 1us
/// let done2 = link.transfer(SimTime::ZERO, 1000); // queues behind
/// assert_eq!(done1, SimTime::from_us(1));
/// assert_eq!(done2, SimTime::from_us(2));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    bandwidth: Bandwidth,
    free_at: SimTime,
    bytes_moved: u64,
}

impl BandwidthLink {
    /// Creates an idle link with the given bandwidth.
    pub fn new(bandwidth: Bandwidth) -> Self {
        BandwidthLink {
            bandwidth,
            free_at: SimTime::ZERO,
            bytes_moved: 0,
        }
    }

    /// Submits a transfer of `bytes` at time `now`; returns its completion
    /// time.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        let end = start + self.bandwidth.transfer_time(bytes);
        self.free_at = end;
        self.bytes_moved += bytes;
        end
    }

    /// Time at which the link next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes moved so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }
}

/// A counted-credit pool modelling PCIe flow control.
///
/// Credits are acquired when a TLP is issued and released when the far end
/// frees the buffer. A timed model schedules those releases itself (the
/// PCIe port keeps them on its event queue) and calls
/// [`release`](Self::release) when simulated time reaches them.
///
/// # Examples
///
/// ```
/// use kvd_sim::CreditPool;
///
/// let mut pool = CreditPool::new(2);
/// assert!(pool.try_acquire());
/// assert!(pool.try_acquire());
/// assert!(!pool.try_acquire());
/// pool.release();
/// assert!(pool.try_acquire());
/// ```
#[derive(Debug, Clone)]
pub struct CreditPool {
    capacity: u32,
    available: u32,
}

impl CreditPool {
    /// Creates a pool with `capacity` credits, all available.
    pub fn new(capacity: u32) -> Self {
        CreditPool {
            capacity,
            available: capacity,
        }
    }

    /// Acquires a credit immediately if one is available.
    pub fn try_acquire(&mut self) -> bool {
        if self.available > 0 {
            self.available -= 1;
            true
        } else {
            false
        }
    }

    /// Releases one credit immediately.
    pub fn release(&mut self) {
        assert!(self.available < self.capacity, "credit over-release");
        self.available += 1;
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.available
    }
}

/// A pool of identifying tags for out-of-order completions.
///
/// The paper's FPGA DMA engine supports 64 PCIe tags; a DMA read cannot be
/// issued until a tag is free, limiting read concurrency (and hence the
/// ~60 Mops read ceiling of Figure 3a).
#[derive(Debug, Clone)]
pub struct TagPool {
    free: Vec<u16>,
    capacity: u16,
}

impl TagPool {
    /// Creates a pool with tags `0..capacity`, all free.
    pub fn new(capacity: u16) -> Self {
        TagPool {
            free: (0..capacity).rev().collect(),
            capacity,
        }
    }

    /// Takes a free tag, if any.
    pub fn acquire(&mut self) -> Option<u16> {
        self.free.pop()
    }

    /// Returns a tag to the pool.
    pub fn release(&mut self, tag: u16) {
        debug_assert!(tag < self.capacity, "foreign tag");
        debug_assert!(!self.free.contains(&tag), "double release of tag {tag}");
        self.free.push(tag);
    }

    /// Number of free tags.
    pub fn available(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Bandwidth;

    #[test]
    fn link_serializes_back_to_back() {
        let mut link = BandwidthLink::new(Bandwidth::from_gbytes_per_sec(2.0));
        let a = link.transfer(SimTime::ZERO, 2000); // 1us
        let b = link.transfer(SimTime::from_ns(100), 2000); // queued
        assert_eq!(a, SimTime::from_us(1));
        assert_eq!(b, SimTime::from_us(2));
        assert_eq!(link.bytes_moved(), 4000);
    }

    #[test]
    fn link_idles_between_sparse_transfers() {
        let mut link = BandwidthLink::new(Bandwidth::from_gbytes_per_sec(1.0));
        link.transfer(SimTime::ZERO, 100); // done at 100ns
        let done = link.transfer(SimTime::from_us(5), 100);
        assert_eq!(done, SimTime::from_us(5) + SimTime::from_ns(100));
    }

    #[test]
    #[should_panic(expected = "credit over-release")]
    fn credit_pool_rejects_over_release() {
        let mut pool = CreditPool::new(1);
        pool.release();
    }

    #[test]
    fn tag_pool_acquire_release_cycle() {
        let mut pool = TagPool::new(4);
        let tags: Vec<u16> = std::iter::from_fn(|| pool.acquire()).collect();
        assert_eq!(tags.len(), 4);
        assert!(pool.acquire().is_none());
        pool.release(tags[2]);
        assert_eq!(pool.acquire(), Some(tags[2]));
    }

    #[test]
    fn tag_pool_tags_unique() {
        let mut pool = TagPool::new(64);
        let mut tags: Vec<u16> = std::iter::from_fn(|| pool.acquire()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 64);
    }
}
