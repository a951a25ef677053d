//! Discrete-event model of one PCIe DMA endpoint.
//!
//! [`DmaPort`] tracks both link directions, the read-tag pool, and the
//! posted/non-posted credit pools. Callers submit reads and writes with a
//! timestamp and get back the completion time; if tags or credits are
//! exhausted the call transparently waits for the earliest release, exactly
//! like the FPGA DMA engine stalls its pipeline.

use kvd_sim::{
    Bandwidth, BandwidthLink, CreditPool, DetRng, EventQueue, Histogram, SimTime, TagPool,
};

use crate::config::{
    wire_bytes, CACHED_READ_LATENCY, ENDPOINT_GBYTES_PER_SEC, NONCACHED_EXTRA,
    NONPOSTED_HEADER_CREDITS, POSTED_CREDIT_RETURN, POSTED_HEADER_CREDITS, READ_TAGS,
    TLP_OVERHEAD_BYTES,
};

/// Internal completion event kinds.
#[derive(Debug, Clone, Copy)]
enum Release {
    ReadDone { tag: u16 },
    WriteCreditReturn,
}

/// Aggregate traffic statistics of a [`DmaPort`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Completed DMA reads.
    pub reads: u64,
    /// Completed DMA writes.
    pub writes: u64,
    /// Payload bytes read.
    pub read_bytes: u64,
    /// Payload bytes written.
    pub write_bytes: u64,
    /// Times a read had to wait for a free tag.
    pub tag_stalls: u64,
    /// Times a transaction had to wait for a flow-control credit.
    pub credit_stalls: u64,
}

/// One PCIe Gen3 endpoint with tag- and credit-limited DMA.
///
/// # Examples
///
/// ```
/// use kvd_pcie::DmaPort;
/// use kvd_sim::SimTime;
///
/// let mut port = DmaPort::new(7);
/// // A single cached 64B read completes in ~815ns (800ns RTT + wire time).
/// let done = port.read(SimTime::ZERO, 64, true);
/// assert!(done >= SimTime::from_ns(800) && done < SimTime::from_ns(900));
/// ```
pub struct DmaPort {
    /// NIC→host direction: read request TLPs and write TLPs.
    tx: BandwidthLink,
    /// Host→NIC direction: read completion TLPs.
    rx: BandwidthLink,
    tags: TagPool,
    nonposted: CreditPool,
    posted: CreditPool,
    /// Tag and credit returns, applied as simulated time reaches them.
    releases: EventQueue<Release>,
    rng: DetRng,
    stats: PortStats,
    read_latency: Histogram,
}

impl DmaPort {
    /// Creates an idle port with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        let bandwidth = Bandwidth::from_gbytes_per_sec(ENDPOINT_GBYTES_PER_SEC);
        DmaPort {
            tags: TagPool::new(READ_TAGS),
            nonposted: CreditPool::new(NONPOSTED_HEADER_CREDITS),
            posted: CreditPool::new(POSTED_HEADER_CREDITS),
            tx: BandwidthLink::new(bandwidth),
            rx: BandwidthLink::new(bandwidth),
            releases: EventQueue::new(),
            rng: DetRng::seed(seed),
            stats: PortStats::default(),
            read_latency: Histogram::new(),
        }
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &PortStats {
        &self.stats
    }

    /// Histogram of read round-trip latencies (picoseconds).
    pub fn read_latency(&self) -> &Histogram {
        &self.read_latency
    }

    /// Applies all resource releases scheduled at or before `now`.
    fn drain_releases(&mut self, now: SimTime) {
        while let Some(at) = self.releases.peek_time() {
            if at > now {
                break;
            }
            let (_, rel) = self.releases.pop().expect("peeked event vanished");
            match rel {
                Release::ReadDone { tag } => {
                    self.tags.release(tag);
                    self.nonposted.release();
                }
                Release::WriteCreditReturn => self.posted.release(),
            }
        }
    }

    /// Blocks (in simulated time) until a read tag and non-posted credit
    /// are available; returns the possibly-postponed issue time.
    fn wait_read_resources(&mut self, mut now: SimTime) -> (SimTime, u16) {
        loop {
            self.drain_releases(now);
            if self.tags.available() > 0 && self.nonposted.available() > 0 {
                let tag = self.tags.acquire().expect("tag checked available");
                assert!(self.nonposted.try_acquire(), "credit checked available");
                return (now, tag);
            }
            if self.tags.available() == 0 {
                self.stats.tag_stalls += 1;
            } else {
                self.stats.credit_stalls += 1;
            }
            let next = self
                .releases
                .peek_time()
                .expect("resources exhausted with no pending release");
            now = now.max(next);
        }
    }

    fn wait_posted_credit(&mut self, mut now: SimTime) -> SimTime {
        loop {
            self.drain_releases(now);
            if self.posted.try_acquire() {
                return now;
            }
            self.stats.credit_stalls += 1;
            let next = self
                .releases
                .peek_time()
                .expect("credits exhausted with no pending return");
            now = now.max(next);
        }
    }

    /// Issues a DMA read of `bytes` at `now`; returns its completion time.
    ///
    /// `cached` selects the paper's cached-read latency (800 ns); random
    /// reads to host DRAM add a 0–500 ns uniform spread (≈250 ns mean).
    pub fn read(&mut self, now: SimTime, bytes: u64, cached: bool) -> SimTime {
        let (issue, tag) = self.wait_read_resources(now);
        // Request TLP (header only) serializes on the NIC→host link.
        let req_done = self.tx.transfer(issue, TLP_OVERHEAD_BYTES);
        // Host-side service latency.
        let mut latency = CACHED_READ_LATENCY;
        if !cached {
            latency += SimTime::from_ps(self.rng.u64_below(NONCACHED_EXTRA.as_ps() + 1));
        }
        // Completion TLP(s) serialize on the host→NIC link.
        let done = self.rx.transfer(req_done + latency, wire_bytes(bytes));
        self.releases.push(done, Release::ReadDone { tag });
        self.stats.reads += 1;
        self.stats.read_bytes += bytes;
        // Latency is measured from issue (tag acquired), matching the
        // paper's Figure 3b which plots per-request RTT, not queueing
        // behind a saturating open loop.
        self.read_latency.record_time(done - issue);
        done
    }

    /// Issues a posted DMA write of `bytes` at `now`; returns the time the
    /// last TLP leaves the NIC (posted writes do not wait for the host).
    pub fn write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let issue = self.wait_posted_credit(now);
        let wire = wire_bytes(bytes);
        let sent = self.tx.transfer(issue, wire);
        // The root complex absorbs the TLP and returns the credit shortly
        // after it lands.
        self.releases
            .push(sent + POSTED_CREDIT_RETURN, Release::WriteCreditReturn);
        self.stats.writes += 1;
        self.stats.write_bytes += bytes;
        sent
    }

    /// The time at which all submitted traffic has drained from both link
    /// directions (used by closed-loop throughput drivers).
    pub fn horizon(&self) -> SimTime {
        self.tx.free_at().max(self.rx.free_at())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> DmaPort {
        DmaPort::new(42)
    }

    #[test]
    fn single_cached_read_latency() {
        let mut p = port();
        let done = p.read(SimTime::ZERO, 64, true);
        // 800ns RTT + 26B request + 90B completion serialization ≈ 815ns.
        assert!(done > SimTime::from_ns(800));
        assert!(done < SimTime::from_ns(850), "got {done}");
        assert_eq!(p.stats().reads, 1);
        assert_eq!(p.stats().read_bytes, 64);
    }

    #[test]
    fn noncached_read_adds_spread() {
        let mut p = port();
        let mut min = SimTime::from_ms(1_000);
        let mut max = SimTime::ZERO;
        for i in 0..200 {
            // Space requests out so they don't queue.
            let t0 = SimTime::from_us(10 * i);
            let done = p.read(t0, 64, false);
            let lat = done - t0;
            min = min.min(lat);
            max = max.max(lat);
        }
        assert!(min >= SimTime::from_ns(800));
        assert!(max > SimTime::from_ns(1200), "spread too small: {max}");
        assert!(max <= SimTime::from_ns(1350));
    }

    #[test]
    fn tag_pool_limits_concurrency() {
        let mut p = port();
        // Issue 100 reads at t=0: only 64 tags exist, so some must stall.
        for _ in 0..100 {
            p.read(SimTime::ZERO, 64, false);
        }
        assert!(p.stats().tag_stalls > 0);
    }

    #[test]
    fn writes_are_posted_and_fast() {
        let mut p = port();
        let done = p.write(SimTime::ZERO, 64);
        // A write only waits for serialization (~11ns for 90B), not an RTT.
        assert!(done < SimTime::from_ns(50), "got {done}");
    }

    #[test]
    fn write_credits_bound_burst() {
        let mut p = port();
        // 88 posted credits; a large burst must hit credit stalls eventually
        // if serialization outpaces credit return. With 90B TLPs at 7.87GB/s
        // a TLP takes ~11.4ns; credits return 300ns after send, so ~27
        // credits are consumed before the first return — no stall. Issue
        // enough to wrap the credit window several times.
        for _ in 0..1000 {
            p.write(SimTime::ZERO, 64);
        }
        assert_eq!(p.stats().writes, 1000);
        // Throughput stays bandwidth-bound: last completion near
        // 1000 * 90B / 7.87GB/s ≈ 11.4us.
        let last = p.write(SimTime::ZERO, 64);
        assert!(
            last > SimTime::from_us(11) && last < SimTime::from_us(16),
            "{last}"
        );
    }

    #[test]
    fn read_throughput_is_tag_limited_at_64b() {
        // Closed-loop: keep 200 requests outstanding, measure completions.
        let mut p = port();
        let n = 5000u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = last.max(p.read(SimTime::ZERO, 64, false));
        }
        let mops = n as f64 / last.as_secs_f64() / 1e6;
        // Paper Figure 3a: ~60 Mops for 64B random reads (64 tags / ~1.05us).
        assert!(mops > 50.0 && mops < 70.0, "got {mops} Mops");
    }

    #[test]
    fn write_throughput_near_bandwidth_bound_at_64b() {
        let mut p = port();
        let n = 5000u64;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = last.max(p.write(SimTime::ZERO, 64));
        }
        let mops = n as f64 / last.as_secs_f64() / 1e6;
        // Bandwidth bound is 87.4 Mops; posted writes should get close.
        assert!(mops > 80.0, "got {mops} Mops");
    }

    #[test]
    fn large_reads_split_tlps() {
        let mut p = port();
        let done_small = p.read(SimTime::ZERO, 64, true) - SimTime::ZERO;
        let mut p2 = port();
        let done_big = p2.read(SimTime::ZERO, 1024, true) - SimTime::ZERO;
        // 1KiB completion (4 TLPs, 1128B wire) takes longer than 90B.
        assert!(done_big > done_small);
    }
}
