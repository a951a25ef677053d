//! Discrete-event model of one PCIe DMA endpoint.
//!
//! [`DmaPort`] tracks both link directions, the read-tag pool, and the
//! posted/non-posted credit pools. Callers submit reads and writes with a
//! timestamp and get back the completion time; if tags or credits are
//! exhausted the call transparently waits for the earliest release, exactly
//! like the FPGA DMA engine stalls its pipeline.

use kvd_sim::{
    BandwidthLink, CostSource, CreditPool, DetRng, EventQueue, FaultPlane, Histogram, OpLedger,
    PcieFault, SimTime, TagPool,
};

use crate::config::PcieConfig;

/// Which kind of DMA transaction to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaKind {
    /// Non-posted read; consumes a tag and a non-posted header credit.
    Read,
    /// Posted write; consumes a posted header credit only.
    Write,
}

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
    /// Completions that arrived corrupted (LCRC failure) and were retried.
    pub corruptions: u64,
    /// Duplicate completions absorbed by the replay check.
    pub replays: u64,
    /// Reads whose completion never arrived; the tag was reclaimed after
    /// the completion timeout.
    pub timeouts: u64,
    /// Retry attempts performed by the bounded-backoff recovery engine.
    pub retries: u64,
    /// Reads abandoned after the retry budget ran out.
    pub failed_reads: u64,
}

/// Unrecoverable DMA failure surfaced by [`DmaPort::try_read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// Every attempt was corrupted or timed out; the engine gave up after
    /// `attempts` tries.
    RetriesExhausted {
        /// Total attempts made (1 initial + configured retries).
        attempts: u32,
    },
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::RetriesExhausted { attempts } => {
                write!(f, "DMA read failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for DmaError {}

/// One PCIe Gen3 endpoint with tag- and credit-limited DMA.
///
/// # Examples
///
/// ```
/// use kvd_pcie::{DmaPort, PcieConfig};
/// use kvd_sim::SimTime;
///
/// let mut port = DmaPort::new(PcieConfig::gen3_x8(), 7);
/// // A single cached 64B read completes in ~815ns (800ns RTT + wire time).
/// let done = port.read(SimTime::ZERO, 64, true);
/// assert!(done >= SimTime::from_ns(800) && done < SimTime::from_ns(900));
/// ```
pub struct DmaPort {
    cfg: PcieConfig,
    /// NIC→host direction: read request TLPs and write TLPs.
    tx: BandwidthLink,
    /// Host→NIC direction: read completion TLPs.
    rx: BandwidthLink,
    tags: TagPool,
    nonposted: CreditPool,
    posted: CreditPool,
    releases: EventQueue<Release>,
    rng: DetRng,
    faults: FaultPlane,
    stats: PortStats,
    read_latency: Histogram,
}

impl DmaPort {
    /// Creates an idle port with the given configuration and RNG seed.
    pub fn new(cfg: PcieConfig, seed: u64) -> Self {
        DmaPort::with_faults(cfg, seed, FaultPlane::disabled())
    }

    /// Creates a port whose transactions suffer faults drawn from `faults`.
    pub fn with_faults(cfg: PcieConfig, seed: u64, faults: FaultPlane) -> Self {
        DmaPort {
            tags: TagPool::new(cfg.read_tags),
            nonposted: CreditPool::new(cfg.nonposted_header_credits),
            posted: CreditPool::new(cfg.posted_header_credits),
            tx: BandwidthLink::new(cfg.bandwidth),
            rx: BandwidthLink::new(cfg.bandwidth),
            releases: EventQueue::new(),
            rng: DetRng::seed(seed),
            faults,
            stats: PortStats::default(),
            read_latency: Histogram::new(),
            cfg,
        }
    }

    /// The endpoint configuration.
    pub fn config(&self) -> &PcieConfig {
        &self.cfg
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &PortStats {
        &self.stats
    }

    /// The port's fault plane (injection counters live here).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Mutable fault-plane access (rate changes, counter resets).
    pub fn faults_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
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
    ///
    /// # Panics
    ///
    /// Panics if the fault plane exhausts the retry budget; fault-aware
    /// callers use [`DmaPort::try_read`].
    pub fn read(&mut self, now: SimTime, bytes: u64, cached: bool) -> SimTime {
        self.try_read(now, bytes, cached)
            .expect("DMA read retry budget exhausted")
    }

    /// Issues a DMA read of `bytes` at `now`; returns its completion time
    /// or the failure after the bounded-backoff retry budget runs out.
    ///
    /// Recovery policy on an injected fault:
    ///
    /// * **Corrupted completion** — the TLPs still serialize on the link,
    ///   then fail the LCRC check; the tag frees immediately and the
    ///   engine retries after an exponential backoff.
    /// * **Lost completion (timeout)** — nothing arrives; the engine
    ///   waits out `tag_timeout`, reclaims the tag, then retries.
    /// * **Replayed completion** — the duplicate burns host→NIC
    ///   bandwidth but is absorbed by the sequence check; no retry.
    pub fn try_read(
        &mut self,
        now: SimTime,
        bytes: u64,
        cached: bool,
    ) -> Result<SimTime, DmaError> {
        let mut retries = 0u32;
        let mut backoff = self.cfg.retry_backoff;
        let mut attempt_at = now;
        let mut first_issue = None;
        loop {
            let (issue, tag) = self.wait_read_resources(attempt_at);
            let first_issue = *first_issue.get_or_insert(issue);
            // Request TLP (header only) serializes on the NIC→host link.
            let req_done = self.tx.transfer(issue, self.cfg.tlp_overhead_bytes);
            // Host-side service latency.
            let mut latency = self.cfg.cached_read_latency.sample(&mut self.rng);
            if !cached {
                latency +=
                    SimTime::from_ps(self.rng.u64_below(self.cfg.noncached_extra.as_ps() + 1));
            }
            let completion_bytes = self.cfg.wire_bytes(bytes);
            let retry_from = match self.faults.pcie_fault() {
                fault @ (PcieFault::None | PcieFault::Replay) => {
                    // Completion TLP(s) serialize on the host→NIC link.
                    let done = self.rx.transfer(req_done + latency, completion_bytes);
                    if fault == PcieFault::Replay {
                        // The duplicate completion serializes too, but the
                        // data was already accepted from the first copy.
                        self.stats.replays += 1;
                        self.rx.transfer(done, completion_bytes);
                    }
                    self.releases.push(done, Release::ReadDone { tag });
                    self.stats.reads += 1;
                    self.stats.read_bytes += bytes;
                    // Latency is measured from first issue (tag acquired),
                    // matching the paper's Figure 3b which plots per-request
                    // RTT, not queueing behind a saturating open loop.
                    self.read_latency.record_time(done - first_issue);
                    return Ok(done);
                }
                PcieFault::Corrupt => {
                    // Corrupted completion serializes, then fails LCRC; the
                    // tag frees as soon as the bad completion is consumed.
                    let done = self.rx.transfer(req_done + latency, completion_bytes);
                    self.releases.push(done, Release::ReadDone { tag });
                    self.stats.corruptions += 1;
                    done
                }
                PcieFault::Timeout => {
                    // No completion arrives; the tag is dead until the
                    // completion timeout reclaims it.
                    let dead = issue + self.cfg.tag_timeout;
                    self.releases.push(dead, Release::ReadDone { tag });
                    self.stats.timeouts += 1;
                    dead
                }
            };
            if retries >= self.cfg.read_retry_limit {
                self.stats.failed_reads += 1;
                self.faults.count_exhausted();
                return Err(DmaError::RetriesExhausted {
                    attempts: retries + 1,
                });
            }
            retries += 1;
            self.stats.retries += 1;
            self.faults.count_retry();
            attempt_at = retry_from + backoff;
            backoff = backoff * 2;
        }
    }

    /// Issues a posted DMA write of `bytes` at `now`; returns the time the
    /// last TLP leaves the NIC (posted writes do not wait for the host).
    pub fn write(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let issue = self.wait_posted_credit(now);
        let wire = self.cfg.wire_bytes(bytes);
        let sent = self.tx.transfer(issue, wire);
        // The root complex absorbs the TLP and returns the credit shortly
        // after it lands.
        self.releases.push(
            sent + self.cfg.posted_credit_return,
            Release::WriteCreditReturn,
        );
        self.stats.writes += 1;
        self.stats.write_bytes += bytes;
        sent
    }

    /// Issues either kind of DMA.
    pub fn dma(&mut self, now: SimTime, kind: DmaKind, bytes: u64, cached: bool) -> SimTime {
        match kind {
            DmaKind::Read => self.read(now, bytes, cached),
            DmaKind::Write => self.write(now, bytes),
        }
    }

    /// Payload bytes moved in both directions.
    pub fn payload_bytes(&self) -> u64 {
        self.stats.read_bytes + self.stats.write_bytes
    }

    /// Number of in-flight reads (issued, completion pending).
    pub fn inflight_reads(&self) -> usize {
        (self.cfg.read_tags as usize) - self.tags.available()
    }

    /// Read-tag pressure: in-flight reads relative to the tag window
    /// (paper: 64 outstanding TLP tags). 1.0 means a new read must wait
    /// for a completion — the PCIe-side backpressure signal the admission
    /// layer watches.
    pub fn tag_pressure(&self) -> f64 {
        self.inflight_reads() as f64 / self.cfg.read_tags as f64
    }

    /// The time at which all submitted traffic has drained from both link
    /// directions (used by closed-loop throughput drivers).
    pub fn horizon(&self) -> SimTime {
        self.tx.free_at().max(self.rx.free_at())
    }
}

impl CostSource for DmaPort {
    fn emit_costs(&self, out: &mut OpLedger) {
        // Traffic only: the fault-flavored `PortStats` fields
        // (corruptions, replays, timeouts, retries) are already counted
        // by the port's fault plane, which emits them below.
        let s = self.stats();
        out.pcie.dma_reads += s.reads;
        out.pcie.dma_writes += s.writes;
        out.pcie.read_bytes += s.read_bytes;
        out.pcie.write_bytes += s.write_bytes;
        out.pcie.tag_stalls += s.tag_stalls;
        out.pcie.credit_stalls += s.credit_stalls;
        self.faults().emit_costs(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::FaultRates;

    fn port() -> DmaPort {
        DmaPort::new(PcieConfig::gen3_x8(), 42)
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
        let mut min = SimTime::from_secs(1);
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
        // In-flight reads never exceeded the tag count, and tag pressure
        // reports the same envelope as a fraction.
        assert!(p.inflight_reads() <= 64);
        assert!(p.tag_pressure() <= 1.0);
        assert_eq!(p.tag_pressure(), p.inflight_reads() as f64 / 64.0);
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

    #[test]
    fn dma_dispatch_matches_direct_calls() {
        let mut a = port();
        let mut b = port();
        let ra = a.dma(SimTime::ZERO, DmaKind::Read, 64, true);
        let rb = b.read(SimTime::ZERO, 64, true);
        assert_eq!(ra, rb);
        let wa = a.dma(SimTime::from_us(5), DmaKind::Write, 64, true);
        let wb = b.write(SimTime::from_us(5), 64);
        assert_eq!(wa, wb);
    }

    fn faulty_port(rates: FaultRates) -> DmaPort {
        DmaPort::with_faults(PcieConfig::gen3_x8(), 42, FaultPlane::new(rates, 7))
    }

    #[test]
    fn disabled_fault_plane_is_bit_identical_to_plain_port() {
        let mut plain = port();
        let mut faulty = faulty_port(FaultRates::ZERO);
        for i in 0..500u64 {
            let t0 = SimTime::from_ns(137 * i);
            assert_eq!(plain.read(t0, 64, false), faulty.read(t0, 64, false));
            assert_eq!(plain.write(t0, 64), faulty.write(t0, 64));
        }
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(faulty.faults().ledger().total_faults(), 0);
    }

    #[test]
    fn always_corrupt_exhausts_retries_with_growing_backoff() {
        let rates = FaultRates {
            pcie_corrupt: 1.0,
            ..FaultRates::ZERO
        };
        let mut p = faulty_port(rates);
        let err = p.try_read(SimTime::ZERO, 64, true).unwrap_err();
        // read_retry_limit = 4 extra attempts -> 5 total.
        assert_eq!(err, DmaError::RetriesExhausted { attempts: 5 });
        assert_eq!(p.stats().corruptions, 5);
        assert_eq!(p.stats().retries, 4);
        assert_eq!(p.stats().failed_reads, 1);
        assert_eq!(p.stats().reads, 0, "failed reads must not count as reads");
        let c = p.faults().ledger().pcie;
        assert_eq!(c.corruptions, 5);
        assert_eq!(c.retries, 4);
        assert_eq!(c.exhausted, 1);
    }

    #[test]
    fn backoff_doubles_between_attempts() {
        // With corrupt rate 1.0 all 5 attempts fail; total elapsed includes
        // backoffs 200 + 400 + 800 + 1600 ns = 3 us of pure backoff, plus
        // 5 failed round trips (~815 ns each).
        let rates = FaultRates {
            pcie_corrupt: 1.0,
            ..FaultRates::ZERO
        };
        let mut p = faulty_port(rates);
        let before = SimTime::ZERO;
        let _ = p.try_read(before, 64, true);
        // Each retry restarts at prior-done + backoff, so the 5th attempt
        // issues no earlier than 4*815ns + (200+400+800)ns ≈ 4.6 us.
        // Verify via a follow-up clean read on a fresh port being far faster.
        let mut clean = port();
        let clean_done = clean.read(SimTime::ZERO, 64, true);
        assert!(clean_done < SimTime::from_ns(850));
    }

    #[test]
    fn timeout_reclaims_tag_after_completion_timeout() {
        let rates = FaultRates {
            pcie_timeout: 1.0,
            ..FaultRates::ZERO
        };
        let mut cfg = PcieConfig::gen3_x8();
        cfg.read_retry_limit = 1;
        cfg.read_tags = 1;
        let mut p = DmaPort::with_faults(cfg.clone(), 42, FaultPlane::new(rates, 7));
        // Attempt 1 issues at t=0, times out, tag reclaimed at 10us; retry
        // issues at 10.2us (backoff), times out again -> dead until 20.2us.
        let err = p.try_read(SimTime::ZERO, 64, true).unwrap_err();
        assert_eq!(err, DmaError::RetriesExhausted { attempts: 2 });
        assert_eq!(p.stats().timeouts, 2);
        // Turn faults off: the next read at t=0 must stall on the dead tag
        // until the completion timeout reclaims it at 20.2us, then finish
        // in one clean round trip.
        p.faults_mut().set_rates(FaultRates::ZERO);
        let reclaim_at = cfg.tag_timeout * 2 + cfg.retry_backoff;
        let done = p.read(SimTime::ZERO, 64, true);
        assert!(done > reclaim_at, "issued before tag reclamation: {done}");
        assert!(done < reclaim_at + SimTime::from_us(1), "got {done}");
        assert!(p.stats().tag_stalls > 0);
    }

    #[test]
    fn replay_burns_bandwidth_but_succeeds() {
        let rates = FaultRates {
            pcie_replay: 1.0,
            ..FaultRates::ZERO
        };
        let mut p = faulty_port(rates);
        let done = p.try_read(SimTime::ZERO, 64, true).expect("replay absorbs");
        assert!(done < SimTime::from_ns(850));
        assert_eq!(p.stats().replays, 1);
        assert_eq!(p.stats().reads, 1);
        assert_eq!(p.faults().ledger().pcie.replays, 1);
        // The duplicate completion occupies the rx link: a back-to-back
        // second read on a replaying port finishes later than on a clean one.
        let mut clean = port();
        clean.read(SimTime::ZERO, 64, true);
        let second_clean = clean.read(SimTime::ZERO, 64, true);
        let second_replay = p.read(SimTime::ZERO, 64, true);
        assert!(
            second_replay > second_clean,
            "{second_replay} vs {second_clean}"
        );
    }

    #[test]
    fn moderate_fault_rate_recovers_deterministically() {
        let rates = FaultRates {
            pcie_corrupt: 0.2,
            pcie_timeout: 0.05,
            ..FaultRates::ZERO
        };
        let run = |seed| {
            let mut p =
                DmaPort::with_faults(PcieConfig::gen3_x8(), 42, FaultPlane::new(rates, seed));
            let mut oks = 0u32;
            let mut last = SimTime::ZERO;
            for i in 0..300u64 {
                // Rare retry-budget exhaustion is a legal outcome at these
                // rates (p ≈ 0.25^5 per op); determinism is what's asserted.
                if let Ok(done) = p.try_read(SimTime::from_us(20 * i), 64, false) {
                    oks += 1;
                    last = done;
                }
            }
            (last, oks, p.stats().clone(), p.faults().ledger().clone())
        };
        let (a_last, a_oks, a_stats, a_counters) = run(7);
        let (b_last, b_oks, b_stats, b_counters) = run(7);
        assert_eq!(a_last, b_last);
        assert_eq!(
            (a_oks, &a_stats, &a_counters),
            (b_oks, &b_stats, &b_counters)
        );
        assert!(a_oks > 290, "recovery should absorb most faults: {a_oks}");
        assert!(a_counters.total_faults() > 0, "faults should have fired");
        let (_, _, c_stats, _) = run(8);
        assert_ne!(a_stats, c_stats, "different fault seed, different schedule");
    }
}
