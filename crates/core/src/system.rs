//! Timed end-to-end system simulation (client ↔ NIC ↔ host memory).
//!
//! Throughput and latency are simulated, not composed: a closed-loop
//! client sends batched request packets over the 40 GbE model, the KV
//! processor executes each operation functionally (so access counts are
//! real, per operation), and every memory access is charged to the PCIe
//! DMA ports or the NIC DRAM channel in simulated time, respecting
//! dependency order (a GET's data read waits for its bucket read; posted
//! writes do not extend the critical path). Client-observed latencies
//! land in a histogram, yielding the paper's 5th/95th-percentile error
//! bars (Figure 17) from first principles.
//!
//! The simulator owns no request: the caller owns the stream and lends it.
//! [`SystemSim::begin_run`] opens a run and [`SystemSim::step_window_over`]
//! advances it only up to a time horizon over a borrowed
//! [`RequestStream`], reporting how many host-memory cache lines the
//! window consumed. The parallel multi-NIC engine ([`crate::parallel`])
//! drives one `SystemSim` per shard window by window over its routed view
//! of the caller's slice and charges the aggregate host traffic to a
//! shared DRAM arbiter; the cluster plane ([`crate::cluster`]) lends each
//! member a feed that grows at its tail between windows;
//! [`SystemSim::run`] and [`SystemSim::run_open`] are the single-shard
//! form: one unbounded window over the caller's own slice.
//!
//! # Open-loop mode and the overload plane
//!
//! Whether a run is closed- or open-loop is a property of the stream, not
//! of the simulator: a stream whose [`RequestStream::arrival`] answers
//! carries an *arrival schedule* — each request is issued at its instant,
//! independent of responses — and the batch loop, monomorphised per
//! stream type, asks it where a closed loop consults its client windows.
//! Offered load can then exceed capacity,
//! which is where the overload plane earns its keep: a per-batch
//! [`PressureGauge`] folds the simulated-time backlogs (decode queue,
//! PCIe tag pressure, host-arbiter stretch) into the store's admission
//! controller, the decode clock drives server-side deadline expiry, and
//! requests already past their deadline at batch-cut are dropped at the
//! client before burning wire bandwidth. [`SystemSimReport`] separates
//! *goodput* (useful, on-time responses) from raw completions, and the
//! request/response links inherit the store's fault plane so packet
//! drops and reorders ride the same deterministic schedule.

use kvd_mem::MemoryEngine;
use kvd_mem::NIC_DRAM_GBYTES_PER_SEC;
use kvd_net::{KvRequest, KvRequestRef, KvResponse, NetLink, OpCode, Status};
use kvd_pcie::config::{
    mean_random_read_latency, wire_bytes, CACHED_READ_LATENCY, ENDPOINT_GBYTES_PER_SEC,
    NONCACHED_EXTRA, READ_TAGS,
};
use kvd_sim::{
    Bandwidth, CostSource, DetRng, FaultPlane, Freq, Histogram, OpClass, OpLedger, PressureGauge,
    SimTime,
};
pub use kvd_sim::{Percentile, RunSummary};

use crate::parallel::Routed;
pub use crate::processor::RequestStream;
use crate::store::{KvDirectConfig, KvDirectStore};

/// Salt separating the network links' fault stream from the store's
/// (memory + processor) streams derived from the same `fault_seed`.
const NET_FAULT_SALT: u64 = 0x6E65_745F_6C6E_6B73; // "net_lnks"

/// PCIe endpoints on the NIC (paper: 2), each a Gen3 x8 endpoint as
/// [`kvd_pcie::config`] describes it.
pub const PCIE_PORTS: u64 = 2;

/// Processor clock in MHz (paper: 180; one op decodes per cycle).
pub const CLOCK_MHZ: u64 = 180;

/// NIC DRAM random access time per 64 B line.
const DRAM_ACCESS: SimTime = SimTime::from_ns(120);

/// One processor clock cycle.
fn cycle() -> SimTime {
    Freq::from_mhz(CLOCK_MHZ).cycle()
}

/// Configuration of the end-to-end simulation. The devices are the
/// paper's testbed: 40 GbE links ([`kvd_net::config`]), [`PCIE_PORTS`]
/// Gen3 x8 endpoints ([`kvd_pcie::config`]), a [`CLOCK_MHZ`] pipeline and
/// a [`NIC_DRAM_GBYTES_PER_SEC`] NIC DRAM channel.
#[derive(Debug, Clone)]
pub struct SystemSimConfig {
    /// Store configuration (memory sizes, ratios).
    pub store: KvDirectConfig,
    /// Operations per request packet (1 = no batching).
    pub batch: usize,
    /// Client windows kept in flight (closed loop).
    pub windows: usize,
}

impl SystemSimConfig {
    /// The paper's testbed at the given store scale.
    pub fn paper(store: KvDirectConfig, batch: usize) -> Self {
        SystemSimConfig {
            store,
            batch,
            windows: 8,
        }
    }
}

/// Result of a simulation run: the shared [`RunSummary`] accounting
/// (throughput, goodput, latency percentiles — the report derefs to it),
/// plus the full op-cost ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSimReport {
    /// Core run accounting (ops, rates, latency summaries).
    pub summary: RunSummary,
    /// The full op-cost ledger: per-plane traffic, retire outcomes,
    /// per-component latency attribution and backpressure terms.
    pub ledger: OpLedger,
}

impl std::ops::Deref for SystemSimReport {
    type Target = RunSummary;

    fn deref(&self) -> &RunSummary {
        &self.summary
    }
}

/// The end-to-end simulator.
///
/// # Examples
///
/// ```
/// use kvd_core::system::{SystemSim, SystemSimConfig, Percentile};
/// use kvd_core::KvDirectConfig;
/// use kvd_net::KvRequest;
///
/// let mut sim = SystemSim::new(SystemSimConfig::paper(
///     KvDirectConfig::with_memory(1 << 20),
///     8,
/// ));
/// // Preload, then measure a GET-only stream.
/// sim.store_mut().put(b"k", b"v").unwrap();
/// let reqs: Vec<KvRequest> = (0..256).map(|_| KvRequest::get(b"k")).collect();
/// let report = sim.run(&reqs);
/// assert!(report.get_us(Percentile::P50) > 1.0); // at least the network RTT
/// ```
pub struct SystemSim {
    cfg: SystemSimConfig,
    store: KvDirectStore,
    req_link: NetLink,
    resp_link: NetLink,
    rng: DetRng,
    /// Service time per 64 B host line across all PCIe endpoints: the
    /// tag-limited random-read rate (tags / mean RTT) or the wire
    /// bandwidth, whichever is slower.
    pcie_line_service: SimTime,
    /// Service time per 64 B line of NIC DRAM channel bandwidth.
    dram_line_service: SimTime,
    /// Fluid backlog clocks: how far each resource's committed work
    /// extends into the future.
    pcie_free: SimTime,
    dram_free: SimTime,
    /// When each reservation-station slot's data last arrived from memory,
    /// and its last write's: an op the station serves without a read of
    /// its own completes no earlier than one cycle after the first; without
    /// forwarding, a write stalls the decoder until the first and a read
    /// until the second. Persists across batches, as the station's
    /// forwarding entries do.
    slot_ready: Vec<[SimTime; 2]>,
    // ---- batch scratch, reused across batches and runs ----
    /// Positions in the lent stream of the batch's live requests.
    live: Vec<u32>,
    /// The live requests' responses, by position in `live` (one slot per
    /// request of a batch); their value buffers keep their capacity.
    responses: Vec<KvResponse>,
    /// The live requests' latency shares, by position in `live`.
    loads: Vec<OpLoad>,
    // ---- run state (begin_run/step_window_over/report) ----
    /// Position in the lent stream: requests before it have resolved.
    cursor: usize,
    window_free: Vec<SimTime>,
    server_free: SimTime,
    get_hist: Histogram,
    put_hist: Histogram,
    ops_done: u64,
    /// Instant the current run's clock starts, as given to
    /// [`Self::begin_run`]: where the component clocks stood for
    /// [`Self::run`], zero for [`Self::run_open`] (the arrival schedule
    /// owns the time axis).
    origin: SimTime,
    /// Arrival of the run's last response (absolute; the report covers
    /// `origin..makespan`).
    makespan: SimTime,
    // ---- overload state ----
    record_outcomes: bool,
    outcomes: Vec<(Status, Vec<u8>)>,
    goodput_ops: u64,
    shed_ops: u64,
    expired_ops: u64,
    /// The sim-side slice of the op-cost ledger: wire batch accounting,
    /// per-component latency attribution, and the raw backpressure terms
    /// the [`PressureGauge`] is computed from. Component costs (store,
    /// links) stay in their components; [`Self::ledger`] folds everything
    /// together.
    ledger: OpLedger,
}

/// One live operation's service time, split by component: what the timed
/// pass of a batch hands the resolving pass.
#[derive(Debug, Clone, Copy)]
struct OpLoad {
    /// Picoseconds attributed to the processor (decode backlog, own
    /// decode cycles, and the wait in the station for its slot's data).
    proc_ps: u64,
    /// Picoseconds attributed to PCIe (queueing on the tag-limited path
    /// + DMA round trips).
    pcie_ps: u64,
    /// Picoseconds attributed to NIC DRAM (queueing + line accesses).
    dram_ps: u64,
}

/// What one [`SystemSim::step_window_over`] window produced: just the
/// three scalars the parallel engine's window rendezvous reads, no
/// ledger materialization, so a shard's window stays off the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStep {
    /// Host-memory cache lines (PCIe DMA reads + writes) issued inside
    /// the window, which the arbiter charges against shared host DRAM
    /// bandwidth — equal to the window's ledger delta (the simulator's
    /// PCIe DMA ledger entries are sourced solely from the memory
    /// engine's access counters).
    pub host_lines: u64,
    /// The earliest instant the stream's next batch could cut, before any
    /// issue floor: the next batch's last arrival for a stream with a
    /// schedule, the earliest free client window for a closed loop,
    /// [`SimTime::MAX`] once the stream is drained. A window
    /// `[floor, horizon)` with `next_event >= horizon` processes nothing
    /// (batch issue times are floored at `floor < horizon` but start no
    /// earlier than this), which is what lets the parallel engine skip
    /// the shard for such a window (a null message) instead of stepping it.
    pub next_event: SimTime,
    /// True once every request of the lent stream has resolved.
    pub done: bool,
}

impl RequestStream for [(SimTime, KvRequest)] {
    fn len(&self) -> usize {
        <[_]>::len(self)
    }

    fn get(&self, i: usize) -> KvRequestRef<'_> {
        self[i].1.as_ref()
    }

    fn arrival(&self, i: usize) -> Option<SimTime> {
        Some(self[i].0)
    }
}

/// The input check of an open-loop schedule, made once where it enters an
/// engine ([`SystemSim::run_open`], the parallel engine's, the cluster's
/// feed): a batch cuts at its last request's arrival, so issue instants
/// must not go back.
///
/// # Panics
///
/// Panics if `arrivals` are not non-decreasing.
pub(crate) fn assert_arrivals_sorted(arrivals: impl IntoIterator<Item = SimTime>) {
    let mut last = SimTime::ZERO;
    for next in arrivals {
        assert!(
            next >= last,
            "open-loop arrivals must be non-decreasing: {next:?} after {last:?}"
        );
        last = next;
    }
}

impl SystemSim {
    /// Builds the simulator with the default seed.
    pub fn new(cfg: SystemSimConfig) -> Self {
        Self::with_seed(cfg, 0xE2E0)
    }

    /// Builds the simulator with an explicit seed; every source of
    /// simulated nondeterminism (read-latency jitter, tie-breaking
    /// noise) derives from it, so two sims with equal config + seed
    /// evolve bit-identically.
    pub fn with_seed(cfg: SystemSimConfig, seed: u64) -> Self {
        let windows = cfg.windows.max(1);
        // Per-line service time of one endpoint: a 64 B random read is
        // either tag-limited (paper: 64 tags over a ~1050 ns RTT, 61 Mops)
        // or wire-limited (90 B at 7.87 GB/s, 87 Mops); the endpoints
        // drain lines in parallel.
        let tag_limited = mean_random_read_latency() / u64::from(READ_TAGS);
        let wire_limited =
            Bandwidth::from_gbytes_per_sec(ENDPOINT_GBYTES_PER_SEC).transfer_time(wire_bytes(64));
        // The links share the store's fault schedule: one root plane per
        // sim, forked into independent request/response streams. Zero
        // rates (the default) never consume randomness, so a fault-free
        // sim is bit-identical to one built before links had faults.
        let mut net_faults =
            FaultPlane::new(cfg.store.fault_rates, cfg.store.fault_seed ^ NET_FAULT_SALT);
        SystemSim {
            store: KvDirectStore::new(cfg.store.clone()),
            req_link: NetLink::with_faults(net_faults.fork(1)),
            resp_link: NetLink::with_faults(net_faults.fork(2)),
            rng: DetRng::seed(seed),
            pcie_line_service: tag_limited.max(wire_limited) / PCIE_PORTS,
            dram_line_service: Bandwidth::from_gbytes_per_sec(NIC_DRAM_GBYTES_PER_SEC)
                .transfer_time(64),
            pcie_free: SimTime::ZERO,
            dram_free: SimTime::ZERO,
            slot_ready: vec![[SimTime::ZERO; 2]; cfg.store.station.hash_slots],
            live: Vec::new(),
            responses: vec![KvResponse::default(); cfg.batch.max(1)],
            loads: Vec::new(),
            cursor: 0,
            window_free: vec![SimTime::ZERO; windows],
            server_free: SimTime::ZERO,
            get_hist: Histogram::new(),
            put_hist: Histogram::new(),
            ops_done: 0,
            origin: SimTime::ZERO,
            makespan: SimTime::ZERO,
            record_outcomes: false,
            outcomes: Vec::new(),
            goodput_ops: 0,
            shed_ops: 0,
            expired_ops: 0,
            ledger: OpLedger::default(),
            cfg,
        }
    }

    /// The functional store (for preloading).
    pub fn store_mut(&mut self) -> &mut KvDirectStore {
        &mut self.store
    }

    /// Where the component clocks stand: the later of the previous run's
    /// last response and every link and service backlog — the earliest
    /// instant a new closed-loop run can open its client windows without
    /// queueing behind the previous one. Zero on a fresh engine.
    pub fn clock(&self) -> SimTime {
        [
            self.req_link.free_at(),
            self.resp_link.free_at(),
            self.pcie_free,
            self.dram_free,
        ]
        .into_iter()
        .fold(self.makespan, SimTime::max)
    }

    /// Opens a run at `origin`: resets per-run accounting (histograms, op
    /// counts, client windows, recorded outcomes, the position in the
    /// stream). Component clocks (links, service backlogs) persist, as
    /// they would across runs on real hardware; a closed loop's client
    /// windows open at `origin` and the report covers `origin..` the last
    /// response. The stream is then lent window by window
    /// ([`Self::step_window_over`]).
    pub fn begin_run(&mut self, origin: SimTime) {
        self.cursor = 0;
        self.window_free.fill(origin);
        self.server_free = SimTime::ZERO;
        self.get_hist.clear();
        self.put_hist.clear();
        self.ops_done = 0;
        self.origin = origin;
        self.makespan = origin;
        self.outcomes.clear();
        self.goodput_ops = 0;
        self.shed_ops = 0;
        self.expired_ops = 0;
        self.ledger = OpLedger::default();
    }

    /// Records every request's `(status, value)` outcome, aligned
    /// with the request stream, for consistency checking. Off by default
    /// (response values are large).
    pub fn set_record_outcomes(&mut self, on: bool) {
        self.record_outcomes = on;
    }

    /// Outcomes captured since the run began (empty unless
    /// [`Self::set_record_outcomes`] is on).
    pub fn outcomes(&self) -> &[(Status, Vec<u8>)] {
        &self.outcomes
    }

    /// The backpressure gauge computed for the most recent batch,
    /// derived from the ledger's raw backpressure terms.
    pub fn pressure(&self) -> PressureGauge {
        PressureGauge::from_terms(&self.ledger.pressure)
    }

    /// Folds the shared host arbiter's verdict for the previous lockstep
    /// window into this shard's pressure signal: `stall / quantum` is how
    /// far host DRAM oversubscription stretched simulated time. Called by
    /// the parallel engine at each window's rendezvous; purely a pressure input, it
    /// does not move any component clock (the engine's issue-floor
    /// already models the stall).
    pub fn absorb_host_stall(&mut self, stall: SimTime, quantum: SimTime) {
        self.ledger.pressure.stall_ps = stall.as_ps();
        self.ledger.pressure.quantum_ps = quantum.as_ps();
    }

    /// The simulation's full op-cost ledger: the sim-side run slice
    /// (batch fill, latency attribution, backpressure terms) folded with
    /// the store's costs and both network links'. Store and link
    /// counters span the component's lifetime (preload included).
    pub fn ledger(&self) -> OpLedger {
        let mut out = self.ledger.clone();
        self.store.emit_costs(&mut out);
        self.req_link.emit_costs(&mut out);
        self.resp_link.emit_costs(&mut out);
        out
    }

    /// Advances the run through one lookahead window over a stream the
    /// caller lends for the call; the simulator keeps only its position in
    /// it. Between the windows of one run (opened with
    /// [`Self::begin_run`]) the stream may only grow at its tail: what was
    /// lent before must read the same, so a host can be fed exactly the
    /// traffic the window discipline has made visible.
    ///
    /// Processes every batch whose client issue time — the last arrival of
    /// the batch, or the earliest free window of a closed loop, floored at
    /// `floor` — falls strictly before `horizon`, and returns the host
    /// cache-line traffic those batches generated.
    /// `floor` is how the multi-NIC arbiter stretches an oversubscribed
    /// window: requests in the next window cannot issue before the
    /// stretched start, so aggregate throughput degrades without any
    /// component clock rewinding. Traffic is charged to the window where
    /// the batch *issues* (a conservative approximation: completion may
    /// spill past the horizon by at most one batch's service time).
    pub fn step_window_over<S: RequestStream + ?Sized>(
        &mut self,
        reqs: &S,
        horizon: SimTime,
        floor: SimTime,
    ) -> WindowStep {
        let before = self.store.processor().table().mem().traffic();
        self.advance(reqs, horizon, floor);
        let after = self.store.processor().table().mem().traffic();
        let done = self.cursor >= reqs.len();
        let next_event = if done {
            SimTime::MAX
        } else {
            let end = (self.cursor + self.cfg.batch.max(1)).min(reqs.len());
            reqs.arrival(end - 1)
                .unwrap_or_else(|| self.earliest_window().1)
        };
        WindowStep {
            host_lines: (after.dma_reads + after.dma_writes)
                - (before.dma_reads + before.dma_writes),
            next_event,
            done,
        }
    }

    /// The closed-loop client's earliest free window and when it frees.
    fn earliest_window(&self) -> (usize, SimTime) {
        self.window_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(_, t)| t)
            .expect("at least one window")
    }

    /// The batch loop: runs the stream from `self.cursor` up to `horizon`.
    fn advance<S: RequestStream + ?Sized>(&mut self, reqs: &S, horizon: SimTime, floor: SimTime) {
        let batch = self.cfg.batch.max(1);
        let cycle = cycle();

        while self.cursor < reqs.len() {
            let end = (self.cursor + batch).min(reqs.len());
            let (start, window) = match reqs.arrival(end - 1) {
                // Open loop: the batch cuts when its last request
                // arrives, regardless of outstanding responses.
                Some(cut) => (cut.max(floor), None),
                // Closed loop: the client issues when its earliest
                // window frees up.
                None => {
                    let (w, free) = self.earliest_window();
                    (free.max(floor), Some(w))
                }
            };
            if start >= horizon {
                break;
            }

            // Client-side expiry at batch-cut: a request whose deadline
            // has already passed when the packet would reach the wire is
            // dropped before transmission. Under sustained overload this
            // is what bounds the wire backlog — without it the link
            // queue grows without limit and *every* response is late
            // (congestion collapse).
            let wire_start = start.max(self.req_link.free_at());
            self.live.clear();
            let mut req_bytes = 0u64;
            for i in self.cursor..end {
                let r = reqs.get(i);
                if r.deadline_us == 0 || wire_start <= SimTime::from_us(u64::from(r.deadline_us)) {
                    self.live.push(i as u32);
                    // Request packet: header-amortized batch on the wire,
                    // live requests only.
                    req_bytes += 4 + r.key.len() as u64 + r.value.len() as u64;
                }
            }
            let n = self.live.len();

            let resp_arrive = if n == 0 {
                // Every request in the batch died at the client: nothing
                // reaches the wire, the server, or the response path.
                self.makespan = self.makespan.max(start);
                start
            } else {
                let arrive = self.req_link.send(start, req_bytes);

                // Server: the decoder is a single 180 MHz pipeline shared
                // by all in-flight windows — a batch cannot start
                // decoding before the previous batch has drained it.
                let decode_start = arrive.max(self.server_free);

                // Backpressure gauge for this batch: simulated-time
                // backlogs the functional processor cannot see, each
                // normalized to its resource's capacity envelope. Fed to
                // the store's admission controller (inert unless the
                // overload plane is enabled).
                let station_cap = cycle * self.cfg.store.station.capacity as u64;
                let tag_cap = self.pcie_line_service * (u64::from(READ_TAGS) * PCIE_PORTS);
                let terms = &mut self.ledger.pressure;
                terms.station_backlog_ps = self.server_free.saturating_sub(arrive).as_ps();
                terms.station_cap_ps = station_cap.as_ps();
                terms.tag_backlog_ps = self.pcie_free.saturating_sub(arrive).as_ps();
                terms.tag_cap_ps = tag_cap.as_ps();
                let gauge = PressureGauge::from_terms(terms);
                self.store
                    .processor_mut()
                    .set_external_pressure(gauge.overall());

                // Pass 1: the live requests run through the processor as
                // one packet, as a served bundle does: admitted in order,
                // in flight together in the reservation station, retired,
                // and the dirty forwarding entries written back once at
                // the end. The deadline gate sees the batch's first decode
                // cycle. The processor records each op's own reads and
                // station slot; the batch's write-backs count only
                // towards its service totals below.
                self.store.processor_mut().set_now(decode_start + cycle);
                let before = self.store.processor().table().mem().traffic();
                let live = Routed {
                    reqs,
                    idx: &self.live,
                };
                self.store.run(&live, &mut self.responses[..n]);
                let after = self.store.processor().table().mem().traffic();
                self.server_free = decode_start + cycle * n as u64;
                self.ledger.net.batches += 1;
                self.ledger.net.batch_ops += n as u64;
                // Background reaper: one bounded sweep per batch, after
                // the functional pass. Its memory traffic flows through
                // the table's engine and is therefore captured by both the
                // ledger's DMA counters and the window host lines; it is
                // deliberately *not* charged to op latencies or the
                // PCIe/DRAM backlog clocks — the reaper rides idle gaps as
                // background traffic.
                if self.cfg.store.reap_buckets_per_batch > 0 {
                    self.store
                        .processor_mut()
                        .sweep_expired(self.cfg.store.reap_buckets_per_batch);
                }
                // Pass 2: charge the accesses against fluid service
                // models of the PCIe DMA engines and the NIC DRAM
                // channel. Independent operations overlap freely up to
                // each resource's service rate (tag-limited random reads
                // for PCIe, line bandwidth for DRAM); a saturated
                // resource shows up as a backlog clock running ahead of
                // arrivals, which delays every operation that touches it.
                // Within an op, dependent reads still chain (bucket →
                // data); writes, posted or written back, consume service
                // capacity but do not extend the critical path. An op the
                // station serves without a read of its own (forwarded,
                // or queued behind its slot's source) completes no earlier
                // than one cycle after that slot's last read arrives.
                // Without forwarding (Figure 13's baseline) a same-slot
                // hazard stalls the decoder, and every op after it, until
                // the source's data arrives; the backlogs drain meanwhile.
                let stalls = !self.cfg.store.station.forwarding;
                let mut stall = SimTime::ZERO;
                let pcie_queue = self.pcie_free.saturating_sub(arrive);
                let dram_queue = self.dram_free.saturating_sub(arrive);
                let mut batch_done = arrive;
                let mut resp_bytes = 0u64;
                self.loads.clear();
                let accesses = self.store.processor().accesses();
                for (k, (a, resp)) in accesses.iter().zip(&self.responses[..n]).enumerate() {
                    resp_bytes += 3 + resp.value.len() as u64;
                    let mut decoded = decode_start + stall + cycle * (k as u64 + 1);
                    let writes = stalls
                        && !matches!(
                            reqs.get(self.live[k] as usize).op,
                            OpCode::Get | OpCode::Reduce | OpCode::Filter
                        );
                    if let Some(slot) = a.slot.filter(|_| stalls) {
                        let hazard = self.slot_ready[slot][usize::from(!writes)];
                        stall += hazard.saturating_sub(decoded);
                        decoded = decoded.max(hazard);
                    }
                    let pcie_backlog = pcie_queue.saturating_sub(stall);
                    let dram_backlog = dram_queue.saturating_sub(stall);
                    // Queueing delay lands on whichever resource owns the
                    // dominant backlog; it is attributed to that component
                    // in the per-op latency breakdown.
                    let (queued, queued_is_pcie) = match (a.dma_reads > 0, a.dram_reads > 0) {
                        (true, true) => {
                            (pcie_backlog.max(dram_backlog), pcie_backlog >= dram_backlog)
                        }
                        (true, false) => (pcie_backlog, true),
                        (false, true) => (dram_backlog, false),
                        (false, false) => (SimTime::ZERO, true),
                    };
                    let mut t = decoded + queued;
                    let mut proc_ps = decoded.saturating_sub(arrive).as_ps();
                    let mut pcie_ps = if queued_is_pcie { queued.as_ps() } else { 0 };
                    let mut dram_ps = if queued_is_pcie { 0 } else { queued.as_ps() };
                    for _ in 0..a.dma_reads {
                        let mut rtt = CACHED_READ_LATENCY;
                        rtt += SimTime::from_ps(self.rng.u64_below(NONCACHED_EXTRA.as_ps() + 1));
                        pcie_ps += rtt.as_ps();
                        t += rtt;
                    }
                    for _ in 0..a.dram_reads {
                        dram_ps += DRAM_ACCESS.as_ps();
                        t += DRAM_ACCESS;
                    }
                    if let Some(slot) = a.slot {
                        let ready = &mut self.slot_ready[slot];
                        if a.dma_reads + a.dram_reads > 0 {
                            ready[0] = ready[0].max(t);
                            if writes {
                                ready[1] = ready[1].max(t);
                            }
                        } else if t < ready[0] + cycle {
                            proc_ps += (ready[0] + cycle - t).as_ps();
                            t = ready[0] + cycle;
                        }
                    }
                    self.loads.push(OpLoad {
                        proc_ps,
                        pcie_ps,
                        dram_ps,
                    });
                    batch_done = batch_done.max(t);
                }
                self.server_free += stall;
                let pcie_lines =
                    (after.dma_reads + after.dma_writes) - (before.dma_reads + before.dma_writes);
                let dram_lines = (after.dram_reads + after.dram_writes)
                    - (before.dram_reads + before.dram_writes);
                self.pcie_free = self.pcie_free.max(arrive) + self.pcie_line_service * pcie_lines;
                self.dram_free = self.dram_free.max(arrive) + self.dram_line_service * dram_lines;

                // Response packet for the batch.
                let resp_arrive = self.resp_link.send(batch_done, resp_bytes);
                if let Some(w) = window {
                    self.window_free[w] = resp_arrive;
                }
                self.makespan = self.makespan.max(resp_arrive);
                resp_arrive
            };

            // Pass 3: resolve every op in the batch, in stream order.
            // Client-expired, shed and server-expired ops count toward
            // `ops` but not goodput and land in no latency histogram (they
            // carry no service latency); a useful response must also beat
            // its deadline to count as goodput.
            let mut k = 0;
            for i in self.cursor..end {
                self.ops_done += 1;
                let live = self.live.get(k) == Some(&(i as u32));
                k += usize::from(live);
                let resp = live.then(|| &self.responses[k - 1]);
                let status = resp.map_or(Status::Expired, |r| r.status);
                self.ledger.net.client_expired += u64::from(!live);
                if self.record_outcomes {
                    let value = resp.map_or_else(Vec::new, |r| r.value.clone());
                    self.outcomes.push((status, value));
                }
                match status {
                    Status::Overloaded => self.shed_ops += 1,
                    Status::Expired => self.expired_ops += 1,
                    _ => {
                        let load = self.loads[k - 1];
                        let req = reqs.get(i);
                        let issued = reqs.arrival(i).unwrap_or(start);
                        let lat = resp_arrive.saturating_sub(issued);
                        // Per-component attribution: the processor, PCIe
                        // and DRAM shares are the op's measured service
                        // terms; the remainder (wire serialization,
                        // propagation, batch skew) is the network's.
                        let (proc, pcie, dram) = (load.proc_ps, load.pcie_ps, load.dram_ps);
                        let net = lat.as_ps().saturating_sub(proc + pcie + dram);
                        let class = match req.op {
                            OpCode::Put => OpClass::Put,
                            OpCode::Get => OpClass::Get,
                            _ => OpClass::Other,
                        };
                        self.ledger.latency.record(class, [net, pcie, dram, proc]);
                        // Tiny deterministic jitter spreads ties for
                        // percentile resolution (scheduling noise
                        // stand-in).
                        let jitter = SimTime::from_ps(self.rng.u64_below(50_000));
                        if req.op == OpCode::Put {
                            self.put_hist.record_time(lat + jitter);
                        } else {
                            self.get_hist.record_time(lat + jitter);
                        }
                        let deadline = req.deadline_us;
                        let on_time =
                            deadline == 0 || resp_arrive <= SimTime::from_us(u64::from(deadline));
                        if on_time && matches!(status, Status::Ok | Status::NotFound) {
                            self.goodput_ops += 1;
                        }
                    }
                }
            }
            self.cursor = end;
        }
    }

    /// Report over everything completed since the last
    /// [`Self::begin_run`], over that run's own span.
    pub fn report(&self) -> SystemSimReport {
        SystemSimReport {
            summary: RunSummary::new(
                self.ops_done,
                self.makespan.saturating_sub(self.origin),
                self.goodput_ops,
                self.shed_ops,
                self.expired_ops,
                &self.get_hist,
                &self.put_hist,
            ),
            ledger: self.ledger(),
        }
    }

    /// Raw latency histograms (GET, PUT) for cross-shard merging.
    pub fn histograms(&self) -> (&Histogram, &Histogram) {
        (&self.get_hist, &self.put_hist)
    }

    /// Runs the request stream to completion, returning the report.
    ///
    /// The client keeps `windows` batches outstanding; each batch's
    /// operations execute functionally (capturing their real memory
    /// accesses) and are charged in simulated time. One unbounded window
    /// read straight from `reqs`: nothing is staged or copied.
    ///
    /// The run starts where the component clocks stand
    /// ([`Self::clock`]) and reports over its own span, so a second run
    /// on one engine measures the second run. On a fresh engine that
    /// instant is zero.
    pub fn run(&mut self, reqs: &[KvRequest]) -> SystemSimReport {
        self.run_from(self.clock(), reqs)
    }

    /// Runs an *open-loop* arrival schedule to completion, returning the
    /// report: each request is issued at its scheduled instant regardless
    /// of outstanding responses, so offered load is a free variable (and
    /// may exceed capacity — that is the point). Batches cut every
    /// `cfg.batch` consecutive arrivals; a request whose deadline has
    /// already passed when its batch reaches the wire is dropped at the
    /// client, costing no bandwidth. With the overload plane enabled,
    /// offered load beyond the saturation point sheds instead of
    /// collapsing: `goodput_mops` holds near the knee while
    /// `shed_ops`/`expired_ops` absorb the excess. The schedule owns the
    /// time axis, so the run starts at zero, and like [`Self::run`] it
    /// reads `reqs` in place.
    ///
    /// # Panics
    ///
    /// Panics if arrival times are not non-decreasing.
    pub fn run_open(&mut self, reqs: &[(SimTime, KvRequest)]) -> SystemSimReport {
        assert_arrivals_sorted(reqs.iter().map(|(t, _)| *t));
        self.run_from(SimTime::ZERO, reqs)
    }

    /// Begin at `origin`, one unbounded window over `reqs`, report.
    fn run_from<S: RequestStream + ?Sized>(
        &mut self,
        origin: SimTime,
        reqs: &S,
    ) -> SystemSimReport {
        self.begin_run(origin);
        self.advance(reqs, SimTime::MAX, SimTime::ZERO);
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_sim::ZipfSampler;

    fn preloaded(n_keys: u64, val_len: usize, batch: usize) -> SystemSim {
        let mut sim = SystemSim::new(SystemSimConfig::paper(
            KvDirectConfig::with_memory(4 << 20),
            batch,
        ));
        for id in 0..n_keys {
            sim.store_mut()
                .put(&id.to_le_bytes(), &vec![id as u8; val_len])
                .expect("preload fits");
        }
        sim
    }

    fn mixed_reqs(n: usize, n_keys: u64, put_ratio: f64, zipf: bool, seed: u64) -> Vec<KvRequest> {
        let mut rng = DetRng::seed(seed);
        let sampler = ZipfSampler::new(n_keys, 0.99);
        (0..n)
            .map(|_| {
                let id = if zipf {
                    sampler.sample(&mut rng)
                } else {
                    rng.u64_below(n_keys)
                };
                if rng.chance(put_ratio) {
                    KvRequest::put(&id.to_le_bytes(), &[7u8; 8])
                } else {
                    KvRequest::get(&id.to_le_bytes())
                }
            })
            .collect()
    }

    #[test]
    fn clocked_reaper_reclaims_dead_entries_in_the_background() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 8);
        cfg.store.reap_buckets_per_batch = 256;
        let mut sim = SystemSim::new(cfg);
        // A corpus of mortal entries on a keyspace disjoint from the
        // workload below, so only the reaper (never a lazy probe) can
        // reclaim them.
        for id in 0..500u64 {
            sim.store_mut()
                .put_ttl(&(1_000_000 + id).to_le_bytes(), &[9u8; 8], 1)
                .expect("preload fits");
        }
        assert_eq!(sim.store_mut().processor().table().len(), 500);
        // Kill the corpus, then run a read-only workload: every batch
        // donates one bounded background sweep.
        sim.store_mut()
            .processor_mut()
            .set_now(SimTime::from_us(2_000));
        sim.run(&mixed_reqs(3000, 1000, 0.0, false, 9));
        let e = sim.ledger().expiry;
        assert_eq!(e.reaped_entries, 500, "reaper reclaimed the corpus");
        assert_eq!(e.lazy_expired, 0, "no foreground probe paid for it");
        assert!(e.sweep_passes > 0);
        assert_eq!(sim.store_mut().processor().table().len(), 0);
    }

    #[test]
    fn latency_floor_is_network_rtt_plus_memory() {
        // A corpus far larger than the 1024-slot station, so reads truly
        // touch memory (a tiny corpus would live in the forwarding cache
        // forever — correct, but not what this test probes).
        let mut sim = preloaded(20_000, 8, 1);
        let r = sim.run(&mixed_reqs(500, 20_000, 0.0, false, 1));
        // ≥ 2us network RTT + ~1us memory; ≤ the paper's ~10us band.
        let p50 = r.get_us(Percentile::P50);
        assert!(p50 > 2.5, "p50 {p50}us below physical floor");
        assert!(p50 < 10.0, "p50 {p50}us above the paper's band");
        assert!(r.get_latency.p95 >= r.get_latency.p50);
    }

    #[test]
    fn puts_slower_than_gets() {
        let mut sim = preloaded(1000, 8, 1);
        let r = sim.run(&mixed_reqs(2000, 1000, 0.5, false, 2));
        assert!(
            r.put_us(Percentile::P50) > r.get_us(Percentile::P50) * 0.95,
            "PUT {} vs GET {}",
            r.put_us(Percentile::P50),
            r.get_us(Percentile::P50)
        );
    }

    #[test]
    fn skew_reduces_latency() {
        let mut uni = preloaded(20_000, 8, 1);
        let ru = uni.run(&mixed_reqs(3000, 20_000, 0.0, false, 3));
        let mut zipf = preloaded(20_000, 8, 1);
        let rz = zipf.run(&mixed_reqs(3000, 20_000, 0.0, true, 3));
        // Station forwarding + DRAM hits shorten the skewed path.
        assert!(
            rz.get_us(Percentile::P50) <= ru.get_us(Percentile::P50) + 0.01,
            "zipf {} vs uniform {}",
            rz.get_us(Percentile::P50),
            ru.get_us(Percentile::P50)
        );
    }

    #[test]
    fn batching_improves_throughput() {
        let reqs = mixed_reqs(4000, 1000, 0.0, false, 4);
        let mut nb = preloaded(1000, 8, 1);
        let rn = nb.run(&reqs);
        let mut b = preloaded(1000, 8, 40);
        let rb = b.run(&reqs);
        assert!(
            rb.mops > rn.mops * 1.5,
            "batched {} vs non-batched {} Mops",
            rb.mops,
            rn.mops
        );
        // And costs only a bounded latency increase.
        let added = rb.get_us(Percentile::P50) - rn.get_us(Percentile::P50);
        assert!(added < 2.0, "batching added {added}us");
    }

    /// Uniform open-loop arrival schedule at `rate_mops`.
    fn open_schedule(
        n: usize,
        n_keys: u64,
        put_ratio: f64,
        rate_mops: f64,
        deadline_us: u32,
        seed: u64,
    ) -> Vec<(SimTime, KvRequest)> {
        let gap_ps = (1e6 / rate_mops) as u64;
        mixed_reqs(n, n_keys, put_ratio, false, seed)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                let t = SimTime::from_ps(gap_ps * i as u64);
                if deadline_us != 0 {
                    r = r.with_deadline(t.as_us() as u32 + deadline_us);
                }
                (t, r)
            })
            .collect()
    }

    #[test]
    fn a_stream_lent_in_growing_prefixes_equals_the_stream_lent_whole() {
        let sched = open_schedule(1_000, 2_000, 0.2, 2.0, 0, 7);
        let mut a = preloaded(2_000, 8, 1);
        a.set_record_outcomes(true);
        let ra = a.run_open(&sched);

        // The same schedule lent as it becomes visible — each prefix up
        // to the next cut's arrival, then the whole to the end — must
        // accumulate identically: the simulator keeps only its position.
        let mut b = preloaded(2_000, 8, 1);
        b.set_record_outcomes(true);
        b.begin_run(SimTime::ZERO);
        for cut in [0, 1, 500, 501, 900] {
            b.step_window_over(&sched[..cut], sched[cut].0, SimTime::ZERO);
        }
        let last = b.step_window_over(&sched[..], SimTime::MAX, SimTime::ZERO);
        assert!(last.done);
        let rb = b.report();

        assert_eq!(ra, rb, "reports identical");
        assert_eq!(a.outcomes(), b.outcomes(), "per-op outcomes identical");
    }

    #[test]
    #[should_panic(expected = "open-loop arrivals must be non-decreasing")]
    fn run_open_rejects_a_schedule_that_goes_back_in_time() {
        let mut sched = open_schedule(10, 100, 0.0, 2.0, 0, 8);
        sched.swap(3, 7);
        preloaded(100, 8, 1).run_open(&sched);
    }

    #[test]
    fn open_loop_below_saturation_is_all_goodput() {
        let mut sim = preloaded(5_000, 8, 8);
        // 1 Mops offered against a pipeline good for tens of Mops.
        let r = sim.run_open(&open_schedule(2_000, 5_000, 0.1, 1.0, 100, 41));
        assert_eq!(r.ops, 2_000);
        assert_eq!(r.goodput_ops, 2_000, "uncongested: every op useful");
        assert_eq!(r.shed_ops + r.expired_ops, 0);
        // Makespan tracks the arrival schedule (2000 ops at 1 Mops = 2ms),
        // not the pipeline's idle capacity.
        let ms = r.elapsed.as_secs_f64() * 1e3;
        assert!((1.9..2.5).contains(&ms), "makespan {ms}ms off schedule");
        let core = r.ledger.core;
        assert_eq!(
            core.shed_overload + core.shed_expired + core.shed_read_only,
            0
        );
        assert_eq!(r.ledger.total_faults(), 0);
    }

    #[test]
    fn overloaded_open_loop_sheds_instead_of_collapsing() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 8);
        cfg.store.overload = crate::overload::OverloadConfig::enabled();
        let mut sim = SystemSim::new(cfg);
        for id in 0..3_000u64 {
            sim.store_mut()
                .put(&id.to_le_bytes(), &[id as u8; 8])
                .expect("preload fits");
        }
        // 400 Mops offered against the 180 MHz decode ceiling: the decode
        // backlog grows without bound, the station pressure term crosses
        // the high watermark, and the controller flips to shedding.
        // Generous deadlines keep expiry out of the picture.
        let r = sim.run_open(&open_schedule(12_000, 3_000, 0.1, 400.0, 10_000, 42));
        assert_eq!(r.ops, 12_000, "every op resolves, one way or another");
        let dropped = r.shed_ops + r.expired_ops;
        assert!(dropped > 0, "2x+ offered load must shed or expire");
        assert!(
            r.goodput_ops > 0 && r.goodput_ops + dropped <= r.ops,
            "goodput {} + dropped {} vs ops {}",
            r.goodput_ops,
            dropped,
            r.ops
        );
        // The latency histograms hold exactly the answered ops.
        assert_eq!(r.get_latency.count + r.put_latency.count, r.ops - dropped);
        // Shed/expired ops surface in the store rollup or the client-side
        // expiry count; the controller actually flipped.
        assert_eq!(r.ledger.core.shed_overload, r.shed_ops);
        assert!(r.expired_ops >= r.ledger.core.shed_expired);
        assert!(r.goodput_mops <= r.mops);
    }

    #[test]
    fn sub_floor_deadlines_expire_instead_of_wasting_work() {
        let mut sim = preloaded(1_000, 8, 8);
        // 1us deadlines against a ~2.5us physical floor: requests expire
        // (at the client before transmission once the wire backs up, or
        // at the server's decode clock) rather than occupying the
        // pipeline for answers nobody can use.
        let r = sim.run_open(&open_schedule(4_000, 1_000, 0.0, 40.0, 1, 43));
        assert!(r.expired_ops > 0, "tight deadlines must expire");
        assert_eq!(r.ops, 4_000);
        // Answered ops (in a histogram) plus dropped ops partition the
        // stream exactly.
        assert_eq!(
            r.get_latency.count + r.put_latency.count + r.expired_ops + r.shed_ops,
            r.ops
        );
        // A 1us deadline is below the ~2.5us physical floor: nothing
        // answered can be on time.
        assert_eq!(r.goodput_ops, 0);
    }

    #[test]
    fn recorded_outcomes_align_with_request_stream() {
        let mut sim = preloaded(500, 8, 8);
        sim.set_record_outcomes(true);
        let sched = open_schedule(600, 500, 0.3, 2.0, 0, 44);
        let r = sim.run_open(&sched);
        let outcomes = sim.outcomes();
        assert_eq!(outcomes.len(), 600);
        assert_eq!(
            outcomes
                .iter()
                .filter(|(s, _)| matches!(s, Status::Ok | Status::NotFound))
                .count() as u64,
            r.goodput_ops
        );
        // Replay against a model: GET outcomes must match exactly.
        let mut model = std::collections::HashMap::new();
        for id in 0..500u64 {
            model.insert(id.to_le_bytes().to_vec(), vec![id as u8; 8]);
        }
        for ((_, req), (status, value)) in sched.iter().zip(outcomes) {
            match req.op {
                OpCode::Put => {
                    assert_eq!(*status, Status::Ok);
                    model.insert(req.key.clone(), req.value.clone());
                }
                OpCode::Get => {
                    assert_eq!(*status, Status::Ok);
                    assert_eq!(value, model.get(&req.key).expect("preloaded"));
                }
                _ => unreachable!("schedule holds only GET/PUT"),
            }
        }
    }

    #[test]
    fn link_faults_ride_the_store_fault_schedule() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 8);
        cfg.store.fault_rates = kvd_sim::FaultRates {
            net_drop: 0.05,
            net_reorder: 0.05,
            ..kvd_sim::FaultRates::ZERO
        };
        cfg.store.fault_seed = 77;
        let run = |cfg: SystemSimConfig| {
            let mut sim = SystemSim::new(cfg);
            for id in 0..200u64 {
                sim.store_mut().put(&id.to_le_bytes(), b"v").unwrap();
            }
            sim.run(&mixed_reqs(1_000, 200, 0.2, false, 6))
        };
        let r1 = run(cfg.clone());
        let r2 = run(cfg);
        assert!(
            r1.ledger.net.drops + r1.ledger.net.reorders > 0,
            "5% packet faults over 1000 ops must fire"
        );
        assert_eq!(r1, r2, "fault schedule is seed-deterministic");
    }

    #[test]
    fn a_rerun_on_one_engine_reports_its_own_span() {
        // The links' and backlogs' clocks persist across runs. A run that
        // opened its client windows at zero anyway would queue behind them:
        // its throughput would be quoted over the cumulative makespan and
        // its latencies would absorb the previous run.
        let mut sim = preloaded(2_000, 8, 8);
        let reqs = mixed_reqs(4_000, 2_000, 0.0, false, 21);
        let first = sim.run(&reqs);
        for nth in 2..=5 {
            let again = sim.run(&reqs);
            assert_eq!(again.ops, first.ops);
            let mops = again.mops / first.mops;
            let p50 = again.get_us(Percentile::P50) / first.get_us(Percentile::P50);
            assert!(
                (0.9..1.1).contains(&mops) && (0.9..1.1).contains(&p50),
                "run {nth}: {} vs {} Mops, GET p50 {} vs {} us",
                again.mops,
                first.mops,
                again.get_us(Percentile::P50),
                first.get_us(Percentile::P50)
            );
        }
    }

    fn fetch_add(key: &[u8]) -> KvRequest {
        KvRequest {
            op: OpCode::UpdateScalar,
            key: key.to_vec(),
            value: 1u64.to_le_bytes().to_vec(),
            lambda: crate::lambda::builtin::ADD,
            deadline_us: 0,
            expiry_tick: 0,
        }
    }

    #[test]
    fn a_dirty_key_is_written_back_once_per_batch() {
        // Fig 13(a)'s stream: every op a fetch-add on one key. Within a
        // packet the station serves the key by forwarding; its dirty
        // value goes back to memory once, when the packet's run ends.
        let mut sim = SystemSim::new(SystemSimConfig::paper(
            KvDirectConfig::with_memory(8 << 20),
            40,
        ));
        let r = sim.run(&vec![fetch_add(b"ctr"); 60_000]);
        assert_eq!(r.ops, 60_000);
        let p = sim.store_mut().processor_mut();
        assert_eq!(p.station_stats().writebacks, 1_500, "one per batch of 40");
        let value = p.table_mut().get(b"ctr").expect("written back");
        assert_eq!(crate::lambda::decode_scalar(Some(&value)), 60_000);
    }

    #[test]
    fn without_forwarding_a_write_hazard_stalls_the_decoder() {
        // Figure 13's baseline over one packet: each fetch-add of one key
        // waits for the one before it to have its data, then reads its
        // own bucket over PCIe; GETs of one key share the slot and
        // overlap.
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 40);
        cfg.windows = 1;
        cfg.store.load_dispatch_ratio = 0.0;
        cfg.store.station.forwarding = false;
        // Each op's completion, counted from its packet's arrival.
        let done = |req: KvRequest| -> Vec<u64> {
            let mut sim = SystemSim::new(cfg.clone());
            sim.store_mut()
                .put(b"ctr", &7u64.to_le_bytes())
                .expect("fits");
            sim.run(&vec![req; 40]);
            let s = sim.store_mut().processor().station_stats();
            assert_eq!((s.forwarded, s.queued), (0, 0));
            sim.loads
                .iter()
                .map(|l| l.proc_ps + l.pcie_ps + l.dram_ps)
                .collect()
        };
        let (adds, gets) = (done(fetch_add(b"ctr")), done(KvRequest::get(b"ctr")));
        assert!(adds.windows(2).all(|w| w[1] > w[0]), "{adds:?}");
        let span = |d: &[u64]| d.iter().max().unwrap() - d.iter().min().unwrap();
        let (adds, gets) = (span(&adds), span(&gets));
        assert!(gets * 10 < adds, "GETs {gets} ps vs fetch-adds {adds} ps");
    }

    #[test]
    fn without_forwarding_colliding_slots_retire_every_op() {
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 40);
        cfg.store.station.hash_slots = 4;
        cfg.store.station.capacity = 8;
        cfg.store.station.forwarding = false;
        let mut sim = SystemSim::new(cfg);
        let reqs: Vec<KvRequest> = (0..64 * 62u64)
            .map(|i| fetch_add(&(i % 64).to_le_bytes()))
            .collect();
        assert_eq!(sim.run(&reqs).goodput_ops, reqs.len() as u64);
        assert_eq!(sim.run(&[]).ops, 0, "an empty stream runs nothing");
        let p = sim.store_mut().processor_mut();
        let s = p.station_stats();
        assert_eq!((s.issued, s.forwarded), (reqs.len() as u64, 0));
        for key in 0..64u64 {
            let value = p.table_mut().get(&key.to_le_bytes());
            assert_eq!(crate::lambda::decode_scalar(value.as_deref()), 62);
        }
    }

    #[test]
    fn no_forwarded_op_completes_before_its_source_data() {
        // One packet of GETs of one key that no station entry holds and
        // NIC DRAM never caches: the first GET reads host memory over
        // PCIe, and the other 39 queue behind it in its slot and are
        // served by forwarding once its data is back.
        let mut cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 40);
        cfg.windows = 1;
        cfg.store.load_dispatch_ratio = 0.0;
        let mut sim = SystemSim::new(cfg);
        let p = sim.store_mut().processor_mut();
        p.table_mut().put(b"cold", b"v").expect("fits");
        p.table_mut().mem_mut().reset_stats();
        let r = sim.run(&vec![KvRequest::get(b"cold"); 40]);
        assert_eq!(r.get_latency.count, 40);
        // An op's completion, counted from its packet's arrival, is its
        // processor, PCIe and DRAM latency shares together.
        let done = |l: &OpLoad| l.proc_ps + l.pcie_ps + l.dram_ps;
        let source = done(&sim.loads[0]);
        assert!(sim.loads[0].pcie_ps > 0, "the source read host memory");
        for (k, load) in sim.loads.iter().enumerate().skip(1) {
            assert!(
                done(load) > source,
                "GET {k} done at {} ps, before its source's data at {source} ps",
                done(load)
            );
        }
        let s = sim.store_mut().processor().station_stats();
        assert_eq!((s.issued, s.queued, s.forwarded), (1, 39, 39));
        assert_eq!(s.high_water, 40, "the packet is in flight together");
    }

    #[test]
    fn the_engine_runs_a_packet_as_the_server_runs_a_bundle() {
        // A seeded mix of GET, PUT (a fifth of them with a TTL of one to
        // three ticks), DELETE and fetch-add over a Zipf keyspace, on an
        // arrival schedule spanning several expiry ticks.
        const KEYS: u64 = 300;
        let mut rng = DetRng::seed(0x0E7A);
        let sampler = ZipfSampler::new(KEYS, 0.99);
        let sched: Vec<(SimTime, KvRequest)> = (0..4_000u64)
            .map(|i| {
                let t = SimTime::from_ns(1_500 * i);
                let key = sampler.sample(&mut rng).to_le_bytes();
                let req = match rng.u64_below(10) {
                    0..=3 => KvRequest::get(&key),
                    4..=6 => {
                        let mut put = KvRequest::put(&key, &i.to_le_bytes());
                        if rng.chance(0.2) {
                            let now = kvd_hash::tick_of_us(t.as_ps() / 1_000_000);
                            put.expiry_tick = now + 1 + rng.u64_below(3) as u32;
                        }
                        put
                    }
                    7 => KvRequest::delete(&key),
                    _ => fetch_add(&key),
                };
                (t, req)
            })
            .collect();
        let cfg = SystemSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 40);
        let preload = |store: &mut KvDirectStore| {
            for id in 0..KEYS {
                store.put(&id.to_le_bytes(), &[id as u8; 8]).expect("fits");
            }
        };

        // The engine, one batch per step, noting the instant each batch's
        // run was given: its first decode cycle.
        let mut sim = SystemSim::new(cfg.clone());
        preload(sim.store_mut());
        sim.set_record_outcomes(true);
        sim.begin_run(SimTime::ZERO);
        let mut nows = Vec::new();
        for end in (40..=sched.len()).step_by(40) {
            let cut = sched[end - 1].0 + SimTime::from_ps(1);
            sim.step_window_over(&sched[..], cut, SimTime::ZERO);
            assert_eq!(sim.cursor, end, "one batch per step");
            nows.push(sim.server_free - cycle() * (sim.live.len() as u64 - 1));
        }

        // The server's path: one run per 40-op bundle at the same instants.
        let mut store = KvDirectStore::new(cfg.store.clone());
        preload(&mut store);
        let mut outcomes = Vec::new();
        let mut responses = vec![KvResponse::default(); 40];
        for (chunk, &now) in sched.chunks(40).zip(&nows) {
            let bundle: Vec<KvRequest> = chunk.iter().map(|(_, r)| r.clone()).collect();
            store.processor_mut().set_now(now);
            store.run(&bundle[..], &mut responses);
            outcomes.extend(responses.iter().map(|r| (r.status, r.value.clone())));
        }

        assert!(outcomes.iter().any(|(s, _)| *s == Status::NotFound));
        assert_eq!(sim.outcomes(), &outcomes[..], "every outcome");
        let (engine, server) = (sim.store_mut().processor_mut(), store.processor_mut());
        assert_eq!(engine.station_stats(), server.station_stats());
        assert_eq!(engine.table().mem().stats(), server.table().mem().stats());
        assert_eq!(
            engine.table().mem().cache_stats(),
            server.table().mem().cache_stats()
        );
        assert!(
            engine.expiry_stats().lazy_expired > 0,
            "TTLs expired mid-run"
        );
        for id in 0..KEYS {
            let key = id.to_le_bytes();
            assert_eq!(engine.table_mut().get(&key), server.table_mut().get(&key));
        }
    }

    #[test]
    fn report_accounting_consistent() {
        let mut sim = preloaded(100, 8, 8);
        let reqs = mixed_reqs(512, 100, 0.3, false, 5);
        let r = sim.run(&reqs);
        assert_eq!(r.ops, 512);
        assert_eq!(
            r.get_latency.count + r.put_latency.count,
            512,
            "every op lands in exactly one histogram"
        );
        assert!(r.elapsed > SimTime::ZERO);
    }
}
