//! Multi-node cluster plane: M member hosts, chain replication, and
//! deterministic failover.
//!
//! Each member is a full [`SystemSim`] (NIC pipeline, hash table, slab,
//! PCIe/DRAM, overload plane); this module adds what the paper's
//! single-box scope leaves out — what happens when the *box* dies.
//! Members are joined by [`NodeLink`]s (latency + serialization
//! bandwidth) and stepped on the crate's window driver in fixed
//! windows of one [`QUANTUM`]: window `k` spans `[k·q, (k+1)·q)`. A frame sent
//! during window `k` is never visible before window `k + 1`, so within a
//! window every member depends only on state settled at the boundary,
//! where the driver's hook delivers frames, routes client operations,
//! detects failures and consumes what the members produced. Members
//! therefore step on any number of OS workers and the merged ledgers
//! stay bit-identical.
//!
//! # Replication and reads
//!
//! Keys map to replica sets through the consistent-hash ring
//! ([`HashRing`], RF ∈ {1, 2, 3}). Writes use **chain replication**:
//! the client sends to the chain head (first replica); each member
//! applies locally, then forwards one [`RepFrame::Replicate`] hop down
//! the chain; the tail's apply releases a [`RepFrame::Ack`] that climbs
//! back to the head, and only that ack completes the client's write.
//! Reads go to the **tail** — the tail's state is exactly the committed
//! prefix, so a read can never observe a write that a failover could
//! later revoke. A client keeps at most one write in flight per key
//! (later writes to the same key queue behind it), which is what makes
//! the per-key version history checkable under retries.
//!
//! # Failure and promotion
//!
//! A whole node can be killed mid-run ([`NodeKill`] — the fault plane
//! raised one level). Live members broadcast [`RepFrame::Heartbeat`]s
//! every `HB_EVERY` windows; when a member has not been heard from for
//! `HB_TIMEOUT` windows, the survivors declare it dead in the same
//! window (links are symmetric, so detection is cluster-wide and
//! deterministic). Placement stays pinned to the full ring; every key's
//! *effective* chain is its placement replicas with detected-dead
//! members filtered out. Because ring removal preserves survivor order
//! (the clockwise walk only appends a backfill member at the end), this
//! filtered chain is exactly the remapped chain minus a member that
//! holds no data — chains run degraded at reduced RF rather than
//! serving empty reads from a backfill, and the next member in order is
//! promoted when the head dies. In-flight writes recover by
//! role: a write the dead head never applied is **retried by the
//! client** against the new head; a write stranded mid-chain is
//! **re-driven** by its last live applier to the next survivor; a write
//! the tail applied but whose ack was lost gets its ack **re-emitted**
//! by the new tail. Reads outstanding against the dead member are
//! **hedged** to the new tail. Acked writes are never lost: an ack
//! exists only once the tail applied, and the tail (or its chain
//! predecessors, which applied strictly earlier) survives every
//! single-node failure.
//!
//! All replication, heartbeat and retry traffic is charged through the
//! ledger's cluster section, so the throughput cost of RF=2/3 and the
//! depth of a failover window land as measured numbers, not prose.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::ControlFlow;

use kvd_net::{HashRing, KvRequest, OpCode, RepFrame, Status};
use kvd_sim::{CostSource, Histogram, NodeLink, OpLedger, SimTime};

use crate::driver::{self, Members, Window};
use crate::store::KvDirectConfig;
use crate::system::{assert_arrivals_sorted, SystemSim, SystemSimConfig};

/// Kill order for one member: the node stops stepping, sending and
/// receiving at the start of `window` — a power failure, not a drain.
#[derive(Debug, Clone, Copy)]
pub struct NodeKill {
    /// Member to kill.
    pub node: u32,
    /// Cluster window at whose start the member dies.
    pub window: u64,
}

/// Window quantum: every member steps one window of this length at a time.
pub const QUANTUM: SimTime = SimTime::from_us(2);

/// Virtual points per member on the consistent-hash ring.
const VNODES: usize = 64;

/// Heartbeat broadcast period, in windows.
const HB_EVERY: u64 = 4;

/// Windows without a delivered heartbeat before a member is declared dead.
const HB_TIMEOUT: u64 = 12;

const _: () = {
    assert!(HB_EVERY >= 1, "heartbeat period must be positive");
    // Beacon period plus delivery lookahead, or live members would be
    // declared dead.
    assert!(
        HB_TIMEOUT > HB_EVERY + 1,
        "HB_TIMEOUT must exceed HB_EVERY + delivery lookahead"
    );
};

/// Cluster configuration. Members are joined by rack links
/// ([`NodeLink`]), stepped in [`QUANTUM`] windows.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// Per-member host configuration (every member is identical).
    pub node: SystemSimConfig,
    /// Member count M.
    pub nodes: usize,
    /// Replication factor (1 = no replication, chain of one).
    pub rf: usize,
    /// OS worker threads stepping members within a window; `0` uses the
    /// machine's available parallelism, and more workers than members run
    /// as one per member. Results are bit-identical for any value.
    pub workers: usize,
    /// Optional mid-run node kill.
    pub kill: Option<NodeKill>,
}

impl ClusterSimConfig {
    /// A small cluster for tests: M members, RF as given, one worker.
    pub fn smoke(nodes: usize, rf: usize) -> Self {
        ClusterSimConfig {
            node: SystemSimConfig::paper(KvDirectConfig::with_memory(4 << 20), 8),
            nodes,
            rf,
            workers: 1,
            kill: None,
        }
    }

    fn validate(&self) {
        assert!(self.nodes >= 1, "cluster needs at least one member");
        assert!(
            (1..=self.nodes).contains(&self.rf),
            "RF {} outside 1..={} members",
            self.rf,
            self.nodes
        );
        if let Some(kill) = self.kill {
            assert!(
                (kill.node as usize) < self.nodes,
                "kill target {} outside cluster",
                kill.node
            );
            assert!(self.nodes >= 2, "cannot kill the only member");
        }
    }
}

/// What one fed request on a member's host means to the cluster.
#[derive(Debug, Clone, Copy)]
enum FedKind {
    /// Client write applying at the chain head (op index).
    Write(usize),
    /// Client read serving at the chain tail (op index).
    Read(usize),
    /// Replicated write applying at a downstream chain member.
    Apply(usize),
}

/// One member host plus its cluster-facing state.
struct NodeState {
    sim: SystemSim,
    link: NodeLink,
    alive: bool,
    /// Outcomes already consumed by the coordinator.
    consumed: usize,
    /// The member's arrival schedule so far — the one stream its host is
    /// lent every window. Append-only: the host keeps its position in it.
    feed: Vec<(SimTime, KvRequest)>,
    /// Cluster meaning of each fed request, aligned with `feed`.
    fed: Vec<FedKind>,
    /// Requests accumulated for the upcoming window, with push order for
    /// stable tie-breaking.
    feed_buf: Vec<(SimTime, KvRequest, FedKind)>,
    /// Next write sequence number originated at this member.
    seq: u64,
    /// Last window in which any live member received this member's
    /// heartbeat (window 0 counts as a fresh beacon — joining is alive).
    last_hb: u64,
    /// Window the member died in, once killed.
    killed_at: u64,
    detected: bool,
}

impl NodeState {
    /// Moves the batch accumulated for the window `[floor, horizon)` onto
    /// the tail of the feed, sorted by arrival (stable in emission order).
    /// This is the cluster's issue path: the coordinator feeds each member
    /// exactly the client and replication traffic that lands in the
    /// upcoming window, then steps it, so a host never sees an arrival the
    /// window discipline has not yet made visible.
    ///
    /// # Panics
    ///
    /// Panics if an arrival precedes the feed's tail (the host may have
    /// cut a batch there): windows must be fed in order.
    fn feed_window(&mut self, floor: SimTime, horizon: SimTime) {
        self.feed_buf.sort_by_key(|(t, _, _)| t.max(&floor).as_ps());
        for (t, req, kind) in self.feed_buf.drain(..) {
            // Clamp up to the floor: an arrival can be scheduled before
            // the window opened, but the lookahead rule guarantees none
            // lands at or past the horizon.
            let at = t.max(floor);
            debug_assert!(at < horizon, "arrival escaped its window");
            let tail = self.feed.last().map_or(SimTime::ZERO, |(t, _)| *t);
            assert_arrivals_sorted([tail, at]);
            self.feed.push((at, req));
            self.fed.push(kind);
        }
    }
}

/// An unresolved client write moving down its chain.
struct WriteState {
    req: KvRequest,
    /// Surviving replica chain, head first. Shrinks on failover; never
    /// reordered.
    chain: Vec<u32>,
    /// Apply flag per chain slot, aligned with `chain`.
    applied: Vec<bool>,
    /// `(origin, seq)` naming this write on the wire.
    origin: u32,
    seq: u64,
    issue: SimTime,
}

/// An unresolved client read.
struct ReadState {
    key: Vec<u8>,
    target: u32,
    issue: SimTime,
}

/// Per-op record of what the cluster client observed — the raw material
/// for linearizability checking.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The operation.
    pub op: OpCode,
    /// Scheduled issue instant.
    pub issue: SimTime,
    /// Final status (writes: `Ok` only on a tail-acked commit).
    pub status: Status,
    /// Observed value (reads).
    pub value: Vec<u8>,
    /// Cluster window the op resolved in.
    pub done_window: u64,
    /// Write committed by a tail ack.
    pub acked: bool,
    /// Write was re-issued by the client after a failover.
    pub retried: bool,
    /// Read was hedged to a survivor after a failover.
    pub hedged: bool,
}

/// Cluster run report.
pub struct ClusterReport {
    /// Ops in the schedule.
    pub ops: usize,
    /// Simulated makespan (horizon of the final window).
    pub elapsed: SimTime,
    /// Windows driven.
    pub windows: u64,
    /// Merged ledger: every member's host ledger, every link, and the
    /// coordinator's cluster counters, folded in member order.
    pub ledger: OpLedger,
    /// Client-observed write latency (issue → tail ack), µs.
    pub write_hist: Histogram,
    /// Client-observed read latency, µs.
    pub read_hist: Histogram,
    /// Per-op observations, aligned with the schedule.
    pub records: Vec<OpRecord>,
    /// Window the kill fired in, if configured.
    pub kill_window: Option<u64>,
    /// Window the survivors declared the member dead in.
    pub detect_window: Option<u64>,
}

impl ClusterReport {
    /// Committed client operations per second of simulated time.
    pub fn goodput_ops_per_sec(&self) -> f64 {
        let done = self
            .records
            .iter()
            .filter(|r| r.status == Status::Ok || r.status == Status::NotFound)
            .count();
        done as f64 / self.elapsed.as_secs_f64()
    }
}

/// The cluster simulation: coordinator plus M member hosts.
pub struct ClusterSim {
    nodes: Vec<NodeState>,
    coord: Coordinator,
}

/// Everything but the members: the state the boundary hook settles.
struct Coordinator {
    cfg: ClusterSimConfig,
    ring: HashRing,
    /// Frames in flight: delivery window → (dest, arrival, frame), in
    /// emission order.
    inbox: BTreeMap<u64, Vec<(u32, SimTime, RepFrame)>>,
    /// Unresolved writes by op index.
    writes: BTreeMap<usize, WriteState>,
    /// Unresolved reads by op index.
    reads: BTreeMap<usize, ReadState>,
    /// `(origin, seq)` → op index, for ack and replicate routing.
    by_seq: BTreeMap<(u32, u64), usize>,
    /// Key → op index of the write currently in flight for it.
    inflight: HashMap<Vec<u8>, usize>,
    /// Key → writes queued behind the in-flight one, FIFO.
    deferred: HashMap<Vec<u8>, VecDeque<usize>>,
    /// Coordinator-side ledger (cluster counters; links fold in at
    /// report time).
    led: OpLedger,
    records: Vec<OpRecord>,
    write_hist: Histogram,
    read_hist: Histogram,
    kill_window: Option<u64>,
    detect_window: Option<u64>,
    /// Client operations of the schedule routed so far.
    cursor: usize,
}

/// The members as the coordinator sees them at a window boundary.
type Nodes<'a, 'm> = Members<'a, 'm, NodeState>;

/// The window containing instant `t`.
fn window_of(t: SimTime) -> u64 {
    t.as_ps() / QUANTUM.as_ps()
}

/// The earliest window in which a frame sent during window `sent_in`
/// with raw arrival time `arrival` may be delivered: never before
/// `sent_in + 1` (the one-window conservative lookahead), never before
/// the arrival's own window.
fn delivery_window(sent_in: u64, arrival: SimTime) -> u64 {
    window_of(arrival).max(sent_in + 1)
}

impl ClusterSim {
    /// Builds an idle cluster.
    pub fn new(cfg: ClusterSimConfig) -> Self {
        cfg.validate();
        let nodes = (0..cfg.nodes)
            .map(|_| {
                let mut sim = SystemSim::new(cfg.node.clone());
                sim.set_record_outcomes(true);
                NodeState {
                    sim,
                    link: NodeLink::default(),
                    alive: true,
                    consumed: 0,
                    feed: Vec::new(),
                    fed: Vec::new(),
                    feed_buf: Vec::new(),
                    seq: 0,
                    last_hb: 0,
                    killed_at: 0,
                    detected: false,
                }
            })
            .collect();
        ClusterSim {
            nodes,
            coord: Coordinator {
                ring: HashRing::with_nodes(cfg.nodes, VNODES),
                inbox: BTreeMap::new(),
                writes: BTreeMap::new(),
                reads: BTreeMap::new(),
                by_seq: BTreeMap::new(),
                inflight: HashMap::new(),
                deferred: HashMap::new(),
                led: OpLedger::default(),
                records: Vec::new(),
                write_hist: Histogram::new(),
                read_hist: Histogram::new(),
                kill_window: None,
                detect_window: None,
                cursor: 0,
                cfg,
            },
        }
    }

    /// Runs a client schedule to full drain — every op resolves, by
    /// commit, observed read, or failover recovery — and reports.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is unsorted, contains ops other than
    /// GET/PUT/DELETE, or the cluster fails to drain (a bug).
    pub fn run(&mut self, schedule: &[(SimTime, KvRequest)]) -> ClusterReport {
        assert!(
            schedule.windows(2).all(|w| w[0].0 <= w[1].0),
            "schedule must be sorted by issue time"
        );
        assert!(
            schedule
                .iter()
                .all(|(_, r)| matches!(r.op, OpCode::Get | OpCode::Put | OpCode::Delete)),
            "cluster v1 routes GET/PUT/DELETE only"
        );
        let coord = &mut self.coord;
        coord.records = schedule
            .iter()
            .map(|(t, r)| OpRecord {
                op: r.op,
                issue: *t,
                status: Status::DeviceError,
                value: Vec::new(),
                done_window: 0,
                acked: false,
                retried: false,
                hedged: false,
            })
            .collect();
        coord.cursor = 0;
        let last_sched_window = schedule.last().map(|(t, _)| window_of(*t)).unwrap_or(0);

        let first = Window::first(SimTime::ZERO, QUANTUM);
        let mut nodes = [&mut self.nodes[..]];
        coord.open_window(&mut Members::new(&mut nodes), first, schedule);
        let last = driver::drive(
            &mut self.nodes,
            coord.cfg.workers,
            SimTime::ZERO,
            QUANTUM,
            // The only parallel phase: members touch only their own state.
            |_, node, w| {
                if node.alive {
                    node.sim
                        .step_window_over(&node.feed[..], w.horizon, w.floor);
                }
            },
            |nodes, w| {
                // Consume newly recorded outcomes in member order and emit
                // the resulting replication frames (sent at the horizon,
                // delivered next window at the earliest).
                coord.consume_outcomes(nodes, w.index, w.horizon);
                let drained = coord.cursor >= schedule.len()
                    && coord.writes.is_empty()
                    && coord.reads.is_empty()
                    && coord.inbox.is_empty()
                    && nodes.iter().all(|n| n.feed_buf.is_empty());
                if drained && w.index >= last_sched_window {
                    return ControlFlow::Break(());
                }
                assert!(
                    w.index + 1 < last_sched_window + 1_000_000,
                    "cluster failed to drain: {} writes, {} reads outstanding",
                    coord.writes.len(),
                    coord.reads.len()
                );
                coord.open_window(nodes, w.next(SimTime::ZERO), schedule);
                ControlFlow::Continue(SimTime::ZERO)
            },
        );

        let mut ledger = coord.led.clone();
        for node in &self.nodes {
            ledger.merge(&node.sim.ledger());
            node.link.emit_costs(&mut ledger);
        }
        ClusterReport {
            ops: schedule.len(),
            elapsed: last.horizon,
            windows: last.index + 1,
            ledger,
            write_hist: coord.write_hist.clone(),
            read_hist: coord.read_hist.clone(),
            records: std::mem::take(&mut coord.records),
            kill_window: coord.kill_window,
            detect_window: coord.detect_window,
        }
    }
}

impl Coordinator {
    /// Settles everything window `w` sees before its members step: the
    /// kill, frame delivery, heartbeats, client arrivals and failure
    /// detection, then feeds each live member its window batch.
    fn open_window(&mut self, nodes: &mut Nodes, w: Window, schedule: &[(SimTime, KvRequest)]) {
        let (k, floor) = (w.index, w.floor);

        // 1. Kill fires at the window boundary: the member is gone
        // before anything in this window happens.
        if let Some(kill) = self.cfg.kill {
            let node = &mut nodes[kill.node as usize];
            if k == kill.window && node.alive {
                node.alive = false;
                node.killed_at = k;
                self.kill_window = Some(k);
                self.led.cluster.node_kills += 1;
            }
        }

        // 2. Deliver this window's frames (sent in earlier windows —
        // the one-window lookahead makes this race-free).
        for (dest, arrival, frame) in self.inbox.remove(&k).unwrap_or_default() {
            self.deliver(nodes, dest, arrival.max(floor), frame, k);
        }

        // 3. Heartbeat broadcast from every live member — while any
        // work remains. Once the schedule is exhausted and every op
        // resolved, members fall silent so the run can drain (the
        // already-in-flight beacons deliver and the inbox empties).
        let work_left = self.cursor < schedule.len()
            || !self.writes.is_empty()
            || !self.reads.is_empty()
            || !self.inbox.is_empty();
        if work_left && k.is_multiple_of(HB_EVERY) {
            self.broadcast_heartbeats(nodes, k, floor);
        }

        // 4. Route this window's client arrivals.
        while let Some((t, req)) = schedule.get(self.cursor) {
            if window_of(*t) != k {
                break;
            }
            self.route_client_op(nodes, self.cursor, *t, req.clone());
            self.cursor += 1;
        }

        // 5. Failure detection: a silent member is declared dead by
        // all survivors in the same window.
        self.detect_failures(nodes, k, floor);

        // 6. Feed each live member its window batch.
        for node in nodes.iter_mut() {
            if node.alive {
                node.feed_window(floor, w.horizon);
            } else {
                node.feed_buf.clear();
            }
        }
    }

    fn deliver(&mut self, nodes: &mut Nodes, dest: u32, arrival: SimTime, frame: RepFrame, k: u64) {
        if !nodes[dest as usize].alive {
            return; // frame lost with the member
        }
        match frame {
            RepFrame::Heartbeat { from, .. } => {
                let sender = &mut nodes[from as usize];
                sender.last_hb = sender.last_hb.max(k);
            }
            RepFrame::Replicate { write, origin, .. } => {
                let Some(&op) = self.by_seq.get(&(origin, write)) else {
                    return; // resolved while in flight (stale redrive)
                };
                let w = self.writes.get(&op).expect("indexed write exists");
                if !w.chain.contains(&dest) {
                    return; // chain shrank past this member
                }
                let req = w.req.clone();
                nodes[dest as usize]
                    .feed_buf
                    .push((arrival, req, FedKind::Apply(op)));
            }
            RepFrame::Ack { write, from: _ } => {
                let Some(&op) = self.by_seq.get(&(dest, write)) else {
                    return; // already committed via a re-emitted ack
                };
                self.commit_write(nodes, op, k, arrival);
            }
        }
    }

    fn broadcast_heartbeats(&mut self, nodes: &mut Nodes, k: u64, floor: SimTime) {
        for i in 0..self.cfg.nodes {
            if !nodes[i].alive {
                continue;
            }
            for j in 0..self.cfg.nodes {
                if i == j || !nodes[j].alive {
                    continue;
                }
                let frame = RepFrame::Heartbeat {
                    from: i as u32,
                    window: k,
                };
                self.led.cluster.heartbeats += 1;
                self.led.cluster.hb_bytes += frame.wire_len() as u64;
                self.send(nodes, i as u32, j as u32, frame, k, floor);
            }
        }
    }

    /// Charges a frame to the sender's link and schedules its delivery.
    fn send(
        &mut self,
        nodes: &mut Nodes,
        from: u32,
        to: u32,
        frame: RepFrame,
        sent_in: u64,
        now: SimTime,
    ) {
        let arrival = nodes[from as usize].link.send(now, frame.wire_len() as u64);
        let window = delivery_window(sent_in, arrival);
        self.inbox
            .entry(window)
            .or_default()
            .push((to, arrival, frame));
    }

    /// The key's effective replica chain: its placement replicas with
    /// detected-dead members filtered out, order preserved.
    ///
    /// Placement is pinned to the full ring; a failover *remaps* by
    /// filtering rather than re-walking, because the ring's removal
    /// property (survivor order is preserved, the walk only appends a
    /// new member at the end — see `ring_props`) means the re-walked
    /// list equals this one plus a backfill member that holds no data
    /// yet. Until a repair plane copies data over, routing to that
    /// member would serve empty reads, so chains run **degraded** at
    /// reduced RF instead.
    fn live_chain(&self, nodes: &Nodes, key: &[u8]) -> Vec<u32> {
        let mut chain = self.ring.replicas(key, self.cfg.rf);
        chain.retain(|&n| !nodes[n as usize].detected);
        chain
    }

    fn route_client_op(&mut self, nodes: &mut Nodes, op: usize, t: SimTime, req: KvRequest) {
        match req.op {
            OpCode::Get => {
                let replicas = self.live_chain(nodes, &req.key);
                let target = *replicas.last().expect("a live replica remains");
                self.reads.insert(
                    op,
                    ReadState {
                        key: req.key.clone(),
                        target,
                        issue: t,
                    },
                );
                if nodes[target as usize].alive {
                    nodes[target as usize]
                        .feed_buf
                        .push((t, req, FedKind::Read(op)));
                }
                // A dead target resolves via the hedge at detection.
            }
            OpCode::Put | OpCode::Delete => {
                if self.inflight.contains_key(&req.key) {
                    self.deferred
                        .entry(req.key.clone())
                        .or_default()
                        .push_back(op);
                    // Issue time is re-stamped at release; keep the
                    // request in the record's issue for latency.
                    self.writes.insert(
                        op,
                        WriteState {
                            req,
                            chain: Vec::new(),
                            applied: Vec::new(),
                            origin: u32::MAX,
                            seq: u64::MAX,
                            issue: t,
                        },
                    );
                } else {
                    self.issue_write(nodes, op, t, req);
                }
            }
            _ => unreachable!("validated in run()"),
        }
    }

    /// Puts a write on the wire: snapshot the chain, take a sequence
    /// number from the head, gate the key, feed the head.
    fn issue_write(&mut self, nodes: &mut Nodes, op: usize, t: SimTime, req: KvRequest) {
        let chain = self.live_chain(nodes, &req.key);
        let head = chain[0];
        let seq = nodes[head as usize].seq;
        nodes[head as usize].seq += 1;
        self.by_seq.insert((head, seq), op);
        self.inflight.insert(req.key.clone(), op);
        if nodes[head as usize].alive {
            nodes[head as usize]
                .feed_buf
                .push((t, req.clone(), FedKind::Write(op)));
        }
        // A dead head resolves via client retry at detection.
        let applied = vec![false; chain.len()];
        self.writes.insert(
            op,
            WriteState {
                req,
                chain,
                applied,
                origin: head,
                seq,
                issue: t,
            },
        );
    }

    /// Tail ack reached the head: the write is committed to the client.
    fn commit_write(&mut self, nodes: &mut Nodes, op: usize, k: u64, at: SimTime) {
        let w = self.writes.remove(&op).expect("committing a live write");
        self.by_seq.remove(&(w.origin, w.seq));
        self.led.cluster.writes_acked += 1;
        let rec = &mut self.records[op];
        rec.status = Status::Ok;
        rec.done_window = k;
        rec.acked = true;
        self.write_hist.record_time(at.max(w.issue) - w.issue);
        self.release_key(nodes, &w.req.key, op, at);
    }

    /// A write resolved without commit (head apply failed, or every
    /// replica died).
    fn fail_write(&mut self, nodes: &mut Nodes, op: usize, k: u64, status: Status, at: SimTime) {
        let w = self.writes.remove(&op).expect("failing a live write");
        self.by_seq.remove(&(w.origin, w.seq));
        self.led.cluster.writes_failed += 1;
        let rec = &mut self.records[op];
        rec.status = status;
        rec.done_window = k;
        self.release_key(nodes, &w.req.key, op, at);
    }

    /// Opens the key's write gate and issues the next deferred write,
    /// preserving client order.
    fn release_key(&mut self, nodes: &mut Nodes, key: &[u8], op: usize, at: SimTime) {
        if self.inflight.get(key) == Some(&op) {
            self.inflight.remove(key);
        }
        let next = self.deferred.get_mut(key).and_then(|q| q.pop_front());
        if let Some(next_op) = next {
            let w = self.writes.remove(&next_op).expect("deferred write staged");
            self.issue_write(nodes, next_op, at.max(w.issue), w.req);
        } else {
            self.deferred.remove(key);
        }
    }

    fn detect_failures(&mut self, nodes: &mut Nodes, k: u64, floor: SimTime) {
        for d in 0..self.cfg.nodes {
            let node = &nodes[d];
            if node.alive || node.detected {
                continue;
            }
            if k.saturating_sub(node.last_hb) <= HB_TIMEOUT {
                continue;
            }
            nodes[d].detected = true;
            self.detect_window = Some(k);
            self.led.cluster.failovers += 1;
            self.led.cluster.promotions += 1;
            let depth = k - nodes[d].killed_at;
            self.led.cluster.failover_depth_windows =
                self.led.cluster.failover_depth_windows.max(depth);
            // The placement ring is left intact: the effective chain for
            // every key is `live_chain` (placement minus detected-dead
            // members), so chains run degraded at reduced RF rather than
            // backfilling a data-less member mid-run.
            self.recover_writes(nodes, d as u32, k, floor);
            self.recover_reads(nodes, d as u32, floor);
        }
    }

    /// Walks every unresolved write through the failover rules.
    fn recover_writes(&mut self, nodes: &mut Nodes, dead: u32, k: u64, floor: SimTime) {
        let ops: Vec<usize> = self.writes.keys().copied().collect();
        for op in ops {
            let Some(w) = self.writes.get_mut(&op) else {
                continue; // resolved by an earlier op's recovery cascade
            };
            if w.origin == u32::MAX {
                continue; // deferred behind a gate; not on the wire yet
            }
            if let Some(pos) = w.chain.iter().position(|&n| n == dead) {
                w.chain.remove(pos);
                w.applied.remove(pos);
            } else {
                continue; // chain untouched by this failure
            }
            if w.chain.is_empty() {
                // Every replica died (only possible at RF == kill count).
                self.fail_write(nodes, op, k, Status::DeviceError, floor);
                continue;
            }
            if w.origin == dead {
                // The origin died with survivors still holding the
                // write: re-key it to the new head, or the tail's ack
                // (addressed to the head) would never match `by_seq`.
                self.by_seq.remove(&(w.origin, w.seq));
                let new_head = w.chain[0];
                let seq = nodes[new_head as usize].seq;
                nodes[new_head as usize].seq += 1;
                w.origin = new_head;
                w.seq = seq;
                self.by_seq.insert((new_head, seq), op);
            }
            let last_applied = w.applied.iter().rposition(|&a| a);
            match last_applied {
                None => {
                    // The dead head had the only copy: the client times
                    // out and retries against the new head.
                    let (req, issue) = (w.req.clone(), w.issue);
                    let (origin, seq) = (w.origin, w.seq);
                    self.writes.remove(&op);
                    self.by_seq.remove(&(origin, seq));
                    if self.inflight.get(&req.key) == Some(&op) {
                        self.inflight.remove(&req.key);
                    }
                    self.led.cluster.client_retries += 1;
                    self.records[op].retried = true;
                    self.issue_write(nodes, op, issue.max(floor), req);
                }
                Some(last) if last + 1 == w.chain.len() => {
                    // Tail apply exists; the ack was lost with the dead
                    // member (dead tail, or ack in flight). The new tail
                    // re-emits it — unless it is also the head, in which
                    // case the write commits on the spot.
                    if w.chain.len() == 1 {
                        self.led.cluster.rep_retries += 1;
                        self.commit_write(nodes, op, k, floor);
                    } else {
                        let (from, to) = (w.chain[last], w.chain[0]);
                        let frame = RepFrame::Ack { write: w.seq, from };
                        self.led.cluster.rep_acks += 1;
                        self.led.cluster.rep_retries += 1;
                        self.send(nodes, from, to, frame, k, floor);
                    }
                }
                Some(last) => {
                    // Stranded mid-chain: the last live applier re-drives
                    // the write to the next survivor.
                    let (from, to) = (w.chain[last], w.chain[last + 1]);
                    let frame = RepFrame::Replicate {
                        write: w.seq,
                        origin: w.origin,
                        req: w.req.clone(),
                    };
                    self.led.cluster.orphan_redrives += 1;
                    self.led.cluster.rep_retries += 1;
                    self.send(nodes, from, to, frame, k, floor);
                }
            }
        }
    }

    /// Hedges every read outstanding against the dead member to the new
    /// tail of its key.
    fn recover_reads(&mut self, nodes: &mut Nodes, dead: u32, floor: SimTime) {
        let ops: Vec<usize> = self
            .reads
            .iter()
            .filter(|(_, r)| r.target == dead)
            .map(|(&op, _)| op)
            .collect();
        for op in ops {
            let key = self.reads[&op].key.clone();
            let replicas = self.live_chain(nodes, &key);
            let target = *replicas.last().expect("a live replica remains");
            self.reads
                .get_mut(&op)
                .expect("iterating live reads")
                .target = target;
            self.led.cluster.hedged_reads += 1;
            self.records[op].hedged = true;
            let req = KvRequest::get(&key);
            if nodes[target as usize].alive {
                nodes[target as usize]
                    .feed_buf
                    .push((floor, req, FedKind::Read(op)));
            }
        }
    }

    /// Consumes outcomes the members just produced, in member order, and
    /// emits the next replication hops at the window horizon.
    fn consume_outcomes(&mut self, nodes: &mut Nodes, k: u64, horizon: SimTime) {
        for n in 0..self.cfg.nodes {
            if !nodes[n].alive {
                continue;
            }
            let total = nodes[n].sim.outcomes().len();
            for i in nodes[n].consumed..total {
                let kind = nodes[n].fed[i];
                let outcome = nodes[n].sim.outcomes()[i].clone();
                self.on_outcome(nodes, n as u32, kind, outcome, k, horizon);
            }
            nodes[n].consumed = total;
        }
    }

    fn on_outcome(
        &mut self,
        nodes: &mut Nodes,
        node: u32,
        kind: FedKind,
        (status, value): (Status, Vec<u8>),
        k: u64,
        horizon: SimTime,
    ) {
        match kind {
            FedKind::Read(op) => {
                let Some(r) = self.reads.remove(&op) else {
                    return; // hedge raced a late original (dead member)
                };
                let rec = &mut self.records[op];
                rec.status = status;
                rec.value = value;
                rec.done_window = k;
                self.read_hist.record_time(horizon.max(r.issue) - r.issue);
            }
            FedKind::Write(op) | FedKind::Apply(op) => {
                let Some(w) = self.writes.get_mut(&op) else {
                    return; // stale apply after resolution
                };
                let Some(pos) = w.chain.iter().position(|&c| c == node) else {
                    return; // chain shrank past this member
                };
                // DELETE of an absent key reports NotFound — a fine
                // apply. Anything else non-Ok is a device-level failure.
                if status != Status::Ok && status != Status::NotFound {
                    self.fail_write(nodes, op, k, status, horizon);
                    return;
                }
                w.applied[pos] = true;
                if pos + 1 == w.chain.len() {
                    // Tail applied: release the ack up to the head. A
                    // chain of one commits immediately — the head is the
                    // tail.
                    if w.chain.len() == 1 {
                        self.commit_write(nodes, op, k, horizon);
                    } else {
                        let frame = RepFrame::Ack {
                            write: w.seq,
                            from: node,
                        };
                        let to = w.chain[0];
                        self.led.cluster.rep_acks += 1;
                        self.send(nodes, node, to, frame, k, horizon);
                    }
                } else {
                    let frame = RepFrame::Replicate {
                        write: w.seq,
                        origin: w.origin,
                        req: w.req.clone(),
                    };
                    let to = w.chain[pos + 1];
                    self.send(nodes, node, to, frame, k, horizon);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvd_model::{version_of, versioned};

    /// A put/get schedule over `keys` keys: one put then one get per
    /// key, spaced `gap`.
    fn put_get_schedule(keys: u64, gap: SimTime) -> Vec<(SimTime, KvRequest)> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        for id in 0..keys {
            out.push((t, KvRequest::put(&id.to_le_bytes(), &versioned(id, 1))));
            t += gap;
        }
        // Reads trail all writes by a comfortable margin.
        t += SimTime::from_us(200);
        for id in 0..keys {
            out.push((t, KvRequest::get(&id.to_le_bytes())));
            t += gap;
        }
        out
    }

    #[test]
    fn clock_windows_partition_time() {
        let first = Window::first(SimTime::ZERO, QUANTUM);
        assert_eq!((first.floor, first.horizon), (SimTime::ZERO, QUANTUM));
        let third = first
            .next(SimTime::ZERO)
            .next(SimTime::ZERO)
            .next(SimTime::ZERO);
        assert_eq!((third.index, third.floor), (3, SimTime::from_us(6)));
        assert_eq!(window_of(SimTime::from_ns(1_999)), 0);
        assert_eq!(window_of(SimTime::from_us(2)), 1);
    }

    #[test]
    fn delivery_never_lands_in_the_sending_window() {
        // Raw arrival inside the sending window: pushed to the next.
        assert_eq!(delivery_window(4, SimTime::from_us(9)), 5);
        // Raw arrival far in the future: its own window wins.
        assert_eq!(delivery_window(4, SimTime::from_us(40)), 20);
    }

    #[test]
    fn rf1_cluster_serves_reads_after_writes() {
        let mut cluster = ClusterSim::new(ClusterSimConfig::smoke(3, 1));
        let report = cluster.run(&put_get_schedule(64, SimTime::from_ns(500)));
        assert_eq!(report.ops, 128);
        assert_eq!(report.ledger.cluster.writes_acked, 64);
        assert_eq!(report.ledger.cluster.writes_failed, 0);
        for (i, rec) in report.records.iter().enumerate() {
            if rec.op == OpCode::Get {
                assert_eq!(rec.status, Status::Ok, "read {i} missed");
                assert_eq!(version_of(&rec.value), 1);
            } else {
                assert!(rec.acked, "write {i} not acked");
            }
        }
        // RF=1: no replication frames, but heartbeats flow.
        assert_eq!(report.ledger.cluster.rep_acks, 0);
        assert!(report.ledger.cluster.heartbeats > 0);
    }

    #[test]
    #[should_panic(expected = "open-loop arrivals must be non-decreasing")]
    fn a_member_feed_rejects_an_arrival_before_its_tail() {
        let us = SimTime::from_us;
        let mut cluster = ClusterSim::new(ClusterSimConfig::smoke(2, 1));
        let node = &mut cluster.nodes[0];
        let read = |op| (us(0), KvRequest::get(b"k"), FedKind::Read(op));
        node.feed_buf.push(read(0));
        node.feed_window(us(4), us(6));
        // A window that opens before the last one did.
        node.feed_buf.push(read(1));
        node.feed_window(us(2), us(4));
    }

    #[test]
    fn rf2_acks_gate_on_tail_and_charge_the_wire() {
        let mut cluster = ClusterSim::new(ClusterSimConfig::smoke(3, 2));
        let report = cluster.run(&put_get_schedule(64, SimTime::from_ns(500)));
        assert_eq!(report.ledger.cluster.writes_acked, 64);
        // Every write crossed one replication hop and one ack.
        assert_eq!(report.ledger.cluster.rep_acks, 64);
        assert!(report.ledger.cluster.rep_frames >= 128);
        assert!(report.ledger.cluster.rep_bytes > 0);
        for rec in report.records.iter().filter(|r| r.op == OpCode::Get) {
            assert_eq!(rec.status, Status::Ok);
            assert_eq!(version_of(&rec.value), 1);
        }
    }

    #[test]
    fn rf2_write_latency_exceeds_rf1() {
        let sched = put_get_schedule(64, SimTime::from_ns(500));
        let mut rf1 = ClusterSim::new(ClusterSimConfig::smoke(3, 1));
        let r1 = rf1.run(&sched);
        let mut rf2 = ClusterSim::new(ClusterSimConfig::smoke(3, 2));
        let r2 = rf2.run(&sched);
        let p50_1 = r1.write_hist.percentile(50.0);
        let p50_2 = r2.write_hist.percentile(50.0);
        assert!(
            p50_2 > p50_1,
            "chain ack must cost latency: RF1 {p50_1}us vs RF2 {p50_2}us"
        );
    }

    #[test]
    fn node_kill_detects_promotes_and_keeps_acked_writes() {
        let mut cfg = ClusterSimConfig::smoke(3, 2);
        cfg.kill = Some(NodeKill {
            node: 1,
            window: 40,
        });
        let mut cluster = ClusterSim::new(cfg);
        // Writes early (committed before the kill), reads late (after
        // detection) — every acked write must still be readable.
        let mut sched = Vec::new();
        let mut t = SimTime::ZERO;
        for id in 0..48u64 {
            sched.push((t, KvRequest::put(&id.to_le_bytes(), &versioned(id, 1))));
            t += SimTime::from_ns(800);
        }
        let late = SimTime::from_us(200); // far past kill + timeout
        for id in 0..48u64 {
            sched.push((
                late + SimTime::from_ns(800) * id,
                KvRequest::get(&id.to_le_bytes()),
            ));
        }
        let report = cluster.run(&sched);
        assert_eq!(report.kill_window, Some(40));
        let detect = report.detect_window.expect("kill must be detected");
        assert!(detect > 40, "detection after the kill");
        assert_eq!(report.ledger.cluster.failovers, 1);
        assert_eq!(report.ledger.cluster.promotions, 1);
        assert!(report.ledger.cluster.failover_depth_windows >= detect - 40);
        // All writes committed before the kill; every read observes v1.
        for rec in &report.records {
            match rec.op {
                OpCode::Put => assert!(rec.acked || rec.retried),
                OpCode::Get => {
                    assert_eq!(rec.status, Status::Ok, "acked write lost");
                    assert_eq!(version_of(&rec.value), 1);
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn per_key_write_gate_preserves_client_order() {
        let mut cluster = ClusterSim::new(ClusterSimConfig::smoke(3, 2));
        // Three rapid-fire writes to one key, then a read.
        let key = 7u64.to_le_bytes();
        let sched = vec![
            (SimTime::ZERO, KvRequest::put(&key, &versioned(7, 1))),
            (
                SimTime::from_ns(100),
                KvRequest::put(&key, &versioned(7, 2)),
            ),
            (
                SimTime::from_ns(200),
                KvRequest::put(&key, &versioned(7, 3)),
            ),
            (SimTime::from_us(100), KvRequest::get(&key)),
        ];
        let report = cluster.run(&sched);
        assert_eq!(report.ledger.cluster.writes_acked, 3);
        let read = report.records.last().expect("read scheduled");
        assert_eq!(version_of(&read.value), 3, "last client write wins");
        // Commits happen in client order.
        let w: Vec<u64> = report.records[..3].iter().map(|r| r.done_window).collect();
        assert!(w[0] <= w[1] && w[1] <= w[2], "commit order {w:?}");
    }

    #[test]
    fn worker_count_does_not_change_the_merged_ledger() {
        let sched = put_get_schedule(96, SimTime::from_ns(400));
        let mut reports = Vec::new();
        for workers in [1usize, 2, 4] {
            let mut cfg = ClusterSimConfig::smoke(4, 2);
            cfg.workers = workers;
            cfg.kill = Some(NodeKill {
                node: 2,
                window: 30,
            });
            let mut cluster = ClusterSim::new(cfg);
            reports.push(cluster.run(&sched));
        }
        let base = &reports[0];
        for r in &reports[1..] {
            assert_eq!(
                format!("{:?}", base.ledger),
                format!("{:?}", r.ledger),
                "merged ledger must be bit-identical across worker counts"
            );
            assert_eq!(base.windows, r.windows);
            for (a, b) in base.records.iter().zip(&r.records) {
                assert_eq!(a.status, b.status);
                assert_eq!(a.value, b.value);
                assert_eq!(a.done_window, b.done_window);
            }
        }
    }
}
