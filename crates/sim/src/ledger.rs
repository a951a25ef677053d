//! The op-cost ledger: one typed, mergeable account of where every
//! byte, line and cycle went.
//!
//! [`OpLedger`] is the workspace's only counter surface. Each hardware
//! model counts into its own section value and merges it into a ledger on
//! demand through one narrow trait ([`CostSource`]); stores, simulators, the
//! server and every report expose that ledger and nothing else, so a
//! reader finds a count in exactly one place: `ledger().core.*`,
//! `.pcie.*`, `.dram.*`, `.net.*` and so on.
//!
//! Every section is declared once, by `cost_section!`: the documented
//! field list is the struct, and the same list drives the section's
//! `merge`, the ledger's `merge` and `since` (and, for [`ServerCosts`],
//! the atomic mirror live connections fold into), so a counter added later
//! cannot be forgotten by any of them.
//!
//! Design rules, mirroring the fault plane's:
//!
//! * **Mergeable.** [`OpLedger::merge`] is associative and commutative
//!   with the zero ledger as identity: event counters add, fields marked
//!   `gauge` ([`PressureTerms`], the station high-water mark, the
//!   failover depth) take the maximum. Both operations are exact over
//!   `u64`, so merging N shard ledgers in shard order is bit-identical for
//!   any worker count — the property `tests/parallel_determinism.rs` pins.
//! * **Window deltas are views.** [`OpLedger::since`] subtracts an
//!   earlier snapshot, which is how the parallel engine's per-window
//!   host-traffic charge ([`OpLedger::host_lines`]) is derived instead
//!   of hand-plumbed as a bare `u64`.
//! * **One counter per count.** A plane's counters are a value of its own
//!   section type — the slab allocator counts into a [`SlabCosts`], the
//!   reservation station into a [`StationCosts`] — incremented in place
//!   on its hot path. Nothing writes through a shared ledger reference:
//!   [`CostSource::emit_costs`] merges that value into the caller's
//!   ledger on demand, so a build that never collects a ledger pays for
//!   the increments and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where a nanosecond of client-observed latency was spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// Wire serialization, propagation and batching waits (request and
    /// response links).
    Network,
    /// PCIe DMA: per-line round trips and queueing on the tag-limited
    /// read path.
    Pcie,
    /// NIC DRAM: cache-line accesses and queueing on the channel.
    Dram,
    /// The KV processor: decode backlog plus per-op decode cycles.
    Processor,
}

impl Component {
    /// Every component, in the order latency records are laid out.
    pub const ALL: [Component; 4] = [
        Component::Network,
        Component::Pcie,
        Component::Dram,
        Component::Processor,
    ];

    /// Human-readable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Component::Network => "network",
            Component::Pcie => "pcie",
            Component::Dram => "dram",
            Component::Processor => "processor",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::Network => 0,
            Component::Pcie => 1,
            Component::Dram => 2,
            Component::Processor => 3,
        }
    }
}

/// Operation class for per-class latency attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// GET (and other read-only ops answered from the read path).
    Get,
    /// PUT.
    Put,
    /// Everything else (deletes, atomics, vector ops).
    Other,
}

impl OpClass {
    /// Every class, in record-layout order.
    pub const ALL: [OpClass; 3] = [OpClass::Get, OpClass::Put, OpClass::Other];

    fn index(self) -> usize {
        match self {
            OpClass::Get => 0,
            OpClass::Put => 1,
            OpClass::Other => 2,
        }
    }
}

/// Declares one ledger section from its documented field list: the struct
/// (every field a `u64`), its `merge`, and the field visitor
/// [`OpLedger::merge`] and [`OpLedger::since`] run on. A field marked `: gauge` is a level, not an
/// event count: it merges by maximum and a delta keeps it. `shared as Name`
/// also declares the section's atomic mirror.
macro_rules! cost_section {
    (
        $(#[$meta:meta])*
        $name:ident, shared as $shared:ident {
            $( $(#[$fmeta:meta])* $field:ident ),+ $(,)?
        }
    ) => {
        cost_section! { $(#[$meta])* $name { $( $(#[$fmeta])* $field ),+ } }

        #[doc = concat!("[`", stringify!($name), "`] as relaxed atomics, for threads that count concurrently.")]
        #[derive(Debug, Default)]
        pub struct $shared {
            $( $(#[$fmeta])* pub $field: AtomicU64, )+
        }

        impl $shared {
            /// Adds `c` to the shared counters.
            pub fn fold(&self, c: &$name) {
                $( self.$field.fetch_add(c.$field, Ordering::Relaxed); )+
            }

            /// The counters as they stand.
            pub fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.load(Ordering::Relaxed), )+ }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $name:ident {
            $( $(#[$fmeta:meta])* $field:ident $(: $kind:ident)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $name {
            /// Accumulates `other` into this section: counters add, gauges
            /// take the maximum (what [`OpLedger::merge`] does section by
            /// section).
            pub fn merge(&mut self, other: &$name) {
                self.zip(other, merge_field);
            }

            fn zip(&mut self, other: &$name, mut f: impl FnMut(bool, &mut u64, u64)) {
                $( f(cost_section!(@gauge $($kind)?), &mut self.$field, other.$field); )+
            }
        }
    };
    (@gauge) => { false };
    (@gauge gauge) => { true };
}

cost_section! {
    /// Network-plane costs: wire traffic, batch fill, drops and client-side
    /// expiry.
    NetCosts {
        /// Packets serialized onto a link (retransmissions included).
        packets,
        /// Payload bytes carried by those packets.
        payload_bytes,
        /// Retransmissions after an injected drop.
        retransmits,
        /// Packets the fault plane dropped.
        drops,
        /// Packets the fault plane reordered.
        reorders,
        /// Request batches that reached the wire.
        batches,
        /// Live operations those batches carried (`batch_ops / batches` is
        /// the mean batch fill).
        batch_ops,
        /// Requests dropped at the client because their deadline had passed
        /// before transmission.
        client_expired,
    }
}

cost_section! {
    /// PCIe-plane costs: DMA traffic, tag/credit stalls and link faults.
    PcieCosts {
        /// DMA read requests (64 B lines) issued to host memory.
        dma_reads,
        /// DMA write requests issued to host memory.
        dma_writes,
        /// Payload bytes moved by DMA reads.
        read_bytes,
        /// Payload bytes moved by DMA writes.
        write_bytes,
        /// Issue stalls waiting for a free read tag.
        tag_stalls,
        /// Issue stalls waiting for flow-control credits.
        credit_stalls,
        /// Corrupted TLPs injected by the fault plane.
        corruptions,
        /// Replayed (duplicate) TLPs injected.
        replays,
        /// Read-tag timeouts injected.
        timeouts,
        /// Recovery retries performed because of an injected fault.
        retries,
        /// Transactions abandoned after the retry budget ran out.
        exhausted,
    }
}

cost_section! {
    /// DRAM-plane costs: NIC DRAM lines, cache behavior and ECC recovery.
    DramCosts {
        /// NIC DRAM line reads.
        reads,
        /// NIC DRAM line writes.
        writes,
        /// NIC DRAM cache hits.
        cache_hits,
        /// NIC DRAM cache misses.
        cache_misses,
        /// Single-bit errors corrected by ECC.
        corrected,
        /// Multi-bit errors ECC could only detect.
        uncorrectable,
        /// Host-memory stall events.
        host_stalls,
        /// Lines refetched from host memory after an uncorrectable error.
        refetches,
        /// Dirty lines salvaged to host before a refetch.
        rescue_writebacks,
    }
}

cost_section! {
    /// Reservation-station costs: occupancy and forwarding behavior.
    StationCosts {
        /// Results served from the forwarding cache without touching memory
        /// (the paper's "merged" operations — up to 15% under long-tail).
        forwarded,
        /// Operations issued to the execution pipeline.
        issued,
        /// Operations queued behind a same-key operation.
        queued,
        /// Dirty cache values written back to memory.
        writebacks,
        /// Admissions rejected because the station was full.
        rejected,
        /// Slots reclaimed without installing a forwarding value (device
        /// errors).
        reclaimed,
        /// High-water mark of tracked operations (merged by maximum: the
        /// worst occupancy any shard saw).
        high_water: gauge,
    }
}

cost_section! {
    /// Slab-allocator costs.
    SlabCosts {
        /// Allocations served.
        allocs,
        /// Frees accepted.
        frees,
        /// Allocations that failed (out of memory).
        failed_allocs,
        /// NIC-to-host free-list synchronization DMAs (the paper bounds them
        /// below 0.07 per allocation or free, with batching).
        dma_syncs,
        /// Free-list entries moved by those syncs.
        entries_synced,
        /// Block splits performed to serve a smaller class.
        splits,
        /// Buddy merges performed by the lazy merger.
        merges,
        /// Merge passes executed.
        merge_passes,
    }
}

cost_section! {
    /// Serving-front-end costs: what the memcache-protocol server layer
    /// spent translating real client traffic into KV operations. These sit
    /// *above* the network plane ([`NetCosts`] accounts the simulated wire;
    /// this section accounts the protocol boundary): frames decoded, bytes
    /// moved through real sockets, and the protocol-level outcome mix, so
    /// serving overhead is attributed exactly like every simulated
    /// component.
    ServerCosts, shared as SharedServerCosts {
        /// TCP connections accepted.
        connections,
        /// Connections closed (client EOF, `quit`, or a fatal protocol
        /// error).
        disconnects,
        /// Bytes read off client sockets.
        bytes_in,
        /// Bytes written back to client sockets.
        bytes_out,
        /// Complete protocol frames (command line + any data block) decoded.
        frames,
        /// KV operations those frames produced (a multi-key `get` is one
        /// frame, many operations).
        requests,
        /// GET operations answered with a value.
        get_hits,
        /// GET operations answered with a miss.
        get_misses,
        /// Storage commands acknowledged `STORED`.
        stored,
        /// Storage commands answered `NOT_STORED` (failed `add`/`replace`
        /// precondition).
        not_stored,
        /// `delete` commands acknowledged `DELETED`.
        deleted,
        /// `touch` commands acknowledged `TOUCHED` (lifetime re-stamped
        /// without moving the value).
        touched,
        /// Client mistakes answered `ERROR`/`CLIENT_ERROR`.
        protocol_errors,
        /// Store-side failures answered `SERVER_ERROR` (every taxonomy
        /// class: `device_error`, `overloaded`, allocation).
        server_errors,
        /// Nothing writes it: its writer, the server's static ring
        /// check, is gone. The field stays so the ledger's `Debug` form,
        /// which the determinism goldens digest, does not move.
        not_primary,
    }
}

cost_section! {
    /// Cluster-plane costs: replication and heartbeat traffic between
    /// simulated hosts, plus failover-protocol events. Replication frames
    /// ride the inter-node links (`kvd_sim::cluster::NodeLink`), so the
    /// throughput cost of RF=2/3 shows up here as measured bytes rather
    /// than a modeling assumption.
    ClusterCosts {
        /// Replicate frames forwarded down a chain (head → … → tail).
        rep_frames,
        /// Payload bytes carried by those frames.
        rep_bytes,
        /// Chain acknowledgements (tail apply → head/client).
        rep_acks,
        /// Backup applies re-staged after a device fault.
        rep_retries,
        /// Heartbeat frames broadcast between nodes.
        heartbeats,
        /// Heartbeat payload bytes.
        hb_bytes,
        /// Whole-node kills injected by the cluster fault plane.
        node_kills,
        /// Dead nodes detected via missed heartbeats.
        failovers,
        /// Chain promotions performed after a detection.
        promotions,
        /// In-flight writes re-driven past a dead chain member.
        orphan_redrives,
        /// Client-side retries against a survivor after failover.
        client_retries,
        /// Reads hedged to another replica during the failover window.
        hedged_reads,
        /// Writes acknowledged after the tail applied them.
        writes_acked,
        /// Writes that failed without an acknowledgement (retry budget or
        /// unavailability).
        writes_failed,
        /// Gauge: cluster windows between a node kill and its detection (the
        /// failover-window depth; merged by maximum).
        failover_depth_windows: gauge,
    }
}

cost_section! {
    /// Entry-lifecycle costs: TTL-stamped writes, lazy expiry on the probe
    /// paths, and the background reaper's bounded sweeps. All counters sum
    /// on merge, so the section is bit-identical across worker counts like
    /// every other plane.
    ExpiryCosts {
        /// PUTs that carried a nonzero lifecycle stamp.
        ttl_puts,
        /// Successful stamp rewrites (`touch`).
        touches,
        /// Dead entries discovered lazily by foreground probes
        /// (GET/DELETE/touch): each was answered as a miss and reclaimed.
        lazy_expired,
        /// Dead entries overwritten in place by a PUT of the same key.
        expired_overwrites,
        /// Entries reclaimed through the free path (lazily or by the reaper).
        reaped_entries,
        /// Logical KV bytes those reclaimed entries held.
        reaped_bytes,
        /// Bounded reaper passes run.
        sweep_passes,
        /// Bucket frames (primary + chained) the reaper scanned.
        sweep_buckets,
    }
}

cost_section! {
    /// Adaptive-cache-plane costs: frequency-sketch sampling, TinyLFU fill
    /// admission, eviction quality, online retune steps, and the hot-key
    /// sheds the heavy-hitter rollup feeds into admission control. All
    /// counters sum on merge, preserving the bit-identical determinism
    /// contract across worker counts.
    CacheCosts {
        /// Line accesses the frequency sketch sampled.
        sketch_samples,
        /// Cache fills performed (admission granted, or the plane disabled).
        admitted_fills,
        /// Conflict fills the TinyLFU admission rejected (served over PCIe,
        /// nothing displaced).
        rejected_fills,
        /// Valid lines displaced clean by a fill.
        evict_clean,
        /// Valid lines displaced dirty by a fill (write-back traffic).
        evict_dirty,
        /// Fills that displaced a valid line (conflict misses — the thrash
        /// signal; fills into invalid ways are free).
        conflict_fills,
        /// Retune steps that moved the load-dispatch threshold.
        retune_steps,
        /// Resident lines retired by threshold-migration sweeps.
        demoted_lines,
        /// Requests shed because their key was a tracked heavy hitter during
        /// overload (per-hot-key shedding instead of across-the-board).
        hot_key_sheds,
    }
}

cost_section! {
    /// KV-processor costs: request mix, retire outcomes and overload-plane
    /// decisions.
    CoreCosts {
        /// Requests executed.
        requests,
        /// Read-only requests (GET/REDUCE/FILTER).
        reads,
        /// PUT requests.
        puts,
        /// DELETE requests.
        deletes,
        /// Atomic update requests (scalar or vector).
        updates,
        /// Requests rejected as invalid (unknown λ, wrong type, oversized).
        invalid,
        /// Requests that hit out-of-memory.
        oom,
        /// Station write-backs that failed.
        writeback_failures,
        /// Memory transactions re-run after a recoverable injected fault.
        fault_retries,
        /// Requests failed with `DeviceError` after the retry budget ran out.
        device_errors,
        /// Requests that passed every overload gate.
        admitted,
        /// Requests shed by the admission controller.
        shed_overload,
        /// Requests dropped at the server because their deadline had passed.
        shed_expired,
        /// Writes shed while in read-only degraded mode.
        shed_read_only,
        /// Entries into read-only mode.
        read_only_entries,
        /// Exits from read-only mode.
        read_only_exits,
        /// Admission-controller state flips (both directions).
        shed_transitions,
        /// Station-retired operations that completed `Ok` (detail mode only;
        /// see `KvProcessor::set_ledger_detail`).
        retired_ok,
        /// Station-retired operations that completed `NotFound` (detail mode
        /// only).
        retired_not_found,
        /// Station-retired operations that completed with any error status
        /// (detail mode only).
        retired_failed,
    }
}

/// Per-class, per-component latency attribution in picoseconds.
///
/// For every answered operation the simulator splits the client-observed
/// latency into the [`Component::ALL`] buckets such that the buckets sum
/// *exactly* to the measured latency (network absorbs the residual:
/// wire serialization, propagation and batching waits). Shed and expired
/// operations carry no service latency and are not recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyCosts {
    /// Accumulated picoseconds, indexed `[OpClass][Component]` in
    /// [`OpClass::ALL`] / [`Component::ALL`] order.
    pub ps: [[u64; 4]; 3],
    /// Answered operations per class, same order as [`OpClass::ALL`].
    pub ops: [u64; 3],
}

impl LatencyCosts {
    /// Records one answered operation's component split (picoseconds,
    /// in [`Component::ALL`] order).
    #[inline]
    pub fn record(&mut self, class: OpClass, component_ps: [u64; 4]) {
        let row = &mut self.ps[class.index()];
        for (acc, ps) in row.iter_mut().zip(component_ps) {
            *acc += ps;
        }
        self.ops[class.index()] += 1;
    }

    /// Answered operations of `class`.
    pub fn ops(&self, class: OpClass) -> u64 {
        self.ops[class.index()]
    }

    /// Mean nanoseconds per op of `class` spent in `component` (0.0 when
    /// no op of the class was answered).
    pub fn mean_ns(&self, class: OpClass, component: Component) -> f64 {
        let n = self.ops[class.index()];
        if n == 0 {
            return 0.0;
        }
        self.ps[class.index()][component.index()] as f64 / n as f64 / 1e3
    }

    /// Mean total nanoseconds per op of `class` (sum over components).
    pub fn total_mean_ns(&self, class: OpClass) -> f64 {
        Component::ALL.iter().map(|&c| self.mean_ns(class, c)).sum()
    }

    /// `component`'s share of the class's total latency, in `0.0..=1.0`
    /// (0.0 when the class saw no ops).
    pub fn share(&self, class: OpClass, component: Component) -> f64 {
        let total: u64 = self.ps[class.index()].iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.ps[class.index()][component.index()] as f64 / total as f64
    }

    fn zip(&mut self, other: &LatencyCosts, mut f: impl FnMut(bool, &mut u64, u64)) {
        let mine = self.ps.iter_mut().flatten().chain(&mut self.ops);
        for (a, b) in mine.zip(other.ps.iter().flatten().chain(&other.ops)) {
            f(false, a, *b);
        }
    }
}

cost_section! {
    /// Raw backpressure terms the `PressureGauge` is computed from, all in
    /// integer picoseconds so shard merges stay exact.
    ///
    /// These are *gauges* (latest sample), not event counters: merging takes
    /// the component-wise maximum — the worst backlog any shard reported —
    /// which is associative, commutative and has the zero term as identity,
    /// exactly like the counter sums.
    PressureTerms {
        /// Decode backlog at the last batch cut (how far the server's decode
        /// clock ran ahead of the batch's arrival).
        station_backlog_ps: gauge,
        /// The station capacity envelope: one decode cycle times the station's
        /// operation capacity.
        station_cap_ps: gauge,
        /// PCIe service backlog at the last batch cut.
        tag_backlog_ps: gauge,
        /// The tag-pool capacity envelope: per-line service time times the
        /// total read tags across endpoints.
        tag_cap_ps: gauge,
        /// Host-arbiter stall of the previous lockstep window.
        stall_ps: gauge,
        /// The arbiter's synchronization quantum.
        quantum_ps: gauge,
    }
}

/// The merge of one field: a gauge keeps the maximum, a counter adds.
fn merge_field(gauge: bool, mine: &mut u64, theirs: u64) {
    *mine = if gauge {
        (*mine).max(theirs)
    } else {
        *mine + theirs
    };
}

/// Declares [`OpLedger`] from its section list, so the struct and the
/// visitor that merges it cannot disagree about which sections exist.
macro_rules! ledger {
    ($( $(#[$meta:meta])* $section:ident: $ty:ident ),+ $(,)?) => {
        /// The op-cost ledger: one section per plane, every field an exact
        /// integer so merges and deltas never lose a count.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct OpLedger {
            $( $(#[$meta])* pub $section: $ty, )+
        }

        impl OpLedger {
            /// Calls `f(is_gauge, mine, theirs)` for every field of every
            /// section, in declaration order.
            fn zip(&mut self, other: &OpLedger, mut f: impl FnMut(bool, &mut u64, u64)) {
                $( self.$section.zip(&other.$section, &mut f); )+
            }
        }
    };
}

ledger! {
    /// Network-plane costs (links, batching, client-side expiry).
    net: NetCosts,
    /// PCIe-plane costs (DMA traffic, stalls, link faults).
    pcie: PcieCosts,
    /// NIC-DRAM-plane costs (lines, cache, ECC).
    dram: DramCosts,
    /// Reservation-station costs.
    station: StationCosts,
    /// Slab-allocator costs.
    slab: SlabCosts,
    /// Entry-lifecycle costs (TTL writes, lazy expiry, reaper sweeps).
    expiry: ExpiryCosts,
    /// Adaptive-cache-plane costs (sketch, admission, retune, hot keys).
    cache: CacheCosts,
    /// KV-processor costs (request mix, retire outcomes, overload plane).
    core: CoreCosts,
    /// Serving-front-end costs (protocol frames, socket bytes, outcome
    /// mix) — zero unless a real server fronts the store.
    server: ServerCosts,
    /// Cluster-plane costs (replication, heartbeats, failover events) —
    /// zero unless the run spans multiple simulated hosts.
    cluster: ClusterCosts,
    /// Per-class, per-component latency attribution.
    latency: LatencyCosts,
    /// Raw backpressure terms (gauges, merged by maximum).
    pressure: PressureTerms,
}

impl OpLedger {
    /// Accumulates another ledger into this one. Counter fields add;
    /// gauge fields ([`PressureTerms`], the station high-water mark, the
    /// failover depth) take the maximum. Associative and commutative,
    /// with the default ledger as identity.
    pub fn merge(&mut self, other: &OpLedger) {
        self.zip(other, merge_field);
    }

    /// The delta since an `earlier` snapshot of the same ledger: counter
    /// fields subtract (saturating), gauge fields keep their current
    /// value. This is how per-window traffic is derived from the run
    /// ledger instead of being accumulated separately.
    pub fn since(&self, earlier: &OpLedger) -> OpLedger {
        let mut out = self.clone();
        out.zip(earlier, |gauge, mine, theirs| {
            if !gauge {
                *mine = mine.saturating_sub(theirs);
            }
        });
        out
    }

    /// Host-memory cache lines this ledger accounts for (PCIe DMA reads
    /// plus writes) — the quantity the multi-NIC host arbiter charges
    /// against shared DRAM bandwidth.
    pub fn host_lines(&self) -> u64 {
        self.pcie.dma_reads + self.pcie.dma_writes
    }

    /// Everything `source` has accumulated, in a ledger of its own.
    pub fn of(source: &impl CostSource) -> OpLedger {
        let mut out = OpLedger::default();
        source.emit_costs(&mut out);
        out
    }

    /// Fault events injected across the PCIe, DRAM and network channels.
    /// Recovery bookkeeping (`pcie.retries`, `pcie.exhausted`) is what the
    /// faults cost, not more faults, and is left out.
    pub fn total_faults(&self) -> u64 {
        self.pcie.corruptions
            + self.pcie.replays
            + self.pcie.timeouts
            + self.dram.corrected
            + self.dram.uncorrectable
            + self.dram.host_stalls
            + self.net.drops
            + self.net.reorders
    }
}

/// The one narrow trait every plane reports through: fold your counters
/// into `out`. Implementations must be additive (emitting into a
/// non-empty ledger accumulates) and must not double-report events that
/// another source already owns — fault events belong to the fault plane
/// that injected them, traffic to the component that moved it.
pub trait CostSource {
    /// Folds this component's accumulated costs into `out`.
    fn emit_costs(&self, out: &mut OpLedger);
}

impl CostSource for OpLedger {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    /// A ledger with every field of every section filled from a seeded
    /// stream, through the same visitor `merge` and `since` run on — a
    /// field declared later is covered without touching this file.
    fn random_ledger(seed: u64) -> OpLedger {
        let mut rng = DetRng::seed(seed);
        let mut l = OpLedger::default();
        l.zip(&OpLedger::default(), |_, field, _| {
            *field = rng.u64_below(1 << 20)
        });
        l
    }

    fn merged(a: &OpLedger, b: &OpLedger) -> OpLedger {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    #[test]
    fn merge_identity_is_the_default_ledger() {
        let a = random_ledger(1);
        assert_eq!(merged(&a, &OpLedger::default()), a);
        assert_eq!(merged(&OpLedger::default(), &a), a);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        for seed in 0..32u64 {
            let (a, b, c) = (
                random_ledger(seed),
                random_ledger(seed ^ 0xAAAA),
                random_ledger(seed ^ 0x5555),
            );
            assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
            assert_eq!(merged(&a, &b), merged(&b, &a));
            // A plane emits with its section's merge: section by section,
            // the ledger merge.
            let mut by_section = a.clone();
            by_section.net.merge(&b.net);
            by_section.pcie.merge(&b.pcie);
            by_section.dram.merge(&b.dram);
            by_section.station.merge(&b.station);
            by_section.slab.merge(&b.slab);
            by_section.expiry.merge(&b.expiry);
            by_section.cache.merge(&b.cache);
            by_section.core.merge(&b.core);
            by_section.server.merge(&b.server);
            by_section.cluster.merge(&b.cluster);
            by_section.latency.zip(&b.latency, merge_field);
            by_section.pressure.merge(&b.pressure);
            assert_eq!(by_section, merged(&a, &b));
        }
    }

    #[test]
    fn since_inverts_merge_for_counters() {
        let base = random_ledger(7);
        let delta = random_ledger(8);
        let total = merged(&base, &delta);
        // Counters round-trip exactly; gauges keep their merged value.
        let mut want = delta.clone();
        want.zip(&total, |gauge, field, merged| {
            if gauge {
                *field = merged;
            }
        });
        assert_eq!(total.since(&base), want);
    }

    #[test]
    fn gauges_keep_the_max() {
        let (a, b) = (random_ledger(11), random_ledger(12));
        let m = merged(&a, &b);
        assert_eq!(
            m.station.high_water,
            a.station.high_water.max(b.station.high_water)
        );
        assert_eq!(
            m.cluster.failover_depth_windows,
            a.cluster
                .failover_depth_windows
                .max(b.cluster.failover_depth_windows)
        );
        assert_eq!(
            m.pressure.stall_ps,
            a.pressure.stall_ps.max(b.pressure.stall_ps)
        );
        assert_eq!(m.station.issued, a.station.issued + b.station.issued);
        // Those two and the six pressure terms are all the gauges there are.
        let mut gauges = 0;
        m.clone().zip(&a, |gauge, _, _| gauges += u32::from(gauge));
        assert_eq!(gauges, 8);
    }

    #[test]
    fn shared_server_costs_fold_to_the_merge_of_their_snapshots() {
        let shared = SharedServerCosts::default();
        let mut want = OpLedger::default();
        for seed in 0..9 {
            let part = random_ledger(seed);
            shared.fold(&part.server);
            want.merge(&part);
        }
        assert_eq!(shared.snapshot(), want.server);
        assert_ne!(want.server, ServerCosts::default());
    }

    #[test]
    fn host_lines_is_the_pcie_dma_view() {
        let mut l = OpLedger::default();
        l.pcie.dma_reads = 3;
        l.pcie.dma_writes = 4;
        assert_eq!(l.host_lines(), 7);
    }

    #[test]
    fn total_faults_counts_events_not_recovery() {
        let mut l = random_ledger(9);
        let events = l.total_faults();
        l.pcie.retries += 5;
        l.pcie.exhausted += 5;
        assert_eq!(l.total_faults(), events);
        l.net.reorders += 1;
        l.dram.host_stalls += 1;
        assert_eq!(l.total_faults(), events + 2);
    }

    #[test]
    fn latency_attribution_math() {
        let mut lat = LatencyCosts::default();
        lat.record(OpClass::Get, [2_000, 1_000, 500, 500]);
        lat.record(OpClass::Get, [4_000, 1_000, 500, 500]);
        assert_eq!(lat.ops(OpClass::Get), 2);
        assert!((lat.mean_ns(OpClass::Get, Component::Network) - 3.0).abs() < 1e-9);
        assert!((lat.total_mean_ns(OpClass::Get) - 5.0).abs() < 1e-9);
        assert!((lat.share(OpClass::Get, Component::Network) - 0.6).abs() < 1e-9);
        assert_eq!(lat.mean_ns(OpClass::Put, Component::Pcie), 0.0);
        assert_eq!(lat.share(OpClass::Put, Component::Pcie), 0.0);
    }
}
