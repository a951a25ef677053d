//! The serving front-end: a sans-IO connection core executing in place
//! on locked shards, fed by one socket driver thread per connection.
//!
//! Layout (DESIGN.md §12):
//!
//! * `Shared`, behind one `Arc`, holds what every connection and the
//!   [`ServerHandle`] share: `shards` **shards** (each one
//!   [`KvDirectStore`] behind its own mutex), the cas counter, protocol
//!   counters, clock, shutdown flag and open gauge;
//! * one **acceptor** thread owns the (blocking) listener;
//! * a `Session` is one connection's protocol state and owns no socket:
//!   it reassembles frames incrementally ([`crate::proto::parse`]),
//!   routes each operation to its shard via [`kvd_net::shard_of`],
//!   stages per-shard bundles, and on seal locks the shard, executes the
//!   bundle itself and unlocks — no hand-off to another thread — then
//!   encodes the replies in request order into its out-buffer;
//! * `drive`, one thread per connection, is all that touches the
//!   `TcpStream`: it reads into the session, runs it and writes its
//!   out-buffer.
//!
//! What the per-shard lock guarantees, and what sessions must keep:
//!
//! * a session holds **at most one** shard lock at a time (taken and
//!   released inside `seal`), so there is no lock order and no deadlock;
//! * per session and shard, program order is seal order: ships-alone
//!   ops (`add`/`replace`/`touch`) seal what is staged ahead of them,
//!   then themselves, before anything later is staged;
//! * `add`/`replace` probe-then-store is atomic because both halves run
//!   inside one critical section;
//! * a poisoned shard lock (a connection panicked mid-bundle, so the
//!   table may be half-mutated) is fail-stop: a session that needs the
//!   shard returns `Poisoned` and its connection closes without a reply,
//!   while [`ServerHandle::ledger`] and [`ServerHandle::stop`] still read
//!   the counters through the poison.
//!
//! A session folds its protocol counters into the shared ones when it is
//! dropped, so they are counted on every exit path: a clean close, `quit`,
//! an I/O error or a poisoned shard.
//!
//! Steady-state the hot path allocates nothing, per request or per
//! bundle: bytes are read straight into the receive buffer, keys and
//! data are staged into pooled per-shard arenas, the store's execution
//! core ([`KvDirectStore::run`]) reads a bundle's requests in place
//! through a positional view of its `ops` and `arena` and answers into
//! the bundle's pooled responses, and response encoding appends into a
//! reused out-buffer.
//!
//! Stored values carry a 12-byte header — `flags: u32 LE | cas: u64 LE`
//! — ahead of the client data, so GET can echo flags and `gets` a cas
//! unique without a second index.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use kvd_core::{tick_of_us, KvDirectConfig, KvDirectStore, RequestStream, EXPIRY_TICK_US};
use kvd_net::{shard_of, KvRequestRef, KvResponse, Status};
use kvd_sim::{CostSource, OpLedger, ServerCosts, SharedServerCosts, SimTime};

use crate::proto::StoreVerb::{self, Add, Replace, Set};
use crate::proto::{parse, Command, Parsed, MAX_KEY_LEN, TOO_LARGE_REPLY, VERSION_REPLY};

/// Max operations gathered from one connection's buffered frames before
/// they are executed and answered.
const MAX_BATCH: usize = 64;

/// Bytes of `flags | cas` prepended to every stored value.
pub const VALUE_HEADER_LEN: usize = 12;

/// Memcached's pivot between the two `exptime` encodings: values up to
/// thirty days are relative seconds, anything larger is an absolute
/// Unix timestamp.
pub const EXPTIME_RELATIVE_MAX: u32 = 30 * 24 * 60 * 60;

/// The serving clock: maps wall time onto the store's expiry-tick
/// domain and memcached `exptime` values onto absolute stamps.
///
/// Tick 0 of every shard store is the instant the server started; the
/// clock reports `now` with one tick of headroom so a stamp minted
/// "dead on arrival" (`expiry = now_tick`) is expired from the very
/// first bundle a shard executes, even within the first millisecond of
/// uptime.
#[derive(Debug, Clone, Copy)]
struct ServerClock {
    epoch: Instant,
    /// Unix seconds at `epoch`, anchoring absolute `exptime` values.
    unix_at_epoch: u64,
}

impl ServerClock {
    fn start() -> ServerClock {
        ServerClock {
            epoch: Instant::now(),
            unix_at_epoch: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// Simulated-time microseconds since the server epoch (plus the
    /// one-tick headroom described above).
    fn now_us(&self) -> u64 {
        (self.epoch.elapsed().as_micros() as u64).saturating_add(EXPIRY_TICK_US)
    }

    /// Maps a memcached `exptime` to an expiry stamp: `0` never
    /// expires; values up to [`EXPTIME_RELATIVE_MAX`] are relative
    /// seconds from now; larger values are absolute Unix timestamps
    /// (a timestamp already in the past yields a stamp that is dead
    /// immediately, per memcached semantics).
    fn expiry_tick(&self, exptime: u32) -> u32 {
        if exptime == 0 {
            return 0;
        }
        let now_us = self.now_us();
        if exptime <= EXPTIME_RELATIVE_MAX {
            return tick_of_us(now_us + exptime as u64 * 1_000_000);
        }
        let unix_now = self.unix_at_epoch + now_us / 1_000_000;
        match (exptime as u64).checked_sub(unix_now) {
            // Future timestamp: distance from now, in ticks.
            Some(ahead) if ahead > 0 => tick_of_us(now_us.saturating_add(ahead * 1_000_000)),
            // Already past: the current tick is by construction >= 1,
            // so stamping it makes the entry dead right now.
            _ => tick_of_us(now_us),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard (= store) count; keys route via `shard_of`.
    pub shards: usize,
    /// Per-shard store configuration.
    pub store: KvDirectConfig,
}

impl ServerConfig {
    /// A loopback-test configuration: `shards` stores, 64 MiB per
    /// shard, extended slabs on (memcache data blocks routinely exceed
    /// the paper's 512 B inline regime).
    pub fn loopback(shards: usize) -> Self {
        let mut store = KvDirectConfig::with_memory(64 << 20);
        store.extended_slabs = true;
        ServerConfig { shards, store }
    }
}

/// Operation verb as routed to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Get,
    Store(StoreVerb),
    Delete,
    Touch,
}

impl Verb {
    /// Ops that must be a bundle's only occupant: conditional stores
    /// (probe-then-store must not interleave) and `touch` (executed
    /// through the store's dedicated re-stamp entry point rather than
    /// the batch pipeline).
    fn ships_alone(self) -> bool {
        matches!(self, Verb::Store(Add | Replace) | Verb::Touch)
    }
}

/// One routed operation: ranges into its bundle's arena.
#[derive(Debug, Clone, Copy)]
struct Op {
    verb: Verb,
    /// Response slot in the session's batch.
    slot: u32,
    key: (u32, u32),
    /// Framed value range (`flags|cas|data`) for store verbs.
    val: (u32, u32),
    /// Absolute expiry stamp (0 = never) for store verbs and `touch`.
    expiry: u32,
}

/// A pooled execution unit: one shard's ops + their byte arena in,
/// responses out. A session fills it, executes it under the shard's
/// lock and reads `responses[i]` aligned to `ops[i]`; the next reuse
/// answers into the same responses, value buffers kept.
#[derive(Debug, Default)]
struct Bundle {
    ops: Vec<Op>,
    arena: Vec<u8>,
    responses: Vec<KvResponse>,
}

impl Bundle {
    fn key<'a>(&'a self, op: &Op) -> &'a [u8] {
        &self.arena[op.key.0 as usize..op.key.1 as usize]
    }
}

/// The first `n` response slots of a bundle. The vector only grows (a
/// session reads `responses[i]` for `ops[i]` and nothing beyond), so
/// the value buffers of a large bundle survive a small one in between.
fn response_slots(responses: &mut Vec<KvResponse>, n: usize) -> &mut [KvResponse] {
    if responses.len() < n {
        responses.resize_with(n, KvResponse::default);
    }
    &mut responses[..n]
}

/// The execution core's view of a multi-op bundle: request `i` is
/// `ops[i]`, its key and framed value read in place from `arena`.
struct BundleRequests<'a> {
    ops: &'a [Op],
    arena: &'a [u8],
}

impl RequestStream for BundleRequests<'_> {
    fn len(&self) -> usize {
        self.ops.len()
    }

    fn get(&self, i: usize) -> KvRequestRef<'_> {
        let op = &self.ops[i];
        let key = &self.arena[op.key.0 as usize..op.key.1 as usize];
        match op.verb {
            Verb::Get => KvRequestRef::get(key),
            Verb::Store(Set) => {
                let value = &self.arena[op.val.0 as usize..op.val.1 as usize];
                KvRequestRef::put_ttl(key, value, op.expiry)
            }
            Verb::Delete => KvRequestRef::delete(key),
            Verb::Store(Add | Replace) | Verb::Touch => unreachable!("these ops ship alone"),
        }
    }
}

/// One shard: its store, and the scratch response conditional probes
/// read into (pooled across bundles).
struct Shard {
    store: KvDirectStore,
    probe: KvResponse,
}

/// What every session shares with the others and with the
/// [`ServerHandle`], behind one `Arc`.
struct Shared {
    shards: Box<[Mutex<Shard>]>,
    cas: AtomicU64,
    costs: SharedServerCosts,
    clock: ServerClock,
    shutdown: AtomicBool,
    /// Sessions alive (accepted connections not yet torn down).
    active: AtomicUsize,
}

impl Shared {
    fn new(cfg: ServerConfig) -> Shared {
        assert!(cfg.shards >= 1, "need at least one shard");
        let clock = ServerClock::start();
        let shard = |_| {
            let store = KvDirectStore::new(cfg.store.clone());
            Mutex::new(Shard {
                store,
                probe: KvResponse::default(),
            })
        };
        Shared {
            shards: (0..cfg.shards).map(shard).collect(),
            cas: AtomicU64::new(0),
            costs: SharedServerCosts::default(),
            clock,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        }
    }
}

/// A running server; dropping or [`stop`](ServerHandle::stop)ping shuts
/// it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open (accepted, not yet torn down). Chaos
    /// tests poll this to know a killed client has fully drained
    /// server-side before asserting on store state.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Live protocol-plane counters.
    pub fn server_costs(&self) -> ServerCosts {
        self.shared.costs.snapshot()
    }

    /// Merged op-cost ledger: every shard's data-plane costs (read
    /// under its lock and merged in shard order, so the result is
    /// deterministic) plus the protocol plane's [`ServerCosts`]. Safe to
    /// call while the server is serving.
    pub fn ledger(&self) -> OpLedger {
        let mut out = OpLedger {
            server: self.server_costs(),
            ..Default::default()
        };
        for shard in self.shared.shards.iter() {
            // Counters stay meaningful after a panic mid-bundle, so read
            // through a poisoned lock.
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            out.merge(&shard.store.ledger());
        }
        out
    }

    /// Stops the server: drains connections and returns the final
    /// ledger.
    pub fn stop(mut self) -> OpLedger {
        self.shut_down();
        // Connections poll the flag on their read timeout; give them a
        // bounded window to drain.
        for _ in 0..200 {
            if self.active_connections() == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        self.ledger()
    }

    /// Raises the shutdown flag and joins the acceptor.
    fn shut_down(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            // The acceptor blocks in `accept`; one throw-away connection
            // wakes it to see the flag. If that cannot be made, leave
            // the thread detached rather than wait on it forever.
            if TcpStream::connect(self.addr).is_ok() {
                let _ = a.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shut_down();
    }
}

impl CostSource for ServerHandle {
    fn emit_costs(&self, out: &mut OpLedger) {
        out.merge(&self.ledger());
    }
}

/// Binds `addr` and starts serving.
pub fn serve<A: ToSocketAddrs>(addr: A, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(cfg));
    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            // Ends on an accept error or on the wake-up connection that
            // `shut_down` makes after raising the flag.
            while let Ok((stream, _)) = listener.accept() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Opened here, so the connection counts as active from
                // its accept on.
                let session = Session::new(Arc::clone(&shared));
                thread::spawn(move || drive(stream, session));
            }
        })
    };
    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

/// Runs one connection: reads into the session, runs it, writes its
/// replies. Returns on EOF, `quit`, shutdown, an I/O error or a poisoned
/// shard; dropping the session then folds its counters.
fn drive(mut stream: TcpStream, mut session: Session) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_nodelay(true)?;
    // Read when the last pass left nothing it could run without more
    // bytes — otherwise a buffered partial frame would spin hot.
    let mut more = false;
    while !session.closing && !session.shared.shutdown.load(Ordering::SeqCst) {
        if !more {
            match stream.read(session.spare()) {
                Ok(0) => break,
                Ok(n) => session.received(n),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    session.flush_costs();
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        // A poisoned shard closes the connection without a reply.
        let Ok(again) = session.process() else {
            return Ok(());
        };
        more = again;
        stream.write_all(&session.out)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shard execution (called with the shard's lock held)
// ---------------------------------------------------------------------

/// Stamps the next cas unique into a store op's value header.
fn stamp_cas(cas: &AtomicU64, arena: &mut [u8], op: &Op) {
    let unique = cas.fetch_add(1, Ordering::Relaxed) + 1;
    let at = op.val.0 as usize + 4;
    arena[at..at + 8].copy_from_slice(&unique.to_le_bytes());
}

fn execute_bundle(shard: &mut Shard, bundle: &mut Bundle, cas: &AtomicU64) {
    let store = &mut shard.store;
    // Sessions seal ships-alone ops into their own single-op bundle.
    if bundle.ops.len() == 1 && bundle.ops[0].verb.ships_alone() {
        let op = bundle.ops[0];
        if op.verb == Verb::Touch {
            let found = store.touch(bundle.key(&op), op.expiry);
            let status = if found { Status::Ok } else { Status::NotFound };
            set_response(bundle, status);
            return;
        }
        return execute_conditional(store, bundle, cas, &mut shard.probe);
    }
    // Stamp cas uniques into the value headers, then let the core read
    // the whole bundle in place. Destructured so the request view
    // (borrowing `ops` and `arena`) and the responses borrow disjoint
    // fields.
    let Bundle {
        ops,
        arena,
        responses,
    } = bundle;
    for op in ops.iter() {
        if op.verb == Verb::Store(Set) {
            stamp_cas(cas, arena, op);
        }
    }
    store.run(
        &BundleRequests { ops, arena },
        response_slots(responses, ops.len()),
    );
}

/// `add`/`replace`: probe-then-store, atomic because the caller holds
/// the shard's lock across both. The precondition failure is surfaced as
/// `Status::NotFound` (the connection maps it to `NOT_STORED`).
fn execute_conditional(
    store: &mut KvDirectStore,
    bundle: &mut Bundle,
    cas: &AtomicU64,
    probe: &mut KvResponse,
) {
    let op = bundle.ops[0];
    stamp_cas(cas, &mut bundle.arena, &op);
    store.execute_one_into(KvRequestRef::get(bundle.key(&op)), probe);
    let present = match probe.status {
        Status::Ok => true,
        Status::NotFound => false,
        // Probe itself failed (device fault, shed): surface that status.
        status => return set_response(bundle, status),
    };
    // `add` stores only a missing key, `replace` only a present one.
    if present != (op.verb == Verb::Store(Replace)) {
        return set_response(bundle, Status::NotFound);
    }
    let Bundle {
        arena, responses, ..
    } = bundle;
    let req = KvRequestRef::put_ttl(
        &arena[op.key.0 as usize..op.key.1 as usize],
        &arena[op.val.0 as usize..op.val.1 as usize],
        op.expiry,
    );
    store.execute_one_into(req, &mut response_slots(responses, 1)[0]);
}

/// Maps a failed op status to its `SERVER_ERROR` taxonomy line. The
/// three failure families clients must distinguish:
///
/// * `overloaded` — admission control shed the op before execution;
///   retry after backoff, ideally against another replica.
/// * `deadline_expired` — the op was admitted but outlived its service
///   deadline in-queue; the client's own timeout has likely fired, so
///   retrying immediately is reasonable.
/// * `device_error` — the (simulated) NIC pipeline faulted; retry
///   against another replica.
///
/// Allocation failure keeps memcached's canonical string. Note the
/// third kind of "expired" — a key whose **TTL** lapsed — is not an
/// error at all: it surfaces as `Status::NotFound`, i.e. a plain miss.
fn taxonomy_reply(status: Status) -> &'static [u8] {
    match status {
        Status::OutOfMemory => b"SERVER_ERROR out of memory storing object\r\n",
        Status::Overloaded => b"SERVER_ERROR overloaded\r\n",
        Status::Expired => b"SERVER_ERROR deadline_expired\r\n",
        _ => b"SERVER_ERROR device_error\r\n",
    }
}

fn set_response(bundle: &mut Bundle, status: Status) {
    let resp = &mut response_slots(&mut bundle.responses, 1)[0];
    resp.status = status;
    resp.value.clear();
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

/// What the response encoder must emit, in request order.
enum PlanItem {
    /// One `get`/`gets` frame: `n_keys` consecutive slots, then `END`.
    GetFrame {
        first_slot: u32,
        n_keys: u32,
        with_cas: bool,
    },
    /// One store/delete/touch op's status line (suppressed by `noreply`).
    Op {
        slot: u32,
        verb: Verb,
        noreply: bool,
    },
    /// Immediate canned reply (errors, `VERSION`).
    Reply(&'static [u8]),
}

/// A shard the session needed has a poisoned lock: a connection panicked
/// mid-bundle, so its table may be half-mutated.
#[derive(Debug)]
struct Poisoned;

/// One connection's protocol state, without the socket. Bytes go in
/// through [`spare`](Session::spare) and [`received`](Session::received);
/// [`process`](Session::process) answers them into `out`.
struct Session {
    shared: Arc<Shared>,
    /// Receive buffer: `recv[start..end]` holds the bytes received and
    /// not yet consumed. Its length only grows, and only when one frame
    /// is larger than the whole buffer.
    recv: Vec<u8>,
    start: usize,
    end: usize,
    /// Replies encoded by the last `process`, in request order.
    out: Vec<u8>,
    /// Data-block bytes still to swallow after an oversized store.
    swallow: usize,
    /// Set by `quit` or a fatal protocol error: what is parsed is still
    /// answered, nothing after it is read.
    closing: bool,

    /// Per-shard bundle being filled this batch (`None` = empty).
    staging: Vec<Option<Bundle>>,
    pool: Vec<Bundle>,
    /// Bundles executed this batch, in seal order.
    done: Vec<Bundle>,
    plan: Vec<PlanItem>,
    /// One entry per op staged this batch: slot -> (index into `done`,
    /// op index), filled in before encoding.
    slots: Vec<(u32, u32)>,
    local: ServerCosts,
}

impl Session {
    /// Opens a session; it counts as an open connection until dropped.
    fn new(shared: Arc<Shared>) -> Session {
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.costs.connections.fetch_add(1, Ordering::Relaxed);
        Session {
            staging: (0..shared.shards.len()).map(|_| None).collect(),
            shared,
            recv: vec![0; 16 << 10],
            start: 0,
            end: 0,
            out: Vec::with_capacity(16 << 10),
            swallow: 0,
            closing: false,
            pool: Vec::new(),
            done: Vec::new(),
            plan: Vec::new(),
            slots: Vec::new(),
            local: ServerCosts::default(),
        }
    }

    /// Where the next received bytes go: the free tail of the receive
    /// buffer, after a carried-over partial frame is moved to the front
    /// so the rest of it has room to arrive.
    fn spare(&mut self) -> &mut [u8] {
        if self.start > 0 {
            self.recv.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.recv.len() {
            // One frame larger than the buffer (the parser bounds
            // frames, so this stops at a few doublings).
            self.recv.resize(self.recv.len() * 2, 0);
        }
        &mut self.recv[self.end..]
    }

    /// Takes in the first `n` bytes of [`spare`](Session::spare).
    fn received(&mut self, n: usize) {
        self.local.bytes_in += n as u64;
        self.end += n;
    }

    /// Parses up to [`MAX_BATCH`] ops of the buffered frames, executes
    /// them shard by shard and encodes their replies into `out`. Returns
    /// whether buffered bytes are left that can be processed without
    /// receiving more.
    fn process(&mut self) -> Result<bool, Poisoned> {
        self.out.clear();
        if self.swallow > 0 {
            let eat = self.swallow.min(self.end - self.start);
            self.start += eat;
            self.swallow -= eat;
            if self.swallow > 0 {
                return Ok(false);
            }
        }
        let before = self.start;
        // The parsed commands borrow the receive buffer while staging
        // mutates `self`; moving the buffer out for the duration keeps
        // the borrows disjoint without copying a byte.
        let recv = std::mem::take(&mut self.recv);
        let parsed = self.parse_batch(&recv[..self.end]);
        self.recv = recv;
        parsed?;
        for shard in 0..self.staging.len() {
            self.seal(shard)?;
        }
        self.encode();
        // No bytes consumed = a partial frame: wait for more input.
        Ok(self.start != before && self.start != self.end)
    }

    /// Parses and stages frames until the batch is full, no complete
    /// frame is buffered, or the session starts closing or swallowing.
    fn parse_batch(&mut self, recv: &[u8]) -> Result<(), Poisoned> {
        self.slots.clear();
        while self.slots.len() < MAX_BATCH && !self.closing && self.swallow == 0 {
            let consumed = match parse(&recv[self.start..]) {
                Parsed::Incomplete => break,
                Parsed::Frame { cmd, consumed } => {
                    self.local.frames += 1;
                    self.local.requests += 1;
                    self.command(cmd)?;
                    consumed
                }
                Parsed::Error { err, consumed } => {
                    self.local.frames += 1;
                    self.local.protocol_errors += 1;
                    self.plan.push(PlanItem::Reply(err.reply()));
                    self.closing = err.is_fatal();
                    consumed
                }
                Parsed::TooLarge {
                    consumed,
                    skip,
                    noreply,
                } => {
                    self.local.frames += 1;
                    self.local.server_errors += 1;
                    if !noreply {
                        self.plan.push(PlanItem::Reply(TOO_LARGE_REPLY));
                    }
                    self.swallow = skip;
                    consumed
                }
            };
            self.start += consumed;
        }
        Ok(())
    }

    /// Stages (or answers) one parsed command.
    fn command(&mut self, cmd: Command<'_>) -> Result<(), Poisoned> {
        let (verb, key, flags, data, exptime, noreply) = match cmd {
            Command::Get { with_cas, keys } => {
                let first_slot = self.slots.len() as u32;
                for key in keys.iter() {
                    self.stage(Verb::Get, key, 0, &[], 0)?;
                }
                self.plan.push(PlanItem::GetFrame {
                    first_slot,
                    n_keys: self.slots.len() as u32 - first_slot,
                    with_cas,
                });
                return Ok(());
            }
            Command::Store {
                verb,
                key,
                flags,
                exptime,
                data,
                noreply,
            } => (Verb::Store(verb), key, flags, data, exptime, noreply),
            Command::Touch {
                key,
                exptime,
                noreply,
            } => (Verb::Touch, key, 0, &[][..], exptime, noreply),
            Command::Delete { key, noreply } => (Verb::Delete, key, 0, &[][..], 0, noreply),
            Command::Version => {
                self.plan.push(PlanItem::Reply(VERSION_REPLY));
                return Ok(());
            }
            Command::Quit => {
                self.closing = true;
                return Ok(());
            }
        };
        let expiry = self.shared.clock.expiry_tick(exptime);
        let slot = self.stage(verb, key, flags, data, expiry)?;
        self.plan.push(PlanItem::Op {
            slot,
            verb,
            noreply,
        });
        Ok(())
    }

    /// Stages one op into its shard's bundle and returns its response
    /// slot. Ships-alone ops seal (and so execute) what was staged ahead
    /// of them, then themselves.
    fn stage(
        &mut self,
        verb: Verb,
        key: &[u8],
        flags: u32,
        data: &[u8],
        expiry: u32,
    ) -> Result<u32, Poisoned> {
        debug_assert!(key.len() <= MAX_KEY_LEN);
        let shard = shard_of(key, self.staging.len());
        if verb.ships_alone() {
            self.seal(shard)?;
        }
        let mut bundle = self.staging[shard]
            .take()
            .or_else(|| self.pool.pop())
            .unwrap_or_default();
        let kstart = bundle.arena.len() as u32;
        bundle.arena.extend_from_slice(key);
        let kend = bundle.arena.len() as u32;
        let (vstart, vend) = if matches!(verb, Verb::Store(_)) {
            let vstart = bundle.arena.len() as u32;
            bundle.arena.extend_from_slice(&flags.to_le_bytes());
            bundle.arena.extend_from_slice(&[0u8; 8]); // cas, stamped at execute
            bundle.arena.extend_from_slice(data);
            (vstart, bundle.arena.len() as u32)
        } else {
            (0, 0)
        };
        let slot = self.slots.len() as u32;
        self.slots.push((u32::MAX, u32::MAX));
        bundle.ops.push(Op {
            verb,
            slot,
            key: (kstart, kend),
            val: (vstart, vend),
            expiry,
        });
        self.staging[shard] = Some(bundle);
        if verb.ships_alone() {
            self.seal(shard)?;
        }
        Ok(slot)
    }

    /// Executes shard `shard`'s staged bundle (if any) in place, under
    /// the shard's lock — the only lock this session ever holds.
    fn seal(&mut self, shard: usize) -> Result<(), Poisoned> {
        let Some(mut bundle) = self.staging[shard].take() else {
            return Ok(());
        };
        {
            let mut locked = self.shared.shards[shard].lock().map_err(|_| Poisoned)?;
            // Advance this shard's expiry clock to wall time before
            // executing, so lazily-expired entries stop being served the
            // moment their deadline passes. Read under the lock, so the
            // shard never sees time run backwards.
            let now = SimTime::from_us(self.shared.clock.now_us());
            locked.store.processor_mut().set_now(now);
            execute_bundle(&mut locked, &mut bundle, &self.shared.cas);
        }
        self.done.push(bundle);
        Ok(())
    }

    /// Encodes the executed batch into `out` in request order, then
    /// returns its bundles to the pool.
    fn encode(&mut self) {
        let Session {
            out,
            done,
            plan,
            slots,
            local,
            ..
        } = self;
        for (bi, b) in done.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                slots[op.slot as usize] = (bi as u32, oi as u32);
            }
        }
        let answer = |slot: u32| {
            let (bi, oi) = slots[slot as usize];
            let b = &done[bi as usize];
            (b, &b.ops[oi as usize], &b.responses[oi as usize])
        };
        for item in plan.drain(..) {
            match item {
                PlanItem::Reply(bytes) => out.extend_from_slice(bytes),
                PlanItem::GetFrame {
                    first_slot,
                    n_keys,
                    with_cas,
                } => {
                    let frame = first_slot..first_slot + n_keys;
                    // A key that faulted (device error, overload shed,
                    // …) must not masquerade as a miss — a client would
                    // read that as a lost write. Fail the whole frame
                    // with the first fault's taxonomy class.
                    let failed = frame.clone().find_map(|slot| {
                        let status = answer(slot).2.status;
                        (!matches!(status, Status::Ok | Status::NotFound)).then_some(status)
                    });
                    if let Some(status) = failed {
                        local.server_errors += 1;
                        out.extend_from_slice(taxonomy_reply(status));
                        continue;
                    }
                    for slot in frame {
                        let (b, op, resp) = answer(slot);
                        if resp.status == Status::Ok && resp.value.len() >= VALUE_HEADER_LEN {
                            local.get_hits += 1;
                            let flags =
                                u32::from_le_bytes(resp.value[0..4].try_into().expect("4B"));
                            let cas = u64::from_le_bytes(resp.value[4..12].try_into().expect("8B"));
                            crate::proto::encode_value(
                                out,
                                b.key(op),
                                flags,
                                with_cas.then_some(cas),
                                &resp.value[VALUE_HEADER_LEN..],
                            );
                        } else {
                            local.get_misses += 1;
                        }
                    }
                    out.extend_from_slice(b"END\r\n");
                }
                PlanItem::Op {
                    slot,
                    verb,
                    noreply,
                } => {
                    let line: &[u8] = match (verb, answer(slot).2.status) {
                        (Verb::Store(_), Status::Ok) => b"STORED\r\n",
                        (Verb::Store(Add | Replace), Status::NotFound) => b"NOT_STORED\r\n",
                        (Verb::Delete, Status::Ok) => b"DELETED\r\n",
                        (Verb::Touch, Status::Ok) => b"TOUCHED\r\n",
                        (Verb::Delete | Verb::Touch, Status::NotFound) => b"NOT_FOUND\r\n",
                        (_, status) => taxonomy_reply(status),
                    };
                    match line {
                        b"STORED\r\n" => local.stored += 1,
                        b"NOT_STORED\r\n" => local.not_stored += 1,
                        b"DELETED\r\n" => local.deleted += 1,
                        b"TOUCHED\r\n" => local.touched += 1,
                        b"NOT_FOUND\r\n" => {}
                        _ => local.server_errors += 1,
                    }
                    if !noreply {
                        out.extend_from_slice(line);
                    }
                }
            }
        }
        local.bytes_out += out.len() as u64;

        // Return bundles (responses intact — their buffers recycle on
        // the next execute) to the pool.
        self.pool.extend(self.done.drain(..).map(|mut b| {
            b.ops.clear();
            b.arena.clear();
            b
        }));
    }

    /// Folds this session's protocol counters into the shared ones.
    fn flush_costs(&mut self) {
        if self.local != ServerCosts::default() {
            self.shared.costs.fold(&self.local);
            self.local = ServerCosts::default();
        }
    }
}

impl Drop for Session {
    /// Folds the counters on every exit path — EOF, `quit`, an I/O
    /// error, a poisoned shard — then closes the connection's count.
    fn drop(&mut self) {
        self.flush_costs();
        let Shared { costs, active, .. } = &*self.shared;
        costs.disconnects.fetch_add(1, Ordering::Relaxed);
        active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::Barrier;

    fn roundtrip(server: &ServerHandle, send: &[u8]) -> Vec<u8> {
        let mut s = TcpStream::connect(server.local_addr()).expect("connect");
        s.write_all(send).expect("send");
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read");
        got
    }

    #[test]
    fn serves_set_get_delete_over_tcp() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let got = roundtrip(
            &h,
            b"set k 5 0 5\r\nhello\r\nget k\r\ndelete k\r\nget k\r\n",
        );
        assert_eq!(
            got,
            b"STORED\r\nVALUE k 5 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n".to_vec()
        );
        let ledger = h.stop();
        assert_eq!(ledger.server.requests, 4);
        assert_eq!(ledger.server.get_hits, 1);
        assert_eq!(ledger.server.get_misses, 1);
        assert_eq!(ledger.server.stored, 1);
        assert_eq!(ledger.server.deleted, 1);
        // Data-plane attribution: the shard stores saw the traffic too.
        assert!(ledger.core.requests > 0, "core plane unattributed");
    }

    #[test]
    fn faulted_get_is_a_server_error_not_a_miss() {
        // With every fault channel at 100%, retry budgets exhaust and
        // each op fails with a device error. A GET must surface that as
        // SERVER_ERROR — reporting it as a miss would read as data loss.
        let mut cfg = ServerConfig::loopback(1);
        cfg.store.fault_rates = kvd_sim::FaultRates::uniform(1.0);
        cfg.store.fault_seed = 0xFA_17;
        let h = serve("127.0.0.1:0", cfg).expect("bind");
        let got = roundtrip(&h, b"get k\r\n");
        assert_eq!(got, b"SERVER_ERROR device_error\r\n".to_vec());
        let ledger = h.stop();
        assert_eq!(ledger.server.server_errors, 1);
        assert_eq!(ledger.server.get_misses, 0, "fault must not count as miss");
        assert!(ledger.core.device_errors > 0);
    }

    #[test]
    fn multi_get_spans_shards_in_request_order() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(4)).expect("bind");
        let mut send = Vec::new();
        for i in 0..8 {
            send.extend_from_slice(format!("set key{i} 0 0 2 noreply\r\nv{i}\r\n").as_bytes());
        }
        send.extend_from_slice(b"get key0 key1 key2 key3 key4 key5 key6 key7 missing\r\n");
        let got = roundtrip(&h, &send);
        // All nine keys belong to ONE get frame: a single END; the miss
        // is silently absent.
        let mut want = Vec::new();
        for i in 0..8 {
            want.extend_from_slice(format!("VALUE key{i} 0 2\r\nv{i}\r\n").as_bytes());
        }
        want.extend_from_slice(b"END\r\n");
        assert_eq!(got, want);
        h.stop();
    }

    #[test]
    fn add_replace_preconditions() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let got = roundtrip(
            &h,
            b"add k 0 0 1\r\na\r\nadd k 0 0 1\r\nb\r\nreplace k 0 0 1\r\nc\r\nreplace missing 0 0 1\r\nd\r\nget k\r\n",
        );
        assert_eq!(
            got,
            b"STORED\r\nNOT_STORED\r\nSTORED\r\nNOT_STORED\r\nVALUE k 0 1\r\nc\r\nEND\r\n".to_vec()
        );
        h.stop();
    }

    #[test]
    fn gets_returns_monotonic_cas() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let got = roundtrip(
            &h,
            b"set k 0 0 1\r\na\r\ngets k\r\nset k 0 0 1\r\nb\r\ngets k\r\n",
        );
        let text = String::from_utf8(got).expect("ascii");
        let cas: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("VALUE"))
            .map(|l| l.split(' ').nth(4).expect("cas").parse().expect("number"))
            .collect();
        assert_eq!(cas.len(), 2);
        assert!(
            cas[1] > cas[0],
            "cas must be unique and increasing: {cas:?}"
        );
        h.stop();
    }

    #[test]
    fn error_paths_and_quit() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let mut s = TcpStream::connect(h.local_addr()).expect("connect");
        s.write_all(b"bogus\r\nget\r\nversion\r\nquit\r\n")
            .expect("send");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read");
        let mut want = Vec::new();
        want.extend_from_slice(b"ERROR\r\n");
        want.extend_from_slice(b"CLIENT_ERROR bad command line format\r\n");
        want.extend_from_slice(VERSION_REPLY);
        assert_eq!(got, want);
        let ledger = h.stop();
        assert_eq!(ledger.server.protocol_errors, 2);
        h_assert_disconnect(&ledger);
    }

    fn h_assert_disconnect(l: &OpLedger) {
        assert!(l.server.connections >= 1);
        assert_eq!(l.server.connections, l.server.disconnects);
    }

    #[test]
    fn oversized_object_swallowed_and_refused() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let n = crate::proto::MAX_DATA_LEN + 1;
        let mut send = format!("set big 0 0 {n}\r\n").into_bytes();
        send.extend(vec![b'x'; n]);
        send.extend_from_slice(b"\r\nget ok\r\n");
        let got = roundtrip(&h, &send);
        let mut want = TOO_LARGE_REPLY.to_vec();
        want.extend_from_slice(b"END\r\n");
        assert_eq!(got, want);
        h.stop();
    }

    #[test]
    fn pipelined_split_segments_reassemble() {
        // The same request bytes dribbled one byte at a time must
        // produce the same responses as one write.
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let send = b"set k 1 0 3\r\nabc\r\nget k\r\n";
        let mut s = TcpStream::connect(h.local_addr()).expect("connect");
        for &b in send.iter() {
            s.write_all(&[b]).expect("byte");
        }
        s.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("read");
        assert_eq!(got, b"STORED\r\nVALUE k 1 3\r\nabc\r\nEND\r\n".to_vec());
        h.stop();
    }

    #[test]
    fn binary_values_roundtrip() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let data: Vec<u8> = (0..=255u8).collect();
        let mut send = format!("set bin 0 0 {}\r\n", data.len()).into_bytes();
        send.extend_from_slice(&data);
        send.extend_from_slice(b"\r\nget bin\r\n");
        let got = roundtrip(&h, &send);
        let mut want = b"STORED\r\nVALUE bin 0 256\r\n".to_vec();
        want.extend_from_slice(&data);
        want.extend_from_slice(b"\r\nEND\r\n");
        assert_eq!(got, want);
        h.stop();
    }

    #[test]
    fn past_absolute_exptime_is_stored_then_gone() {
        // memcached semantics: an absolute exptime in the past is
        // accepted (STORED) but the value is dead on arrival.
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let n = EXPTIME_RELATIVE_MAX + 1; // 1970-era Unix timestamp
        let send = format!("set k 0 {n} 1\r\na\r\nget k\r\n");
        let got = roundtrip(&h, send.as_bytes());
        assert_eq!(got, b"STORED\r\nEND\r\n".to_vec());
        let ledger = h.stop();
        assert_eq!(ledger.server.stored, 1);
        assert_eq!(ledger.server.get_misses, 1);
    }

    #[test]
    fn touch_restamps_and_reports_misses() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let past = EXPTIME_RELATIVE_MAX + 1;
        // Immortal set; touch into the past kills it; touching a
        // missing key is NOT_FOUND.
        let send =
            format!("set k 0 0 1\r\na\r\nget k\r\ntouch k {past}\r\nget k\r\ntouch missing 60\r\n");
        let got = roundtrip(&h, send.as_bytes());
        assert_eq!(
            got,
            b"STORED\r\nVALUE k 0 1\r\na\r\nEND\r\nTOUCHED\r\nEND\r\nNOT_FOUND\r\n".to_vec()
        );
        let ledger = h.stop();
        assert_eq!(ledger.server.touched, 1);
        assert_eq!(ledger.server.get_hits, 1);
        assert_eq!(ledger.server.get_misses, 1);
    }

    #[test]
    fn relative_exptime_expires_in_real_time() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let got = roundtrip(&h, b"set k 0 1 1\r\na\r\nget k\r\n");
        assert_eq!(got, b"STORED\r\nVALUE k 0 1\r\na\r\nEND\r\n".to_vec());
        // One-second relative TTL: generously past the deadline the
        // same key must read as a plain miss (not an error).
        thread::sleep(Duration::from_millis(1600));
        let got = roundtrip(&h, b"get k\r\n");
        assert_eq!(got, b"END\r\n".to_vec());
        // A touch can also resurrect-protect: re-set and extend before
        // expiry, then confirm it survives the original deadline.
        let got = roundtrip(&h, b"set j 0 1 1\r\nb\r\ntouch j 30\r\n");
        assert_eq!(got, b"STORED\r\nTOUCHED\r\n".to_vec());
        thread::sleep(Duration::from_millis(1600));
        let got = roundtrip(&h, b"get j\r\n");
        assert_eq!(got, b"VALUE j 0 1\r\nb\r\nEND\r\n".to_vec());
        h.stop();
    }

    /// Opens `conns` connections, releases them together and runs
    /// `client(index, stream, barrier)` on each, where `barrier` lines
    /// all of them up again; results come back in index order.
    fn race<T: Send>(
        server: &ServerHandle,
        conns: usize,
        client: impl Fn(usize, TcpStream, &Barrier) -> T + Sync,
    ) -> Vec<T> {
        let addr = server.local_addr();
        let barrier = Barrier::new(conns);
        thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let (barrier, client) = (&barrier, &client);
                    s.spawn(move || {
                        let stream = TcpStream::connect(addr).expect("connect");
                        barrier.wait();
                        client(c, stream, barrier)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client panicked"))
                .collect()
        })
    }

    #[test]
    fn racing_adds_store_each_key_exactly_once() {
        const CONNS: usize = 8;
        const KEYS: usize = 200;
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        // Key by key, every connection adds the same key at the same
        // moment, its own index as the value.
        let stored: Vec<Vec<bool>> = race(&h, CONNS, |c, s, barrier| {
            let mut w = s.try_clone().expect("clone");
            let mut r = BufReader::new(s);
            let mut line = String::new();
            (0..KEYS)
                .map(|k| {
                    barrier.wait();
                    let send = format!("add race{k} 0 0 1\r\n{c}\r\n");
                    w.write_all(send.as_bytes()).expect("send");
                    line.clear();
                    r.read_line(&mut line).expect("reply");
                    match line.as_str() {
                        "STORED\r\n" => true,
                        "NOT_STORED\r\n" => false,
                        other => panic!("unexpected reply {other:?}"),
                    }
                })
                .collect()
        });
        for k in 0..KEYS {
            let winners = stored.iter().enumerate().filter(|(_, conn)| conn[k]);
            let winners: Vec<usize> = winners.map(|(c, _)| c).collect();
            assert_eq!(winners.len(), 1, "race{k}: STORED to {winners:?}");
            // The value that survived is the one whose add was acked.
            let got = roundtrip(&h, format!("get race{k}\r\n").as_bytes());
            let want = format!("VALUE race{k} 0 1\r\n{}\r\nEND\r\n", winners[0]);
            assert_eq!(got, want.as_bytes());
        }
        let ledger = h.stop();
        assert_eq!(ledger.server.requests, ((CONNS + 1) * KEYS) as u64);
        assert_eq!(ledger.server.stored, KEYS as u64);
        assert_eq!(ledger.server.not_stored, ((CONNS - 1) * KEYS) as u64);
        assert!(ledger.core.requests > 0, "core plane unattributed");
    }

    #[test]
    fn racing_sets_get_distinct_cas_uniques_ordered_per_key() {
        const CONNS: usize = 8;
        const KEYS: usize = 16;
        const ROUNDS: usize = 40;
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        // Each round: overwrite a shared key with a value naming the
        // write, then `gets` it. Returns (key, value, cas) as observed.
        let seen: Vec<Vec<(usize, String, u64)>> = race(&h, CONNS, |c, s, _| {
            let mut w = s.try_clone().expect("clone");
            let mut r = BufReader::new(s);
            let mut seen = Vec::new();
            let mut line = String::new();
            let mut read_line = |line: &mut String| {
                line.clear();
                r.read_line(line).expect("reply");
            };
            for round in 0..ROUNDS {
                let k = (c + round) % KEYS;
                let value = format!("c{c}r{round}");
                let send = format!(
                    "set cas{k} 0 0 {}\r\n{value}\r\ngets cas{k}\r\n",
                    value.len()
                );
                w.write_all(send.as_bytes()).expect("send");
                read_line(&mut line);
                assert_eq!(line, "STORED\r\n");
                read_line(&mut line);
                let cas = line.trim_end().rsplit(' ').next().expect("cas").parse();
                let cas: u64 = cas.unwrap_or_else(|_| panic!("no cas in {line:?}"));
                read_line(&mut line);
                seen.push((k, line.trim_end().to_string(), cas));
                read_line(&mut line);
                assert_eq!(line, "END\r\n");
            }
            seen
        });
        // One cas unique names one write, and one write has one unique.
        let mut write_of = std::collections::HashMap::new();
        let mut cas_of = std::collections::HashMap::new();
        for (k, value, cas) in seen.iter().flatten() {
            let write = (*k, value.as_str());
            assert_eq!(*write_of.entry(*cas).or_insert(write), write, "cas {cas}");
            assert_eq!(
                *cas_of.entry(write).or_insert(*cas),
                *cas,
                "write {write:?}"
            );
        }
        // A key's unique never goes back for any one reader.
        for per_conn in &seen {
            let mut last = [0u64; KEYS];
            for (k, _, cas) in per_conn {
                assert!(
                    *cas >= last[*k],
                    "cas{k} went back: {} then {cas}",
                    last[*k]
                );
                last[*k] = *cas;
            }
        }
        let ledger = h.stop();
        assert_eq!(ledger.server.requests, (CONNS * ROUNDS * 2) as u64);
        assert!(ledger.core.requests > 0, "core plane unattributed");
    }

    #[test]
    fn ledger_is_readable_and_monotone_while_serving() {
        const WINDOW: usize = 32;
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let stop = AtomicBool::new(false);
        let (sent, last_live) = thread::scope(|s| {
            // Two connections, each keeping WINDOW frames in flight.
            let clients = s.spawn(|| {
                race(&h, 2, |c, stream, _| {
                    let mut w = stream.try_clone().expect("clone");
                    let mut r = BufReader::new(stream);
                    let frame = format!("set live{c} 0 0 1\r\nv\r\n");
                    w.write_all(frame.repeat(WINDOW).as_bytes()).expect("fill");
                    let mut sent = WINDOW as u64;
                    let mut answered = 0;
                    let mut line = String::new();
                    // Once told to stop, drain what is still in flight.
                    while answered < sent {
                        line.clear();
                        r.read_line(&mut line).expect("reply");
                        assert_eq!(line, "STORED\r\n");
                        answered += 1;
                        if !stop.load(Ordering::SeqCst) {
                            w.write_all(frame.as_bytes()).expect("send");
                            sent += 1;
                        }
                    }
                    sent
                })
            });
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut last = h.ledger();
            while last.core.requests < 20_000 {
                assert!(Instant::now() < deadline, "no progress: {:?}", last.core);
                let now = h.ledger();
                assert!(now.core.requests >= last.core.requests);
                assert!(now.server.requests >= last.server.requests);
                last = now;
            }
            stop.store(true, Ordering::SeqCst);
            let sent: u64 = clients.join().expect("clients").iter().sum();
            (sent, last)
        });
        let fin = h.stop();
        assert!(fin.core.requests >= last_live.core.requests);
        assert!(fin.server.requests >= last_live.server.requests);
        assert_eq!(fin.server.requests, sent, "every frame sent was served");
    }

    #[test]
    fn poisoned_shard_fails_its_connections_and_still_stops() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let other = (0u32..)
            .map(|i| format!("k{i}"))
            .find(|k| shard_of(k.as_bytes(), 2) != shard_of(b"k", 2))
            .expect("key on the other shard");
        let send = format!("set k 0 0 1\r\na\r\nset {other} 0 0 1\r\nb\r\n");
        assert_eq!(
            roundtrip(&h, send.as_bytes()),
            b"STORED\r\nSTORED\r\n".to_vec()
        );

        // What a connection panicking mid-bundle leaves behind.
        let poisoned = &h.shared.shards[shard_of(b"k", 2)];
        thread::scope(|s| {
            let holder = s.spawn(|| {
                let _locked = poisoned.lock().expect("first panic");
                panic!("poisoning the shard on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(poisoned.is_poisoned());

        // The table may be half-mutated: no reply, not even to frames
        // of the same chunk that never touch it; the connection closes.
        assert_eq!(roundtrip(&h, b"version\r\nget k\r\n"), b"".to_vec());
        // The other shard keeps serving.
        let got = roundtrip(&h, format!("get {other}\r\n").as_bytes());
        assert_eq!(got, format!("VALUE {other} 0 1\r\nb\r\nEND\r\n").as_bytes());

        assert_eq!(h.ledger().server.stored, 2);
        let ledger = h.stop();
        assert_eq!(ledger.server.stored, 2);
        // The poisoned connection's two frames count although it closed
        // without a reply.
        assert_eq!(ledger.server.frames, 5);
        assert!(
            ledger.core.requests >= 3,
            "poisoned shard's costs still read"
        );
        h_assert_disconnect(&ledger);
    }

    #[test]
    fn counters_survive_a_reset_connection() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let mut s = TcpStream::connect(h.local_addr()).expect("connect");
        s.write_all(b"set k 0 0 1\r\nx\r\n").expect("send");
        // Wait for the reply without reading it: closing a socket with
        // unread bytes resets the connection, so the server's next read
        // fails instead of seeing EOF.
        s.peek(&mut [0u8; 1]).expect("reply arrives");
        drop(s);
        let ledger = h.stop();
        assert_eq!(ledger.server.disconnects, 1);
        assert_eq!(ledger.server.requests, 1);
        assert_eq!(ledger.server.stored, 1);
    }

    #[test]
    fn reader_sees_reply_before_half_close() {
        // Interactive (non-pipelined) use: one command, read reply.
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let s = TcpStream::connect(h.local_addr()).expect("connect");
        let mut w = s.try_clone().expect("clone");
        let mut r = BufReader::new(s);
        w.write_all(b"set k 0 0 1\r\nz\r\n").expect("send");
        let mut line = String::new();
        r.read_line(&mut line).expect("reply");
        assert_eq!(line, "STORED\r\n");
        w.write_all(b"quit\r\n").expect("quit");
        h.stop();
    }

    // -----------------------------------------------------------------
    // In-memory sessions: no socket, chosen segmentations and
    // interleavings.
    // -----------------------------------------------------------------

    /// Four shards of small stores with a small reservation station:
    /// cheap enough to build afresh for every split point.
    fn small_shared() -> Arc<Shared> {
        let mut store = KvDirectConfig::with_memory(64 << 10);
        store.extended_slabs = true;
        store.station.hash_slots = 16;
        store.station.capacity = 16;
        Arc::new(Shared::new(ServerConfig { shards: 4, store }))
    }

    /// Feeds `bytes` into `session` the way `drive` does — as much as
    /// fits per receive, then processed until it asks for more — and
    /// returns the replies it encoded.
    fn feed(session: &mut Session, mut bytes: &[u8]) -> Vec<u8> {
        let mut got = Vec::new();
        while !bytes.is_empty() && !session.closing {
            let spare = session.spare();
            let n = spare.len().min(bytes.len());
            spare[..n].copy_from_slice(&bytes[..n]);
            session.received(n);
            bytes = &bytes[n..];
            loop {
                let more = session.process().expect("no shard is poisoned");
                got.extend_from_slice(&session.out);
                if !more || session.closing {
                    break;
                }
            }
        }
        got
    }

    /// Replays `stream` into a fresh session on fresh shards, cut into
    /// segments at `cuts`.
    fn replay(stream: &[u8], cuts: impl IntoIterator<Item = usize>) -> Vec<u8> {
        let mut session = Session::new(small_shared());
        let mut got = Vec::new();
        let mut at = 0;
        for cut in cuts.into_iter().chain([stream.len()]) {
            got.extend(feed(&mut session, &stream[at..cut]));
            at = cut;
        }
        got
    }

    #[test]
    fn every_segmentation_answers_like_the_whole_stream() {
        // Exptimes are 0 or a day ahead, so wall time cannot change a
        // reply. Cas uniques follow execution order, and a batch runs its
        // shards' bundles in shard order, so where a segment ends can
        // reorder the stamps of stores on different shards. Every store
        // up to the `gets` is therefore on one shard (a, e, u, y and zz
        // share shard 3 of 4); the get frames also span shards 0 to 2,
        // and the stores on b and c come after the `gets`.
        let mut stream = b"set a 1 0 3\r\nabc\r\nset e 2 0 2 noreply\r\nee\r\n\
            add a 0 0 1\r\nx\r\nadd u 3 0 1\r\nu\r\nadd y 0 0 1 noreply\r\ny\r\n\
            replace e 5 0 3\r\nEEE\r\nreplace zz 0 0 1\r\nz\r\n\
            replace u 0 0 2 noreply\r\nuu\r\nget a e u y zz b c d\r\ngets a e u d\r\n\
            touch a 0\r\ntouch zz 0 noreply\r\ntouch e 86400\r\n\
            delete u\r\ndelete u\r\ndelete y noreply\r\n"
            .to_vec();
        let n = crate::proto::MAX_DATA_LEN + 1;
        stream.extend_from_slice(format!("set big 0 0 {n}\r\n").as_bytes());
        stream.extend(vec![b'x'; n]);
        stream.extend_from_slice(
            b"\r\nset b 0 0 1 noreply\r\nB\r\nadd c 7 0 1\r\nC\r\nget big a e b c u\r\n\
            bogus\r\nversion\r\nquit\r\nget a\r\n",
        );
        for key in ["a", "e", "u", "y", "zz"] {
            assert_eq!(shard_of(key.as_bytes(), 4), shard_of(b"a", 4));
        }

        let whole = replay(&stream, []);
        let mut want = b"STORED\r\nNOT_STORED\r\nSTORED\r\nSTORED\r\nNOT_STORED\r\n\
            VALUE a 1 3\r\nabc\r\nVALUE e 5 3\r\nEEE\r\nVALUE u 0 2\r\nuu\r\n\
            VALUE y 0 1\r\ny\r\nEND\r\n\
            VALUE a 1 3 1\r\nabc\r\nVALUE e 5 3 6\r\nEEE\r\nVALUE u 0 2 8\r\nuu\r\nEND\r\n\
            TOUCHED\r\nTOUCHED\r\nDELETED\r\nNOT_FOUND\r\n"
            .to_vec();
        want.extend_from_slice(TOO_LARGE_REPLY);
        want.extend_from_slice(
            b"STORED\r\nVALUE a 1 3\r\nabc\r\nVALUE e 5 3\r\nEEE\r\nVALUE b 0 1\r\nB\r\n\
            VALUE c 7 1\r\nC\r\nEND\r\nERROR\r\n",
        );
        want.extend_from_slice(VERSION_REPLY);
        assert_eq!(
            String::from_utf8_lossy(&whole),
            String::from_utf8_lossy(&want)
        );

        for cut in 1..stream.len() {
            assert!(replay(&stream, [cut]) == whole, "split at byte {cut}");
        }
        assert!(
            replay(&stream, 1..stream.len()) == whole,
            "one byte at a time"
        );
    }

    #[test]
    fn more_than_a_batch_answers_in_request_order() {
        const KEYS: usize = 100;
        let mut stream = Vec::new();
        let mut get = b"get".to_vec();
        let mut want = Vec::new();
        for i in 0..KEYS {
            stream.extend_from_slice(format!("set k{i} {i} 0 2\r\nv{}\r\n", i % 10).as_bytes());
            get.extend_from_slice(format!(" k{i}").as_bytes());
            want.extend_from_slice(b"STORED\r\n");
        }
        for i in 0..KEYS {
            want.extend_from_slice(format!("VALUE k{i} {i} 2\r\nv{}\r\n", i % 10).as_bytes());
        }
        want.extend_from_slice(b"END\r\n");
        stream.extend_from_slice(&get);
        stream.extend_from_slice(b"\r\n");
        assert!(
            KEYS > MAX_BATCH && stream.len() < 16 << 10,
            "one receive, several batches"
        );
        let got = replay(&stream, []);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want)
        );
    }

    #[test]
    fn interleaved_adds_of_one_key_store_it_once() {
        for order in [[0, 1], [1, 0]] {
            let shared = small_shared();
            let mut sessions = [
                Session::new(Arc::clone(&shared)),
                Session::new(Arc::clone(&shared)),
            ];
            let replies = order.map(|s| {
                let add = format!("add k 0 0 1\r\n{s}\r\n");
                feed(&mut sessions[s], add.as_bytes())
            });
            assert_eq!(
                replies,
                [b"STORED\r\n".to_vec(), b"NOT_STORED\r\n".to_vec()]
            );
            let got = feed(&mut sessions[order[1]], b"get k\r\n");
            let want = format!("VALUE k 0 1\r\n{}\r\nEND\r\n", order[0]);
            assert_eq!(got, want.into_bytes(), "the first add's value stays");
        }
    }

    #[test]
    fn interleaved_sets_and_gets_see_cas_uniques_grow_per_key() {
        const KEYS: usize = 3;
        for order in [[0, 1], [1, 0]] {
            let shared = small_shared();
            let mut sessions = [
                Session::new(Arc::clone(&shared)),
                Session::new(Arc::clone(&shared)),
            ];
            let mut last = [0u64; KEYS];
            for round in 0..12 {
                let k = round % KEYS;
                // One session writes the key, the other reads it back,
                // then the other way round: one frame per step.
                for (writer, reader) in [(order[0], order[1]), (order[1], order[0])] {
                    let set = format!("set k{k} 0 0 2\r\ns{writer}\r\n");
                    assert_eq!(feed(&mut sessions[writer], set.as_bytes()), b"STORED\r\n");
                    let got = feed(&mut sessions[reader], format!("gets k{k}\r\n").as_bytes());
                    let got = String::from_utf8(got).expect("ascii");
                    let mut lines = got.lines();
                    let head = lines.next().expect("VALUE line");
                    let cas: u64 = head.rsplit(' ').next().expect("cas").parse().expect("cas");
                    assert!(cas > last[k], "k{k}: cas {cas} after {}", last[k]);
                    assert_eq!(lines.next(), Some(format!("s{writer}").as_str()));
                    last[k] = cas;
                }
            }
        }
    }
}
