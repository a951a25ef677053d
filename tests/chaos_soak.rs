//! Chaos soak: bursty overload + fault injection + consistency checking.
//!
//! The full overload plane under the worst conditions the simulator can
//! produce: an open-loop client offering ~2x the measured saturation
//! throughput on average, in bursty phases (0.7x–8.5x swings from the
//! chaos scheduler), fault injection on every
//! component (PCIe corruption, DRAM bit errors, packet drops/reorders),
//! admission control and deadlines enabled. Three invariant families are
//! enforced:
//!
//! 1. **Sequential consistency per key** — keys are shard-partitioned
//!    and each shard executes its stream in order, so each shard's
//!    recorded outcomes must replay exactly on `kvd-model`: no lost or
//!    resurrected writes, versions never run backwards, and
//!    shed/expired/faulted ops have no effect.
//! 2. **Goodput holds at the knee** — at ~2x offered load, goodput stays
//!    at or above 70% of the measured saturation throughput instead of
//!    collapsing.
//! 3. **Determinism** — the whole soak, faults and sheds included, is
//!    bit-identical across worker counts for a fixed seed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use kv_direct::net::shard_of;
use kv_direct::parallel::{ParallelSimConfig, ParallelSimReport, ParallelSystemSim};
use kv_direct::sim::{DetRng, SimTime};
use kv_direct::{
    ChaosSchedule, FaultRates, KvDirectConfig, KvRequest, KvRequestRef, OpCode, OverloadConfig,
    Status,
};
use kvd_model::{versioned, Effect, Model, NO_EFFECT};
use kvd_server::{serve, ServerConfig};

const SHARDS: usize = 4;
const KEYS: u64 = 1_500;
const OPS: usize = 10_000;
const DEADLINE_SLACK_US: u32 = 2_000;

/// 70% GET / 25% PUT / 5% DELETE over a uniform key space, each PUT
/// stamping the next version of its key.
fn soak_ops(seed: u64) -> Vec<KvRequest> {
    let mut rng = DetRng::seed(seed);
    let mut versions: HashMap<u64, u64> = HashMap::new();
    (0..OPS)
        .map(|_| {
            let id = rng.u64_below(KEYS);
            let key = id.to_le_bytes();
            let roll = rng.u64_below(100);
            if roll < 70 {
                KvRequest::get(&key)
            } else if roll < 95 {
                let v = versions.entry(id).and_modify(|v| *v += 1).or_insert(1);
                KvRequest::put(&key, &versioned(id, *v))
            } else {
                KvRequest::delete(&key)
            }
        })
        .collect()
}

fn engine(seed: u64, workers: usize, faults: bool) -> ParallelSystemSim {
    let mut cfg = ParallelSimConfig::paper(KvDirectConfig::with_memory(1 << 20), 16, SHARDS);
    cfg.workers = workers;
    cfg.seed = seed;
    cfg.shard.store.overload = OverloadConfig::enabled();
    if faults {
        // PR-1 rates: every channel at 1%, the regime the fault-plane
        // suite validates recovery under.
        cfg.shard.store.fault_rates = FaultRates::uniform(0.01);
        cfg.shard.store.fault_seed = seed ^ 0xC_4A05;
    }
    let mut sim = ParallelSystemSim::new(cfg);
    for id in 0..KEYS {
        sim.preload_put(&id.to_le_bytes(), &versioned(id, 0))
            .expect("preload fits");
    }
    sim
}

/// Closed-loop saturation throughput of the same engine geometry,
/// fault-free: the baseline the soak's goodput is measured against.
fn saturation_mops(seed: u64) -> f64 {
    let mut sim = engine(seed, 2, false);
    sim.run(&soak_ops(seed)).mops
}

/// Bursty open-loop schedule delivering `offered_mops` on average.
fn soak_schedule(seed: u64, offered_mops: f64) -> Vec<(SimTime, KvRequest)> {
    let mut chaos = ChaosSchedule::new(offered_mops * 1e6, seed ^ 0xB0057);
    let arrivals = chaos.arrivals(OPS);
    arrivals
        .into_iter()
        .zip(soak_ops(seed))
        .map(|(t, mut r)| {
            r = r.with_deadline(t.as_us() as u32 + DEADLINE_SLACK_US);
            (t, r)
        })
        .collect()
}

/// One shard's recorded `(status, value)` stream, index-aligned with
/// the requests routed to it.
type ShardOutcomes = Vec<(Status, Vec<u8>)>;

fn run_soak(
    seed: u64,
    workers: usize,
    offered_mops: f64,
) -> (ParallelSimReport, Vec<ShardOutcomes>) {
    let mut sim = engine(seed, workers, true);
    sim.set_record_outcomes(true);
    let report = sim.run_open(&soak_schedule(seed, offered_mops));
    let outcomes = (0..SHARDS)
        .map(|s| sim.shard_outcomes(s).to_vec())
        .collect();
    (report, outcomes)
}

/// Replays one shard's outcome stream against a sequential model.
/// Returns the number of operations that had a visible effect.
fn check_shard(
    schedule: &[(SimTime, KvRequest)],
    shard: usize,
    outcomes: &[(Status, Vec<u8>)],
) -> u64 {
    let routed: Vec<&KvRequest> = schedule
        .iter()
        .map(|(_, r)| r)
        .filter(|r| shard_of(&r.key, SHARDS) == shard)
        .collect();
    assert_eq!(
        routed.len(),
        outcomes.len(),
        "shard {shard}: every routed op resolves exactly once"
    );
    let mut model = Model::default().tolerating(&NO_EFFECT).checking_versions();
    for id in 0..KEYS {
        let key = id.to_le_bytes();
        if shard_of(&key, SHARDS) == shard {
            model.insert(&key, &versioned(id, 0));
        }
    }
    let mut applied = 0u64;
    for (i, (req, (status, value))) in routed.iter().zip(outcomes).enumerate() {
        match model.check(req.as_ref(), *status, value) {
            Ok(effect) => applied += u64::from(effect == Effect::Applied),
            Err(e) => panic!("shard {shard} op {i}: {e}"),
        }
    }
    applied
}

#[test]
fn chaos_soak_consistency_holds_across_seeds() {
    for seed in [1u64, 2, 3] {
        let sat = saturation_mops(seed);
        let offered = 2.0 * sat;
        let schedule = soak_schedule(seed, offered);
        let (report, outcomes) = run_soak(seed, 2, offered);
        assert_eq!(report.ops, OPS as u64, "seed {seed}: every op resolves");
        let applied: u64 = (0..SHARDS)
            .map(|s| check_shard(&schedule, s, &outcomes[s]))
            .sum();
        assert!(applied > 0, "seed {seed}: soak applied no writes at all");
        assert!(
            report.ledger.total_faults() > 0,
            "seed {seed}: fault plane must actually fire"
        );
        // The knee: goodput at 2x offered load stays within 70% of the
        // fault-free saturation throughput — shed, don't collapse.
        assert!(
            report.goodput_mops >= 0.7 * sat,
            "seed {seed}: goodput {:.1} Mops collapsed below 70% of saturation {:.1} Mops \
             (shed {} expired {} of {} ops)",
            report.goodput_mops,
            sat,
            report.shed_ops,
            report.expired_ops,
            report.ops,
        );
    }
}

#[test]
fn chaos_soak_is_bit_identical_across_worker_counts() {
    let seed = 7u64;
    let sat = saturation_mops(seed);
    let offered = 2.0 * sat;
    let (r1, o1) = run_soak(seed, 1, offered);
    let (r2, o2) = run_soak(seed, 2, offered);
    let (r8, o8) = run_soak(seed, 8, offered);
    assert_eq!(r1, r2, "soak diverged between 1 and 2 workers");
    assert_eq!(r1, r8, "soak diverged between 1 and 8 workers");
    assert_eq!(o1, o2, "outcomes diverged between 1 and 2 workers");
    assert_eq!(o1, o8, "outcomes diverged between 1 and 8 workers");
    assert!(r1.ops == OPS as u64 && r1.goodput_ops > 0);
}

// ---------------------------------------------------------------------
// TCP front-end churn: the same chaos regime (1% fault rates on every
// store channel) applied through the real memcache server, with clients
// abruptly killed mid-run — some mid-frame — and reconnected. Keys are
// partitioned per client, so each client's synchronous request/reply
// stream is a total order per key and a model replay is an exact
// sequential-consistency check; faulted ops (SERVER_ERROR) must have no
// visible effect.
// ---------------------------------------------------------------------

const TCP_CLIENTS: usize = 4;
const TCP_OPS_PER_CLIENT: usize = 1_500;
const TCP_KEYS_PER_CLIENT: u64 = 64;
/// Abruptly drop and re-dial the connection every this many ops.
const TCP_KILL_EVERY: usize = 300;

/// One synchronous memcache client with an exact per-key model.
struct SoakClient {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// Latest acknowledged data block per owned key.
    model: Model,
    /// Ops the fault plane visibly refused (`SERVER_ERROR`).
    faulted: u64,
    reconnects: u64,
}

fn dial(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("soak client connect");
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone soak stream"));
    (stream, reader)
}

impl SoakClient {
    fn new(addr: SocketAddr) -> Self {
        let (stream, reader) = dial(addr);
        SoakClient {
            addr,
            stream,
            reader,
            model: Model::default().tolerating(&[Status::DeviceError]),
            faulted: 0,
            reconnects: 0,
        }
    }

    fn read_line(&mut self) -> Vec<u8> {
        let mut line = Vec::new();
        self.reader
            .read_until(b'\n', &mut line)
            .expect("soak reply line");
        assert!(line.ends_with(b"\r\n"), "truncated reply: {line:?}");
        line.truncate(line.len() - 2);
        line
    }

    /// Kills the connection abruptly — optionally mid-frame, leaving the
    /// server holding an incomplete command — then re-dials.
    fn kill_and_reconnect(&mut self, mid_frame: bool) {
        if mid_frame {
            // A declared 64-byte data block, cut off after 3 bytes. The
            // server must discard it on EOF with no state change.
            self.stream.write_all(b"set torn 0 0 64\r\nab").ok();
        }
        let (stream, reader) = dial(self.addr);
        self.stream = stream;
        self.reader = reader;
        self.reconnects += 1;
    }

    /// Sends `req` as its memcache command and checks the reply against
    /// the model; a refusal (`SERVER_ERROR`) counts as faulted.
    fn exec(&mut self, req: KvRequestRef<'_>) {
        let key = String::from_utf8_lossy(req.key).into_owned();
        // A GET hits only with a VALUE block, and a set never misses.
        let (mut frame, hit, miss): (_, Option<&[u8]>, Option<&[u8]>) = match req.op {
            OpCode::Put => (
                format!("set {key} 0 0 {}\r\n", req.value.len()),
                Some(b"STORED"),
                None,
            ),
            OpCode::Delete => (
                format!("delete {key}\r\n"),
                Some(b"DELETED"),
                Some(b"NOT_FOUND"),
            ),
            _ => (format!("get {key}\r\n"), None, Some(b"END")),
        };
        if req.op == OpCode::Put {
            frame = format!("{frame}{}\r\n", String::from_utf8_lossy(req.value));
        }
        self.stream
            .write_all(frame.as_bytes())
            .expect("soak request");
        let line = self.read_line();
        let header = match req.op {
            OpCode::Get => line.strip_prefix(b"VALUE "),
            _ => None,
        };
        let (status, value) = match header {
            Some(header) => (Status::Ok, self.read_value(header, &key)),
            None => (reply_status(&line, hit, miss), Vec::new()),
        };
        match self.model.check(req, status, &value) {
            Ok(effect) => self.faulted += u64::from(effect == Effect::Refused),
            Err(e) => panic!("key {key}: {e}"),
        }
    }

    /// Reads the data block a `VALUE <header>` line announces for `key`.
    fn read_value(&mut self, header: &[u8], key: &str) -> Vec<u8> {
        let text = String::from_utf8_lossy(header);
        let mut parts = text.split(' ');
        assert_eq!(parts.next(), Some(key));
        let _flags = parts.next().expect("flags token");
        let len: usize = parts
            .next()
            .and_then(|t| t.parse().ok())
            .expect("length token");
        let mut data = vec![0u8; len + 2];
        self.reader.read_exact(&mut data).expect("soak value block");
        assert_eq!(&data[len..], b"\r\n");
        data.truncate(len);
        assert_eq!(self.read_line(), b"END");
        data
    }
}

/// The store status a reply line reports: `hit` and `miss` are the
/// command's own success and miss lines (if it has one), and every
/// `SERVER_ERROR` is a refusal, read as `DeviceError`.
fn reply_status(line: &[u8], hit: Option<&[u8]>, miss: Option<&[u8]>) -> Status {
    match line {
        l if Some(l) == hit => Status::Ok,
        l if Some(l) == miss => Status::NotFound,
        l if l.starts_with(b"SERVER_ERROR") => Status::DeviceError,
        l => panic!("unexpected reply: {:?}", String::from_utf8_lossy(l)),
    }
}

/// One client's soak: synchronous ops over its own key range with
/// periodic abrupt kills. Returns `(faulted, reconnects)`.
fn tcp_soak_client(addr: SocketAddr, client: usize) -> (u64, u64) {
    let mut rng = kv_direct::sim::DetRng::seed(0x7C9_50AC ^ client as u64);
    let mut c = SoakClient::new(addr);
    let base = client as u64 * TCP_KEYS_PER_CLIENT;
    for i in 0..TCP_OPS_PER_CLIENT {
        if i > 0 && i % TCP_KILL_EVERY == 0 {
            // Alternate clean kills with mid-frame tears.
            c.kill_and_reconnect(i % (2 * TCP_KILL_EVERY) == 0);
        }
        let key = base + rng.u64_below(TCP_KEYS_PER_CLIENT);
        let name = format!("sk{key}");
        let roll = rng.u64_below(100);
        if roll < 60 {
            c.exec(KvRequestRef::get(name.as_bytes()));
        } else if roll < 90 {
            let data = format!("c{client}k{key}v{i}");
            c.exec(KvRequestRef::put(name.as_bytes(), data.as_bytes()));
        } else {
            c.exec(KvRequestRef::delete(name.as_bytes()));
        }
    }
    // Final sweep: every owned key must read back exactly the model.
    for key in base..base + TCP_KEYS_PER_CLIENT {
        c.exec(KvRequestRef::get(format!("sk{key}").as_bytes()));
    }
    (c.faulted, c.reconnects)
}

#[test]
fn chaos_soak_survives_tcp_client_churn() {
    let mut cfg = ServerConfig::loopback(2);
    cfg.store.fault_rates = FaultRates::uniform(0.01);
    cfg.store.fault_seed = 0xC_4A05;
    let server = serve("127.0.0.1:0", cfg).expect("bind churn server");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..TCP_CLIENTS)
        .map(|client| std::thread::spawn(move || tcp_soak_client(addr, client)))
        .collect();
    let mut faulted = 0u64;
    let mut reconnects = 0u64;
    for h in handles {
        let (f, r) = h.join().expect("soak client panicked");
        faulted += f;
        reconnects += r;
    }

    let expected_kills = (TCP_OPS_PER_CLIENT - 1) / TCP_KILL_EVERY;
    assert_eq!(
        reconnects,
        (TCP_CLIENTS * expected_kills) as u64,
        "every scheduled kill reconnected"
    );

    let ledger = server.stop();
    let conns = (TCP_CLIENTS * (expected_kills + 1)) as u64;
    assert_eq!(ledger.server.connections, conns, "dials = initial + kills");
    assert_eq!(
        ledger.server.disconnects, conns,
        "every connection (torn frames included) tore down cleanly"
    );
    assert!(
        ledger.server.requests >= (TCP_CLIENTS * TCP_OPS_PER_CLIENT) as u64,
        "every surviving op reached the data plane"
    );
    assert!(
        ledger.total_faults() > 0,
        "the 1% fault plane must actually fire under TCP traffic"
    );
    // Retries absorb most injected faults; the ones that exhaust their
    // budget surface as SERVER_ERROR and are counted by the clients.
    assert_eq!(
        ledger.core.device_errors, faulted,
        "visible SERVER_ERRORs match the store's exhausted-retry count"
    );
}
