//! Self-driving open-loop load client for the memcache front-end.
//!
//! Arrivals come from the overload plane's [`ChaosSchedule`] (seeded,
//! bursty), mapped from virtual time onto the wall clock: each
//! operation has a *scheduled* instant, the writer issues it no earlier
//! than that instant regardless of how the server is doing (open loop),
//! and the reader scores the reply against the schedule — an answer is
//! **goodput** only if it is correct *and* arrives within the deadline
//! of its scheduled time, the same accounting the simulated overload
//! plane uses. Writer and reader are separate threads per connection so
//! slow responses never throttle the offered load (until TCP itself
//! pushes back).

use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use kvd_sim::{ChaosSchedule, DetRng, Histogram};
use kvd_workloads::{MemOp, MemcacheWorkload, YcsbPreset};

/// Jittered exponential backoff for TCP (re)connection attempts: a
/// refused dial retries after `min(RECONNECT_CAP, RECONNECT_BASE·2^attempt)`
/// scaled by a seeded jitter in `[0.5, 1.0)` — exponential so a down
/// server is not hammered, jittered so concurrent clients de-correlate
/// instead of stampeding the listener in lockstep when it comes back.
const RECONNECT_BASE: Duration = Duration::from_millis(10);
/// Ceiling the exponential backoff saturates at.
const RECONNECT_CAP: Duration = Duration::from_secs(2);
/// Dial attempts before a connection is abandoned.
const RECONNECT_ATTEMPTS: u32 = 8;

/// The sleep before retry `attempt` (0-based), drawn from `rng`.
fn reconnect_delay(attempt: u32, rng: &mut DetRng) -> Duration {
    let ideal = RECONNECT_BASE
        .saturating_mul(1u32 << attempt.min(20))
        .min(RECONNECT_CAP);
    ideal.mul_f64(0.5 + 0.5 * rng.f64())
}

/// Open-loop load configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent connections (each with its own schedule + stream).
    pub connections: usize,
    /// Operations per connection.
    pub ops_per_conn: usize,
    /// Total offered rate across all connections, ops/sec.
    pub rate: f64,
    /// Key-popularity preset driving the mix.
    pub preset: YcsbPreset,
    /// When set, overrides `preset` with a moving-hot-set Zipf stream of
    /// this skewness θ (`kvd-load --zipf`).
    pub zipf: Option<f64>,
    /// Requests between hot-set shifts in `--zipf` mode; 0 keeps the hot
    /// set static (`kvd-load --hot-shift`).
    pub hot_shift: u64,
    /// Key population (shared id space across connections).
    pub population: u64,
    /// SET data size in bytes.
    pub value_len: usize,
    /// Goodput deadline measured from the *scheduled* instant.
    pub deadline: Duration,
    /// Schedule + workload seed.
    pub seed: u64,
    /// SET the whole population first (warm start) over one connection.
    pub preload: bool,
    /// Fallback addresses tried in rotation after `addr` refuses.
    pub fallbacks: Vec<SocketAddr>,
}

/// Aggregate outcome of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Operations offered (scheduled and written).
    pub offered: u64,
    /// Operations answered with a protocol-level success.
    pub answered: u64,
    /// Answered on time (within the deadline of the scheduled instant).
    pub goodput: u64,
    /// GET hits / misses.
    pub hits: u64,
    /// GET misses.
    pub misses: u64,
    /// Successful stores.
    pub stored: u64,
    /// `ERROR`/`CLIENT_ERROR`/`SERVER_ERROR` replies.
    pub errors: u64,
    /// Dial attempts that failed before a connection was established.
    pub reconnects: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Open-loop latency (scheduled instant → reply), microseconds.
    pub latency_us: Histogram,
}

impl LoadReport {
    /// Answered requests per wall-clock second.
    pub fn rps(&self) -> f64 {
        self.answered as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// On-time answered requests per wall-clock second.
    pub fn goodput_rps(&self) -> f64 {
        self.goodput as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// What the reader should expect next on this connection, in order.
struct Pending {
    is_get: bool,
    scheduled: Instant,
}

/// Runs the configured load and blocks until every reply is scored.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let mut preload_reconnects = 0;
    if cfg.preload {
        preload_reconnects = preload(cfg)?;
    }
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(cfg.connections);
    for conn in 0..cfg.connections {
        let cfg = cfg.clone();
        handles.push(thread::spawn(move || run_conn(&cfg, conn, t0)));
    }
    let mut report = LoadReport::default();
    for h in handles {
        let part = h
            .join()
            .map_err(|_| io::Error::other("load connection panicked"))??;
        report.offered += part.offered;
        report.answered += part.answered;
        report.goodput += part.goodput;
        report.hits += part.hits;
        report.misses += part.misses;
        report.stored += part.stored;
        report.errors += part.errors;
        report.reconnects += part.reconnects;
        report.latency_us.merge(&part.latency_us);
    }
    report.reconnects += preload_reconnects;
    report.elapsed = t0.elapsed();
    Ok(report)
}

/// Dials the primary address, rotating through the fallbacks on
/// failure, sleeping the jittered backoff between attempts.
/// Returns the stream plus how many dials failed before it connected.
fn connect(cfg: &LoadConfig, salt: u64) -> io::Result<(TcpStream, u64)> {
    let mut rng = DetRng::seed(cfg.seed ^ 0x7EC0_77EC ^ salt.wrapping_mul(0x9E37_79B9));
    let n_addrs = 1 + cfg.fallbacks.len();
    let mut failed = 0u64;
    loop {
        let attempt = failed as u32;
        let pick = attempt as usize % n_addrs;
        let addr = if pick == 0 {
            cfg.addr
        } else {
            cfg.fallbacks[pick - 1]
        };
        match TcpStream::connect(addr) {
            Ok(s) => return Ok((s, failed)),
            Err(e) => {
                failed += 1;
                if attempt + 1 >= RECONNECT_ATTEMPTS {
                    return Err(e);
                }
                thread::sleep(reconnect_delay(attempt, &mut rng));
            }
        }
    }
}

/// The configured workload: the preset, or the moving-hot-set Zipf
/// stream when `--zipf` was given.
fn make_workload(cfg: &LoadConfig, seed: u64) -> MemcacheWorkload {
    match cfg.zipf {
        Some(theta) => {
            MemcacheWorkload::zipf_hot(theta, cfg.hot_shift, cfg.population, cfg.value_len, seed)
        }
        None => MemcacheWorkload::new(cfg.preset, cfg.population, cfg.value_len, seed),
    }
}

/// Warm start: SET the whole population with `noreply`, then a
/// `version` round trip to confirm the stream was fully applied.
/// Returns the failed-dial count.
fn preload(cfg: &LoadConfig) -> io::Result<u64> {
    let mut w = make_workload(cfg, cfg.seed);
    let (mut stream, reconnects) = connect(cfg, u64::MAX)?;
    let mut buf = Vec::with_capacity(64 << 10);
    for op in w.preload() {
        let MemOp::Set { key, value } = op else {
            unreachable!("preload emits sets")
        };
        encode_set(&mut buf, &key, &value, true);
        if buf.len() >= 48 << 10 {
            stream.write_all(&buf)?;
            buf.clear();
        }
    }
    buf.extend_from_slice(b"version\r\n");
    stream.write_all(&buf)?;
    let mut reader = RespReader::new(stream.try_clone()?);
    let line = reader.read_line()?;
    if !line.starts_with(b"VERSION") {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            "preload sync failed",
        ));
    }
    stream.shutdown(Shutdown::Both)?;
    Ok(reconnects)
}

fn run_conn(cfg: &LoadConfig, conn: usize, t0: Instant) -> io::Result<LoadReport> {
    let per_conn_rate = cfg.rate / cfg.connections as f64;
    let mut chaos = ChaosSchedule::new(
        per_conn_rate,
        cfg.seed ^ (conn as u64).wrapping_mul(0x9E37_79B9),
    );
    let arrivals = chaos.arrivals(cfg.ops_per_conn);
    let mut workload = make_workload(cfg, cfg.seed ^ 0xC0FF_EE00 ^ conn as u64);

    let (stream, reconnects) = connect(cfg, conn as u64)?;
    stream.set_nodelay(true)?;
    let mut wstream = stream.try_clone()?;
    let rstream = stream;

    let (meta_tx, meta_rx) = mpsc::channel::<Pending>();
    let deadline = cfg.deadline;
    let reader = thread::spawn(move || score_replies(rstream, meta_rx, deadline));

    let mut offered = 0u64;
    let mut buf = Vec::with_capacity(8 << 10);
    for t in arrivals {
        let scheduled = t0 + Duration::from_nanos(t.as_ns() as u64);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            if wait > Duration::ZERO {
                thread::sleep(wait);
            }
        }
        buf.clear();
        let op = workload.next_op();
        let is_get = match &op {
            MemOp::Get { key } => {
                buf.extend_from_slice(b"get ");
                buf.extend_from_slice(key);
                buf.extend_from_slice(b"\r\n");
                true
            }
            MemOp::Set { key, value } => {
                encode_set(&mut buf, key, value, false);
                false
            }
        };
        // Meta first so the reader can never see an unexpected reply.
        meta_tx
            .send(Pending { is_get, scheduled })
            .map_err(|_| io::Error::new(ErrorKind::BrokenPipe, "reader gone"))?;
        wstream.write_all(&buf)?;
        offered += 1;
    }
    drop(meta_tx);
    let mut report = reader
        .join()
        .map_err(|_| io::Error::other("reader panicked"))??;
    wstream.shutdown(Shutdown::Both)?;
    report.offered = offered;
    report.reconnects = reconnects;
    Ok(report)
}

fn encode_set(buf: &mut Vec<u8>, key: &[u8], value: &[u8], noreply: bool) {
    buf.extend_from_slice(b"set ");
    buf.extend_from_slice(key);
    buf.extend_from_slice(b" 0 0 ");
    crate::proto::encode_u64(buf, value.len() as u64);
    if noreply {
        buf.extend_from_slice(b" noreply");
    }
    buf.extend_from_slice(b"\r\n");
    buf.extend_from_slice(value);
    buf.extend_from_slice(b"\r\n");
}

/// Scores one connection's reply stream against its schedule.
fn score_replies(
    stream: TcpStream,
    meta_rx: mpsc::Receiver<Pending>,
    deadline: Duration,
) -> io::Result<LoadReport> {
    let mut r = RespReader::new(stream);
    let mut report = LoadReport::default();
    while let Ok(p) = meta_rx.recv() {
        let ok = if p.is_get {
            read_get_reply(&mut r, &mut report)?
        } else {
            let line = r.read_line()?;
            if line == b"STORED" {
                report.stored += 1;
                true
            } else {
                report.errors += 1;
                false
            }
        };
        let lat = p.scheduled.elapsed();
        report
            .latency_us
            .record(lat.as_micros().min(u128::from(u64::MAX)) as u64);
        if ok {
            report.answered += 1;
            if lat <= deadline {
                report.goodput += 1;
            }
        }
    }
    Ok(report)
}

/// Consumes one single-key GET reply: zero or one `VALUE` block, `END`.
fn read_get_reply(r: &mut RespReader, report: &mut LoadReport) -> io::Result<bool> {
    let line = r.read_line()?;
    if line == b"END" {
        report.misses += 1;
        return Ok(true);
    }
    if line.starts_with(b"VALUE ") {
        // VALUE <key> <flags> <len>[ <cas>]
        let len: usize = line
            .split(|&b| b == b' ')
            .nth(3)
            .and_then(|t| std::str::from_utf8(t).ok())
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidData, "bad VALUE line"))?;
        r.skip(len + 2)?;
        let end = r.read_line()?;
        if end != b"END" {
            return Err(io::Error::new(ErrorKind::InvalidData, "missing END"));
        }
        report.hits += 1;
        return Ok(true);
    }
    report.errors += 1;
    Ok(false)
}

/// Minimal buffered reader for the reply stream.
struct RespReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl RespReader {
    fn new(stream: TcpStream) -> Self {
        RespReader {
            stream,
            buf: Vec::with_capacity(16 << 10),
            start: 0,
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 32 << 10 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut tmp = [0u8; 16 << 10];
        let n = self.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed mid-reply",
            ));
        }
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// Reads one CRLF-terminated line, without the terminator.
    fn read_line(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(nl) = self.buf[self.start..].iter().position(|&b| b == b'\n') {
                let end = self.start + nl;
                let line_end = if end > self.start && self.buf[end - 1] == b'\r' {
                    end - 1
                } else {
                    end
                };
                let line = self.buf[self.start..line_end].to_vec();
                self.start = end + 1;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Discards exactly `n` bytes (a data block + CRLF).
    fn skip(&mut self, mut n: usize) -> io::Result<()> {
        while n > 0 {
            let avail = self.buf.len() - self.start;
            if avail == 0 {
                self.fill()?;
                continue;
            }
            let eat = avail.min(n);
            self.start += eat;
            n -= eat;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, ServerConfig};

    /// A small smoke-test load against `addr`.
    fn smoke(addr: SocketAddr) -> LoadConfig {
        LoadConfig {
            addr,
            connections: 2,
            ops_per_conn: 2_000,
            rate: 40_000.0,
            preset: YcsbPreset::B,
            zipf: None,
            hot_shift: 0,
            population: 2_000,
            value_len: 64,
            deadline: Duration::from_millis(100),
            seed: 0x10AD,
            preload: true,
            fallbacks: Vec::new(),
        }
    }

    #[test]
    fn backoff_sequence_is_jittered_exponential() {
        let mut rng = DetRng::seed(7);
        for attempt in 0..10u32 {
            let ideal = RECONNECT_BASE
                .saturating_mul(1 << attempt)
                .min(RECONNECT_CAP);
            let d = reconnect_delay(attempt, &mut rng);
            assert!(
                d >= ideal / 2 && d <= ideal,
                "attempt {attempt}: {d:?} outside [{:?}, {:?}]",
                ideal / 2,
                ideal
            );
        }
        // Attempts 8+ saturate at the cap.
        let mut rng = DetRng::seed(11);
        assert!(reconnect_delay(30, &mut rng) <= RECONNECT_CAP);
        // Same seed, same jitter: the schedule is deterministic.
        let (mut a, mut b) = (DetRng::seed(9), DetRng::seed(9));
        assert_eq!(reconnect_delay(3, &mut a), reconnect_delay(3, &mut b));
    }

    #[test]
    fn refused_primary_rotates_to_fallback() {
        // Reserve a port, then free it: the primary dial is refused and
        // every connection must back off and rotate to the live server.
        let dead = std::net::TcpListener::bind("127.0.0.1:0")
            .expect("reserve")
            .local_addr()
            .expect("addr");
        let h = serve("127.0.0.1:0", ServerConfig::loopback(1)).expect("bind");
        let mut cfg = smoke(dead);
        cfg.fallbacks = vec![h.local_addr()];
        cfg.connections = 2;
        cfg.ops_per_conn = 50;
        cfg.rate = 20_000.0;
        cfg.population = 50;
        let report = run_load(&cfg).expect("load reached the fallback");
        assert_eq!(report.answered, 100, "errors: {}", report.errors);
        // Preload + both connections each failed the primary dial once.
        assert_eq!(report.reconnects, 3);
        h.stop();
    }

    #[test]
    fn open_loop_load_reports_goodput_and_ledger_attribution() {
        let h = serve("127.0.0.1:0", ServerConfig::loopback(2)).expect("bind");
        let mut cfg = smoke(h.local_addr());
        cfg.connections = 2;
        cfg.ops_per_conn = 500;
        cfg.rate = 20_000.0;
        cfg.population = 500;
        let report = run_load(&cfg).expect("load");
        assert_eq!(report.offered, 1_000);
        assert_eq!(report.answered, 1_000, "errors: {}", report.errors);
        assert!(report.goodput > 0, "no op met its deadline");
        assert!(report.hits > 0, "warm-start load must hit");
        assert_eq!(report.latency_us.count(), 1_000);
        let ledger = h.stop();
        // 1000 load ops + 500 preload sets + 1 version.
        assert_eq!(ledger.server.requests, 1_501);
        assert_eq!(
            ledger.server.get_hits + ledger.server.get_misses,
            report.hits + report.misses
        );
        assert!(ledger.core.requests >= 1_500, "data plane saw the traffic");
    }
}
