//! The load generator's side of the memcache text protocol: request
//! encoding, reply parsing, and the closed- and open-loop drivers. Every
//! reply is checked against the model, in every phase.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use crate::gen::{preload_len, write_value, Kind, Op, OpGen, Spec, Stamp, Zipf};
use crate::model::{writer_of, Checker, Expect, Model, Reply};

/// Connections of the saturation phase; each owns one residue class.
pub const CONNECTIONS: u32 = 2;

/// TCP-path keys: `k` and the key number in twelve digits.
pub fn push_key(out: &mut Vec<u8>, key: u32) {
    let mut digits = [b'0'; 13];
    digits[0] = b'k';
    let mut rest = key;
    for d in digits[1..].iter_mut().rev() {
        *d = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.extend_from_slice(&digits);
}

fn parse_key(token: &[u8]) -> Option<u32> {
    let digits = token.strip_prefix(b"k")?;
    if digits.len() != 12 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Appends `set <key> <flags> 0 <len>[ noreply]` and its data block.
pub fn push_set(out: &mut Vec<u8>, key: u32, value: &[u8], noreply: bool) {
    out.extend_from_slice(b"set ");
    push_key(out, key);
    // The key number rides in `flags` too, so an echo of the wrong
    // entry's metadata is caught even when the data happens to match.
    out.extend_from_slice(format!(" {key} 0 {}", value.len()).as_bytes());
    if noreply {
        out.extend_from_slice(b" noreply");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

/// Appends one `get` frame asking for `keys`.
pub fn push_get(out: &mut Vec<u8>, keys: impl IntoIterator<Item = u32>) {
    out.extend_from_slice(b"get");
    for key in keys {
        out.push(b' ');
        push_key(out, key);
    }
    out.extend_from_slice(b"\r\n");
}

pub fn push_delete(out: &mut Vec<u8>, key: u32) {
    out.extend_from_slice(b"delete ");
    push_key(out, key);
    out.extend_from_slice(b"\r\n");
}

/// Buffered reader of reply lines and data blocks.
struct ReplyReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReplyReader {
    fn new(stream: TcpStream) -> ReplyReader {
        ReplyReader {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    "reply larger than the buffer",
                ));
            }
        }
        match self.stream.read(&mut self.buf[self.end..])? {
            0 => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }

    /// The range of the next line, without its `\r\n`.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        let mut scanned = self.start;
        loop {
            if let Some(at) = self.buf[scanned..self.end].iter().position(|&b| b == b'\n') {
                let (from, nl) = (self.start, scanned + at);
                self.start = nl + 1;
                let to = if nl > from && self.buf[nl - 1] == b'\r' {
                    nl - 1
                } else {
                    nl
                };
                return Ok((from, to));
            }
            let pending = self.end - self.start;
            self.fill()?;
            scanned = self.start + pending;
        }
    }

    /// The range of the next `n` bytes, which a `\r\n` must follow.
    fn block(&mut self, n: usize) -> io::Result<(usize, usize)> {
        while self.end - self.start < n + 2 {
            self.fill()?;
        }
        let from = self.start;
        self.start += n + 2;
        if &self.buf[from + n..from + n + 2] != b"\r\n" {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                "data block not terminated",
            ));
        }
        Ok((from, from + n))
    }
}

/// One frame on the wire and what it must be answered with.
enum Frame {
    /// `get` of this many keys (their expectations follow in order).
    Get(usize),
    /// A single `set` or `delete`.
    Single,
}

/// One connection with its own operation stream and model.
pub struct Conn {
    stream: TcpStream,
    reader: ReplyReader,
    spec: &'static Spec,
    gen: OpGen,
    model: Model,
    checker: Checker,
    out: Vec<u8>,
    value: Vec<u8>,
    frames: Vec<Frame>,
    expects: Vec<(u32, Expect)>,
    /// Operations whose reply was read / whose reply was wrong.
    pub attempted: u64,
    pub failed: u64,
}

impl Conn {
    pub fn connect(
        addr: SocketAddr,
        spec: &'static Spec,
        seed: u64,
        zipf: Option<Arc<Zipf>>,
        residue: u32,
    ) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let (model, checker) = Model::preloaded(spec, residue, CONNECTIONS);
        Ok(Conn {
            reader: ReplyReader::new(stream.try_clone()?),
            stream,
            spec,
            gen: OpGen::for_class(spec, seed, zipf, residue, CONNECTIONS),
            model,
            checker,
            out: Vec::with_capacity(64 << 10),
            value: Vec::new(),
            frames: Vec::new(),
            expects: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Sends `depth` frames back to back, then reads and checks all
    /// their replies. Returns the operations (keys) answered.
    pub fn round(&mut self, depth: usize) -> io::Result<u64> {
        self.out.clear();
        self.frames.clear();
        self.expects.clear();
        for _ in 0..depth {
            let frame = stage_frame(
                self.spec,
                &mut self.gen,
                &mut self.model,
                &mut self.out,
                &mut self.value,
                &mut self.expects,
            );
            self.frames.push(frame);
        }
        self.stream.write_all(&self.out)?;
        let mut next = 0;
        for frame in &self.frames {
            let n = match frame {
                Frame::Get(n) => *n,
                Frame::Single => 1,
            };
            let bad = read_frame(
                &mut self.reader,
                &mut self.checker,
                frame,
                &self.expects[next..next + n],
            )?;
            self.failed += bad;
            next += n;
        }
        self.attempted += next as u64;
        Ok(next as u64)
    }
}

/// Reads one frame's reply and returns how many of its operations were
/// answered wrongly.
fn read_frame(
    reader: &mut ReplyReader,
    checker: &mut Checker,
    frame: &Frame,
    expects: &[(u32, Expect)],
) -> io::Result<u64> {
    let mut bad = 0;
    match frame {
        Frame::Single => {
            let (from, to) = reader.line()?;
            let reply = match &reader.buf[from..to] {
                b"STORED" => Reply::Stored,
                b"DELETED" => Reply::Deleted,
                b"NOT_FOUND" => Reply::NotFound,
                _ => Reply::Error,
            };
            bad += u64::from(!checker.check(&expects[0].1, reply));
        }
        Frame::Get(_) => {
            // Hits come back in request order; keys skipped are misses.
            let mut at = 0;
            loop {
                let (from, to) = reader.line()?;
                let line = &reader.buf[from..to];
                if line == b"END" {
                    break;
                }
                let mut tokens = line.split(|&b| b == b' ');
                let header = match (tokens.next(), tokens.next(), tokens.next(), tokens.next()) {
                    (Some(b"VALUE"), Some(key), Some(flags), Some(len)) => parse_key(key).zip(
                        std::str::from_utf8(flags)
                            .ok()
                            .and_then(|f| f.parse::<u32>().ok())
                            .zip(
                                std::str::from_utf8(len)
                                    .ok()
                                    .and_then(|l| l.parse::<usize>().ok()),
                            ),
                    ),
                    _ => None,
                };
                let Some((key, (flags, len))) = header else {
                    // An error line stands in for the whole frame.
                    return Ok((expects.len() - at) as u64 + bad);
                };
                let (from, to) = reader.block(len)?;
                while at < expects.len() && expects[at].0 != key {
                    bad += u64::from(!checker.check(&expects[at].1, Reply::Miss));
                    at += 1;
                }
                if at == expects.len() {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "value for a key not asked for",
                    ));
                }
                let ok = flags == key
                    && checker.check(&expects[at].1, Reply::Value(&reader.buf[from..to]));
                bad += u64::from(!ok);
                at += 1;
            }
            for (_, expect) in &expects[at..] {
                bad += u64::from(!checker.check(expect, Reply::Miss));
            }
        }
    }
    Ok(bad)
}

/// Writes every key at version 0 (`set … noreply`), then waits on a
/// `version` round trip: replies are in order, so its answer means every
/// set before it was taken. Returns the bytes sent.
pub fn preload(addr: SocketAddr, spec: &Spec) -> io::Result<u64> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut out = Vec::with_capacity(1 << 20);
    let mut value = Vec::new();
    let mut sent = 0;
    for key in 0..spec.population {
        let stamp = Stamp {
            key,
            writer: writer_of(key, CONNECTIONS),
            version: 0,
            len: preload_len(spec, key),
        };
        write_value(&stamp, &mut value);
        push_set(&mut out, key, &value, true);
        if out.len() >= 512 << 10 {
            stream.write_all(&out)?;
            sent += out.len() as u64;
            out.clear();
        }
    }
    out.extend_from_slice(b"version\r\n");
    stream.write_all(&out)?;
    sent += out.len() as u64;
    let mut reader = ReplyReader::new(stream);
    let (from, to) = reader.line()?;
    if !reader.buf[from..to].starts_with(b"VERSION") {
        let said = String::from_utf8_lossy(&reader.buf[from..to]).into_owned();
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("preload answered {said:?}"),
        ));
    }
    Ok(sent)
}

/// One measured window: from `start` for `len` (a loop that begins
/// before `start` is warming up until then).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: Instant,
    pub len: Duration,
}

impl Window {
    pub fn end(&self) -> Instant {
        self.start + self.len
    }

    fn holds(&self, at: Instant) -> bool {
        self.start <= at && at < self.end()
    }
}

/// What one closed-loop connection did inside a window.
#[derive(Default)]
pub struct LoopOut {
    pub ops: u64,
    /// Duration of each round, in nanoseconds (when asked for).
    pub rtt_ns: Vec<u32>,
}

/// Closed loop: keep `depth` frames outstanding (send `depth`, read
/// `depth`) until the window ends. A round counts if it completes inside
/// the window; with `time_rounds`, so does its duration.
pub fn closed_loop(
    conn: &mut Conn,
    depth: usize,
    window: &Window,
    time_rounds: bool,
) -> io::Result<LoopOut> {
    let mut out = LoopOut::default();
    let mut sent = Instant::now();
    while sent < window.end() {
        let ops = conn.round(depth)?;
        let done = Instant::now();
        if window.holds(done) {
            out.ops += ops;
            if time_rounds {
                out.rtt_ns.push((done - sent).as_nanos() as u32);
            }
        }
        sent = done;
    }
    Ok(out)
}

/// What an open-loop run saw.
pub struct PacedOut {
    /// Reply latency from the instant each frame was *due*, nanoseconds.
    pub latency_ns: Vec<u32>,
    /// How far behind schedule the generator sent, nanoseconds.
    pub late_ns: Vec<u32>,
}

/// Open loop: one connection, a sender thread that issues a frame every
/// `1 / frames_per_s` whatever the server does, and this thread reading
/// the replies. Latency counts from when a frame was due, so a stall
/// shows in every frame queued behind it.
pub fn paced(conn: &mut Conn, frames_per_s: f64, run_for: Duration) -> io::Result<PacedOut> {
    struct Sent {
        due: Instant,
        frame: Frame,
        expects: Vec<(u32, Expect)>,
    }
    let gap = Duration::from_secs_f64(1.0 / frames_per_s);
    let total = (run_for.as_secs_f64() * frames_per_s) as u64;
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut out = PacedOut {
        latency_ns: Vec::with_capacity(total as usize),
        late_ns: Vec::new(),
    };

    // The sender borrows the sending half of the connection, this thread
    // keeps the reader and the checker.
    let mut wire = conn.stream.try_clone()?;
    let reader = &mut conn.reader;
    let checker = &mut conn.checker;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (spec, gen, model) = (conn.spec, &mut conn.gen, &mut conn.model);
    let late = thread::scope(|scope| -> io::Result<Vec<u32>> {
        let sender = scope.spawn(move || -> io::Result<Vec<u32>> {
            let mut late = Vec::with_capacity(total as usize);
            let mut bytes = Vec::new();
            let mut value = Vec::new();
            let start = Instant::now();
            for i in 0..total {
                let due = start + gap.mul_f64(i as f64);
                // Sleep while the next frame is far off, spin the rest.
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    if due - now > Duration::from_micros(200) {
                        thread::sleep(due - now - Duration::from_micros(100));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                bytes.clear();
                let mut expects = Vec::with_capacity(spec.keys_per_frame);
                let frame = stage_frame(spec, gen, model, &mut bytes, &mut value, &mut expects);
                late.push((Instant::now() - due).as_nanos() as u32);
                // Queue the expectation first: the reply can only follow
                // the write.
                if tx
                    .send(Sent {
                        due,
                        frame,
                        expects,
                    })
                    .is_err()
                {
                    break;
                }
                wire.write_all(&bytes)?;
            }
            Ok(late)
        });
        let mut read_all = || -> io::Result<()> {
            for sent in rx.iter() {
                let bad = read_frame(reader, checker, &sent.frame, &sent.expects)?;
                out.latency_ns
                    .push((Instant::now() - sent.due).as_nanos() as u32);
                attempted += sent.expects.len() as u64;
                failed += bad;
            }
            Ok(())
        };
        let read = read_all();
        // Hanging up the queue stops a sender that is still going.
        drop(rx);
        let late = sender.join().expect("sender thread panicked");
        read.and(late)
    })?;
    out.late_ns = late;
    conn.attempted += attempted;
    conn.failed += failed;
    Ok(out)
}

/// Appends the next frame to `out` and its expectations to `expects`.
fn stage_frame(
    spec: &Spec,
    gen: &mut OpGen,
    model: &mut Model,
    out: &mut Vec<u8>,
    value: &mut Vec<u8>,
    expects: &mut Vec<(u32, Expect)>,
) -> Frame {
    let op: Op = gen.next_op();
    expects.push((op.key, model.apply(&op)));
    match op.kind {
        Kind::Get => {
            // Fill the frame with further keys; the mixes that ask for
            // multi-key frames are read-only.
            let first = expects.len() - 1;
            for _ in 1..spec.keys_per_frame {
                let next = gen.next_op();
                assert!(
                    next.kind == Kind::Get,
                    "multi-key frames need a read-only mix"
                );
                expects.push((next.key, model.apply(&next)));
            }
            push_get(out, expects[first..].iter().map(|(key, _)| *key));
            Frame::Get(expects.len() - first)
        }
        Kind::Set => {
            let stamp = Stamp {
                key: op.key,
                writer: writer_of(op.key, CONNECTIONS),
                version: op.version,
                len: op.len,
            };
            write_value(&stamp, value);
            push_set(out, op.key, value, false);
            Frame::Single
        }
        Kind::Delete => {
            push_delete(out, op.key);
            Frame::Single
        }
    }
}
