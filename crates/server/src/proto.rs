//! Memcache text-protocol framing: incremental reassembly and borrowed
//! decode.
//!
//! [`parse`] is a pure function over the connection's receive buffer: it
//! either lifts one complete frame out as a [`Command`] borrowing the
//! buffer (no copies, no allocation), reports how many more bytes are
//! needed ([`Parsed::Incomplete`]), or classifies a malformed frame with
//! the exact wire reply it deserves. TCP segmentation is invisible by
//! construction — the parser only ever sees the reassembled prefix, so
//! splitting a valid stream at any byte boundary decodes identically
//! (property-tested in `tests/parser_props.rs`).
//!
//! Grammar (the subset the front-end serves):
//!
//! ```text
//! "get"|"gets" <key>+ \r\n
//! "set"|"add"|"replace" <key> <flags> <exptime> <bytes> ["noreply"] \r\n <data[bytes]> \r\n
//! "delete" <key> ["noreply"] \r\n
//! "touch" <key> <exptime> ["noreply"] \r\n
//! "version" \r\n
//! "quit" \r\n
//! ```
//!
//! Error replies follow memcached's convention: unknown verbs get
//! `ERROR`, malformed arguments get `CLIENT_ERROR <msg>`, and server-side
//! failures (allocation, device faults) get `SERVER_ERROR <msg>`.

/// Longest legal key (memcached's limit).
pub const MAX_KEY_LEN: usize = 250;

/// Largest data block a SET may carry. The store's extended slab ladder
/// tops out at 64 KiB per allocation, which must also hold the key and
/// the 12-byte flags/cas header, so the wire limit sits safely below.
pub const MAX_DATA_LEN: usize = 60_000;

/// Command lines longer than this abort the connection — no legal
/// command line exceeds it (the longest is a multi-get, which clients
/// in practice cap far below this).
pub const MAX_LINE_LEN: usize = 8_192;

/// The three storage verbs this front-end serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVerb {
    /// Unconditional store.
    Set,
    /// Store only if the key is absent.
    Add,
    /// Store only if the key is present.
    Replace,
}

impl StoreVerb {
    fn from_token(tok: &[u8]) -> Option<StoreVerb> {
        match tok {
            b"set" => Some(StoreVerb::Set),
            b"add" => Some(StoreVerb::Add),
            b"replace" => Some(StoreVerb::Replace),
            _ => None,
        }
    }
}

/// Space-separated keys of a (multi-)get, borrowed from the receive
/// buffer and validated during [`parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyList<'a> {
    raw: &'a [u8],
}

impl<'a> KeyList<'a> {
    /// Iterates the keys in request order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> {
        self.raw.split(|&b| b == b' ').filter(|k| !k.is_empty())
    }
}

/// One decoded command, borrowing key and data slices from the receive
/// buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command<'a> {
    /// `get`/`gets`: respond with a `VALUE` block per hit, then `END`.
    Get {
        /// `gets` — include the cas unique in each `VALUE` line.
        with_cas: bool,
        /// The requested keys.
        keys: KeyList<'a>,
    },
    /// `set`/`add`/`replace` with its data block.
    Store {
        /// Which storage verb.
        verb: StoreVerb,
        /// The key.
        key: &'a [u8],
        /// Client-opaque flags, stored and echoed on GET.
        flags: u32,
        /// Expiration time, honored memcached-style: 0 = never, values
        /// up to 30 days are relative seconds, larger values are an
        /// absolute Unix-style timestamp (mapped onto the simulation
        /// epoch).
        exptime: u32,
        /// The data block.
        data: &'a [u8],
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `delete`.
    Delete {
        /// The key.
        key: &'a [u8],
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `touch`: rewrite a key's expiration without sending or receiving
    /// its data. Replies `TOUCHED` or `NOT_FOUND`.
    Touch {
        /// The key.
        key: &'a [u8],
        /// New expiration time (same encoding as a store's exptime).
        exptime: u32,
        /// Suppress the reply line.
        noreply: bool,
    },
    /// `version`.
    Version,
    /// `quit`: close the connection without replying.
    Quit,
}

/// How a malformed frame should be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Unknown verb → `ERROR`.
    UnknownCommand,
    /// Malformed arguments → `CLIENT_ERROR <msg>`.
    Client(&'static str),
    /// The data block was not terminated by CRLF → `CLIENT_ERROR bad
    /// data chunk`. The frame is consumed and parsing continues.
    BadDataChunk,
    /// A command line exceeded [`MAX_LINE_LEN`] — the stream cannot be
    /// resynchronized, so the connection must close after replying.
    LineTooLong,
}

impl ProtoError {
    /// The exact reply bytes for this error.
    pub fn reply(&self) -> &'static [u8] {
        match self {
            ProtoError::UnknownCommand => b"ERROR\r\n",
            ProtoError::Client(msg) => {
                // The two argument errors the parser emits, pre-rendered
                // so replies stay allocation-free.
                match *msg {
                    "bad command line format" => b"CLIENT_ERROR bad command line format\r\n",
                    _ => b"CLIENT_ERROR bad command line\r\n",
                }
            }
            ProtoError::BadDataChunk => b"CLIENT_ERROR bad data chunk\r\n",
            ProtoError::LineTooLong => b"CLIENT_ERROR line too long\r\n",
        }
    }

    /// True when the connection cannot be resynchronized afterwards.
    pub fn is_fatal(&self) -> bool {
        matches!(self, ProtoError::LineTooLong)
    }
}

/// Result of attempting to lift one frame off the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A complete frame occupying the first `consumed` bytes.
    Frame {
        /// The decoded command.
        cmd: Command<'a>,
        /// Bytes to discard from the buffer.
        consumed: usize,
    },
    /// No complete frame yet; read more bytes and retry.
    Incomplete,
    /// A malformed frame occupying the first `consumed` bytes.
    Error {
        /// How to reply (and whether to close).
        err: ProtoError,
        /// Bytes to discard from the buffer.
        consumed: usize,
    },
    /// A storage command whose data block exceeds [`MAX_DATA_LEN`]: the
    /// command line is consumed, `skip` further bytes (data + CRLF) must
    /// be swallowed as they stream in, then the server replies
    /// `SERVER_ERROR object too large for cache`.
    TooLarge {
        /// Bytes of the command line to discard now.
        consumed: usize,
        /// Data-block bytes (plus trailing CRLF) still to swallow.
        skip: usize,
        /// Suppress the error reply.
        noreply: bool,
    },
}

/// Reply bytes for the oversized-data path.
pub const TOO_LARGE_REPLY: &[u8] = b"SERVER_ERROR object too large for cache\r\n";

/// Version string served by `version`.
pub const VERSION_REPLY: &[u8] = b"VERSION kvd-server 0.1.0\r\n";

fn is_legal_key(key: &[u8]) -> bool {
    !key.is_empty() && key.len() <= MAX_KEY_LEN && key.iter().all(|&b| b > 32 && b != 127)
    // printable, no space/ctl
}

fn parse_u32(tok: &[u8]) -> Option<u32> {
    if tok.is_empty() || tok.len() > 10 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in tok {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + (b - b'0') as u64;
    }
    u32::try_from(v).ok()
}

/// Attempts to lift one frame off the front of `buf`.
///
/// Pure and allocation-free: all returned slices borrow `buf`. Never
/// panics on any input (property-tested).
pub fn parse(buf: &[u8]) -> Parsed<'_> {
    // Find the command line terminator. memcached accepts a bare LF;
    // we do the same and strip an optional preceding CR.
    let Some(nl) = buf.iter().take(MAX_LINE_LEN + 1).position(|&b| b == b'\n') else {
        if buf.len() > MAX_LINE_LEN {
            return Parsed::Error {
                err: ProtoError::LineTooLong,
                consumed: 0,
            };
        }
        return Parsed::Incomplete;
    };
    let line_end = nl + 1;
    let line = if nl > 0 && buf[nl - 1] == b'\r' {
        &buf[..nl - 1]
    } else {
        &buf[..nl]
    };

    let mut toks = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let Some(verb) = toks.next() else {
        return Parsed::Error {
            err: ProtoError::UnknownCommand,
            consumed: line_end,
        };
    };

    let client_err = |consumed| Parsed::Error {
        err: ProtoError::Client("bad command line format"),
        consumed,
    };

    match verb {
        b"get" | b"gets" => {
            let verb_start = line.iter().position(|&b| b != b' ').unwrap_or(0);
            let raw = &line[verb_start + verb.len()..];
            let keys = KeyList { raw };
            let mut n = 0usize;
            for k in keys.iter() {
                if !is_legal_key(k) {
                    return client_err(line_end);
                }
                n += 1;
            }
            if n == 0 {
                return client_err(line_end);
            }
            Parsed::Frame {
                cmd: Command::Get {
                    with_cas: verb == b"gets",
                    keys,
                },
                consumed: line_end,
            }
        }
        b"set" | b"add" | b"replace" => {
            let verb = StoreVerb::from_token(verb).expect("matched above");
            let (Some(key), Some(flags), Some(exptime), Some(bytes)) =
                (toks.next(), toks.next(), toks.next(), toks.next())
            else {
                return client_err(line_end);
            };
            let noreply = match toks.next() {
                None => false,
                Some(b"noreply") => true,
                Some(_) => return client_err(line_end),
            };
            if toks.next().is_some() || !is_legal_key(key) {
                return client_err(line_end);
            }
            let (Some(flags), Some(exptime), Some(nbytes)) =
                (parse_u32(flags), parse_u32(exptime), parse_u32(bytes))
            else {
                return client_err(line_end);
            };
            let nbytes = nbytes as usize;
            if nbytes > MAX_DATA_LEN {
                return Parsed::TooLarge {
                    consumed: line_end,
                    skip: nbytes + 2,
                    noreply,
                };
            }
            // Data block: nbytes + CRLF.
            if buf.len() < line_end + nbytes + 2 {
                return Parsed::Incomplete;
            }
            let data = &buf[line_end..line_end + nbytes];
            let consumed = line_end + nbytes + 2;
            if &buf[line_end + nbytes..consumed] != b"\r\n" {
                return Parsed::Error {
                    err: ProtoError::BadDataChunk,
                    consumed,
                };
            }
            Parsed::Frame {
                cmd: Command::Store {
                    verb,
                    key,
                    flags,
                    exptime,
                    data,
                    noreply,
                },
                consumed,
            }
        }
        b"delete" => {
            let Some(key) = toks.next() else {
                return client_err(line_end);
            };
            // Accept the legacy optional time argument ("delete k 0").
            let mut noreply = false;
            for tok in toks {
                if tok == b"noreply" {
                    noreply = true;
                } else if parse_u32(tok).is_none() || noreply {
                    return client_err(line_end);
                }
            }
            if !is_legal_key(key) {
                return client_err(line_end);
            }
            Parsed::Frame {
                cmd: Command::Delete { key, noreply },
                consumed: line_end,
            }
        }
        b"touch" => {
            let (Some(key), Some(exptime)) = (toks.next(), toks.next()) else {
                return client_err(line_end);
            };
            let noreply = match toks.next() {
                None => false,
                Some(b"noreply") => true,
                Some(_) => return client_err(line_end),
            };
            if toks.next().is_some() || !is_legal_key(key) {
                return client_err(line_end);
            }
            let Some(exptime) = parse_u32(exptime) else {
                return client_err(line_end);
            };
            Parsed::Frame {
                cmd: Command::Touch {
                    key,
                    exptime,
                    noreply,
                },
                consumed: line_end,
            }
        }
        b"version" => Parsed::Frame {
            cmd: Command::Version,
            consumed: line_end,
        },
        b"quit" => Parsed::Frame {
            cmd: Command::Quit,
            consumed: line_end,
        },
        _ => Parsed::Error {
            err: ProtoError::UnknownCommand,
            consumed: line_end,
        },
    }
}

/// Appends `VALUE <key> <flags> <len>[ <cas>]\r\n<data>\r\n` to `out`.
pub fn encode_value(out: &mut Vec<u8>, key: &[u8], flags: u32, cas: Option<u64>, data: &[u8]) {
    out.extend_from_slice(b"VALUE ");
    out.extend_from_slice(key);
    out.push(b' ');
    encode_u64(out, flags as u64);
    out.push(b' ');
    encode_u64(out, data.len() as u64);
    if let Some(cas) = cas {
        out.push(b' ');
        encode_u64(out, cas);
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

/// Appends a decimal integer without allocating.
pub fn encode_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(buf: &[u8]) -> (Command<'_>, usize) {
        match parse(buf) {
            Parsed::Frame { cmd, consumed } => (cmd, consumed),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn get_single_and_multi() {
        let (cmd, n) = frame(b"get foo\r\n");
        assert_eq!(n, 9);
        let Command::Get { with_cas, keys } = cmd else {
            panic!("not a get")
        };
        assert!(!with_cas);
        assert_eq!(keys.iter().collect::<Vec<_>>(), vec![b"foo".as_slice()]);

        let (cmd, _) = frame(b"get a b  c\r\n");
        let Command::Get { keys, .. } = cmd else {
            panic!("not a get")
        };
        assert_eq!(
            keys.iter().collect::<Vec<_>>(),
            vec![b"a".as_slice(), b"b".as_slice(), b"c".as_slice()]
        );
    }

    #[test]
    fn gets_sets_cas_flag() {
        let (cmd, _) = frame(b"gets k\r\n");
        assert!(matches!(cmd, Command::Get { with_cas: true, .. }));
    }

    #[test]
    fn set_with_data_block() {
        let (cmd, n) = frame(b"set k 7 0 5\r\nhello\r\nget k\r\n");
        assert_eq!(n, 20);
        let Command::Store {
            verb,
            key,
            flags,
            data,
            noreply,
            ..
        } = cmd
        else {
            panic!("not a store")
        };
        assert_eq!(verb, StoreVerb::Set);
        assert_eq!(key, b"k");
        assert_eq!(flags, 7);
        assert_eq!(data, b"hello");
        assert!(!noreply);
    }

    #[test]
    fn set_noreply_and_binary_data() {
        let mut buf = b"set k 0 0 4 noreply\r\n".to_vec();
        buf.extend_from_slice(b"\r\n\x00\xFF"); // data containing CRLF
        buf.extend_from_slice(b"\r\n");
        let (cmd, n) = frame(&buf);
        assert_eq!(n, buf.len());
        let Command::Store { data, noreply, .. } = cmd else {
            panic!("not a store")
        };
        assert_eq!(data, b"\r\n\x00\xFF");
        assert!(noreply);
    }

    #[test]
    fn incomplete_until_data_arrives() {
        assert_eq!(parse(b"set k 0 0 5\r\nhel"), Parsed::Incomplete);
        assert_eq!(parse(b"set k 0 0 5\r\nhello\r"), Parsed::Incomplete);
        assert!(matches!(
            parse(b"set k 0 0 5\r\nhello\r\n"),
            Parsed::Frame { .. }
        ));
    }

    #[test]
    fn bad_data_chunk_consumes_frame() {
        // Data not followed by CRLF: consumed anyway so the stream
        // resynchronizes at the declared boundary.
        match parse(b"set k 0 0 5\r\nhelloXXget") {
            Parsed::Error { err, consumed } => {
                assert_eq!(err, ProtoError::BadDataChunk);
                assert_eq!(consumed, 20);
                assert!(!err.is_fatal());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_set_reports_swallow() {
        let line = format!("set k 0 0 {}\r\n", MAX_DATA_LEN + 1);
        match parse(line.as_bytes()) {
            Parsed::TooLarge {
                consumed,
                skip,
                noreply,
            } => {
                assert_eq!(consumed, line.len());
                assert_eq!(skip, MAX_DATA_LEN + 3);
                assert!(!noreply);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_verb_is_error() {
        match parse(b"stats\r\n") {
            Parsed::Error { err, consumed } => {
                assert_eq!(err, ProtoError::UnknownCommand);
                assert_eq!(err.reply(), b"ERROR\r\n");
                assert_eq!(consumed, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_args_are_client_errors() {
        for bad in [
            b"get\r\n".as_slice(),
            b"set k 0 0\r\n",
            b"set k x 0 3\r\nabc\r\n",
            b"set k 0 0 3 zzz\r\nabc\r\n",
            b"delete\r\n",
        ] {
            match parse(bad) {
                Parsed::Error { err, .. } => {
                    assert!(matches!(err, ProtoError::Client(_)), "{bad:?} -> {err:?}")
                }
                other => panic!("{bad:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_key_rejected() {
        let mut line = b"get ".to_vec();
        line.extend(vec![b'k'; MAX_KEY_LEN + 1]);
        line.extend_from_slice(b"\r\n");
        assert!(matches!(parse(&line), Parsed::Error { .. }));
    }

    #[test]
    fn line_too_long_is_fatal() {
        let buf = vec![b'a'; MAX_LINE_LEN + 1];
        match parse(&buf) {
            Parsed::Error { err, .. } => assert!(err.is_fatal()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn delete_variants() {
        let (cmd, _) = frame(b"delete k\r\n");
        assert!(matches!(
            cmd,
            Command::Delete {
                key: b"k",
                noreply: false
            }
        ));
        let (cmd, _) = frame(b"delete k 0 noreply\r\n");
        assert!(matches!(cmd, Command::Delete { noreply: true, .. }));
    }

    #[test]
    fn touch_variants() {
        let (cmd, n) = frame(b"touch k 300\r\n");
        assert_eq!(n, 13);
        assert!(matches!(
            cmd,
            Command::Touch {
                key: b"k",
                exptime: 300,
                noreply: false
            }
        ));
        let (cmd, _) = frame(b"touch k 0 noreply\r\n");
        assert!(matches!(
            cmd,
            Command::Touch {
                exptime: 0,
                noreply: true,
                ..
            }
        ));
        for bad in [
            b"touch\r\n".as_slice(),
            b"touch k\r\n",
            b"touch k x\r\n",
            b"touch k 1 2\r\n",
        ] {
            assert!(
                matches!(parse(bad), Parsed::Error { .. }),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn bare_lf_accepted() {
        let (cmd, n) = frame(b"get k\n");
        assert_eq!(n, 6);
        assert!(matches!(cmd, Command::Get { .. }));
    }

    #[test]
    fn encode_value_matches_wire_shape() {
        let mut out = Vec::new();
        encode_value(&mut out, b"k", 7, None, b"hi");
        assert_eq!(out, b"VALUE k 7 2\r\nhi\r\n");
        out.clear();
        encode_value(&mut out, b"k", 0, Some(42), b"");
        assert_eq!(out, b"VALUE k 0 0 42\r\n\r\n");
    }
}
