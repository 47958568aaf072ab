//! HTTP/1.1 wire handling: request assembly (with size limits and
//! timeouts) and response writing over a raw [`TcpStream`].
//!
//! This is a deliberately small subset of RFC 9112 — exactly what the
//! plan server needs: request line + headers + `Content-Length` bodies,
//! keep-alive/`Connection: close`, and pipelining (a connection buffer
//! that retains bytes beyond the current request). Chunked transfer
//! encoding is not supported and is rejected as malformed rather than
//! misparsed.
//!
//! The per-request wire path is **allocation-free**: a parsed
//! [`Request`] is a set of byte *ranges* into the connection's reusable
//! read buffer (no `String`/`Vec` per request; the buffer is drained
//! only after the response is built), and [`Conn::write_response`]
//! assembles head + body into a reusable output buffer — integers
//! rendered digit-by-digit, one `write_all`, so a cache-hit response is
//! one syscall over bytes that already existed ([`Body::Shared`]).
//!
//! Every failure is a typed [`ReadOutcome`] the connection loop turns
//! into a status code or a closed socket; nothing here panics and no
//! `io::Error` escapes.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Size and time bounds applied while assembling one request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Cap on the request line + headers, bytes.
    pub max_header_bytes: usize,
    /// Cap on the declared `Content-Length`, bytes.
    pub max_body_bytes: usize,
    /// Wall-clock budget for assembling one full request. The socket
    /// read timeout only bounds a *single* read; this bounds the sum, so
    /// a trickling client cannot pin a worker indefinitely.
    pub read_timeout: Duration,
}

/// One parsed request: byte ranges into the connection's read buffer
/// (resolved through [`Conn::method`] / [`Conn::target`] /
/// [`Conn::body`]) instead of owned copies. The ranges are plain
/// offsets, so they survive buffer growth during the body reads; they
/// are valid until [`Conn::consume`] retires the request.
#[derive(Debug)]
pub(crate) struct Request {
    /// Uppercase method token, as a `(start, end)` range.
    method: (usize, usize),
    /// The request target (path), as a `(start, end)` range.
    target: (usize, usize),
    /// Body bytes, as a `(start, end)` range (empty without a
    /// `Content-Length`).
    body: (usize, usize),
    /// Total bytes this request occupies at the front of the buffer
    /// (head + terminator + body) — what [`Conn::consume`] drains.
    len: usize,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default, overridden by `Connection:` headers).
    pub keep_alive: bool,
}

/// Outcome of one [`Conn::read_request`] call.
#[derive(Debug)]
pub(crate) enum ReadOutcome {
    /// A complete request was assembled.
    Request(Request),
    /// The peer closed (or errored) the connection cleanly between
    /// requests; nothing to answer.
    Closed,
    /// The per-request read budget elapsed; the connection is abandoned
    /// without a response (the peer is not listening usefully).
    TimedOut,
    /// The bytes cannot be a request this server understands → 400.
    Malformed(&'static str),
    /// Request line + headers exceed the configured cap → 431.
    HeadersTooLarge,
    /// Declared body exceeds the configured cap → 413.
    BodyTooLarge,
}

/// Result of one socket fill.
enum Fill {
    /// More bytes (possibly zero after an `Interrupted` retry) arrived.
    Data,
    /// Orderly end of stream.
    Eof,
    /// The socket timeout or the overall deadline fired.
    TimedOut,
    /// A hard transport error; treat like a close.
    Error,
}

/// A response payload. The hot path serves [`Body::Shared`] — the
/// service's cached artifact bytes by `Arc` clone, no copy, no
/// serialization; error paths own their (small) bodies, and `/stats`
/// renders into the connection's reusable scratch buffer
/// ([`Body::Scratch`]) so the warm path stays allocation-free.
#[derive(Debug)]
pub(crate) enum Body {
    /// A compile-time constant body (`/healthz`).
    Static(&'static [u8]),
    /// A body rendered for this response (errors, `/metrics`).
    Owned(Vec<u8>),
    /// The service's cached response bytes, shared by reference count.
    Shared(Arc<[u8]>),
    /// The body lives in the connection's reusable scratch buffer
    /// ([`Conn::scratch_mut`]); resolved by [`Conn::write_response`].
    Scratch,
}

impl Body {
    /// The body's bytes; [`Body::Scratch`] resolves through the
    /// connection in [`Conn::write_response`], so it is empty here.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Static(bytes) => bytes,
            Body::Owned(bytes) => bytes,
            Body::Shared(bytes) => bytes,
            Body::Scratch => &[],
        }
    }
}

/// A response ready to serialize.
#[derive(Debug)]
pub(crate) struct Response {
    pub status: u16,
    pub reason: &'static str,
    pub content_type: &'static str,
    pub body: Body,
    /// Rendered `X-Plan-Receipt` header value, when the answer carries
    /// its audit receipt ([`crate::obs::Receipt::to_header_value`]).
    pub receipt: Option<String>,
}

/// One accepted connection: the stream, the pipeline buffer of bytes
/// read past the previous request, and the reusable response buffer.
/// Both buffers keep their capacity across requests, so a keep-alive
/// connection stops allocating after its first round.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    out: Vec<u8>,
    /// Reusable body scratch for handler-rendered responses
    /// ([`Body::Scratch`]): `/stats` writes its JSON here instead of
    /// allocating a fresh `String` per request.
    scratch: String,
}

/// Index just past `\r\n\r\n`'s first byte pair — i.e. the offset of the
/// terminator — if the head is complete.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The offset of `inner` within `outer`, both borrowed from the same
/// buffer. Plain pointer arithmetic on shared borrows — no `unsafe` —
/// used to turn the head parser's `&str` tokens back into ranges.
fn offset_in(outer: &[u8], inner: &str) -> usize {
    inner.as_ptr() as usize - outer.as_ptr() as usize
}

/// Appends `value`'s decimal digits to `out` without allocating (the
/// `format!`-free half of the one-write response path).
fn push_usize(out: &mut Vec<u8>, mut value: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

impl Conn {
    pub fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Clears and hands out the connection's scratch buffer for a
    /// [`Body::Scratch`] response. The capacity persists across
    /// requests, so a keep-alive connection renders `/stats` with zero
    /// allocations once the buffer has grown to its working size.
    pub fn scratch_mut(&mut self) -> &mut String {
        self.scratch.clear();
        &mut self.scratch
    }

    /// The request's method token. The head was validated as UTF-8
    /// during parsing, so the fallback is unreachable; it exists to keep
    /// this accessor panic-free.
    pub fn method<'a>(&'a self, request: &Request) -> &'a str {
        std::str::from_utf8(&self.buf[request.method.0..request.method.1]).unwrap_or("")
    }

    /// The request's target **path**, same contract as [`Conn::method`].
    /// Any query string is stripped before route matching (RFC 9112
    /// origin-form is `path [?query]`), so `GET /stats?x=1` routes like
    /// `GET /stats` instead of falling through to 404.
    pub fn target<'a>(&'a self, request: &Request) -> &'a str {
        let raw = std::str::from_utf8(&self.buf[request.target.0..request.target.1]).unwrap_or("");
        match raw.find('?') {
            Some(query) => &raw[..query],
            None => raw,
        }
    }

    /// The request's body bytes.
    pub fn body<'a>(&'a self, request: &Request) -> &'a [u8] {
        &self.buf[request.body.0..request.body.1]
    }

    /// Retires `request`: drains its bytes from the front of the buffer
    /// (keeping capacity and any pipelined bytes behind it). Call after
    /// the response is built; the request's ranges are dead afterwards.
    pub fn consume(&mut self, request: &Request) {
        self.buf.drain(..request.len);
    }

    /// Assembles the next request from the pipeline buffer plus the
    /// socket. With `drain` set (server shutting down) an *empty* buffer
    /// returns [`ReadOutcome::Closed`] immediately instead of blocking
    /// for a request that may never come; already-received (pipelined)
    /// requests are still parsed and answered.
    pub fn read_request(&mut self, limits: &Limits, drain: bool) -> ReadOutcome {
        let deadline = Instant::now() + limits.read_timeout;
        let head_len = loop {
            if let Some(end) = head_end(&self.buf) {
                if end > limits.max_header_bytes {
                    return ReadOutcome::HeadersTooLarge;
                }
                break end;
            }
            if self.buf.len() > limits.max_header_bytes {
                return ReadOutcome::HeadersTooLarge;
            }
            if drain && self.buf.is_empty() {
                return ReadOutcome::Closed;
            }
            match self.fill(deadline) {
                Fill::Data => {}
                Fill::Eof => {
                    return if self.buf.is_empty() {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Malformed("connection closed mid-request")
                    };
                }
                Fill::TimedOut => return ReadOutcome::TimedOut,
                Fill::Error => return ReadOutcome::Closed,
            }
        };
        let head = match std::str::from_utf8(&self.buf[..head_len]) {
            Ok(head) => head,
            Err(_) => return ReadOutcome::Malformed("non-UTF-8 request head"),
        };
        let mut lines = lines_of(head);
        let Some(request_line) = lines.next() else {
            return ReadOutcome::Malformed("empty request head");
        };
        let mut parts = request_line.split(' ');
        let (Some(method), Some(target), Some(version), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return ReadOutcome::Malformed("malformed request line");
        };
        if method.is_empty() || target.is_empty() {
            return ReadOutcome::Malformed("malformed request line");
        }
        let default_keep_alive = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return ReadOutcome::Malformed("unsupported HTTP version"),
        };
        let mut keep_alive = default_keep_alive;
        let mut content_length: Option<usize> = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return ReadOutcome::Malformed("malformed header line");
            };
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                // RFC 9110 §8.6: the value is 1*DIGIT. `parse` alone
                // also accepts a leading `+`, which a stricter proxy
                // in front of this server would reject — a parsing
                // disagreement is request-smuggling surface, so
                // digits only.
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return ReadOutcome::Malformed("bad content-length");
                }
                let Ok(len) = value.parse::<usize>() else {
                    return ReadOutcome::Malformed("bad content-length");
                };
                if content_length.is_some_and(|prev| prev != len) {
                    return ReadOutcome::Malformed("conflicting content-length");
                }
                content_length = Some(len);
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return ReadOutcome::Malformed("transfer-encoding not supported");
            } else if name.eq_ignore_ascii_case("connection") {
                if value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("close"))
                {
                    keep_alive = false;
                } else if value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("keep-alive"))
                {
                    keep_alive = true;
                }
            }
        }
        // Turn the borrowed tokens into plain offsets before the body
        // reads below re-borrow the buffer mutably (offsets survive
        // buffer growth; borrows would not).
        let method_start = offset_in(&self.buf, method);
        let method = (method_start, method_start + method.len());
        let target_start = offset_in(&self.buf, target);
        let target = (target_start, target_start + target.len());
        let body_len = content_length.unwrap_or(0);
        if body_len > limits.max_body_bytes {
            return ReadOutcome::BodyTooLarge;
        }
        let body_start = head_len + 4;
        while self.buf.len() < body_start + body_len {
            match self.fill(deadline) {
                Fill::Data => {}
                Fill::Eof => return ReadOutcome::Malformed("connection closed mid-body"),
                Fill::TimedOut => return ReadOutcome::TimedOut,
                Fill::Error => return ReadOutcome::Closed,
            }
        }
        // The bytes stay in the buffer (pipelined requests behind them
        // included) until the caller responds and calls `consume`.
        ReadOutcome::Request(Request {
            method,
            target,
            body: (body_start, body_start + body_len),
            len: body_start + body_len,
            keep_alive,
        })
    }

    /// Reads one chunk off the socket into the buffer, honoring the
    /// overall request deadline: the socket's read timeout is clamped to
    /// the budget's remainder before every blocking read, so the *sum*
    /// of reads — not each read alone — is what the deadline bounds. (A
    /// fixed per-read timeout would let a client trickling one byte just
    /// before the deadline hold the worker for up to a full extra
    /// timeout inside the final read.)
    fn fill(&mut self, deadline: Instant) -> Fill {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Fill::TimedOut;
        }
        if self.stream.set_read_timeout(Some(remaining)).is_err() {
            return Fill::Error;
        }
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Fill::Eof,
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Fill::Data
            }
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => Fill::TimedOut,
                std::io::ErrorKind::Interrupted => Fill::Data,
                _ => Fill::Error,
            },
        }
    }

    /// Serializes and flushes `response` through the connection's
    /// reusable output buffer: head and body in **one** `write_all`
    /// (one syscall, no interleaving partial writes on the wire), no
    /// per-response allocation once the buffer has grown to its working
    /// size. `close` selects the `Connection:` header (the caller
    /// decides based on the request and the drain state); write failures
    /// (peer dropped mid-response) are reported so the caller abandons
    /// the connection, never the server.
    pub fn write_response(&mut self, response: &Response, close: bool) -> std::io::Result<()> {
        let body: &[u8] = match &response.body {
            Body::Scratch => self.scratch.as_bytes(),
            other => other.as_bytes(),
        };
        self.out.clear();
        self.out.extend_from_slice(b"HTTP/1.1 ");
        push_usize(&mut self.out, usize::from(response.status));
        self.out.push(b' ');
        self.out.extend_from_slice(response.reason.as_bytes());
        self.out.extend_from_slice(b"\r\ncontent-type: ");
        self.out.extend_from_slice(response.content_type.as_bytes());
        self.out.extend_from_slice(b"\r\ncontent-length: ");
        push_usize(&mut self.out, body.len());
        if let Some(receipt) = &response.receipt {
            self.out.extend_from_slice(b"\r\nx-plan-receipt: ");
            self.out.extend_from_slice(receipt.as_bytes());
        }
        self.out.extend_from_slice(b"\r\nconnection: ");
        self.out
            .extend_from_slice(if close { b"close" } else { b"keep-alive" });
        self.out.extend_from_slice(b"\r\n\r\n");
        self.out.extend_from_slice(body);
        self.stream.write_all(&self.out)?;
        self.stream.flush()
    }
}

/// Iterates the non-empty `\r\n`-separated lines of a request head.
fn lines_of(head: &str) -> impl Iterator<Item = &str> {
    head.split("\r\n").filter(|l| !l.is_empty())
}

/// Writes a minimal one-shot response on a stream that never became a
/// [`Conn`] (the accept backlog was full); best-effort by design.
pub(crate) fn reject_busy(stream: &mut TcpStream) {
    let _ = stream.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
          content-length: 36\r\nconnection: close\r\n\r\n\
          {\"error\": \"connection backlog full\"}",
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_finds_the_terminator() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(14));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(head_end(b""), None);
    }

    #[test]
    fn busy_rejection_content_length_matches_the_body() {
        // The hand-written 503 declares its body length inline; keep the
        // two in sync.
        let body = "{\"error\": \"connection backlog full\"}";
        assert_eq!(body.len(), 36);
    }

    #[test]
    fn push_usize_renders_decimal_digits() {
        for (value, expected) in [
            (0usize, "0"),
            (7, "7"),
            (200, "200"),
            (431, "431"),
            (usize::MAX, &usize::MAX.to_string()),
        ] {
            let mut out = Vec::new();
            push_usize(&mut out, value);
            assert_eq!(out, expected.as_bytes());
        }
    }

    #[test]
    fn offset_in_recovers_token_positions() {
        let buf = b"POST /v1/plan HTTP/1.1".to_vec();
        let head = std::str::from_utf8(&buf).unwrap();
        let target = head.split(' ').nth(1).unwrap();
        assert_eq!(offset_in(&buf, target), 5);
        assert_eq!(target.len(), 8);
    }

    #[test]
    fn body_variants_expose_the_same_bytes() {
        let shared: Arc<[u8]> = Arc::from(b"xyz".to_vec().into_boxed_slice());
        assert_eq!(Body::Static(b"xyz").as_bytes(), b"xyz");
        assert_eq!(Body::Owned(b"xyz".to_vec()).as_bytes(), b"xyz");
        assert_eq!(Body::Shared(shared).as_bytes(), b"xyz");
        // Scratch bodies resolve through the connection at write time.
        assert_eq!(Body::Scratch.as_bytes(), b"");
    }
}
