//! A keep-alive HTTP/1.1 client for the load generator: requests are
//! pre-rendered bytes, responses are read into one reusable buffer and
//! handed back as a borrowed view, so the measuring side allocates
//! nothing per request. It speaks exactly the subset the plan server
//! uses: `Content-Length` framing and the `X-Plan-Receipt` header.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dae_dvfs::ServePath;

/// The receipt fields the benchmark reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiptFields {
    /// Index into [`ServePath::LABELS`].
    pub path: usize,
    /// Claimed FNV-1a hash of the body.
    pub hash: u64,
    /// Program-measured solve stage, nanoseconds.
    pub solve_ns: u64,
    /// Program-measured admission-to-fulfilment time, nanoseconds.
    pub total_ns: u64,
}

impl ReceiptFields {
    /// Parses `fp=…;path=…;…;hash=…;solve_ns=…;total_ns=…`.
    pub fn parse(value: &str) -> Option<Self> {
        let (mut path, mut hash, mut solve_ns, mut total_ns) = (None, None, None, None);
        for field in value.split(';') {
            let (k, v) = field.split_once('=')?;
            match k {
                "path" => path = ServePath::LABELS.iter().position(|l| *l == v),
                "hash" => hash = u64::from_str_radix(v, 16).ok(),
                "solve_ns" => solve_ns = v.parse().ok(),
                "total_ns" => total_ns = v.parse().ok(),
                _ => {}
            }
        }
        Some(ReceiptFields {
            path: path?,
            hash: hash?,
            solve_ns: solve_ns?,
            total_ns: total_ns?,
        })
    }
}

/// One response, borrowed from the client's buffer.
#[derive(Debug)]
pub struct Response<'a> {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: &'a [u8],
    /// The parsed receipt, when present and well-formed.
    pub receipt: Option<ReceiptFields>,
    /// Response bytes on the wire (head and body).
    pub wire_bytes: usize,
}

/// One persistent connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    consumed: usize,
    chunk: Vec<u8>,
}

fn bad(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

/// Renders a `POST /v1/plan` request with `body`.
pub fn plan_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/plan HTTP/1.1\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

impl Client {
    /// Connects with Nagle off and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            consumed: 0,
            chunk: vec![0; 16 * 1024],
        })
    }

    /// Sends one pre-rendered request and reads its response.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<Response<'_>> {
        self.buf.drain(..self.consumed);
        self.consumed = 0;
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break end;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut receipt) = (None, None);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-plan-receipt") {
                receipt = ReceiptFields::parse(value.trim());
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        let end = head_end + 4 + length;
        while self.buf.len() < end {
            self.fill()?;
        }
        self.consumed = end;
        Ok(Response {
            status,
            body: &self.buf[head_end + 4..end],
            receipt,
            wire_bytes: end,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        match self.stream.read(&mut self.chunk)? {
            0 => Err(bad("connection closed mid-response")),
            n => {
                self.buf.extend_from_slice(&self.chunk[..n]);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipt_fields_parse_and_reject_partial_headers() {
        let value = "fp=00000000000000ff;path=registry-hit;batch=1;solver=reserve-grid;\
                     artifact=v1;hash=00000000deadbeef;solve_ns=0;total_ns=2100000";
        let r = ReceiptFields::parse(value).expect("well-formed receipt");
        assert_eq!(ServePath::LABELS[r.path], "registry-hit");
        assert_eq!(
            (r.hash, r.solve_ns, r.total_ns),
            (0xdead_beef, 0, 2_100_000)
        );
        assert_eq!(ReceiptFields::parse("path=solved;hash=01"), None);
        assert_eq!(ReceiptFields::parse("garbage"), None);
    }
}
