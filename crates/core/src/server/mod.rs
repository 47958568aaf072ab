//! The network serving subsystem: a dependency-free HTTP/1.1 front end
//! over [`crate::service::PlanService`].
//!
//! [`PlanServer`] owns nothing but a borrow of the service and a route
//! table; [`PlanServer::serve`] binds a [`std::net::TcpListener`] and
//! runs a bounded accept/worker pool on `std::thread::scope`, mirroring
//! the service's own scoped-ownership design — no `'static` bounds, no
//! detached threads, and a guaranteed join before `serve` returns. The
//! wire protocol (three routes, status-code mapping, drain semantics) is
//! documented in DESIGN.md, "Network serving & artifact registry":
//!
//! * `POST /v1/plan` — JSON plan request → the planner's
//!   [`crate::PlanArtifact`] JSON, byte-identical to
//!   [`crate::PlanArtifact::to_json`] so responses can be compared
//!   bit-for-bit across processes and restarts; each answer carries its
//!   audit [`crate::obs::Receipt`] in an `X-Plan-Receipt` header
//!   (unless [`ServerConfig::receipts`] is off);
//! * `GET /v1/receipt/<fp>` — the most recent receipt for a request
//!   fingerprint, from a bounded in-memory ring;
//! * `GET /stats` — the [`crate::ServiceStats`] snapshot (including the
//!   registry cold-tier counters) as JSON;
//! * `GET /metrics` — plain-text counters plus per-path power-of-two
//!   latency histograms;
//! * `GET /healthz` — liveness.
//!
//! Backpressure is layered: the accept thread bounds *connections*
//! (backlog past [`ServerConfig::backlog`] is answered with an immediate
//! 503), and the service's own bounded queue bounds *requests*
//! ([`crate::ServiceError::QueueFull`] → 429). Shutdown is a graceful
//! drain: when the [`PlanServer::serve`] closure returns (or panics), the
//! listener stops accepting, every already-admitted connection is served
//! one last round (pipelined requests included, answered with
//! `Connection: close`), and the workers join.
//!
//! # Example
//!
//! ```
//! use std::io::{Read, Write};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//! use dae_dvfs::{PlanRequest, Planner, PlanServer, PlanService, ServerConfig, ServiceConfig};
//! use tinynn::models::vww_sized;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let planner = Arc::new(Planner::new(&vww_sized(32), &Default::default())?);
//! let mut service = PlanService::new(ServiceConfig::default().with_workers(2))?;
//! let key = service.register(planner);
//! let response = service.run(|svc| -> std::io::Result<String> {
//!     let io_err = |e: String| std::io::Error::new(std::io::ErrorKind::Other, e);
//!     let server = PlanServer::new(svc, ServerConfig::default())
//!         .and_then(|s| s.route("vww", key))
//!         .map_err(|e| io_err(e.to_string()))?;
//!     server
//!         .serve(|handle| -> std::io::Result<String> {
//!             let mut stream = TcpStream::connect(handle.addr())?;
//!             let body = "{\"planner\": \"vww\", \"slack\": 0.3}";
//!             write!(
//!                 stream,
//!                 "POST /v1/plan HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
//!                 body.len(),
//!             )?;
//!             let mut response = String::new();
//!             stream.read_to_string(&mut response)?;
//!             Ok(response)
//!         })
//!         .map_err(|e| io_err(e.to_string()))?
//! })?;
//! assert!(response.starts_with("HTTP/1.1 200 OK"));
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::artifact::json;
use crate::error::{DaeDvfsError, ServerError};
use crate::obs::Receipt;
use crate::service::{PlanService, PlannerKey};
use crate::sync::{lock, rank, wait, RankedCondvar, RankedMutex};

mod handler;
mod http;

/// How long the accept thread sleeps when the (non-blocking) listener
/// has nothing to accept, which doubles as its shutdown-poll latency.
const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Bound on the in-memory receipt ring served by `GET /v1/receipt/<fp>`:
/// the newest receipts win, the oldest are dropped — an audit window,
/// not an archive (the JSONL trace is the durable record).
const RECEIPT_RING_CAPACITY: usize = 1024;

/// Tuning knobs of a [`PlanServer`]; start from `Default` and adjust
/// builder-style.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Bind address. The default `127.0.0.1:0` picks an ephemeral
    /// loopback port; read the real one from [`ServerHandle::addr`].
    pub addr: String,
    /// Connection-worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Bound on accepted-but-unserviced connections; arrivals past it
    /// receive an immediate best-effort 503 and are closed.
    pub backlog: usize,
    /// Cap on a request's head (request line + headers) → 431 past it.
    pub max_header_bytes: usize,
    /// Cap on a request's declared body length → 413 past it.
    pub max_body_bytes: usize,
    /// Per-request read budget and keep-alive idle timeout. Also bounds
    /// how long a drain waits on a connection that is mid-request.
    pub read_timeout: Duration,
    /// Whether plan answers carry receipts (`X-Plan-Receipt` header,
    /// receipt ring, trace records, per-path histograms). On by default;
    /// turning it off serves plans through the receipt-free path — the
    /// before/after lever the receipt-overhead benchmark uses.
    pub receipts: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            backlog: 64,
            max_header_bytes: 8192,
            max_body_bytes: 65536,
            read_timeout: Duration::from_secs(2),
            receipts: true,
        }
    }
}

impl ServerConfig {
    /// Replaces the bind address (builder style).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Replaces the connection-worker count (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the accepted-connection bound (builder style).
    pub fn with_backlog(mut self, backlog: usize) -> Self {
        self.backlog = backlog;
        self
    }

    /// Replaces the request-head size cap (builder style).
    pub fn with_max_header_bytes(mut self, bytes: usize) -> Self {
        self.max_header_bytes = bytes;
        self
    }

    /// Replaces the request-body size cap (builder style).
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Replaces the per-request read budget (builder style).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Enables or disables plan receipts (builder style).
    pub fn with_receipts(mut self, receipts: bool) -> Self {
        self.receipts = receipts;
        self
    }

    /// Checks every knob for degenerate values.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] naming the offending field for an
    /// empty address, a zero worker/backlog/size bound, or a zero read
    /// timeout.
    pub fn validate(&self) -> Result<(), DaeDvfsError> {
        if self.addr.is_empty() {
            return Err(DaeDvfsError::InvalidRequest {
                field: "addr",
                reason: "must be non-empty".into(),
            });
        }
        for (field, value) in [
            ("workers", self.workers),
            ("backlog", self.backlog),
            ("max_header_bytes", self.max_header_bytes),
            ("max_body_bytes", self.max_body_bytes),
        ] {
            if value == 0 {
                return Err(DaeDvfsError::InvalidRequest {
                    field,
                    reason: "must be non-zero".into(),
                });
            }
        }
        if self.read_timeout.is_zero() {
            return Err(DaeDvfsError::InvalidRequest {
                field: "read_timeout",
                reason: "must be non-zero".into(),
            });
        }
        Ok(())
    }
}

/// Accepted connections awaiting a worker, behind the lowest lock rank:
/// a worker drops this lock before touching the plan service, so the
/// rank never composes with the service's locks — ranking it below them
/// keeps any future composition legal anyway.
#[derive(Debug)]
struct ConnQueue {
    items: VecDeque<TcpStream>,
}

/// State shared between the accept thread, the connection workers, and
/// every [`ServerHandle`].
#[derive(Debug)]
struct Shared {
    queue: RankedMutex<ConnQueue>,
    available: RankedCondvar,
    /// Once set, the accept thread exits and workers drain the queue
    /// instead of blocking on it; never cleared.
    shutdown: AtomicBool,
}

impl Shared {
    fn new() -> Self {
        Shared {
            queue: RankedMutex::new(
                rank::SERVER_CONN,
                ConnQueue {
                    items: VecDeque::new(),
                },
            ),
            available: RankedCondvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Begins the drain: stop accepting, wake every worker. Idempotent.
    ///
    /// The flag is stored while the queue lock is held so the store is
    /// ordered against every worker's check-then-wait critical section
    /// in [`next_connection`]: a worker that saw the flag clear under
    /// the lock is either already parked in `wait` (the broadcast below
    /// wakes it) or has not yet locked (it will observe the flag).
    /// Storing outside the lock would let the store + broadcast land
    /// between a worker's check and its park — the worker's last wakeup,
    /// missed, and `serve` would never join.
    fn begin_shutdown(&self) {
        let queue = lock(&self.queue);
        self.shutdown.store(true, Ordering::Release);
        drop(queue);
        self.available.notify_all();
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A handle to a running server, passed to the [`PlanServer::serve`]
/// closure: the bound address (with the real ephemeral port) plus an
/// explicit early-shutdown trigger.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the listener actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins the graceful drain without waiting for the serve closure
    /// to return: the listener stops accepting, admitted connections are
    /// served their final round, workers exit. Idempotent; the drain
    /// also begins automatically when the closure returns.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

/// Begins the drain when dropped, so a panicking serve closure still
/// releases the accept thread and the workers (the panic then propagates
/// out of the joined scope).
struct ShutdownOnDrop<'a>(&'a Shared);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.begin_shutdown();
    }
}

/// The HTTP front end: a route table mapping planner names to
/// [`PlannerKey`]s, served over a scoped accept/worker thread pool.
///
/// See the [module docs](self) for the wire protocol and an end-to-end
/// example.
/// The JSONL request-trace recorder ([`PlanServer::trace_to`]): one
/// line per receipted plan admission, in fulfillment order.
#[derive(Debug)]
struct TraceWriter {
    file: std::fs::File,
    /// Arrival-order sequence number stamped on each trace line.
    seq: u64,
}

#[derive(Debug)]
pub struct PlanServer<'a> {
    service: &'a PlanService,
    config: ServerConfig,
    routes: Vec<(String, PlannerKey)>,
    /// Bounded ring of the newest receipts, behind `GET
    /// /v1/receipt/<fp>`. Ranked above every service lock and never
    /// held across a service call — recording happens strictly after
    /// the answer is in hand.
    ring: RankedMutex<VecDeque<Receipt>>,
    /// The optional trace recorder; acquired strictly after (and never
    /// while holding) the ring.
    trace: RankedMutex<Option<TraceWriter>>,
}

impl<'a> PlanServer<'a> {
    /// A server over `service` with no routes yet; add them with
    /// [`PlanServer::route`].
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] when `config` fails
    /// [`ServerConfig::validate`].
    pub fn new(service: &'a PlanService, config: ServerConfig) -> Result<Self, DaeDvfsError> {
        config.validate()?;
        Ok(PlanServer {
            service,
            config,
            routes: Vec::new(),
            ring: RankedMutex::new(rank::OBS_RING, VecDeque::new()),
            trace: RankedMutex::new(rank::OBS_TRACE, None),
        })
    }

    /// Adds a route: requests whose `"planner"` field equals `name` are
    /// planned against `key` (builder style).
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for an empty or duplicate name,
    /// or a key that is not registered with this server's service.
    pub fn route(mut self, name: &str, key: PlannerKey) -> Result<Self, DaeDvfsError> {
        if name.is_empty() {
            return Err(DaeDvfsError::InvalidRequest {
                field: "route",
                reason: "route name must be non-empty".into(),
            });
        }
        if self.routes.iter().any(|(n, _)| n == name) {
            return Err(DaeDvfsError::InvalidRequest {
                field: "route",
                reason: format!("duplicate route {name:?}"),
            });
        }
        if self.service.planner(key).is_none() {
            return Err(DaeDvfsError::InvalidRequest {
                field: "route",
                reason: format!("route {name:?}: key is not registered with this service"),
            });
        }
        self.routes.push((name.to_string(), key));
        Ok(self)
    }

    /// The configuration this server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The service behind the routes.
    pub(crate) fn service(&self) -> &PlanService {
        self.service
    }

    /// Resolves a route name to its planner key.
    pub(crate) fn route_key(&self, name: &str) -> Option<PlannerKey> {
        self.routes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, key)| *key)
    }

    /// Streams every receipted plan admission to a JSONL trace file
    /// (builder style): one line per answered `POST /v1/plan`, carrying
    /// the arrival sequence number, the request fingerprint, the path
    /// taken, the served plan hash, and the verbatim request body — the
    /// record `plan_server --replay` drives a fresh stack through to
    /// re-assert plan-hash equality offline. Appends to an existing
    /// file, so one trace can span server restarts.
    ///
    /// # Errors
    ///
    /// [`ServerError::Trace`] when the file cannot be opened; append
    /// failures during serving are advisory (dropped, never fatal).
    pub fn trace_to(self, path: &str) -> Result<Self, ServerError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| ServerError::Trace {
                path: path.to_string(),
                reason: e.to_string(),
            })?;
        *lock(&self.trace) = Some(TraceWriter { file, seq: 0 });
        Ok(self)
    }

    /// Records one answered plan request: pushes the receipt onto the
    /// bounded ring (newest wins) and, when tracing, appends the JSONL
    /// trace line. Called with no other lock held; the two locks are
    /// taken in rank order and released between, so recording can never
    /// deadlock the serving path.
    pub(crate) fn record(&self, receipt: &Receipt, body: &str) {
        {
            let mut ring = lock(&self.ring);
            if ring.len() >= RECEIPT_RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(*receipt);
        }
        let mut trace = lock(&self.trace);
        if let Some(writer) = trace.as_mut() {
            let mut line = String::with_capacity(160 + body.len());
            json::compact(&mut line, |o| {
                o.u64("seq", writer.seq)
                    .str("target", "/v1/plan")
                    .hex64("fingerprint", receipt.fingerprint())
                    .str("path", receipt.path.label())
                    .hex64("plan_hash", receipt.plan_hash)
                    .str("body", body);
            });
            line.push('\n');
            writer.seq += 1;
            use std::io::Write as _;
            // Advisory: a full disk must not take the serving path down.
            let _ = writer.file.write_all(line.as_bytes());
        }
    }

    /// Looks a fingerprint up in the receipt ring, newest first.
    pub(crate) fn receipt_for(&self, fingerprint: u64) -> Option<Receipt> {
        lock(&self.ring)
            .iter()
            .rev()
            .find(|r| r.fingerprint() == fingerprint)
            .copied()
    }

    /// Binds the listener and serves until the closure returns: `f` runs
    /// on the calling thread with a [`ServerHandle`] (the real bound
    /// address plus early shutdown), while an accept thread and
    /// [`ServerConfig::workers`] connection workers run on a scope.
    /// When `f` returns — or panics, or calls [`ServerHandle::shutdown`]
    /// — the listener stops accepting and every admitted connection is
    /// drained before `serve` returns.
    ///
    /// Serving requests end-to-end additionally requires the service's
    /// workers, so call this inside [`PlanService::run`]; outside it the
    /// wire protocol still answers (`/healthz`, `/stats`, and 503 for
    /// plans), which is itself exercised by the conformance tests.
    ///
    /// # Errors
    ///
    /// [`ServerError::Bind`] when the listener cannot be set up on
    /// [`ServerConfig::addr`]. Closure and per-connection failures are
    /// never `Err`: the closure's value is returned verbatim, and wire
    /// failures are answered with status codes or a closed socket.
    pub fn serve<R: Send>(
        &self,
        f: impl FnOnce(&ServerHandle) -> R + Send,
    ) -> Result<R, ServerError> {
        let bind_err = |e: std::io::Error| ServerError::Bind {
            addr: self.config.addr.clone(),
            reason: e.to_string(),
        };
        let listener = TcpListener::bind(self.config.addr.as_str()).map_err(bind_err)?;
        let addr = listener.local_addr().map_err(bind_err)?;
        // Non-blocking accepts let the accept thread poll the shutdown
        // flag; accepted streams are switched back to blocking mode.
        listener.set_nonblocking(true).map_err(bind_err)?;
        let shared = Arc::new(Shared::new());
        let handle = ServerHandle {
            addr,
            shared: Arc::clone(&shared),
        };
        let result = std::thread::scope(|scope| {
            let shared = &*handle.shared;
            scope.spawn(|| self.accept_loop(&listener, shared));
            for _ in 0..self.config.workers {
                scope.spawn(|| self.worker_loop(shared));
            }
            let _drain = ShutdownOnDrop(shared);
            f(&handle)
        });
        Ok(result)
    }

    /// Accepts until shutdown, pushing connections to the worker queue
    /// and bouncing arrivals past the backlog with an immediate 503.
    /// Transient accept errors (aborted handshakes, fd exhaustion) are
    /// retried after a backoff — the listener must outlive them.
    fn accept_loop(&self, listener: &TcpListener, shared: &Shared) {
        while !shared.draining() {
            match listener.accept() {
                Ok((stream, _peer)) => self.admit(stream, shared),
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
    }

    /// Queues one accepted connection, or bounces it when the backlog
    /// bound is reached.
    fn admit(&self, mut stream: TcpStream, shared: &Shared) {
        let mut queue = lock(&shared.queue);
        if queue.items.len() >= self.config.backlog {
            drop(queue);
            http::reject_busy(&mut stream);
            return;
        }
        queue.items.push_back(stream);
        drop(queue);
        shared.available.notify_all();
    }

    /// Serves queued connections until shutdown *and* the queue is empty:
    /// connections admitted before the drain began are still served.
    fn worker_loop(&self, shared: &Shared) {
        while let Some(stream) = next_connection(shared) {
            self.handle_connection(stream, shared);
        }
    }

    /// The per-connection loop: read a request, answer it, repeat while
    /// keep-alive holds. The queue lock is **not** held here — only the
    /// service's own synchronization is in play, so the `server-conn`
    /// rank never composes with the service ranks.
    fn handle_connection(&self, stream: TcpStream, shared: &Shared) {
        // Accepted sockets may inherit the listener's non-blocking mode
        // (platform-dependent); force blocking + a read timeout so the
        // read loop's timeout arithmetic is the only clock in play.
        if stream.set_nonblocking(false).is_err() {
            return;
        }
        if stream
            .set_read_timeout(Some(self.config.read_timeout))
            .is_err()
        {
            return;
        }
        let _ = stream.set_nodelay(true);
        let limits = http::Limits {
            max_header_bytes: self.config.max_header_bytes,
            max_body_bytes: self.config.max_body_bytes,
            read_timeout: self.config.read_timeout,
        };
        let mut conn = http::Conn::new(stream);
        loop {
            let draining = shared.draining();
            match conn.read_request(&limits, draining) {
                http::ReadOutcome::Request(request) => {
                    let response = handler::handle(self, &mut conn, &request);
                    // Re-check the drain flag: a request admitted just as
                    // the drain began is answered, but the connection is
                    // told to go away.
                    let close = !request.keep_alive || shared.draining();
                    // The response no longer borrows the read buffer, so
                    // the request's bytes can be retired before the write.
                    conn.consume(&request);
                    if conn.write_response(&response, close).is_err() || close {
                        return;
                    }
                }
                http::ReadOutcome::Closed | http::ReadOutcome::TimedOut => return,
                http::ReadOutcome::Malformed(reason) => {
                    let _ = conn
                        .write_response(&handler::error_response(400, "Bad Request", reason), true);
                    return;
                }
                http::ReadOutcome::HeadersTooLarge => {
                    let _ = conn.write_response(
                        &handler::error_response(
                            431,
                            "Request Header Fields Too Large",
                            "request head exceeds the configured limit",
                        ),
                        true,
                    );
                    return;
                }
                http::ReadOutcome::BodyTooLarge => {
                    let _ = conn.write_response(
                        &handler::error_response(
                            413,
                            "Content Too Large",
                            "request body exceeds the configured limit",
                        ),
                        true,
                    );
                    return;
                }
            }
        }
    }
}

/// Blocks for the next admitted connection; `None` once the drain began
/// and the queue is empty (the worker's exit signal).
fn next_connection(shared: &Shared) -> Option<TcpStream> {
    let mut queue = lock(&shared.queue);
    loop {
        // Pop before checking the drain flag: connections admitted
        // before the drain must still be served.
        if let Some(stream) = queue.items.pop_front() {
            return Some(stream);
        }
        if shared.draining() {
            return None;
        }
        queue = wait(&shared.available, queue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::Planner;
    use tinynn::models::vww_sized;

    fn service_with_route() -> (PlanService, PlannerKey) {
        let planner =
            Arc::new(Planner::new(&vww_sized(32), &Default::default()).expect("planner builds"));
        let mut service =
            PlanService::new(ServiceConfig::default().with_workers(1)).expect("service builds");
        let key = service.register(planner);
        (service, key)
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        assert!(ServerConfig::default().validate().is_ok());
        let cases: [(ServerConfig, &str); 6] = [
            (ServerConfig::default().with_addr(""), "addr"),
            (ServerConfig::default().with_workers(0), "workers"),
            (ServerConfig::default().with_backlog(0), "backlog"),
            (
                ServerConfig::default().with_max_header_bytes(0),
                "max_header_bytes",
            ),
            (
                ServerConfig::default().with_max_body_bytes(0),
                "max_body_bytes",
            ),
            (
                ServerConfig::default().with_read_timeout(Duration::ZERO),
                "read_timeout",
            ),
        ];
        for (config, expected) in cases {
            match config.validate().expect_err("degenerate config rejected") {
                DaeDvfsError::InvalidRequest { field, .. } => assert_eq!(field, expected),
                other => panic!("expected InvalidRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn routes_are_validated_at_build_time() {
        let (service, key) = service_with_route();
        let server = PlanServer::new(&service, ServerConfig::default())
            .and_then(|s| s.route("vww", key))
            .expect("valid route accepted");
        assert_eq!(server.route_key("vww"), Some(key));
        assert_eq!(server.route_key("nope"), None);

        let err = PlanServer::new(&service, ServerConfig::default())
            .and_then(|s| s.route("vww", key))
            .and_then(|s| s.route("vww", key))
            .expect_err("duplicate route rejected");
        assert!(matches!(
            err,
            DaeDvfsError::InvalidRequest { field: "route", .. }
        ));

        let err = PlanServer::new(&service, ServerConfig::default())
            .and_then(|s| s.route("", key))
            .expect_err("empty route rejected");
        assert!(matches!(
            err,
            DaeDvfsError::InvalidRequest { field: "route", .. }
        ));
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let (service, _key) = service_with_route();
        let server = PlanServer::new(
            &service,
            ServerConfig::default().with_addr("256.256.256.256:1"),
        )
        .expect("config itself is well-formed");
        let err = server.serve(|_| ()).expect_err("bogus address fails");
        match err {
            ServerError::Bind { addr, .. } => assert_eq!(addr, "256.256.256.256:1"),
            other => panic!("expected Bind, got {other:?}"),
        }
    }

    #[test]
    fn trace_setup_failure_is_a_typed_error() {
        let (service, key) = service_with_route();
        let err = PlanServer::new(&service, ServerConfig::default())
            .and_then(|s| s.route("vww", key))
            .expect("server builds")
            .trace_to("/nonexistent-dir/trace.jsonl")
            .expect_err("unopenable trace path fails");
        match err {
            ServerError::Trace { path, .. } => assert_eq!(path, "/nonexistent-dir/trace.jsonl"),
            other => panic!("expected Trace, got {other:?}"),
        }
    }

    #[test]
    fn receipt_ring_is_bounded_and_newest_wins() {
        fn key_of(seed: u64) -> crate::service::PlanKey {
            crate::service::PlanKey {
                model_fingerprint: seed,
                config_fingerprint: seed ^ 0xabc,
                solver: crate::request::Solver::ReserveGrid,
                window_bits: 0.25f64.to_bits(),
                dp_resolution: 2000,
            }
        }
        let (service, key) = service_with_route();
        let server = PlanServer::new(&service, ServerConfig::default())
            .and_then(|s| s.route("vww", key))
            .expect("server builds");
        assert_eq!(server.receipt_for(1), None);
        let mut receipt = crate::obs::Receipt {
            key: key_of(0),
            path: crate::obs::ServePath::Solved,
            solver: "reserve-grid",
            artifact_schema_version: 1,
            plan_hash: 0,
            solve_nanos: 0,
            total_nanos: 0,
        };
        for i in 0..(RECEIPT_RING_CAPACITY as u64 + 8) {
            receipt.key = key_of(i);
            receipt.plan_hash = i;
            server.record(&receipt, "{}");
        }
        assert_eq!(lock(&server.ring).len(), RECEIPT_RING_CAPACITY);
        // The oldest eight were evicted; the newest are all present.
        let newest = {
            let ring = lock(&server.ring);
            *ring.back().expect("ring non-empty")
        };
        assert_eq!(newest.plan_hash, RECEIPT_RING_CAPACITY as u64 + 7);
        assert_eq!(
            server.receipt_for(newest.fingerprint()),
            Some(newest),
            "lookup finds the newest receipt for its fingerprint"
        );
    }

    #[test]
    fn serve_returns_the_closure_value_and_drains() {
        let (service, key) = service_with_route();
        let server = PlanServer::new(&service, ServerConfig::default().with_workers(2))
            .and_then(|s| s.route("vww", key))
            .expect("server builds");
        let value = server
            .serve(|handle| {
                assert_ne!(handle.addr().port(), 0);
                handle.shutdown(); // early shutdown is idempotent
                42u32
            })
            .expect("ephemeral loopback bind succeeds");
        assert_eq!(value, 42);
    }

    /// Regression: `begin_shutdown` must order its flag-store against the
    /// workers' check-then-wait critical section (it takes the queue lock
    /// while storing). An unordered store + broadcast landing between a
    /// worker's check and its park is that worker's last wakeup — missed,
    /// the scope never joins and `serve` hangs. Shutting down immediately
    /// after spawn, many times over, hammers exactly that window.
    #[test]
    fn immediate_shutdown_never_strands_a_worker() {
        let (service, key) = service_with_route();
        let server = PlanServer::new(&service, ServerConfig::default().with_workers(4))
            .and_then(|s| s.route("vww", key))
            .expect("server builds");
        for _ in 0..50 {
            server
                .serve(|handle| handle.shutdown())
                .expect("ephemeral loopback bind succeeds");
        }
    }

    #[test]
    fn trace_line_bytes_are_pinned() {
        let (service, key) = service_with_route();
        let path =
            std::env::temp_dir().join(format!("dae-dvfs-trace-pin-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let server = PlanServer::new(&service, ServerConfig::default())
            .and_then(|s| s.route("vww", key))
            .expect("server builds")
            .trace_to(path.to_str().expect("UTF-8 temp path"))
            .expect("trace file opens");
        let receipt = crate::obs::Receipt {
            key: crate::service::PlanKey {
                model_fingerprint: 0x1111_2222_3333_4444,
                config_fingerprint: 0x5555_6666_7777_8888,
                solver: crate::request::Solver::ReserveGrid,
                window_bits: 0.25f64.to_bits(),
                dp_resolution: 2000,
            },
            path: crate::obs::ServePath::RegistryHit,
            solver: "reserve-grid",
            artifact_schema_version: 1,
            plan_hash: 0xdead_beef_0123_4567,
            solve_nanos: 0,
            total_nanos: 5,
        };
        server.record(&receipt, "{\"planner\": \"vww\", \"slack\": 0.3}");
        server.record(&receipt, "{\"planner\": \"v\\\\w\"}");
        drop(server);
        let written = std::fs::read_to_string(&path).expect("trace reads back");
        let _ = std::fs::remove_file(&path);
        let expected = concat!(
            "{\"seq\": 0, \"target\": \"/v1/plan\", \"fingerprint\": \"9e7b673118e0ec15\", \"path\": \"registry-hit\", \"plan_hash\": \"deadbeef01234567\", \"body\": \"{\\\"planner\\\": \\\"vww\\\", \\\"slack\\\": 0.3}\"}\n",
            "{\"seq\": 1, \"target\": \"/v1/plan\", \"fingerprint\": \"9e7b673118e0ec15\", \"path\": \"registry-hit\", \"plan_hash\": \"deadbeef01234567\", \"body\": \"{\\\"planner\\\": \\\"v\\\\\\\\w\\\"}\"}\n",
        );
        assert_eq!(written, expected);
    }
}
