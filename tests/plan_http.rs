//! Wire-protocol conformance tests for the HTTP plan server, driven by
//! raw [`TcpStream`]s so the bytes on the wire — not a client library's
//! idea of them — are what is asserted: malformed request lines,
//! oversized heads and bodies, partial writes, clients that vanish
//! mid-exchange, pipelining, and the single-flight behaviour observable
//! through `/stats`. The status-code mapping itself is unit-tested next
//! to the handler; these tests check that the server holds the contract
//! under adversarial socket behaviour without dying.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use dae_dvfs::{
    PlanServer, PlanService, Planner, ServerConfig, ServerHandle, ServiceConfig, ServiceStats,
    Stm32F767Target,
};
use repro_bench::{httpc, serving};
use tinynn::models::vww_sized;

/// Builds the one-planner service every test serves, runs `f` against a
/// live server configured by `server_config`, and returns the closure's
/// value plus the service counters after the drain. The route is named
/// `vww`.
fn with_server<R: Send>(
    server_config: ServerConfig,
    f: impl FnOnce(&ServerHandle) -> R + Send,
) -> (R, ServiceStats) {
    let target = Stm32F767Target::paper();
    let model = vww_sized(32);
    let planner = Arc::new(Planner::for_target(target, &model).expect("planner builds"));
    let mut service = PlanService::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_batch_linger(Duration::from_millis(1)),
    )
    .expect("service config validates");
    let key = service.register(planner);
    let value = service.run(|svc| {
        PlanServer::new(svc, server_config)
            .expect("server config validates")
            .route("vww", key)
            .expect("route registers")
            .serve(f)
            .expect("server binds an ephemeral loopback port")
    });
    (value, service.stats())
}

/// Writes raw bytes on a fresh connection and reads until the server
/// closes. Returns everything the server sent (possibly nothing).
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout sets");
    stream.write_all(bytes).expect("request writes");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

/// The status code of a raw response buffer.
fn status_of(response: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(response);
    let line = text.split("\r\n").next().unwrap_or_default();
    line.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {line:?}"))
}

#[test]
fn malformed_request_lines_get_400_not_a_dead_server() {
    with_server(ServerConfig::default(), |handle| {
        for garbage in [
            &b"GET\r\n\r\n"[..],
            b"GET /healthz HTTP/1.1 extra\r\n\r\n",
            b"GET /healthz HTTP/2.0\r\n\r\n",
            b"\x00\xffbinary\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 7\r\n\r\nabc",
            b"POST /v1/plan HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
            // RFC 9110 content-length is 1*DIGIT: a leading sign parses
            // under usize::parse but must be rejected, or this server
            // disagrees with any stricter proxy in front of it.
            b"POST /v1/plan HTTP/1.1\r\ncontent-length: +5\r\n\r\n{1:2}",
            b"POST /v1/plan HTTP/1.1\r\ncontent-length: \r\n\r\n",
        ] {
            let response = raw_exchange(handle.addr(), garbage);
            assert_eq!(status_of(&response), 400, "for {garbage:?}");
        }
        // The server is still alive and serving after all of that.
        let health = httpc::get(handle.addr(), "/healthz").expect("still serving");
        assert_eq!(health.status, 200);
    });
}

#[test]
fn oversized_heads_and_bodies_are_bounced_with_431_and_413() {
    let config = ServerConfig::default()
        .with_max_header_bytes(256)
        .with_max_body_bytes(128);
    with_server(config, |handle| {
        let padding = "x".repeat(512);
        let big_head = format!("GET /healthz HTTP/1.1\r\nx-pad: {padding}\r\n\r\n");
        assert_eq!(
            status_of(&raw_exchange(handle.addr(), big_head.as_bytes())),
            431
        );

        // The body limit is enforced from the declared length, before any
        // body bytes are read.
        let declared = b"POST /v1/plan HTTP/1.1\r\ncontent-length: 4096\r\n\r\n";
        assert_eq!(status_of(&raw_exchange(handle.addr(), declared)), 413);

        let small = httpc::get(handle.addr(), "/healthz").expect("still serving");
        assert_eq!(small.status, 200);
    });
}

#[test]
fn requests_arriving_one_byte_at_a_time_still_parse() {
    with_server(ServerConfig::default(), |handle| {
        let request = b"GET /stats HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout sets");
        for chunk in request.chunks(7) {
            stream.write_all(chunk).expect("partial write lands");
            stream.flush().expect("flushes");
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("response reads");
        assert_eq!(status_of(&response), 200);
        assert!(String::from_utf8_lossy(&response).contains("\"submitted\""));
    });
}

#[test]
fn a_stalled_client_is_timed_out_and_the_slot_reclaimed() {
    let config = ServerConfig::default().with_read_timeout(Duration::from_millis(100));
    with_server(config, |handle| {
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        // Half a request line, then silence: the server must give up on
        // us and close without writing anything.
        stream.write_all(b"GET /heal").expect("partial write lands");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout sets");
        let mut leftovers = Vec::new();
        stream.read_to_end(&mut leftovers).expect("EOF, not a hang");
        assert!(
            leftovers.is_empty(),
            "a timed-out read must close silently, got {leftovers:?}"
        );
        // The worker slot freed by the timeout serves the next client.
        let health = httpc::get(handle.addr(), "/healthz").expect("still serving");
        assert_eq!(health.status, 200);
    });
}

#[test]
fn a_trickling_client_is_bounded_by_one_read_budget_not_two() {
    // A client that lands one byte just before the deadline must not buy
    // itself a whole extra socket timeout inside the final blocking read:
    // the server clamps the socket timeout to the budget's remainder, so
    // total assembly time stays ~read_timeout, not ~2x.
    let budget = Duration::from_millis(400);
    let config = ServerConfig::default().with_read_timeout(budget);
    with_server(config, |handle| {
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout sets");
        let started = std::time::Instant::now();
        stream.write_all(b"GET /heal").expect("partial write lands");
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(b"t").expect("late byte lands");
        let mut leftovers = Vec::new();
        stream.read_to_end(&mut leftovers).expect("EOF, not a hang");
        let elapsed = started.elapsed();
        assert!(
            leftovers.is_empty(),
            "a timed-out read must close silently, got {leftovers:?}"
        );
        // Unclamped, the read that began at ~300ms would block until
        // ~700ms; leave slack for scheduler jitter but stay well below.
        assert!(
            elapsed < Duration::from_millis(600),
            "assembly must be cut off at ~one budget, took {elapsed:?}"
        );
    });
}

#[test]
fn a_client_dropping_mid_exchange_does_not_kill_the_server() {
    with_server(ServerConfig::default(), |handle| {
        for _ in 0..4 {
            let mut stream = TcpStream::connect(handle.addr()).expect("connects");
            stream
                .write_all(b"POST /v1/plan HTTP/1.1\r\ncontent-length: 40\r\n\r\n{\"planner\"")
                .expect("partial body lands");
            drop(stream); // vanish mid-request, response never read
        }
        let health = httpc::get(handle.addr(), "/healthz").expect("still serving");
        assert_eq!(health.status, 200);
    });
}

#[test]
fn pipelined_requests_in_one_write_are_both_answered_in_order() {
    with_server(ServerConfig::default(), |handle| {
        let two = b"GET /healthz HTTP/1.1\r\n\r\n\
                    GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
        let response = raw_exchange(handle.addr(), two);
        let text = String::from_utf8_lossy(&response);
        assert_eq!(
            text.matches("HTTP/1.1 200 OK").count(),
            2,
            "both pipelined requests must be answered: {text}"
        );
        assert_eq!(text.matches("ok\n").count(), 2);
    });
}

#[test]
fn unknown_routes_and_methods_map_to_404_and_405() {
    let ((), _) = with_server(ServerConfig::default(), |handle| {
        assert_eq!(
            httpc::get(handle.addr(), "/nope").expect("answers").status,
            404
        );
        assert_eq!(
            httpc::post(
                handle.addr(),
                "/v1/plan",
                "{\"planner\": \"ghost\", \"slack\": 0.3}"
            )
            .expect("answers")
            .status,
            404
        );
        let put = raw_exchange(
            handle.addr(),
            b"PUT /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(status_of(&put), 405);
        // Known paths with the wrong *supported* method are still 405,
        // not "unknown path" 404s.
        assert_eq!(
            httpc::get(handle.addr(), "/v1/plan")
                .expect("answers")
                .status,
            405
        );
        for path in ["/healthz", "/stats"] {
            assert_eq!(
                httpc::post(handle.addr(), path, "")
                    .expect("answers")
                    .status,
                405
            );
        }
    });
}

#[test]
fn infeasible_budgets_are_422_and_bad_json_is_400() {
    with_server(ServerConfig::default(), |handle| {
        let infeasible = httpc::post(
            handle.addr(),
            "/v1/plan",
            "{\"planner\": \"vww\", \"qos_secs\": 1e-9}",
        )
        .expect("answers");
        assert_eq!(infeasible.status, 422, "{}", infeasible.body_str());

        let garbage = httpc::post(handle.addr(), "/v1/plan", "not json").expect("answers");
        assert_eq!(garbage.status, 400);
        assert!(garbage.body_str().starts_with("{\"error\":"));

        let ambiguous = httpc::post(
            handle.addr(),
            "/v1/plan",
            "{\"planner\": \"vww\", \"slack\": 0.3, \"qos_secs\": 0.5}",
        )
        .expect("answers");
        assert_eq!(ambiguous.status, 400);
    });
}

#[test]
fn hostile_bodies_get_400_and_the_server_keeps_serving() {
    with_server(ServerConfig::default(), |handle| {
        // ~10 KB of nesting, well under the body cap: without a depth
        // bound the recursive parser overflows the worker's stack.
        let nested = format!("{{\"planner\": {}", "[".repeat(10_000));
        let response = httpc::post(handle.addr(), "/v1/plan", &nested).expect("answers");
        assert_eq!(response.status, 400, "{}", response.body_str());
        assert!(response.body_str().contains("nesting"));

        // One JSON field must not be able to size the DP tables.
        let huge = "{\"planner\": \"vww\", \"slack\": 0.3, \"dp_resolution\": 4294967296}";
        let response = httpc::post(handle.addr(), "/v1/plan", huge).expect("answers");
        assert_eq!(response.status, 400, "{}", response.body_str());
        assert!(response.body_str().contains("dp_resolution"));

        let normal = "{\"planner\": \"vww\", \"slack\": 0.3}";
        let response = httpc::post(handle.addr(), "/v1/plan", normal).expect("answers");
        assert_eq!(response.status, 200, "{}", response.body_str());
    });
}

#[test]
fn a_server_outside_service_run_answers_503_not_serving() {
    let target = Stm32F767Target::paper();
    let model = vww_sized(32);
    let planner = Arc::new(Planner::for_target(target, &model).expect("planner builds"));
    let mut service = PlanService::new(ServiceConfig::default()).expect("config validates");
    let key = service.register(planner);
    // No `service.run` wrapper: the service exists but is not serving.
    let server = PlanServer::new(&service, ServerConfig::default())
        .expect("server config validates")
        .route("vww", key)
        .expect("route registers");
    server
        .serve(|handle| {
            let response = httpc::post(
                handle.addr(),
                "/v1/plan",
                "{\"planner\": \"vww\", \"slack\": 0.3}",
            )
            .expect("answers");
            assert_eq!(response.status, 503, "{}", response.body_str());
            // Health stays green: liveness is the wire, not the solver.
            assert_eq!(
                httpc::get(handle.addr(), "/healthz")
                    .expect("answers")
                    .status,
                200
            );
        })
        .expect("server binds");
}

#[test]
fn concurrent_identical_requests_share_one_solve_visible_in_stats() {
    let clients = 8;
    let ((), stats) = with_server(ServerConfig::default().with_workers(8), |handle| {
        std::thread::scope(|s| {
            for _ in 0..clients {
                s.spawn(move || {
                    let response = httpc::post(
                        handle.addr(),
                        "/v1/plan",
                        "{\"planner\": \"vww\", \"slack\": 0.35}",
                    )
                    .expect("answers");
                    assert_eq!(response.status, 200, "{}", response.body_str());
                });
            }
        });
        let stats = httpc::get(handle.addr(), "/stats").expect("answers");
        assert_eq!(stats.status, 200);
        let body = stats.body_str();
        assert!(
            body.contains("\"inserted\": 1"),
            "eight identical requests must share one cache insert: {body}"
        );
    });
    assert_eq!(stats.cache.inserted, 1);
    assert_eq!(stats.submitted, clients as u64);
    assert_eq!(stats.completed, stats.submitted);
}

#[test]
fn warm_repeats_are_served_inline_with_byte_identical_bodies() {
    let repeats = 5u64;
    let (cold_len, stats) = with_server(ServerConfig::default(), |handle| {
        let body = "{\"planner\": \"vww\", \"slack\": 0.4}";
        let cold = httpc::post(handle.addr(), "/v1/plan", body).expect("answers");
        assert_eq!(cold.status, 200, "{}", cold.body_str());
        for _ in 0..repeats {
            let warm = httpc::post(handle.addr(), "/v1/plan", body).expect("answers");
            assert_eq!(warm.status, 200);
            assert_eq!(
                warm.body, cold.body,
                "fast-path responses must be byte-identical to the cold one"
            );
        }
        // The hot-path counters are on the wire, not just in the struct.
        let report = httpc::get(handle.addr(), "/stats").expect("answers");
        assert_eq!(report.status, 200);
        let text = report.body_str();
        for field in ["\"inline_hits\"", "\"bytes_served\"", "\"enqueued\""] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
        cold.body.len() as u64
    });
    assert_eq!(stats.submitted, 1 + repeats);
    assert_eq!(stats.enqueued, 1, "only the cold request may enqueue");
    assert_eq!(
        stats.inline_hits, repeats,
        "every repeat must ride the inline fast path: {stats:?}"
    );
    assert!(
        stats.inline_hits <= stats.cache.hits,
        "inline hits are a subset of cache hits: {stats:?}"
    );
    assert_eq!(
        stats.bytes_served,
        (1 + repeats) * cold_len,
        "bytes_served must account for every payload byte"
    );
}

#[test]
fn query_strings_are_stripped_before_route_matching() {
    with_server(ServerConfig::default(), |handle| {
        // Probes and scrapers tack query strings onto fixed paths; the
        // route table must see the path alone.
        for path in ["/healthz?probe=k8s", "/stats?verbose=1", "/metrics?f=1"] {
            let response = httpc::get(handle.addr(), path).expect("answers");
            assert_eq!(response.status, 200, "{path}: {}", response.body_str());
        }
        // Stripping must not loosen the method mapping: a known path
        // with a query string and the wrong method is still a 405.
        assert_eq!(
            httpc::post(handle.addr(), "/stats?x=1", "")
                .expect("answers")
                .status,
            405
        );
        // An unknown path stays unknown no matter the query string.
        assert_eq!(
            httpc::get(handle.addr(), "/nope?x=1")
                .expect("answers")
                .status,
            404
        );
    });
}

#[test]
fn plan_responses_carry_receipts_the_ring_and_metrics_confirm() {
    with_server(ServerConfig::default(), |handle| {
        let body = "{\"planner\": \"vww\", \"slack\": 0.35}";
        let cold = httpc::post(handle.addr(), "/v1/plan", body).expect("answers");
        assert_eq!(cold.status, 200, "{}", cold.body_str());

        // Every plan response carries an `X-Plan-Receipt` whose `hash=`
        // field is the FNV-1a of exactly the body bytes on the wire.
        let receipt = cold
            .receipt
            .as_deref()
            .expect("cold response has a receipt");
        assert_eq!(
            serving::receipt_hash(receipt),
            Some(dae_dvfs::obs::plan_hash(&cold.body)),
            "receipt must pin the served bytes: {receipt}"
        );
        let fingerprint = receipt
            .strip_prefix("fp=")
            .and_then(|rest| rest.split(';').next())
            .expect("receipt leads with fp=");

        // The warm repeat answers with the same fingerprint and hash but
        // a hit path — the receipt tells the paths apart on the wire.
        let warm = httpc::post(handle.addr(), "/v1/plan", body).expect("answers");
        let warm_receipt = warm
            .receipt
            .as_deref()
            .expect("warm response has a receipt");
        assert!(
            warm_receipt.starts_with(&format!("fp={fingerprint};path=inline-hit;")),
            "warm repeat must ride the inline fast path: {warm_receipt}"
        );
        assert_eq!(
            serving::receipt_hash(warm_receipt),
            serving::receipt_hash(receipt),
            "one key, one hash, every path"
        );

        // The ring replays the receipt as JSON at its fingerprint.
        let ring =
            httpc::get(handle.addr(), &format!("/v1/receipt/{fingerprint}")).expect("answers");
        assert_eq!(ring.status, 200, "{}", ring.body_str());
        let text = ring.body_str();
        assert!(
            text.contains(&format!("\"fingerprint\": \"{fingerprint}\"")),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "\"plan_hash\": \"{:016x}\"",
                dae_dvfs::obs::plan_hash(&cold.body)
            )),
            "{text}"
        );

        // Malformed and unknown fingerprints map to 400 and 404.
        assert_eq!(
            httpc::get(handle.addr(), "/v1/receipt/short")
                .expect("answers")
                .status,
            400
        );
        assert_eq!(
            httpc::get(handle.addr(), "/v1/receipt/0000000000000000")
                .expect("answers")
                .status,
            404
        );

        // `/metrics` folds the same traffic into per-path histograms.
        let metrics = httpc::get(handle.addr(), "/metrics").expect("answers");
        assert_eq!(metrics.status, 200);
        let text = metrics.body_str();
        for needle in ["inline-hit", "solved", "requests_total"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    });
}

#[test]
fn disabling_receipts_strips_the_header_and_empties_the_ring() {
    with_server(ServerConfig::default().with_receipts(false), |handle| {
        let body = "{\"planner\": \"vww\", \"slack\": 0.35}";
        let response = httpc::post(handle.addr(), "/v1/plan", body).expect("answers");
        assert_eq!(response.status, 200, "{}", response.body_str());
        assert_eq!(
            response.receipt, None,
            "receipts off must mean no X-Plan-Receipt header"
        );
        // Nothing was recorded: any well-formed fingerprint misses.
        assert_eq!(
            httpc::get(handle.addr(), "/v1/receipt/0123456789abcdef")
                .expect("answers")
                .status,
            404
        );
    });
}

#[test]
fn graceful_drain_fulfills_every_admitted_request() {
    let clients = 8;
    let (outcomes, stats) = with_server(ServerConfig::default().with_workers(4), |handle| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|i| {
                    s.spawn(move || {
                        // Distinct budgets: real cold solves, in flight
                        // when the shutdown lands.
                        let body = format!("{{\"planner\": \"vww\", \"slack\": 0.{}5}}", i + 1);
                        httpc::post(handle.addr(), "/v1/plan", &body)
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(20));
            handle.shutdown();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread survives"))
                .collect::<Vec<_>>()
        })
    });
    // A client that raced the shutdown may have been turned away at the
    // door (transport error) — but every request the server *admitted*
    // must have been answered in full with a 200.
    let answered = outcomes
        .iter()
        .filter(|outcome| match outcome {
            Ok(response) => {
                assert_eq!(response.status, 200, "{}", response.body_str());
                assert!(response.body_str().contains("\"artifact\""));
                true
            }
            Err(_) => false,
        })
        .count();
    assert!(answered > 0, "the head start must admit some requests");
    assert_eq!(
        stats.completed, stats.submitted,
        "drain must fulfill every admitted ticket: {stats:?}"
    );
    assert_eq!(stats.failed, 0);
}
