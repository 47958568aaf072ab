//! Request routing and the [`ServiceError`] → HTTP status mapping.
//!
//! The handler is a pure function from a parsed [`Request`] (plus the
//! server's route table and [`PlanService`]) to a [`Response`]; all
//! socket concerns live in [`super::http`] and the connection loop. The
//! wire format is documented in DESIGN.md, "Network serving & artifact
//! registry".
//!
//! The plan route is **zero-serialization**: a successful plan is
//! answered with the service's cached artifact bytes
//! ([`crate::PlanService::plan_served`] → [`Body::Shared`]) — rendered
//! exactly once when the plan was solved, never re-serialized here — so
//! a cache hit performs no JSON work and no body allocation at all.
//!
//! [`PlanService`]: crate::PlanService

use std::borrow::Cow;

use crate::artifact::json;
use crate::error::{DaeDvfsError, ServiceError};
use crate::request::PlanRequest;
use crate::service::ServiceStats;

use super::http::{Body, Conn, Request, Response};
use super::PlanServer;

/// Builds a JSON error response: `{"error": "<message>"}`.
pub(crate) fn error_response(status: u16, reason: &'static str, message: &str) -> Response {
    let mut body = String::with_capacity(16 + message.len());
    json::compact(&mut body, |o| {
        o.str("error", message);
    });
    body.push('\n');
    Response {
        status,
        reason,
        content_type: "application/json",
        body: Body::Owned(body.into_bytes()),
        receipt: None,
    }
}

/// Builds a 200 response with a JSON body.
fn ok_json(body: Body) -> Response {
    Response {
        status: 200,
        reason: "OK",
        content_type: "application/json",
        body,
        receipt: None,
    }
}

/// Maps a [`ServiceError`] to its HTTP status line.
///
/// | error | status |
/// |---|---|
/// | `QueueFull` | 429 (retryable backpressure) |
/// | `NotServing` | 503 (startup/drain; retry elsewhere) |
/// | `UnknownPlanner` | 404 (the route resolves to nothing) |
/// | `Plan(InvalidRequest \| ArtifactParse)` | 400 (caller's request) |
/// | `Plan(Qos \| EmptyModel)` | 422 (well-formed but unsatisfiable) |
/// | `Plan(Engine \| ArtifactMismatch)`, `WorkerPanicked` | 500 |
pub(crate) fn status_for(error: &ServiceError) -> (u16, &'static str) {
    match error {
        ServiceError::QueueFull { .. } => (429, "Too Many Requests"),
        ServiceError::NotServing => (503, "Service Unavailable"),
        ServiceError::UnknownPlanner { .. } => (404, "Not Found"),
        ServiceError::Plan(plan) => match plan {
            DaeDvfsError::InvalidRequest { .. } | DaeDvfsError::ArtifactParse { .. } => {
                (400, "Bad Request")
            }
            DaeDvfsError::Qos(_) | DaeDvfsError::EmptyModel { .. } => {
                (422, "Unprocessable Content")
            }
            DaeDvfsError::Engine(_) | DaeDvfsError::ArtifactMismatch { .. } => {
                (500, "Internal Server Error")
            }
        },
        ServiceError::WorkerPanicked => (500, "Internal Server Error"),
    }
}

/// Where one request routes. Resolved from borrowed method/target
/// tokens *before* dispatch, so the dispatch arms are free to borrow
/// the connection mutably (the `/stats` scratch buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Healthz,
    Stats,
    Metrics,
    Plan,
    /// `GET /v1/receipt/<fp>` with a well-formed 16-hex fingerprint.
    Receipt(u64),
    /// `GET /v1/receipt/<fp>` whose fingerprint is not 16 hex digits.
    BadFingerprint,
    MethodNotAllowed,
    NotFound,
}

/// Maps a method/path pair to its route. The target arrives with any
/// query string already stripped ([`Conn::target`]).
fn route_of(method: &str, target: &str) -> Route {
    if let Some(fingerprint) = target.strip_prefix("/v1/receipt/") {
        if method != "GET" {
            return Route::MethodNotAllowed;
        }
        if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Route::BadFingerprint;
        }
        return match u64::from_str_radix(fingerprint, 16) {
            Ok(fp) => Route::Receipt(fp),
            Err(_) => Route::BadFingerprint,
        };
    }
    match (method, target) {
        ("GET", "/healthz") => Route::Healthz,
        ("GET", "/stats") => Route::Stats,
        ("GET", "/metrics") => Route::Metrics,
        ("POST", "/v1/plan") => Route::Plan,
        // Known path, wrong method — checked before the catch-all so
        // e.g. `GET /v1/plan` is a 405, not an "unknown path" 404.
        (_, "/healthz" | "/stats" | "/metrics" | "/v1/plan") => Route::MethodNotAllowed,
        _ => Route::NotFound,
    }
}

/// Routes one request (whose tokens live in `conn`'s read buffer).
/// Never panics and never returns transport errors — every outcome,
/// including handler-side failures, is a [`Response`].
pub(crate) fn handle(server: &PlanServer<'_>, conn: &mut Conn, request: &Request) -> Response {
    let route = route_of(conn.method(request), conn.target(request));
    match route {
        Route::Healthz => Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain",
            body: Body::Static(b"ok\n"),
            receipt: None,
        },
        Route::Stats => {
            // Rendered into the connection's reusable scratch buffer:
            // no per-field Strings, no per-response body allocation on
            // a warmed keep-alive connection.
            let stats = server.service().stats();
            render_stats(conn.scratch_mut(), &stats);
            ok_json(Body::Scratch)
        }
        Route::Metrics => Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain",
            body: Body::Owned(render_metrics(&server.service().stats()).into_bytes()),
            receipt: None,
        },
        Route::Plan => plan_response(server, conn.body(request)),
        Route::Receipt(fingerprint) => match server.receipt_for(fingerprint) {
            Some(receipt) => ok_json(Body::Owned(receipt.to_json().into_bytes())),
            None => error_response(
                404,
                "Not Found",
                "no receipt for this fingerprint in the ring",
            ),
        },
        Route::BadFingerprint => error_response(
            400,
            "Bad Request",
            "receipt fingerprint must be 16 hex digits",
        ),
        Route::MethodNotAllowed => error_response(
            405,
            "Method Not Allowed",
            "method not allowed for this path",
        ),
        Route::NotFound => error_response(404, "Not Found", "unknown path"),
    }
}

/// Decodes the `POST /v1/plan` body: `{"planner": <route name>,
/// "qos_secs": <f64> | "slack": <f64>, "solver"?: <tag>,
/// "dp_resolution"?: <u64>}`. The planner name borrows from `body`
/// unless it was written with escapes.
fn decode_plan_request(body: &str) -> Result<(Cow<'_, str>, PlanRequest), String> {
    let value = json::parse(body).map_err(|e| e.to_string())?;
    let obj = value.as_object("plan request").map_err(|e| e.to_string())?;
    let planner = obj.get_cow("planner").map_err(|e| e.to_string())?;
    let mut request = match (obj.get("qos_secs").is_ok(), obj.get("slack").is_ok()) {
        (true, false) => PlanRequest::qos(obj.get_f64("qos_secs").map_err(|e| e.to_string())?),
        (false, true) => PlanRequest::slack(obj.get_f64("slack").map_err(|e| e.to_string())?),
        (true, true) => return Err("specify exactly one of qos_secs and slack".to_string()),
        (false, false) => return Err("missing budget: provide qos_secs or slack".to_string()),
    };
    if obj.get("solver").is_ok() {
        let tag = obj.get_str("solver").map_err(|e| e.to_string())?;
        let Some(solver) = crate::registry::parse_solver(tag) else {
            return Err(format!(
                "unknown solver {tag:?} (expected reserve-grid or sequence-dp)"
            ));
        };
        request = request.with_solver(solver);
    }
    if obj.get("dp_resolution").is_ok() {
        let resolution = obj.get_u64("dp_resolution").map_err(|e| e.to_string())?;
        let resolution = usize::try_from(resolution)
            .map_err(|_| format!("dp_resolution {resolution} does not fit this platform"))?;
        request = request.with_dp_resolution(resolution);
    }
    Ok((planner, request))
}

/// Serves `POST /v1/plan`: decode → route →
/// [`PlanService::plan_served`] → the plan's cached artifact bytes (the
/// same bytes [`crate::PlanArtifact::to_json`] produced when the plan
/// was solved, shared by `Arc` — so responses are bit-comparable across
/// requests, restarts, and the on-disk registry, and a cache hit
/// serializes nothing).
///
/// [`PlanService::plan_served`]: crate::PlanService::plan_served
fn plan_response(server: &PlanServer<'_>, body: &[u8]) -> Response {
    let body = match std::str::from_utf8(body) {
        Ok(body) => body,
        Err(_) => return error_response(400, "Bad Request", "body is not UTF-8"),
    };
    let (planner_name, plan_request) = match decode_plan_request(body) {
        Ok(decoded) => decoded,
        Err(reason) => return error_response(400, "Bad Request", &reason),
    };
    let Some(key) = server.route_key(&planner_name) else {
        return error_response(
            404,
            "Not Found",
            &format!("unknown planner {planner_name:?}"),
        );
    };
    if server.config().receipts {
        match server.service().plan_receipted(key, &plan_request) {
            Ok((served, receipt)) => {
                server.record(&receipt, body);
                let mut response = ok_json(Body::Shared(served.into_bytes()));
                response.receipt = Some(receipt.to_header_value());
                response
            }
            Err(error) => {
                let (status, reason) = status_for(&error);
                error_response(status, reason, &error.to_string())
            }
        }
    } else {
        match server.service().plan_served(key, &plan_request) {
            Ok(served) => ok_json(Body::Shared(served.into_bytes())),
            Err(error) => {
                let (status, reason) = status_for(&error);
                error_response(status, reason, &error.to_string())
            }
        }
    }
}

/// JSON for `GET /stats`, written into the connection's reusable
/// scratch buffer: the [`ServiceStats`] snapshot, including the registry
/// tier counters (all zero when no registry is attached) and the serving
/// hot-path counters (`inline_hits`, `bytes_served`, `enqueued`). The
/// writer appends straight into the buffer, so a warmed buffer renders
/// with zero allocations and no per-field `String`s.
fn render_stats(out: &mut String, stats: &ServiceStats) {
    json::lines(out, |o| {
        o.u64("submitted", stats.submitted)
            .u64("completed", stats.completed)
            .u64("rejected", stats.rejected)
            .u64("failed", stats.failed)
            .u64("batches", stats.batches)
            .u64("batched_requests", stats.batched_requests)
            .u64("max_batch", stats.max_batch)
            .u64("inline_hits", stats.inline_hits)
            .u64("bytes_served", stats.bytes_served)
            .u64("enqueued", stats.enqueued)
            .u64("queue_depth", stats.queue_depth)
            .u64("max_queue_depth", stats.max_queue_depth)
            .f64("elapsed_secs", stats.elapsed_secs)
            .u64("registry_hits", stats.registry_hits)
            .u64("registry_writes", stats.registry_writes)
            .u64("quarantined", stats.quarantined)
            .object("cache", |c| {
                c.u64("hits", stats.cache.hits)
                    .u64("misses", stats.cache.misses)
                    .u64("joined", stats.cache.joined)
                    .u64("inserted", stats.cache.inserted)
                    .u64("evicted", stats.cache.evicted)
                    .u64("entries", stats.cache.entries);
            });
    });
    out.push('\n');
}

/// Plain-text rendering for `GET /metrics`: the counter snapshot plus
/// one latency histogram block per serving path — sample count,
/// conservative p50/p99 (bucket upper bounds), and the non-empty
/// power-of-two buckets as `le=<upper-bound-ns>` cumulative-free pairs.
/// Empty lanes render their count only, keeping the payload small.
fn render_metrics(stats: &ServiceStats) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in [
        ("plan_requests_submitted_total", stats.submitted),
        ("plan_requests_completed_total", stats.completed),
        ("plan_requests_rejected_total", stats.rejected),
        ("plan_requests_failed_total", stats.failed),
        ("plan_batches_total", stats.batches),
        ("plan_inline_hits_total", stats.inline_hits),
        ("plan_bytes_served_total", stats.bytes_served),
        ("plan_cache_hits_total", stats.cache.hits),
        ("plan_cache_misses_total", stats.cache.misses),
        ("plan_registry_hits_total", stats.registry_hits),
        ("plan_registry_writes_total", stats.registry_writes),
    ] {
        let _ = writeln!(out, "{name} {value}");
    }
    for (label, histogram) in stats.paths.iter() {
        let count = histogram.count();
        let _ = writeln!(out, "plan_path_requests_total{{path=\"{label}\"}} {count}");
        if count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "plan_path_latency_ns{{path=\"{label}\",quantile=\"0.5\"}} {}",
            histogram.percentile_upper_nanos(0.5)
        );
        let _ = writeln!(
            out,
            "plan_path_latency_ns{{path=\"{label}\",quantile=\"0.99\"}} {}",
            histogram.percentile_upper_nanos(0.99)
        );
        for (index, &samples) in histogram.buckets.iter().enumerate() {
            if samples > 0 {
                let _ = writeln!(
                    out,
                    "plan_path_latency_ns_bucket{{path=\"{label}\",le=\"{}\"}} {samples}",
                    crate::obs::bucket_upper_nanos(index)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_matches_the_documented_table() {
        assert_eq!(status_for(&ServiceError::QueueFull { capacity: 4 }).0, 429);
        assert_eq!(status_for(&ServiceError::NotServing).0, 503);
        assert_eq!(status_for(&ServiceError::UnknownPlanner { key: 7 }).0, 404);
        assert_eq!(status_for(&ServiceError::WorkerPanicked).0, 500);
        assert_eq!(
            status_for(&ServiceError::Plan(DaeDvfsError::InvalidRequest {
                field: "qos_secs",
                reason: "must be positive".to_string(),
            }))
            .0,
            400
        );
        assert_eq!(
            status_for(&ServiceError::Plan(DaeDvfsError::ArtifactParse {
                reason: "truncated".to_string(),
            }))
            .0,
            400
        );
        assert_eq!(
            status_for(&ServiceError::Plan(DaeDvfsError::Qos(
                crate::mckp::MckpError::Infeasible {
                    min_time_secs: 2.0,
                    budget_secs: 1.0,
                }
            )))
            .0,
            422
        );
        assert_eq!(
            status_for(&ServiceError::Plan(DaeDvfsError::EmptyModel {
                model: "m".to_string(),
            }))
            .0,
            422
        );
        assert_eq!(
            status_for(&ServiceError::Plan(DaeDvfsError::ArtifactMismatch {
                field: "model_fingerprint",
                expected: "0".to_string(),
                found: "1".to_string(),
            }))
            .0,
            500
        );
    }

    #[test]
    fn plan_body_decoding_accepts_both_budgets_and_rejects_ambiguity() {
        let (name, request) =
            decode_plan_request("{\"planner\": \"vww\", \"qos_secs\": 0.25}").unwrap();
        assert_eq!(name, "vww");
        assert!(matches!(
            request.budget(),
            crate::QosBudget::Window(w) if w == 0.25
        ));

        let (_, request) = decode_plan_request(
            "{\"planner\": \"vww\", \"slack\": 0.3, \"solver\": \"sequence-dp\", \
             \"dp_resolution\": 512}",
        )
        .unwrap();
        assert!(matches!(request.solver(), crate::Solver::SequenceDp));
        assert_eq!(request.dp_resolution(), Some(512));

        assert!(decode_plan_request("{\"planner\": \"vww\"}").is_err());
        assert!(
            decode_plan_request("{\"planner\": \"vww\", \"qos_secs\": 0.2, \"slack\": 0.3}")
                .is_err()
        );
        assert!(decode_plan_request(
            "{\"planner\": \"vww\", \"slack\": 0.3, \"solver\": \"magic\"}"
        )
        .is_err());
        assert!(decode_plan_request("not json").is_err());

        // The name borrows from the body, unless it was escaped.
        let body = "{\"planner\": \"vww\", \"slack\": 0.3}";
        let (name, _) = decode_plan_request(body).unwrap();
        assert!(matches!(name, Cow::Borrowed(n) if std::ptr::eq(n, &body[13..16])));
        let (name, _) =
            decode_plan_request("{\"planner\": \"v\\u0077w\", \"slack\": 0.3}").unwrap();
        assert!(matches!(name, Cow::Owned(ref n) if n == "vww"));
    }

    #[test]
    fn error_responses_are_json_objects() {
        let response = error_response(400, "Bad Request", "a \"quoted\" reason");
        assert_eq!(response.status, 400);
        let body = std::str::from_utf8(response.body.as_bytes()).unwrap();
        assert!(body.starts_with("{\"error\": "));
        assert!(body.contains("\\\"quoted\\\""));
    }

    fn sample_stats() -> ServiceStats {
        ServiceStats {
            submitted: 14,
            completed: 14,
            rejected: 0,
            failed: 0,
            batches: 1,
            batched_requests: 2,
            max_batch: 2,
            inline_hits: 12,
            bytes_served: 3456,
            enqueued: 2,
            queue_depth: 0,
            max_queue_depth: 2,
            elapsed_secs: 1.0,
            registry_hits: 0,
            registry_writes: 0,
            quarantined: 0,
            cache: crate::service::CacheStats::default(),
            paths: crate::obs::PathStats::empty(),
        }
    }

    #[test]
    fn stats_json_includes_the_hot_path_counters() {
        let mut rendered = String::new();
        render_stats(&mut rendered, &sample_stats());
        assert!(rendered.contains("\"inline_hits\": 12"));
        assert!(rendered.contains("\"bytes_served\": 3456"));
        assert!(rendered.contains("\"enqueued\": 2"));
    }

    #[test]
    fn metrics_render_counters_and_only_populated_lanes() {
        let mut stats = sample_stats();
        let rendered = render_metrics(&stats);
        assert!(rendered.contains("plan_requests_submitted_total 14"));
        // Empty lanes contribute their count line and nothing else.
        assert!(rendered.contains("plan_path_requests_total{path=\"inline-hit\"} 0"));
        assert!(!rendered.contains("quantile"));

        stats.paths.histograms[crate::obs::ServePath::InlineHit.index()].buckets[10] = 3;
        let rendered = render_metrics(&stats);
        assert!(rendered.contains("plan_path_requests_total{path=\"inline-hit\"} 3"));
        assert!(
            rendered.contains("plan_path_latency_ns{path=\"inline-hit\",quantile=\"0.5\"} 2047")
        );
        assert!(rendered.contains("plan_path_latency_ns_bucket{path=\"inline-hit\",le=\"2047\"} 3"));
    }

    #[test]
    fn routes_resolve_methods_paths_and_receipt_fingerprints() {
        assert_eq!(route_of("GET", "/healthz"), Route::Healthz);
        assert_eq!(route_of("GET", "/stats"), Route::Stats);
        assert_eq!(route_of("GET", "/metrics"), Route::Metrics);
        assert_eq!(route_of("POST", "/v1/plan"), Route::Plan);
        assert_eq!(
            route_of("GET", "/v1/receipt/00ff00ff00ff00ff"),
            Route::Receipt(0x00ff_00ff_00ff_00ff)
        );
        assert_eq!(route_of("GET", "/v1/receipt/short"), Route::BadFingerprint);
        assert_eq!(
            route_of("GET", "/v1/receipt/zzzzzzzzzzzzzzzz"),
            Route::BadFingerprint
        );
        assert_eq!(
            route_of("POST", "/v1/receipt/00ff00ff00ff00ff"),
            Route::MethodNotAllowed
        );
        for path in ["/healthz", "/stats", "/metrics", "/v1/plan"] {
            assert_eq!(route_of("PUT", path), Route::MethodNotAllowed, "{path}");
        }
        assert_eq!(route_of("GET", "/nope"), Route::NotFound);
    }

    #[test]
    fn error_body_bytes_are_pinned() {
        let response = error_response(
            400,
            "Bad Request",
            "a \"quoted\" reason\nwith\tcontrol \u{1}",
        );
        let expected = "{\"error\": \"a \\\"quoted\\\" reason\\nwith\\tcontrol \\u0001\"}\n";
        assert_eq!(std::str::from_utf8(response.body.as_bytes()), Ok(expected));
    }
}
