//! PLAN-SERVER — synthetic multi-tenant trace replay through the
//! concurrent plan-serving subsystem.
//!
//! Builds planners for a mix of models × targets, generates a
//! deterministic request trace with hot-key skew (a few
//! `(tenant, budget)` pairs dominate, the tail spreads over many QoS
//! levels, solvers and jittered absolute windows), then answers the
//! trace two ways:
//!
//! 1. **serial**: `Planner::plan` per request, no cache, no coalescing —
//!    what N independent callers would pay;
//! 2. **served**: the same trace through a `PlanService` (fingerprint
//!    cache + single-flight + shared-grid coalescing) from several
//!    submitter threads.
//!
//! Prints the service stats (throughput, hit rate, batch shape) and the
//! end-to-end speedup, and verifies the serving invariants: cache
//! counters account for every request, and sampled answers are
//! bit-identical to their serial reference (a singleton `Planner::sweep`
//! for reserve-grid requests, `Planner::plan` for sequence-DP ones).
//!
//! With `--serve` (alias `--http-trace`) the same deterministic trace is
//! instead replayed **over real loopback sockets** against the
//! `PlanServer` HTTP front end, three times: a cold pass against an
//! empty on-disk `PlanRegistry`; then — after tearing the service down
//! and rebuilding it (the simulated process restart) — a warm pass that
//! must be answered entirely from the re-opened registry without a
//! single solve, byte-identical to the cold responses; then a hot replay
//! in the same process that must ride the inline fast path end-to-end —
//! zero solves, zero ticket enqueues, every request an inline cache hit
//! served from the cached artifact bytes (asserted by the harness, so
//! `--serve --smoke` gates on them — including a receipt on every
//! response whose hash pins the served bytes). Prints request latency
//! percentiles and the per-pass solve split, then runs the **record →
//! replay gate**: the same trace is recorded through a trace-streaming
//! server (`PlanServer::trace_to`) and the resulting JSONL is replayed
//! offline through a fresh service + registry, demanding per-request
//! plan-hash equality against the recorded receipts.
//!
//! With `--replay <trace.jsonl>` a previously recorded trace is replayed
//! the same way on its own: requests are re-driven in arrival order and
//! every response's plan hash is checked against the receipt the
//! recording server vouched for — byte-level reproducibility across
//! processes, machines and time.
//!
//! Run with: `cargo run --release -p repro-bench --bin plan_server`
//! CI smoke: `… --bin plan_server -- --smoke` and
//! `… --bin plan_server -- --serve --smoke` (small traces; exit
//! non-zero if any invariant fails).
//! Flags: `--requests N`, `--workers N`, `--serve` (HTTP replay),
//! `--replay <trace.jsonl>` (offline replay of a recorded trace).

use std::sync::Arc;
use std::time::{Duration, Instant};

use dae_dvfs::artifact::json;
use dae_dvfs::{
    GenericCortexMTarget, OperatingModes, PlanRegistry, PlanRequest, PlanServer, PlanService,
    Planner, PlannerKey, QosBudget, ServerConfig, ServiceConfig, Solver, Stm32F767Target, Target,
};
use repro_bench::{httpc, serving};
use stm32_rcc::Hertz;
use tinyengine::qos_window;
use tinynn::models::synth::SplitMix64;

/// One tenant: a planner plus its submission key and baseline latency.
struct Tenant {
    name: String,
    key: PlannerKey,
    baseline: f64,
}

/// A trace entry: which tenant asks, and what for.
struct TraceRequest {
    tenant: usize,
    request: PlanRequest,
}

/// The QoS slack levels the trace draws from.
const SLACKS: [f64; 10] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.85, 0.95];

fn build_planners() -> Vec<(String, Arc<Planner>)> {
    let f767 = Stm32F767Target::paper();
    // A second, genuinely different platform: a leaner clock ladder, so
    // its plans (and its config fingerprint) differ from the F767's.
    let lean = GenericCortexMTarget::new("cortex-m-lean").with_modes(
        OperatingModes::from_sysclks(
            Hertz::mhz(50),
            Hertz::mhz(50),
            &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
        )
        .expect("lean ladder reachable"),
    );
    let vww = tinynn::models::vww_sized(32);
    let pd = tinynn::models::person_detection_sized(32);
    vec![
        (
            format!("{}@{}", vww.name, f767.id()),
            Arc::new(Planner::for_target(f767.clone(), &vww).expect("planner builds")),
        ),
        (
            format!("{}@{}", vww.name, lean.id()),
            Arc::new(Planner::for_target(lean.clone(), &vww).expect("planner builds")),
        ),
        (
            format!("{}@{}", pd.name, f767.id()),
            Arc::new(Planner::for_target(f767, &pd).expect("planner builds")),
        ),
        (
            format!("{}@{}", pd.name, lean.id()),
            Arc::new(Planner::for_target(lean, &pd).expect("planner builds")),
        ),
    ]
}

/// Deterministic multi-tenant trace with hot-key skew: `hot_share` of
/// requests replay one of a handful of hot `(tenant, request)` pairs;
/// the tail mixes slack levels, solvers and jittered absolute windows.
/// Takes bare baselines (not `Tenant`s) so the HTTP serve mode can build
/// the trace before any service exists to hand out keys.
fn generate_trace(baselines: &[f64], requests: usize, rng: &mut SplitMix64) -> Vec<TraceRequest> {
    let hot: Vec<(usize, PlanRequest)> = vec![
        (0, PlanRequest::slack(0.3)),
        (0, PlanRequest::slack(0.5)),
        (1, PlanRequest::slack(0.3)),
        (2, PlanRequest::slack(0.1)),
        (0, PlanRequest::slack(0.3).with_solver(Solver::SequenceDp)),
    ];
    (0..requests)
        .map(|_| {
            let roll = rng.next_u64() % 100;
            if roll < 70 {
                // Hot keys: 70% of traffic replays 5 request shapes.
                let (tenant, request) = &hot[(rng.next_u64() % hot.len() as u64) as usize];
                TraceRequest {
                    tenant: *tenant,
                    request: request.clone(),
                }
            } else {
                let tenant = (rng.next_u64() % baselines.len() as u64) as usize;
                let slack = SLACKS[(rng.next_u64() % SLACKS.len() as u64) as usize];
                let request = if roll < 85 {
                    PlanRequest::slack(slack)
                } else {
                    // Absolute windows with sub-quantum jitter: the
                    // service's QoS quantum coalesces these onto shared
                    // cache entries.
                    let jitter = (rng.next_u64() % 1000) as f64 * 1e-9;
                    PlanRequest::qos(qos_window(baselines[tenant], slack) + jitter)
                };
                let request = if roll >= 97 {
                    request.with_solver(Solver::SequenceDp)
                } else {
                    request
                };
                TraceRequest { tenant, request }
            }
        })
        .collect()
}

/// Serializes one trace request as the `POST /v1/plan` JSON body the
/// HTTP front end decodes. The writer's `f64` is the shortest exact
/// round-trip form, so the body re-parses to the bit-identical budget.
fn request_body(route: &str, request: &PlanRequest) -> String {
    let mut body = String::new();
    json::compact(&mut body, |o| {
        o.str("planner", route);
        if let QosBudget::Window(window) = request.budget() {
            o.f64("qos_secs", window);
        } else if let QosBudget::Slack(slack) = request.budget() {
            o.f64("slack", slack);
        }
        if request.solver() == Solver::SequenceDp {
            o.str("solver", "sequence-dp");
        }
        if let Some(resolution) = request.dp_resolution() {
            o.u64("dp_resolution", resolution as u64);
        }
    });
    body
}

/// The service configuration every serving-mode pass shares — the serve
/// harness, the trace recording and the offline replay must canonicalize
/// requests identically (same QoS quantum) or replayed plan hashes could
/// not reproduce the recorded ones.
fn serving_config(workers: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(workers)
        .with_batch_linger(Duration::from_millis(2))
        // Windows are a few milliseconds; a 1 µs quantum folds the
        // trace's sub-µs jitter onto shared entries without moving any
        // deadline by a meaningful amount.
        .with_qos_quantum_secs(1e-6)
}

/// Records one serve pass to a JSONL trace: a fresh service over a fresh
/// registry answers `trace` over loopback HTTP while the server streams
/// every receipted admission to `trace_path`. Returns the request count.
fn record_trace(
    planners: &[(String, Arc<Planner>)],
    trace: &[(String, String)],
    workers: usize,
    clients: usize,
    trace_path: &std::path::Path,
) -> usize {
    let registry_dir = std::env::temp_dir().join(format!("dae-dvfs-record-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry_dir);
    let mut service = PlanService::new(serving_config(workers)).expect("service config validates");
    let keys: Vec<_> = planners
        .iter()
        .map(|(_, planner)| service.register(planner.clone()))
        .collect();
    service
        .attach_registry(PlanRegistry::open(&registry_dir).expect("registry opens"))
        .expect("fresh registry validates");
    let replay = service.run(|svc| {
        let mut server = PlanServer::new(svc, ServerConfig::default().with_workers(clients))
            .expect("server config validates");
        for ((name, _), key) in planners.iter().zip(&keys) {
            server = server.route(name, *key).expect("route registers");
        }
        let server = server
            .trace_to(&trace_path.to_string_lossy())
            .expect("trace file opens");
        server
            .serve(|handle| httpc::replay_posts(handle.addr(), trace, clients))
            .expect("server binds an ephemeral loopback port")
            .expect("every recorded request answered")
    });
    let _ = std::fs::remove_dir_all(&registry_dir);
    assert!(
        replay.receipts.iter().all(Option::is_some),
        "recording requires a receipt on every response"
    );
    replay.bodies.len()
}

/// One recorded trace line: arrival order, request target and body, and
/// the plan hash the recording server's receipt vouched for.
struct TraceRecord {
    seq: u64,
    target: String,
    plan_hash: u64,
    body: String,
}

/// Parses a JSONL request trace (as written by `PlanServer::trace_to`)
/// into arrival order.
fn parse_trace(text: &str) -> Vec<TraceRecord> {
    let mut records: Vec<TraceRecord> = text
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            let value = json::parse(line).expect("trace line parses");
            let record = value
                .as_object("trace record")
                .expect("trace record is an object");
            TraceRecord {
                seq: record.get_u64("seq").expect("seq field"),
                target: record.get_str("target").expect("target field").to_string(),
                plan_hash: record.get_hex64("plan_hash").expect("plan_hash field"),
                body: record.get_str("body").expect("body field").to_string(),
            }
        })
        .collect();
    records.sort_by_key(|r| r.seq);
    records
}

/// Drives a fresh service + fresh registry through a recorded trace in
/// arrival order (one keep-alive connection, strictly sequential) and
/// checks every response's plan hash — and its receipt's claimed hash —
/// against the recorded receipt. Returns `(requests, divergences)`.
fn replay_trace(
    planners: &[(String, Arc<Planner>)],
    workers: usize,
    trace_path: &std::path::Path,
) -> (usize, usize) {
    let text = std::fs::read_to_string(trace_path).expect("trace file reads");
    let records = parse_trace(&text);
    let registry_dir = std::env::temp_dir().join(format!("dae-dvfs-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry_dir);
    let mut service = PlanService::new(serving_config(workers)).expect("service config validates");
    let keys: Vec<_> = planners
        .iter()
        .map(|(_, planner)| service.register(planner.clone()))
        .collect();
    service
        .attach_registry(PlanRegistry::open(&registry_dir).expect("registry opens"))
        .expect("fresh registry validates");
    let answers: Vec<(u64, Option<String>)> = service.run(|svc| {
        let mut server =
            PlanServer::new(svc, ServerConfig::default()).expect("server config validates");
        for ((name, _), key) in planners.iter().zip(&keys) {
            server = server.route(name, *key).expect("route registers");
        }
        server
            .serve(|handle| -> std::io::Result<_> {
                let mut client = httpc::Client::connect(handle.addr())?;
                records
                    .iter()
                    .map(|record| {
                        let response = client.post(&record.target, &record.body)?;
                        assert_eq!(
                            response.status,
                            200,
                            "replayed request {} failed: {}",
                            record.seq,
                            response.body_str()
                        );
                        Ok((dae_dvfs::obs::plan_hash(&response.body), response.receipt))
                    })
                    .collect()
            })
            .expect("server binds an ephemeral loopback port")
            .expect("every replayed request answered")
    });
    let _ = std::fs::remove_dir_all(&registry_dir);
    let mut divergences = 0;
    for (record, (hash, receipt)) in records.iter().zip(&answers) {
        let receipt = receipt.as_deref().expect("replay responses carry receipts");
        assert_eq!(
            serving::receipt_hash(receipt),
            Some(*hash),
            "request {}: receipt hash must pin the replayed body bytes",
            record.seq
        );
        if *hash != record.plan_hash {
            eprintln!(
                "divergence at seq {}: recorded {:016x}, replayed {:016x}",
                record.seq, record.plan_hash, hash
            );
            divergences += 1;
        }
    }
    (records.len(), divergences)
}

/// The `--replay` path: re-drive a previously recorded JSONL trace
/// through a fresh service + registry and hold every plan hash to the
/// recorded receipts.
fn replay_mode(trace_path: &str, workers: usize) {
    println!("building planners (one DSE per model x target)...");
    let t0 = Instant::now();
    let planners = build_planners();
    println!(
        "  {} planners in {:.2}s",
        planners.len(),
        t0.elapsed().as_secs_f64()
    );
    let (requests, divergences) =
        replay_trace(&planners, workers, std::path::Path::new(trace_path));
    println!("replay: {requests} requests from {trace_path}, {divergences} divergences");
    assert_eq!(
        divergences, 0,
        "replayed plan hashes must match the recorded receipts"
    );
    println!("plan-hash equality: 100%");
}

/// The `--serve` path: the deterministic trace replayed over loopback
/// HTTP, cold against an empty registry and warm after a simulated
/// restart. The shared harness asserts the restart contract; this
/// function reports the latency split.
fn serve_mode(smoke: bool, requests: usize, workers: usize) {
    let clients = 8;
    println!("building planners (one DSE per model x target)...");
    let t0 = Instant::now();
    let planners = build_planners();
    println!(
        "  {} planners in {:.2}s",
        planners.len(),
        t0.elapsed().as_secs_f64()
    );

    let baselines: Vec<f64> = planners
        .iter()
        .map(|(_, planner)| planner.baseline_latency().expect("baseline runs"))
        .collect();
    let mut rng = SplitMix64::new(0xDAE_D5F5);
    let trace: Vec<(String, String)> = generate_trace(&baselines, requests, &mut rng)
        .iter()
        .map(|r| {
            (
                "/v1/plan".to_string(),
                request_body(&planners[r.tenant].0, &r.request),
            )
        })
        .collect();
    println!(
        "trace: {} requests over {} tenants, replayed twice over HTTP ({} client connections)",
        trace.len(),
        planners.len(),
        clients
    );

    let service_config = serving_config(workers);
    let server_config = ServerConfig::default().with_workers(clients);
    let registry_dir = std::env::temp_dir().join(format!("dae-dvfs-serve-{}", std::process::id()));
    let measured = serving::measure_serving(
        &planners,
        &service_config,
        &server_config,
        &trace,
        &registry_dir,
        clients,
    );
    let _ = std::fs::remove_dir_all(&registry_dir);

    println!("\ncold pass (empty registry: every distinct request solves)");
    println!(
        "  p50 / p99 latency    {:>9.3} / {:.3} ms",
        measured.cold.p50_ms, measured.cold.p99_ms
    );
    println!(
        "  distinct solves      {:>9}",
        measured.cold.stats.cache.inserted
    );
    println!(
        "  registry writes      {:>9}",
        measured.cold.stats.registry_writes
    );
    println!("  wall time            {:>9.3} s", measured.cold.total_secs);
    println!("\nwarm pass (restarted process: answered from disk, zero solves)");
    println!(
        "  p50 / p99 latency    {:>9.3} / {:.3} ms",
        measured.warm.p50_ms, measured.warm.p99_ms
    );
    println!("  solve batches        {:>9}", measured.warm.stats.batches);
    println!(
        "  registry hits        {:>9}",
        measured.warm.stats.registry_hits
    );
    println!("  wall time            {:>9.3} s", measured.warm.total_secs);
    println!("\nhot replay (same process: the inline serving fast path)");
    println!(
        "  p50 / p99 latency    {:>9.3} / {:.3} ms",
        measured.hot.p50_ms, measured.hot.p99_ms
    );
    println!(
        "  inline hits          {:>9}",
        measured.hot.stats.inline_hits - measured.warm.stats.inline_hits
    );
    println!(
        "  ticket enqueues      {:>9}",
        measured.hot.stats.enqueued - measured.warm.stats.enqueued
    );
    println!(
        "  bytes served         {:>9}",
        measured.hot.stats.bytes_served - measured.warm.stats.bytes_served
    );
    println!("  wall time            {:>9.3} s", measured.hot.total_secs);
    println!(
        "\nresponses byte-identical across the restart ({} HTTP requests total)",
        measured.http_requests
    );

    // The record → replay determinism gate: stream the same trace
    // through a trace-recording server, then drive a fresh service +
    // registry through the JSONL offline and demand per-request
    // plan-hash equality against the recorded receipts.
    let jsonl = std::env::temp_dir().join(format!("dae-dvfs-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&jsonl);
    let recorded = record_trace(&planners, &trace, workers, clients, &jsonl);
    let (replayed, divergences) = replay_trace(&planners, workers, &jsonl);
    let _ = std::fs::remove_file(&jsonl);
    assert_eq!(
        recorded, replayed,
        "the replay must answer every recorded request"
    );
    assert_eq!(
        divergences, 0,
        "replayed plan hashes must match the recorded receipts"
    );
    println!(
        "\nrecord -> replay: {replayed} requests re-driven offline, \
         100% plan-hash equality, 0 divergences"
    );
    if smoke {
        eprintln!(
            "smoke: serve invariants hold ({} http requests, receipt on every response; \
             hot replay: zero solves, zero enqueues, all hits inline; \
             record->replay: {replayed} requests, 0 divergences)",
            measured.http_requests
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let serve = args.iter().any(|a| a == "--serve" || a == "--http-trace");
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let requests = flag("--requests", if smoke { 150 } else { 1200 });
    let workers = flag("--workers", 4);
    let submitters = 4;
    if let Some(trace_path) = args
        .iter()
        .position(|a| a == "--replay")
        .and_then(|i| args.get(i + 1))
    {
        replay_mode(trace_path, workers);
        return;
    }
    if serve {
        serve_mode(smoke, requests, workers);
        return;
    }

    println!("building planners (one DSE per model x target)...");
    let t0 = Instant::now();
    let planners = build_planners();
    println!(
        "  {} planners in {:.2}s",
        planners.len(),
        t0.elapsed().as_secs_f64()
    );

    let mut service = PlanService::new(
        ServiceConfig::default()
            .with_workers(workers)
            .with_batch_linger(Duration::from_millis(2))
            // Windows are a few milliseconds; a 1 µs quantum folds the
            // trace's sub-µs jitter onto shared entries without moving
            // any deadline by a meaningful amount.
            .with_qos_quantum_secs(1e-6),
    )
    .expect("service config validates");
    let tenants: Vec<Tenant> = planners
        .iter()
        .map(|(name, planner)| {
            let baseline = planner.baseline_latency().expect("baseline runs");
            Tenant {
                name: name.clone(),
                key: service.register(planner.clone()),
                baseline,
            }
        })
        .collect();

    let baselines: Vec<f64> = tenants.iter().map(|t| t.baseline).collect();
    let mut rng = SplitMix64::new(0xDAE_D5F5);
    let trace = generate_trace(&baselines, requests, &mut rng);
    println!(
        "trace: {} requests over {} tenants ({} workers, {} submitters)",
        trace.len(),
        tenants.len(),
        workers,
        submitters
    );

    // Serial reference: every request answered by a bare Planner::plan.
    let t1 = Instant::now();
    let serial: Vec<_> = trace
        .iter()
        .map(|r| {
            planners[r.tenant]
                .1
                .plan(&r.request)
                .expect("serial plan solves")
        })
        .collect();
    let serial_secs = t1.elapsed().as_secs_f64();

    // Served: the same trace through the service, submitters striping it.
    let t2 = Instant::now();
    let answers: Vec<_> = service.run(|svc| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..submitters)
                .map(|offset| {
                    let trace = &trace;
                    let tenants = &tenants;
                    s.spawn(move || {
                        trace
                            .iter()
                            .enumerate()
                            .skip(offset)
                            .step_by(submitters)
                            .map(|(i, r)| {
                                let plan = svc
                                    .plan(tenants[r.tenant].key, &r.request)
                                    .expect("served plan solves");
                                (i, plan)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut answers = vec![None; trace.len()];
            for handle in handles {
                for (i, plan) in handle.join().expect("submitter panicked") {
                    answers[i] = Some(plan);
                }
            }
            answers
                .into_iter()
                .map(|a| a.expect("answered"))
                .collect::<Vec<_>>()
        })
    });
    let served_secs = t2.elapsed().as_secs_f64();

    // ---- invariants -----------------------------------------------------
    let stats = service.stats();
    assert_eq!(
        stats.submitted,
        trace.len() as u64,
        "every request admitted"
    );
    assert_eq!(stats.completed, stats.submitted, "every ticket fulfilled");
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        stats.submitted,
        "cache counters must account for every request: {stats:?}"
    );
    assert_eq!(stats.failed, 0, "trace requests are all feasible");
    for (i, (answer, reference)) in answers.iter().zip(&serial).enumerate() {
        // Feasibility for the *original* request (quantization only ever
        // tightens the window).
        assert!(
            answer.predicted_latency_secs <= reference.qos_secs + 1e-12,
            "request {i} overran its window"
        );
    }
    // Sampled bit-identical pins against each solver's serial reference.
    for i in (0..trace.len()).step_by((trace.len() / 25).max(1)) {
        let r = &trace[i];
        let planner = &planners[r.tenant].1;
        let quantized = {
            let window = answers[i].qos_secs;
            PlanRequest::qos(window)
                .with_solver(r.request.solver())
                .with_dp_resolution(
                    r.request
                        .dp_resolution()
                        .unwrap_or(planner.config().dp_resolution),
                )
        };
        let reference = match r.request.solver() {
            Solver::ReserveGrid => planner
                .sweep([answers[i].qos_secs])
                .expect("singleton sweep solves")
                .remove(0),
            _ => planner.plan(&quantized).expect("reference solves"),
        };
        assert_eq!(
            *answers[i], reference,
            "request {i} diverged from its serial reference"
        );
    }

    // ---- report ---------------------------------------------------------
    println!("\nper-tenant baselines");
    for tenant in &tenants {
        println!("  {:<24} {:>8.3} ms", tenant.name, tenant.baseline * 1e3);
    }
    println!("\nresults");
    println!("  serial plan() loop   {:>9.3} s", serial_secs);
    println!(
        "  served (cache+coalesce) {:>6.3} s  ({:.1}x speedup)",
        served_secs,
        serial_secs / served_secs
    );
    println!(
        "  throughput           {:>9.0} req/s",
        stats.throughput_rps()
    );
    println!("  hit rate             {:>9.1} %", stats.hit_rate() * 100.0);
    println!("  single-flight joins  {:>9}", stats.cache.joined);
    println!("  distinct solves      {:>9}", stats.cache.inserted);
    println!(
        "  batches              {:>9} (mean {:.1}, max {})",
        stats.batches,
        stats.mean_batch(),
        stats.max_batch
    );
    println!("  peak queue depth     {:>9}", stats.max_queue_depth);
    if smoke {
        eprintln!("smoke: invariants hold ({} requests)", trace.len());
    }
}
