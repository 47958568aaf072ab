//! BENCH-SUMMARY — machine-readable end-to-end timing of the planning
//! stack.
//!
//! For each paper model, times three ways of answering a 10-point QoS
//! sweep:
//!
//! 1. **historical per-call**: a fresh DSE per QoS point
//!    (`Planner::new(..)?.optimize()` called 10 times);
//! 2. **cached loop** (the PR 2 path): one [`Planner`], `optimize()` per
//!    point — the DSE is shared but every point re-runs its own DPs;
//! 3. **single-pass sweep**: [`Planner::sweep`] — one shared-grid DP
//!    table answers every point's whole reserve search by extraction.
//!
//! It also times the solver in isolation (per-call `solve_dp` per budget
//! vs one `solve_dp_sweep`) on the same per-layer fronts, the
//! **quantized DP kernels** (one shared-grid fill, the per-window
//! extractions, and an incremental re-solve after a single-class drift
//! vs the full refill it replaces), and the **plan-serving subsystem**
//! on the smallest model: cold `plan()` vs
//! cached hits vs one coalesced batch, plus hit rate and throughput on a
//! hot-key-skewed trace, plus the measured allocations per warm hit
//! (schema v7, via a counting global allocator). The `server` section
//! replays a trace over real loopback HTTP three times — cold against
//! an empty on-disk registry, warm after a simulated restart, then hot
//! inside the warm process — and records the latency percentiles, the
//! warm-vs-cold solve split, and the hot replay's inline-hit rate and
//! percentiles (schema v7). Schema v8 adds the observability numbers: a
//! second hot replay with receipts disabled gives the before/after cost
//! of stamping a receipt on every response (`warm_noreceipt_p50_ms`,
//! `receipt_overhead_frac`), and the service's fixed-bucket latency
//! histograms are summarized per serving path (`path_histograms`).
//! Emits a single JSON object (schema v8) on stdout, self-validates it
//! against the workspace JSON parser, and writes `BENCH_SUMMARY.json`
//! to the current directory so CI and the repo's benchmark trajectory
//! can track the numbers without scraping human-formatted tables.
//!
//! Run with: `cargo run --release -p repro-bench --bin bench_summary`
//! CI smoke: `… --bin bench_summary -- --smoke` (smallest model only,
//! no file written; exits non-zero if the emitted JSON fails validation).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dae_dvfs::artifact::json;
use dae_dvfs::{
    mckp_resweep, mckp_sweep, solve_dp, solve_dp_sweep, MckpItem, PlanRequest, PlanServer,
    PlanService, Planner, ServerConfig, ServiceConfig, SolverWorkspace, Stm32F767Target, Target,
};
use repro_bench::json::{validate_summary, BENCH_SUMMARY_SCHEMA_VERSION};
use repro_bench::{config, httpc, serving};
use tinyengine::qos_window;
use tinynn::models::synth::SplitMix64;

/// Allocation counter behind [`CountingAlloc`]; read around the hit
/// loop to report `allocs_per_hit` (schema v7).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator: the only way to
/// *measure* (rather than assert by inspection) that the warm-hit path
/// is allocation-free. Counting is a single relaxed increment, far below
/// the noise floor of anything else this binary times.
struct CountingAlloc;

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Slack levels of the 10-point sweep (5% … 95% in 10% steps).
fn sweep_slacks() -> Vec<f64> {
    (0..10).map(|i| 0.05 + 0.10 * i as f64).collect()
}

struct ModelRow {
    name: String,
    layers: usize,
    construction_secs: f64,
    sweep_secs: f64,
    percall_loop_secs: f64,
    percall_total_secs: f64,
    solver_percall_secs: f64,
    solver_sweep_secs: f64,
    kernel_fill_secs: f64,
    kernel_extract_secs: f64,
    incremental_speedup: f64,
}

impl ModelRow {
    /// End-to-end speedup over the historical fresh-DSE-per-point path.
    fn speedup(&self) -> f64 {
        self.percall_total_secs / (self.construction_secs + self.sweep_secs)
    }

    /// Additional sweep speedup over the PR 2 cached per-point loop.
    fn sweep_speedup(&self) -> f64 {
        self.percall_loop_secs / self.sweep_secs
    }
}

fn measure(model: &tinynn::Model, smoke: bool) -> ModelRow {
    let cfg = config();

    // Cached paths: one planner shared by the loop and the sweep.
    let t0 = Instant::now();
    let planner = Planner::for_target(repro_bench::target(), model).expect("planner builds");
    let construction_secs = t0.elapsed().as_secs_f64();

    let baseline = planner.baseline_latency().expect("baseline runs");
    let windows: Vec<f64> = sweep_slacks()
        .into_iter()
        .map(|s| qos_window(baseline, s))
        .collect();

    // PR 2 cached path: per-point optimize against the shared caches.
    let t1 = Instant::now();
    let loop_plans: Vec<_> = windows
        .iter()
        .map(|&q| planner.optimize(q).expect("per-point optimize solves"))
        .collect();
    let percall_loop_secs = t1.elapsed().as_secs_f64();

    // Single-pass sweep: one shared-grid DP table for all ten points.
    let t2 = Instant::now();
    let sweep_plans = planner
        .sweep(windows.iter().copied())
        .expect("sweep solves");
    let sweep_secs = t2.elapsed().as_secs_f64();

    // The sweep answers every budget on a grid at least as fine as the
    // per-point loop; replay-validated winners may differ within the
    // solver's discretization bound, but never materially.
    let loop_energy: f64 = loop_plans.iter().map(|p| p.predicted_energy.as_f64()).sum();
    let sweep_energy: f64 = sweep_plans
        .iter()
        .map(|p| p.predicted_energy.as_f64())
        .sum();
    assert!(
        ((sweep_energy - loop_energy) / loop_energy).abs() < 0.01,
        "sweep and per-point energies must agree within the bound: {sweep_energy} vs {loop_energy}"
    );
    for (plan, &qos) in sweep_plans.iter().zip(&windows) {
        assert!(
            plan.predicted_latency_secs <= qos,
            "sweep plan overran its window"
        );
    }

    // Historical path: a fresh DSE per QoS point (skipped in smoke runs —
    // it dominates wall-clock and the smoke gate only checks the schema).
    let percall_total_secs = if smoke {
        construction_secs + sweep_secs
    } else {
        let t3 = Instant::now();
        for &qos in &windows {
            Planner::new(model, &cfg)
                .and_then(|planner| planner.optimize(qos))
                .expect("per-call optimize solves");
        }
        t3.elapsed().as_secs_f64()
    };

    // Solver-only timings on the model's own fronts: per-call DP per
    // budget vs one shared table.
    let idle_power = cfg.power.clock_gated_power.as_f64();
    let classes: Vec<Vec<MckpItem>> = planner
        .fronts()
        .iter()
        .map(|front| {
            front
                .iter()
                .map(|pt| MckpItem {
                    time_secs: pt.latency_secs,
                    energy: pt.energy.as_f64() - idle_power * pt.latency_secs,
                })
                .collect()
        })
        .collect();
    let t4 = Instant::now();
    for &qos in &windows {
        solve_dp(&classes, qos, cfg.dp_resolution).expect("per-call DP solves");
    }
    let solver_percall_secs = t4.elapsed().as_secs_f64();
    let t5 = Instant::now();
    let swept = solve_dp_sweep(&classes, &windows, cfg.dp_resolution).expect("sweep DP solves");
    let solver_sweep_secs = t5.elapsed().as_secs_f64();
    assert!(
        swept.iter().all(|s| s.is_ok()),
        "all sweep budgets feasible"
    );

    // Quantized-kernel timings (schema v5): one shared-grid fill, the
    // per-window extractions, and an incremental re-solve after a
    // single-class drift vs the full refill it replaces.
    let mut ws = SolverWorkspace::new();
    let t6 = Instant::now();
    let table = mckp_sweep(&classes, &windows, cfg.dp_resolution, &mut ws).expect("kernel fill");
    let kernel_fill_secs = t6.elapsed().as_secs_f64();
    let t7 = Instant::now();
    for &qos in &windows {
        table.best_for(qos).expect("kernel extract");
    }
    let kernel_extract_secs = t7.elapsed().as_secs_f64();

    // Drift the middle class's first item back and forth so every
    // iteration presents exactly one changed class: the full path refills
    // the whole table, the incremental path only the suffix behind it.
    let mut drifted = classes.clone();
    let mid = drifted.len() / 2;
    let iters = if smoke { 3 } else { 20 };
    let mut ws_full = SolverWorkspace::new();
    let mut ws_inc = SolverWorkspace::new();
    mckp_sweep(&drifted, &windows, cfg.dp_resolution, &mut ws_full).expect("prime full");
    mckp_resweep(&drifted, &windows, cfg.dp_resolution, &mut ws_inc).expect("prime warm");
    let (mut full_secs, mut inc_secs) = (0.0, 0.0);
    for i in 0..iters {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        drifted[mid][0].energy += sign * 0.37e-6;
        let t = Instant::now();
        mckp_sweep(&drifted, &windows, cfg.dp_resolution, &mut ws_full).expect("full refill");
        full_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let warm =
            mckp_resweep(&drifted, &windows, cfg.dp_resolution, &mut ws_inc).expect("resweep");
        inc_secs += t.elapsed().as_secs_f64();
        assert!(
            warm.refilled_classes() <= drifted.len() - mid,
            "single-class drift must refill only the suffix"
        );
    }
    let incremental_speedup = full_secs / inc_secs;

    ModelRow {
        name: model.name.clone(),
        layers: model.layer_count(),
        construction_secs,
        sweep_secs,
        percall_loop_secs,
        percall_total_secs,
        solver_percall_secs,
        solver_sweep_secs,
        kernel_fill_secs,
        kernel_extract_secs,
        incremental_speedup,
    }
}

/// Plan-service measurements on one model (schema v4's `service`
/// section).
struct ServiceRow {
    model: String,
    qos_points: usize,
    /// Mean cold `Planner::plan` latency per request.
    cold_plan_secs: f64,
    /// Mean warm-cache hit latency per request.
    cache_hit_secs: f64,
    /// Wall time of the distinct-window batch through per-request
    /// `plan()` calls.
    percall_batch_secs: f64,
    /// Wall time of the same batch submitted concurrently to the
    /// service (shared-grid coalescing).
    coalesced_batch_secs: f64,
    trace_requests: usize,
    hit_rate: f64,
    throughput_rps: f64,
    /// Heap allocations per warm-cache hit, measured by the counting
    /// global allocator around the hit loop (schema v7). The inline hot
    /// path is designed to allocate nothing; this keeps it honest.
    allocs_per_hit: f64,
}

impl ServiceRow {
    fn cache_hit_speedup(&self) -> f64 {
        self.cold_plan_secs / self.cache_hit_secs
    }

    fn coalescing_speedup(&self) -> f64 {
        self.percall_batch_secs / self.coalesced_batch_secs
    }
}

fn measure_service(model: &tinynn::Model) -> ServiceRow {
    let planner =
        Arc::new(Planner::for_target(repro_bench::target(), model).expect("planner builds"));
    let baseline = planner.baseline_latency().expect("baseline runs");
    let windows: Vec<f64> = (0..12)
        .map(|i| qos_window(baseline, 0.06 + 0.08 * i as f64))
        .collect();

    // Cold serial reference: one independent plan() per window.
    let t0 = Instant::now();
    for &w in &windows {
        planner
            .plan(&PlanRequest::qos(w))
            .expect("cold plan solves");
    }
    let percall_batch_secs = t0.elapsed().as_secs_f64();
    let cold_plan_secs = percall_batch_secs / windows.len() as f64;

    // The same batch as one concurrent burst through the service, then
    // warm-cache hits against it.
    let service_config = ServiceConfig::default()
        .with_workers(4)
        .with_batch_linger(Duration::from_micros(500));
    let mut service = PlanService::new(service_config.clone()).expect("config validates");
    let key = service.register(planner.clone());
    let (coalesced_batch_secs, cache_hit_secs, allocs_per_hit) = service.run(|svc| {
        let t1 = Instant::now();
        let tickets: Vec<_> = windows
            .iter()
            .map(|&w| svc.submit(key, &PlanRequest::qos(w)).expect("admitted"))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("coalesced batch solves");
        }
        let coalesced = t1.elapsed().as_secs_f64();
        let hot = PlanRequest::qos(windows[0]);
        let hits = 2000;
        let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
        let t2 = Instant::now();
        for _ in 0..hits {
            svc.plan(key, &hot).expect("cache hit");
        }
        let hit_secs = t2.elapsed().as_secs_f64() / hits as f64;
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
        (coalesced, hit_secs, allocs as f64 / hits as f64)
    });

    // Hot-key-skewed trace on a fresh service: 70% of requests replay 3
    // hot windows, the tail spreads over the full window set.
    let mut trace_service = PlanService::new(service_config).expect("config validates");
    let key = trace_service.register(planner.clone());
    let mut rng = SplitMix64::new(0xBE5C);
    let trace_requests = 400;
    let trace: Vec<f64> = (0..trace_requests)
        .map(|_| {
            if rng.next_u64() % 100 < 70 {
                windows[(rng.next_u64() % 3) as usize]
            } else {
                windows[(rng.next_u64() % windows.len() as u64) as usize]
            }
        })
        .collect();
    let t3 = Instant::now();
    trace_service.run(|svc| {
        std::thread::scope(|s| {
            for offset in 0..4 {
                let trace = &trace;
                s.spawn(move || {
                    for &w in trace.iter().skip(offset).step_by(4) {
                        svc.plan(key, &PlanRequest::qos(w)).expect("trace solves");
                    }
                });
            }
        });
    });
    let trace_secs = t3.elapsed().as_secs_f64();
    let stats = trace_service.stats();
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        trace_requests as u64,
        "service cache counters must account for every trace request"
    );

    ServiceRow {
        model: model.name.clone(),
        qos_points: windows.len(),
        cold_plan_secs,
        cache_hit_secs,
        percall_batch_secs,
        coalesced_batch_secs,
        trace_requests,
        hit_rate: stats.hit_rate(),
        throughput_rps: trace_requests as f64 / trace_secs,
        allocs_per_hit,
    }
}

/// HTTP-serving measurements on one model (the `server` section): the
/// deterministic trace replayed over loopback sockets, cold against a
/// wiped registry, warm after a simulated restart, and hot inside the
/// warm process. The shared harness asserts the restart and hot-path
/// contracts (zero warm solves, zero hot enqueues, byte-identical
/// responses); this row records what CI tracks.
struct ServerRow {
    http_requests: u64,
    cold_solves: u64,
    warm_solves: u64,
    warm_registry_hits: u64,
    http_p50_ms: f64,
    http_p99_ms: f64,
    /// Hot-replay median latency (schema v7): every request an inline
    /// in-memory hit — the serving hot path's end-to-end number.
    warm_p50_ms: f64,
    /// Hot-replay 99th percentile (schema v7).
    warm_p99_ms: f64,
    /// Fraction of hot-replay requests answered on the lock-free inline
    /// fast path (schema v7); the harness asserts it is exactly 1.
    inline_hit_rate: f64,
    /// Hot-replay median with receipts disabled (schema v8): the before
    /// number of the receipt-overhead comparison.
    warm_noreceipt_p50_ms: f64,
    /// Fractional hot-path p50 cost of stamping a receipt on every
    /// response (schema v8): `warm_p50_ms / warm_noreceipt_p50_ms - 1`.
    receipt_overhead_frac: f64,
    /// Per-path latency summaries off the service's fixed-bucket
    /// histograms (schema v8): `(label, count, p50_us, p99_us)` for
    /// every populated serving path.
    path_histograms: Vec<(&'static str, u64, f64, f64)>,
}

fn measure_server(model: &tinynn::Model) -> ServerRow {
    let target = repro_bench::target();
    let route = format!("{}@{}", model.name, target.id());
    let planner = Arc::new(Planner::for_target(target, model).expect("planner builds"));
    let baseline = planner.baseline_latency().expect("baseline runs");
    let planners = vec![(route.clone(), planner)];

    // 8 hot request shapes replayed round-robin: enough distinct keys to
    // exercise the registry, enough repeats to exercise the LRU.
    let requests = 96;
    let trace: Vec<(String, String)> = (0..requests)
        .map(|i| {
            let step = ((i / 2) % 4) as f64;
            let mut body = String::new();
            json::compact(&mut body, |o| {
                o.str("planner", &route);
                if i % 2 == 0 {
                    o.f64("slack", 0.1 + 0.2 * step);
                } else {
                    o.f64(
                        "qos_secs",
                        tinyengine::qos_window(baseline, 0.15 + 0.2 * step),
                    );
                }
            });
            ("/v1/plan".to_string(), body)
        })
        .collect();

    let service_config = ServiceConfig::default()
        .with_workers(4)
        .with_batch_linger(Duration::from_millis(1))
        .with_qos_quantum_secs(1e-6);
    let registry_dir = std::env::temp_dir().join(format!("dae-dvfs-bench-{}", std::process::id()));
    let measured = serving::measure_serving(
        &planners,
        &service_config,
        &ServerConfig::default(),
        &trace,
        &registry_dir,
        4,
    );
    let _ = std::fs::remove_dir_all(&registry_dir);

    // The before/after cost of stamping a receipt (fingerprint, path,
    // plan hash, timings) on every response, measured paired so ambient
    // drift cannot masquerade as overhead.
    let (warm_noreceipt_p50_ms, receipt_p50_ms) =
        measure_receipt_overhead(&planners, &service_config, &trace, 4);

    // Per-path latency summaries off the receipted measurement's final
    // stats (the warm pass plus its hot replay, all receipted paths).
    let path_histograms: Vec<(&'static str, u64, f64, f64)> = measured
        .hot
        .stats
        .paths
        .iter()
        .filter(|(_, snapshot)| snapshot.count() > 0)
        .map(|(label, snapshot)| {
            (
                label,
                snapshot.count(),
                snapshot.percentile_upper_nanos(0.5) as f64 / 1e3,
                snapshot.percentile_upper_nanos(0.99) as f64 / 1e3,
            )
        })
        .collect();

    let hot_submitted = measured.hot.stats.submitted - measured.warm.stats.submitted;
    let hot_inline = measured.hot.stats.inline_hits - measured.warm.stats.inline_hits;
    ServerRow {
        http_requests: measured.http_requests,
        cold_solves: measured.cold.stats.cache.inserted,
        warm_solves: measured.warm.stats.batches,
        warm_registry_hits: measured.warm.stats.registry_hits,
        http_p50_ms: measured.warm.p50_ms,
        http_p99_ms: measured.warm.p99_ms,
        warm_p50_ms: measured.hot.p50_ms,
        warm_p99_ms: measured.hot.p99_ms,
        inline_hit_rate: hot_inline as f64 / hot_submitted as f64,
        warm_noreceipt_p50_ms,
        receipt_overhead_frac: receipt_p50_ms / warm_noreceipt_p50_ms - 1.0,
        path_histograms,
    }
}

/// Paired receipt-overhead measurement: one warm service, two loopback
/// servers over it — receipts off and receipts on — replaying the same
/// hot trace in alternating rounds so ambient drift hits both sides
/// equally. Every request is an inline LRU hit, so the medians compare
/// exactly the receipt work: the timing reads, the histogram record,
/// the ring/trace bookkeeping and the extra response header. The replay
/// runs a *single* keep-alive client — sequential requests have no
/// queueing jitter — and each side reports the *median of its per-round
/// medians*, so a stray slow round cannot masquerade as (or hide)
/// receipt overhead. Returns the two hot p50s `(off_ms, on_ms)`.
fn measure_receipt_overhead(
    planners: &[(String, Arc<Planner>)],
    service_config: &ServiceConfig,
    trace: &[(String, String)],
    clients: usize,
) -> (f64, f64) {
    let mut service = PlanService::new(service_config.clone()).expect("config validates");
    let keys: Vec<_> = planners
        .iter()
        .map(|(_, planner)| service.register(planner.clone()))
        .collect();
    service.run(|svc| {
        let mut off = PlanServer::new(
            svc,
            ServerConfig::default()
                .with_workers(clients)
                .with_receipts(false),
        )
        .expect("server config validates");
        let mut on = PlanServer::new(svc, ServerConfig::default().with_workers(clients))
            .expect("server config validates");
        for ((name, _), key) in planners.iter().zip(&keys) {
            off = off.route(name, *key).expect("route registers");
            on = on.route(name, *key).expect("route registers");
        }
        off.serve(|handle_off| {
            on.serve(|handle_on| -> std::io::Result<(f64, f64)> {
                // Warm the LRU (and both servers' connection paths).
                httpc::replay_posts(handle_on.addr(), trace, 1)?;
                httpc::replay_posts(handle_off.addr(), trace, 1)?;
                let (mut p50s_off, mut p50s_on) = (Vec::new(), Vec::new());
                for _ in 0..16 {
                    let round = httpc::replay_posts(handle_off.addr(), trace, 1)?;
                    p50s_off.push(round.percentile_ms(0.5));
                    let round = httpc::replay_posts(handle_on.addr(), trace, 1)?;
                    p50s_on.push(round.percentile_ms(0.5));
                }
                let median = |mut p50s: Vec<f64>| {
                    p50s.sort_by(f64::total_cmp);
                    p50s[p50s.len() / 2]
                };
                Ok((median(p50s_off), median(p50s_on)))
            })
            .expect("inner server binds an ephemeral loopback port")
        })
        .expect("outer server binds an ephemeral loopback port")
        .expect("every overhead-replay request answered")
    })
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut models = repro_bench::models();
    if smoke {
        // Smallest model only: the smoke gate checks schema and wiring,
        // not the headline numbers.
        models.sort_by_key(tinynn::Model::layer_count);
        models.truncate(1);
    }

    let rows: Vec<ModelRow> = models.iter().map(|m| measure(m, smoke)).collect();

    // Plan-service measurements on the smallest model (cheap enough for
    // the smoke gate, representative for the headline ratios).
    let smallest = models
        .iter()
        .min_by_key(|m| m.layer_count())
        .expect("at least one model");
    let service_row = measure_service(smallest);
    let server_row = measure_server(smallest);

    let mut document = String::new();
    json::lines(&mut document, |o| {
        o.str("benchmark", "planner_sweep10")
            .u64("schema_version", BENCH_SUMMARY_SCHEMA_VERSION)
            .str("target", Stm32F767Target::paper().id())
            .u64("qos_points", 10)
            .array("models", &rows, |out, r| {
                json::compact(out, |o| {
                    o.str("model", &r.name)
                        .u64("layers", r.layers as u64)
                        .fixed("planner_construction_secs", r.construction_secs, 6)
                        .fixed("planner_sweep_secs", r.sweep_secs, 6)
                        .fixed("percall_loop_secs", r.percall_loop_secs, 6)
                        .fixed("percall_total_secs", r.percall_total_secs, 6)
                        .fixed("solver_percall_secs", r.solver_percall_secs, 6)
                        .fixed("solver_sweep_secs", r.solver_sweep_secs, 6)
                        .fixed("kernel_fill_secs", r.kernel_fill_secs, 6)
                        .fixed("kernel_extract_secs", r.kernel_extract_secs, 6)
                        .fixed("incremental_speedup", r.incremental_speedup, 2)
                        .fixed("speedup", r.speedup(), 2)
                        .fixed("sweep_speedup", r.sweep_speedup(), 2);
                })
            })
            .object("service", |o| {
                let s = &service_row;
                o.str("model", &s.model)
                    .u64("qos_points", s.qos_points as u64)
                    .fixed("cold_plan_secs", s.cold_plan_secs, 6)
                    .fixed("cache_hit_secs", s.cache_hit_secs, 9)
                    .fixed("cache_hit_speedup", s.cache_hit_speedup(), 1)
                    .fixed("percall_batch_secs", s.percall_batch_secs, 6)
                    .fixed("coalesced_batch_secs", s.coalesced_batch_secs, 6)
                    .fixed("coalescing_speedup", s.coalescing_speedup(), 2)
                    .u64("trace_requests", s.trace_requests as u64)
                    .fixed("hit_rate", s.hit_rate, 4)
                    .fixed("throughput_rps", s.throughput_rps, 1)
                    .fixed("allocs_per_hit", s.allocs_per_hit, 3);
            })
            .object("server", |o| {
                let s = &server_row;
                o.u64("http_requests", s.http_requests)
                    .u64("cold_solves", s.cold_solves)
                    .u64("warm_solves", s.warm_solves)
                    .u64("warm_registry_hits", s.warm_registry_hits)
                    .fixed("http_p50_ms", s.http_p50_ms, 3)
                    .fixed("http_p99_ms", s.http_p99_ms, 3)
                    .fixed("warm_p50_ms", s.warm_p50_ms, 3)
                    .fixed("warm_p99_ms", s.warm_p99_ms, 3)
                    .fixed("inline_hit_rate", s.inline_hit_rate, 4)
                    .fixed("warm_noreceipt_p50_ms", s.warm_noreceipt_p50_ms, 3)
                    .fixed("receipt_overhead_frac", s.receipt_overhead_frac, 4)
                    .array("path_histograms", &s.path_histograms, |out, row| {
                        let (path, count, p50_us, p99_us) = *row;
                        json::compact(out, |o| {
                            o.str("path", path)
                                .u64("count", count)
                                .fixed("p50_us", p50_us, 3)
                                .fixed("p99_us", p99_us, 3);
                        })
                    });
            })
            .fixed(
                "speedup_geomean",
                geomean(rows.iter().map(ModelRow::speedup)),
                2,
            )
            .fixed(
                "sweep_speedup_geomean",
                geomean(rows.iter().map(ModelRow::sweep_speedup)),
                2,
            );
    });

    println!("{document}");
    document.push('\n');

    if let Err(reason) = validate_summary(&document) {
        eprintln!("error: emitted summary failed validation: {reason}");
        std::process::exit(1);
    }

    if smoke {
        eprintln!(
            "smoke: summary validated (schema v{BENCH_SUMMARY_SCHEMA_VERSION}); no file written"
        );
        return;
    }
    if let Err(e) = std::fs::write("BENCH_SUMMARY.json", &document) {
        eprintln!("warning: could not write BENCH_SUMMARY.json: {e}");
    }
}
