//! Multi-threaded stress tests of the concurrent plan-serving subsystem:
//! ≥8 threads hammer one `PlanService` with overlapping requests, and
//! every returned plan must be bit-identical to the corresponding serial
//! reference — `Planner::plan` for sequence-DP requests, the same request
//! answered alone for reserve-grid ones (batch-invariance, pinned to a
//! singleton `Planner::sweep`) — with the cache counters consistent
//! (`hits + misses == requests`).

use std::sync::Arc;

use dae_dvfs::{DseConfig, PlanRequest, PlanService, Planner, ServiceConfig, ServiceError, Solver};
use tinyengine::qos_window;
use tinynn::models::vww_sized;

const THREADS: usize = 8;
const ROUNDS: usize = 12;

fn planner() -> Arc<Planner> {
    Arc::new(Planner::new(&vww_sized(32), &DseConfig::paper()).expect("planner builds"))
}

/// The overlapping request mix: slack and absolute-window budgets over
/// both solvers, several of them aliases of each other after slack
/// resolution.
fn request_pool(baseline: f64) -> Vec<PlanRequest> {
    vec![
        PlanRequest::slack(0.1),
        PlanRequest::slack(0.3),
        PlanRequest::slack(0.5),
        // An alias of slack(0.3) once resolved: same cache entry.
        PlanRequest::qos(qos_window(baseline, 0.3)),
        PlanRequest::qos(qos_window(baseline, 0.75)),
        PlanRequest::slack(0.3).with_solver(Solver::SequenceDp),
        PlanRequest::qos(qos_window(baseline, 0.5)).with_solver(Solver::SequenceDp),
        PlanRequest::slack(0.2).with_dp_resolution(800),
    ]
}

/// Answers each request alone, on a fresh one-worker service: the
/// reserve-grid reference a coalesced answer must equal bit for bit.
fn answer_alone(planner: &Arc<Planner>, request: &PlanRequest) -> dae_dvfs::DeploymentPlan {
    let mut service =
        PlanService::new(ServiceConfig::default().with_workers(1)).expect("config validates");
    let key = service.register(planner.clone());
    let plan = service
        .run(|svc| svc.plan(key, request))
        .expect("lone request solves");
    (*plan).clone()
}

#[test]
fn service_is_bit_identical_to_per_solver_references_under_contention() {
    let planner = planner();
    let baseline = planner.baseline_latency().expect("baseline runs");
    let pool = request_pool(baseline);
    // Serial references, computed before the shared service exists.
    let references: Vec<_> = pool
        .iter()
        .map(|request| match request.solver() {
            Solver::ReserveGrid => answer_alone(&planner, request),
            _ => planner.plan(request).expect("serial plan solves"),
        })
        .collect();
    // A batch of one is a singleton sweep.
    assert_eq!(
        references[1],
        planner
            .sweep([qos_window(baseline, 0.3)])
            .expect("singleton sweep solves")
            .remove(0)
    );

    let mut service =
        PlanService::new(ServiceConfig::default().with_workers(4)).expect("config validates");
    let key = service.register(planner.clone());

    service.run(|svc| {
        std::thread::scope(|s| {
            for offset in 0..THREADS {
                let pool = &pool;
                let references = &references;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let index = (offset + round) % pool.len();
                        let plan = svc
                            .plan(key, &pool[index])
                            .expect("service answers the request");
                        assert_eq!(
                            *plan, references[index],
                            "service plan diverged from its serial reference \
                             for request {index}"
                        );
                    }
                });
            }
        });
    });

    let stats = service.stats();
    let requests = (THREADS * ROUNDS) as u64;
    assert_eq!(stats.submitted, requests);
    assert_eq!(stats.completed, requests);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.failed, 0);
    // Cache-counter consistency: every admitted request is exactly one
    // hit or one miss.
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        requests,
        "cache stats inconsistent: {stats:?}"
    );
    assert!(stats.cache.joined <= stats.cache.misses);
    // 8 distinct requests alias to 7 distinct cache keys (the slack(0.3)
    // window alias), so at most 7 solves ever ran.
    assert_eq!(stats.cache.inserted, 7);
    assert!(stats.hit_rate() > 0.5, "hot keys should mostly hit");
    assert_eq!(stats.queue_depth, 0, "drain left requests queued");
}

#[test]
fn swept_mode_is_bit_identical_to_singleton_sweeps_under_contention() {
    let planner = planner();
    let baseline = planner.baseline_latency().expect("baseline runs");
    let windows: Vec<f64> = (0..10)
        .map(|i| qos_window(baseline, 0.08 + 0.09 * i as f64))
        .collect();
    // Batch-invariance references: each window swept alone.
    let references: Vec<_> = windows
        .iter()
        .map(|&w| {
            planner
                .sweep([w])
                .expect("singleton sweep solves")
                .remove(0)
        })
        .collect();

    let mut service = PlanService::new(
        ServiceConfig::default()
            .with_workers(4)
            // Tiny cache: constant eviction pressure forces re-solves in
            // ever-different batch compositions.
            .with_cache_capacity(2)
            .with_cache_shards(1),
    )
    .expect("config validates");
    let key = service.register(planner.clone());

    service.run(|svc| {
        std::thread::scope(|s| {
            for offset in 0..THREADS {
                let windows = &windows;
                let references = &references;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let index = (offset * 3 + round) % windows.len();
                        let plan = svc
                            .plan(key, &PlanRequest::qos(windows[index]))
                            .expect("service answers the request");
                        assert_eq!(
                            *plan, references[index],
                            "coalesced answer depends on batch composition \
                             for window {index}"
                        );
                    }
                });
            }
        });
    });

    let stats = service.stats();
    let requests = (THREADS * ROUNDS) as u64;
    assert_eq!(stats.completed, requests);
    assert_eq!(stats.cache.hits + stats.cache.misses, requests);
    assert_eq!(stats.failed, 0);
    // The tiny cache must have evicted (we re-solved under varying batch
    // compositions) — that is the point of this configuration.
    assert!(
        stats.cache.evicted > 0,
        "eviction pressure missing: {stats:?}"
    );
    assert_eq!(
        stats.batched_requests,
        stats.cache.misses - stats.cache.joined
    );
}

#[test]
fn swept_plans_agree_with_exact_plans_within_the_documented_bound() {
    let planner = planner();
    let baseline = planner.baseline_latency().expect("baseline runs");
    let gated = planner.config().power.clock_gated_power.as_f64();
    let windows: Vec<f64> = (0..6)
        .map(|i| qos_window(baseline, 0.1 + 0.15 * i as f64))
        .collect();

    let mut service =
        PlanService::new(ServiceConfig::default().with_workers(2)).expect("config validates");
    let key = service.register(planner.clone());
    let plans = service.run(|svc| {
        windows
            .iter()
            .map(|&w| svc.plan(key, &PlanRequest::qos(w)).expect("solves"))
            .collect::<Vec<_>>()
    });
    for (plan, &qos) in plans.iter().zip(&windows) {
        assert!(plan.predicted_latency_secs <= qos + 1e-12);
        let exact = planner.plan(&PlanRequest::qos(qos)).expect("serial solves");
        let window_energy = |latency: f64, energy: f64| energy + gated * (qos - latency);
        let swept = window_energy(plan.predicted_latency_secs, plan.predicted_energy.as_f64());
        let serial = window_energy(
            exact.predicted_latency_secs,
            exact.predicted_energy.as_f64(),
        );
        assert!(
            swept <= serial * 1.005,
            "swept answer materially worse than Planner::plan at {qos}: {swept} vs {serial}"
        );
    }
}

#[test]
fn service_surfaces_per_request_errors_without_poisoning_the_batch() {
    let planner = planner();
    let baseline = planner.baseline_latency().expect("baseline runs");
    let good = qos_window(baseline, 0.3);

    let mut service =
        PlanService::new(ServiceConfig::default().with_workers(2)).expect("config validates");
    let key = service.register(planner);
    service.run(|svc| {
        let infeasible = svc.submit(key, &PlanRequest::qos(1e-9)).expect("admitted");
        let feasible = svc.submit(key, &PlanRequest::qos(good)).expect("admitted");
        assert!(matches!(
            infeasible.wait().unwrap_err(),
            ServiceError::Plan(_)
        ));
        let plan = feasible.wait().expect("feasible request still answered");
        assert!(plan.predicted_latency_secs <= good);
    });
    let stats = service.stats();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.cache.hits + stats.cache.misses, 2);
}
