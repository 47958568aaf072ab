//! Plan-service benches: cold per-request solves vs cached hits vs
//! coalesced batch solves through the `PlanService` front end.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use dae_dvfs::{PlanRequest, PlanService, Planner, ServiceConfig};
use std::hint::black_box;
use tinyengine::qos_window;

fn planner() -> Arc<Planner> {
    Arc::new(
        Planner::for_target(repro_bench::target(), &tinynn::models::vww_sized(32))
            .expect("planner builds"),
    )
}

/// Eight distinct windows spanning tight to relaxed QoS.
fn windows(planner: &Planner) -> Vec<f64> {
    let baseline = planner.baseline_latency().expect("baseline runs");
    (0..8)
        .map(|i| qos_window(baseline, 0.08 + 0.11 * i as f64))
        .collect()
}

fn bench_plan_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_service");
    let planner = planner();
    let windows = windows(&planner);

    // Cold baseline: N independent per-request solves on the bare
    // planner — what every request pays without the service.
    group.bench_function("cold_plan_loop8", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &w in &windows {
                acc += planner
                    .plan(&PlanRequest::qos(w))
                    .expect("solves")
                    .predicted_energy
                    .as_f64();
            }
            black_box(acc)
        })
    });

    // Cached hit: the same request answered from the warm plan cache.
    group.bench_function("cache_hit", |b| {
        let mut service =
            PlanService::new(ServiceConfig::default().with_workers(2)).expect("config validates");
        let key = service.register(planner.clone());
        let hot = PlanRequest::qos(windows[0]);
        service.run(|svc| {
            svc.plan(key, &hot).expect("warm solve");
            b.iter(|| black_box(svc.plan(key, &hot).expect("hit")));
        });
    });

    // Coalesced batch: 8 distinct windows submitted at once, answered by
    // shared-grid batch solves. Windows are jittered per iteration so
    // every iteration re-solves instead of hitting the cache.
    group.bench_function("coalesced_batch8", |b| {
        let mut service = PlanService::new(
            ServiceConfig::default()
                .with_workers(2)
                .with_batch_linger(Duration::from_micros(500))
                .with_cache_capacity(8)
                .with_cache_shards(1),
        )
        .expect("config validates");
        let key = service.register(planner.clone());
        service.run(|svc| {
            let mut iteration = 0u64;
            b.iter(|| {
                iteration += 1;
                let jitter = iteration as f64 * 1e-9;
                let tickets: Vec<_> = windows
                    .iter()
                    .map(|&w| {
                        svc.submit(key, &PlanRequest::qos(w + jitter))
                            .expect("admitted")
                    })
                    .collect();
                let mut acc = 0.0;
                for ticket in tickets {
                    acc += ticket.wait().expect("solves").predicted_energy.as_f64();
                }
                black_box(acc)
            });
        });
    });

    group.finish();
}

criterion_group!(benches, bench_plan_service);
criterion_main!(benches);
