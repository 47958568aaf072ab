//! FIG5 bench: the end-to-end pipeline and both baselines on VWW.
//!
//! The `planner_*` functions separate the one-time construction cost (DSE
//! sweep) from the per-QoS-point marginal cost — the ratio
//! `optimize_vww_30pct_percall / planner_optimize_cached` is the
//! amortization the `Planner` buys.

use criterion::{criterion_group, criterion_main, Criterion};
use dae_dvfs::{DseConfig, Planner};
use std::hint::black_box;
use tinyengine::{qos_window, IdlePolicy, TinyEngine};
use tinynn::models::vww;

fn bench_fig5(c: &mut Criterion) {
    let model = vww();
    let engine = TinyEngine::new();
    let lowered = engine.compile(&model).expect("baseline compiles");
    let baseline = lowered.run().total_time_secs;
    let qos = qos_window(baseline, 0.30);
    let cfg = DseConfig::paper();

    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);

    group.bench_function("tinyengine_inference", |b| {
        b.iter(|| black_box(engine.run(&model).expect("runs").total_energy))
    });

    group.bench_function("tinyengine_inference_compiled", |b| {
        b.iter(|| black_box(lowered.run().total_energy))
    });

    group.bench_function("tinyengine_iso_latency_gated", |b| {
        b.iter(|| {
            black_box(
                lowered
                    .run_iso_latency(qos, IdlePolicy::ClockGated)
                    .total_energy,
            )
        })
    });

    group.bench_function("optimize_vww_30pct_percall", |b| {
        b.iter(|| {
            black_box(
                Planner::new(&model, &cfg)
                    .and_then(|planner| planner.optimize(qos))
                    .expect("optimizes")
                    .decisions
                    .len(),
            )
        })
    });

    group.bench_function("planner_construction", |b| {
        b.iter(|| {
            black_box(
                Planner::for_target(repro_bench::target(), &model)
                    .expect("builds")
                    .fronts()
                    .len(),
            )
        })
    });

    let planner = Planner::for_target(repro_bench::target(), &model).expect("builds");
    group.bench_function("planner_optimize_cached", |b| {
        b.iter(|| black_box(planner.optimize(qos).expect("optimizes").decisions.len()))
    });

    let windows: Vec<f64> = (0..10)
        .map(|i| qos_window(baseline, 0.05 + 0.10 * i as f64))
        .collect();
    group.bench_function("planner_sweep10_cached", |b| {
        b.iter(|| {
            black_box(
                planner
                    .sweep(windows.iter().copied())
                    .expect("sweeps")
                    .len(),
            )
        })
    });

    let plan = planner.optimize(qos).expect("optimizes");
    group.bench_function("planner_deploy_cached", |b| {
        b.iter(|| black_box(planner.deploy(&plan).expect("deploys").total_energy))
    });

    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
