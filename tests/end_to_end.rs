//! Cross-crate integration tests: the full methodology from model zoo to
//! deployed iso-latency windows.

use dae_dvfs::{DseConfig, FrequencyMap, Planner};
use tinyengine::{plan_memory, qos_window, run_iso_latency, IdlePolicy, TinyEngine};
use tinynn::models::{mobilenet_v2, paper_models, person_detection, vww};

#[test]
fn all_models_deploy_under_all_slack_levels() {
    let cfg = DseConfig::paper();
    for model in paper_models() {
        let planner = Planner::new(&model, &cfg).expect("planner builds");
        for slack in [0.1, 0.3, 0.5] {
            let report = planner
                .run(slack)
                .unwrap_or_else(|e| panic!("{} @ {slack}: {e}", model.name));
            assert!(
                report.inference_secs <= report.plan.qos_secs + 1e-12,
                "{} @ {slack}: QoS violated",
                model.name
            );
            assert!(report.total_energy.as_f64() > 0.0);
        }
    }
}

#[test]
fn headline_ordering_holds_everywhere() {
    // Our approach never loses to either baseline, and plain TinyEngine is
    // never better than its clock-gated variant.
    let cfg = DseConfig::paper();
    for model in paper_models() {
        let planner = Planner::new(&model, &cfg).expect("planner builds");
        let slacks = [0.1, 0.3, 0.5];
        let comparisons = planner.compare_sweep(&slacks).expect("comparison runs");
        for (slack, cmp) in slacks.into_iter().zip(comparisons) {
            assert!(
                cmp.ours < cmp.tinyengine_gated,
                "{} @ {slack}: ours {} vs gated {}",
                model.name,
                cmp.ours,
                cmp.tinyengine_gated
            );
            assert!(
                cmp.tinyengine_gated < cmp.tinyengine,
                "{} @ {slack}: gating must beat busy idle",
                model.name
            );
        }
    }
}

#[test]
fn gains_grow_from_tight_to_moderate_slack() {
    let cfg = DseConfig::paper();
    for model in paper_models() {
        let planner = Planner::new(&model, &cfg).expect("planner builds");
        let tight = planner.compare_with_baselines(0.1).expect("tight");
        let moderate = planner.compare_with_baselines(0.3).expect("moderate");
        assert!(
            moderate.gain_vs_tinyengine_pct() > tight.gain_vs_tinyengine_pct(),
            "{}: {:.1}% -> {:.1}%",
            model.name,
            tight.gain_vs_tinyengine_pct(),
            moderate.gain_vs_tinyengine_pct()
        );
    }
}

#[test]
fn plans_are_deterministic() {
    let model = vww();
    let cfg = DseConfig::paper();
    let baseline = TinyEngine::new()
        .run(&model)
        .expect("baseline")
        .total_time_secs;
    let qos = qos_window(baseline, 0.3);
    // Two independently built planners: nothing may leak between them.
    let first = Planner::new(&model, &cfg).expect("first planner");
    let second = Planner::new(&model, &cfg).expect("second planner");
    let a = first.optimize(qos).expect("first");
    let b = second.optimize(qos).expect("second");
    assert_eq!(a, b, "optimization must be deterministic");
    let ra = first.deploy(&a).expect("deploy a");
    let rb = second.deploy(&b).expect("deploy b");
    assert_eq!(ra, rb);
}

#[test]
fn tight_qos_selects_no_slower_plan_than_relaxed() {
    let cfg = DseConfig::paper();
    let model = person_detection();
    let baseline = TinyEngine::new()
        .run(&model)
        .expect("baseline")
        .total_time_secs;
    let planner = Planner::new(&model, &cfg).expect("planner builds");
    let tight = planner.optimize(qos_window(baseline, 0.1)).expect("tight");
    let relaxed = planner
        .optimize(qos_window(baseline, 0.5))
        .expect("relaxed");
    assert!(tight.predicted_latency_secs <= relaxed.predicted_latency_secs + 1e-9);
    assert!(relaxed.predicted_energy <= tight.predicted_energy);
}

#[test]
fn frequency_maps_cover_every_layer_with_valid_choices() {
    let cfg = DseConfig::paper();
    let model = mobilenet_v2();
    let baseline = TinyEngine::new()
        .run(&model)
        .expect("baseline")
        .total_time_secs;
    let plan = Planner::new(&model, &cfg)
        .expect("planner builds")
        .optimize(qos_window(baseline, 0.3))
        .expect("plan");
    let map = FrequencyMap::from_plan(&plan, 0.3);
    assert_eq!(map.rows.len(), model.layer_count());
    for row in &map.rows {
        assert!(
            cfg.modes.hfo.iter().any(|p| p.sysclk() == row.hfo),
            "{}: frequency {} not in the HFO ladder",
            row.name,
            row.hfo
        );
        assert!([0u8, 2, 4, 8, 12, 16].contains(&row.granularity));
        if row.kind == tinynn::LayerKind::Rest {
            assert_eq!(row.granularity, 0, "rest layers must not be DAE-scheduled");
        }
    }
}

#[test]
fn memory_plans_fit_and_baselines_run_on_shared_machine_state() {
    for model in paper_models() {
        let plan = plan_memory(&model).expect("plan resolves");
        assert!(plan.fits(), "{}: activations exceed SRAM", model.name);
    }
    // Baselines over the same window are comparable.
    let model = vww();
    let engine = TinyEngine::new();
    let t = engine.run(&model).expect("baseline").total_time_secs;
    let qos = qos_window(t, 0.5);
    let busy = run_iso_latency(&engine, &model, qos, IdlePolicy::Busy216).expect("busy");
    let wfi = run_iso_latency(&engine, &model, qos, IdlePolicy::Wfi216).expect("wfi");
    let gated = run_iso_latency(&engine, &model, qos, IdlePolicy::ClockGated).expect("gated");
    assert!(busy.total_energy > wfi.total_energy);
    assert!(wfi.total_energy > gated.total_energy);
    assert_eq!(busy.inference.total_energy, gated.inference.total_energy);
}

#[test]
fn infeasible_window_is_a_clean_error() {
    let cfg = DseConfig::paper();
    let model = vww();
    let err = Planner::new(&model, &cfg)
        .expect("planner builds")
        .optimize(1e-5)
        .expect_err("cannot run in 10 µs");
    let msg = err.to_string();
    assert!(msg.contains("infeasible"), "unhelpful message: {msg}");
}
