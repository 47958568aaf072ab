//! Equivalence of the `Planner` against the pre-refactor straight-line
//! pipeline.
//!
//! The compiled-schedule refactor must not move a single bit: this test
//! carries an independent re-implementation of the historical path — fresh
//! DAE lowering for every DSE point and every replay, no schedule cache,
//! no shared power model — and asserts that `Planner::optimize` /
//! `Planner::optimize_sequence` produce identical plans for VWW, person
//! detection and MobileNet-V2 at the paper's three slack levels.

use std::sync::Arc;

use dae_dvfs::schedule::replay_decisions;
use dae_dvfs::{
    dae_segments, lower_model, pareto_front, solve_dp, solve_sequence, CompiledLayer,
    DeploymentPlan, DeploymentReport, DseConfig, DsePoint, Granularity, LayerDecision, MckpItem,
    PlanRequest, Planner, Solver, Stm32F767Target,
};
use mcu_sim::{Machine, SegmentClass};
use stm32_power::Joules;
use stm32_rcc::{PllConfig, SysclkConfig};
use tinyengine::{qos_window, KernelProfile, TinyEngine};
use tinynn::{LayerKind, Model};

// ---- independent re-implementation of the pre-refactor pipeline --------

fn legacy_lower(model: &Model) -> Vec<KernelProfile> {
    let plan = model.plan().expect("plan resolves");
    model
        .layers()
        .zip(plan.iter())
        .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
        .collect()
}

fn legacy_evaluate_point(
    profile: &KernelProfile,
    g: Granularity,
    hfo: &PllConfig,
    config: &DseConfig,
) -> DsePoint {
    let hfo_cfg = SysclkConfig::Pll(*hfo);
    let mut machine = Machine::new(hfo_cfg)
        .with_switch_model(config.switch_model)
        .with_power(config.power.clone());
    let mut first_stage_secs = 0.0;
    let mut first_seen = false;
    for seg in dae_segments(profile, g, &config.cache) {
        match seg.class {
            SegmentClass::Memory => {
                machine.switch_clock(config.modes.lfo);
                machine.prepare_pll(*hfo);
            }
            SegmentClass::Compute | SegmentClass::Other => {
                machine.switch_clock(hfo_cfg);
            }
        }
        let dt = machine.run_segment(&seg);
        if !first_seen && seg.class == SegmentClass::Memory {
            first_stage_secs = dt;
        }
        first_seen = true;
    }
    DsePoint {
        granularity: g,
        hfo: *hfo,
        latency_secs: machine.elapsed_secs(),
        energy: machine.energy(),
        switches: machine.switch_count(),
        first_stage_secs,
    }
}

fn legacy_explore_layer(profile: &KernelProfile, config: &DseConfig) -> Vec<DsePoint> {
    let dae_capable = matches!(profile.kind, LayerKind::Depthwise | LayerKind::Pointwise);
    let mut points = Vec::new();
    for &hfo in &config.modes.hfo {
        if dae_capable {
            for &g in &config.granularities {
                points.push(legacy_evaluate_point(profile, g, &hfo, config));
            }
        } else {
            points.push(legacy_evaluate_point(profile, Granularity(0), &hfo, config));
        }
    }
    points
}

fn legacy_execute_decisions(
    profiles: &[KernelProfile],
    decisions: &[LayerDecision],
    config: &DseConfig,
) -> (f64, Joules) {
    let first_hfo = SysclkConfig::Pll(decisions[0].point.hfo);
    let mut machine = Machine::new(first_hfo)
        .with_switch_model(config.switch_model)
        .with_power(config.power.clone());
    for (profile, decision) in profiles.iter().zip(decisions) {
        let hfo_cfg = SysclkConfig::Pll(decision.point.hfo);
        for seg in dae_segments(profile, decision.point.granularity, &config.cache) {
            match seg.class {
                SegmentClass::Memory => {
                    machine.switch_clock(config.modes.lfo);
                    machine.prepare_pll(decision.point.hfo);
                }
                SegmentClass::Compute | SegmentClass::Other => {
                    machine.switch_clock(hfo_cfg);
                }
            }
            machine.run_segment(&seg);
        }
    }
    (machine.elapsed_secs(), machine.energy())
}

const LEGACY_DP_RESOLUTION: usize = 2000;

/// The seed repository's `optimize`, verbatim modulo the fresh-lowering
/// helpers above.
fn legacy_optimize(model: &Model, qos_secs: f64, config: &DseConfig) -> DeploymentPlan {
    let profiles = legacy_lower(model);
    let idle_power = config.power.clock_gated_power.as_f64();

    let fronts: Vec<Vec<DsePoint>> = profiles
        .iter()
        .map(|p| pareto_front(legacy_explore_layer(p, config)))
        .collect();

    let classes: Vec<Vec<MckpItem>> = fronts
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

    let build_decisions = |choices: &[usize]| -> Vec<LayerDecision> {
        profiles
            .iter()
            .zip(&fronts)
            .zip(choices)
            .map(|((profile, front), &choice)| LayerDecision {
                name: profile.name.clone(),
                kind: profile.kind,
                point: front[choice].clone(),
            })
            .collect()
    };

    let min_time: f64 = classes
        .iter()
        .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
        .sum();
    let rounding_margin = 1.0 + (classes.len() + 1) as f64 / LEGACY_DP_RESOLUTION as f64;
    let reserve_cap = (qos_secs - min_time * rounding_margin).max(0.0);

    let window_energy =
        |latency: f64, energy: Joules| energy.as_f64() + idle_power * (qos_secs - latency);

    let mut best: Option<(f64, Vec<LayerDecision>, f64, Joules)> = None;
    let mut consider = |decisions: Vec<LayerDecision>, latency: f64, energy: Joules| {
        if latency <= qos_secs {
            let score = window_energy(latency, energy);
            if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                best = Some((score, decisions, latency, energy));
            }
        }
    };

    let base = solve_dp(&classes, qos_secs, LEGACY_DP_RESOLUTION).expect("dp solves");
    let base_decisions = build_decisions(&base.choices);
    let (base_latency, base_energy) = legacy_execute_decisions(&profiles, &base_decisions, config);
    let overhead = (base_latency - base.total_time_secs).max(0.0);
    consider(base_decisions, base_latency, base_energy);

    let mut reserves: Vec<f64> = [0.5, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|k| (k * overhead).min(reserve_cap))
        .filter(|r| *r > 0.0)
        .collect();
    for frac in [0.1, 0.2, 0.3, 0.5, 0.7] {
        reserves.push(frac * reserve_cap);
    }
    reserves.push(reserve_cap);
    reserves.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    reserves.dedup();
    for reserve in reserves {
        let budget = qos_secs - reserve;
        if budget <= 0.0 {
            continue;
        }
        if let Ok(solution) = solve_dp(&classes, budget, LEGACY_DP_RESOLUTION) {
            let decisions = build_decisions(&solution.choices);
            let (latency, energy) = legacy_execute_decisions(&profiles, &decisions, config);
            consider(decisions, latency, energy);
        }
    }

    let fastest: Vec<usize> = fronts
        .iter()
        .map(|front| {
            front
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.latency_secs
                        .partial_cmp(&b.1.latency_secs)
                        .expect("latencies are finite")
                })
                .map(|(i, _)| i)
                .expect("fronts are non-empty")
        })
        .collect();
    let decisions = build_decisions(&fastest);
    let (latency, energy) = legacy_execute_decisions(&profiles, &decisions, config);
    consider(decisions, latency, energy);

    let (_, decisions, latency, energy) = best.expect("paper QoS windows are feasible");
    DeploymentPlan {
        model: model.name.clone(),
        qos_secs,
        decisions,
        predicted_latency_secs: latency,
        predicted_energy: energy,
    }
}

fn legacy_optimize_sequence(model: &Model, qos_secs: f64, config: &DseConfig) -> DeploymentPlan {
    let profiles = legacy_lower(model);
    let idle_power = config.power.clock_gated_power.as_f64();
    let fronts: Vec<Vec<DsePoint>> = profiles
        .iter()
        .map(|p| pareto_front(legacy_explore_layer(p, config)))
        .collect();
    let solution = solve_sequence(&fronts, qos_secs, LEGACY_DP_RESOLUTION, config, idle_power)
        .expect("sequence DP solves");
    let decisions: Vec<LayerDecision> = profiles
        .iter()
        .zip(&fronts)
        .zip(&solution.choices)
        .map(|((profile, front), &choice)| LayerDecision {
            name: profile.name.clone(),
            kind: profile.kind,
            point: front[choice].clone(),
        })
        .collect();
    let (latency, energy) = legacy_execute_decisions(&profiles, &decisions, config);
    assert!(latency <= qos_secs, "legacy sequence plan must be feasible");
    DeploymentPlan {
        model: model.name.clone(),
        qos_secs,
        decisions,
        predicted_latency_secs: latency,
        predicted_energy: energy,
    }
}

/// Deploys `plan` on freshly compiled schedules, sharing no cache with
/// any planner: lower, compile, replay, then idle clock-gated to the
/// deadline.
fn fresh_deploy(model: &Model, plan: &DeploymentPlan, config: &DseConfig) -> DeploymentReport {
    let layers: Vec<CompiledLayer> = lower_model(model)
        .expect("model lowers")
        .into_iter()
        .map(|p| CompiledLayer::compile(p, config))
        .collect();
    let power = Arc::new(config.power.clone());
    let (inference_secs, inference_energy) =
        replay_decisions(&layers, &plan.decisions, config, &power);
    let idle_energy = config.power.clock_gated_power * (plan.qos_secs - inference_secs).max(0.0);
    DeploymentReport {
        plan: plan.clone(),
        inference_secs,
        inference_energy,
        idle_energy,
        total_energy: inference_energy + idle_energy,
    }
}

// ---- the equivalence assertions ----------------------------------------

fn assert_plans_identical(new: &DeploymentPlan, old: &DeploymentPlan, context: &str) {
    assert_eq!(new.decisions, old.decisions, "{context}: decisions differ");
    assert!(
        (new.predicted_latency_secs - old.predicted_latency_secs).abs() <= 1e-12,
        "{context}: latency {} vs {}",
        new.predicted_latency_secs,
        old.predicted_latency_secs
    );
    assert!(
        (new.predicted_energy.as_f64() - old.predicted_energy.as_f64()).abs() <= 1e-12,
        "{context}: energy {} vs {}",
        new.predicted_energy,
        old.predicted_energy
    );
    assert_eq!(new.model, old.model);
    assert_eq!(new.qos_secs, old.qos_secs);
}

#[test]
fn planner_optimize_matches_pre_refactor_path_on_all_models() {
    let config = DseConfig::paper();
    let engine = TinyEngine::new();
    for model in tinynn::models::paper_models() {
        let baseline = engine.run(&model).expect("baseline runs").total_time_secs;
        // One planner amortizes the DSE across all three slacks; the
        // legacy path recomputes everything per call. The planner is built
        // through the new Target path, which `Planner::new` wraps — so
        // this single test pins legacy ≡ Planner::new ≡ for_target.
        let planner =
            Planner::for_target(Stm32F767Target::paper(), &model).expect("planner builds");
        for slack in [0.1, 0.3, 0.5] {
            let qos = qos_window(baseline, slack);
            let cached = planner.optimize(qos).expect("planner optimizes");
            let fresh = legacy_optimize(&model, qos, &config);
            assert_plans_identical(&cached, &fresh, &format!("{} @ {slack}", model.name));
        }
    }
}

#[test]
fn target_path_and_request_surface_match_legacy_free_functions() {
    // The full matrix: VWW / person detection / MobileNet-V2 at slacks
    // 0.1 / 0.3 / 0.5 — a throw-away planner per point (the historical
    // single-shot path) vs a shared `Planner::new` vs
    // `Planner::for_target(Stm32F767Target::paper())` vs the typed
    // `PlanRequest` surface, all bit-identical; deployments agree with a
    // replay on freshly compiled schedules.
    let config = DseConfig::paper();
    for model in tinynn::models::paper_models() {
        let via_new = Planner::new(&model, &config).expect("Planner::new builds");
        let via_target =
            Planner::for_target(Stm32F767Target::paper(), &model).expect("for_target builds");
        let baseline = via_target.baseline_latency().expect("baseline runs");
        for slack in [0.1, 0.3, 0.5] {
            let qos = qos_window(baseline, slack);
            let context = format!("{} @ {slack}", model.name);

            let throwaway = Planner::new(&model, &config).expect("throw-away planner builds");
            let single_shot = throwaway
                .optimize(qos)
                .expect("throw-away planner optimizes");
            let new_plan = via_new.optimize(qos).expect("new optimizes");
            let target_plan = via_target.optimize(qos).expect("target optimizes");
            let via_qos_request = via_target
                .plan(&PlanRequest::qos(qos))
                .expect("qos request solves");
            let via_slack_request = via_target
                .plan(&PlanRequest::slack(slack))
                .expect("slack request solves");
            assert_plans_identical(&new_plan, &single_shot, &context);
            assert_plans_identical(&target_plan, &single_shot, &context);
            assert_plans_identical(&via_qos_request, &single_shot, &context);
            assert_plans_identical(&via_slack_request, &single_shot, &context);
            assert_eq!(
                single_shot, new_plan,
                "{context}: throw-away vs shared planner"
            );

            // The deployment report agrees between the planners and a
            // fresh-compile replay.
            let fresh_report = fresh_deploy(&model, &single_shot, &config);
            let target_report = via_target.deploy(&target_plan).expect("target deploys");
            assert_eq!(fresh_report.inference_secs, target_report.inference_secs);
            assert_eq!(
                fresh_report.total_energy.as_f64(),
                target_report.total_energy.as_f64()
            );
            assert_eq!(
                via_new.deploy(&new_plan).expect("shared planner deploys"),
                fresh_report,
                "{context}: shared planner vs fresh-compile deployment"
            );

            // Sequence solver through the request surface.
            let seq_single_shot = throwaway.optimize_sequence(qos).expect("throw-away seq");
            let seq_request = via_target
                .plan(&PlanRequest::qos(qos).with_solver(Solver::SequenceDp))
                .expect("seq request solves");
            assert_plans_identical(&seq_request, &seq_single_shot, &format!("seq {context}"));
        }
    }
}

#[test]
fn planner_sequence_matches_pre_refactor_path() {
    let config = DseConfig::paper();
    let model = tinynn::models::vww();
    let baseline = TinyEngine::new()
        .run(&model)
        .expect("baseline runs")
        .total_time_secs;
    let planner = Planner::new(&model, &config).expect("planner builds");
    for slack in [0.1, 0.3, 0.5] {
        let qos = qos_window(baseline, slack);
        let cached = planner
            .optimize_sequence(qos)
            .expect("planner seq-optimizes");
        let fresh = legacy_optimize_sequence(&model, qos, &config);
        assert_plans_identical(&cached, &fresh, &format!("seq vww @ {slack}"));
    }
}
