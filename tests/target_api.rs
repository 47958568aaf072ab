//! The target abstraction and plan-artifact surfaces: cross-target
//! parity, artifact round-trips and validated imports, and API-boundary
//! input validation.

use dae_dvfs::{
    DaeDvfsError, DeploymentPlan, DseConfig, GenericCortexMTarget, OperatingModes, PlanArtifact,
    PlanRequest, Planner, Stm32F767Target, PLAN_ARTIFACT_SCHEMA_VERSION,
};
use stm32_rcc::Hertz;
use tinynn::models::{paper_models, vww, vww_sized};

// ---- cross-target parity ------------------------------------------------

#[test]
fn generic_target_with_f767_parameters_reproduces_f767_pareto_fronts() {
    for model in paper_models() {
        let native = Planner::for_target(Stm32F767Target::paper(), &model).expect("native builds");
        let generic =
            Planner::for_target(GenericCortexMTarget::f767(), &model).expect("generic builds");
        assert_eq!(
            native.fronts(),
            generic.fronts(),
            "{}: Pareto fronts must be bit-identical across target descriptions",
            model.name
        );
    }
}

#[test]
fn generic_target_with_f767_parameters_reproduces_f767_plans() {
    let model = vww();
    let native = Planner::for_target(Stm32F767Target::paper(), &model).expect("native builds");
    let generic =
        Planner::for_target(GenericCortexMTarget::f767(), &model).expect("generic builds");
    // Baselines agree: the generic description's "fastest HFO" is exactly
    // TinyEngine's stock 216 MHz configuration.
    let baseline_native = native.baseline_latency().expect("baseline");
    let baseline_generic = generic.baseline_latency().expect("baseline");
    assert_eq!(baseline_native, baseline_generic);
    for slack in [0.1, 0.3, 0.5] {
        let a = native.run(slack).expect("native plans");
        let b = generic.run(slack).expect("generic plans");
        assert_eq!(a.plan.decisions, b.plan.decisions, "slack {slack}");
        assert_eq!(a.inference_secs, b.inference_secs);
        assert_eq!(a.total_energy, b.total_energy);
    }
}

/// A genuinely different board: slower clock ladder from a 25 MHz
/// crystal, half the cache, leaner power envelope, slower flash.
fn slow_board() -> GenericCortexMTarget {
    let modes = OperatingModes::from_sysclks(
        Hertz::mhz(25),
        Hertz::mhz(25),
        &[
            Hertz::mhz(75),
            Hertz::mhz(100),
            Hertz::mhz(125),
            Hertz::mhz(150),
        ],
    )
    .expect("ladder reachable from a 25 MHz HSE");
    GenericCortexMTarget::new("cortex-m-slow")
        .with_modes(modes)
        .with_cache(mcu_sim::cache::CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            ways: 2,
        })
        .with_power(
            stm32_power::PowerModel::nucleo_f767zi()
                .with_static_power(stm32_power::Watts::milliwatts(12.0))
                .with_core_w_per_hz(0.6e-9)
                .with_clock_gated_power(stm32_power::Watts::milliwatts(8.0)),
        )
        .with_memory(
            mcu_sim::MemoryTiming::stm32f767()
                .with_flash_ladder(stm32_rcc::WaitStateLadder::new(Hertz::mhz(25), 9)),
        )
}

#[test]
fn baseline_latency_is_stored_bit_identical_to_a_fresh_replay() {
    let model = vww_sized(32);
    let planners = [
        Planner::for_target(Stm32F767Target::paper(), &model).expect("f767 builds"),
        Planner::for_target(slow_board(), &model).expect("slow board builds"),
    ];
    for planner in &planners {
        let id = planner.target().id();
        // The first calls race from several threads to store the value.
        let raced: Vec<u64> = std::thread::scope(|s| {
            let calls: Vec<_> = (0..4)
                .map(|_| s.spawn(|| planner.baseline_latency().expect("baseline").to_bits()))
                .collect();
            calls
                .into_iter()
                .map(|c| c.join().expect("no panic"))
                .collect()
        });
        let replay = || {
            let lowered = planner.baseline().expect("baseline lowers");
            let mut machine = planner.target().baseline_machine(*lowered.clock());
            lowered.run_on(&mut machine).total_time_secs.to_bits()
        };
        let fresh = replay();
        assert!(raced.iter().all(|&bits| bits == fresh), "{id}: {raced:?}");
        for _ in 0..3 {
            let stored = planner.baseline_latency().expect("baseline").to_bits();
            assert_eq!(stored, fresh, "{id}: repeated call");
        }
        assert_eq!(replay(), fresh, "{id}: the replay itself is deterministic");
    }
}

#[test]
fn different_board_plans_differently_but_meets_its_qos() {
    let model = vww_sized(32);
    let f767 = Planner::for_target(Stm32F767Target::paper(), &model).expect("f767 builds");
    let slow = Planner::for_target(slow_board(), &model).expect("slow board builds");
    assert_ne!(
        f767.fronts(),
        slow.fronts(),
        "a different ladder/cache/power must move the fronts"
    );
    // The slow board's baseline is its own 150 MHz fastest point, so its
    // windows are wider in absolute terms; plans still close under them.
    let report = slow.run(0.3).expect("slow board plans");
    assert!(report.inference_secs <= report.plan.qos_secs + 1e-12);
    for d in &report.plan.decisions {
        assert!(
            d.point.hfo.sysclk() <= Hertz::mhz(150),
            "slow board must not exceed its ladder: {}",
            d.point.hfo
        );
    }
}

// ---- plan artifacts -----------------------------------------------------

#[test]
fn artifact_round_trip_deploys_identically_across_planners() {
    let model = vww_sized(32);
    // Process A: optimize and export.
    let producer = Planner::for_target(Stm32F767Target::paper(), &model).expect("builds");
    let plan = producer
        .plan(&PlanRequest::slack(0.3))
        .expect("producer plans");
    let json = plan.to_artifact(&producer).to_json();

    // Process B: a fresh planner (same model, same target), import,
    // validate, deploy.
    let consumer = Planner::for_target(Stm32F767Target::paper(), &model).expect("builds");
    let artifact = PlanArtifact::from_json(&json).expect("parses");
    assert_eq!(artifact.schema_version, PLAN_ARTIFACT_SCHEMA_VERSION);
    assert_eq!(artifact.target, "stm32f767");
    let imported = DeploymentPlan::from_artifact(&artifact, &consumer).expect("validates");
    assert_eq!(imported, plan, "import must be bit-identical");

    let a = producer.deploy(&plan).expect("producer deploys");
    let b = consumer.deploy(&imported).expect("consumer deploys");
    assert_eq!(a.inference_secs, b.inference_secs);
    assert_eq!(a.total_energy, b.total_energy);
}

fn mismatch_field(result: Result<DeploymentPlan, DaeDvfsError>) -> &'static str {
    match result.unwrap_err() {
        DaeDvfsError::ArtifactMismatch { field, .. } => field,
        other => panic!("expected ArtifactMismatch, got {other:?}"),
    }
}

#[test]
fn artifact_rejected_on_wrong_target() {
    let model = vww_sized(32);
    let f767 = Planner::for_target(Stm32F767Target::paper(), &model).expect("builds");
    let plan = f767.plan(&PlanRequest::slack(0.3)).expect("plans");
    let artifact = plan.to_artifact(&f767);
    // Even though generic-f767 prices identically, the target id differs:
    // the import must refuse rather than guess.
    let generic = Planner::for_target(GenericCortexMTarget::f767(), &model).expect("builds");
    assert_eq!(
        mismatch_field(DeploymentPlan::from_artifact(&artifact, &generic)),
        "target"
    );
}

#[test]
fn artifact_rejected_on_schema_config_model_and_shape_mismatches() {
    let model = vww_sized(32);
    let planner = Planner::for_target(Stm32F767Target::paper(), &model).expect("builds");
    let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
    let artifact = plan.to_artifact(&planner);

    // Future schema version.
    let mut wrong = artifact.clone();
    wrong.schema_version += 1;
    assert_eq!(
        mismatch_field(DeploymentPlan::from_artifact(&wrong, &planner)),
        "schema_version"
    );

    // Tampered model fingerprint.
    let mut wrong = artifact.clone();
    wrong.model_fingerprint ^= 1;
    assert_eq!(
        mismatch_field(DeploymentPlan::from_artifact(&wrong, &planner)),
        "model_fingerprint"
    );

    // A planner under a different configuration (ablated DP resolution).
    let ablated = Planner::for_target(
        Stm32F767Target::with_config(DseConfig::paper().with_dp_resolution(500)),
        &model,
    )
    .expect("builds");
    assert_eq!(
        mismatch_field(DeploymentPlan::from_artifact(&artifact, &ablated)),
        "config_fingerprint"
    );

    // A different model (name + fingerprint both move; name is checked
    // first).
    let other = Planner::for_target(Stm32F767Target::paper(), &vww_sized(48)).expect("builds");
    let field = mismatch_field(DeploymentPlan::from_artifact(&artifact, &other));
    assert!(field == "model" || field == "model_fingerprint");
}

// ---- input validation through the planner API ---------------------------

fn invalid_field<T: std::fmt::Debug>(result: Result<T, DaeDvfsError>) -> &'static str {
    match result.unwrap_err() {
        DaeDvfsError::InvalidRequest { field, .. } => field,
        other => panic!("expected InvalidRequest, got {other:?}"),
    }
}

#[test]
fn degenerate_inputs_rejected_at_the_api_boundary() {
    let model = vww_sized(32);
    let planner = Planner::for_target(Stm32F767Target::paper(), &model).expect("builds");

    for bad_qos in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
        assert_eq!(invalid_field(planner.optimize(bad_qos)), "qos_secs");
        assert_eq!(
            invalid_field(planner.optimize_sequence(bad_qos)),
            "qos_secs"
        );
        assert_eq!(
            invalid_field(planner.plan(&PlanRequest::qos(bad_qos))),
            "qos_secs"
        );
    }
    for bad_slack in [f64::NAN, -0.3, 0.0] {
        assert_eq!(invalid_field(planner.run(bad_slack)), "slack");
        assert_eq!(
            invalid_field(planner.plan(&PlanRequest::slack(bad_slack))),
            "slack"
        );
        assert_eq!(
            invalid_field(Planner::new(&model, &DseConfig::paper()).and_then(|p| p.run(bad_slack))),
            "slack"
        );
    }
    assert_eq!(
        invalid_field(planner.plan(&PlanRequest::slack(0.3).with_dp_resolution(0))),
        "dp_resolution"
    );

    // A degenerate configuration is rejected at planner construction.
    let mut config = DseConfig::paper();
    config.dp_resolution = 0;
    assert_eq!(
        invalid_field(Planner::for_target(
            Stm32F767Target::with_config(config),
            &model
        )),
        "dp_resolution"
    );
    let empty_granularities = DseConfig::paper().with_granularities(Vec::new());
    assert_eq!(
        invalid_field(Planner::new(&model, &empty_granularities)),
        "granularities"
    );
}

#[test]
fn request_resolution_override_changes_only_the_solver_grid() {
    let model = vww_sized(32);
    let planner = Planner::for_target(Stm32F767Target::paper(), &model).expect("builds");
    let qos = planner.baseline_latency().expect("baseline") * 1.3;
    // A coarse override still yields a feasible plan...
    let coarse = planner
        .plan(&PlanRequest::qos(qos).with_dp_resolution(250))
        .expect("coarse plan solves");
    assert!(coarse.predicted_latency_secs <= qos + 1e-12);
    // ...and the default-resolution request equals plain optimize.
    let default = planner
        .plan(&PlanRequest::qos(qos))
        .expect("default solves");
    assert_eq!(default, planner.optimize(qos).expect("optimize"));
}

#[test]
fn substrate_ablations_reprice_the_baseline() {
    // The cpu/memory fields added to DseConfig flow into the baseline
    // machine too, not just the DSE: a slower core must lengthen the
    // baseline latency (and hence every slack-derived QoS window).
    let model = vww_sized(32);
    let slow_cpu = mcu_sim::CpuModel {
        mac_mcycles: 2000,
        ..mcu_sim::CpuModel::cortex_m7()
    };
    let stock = Planner::new(&model, &DseConfig::paper()).expect("builds");
    let ablated = Planner::new(&model, &DseConfig::paper().with_cpu(slow_cpu)).expect("builds");
    assert!(
        ablated.baseline_latency().expect("baseline") > stock.baseline_latency().expect("baseline"),
        "a slower core must slow the baseline"
    );
}

#[test]
fn compare_with_baselines_works_on_non_f767_targets() {
    // The iso-latency baselines replay on the target's machine, so a
    // board with its own ladder/power/substrate gets consistent windows
    // (no panic) and energies priced with its own power model.
    let model = vww_sized(32);
    let planner = Planner::for_target(slow_board(), &model).expect("builds");
    let cmp = planner.compare_with_baselines(0.3).expect("compares");
    assert!(cmp.ours.as_f64() > 0.0);
    assert!(
        cmp.tinyengine > cmp.tinyengine_gated,
        "WFI idle must cost more than clock gating on any target"
    );
}

#[test]
fn target_accessor_exposes_platform_identity() {
    let model = vww_sized(32);
    let planner = Planner::for_target(slow_board(), &model).expect("builds");
    assert_eq!(planner.target().id(), "cortex-m-slow");
    assert_eq!(planner.config().modes.lfo_sysclk(), Hertz::mhz(25));
}
