//! The products of the methodology (paper Fig. 3): DAE lowering →
//! per-layer DSE → Pareto extraction → MCKP → deployable plan →
//! iso-latency execution.
//!
//! [`crate::Planner`] runs the steps; this module holds what it lowers
//! from ([`lower_model`]) and what it produces: the per-layer
//! [`LayerDecision`]s of a [`DeploymentPlan`], and the
//! [`DeploymentReport`] of executing one.

use stm32_power::Joules;
use tinynn::{LayerKind, Model};

use crate::dse::DsePoint;
use crate::error::DaeDvfsError;

/// The per-layer decision of a deployment: which granularity and which HFO
/// frequency the layer runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDecision {
    /// Layer name.
    pub name: String,
    /// Reporting kind.
    pub kind: LayerKind,
    /// The chosen DSE point.
    pub point: DsePoint,
}

/// A complete DAE+DVFS deployment plan for one model under one QoS budget.
///
/// `Display` renders the per-layer decision table (the firmware-facing
/// artifact: which granularity and PLL setting each layer uses).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentPlan {
    /// Model name.
    pub model: String,
    /// The QoS window (absolute seconds).
    pub qos_secs: f64,
    /// Per-layer decisions in execution order.
    pub decisions: Vec<LayerDecision>,
    /// Predicted inference latency (sum of chosen points).
    pub predicted_latency_secs: f64,
    /// Predicted inference energy (sum of chosen points).
    pub predicted_energy: Joules,
}

impl std::fmt::Display for DeploymentPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deployment plan for {} (QoS {:.3} ms, predicted {:.3} ms / {:.3} mJ)",
            self.model,
            self.qos_secs * 1e3,
            self.predicted_latency_secs * 1e3,
            self.predicted_energy.as_mj()
        )?;
        writeln!(
            f,
            "{:>18} | {:>10} | {:>3} | {:>8} | {:>22}",
            "layer", "kind", "g", "HFO", "PLL {HSE,M,N}/P"
        )?;
        for d in &self.decisions {
            let (hse, m, n) = d.point.hfo.label_tuple();
            writeln!(
                f,
                "{:>18} | {:>10} | {:>3} | {:>4} MHz | {:>18}",
                d.name,
                d.kind.to_string(),
                d.point.granularity.0,
                d.point.hfo.sysclk().as_u64() / 1_000_000,
                format!("{{{hse},{m},{n}}}/{}", d.point.hfo.pllp()),
            )?;
        }
        Ok(())
    }
}

/// Result of executing a deployment plan over its iso-latency window.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentReport {
    /// The executed plan.
    pub plan: DeploymentPlan,
    /// Measured inference latency.
    pub inference_secs: f64,
    /// Measured inference energy.
    pub inference_energy: Joules,
    /// Energy spent idling (clock gated) until the QoS deadline.
    pub idle_energy: Joules,
    /// Total window energy.
    pub total_energy: Joules,
}

/// Lowers a model into layer profiles (shared with the baseline engine).
///
/// # Errors
///
/// Propagates shape errors from the model plan.
pub fn lower_model(model: &Model) -> Result<Vec<tinyengine::KernelProfile>, DaeDvfsError> {
    let plan = model.plan().map_err(tinyengine::EngineError::from)?;
    Ok(model
        .layers()
        .zip(plan.iter())
        .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::DseConfig;
    use crate::planner::Planner;
    use crate::schedule::{replay_decisions, CompiledLayer};
    use std::sync::Arc;
    use tinyengine::TinyEngine;
    use tinynn::models::vww;

    fn cfg() -> DseConfig {
        DseConfig::paper()
    }

    fn planner(model: &Model, config: &DseConfig) -> Planner {
        Planner::new(model, config).unwrap()
    }

    #[test]
    fn optimize_respects_qos() {
        let model = vww();
        let planner = planner(&model, &cfg());
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        for slack in [0.1, 0.3, 0.5] {
            let qos = tinyengine::qos_window(baseline, slack);
            let plan = planner.optimize(qos).unwrap();
            assert!(
                plan.predicted_latency_secs <= qos + 1e-9,
                "slack {slack}: predicted {} > qos {qos}",
                plan.predicted_latency_secs
            );
            assert_eq!(plan.decisions.len(), model.layer_count());
        }
    }

    #[test]
    fn deploy_reproduces_prediction_exactly() {
        // optimize() predicts by replaying the schedule with full
        // switching costs; deploy() is the same replay, so the numbers
        // must agree to floating-point accuracy.
        let model = vww();
        let config = cfg();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let qos = tinyengine::qos_window(baseline, 0.3);
        let planner = planner(&model, &config);
        let plan = planner.optimize(qos).unwrap();
        let report = planner.deploy(&plan).unwrap();
        assert!(
            (report.inference_secs - plan.predicted_latency_secs).abs() < 1e-12,
            "deployment {} vs prediction {}",
            report.inference_secs,
            plan.predicted_latency_secs
        );
        assert!((report.inference_energy.as_f64() - plan.predicted_energy.as_f64()).abs() < 1e-12);
        assert!(report.inference_secs <= qos + 1e-12);

        // An independent replay on freshly compiled schedules — no
        // planner caches — must reproduce the prediction too.
        let layers: Vec<CompiledLayer> = lower_model(&model)
            .unwrap()
            .into_iter()
            .map(|p| CompiledLayer::compile(p, &config))
            .collect();
        let power = Arc::new(config.power.clone());
        let (fresh_secs, fresh_energy) =
            replay_decisions(&layers, &plan.decisions, &config, &power);
        assert!((fresh_secs - plan.predicted_latency_secs).abs() < 1e-12);
        assert!((fresh_energy.as_f64() - plan.predicted_energy.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn relaxed_qos_saves_energy() {
        let model = vww();
        let planner = planner(&model, &cfg());
        let tight = planner.run(0.1).unwrap();
        let relaxed = planner.run(0.5).unwrap();
        assert!(
            relaxed.inference_energy < tight.inference_energy,
            "relaxed {} vs tight {}",
            relaxed.inference_energy,
            tight.inference_energy
        );
    }

    #[test]
    fn sequence_dp_meets_qos_and_matches_or_beats_grid_search() {
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let config = cfg();
        let planner = planner(&model, &config);
        let gated = config.power.clock_gated_power.as_f64();
        for slack in [0.1, 0.3, 0.5] {
            let qos = tinyengine::qos_window(baseline, slack);
            let seq = planner.optimize_sequence(qos).unwrap();
            assert!(seq.predicted_latency_secs <= qos + 1e-12);
            let grid = planner.optimize(qos).unwrap();
            let window = |p: &DeploymentPlan| {
                p.predicted_energy.as_f64() + gated * (qos - p.predicted_latency_secs)
            };
            // The sequence DP prices re-locks exactly; allow only the DP
            // discretization wobble in the other direction.
            assert!(
                window(&seq) <= window(&grid) * 1.01,
                "slack {slack}: seq {} vs grid {}",
                window(&seq),
                window(&grid)
            );
        }
    }

    #[test]
    fn plan_display_lists_every_layer() {
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let plan = planner(&model, &cfg())
            .optimize(tinyengine::qos_window(baseline, 0.3))
            .unwrap();
        let rendered = plan.to_string();
        for d in &plan.decisions {
            assert!(rendered.contains(&d.name), "missing {}", d.name);
        }
        assert!(rendered.contains("QoS"));
    }

    #[test]
    fn sequence_dp_infeasible_window_rejected() {
        let model = vww();
        assert!(matches!(
            planner(&model, &cfg()).optimize_sequence(1e-6),
            Err(DaeDvfsError::Qos(_))
        ));
    }

    #[test]
    fn infeasible_qos_rejected() {
        let model = vww();
        let err = planner(&model, &cfg()).optimize(1e-6).unwrap_err();
        assert!(matches!(err, DaeDvfsError::Qos(_)));
    }

    #[test]
    fn empty_model_is_an_error_not_a_panic() {
        // Regression: the replay path used to index `decisions[0]` and
        // panic on zero-layer models. No planner exists for one, so no
        // optimize, sequence, run or deploy call can reach a replay.
        let model = Model::new("hollow", tinynn::Shape::new(4, 4, 1), Vec::new());
        assert!(lower_model(&model).unwrap().is_empty());
        let hollow_plan = DeploymentPlan {
            model: "hollow".into(),
            qos_secs: 1.0,
            decisions: Vec::new(),
            predicted_latency_secs: 0.0,
            predicted_energy: Joules::ZERO,
        };
        assert!(matches!(
            Planner::new(&model, &cfg()).and_then(|p| p.deploy(&hollow_plan)),
            Err(DaeDvfsError::EmptyModel { .. })
        ));
    }

    #[test]
    fn dp_resolution_is_ablatable() {
        // Coarser resolutions still produce feasible plans; the knob rides
        // in the config instead of a hard-coded constant.
        let model = vww();
        let baseline = TinyEngine::new().run(&model).unwrap().total_time_secs;
        let qos = tinyengine::qos_window(baseline, 0.3);
        for resolution in [250usize, 2000] {
            let cfg = DseConfig::paper().with_dp_resolution(resolution);
            let plan = planner(&model, &cfg).optimize(qos).unwrap();
            assert!(
                plan.predicted_latency_secs <= qos + 1e-9,
                "res {resolution}"
            );
        }
    }

    #[test]
    fn beats_tinyengine_baselines() {
        // The headline comparison at moderate slack.
        let model = vww();
        let engine = TinyEngine::new();
        let baseline = engine.run(&model).unwrap().total_time_secs;
        let qos = tinyengine::qos_window(baseline, 0.3);

        let ours = planner(&model, &cfg()).run(0.3).unwrap();
        let te = tinyengine::run_iso_latency(&engine, &model, qos, tinyengine::IdlePolicy::Busy216)
            .unwrap();
        let te_gated =
            tinyengine::run_iso_latency(&engine, &model, qos, tinyengine::IdlePolicy::ClockGated)
                .unwrap();

        assert!(
            ours.total_energy < te.total_energy,
            "must beat plain TinyEngine: {} vs {}",
            ours.total_energy,
            te.total_energy
        );
        assert!(
            ours.total_energy < te_gated.total_energy,
            "must beat TinyEngine+gating: {} vs {}",
            ours.total_energy,
            te_gated.total_energy
        );
    }
}
