//! Evaluation reporting: the aggregations behind Fig. 5, Fig. 6 and the
//! headline claims.

use stm32_power::Joules;
use stm32_rcc::Hertz;
use tinyengine::{qos_window, IdlePolicy};
use tinynn::LayerKind;

use crate::error::DaeDvfsError;
use crate::pipeline::DeploymentPlan;
use crate::planner::Planner;
use crate::schedule::par_map;

/// Iso-latency energy of our approach vs the two baselines (one Fig. 5 bar
/// group).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyComparison {
    /// Model name.
    pub model: String,
    /// QoS slack level (0.10 / 0.30 / 0.50).
    pub slack: f64,
    /// The QoS window in seconds.
    pub qos_secs: f64,
    /// DAE+DVFS total window energy.
    pub ours: Joules,
    /// Plain TinyEngine (busy idle at 216 MHz).
    pub tinyengine: Joules,
    /// TinyEngine with clock gating.
    pub tinyengine_gated: Joules,
}

impl EnergyComparison {
    /// Energy gain over plain TinyEngine, percent.
    pub fn gain_vs_tinyengine_pct(&self) -> f64 {
        (self.tinyengine.as_f64() - self.ours.as_f64()) / self.tinyengine.as_f64() * 100.0
    }

    /// Energy gain over TinyEngine + clock gating, percent.
    pub fn gain_vs_gated_pct(&self) -> f64 {
        (self.tinyengine_gated.as_f64() - self.ours.as_f64()) / self.tinyengine_gated.as_f64()
            * 100.0
    }
}

impl Planner {
    /// Runs the iso-latency comparison of one slack level against the
    /// cached fronts and the cached TinyEngine lowering.
    ///
    /// # Errors
    ///
    /// Propagates baseline and optimization errors.
    pub fn compare_with_baselines(&self, slack: f64) -> Result<EnergyComparison, DaeDvfsError> {
        crate::request::validate_positive_time("slack", slack)?;
        let baseline = self.baseline()?;
        let qos = qos_window(self.baseline_latency()?, slack);

        let plan = self.optimize(qos)?;
        let ours = self.deploy(&plan)?;
        // The paper's plain-TinyEngine baseline keeps "the board remaining
        // in an idle state with a constant frequency of 216 MHz": WFI sleep
        // with all clocks (including the 432 MHz-VCO PLL) still running.
        // Both baselines replay on the *target's* machine (same substrate
        // the window was derived from), at the target's baseline clock.
        let te = baseline.run_iso_latency_on(
            &mut self.target().baseline_machine(*baseline.clock()),
            qos,
            IdlePolicy::Wfi216,
        );
        let gated = baseline.run_iso_latency_on(
            &mut self.target().baseline_machine(*baseline.clock()),
            qos,
            IdlePolicy::ClockGated,
        );

        Ok(EnergyComparison {
            model: self.model().name.clone(),
            slack,
            qos_secs: qos,
            ours: ours.total_energy,
            tinyengine: te.total_energy,
            tinyengine_gated: gated.total_energy,
        })
    }

    /// Runs [`Planner::compare_with_baselines`] for a batch of slack
    /// levels, striping the independent per-slack work (solve, deploy,
    /// two baseline replays) over scoped threads when more than one core
    /// is available. Results are returned in slack order and are
    /// identical to the sequential loop.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for NaN / non-positive slacks;
    /// the error of the earliest failing slack otherwise.
    pub fn compare_sweep(&self, slacks: &[f64]) -> Result<Vec<EnergyComparison>, DaeDvfsError> {
        for &s in slacks {
            crate::request::validate_positive_time("slack", s)?;
        }
        // Prime the shared baseline lowering before fanning out, so the
        // workers race on a cache hit rather than compiling it N times.
        if !slacks.is_empty() {
            self.baseline()?;
        }
        par_map(slacks, usize::MAX, |&s| self.compare_with_baselines(s))
            .into_iter()
            .collect()
    }
}

/// One row of the Fig. 6 frequency map: a layer's chosen HFO frequency and
/// granularity under a given QoS.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyMapRow {
    /// Layer name.
    pub name: String,
    /// Layer kind (pointwise / depthwise / rest).
    pub kind: LayerKind,
    /// Chosen HFO frequency.
    pub hfo: Hertz,
    /// Chosen granularity.
    pub granularity: u8,
}

/// The Fig. 6 view of one deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyMap {
    /// Model name.
    pub model: String,
    /// QoS slack the plan was optimized for.
    pub slack: f64,
    /// Per-layer rows in execution order.
    pub rows: Vec<FrequencyMapRow>,
}

impl FrequencyMap {
    /// Builds the map from a deployment plan.
    pub fn from_plan(plan: &DeploymentPlan, slack: f64) -> Self {
        FrequencyMap {
            model: plan.model.clone(),
            slack,
            rows: plan
                .decisions
                .iter()
                .map(|d| FrequencyMapRow {
                    name: d.name.clone(),
                    kind: d.kind,
                    hfo: d.point.hfo.sysclk(),
                    granularity: d.point.granularity.0,
                })
                .collect(),
        }
    }

    /// Fraction of layers of `kind` running at exactly `freq` (in `[0,1]`;
    /// 0 when the kind is absent).
    pub fn share_at(&self, kind: LayerKind, freq: Hertz) -> f64 {
        let of_kind: Vec<_> = self.rows.iter().filter(|r| r.kind == kind).collect();
        if of_kind.is_empty() {
            return 0.0;
        }
        of_kind.iter().filter(|r| r.hfo == freq).count() as f64 / of_kind.len() as f64
    }

    /// Fraction of layers of `kind` at or below `freq`.
    pub fn share_at_or_below(&self, kind: LayerKind, freq: Hertz) -> f64 {
        let of_kind: Vec<_> = self.rows.iter().filter(|r| r.kind == kind).collect();
        if of_kind.is_empty() {
            return 0.0;
        }
        of_kind.iter().filter(|r| r.hfo <= freq).count() as f64 / of_kind.len() as f64
    }

    /// Fraction of all layers running at `freq`.
    pub fn overall_share_at(&self, freq: Hertz) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().filter(|r| r.hfo == freq).count() as f64 / self.rows.len() as f64
    }

    /// Fraction of DAE-capable layers using granularity `g`.
    pub fn granularity_share(&self, g: u8) -> f64 {
        let capable: Vec<_> = self
            .rows
            .iter()
            .filter(|r| matches!(r.kind, LayerKind::Depthwise | LayerKind::Pointwise))
            .collect();
        if capable.is_empty() {
            return 0.0;
        }
        capable.iter().filter(|r| r.granularity == g).count() as f64 / capable.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::DseConfig;
    use tinyengine::TinyEngine;
    use tinynn::models::vww;

    #[test]
    fn comparison_has_positive_gains_at_moderate_slack() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let cmp = planner.compare_with_baselines(0.3).unwrap();
        assert!(cmp.gain_vs_tinyengine_pct() > 0.0);
        assert!(cmp.gain_vs_gated_pct() > 0.0);
        assert!(cmp.gain_vs_tinyengine_pct() > cmp.gain_vs_gated_pct());
    }

    #[test]
    fn compare_sweep_matches_sequential_loop() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let slacks = [0.1, 0.3, 0.5];
        let swept = planner.compare_sweep(&slacks).unwrap();
        assert_eq!(swept.len(), slacks.len());
        for (cmp, &slack) in swept.iter().zip(&slacks) {
            let solo = planner.compare_with_baselines(slack).unwrap();
            assert_eq!(*cmp, solo, "slack {slack} diverged under striping");
        }
        assert!(matches!(
            planner.compare_sweep(&[0.3, f64::NAN]),
            Err(crate::error::DaeDvfsError::InvalidRequest { .. })
        ));
        assert!(planner.compare_sweep(&[]).unwrap().is_empty());
    }

    #[test]
    fn frequency_map_shares_sum_to_one() {
        let model = vww();
        let engine = TinyEngine::new();
        let t = engine.run(&model).unwrap().total_time_secs;
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let plan = planner.optimize(qos_window(t, 0.3)).unwrap();
        let map = FrequencyMap::from_plan(&plan, 0.3);
        assert_eq!(map.rows.len(), model.layer_count());

        let freqs: std::collections::BTreeSet<Hertz> = map.rows.iter().map(|r| r.hfo).collect();
        let total: f64 = freqs.iter().map(|&f| map.overall_share_at(f)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tight_qos_uses_higher_frequencies() {
        let model = vww();
        let engine = TinyEngine::new();
        let t = engine.run(&model).unwrap().total_time_secs;
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let tight = FrequencyMap::from_plan(&planner.optimize(qos_window(t, 0.1)).unwrap(), 0.1);
        let relaxed = FrequencyMap::from_plan(&planner.optimize(qos_window(t, 0.5)).unwrap(), 0.5);
        let max = Hertz::mhz(216);
        assert!(
            tight.overall_share_at(max) >= relaxed.overall_share_at(max),
            "tight {} vs relaxed {}",
            tight.overall_share_at(max),
            relaxed.overall_share_at(max)
        );
    }

    #[test]
    fn share_of_missing_kind_is_zero() {
        let map = FrequencyMap {
            model: "empty".into(),
            slack: 0.1,
            rows: Vec::new(),
        };
        assert_eq!(map.share_at(LayerKind::Depthwise, Hertz::mhz(216)), 0.0);
        assert_eq!(map.overall_share_at(Hertz::mhz(216)), 0.0);
        assert_eq!(map.granularity_share(4), 0.0);
    }
}
