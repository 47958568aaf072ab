//! Per-layer design-space exploration (paper Sec. III-B, step 2A).
//!
//! For every layer, every decoupling granularity `g` and every HFO
//! frequency candidate is priced by replaying the DAE segment schedule on a
//! simulated machine: memory segments at LFO, compute segments at HFO,
//! paying the (warm-PLL) switch costs in between. The result is the
//! `(latency, energy)` cloud from which the Pareto front is extracted.

use std::sync::Arc;

use mcu_sim::cache::CacheConfig;
use mcu_sim::{CpuModel, MemoryTiming};
use stm32_power::{Joules, PowerModel};
use stm32_rcc::{PllConfig, SwitchCostModel};
use tinyengine::KernelProfile;

use crate::dae::{dae_segments, Granularity};
use crate::modes::OperatingModes;
use crate::schedule::{evaluate_schedule, explore_compiled, CompiledLayer};

/// One evaluated `(g, f)` configuration of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// The decoupling granularity.
    pub granularity: Granularity,
    /// The HFO PLL configuration (compute-segment clock).
    pub hfo: PllConfig,
    /// Layer latency under this configuration, seconds.
    pub latency_secs: f64,
    /// Layer energy under this configuration.
    pub energy: Joules,
    /// Clock switches performed.
    pub switches: u64,
    /// Duration of the layer's *first* memory (staging) segment at LFO,
    /// seconds — zero for `g = 0`. An incoming PLL re-lock can hide under
    /// this much execution (see `mcu_sim::Machine::prepare_pll`), which the
    /// sequence-aware optimizer exploits.
    pub first_stage_secs: f64,
}

/// Knobs of the exploration (all ablatable).
///
/// This is the *lowered* board description every pricing and solver routine
/// consumes. Prefer producing one through a [`crate::target::Target`]
/// (`target.dse_config()`) or through the `with_*` builder methods below;
/// the raw public fields remain available as the compatibility layer for
/// existing ablation code, but new code should not construct the struct
/// literally so future fields (like `cpu` and `memory`, added for the
/// target abstraction) can keep appearing without breaking callers.
#[derive(Debug, Clone)]
pub struct DseConfig {
    /// The operating-mode universe.
    pub modes: OperatingModes,
    /// Granularities to explore for DAE-capable layers.
    pub granularities: Vec<Granularity>,
    /// Cache geometry used by the DAE lowering.
    pub cache: CacheConfig,
    /// Switch-cost model.
    pub switch_model: SwitchCostModel,
    /// Power model.
    pub power: PowerModel,
    /// CPU timing model the machine replays price against.
    pub cpu: CpuModel,
    /// Memory-system timing (SRAM latencies, flash wait-state ladder).
    pub memory: MemoryTiming,
    /// Number of time buckets the MCKP / sequence DPs discretize the QoS
    /// budget into. Finer resolutions tighten the ceil-rounding at the cost
    /// of solver time; ablatable like every other knob.
    pub dp_resolution: usize,
}

impl DseConfig {
    /// The default DP time-axis resolution.
    pub const DEFAULT_DP_RESOLUTION: usize = 2000;

    /// The paper's exploration: `g ∈ {0,2,4,8,12,16}`, the full HFO ladder,
    /// STM32F767 cache, substrate models and default costs.
    pub fn paper() -> Self {
        DseConfig {
            modes: OperatingModes::paper(),
            granularities: Granularity::PAPER_SET.to_vec(),
            cache: CacheConfig::stm32f767(),
            switch_model: SwitchCostModel::default(),
            power: PowerModel::nucleo_f767zi(),
            cpu: CpuModel::cortex_m7(),
            memory: MemoryTiming::stm32f767(),
            dp_resolution: Self::DEFAULT_DP_RESOLUTION,
        }
    }

    /// Replaces the operating-mode universe (builder style).
    pub fn with_modes(mut self, modes: OperatingModes) -> Self {
        self.modes = modes;
        self
    }

    /// Replaces the explored granularity set (builder style).
    pub fn with_granularities(mut self, granularities: Vec<Granularity>) -> Self {
        self.granularities = granularities;
        self
    }

    /// Replaces the cache geometry (builder style).
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Replaces the switch-cost model (builder style).
    pub fn with_switch_model(mut self, switch_model: SwitchCostModel) -> Self {
        self.switch_model = switch_model;
        self
    }

    /// Replaces the power model (builder style).
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    /// Replaces the CPU timing model (builder style).
    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the memory-system timing (builder style).
    pub fn with_memory(mut self, memory: MemoryTiming) -> Self {
        self.memory = memory;
        self
    }

    /// Overrides the DP resolution (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn with_dp_resolution(mut self, resolution: usize) -> Self {
        assert!(resolution > 0, "resolution must be non-zero");
        self.dp_resolution = resolution;
        self
    }
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig::paper()
    }
}

/// Prices one `(g, f)` configuration of `profile` by machine replay.
///
/// The machine starts with the point's own HFO PLL locked, i.e. the point
/// is *relock-free*: it covers the intra-layer LFO↔HFO mux toggles but not
/// the PLL re-lock a deployment pays when the previous layer used a
/// different HFO. The planner's optimizer accounts for those inter-layer
/// re-locks sequence-aware (see [`crate::Planner::optimize`]).
pub fn evaluate_point(
    profile: &KernelProfile,
    g: Granularity,
    hfo: &PllConfig,
    config: &DseConfig,
) -> DsePoint {
    let segments = dae_segments(profile, g, &config.cache);
    evaluate_schedule(&segments, g, hfo, config, &Arc::new(config.power.clone()))
}

/// Explores the full `(g, f)` grid for one layer.
///
/// DAE-capable layers (depthwise, pointwise) get every granularity; "rest"
/// layers only get frequency scaling (`g = 0`), matching Fig. 6 where rest
/// rows carry granularity `0-0`.
///
/// Single-shot convenience: lowers the layer once into a throw-away
/// [`CompiledLayer`] and sweeps it. Callers that revisit layers should
/// hold a [`crate::Planner`] (or their own `CompiledLayer`) instead.
pub fn explore_layer(profile: &KernelProfile, config: &DseConfig) -> Vec<DsePoint> {
    let layer = CompiledLayer::compile(profile.clone(), config);
    explore_compiled(&layer, config, &Arc::new(config.power.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm32_rcc::Hertz;
    use tinynn::models::vww_sized;
    use tinynn::Layer;

    fn profile_of(kind_dw: bool) -> KernelProfile {
        let model = vww_sized(32);
        let plan = model.plan().unwrap();
        let found = model
            .layers()
            .zip(plan.iter())
            .find(|(nl, _)| {
                if kind_dw {
                    matches!(nl.layer, Layer::Depthwise(_))
                } else {
                    matches!(nl.layer, Layer::Pointwise(_))
                }
            })
            .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info));
        found.unwrap()
    }

    #[test]
    fn higher_frequency_lower_latency_at_fixed_g() {
        let cfg = DseConfig::paper();
        let p = profile_of(false);
        let f100 = cfg.modes.hfo_at(Hertz::mhz(100)).copied().unwrap();
        let f216 = cfg.modes.hfo_at(Hertz::mhz(216)).copied().unwrap();
        for g in [Granularity(0), Granularity(8)] {
            let slow = evaluate_point(&p, g, &f100, &cfg);
            let fast = evaluate_point(&p, g, &f216, &cfg);
            assert!(
                fast.latency_secs < slow.latency_secs,
                "216 MHz must beat 100 MHz at {g}"
            );
        }
    }

    #[test]
    fn dae_reduces_energy_for_pointwise() {
        // Weight-walk amortization plus LFO staging: at a fixed HFO, the
        // best granularity must undercut the interleaved baseline for
        // pointwise layers.
        let cfg = DseConfig::paper();
        let p = profile_of(false);
        let f216 = cfg.modes.hfo_at(Hertz::mhz(216)).copied().unwrap();
        let base = evaluate_point(&p, Granularity(0), &f216, &cfg);
        let best_dae = [2u8, 4, 8, 12, 16]
            .into_iter()
            .map(|g| evaluate_point(&p, Granularity(g), &f216, &cfg))
            .min_by(|a, b| a.energy.partial_cmp(&b.energy).unwrap())
            .unwrap();
        assert!(
            best_dae.energy < base.energy,
            "DAE ({}) must undercut baseline: {} vs {}",
            best_dae.granularity,
            best_dae.energy,
            base.energy
        );
    }

    #[test]
    fn dae_reduces_energy_for_oversized_depthwise() {
        // When the input tensor exceeds the L1, DAE staging de-duplicates
        // the strided per-channel walks: the best granularity must win.
        let model = tinynn::models::mobilenet_v2();
        let plan = model.plan().unwrap();
        let found = model
            .layers()
            .zip(plan.iter())
            .filter(|(nl, _)| matches!(nl.layer, Layer::Depthwise(_)))
            .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
            .find(|p| p.input_bytes() > 2 * 16 * 1024);
        let p = found.expect("MBV2 has oversized depthwise tensors");
        let cfg = DseConfig::paper();
        let f216 = cfg.modes.hfo_at(Hertz::mhz(216)).copied().unwrap();
        let base = evaluate_point(&p, Granularity(0), &f216, &cfg);
        let best_dae = [2u8, 4, 8, 12, 16]
            .into_iter()
            .map(|g| evaluate_point(&p, Granularity(g), &f216, &cfg))
            .min_by(|a, b| a.energy.partial_cmp(&b.energy).unwrap())
            .unwrap();
        assert!(
            best_dae.energy < base.energy,
            "DAE ({}) must undercut baseline on {}: {} vs {}",
            best_dae.granularity,
            p.name,
            best_dae.energy,
            base.energy
        );
        assert!(
            best_dae.latency_secs < base.latency_secs,
            "de-duplicated walks should also be faster"
        );
    }

    #[test]
    fn dae_switches_scale_with_groups() {
        let cfg = DseConfig::paper();
        let p = profile_of(true);
        let f216 = cfg.modes.hfo_at(Hertz::mhz(216)).copied().unwrap();
        let g2 = evaluate_point(&p, Granularity(2), &f216, &cfg);
        let g16 = evaluate_point(&p, Granularity(16), &f216, &cfg);
        assert!(g2.switches > g16.switches, "finer g must switch more");
        let base = evaluate_point(&p, Granularity(0), &f216, &cfg);
        assert_eq!(base.switches, 0, "baseline never switches");
    }

    #[test]
    fn rest_layers_get_frequency_only() {
        let model = vww_sized(32);
        let plan = model.plan().unwrap();
        let found = model
            .layers()
            .zip(plan.iter())
            .find(|(nl, _)| matches!(nl.layer, Layer::Conv2d(_)))
            .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info));
        let rest = found.unwrap();
        let cfg = DseConfig::paper();
        let points = explore_layer(&rest, &cfg);
        assert_eq!(points.len(), cfg.modes.hfo.len());
        assert!(points.iter().all(|p| p.granularity.is_baseline()));
    }

    #[test]
    fn dae_layers_get_full_grid() {
        let cfg = DseConfig::paper();
        let p = profile_of(true);
        let points = explore_layer(&p, &cfg);
        assert_eq!(points.len(), cfg.modes.hfo.len() * cfg.granularities.len());
    }

    #[test]
    fn all_points_positive() {
        let cfg = DseConfig::paper();
        for p in [profile_of(true), profile_of(false)] {
            for pt in explore_layer(&p, &cfg) {
                assert!(pt.latency_secs > 0.0);
                assert!(pt.energy.as_f64() > 0.0);
            }
        }
    }
}
