//! Compiled segment schedules: lower once, replay many times.
//!
//! The DAE lowering of a layer ([`dae_segments`]) depends only on the
//! triple `(layer profile, granularity, cache geometry)` — *not* on the
//! HFO frequency being priced. The straight-line pipeline nevertheless
//! re-lowered every layer for every DSE point and for every replay of a
//! candidate schedule, rebuilding the same `Vec<Segment>` (labels
//! included) thousands of times per `optimize` call.
//!
//! This module is the cache layer that removes that waste:
//!
//! * [`CompiledLayer`] lowers one layer once per explorable granularity
//!   and stores the schedules as shared `Arc<[Segment]>` slices;
//! * [`evaluate_schedule`] prices one `(g, f)` point against a borrowed
//!   schedule — the exact machine replay of `dse::evaluate_point`, minus
//!   the lowering;
//! * [`explore_compiled`] / [`explore_model`] run the full DSE sweep
//!   against the cache, fanning layers out across OS threads with
//!   `std::thread::scope` (the crate's one ordered parallel map) when
//!   more than one core is available;
//! * [`replay_decisions`] replays a deployment decision sequence (with
//!   full inter-layer switching costs) against the cache.
//!
//! ## Invalidation rules
//!
//! A compiled schedule is immutable. It is valid for exactly the
//! `(profile, cache)` pair it was compiled from; changing the model, the
//! cache geometry, or the granularity universe requires recompiling (the
//! [`crate::Planner`] therefore owns its `DseConfig` and never mutates
//! it). Frequencies, switch costs and power models are *not* baked into
//! schedules — they are priced at replay time, so one compiled schedule
//! serves every HFO candidate.
//!
//! All replays here are bit-identical to the uncached path: the segments
//! are the same values `dae_segments` produces, and the machine arithmetic
//! does not depend on how the segment list was obtained.

use std::sync::Arc;

use mcu_sim::cache::CacheConfig;
use mcu_sim::{Machine, Segment, SegmentClass};
use stm32_power::{Joules, PowerModel};
use stm32_rcc::{PllConfig, SysclkConfig};
use tinyengine::KernelProfile;
use tinynn::LayerKind;

use crate::dae::{dae_segments, Granularity};
use crate::dse::{DseConfig, DsePoint};
use crate::pipeline::LayerDecision;

/// One layer's segment schedules, compiled once per explorable
/// granularity.
///
/// DAE-capable layers (depthwise / pointwise) carry one schedule per
/// granularity in the configured set; rest layers carry only the `g = 0`
/// baseline schedule (they get frequency scaling but no decoupling).
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    profile: KernelProfile,
    /// `(g, schedule)` pairs in the configuration's exploration order.
    schedules: Vec<(Granularity, Arc<[Segment]>)>,
}

impl CompiledLayer {
    /// Lowers `profile` into its schedule cache under `config`'s
    /// granularity set and cache geometry.
    pub fn compile(profile: KernelProfile, config: &DseConfig) -> Self {
        let dae_capable = matches!(profile.kind, LayerKind::Depthwise | LayerKind::Pointwise);
        let gs: &[Granularity] = if dae_capable {
            &config.granularities
        } else {
            &[Granularity(0)]
        };
        let schedules = gs
            .iter()
            .map(|&g| (g, dae_segments(&profile, g, &config.cache).into()))
            .collect();
        CompiledLayer { profile, schedules }
    }

    /// The layer profile the schedules were compiled from.
    pub fn profile(&self) -> &KernelProfile {
        &self.profile
    }

    /// The cached schedule for granularity `g`, if compiled.
    pub fn schedule(&self, g: Granularity) -> Option<&Arc<[Segment]>> {
        self.schedules
            .iter()
            .find(|(sg, _)| *sg == g)
            .map(|(_, s)| s)
    }

    /// The schedule for `g`, falling back to a fresh lowering when `g` is
    /// outside the compiled set (e.g. replaying a plan produced under a
    /// different granularity universe).
    pub fn schedule_for(&self, g: Granularity, cache: &CacheConfig) -> Arc<[Segment]> {
        match self.schedule(g) {
            Some(s) => Arc::clone(s),
            None => dae_segments(&self.profile, g, cache).into(),
        }
    }

    /// The granularities this layer explores, in exploration order.
    pub fn granularities(&self) -> impl Iterator<Item = Granularity> + '_ {
        self.schedules.iter().map(|(g, _)| *g)
    }

    /// Prices one `(g, f)` point of this layer (cached lowering, fresh
    /// machine replay). Equivalent to [`crate::dse::evaluate_point`].
    pub fn evaluate(
        &self,
        g: Granularity,
        hfo: &PllConfig,
        config: &DseConfig,
        power: &Arc<PowerModel>,
    ) -> DsePoint {
        evaluate_schedule(&self.schedule_for(g, &config.cache), g, hfo, config, power)
    }
}

/// Prices one `(g, f)` configuration by replaying a compiled schedule on a
/// fresh machine: memory segments at LFO (with the point's PLL re-locking
/// in the background), compute segments at the point's HFO.
///
/// This is the single pricing kernel behind the DSE; it is bit-identical
/// to lowering freshly and replaying, because segments carry all the
/// information the machine prices.
pub fn evaluate_schedule(
    segments: &[Segment],
    g: Granularity,
    hfo: &PllConfig,
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> DsePoint {
    let hfo_cfg = SysclkConfig::Pll(*hfo);
    let mut machine = Machine::new(hfo_cfg)
        .with_cpu(config.cpu)
        .with_memory(config.memory)
        .with_switch_model(config.switch_model)
        .with_power(Arc::clone(power));
    let mut first_stage_secs = 0.0;
    let mut first_seen = false;
    for seg in segments {
        match seg.class {
            SegmentClass::Memory => {
                machine.switch_clock(config.modes.lfo);
                // Re-program the PLL (if needed) under the memory segment.
                machine.prepare_pll(*hfo);
            }
            SegmentClass::Compute | SegmentClass::Other => {
                machine.switch_clock(hfo_cfg);
            }
        }
        let dt = machine.run_segment(seg);
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

/// Explores the full `(g, f)` grid of one compiled layer.
///
/// Point order matches `dse::explore_layer` exactly (HFO outer,
/// granularity inner), so downstream Pareto fronts are identical.
pub fn explore_compiled(
    layer: &CompiledLayer,
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> Vec<DsePoint> {
    let mut points = Vec::with_capacity(config.modes.hfo.len() * layer.schedules.len());
    for hfo in &config.modes.hfo {
        for (g, segments) in &layer.schedules {
            points.push(evaluate_schedule(segments, *g, hfo, config, power));
        }
    }
    points
}

/// Runs the per-layer DSE sweep for a whole model against the schedule
/// cache, spreading layers across OS threads.
///
/// The sweep is embarrassingly parallel (every point is an independent
/// machine replay of immutable segments), so layers are striped over
/// `available_parallelism` scoped threads (`par_map`) — no extra
/// dependencies, no shared mutable state. Results are returned in layer
/// order and are identical to the sequential sweep.
pub fn explore_model(
    layers: &[CompiledLayer],
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> Vec<Vec<DsePoint>> {
    par_map(layers, usize::MAX, |l| explore_compiled(l, config, power))
}

/// Maps `f` over `items` on `min(available_parallelism, cap, len)` scoped
/// threads and returns the results in input order. Items are striped
/// round-robin (item `i` runs on thread `i % threads`); with one thread
/// (or `cap <= 1`) everything runs inline on the caller's thread.
///
/// This is the crate's one ordered parallel map: the DSE sweep, the
/// planner's shared-grid extractions and the baseline comparison sweep
/// all fan out through it.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    cap: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(cap)
        .min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let f = &f;
    let mut stripes: Vec<std::vec::IntoIter<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    items
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(f)
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel map worker panicked").into_iter())
            .collect()
    });
    (0..items.len())
        .map(|i| stripes[i % threads].next().expect("one result per item"))
        .collect()
}

/// Replays a decision sequence on a fresh machine using the compiled
/// schedules, returning the measured `(latency, energy)` including all
/// inter-layer switching costs.
///
/// # Panics
///
/// Panics if `decisions` is empty or its length differs from `layers` —
/// the callers ([`crate::Planner`] and the pipeline wrappers) validate
/// model shape before replaying.
pub fn replay_decisions(
    layers: &[CompiledLayer],
    decisions: &[LayerDecision],
    config: &DseConfig,
    power: &Arc<PowerModel>,
) -> (f64, Joules) {
    assert_eq!(
        layers.len(),
        decisions.len(),
        "decision sequence does not match the compiled model"
    );
    let first_hfo = SysclkConfig::Pll(decisions[0].point.hfo);
    let mut machine = Machine::new(first_hfo)
        .with_cpu(config.cpu)
        .with_memory(config.memory)
        .with_switch_model(config.switch_model)
        .with_power(Arc::clone(power));
    for (layer, decision) in layers.iter().zip(decisions) {
        let hfo_cfg = SysclkConfig::Pll(decision.point.hfo);
        for seg in layer
            .schedule_for(decision.point.granularity, &config.cache)
            .iter()
        {
            match seg.class {
                SegmentClass::Memory => {
                    machine.switch_clock(config.modes.lfo);
                    // Layer boundaries with an HFO change re-program the
                    // PLL under the staging segment (see
                    // `mcu_sim::Machine::prepare_pll`).
                    machine.prepare_pll(decision.point.hfo);
                }
                SegmentClass::Compute | SegmentClass::Other => {
                    machine.switch_clock(hfo_cfg);
                }
            }
            machine.run_segment(seg);
        }
    }
    (machine.elapsed_secs(), machine.energy())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::evaluate_point;
    use stm32_rcc::Hertz;
    use tinynn::models::vww_sized;

    fn profiles() -> Vec<KernelProfile> {
        let model = vww_sized(32);
        let plan = model.plan().unwrap();
        model
            .layers()
            .zip(plan.iter())
            .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
            .collect()
    }

    #[test]
    fn compiled_schedules_match_fresh_lowering() {
        let cfg = DseConfig::paper();
        for p in profiles() {
            let compiled = CompiledLayer::compile(p.clone(), &cfg);
            for g in compiled.granularities().collect::<Vec<_>>() {
                let fresh = dae_segments(&p, g, &cfg.cache);
                assert_eq!(
                    compiled.schedule(g).unwrap().as_ref(),
                    fresh.as_slice(),
                    "{}: schedule mismatch at {g}",
                    p.name
                );
            }
        }
    }

    #[test]
    fn rest_layers_compile_only_baseline() {
        let cfg = DseConfig::paper();
        for p in profiles() {
            let dae_capable = p.dae_capable();
            let compiled = CompiledLayer::compile(p, &cfg);
            let gs: Vec<_> = compiled.granularities().collect();
            if dae_capable {
                assert_eq!(gs, cfg.granularities);
            } else {
                assert_eq!(gs, vec![Granularity(0)]);
            }
        }
    }

    #[test]
    fn schedule_for_falls_back_outside_compiled_set() {
        let cfg = DseConfig::paper();
        let p = profiles()
            .into_iter()
            .find(|p| p.dae_capable())
            .expect("vww has DAE layers");
        let compiled = CompiledLayer::compile(p.clone(), &cfg);
        let odd = Granularity(7); // not in the paper set
        assert!(compiled.schedule(odd).is_none());
        let via_fallback = compiled.schedule_for(odd, &cfg.cache);
        assert_eq!(via_fallback.as_ref(), dae_segments(&p, odd, &cfg.cache));
    }

    #[test]
    fn compiled_evaluation_is_bit_identical_to_fresh() {
        let cfg = DseConfig::paper();
        let power = Arc::new(cfg.power.clone());
        let f150 = cfg.modes.hfo_at(Hertz::mhz(150)).copied().unwrap();
        for p in profiles() {
            let compiled = CompiledLayer::compile(p.clone(), &cfg);
            for g in [Granularity(0), Granularity(8)] {
                let fresh = evaluate_point(&p, g, &f150, &cfg);
                let cached = compiled.evaluate(g, &f150, &cfg, &power);
                assert_eq!(fresh, cached, "{} diverged at {g}", p.name);
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let cfg = DseConfig::paper();
        let power = Arc::new(cfg.power.clone());
        let layers: Vec<CompiledLayer> = profiles()
            .into_iter()
            .map(|p| CompiledLayer::compile(p, &cfg))
            .collect();
        let parallel = explore_model(&layers, &cfg, &power);
        let sequential: Vec<Vec<DsePoint>> = layers
            .iter()
            .map(|l| explore_compiled(l, &cfg, &power))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn par_map_keeps_input_order_and_respects_the_cap() {
        let items: Vec<usize> = (0..37).collect();
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        for cap in [0, 1, 2, 3, usize::MAX] {
            let mapped = par_map(&items, cap, |&i| (i * i, std::thread::current().id()));
            let squares: Vec<usize> = mapped.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, items.iter().map(|i| i * i).collect::<Vec<_>>());
            let mut threads: Vec<_> = mapped.iter().map(|&(_, id)| id).collect();
            threads.sort_by_key(|id| format!("{id:?}"));
            threads.dedup();
            assert!(threads.len() <= cap.clamp(1, available), "cap {cap}");
            if cap <= 1 || available == 1 {
                // The single-thread path runs inline, spawning nothing.
                assert_eq!(threads, vec![std::thread::current().id()], "cap {cap}");
            }
        }
        assert!(par_map(&[] as &[usize], usize::MAX, |&i| i).is_empty());
    }
}
