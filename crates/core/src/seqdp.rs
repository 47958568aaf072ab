//! Sequence-aware QoS optimization: a layered-graph dynamic program that
//! prices inter-layer PLL re-locks *exactly*.
//!
//! The paper's MCKP formulation (Eq. 2–5) treats layers as independent
//! classes, which silently assumes clock transitions between layers are
//! free. They are not: entering a layer whose HFO differs from the previous
//! layer's requires a PLL re-lock (≈200 µs), partially hidden under the
//! layer's first LFO staging segment when it has one.
//!
//! This module extends the DP state with the *incoming HFO frequency*:
//! `dp[frequency][time-bucket]` per layer, with transitions that add the
//! exact entry overhead when the frequency changes. Complexity grows only
//! by the factor `|F|` (≤ 8 frequencies), staying pseudo-polynomial, and
//! the result needs no replay-and-reserve heuristic: the predicted schedule
//! is feasible by construction (up to the usual ceil-rounding, which is
//! conservative).

use stm32_power::{PowerState, Watts};
use stm32_rcc::Hertz;

use crate::dse::{DseConfig, DsePoint};
use crate::mckp::MckpError;

/// Entry overhead of a point when the previous layer left a *different*
/// PLL configuration locked: the re-lock hides under the first staging
/// segment; whatever does not fit stalls.
pub(crate) fn entry_overhead_secs(point: &DsePoint, config: &DseConfig) -> f64 {
    (config.switch_model.pll_relock_secs() - point.first_stage_secs).max(0.0)
}

/// Power drawn while stalling for a re-lock: SYSCLK runs from the HSE with
/// the target PLL locking in the background.
pub(crate) fn entry_power(point: &DsePoint, config: &DseConfig) -> Watts {
    config.power.power(&PowerState::RunWarmPll {
        sysclk: config.modes.lfo,
        warm_pll: point.hfo,
    })
}

/// Exact re-tally of a backtracked choice sequence: latency and energy
/// with every inter-layer entry overhead priced, independent of the DP's
/// bucketing (shared by the per-call and sweep extraction paths).
pub(crate) fn tally_sequence(
    fronts: &[Vec<DsePoint>],
    choices: Vec<usize>,
    config: &DseConfig,
) -> SequenceSolution {
    let mut total_time = 0.0;
    let mut total_energy = 0.0;
    let mut changes = 0usize;
    let mut prev: Option<Hertz> = None;
    for (front, &c) in fronts.iter().zip(&choices) {
        let p = &front[c];
        total_time += p.latency_secs;
        total_energy += p.energy.as_f64();
        if let Some(prev_f) = prev {
            if prev_f != p.hfo.sysclk() {
                let o = entry_overhead_secs(p, config);
                total_time += o;
                total_energy += entry_power(p, config).as_f64() * o;
                changes += 1;
            }
        }
        prev = Some(p.hfo.sysclk());
    }
    SequenceSolution {
        choices,
        total_time_secs: total_time,
        total_energy,
        frequency_changes: changes,
    }
}

/// A solved sequence-aware selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceSolution {
    /// Chosen item index per layer (into the per-layer fronts).
    pub choices: Vec<usize>,
    /// Predicted total latency including all entry overheads, seconds.
    pub total_time_secs: f64,
    /// Predicted total energy including entry-stall energy, joules.
    pub total_energy: f64,
    /// Number of layer boundaries that change the HFO (and hence re-lock).
    pub frequency_changes: usize,
}

/// Solves the sequence-aware selection problem over per-layer Pareto
/// fronts.
///
/// `fronts[k]` are the candidate points of layer `k`; `idle_power_w` is the
/// gated idle power used for the window-energy objective (items are valued
/// `E − P_idle·t`, as in [`crate::Planner::optimize`]).
///
/// Thin single-budget wrapper over the shared solver core
/// ([`crate::solver`]): the DP runs on the historical budget-relative
/// grid (`scale = budget / resolution`), so results are bit-identical to
/// the pre-sweep implementation. Each budget is a separate solve.
///
/// # Errors
///
/// [`MckpError::InvalidInput`] if `budget_secs` is not positive/finite,
/// `resolution` is zero, or `fronts` is empty;
/// [`MckpError::EmptyClass`] if a layer has no candidates;
/// [`MckpError::Infeasible`] if even the best schedule misses the budget.
pub fn solve_sequence(
    fronts: &[Vec<DsePoint>],
    budget_secs: f64,
    resolution: usize,
    config: &DseConfig,
    idle_power_w: f64,
) -> Result<SequenceSolution, MckpError> {
    crate::solver::solve_sequence_with(
        fronts,
        budget_secs,
        resolution,
        config,
        idle_power_w,
        &mut crate::solver::SolverWorkspace::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dae::Granularity;
    use stm32_power::Joules;
    use stm32_rcc::{ClockSource, PllConfig};

    fn cfg() -> DseConfig {
        DseConfig::paper()
    }

    fn point(t_ms: f64, e_mj: f64, mhz: u64, stage_ms: f64) -> DsePoint {
        let modes = crate::modes::OperatingModes::paper();
        DsePoint {
            granularity: Granularity(if stage_ms > 0.0 { 8 } else { 0 }),
            hfo: *modes.hfo_at(Hertz::mhz(mhz)).expect("in ladder"),
            latency_secs: t_ms * 1e-3,
            energy: Joules::new(e_mj * 1e-3),
            switches: 0,
            first_stage_secs: stage_ms * 1e-3,
        }
    }

    #[test]
    fn single_frequency_matches_plain_sum() {
        let fronts = vec![
            vec![point(1.0, 0.3, 216, 0.0)],
            vec![point(2.0, 0.5, 216, 0.0)],
        ];
        let sol = solve_sequence(&fronts, 10e-3, 1000, &cfg(), 0.0).expect("solves");
        assert_eq!(sol.frequency_changes, 0);
        assert!((sol.total_time_secs - 3e-3).abs() < 1e-12);
        assert!((sol.total_energy - 0.8e-3).abs() < 1e-12);
    }

    #[test]
    fn frequency_change_pays_entry_overhead() {
        // Two layers, each with a single option at different frequencies
        // and no staging: a full re-lock separates them.
        let fronts = vec![
            vec![point(1.0, 0.3, 216, 0.0)],
            vec![point(2.0, 0.2, 150, 0.0)],
        ];
        let sol = solve_sequence(&fronts, 10e-3, 1000, &cfg(), 0.0).expect("solves");
        assert_eq!(sol.frequency_changes, 1);
        assert!(
            (sol.total_time_secs - (3e-3 + 200e-6)).abs() < 1e-9,
            "got {}",
            sol.total_time_secs
        );
    }

    #[test]
    fn staging_hides_the_relock() {
        // The second layer's first staging segment is 300 µs > 200 µs
        // re-lock: the change is free in time.
        let fronts = vec![
            vec![point(1.0, 0.3, 216, 0.0)],
            vec![point(2.0, 0.2, 150, 0.3)],
        ];
        let sol = solve_sequence(&fronts, 10e-3, 1000, &cfg(), 0.0).expect("solves");
        assert_eq!(sol.frequency_changes, 1);
        assert!((sol.total_time_secs - 3e-3).abs() < 1e-9);
    }

    #[test]
    fn dp_avoids_relocks_when_budget_is_tight() {
        // Layer 2 has a cheap-but-different-frequency option and a slightly
        // costlier same-frequency option. With relock time pushing past the
        // budget, the DP must pick the same-frequency option.
        let fronts = vec![
            vec![point(1.0, 0.30, 216, 0.0)],
            vec![point(1.0, 0.20, 150, 0.0), point(1.05, 0.28, 216, 0.0)],
        ];
        let tight = solve_sequence(&fronts, 2.1e-3, 2000, &cfg(), 0.0).expect("solves");
        assert_eq!(
            tight.frequency_changes, 0,
            "tight budget must avoid the re-lock"
        );
        // With a generous budget the cheaper 150 MHz option wins.
        let loose = solve_sequence(&fronts, 5e-3, 2000, &cfg(), 0.0).expect("solves");
        assert_eq!(loose.frequency_changes, 1);
        assert!(loose.total_energy < tight.total_energy);
    }

    #[test]
    fn infeasible_budget_detected() {
        let fronts = vec![vec![point(5.0, 0.1, 216, 0.0)]];
        assert!(matches!(
            solve_sequence(&fronts, 1e-3, 100, &cfg(), 0.0),
            Err(MckpError::Infeasible { .. })
        ));
    }

    #[test]
    fn empty_front_detected() {
        let fronts = vec![vec![point(1.0, 0.1, 216, 0.0)], vec![]];
        assert_eq!(
            solve_sequence(&fronts, 1.0, 100, &cfg(), 0.0),
            Err(MckpError::EmptyClass { class: 1 })
        );
    }

    #[test]
    fn respects_budget_with_many_layers() {
        let modes = crate::modes::OperatingModes::paper();
        let _ = modes;
        let fronts: Vec<Vec<DsePoint>> = (0..20)
            .map(|k| {
                vec![
                    point(1.0, 0.40, 216, 0.0),
                    point(1.5 + 0.01 * k as f64, 0.25, 150, 0.1),
                    point(2.2, 0.18, 108, 0.1),
                ]
            })
            .collect();
        for budget_ms in [21.0, 30.0, 45.0] {
            let sol =
                solve_sequence(&fronts, budget_ms * 1e-3, 2000, &cfg(), 0.012).expect("solves");
            assert!(
                sol.total_time_secs <= budget_ms * 1e-3 + 1e-9,
                "budget {budget_ms} ms violated: {}",
                sol.total_time_secs
            );
        }
    }

    #[test]
    fn pll_config_equality_vs_frequency() {
        // Two points at the same *frequency* never pay entry costs even if
        // granularities differ.
        let a = point(1.0, 0.3, 168, 0.0);
        let mut b = point(1.0, 0.3, 168, 0.2);
        b.granularity = Granularity(4);
        let fronts = vec![vec![a], vec![b]];
        let sol = solve_sequence(&fronts, 10e-3, 1000, &cfg(), 0.0).expect("solves");
        assert_eq!(sol.frequency_changes, 0);
        let _ = PllConfig::new(ClockSource::hse(Hertz::mhz(50)), 25, 168, 2);
    }
}
