//! Property-based tests over the core invariants of every substrate.

use dae_dvfs::{
    dae_forward_depthwise, dae_forward_pointwise, dae_segments, mckp_resweep, mckp_sweep,
    pareto_front, solve_dp, solve_dp_sweep, solve_exhaustive, solve_sequence, DseConfig, DsePoint,
    Granularity, MckpItem, OperatingModes, SolverWorkspace,
};
use mcu_sim::cache::{reuse_hit_ratio, Cache, CacheConfig};
use mcu_sim::{MemoryTiming, MemoryTraffic, OpCounts};
use proptest::prelude::*;
use stm32_power::{EnergyMeter, Joules, Watts};
use stm32_rcc::{flash_wait_states, ClockSource, Hertz, PllConfig};
use tinyengine::cost::UnitGeometry;
use tinyengine::KernelProfile;
use tinynn::layers::{DepthwiseConv2d, PointwiseConv2d};
use tinynn::models::synth;
use tinynn::quant::{QuantParams, QuantizedMultiplier};
use tinynn::{Shape, Tensor};

proptest! {
    // ---- stm32-rcc ------------------------------------------------------

    #[test]
    fn pll_construction_matches_eq1_or_rejects(
        hse_mhz in 1u64..=50,
        m in 1u32..=70,
        n in 40u32..=440,
        p_idx in 0usize..4,
    ) {
        let p = [2u32, 4, 6, 8][p_idx];
        let src = ClockSource::hse(Hertz::mhz(hse_mhz));
        match PllConfig::new(src, m, n, p) {
            Ok(cfg) => {
                // Eq. 1 holds exactly.
                let expected = hse_mhz * 1_000_000 * u64::from(n)
                    / (u64::from(m) * u64::from(p));
                prop_assert_eq!(cfg.sysclk().as_u64(), expected);
                // All datasheet windows hold.
                prop_assert!(cfg.vco_input() >= Hertz::mhz(1));
                prop_assert!(cfg.vco_input() <= Hertz::mhz(2));
                prop_assert!(cfg.vco_output() >= Hertz::mhz(100));
                prop_assert!(cfg.vco_output() <= Hertz::mhz(432));
                prop_assert!(cfg.sysclk() <= Hertz::mhz(216));
            }
            Err(_) => {
                // Rejection must correspond to a violated constraint.
                let vco_in = hse_mhz as f64 / f64::from(m);
                let vco_out = vco_in * f64::from(n);
                let sysclk = vco_out / f64::from(p);
                let valid = (2..=63).contains(&m)
                    && (50..=432).contains(&n)
                    && (1.0..=2.0).contains(&vco_in)
                    && (100.0..=432.0).contains(&vco_out)
                    && sysclk <= 216.0;
                prop_assert!(!valid, "valid config rejected: {m} {n} {p}");
            }
        }
    }

    #[test]
    fn flash_wait_states_monotone(a in 1u64..=216, b in 1u64..=216) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            flash_wait_states(Hertz::mhz(lo)) <= flash_wait_states(Hertz::mhz(hi))
        );
    }

    // ---- stm32-power ----------------------------------------------------

    #[test]
    fn energy_meter_is_additive(
        powers in prop::collection::vec(0.0f64..2.0, 1..20),
        durations in prop::collection::vec(0.0f64..1.0, 1..20),
    ) {
        let mut meter = EnergyMeter::new();
        let mut expected = 0.0;
        let mut time = 0.0;
        for (p, d) in powers.iter().zip(&durations) {
            meter.record("x", Watts::new(*p), *d);
            expected += p * d;
            time += d;
        }
        prop_assert!((meter.total_energy().as_f64() - expected).abs() < 1e-9);
        prop_assert!((meter.total_time() - time).abs() < 1e-9);
    }

    // ---- mcu-sim --------------------------------------------------------

    #[test]
    fn cache_hits_never_exceed_accesses(lines in prop::collection::vec(0u64..2000, 1..500)) {
        let mut cache = Cache::new(CacheConfig::stm32f767());
        for l in lines {
            cache.access_line(l);
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses());
        prop_assert!(s.hit_ratio() >= 0.0 && s.hit_ratio() <= 1.0);
    }

    #[test]
    fn reuse_ratio_bounded_and_monotone(ws1 in 1u64..1_000_000, ws2 in 1u64..1_000_000) {
        let cfg = CacheConfig::stm32f767();
        let (lo, hi) = if ws1 <= ws2 { (ws1, ws2) } else { (ws2, ws1) };
        let r_lo = reuse_hit_ratio(lo, &cfg);
        let r_hi = reuse_hit_ratio(hi, &cfg);
        prop_assert!((0.0..=1.0).contains(&r_lo));
        prop_assert!(r_hi <= r_lo);
    }

    #[test]
    fn memory_traffic_time_scales_down_with_frequency(
        hits in 0u64..10_000,
        sram in 0u64..10_000,
        flash in 0u64..10_000,
    ) {
        let t = MemoryTiming::stm32f767();
        let traffic = MemoryTraffic {
            cache_hits: hits,
            sram_line_fills: sram,
            flash_line_fills: flash,
            sram_uncached: 0,
        };
        let slow = traffic.time(&t, Hertz::mhz(50));
        let fast = traffic.time(&t, Hertz::mhz(216));
        prop_assert!(fast <= slow + 1e-15, "time must not increase with frequency");
    }

    // ---- quantization ---------------------------------------------------

    #[test]
    fn quantized_multiplier_close_to_float(value in 0.0001f64..0.9999, acc in -1_000_000i32..1_000_000) {
        let q = QuantizedMultiplier::from_f64(value);
        let exact = f64::from(acc) * value;
        let got = f64::from(q.apply(acc));
        prop_assert!((got - exact).abs() <= 1.0, "acc {acc} x {value}: {got} vs {exact}");
    }

    #[test]
    fn requantize_always_in_i8_range(acc in any::<i32>()) {
        let q = QuantParams::test_default();
        let v = q.requantize(acc);
        prop_assert!((-128..=127).contains(&i32::from(v)));
    }

    // ---- DAE functional equivalence --------------------------------------

    #[test]
    fn dae_depthwise_equivalence(
        channels in 1usize..12,
        h in 3usize..10,
        g in 1u8..20,
        seed in 0u64..1000,
    ) {
        let name = format!("prop-dw-{seed}");
        let q = QuantParams::from_scales(0.5, 0.05, 3.0);
        let dw = DepthwiseConv2d::new(
            3, 1, 1, channels,
            synth::weights(&name, channels * 9),
            synth::biases(&name, channels),
            q,
        ).expect("geometry consistent");
        let input = Tensor::from_fn(Shape::new(h, h, channels), |y, x, c| {
            (((y * 37 + x * 11 + c * 3 + seed as usize) % 251) as i32 - 125) as i8
        });
        let reference = dw.forward(&input).expect("forward");
        let dae = dae_forward_depthwise(&dw, &input, Granularity(g)).expect("dae");
        prop_assert_eq!(dae, reference);
    }

    #[test]
    fn dae_pointwise_equivalence(
        c_in in 1usize..10,
        c_out in 1usize..10,
        h in 2usize..8,
        g in 1u8..20,
        seed in 0u64..1000,
    ) {
        let name = format!("prop-pw-{seed}");
        let q = QuantParams::from_scales(0.5, 0.05, 3.0);
        let pw = PointwiseConv2d::new(
            c_in, c_out,
            synth::weights(&name, c_in * c_out),
            synth::biases(&name, c_out),
            q,
        ).expect("geometry consistent");
        let input = Tensor::from_fn(Shape::new(h, h, c_in), |y, x, c| {
            (((y * 53 + x * 7 + c * 13 + seed as usize) % 251) as i32 - 125) as i8
        });
        let reference = pw.forward(&input).expect("forward");
        let dae = dae_forward_pointwise(&pw, &input, Granularity(g)).expect("dae");
        prop_assert_eq!(dae, reference);
    }

    // ---- DAE scheduling invariants ---------------------------------------

    #[test]
    fn dae_segments_conserve_macs(
        units in 1u64..128,
        unit_bytes in 16u64..4096,
        macs_per_unit in 1u64..10_000,
        g_idx in 0usize..6,
    ) {
        let g = Granularity::PAPER_SET[g_idx];
        let profile = KernelProfile {
            name: "prop".into(),
            kind: tinynn::LayerKind::Depthwise,
            geometry: UnitGeometry::DepthwiseChannels {
                tensor_lines: (units * unit_bytes).div_ceil(32),
                tensor_bytes: units * unit_bytes,
            },
            units,
            unit_input_bytes: unit_bytes,
            unit_output_bytes: unit_bytes,
            unit_ops: OpCounts { mac: macs_per_unit, ..OpCounts::ZERO },
            weight_walk_ops: OpCounts::ZERO,
            baseline_unroll: 1,
            weight_bytes: 9 * units,
        };
        let cache = CacheConfig::stm32f767();
        let total: u64 = dae_segments(&profile, g, &cache)
            .iter()
            .map(|s| s.ops.mac)
            .sum();
        prop_assert_eq!(total, units * macs_per_unit);
    }

    // ---- Pareto + MCKP ----------------------------------------------------

    #[test]
    fn pareto_front_is_nondominated_and_complete(
        points in prop::collection::vec((1u64..1000, 1u64..1000), 1..60),
    ) {
        let pll = PllConfig::new(ClockSource::hse(Hertz::mhz(50)), 25, 216, 2)
            .expect("valid reference PLL");
        let input: Vec<DsePoint> = points
            .iter()
            .map(|&(t, e)| DsePoint {
                granularity: Granularity(0),
                hfo: pll,
                latency_secs: t as f64 * 1e-3,
                energy: Joules::new(e as f64 * 1e-3),
                switches: 0,
                first_stage_secs: 0.0,
            })
            .collect();
        let front = pareto_front(input.clone());
        prop_assert!(!front.is_empty());
        // 1. Mutually non-dominated, sorted.
        for w in front.windows(2) {
            prop_assert!(w[0].latency_secs < w[1].latency_secs);
            prop_assert!(w[0].energy > w[1].energy);
        }
        // 2. Complete: every input point is dominated-or-equal by some
        // front member.
        for p in &input {
            prop_assert!(front.iter().any(|f| f.latency_secs <= p.latency_secs
                && f.energy <= p.energy));
        }
    }

    #[test]
    fn mckp_dp_feasible_and_near_optimal(
        class_sizes in prop::collection::vec(1usize..5, 1..6),
        seed in 0u64..500,
    ) {
        let mut rng = synth::SplitMix64::new(seed);
        let classes: Vec<Vec<MckpItem>> = class_sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| MckpItem {
                        time_secs: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                        energy: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                    })
                    .collect()
            })
            .collect();
        let min_time: f64 = classes
            .iter()
            .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
            .sum();
        let budget = min_time * 1.7 + 0.01;
        let resolution = 4000;
        let dp = solve_dp(&classes, budget, resolution).expect("feasible by construction");
        prop_assert!(dp.total_time_secs <= budget + 1e-9, "DP result must be feasible");
        // Optimality within the discretization bound.
        let slack = classes.len() as f64 * budget / resolution as f64;
        if budget - slack > min_time {
            let ex = solve_exhaustive(&classes, budget - slack).expect("feasible");
            prop_assert!(dp.total_energy <= ex.total_energy + 1e-9);
        }
    }

    // ---- solver core: multi-budget sweeps --------------------------------

    #[test]
    fn dp_sweep_matches_per_call_within_discretization_bound(
        class_sizes in prop::collection::vec(1usize..5, 1..5),
        seed in 0u64..300,
        budget_factors in prop::collection::vec(10u64..200, 1..5),
        resolution in 100usize..500,
        edge_bucket in 0usize..300,
    ) {
        let mut rng = synth::SplitMix64::new(seed);
        let classes: Vec<Vec<MckpItem>> = class_sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| MckpItem {
                        time_secs: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                        energy: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                    })
                    .collect()
            })
            .collect();
        let min_time: f64 = classes
            .iter()
            .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
            .sum();
        // Budgets ≥ 1.1 × the feasibility floor so ceil-rounding cannot
        // push the fastest selection past any budget at these resolutions.
        let mut budgets: Vec<f64> = budget_factors
            .iter()
            .map(|&f| min_time * (1.1 + f as f64 * 1e-2))
            .collect();
        // One budget sitting *exactly* on a bucket edge of the shared
        // grid: the grid's scale depends only on the smallest budget, so
        // appending a larger edge-aligned budget leaves the scale intact.
        let scale = budgets.iter().cloned().fold(f64::INFINITY, f64::min) / resolution as f64;
        budgets.push(scale * (resolution + edge_bucket) as f64);

        let swept = solve_dp_sweep(&classes, &budgets, resolution).expect("batch is valid");
        prop_assert_eq!(swept.len(), budgets.len());
        for (sol, &budget) in swept.iter().zip(&budgets) {
            let sol = sol.as_ref().expect("feasible by construction");
            let per_call = solve_dp(&classes, budget, resolution).expect("feasible");
            // Feasible in real time (up to the solver's float rounding).
            prop_assert!(sol.total_time_secs <= budget * (1.0 + 1e-9) + 1e-12);
            // Both answers lie in [OPT(B), OPT(B − n·B/resolution)] — the
            // per-call grid is the coarser of the two.
            let slack = classes.len() as f64 * budget / resolution as f64;
            let opt = solve_exhaustive(&classes, budget).expect("feasible");
            prop_assert!(sol.total_energy >= opt.total_energy - 1e-9);
            prop_assert!(per_call.total_energy >= opt.total_energy - 1e-9);
            if budget - slack > min_time {
                let opt_tight = solve_exhaustive(&classes, budget - slack).expect("feasible");
                prop_assert!(
                    sol.total_energy <= opt_tight.total_energy + 1e-9,
                    "sweep {} worse than shrunken-budget optimum {}",
                    sol.total_energy,
                    opt_tight.total_energy
                );
                prop_assert!(per_call.total_energy <= opt_tight.total_energy + 1e-9);
            }
        }
    }

    // ---- incremental re-solve ≡ full refill ------------------------------

    #[test]
    fn mckp_resweep_after_mutation_matches_full_refill_bit_for_bit(
        class_sizes in prop::collection::vec(1usize..5, 2..6),
        seed in 0u64..500,
        budget_factors in prop::collection::vec(10u64..200, 1..4),
        resolution in 200usize..800,
        class_idx in 0usize..8,
        mutation in 0usize..5,
    ) {
        let mut rng = synth::SplitMix64::new(seed);
        let mut classes: Vec<Vec<MckpItem>> = class_sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| MckpItem {
                        time_secs: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                        energy: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                    })
                    .collect()
            })
            .collect();
        let min_time: f64 = classes
            .iter()
            .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
            .sum();
        let budgets: Vec<f64> = budget_factors
            .iter()
            .map(|&f| min_time * (1.1 + f as f64 * 1e-2))
            .collect();

        // Prime the workspace checkpoints with a full fill of the base
        // instance, remembering the exact shared-grid scale.
        let mut ws = SolverWorkspace::new();
        let scale = mckp_sweep(&classes, &budgets, resolution, &mut ws)
            .expect("base sweep is valid")
            .scale();

        // One mutation confined to class `j`.
        let nclasses = classes.len();
        let j = class_idx % nclasses;
        match mutation {
            0 => classes[j][0].energy += 0.373e-3,
            // Push the quantized weight across at least two bucket
            // boundaries of the (unchanged) shared grid:
            // ceil((t + 2·scale)/scale) ≥ ceil(t/scale) + 2.
            1 => classes[j][0].time_secs += 2.0 * scale,
            2 => {
                // Class shrink (energy nudge when already a singleton).
                if classes[j].len() > 1 {
                    classes[j].pop();
                } else {
                    classes[j][0].energy += 0.211e-3;
                }
            }
            3 => classes[j].push(MckpItem {
                time_secs: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
                energy: (rng.next_u64() % 1000 + 1) as f64 * 1e-3,
            }),
            _ => {} // no drift at all
        }

        // Incremental re-solve on the warm workspace vs a cold full fill.
        let mut scratch = SolverWorkspace::new();
        let warm = mckp_resweep(&classes, &budgets, resolution, &mut ws)
            .expect("resweep is valid");
        let cold = mckp_sweep(&classes, &budgets, resolution, &mut scratch)
            .expect("scratch sweep is valid");

        // Incremental cost bound: only the suffix from the mutated class
        // on refills (nothing at all when nothing drifted).
        if mutation == 4 {
            prop_assert_eq!(warm.refilled_classes(), 0);
        } else {
            prop_assert!(
                warm.refilled_classes() <= nclasses - j,
                "mutating class {} of {} refilled {} classes",
                j,
                nclasses,
                warm.refilled_classes()
            );
        }

        for &budget in &budgets {
            match (warm.best_for(budget), cold.best_for(budget)) {
                (Ok(inc), Ok(full)) => {
                    prop_assert_eq!(&inc.choices, &full.choices);
                    prop_assert_eq!(
                        inc.total_time_secs.to_bits(),
                        full.total_time_secs.to_bits()
                    );
                    prop_assert_eq!(
                        inc.total_energy.to_bits(),
                        full.total_energy.to_bits()
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "warm {a:?} vs cold {b:?} disagree"),
            }
        }
    }
}

/// Brute-force sequence cost of a choice vector: per-item latency/energy
/// plus a full entry overhead whenever consecutive HFO frequencies differ
/// (matching `seqdp`'s cost model with relock time reduced by the item's
/// first staging segment).
fn sequence_cost(fronts: &[Vec<DsePoint>], choices: &[usize], config: &DseConfig) -> (f64, f64) {
    let relock = config.switch_model.pll_relock_secs();
    let mut t = 0.0;
    let mut e = 0.0;
    let mut prev: Option<stm32_rcc::Hertz> = None;
    for (front, &c) in fronts.iter().zip(choices) {
        let p = &front[c];
        t += p.latency_secs;
        e += p.energy.as_f64();
        if let Some(pf) = prev {
            if pf != p.hfo.sysclk() {
                let o = (relock - p.first_stage_secs).max(0.0);
                t += o;
                let stall_power = config.power.power(&stm32_power::PowerState::RunWarmPll {
                    sysclk: config.modes.lfo,
                    warm_pll: p.hfo,
                });
                e += stall_power.as_f64() * o;
            }
        }
        prev = Some(p.hfo.sysclk());
    }
    (t, e)
}

proptest! {
    #[test]
    fn sequence_dp_matches_brute_force_on_tiny_instances(
        layer_specs in prop::collection::vec(
            prop::collection::vec((1u64..40, 1u64..40, 0usize..3, 0u64..3), 1..3),
            1..4,
        ),
        budget_factors in prop::collection::vec(0u64..150, 1..4),
    ) {
        let config = DseConfig::paper();
        let modes = OperatingModes::fig4();
        let mhz = [100u64, 168, 216];
        let fronts: Vec<Vec<DsePoint>> = layer_specs
            .iter()
            .map(|items| {
                items
                    .iter()
                    .map(|&(t, e, f_idx, stage)| DsePoint {
                        granularity: Granularity(if stage > 0 { 8 } else { 0 }),
                        hfo: *modes
                            .hfo_at(stm32_rcc::Hertz::mhz(mhz[f_idx]))
                            .expect("ladder frequency"),
                        latency_secs: t as f64 * 1e-4,
                        energy: Joules::new(e as f64 * 1e-5),
                        switches: 0,
                        first_stage_secs: stage as f64 * 1e-4,
                    })
                    .collect()
            })
            .collect();
        let min_time: f64 = fronts
            .iter()
            .map(|f| f.iter().map(|p| p.latency_secs).fold(f64::INFINITY, f64::min))
            .sum();

        // Brute force: the exact (time, energy) of every choice vector,
        // under the same window-adjusted objective (idle power 0 keeps it
        // simple: objective = raw energy).
        let mut outcomes = Vec::new();
        let mut choices = vec![0usize; fronts.len()];
        'outer: loop {
            outcomes.push(sequence_cost(&fronts, &choices, &config));
            let mut k = 0;
            loop {
                if k == fronts.len() {
                    break 'outer;
                }
                choices[k] += 1;
                if choices[k] < fronts[k].len() {
                    break;
                }
                choices[k] = 0;
                k += 1;
            }
        }
        // The cheapest schedule finishing within `limit`, if any does.
        let optimum = |limit: f64| {
            outcomes
                .iter()
                .filter(|&&(t, _)| t <= limit)
                .map(|&(_, e)| e)
                .reduce(f64::min)
        };

        let budget = min_time * 2.0 + fronts.len() as f64 * 250e-6;
        let margin = (fronts.len() + 1) as f64 * budget / 8000.0;
        let dp = solve_sequence(&fronts, budget, 8000, &config, 0.0);
        match (optimum(budget), dp) {
            (Some(opt), Ok(sol)) => {
                prop_assert!(sol.total_time_secs <= budget + 1e-9);
                // DP is optimal up to discretization (ceil-rounding may
                // exclude boundary selections, never admit worse ones
                // below the optimum).
                prop_assert!(
                    sol.total_energy >= opt - 1e-12,
                    "DP beat brute force: {} < {opt}",
                    sol.total_energy
                );
                // Re-check: brute force restricted to the shrunken budget.
                if let Some(s) = optimum(budget - margin) {
                    prop_assert!(
                        sol.total_energy <= s + 1e-9,
                        "DP {} worse than shrunken-budget optimum {s}",
                        sol.total_energy
                    );
                }
            }
            (None, Err(_)) => {} // both infeasible: consistent
            (Some(_), Err(e)) => {
                // The DP may miss boundary-exact selections; only fail if
                // the brute-force optimum had real slack.
                let t = outcomes.iter().map(|&(t, _)| t).fold(f64::INFINITY, f64::min);
                prop_assert!(
                    t > budget - margin,
                    "DP infeasible ({e}) though brute force fits with slack: {t} vs {budget}"
                );
            }
            (None, Ok(sol)) => {
                prop_assert!(false, "DP found {sol:?} where brute force found nothing");
            }
        }

        // Every budget below clears the all-fastest schedule including a
        // full re-lock at every boundary, so each per-call solve is
        // feasible by construction and lies in
        // [OPT(B), OPT(B − (n+1)·B/resolution)].
        let resolution = 4000;
        for &f in &budget_factors {
            let budget = min_time * (1.5 + f as f64 * 1e-2) + fronts.len() as f64 * 250e-6;
            let sol = solve_sequence(&fronts, budget, resolution, &config, 0.0)
                .expect("feasible by construction");
            prop_assert!(sol.total_time_secs <= budget * (1.0 + 1e-9) + 1e-12);
            let opt = optimum(budget).expect("feasible by construction");
            prop_assert!(sol.total_energy >= opt - 1e-12);
            let slack = (fronts.len() + 1) as f64 * budget / resolution as f64;
            if let Some(tight) = optimum(budget - slack) {
                prop_assert!(
                    sol.total_energy <= tight + 1e-9,
                    "per-call {} worse than shrunken-budget optimum {tight}",
                    sol.total_energy
                );
            }
        }
    }
}

// ---- plan artifacts ---------------------------------------------------

/// Composes an awkward but finite f64 from integer raw material:
/// `mantissa × 10^(exp-20)`, covering sub-microsecond latencies up to
/// astronomically scaled values, none of them round decimals.
fn tricky_f64(mantissa: u64, exp: usize) -> f64 {
    (mantissa as f64) * 10f64.powi(exp as i32 - 20)
}

proptest! {
    #[test]
    fn plan_artifact_json_round_trip_is_bit_identical(
        layer_specs in prop::collection::vec(
            (1u64..(1u64 << 53), 0usize..40, 0u64..(1u64 << 50), 0usize..6, 0usize..3, 0u64..1000),
            1..12,
        ),
        qos_mantissa in 1u64..(1u64 << 53),
        model_fp in any::<i32>(),
        config_fp in any::<i32>(),
    ) {
        use dae_dvfs::{DeploymentPlan, LayerDecision, PlanArtifact};
        use tinynn::LayerKind;

        let modes = OperatingModes::paper();
        let kinds = [LayerKind::Depthwise, LayerKind::Pointwise, LayerKind::Rest];
        let decisions: Vec<LayerDecision> = layer_specs
            .iter()
            .enumerate()
            .map(|(i, &(lat_m, lat_e, energy_m, g_idx, kind_idx, switches))| {
                LayerDecision {
                    name: format!("layer-{i} \"odd\\name\""),
                    kind: kinds[kind_idx],
                    point: DsePoint {
                        granularity: Granularity::PAPER_SET[g_idx],
                        hfo: modes.hfo[i % modes.hfo.len()],
                        latency_secs: tricky_f64(lat_m, lat_e),
                        energy: Joules::new(tricky_f64(energy_m, lat_e % 25)),
                        switches,
                        first_stage_secs: tricky_f64(lat_m / 7 + 1, lat_e / 2),
                    },
                }
            })
            .collect();
        let plan = DeploymentPlan {
            model: "prop-model-π".into(),
            qos_secs: tricky_f64(qos_mantissa, 21),
            predicted_latency_secs: decisions.iter().map(|d| d.point.latency_secs).sum(),
            predicted_energy: Joules::new(
                decisions.iter().map(|d| d.point.energy.as_f64()).sum(),
            ),
            decisions,
        };

        let artifact = PlanArtifact::from_plan(
            &plan,
            "prop-target",
            model_fp as u32 as u64,
            config_fp as u32 as u64,
        );
        let json = artifact.to_json();
        let parsed = PlanArtifact::from_json(&json).expect("artifact JSON parses back");
        prop_assert_eq!(&parsed, &artifact);

        let back = parsed.to_plan_unchecked().expect("artifact decodes");
        prop_assert_eq!(&back.model, &plan.model);
        prop_assert_eq!(back.qos_secs.to_bits(), plan.qos_secs.to_bits());
        prop_assert_eq!(
            back.predicted_latency_secs.to_bits(),
            plan.predicted_latency_secs.to_bits()
        );
        prop_assert_eq!(
            back.predicted_energy.as_f64().to_bits(),
            plan.predicted_energy.as_f64().to_bits()
        );
        prop_assert_eq!(back.decisions.len(), plan.decisions.len());
        for (b, a) in back.decisions.iter().zip(&plan.decisions) {
            prop_assert_eq!(b, a);
            // PartialEq admits -0.0 == 0.0; pin the exact bits too.
            prop_assert_eq!(
                b.point.latency_secs.to_bits(),
                a.point.latency_secs.to_bits()
            );
            prop_assert_eq!(
                b.point.energy.as_f64().to_bits(),
                a.point.energy.as_f64().to_bits()
            );
            prop_assert_eq!(
                b.point.first_stage_secs.to_bits(),
                a.point.first_stage_secs.to_bits()
            );
        }
    }
}

// ---- compiled schedule cache -----------------------------------------

proptest! {
    #[test]
    fn compiled_schedules_match_fresh_lowering(
        g in 0u8..=24,
        size_kb_idx in 0usize..5,
        ways_idx in 0usize..3,
        layer_idx in 0usize..32,
    ) {
        use dae_dvfs::CompiledLayer;

        let cache = CacheConfig {
            size_bytes: [4u32, 8, 16, 32, 64][size_kb_idx] * 1024,
            line_bytes: 32,
            ways: [2u32, 4, 8][ways_idx],
        };
        let mut config = DseConfig::paper();
        config.cache = cache;
        // Make the arbitrary granularity part of the compiled universe.
        let g = Granularity(g);
        if !config.granularities.contains(&g) {
            config.granularities.push(g);
        }

        let model = tinynn::models::vww_sized(32);
        let plan = model.plan().expect("plan resolves");
        let profiles: Vec<KernelProfile> = model
            .layers()
            .zip(plan.iter())
            .map(|(nl, info)| tinyengine::layer_profile(&nl.layer, info))
            .collect();
        let profile = &profiles[layer_idx % profiles.len()];

        let compiled = CompiledLayer::compile(profile.clone(), &config);
        let fresh = dae_segments(profile, g, &cache);
        if profile.dae_capable() {
            // In the compiled universe: cached slice must equal the fresh
            // lowering element-wise.
            let cached = compiled.schedule(g).expect("g was added to the universe");
            prop_assert_eq!(cached.as_ref(), fresh.as_slice());
        } else {
            // Rest layers only compile the baseline schedule; the fallback
            // path must still agree with a fresh lowering.
            prop_assert!(compiled.schedule(Granularity(0)).is_some());
        }
        let via_fallback = compiled.schedule_for(g, &cache);
        prop_assert_eq!(via_fallback.as_ref(), fresh.as_slice());
    }
}

// ---- serving byte-identity -------------------------------------------

/// The one planner shared by every case of the serving byte-identity
/// property: planner construction dominates the per-case cost, and the
/// property is about the serving paths, not the planner.
fn serving_planner() -> std::sync::Arc<dae_dvfs::Planner> {
    use std::sync::{Arc, OnceLock};
    static PLANNER: OnceLock<Arc<dae_dvfs::Planner>> = OnceLock::new();
    PLANNER
        .get_or_init(|| {
            let model = tinynn::models::vww_sized(32);
            Arc::new(
                dae_dvfs::Planner::for_target(dae_dvfs::Stm32F767Target::paper(), &model)
                    .expect("planner builds"),
            )
        })
        .clone()
}

proptest! {
    /// Every way the service can answer — post-solve write-through,
    /// warm in-memory hit on the inline fast path, and a registry load
    /// after a restart — must hand back cached bytes identical to a
    /// fresh `DeploymentPlan::to_artifact(..).to_json()` rendering of
    /// the plan it carries. This is the zero-serialization contract:
    /// the bytes rendered once at solve time *are* the canonical
    /// serialization, not an approximation of it.
    #[test]
    fn served_bytes_are_the_fresh_artifact_rendering_on_every_path(
        steps in prop::collection::vec(2u8..19, 1..4),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use dae_dvfs::{PlanRegistry, PlanRequest, PlanService, ServedPlan, ServiceConfig};

        // Each case spins up two services and a real on-disk registry;
        // six sampled inputs cover the property, 128 would just burn CI.
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        if case >= 6 {
            return;
        }
        let planner = serving_planner();
        let requests: Vec<PlanRequest> = steps
            .iter()
            .map(|&s| PlanRequest::slack(0.05 * f64::from(s)))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "dae-dvfs-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = |served: &ServedPlan| served.plan().to_artifact(&planner).to_json().into_bytes();

        // First life: cold solves (the write-through path) and warm
        // repeats (the inline fast path).
        let mut service = PlanService::new(ServiceConfig::default()).expect("config validates");
        let key = service.register(planner.clone());
        service
            .attach_registry(PlanRegistry::open(&dir).expect("registry opens"))
            .expect("empty registry validates");
        let cold_bytes = service.run(|svc| {
            let cold: Vec<ServedPlan> = requests
                .iter()
                .map(|r| svc.plan_served(key, r).expect("cold request solves"))
                .collect();
            for served in &cold {
                prop_assert_eq!(&**served.bytes(), fresh(served).as_slice());
            }
            for (request, cold) in requests.iter().zip(&cold) {
                let hit = svc.plan_served(key, request).expect("warm hit answers");
                prop_assert_eq!(hit.bytes(), cold.bytes());
                prop_assert_eq!(&**hit.bytes(), fresh(&hit).as_slice());
            }
            cold.iter().map(|s| s.bytes().to_vec()).collect::<Vec<_>>()
        });

        // Second life: the LRU is gone, only the registry carries state.
        // Every answer must come off disk — and still render identically.
        let mut reopened = PlanService::new(ServiceConfig::default()).expect("config validates");
        let key = reopened.register(planner.clone());
        reopened
            .attach_registry(PlanRegistry::open(&dir).expect("registry reopens"))
            .expect("written artifacts re-validate");
        reopened.run(|svc| {
            for (request, cold) in requests.iter().zip(&cold_bytes) {
                let loaded = svc.plan_served(key, request).expect("registry hit answers");
                prop_assert_eq!(&**loaded.bytes(), cold.as_slice());
                prop_assert_eq!(&**loaded.bytes(), fresh(&loaded).as_slice());
            }
        });
        prop_assert_eq!(
            reopened.stats().batches,
            0,
            "the reopened service must answer from the registry, not solve"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- receipt plan-hash stability -------------------------------------

proptest! {
    /// A receipt's `plan_hash` is a bit-identity pin: on every serving
    /// path — cold solve, warm in-memory hit, registry load after a
    /// restart — it must equal both the FNV-1a of the bytes actually
    /// served *and* the FNV-1a of a fresh
    /// `DeploymentPlan::to_artifact(..).to_json()` rendering of the plan
    /// those bytes carry. Together with the byte-identity property above
    /// this pins the receipt contract: for one canonical request, every
    /// path, restart and machine reports one hash.
    #[test]
    fn receipt_plan_hash_pins_the_served_bytes_on_every_path(
        steps in prop::collection::vec(2u8..19, 1..4),
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use dae_dvfs::{obs, PlanRegistry, PlanRequest, PlanService, ServedPlan, ServiceConfig};

        // Same budget rationale as the byte-identity property: each case
        // spins up two services and an on-disk registry.
        static CASE: AtomicU64 = AtomicU64::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        if case >= 6 {
            return;
        }
        let planner = serving_planner();
        let requests: Vec<PlanRequest> = steps
            .iter()
            .map(|&s| PlanRequest::slack(0.05 * f64::from(s)))
            .collect();
        let dir = std::env::temp_dir().join(format!(
            "dae-dvfs-receipt-prop-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh_hash = |served: &ServedPlan| {
            obs::plan_hash(served.plan().to_artifact(&planner).to_json().as_bytes())
        };

        // First life: cold solves, then warm repeats of the same keys.
        let mut service = PlanService::new(ServiceConfig::default()).expect("config validates");
        let key = service.register(planner.clone());
        service
            .attach_registry(PlanRegistry::open(&dir).expect("registry opens"))
            .expect("empty registry validates");
        let cold_hashes = service.run(|svc| {
            let mut cold_hashes = Vec::new();
            for request in &requests {
                let (served, receipt) =
                    svc.plan_receipted(key, request).expect("cold request solves");
                prop_assert_eq!(receipt.plan_hash, obs::plan_hash(served.bytes()));
                prop_assert_eq!(receipt.plan_hash, fresh_hash(&served));
                cold_hashes.push((receipt.fingerprint(), receipt.plan_hash));
            }
            for (request, (fingerprint, hash)) in requests.iter().zip(&cold_hashes) {
                let (served, receipt) =
                    svc.plan_receipted(key, request).expect("warm hit answers");
                prop_assert_eq!(receipt.fingerprint(), *fingerprint);
                prop_assert_eq!(receipt.plan_hash, *hash);
                prop_assert_eq!(receipt.plan_hash, obs::plan_hash(served.bytes()));
            }
            cold_hashes
        });

        // Second life: only the registry carries state; the receipts off
        // the disk tier must report the cold hashes bit-for-bit.
        let mut reopened = PlanService::new(ServiceConfig::default()).expect("config validates");
        let key = reopened.register(planner.clone());
        reopened
            .attach_registry(PlanRegistry::open(&dir).expect("registry reopens"))
            .expect("written artifacts re-validate");
        reopened.run(|svc| {
            for (request, (fingerprint, hash)) in requests.iter().zip(&cold_hashes) {
                let (served, receipt) =
                    svc.plan_receipted(key, request).expect("registry hit answers");
                prop_assert_eq!(receipt.fingerprint(), *fingerprint);
                prop_assert_eq!(receipt.plan_hash, *hash);
                prop_assert_eq!(receipt.plan_hash, obs::plan_hash(served.bytes()));
                prop_assert_eq!(receipt.plan_hash, fresh_hash(&served));
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---- the JSON parser ----------------------------------------------------

/// Maps a draw onto a character from one of the classes the escaper and
/// the parser treat differently: control characters, `"`, `\`,
/// printable ASCII, 2- and 3-byte UTF-8, and the astral plane (a
/// surrogate pair in `\u` form).
fn json_char(class: u8, code: u32) -> char {
    let pick =
        |lo: u32, hi: u32| char::from_u32(lo + code % (hi - lo)).expect("no surrogates in range");
    match class {
        0 => pick(0, 0x20),
        1 => '"',
        2 => '\\',
        3 => pick(0x20, 0x7f),
        4 => pick(0x80, 0xd800),
        5 => pick(0xe000, 0x1_0000),
        _ => pick(0x1_0000, 0x11_0000),
    }
}

fn json_string(chars: &[(u8, u32)]) -> String {
    chars
        .iter()
        .map(|&(class, code)| json_char(class, code))
        .collect()
}

/// Whether `s` lies inside `text`'s bytes, i.e. was borrowed, not copied.
fn borrowed_from(text: &str, s: &str) -> bool {
    text.as_bytes().as_ptr_range().contains(&s.as_ptr())
}

proptest! {
    /// Whatever the writer escapes, the parser reads back: as a key and as
    /// a value, and again when every character is written as `\u` escapes.
    #[test]
    fn json_escaped_strings_round_trip(
        chars in prop::collection::vec((0u8..7, any::<u32>()), 0..24),
    ) {
        use dae_dvfs::artifact::json::{self, Value};
        use std::borrow::Cow;

        let s = json_string(&chars);
        let mut text = String::new();
        json::compact(&mut text, |o| {
            o.str(&s, &s);
        });
        let parsed = json::parse(&text).expect("the writer's output parses");
        prop_assert_eq!(
            &parsed,
            &Value::Obj(vec![(Cow::Borrowed(s.as_str()), Value::Str(Cow::Borrowed(&s)))])
        );

        let mut escaped = String::from("\"");
        for unit in s.encode_utf16() {
            escaped.push_str(&format!("\\u{unit:04x}"));
        }
        escaped.push('"');
        let parsed = json::parse(&escaped).expect("\\u escapes parse");
        prop_assert_eq!(parsed, Value::Str(Cow::Borrowed(&s)));
    }

    /// Escape-free strings, keys and numbers are slices of the parsed
    /// text: the zero-copy path that keeps a registry hit allocation-light.
    #[test]
    fn json_escape_free_text_is_borrowed(
        key in prop::collection::vec((3u8..7, any::<u32>()), 0..16),
        value in prop::collection::vec((3u8..7, any::<u32>()), 0..16),
        number in any::<u64>(),
        float in -1e9f64..1e9,
    ) {
        use dae_dvfs::artifact::json::{self, Value};
        use std::borrow::Cow;

        let plain = |chars: &[(u8, u32)]| json_string(chars).replace(['"', '\\'], "_");
        let (key, value) = (plain(&key), plain(&value));
        let mut text = String::new();
        json::compact(&mut text, |o| {
            o.str(&key, &value).u64("n", number).f64("x", float);
        });
        let parsed = json::parse(&text).expect("parses");
        let Value::Obj(fields) = &parsed else {
            panic!("expected an object, got {parsed:?}");
        };
        prop_assert_eq!(fields.len(), 3);
        let (k, v) = &fields[0];
        prop_assert!(matches!(k, Cow::Borrowed(b) if *b == key && borrowed_from(&text, b)));
        prop_assert!(matches!(v, Value::Str(Cow::Borrowed(b)) if *b == value && borrowed_from(&text, b)));
        for (name, expected) in [("n", number.to_string()), ("x", float.to_string())] {
            let Some((_, Value::Num(raw))) = fields.iter().find(|(k, _)| k == name) else {
                panic!("{name} missing from {parsed:?}");
            };
            prop_assert_eq!(*raw, expected.as_str());
            prop_assert!(borrowed_from(&text, raw));
        }
        let obj = parsed.as_object("doc").expect("object");
        prop_assert_eq!(obj.get_u64("n").expect("u64"), number);
        prop_assert_eq!(obj.get_f64("x").expect("f64").to_bits(), float.to_bits());
    }
}

#[test]
fn json_keys_written_with_escapes_match_object_get() {
    use dae_dvfs::artifact::json::{self, Value};
    use std::borrow::Cow;

    // Through the writer: a key that needs escaping finds its field.
    const ODD: &str = "pl\"an\\ner\n\u{1}";
    let mut text = String::new();
    json::compact(&mut text, |o| {
        o.str(ODD, "vww").u64("n", 1);
    });
    let parsed = json::parse(&text).expect("parses");
    let obj = parsed.as_object("doc").expect("object");
    assert_eq!(obj.get_str(ODD).expect("escaped key found"), "vww");

    // Through `\u` escapes a writer would never emit: the decoded key
    // matches, and the escaped value is an owned copy of the decoded text.
    let parsed = json::parse(r#"{"\u0070lanner": "v\u0077w", "n": 2}"#).expect("parses");
    let obj = parsed.as_object("doc").expect("object");
    assert_eq!(obj.get_str("planner").expect("decoded key found"), "vww");
    assert!(matches!(obj.get_cow("planner"), Ok(Cow::Owned(s)) if s == "vww"));
    assert_eq!(obj.get_u64("n").expect("u64"), 2);
    assert!(matches!(obj.get("n"), Ok(Value::Num("2"))));
}
