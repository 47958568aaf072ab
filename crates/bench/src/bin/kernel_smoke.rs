//! KERNEL-SMOKE — CI gate for the quantized MCKP kernel and incremental
//! re-solve.
//!
//! Deterministic and fast: builds a synthetic MCKP instance, fills it
//! cold, drifts a single class, and asserts that the incremental
//! re-solve (a) refills only the suffix behind the drift — strictly less
//! than a full fill — and (b) answers every budget bit-identically to a
//! cold scratch fill. Exits non-zero on any violation, so CI catches a
//! kernel regression without waiting for the full bench run.
//!
//! Run with: `cargo run --release -p repro-bench --bin kernel_smoke`

use dae_dvfs::{mckp_resweep, mckp_sweep, MckpItem, SolverWorkspace};

fn fail(msg: String) -> ! {
    eprintln!("kernel_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Deterministic synthetic MCKP instance shaped like per-layer Pareto
/// fronts (same family as the solver bench).
fn instance(layers: usize, points: usize) -> Vec<Vec<MckpItem>> {
    (0..layers)
        .map(|k| {
            (1..=points)
                .map(|i| MckpItem {
                    time_secs: 1e-3 * (points + 1 - i) as f64 * (1.0 + k as f64 * 0.07),
                    energy: 1e-4 * i as f64 * (1.0 + k as f64 * 0.05),
                })
                .collect()
        })
        .collect()
}

fn budgets_for(classes: &[Vec<MckpItem>]) -> Vec<f64> {
    let min_time: f64 = classes
        .iter()
        .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
        .sum();
    (0..10)
        .map(|i| min_time * (1.05 + 0.10 * i as f64))
        .collect()
}

fn check_mckp() {
    let classes = instance(24, 8);
    let budgets = budgets_for(&classes);
    let resolution = 2000;
    let drift_class = 12;

    let mut ws = SolverWorkspace::new();
    mckp_sweep(&classes, &budgets, resolution, &mut ws).expect("base fill solves");

    let mut drifted = classes.clone();
    drifted[drift_class][0].energy += 0.41e-6;

    let mut scratch = SolverWorkspace::new();
    let warm = mckp_resweep(&drifted, &budgets, resolution, &mut ws).expect("resweep solves");
    let cold = mckp_sweep(&drifted, &budgets, resolution, &mut scratch).expect("cold fill solves");

    let bound = drifted.len() - drift_class;
    if warm.refilled_classes() > bound {
        fail(format!(
            "mckp: single-class drift at {} refilled {} of {} classes (bound {})",
            drift_class,
            warm.refilled_classes(),
            drifted.len(),
            bound
        ));
    }
    for &budget in &budgets {
        let inc = warm.best_for(budget).expect("feasible by construction");
        let full = cold.best_for(budget).expect("feasible by construction");
        if inc.choices != full.choices
            || inc.total_time_secs.to_bits() != full.total_time_secs.to_bits()
            || inc.total_energy.to_bits() != full.total_energy.to_bits()
        {
            fail(format!(
                "mckp: resweep diverged from full refill at budget {budget}: {inc:?} vs {full:?}"
            ));
        }
    }
    println!(
        "kernel_smoke: mckp ok ({} budgets bit-identical, refilled {}/{} classes)",
        budgets.len(),
        warm.refilled_classes(),
        drifted.len()
    );
}

fn main() {
    check_mckp();
    println!("kernel_smoke: PASS");
}
