//! Cross-target planning: the same model optimized for two boards, with
//! plans exported as versioned artifacts and re-imported for deployment.
//!
//! Demonstrates the three pieces the target abstraction adds:
//!
//! 1. [`Planner::for_target`] with the paper's [`Stm32F767Target`] and a
//!    parameterized [`GenericCortexMTarget`] (slower ladder, smaller
//!    cache, leaner power, slower flash);
//! 2. the typed [`PlanRequest`] surface;
//! 3. [`PlanArtifact`] round-trips: optimize here, serialize, validate and
//!    deploy "elsewhere" (a fresh planner standing in for another
//!    process) — including the typed rejection when the artifact and the
//!    receiving platform disagree.
//!
//! Run with: `cargo run --release --example cross_target`

use dae_dvfs::artifact::json;
use dae_dvfs::{
    DaeDvfsError, DeploymentPlan, GenericCortexMTarget, OperatingModes, PlanArtifact, PlanRequest,
    Planner, Stm32F767Target,
};
use mcu_sim::cache::CacheConfig;
use mcu_sim::MemoryTiming;
use stm32_power::{PowerModel, Watts};
use stm32_rcc::{Hertz, WaitStateLadder};
use tinynn::models::vww;

/// A battery-lean Cortex-M board: 25 MHz crystal, 75–150 MHz ladder,
/// 8 KB / 2-way cache, slower flash, smaller power envelope.
fn lean_board() -> GenericCortexMTarget {
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
    GenericCortexMTarget::new("cortex-m-lean")
        .with_modes(modes)
        .with_cache(CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            ways: 2,
        })
        .with_power(
            PowerModel::nucleo_f767zi()
                .with_static_power(Watts::milliwatts(12.0))
                .with_core_w_per_hz(0.6e-9)
                .with_clock_gated_power(Watts::milliwatts(8.0)),
        )
        .with_memory(
            MemoryTiming::stm32f767().with_flash_ladder(WaitStateLadder::new(Hertz::mhz(25), 9)),
        )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = vww();
    let request = PlanRequest::slack(0.30);
    let mut summary_rows = Vec::new();

    println!("planning {} on two targets at 30% slack\n", model.name);
    let planners = [
        Planner::for_target(Stm32F767Target::paper(), &model)?,
        Planner::for_target(lean_board(), &model)?,
    ];
    let mut artifacts = Vec::new();
    for planner in &planners {
        let target_id = planner.target().id().to_string();
        let baseline = planner.baseline_latency()?;
        let plan = planner.plan(&request)?;
        let report = planner.deploy(&plan)?;
        println!(
            "{target_id:>12}: baseline {:.2} ms @ {} MHz ladder top, \
             plan {:.2} ms / {:.3} mJ window energy",
            baseline * 1e3,
            planner.config().modes.fastest_hfo().sysclk().as_u64() / 1_000_000,
            report.inference_secs * 1e3,
            report.total_energy.as_mj(),
        );

        // Export: the artifact carries schema version, target id and
        // model/config fingerprints.
        let artifact = plan.to_artifact(planner);
        let path = format!("PLAN_{target_id}.json");
        std::fs::write(&path, artifact.to_json())?;
        println!("{:>12}  exported -> {path}", "");

        summary_rows.push((
            target_id,
            baseline * 1e3,
            report.inference_secs * 1e3,
            report.total_energy.as_mj(),
        ));
        artifacts.push((path, artifact));
    }

    // "Another process": fresh planners re-import the artifacts from disk,
    // validate the fingerprints, and deploy bit-identically.
    println!("\nreplaying artifacts in fresh planners:");
    for (path, original) in &artifacts {
        let text = std::fs::read_to_string(path)?;
        let parsed = PlanArtifact::from_json(&text)?;
        assert_eq!(&parsed, original);
        let replayer = if parsed.target == "stm32f767" {
            Planner::for_target(Stm32F767Target::paper(), &model)?
        } else {
            Planner::for_target(lean_board(), &model)?
        };
        let plan = DeploymentPlan::from_artifact(&parsed, &replayer)?;
        let report = replayer.deploy(&plan)?;
        println!(
            "{:>12}: validated + deployed, {:.2} ms / {:.3} mJ (bit-identical replay)",
            parsed.target,
            report.inference_secs * 1e3,
            report.total_energy.as_mj(),
        );
    }

    // Cross-wiring the artifacts is refused with a typed error.
    let f767_artifact = &artifacts[0].1;
    let lean_planner = Planner::for_target(lean_board(), &model)?;
    match DeploymentPlan::from_artifact(f767_artifact, &lean_planner) {
        Err(DaeDvfsError::ArtifactMismatch {
            field,
            expected,
            found,
        }) => println!(
            "\ncross-target import correctly refused: {field} (expected {expected}, found {found})"
        ),
        other => panic!("expected an artifact mismatch, got {other:?}"),
    }

    // Machine-readable summary via the workspace JSON writer.
    let mut summary = String::new();
    json::lines(&mut summary, |o| {
        o.str("example", "cross_target")
            .str("model", &model.name)
            .fixed("slack", 0.30, 2)
            .array("targets", &summary_rows, |out, row| {
                let (target, baseline_ms, inference_ms, mj) = row;
                json::compact(out, |o| {
                    o.str("target", target)
                        .fixed("baseline_ms", *baseline_ms, 3)
                        .fixed("inference_ms", *inference_ms, 3)
                        .fixed("window_energy_mj", *mj, 4);
                })
            });
    });
    summary.push('\n');
    std::fs::write("CROSS_TARGET.json", summary)?;
    println!("summary written -> CROSS_TARGET.json");
    Ok(())
}
