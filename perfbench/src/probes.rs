//! Direct calls into each layer's public functions, timed and recorded
//! as spans from the benchmark's side, on the traced run's own inputs.

use std::sync::Arc;
use std::time::Instant;

use dae_dvfs::service::PlanKey;
use dae_dvfs::{
    config_fingerprint, explore_model, lower_model, mckp_sweep, model_fingerprint, obs,
    pareto_front, CompiledLayer, DeploymentPlan, MckpItem, PlanArtifact, PlanRegistry, PlanRequest,
    SolverWorkspace,
};
use tinynn::Model;

use crate::fixture::{Board, Reference, Spec, Tenant};
use crate::trace::Tracer;
use crate::Res;

/// Most keys one probe visits.
pub const MAX_KEYS: usize = 64;
/// Repetitions of a per-tenant probe (fill), so its median has ten
/// samples beyond it on four tenants.
const TENANT_REPS: usize = 6;

/// Per-call microseconds of each probed function.
#[derive(Debug, Default)]
pub struct LayerProbes {
    /// `Planner::plan` on the canonical request.
    pub plan_us: Vec<f64>,
    /// `Planner::sweep` microseconds divided by its window count.
    pub sweep_us_per_window: f64,
    /// `mckp_sweep` table fill.
    pub fill_us: Vec<f64>,
    /// `MckpSweep::best_for` extraction.
    pub extract_us: Vec<f64>,
    /// `DeploymentPlan::to_artifact` + `PlanArtifact::to_json`.
    pub render_us: Vec<f64>,
    /// `PlanArtifact::from_json` + `DeploymentPlan::from_artifact`.
    pub decode_us: Vec<f64>,
    /// `model_fingerprint` + `config_fingerprint`.
    pub fingerprint_us: Vec<f64>,
    /// `obs::plan_hash` of the served bytes.
    pub plan_hash_us: Vec<f64>,
    /// `PlanRegistry::store` (render, write, fsync, rename).
    pub store_us: Vec<f64>,
}

/// Times `f` as a root span named `name` and returns its result and
/// duration in microseconds.
pub fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    req: &mut u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    tracer.span(name, start, end, None, *req);
    *req += 1;
    (out, (end - start).as_secs_f64() * 1e6)
}

/// Evenly strided indices, at most `max` of `n`.
pub fn stride(n: usize, max: usize) -> Vec<usize> {
    let step = n.div_ceil(max.max(1)).max(1);
    (0..n).step_by(step).collect()
}

/// The MCKP classes a planner's fronts define under the window-energy
/// objective (each item valued `E − P_idle·t`, as the planner values
/// them).
fn mckp_classes(tenant: &Tenant) -> Vec<Vec<MckpItem>> {
    let idle = tenant.planner.config().power.clock_gated_power.as_f64();
    tenant
        .planner
        .fronts()
        .iter()
        .map(|front| {
            front
                .iter()
                .map(|pt| MckpItem {
                    time_secs: pt.latency_secs,
                    energy: pt.energy.as_f64() - idle * pt.latency_secs,
                })
                .collect()
        })
        .collect()
}

/// Probes the solver, artifact, obs and registry layers on a sample of
/// `specs`. `store` pairs a scratch registry with the service's keys
/// for the same specs; without it the store probe is skipped.
pub fn layer_probes(
    tracer: &mut Tracer,
    req: &mut u64,
    tenants: &[Tenant],
    specs: &[Spec],
    refs: &[Reference],
    store: Option<(&PlanRegistry, &[PlanKey])>,
) -> Res<LayerProbes> {
    let mut p = LayerProbes::default();
    let picked = stride(specs.len(), MAX_KEYS);
    for &i in &picked {
        let (spec, reference) = (&specs[i], &refs[i]);
        let tenant = &tenants[spec.tenant];
        let planner = &tenant.planner;
        let request = PlanRequest::qos(spec.canonical_window(tenants)).with_solver(spec.solver);
        let (plan, us) = timed(tracer, "solver.plan", req, || planner.plan(&request));
        plan.map_err(|e| format!("probe plan: {e}"))?;
        p.plan_us.push(us);
        let (_, us) = timed(tracer, "artifact.render", req, || {
            reference.plan.to_artifact(planner).to_json()
        });
        p.render_us.push(us);
        let text = std::str::from_utf8(&reference.bytes).map_err(|e| e.to_string())?;
        let (decoded, us) = timed(tracer, "artifact.decode", req, || {
            PlanArtifact::from_json(text).and_then(|a| DeploymentPlan::from_artifact(&a, planner))
        });
        if decoded.map_err(|e| format!("probe decode: {e}"))? != *reference.plan {
            return Err("probe decode does not round-trip the reference plan".into());
        }
        p.decode_us.push(us);
        let (_, us) = timed(tracer, "artifact.fingerprint", req, || {
            model_fingerprint(&planner.model().name, planner.layers())
                ^ config_fingerprint(planner.config())
        });
        p.fingerprint_us.push(us);
        let (hash, us) = timed(tracer, "obs.plan_hash", req, || {
            obs::plan_hash(&reference.bytes)
        });
        if hash != reference.hash {
            return Err("probe plan_hash disagrees with the reference".into());
        }
        p.plan_hash_us.push(us);
    }
    if let Some((registry, keys)) = store {
        for (&i, key) in picked.iter().zip(keys) {
            let artifact = refs[i].plan.to_artifact(&tenants[specs[i].tenant].planner);
            let (stored, us) = timed(tracer, "registry.store", req, || {
                registry.store(*key, &artifact)
            });
            stored.map_err(|e| format!("probe store: {e}"))?;
            p.store_us.push(us);
        }
    }
    let (mut sweep_us, mut sweep_windows) = (0.0, 0);
    for (t, tenant) in tenants.iter().enumerate() {
        let windows: Vec<f64> = picked
            .iter()
            .filter(|&&i| specs[i].tenant == t && specs[i].solver == dae_dvfs::Solver::ReserveGrid)
            .map(|&i| specs[i].canonical_window(tenants))
            .collect();
        if windows.is_empty() {
            continue;
        }
        let (swept, us) = timed(tracer, "solver.sweep", req, || {
            tenant.planner.sweep(windows.iter().copied())
        });
        swept.map_err(|e| format!("probe sweep: {e}"))?;
        sweep_us += us;
        sweep_windows += windows.len();
        let classes = mckp_classes(tenant);
        let resolution = tenant.planner.config().dp_resolution;
        let mut ws = SolverWorkspace::new();
        for rep in 0..TENANT_REPS {
            let start = Instant::now();
            let table = mckp_sweep(&classes, &windows, resolution, &mut ws)
                .map_err(|e| format!("probe fill: {e}"))?;
            let end = Instant::now();
            tracer.span("solver.fill", start, end, None, *req);
            *req += 1;
            p.fill_us.push((end - start).as_secs_f64() * 1e6);
            if rep == 0 {
                for &w in &windows {
                    let (best, us) = timed(tracer, "solver.extract", req, || table.best_for(w));
                    best.map_err(|e| format!("probe extract: {e}"))?;
                    p.extract_us.push(us);
                }
            }
        }
    }
    if sweep_windows > 0 {
        p.sweep_us_per_window = sweep_us / sweep_windows as f64;
    }
    Ok(p)
}

/// One planner construction, replayed stage by stage through the public
/// functions `Planner::for_target` is built from, plus the baseline
/// lowering `Planner::baseline_latency` adds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Construction {
    /// `lower_model`, milliseconds.
    pub lower_ms: f64,
    /// `CompiledLayer::compile` over every layer, milliseconds.
    pub compile_ms: f64,
    /// `explore_model`, milliseconds.
    pub explore_ms: f64,
    /// `pareto_front` over every layer, microseconds.
    pub reduce_us: f64,
    /// `Target::compile_baseline`, milliseconds.
    pub baseline_ms: f64,
    /// DSE points explored.
    pub points: usize,
    /// Points kept on the Pareto fronts.
    pub kept: usize,
}

/// Replays one construction of `model` on `board` under `parent`.
pub fn construction(
    tracer: &mut Tracer,
    parent: Option<usize>,
    req: u64,
    model: &Model,
    board: Board,
) -> Res<Construction> {
    let target = board.target()?;
    let config = target.dse_config();
    let mut span = |name, start: Instant| {
        let end = Instant::now();
        tracer.span(name, start, end, parent, req);
        (end - start).as_secs_f64()
    };
    let t = Instant::now();
    let profiles = lower_model(model).map_err(|e| format!("lower {}: {e}", model.name))?;
    let lower = span("tinyengine.lower", t);
    let t = Instant::now();
    let layers: Vec<CompiledLayer> = profiles
        .into_iter()
        .map(|p| CompiledLayer::compile(p, &config))
        .collect();
    let compile = span("schedule.compile", t);
    let t = Instant::now();
    let power = Arc::new(config.power.clone());
    let explored = explore_model(&layers, &config, &power);
    let explore = span("dse.explore", t);
    let points = explored.iter().map(Vec::len).sum();
    let t = Instant::now();
    let fronts: Vec<_> = explored.into_iter().map(pareto_front).collect();
    let reduce = span("pareto.reduce", t);
    let t = Instant::now();
    target
        .compile_baseline(model)
        .map_err(|e| format!("baseline {}: {e}", model.name))?;
    let baseline = span("tinyengine.baseline", t);
    Ok(Construction {
        lower_ms: lower * 1e3,
        compile_ms: compile * 1e3,
        explore_ms: explore * 1e3,
        reduce_us: reduce * 1e6,
        baseline_ms: baseline * 1e3,
        points,
        kept: fronts.iter().map(Vec::len).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_caps_and_spreads() {
        assert_eq!(stride(5, 64), vec![0, 1, 2, 3, 4]);
        assert_eq!(stride(200, 64).len(), 50);
        assert!(stride(0, 64).is_empty());
    }
}
