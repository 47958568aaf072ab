//! What every workload shares: the serving configuration, the tenants,
//! request keys and the reference artifacts responses are checked
//! against.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dae_dvfs::{
    obs, DeploymentPlan, GenericCortexMTarget, OperatingModes, PlanRequest, Planner, ServerConfig,
    ServiceConfig, Solver, Stm32F767Target, Target,
};
use stm32_rcc::Hertz;
use tinyengine::qos_window;
use tinynn::models::synth::SplitMix64;
use tinynn::Model;

use crate::Res;

/// The `plan_server --serve` service configuration, shared by every
/// HTTP workload: swept coalescing (the default mode), a 2 ms batch
/// linger, a 1 µs QoS quantum, four solve workers; the registry is
/// attached by each workload (write-through).
pub const SERVICE_WORKERS: usize = 4;
/// See [`SERVICE_WORKERS`].
pub const BATCH_LINGER: Duration = Duration::from_millis(2);
/// See [`SERVICE_WORKERS`].
pub const QOS_QUANTUM_SECS: f64 = 1e-6;
/// Connection workers of the `plan_server --serve` front end.
pub const SERVER_WORKERS: usize = 8;

/// The shared service configuration.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(SERVICE_WORKERS)
        .with_batch_linger(BATCH_LINGER)
        .with_qos_quantum_secs(QOS_QUANTUM_SECS)
}

/// The shared server configuration.
pub fn server_config() -> ServerConfig {
    ServerConfig::default().with_workers(SERVER_WORKERS)
}

/// The two platforms: the paper's STM32F767 and `plan_server`'s leaner
/// Cortex-M clock ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Board {
    /// [`Stm32F767Target::paper`].
    F767,
    /// A generic Cortex-M with an 80/120/160 MHz ladder.
    Lean,
}

impl Board {
    /// The board as a shared [`Target`].
    pub fn target(self) -> Res<Arc<dyn Target>> {
        Ok(match self {
            Board::F767 => Arc::new(Stm32F767Target::paper()),
            Board::Lean => Arc::new(
                GenericCortexMTarget::new("cortex-m-lean").with_modes(
                    OperatingModes::from_sysclks(
                        Hertz::mhz(50),
                        Hertz::mhz(50),
                        &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
                    )
                    .ok_or("the lean clock ladder is unreachable")?,
                ),
            ),
        })
    }

    /// Builds a planner for `model` on this board.
    pub fn planner(self, model: &Model) -> Res<Planner> {
        Planner::for_target_arc(self.target()?, model)
            .map_err(|e| format!("planner for {}: {e}", model.name))
    }
}

/// A planner ready to serve: its route name and target baseline.
#[derive(Debug)]
pub struct Tenant {
    /// Route name, `<model>@<target>`.
    pub name: String,
    /// The planner.
    pub planner: Arc<Planner>,
    /// Baseline latency, seconds (resolves slack-form requests).
    pub baseline: f64,
}

/// The four tenants `plan_server` serves: VWW and person detection at
/// 32×32 on both boards.
pub fn tenant_models() -> Vec<(Model, Board)> {
    let vww = tinynn::models::vww_sized(32);
    let pd = tinynn::models::person_detection_sized(32);
    vec![
        (vww.clone(), Board::F767),
        (vww, Board::Lean),
        (pd.clone(), Board::F767),
        (pd, Board::Lean),
    ]
}

/// Builds one tenant per `(model, board)`: planner construction plus
/// its baseline. Returns the tenants and each construction's seconds.
pub fn build_tenants(models: &[(Model, Board)]) -> Res<(Vec<Tenant>, Vec<f64>)> {
    let mut build_secs = Vec::with_capacity(models.len());
    let tenants = models
        .iter()
        .map(|(model, board)| {
            let t = Instant::now();
            let planner = board.planner(model)?;
            build_secs.push(t.elapsed().as_secs_f64());
            let baseline = planner
                .baseline_latency()
                .map_err(|e| format!("baseline of {}: {e}", model.name))?;
            Ok(Tenant {
                name: format!("{}@{}", model.name, planner.target().id()),
                planner: Arc::new(planner),
                baseline,
            })
        })
        .collect::<Res<Vec<_>>>()?;
    Ok((tenants, build_secs))
}

/// A request's QoS budget, in the form its body states it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// `"slack": s` — a fraction above the baseline latency.
    Slack(f64),
    /// `"qos_secs": w` — an absolute window.
    Window(f64),
}

/// One request key: which tenant, what budget, which solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Index into the tenant list.
    pub tenant: usize,
    /// The budget as sent.
    pub budget: Budget,
    /// The solver asked for.
    pub solver: Solver,
}

impl Spec {
    /// The window the request asks for, seconds.
    pub fn requested_window(&self, tenants: &[Tenant]) -> f64 {
        match self.budget {
            Budget::Slack(s) => qos_window(tenants[self.tenant].baseline, s),
            Budget::Window(w) => w,
        }
    }

    /// The window the service keys and solves it at.
    pub fn canonical_window(&self, tenants: &[Tenant]) -> f64 {
        snap(self.requested_window(tenants), QOS_QUANTUM_SECS)
    }

    /// The `POST /v1/plan` body. `f64` `Display` is the shortest exact
    /// round-trip form, so the server parses back the same bits.
    pub fn body(&self, tenants: &[Tenant]) -> String {
        let budget = match self.budget {
            Budget::Slack(s) => format!("\"slack\": {s}"),
            Budget::Window(w) => format!("\"qos_secs\": {w}"),
        };
        let solver = match self.solver {
            Solver::SequenceDp => ", \"solver\": \"sequence-dp\"",
            _ => "",
        };
        format!(
            "{{\"planner\": \"{}\", {budget}{solver}}}",
            tenants[self.tenant].name
        )
    }

    /// The same request for an in-process call.
    pub fn request(&self) -> PlanRequest {
        let request = match self.budget {
            Budget::Slack(s) => PlanRequest::slack(s),
            Budget::Window(w) => PlanRequest::qos(w),
        };
        request.with_solver(self.solver)
    }
}

/// The service's window canonicalization, restated so references can be
/// computed without the service: snap down onto the quantum grid, never
/// above the requested window, and keep windows exact where snapping
/// cannot (below one quantum, or a quantum under one ulp).
pub fn snap(window: f64, quantum: f64) -> f64 {
    let mut snapped = (window / quantum).floor() * quantum;
    for _ in 0..4 {
        if snapped <= window {
            break;
        }
        let stepped = snapped - quantum;
        if stepped >= snapped {
            return window;
        }
        snapped = stepped;
    }
    if snapped > 0.0 && snapped <= window {
        snapped
    } else {
        window
    }
}

/// What a correct response to one key must be.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The plan a direct `Planner` call returns for the canonical request.
    pub plan: Arc<DeploymentPlan>,
    /// Its artifact JSON: the exact bytes the server must send.
    pub bytes: Arc<[u8]>,
    /// `obs::plan_hash` of `bytes`: what the receipt must claim.
    pub hash: u64,
    /// The plan's predicted latency fits the requested window.
    pub feasible: bool,
}

/// Computes each spec's reference with direct `Planner` calls on
/// `tenants` (planners the service under test does not share): a
/// singleton-equivalent `Planner::sweep` for reserve-grid keys — the
/// swept service answers each window exactly as a sweep of that window
/// alone would — and `Planner::plan` for sequence-DP keys.
pub fn references(tenants: &[Tenant], specs: &[Spec]) -> Res<Vec<Reference>> {
    let mut plans: Vec<Option<DeploymentPlan>> = vec![None; specs.len()];
    for (t, tenant) in tenants.iter().enumerate() {
        let swept: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].tenant == t && specs[i].solver == Solver::ReserveGrid)
            .collect();
        let windows: Vec<f64> = swept
            .iter()
            .map(|&i| specs[i].canonical_window(tenants))
            .collect();
        let solved = tenant
            .planner
            .sweep(windows)
            .map_err(|e| format!("reference sweep for {}: {e}", tenant.name))?;
        for (i, plan) in swept.into_iter().zip(solved) {
            plans[i] = Some(plan);
        }
    }
    specs
        .iter()
        .zip(plans)
        .map(|(spec, swept)| {
            let tenant = &tenants[spec.tenant];
            let window = spec.canonical_window(tenants);
            let plan = match swept {
                Some(plan) => plan,
                None => tenant
                    .planner
                    .plan(&PlanRequest::qos(window).with_solver(spec.solver))
                    .map_err(|e| format!("reference plan for {}: {e}", tenant.name))?,
            };
            let bytes: Arc<[u8]> = plan
                .to_artifact(&tenant.planner)
                .to_json()
                .into_bytes()
                .into();
            Ok(Reference {
                hash: obs::plan_hash(&bytes),
                feasible: plan.predicted_latency_secs <= spec.requested_window(tenants)
                    && plan.qos_secs.to_bits() == window.to_bits(),
                plan: Arc::new(plan),
                bytes,
            })
        })
        .collect()
}

/// A uniform draw from `[0, 1)`.
pub fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// The hot key set: per tenant, reserve-grid at four slacks and two
/// absolute windows, and sequence-DP at one slack and one window — 32
/// keys, fixed so every seed serves the same plans.
pub fn hot_specs(tenants: &[Tenant]) -> Vec<Spec> {
    let mut specs = Vec::new();
    for (t, tenant) in tenants.iter().enumerate() {
        let window = |s: f64| Budget::Window(qos_window(tenant.baseline, s));
        for (budget, solver) in [
            (Budget::Slack(0.1), Solver::ReserveGrid),
            (Budget::Slack(0.3), Solver::ReserveGrid),
            (Budget::Slack(0.5), Solver::ReserveGrid),
            (Budget::Slack(0.8), Solver::ReserveGrid),
            (window(0.2), Solver::ReserveGrid),
            (window(0.65), Solver::ReserveGrid),
            (Budget::Slack(0.3), Solver::SequenceDp),
            (window(0.7), Solver::SequenceDp),
        ] {
            specs.push(Spec {
                tenant: t,
                budget,
                solver,
            });
        }
    }
    specs
}

/// `n` keys that are pairwise distinct after canonicalization: absolute
/// windows on distinct quantum steps, slacks spread over [0.05, 0.95]
/// by a seeded golden-ratio sequence per tenant (so the plan mix, and
/// the mean plan energy, barely moves between seeds), tenants dealt in
/// shuffled rounds, and about one key in ten for the sequence DP.
pub fn distinct_specs(tenants: &[Tenant], n: usize, rng: &mut SplitMix64) -> Vec<Spec> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let offsets: Vec<f64> = tenants.iter().map(|_| unit(rng)).collect();
    let mut dealt = vec![0usize; tenants.len()];
    let mut round: Vec<usize> = Vec::new();
    let mut taken: HashSet<(usize, bool, u64)> = HashSet::new();
    (0..n)
        .map(|_| {
            if round.is_empty() {
                round = (0..tenants.len()).collect();
                shuffle(&mut round, rng);
            }
            let t = round.pop().expect("round refilled above");
            let u = (offsets[t] + dealt[t] as f64 * GOLDEN).fract();
            dealt[t] += 1;
            let solver = if unit(rng) < 0.1 {
                Solver::SequenceDp
            } else {
                Solver::ReserveGrid
            };
            let window = qos_window(tenants[t].baseline, 0.05 + 0.9 * u);
            let mut step = (window / QOS_QUANTUM_SECS).floor() as u64;
            while !taken.insert((t, solver == Solver::SequenceDp, step)) {
                step += 1;
            }
            Spec {
                tenant: t,
                // Mid-step, so snapping lands on `step` without rounding doubt.
                budget: Budget::Window((step as f64 + 0.5) * QOS_QUANTUM_SECS),
                solver,
            }
        })
        .collect()
}

/// A seeded Zipf(1) sampler over `n` ranks. Keys are dealt to ranks
/// alternately from two seeded-shuffled groups (even ranks to `first`,
/// odd ranks to `second`), so each group's share of the traffic is the
/// same for every seed; only which key of a group is hot changes.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<usize>,
}

impl Zipf {
    /// Ranks over `first` and `second` interleaved, each group permuted
    /// by `rng`.
    pub fn new(mut first: Vec<usize>, mut second: Vec<usize>, rng: &mut SplitMix64) -> Self {
        shuffle(&mut first, rng);
        shuffle(&mut second, rng);
        let (mut a, mut b) = (first.into_iter(), second.into_iter());
        let mut keys = Vec::new();
        loop {
            match (a.next(), b.next()) {
                (None, None) => break,
                (x, y) => keys.extend(x.into_iter().chain(y)),
            }
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=keys.len())
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf, keys }
    }

    /// One key.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = unit(rng);
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_floors_onto_the_quantum_and_never_exceeds_the_window() {
        assert_eq!(snap(2.5e-6, 1e-6), 2e-6);
        for w in [1.234_567e-3, 4.2e-3, 0.011, 3.0] {
            let s = snap(w, 1e-6);
            assert!(s <= w && w - s < 1e-6, "{w} -> {s}");
        }
        assert_eq!(snap(4e-7, 1e-6), 4e-7);
    }

    #[test]
    fn zipf_is_seeded_skewed_and_keeps_group_shares() {
        let (evens, odds): (Vec<usize>, Vec<usize>) = (0..32).partition(|k| k % 2 == 0);
        let z = Zipf::new(evens.clone(), odds.clone(), &mut SplitMix64::new(5));
        let mut rng = SplitMix64::new(9);
        let mut counts = [0usize; 32];
        for _ in 0..32_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let top = counts[z.keys[0]];
        let last = counts[z.keys[31]];
        assert!(top > 6_000 && last < 600, "top {top}, last {last}");
        assert!(z.keys.iter().step_by(2).all(|k| k % 2 == 0));
        // The even group takes ranks 1, 3, 5, …: about 60% of requests.
        let share = evens.iter().map(|&k| counts[k]).sum::<usize>() as f64 / 32_000.0;
        assert!((0.57..0.63).contains(&share), "{share}");
        let again = Zipf::new(evens, odds, &mut SplitMix64::new(5));
        assert_eq!(again.keys, z.keys);
    }
}
