//! The reusable planning front-end: one construction, many QoS points.
//!
//! [`Planner::new`] pays the expensive, QoS-independent work exactly once
//! — lowering the model, compiling the per-layer segment schedules
//! ([`crate::schedule`]), sweeping the DSE grid (in parallel) and
//! reducing each layer to its Pareto front. Every subsequent
//! [`Planner::optimize`] / [`Planner::optimize_sequence`] /
//! [`Planner::deploy`] call is a solver run plus machine replays against
//! the cache, which is why sweeping many QoS points
//! ([`Planner::sweep`]) costs barely more than solving one.
//!
//! A planner is also the one owner of its identity: the model and
//! configuration fingerprints ([`crate::model_fingerprint`],
//! [`crate::config_fingerprint`]) are computed once at construction, and
//! artifacts, the service cache and the registry all read the stored
//! values.

use std::sync::{Arc, OnceLock};

use stm32_power::{Joules, PowerModel};
use tinyengine::{qos_window, LoweredModel};
use tinynn::Model;

use crate::artifact::{config_fingerprint, model_fingerprint};
use crate::dse::{DseConfig, DsePoint};
use crate::error::DaeDvfsError;
use crate::mckp::{MckpError, MckpItem, MckpSolution};
use crate::pareto::pareto_front;
use crate::pipeline::{DeploymentPlan, DeploymentReport, LayerDecision};
use crate::request::{validate_positive_time, PlanRequest, QosBudget, Solver};
use crate::schedule::{explore_model, par_map, replay_decisions, CompiledLayer};
use crate::solver::{
    mckp_resweep, mckp_sweep, solve_dp_with, solve_sequence_with, Grid, SolverWorkspace,
    WorkspacePool,
};
use crate::target::{Stm32F767Target, Target};

/// A reusable planner for one `(model, target)` pair.
///
/// Owns the target description, the lowered profiles, the compiled
/// segment schedules and the per-layer Pareto fronts; borrow it wherever
/// repeated QoS points, plan replays or baseline comparisons are needed.
///
/// # Examples
///
/// ```
/// use dae_dvfs::{DseConfig, Planner};
/// use tinynn::models::vww_sized;
///
/// # fn main() -> Result<(), dae_dvfs::DaeDvfsError> {
/// let model = vww_sized(32);
/// let planner = Planner::new(&model, &DseConfig::paper())?;
/// let baseline = planner.baseline_latency()?;
/// // The DSE is paid once; each optimize call reuses it.
/// for slack in [0.1, 0.3, 0.5] {
///     let plan = planner.optimize(baseline * (1.0 + slack))?;
///     assert!(plan.predicted_latency_secs <= baseline * (1.0 + slack));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Planner {
    target: Arc<dyn Target>,
    model: Model,
    config: DseConfig,
    power: Arc<PowerModel>,
    layers: Vec<CompiledLayer>,
    fronts: Vec<Vec<DsePoint>>,
    baseline: OnceLock<LoweredModel>,
    /// The baseline lowering's replayed latency, next to it.
    baseline_latency: OnceLock<f64>,
    model_fingerprint: u64,
    config_fingerprint: u64,
    /// Pool of reusable flat DP buffers shared by every solver call on
    /// this planner; concurrent solves check out distinct workspaces, so
    /// contended callers still reuse warmed buffers instead of allocating
    /// throw-aways (plans never depend on which workspace was used — the
    /// buffers are pure scratch).
    workspace: WorkspacePool,
}

impl Planner {
    /// Lowers `model`, compiles its schedules and runs the full DSE sweep
    /// under `config` on the paper's STM32F767 platform.
    ///
    /// Thin wrapper over [`Planner::for_target`] with
    /// [`Stm32F767Target::with_config`] (or, for the default
    /// configuration, [`Stm32F767Target::paper`]); plans are bit-identical
    /// to the pre-target pipeline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::for_target`].
    pub fn new(model: &Model, config: &DseConfig) -> Result<Self, DaeDvfsError> {
        Planner::for_target(Stm32F767Target::with_config(config.clone()), model)
    }

    /// Lowers `model`, compiles its schedules and runs the full DSE sweep
    /// for an arbitrary [`Target`] platform.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::EmptyModel`] for zero-layer models;
    /// [`DaeDvfsError::InvalidRequest`] if the target's configuration is
    /// degenerate (zero DP resolution, empty granularity set); propagates
    /// lowering errors.
    pub fn for_target(target: impl Target + 'static, model: &Model) -> Result<Self, DaeDvfsError> {
        Planner::for_target_arc(Arc::new(target), model)
    }

    /// [`Planner::for_target`] for an already-shared target handle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::for_target`].
    pub fn for_target_arc(target: Arc<dyn Target>, model: &Model) -> Result<Self, DaeDvfsError> {
        let config = target.dse_config();
        if config.dp_resolution == 0 {
            return Err(DaeDvfsError::InvalidRequest {
                field: "dp_resolution",
                reason: "must be non-zero".into(),
            });
        }
        if config.granularities.is_empty() {
            return Err(DaeDvfsError::InvalidRequest {
                field: "granularities",
                reason: "must not be empty".into(),
            });
        }
        let profiles = crate::pipeline::lower_model(model)?;
        if profiles.is_empty() {
            return Err(DaeDvfsError::EmptyModel {
                model: model.name.clone(),
            });
        }
        let power = Arc::new(config.power.clone());
        let layers: Vec<CompiledLayer> = profiles
            .into_iter()
            .map(|p| CompiledLayer::compile(p, &config))
            .collect();
        let fronts: Vec<Vec<DsePoint>> = explore_model(&layers, &config, &power)
            .into_iter()
            .map(pareto_front)
            .collect();
        debug_assert!(fronts.iter().all(|f| !f.is_empty()));
        Ok(Planner {
            target,
            model_fingerprint: model_fingerprint(&model.name, &layers),
            config_fingerprint: config_fingerprint(&config),
            model: model.clone(),
            config,
            power,
            layers,
            fronts,
            baseline: OnceLock::new(),
            baseline_latency: OnceLock::new(),
            workspace: WorkspacePool::for_parallelism(),
        })
    }

    /// The platform this planner prices against.
    pub fn target(&self) -> &dyn Target {
        self.target.as_ref()
    }

    /// The model this planner was built for.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The exploration configuration (immutable: schedules and fronts were
    /// compiled under it).
    pub fn config(&self) -> &DseConfig {
        &self.config
    }

    /// Fingerprint of the lowered model ([`crate::model_fingerprint`]),
    /// computed once at construction.
    pub fn model_fingerprint(&self) -> u64 {
        self.model_fingerprint
    }

    /// Fingerprint of the exploration configuration
    /// ([`crate::config_fingerprint`]), computed once at construction.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// The compiled per-layer schedules, in execution order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// The per-layer Pareto fronts the solvers select from.
    pub fn fronts(&self) -> &[Vec<DsePoint>] {
        &self.fronts
    }

    /// The shared power model every machine replay prices against; pass it
    /// to [`CompiledLayer::evaluate`] to avoid re-allocating one.
    pub fn power(&self) -> &Arc<PowerModel> {
        &self.power
    }

    /// The target's baseline lowering of this model, compiled once and
    /// cached (TinyEngine at 216 MHz on the F767; the target's fastest HFO
    /// elsewhere).
    ///
    /// # Errors
    ///
    /// Propagates baseline lowering errors (e.g. SRAM budget overflows the
    /// DAE path does not check).
    pub fn baseline(&self) -> Result<&LoweredModel, DaeDvfsError> {
        if let Some(lowered) = self.baseline.get() {
            return Ok(lowered);
        }
        let lowered = self.target.compile_baseline(&self.model)?;
        // A concurrent caller may have won the race; either value is
        // identical, so the set result is irrelevant.
        let _ = self.baseline.set(lowered);
        Ok(self.baseline.get().expect("baseline just initialized"))
    }

    /// The baseline inference latency at the target's fixed baseline
    /// clock, priced on the target's machine substrate. The first call
    /// replays the baseline; later calls return the stored value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::baseline`].
    pub fn baseline_latency(&self) -> Result<f64, DaeDvfsError> {
        if let Some(&secs) = self.baseline_latency.get() {
            return Ok(secs);
        }
        let lowered = self.baseline()?;
        let mut machine = self.target.baseline_machine(*lowered.clock());
        let secs = lowered.run_on(&mut machine).total_time_secs;
        // A racing replay computes the same bits, as in `baseline`.
        let _ = self.baseline_latency.set(secs);
        Ok(secs)
    }

    /// Replays a decision sequence with full inter-layer switching costs.
    fn execute(&self, decisions: &[LayerDecision]) -> (f64, Joules) {
        replay_decisions(&self.layers, decisions, &self.config, &self.power)
    }

    fn build_decisions(&self, choices: &[usize]) -> Vec<LayerDecision> {
        self.layers
            .iter()
            .zip(&self.fronts)
            .zip(choices)
            .map(|((layer, front), &choice)| LayerDecision {
                name: layer.profile().name.clone(),
                kind: layer.profile().kind,
                point: front[choice].clone(),
            })
            .collect()
    }

    /// Solves the MCKP for one QoS window against the cached fronts (steps
    /// 2C–3 of the methodology; the DSE was paid at construction).
    ///
    /// Two refinements over the plain MCKP formulation (Eq. 2–5 of the
    /// paper):
    ///
    /// * the objective includes the clock-gated idle power of the
    ///   post-inference tail: minimizing `Σ Eₖ + P_idle · (QoS − Σ tₖ)` is
    ///   equivalent to using item values `Eₖ − P_idle · tₖ` (plus a
    ///   constant), so slower-but-leaner points are only preferred when
    ///   they genuinely beat "finish fast, then gate the clocks";
    /// * DSE items are relock-free, so each DP solution is *replayed* with
    ///   full inter-layer switching costs; a deterministic grid of
    ///   switching reserves is evaluated and the feasible schedule with
    ///   the lowest window energy wins (the relock-free all-fastest
    ///   schedule is always a candidate, so feasibility is guaranteed
    ///   whenever it exists).
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for NaN / non-positive windows;
    /// [`DaeDvfsError::Qos`] if even the fastest schedule misses the
    /// window.
    pub fn optimize(&self, qos_secs: f64) -> Result<DeploymentPlan, DaeDvfsError> {
        validate_positive_time("qos_secs", qos_secs)?;
        self.optimize_at(qos_secs, self.config.dp_resolution)
    }

    /// The MCKP classes of the cached fronts under the window-energy
    /// objective (items are valued `E − P_idle·t`).
    fn mckp_classes(&self) -> Vec<Vec<MckpItem>> {
        let idle_power = self.config.power.clock_gated_power.as_f64();
        self.fronts
            .iter()
            .map(|front| {
                front
                    .iter()
                    .map(|pt| MckpItem {
                        time_secs: pt.latency_secs,
                        energy: pt.energy.as_f64() - idle_power * pt.latency_secs,
                    })
                    .collect()
            })
            .collect()
    }

    /// The deepest budget the reserve-grid search will ever solve for:
    /// the sum of per-class fastest times scaled by a rounding margin (so
    /// the DP's ceil-rounding — at most one bucket per class — cannot
    /// round the fastest selection out of the smallest budget). Both the
    /// per-point search (its reserve cap) and the sweep's shared grid
    /// derive from this one definition, which is what guarantees the grid
    /// covers every budget the search can visit.
    fn qos_floor(classes: &[Vec<MckpItem>], resolution: usize) -> f64 {
        let min_time: f64 = classes
            .iter()
            .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
            .sum();
        let rounding_margin = 1.0 + (classes.len() + 1) as f64 / resolution as f64;
        min_time * rounding_margin
    }

    /// Runs `f` against a workspace checked out of this planner's pool:
    /// concurrent solves get distinct workspaces (no blocking), and every
    /// workspace returns to the pool with its warmed buffers intact (the
    /// buffers are pure scratch, so results never depend on which one was
    /// used).
    fn with_workspace<R>(&self, f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
        self.workspace.run(f)
    }

    /// [`Planner::optimize`] at an explicit DP resolution (the request
    /// path's override hook).
    fn optimize_at(
        &self,
        qos_secs: f64,
        resolution: usize,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let classes = self.mckp_classes();
        self.with_workspace(|ws| {
            self.search_reserve_grid(qos_secs, &classes, resolution, |budget| {
                solve_dp_with(&classes, budget, resolution, ws)
            })
        })
    }

    /// The reserve-grid budget search behind [`Planner::optimize`],
    /// parameterized over how a single budget is solved: the per-call
    /// path re-runs the DP per budget (bit-identical to the historical
    /// pipeline), the sweep path extracts every budget from one shared
    /// table ([`MckpSweep::best_for`]).
    ///
    /// DSE items are relock-free, so the DP solution can overrun once
    /// inter-layer re-locks are replayed. Rather than accepting the first
    /// feasible reserve, evaluate a deterministic grid of reserves
    /// (anchored on the observed overhead of the unreserved solution) and
    /// keep the feasible schedule with the lowest *window* energy. The
    /// all-fastest selection — maximum HFO everywhere, hence relock-free
    /// — is always a candidate, so the search only fails when the
    /// instance is genuinely infeasible. Distinct budgets frequently
    /// backtrack to the same selection, so replays are deduplicated by
    /// choice vector (identical choices replay identically; the first
    /// instance already fed the search, and `consider`'s strict `<` means
    /// duplicates can never change the winner).
    ///
    /// [`MckpSweep::best_for`]: crate::solver::MckpSweep::best_for
    fn search_reserve_grid(
        &self,
        qos_secs: f64,
        classes: &[Vec<MckpItem>],
        resolution: usize,
        mut solve: impl FnMut(f64) -> Result<MckpSolution, MckpError>,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let idle_power = self.config.power.clock_gated_power.as_f64();
        let reserve_cap = (qos_secs - Planner::qos_floor(classes, resolution)).max(0.0);

        let mut best: Option<(f64, Vec<LayerDecision>, f64, Joules)> = None;
        let mut seen: Vec<(Vec<usize>, f64, Joules)> = Vec::new();
        let mut try_candidate = |choices: &[usize]| -> (f64, Joules) {
            if let Some((_, latency, energy)) = seen.iter().find(|(c, ..)| c.as_slice() == choices)
            {
                return (*latency, *energy);
            }
            let decisions = self.build_decisions(choices);
            let (latency, energy) = self.execute(&decisions);
            seen.push((choices.to_vec(), latency, energy));
            if latency <= qos_secs {
                let score = energy.as_f64() + idle_power * (qos_secs - latency);
                if best.as_ref().is_none_or(|(s, ..)| score < *s) {
                    best = Some((score, decisions, latency, energy));
                }
            }
            (latency, energy)
        };

        // Anchor: the unreserved solution and its observed switching
        // overhead.
        let base = solve(qos_secs)?;
        let (base_latency, _) = try_candidate(&base.choices);
        let overhead = (base_latency - base.total_time_secs).max(0.0);

        let mut reserves: Vec<f64> = [0.5, 1.0, 1.5, 2.0, 3.0]
            .iter()
            .map(|k| (k * overhead).min(reserve_cap))
            .filter(|r| *r > 0.0)
            .collect();
        // Also cover the budget axis itself: overhead-anchored points can
        // miss the regime where a much tighter budget yields a schedule
        // with fewer distinct frequencies (and therefore fewer re-locks).
        for frac in [0.1, 0.2, 0.3, 0.5, 0.7] {
            reserves.push(frac * reserve_cap);
        }
        reserves.push(reserve_cap);
        reserves.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        reserves.dedup();
        for reserve in reserves {
            let budget = qos_secs - reserve;
            if budget <= 0.0 {
                continue;
            }
            if let Ok(solution) = solve(budget) {
                try_candidate(&solution.choices);
            }
        }

        // Always-feasible candidate: per-layer fastest (relock-free).
        let fastest: Vec<usize> = self
            .fronts
            .iter()
            .map(|front| {
                front
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        a.1.latency_secs
                            .partial_cmp(&b.1.latency_secs)
                            .expect("latencies are finite")
                    })
                    .map(|(i, _)| i)
                    .expect("fronts are non-empty")
            })
            .collect();
        let (latency, _) = try_candidate(&fastest);

        match best {
            Some((_, decisions, latency, energy)) => Ok(DeploymentPlan {
                model: self.model.name.clone(),
                qos_secs,
                decisions,
                predicted_latency_secs: latency,
                predicted_energy: energy,
            }),
            None => Err(DaeDvfsError::Qos(MckpError::Infeasible {
                min_time_secs: latency,
                budget_secs: qos_secs,
            })),
        }
    }

    /// Sequence-aware variant of [`Planner::optimize`]: selects one Pareto
    /// point per layer with the layered-graph DP of [`crate::seqdp`],
    /// which prices inter-layer PLL re-locks exactly instead of searching
    /// reserve budgets.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Planner::optimize`].
    pub fn optimize_sequence(&self, qos_secs: f64) -> Result<DeploymentPlan, DaeDvfsError> {
        validate_positive_time("qos_secs", qos_secs)?;
        self.optimize_sequence_at(qos_secs, self.config.dp_resolution)
    }

    /// [`Planner::optimize_sequence`] at an explicit DP resolution.
    fn optimize_sequence_at(
        &self,
        qos_secs: f64,
        resolution: usize,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let idle_power = self.config.power.clock_gated_power.as_f64();
        let solution = self.with_workspace(|ws| {
            solve_sequence_with(
                &self.fronts,
                qos_secs,
                resolution,
                &self.config,
                idle_power,
                ws,
            )
        })?;
        let decisions = self.build_decisions(&solution.choices);
        let (latency, energy) = self.execute(&decisions);
        if latency > qos_secs {
            return Err(DaeDvfsError::Qos(crate::mckp::MckpError::Infeasible {
                min_time_secs: latency,
                budget_secs: qos_secs,
            }));
        }
        Ok(DeploymentPlan {
            model: self.model.name.clone(),
            qos_secs,
            decisions,
            predicted_latency_secs: latency,
            predicted_energy: energy,
        })
    }

    /// Executes a deployment plan against the compiled schedules and idles
    /// (clock gated) until the QoS deadline.
    ///
    /// # Errors
    ///
    /// Currently infallible for plans produced by this planner.
    ///
    /// # Panics
    ///
    /// Panics if the plan's layer count does not match the model, or if
    /// the replayed schedule overruns the plan's QoS window — neither can
    /// happen for plans produced by this planner.
    pub fn deploy(&self, plan: &DeploymentPlan) -> Result<DeploymentReport, DaeDvfsError> {
        assert_eq!(
            self.layers.len(),
            plan.decisions.len(),
            "plan does not match the model layer count"
        );
        let (inference_secs, inference_energy) = self.execute(&plan.decisions);
        let remaining = plan.qos_secs - inference_secs;
        assert!(
            remaining >= -1e-9,
            "deployment overran its QoS window: {inference_secs}s > {}s",
            plan.qos_secs
        );
        let idle_energy = self.config.power.clock_gated_power * remaining.max(0.0);
        Ok(DeploymentReport {
            plan: plan.clone(),
            inference_secs,
            inference_energy,
            idle_energy,
            total_energy: inference_energy + idle_energy,
        })
    }

    /// Optimizes a batch of QoS windows against the shared caches with a
    /// **single DP pass**: one MCKP table is filled over a shared
    /// absolute time grid covering every window (and every reserve budget
    /// the search can visit), and each window's entire reserve-grid
    /// search then runs on cheap per-budget extractions
    /// ([`crate::solver::MckpSweep::best_for`]) instead of re-running the
    /// DP per budget. The per-window work is striped over
    /// `std::thread::scope` when more than one core is available —
    /// extractions and machine replays are independent and read-only on
    /// the shared table, so results are identical to the sequential
    /// order.
    ///
    /// Duplicate windows are solved **once** and fanned back out to every
    /// occurrence (bit-identical: the solve for a window is
    /// deterministic). A window's plan is also independent of which other
    /// windows share the batch — for windows above the feasibility floor
    /// the shared grid's scale is `floor / resolution` regardless of the
    /// batch, and a DP table's prefix does not depend on the buckets
    /// above it — which is what lets [`crate::service`] coalesce
    /// concurrent requests through this path without changing any
    /// caller's answer.
    ///
    /// Every returned plan is feasible and matches what
    /// [`Planner::optimize`] would return within the solver's documented
    /// discretization bound (the shared grid resolves every budget at
    /// least as finely as the per-call grid; see [`crate::solver`]).
    /// Plans are returned in window order.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for NaN / non-positive windows;
    /// the error of the earliest infeasible window otherwise.
    pub fn sweep(
        &self,
        qos_windows: impl IntoIterator<Item = f64>,
    ) -> Result<Vec<DeploymentPlan>, DaeDvfsError> {
        let windows: Vec<f64> = qos_windows.into_iter().collect();
        for &q in &windows {
            validate_positive_time("qos_secs", q)?;
        }
        if windows.is_empty() {
            return Ok(Vec::new());
        }
        // Dedup repeated windows (first-occurrence order); NaN was
        // rejected above, so bit equality is value equality.
        let mut distinct: Vec<f64> = Vec::new();
        let mapping: Vec<usize> = windows
            .iter()
            .map(|&w| {
                distinct
                    .iter()
                    .position(|&d| d.to_bits() == w.to_bits())
                    .unwrap_or_else(|| {
                        distinct.push(w);
                        distinct.len() - 1
                    })
            })
            .collect();
        let solved = self.sweep_distinct(&distinct, self.config.dp_resolution, usize::MAX, false);
        // Fan results back out in window order; the earliest failing
        // window's error surfaces, as before.
        mapping.into_iter().map(|p| solved[p].clone()).collect()
    }

    /// Solves a batch of **distinct** QoS windows at an explicit DP
    /// resolution, returning one `Result` per window — the engine behind
    /// [`Planner::sweep`] and the coalescing core of [`crate::service`].
    ///
    /// Windows at or above the feasibility floor share one DP table whose
    /// scale is `floor / resolution` — a function of the planner and the
    /// resolution only, never of the batch — and a DP table's prefix does
    /// not depend on how many buckets lie above it, so **a window's plan
    /// is independent of which other windows were batched with it** (in
    /// particular, bit-identical to a singleton [`Planner::sweep`] of
    /// that window). Windows below the floor, and batches whose spread
    /// would cap the shared grid ([`crate::solver::MAX_SWEEP_BUCKETS`]),
    /// are solved on per-window grids, preserving the invariance at the
    /// cost of extra DP fills.
    ///
    /// `max_threads` caps the extraction striping (the table fill itself
    /// is single-threaded): callers that are already one of several
    /// parallel workers — the [`crate::service`] batch solvers — pass
    /// their share of the machine so concurrent batches do not
    /// oversubscribe it; [`Planner::sweep`] passes `usize::MAX` (cap by
    /// available parallelism alone).
    ///
    /// `reuse` routes the shared-grid fill through
    /// [`crate::solver::mckp_resweep`], reusing the pooled workspace's
    /// checkpointed table when it matches. Results are bit-identical
    /// either way: checkpoints are reused only when the grid and every
    /// item lane byte match, and the shared grid's scale is a function of
    /// the planner and resolution alone. The service coalescer passes
    /// `true` so hot groups skip the fill across batch windows;
    /// [`Planner::sweep`] passes `false` and always fills cold.
    pub(crate) fn sweep_distinct(
        &self,
        windows: &[f64],
        resolution: usize,
        max_threads: usize,
        reuse: bool,
    ) -> Vec<Result<DeploymentPlan, DaeDvfsError>> {
        let classes = self.mckp_classes();
        let min_time: f64 = classes
            .iter()
            .map(|c| c.iter().map(|i| i.time_secs).fold(f64::INFINITY, f64::min))
            .sum();
        let floor = Planner::qos_floor(&classes, resolution);
        let mut slots: Vec<Option<Result<DeploymentPlan, DaeDvfsError>>> =
            vec![None; windows.len()];

        // Windows below the fastest selection are infeasible before any
        // DP work — the same error the table extraction would report.
        for (i, &w) in windows.iter().enumerate() {
            if min_time > w {
                slots[i] = Some(Err(DaeDvfsError::Qos(MckpError::Infeasible {
                    min_time_secs: min_time,
                    budget_secs: w,
                })));
            }
        }

        let floor_ok = floor.is_finite() && floor > 0.0;
        let mut singles: Vec<(usize, f64)> = Vec::new();
        let mut shared: Vec<(usize, f64)> = Vec::new();
        for (i, &w) in windows.iter().enumerate() {
            if slots[i].is_some() {
                continue;
            }
            if floor_ok && w >= floor {
                shared.push((i, w));
            } else {
                singles.push((i, w));
            }
        }

        if !shared.is_empty() {
            let mut budgets: Vec<f64> = shared.iter().map(|&(_, w)| w).collect();
            budgets.push(floor);
            // The batch-independent scale the shared grid resolves to
            // when uncapped; a capped grid would couple every window's
            // answer to the batch maximum, so capped batches fall back to
            // per-window grids instead.
            let floor_scale = floor / resolution as f64;
            match Grid::shared(&budgets, resolution) {
                Ok(grid) if grid.scale == floor_scale => {
                    for (i, plan) in self.solve_on_shared_grid(
                        &classes,
                        &budgets,
                        resolution,
                        max_threads,
                        reuse,
                        &shared,
                    ) {
                        slots[i] = Some(plan);
                    }
                }
                _ => singles.append(&mut shared),
            }
        }

        for &(i, w) in &singles {
            slots[i] = Some(self.sweep_single(&classes, w, floor, floor_ok, resolution));
        }

        slots
            .into_iter()
            .map(|slot| slot.expect("every window is solved exactly once"))
            .collect()
    }

    /// Fills one shared-grid table for `budgets` and answers every
    /// `(slot, window)` target by extraction, striping the per-window
    /// reserve searches over at most `max_threads` threads ([`par_map`]).
    fn solve_on_shared_grid(
        &self,
        classes: &[Vec<MckpItem>],
        budgets: &[f64],
        resolution: usize,
        max_threads: usize,
        reuse: bool,
        targets: &[(usize, f64)],
    ) -> Vec<(usize, Result<DeploymentPlan, DaeDvfsError>)> {
        let mut ws = self.workspace.take();
        let table = if reuse {
            mckp_resweep(classes, budgets, resolution, &mut ws)
        } else {
            mckp_sweep(classes, budgets, resolution, &mut ws)
        };
        let solved = match table {
            Ok(table) => par_map(targets, max_threads, |&(i, qos)| {
                let plan =
                    self.search_reserve_grid(qos, classes, resolution, |b| table.best_for(b));
                (i, plan)
            }),
            Err(e) => targets
                .iter()
                .map(|&(i, _)| (i, Err(DaeDvfsError::Qos(e.clone()))))
                .collect(),
        };
        self.workspace.put(ws);
        solved
    }

    /// Solves one window on its own grid (used when the window sits below
    /// the shared floor grid, or the batch's spread capped the shared
    /// table): budgets `{window, floor}` — exactly the grid a singleton
    /// sweep builds, so the answer stays batch-independent.
    fn sweep_single(
        &self,
        classes: &[Vec<MckpItem>],
        qos_secs: f64,
        floor: f64,
        floor_ok: bool,
        resolution: usize,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let mut budgets = vec![qos_secs];
        if floor_ok {
            budgets.push(floor);
        }
        self.with_workspace(|ws| {
            let table = mckp_sweep(classes, &budgets, resolution, ws)?;
            self.search_reserve_grid(qos_secs, classes, resolution, |b| table.best_for(b))
        })
    }

    /// Convenience: baseline latency → QoS window at `slack` → optimize →
    /// deploy.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for NaN / non-positive slacks;
    /// propagates baseline, optimization and deployment errors.
    pub fn run(&self, slack: f64) -> Result<DeploymentReport, DaeDvfsError> {
        validate_positive_time("slack", slack)?;
        let qos = qos_window(self.baseline_latency()?, slack);
        let plan = self.optimize(qos)?;
        self.deploy(&plan)
    }

    /// Solves a typed [`PlanRequest`] against the cached fronts: the
    /// budget is resolved (slack → window via the target baseline), the
    /// requested solver runs at the requested resolution, and degenerate
    /// requests are rejected before any solver work.
    ///
    /// For a plain [`PlanRequest::qos`] request with default solver and
    /// resolution this is exactly [`Planner::optimize`].
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] for degenerate knobs; otherwise
    /// the same conditions as the selected solver.
    pub fn plan(&self, request: &PlanRequest) -> Result<DeploymentPlan, DaeDvfsError> {
        request.validate()?;
        let qos_secs = match request.budget() {
            QosBudget::Window(qos) => qos,
            QosBudget::Slack(slack) => qos_window(self.baseline_latency()?, slack),
        };
        let resolution = request.dp_resolution().unwrap_or(self.config.dp_resolution);
        match request.solver() {
            Solver::ReserveGrid => self.optimize_at(qos_secs, resolution),
            Solver::SequenceDp => self.optimize_sequence_at(qos_secs, resolution),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinynn::models::vww;

    #[test]
    fn sweep_reuses_one_dse() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let plans = planner
            .sweep([0.1, 0.3, 0.5].map(|s| qos_window(baseline, s)))
            .unwrap();
        assert_eq!(plans.len(), 3);
        for plan in &plans {
            assert_eq!(plan.decisions.len(), model.layer_count());
            assert!(plan.predicted_latency_secs <= plan.qos_secs + 1e-12);
        }
        // Relaxing the window must not cost more window energy.
        let gated = planner.config().power.clock_gated_power.as_f64();
        let window = |p: &DeploymentPlan| {
            p.predicted_energy.as_f64() + gated * (p.qos_secs - p.predicted_latency_secs)
        };
        assert!(window(&plans[2]) <= window(&plans[0]) + 1e-12);
    }

    #[test]
    fn sweep_tracks_per_point_optimize_within_the_bound() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let windows: Vec<f64> = [0.05, 0.15, 0.35, 0.55, 0.75]
            .iter()
            .map(|&s| qos_window(baseline, s))
            .collect();
        let swept = planner.sweep(windows.iter().copied()).unwrap();
        // Deterministic regardless of thread striping.
        let again = planner.sweep(windows.iter().copied()).unwrap();
        assert_eq!(swept, again);
        let gated = planner.config().power.clock_gated_power.as_f64();
        for (plan, &qos) in swept.iter().zip(&windows) {
            assert!(plan.predicted_latency_secs <= qos + 1e-12);
            let solo = planner.optimize(qos).unwrap();
            let window = |p: &DeploymentPlan| {
                p.predicted_energy.as_f64() + gated * (qos - p.predicted_latency_secs)
            };
            // The shared grid resolves every budget at least as finely as
            // the per-call grid, so the sweep's replay-validated winner is
            // typically better and never materially worse (the reserve
            // search replays candidates, so a coarser grid can luck into a
            // marginally better replay — bounded to a fraction of a
            // percent).
            assert!(
                window(plan) <= window(&solo) * 1.005,
                "sweep materially worse than optimize at {qos}: {} vs {}",
                window(plan),
                window(&solo)
            );
        }
    }

    #[test]
    fn sweep_dedups_duplicate_windows_bit_identically() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let [a, b, c] = [0.1, 0.3, 0.5].map(|s| qos_window(baseline, s));
        let unique = planner.sweep([a, b, c]).unwrap();
        // Duplicated windows must fan the deduped answers back out
        // bit-identically to solving every occurrence.
        let duped = planner.sweep([a, b, a, c, b, c, a]).unwrap();
        let expected: Vec<_> = [0usize, 1, 0, 2, 1, 2, 0]
            .iter()
            .map(|&i| unique[i].clone())
            .collect();
        assert_eq!(duped, expected);
        // Batch invariance: a singleton sweep of each window answers
        // exactly what the batched sweep answered for it.
        for (i, &w) in [a, b, c].iter().enumerate() {
            assert_eq!(planner.sweep([w]).unwrap()[0], unique[i]);
        }
    }

    #[test]
    fn resweep_matches_sweep_bit_for_bit() {
        // The incremental fill must be indistinguishable from a cold
        // sweep: after `sweep` primes the pooled workspace's checkpoints,
        // `sweep_distinct(.., reuse = true)` answers the same windows from
        // the retained table (or a transparent full refill) with
        // bit-identical plans — twice, so the second call also exercises
        // checkpoints written by the reusing fill itself.
        let model = tinynn::models::vww_sized(32);
        let planner = Planner::for_target(Stm32F767Target::paper(), &model).unwrap();
        let baseline = planner.baseline_latency().unwrap();
        let windows: Vec<f64> = [0.1, 0.25, 0.3, 0.5]
            .iter()
            .map(|&s| qos_window(baseline, s))
            .collect();
        let cold = planner.sweep(windows.clone()).unwrap();
        let resolution = planner.config().dp_resolution;
        for round in 0..2 {
            let warm: Vec<_> = planner
                .sweep_distinct(&windows, resolution, usize::MAX, true)
                .into_iter()
                .map(|plan| plan.unwrap())
                .collect();
            assert_eq!(warm, cold, "resweep round {round} diverged from sweep");
        }
    }

    #[test]
    fn sweep_rejects_degenerate_windows_and_empty_batches() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        assert!(planner.sweep([]).unwrap().is_empty());
        assert!(matches!(
            planner.sweep([0.5, f64::NAN]),
            Err(DaeDvfsError::InvalidRequest { .. })
        ));
        // An infeasible window surfaces that window's error.
        assert!(matches!(
            planner.sweep([1e-9]),
            Err(DaeDvfsError::Qos(MckpError::Infeasible { .. }))
        ));
    }

    #[test]
    fn planner_deploy_matches_prediction() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        let qos = qos_window(planner.baseline_latency().unwrap(), 0.3);
        let plan = planner.optimize(qos).unwrap();
        let report = planner.deploy(&plan).unwrap();
        assert_eq!(report.inference_secs, plan.predicted_latency_secs);
        assert_eq!(report.inference_energy, plan.predicted_energy);
    }

    #[test]
    fn empty_model_rejected_at_construction() {
        let model = Model::new("empty", tinynn::Shape::new(8, 8, 3), Vec::new());
        match Planner::new(&model, &DseConfig::paper()) {
            Err(DaeDvfsError::EmptyModel { model }) => assert_eq!(model, "empty"),
            other => panic!("expected EmptyModel, got {other:?}"),
        }
    }

    #[test]
    fn fronts_cover_every_layer() {
        let model = vww();
        let planner = Planner::new(&model, &DseConfig::paper()).unwrap();
        assert_eq!(planner.fronts().len(), model.layer_count());
        assert_eq!(planner.layers().len(), model.layer_count());
        assert!(planner.fronts().iter().all(|f| !f.is_empty()));
    }
}
