//! # DAE-enabled DVFS for tinyML on STM32 MCUs
//!
//! Reference implementation of *"Decoupled Access-Execute enabled DVFS for
//! tinyML deployments on STM32 microcontrollers"* (DATE 2024) on a
//! simulated STM32F767. The methodology has three steps (paper Fig. 3):
//!
//! 1. **DAE** ([`dae`]): depthwise and pointwise convolutions are split
//!    into memory-bound (stage `g` channels/columns) and compute-bound
//!    (convolve them) segments — bit-exact, verified by property tests;
//! 2. **DSE** ([`dse`], [`pareto`]): each layer's `(g, f)` grid is priced
//!    on the machine model — memory segments at the 50 MHz LFO, compute at
//!    the PLL-driven HFO — and reduced to its Pareto front;
//! 3. **QoS optimization** ([`mckp`], [`Planner`]): one Pareto point per
//!    layer is chosen by a multiple-choice-knapsack dynamic program so the
//!    model meets its latency budget with minimal energy.
//!
//! The methodology itself is board-agnostic; everything board-specific
//! lives behind the [`target::Target`] trait ([`Stm32F767Target`] is the
//! paper's platform, [`GenericCortexMTarget`] a parameterized alternative),
//! requests are expressed with the typed [`PlanRequest`] builder, and
//! optimized plans travel across processes as versioned [`PlanArtifact`]s.
//! For *streams* of concurrent requests, the [`service::PlanService`]
//! front end adds a fingerprint-keyed plan cache with single-flight miss
//! deduplication and coalesces same-model batches onto shared-grid
//! sweeps — the serving entry point when many tenants ask for plans at
//! once. Below the LRU, the [`registry::PlanRegistry`] persists every
//! artifact to a content-addressed on-disk cold tier so a restarted
//! process answers warm requests without a solve, and the
//! [`server::PlanServer`] puts a dependency-free HTTP/1.1 wire protocol
//! in front of the whole stack (DESIGN.md, "Network serving & artifact
//! registry"). Every served answer can carry an [`obs::Receipt`] — the
//! request's full cache identity, the serving path that answered it,
//! and an FNV-1a hash of the exact bytes served — surfaced on the wire
//! as `X-Plan-Receipt` headers, aggregated into per-path latency
//! histograms on [`ServiceStats`], and replayable offline via
//! `plan_server --replay` (DESIGN.md, "Observability: receipts, metrics
//! & trace replay"). The DP fills themselves run through branch-free quantized
//! kernels; the MCKP table keeps checkpointed rows, so a batch whose
//! inputs drifted in one class re-solves incrementally via
//! [`mckp_resweep`] — bit-identical to a cold fill (DESIGN.md,
//! "Quantized DP kernels & incremental re-solve").
//!
//! The serving stack's invariants are machine-checked: all locking goes
//! through the ranked mutexes in this crate's `sync` module (debug
//! builds panic on out-of-rank acquisition, citing both sites), and
//! `cargo run -p repro-lint -- --check` statically enforces the locking,
//! determinism, and panic-hygiene rules — see DESIGN.md, "Static
//! analysis & concurrency discipline".
//!
//! # Examples
//!
//! The typed request surface: build a [`Planner`] for a target, describe
//! what to optimize with [`PlanRequest`], deploy the plan.
//!
//! ```
//! use dae_dvfs::{PlanRequest, Planner, Stm32F767Target};
//! use tinynn::models::vww_sized;
//!
//! # fn main() -> Result<(), dae_dvfs::DaeDvfsError> {
//! let model = vww_sized(32);
//! let planner = Planner::for_target(Stm32F767Target::paper(), &model)?;
//! let plan = planner.plan(&PlanRequest::slack(0.3))?;
//! let report = planner.deploy(&plan)?;
//! assert!(report.inference_secs <= plan.qos_secs);
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod dae;
pub mod dse;
pub mod error;
pub mod mckp;
pub mod modes;
pub mod obs;
pub mod pareto;
pub mod pipeline;
pub mod planner;
pub mod registry;
pub mod report;
pub mod request;
pub mod schedule;
pub mod seqdp;
pub mod server;
pub mod service;
pub mod solver;
mod sync;
pub mod target;

pub use artifact::{
    config_fingerprint, model_fingerprint, ArtifactDecision, PlanArtifact,
    PLAN_ARTIFACT_SCHEMA_VERSION,
};
pub use dae::{dae_forward_depthwise, dae_forward_pointwise, dae_segments, Granularity};
pub use dse::{evaluate_point, explore_layer, DseConfig, DsePoint};
pub use error::{DaeDvfsError, RegistryError, ServerError, ServiceError};
pub use mckp::{solve_dp, solve_exhaustive, solve_greedy, MckpError, MckpItem, MckpSolution};
pub use modes::OperatingModes;
pub use obs::{HistogramSnapshot, PathStats, Receipt, ServePath};
pub use pareto::{dominates, pareto_front};
pub use pipeline::{lower_model, DeploymentPlan, DeploymentReport, LayerDecision};
pub use planner::Planner;
pub use registry::{PlanRegistry, RegistryStats, REGISTRY_SCHEMA_VERSION};
pub use report::{EnergyComparison, FrequencyMap, FrequencyMapRow};
pub use request::{PlanRequest, QosBudget, Solver};
pub use schedule::{evaluate_schedule, explore_compiled, explore_model, CompiledLayer};
pub use seqdp::{solve_sequence, SequenceSolution};
pub use server::{PlanServer, ServerConfig, ServerHandle};
pub use service::{
    CacheStats, PlanService, PlanTicket, PlannerKey, ServedPlan, ServiceConfig, ServiceStats,
};
pub use solver::{
    mckp_resweep, mckp_sweep, solve_dp_sweep, MckpSweep, SolverWorkspace, WorkspacePool,
    MAX_SWEEP_BUCKETS,
};
pub use target::{GenericCortexMTarget, Stm32F767Target, Target};
