//! The typed planning request: what to optimize, validated up front.
//!
//! [`PlanRequest`] replaces the positional `(model, slack, &DseConfig)`
//! argument soup of the historical free functions with a builder that
//! names every knob — the QoS budget (absolute window or slack over the
//! baseline), the solver, and an optional DP-resolution override — and
//! rejects degenerate values (`NaN`, non-positive times, a zero or
//! oversized resolution) with [`DaeDvfsError::InvalidRequest`] *before* any DSE or solver work
//! runs, instead of silently producing a degenerate plan.
//!
//! ```
//! use dae_dvfs::{PlanRequest, Planner, Solver};
//! use tinynn::models::vww_sized;
//!
//! # fn main() -> Result<(), dae_dvfs::DaeDvfsError> {
//! let planner = Planner::new(&vww_sized(32), &Default::default())?;
//! let plan = planner.plan(&PlanRequest::slack(0.3).with_solver(Solver::SequenceDp))?;
//! assert!(plan.predicted_latency_secs <= plan.qos_secs);
//! # Ok(())
//! # }
//! ```

use crate::error::DaeDvfsError;

/// Which QoS optimizer a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Solver {
    /// The paper's MCKP DP with the replay-validated switching-reserve
    /// grid ([`crate::Planner::optimize`]); the default.
    #[default]
    ReserveGrid,
    /// The layered-graph sequence DP that prices inter-layer PLL re-locks
    /// exactly ([`crate::Planner::optimize_sequence`]).
    SequenceDp,
}

/// How the request expresses its latency budget.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum QosBudget {
    /// An absolute window in seconds.
    Window(f64),
    /// A slack fraction over the target's baseline latency: the window is
    /// `baseline × (1 + slack)` (the paper's 0.10 / 0.30 / 0.50 levels).
    Slack(f64),
}

/// A validated, typed planning request.
///
/// Construct with [`PlanRequest::qos`] or [`PlanRequest::slack`], refine
/// with the `with_*` builders, and hand to [`crate::Planner::plan`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PlanRequest {
    budget: QosBudget,
    solver: Solver,
    dp_resolution: Option<usize>,
}

impl PlanRequest {
    /// Largest DP-resolution override a request may ask for: 32× the
    /// default ([`crate::DseConfig::DEFAULT_DP_RESOLUTION`]) and well
    /// past any useful resolution. The DP tables grow linearly with it,
    /// so an unbounded value from a request body could exhaust memory.
    pub const MAX_DP_RESOLUTION: usize = 1 << 16;

    /// A request for an absolute QoS window of `qos_secs` seconds.
    pub fn qos(qos_secs: f64) -> Self {
        PlanRequest {
            budget: QosBudget::Window(qos_secs),
            solver: Solver::default(),
            dp_resolution: None,
        }
    }

    /// A request for a window of `slack` fractional slack over the
    /// baseline latency.
    pub fn slack(slack: f64) -> Self {
        PlanRequest {
            budget: QosBudget::Slack(slack),
            solver: Solver::default(),
            dp_resolution: None,
        }
    }

    /// Selects the solver (builder style).
    pub fn with_solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the DP time-axis resolution for this request only
    /// (builder style); the planner's configured resolution applies
    /// otherwise.
    pub fn with_dp_resolution(mut self, resolution: usize) -> Self {
        self.dp_resolution = Some(resolution);
        self
    }

    /// The requested budget.
    pub fn budget(&self) -> QosBudget {
        self.budget
    }

    /// The requested solver.
    pub fn solver(&self) -> Solver {
        self.solver
    }

    /// The per-request DP-resolution override, if any.
    pub fn dp_resolution(&self) -> Option<usize> {
        self.dp_resolution
    }

    /// Checks every knob for degenerate values.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] naming the offending field when
    /// the budget is NaN, infinite, zero or negative, or the resolution
    /// override is zero or above [`PlanRequest::MAX_DP_RESOLUTION`].
    pub fn validate(&self) -> Result<(), DaeDvfsError> {
        match self.budget {
            QosBudget::Window(qos) => validate_positive_time("qos_secs", qos)?,
            QosBudget::Slack(slack) => validate_positive_time("slack", slack)?,
        }
        if let Some(resolution) = self.dp_resolution {
            if resolution == 0 || resolution > Self::MAX_DP_RESOLUTION {
                return Err(DaeDvfsError::InvalidRequest {
                    field: "dp_resolution",
                    reason: format!(
                        "must be in 1..={}, got {resolution}",
                        Self::MAX_DP_RESOLUTION
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Rejects NaN, infinite, zero and negative values for a field that must
/// be a positive finite quantity.
pub(crate) fn validate_positive_time(field: &'static str, value: f64) -> Result<(), DaeDvfsError> {
    if !value.is_finite() {
        return Err(DaeDvfsError::InvalidRequest {
            field,
            reason: format!("must be finite, got {value}"),
        });
    }
    if value <= 0.0 {
        return Err(DaeDvfsError::InvalidRequest {
            field,
            reason: format!("must be positive, got {value}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rejected_field(request: &PlanRequest) -> &'static str {
        match request.validate().unwrap_err() {
            DaeDvfsError::InvalidRequest { field, .. } => field,
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn default_request_is_reserve_grid_without_override() {
        let r = PlanRequest::qos(0.5);
        assert_eq!(r.solver(), Solver::ReserveGrid);
        assert_eq!(r.dp_resolution(), None);
        assert_eq!(r.budget(), QosBudget::Window(0.5));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn nan_qos_rejected() {
        assert_eq!(rejected_field(&PlanRequest::qos(f64::NAN)), "qos_secs");
    }

    #[test]
    fn infinite_qos_rejected() {
        assert_eq!(rejected_field(&PlanRequest::qos(f64::INFINITY)), "qos_secs");
    }

    #[test]
    fn negative_qos_rejected() {
        assert_eq!(rejected_field(&PlanRequest::qos(-0.1)), "qos_secs");
    }

    #[test]
    fn zero_qos_rejected() {
        assert_eq!(rejected_field(&PlanRequest::qos(0.0)), "qos_secs");
    }

    #[test]
    fn nan_slack_rejected() {
        assert_eq!(rejected_field(&PlanRequest::slack(f64::NAN)), "slack");
    }

    #[test]
    fn negative_slack_rejected() {
        assert_eq!(rejected_field(&PlanRequest::slack(-0.3)), "slack");
    }

    #[test]
    fn zero_slack_rejected() {
        assert_eq!(rejected_field(&PlanRequest::slack(0.0)), "slack");
    }

    #[test]
    fn zero_resolution_override_rejected() {
        let r = PlanRequest::qos(0.5).with_dp_resolution(0);
        assert_eq!(rejected_field(&r), "dp_resolution");
        let r = PlanRequest::qos(0.5).with_dp_resolution(PlanRequest::MAX_DP_RESOLUTION + 1);
        assert_eq!(rejected_field(&r), "dp_resolution");
        let r = PlanRequest::qos(0.5).with_dp_resolution(PlanRequest::MAX_DP_RESOLUTION);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn valid_overrides_accepted() {
        let r = PlanRequest::slack(0.3)
            .with_solver(Solver::SequenceDp)
            .with_dp_resolution(800);
        assert!(r.validate().is_ok());
        assert_eq!(r.solver(), Solver::SequenceDp);
        assert_eq!(r.dp_resolution(), Some(800));
    }
}
