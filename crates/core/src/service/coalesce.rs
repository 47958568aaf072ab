//! Request canonicalization and coalesced batch solving.
//!
//! Canonicalization turns an arbitrary [`PlanRequest`] into the identity
//! the cache and coalescer operate on: slack budgets are resolved to
//! absolute windows against the planner's (cached) baseline, the window
//! is snapped **down** onto the service's QoS quantum, and the solver and
//! DP resolution are made explicit. Snapping down means the plan solved
//! for the canonical window is always feasible for the original request
//! (`latency ≤ canonical window ≤ requested window`), so sharing one
//! entry across a quantum's worth of near-identical windows never breaks
//! a caller's deadline.
//!
//! Batches are formed per [`GroupKey`] — everything that must agree for
//! two requests to be answered from one shared-grid DP table — and
//! solved by [`solve_batch`] according to the group's solver.

use tinyengine::qos_window;

use crate::error::DaeDvfsError;
use crate::pipeline::DeploymentPlan;
use crate::planner::Planner;
use crate::request::{PlanRequest, QosBudget, Solver};
use crate::service::cache::PlanKey;

/// The coalescing identity of a request: two in-flight requests with
/// equal group keys can be answered by one batched solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct GroupKey {
    pub model_fingerprint: u64,
    pub config_fingerprint: u64,
    pub solver: Solver,
    pub dp_resolution: usize,
}

/// A fully canonicalized request: cache key, group key and the resolved
/// window the solve runs at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CanonicalRequest {
    pub group: GroupKey,
    pub key: PlanKey,
    pub window_secs: f64,
}

/// Resolves `request` into its canonical cache/coalescing identity.
///
/// # Errors
///
/// [`DaeDvfsError::InvalidRequest`] for degenerate knobs; baseline
/// lowering errors while resolving a slack budget.
pub(crate) fn canonicalize(
    planner: &Planner,
    request: &PlanRequest,
    quantum_secs: f64,
) -> Result<CanonicalRequest, DaeDvfsError> {
    request.validate()?;
    let window = match request.budget() {
        QosBudget::Window(qos) => qos,
        QosBudget::Slack(slack) => qos_window(planner.baseline_latency()?, slack),
    };
    let window = quantize(window, quantum_secs);
    let dp_resolution = request
        .dp_resolution()
        .unwrap_or(planner.config().dp_resolution);
    let (model_fingerprint, config_fingerprint) =
        (planner.model_fingerprint(), planner.config_fingerprint());
    let group = GroupKey {
        model_fingerprint,
        config_fingerprint,
        solver: request.solver(),
        dp_resolution,
    };
    Ok(CanonicalRequest {
        group,
        key: PlanKey {
            model_fingerprint,
            config_fingerprint,
            solver: request.solver(),
            window_bits: window.to_bits(),
            dp_resolution,
        },
        window_secs: window,
    })
}

/// Snaps a window down onto the quantum grid. Windows smaller than one
/// quantum are left exact (snapping would make them non-positive), as is
/// everything when the quantum is zero (quantization disabled).
///
/// The result **never exceeds** `window_secs`: `floor(w/q) * q` can land
/// one ulp above `w` when the division rounds up against a multiple, so
/// the snap steps down a quantum until it is at or below the request —
/// the feasibility contract (shared plans never overrun any aliased
/// caller's deadline) depends on this. When the quantum is smaller than
/// one ulp of the window (`w/q` beyond ~2⁵³), stepping down cannot make
/// progress, so the window is kept exact instead — quantization
/// degrades gracefully rather than looping or overshooting.
pub(crate) fn quantize(window_secs: f64, quantum_secs: f64) -> f64 {
    if quantum_secs <= 0.0 {
        return window_secs;
    }
    let mut snapped = (window_secs / quantum_secs).floor() * quantum_secs;
    for _ in 0..4 {
        if snapped <= window_secs {
            break;
        }
        let stepped = snapped - quantum_secs;
        if stepped >= snapped {
            // Sub-ulp quantum: subtraction is a no-op at this magnitude.
            return window_secs;
        }
        snapped = stepped;
    }
    if snapped > 0.0 && snapped <= window_secs {
        snapped
    } else {
        window_secs
    }
}

/// Answers one group's batch of **distinct** windows. Results are
/// positionally aligned with `windows`.
///
/// [`Solver::ReserveGrid`] batches are answered by **one shared-grid DP
/// pass** ([`crate::Planner::sweep`] semantics). The answers are
/// deterministic and *batch-invariant* — bit-identical to a singleton
/// `Planner::sweep([window])` of the same request, no matter which other
/// requests were coalesced alongside — and agree with
/// [`crate::Planner::plan`] within the solver's documented discretization
/// bound. `sweep_threads` caps that path's extraction striping — the
/// calling worker's share of the machine, so concurrent batches do not
/// oversubscribe it. [`Solver::SequenceDp`] batches are answered one
/// request at a time by [`crate::Planner::plan`].
pub(crate) fn solve_batch(
    planner: &Planner,
    solver: Solver,
    dp_resolution: usize,
    windows: &[f64],
    sweep_threads: usize,
) -> Vec<Result<DeploymentPlan, DaeDvfsError>> {
    match solver {
        Solver::ReserveGrid => {
            // reuse=true: hot groups hit the same planner (and so the same
            // workspace pool) batch after batch, and the checkpointed DP
            // table lets an unchanged group skip the shared-grid fill
            // entirely. Bit-identical to a cold fill by construction.
            planner.sweep_distinct(windows, dp_resolution, sweep_threads, true)
        }
        Solver::SequenceDp => windows
            .iter()
            .map(|&window| {
                let request = PlanRequest::qos(window)
                    .with_solver(solver)
                    .with_dp_resolution(dp_resolution);
                planner.plan(&request)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_snaps_down_and_keeps_tiny_windows_exact() {
        assert_eq!(quantize(0.537, 0.0), 0.537);
        assert!((quantize(0.537, 0.01) - 0.53).abs() < 1e-12);
        assert!((quantize(0.5, 0.01) - 0.5).abs() < 1e-12);
        // Below one quantum the window stays exact instead of hitting 0.
        assert_eq!(quantize(0.004, 0.01), 0.004);
    }

    #[test]
    fn quantized_window_never_exceeds_the_request() {
        for window in [0.011, 0.5, 0.9999, 3.0, 1e-4] {
            for quantum in [0.0, 1e-3, 0.1, 5.0] {
                let snapped = quantize(window, quantum);
                assert!(snapped > 0.0);
                assert!(snapped <= window, "{window} @ {quantum}");
            }
        }
        // `floor(w/q) * q` rounds one ulp ABOVE w for this pair; the snap
        // must still come out at or below the request.
        let w: f64 = 3_857.629_139_124_038_4;
        let q: f64 = 0.057_999_866_775_782_03;
        assert!(
            (w / q).floor() * q > w,
            "counterexample no longer rounds up"
        );
        let snapped = quantize(w, q);
        assert!(snapped <= w && snapped > 0.0);
        assert!(w - snapped < 2.0 * q, "stepped down too far");
    }

    #[test]
    fn sub_ulp_quantum_keeps_the_window_exact_and_terminates() {
        // w/q exceeds 2^53: floor(w/q)*q lands above w and subtracting
        // one quantum is a floating-point no-op — this pair hung the
        // naive `while snapped > w { snapped -= q }` loop forever.
        let w: f64 = 82_748_235_400.785;
        let q: f64 = 1.42e-7;
        assert_eq!(quantize(w, q), w);
        // Plain sub-ulp quanta (no overshoot) also keep a usable key.
        let snapped = quantize(1e10, 1e-9);
        assert!(snapped > 0.0 && snapped <= 1e10);
    }
}
