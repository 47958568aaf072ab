//! The shared solver core: one DP pass, many budgets.
//!
//! The pseudo-polynomial MCKP and sequence DPs ([`crate::mckp`],
//! [`crate::seqdp`]) dominate planning time. Historically every QoS point
//! re-ran the full table fill on a *budget-relative* time grid
//! (`scale = budget / resolution`), even though a DP table computed over
//! an absolute grid already contains the optimum for **every** budget at
//! or below its maximum: `dp[b]` is the minimum objective over selections
//! of total bucket-weight exactly `b`, so answering a budget `B` is just a
//! scan of the buckets `0..=⌊B/scale⌋` plus a backtrack.
//!
//! This module exploits that:
//!
//! * [`mckp_sweep`] runs **one** MCKP table fill over a shared absolute
//!   grid sized to the largest requested budget, with the scale chosen so
//!   the *smallest* budget still resolves to at least the requested
//!   bucket count (`Grid::shared`). The returned [`MckpSweep`] handle
//!   answers any budget within the grid by a cheap scan-and-backtrack
//!   ([`MckpSweep::best_for`]), which is what turns an N-point QoS sweep
//!   into ~1 DP pass plus N extractions.
//! * [`solve_dp_sweep`] is the batch convenience over that handle.
//! * All storage lives in a reusable [`SolverWorkspace`] of row-major
//!   flat buffers — no per-call, per-layer `vec![vec![…]]` allocations —
//!   and per-item bucket weights / energies / frequency ids are quantized
//!   once per solve into contiguous `u32`/`f64` lanes instead of being
//!   re-derived per layer transition.
//! * The table fills run on the branch-free kernels of `solver/kernel.rs`
//!   (select-form chunked min-reductions the autovectorizer lifts to
//!   SIMD; `+∞` is the absorbing infeasibility sentinel, picks are
//!   reconstructed at backtrack time instead of stored) and the MCKP table
//!   is retained as per-class **checkpoint rows**, which is what
//!   [`mckp_resweep`] resumes from: when only a suffix of the classes
//!   changed since the workspace's last solve, the unaffected prefix is
//!   reused and only the suffix refills — bit-identically to a
//!   from-scratch fill.
//!
//! The single-budget entry points [`crate::mckp::solve_dp`] and
//! [`crate::seqdp::solve_sequence`] are thin wrappers over the same cores
//! with a one-budget grid (`scale = budget / resolution`), which keeps
//! them bit-identical to the historical implementations — the planner
//! equivalence pins rely on that. The sequence DP has only this per-call
//! entry point.
//!
//! ## Discretization bound
//!
//! Item weights are rounded *up* to buckets and budgets are rounded
//! *down*, so every extracted solution is feasible in real time. For a
//! budget `B` answered on a grid of scale `s` with `n` classes, the
//! returned energy `E` satisfies the standard pseudo-polynomial bound
//!
//! ```text
//! OPT(B) ≤ E ≤ OPT(B − n·s)
//! ```
//!
//! (each of the `n` chosen items loses at most one bucket to rounding,
//! and the budget itself at most one more — absorbed by the floor).
//! Because `Grid::shared` picks `s ≤ min_budget / resolution`, the
//! shared-grid answer for every budget is at least as finely resolved as
//! the per-call answer (`s ≤ B / resolution` for every `B` in the batch),
//! so sweep and per-call results agree within the *per-call* bound:
//! both lie in `[OPT(B), OPT(B − n·B/resolution)]`. The property tests in
//! `tests/proptests.rs` pin exactly this window against the exhaustive
//! solver.
//!
//! ## Grid capping
//!
//! A batch whose budgets span many orders of magnitude would need
//! `resolution · max/min` buckets. `Grid::shared` caps the table at
//! [`MAX_SWEEP_BUCKETS`]; past the cap the scale coarsens and the
//! smallest budgets resolve to fewer buckets than requested (the bound
//! above still holds with the actual scale, which [`MckpSweep::scale`]
//! reports).

mod kernel;
mod mckp;
mod seqdp;
mod workspace;

pub(crate) use mckp::solve_dp_with;
pub use mckp::{mckp_resweep, mckp_sweep, solve_dp_sweep, MckpSweep};
pub(crate) use seqdp::solve_sequence_with;
pub use workspace::{SolverWorkspace, WorkspacePool};

use crate::mckp::MckpError;

/// Hard cap on the bucket count of a shared sweep grid; batches whose
/// budget spread would exceed it get a coarser scale instead of an
/// unbounded table (see the module docs).
pub const MAX_SWEEP_BUCKETS: usize = 1 << 20;

/// The discretized time axis of one solve: a bucket width (`scale`,
/// seconds) and the number of buckets (`buckets`, covering weights
/// `0..buckets`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grid {
    pub scale: f64,
    pub buckets: usize,
}

impl Grid {
    /// The historical single-budget grid: `scale = budget / resolution`,
    /// `resolution + 1` buckets. Bit-identical to the pre-sweep solvers.
    pub fn single(budget_secs: f64, resolution: usize) -> Grid {
        Grid {
            scale: budget_secs / resolution as f64,
            buckets: resolution + 1,
        }
    }

    /// A shared absolute grid covering every budget in `budgets`: the
    /// scale resolves the smallest budget into at least `resolution`
    /// buckets, and the bucket count covers the largest budget, capped at
    /// [`MAX_SWEEP_BUCKETS`] (floored at `resolution + 1`, so a capped
    /// grid is never coarser than the historical single-budget grid). A
    /// one-budget batch degenerates to exactly the historical
    /// single-budget grid.
    ///
    /// # Errors
    ///
    /// [`MckpError::InvalidInput`] for an empty batch, a non-finite or
    /// non-positive budget, or zero resolution.
    pub fn shared(budgets: &[f64], resolution: usize) -> Result<Grid, MckpError> {
        validate_resolution(resolution)?;
        if budgets.is_empty() {
            return Err(MckpError::InvalidInput {
                field: "budgets",
                reason: "batch must contain at least one budget".into(),
            });
        }
        let mut min_b = f64::INFINITY;
        let mut max_b = 0.0f64;
        for &b in budgets {
            validate_budget(b)?;
            min_b = min_b.min(b);
            max_b = max_b.max(b);
        }
        let max_buckets = MAX_SWEEP_BUCKETS.max(resolution + 1);
        // `exact_limit` is clamped at the cap itself, so extreme spreads
        // (or a scale that underflows to zero) saturate there instead of
        // overflowing `usize` — hitting the cap selects the coarse branch.
        let mut scale = min_b / resolution as f64;
        let mut limit = exact_limit(max_b, scale, max_buckets);
        if limit >= max_buckets {
            scale = max_b / (max_buckets - 1) as f64;
            while exact_limit(max_b, scale, max_buckets) >= max_buckets {
                scale = f64::from_bits(scale.to_bits() + 1);
            }
            limit = exact_limit(max_b, scale, max_buckets);
        }
        Ok(Grid {
            scale,
            buckets: limit + 1,
        })
    }

    /// The largest bucket whose start lies within `budget` — i.e. the
    /// highest total weight a selection may carry and still be feasible in
    /// real time (`limit · scale ≤ budget`). Never exceeds the grid.
    pub fn limit_for(&self, budget_secs: f64) -> usize {
        exact_limit(budget_secs, self.scale, self.buckets - 1)
    }
}

/// The largest `l ≤ cap` with `l · scale ≤ budget`, computed by direct
/// comparison so budgets sitting exactly on a bucket edge resolve to that
/// edge regardless of how the initial float division rounds. The
/// comparison carries a 1-part-in-10¹² relative tolerance: the historical
/// single-budget solver scans all `resolution + 1` buckets even when
/// `resolution · (budget/resolution)` lands an ulp above the budget, and
/// the shared grid reproduces exactly that behavior (feasibility holds up
/// to the same float rounding).
fn exact_limit(budget: f64, scale: f64, cap: usize) -> usize {
    let tol = budget * (1.0 + 1e-12);
    let mut l = ((budget / scale) as usize).min(cap);
    while l < cap && (l + 1) as f64 * scale <= tol {
        l += 1;
    }
    while l > 0 && l as f64 * scale > tol {
        l -= 1;
    }
    l
}

/// Rejects non-finite / non-positive budgets with a typed error (the
/// solver API boundary is panic-free).
pub(crate) fn validate_budget(budget_secs: f64) -> Result<(), MckpError> {
    if !(budget_secs.is_finite() && budget_secs > 0.0) {
        return Err(MckpError::InvalidInput {
            field: "budget_secs",
            reason: format!("must be a positive finite time, got {budget_secs}"),
        });
    }
    Ok(())
}

/// Rejects a zero DP resolution with a typed error.
pub(crate) fn validate_resolution(resolution: usize) -> Result<(), MckpError> {
    if resolution == 0 {
        return Err(MckpError::InvalidInput {
            field: "resolution",
            reason: "must be non-zero".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_grid_matches_historical_layout() {
        let g = Grid::single(0.5, 2000);
        assert_eq!(g.buckets, 2001);
        assert!((g.scale - 0.5 / 2000.0).abs() < 1e-18);
    }

    #[test]
    fn shared_grid_keeps_resolution_for_smallest_budget() {
        for (lo, hi, res) in [(0.1, 1.0, 500), (0.33, 0.77, 2000), (1e-3, 3e-3, 100)] {
            let g = Grid::shared(&[lo, hi], res).unwrap();
            assert!(
                g.limit_for(lo) >= res,
                "smallest budget lost resolution: {} < {res}",
                g.limit_for(lo)
            );
            assert!(g.limit_for(hi) == g.buckets - 1);
            // The limit is real-time feasible up to float rounding.
            assert!(g.limit_for(lo) as f64 * g.scale <= lo * (1.0 + 1e-9));
        }
    }

    #[test]
    fn budgets_on_bucket_edges_resolve_to_the_edge() {
        let g = Grid::shared(&[1.0, 2.0], 100).unwrap();
        for l in [1usize, 37, 100, 150] {
            let edge = l as f64 * g.scale;
            assert_eq!(g.limit_for(edge), l, "edge budget {edge} missed bucket {l}");
        }
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        assert!(matches!(
            Grid::shared(&[], 100),
            Err(MckpError::InvalidInput {
                field: "budgets",
                ..
            })
        ));
        assert!(matches!(
            Grid::shared(&[1.0, f64::NAN], 100),
            Err(MckpError::InvalidInput {
                field: "budget_secs",
                ..
            })
        ));
        assert!(matches!(
            Grid::shared(&[1.0, -2.0], 100),
            Err(MckpError::InvalidInput {
                field: "budget_secs",
                ..
            })
        ));
        assert!(matches!(
            Grid::shared(&[1.0], 0),
            Err(MckpError::InvalidInput {
                field: "resolution",
                ..
            })
        ));
    }

    #[test]
    fn wide_spread_hits_the_bucket_cap() {
        let g = Grid::shared(&[1e-9, 1.0], 2000).unwrap();
        assert!(g.buckets <= MAX_SWEEP_BUCKETS);
        assert_eq!(g.limit_for(1.0), g.buckets - 1);
    }

    #[test]
    fn extreme_spreads_saturate_instead_of_overflowing() {
        // Spreads whose uncapped bucket count exceeds usize (and scales
        // that underflow to zero) must route into the cap branch, not
        // overflow arithmetic or produce an empty table.
        for budgets in [
            vec![1e-300, 1e300],
            vec![f64::MIN_POSITIVE, 1.0],
            vec![1e-6, 1e12],
        ] {
            let g = Grid::shared(&budgets, 2000).unwrap();
            assert!(
                g.buckets >= 2 && g.buckets <= MAX_SWEEP_BUCKETS,
                "{budgets:?}"
            );
            assert!(g.scale > 0.0);
        }
    }

    #[test]
    fn explicit_cap_never_drops_below_the_per_call_grid() {
        let resolution = MAX_SWEEP_BUCKETS + 5;
        let g = Grid::shared(&[1.0, 64.0], resolution).unwrap();
        assert_eq!(g.limit_for(64.0), g.buckets - 1);
        assert!(g.buckets > resolution, "cap floored at resolution + 1");
    }
}
