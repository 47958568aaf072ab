//! Reusable flat DP storage for the solver core.
//!
//! Every solve used to allocate its DP rows (`vec![vec![INF; buckets]]`),
//! per-class pick tables and backtracking traces from scratch. A
//! [`SolverWorkspace`] owns all of those buffers as row-major flat vectors
//! and hands them to the DP cores, which resize-and-refill instead of
//! reallocating. The [`crate::Planner`] holds a [`WorkspacePool`] of them
//! and reuses them across `optimize` / `sweep` calls; standalone callers
//! can create one per thread and amortize it over a batch of solves.
//!
//! Since the quantized-kernel rewrite the workspace also retains the
//! **checkpointed** MCKP table of its last solve: one row per class
//! prefix (`mckp_rows`) together with the quantized item lanes and grid
//! that produced it. The incremental entry point
//! ([`crate::solver::mckp_resweep`]) diffs freshly prepared lanes against
//! the retained ones bitwise and refills only the suffix rows after the
//! first changed class. The scratch contract is therefore refined, not
//! weakened: **results never depend on which workspace a solve used** —
//! retained checkpoints only change how much of the table is *refilled*,
//! never its contents, because a prefix is reused only when the grid and
//! every lane byte feeding it are identical. A workspace stays safe to
//! reuse for any later solve of any shape.

use stm32_rcc::Hertz;

use crate::solver::Grid;
use crate::sync::{lock, rank, RankedMutex};

/// Per-item precomputed data for the sequence DP: the item's frequency id
/// in the solve's frequency universe, its bucket weights and adjusted
/// energies for the same-frequency and changed-frequency transitions.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SeqItem {
    /// Index of the item's HFO sysclk in the sorted frequency universe.
    pub f_new: u16,
    /// Bucket weight when the previous layer left the same HFO locked.
    pub w_same: usize,
    /// Bucket weight when entering from a different HFO (adds the exposed
    /// re-lock overhead).
    pub w_diff: usize,
    /// Adjusted energy (window objective) for the same-frequency entry.
    pub de_same: f64,
    /// Adjusted energy for the changed-frequency entry.
    pub de_diff: f64,
}

/// Reusable flat buffers for the MCKP and sequence DPs.
///
/// Construct once, pass to the `*_with` solver entry points (or to
/// [`crate::solver::mckp_sweep`]), and keep it around: buffer capacity is
/// retained between solves, so steady state solves allocate nothing, and
/// the checkpointed MCKP table of the last solve stays available for
/// [`crate::solver::mckp_resweep`] to reuse.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Checkpointed MCKP DP table, `(classes + 1) × buckets` row-major:
    /// row `0` is the empty prefix (`[0, ∞, …]`), row `k + 1` the state
    /// after relaxing class `k`. The last row is the answer table; the
    /// interior rows are the per-class checkpoints incremental re-solve
    /// resumes from (they also back the pick reconstruction at extract
    /// time, replacing the historical pick table).
    pub(crate) mckp_rows: Vec<f64>,
    /// Quantized per-item bucket weights, class-major (see
    /// `mckp_offsets`); `u32::MAX` marks an item wider than the table.
    pub(crate) mckp_weights: Vec<u32>,
    /// Per-item energies, class-major, densely packed for the kernel.
    pub(crate) mckp_energies: Vec<f64>,
    /// Start offset of each class in the MCKP lanes (plus a final
    /// end-of-data sentinel).
    pub(crate) mckp_offsets: Vec<usize>,
    /// Staging lane for freshly quantized weights, diffed against
    /// `mckp_weights` before being committed (swap, not copy).
    pub(crate) mckp_stage_weights: Vec<u32>,
    /// Staging lane for fresh energies (see `mckp_stage_weights`).
    pub(crate) mckp_stage_energies: Vec<f64>,
    /// Staging offsets for the fresh lanes.
    pub(crate) mckp_stage_offsets: Vec<usize>,
    /// The grid `mckp_rows` was filled on; `None` until the first solve.
    /// A retained prefix is only reused when the new grid is identical.
    pub(crate) mckp_grid: Option<Grid>,
    /// Per-layer sequence DP table, `layers × (nf × buckets)` row-major:
    /// row `k` is the state after layer `k` (layer 0 is the
    /// boot-initialized row). Backs the backtrack reconstruction,
    /// replacing the historical trace table.
    pub(crate) seq_rows: Vec<f64>,
    /// Per-item precomputed weights / energies / frequency ids,
    /// front-major (see `seq_offsets`).
    pub(crate) seq_items: Vec<SeqItem>,
    /// Start offset of each front in `seq_items` (plus a final sentinel).
    pub(crate) seq_offsets: Vec<usize>,
    /// The solve's sorted, deduplicated frequency universe.
    pub(crate) freqs: Vec<Hertz>,
}

impl SolverWorkspace {
    /// An empty workspace; buffers grow on first use and are retained.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }
}

/// A small pool of [`SolverWorkspace`]s shared by concurrent solvers.
///
/// The [`crate::Planner`] historically kept **one** workspace behind a
/// `try_lock`: the loser of any contention solved into a throw-away
/// workspace and its warmed buffers were dropped on the floor. The pool
/// keeps up to `capacity` workspaces around instead, so every concurrent
/// solve checks one out, reuses its retained buffers, and returns it —
/// steady-state contended solves allocate nothing, and a hot group's
/// checkpointed table tends to come back on the next checkout, letting
/// the incremental entry point skip the fill entirely.
///
/// Checkouts never block on other solvers: [`WorkspacePool::take`] only
/// holds the pool lock long enough to pop a slot, and an empty pool hands
/// out a fresh workspace (warmed ones are returned up to the capacity,
/// extras are dropped). Results can never depend on which workspace a
/// solve used — retained checkpoints only change how much of the table is
/// refilled, never its contents (see [`SolverWorkspace`]).
#[derive(Debug)]
pub struct WorkspacePool {
    /// Carries [`rank::WORKSPACE`], the highest rank in the workspace's
    /// lock order: a solve may run under any service lock regime without
    /// inverting the acquisition order.
    slots: RankedMutex<Vec<SolverWorkspace>>,
    capacity: usize,
}

impl Default for WorkspacePool {
    /// A single-slot pool (the smallest useful capacity).
    fn default() -> Self {
        WorkspacePool::new(1)
    }
}

impl WorkspacePool {
    /// A pool retaining at most `capacity` idle workspaces (floored at 1).
    pub fn new(capacity: usize) -> Self {
        WorkspacePool {
            slots: RankedMutex::new(rank::WORKSPACE, Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism — one retained
    /// workspace per hardware thread that could be solving concurrently.
    pub fn for_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkspacePool::new(threads)
    }

    /// Checks a workspace out of the pool (a fresh one when the pool is
    /// empty). Pair with [`WorkspacePool::put`], or use
    /// [`WorkspacePool::run`] for the scoped form.
    pub fn take(&self) -> SolverWorkspace {
        lock(&self.slots).pop().unwrap_or_default()
    }

    /// Returns a workspace to the pool; dropped if the pool already holds
    /// `capacity` idle workspaces.
    pub fn put(&self, workspace: SolverWorkspace) {
        let mut slots = lock(&self.slots);
        if slots.len() < self.capacity.max(1) {
            slots.push(workspace);
        }
    }

    /// Runs `f` with a pooled workspace, returning it afterwards. The
    /// closure runs outside any lock, so concurrent `run` calls proceed
    /// in parallel on distinct workspaces.
    pub fn run<R>(&self, f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
        let mut workspace = self.take();
        let result = f(&mut workspace);
        self.put(workspace);
        result
    }

    /// Number of idle workspaces currently retained (diagnostics/tests).
    pub fn idle(&self) -> usize {
        lock(&self.slots).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_reusable_scratch() {
        let ws = SolverWorkspace::new();
        assert!(ws.mckp_rows.is_empty());
        assert!(ws.mckp_grid.is_none());
        // Clone + Default make it cheap to hand one per worker thread.
        let _ = ws.clone();
    }

    #[test]
    fn pool_reuses_returned_workspaces() {
        let pool = WorkspacePool::new(2);
        assert_eq!(pool.idle(), 0);
        let mut ws = pool.take();
        ws.mckp_rows.resize(128, 0.0);
        let capacity = ws.mckp_rows.capacity();
        pool.put(ws);
        assert_eq!(pool.idle(), 1);
        // The warmed buffer comes back on the next checkout.
        let ws = pool.take();
        assert!(ws.mckp_rows.capacity() >= capacity);
        assert_eq!(pool.idle(), 0);
        pool.put(ws);
    }

    #[test]
    fn pool_caps_retained_workspaces() {
        let pool = WorkspacePool::new(2);
        for _ in 0..5 {
            pool.put(SolverWorkspace::new());
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn run_returns_the_workspace() {
        let pool = WorkspacePool::new(4);
        let out = pool.run(|ws| {
            ws.mckp_rows.push(1.0);
            ws.mckp_rows.len()
        });
        assert_eq!(out, 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_workspaces() {
        let pool = WorkspacePool::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    pool.run(|ws| {
                        ws.mckp_rows.clear();
                        ws.mckp_rows.resize(64, 0.0);
                    });
                });
            }
        });
        assert!(pool.idle() >= 1 && pool.idle() <= 8);
    }
}
