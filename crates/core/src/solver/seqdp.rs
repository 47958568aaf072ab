//! The sequence-DP core: layered-graph table fill over `(frequency,
//! time-bucket)` states, then backtracking extraction for one budget.
//!
//! See [`crate::solver::kernel`] for the branch-free relaxation and the
//! backtrack-reconstruction argument. [`crate::seqdp::solve_sequence`]
//! wraps [`solve_sequence_with`] and is bit-identical to the historical
//! per-call implementation.
//!
//! The table is stored as **per-layer checkpoint rows**: `layers × (nf ×
//! buckets)` with row `k` holding the state after layer `k` (layer 0 is
//! the boot-initialized row). The rows replace the historical
//! `(item, prev_freq, prev_bucket)` trace table — backtracking
//! reconstructs each layer's transition from two adjacent rows, which
//! shrinks the table by the 12-byte-per-state trace.

use stm32_rcc::Hertz;

use crate::dse::{DseConfig, DsePoint};
use crate::mckp::MckpError;
use crate::seqdp::{entry_overhead_secs, entry_power, tally_sequence, SequenceSolution};
use crate::solver::workspace::{SeqItem, SolverWorkspace};
use crate::solver::{kernel, validate_budget, validate_resolution, Grid};

const INF: f64 = f64::INFINITY;

fn validate_fronts(fronts: &[Vec<DsePoint>]) -> Result<(), MckpError> {
    if fronts.is_empty() {
        return Err(MckpError::InvalidInput {
            field: "fronts",
            reason: "sequence needs at least one layer".into(),
        });
    }
    for (k, f) in fronts.iter().enumerate() {
        if f.is_empty() {
            return Err(MckpError::EmptyClass { class: k });
        }
    }
    Ok(())
}

/// Builds the solve's sorted, deduplicated frequency universe into the
/// workspace.
fn build_freqs(fronts: &[Vec<DsePoint>], ws: &mut SolverWorkspace) {
    ws.freqs.clear();
    ws.freqs
        .extend(fronts.iter().flat_map(|f| f.iter().map(|p| p.hfo.sysclk())));
    ws.freqs.sort();
    ws.freqs.dedup();
}

/// Precomputes every item's frequency id, bucket weights and adjusted
/// energies once into the workspace lanes — the inner DP transition then
/// only selects between the same/changed variants instead of re-deriving
/// overheads and re-searching `freqs` per layer. Expects [`build_freqs`]
/// to have run.
///
/// # Errors
///
/// [`MckpError::InvalidInput`] if an item's sysclk is missing from the
/// frequency universe — impossible when [`build_freqs`] ran over the same
/// fronts, but reported as a typed error rather than a panic so a
/// corrupted workspace cannot take a serving worker down.
fn prepare_items(
    fronts: &[Vec<DsePoint>],
    scale: f64,
    config: &DseConfig,
    idle_power_w: f64,
    ws: &mut SolverWorkspace,
) -> Result<(), MckpError> {
    let freq_id = |f: Hertz, freqs: &[Hertz]| -> Result<u16, MckpError> {
        match freqs.iter().position(|&x| x == f) {
            Some(id) => Ok(id as u16),
            None => Err(MckpError::InvalidInput {
                field: "fronts",
                reason: format!("sysclk {f} missing from the solve's frequency universe"),
            }),
        }
    };
    let weight = |t: f64| -> usize { (t / scale).ceil() as usize };

    ws.seq_offsets.clear();
    ws.seq_items.clear();
    for front in fronts {
        ws.seq_offsets.push(ws.seq_items.len());
        for p in front {
            let base_e = p.energy.as_f64() - idle_power_w * p.latency_secs;
            let overhead = entry_overhead_secs(p, config);
            let overhead_e = entry_power(p, config).as_f64() * overhead - idle_power_w * overhead;
            ws.seq_items.push(SeqItem {
                f_new: freq_id(p.hfo.sysclk(), &ws.freqs)?,
                w_same: weight(p.latency_secs),
                w_diff: weight(p.latency_secs + overhead),
                de_same: base_e,
                de_diff: base_e + overhead_e,
            });
        }
    }
    ws.seq_offsets.push(ws.seq_items.len());
    Ok(())
}

/// Fills the checkpointed layered DP grid: afterwards
/// `rows[k * states + f * buckets + b]` is the minimum adjusted energy
/// over layers `0..=k` having left frequency `f` locked with total
/// bucket-weight exactly `b`.
fn fill_table(nlayers: usize, buckets: usize, ws: &mut SolverWorkspace) {
    let nf = ws.freqs.len();
    let states = nf * buckets;
    let SolverWorkspace {
        seq_rows: rows,
        seq_items: items,
        seq_offsets: offsets,
        ..
    } = ws;
    rows.clear();
    rows.resize(nlayers * states, INF);
    // Layer 0: the machine boots with the first layer's PLL locked (as
    // the paper's setup does), so no entry cost. The handful of scattered
    // stores stays branchy — it is O(items), not O(states).
    let row0 = &mut rows[..states];
    for it in &items[offsets[0]..offsets[1]] {
        let w = it.w_same;
        if w >= buckets {
            continue;
        }
        let s = it.f_new as usize * buckets + w;
        if it.de_same < row0[s] {
            row0[s] = it.de_same;
        }
    }
    for k in 1..nlayers {
        let (prev_rows, cur_rows) = rows.split_at_mut(k * states);
        let prev = &prev_rows[(k - 1) * states..];
        let cur = &mut cur_rows[..states];
        for it in &items[offsets[k]..offsets[k + 1]] {
            let f_new = it.f_new as usize;
            for f_prev in 0..nf {
                let (w, de) = if f_prev == f_new {
                    (it.w_same, it.de_same)
                } else {
                    (it.w_diff, it.de_diff)
                };
                if w >= buckets {
                    continue;
                }
                let prev_row = &prev[f_prev * buckets..f_prev * buckets + (buckets - w)];
                let cur_row = &mut cur[f_new * buckets + w..(f_new + 1) * buckets];
                kernel::relax_min_into(prev_row, cur_row, de);
            }
        }
    }
}

/// Reconstructs the transition the historical trace table would have
/// stored for state `(f, b)` of layer `k ≥ 1`: the first `(item,
/// prev_freq)` pair — in the fill's iteration order, item-major — whose
/// candidate reproduces `value` bit-for-bit against the previous layer's
/// checkpoint row (see [`crate::solver::kernel`] for why first bitwise
/// match ≡ stored winner). Returns `(item, prev_freq, prev_bucket)`.
fn reconstruct_transition(
    prev: &[f64],
    items: &[SeqItem],
    nf: usize,
    buckets: usize,
    f: usize,
    b: usize,
    value: f64,
) -> Option<(usize, usize, usize)> {
    let bits = value.to_bits();
    for (i, it) in items.iter().enumerate() {
        if it.f_new as usize != f {
            continue;
        }
        for f_prev in 0..nf {
            let (w, de) = if f_prev == f {
                (it.w_same, it.de_same)
            } else {
                (it.w_diff, it.de_diff)
            };
            if w >= buckets || w > b {
                continue;
            }
            let pb = b - w;
            if (prev[f_prev * buckets + pb] + de).to_bits() == bits {
                return Some((i, f_prev, pb));
            }
        }
    }
    None
}

/// Scans every terminal state of the filled table and backtracks the
/// cheapest one into a per-layer selection, then re-tallies it exactly.
fn extract(
    fronts: &[Vec<DsePoint>],
    config: &DseConfig,
    buckets: usize,
    budget_secs: f64,
    ws: &SolverWorkspace,
) -> Result<SequenceSolution, MckpError> {
    let SolverWorkspace {
        seq_rows: rows,
        seq_items: items,
        seq_offsets: offsets,
        freqs,
        ..
    } = ws;
    let nf = freqs.len();
    let states = nf * buckets;
    let nlayers = fronts.len();
    let last = &rows[(nlayers - 1) * states..nlayers * states];
    let mut best: Option<(usize, usize, f64)> = None;
    for f in 0..nf {
        for b in 0..buckets {
            let e = last[f * buckets + b];
            if e.is_finite() && best.is_none_or(|(.., be)| e < be) {
                best = Some((f, b, e));
            }
        }
    }
    let (mut f, mut b, _) = best.ok_or(MckpError::Infeasible {
        min_time_secs: budget_secs,
        budget_secs,
    })?;

    let mut choices = vec![0usize; nlayers];
    for k in (1..nlayers).rev() {
        let value = rows[k * states + f * buckets + b];
        let prev = &rows[(k - 1) * states..k * states];
        let (item, pf, pb) = reconstruct_transition(
            prev,
            &items[offsets[k]..offsets[k + 1]],
            nf,
            buckets,
            f,
            b,
            value,
        )
        .ok_or(MckpError::CorruptTable {
            class: k,
            bucket: b,
        })?;
        choices[k] = item;
        f = pf;
        b = pb;
    }
    // Layer 0 has no predecessor: its state was written directly by the
    // boot init, so the choice is the first item landing exactly on
    // `(f, b)` with the stored energy bits.
    let value = rows[f * buckets + b];
    let bits = value.to_bits();
    choices[0] = items[offsets[0]..offsets[1]]
        .iter()
        .position(|it| it.f_new as usize == f && it.w_same == b && it.de_same.to_bits() == bits)
        .ok_or(MckpError::CorruptTable {
            class: 0,
            bucket: b,
        })?;
    Ok(tally_sequence(fronts, choices, config))
}

/// [`crate::seqdp::solve_sequence`] against a caller-provided workspace:
/// same validation, same single-budget grid, zero steady-state
/// allocation.
pub(crate) fn solve_sequence_with(
    fronts: &[Vec<DsePoint>],
    budget_secs: f64,
    resolution: usize,
    config: &DseConfig,
    idle_power_w: f64,
    ws: &mut SolverWorkspace,
) -> Result<SequenceSolution, MckpError> {
    validate_budget(budget_secs)?;
    validate_resolution(resolution)?;
    validate_fronts(fronts)?;
    let grid = Grid::single(budget_secs, resolution);
    build_freqs(fronts, ws);
    prepare_items(fronts, grid.scale, config, idle_power_w, ws)?;
    fill_table(fronts.len(), grid.buckets, ws);
    extract(fronts, config, grid.buckets, budget_secs, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seqdp::solve_sequence;
    use stm32_power::Joules;

    fn cfg() -> DseConfig {
        DseConfig::paper()
    }

    fn point(t_ms: f64, e_mj: f64, mhz: u64, stage_ms: f64) -> DsePoint {
        let modes = crate::modes::OperatingModes::paper();
        DsePoint {
            granularity: crate::dae::Granularity(if stage_ms > 0.0 { 8 } else { 0 }),
            hfo: *modes.hfo_at(Hertz::mhz(mhz)).expect("in ladder"),
            latency_secs: t_ms * 1e-3,
            energy: Joules::new(e_mj * 1e-3),
            switches: 0,
            first_stage_secs: stage_ms * 1e-3,
        }
    }

    fn fronts() -> Vec<Vec<DsePoint>> {
        vec![
            vec![point(1.0, 0.30, 216, 0.0)],
            vec![point(1.0, 0.20, 150, 0.0), point(1.05, 0.28, 216, 0.0)],
            vec![point(0.8, 0.15, 108, 0.1), point(0.6, 0.25, 216, 0.0)],
        ]
    }

    /// A per-call budget sweep: every budget is answered feasibly, and
    /// relaxing the budget never raises the window objective.
    #[test]
    fn sweep_answers_every_budget_feasibly() {
        let fronts = fronts();
        let mut prev = f64::INFINITY;
        for budget_ms in [2.7, 3.0, 4.0, 6.0, 9.0] {
            let b = budget_ms * 1e-3;
            let sol = solve_sequence(&fronts, b, 2000, &cfg(), 0.012).unwrap();
            let adjusted = sol.total_energy - 0.012 * sol.total_time_secs;
            assert!(sol.total_time_secs <= b + 1e-9, "budget {b} violated");
            assert!(adjusted <= prev + 1e-12, "relaxed budget got costlier");
            prev = adjusted;
        }
    }

    #[test]
    fn sweep_reports_per_budget_infeasibility() {
        let fronts = vec![vec![point(5.0, 0.1, 216, 0.0)]];
        assert!(matches!(
            solve_sequence(&fronts, 1e-3, 400, &cfg(), 0.0),
            Err(MckpError::Infeasible { .. })
        ));
        assert!(solve_sequence(&fronts, 6e-3, 400, &cfg(), 0.0).is_ok());
    }

    #[test]
    fn zero_layer_sequence_is_a_typed_error() {
        assert!(matches!(
            solve_sequence(&[], 1.0, 100, &cfg(), 0.0),
            Err(MckpError::InvalidInput {
                field: "fronts",
                ..
            })
        ));
    }
}
