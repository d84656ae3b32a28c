//! Two-phase primal simplex on a dense tableau, plus the dual-simplex
//! re-optimization used by warm starts.
//!
//! The problems produced by IPET are small (tens to a few hundred rows), so
//! a dense textbook tableau keeps the solver easy to audit. Its cost is in
//! pricing, which runs every primal and dual iteration: the reduced-cost
//! row is accumulated row by row over the tableau (contiguous reads,
//! zero-cost basic rows skipped whole) in an order that makes it
//! bit-identical to the column-by-column textbook sum.
//!
//! ## Pivot rule
//!
//! Entering columns are chosen by Dantzig's rule (most negative reduced
//! cost) for speed, switching to Bland's rule (smallest eligible index)
//! after [`STALL_THRESHOLD`] consecutive degenerate pivots. Bland's rule
//! provably terminates, so the switch is an anti-cycling guard: a stalled
//! sequence of degenerate pivots — the precondition for cycling — flips the
//! solver into the safe rule until it makes real progress again. The same
//! guard protects the dual simplex, and every loop is additionally capped by
//! an iteration budget, so a warm start can never spin.

use crate::budget::{BudgetMeter, LpFault, SolveBudget, SolverFaults};
use crate::model::{Problem, Relation, Sense};

/// Feasibility tolerance used throughout the solver.
pub const FEAS_TOL: f64 = 1e-7;

/// Integrality tolerance used by the branch-and-bound layer.
pub const INT_TOL: f64 = 1e-6;

/// Consecutive degenerate pivots tolerated before the entering rule falls
/// back from Dantzig to Bland (anti-cycling).
const STALL_THRESHOLD: u32 = 12;

/// Result of an LP solve (integrality flags are ignored).
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal vertex was found.
    Optimal {
        /// Primal solution, one entry per problem variable.
        x: Vec<f64>,
        /// Objective value in the problem's own sense.
        value: f64,
    },
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// Pivoting met NaN/non-finite data (or the input model contained
    /// non-finite coefficients); no conclusion about the model is implied.
    Numerical,
    /// The iteration or tick budget ran out before the solve concluded;
    /// no conclusion about the model is implied.
    LimitReached,
}

/// How one run of [`Tableau::optimize`] ended (internal; disambiguates the
/// conditions the caller must treat differently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimplexEnd {
    /// Reached an optimal basis.
    Optimal,
    /// Found an unbounded improving ray.
    Unbounded,
    /// Ran out of pivot iterations.
    IterLimit,
    /// Met a NaN/non-finite reduced cost, ratio, or pivot element.
    Numerical,
}

/// How a dual-simplex re-optimization ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DualEnd {
    /// Regained primal feasibility at an optimal basis.
    Optimal,
    /// The dual is unbounded: the primal system is infeasible.
    Infeasible,
    /// Ran out of pivot iterations.
    IterLimit,
    /// Met NaN/non-finite data mid-pivot.
    Numerical,
}

/// A dense simplex tableau in equality standard form.
#[derive(Clone)]
pub(crate) struct Tableau {
    /// `rows x cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<f64>>,
    rows: usize,
    cols: usize, // includes rhs column
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Columns barred from entering the basis (artificials in phase 2).
    banned: Vec<bool>,
}

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.a[row][self.cols - 1]
    }

    /// Performs one pivot on (`row`, `col`), updating the basis.
    ///
    /// Returns `false` without touching the tableau when the pivot element
    /// is non-finite or too close to zero to divide by safely.
    #[must_use]
    fn pivot(&mut self, row: usize, col: usize) -> bool {
        let piv = self.a[row][col];
        if !piv.is_finite() || piv.abs() <= FEAS_TOL {
            return false;
        }
        let inv = 1.0 / piv;
        for j in 0..self.cols {
            self.a[row][j] *= inv;
        }
        for i in 0..self.rows {
            if i != row {
                let factor = self.a[i][col];
                if factor != 0.0 {
                    for j in 0..self.cols {
                        self.a[i][j] -= factor * self.a[row][j];
                    }
                }
            }
        }
        self.basis[row] = col;
        true
    }

    /// Reduced-cost row for the maximization objective `obj`:
    /// `z_j = c_B^T B^{-1} A_j - c_j`. Entering columns are those with
    /// `z_j < -tol` (can improve a maximum).
    ///
    /// Accumulated row by row: every `z_j` starts at `-c_j` and receives
    /// `c_B[i]·a[i][j]` for each row `i` with `c_B[i] ≠ 0` in ascending
    /// order — the same operations in the same order as a column-by-column
    /// sum, so the result is bit-identical to it, but each tableau row is
    /// read contiguously and rows with a zero basic cost are skipped whole.
    fn reduced_costs(&self, obj: &[f64]) -> Vec<f64> {
        let n = self.cols - 1;
        let mut zrow: Vec<f64> = obj[..n].iter().map(|&c| -c).collect();
        for (row, &b) in self.a.iter().zip(&self.basis) {
            let cb = obj[b];
            if cb != 0.0 {
                for (z, &a) in zrow.iter_mut().zip(&row[..n]) {
                    *z += cb * a;
                }
            }
        }
        zrow
    }

    /// Runs the primal simplex method to optimality for the maximization
    /// objective `obj` (one coefficient per tableau column except the RHS),
    /// charging one pivot per iteration to `pivots`.
    fn optimize(&mut self, obj: &[f64], max_iters: usize, pivots: &mut u64) -> SimplexEnd {
        let mut stalled = 0u32;
        for _ in 0..max_iters {
            let zrow = self.reduced_costs(obj);
            if zrow.iter().any(|z| z.is_nan()) {
                return SimplexEnd::Numerical;
            }
            let entering = if stalled >= STALL_THRESHOLD {
                // Bland's rule: smallest-index eligible entering column;
                // provably cycle-free.
                (0..self.cols - 1).find(|&j| !self.banned[j] && zrow[j] < -FEAS_TOL)
            } else {
                // Dantzig's rule: most negative reduced cost, smallest
                // index on ties (deterministic).
                let mut best: Option<(usize, f64)> = None;
                for (j, &z) in zrow.iter().enumerate() {
                    if !self.banned[j] && z < -FEAS_TOL && best.is_none_or(|(_, bz)| z < bz) {
                        best = Some((j, z));
                    }
                }
                best.map(|(j, _)| j)
            };
            let Some(col) = entering else {
                return SimplexEnd::Optimal;
            };
            // Ratio test; Bland tie-break on smallest basis variable index.
            // NaN anywhere in the candidate column or RHS voids the test: a
            // NaN ratio compares false against everything, which would let a
            // poisoned row win or lose arbitrarily.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..self.rows {
                let aij = self.a[i][col];
                if aij.is_nan() || self.rhs(i).is_nan() {
                    return SimplexEnd::Numerical;
                }
                if aij > FEAS_TOL {
                    let ratio = self.rhs(i) / aij;
                    match best {
                        None => best = Some((i, ratio)),
                        Some((bi, br)) => {
                            if ratio < br - FEAS_TOL
                                || ((ratio - br).abs() <= FEAS_TOL
                                    && self.basis[i] < self.basis[bi])
                            {
                                best = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, ratio)) = best else {
                return SimplexEnd::Unbounded;
            };
            stalled = if ratio.abs() <= FEAS_TOL { stalled + 1 } else { 0 };
            *pivots += 1;
            if !self.pivot(row, col) {
                return SimplexEnd::Numerical;
            }
        }
        SimplexEnd::IterLimit
    }

    /// Dual-simplex re-optimization: starting from a dual-feasible basis
    /// (all reduced costs of `obj` non-negative within tolerance) whose RHS
    /// may have gone negative after new rows were appended, pivots until the
    /// basis is primal feasible again (optimal) or the dual is unbounded
    /// (primal infeasible).
    fn dual_optimize(&mut self, obj: &[f64], max_iters: usize, pivots: &mut u64) -> DualEnd {
        let mut stalled = 0u32;
        for _ in 0..max_iters {
            // Leaving row: most negative RHS; after a stall, smallest basis
            // index (the Bland-style guard; the iteration cap backstops it).
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows {
                let r = self.rhs(i);
                if r.is_nan() {
                    return DualEnd::Numerical;
                }
                if r < -FEAS_TOL {
                    let better = match leave {
                        None => true,
                        Some((bi, br)) => {
                            if stalled >= STALL_THRESHOLD {
                                self.basis[i] < self.basis[bi]
                            } else {
                                r < br
                            }
                        }
                    };
                    if better {
                        leave = Some((i, r));
                    }
                }
            }
            let Some((row, _)) = leave else {
                return DualEnd::Optimal;
            };
            // Entering column: the dual ratio test. Among non-banned columns
            // with a negative entry in the leaving row, minimize
            // `z_j / (-a_rj)` (smallest index on ties) so dual feasibility
            // is preserved.
            let zrow = self.reduced_costs(obj);
            let mut best: Option<(usize, f64)> = None;
            for (j, &z) in zrow.iter().enumerate() {
                if self.banned[j] {
                    continue;
                }
                let arj = self.a[row][j];
                if arj.is_nan() || z.is_nan() {
                    return DualEnd::Numerical;
                }
                if arj < -FEAS_TOL {
                    let ratio = z / (-arj);
                    match best {
                        None => best = Some((j, ratio)),
                        Some((bj, br)) => {
                            if ratio < br - FEAS_TOL || ((ratio - br).abs() <= FEAS_TOL && j < bj) {
                                best = Some((j, ratio));
                            }
                        }
                    }
                }
            }
            let Some((col, ratio)) = best else {
                // No negative entry in an infeasible row: the row is
                // unsatisfiable, i.e. the primal system is infeasible.
                return DualEnd::Infeasible;
            };
            stalled = if ratio.abs() <= FEAS_TOL { stalled + 1 } else { 0 };
            *pivots += 1;
            if !self.pivot(row, col) {
                return DualEnd::Numerical;
            }
        }
        DualEnd::IterLimit
    }
}

/// How [`SimplexInstance::solve_primal`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrimalEnd {
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    Numerical,
}

/// A standard-form simplex instance: the tableau plus everything needed to
/// resume work on it (the sign-folded phase-2 objective, the structural
/// variable count, and the artificial bookkeeping). Cloneable, so an optimal
/// base instance can be snapshotted once and re-extended per delta set.
#[derive(Clone)]
pub(crate) struct SimplexInstance {
    pub(crate) tab: Tableau,
    /// Phase-2 objective over every tableau column except the RHS, already
    /// folded to "maximize" (negated for `Minimize` problems).
    obj: Vec<f64>,
    /// Structural (problem) variable count; columns `0..n`.
    n: usize,
    /// Slack/surplus column count; columns `n..n + num_slack`.
    num_slack: usize,
    artificial_cols: Vec<usize>,
}

impl SimplexInstance {
    /// The generous size-derived iteration cap (Bland's fallback terminates,
    /// so this only catches pathologies).
    pub(crate) fn default_iter_cap(&self) -> usize {
        50_000 + 200 * (self.tab.rows + self.tab.cols)
    }

    /// Runs phase 1 (artificial feasibility) and phase 2 (the real
    /// objective) to optimality.
    pub(crate) fn solve_primal(&mut self, max_iters: usize, pivots: &mut u64) -> PrimalEnd {
        let phase1_end = if self.artificial_cols.is_empty() {
            SimplexEnd::Optimal
        } else {
            let mut phase1 = vec![0.0; self.tab.cols - 1];
            for &c in &self.artificial_cols {
                phase1[c] = -1.0;
            }
            self.tab.optimize(&phase1, max_iters, pivots)
        };
        match phase1_end {
            SimplexEnd::Optimal => {}
            SimplexEnd::IterLimit => return PrimalEnd::IterLimit,
            // Phase 1 maximizes a sum of negated non-negative variables,
            // which is bounded above by 0 — an "unbounded" verdict can only
            // mean the arithmetic broke down.
            SimplexEnd::Unbounded | SimplexEnd::Numerical => return PrimalEnd::Numerical,
        }
        if !self.artificial_cols.is_empty() {
            let infeas: f64 = self
                .artificial_cols
                .iter()
                .map(|&c| {
                    self.tab
                        .basis
                        .iter()
                        .position(|&b| b == c)
                        .map(|r| self.tab.rhs(r))
                        .unwrap_or(0.0)
                })
                .sum();
            if !infeas.is_finite() {
                return PrimalEnd::Numerical;
            }
            if infeas > 1e-6 {
                return PrimalEnd::Infeasible;
            }
            // Drive any degenerate basic artificials out of the basis.
            for r in 0..self.tab.rows {
                if self.artificial_cols.contains(&self.tab.basis[r]) {
                    if let Some(col) =
                        (0..self.n + self.num_slack).find(|&j| self.tab.a[r][j].abs() > FEAS_TOL)
                    {
                        *pivots += 1;
                        if !self.tab.pivot(r, col) {
                            return PrimalEnd::Numerical;
                        }
                    }
                    // If the whole row is zero in structural columns the row
                    // is redundant; the artificial stays basic at value 0 and
                    // is banned from pricing, which is harmless.
                }
            }
            for &c in &self.artificial_cols {
                self.tab.banned[c] = true;
            }
        }

        match self.tab.optimize(&self.obj.clone(), max_iters, pivots) {
            SimplexEnd::Optimal => PrimalEnd::Optimal,
            SimplexEnd::Unbounded => PrimalEnd::Unbounded,
            SimplexEnd::IterLimit => PrimalEnd::IterLimit,
            SimplexEnd::Numerical => PrimalEnd::Numerical,
        }
    }

    /// Appends `<=` rows (dense coefficients over the structural variables,
    /// any-sign RHS) to an *optimal* tableau, pricing them out against the
    /// current basis so the tableau stays in canonical form. Each new row
    /// gets its own slack column and enters the basis on it; the result is
    /// dual feasible and ready for [`Tableau::dual_optimize`].
    pub(crate) fn append_le_rows(&mut self, rows: &[(Vec<f64>, f64)]) {
        let k = rows.len();
        if k == 0 {
            return;
        }
        let old_cols = self.tab.cols;
        let old_rows = self.tab.rows;
        let new_cols = old_cols + k;
        // Widen existing rows: k fresh slack columns before the RHS.
        for row in &mut self.tab.a {
            let rhs = row[old_cols - 1];
            row[old_cols - 1] = 0.0;
            row.extend(std::iter::repeat_n(0.0, k - 1));
            row.push(rhs);
        }
        self.obj.extend(std::iter::repeat_n(0.0, k));
        self.tab.banned.extend(std::iter::repeat_n(false, k));
        for (t, (coeffs, rhs)) in rows.iter().enumerate() {
            let slack_col = old_cols - 1 + t;
            let mut row = vec![0.0; new_cols];
            row[..coeffs.len().min(self.n)].copy_from_slice(&coeffs[..coeffs.len().min(self.n)]);
            row[slack_col] = 1.0;
            row[new_cols - 1] = *rhs;
            // Price out: eliminate the entries at the old basic columns.
            // Basic columns are unit vectors over the old rows, so one pass
            // in row order is exact; old rows are zero in the new slack
            // columns, so the slack entry survives untouched.
            for i in 0..old_rows {
                let f = row[self.tab.basis[i]];
                if f != 0.0 {
                    for (rj, aj) in row.iter_mut().zip(&self.tab.a[i]) {
                        *rj -= f * aj;
                    }
                }
            }
            self.tab.a.push(row);
            self.tab.basis.push(slack_col);
        }
        self.tab.rows += k;
        self.tab.cols = new_cols;
    }

    /// Dual-simplex re-optimization of the phase-2 objective (see
    /// [`Tableau::dual_optimize`]).
    pub(crate) fn dual_reoptimize(&mut self, max_iters: usize, pivots: &mut u64) -> DualEnd {
        let obj = self.obj.clone();
        self.tab.dual_optimize(&obj, max_iters, pivots)
    }

    /// The primal solution over the structural variables.
    pub(crate) fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (r, &b) in self.tab.basis.iter().enumerate() {
            if b < self.n {
                x[b] = self.tab.rhs(r).max(0.0);
            }
        }
        x
    }

    /// True when the current optimal basis provably identifies a *unique*
    /// optimum: every non-basic, non-banned column has a strictly positive
    /// reduced cost, so moving along any of them strictly worsens the
    /// objective. Primal degeneracy (duplicate bases for one vertex) does
    /// not matter — the criterion is about the solution point, not the
    /// basis.
    pub(crate) fn optimum_is_unique(&self) -> bool {
        let zrow = self.tab.reduced_costs(&self.obj);
        let mut is_basic = vec![false; self.tab.cols - 1];
        for &b in &self.tab.basis {
            if b < is_basic.len() {
                is_basic[b] = true;
            }
        }
        (0..self.tab.cols - 1).all(|j| is_basic[j] || self.tab.banned[j] || zrow[j] > FEAS_TOL)
    }
}

/// Builds the standard-form instance for `problem`: slack/surplus columns
/// for inequality rows, artificial columns for `>=`/`=` rows, RHS
/// normalized non-negative, objective folded to "maximize".
///
/// The caller is responsible for rejecting non-finite models first
/// ([`Problem::has_non_finite`]).
pub(crate) fn build_instance(problem: &Problem) -> SimplexInstance {
    let n = problem.num_vars();
    let m = problem.num_constraints();

    // Internally always maximize; negate the objective for Minimize.
    let sign = match problem.sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };

    // Count structural + slack/surplus + artificial columns.
    let mut num_slack = 0usize;
    for c in &problem.constraints {
        if matches!(c.relation, Relation::Le | Relation::Ge) {
            num_slack += 1;
        }
    }
    // Upper bound: one artificial per row (only some rows get one).
    let cols = n + num_slack + m + 1;
    let mut a = vec![vec![0.0; cols]; m];
    let mut basis = vec![usize::MAX; m];
    let mut artificial_cols: Vec<usize> = Vec::new();

    let mut next_slack = n;
    let mut next_artificial = n + num_slack;

    for (i, con) in problem.constraints.iter().enumerate() {
        let dense = con.dense(n);
        // Normalize to rhs >= 0 by flipping the row if needed.
        let flip = con.rhs < 0.0;
        let (row_coeffs, rhs, rel) = if flip {
            let rel = match con.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            (dense.iter().map(|&v| -v).collect::<Vec<_>>(), -con.rhs, rel)
        } else {
            (dense, con.rhs, con.relation)
        };
        a[i][..n].copy_from_slice(&row_coeffs);
        a[i][cols - 1] = rhs;
        match rel {
            Relation::Le => {
                a[i][next_slack] = 1.0;
                basis[i] = next_slack;
                next_slack += 1;
            }
            Relation::Ge => {
                a[i][next_slack] = -1.0;
                next_slack += 1;
                a[i][next_artificial] = 1.0;
                basis[i] = next_artificial;
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            }
            Relation::Eq => {
                a[i][next_artificial] = 1.0;
                basis[i] = next_artificial;
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            }
        }
    }

    let mut obj = vec![0.0; cols - 1];
    for (j, &c) in problem.objective.iter().enumerate() {
        obj[j] = sign * c;
    }

    // One artificial slot was reserved per row but only `>=`/`=` rows used
    // theirs; the leftover all-zero columns are dead and banned outright so
    // pricing (and the uniqueness test) never looks at them.
    let mut banned = vec![false; cols - 1];
    for slot in banned.iter_mut().take(cols - 1).skip(next_artificial) {
        *slot = true;
    }

    SimplexInstance {
        tab: Tableau { a, rows: m, cols, basis, banned },
        obj,
        n,
        num_slack,
        artificial_cols,
    }
}

/// Solves the LP relaxation of `problem` (ignores integrality flags).
///
/// Variables are non-negative; rows may be `<=`, `>=` or `=`. The returned
/// objective value is in the problem's own sense (a `Minimize` problem
/// reports the minimum).
pub fn solve_lp(problem: &Problem) -> LpOutcome {
    solve_lp_metered(
        problem,
        &SolveBudget::unlimited(),
        &BudgetMeter::new(),
        &mut SolverFaults::none(),
    )
}

/// Solves the LP relaxation under `budget`, charging pivots and the call
/// itself to `meter` and honouring injected `faults`.
///
/// Differences from the unmetered [`solve_lp`]:
/// * returns [`LpOutcome::LimitReached`] when the tick deadline or the
///   per-call iteration cap runs out mid-solve (never a bogus
///   `Infeasible`/`Unbounded`);
/// * returns [`LpOutcome::Numerical`] for models containing NaN/infinite
///   data or when pivoting breaks down numerically.
pub fn solve_lp_metered(
    problem: &Problem,
    budget: &SolveBudget,
    meter: &BudgetMeter,
    faults: &mut SolverFaults,
) -> LpOutcome {
    meter.add_lp_call();
    if let Some(fault) = faults.lp_fault() {
        return match fault {
            LpFault::Infeasible => LpOutcome::Infeasible,
            LpFault::Numerical => LpOutcome::Numerical,
        };
    }
    if problem.has_non_finite() {
        return LpOutcome::Numerical;
    }

    let mut inst = build_instance(problem);

    // Per-call iteration cap: the solver's own generous size-derived stop,
    // tightened by any explicit per-LP cap and by the ticks left before the
    // deadline.
    let mut max_iters = inst.default_iter_cap();
    if let Some(cap) = budget.max_lp_iters {
        max_iters = max_iters.min(cap);
    }
    if let Some(left) = meter.ticks_left(budget) {
        if left == 0 {
            return LpOutcome::LimitReached;
        }
        max_iters = max_iters.min(usize::try_from(left).unwrap_or(usize::MAX));
    }
    let mut pivots = 0u64;
    let end = inst.solve_primal(max_iters, &mut pivots);
    meter.charge_ticks(pivots);
    match end {
        PrimalEnd::Optimal => {}
        PrimalEnd::Infeasible => return LpOutcome::Infeasible,
        PrimalEnd::Unbounded => return LpOutcome::Unbounded,
        PrimalEnd::IterLimit => return LpOutcome::LimitReached,
        PrimalEnd::Numerical => return LpOutcome::Numerical,
    }

    let x = inst.extract_x();
    let value = problem.objective_value(&x);
    if !value.is_finite() || x.iter().any(|v| !v.is_finite()) {
        return LpOutcome::Numerical;
    }
    LpOutcome::Optimal { x, value }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense};

    fn build(sense: Sense, obj: &[f64], rows: &[(&[f64], Relation, f64)]) -> Problem {
        let mut b = ProblemBuilder::new(sense);
        let vars: Vec<_> = (0..obj.len()).map(|i| b.add_var(format!("v{i}"), false)).collect();
        for (i, &c) in obj.iter().enumerate() {
            b.objective(vars[i], c);
        }
        for (coeffs, rel, rhs) in rows {
            let terms = coeffs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0.0)
                .map(|(i, &c)| (vars[i], c))
                .collect();
            b.constraint(terms, *rel, *rhs);
        }
        b.build()
    }

    fn assert_opt(p: &Problem, want: f64) -> Vec<f64> {
        match solve_lp(p) {
            LpOutcome::Optimal { x, value } => {
                assert!((value - want).abs() < 1e-6, "value {value}, want {want}");
                assert!(p.is_feasible(&x, 1e-6), "solution infeasible: {x:?}");
                x
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_max() {
        // max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6)
        let p = build(
            Sense::Maximize,
            &[3.0, 5.0],
            &[
                (&[1.0, 0.0], Relation::Le, 4.0),
                (&[0.0, 2.0], Relation::Le, 12.0),
                (&[3.0, 2.0], Relation::Le, 18.0),
            ],
        );
        let x = assert_opt(&p, 36.0);
        assert!((x[0] - 2.0).abs() < 1e-6 && (x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimize_with_ge_rows() {
        // min 2x+3y st x+y>=4, x>=1 -> 8 at (4,0)? cost 2*4=8 vs (1,3): 2+9=11.
        let p = build(
            Sense::Minimize,
            &[2.0, 3.0],
            &[(&[1.0, 1.0], Relation::Ge, 4.0), (&[1.0, 0.0], Relation::Ge, 1.0)],
        );
        assert_opt(&p, 8.0);
    }

    #[test]
    fn equality_rows() {
        // max x+y st x+y = 5, x <= 2 -> 5.
        let p = build(
            Sense::Maximize,
            &[1.0, 1.0],
            &[(&[1.0, 1.0], Relation::Eq, 5.0), (&[1.0, 0.0], Relation::Le, 2.0)],
        );
        assert_opt(&p, 5.0);
    }

    #[test]
    fn infeasible_detected() {
        let p = build(
            Sense::Maximize,
            &[1.0],
            &[(&[1.0], Relation::Ge, 5.0), (&[1.0], Relation::Le, 2.0)],
        );
        assert_eq!(solve_lp(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let p = build(Sense::Maximize, &[1.0], &[(&[-1.0], Relation::Le, 1.0)]);
        assert_eq!(solve_lp(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn minimize_unbounded_below() {
        // min -x with x unconstrained above is unbounded.
        let p = build(Sense::Minimize, &[-1.0], &[]);
        assert_eq!(solve_lp(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -2  (i.e. y >= x + 2), max x+y with y <= 5 -> x=3,y=5.
        let p = build(
            Sense::Maximize,
            &[1.0, 1.0],
            &[(&[1.0, -1.0], Relation::Le, -2.0), (&[0.0, 1.0], Relation::Le, 5.0)],
        );
        assert_opt(&p, 8.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-ish degeneracy: several redundant rows through origin.
        let p = build(
            Sense::Maximize,
            &[1.0, 1.0],
            &[
                (&[1.0, 0.0], Relation::Le, 0.0),
                (&[1.0, 1.0], Relation::Le, 0.0),
                (&[1.0, 2.0], Relation::Le, 0.0),
                (&[0.0, 1.0], Relation::Le, 0.0),
            ],
        );
        assert_opt(&p, 0.0);
    }

    #[test]
    fn beale_cycling_lp_terminates_at_the_optimum() {
        // Beale's classic cycling example: under a naive Dantzig rule with
        // unlucky tie-breaking the simplex cycles forever among degenerate
        // bases at the origin. The stall guard must flip to Bland's rule and
        // land on the true optimum 0.05 at (0.04, 0, 1, 0). Regression test
        // for the anti-cycling guard warm starts rely on.
        let p = build(
            Sense::Maximize,
            &[0.75, -150.0, 0.02, -6.0],
            &[
                (&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0),
                (&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0),
                (&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0),
            ],
        );
        let x = assert_opt(&p, 0.05);
        assert!((x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; max x -> 2.
        let p = build(
            Sense::Maximize,
            &[1.0, 0.0],
            &[(&[1.0, 1.0], Relation::Eq, 2.0), (&[1.0, 1.0], Relation::Eq, 2.0)],
        );
        assert_opt(&p, 2.0);
    }

    #[test]
    fn zero_variable_problem() {
        let p = build(Sense::Maximize, &[], &[]);
        match solve_lp(&p) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, 0.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nan_objective_reports_numerical() {
        let p = build(Sense::Maximize, &[f64::NAN, 1.0], &[(&[1.0, 1.0], Relation::Le, 4.0)]);
        assert_eq!(solve_lp(&p), LpOutcome::Numerical);
    }

    #[test]
    fn infinite_coefficient_reports_numerical() {
        let p = build(Sense::Minimize, &[1.0], &[(&[f64::INFINITY], Relation::Ge, 2.0)]);
        assert_eq!(solve_lp(&p), LpOutcome::Numerical);
    }

    #[test]
    fn deadline_exhaustion_reports_limit() {
        let p = build(
            Sense::Maximize,
            &[3.0, 5.0],
            &[
                (&[1.0, 0.0], Relation::Le, 4.0),
                (&[0.0, 2.0], Relation::Le, 12.0),
                (&[3.0, 2.0], Relation::Le, 18.0),
            ],
        );
        // Zero ticks left: the solve must refuse immediately, not guess.
        let budget = SolveBudget::with_deadline(0);
        let meter = BudgetMeter::new();
        let out = solve_lp_metered(&p, &budget, &meter, &mut SolverFaults::none());
        assert_eq!(out, LpOutcome::LimitReached);
        assert_eq!(meter.lp_calls(), 1);
        // With budget to spare the same problem solves and charges pivots.
        let budget = SolveBudget::with_deadline(10_000);
        let meter = BudgetMeter::new();
        let out = solve_lp_metered(&p, &budget, &meter, &mut SolverFaults::none());
        assert!(matches!(out, LpOutcome::Optimal { .. }));
        assert!(meter.ticks() > 0);
    }

    #[test]
    fn iteration_cap_reports_limit_not_unbounded() {
        let p = build(
            Sense::Maximize,
            &[3.0, 5.0],
            &[
                (&[1.0, 0.0], Relation::Le, 4.0),
                (&[0.0, 2.0], Relation::Le, 12.0),
                (&[3.0, 2.0], Relation::Le, 18.0),
            ],
        );
        let budget = SolveBudget { max_lp_iters: Some(1), ..SolveBudget::unlimited() };
        let out = solve_lp_metered(&p, &budget, &BudgetMeter::new(), &mut SolverFaults::none());
        assert_eq!(out, LpOutcome::LimitReached);
    }

    #[test]
    fn injected_lp_faults_fire() {
        let p = build(Sense::Maximize, &[1.0], &[(&[1.0], Relation::Le, 3.0)]);
        let budget = SolveBudget::unlimited();

        let mut faults = SolverFaults::infeasible_at(0);
        let meter = BudgetMeter::new();
        assert_eq!(solve_lp_metered(&p, &budget, &meter, &mut faults), LpOutcome::Infeasible);
        // The next call is past the fault index and solves normally.
        assert!(matches!(
            solve_lp_metered(&p, &budget, &meter, &mut faults),
            LpOutcome::Optimal { .. }
        ));

        let mut faults = SolverFaults::numerical_at(0);
        assert_eq!(
            solve_lp_metered(&p, &budget, &BudgetMeter::new(), &mut faults),
            LpOutcome::Numerical
        );
    }

    #[test]
    fn flow_conservation_shape() {
        // The structural-constraint shape from the paper's Fig. 2:
        // x1 = d1, d1 = 1, x1 = d2 + d3, x2 = d2, x3 = d3, x4 = d2 + d3.
        // Encoded over [x1,x2,x3,x4,d2,d3]; maximize 2x1+5x2+3x3+x4.
        // Best: route through x2 -> 2+5+1 = 8.
        let p = build(
            Sense::Maximize,
            &[2.0, 5.0, 3.0, 1.0, 0.0, 0.0],
            &[
                (&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0], Relation::Eq, 1.0),
                (&[1.0, 0.0, 0.0, 0.0, -1.0, -1.0], Relation::Eq, 0.0),
                (&[0.0, 1.0, 0.0, 0.0, -1.0, 0.0], Relation::Eq, 0.0),
                (&[0.0, 0.0, 1.0, 0.0, 0.0, -1.0], Relation::Eq, 0.0),
                (&[0.0, 0.0, 0.0, 1.0, -1.0, -1.0], Relation::Eq, 0.0),
            ],
        );
        let x = assert_opt(&p, 8.0);
        assert!((x[1] - 1.0).abs() < 1e-6);
        assert!(x[2].abs() < 1e-6);
    }

    // -- warm-start plumbing (instance-level) -------------------------------

    #[test]
    fn appended_rows_dual_reoptimize_to_the_constrained_optimum() {
        // Base: max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6).
        // Delta row x + y <= 5 cuts the vertex off; new optimum 27 at (1,4)?
        // Check: maximize 3x+5y st x<=4, y<=6, 3x+2y<=18, x+y<=5.
        // Vertices: (0,5)->25, (1,4)->23? Let's just cross-check against a
        // cold solve of the composed problem.
        let base = build(
            Sense::Maximize,
            &[3.0, 5.0],
            &[
                (&[1.0, 0.0], Relation::Le, 4.0),
                (&[0.0, 2.0], Relation::Le, 12.0),
                (&[3.0, 2.0], Relation::Le, 18.0),
            ],
        );
        let composed = build(
            Sense::Maximize,
            &[3.0, 5.0],
            &[
                (&[1.0, 0.0], Relation::Le, 4.0),
                (&[0.0, 2.0], Relation::Le, 12.0),
                (&[3.0, 2.0], Relation::Le, 18.0),
                (&[1.0, 1.0], Relation::Le, 5.0),
            ],
        );
        let cold = match solve_lp(&composed) {
            LpOutcome::Optimal { x, value } => (x, value),
            other => panic!("{other:?}"),
        };

        let mut inst = build_instance(&base);
        let mut pivots = 0u64;
        assert_eq!(inst.solve_primal(inst.default_iter_cap(), &mut pivots), PrimalEnd::Optimal);
        inst.append_le_rows(&[(vec![1.0, 1.0], 5.0)]);
        assert_eq!(inst.dual_reoptimize(inst.default_iter_cap(), &mut pivots), DualEnd::Optimal);
        let x = inst.extract_x();
        let value = composed.objective_value(&x);
        assert!((value - cold.1).abs() < 1e-6, "warm {value} vs cold {}", cold.1);
        assert!(composed.is_feasible(&x, 1e-6), "{x:?}");
    }

    #[test]
    fn appended_infeasible_row_is_detected_by_dual_simplex() {
        let base = build(Sense::Maximize, &[1.0], &[(&[1.0], Relation::Le, 4.0)]);
        let mut inst = build_instance(&base);
        let mut pivots = 0u64;
        assert_eq!(inst.solve_primal(inst.default_iter_cap(), &mut pivots), PrimalEnd::Optimal);
        // x >= 7 as -x <= -7 contradicts x <= 4.
        inst.append_le_rows(&[(vec![-1.0], -7.0)]);
        assert_eq!(inst.dual_reoptimize(inst.default_iter_cap(), &mut pivots), DualEnd::Infeasible);
    }

    // -- kernel equivalence ----------------------------------------------------

    /// The column-by-column reduced-cost sum the row-major kernel replaces.
    fn reduced_costs_by_column(tab: &Tableau, obj: &[f64]) -> Vec<f64> {
        (0..tab.cols - 1)
            .map(|j| {
                let mut acc = -obj[j];
                for i in 0..tab.rows {
                    let cb = obj[tab.basis[i]];
                    if cb != 0.0 {
                        acc += cb * tab.a[i][j];
                    }
                }
                acc
            })
            .collect()
    }

    fn assert_reduced_costs_bit_identical(tab: &Tableau, obj: &[f64], what: &str) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(tab.reduced_costs(obj)),
            bits(reduced_costs_by_column(tab, obj)),
            "{what}: row-major reduced costs differ from the column-order sum"
        );
    }

    /// A value with an inexact binary expansion (so summation order shows
    /// in the last bits), or an exact zero with probability `zero_p`.
    fn random_coeff(rng: &mut rand::rngs::StdRng, zero_p: f64) -> f64 {
        use rand::Rng as _;
        if rng.gen_bool(zero_p) {
            0.0
        } else {
            rng.gen_range(-1000i64..=1000) as f64 / 7.0
        }
    }

    #[test]
    fn row_major_reduced_costs_match_the_column_order_sum_bit_for_bit() {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for case in 0..200 {
            // Raw random tableaux: any basis, any objective, some basic
            // costs exactly zero.
            let rows = rng.gen_range(1usize..=12);
            let cols = rng.gen_range(rows + 1..=rows + 15);
            let a: Vec<Vec<f64>> = (0..rows)
                .map(|_| (0..cols).map(|_| random_coeff(&mut rng, 0.3)).collect())
                .collect();
            let basis: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..cols - 1)).collect();
            let obj: Vec<f64> = (0..cols - 1).map(|_| random_coeff(&mut rng, 0.4)).collect();
            let tab = Tableau { a, rows, cols, basis, banned: vec![false; cols - 1] };
            assert_reduced_costs_bit_identical(&tab, &obj, &format!("raw case {case}"));
        }
        for case in 0..60 {
            // Tableaux the solver actually produces: after phase 2, after
            // appended rows, and after the dual re-optimization.
            let n = rng.gen_range(2usize..=8);
            let m = rng.gen_range(1usize..=8);
            let obj: Vec<f64> = (0..n).map(|_| random_coeff(&mut rng, 0.2)).collect();
            let rows: Vec<(Vec<f64>, Relation, f64)> = (0..m)
                .map(|_| {
                    let coeffs = (0..n).map(|_| random_coeff(&mut rng, 0.3).abs()).collect();
                    let rel = match rng.gen_range(0..3) {
                        0 => Relation::Le,
                        1 => Relation::Ge,
                        _ => Relation::Eq,
                    };
                    (coeffs, rel, rng.gen_range(0i64..=50) as f64)
                })
                .collect();
            let refs: Vec<(&[f64], Relation, f64)> =
                rows.iter().map(|(c, r, b)| (c.as_slice(), *r, *b)).collect();
            let p = build(Sense::Maximize, &obj, &refs);
            let mut inst = build_instance(&p);
            let what = format!("solver case {case}");
            assert_reduced_costs_bit_identical(&inst.tab, &inst.obj, &what);
            let mut pivots = 0u64;
            if inst.solve_primal(inst.default_iter_cap(), &mut pivots) != PrimalEnd::Optimal {
                continue;
            }
            assert_reduced_costs_bit_identical(&inst.tab, &inst.obj, &what);
            let cuts: Vec<(Vec<f64>, f64)> = (0..rng.gen_range(1usize..=3))
                .map(|_| {
                    let coeffs = (0..n).map(|_| random_coeff(&mut rng, 0.3)).collect();
                    (coeffs, rng.gen_range(-5i64..=40) as f64)
                })
                .collect();
            inst.append_le_rows(&cuts);
            assert_reduced_costs_bit_identical(&inst.tab, &inst.obj, &what);
            inst.dual_reoptimize(inst.default_iter_cap(), &mut pivots);
            assert_reduced_costs_bit_identical(&inst.tab, &inst.obj, &what);
        }
    }

    #[test]
    fn unique_optimum_detection() {
        // max x+y st x<=2, y<=3: unique vertex (2,3).
        let unique = build(
            Sense::Maximize,
            &[1.0, 1.0],
            &[(&[1.0, 0.0], Relation::Le, 2.0), (&[0.0, 1.0], Relation::Le, 3.0)],
        );
        let mut inst = build_instance(&unique);
        let mut pivots = 0u64;
        assert_eq!(inst.solve_primal(inst.default_iter_cap(), &mut pivots), PrimalEnd::Optimal);
        assert!(inst.optimum_is_unique());

        // max x+y st x+y<=5: a whole edge of optima.
        let tied = build(Sense::Maximize, &[1.0, 1.0], &[(&[1.0, 1.0], Relation::Le, 5.0)]);
        let mut inst = build_instance(&tied);
        let mut pivots = 0u64;
        assert_eq!(inst.solve_primal(inst.default_iter_cap(), &mut pivots), PrimalEnd::Optimal);
        assert!(!inst.optimum_is_unique());
    }
}
