//! Two-phase primal simplex on a dense tableau: the kernel of every cold
//! solve.
//!
//! The problems produced by IPET are small (tens to a few hundred rows), so
//! a dense textbook tableau keeps the solver easy to audit. It is also
//! mostly zeros, so each row keeps a support list of its nonzero columns:
//! pivots scale and eliminate, and pricing accumulates, only over those
//! lists. Every term skipped is `finite·0 = ±0`, so results match the
//! full-row textbook loops exactly, up to the sign of a zero that no
//! comparison or output sees. Cold solves always run here and end with the
//! walk to the canonical optimum ([`crate::canonical`]); warm starts
//! re-optimize a presolved sparse snapshot instead
//! ([`crate::BaseProblem::solve_base`]).
//!
//! ## Pivot rule
//!
//! Entering columns are chosen by Dantzig's rule (most negative reduced
//! cost) for speed, switching to Bland's rule (smallest eligible index)
//! after [`STALL_THRESHOLD`] consecutive degenerate pivots. Bland's rule
//! provably terminates, so the switch is an anti-cycling guard: a stalled
//! sequence of degenerate pivots — the precondition for cycling — flips the
//! solver into the safe rule until it makes real progress again. Every loop
//! is additionally capped by an iteration budget, so a solve can never spin.

use crate::budget::{BudgetMeter, LpFault, SolveBudget, SolverFaults};
use crate::canonical::{canonicalize, LexEnd, LexKernel};
use crate::model::{Constraint, Problem, Relation, Sense};

/// Feasibility tolerance used throughout the solver.
pub const FEAS_TOL: f64 = 1e-7;

/// Integrality tolerance used by the branch-and-bound layer.
pub const INT_TOL: f64 = 1e-6;

/// Consecutive degenerate pivots tolerated before the entering rule falls
/// back from Dantzig to Bland (anti-cycling).
const STALL_THRESHOLD: u32 = 12;

/// Result of an LP solve (integrality flags only steer the tie-break; see
/// [`solve_lp`]).
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal vertex was found: the canonical one when the optimum is
    /// tied (see [`solve_lp`]).
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

/// A dense simplex tableau in equality standard form.
pub(crate) struct Tableau {
    /// `rows x cols` coefficient matrix; the last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Per row, the ascending column indices (RHS included) of every entry
    /// of `a` that is not exactly `0.0`. A list may also name zeros.
    support: Vec<Vec<usize>>,
    rows: usize,
    cols: usize, // includes rhs column
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Columns barred from entering the basis (artificials in phase 2).
    banned: Vec<bool>,
}

/// Ascending indices of the entries of `row` that are not exactly `0.0`.
fn nonzeros(row: &[f64]) -> Vec<usize> {
    row.iter().enumerate().filter(|&(_, &v)| v != 0.0).map(|(j, _)| j).collect()
}

/// `dst -= f·src` over the entries `src_support` lists. An unlisted entry of
/// `src` is zero, and for finite `f` the skipped term `f·0 = ±0` could only
/// flip the sign of a zero in `dst`. A non-finite `f` makes that term NaN,
/// so then the whole row is updated. Returns whether the listed form ran.
fn sub_scaled(dst: &mut [f64], f: f64, src: &[f64], src_support: &[usize]) -> bool {
    if !f.is_finite() {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d -= f * v;
        }
        return false;
    }
    for &j in src_support {
        dst[j] -= f * src[j];
    }
    true
}

/// Replaces `support` with the ascending union of `support` and `added`,
/// keeping only the indices whose entry in `row` is not exactly `0.0`.
/// `scratch` is reused storage; it takes the old list.
fn merge_support(support: &mut Vec<usize>, added: &[usize], row: &[f64], scratch: &mut Vec<usize>) {
    scratch.clear();
    let (mut p, mut q) = (0, 0);
    while p < support.len() || q < added.len() {
        let a = support.get(p).copied().unwrap_or(usize::MAX);
        let b = added.get(q).copied().unwrap_or(usize::MAX);
        let j = a.min(b);
        p += usize::from(a == j);
        q += usize::from(b == j);
        if row[j] != 0.0 {
            scratch.push(j);
        }
    }
    std::mem::swap(support, scratch);
}

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.a[row][self.cols - 1]
    }

    /// Performs one pivot on (`row`, `col`), updating the basis.
    ///
    /// Scaling and elimination run over the pivot row's support list only,
    /// and each eliminated row's list absorbs it. Every skipped term is
    /// `finite·0 = ±0`, so the tableau differs from the full-row loops at
    /// most in the sign of a zero entry (see [`sub_scaled`]).
    ///
    /// Returns `false` without touching the tableau when the pivot element
    /// is non-finite or too close to zero to divide by safely.
    #[must_use]
    fn pivot(&mut self, row: usize, col: usize) -> bool {
        #[cfg(debug_assertions)]
        if reference::log_pivot(row, col) {
            return reference::pivot(self, row, col);
        }
        let piv = self.a[row][col];
        if !piv.is_finite() || piv.abs() <= FEAS_TOL {
            return false;
        }
        let inv = 1.0 / piv;
        // Move the pivot row out while the other rows are eliminated
        // against it.
        let mut prow = std::mem::take(&mut self.a[row]);
        let mut psupport = std::mem::take(&mut self.support[row]);
        for &j in &psupport {
            prow[j] *= inv;
        }
        psupport.retain(|&j| prow[j] != 0.0);
        let mut scratch = Vec::new();
        for i in 0..self.rows {
            if i == row {
                continue;
            }
            let factor = self.a[i][col];
            if factor != 0.0 {
                if sub_scaled(&mut self.a[i], factor, &prow, &psupport) {
                    merge_support(&mut self.support[i], &psupport, &self.a[i], &mut scratch);
                } else {
                    self.support[i] = nonzeros(&self.a[i]);
                }
            }
        }
        self.a[row] = prow;
        self.support[row] = psupport;
        self.basis[row] = col;
        true
    }

    /// Reduced-cost row for the maximization objective `obj`:
    /// `z_j = c_B^T B^{-1} A_j - c_j`. Entering columns are those with
    /// `z_j < -tol` (can improve a maximum).
    ///
    /// Accumulated row by row: every `z_j` starts at `-c_j` and receives
    /// `c_B[i]·a[i][j]` for each row `i` with `c_B[i] ≠ 0` in ascending
    /// order — the order of a column-by-column sum. Only the entries a row's
    /// support list names are added; a skipped term is `finite·0 = ±0`, so
    /// the result equals the column sum bit for bit except that a zero
    /// `z_j` may differ in sign. A non-finite `c_B[i]` adds its whole row.
    fn reduced_costs(&self, obj: &[f64]) -> Vec<f64> {
        #[cfg(debug_assertions)]
        if reference::full_rows() {
            return reference::reduced_costs(self, obj);
        }
        let n = self.cols - 1;
        let mut zrow: Vec<f64> = obj[..n].iter().map(|&c| -c).collect();
        for ((row, support), &b) in self.a.iter().zip(&self.support).zip(&self.basis) {
            let cb = obj[b];
            if cb == 0.0 {
                continue;
            }
            if cb.is_finite() {
                for &j in support.strip_suffix(&[n]).unwrap_or(support) {
                    zrow[j] += cb * row[j];
                }
            } else {
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
/// variable count, and the artificial bookkeeping).
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
}

impl LexKernel for SimplexInstance {
    fn structural(&self) -> usize {
        self.n
    }

    fn num_cols(&self) -> usize {
        self.tab.cols - 1
    }

    fn basis(&self) -> &[usize] {
        &self.tab.basis
    }

    fn barred(&self, col: usize) -> bool {
        self.tab.banned[col]
    }

    fn reduced_costs(&self) -> Vec<f64> {
        self.tab.reduced_costs(&self.obj)
    }

    fn column(&self, col: usize) -> Vec<f64> {
        self.tab.a.iter().map(|row| row[col]).collect()
    }

    fn basic_value(&self, row: usize) -> f64 {
        self.tab.rhs(row)
    }

    fn exchange(&mut self, row: usize, col: usize, _w: &[f64]) -> bool {
        self.tab.pivot(row, col)
    }
}

/// Constraint rows in `<=` form over the first `n` structural variables, for
/// [`crate::sparse::SparseInstance::append_le_rows`]: `>=` rows are
/// negated, `=` rows split into a `>=`/`<=` pair.
pub(crate) fn le_form(rows: &[Constraint], n: usize) -> Vec<(Vec<f64>, f64)> {
    let mut le_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let dense = row.dense(n);
        match row.relation {
            Relation::Le => le_rows.push((dense, row.rhs)),
            Relation::Ge => le_rows.push((dense.iter().map(|&c| -c).collect(), -row.rhs)),
            Relation::Eq => {
                le_rows.push((dense.iter().map(|&c| -c).collect(), -row.rhs));
                le_rows.push((dense, row.rhs));
            }
        }
    }
    le_rows
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
    // pricing (and the canonical walk) never looks at them.
    let mut banned = vec![false; cols - 1];
    for slot in banned.iter_mut().take(cols - 1).skip(next_artificial) {
        *slot = true;
    }

    let support = a.iter().map(|row| nonzeros(row)).collect();
    SimplexInstance {
        tab: Tableau { a, support, rows: m, cols, basis, banned },
        obj,
        n,
        num_slack,
        artificial_cols,
    }
}

/// Solves the LP relaxation of `problem`.
///
/// Variables are non-negative; rows may be `<=`, `>=` or `=`. The returned
/// objective value is in the problem's own sense (a `Minimize` problem
/// reports the minimum).
///
/// When the optimum is tied, the vertex returned is the canonical one: the
/// lexicographic minimum of the variables, in `VarId` order, over the
/// optimal face. That point does not depend on the pivot path, so warm
/// re-optimizations reproduce it. The one exception keeps branch and bound
/// from ever branching more: when the canonical point is fractional in an
/// integer-typed variable, the vertex the simplex reached first is returned
/// instead.
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

    // The tie-break is a refinement of an optimum already in hand: should
    // it run out of iterations or break down, the first vertex stands.
    let first = inst.extract_x();
    let cap = (max_iters as u64).saturating_sub(pivots);
    let mut lex_pivots = 0u64;
    let lex = canonicalize(&mut inst, cap, &mut lex_pivots);
    meter.charge_ticks(lex_pivots);
    let x = match lex {
        LexEnd::Canonical => Some(inst.extract_x()).filter(|x| integral_where_typed(problem, x)),
        LexEnd::IterLimit | LexEnd::Numerical => None,
    }
    .unwrap_or(first);
    let value = problem.objective_value(&x);
    if !value.is_finite() || x.iter().any(|v| !v.is_finite()) {
        return LpOutcome::Numerical;
    }
    LpOutcome::Optimal { x, value }
}

/// True when every integer-typed variable of `problem` is integral in `x`
/// within [`INT_TOL`].
fn integral_where_typed(problem: &Problem, x: &[f64]) -> bool {
    x.iter().zip(&problem.integer).all(|(&v, &int)| !int || (v - v.round()).abs() <= INT_TOL)
}

/// Debug-build reference for the support-list kernels: the full-row `pivot`
/// and `reduced_costs` they replaced, kept verbatim, plus a probe that logs
/// every pivot. [`debug_kernel_trace`] runs one solve under either kernel so
/// tests can require the same pivot sequence and end state from both.
#[cfg(debug_assertions)]
mod reference {
    use super::{build_instance, canonicalize, nonzeros, Tableau, FEAS_TOL};
    use crate::model::Problem;
    use std::cell::RefCell;

    struct Probe {
        full_rows: bool,
        pivots: Vec<(usize, usize)>,
    }

    thread_local! {
        static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
    }

    /// Logs a pivot when a probe is installed; true when the probe selects
    /// the full-row kernels.
    pub(super) fn log_pivot(row: usize, col: usize) -> bool {
        PROBE.with(|p| match p.borrow_mut().as_mut() {
            Some(probe) => {
                probe.pivots.push((row, col));
                probe.full_rows
            }
            None => false,
        })
    }

    pub(super) fn full_rows() -> bool {
        PROBE.with(|p| p.borrow().as_ref().is_some_and(|probe| probe.full_rows))
    }

    /// The full-row pivot. Support lists are rebuilt afterwards (outside
    /// the arithmetic) because [`debug_kernel_trace`] checks them.
    pub(super) fn pivot(tab: &mut Tableau, row: usize, col: usize) -> bool {
        let piv = tab.a[row][col];
        if !piv.is_finite() || piv.abs() <= FEAS_TOL {
            return false;
        }
        let inv = 1.0 / piv;
        for j in 0..tab.cols {
            tab.a[row][j] *= inv;
        }
        for i in 0..tab.rows {
            if i != row {
                let factor = tab.a[i][col];
                if factor != 0.0 {
                    for j in 0..tab.cols {
                        tab.a[i][j] -= factor * tab.a[row][j];
                    }
                }
            }
        }
        tab.basis[row] = col;
        tab.support = tab.a.iter().map(|r| nonzeros(r)).collect();
        true
    }

    /// The full-row reduced costs, accumulated row by row.
    pub(super) fn reduced_costs(tab: &Tableau, obj: &[f64]) -> Vec<f64> {
        let n = tab.cols - 1;
        let mut zrow: Vec<f64> = obj[..n].iter().map(|&c| -c).collect();
        for (row, &b) in tab.a.iter().zip(&tab.basis) {
            let cb = obj[b];
            if cb != 0.0 {
                for (z, &a) in zrow.iter_mut().zip(&row[..n]) {
                    *z += cb * a;
                }
            }
        }
        zrow
    }

    /// What one solve did at kernel level.
    #[derive(Debug, Clone, PartialEq)]
    pub struct KernelTrace {
        /// Every pivot as `(leaving row, entering column)`, in order.
        pub pivots: Vec<(usize, usize)>,
        /// How the primal solve ended, then the canonical walk if the LP
        /// was optimal.
        pub ends: String,
        /// Final basic variable of each row.
        pub basis: Vec<usize>,
        /// Final tableau, RHS column included.
        pub tableau: Vec<Vec<f64>>,
        /// Structural solution.
        pub x: Vec<f64>,
        /// Objective value of `x`.
        pub value: f64,
    }

    /// Solves `problem` from scratch, then walks an optimal basis to the
    /// canonical optimum, with the support-list kernels or, under
    /// `full_rows`, the full-row reference. Asserts that every nonzero
    /// entry of the final tableau is in its row's list.
    pub fn debug_kernel_trace(problem: &Problem, full_rows: bool) -> KernelTrace {
        let mut inst = build_instance(problem);
        PROBE.with(|p| *p.borrow_mut() = Some(Probe { full_rows, pivots: Vec::new() }));
        let mut pivots = 0u64;
        let primal = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        let mut ends = format!("{primal:?}");
        if primal == super::PrimalEnd::Optimal {
            let cap = inst.default_iter_cap() as u64;
            let lex = canonicalize(&mut inst, cap, &mut pivots);
            ends = format!("{ends}; {lex:?}");
        }
        let probe = PROBE.with(|p| p.borrow_mut().take()).expect("probe installed");
        for (row, support) in inst.tab.a.iter().zip(&inst.tab.support) {
            let listed = nonzeros(row).iter().all(|j| support.binary_search(j).is_ok());
            assert!(listed, "a nonzero tableau entry is missing from its support list");
        }
        let x = inst.extract_x();
        KernelTrace {
            pivots: probe.pivots,
            ends,
            value: problem.objective_value(&x),
            x,
            basis: inst.tab.basis,
            tableau: inst.tab.a,
        }
    }
}

#[cfg(debug_assertions)]
pub use reference::{debug_kernel_trace, KernelTrace};

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

    /// Bit-identical wherever the column sum is nonzero, and `==` where it
    /// is zero: a term the support lists skip is `finite·0 = ±0`, which can
    /// only flip the sign of a zero sum (random raw tableaux show it).
    fn assert_reduced_costs_bit_identical(tab: &Tableau, obj: &[f64], what: &str) {
        let listed = tab.reduced_costs(obj);
        let reference = reduced_costs_by_column(tab, obj);
        for (j, (&z, &r)) in listed.iter().zip(&reference).enumerate() {
            if r == 0.0 {
                assert_eq!(z, 0.0, "{what}: z[{j}] = {z}, column-order sum is zero");
            } else {
                assert_eq!(
                    z.to_bits(),
                    r.to_bits(),
                    "{what}: z[{j}] = {z} differs from the column-order sum {r}"
                );
            }
        }
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
            let support = a.iter().map(|row| nonzeros(row)).collect();
            let tab = Tableau { a, support, rows, cols, basis, banned: vec![false; cols - 1] };
            assert_reduced_costs_bit_identical(&tab, &obj, &format!("raw case {case}"));
        }
        for case in 0..60 {
            // Tableaux the solver actually produces: before and after the
            // primal solve.
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
        }
    }

    /// Random LPs, solved once with the support-list kernels and once with
    /// the full-row reference (debug builds only).
    #[cfg(debug_assertions)]
    #[test]
    fn support_list_kernels_follow_the_full_row_reference_pivot_for_pivot() {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed2);
        let mut walks = 0;
        for case in 0..400 {
            let n = rng.gen_range(2usize..=10);
            let m = rng.gen_range(1usize..=10);
            let obj: Vec<f64> = (0..n).map(|_| random_coeff(&mut rng, 0.3)).collect();
            let rows: Vec<(Vec<f64>, Relation, f64)> = (0..m)
                .map(|_| {
                    let coeffs = (0..n).map(|_| random_coeff(&mut rng, 0.5).abs()).collect();
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
            let sense = if rng.gen_bool(0.5) { Sense::Maximize } else { Sense::Minimize };
            let p = build(sense, &obj, &refs);
            let listed = debug_kernel_trace(&p, false);
            let reference = debug_kernel_trace(&p, true);
            walks += usize::from(listed.ends.contains("; "));
            assert_eq!(listed, reference, "case {case}");
        }
        assert!(walks >= 80, "only {walks} cases walked to the canonical optimum");
    }
}
