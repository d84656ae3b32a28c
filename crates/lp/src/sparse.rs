//! Revised simplex over sparse columns.
//!
//! The dense tableau in `simplex.rs` carries the full `m × (n+m)` matrix
//! through every pivot. This module keeps the constraint matrix as immutable
//! CSC columns and represents the basis inverse implicitly: an LU
//! factorization (partial pivoting) of the basis taken at the last
//! refactorization point, stored as sparse per-row and per-column lists of
//! its nonzeros, composed with an eta file of product-form updates, one eta
//! per pivot. FTRAN/BTRAN apply the factors; every
//! [`REFACTOR_INTERVAL`] pivots the LU is rebuilt from the current basis and
//! the eta file is discarded, which also re-syncs the basic values against
//! the right-hand side to keep drift bounded.
//!
//! Pricing mirrors the dense path's discipline: Dantzig (most negative
//! reduced cost, smallest column index on ties) switching to Bland's rule
//! after [`crate::simplex`]'s stall threshold, with the same `FEAS_TOL`.
//! Results from this module are only ever *accepted* upstream when the
//! witness rounds integral, the optimum is provably unique, and the exact
//! integer certification passes — so the sparse path can never change a
//! bound, only the work done to reach it.

// NaN-aware guards (`!(x > tol)` also rejects NaN, `x <= tol` would not) and
// index-based kernel loops are deliberate: the forms clippy suggests either
// change NaN behaviour or obscure the row/column arithmetic of the LU and
// pricing kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord, clippy::needless_range_loop)]

use crate::model::{Problem, Relation, Sense};
use crate::simplex::FEAS_TOL;

/// Rebuild the LU factors after this many eta updates.
const REFACTOR_INTERVAL: usize = 64;

/// Consecutive degenerate pivots before switching to Bland's rule. Matches
/// the dense tableau's threshold.
const STALL_THRESHOLD: u32 = 12;

/// Terminal state of a primal solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseEnd {
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    Numerical,
}

/// Terminal state of a dual reoptimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SparseDualEnd {
    Optimal,
    Infeasible,
    IterLimit,
    Numerical,
}

/// One product-form update: entering column's FTRAN image `w`, pivot row `r`.
#[derive(Debug, Clone)]
struct Eta {
    r: usize,
    pivot: f64,
    /// Nonzero entries of `w` except row `r`.
    others: Vec<(usize, f64)>,
}

/// Nonzeros of one triangle of the LU factors, grouped into lines (rows or
/// columns, by factored position) in ascending index order.
#[derive(Debug, Clone, Default)]
struct Lines {
    /// Line `i` is `entries[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    /// `(index, value)` pairs; every value is finite and nonzero.
    entries: Vec<(usize, f64)>,
}

impl Lines {
    fn line(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.start[i]..self.start[i + 1]]
    }

    /// Groups `(line, index, value)` triples, given in ascending `index`
    /// order, by `line` — a stable counting sort, so each line keeps
    /// ascending index order.
    fn grouped(m: usize, triples: &[(usize, usize, f64)]) -> Lines {
        let mut start = vec![0usize; m + 1];
        for &(line, _, _) in triples {
            start[line + 1] += 1;
        }
        for i in 0..m {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut entries = vec![(0usize, 0.0f64); triples.len()];
        for &(line, index, value) in triples {
            entries[next[line]] = (index, value);
            next[line] += 1;
        }
        Lines { start, entries }
    }
}

/// Sparse LU factors of the basis at the last refactorization point,
/// indexed by factored position: `P B = L U` with unit-diagonal `L`.
///
/// Each strict triangle is stored twice — by row for FTRAN, by column for
/// BTRAN — so both solves walk their factor entries contiguously, in the
/// same ascending order as a dense row-major solve would.
#[derive(Debug, Clone, Default)]
struct Factor {
    /// `L[i][j]` for `j < i`, by row `i`.
    l_rows: Lines,
    /// `L[i][j]` for `i > j`, by column `j`.
    l_cols: Lines,
    /// `U[i][j]` for `j > i`, by row `i`.
    u_rows: Lines,
    /// `U[i][j]` for `i < j`, by column `j`.
    u_cols: Lines,
    /// `U[i][i]`.
    u_diag: Vec<f64>,
    /// `perm[i]` = original row occupying factored position `i`.
    perm: Vec<usize>,
    etas: Vec<Eta>,
}

/// A standard-form LP with sparse columns and a factorized basis.
#[derive(Debug, Clone)]
pub(crate) struct SparseInstance {
    m: usize,
    /// Structural variable count.
    n: usize,
    /// CSC: per column, `(row, value)` sorted by row.
    cols: Vec<Vec<(usize, f64)>>,
    /// Per-column cost, sign-folded so the solver always maximizes.
    cost: Vec<f64>,
    b: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    banned: Vec<bool>,
    artificial: Vec<bool>,
    factor: Factor,
    /// Current basic values `B^{-1} b`, indexed by row.
    xb: Vec<f64>,
    refactors: u64,
}

impl SparseInstance {
    /// Build the standard form from `problem`, mirroring the dense
    /// construction: rows are normalized to non-negative right-hand sides,
    /// `<=` rows get a basic slack, `>=` rows a surplus plus basic
    /// artificial, `=` rows a basic artificial.
    pub(crate) fn build(problem: &Problem) -> Option<SparseInstance> {
        if problem.has_non_finite() {
            return None;
        }
        let n = problem.num_vars();
        let m = problem.num_constraints();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut cost: Vec<f64> = match problem.sense {
            Sense::Maximize => problem.objective.clone(),
            Sense::Minimize => problem.objective.iter().map(|c| -c).collect(),
        };
        let mut b = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut artificial_rows = Vec::new();
        // First pass: structural entries plus slack/surplus bookkeeping.
        let mut extra_cols: Vec<(usize, f64)> = Vec::new(); // (row, sign) per slack col
        for (i, con) in problem.constraints.iter().enumerate() {
            let dense = con.dense(n);
            let flip = con.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            let rel = if flip {
                match con.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                }
            } else {
                con.relation
            };
            for (j, &a) in dense.iter().enumerate() {
                if a != 0.0 {
                    cols[j].push((i, sign * a));
                }
            }
            b.push(sign * con.rhs);
            match rel {
                Relation::Le => {
                    extra_cols.push((i, 1.0));
                    basis.push(usize::MAX); // patched to the slack below
                }
                Relation::Ge => {
                    extra_cols.push((i, -1.0));
                    artificial_rows.push(i);
                    basis.push(usize::MAX); // patched to the artificial below
                }
                Relation::Eq => {
                    artificial_rows.push(i);
                    basis.push(usize::MAX);
                }
            }
        }
        // Slack/surplus columns.
        let slack_base = n;
        for (k, &(row, sign)) in extra_cols.iter().enumerate() {
            cols.push(vec![(row, sign)]);
            cost.push(0.0);
            if sign > 0.0 {
                basis[row] = slack_base + k;
            }
        }
        // Artificial columns.
        let art_base = cols.len();
        let mut artificial = vec![false; art_base];
        for (k, &row) in artificial_rows.iter().enumerate() {
            cols.push(vec![(row, 1.0)]);
            cost.push(0.0);
            artificial.push(true);
            basis[row] = art_base + k;
        }
        let num_cols = cols.len();
        debug_assert!(basis.iter().all(|&c| c < num_cols));
        let mut in_basis = vec![false; num_cols];
        for &c in &basis {
            in_basis[c] = true;
        }
        let mut inst = SparseInstance {
            m,
            n,
            cols,
            cost,
            b,
            basis,
            in_basis,
            banned: vec![false; num_cols],
            artificial,
            factor: Factor::default(),
            xb: Vec::new(),
            refactors: 0,
        };
        if !inst.refactorize() {
            return None;
        }
        Some(inst)
    }

    /// Number of refactorizations performed so far.
    pub(crate) fn refactors(&self) -> u64 {
        self.refactors
    }

    /// Dense Gaussian elimination with partial pivoting of the current
    /// basis in an `m × m` scratch buffer, row-major by original row: the
    /// strict lower part of row `perm[i]` holds `L[i]`, the rest `U[i]`.
    /// `None` for a singular or non-finite pivot.
    fn eliminate(&self) -> Option<(Vec<f64>, Vec<usize>)> {
        let m = self.m;
        let mut lu = vec![0.0f64; m * m];
        for (j, &col) in self.basis.iter().enumerate() {
            for &(row, val) in &self.cols[col] {
                lu[row * m + j] = val;
            }
        }
        let mut perm: Vec<usize> = (0..m).collect();
        for k in 0..m {
            let mut p = k;
            let mut best = lu[perm[k] * m + k].abs();
            for i in (k + 1)..m {
                let mag = lu[perm[i] * m + k].abs();
                if mag > best {
                    best = mag;
                    p = i;
                }
            }
            if !(best > FEAS_TOL) || !best.is_finite() {
                return None; // singular or non-finite basis
            }
            perm.swap(k, p);
            let pk = perm[k];
            let diag = lu[pk * m + k];
            for i in (k + 1)..m {
                let pi = perm[i];
                let f = lu[pi * m + k] / diag;
                lu[pi * m + k] = f;
                if f != 0.0 {
                    for j in (k + 1)..m {
                        lu[pi * m + j] -= f * lu[pk * m + j];
                    }
                }
            }
        }
        Some((lu, perm))
    }

    /// Rebuild the LU factors from the current basis and re-sync `xb`.
    ///
    /// Declines (returns `false`) a singular basis and any factorization
    /// with a non-finite entry. The latter is what lets the sparse solves
    /// skip exact-zero factor entries without changing a result: a skipped
    /// term is `0·finite`, which can at most flip the sign of a zero.
    fn refactorize(&mut self) -> bool {
        let m = self.m;
        let Some((lu, perm)) = self.eliminate() else {
            return false;
        };
        // Keep only the nonzeros, in ascending index order per line.
        let mut lower = Vec::new();
        let mut upper = Vec::new();
        let mut u_diag = Vec::with_capacity(m);
        for (i, &pi) in perm.iter().enumerate() {
            for (j, &v) in lu[pi * m..(pi + 1) * m].iter().enumerate() {
                if !v.is_finite() {
                    return false;
                }
                if j == i {
                    u_diag.push(v);
                } else if v != 0.0 {
                    if j < i {
                        lower.push((i, j, v))
                    } else {
                        upper.push((i, j, v))
                    }
                }
            }
        }
        // Column grouping: the triples are in ascending row order, which
        // becomes the ascending index order within each column.
        let transposed = |t: &[(usize, usize, f64)]| -> Vec<(usize, usize, f64)> {
            t.iter().map(|&(i, j, v)| (j, i, v)).collect()
        };
        self.factor = Factor {
            l_rows: Lines::grouped(m, &lower),
            l_cols: Lines::grouped(m, &transposed(&lower)),
            u_rows: Lines::grouped(m, &upper),
            u_cols: Lines::grouped(m, &transposed(&upper)),
            u_diag,
            perm,
            etas: Vec::new(),
        };
        self.refactors += 1;
        self.xb = self.ftran_dense(&self.b.clone());
        self.xb.iter().all(|v| v.is_finite())
    }

    /// Solve `B x = d` through the LU factors and the eta file.
    ///
    /// Each `x[i]` receives the same subtractions in the same ascending
    /// order as a dense triangular solve, minus the terms whose factor
    /// entry is exactly zero.
    fn ftran_dense(&self, d: &[f64]) -> Vec<f64> {
        let f = &self.factor;
        // L z = P d  (forward, unit diagonal)
        let mut x: Vec<f64> = f.perm.iter().map(|&pi| d[pi]).collect();
        for i in 0..self.m {
            let mut v = x[i];
            for &(j, l) in f.l_rows.line(i) {
                v -= l * x[j];
            }
            x[i] = v;
        }
        // U y = z  (backward)
        for i in (0..self.m).rev() {
            let mut v = x[i];
            for &(j, u) in f.u_rows.line(i) {
                v -= u * x[j];
            }
            x[i] = v / f.u_diag[i];
        }
        // Product-form updates in application order.
        for eta in &f.etas {
            let xr = x[eta.r] / eta.pivot;
            for &(i, w) in &eta.others {
                x[i] -= w * xr;
            }
            x[eta.r] = xr;
        }
        x
    }

    /// FTRAN of a sparse column.
    fn ftran_col(&self, col: usize) -> Vec<f64> {
        let mut d = vec![0.0f64; self.m];
        for &(row, val) in &self.cols[col] {
            d[row] = val;
        }
        self.ftran_dense(&d)
    }

    /// Solve `B^T y = c` (c indexed by basis position), with the same
    /// operation order as [`ftran_dense`](Self::ftran_dense) guarantees.
    fn btran(&self, c: &[f64]) -> Vec<f64> {
        let f = &self.factor;
        let mut w = c.to_vec();
        // Undo the eta file, newest first.
        for eta in f.etas.iter().rev() {
            let mut acc = w[eta.r];
            for &(i, v) in &eta.others {
                acc -= v * w[i];
            }
            w[eta.r] = acc / eta.pivot;
        }
        // U^T w = v  (forward; U^T is lower triangular)
        for i in 0..self.m {
            let mut acc = w[i];
            for &(j, u) in f.u_cols.line(i) {
                acc -= u * w[j];
            }
            w[i] = acc / f.u_diag[i];
        }
        // L^T z = w  (backward; unit diagonal)
        for i in (0..self.m).rev() {
            let mut acc = w[i];
            for &(j, l) in f.l_cols.line(i) {
                acc -= l * w[j];
            }
            w[i] = acc;
        }
        // y = P^T z
        let mut y = vec![0.0f64; self.m];
        for (i, &pi) in f.perm.iter().enumerate() {
            y[pi] = w[i];
        }
        y
    }

    fn basis_cost(&self, cost: &[f64]) -> Vec<f64> {
        self.basis.iter().map(|&c| cost[c]).collect()
    }

    fn col_dot(&self, y: &[f64], col: usize) -> f64 {
        let mut acc = 0.0;
        for &(row, val) in &self.cols[col] {
            acc += y[row] * val;
        }
        acc
    }

    /// Install `entering` in basis position `r` with FTRAN image `w`.
    fn apply_pivot(&mut self, r: usize, entering: usize, w: &[f64]) -> bool {
        let pivot = w[r];
        if !pivot.is_finite() || pivot.abs() <= FEAS_TOL {
            return false;
        }
        let leaving = self.basis[r];
        self.in_basis[leaving] = false;
        self.in_basis[entering] = true;
        self.basis[r] = entering;
        let others: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        self.factor.etas.push(Eta { r, pivot, others });
        if self.factor.etas.len() >= REFACTOR_INTERVAL {
            return self.refactorize();
        }
        true
    }

    /// Primal simplex on the given cost vector (maximization).
    fn optimize(&mut self, cost: &[f64], max_iters: u64, pivots: &mut u64) -> SparseEnd {
        let mut iters: u64 = 0;
        let mut stalled: u32 = 0;
        loop {
            if iters >= max_iters {
                return SparseEnd::IterLimit;
            }
            iters += 1;
            let y = self.btran(&self.basis_cost(cost));
            if y.iter().any(|v| !v.is_finite()) {
                return SparseEnd::Numerical;
            }
            // Pricing: Dantzig normally, Bland once stalled.
            let bland = stalled >= STALL_THRESHOLD;
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.cols.len() {
                if self.in_basis[j] || self.banned[j] {
                    continue;
                }
                let z = self.col_dot(&y, j) - cost[j];
                if !z.is_finite() {
                    return SparseEnd::Numerical;
                }
                if z < -FEAS_TOL {
                    if bland {
                        entering = Some((j, z));
                        break;
                    }
                    match entering {
                        Some((_, best)) if z >= best => {}
                        _ => entering = Some((j, z)),
                    }
                }
            }
            let Some((e, _)) = entering else {
                return SparseEnd::Optimal;
            };
            let w = self.ftran_col(e);
            if w.iter().any(|v| !v.is_finite()) {
                return SparseEnd::Numerical;
            }
            // Ratio test: min xb_i / w_i over w_i > tol; ties by smallest
            // basis column index, matching the dense tableau.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.m {
                if w[i] > FEAS_TOL {
                    let ratio = self.xb[i] / w[i];
                    match leave {
                        Some((r, best)) => {
                            if ratio < best - FEAS_TOL
                                || (ratio <= best + FEAS_TOL && self.basis[i] < self.basis[r])
                            {
                                leave = Some((i, ratio));
                            }
                        }
                        None => leave = Some((i, ratio)),
                    }
                }
            }
            let Some((r, theta)) = leave else {
                return SparseEnd::Unbounded;
            };
            if !theta.is_finite() {
                return SparseEnd::Numerical;
            }
            if theta.abs() <= FEAS_TOL {
                stalled += 1;
            } else {
                stalled = 0;
            }
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= theta * w[i];
                }
            }
            self.xb[r] = theta;
            if !self.apply_pivot(r, e, &w) {
                return SparseEnd::Numerical;
            }
            *pivots += 1;
            if self.xb.iter().any(|v| !v.is_finite()) {
                return SparseEnd::Numerical;
            }
        }
    }

    /// Two-phase primal solve, mirroring the dense `solve_primal`.
    pub(crate) fn solve_primal(&mut self, max_iters: u64, pivots: &mut u64) -> SparseEnd {
        let has_artificials = self.artificial.iter().any(|&a| a);
        if has_artificials {
            let phase1: Vec<f64> =
                self.artificial.iter().map(|&a| if a { -1.0 } else { 0.0 }).collect();
            match self.optimize(&phase1, max_iters, pivots) {
                SparseEnd::Optimal => {}
                SparseEnd::Unbounded => return SparseEnd::Numerical,
                other => return other,
            }
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.artificial[self.basis[i]])
                .map(|i| self.xb[i].max(0.0))
                .sum();
            if infeas > 1e-6 {
                return SparseEnd::Infeasible;
            }
            // Drive degenerate basic artificials out where possible, then
            // ban every artificial column for phase 2.
            for r in 0..self.m {
                if !self.artificial[self.basis[r]] {
                    continue;
                }
                let mut unit = vec![0.0f64; self.m];
                unit[r] = 1.0;
                let rho = self.btran(&unit);
                if rho.iter().any(|v| !v.is_finite()) {
                    return SparseEnd::Numerical;
                }
                let mut replacement = None;
                for j in 0..self.cols.len() {
                    if self.in_basis[j] || self.artificial[j] || self.banned[j] {
                        continue;
                    }
                    if self.col_dot(&rho, j).abs() > FEAS_TOL {
                        replacement = Some(j);
                        break;
                    }
                }
                if let Some(j) = replacement {
                    let w = self.ftran_col(j);
                    if w.iter().any(|v| !v.is_finite()) {
                        return SparseEnd::Numerical;
                    }
                    if w[r].abs() > FEAS_TOL {
                        let theta = self.xb[r] / w[r];
                        for i in 0..self.m {
                            if i != r {
                                self.xb[i] -= theta * w[i];
                            }
                        }
                        self.xb[r] = theta;
                        if !self.apply_pivot(r, j, &w) {
                            return SparseEnd::Numerical;
                        }
                    }
                }
            }
            for j in 0..self.cols.len() {
                if self.artificial[j] && !self.in_basis[j] {
                    self.banned[j] = true;
                }
            }
        }
        let cost = self.cost.clone();
        self.optimize(&cost, max_iters, pivots)
    }

    /// Append `<=` rows (already normalized) with fresh basic slacks and
    /// re-snapshot the factorized basis. Coefficients are dense over the
    /// structural variables.
    pub(crate) fn append_le_rows(&mut self, rows: &[(Vec<f64>, f64)]) -> bool {
        for (k, (coeffs, rhs)) in rows.iter().enumerate() {
            let row = self.m + k;
            for (j, &a) in coeffs.iter().enumerate() {
                if a != 0.0 {
                    debug_assert!(j < self.n);
                    self.cols[j].push((row, a));
                }
            }
            let slack = self.cols.len();
            self.cols.push(vec![(row, 1.0)]);
            self.cost.push(0.0);
            self.artificial.push(false);
            self.banned.push(false);
            self.in_basis.push(true);
            self.basis.push(slack);
            self.b.push(*rhs);
        }
        self.m += rows.len();
        // The enlarged basis is block triangular over the old one; a fresh
        // factorization re-snapshots it exactly.
        self.refactorize()
    }

    /// Dual simplex from a dual-feasible basis (used after appending rows).
    pub(crate) fn dual_reoptimize(&mut self, max_iters: u64, pivots: &mut u64) -> SparseDualEnd {
        let cost = self.cost.clone();
        let mut iters: u64 = 0;
        let mut stalled: u32 = 0;
        loop {
            if iters >= max_iters {
                return SparseDualEnd::IterLimit;
            }
            iters += 1;
            // Leaving row: most negative basic value; Bland-style smallest
            // basis index once stalled.
            let bland = stalled >= STALL_THRESHOLD;
            let mut leave: Option<usize> = None;
            for i in 0..self.m {
                if self.xb[i] < -FEAS_TOL {
                    match leave {
                        Some(r) => {
                            let better = if bland {
                                self.basis[i] < self.basis[r]
                            } else {
                                self.xb[i] < self.xb[r]
                            };
                            if better {
                                leave = Some(i);
                            }
                        }
                        None => leave = Some(i),
                    }
                }
            }
            let Some(r) = leave else {
                return SparseDualEnd::Optimal;
            };
            let mut unit = vec![0.0f64; self.m];
            unit[r] = 1.0;
            let rho = self.btran(&unit);
            let y = self.btran(&self.basis_cost(&cost));
            if rho.iter().chain(y.iter()).any(|v| !v.is_finite()) {
                return SparseDualEnd::Numerical;
            }
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.cols.len() {
                if self.in_basis[j] || self.banned[j] {
                    continue;
                }
                let alpha = self.col_dot(&rho, j);
                if alpha < -FEAS_TOL {
                    let z = self.col_dot(&y, j) - cost[j];
                    let ratio = z / (-alpha);
                    match entering {
                        Some((_, best)) if ratio >= best => {}
                        _ => entering = Some((j, ratio)),
                    }
                }
            }
            let Some((e, _)) = entering else {
                return SparseDualEnd::Infeasible;
            };
            let w = self.ftran_col(e);
            if w.iter().any(|v| !v.is_finite()) || w[r].abs() <= FEAS_TOL {
                return SparseDualEnd::Numerical;
            }
            let theta = self.xb[r] / w[r];
            if !theta.is_finite() {
                return SparseDualEnd::Numerical;
            }
            if theta.abs() <= FEAS_TOL {
                stalled += 1;
            } else {
                stalled = 0;
            }
            for i in 0..self.m {
                if i != r {
                    self.xb[i] -= theta * w[i];
                }
            }
            self.xb[r] = theta;
            if !self.apply_pivot(r, e, &w) {
                return SparseDualEnd::Numerical;
            }
            *pivots += 1;
            if self.xb.iter().any(|v| !v.is_finite()) {
                return SparseDualEnd::Numerical;
            }
        }
    }

    /// Structural variable values of the current basic solution.
    pub(crate) fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0f64; self.n];
        for (i, &col) in self.basis.iter().enumerate() {
            if col < self.n {
                x[col] = self.xb[i].max(0.0);
            }
        }
        x
    }

    /// True when every non-basic, non-banned column has a strictly positive
    /// reduced cost — i.e. the optimal *point* is unique.
    pub(crate) fn optimum_is_unique(&self) -> bool {
        let y = self.btran(&self.basis_cost(&self.cost));
        if y.iter().any(|v| !v.is_finite()) {
            return false;
        }
        for j in 0..self.cols.len() {
            if self.in_basis[j] || self.banned[j] {
                continue;
            }
            let z = self.col_dot(&y, j) - self.cost[j];
            if !(z > FEAS_TOL) {
                return false;
            }
        }
        true
    }

    /// Default iteration cap, matching the dense instance's formula.
    pub(crate) fn default_iter_cap(&self) -> u64 {
        50_000 + 200 * (self.m as u64 + self.cols.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense};
    use crate::simplex::{solve_lp, LpOutcome};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn flow_problem() -> Problem {
        // Small IPET-shaped program: entry fixed, a loop bounded by 10.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x1 = b.add_var("x1", true);
        let x2 = b.add_var("x2", true);
        let x3 = b.add_var("x3", true);
        b.objective(x1, 4.0);
        b.objective(x2, 9.0);
        b.objective(x3, 2.0);
        b.constraint(vec![(x1, 1.0)], Relation::Eq, 1.0);
        b.constraint(vec![(x2, 1.0), (x1, -10.0)], Relation::Le, 0.0);
        b.constraint(vec![(x3, 1.0), (x1, -1.0)], Relation::Eq, 0.0);
        b.build()
    }

    #[test]
    fn matches_dense_on_flow_problem() {
        let p = flow_problem();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Optimal);
        let x = inst.extract_x();
        match solve_lp(&p) {
            LpOutcome::Optimal { x: dx, value } => {
                for (a, b) in x.iter().zip(dx.iter()) {
                    assert!((a - b).abs() < 1e-6, "{x:?} vs {dx:?}");
                }
                let sparse_val = p.objective_value(&x);
                assert!((sparse_val - value).abs() < 1e-6);
            }
            other => panic!("dense disagreed: {other:?}"),
        }
        assert!(inst.optimum_is_unique());
    }

    #[test]
    fn detects_infeasible() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0)], Relation::Ge, 5.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let p = b.build();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        let p = b.build();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Unbounded);
    }

    #[test]
    fn dual_reoptimize_after_append() {
        let p = flow_problem();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p).expect("builds");
        assert_eq!(inst.solve_primal(inst.default_iter_cap(), &mut pivots), SparseEnd::Optimal);
        // Tighten the loop: x2 <= 6.
        let mut cut = vec![0.0; 3];
        cut[1] = 1.0;
        assert!(inst.append_le_rows(&[(cut, 6.0)]));
        let mut dual_pivots = 0u64;
        let end = inst.dual_reoptimize(inst.default_iter_cap(), &mut dual_pivots);
        assert_eq!(end, SparseDualEnd::Optimal);
        let x = inst.extract_x();
        assert!((x[1] - 6.0).abs() < 1e-6, "{x:?}");

        // The dense path on the composed problem must agree.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x1 = b.add_var("x1", true);
        let x2 = b.add_var("x2", true);
        let x3 = b.add_var("x3", true);
        b.objective(x1, 4.0);
        b.objective(x2, 9.0);
        b.objective(x3, 2.0);
        b.constraint(vec![(x1, 1.0)], Relation::Eq, 1.0);
        b.constraint(vec![(x2, 1.0), (x1, -10.0)], Relation::Le, 0.0);
        b.constraint(vec![(x3, 1.0), (x1, -1.0)], Relation::Eq, 0.0);
        b.constraint(vec![(x2, 1.0)], Relation::Le, 6.0);
        match solve_lp(&b.build()) {
            LpOutcome::Optimal { x: dx, .. } => {
                for (a, b) in x.iter().zip(dx.iter()) {
                    assert!((a - b).abs() < 1e-6, "{x:?} vs {dx:?}");
                }
            }
            other => panic!("dense disagreed: {other:?}"),
        }
    }

    // -- kernel equivalence ----------------------------------------------------

    /// The dense row-major LU and the dense triangular solves the sparse
    /// factors replace, sharing the instance's eta file.
    struct DenseLu {
        m: usize,
        lu: Vec<f64>,
        perm: Vec<usize>,
    }

    impl DenseLu {
        fn factor(inst: &SparseInstance) -> DenseLu {
            let (lu, perm) = inst.eliminate().expect("the instance's basis factors");
            DenseLu { m: inst.m, lu, perm }
        }

        fn ftran(&self, etas: &[Eta], d: &[f64]) -> Vec<f64> {
            let (m, lu, perm) = (self.m, &self.lu, &self.perm);
            let mut x = vec![0.0f64; m];
            for i in 0..m {
                let pi = perm[i];
                let mut v = d[pi];
                for j in 0..i {
                    v -= lu[pi * m + j] * x[j];
                }
                x[i] = v;
            }
            for i in (0..m).rev() {
                let pi = perm[i];
                let mut v = x[i];
                for j in (i + 1)..m {
                    v -= lu[pi * m + j] * x[j];
                }
                x[i] = v / lu[pi * m + i];
            }
            for eta in etas {
                let xr = x[eta.r] / eta.pivot;
                for &(i, w) in &eta.others {
                    x[i] -= w * xr;
                }
                x[eta.r] = xr;
            }
            x
        }

        fn btran(&self, etas: &[Eta], c: &[f64]) -> Vec<f64> {
            let (m, lu, perm) = (self.m, &self.lu, &self.perm);
            let mut v = c.to_vec();
            for eta in etas.iter().rev() {
                let mut acc = v[eta.r];
                for &(i, w) in &eta.others {
                    acc -= w * v[i];
                }
                v[eta.r] = acc / eta.pivot;
            }
            let mut w = vec![0.0f64; m];
            for i in 0..m {
                let mut acc = v[i];
                for j in 0..i {
                    acc -= lu[perm[j] * m + i] * w[j];
                }
                w[i] = acc / lu[perm[i] * m + i];
            }
            for i in (0..m).rev() {
                let mut acc = w[i];
                for j in (i + 1)..m {
                    acc -= lu[perm[j] * m + i] * w[j];
                }
                w[i] = acc;
            }
            let mut y = vec![0.0f64; m];
            for i in 0..m {
                y[perm[i]] = w[i];
            }
            y
        }
    }

    /// Checks FTRAN (of every column and of random dense vectors) and BTRAN
    /// against the dense reference. `==` rather than `to_bits`: a skipped
    /// term is `0·finite`, which can flip the sign of a zero result and
    /// nothing else, and no caller can observe a zero's sign (no division
    /// by a solve result, no sign-sensitive comparison).
    fn assert_solves_match(inst: &SparseInstance, reference: &DenseLu, rng: &mut StdRng) {
        let etas = &inst.factor.etas;
        for col in 0..inst.cols.len() {
            let want = {
                let mut d = vec![0.0f64; inst.m];
                for &(row, val) in &inst.cols[col] {
                    d[row] = val;
                }
                reference.ftran(etas, &d)
            };
            assert_eq!(inst.ftran_col(col), want, "ftran of column {col}");
        }
        for _ in 0..4 {
            let v: Vec<f64> = (0..inst.m).map(|_| random_value(rng)).collect();
            assert_eq!(inst.ftran_dense(&v), reference.ftran(etas, &v), "ftran of {v:?}");
            assert_eq!(inst.btran(&v), reference.btran(etas, &v), "btran of {v:?}");
        }
    }

    fn random_value(rng: &mut StdRng) -> f64 {
        if rng.gen_bool(0.3) {
            0.0
        } else {
            rng.gen_range(-999i64..=999) as f64 / 7.0
        }
    }

    /// A random feasible-by-construction LP: `<=` rows with non-negative
    /// right-hand sides over a few structural variables.
    fn random_problem(rng: &mut StdRng, n: usize, m: usize) -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| b.add_var(format!("x{i}"), false)).collect();
        for &v in &vars {
            b.objective(v, rng.gen_range(1i64..=9) as f64);
        }
        for _ in 0..m {
            let mut terms = Vec::new();
            for &v in &vars {
                if rng.gen_bool(0.4) {
                    terms.push((v, rng.gen_range(1i64..=40) as f64 / 3.0));
                }
            }
            b.constraint(terms, Relation::Le, rng.gen_range(1i64..=60) as f64);
        }
        b.build()
    }

    #[test]
    fn sparse_solves_match_the_dense_lu_across_refactorizations_and_etas() {
        let mut rng = StdRng::seed_from_u64(0x1u64 << 40 | 13);
        let mut refactorizations = 0u64;
        let mut checked_with_etas = 0usize;
        for _ in 0..12 {
            let n = rng.gen_range(4usize..=12);
            let m = rng.gen_range(4usize..=14);
            let mut inst = SparseInstance::build(&random_problem(&mut rng, n, m)).expect("builds");
            let mut reference = DenseLu::factor(&inst);
            assert_solves_match(&inst, &reference, &mut rng);
            // Random basis exchanges: enough eta updates to cross several
            // refactorization points, each checked against a reference
            // factored from the basis the instance last refactorized.
            for _ in 0..3 * REFACTOR_INTERVAL {
                let nonbasic: Vec<usize> =
                    (0..inst.cols.len()).filter(|&j| !inst.in_basis[j]).collect();
                let entering = nonbasic[rng.gen_range(0..nonbasic.len())];
                let w = inst.ftran_col(entering);
                // The largest entry as pivot keeps the basis well conditioned.
                let r = (0..inst.m).fold(0, |r, i| if w[i].abs() > w[r].abs() { i } else { r });
                let refactors = inst.refactors();
                if !inst.apply_pivot(r, entering, &w) {
                    break;
                }
                if inst.refactors() != refactors {
                    refactorizations += 1;
                    reference = DenseLu::factor(&inst);
                }
                checked_with_etas += usize::from(!inst.factor.etas.is_empty());
                assert_solves_match(&inst, &reference, &mut rng);
            }
            // Appending rows refactorizes the enlarged basis.
            let cut: Vec<f64> = (0..n).map(|_| random_value(&mut rng)).collect();
            if inst.append_le_rows(&[(cut, 5.0)]) {
                assert_solves_match(&inst, &DenseLu::factor(&inst), &mut rng);
            }
        }
        assert!(refactorizations >= 12, "only {refactorizations} refactorizations exercised");
        assert!(checked_with_etas >= 100, "only {checked_with_etas} checks with etas");
    }

    #[test]
    fn refactorize_declines_a_non_finite_factor() {
        // B = [[1, 0, 1e308], [-1, 1, 1e308], [0, 0, 1]]: every pivot is 1,
        // but eliminating row 1 overflows U[1][2] to +inf.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x: Vec<_> = (0..3).map(|i| b.add_var(format!("x{i}"), false)).collect();
        b.constraint(vec![(x[0], 1.0), (x[2], 1e308)], Relation::Eq, 1.0);
        b.constraint(vec![(x[0], -1.0), (x[1], 1.0), (x[2], 1e308)], Relation::Eq, 1.0);
        b.constraint(vec![(x[2], 1.0)], Relation::Eq, 1.0);
        let mut inst = SparseInstance::build(&b.build()).expect("artificial basis factors");
        // Move the structural columns into the basis.
        inst.basis = vec![0, 1, 2];
        for (j, in_basis) in inst.in_basis.iter_mut().enumerate() {
            *in_basis = j < 3;
        }
        assert!(!inst.refactorize(), "a factor with an infinite entry must be declined");
        // The same basis without the overflow factors fine.
        inst.cols[2] = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
        assert!(inst.refactorize());
    }

    #[test]
    fn refactorization_keeps_accuracy() {
        // A chain long enough to force several refactorizations.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let n = 40;
        let vars: Vec<_> = (0..n).map(|i| b.add_var(format!("x{i}"), true)).collect();
        for (i, &v) in vars.iter().enumerate() {
            b.objective(v, 1.0 + (i % 7) as f64);
            b.constraint(vec![(v, 1.0)], Relation::Le, (3 + (i % 5)) as f64);
        }
        // Coupling rows to force pivoting through many columns.
        for w in vars.windows(2) {
            b.constraint(vec![(w[0], 1.0), (w[1], 1.0)], Relation::Le, 6.0);
        }
        let p = b.build();
        let mut pivots = 0u64;
        let mut inst = SparseInstance::build(&p).expect("builds");
        let end = inst.solve_primal(inst.default_iter_cap(), &mut pivots);
        assert_eq!(end, SparseEnd::Optimal);
        let x = inst.extract_x();
        match solve_lp(&p) {
            LpOutcome::Optimal { value, .. } => {
                assert!((p.objective_value(&x) - value).abs() < 1e-6);
            }
            other => panic!("dense disagreed: {other:?}"),
        }
    }
}
