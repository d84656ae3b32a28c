//! Reference kernel for debug builds and tests: the textbook two-phase
//! simplex on a dense full-row tableau, with Bland's rule only.
//!
//! Every production solve runs on the sparse revised simplex
//! ([`crate::sparse`]). This kernel shares none of its machinery: no LU
//! factors, no eta file, no crash basis, no Dantzig pricing, no stall
//! switch. Tests compare the two kernels' canonical optima ([`crate::canonical`]), so the production
//! kernel is never checked only against itself. There are no budgets,
//! meters or faults: Bland's rule terminates, and release builds do not
//! compile this module.

use crate::canonical::{canonicalize, LexEnd, LexKernel};
use crate::model::{Problem, Relation, Sense};
use crate::simplex::{LpOutcome, FEAS_TOL};

/// A standard-form tableau: rows `[A | b]` with `b >= 0`, structurals in
/// columns `0..n`, then one slack or surplus per inequality row, then one
/// artificial per `>=`/`=` row from column `first_artificial` on.
struct Tableau {
    /// One row per constraint: every column, then the right-hand side.
    a: Vec<Vec<f64>>,
    /// The objective rows, pivoted with the others: the reduced costs
    /// `z_j = c_B^T B^-1 A_j - c_j` of phase 1 (maximize minus the sum of
    /// the artificials) and of phase 2 (the problem's objective, folded to
    /// "maximize").
    z: [Vec<f64>; 2],
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Columns that may not enter: the artificials once phase 1 is over.
    barred: Vec<bool>,
    /// Structural variable count.
    n: usize,
    first_artificial: usize,
}

/// Index of each phase's row in [`Tableau::z`].
const PHASE1: usize = 0;
const PHASE2: usize = 1;

/// How one [`Tableau::optimize`] run ended.
#[derive(PartialEq)]
enum End {
    Optimal,
    Unbounded,
    Numerical,
}

impl Tableau {
    fn new(problem: &Problem) -> Tableau {
        let n = problem.num_vars();
        // Rows normalized to a non-negative right-hand side.
        let rows: Vec<(Vec<f64>, Relation, f64)> = problem
            .constraints
            .iter()
            .map(|con| {
                let dense = con.dense(n);
                if con.rhs >= 0.0 {
                    return (dense, con.relation, con.rhs);
                }
                let rel = match con.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (dense.iter().map(|&v| -v).collect(), rel, -con.rhs)
            })
            .collect();
        let first_artificial = n + rows.iter().filter(|r| r.1 != Relation::Eq).count();
        let cols = first_artificial + rows.iter().filter(|r| r.1 != Relation::Le).count();
        let mut a = vec![vec![0.0; cols + 1]; rows.len()];
        let mut basis = vec![0; rows.len()];
        let (mut slack, mut artificial) = (n, first_artificial);
        for (i, (coeffs, rel, rhs)) in rows.into_iter().enumerate() {
            a[i][..n].copy_from_slice(&coeffs);
            a[i][cols] = rhs;
            if rel != Relation::Eq {
                a[i][slack] = if rel == Relation::Le { 1.0 } else { -1.0 };
                basis[i] = slack;
                slack += 1;
            }
            if rel != Relation::Le {
                a[i][artificial] = 1.0;
                basis[i] = artificial;
                artificial += 1;
            }
        }
        let sign = match problem.sense {
            Sense::Maximize => 1.0,
            Sense::Minimize => -1.0,
        };
        let mut phase2 = vec![0.0; cols];
        for (o, &c) in phase2.iter_mut().zip(&problem.objective) {
            *o = sign * c;
        }
        let phase1: Vec<f64> = (0..cols).map(|j| -f64::from(j >= first_artificial)).collect();
        // The start basis is a unit matrix: `z_j = Σ_i c_B[i]·a[i][j] - c_j`.
        let z = [phase1, phase2].map(|cost| {
            let mut z: Vec<f64> = cost.iter().map(|&c| -c).collect();
            for (row, &b) in a.iter().zip(&basis) {
                for (zj, &aij) in z.iter_mut().zip(row) {
                    *zj += cost[b] * aij;
                }
            }
            z
        });
        Tableau { a, z, basis, barred: vec![false; cols], n, first_artificial }
    }

    fn cols(&self) -> usize {
        self.barred.len()
    }

    fn rhs(&self, row: usize) -> f64 {
        self.a[row][self.cols()]
    }

    /// Full-row pivot on (`row`, `col`). False for a pivot element that is
    /// non-finite or too small to divide by.
    fn pivot(&mut self, row: usize, col: usize) -> bool {
        let piv = self.a[row][col];
        if !piv.is_finite() || piv.abs() <= FEAS_TOL {
            return false;
        }
        for v in &mut self.a[row] {
            *v /= piv;
        }
        let prow = self.a[row].clone();
        let others = self.a.iter_mut().enumerate().filter(|&(i, _)| i != row);
        for r in others.map(|(_, r)| r).chain(self.z.iter_mut()) {
            let f = r[col];
            if f != 0.0 {
                for (v, &p) in r.iter_mut().zip(&prow) {
                    *v -= f * p;
                }
            }
        }
        self.basis[row] = col;
        true
    }

    /// Primal simplex on objective row `phase` with Bland's rule: the
    /// smallest improving column enters, the smallest basic column leaves
    /// among tied ratios.
    fn optimize(&mut self, phase: usize) -> End {
        loop {
            let z = &self.z[phase];
            if z.iter().any(|v| !v.is_finite()) {
                return End::Numerical;
            }
            let Some(col) = (0..self.cols()).find(|&j| !self.barred[j] && z[j] < -FEAS_TOL) else {
                return End::Optimal;
            };
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.a.len() {
                let aij = self.a[i][col];
                if aij > FEAS_TOL {
                    let ratio = self.rhs(i) / aij;
                    let better = leave.is_none_or(|(r, best)| {
                        ratio < best - FEAS_TOL
                            || (ratio <= best + FEAS_TOL && self.basis[i] < self.basis[r])
                    });
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((row, _)) = leave else {
                return End::Unbounded;
            };
            if !self.pivot(row, col) {
                return End::Numerical;
            }
        }
    }

    /// Phase 1: drives the artificials to zero, pivots the degenerate
    /// basic ones out where a non-artificial column can replace them, and
    /// bars every artificial. `Some(false)` when the rows are infeasible,
    /// `None` on non-finite data.
    fn phase1(&mut self) -> Option<bool> {
        let artificials = self.first_artificial..self.cols();
        if artificials.is_empty() {
            return Some(true);
        }
        if self.optimize(PHASE1) != End::Optimal {
            return None;
        }
        let infeasibility: f64 = (0..self.a.len())
            .filter(|&i| artificials.contains(&self.basis[i]))
            .map(|i| self.rhs(i))
            .sum();
        if !infeasibility.is_finite() {
            return None;
        }
        if infeasibility > 1e-6 {
            return Some(false);
        }
        for row in 0..self.a.len() {
            if artificials.contains(&self.basis[row]) {
                // A row with no such column is redundant: its artificial
                // stays basic at zero.
                let col = (0..self.first_artificial).find(|&j| self.a[row][j].abs() > FEAS_TOL);
                if col.is_some_and(|col| !self.pivot(row, col)) {
                    return None;
                }
            }
        }
        for j in artificials {
            self.barred[j] = true;
        }
        Some(true)
    }

    fn extract_x(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (row, &b) in self.basis.iter().enumerate() {
            if b < self.n {
                x[b] = self.rhs(row).max(0.0);
            }
        }
        x
    }
}

impl LexKernel for Tableau {
    fn structural(&self) -> usize {
        self.n
    }

    fn num_cols(&self) -> usize {
        self.cols()
    }

    fn basis(&self) -> &[usize] {
        &self.basis
    }

    fn barred(&self, col: usize) -> bool {
        self.barred[col]
    }

    fn reduced_costs(&self) -> Vec<f64> {
        self.z[PHASE2].clone()
    }

    fn column(&self, col: usize) -> Vec<f64> {
        self.a.iter().map(|row| row[col]).collect()
    }

    fn basic_value(&self, row: usize) -> f64 {
        self.rhs(row)
    }

    fn exchange(&mut self, row: usize, col: usize, _w: &[f64]) -> bool {
        self.pivot(row, col)
    }
}

/// Solves the LP relaxation of `problem` on the reference kernel and walks
/// to its canonical optimum: the lexicographic minimum of the variables,
/// in `VarId` order, over the optimal face. Unlike
/// [`solve_lp`](crate::solve_lp), the canonical point is returned even
/// when it is fractional in an integer-typed variable.
pub fn debug_reference_lp(problem: &Problem) -> LpOutcome {
    if problem.has_non_finite() {
        return LpOutcome::Numerical;
    }
    let mut tab = Tableau::new(problem);
    match tab.phase1() {
        Some(true) => {}
        Some(false) => return LpOutcome::Infeasible,
        None => return LpOutcome::Numerical,
    }
    match tab.optimize(PHASE2) {
        End::Optimal => {}
        End::Unbounded => return LpOutcome::Unbounded,
        End::Numerical => return LpOutcome::Numerical,
    }
    if canonicalize(&mut tab, u64::MAX, &mut 0) != LexEnd::Canonical {
        return LpOutcome::Numerical;
    }
    let x = tab.extract_x();
    let value = problem.objective_value(&x);
    LpOutcome::Optimal { x, value }
}
