//! Exact-arithmetic presolve with a postsolve witness map.
//!
//! Presolve shrinks a routine's warm-start base before the sparse revised
//! simplex solves it ([`crate::BaseProblem::solve_base`]). A warm result is
//! only *accepted* when it is provably identical to what the cold path
//! would produce. That proof leans on a bijection between the feasible
//! set of the original problem and the feasible set of the presolved problem,
//! so every reduction here must preserve the **LP relaxation's** feasible set
//! exactly — not merely the integer hull. Concretely:
//!
//! - all arithmetic is exact (`i64` terms with checked ops, `i128`
//!   accumulation); any value that is not an exactly-representable integer
//!   aborts presolve and the base gets no warm-start snapshot,
//! - empty rows are dropped only when trivially satisfied,
//! - a singleton row `a·x ⋈ b` is absorbed into a variable bound only when
//!   `a | b`, so the induced bound `b/a` is the row's exact LP shadow
//!   (otherwise the row is kept verbatim),
//! - a variable is fixed only when forced (`lo == ub`, or an exact equality
//!   singleton), and the fixed value is substituted exactly,
//! - duplicate rows (identical term vectors and relation) are folded to the
//!   dominating one; contradictory duplicates abort.
//!
//! Anything surprising — overflow, non-integral data, detected infeasibility
//! — returns `None`: every delta of that base then solves cold, on the
//! unpresolved problem, which owns all hard-case semantics.
//!
//! A base whose every variable is forced reduces to zero columns. It still
//! snapshots: each delta row then maps to satisfied or violated, and
//! [`Reduced::postsolve_witness`] rebuilds the one feasible point.

use crate::model::{Constraint, Problem, Relation, Sense};
use std::collections::HashMap;

/// Magnitude cap for "exactly representable integer" coefficients. Stays well
/// inside 2^53 so `f64 -> i64 -> f64` round-trips losslessly, with headroom
/// for checked substitution products.
const MAX_EXACT: f64 = 4.0e15;

/// Interpret `v` as an exact integer, or bail.
pub(crate) fn exact_int(v: f64) -> Option<i64> {
    if v.is_finite() && v.fract() == 0.0 && v.abs() <= MAX_EXACT {
        Some(v as i64)
    } else {
        None
    }
}

/// A constraint row in exact integer form. Terms are sorted by variable index
/// and contain no zero coefficients.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct IntRow {
    pub terms: Vec<(usize, i64)>,
    pub rel: Relation,
    pub rhs: i64,
}

impl IntRow {
    /// Exact view of one constraint, or `None` if any coefficient or the
    /// right-hand side is not an exactly-representable integer. Duplicate
    /// terms are summed (checked), zeros dropped, terms sorted by variable.
    pub(crate) fn from_constraint(con: &Constraint) -> Option<IntRow> {
        let mut raw = Vec::with_capacity(con.terms.len());
        for &(var, coeff) in &con.terms {
            raw.push((var.0, exact_int(coeff)?));
        }
        // Stable, so repeats of a variable sum in term order.
        raw.sort_by_key(|&(v, _)| v);
        let mut terms = Vec::with_capacity(raw.len());
        for run in raw.chunk_by(|a, b| a.0 == b.0) {
            let sum = run.iter().try_fold(0i64, |acc, &(_, c)| acc.checked_add(c))?;
            if sum != 0 {
                terms.push((run[0].0, sum));
            }
        }
        Some(IntRow { terms, rel: con.relation, rhs: exact_int(con.rhs)? })
    }
}

/// A whole problem in exact integer form.
#[derive(Debug, Clone)]
pub(crate) struct IntProblem {
    pub sense: Sense,
    pub obj: Vec<i64>,
    pub rows: Vec<IntRow>,
    pub n: usize,
}

impl IntProblem {
    /// Exact view of `problem`, or `None` if any coefficient, right-hand side
    /// or objective entry is not an exactly-representable integer.
    pub(crate) fn from_problem(problem: &Problem) -> Option<IntProblem> {
        let n = problem.num_vars();
        let mut obj = Vec::with_capacity(n);
        for &c in &problem.objective {
            obj.push(exact_int(c)?);
        }
        let mut rows = Vec::with_capacity(problem.num_constraints());
        for con in &problem.constraints {
            rows.push(IntRow::from_constraint(con)?);
        }
        Some(IntProblem { sense: problem.sense, obj, rows, n })
    }
}

/// Where each original variable went.
#[derive(Debug, Clone)]
enum VarState {
    /// Forced to this exact value by the constraints.
    Fixed(i64),
    /// Survives as reduced-problem variable with this index.
    Free(usize),
}

/// Output of [`presolve`]: a smaller problem over the free variables plus the
/// map needed to reconstruct a full witness.
#[derive(Debug, Clone)]
pub(crate) struct Reduced {
    pub n_free: usize,
    /// Non-singleton rows over free-variable indices (bounds carried apart).
    pub rows: Vec<IntRow>,
    /// Lower bound per free variable (>= 0).
    pub lo: Vec<i64>,
    /// Upper bound per free variable, if any.
    pub ub: Vec<Option<i64>>,
    pub obj: Vec<i64>,
    pub sense: Sense,
    map: Vec<VarState>,
}

/// Outcome of mapping one delta row into the reduced space.
#[derive(Debug, Clone)]
pub(crate) enum MappedRow {
    /// A genuine residual row over free variables.
    Row(IntRow),
    /// All variables in the row were fixed; the row reduced to a tautology.
    Satisfied,
    /// All variables in the row were fixed and the row is violated.
    Violated,
}

impl Reduced {
    /// Reconstruct the full witness from a reduced one.
    pub(crate) fn postsolve_witness(&self, reduced_x: &[i64]) -> Option<Vec<i64>> {
        if reduced_x.len() != self.n_free {
            return None;
        }
        let mut full = Vec::with_capacity(self.map.len());
        for state in &self.map {
            full.push(match *state {
                VarState::Fixed(v) => v,
                VarState::Free(idx) => reduced_x[idx],
            });
        }
        Some(full)
    }

    /// True when the free variables keep their original relative order,
    /// which makes lexicographic order in the reduced space the original's.
    pub(crate) fn keeps_var_order(&self) -> bool {
        let free = self.map.iter().filter_map(|s| match *s {
            VarState::Free(idx) => Some(idx),
            VarState::Fixed(_) => None,
        });
        free.eq(0..self.n_free)
    }

    /// Map a row stated over *original* variables into the reduced space:
    /// fixed variables are substituted exactly, free ones reindexed.
    pub(crate) fn map_row(&self, row: &IntRow) -> Option<MappedRow> {
        let mut acc: HashMap<usize, i64> = HashMap::new();
        let mut rhs = row.rhs;
        for &(var, coeff) in &row.terms {
            match *self.map.get(var)? {
                VarState::Fixed(v) => {
                    rhs = rhs.checked_sub(coeff.checked_mul(v)?)?;
                }
                VarState::Free(idx) => {
                    let slot = acc.entry(idx).or_insert(0);
                    *slot = slot.checked_add(coeff)?;
                }
            }
        }
        let mut terms: Vec<(usize, i64)> = acc.into_iter().filter(|&(_, c)| c != 0).collect();
        terms.sort_unstable_by_key(|&(v, _)| v);
        if terms.is_empty() {
            let ok = match row.rel {
                Relation::Le => 0 <= rhs,
                Relation::Ge => 0 >= rhs,
                Relation::Eq => rhs == 0,
            };
            return Some(if ok { MappedRow::Satisfied } else { MappedRow::Violated });
        }
        Some(MappedRow::Row(IntRow { terms, rel: row.rel, rhs }))
    }

    /// Render the reduced problem as a [`Problem`] for the general sparse
    /// path, with every free variable shifted down by its lower bound
    /// (`x = lo + x'`). The shift makes each tightened lower bound the
    /// implicit `x' >= 0`, so no `>=` bound rows — and therefore no
    /// phase-1 artificials for them — are ever emitted; upper bounds become
    /// slack-basic `<=` rows. Witnesses from the returned problem must go
    /// through [`Reduced::unshift_witness`] before
    /// [`Reduced::postsolve_witness`]. Returns `None` when a shifted
    /// quantity falls outside the exactly-representable `f64` range.
    pub(crate) fn to_shifted_problem(&self) -> Option<Problem> {
        use crate::model::{Constraint, VarId};
        let mut constraints = Vec::with_capacity(self.rows.len() + self.n_free);
        for row in &self.rows {
            constraints.push(Constraint {
                terms: row.terms.iter().map(|&(v, c)| (VarId(v), c as f64)).collect(),
                relation: row.rel,
                rhs: self.shift_rhs(&row.terms, row.rhs)? as f64,
            });
        }
        for v in 0..self.n_free {
            if let Some(u) = self.ub[v] {
                // `ub >= lo` is a presolve invariant, so the shifted bound
                // keeps a non-negative right-hand side (slack stays basic).
                constraints.push(Constraint {
                    terms: vec![(VarId(v), 1.0)],
                    relation: Relation::Le,
                    rhs: exact_rhs(i128::from(u) - i128::from(self.lo[v]))? as f64,
                });
            }
        }
        Some(Problem {
            sense: self.sense,
            objective: self.obj.iter().map(|&c| c as f64).collect(),
            constraints,
            integer: vec![true; self.n_free],
            names: (0..self.n_free).map(|i| format!("r{i}")).collect(),
        })
    }

    /// Right-hand side of a reduced row after the `x = lo + x'` shift:
    /// `rhs - sum(a_v * lo[v])`, exact or `None`.
    pub(crate) fn shift_rhs(&self, terms: &[(usize, i64)], rhs: i64) -> Option<i64> {
        let mut acc = i128::from(rhs);
        for &(v, a) in terms {
            acc -= i128::from(a) * i128::from(*self.lo.get(v)?);
        }
        exact_rhs(acc)
    }

    /// Undo the `x = lo + x'` shift on a reduced-space witness.
    pub(crate) fn unshift_witness(&self, shifted_x: &[i64]) -> Option<Vec<i64>> {
        if shifted_x.len() != self.n_free {
            return None;
        }
        shifted_x.iter().zip(&self.lo).map(|(&v, &lo)| v.checked_add(lo)).collect()
    }
}

/// Clamp helper: an `i128` that fits `i64` and stays exactly representable
/// as `f64` (|v| <= 2^53), or `None`.
fn exact_rhs(v: i128) -> Option<i64> {
    if v.abs() > (1i128 << 53) {
        return None;
    }
    i64::try_from(v).ok()
}

/// Run the presolve fixpoint over `problem`. Returns `None` whenever a
/// reduction cannot be justified exactly (non-integral data, overflow) or the
/// problem is detected infeasible — the caller then solves cold on the
/// unpresolved problem, which owns all hard-case semantics.
pub(crate) fn presolve(problem: &IntProblem) -> Option<Reduced> {
    let n = problem.n;
    let mut rows: Vec<Option<IntRow>> = problem.rows.iter().cloned().map(Some).collect();
    // Implicit non-negativity is the model-wide ground bound.
    let mut lo: Vec<i64> = vec![0; n];
    let mut ub: Vec<Option<i64>> = vec![None; n];
    let mut fixed: Vec<Option<i64>> = vec![None; n];

    // Fixpoint: substitution of a fixed variable can create new empty or
    // singleton rows, which can fix more variables.
    let mut changed = true;
    let mut feasible = true;
    while changed && feasible {
        changed = false;

        // Newly forced variables (lo == ub) get substituted everywhere.
        let mut to_fix: Vec<(usize, i64)> = Vec::new();
        for v in 0..n {
            if fixed[v].is_none() {
                if let Some(u) = ub[v] {
                    if lo[v] > u {
                        feasible = false;
                    } else if lo[v] == u {
                        to_fix.push((v, u));
                    }
                }
            }
        }
        for (v, val) in to_fix {
            if fixed[v].is_some() {
                continue;
            }
            fixed[v] = Some(val);
            changed = true;
            for row in rows.iter_mut().flatten() {
                if let Some(pos) = row.terms.iter().position(|&(var, _)| var == v) {
                    let (_, coeff) = row.terms.remove(pos);
                    match coeff.checked_mul(val).and_then(|p| row.rhs.checked_sub(p)) {
                        Some(new_rhs) => row.rhs = new_rhs,
                        None => return None,
                    }
                }
            }
        }
        if !feasible {
            break;
        }

        // Classify rows: drop satisfied empties, absorb exact singletons.
        for slot in rows.iter_mut() {
            let Some(row) = slot else { continue };
            match row.terms.len() {
                0 => {
                    let ok = match row.rel {
                        Relation::Le => 0 <= row.rhs,
                        Relation::Ge => 0 >= row.rhs,
                        Relation::Eq => row.rhs == 0,
                    };
                    if !ok {
                        feasible = false;
                        break;
                    }
                    *slot = None;
                    changed = true;
                }
                1 => {
                    let (var, a) = row.terms[0];
                    debug_assert_ne!(a, 0);
                    // Only absorb when the induced bound is the row's exact
                    // LP shadow: a must divide rhs. `2x <= 5` is *kept* — its
                    // LP bound is fractional and flooring it would change the
                    // relaxation's feasible set.
                    if row.rhs % a != 0 {
                        continue;
                    }
                    let bound = row.rhs / a;
                    // `a·x ⋈ b` with a < 0 flips the relation for x.
                    let rel = if a > 0 {
                        row.rel
                    } else {
                        match row.rel {
                            Relation::Le => Relation::Ge,
                            Relation::Ge => Relation::Le,
                            Relation::Eq => Relation::Eq,
                        }
                    };
                    match rel {
                        Relation::Le => {
                            if ub[var].is_none_or(|u| bound < u) {
                                ub[var] = Some(bound);
                            }
                        }
                        Relation::Ge => {
                            if bound > lo[var] {
                                lo[var] = bound;
                            }
                        }
                        Relation::Eq => {
                            if bound > lo[var] {
                                lo[var] = bound;
                            }
                            if ub[var].is_none_or(|u| bound < u) {
                                ub[var] = Some(bound);
                            }
                        }
                    }
                    *slot = None;
                    changed = true;
                }
                _ => {}
            }
        }
    }
    if !feasible {
        return None;
    }

    // Duplicate-row folding: identical (terms, relation) keep only the
    // dominating right-hand side; contradictory equality duplicates bail.
    let mut seen: HashMap<(Vec<(usize, i64)>, Relation), usize> = HashMap::new();
    let mut folded: Vec<IntRow> = Vec::new();
    for row in rows.into_iter().flatten() {
        let key = (row.terms.clone(), row.rel);
        match seen.get(&key) {
            Some(&idx) => {
                let kept = &mut folded[idx];
                match row.rel {
                    Relation::Le => kept.rhs = kept.rhs.min(row.rhs),
                    Relation::Ge => kept.rhs = kept.rhs.max(row.rhs),
                    Relation::Eq => {
                        if kept.rhs != row.rhs {
                            return None;
                        }
                    }
                }
            }
            None => {
                seen.insert(key, folded.len());
                folded.push(row);
            }
        }
    }

    // Reindex the survivors.
    let mut map = Vec::with_capacity(n);
    let mut n_free = 0usize;
    for f in &fixed {
        match f {
            Some(val) => map.push(VarState::Fixed(*val)),
            None => {
                map.push(VarState::Free(n_free));
                n_free += 1;
            }
        }
    }
    let reindex = |terms: &[(usize, i64)]| -> Vec<(usize, i64)> {
        terms
            .iter()
            .map(|&(v, c)| match map[v] {
                VarState::Free(idx) => (idx, c),
                VarState::Fixed(_) => unreachable!("fixed vars were substituted out"),
            })
            .collect()
    };
    let rows = folded
        .iter()
        .map(|r| IntRow { terms: reindex(&r.terms), rel: r.rel, rhs: r.rhs })
        .collect();
    let mut r_lo = Vec::with_capacity(n_free);
    let mut r_ub = Vec::with_capacity(n_free);
    let mut r_obj = Vec::with_capacity(n_free);
    for v in 0..n {
        if let VarState::Free(_) = map[v] {
            r_lo.push(lo[v]);
            r_ub.push(ub[v]);
            r_obj.push(problem.obj[v]);
        }
    }
    Some(Reduced { n_free, rows, lo: r_lo, ub: r_ub, obj: r_obj, sense: problem.sense, map })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense};

    fn int_problem(p: &Problem) -> IntProblem {
        IntProblem::from_problem(p).expect("exact data")
    }

    #[test]
    fn int_row_sums_repeats_in_term_order() {
        use crate::model::{Constraint, VarId};
        let row = |terms: Vec<(usize, f64)>| Constraint {
            terms: terms.into_iter().map(|(v, c)| (VarId(v), c)).collect(),
            relation: Relation::Le,
            rhs: 7.0,
        };
        let r =
            IntRow::from_constraint(&row(vec![(3, 2.0), (1, 4.0), (3, -2.0), (0, 5.0), (1, 1.0)]))
                .expect("exact data");
        assert_eq!(r.terms, vec![(0, 5), (1, 5)], "repeats summed, zeros dropped, sorted");
        assert_eq!(r.rhs, 7);
        // 2400 * 4e15 passes i64::MAX part-way through the run: overflow
        // declines the row even though later terms would cancel it.
        let mut big = vec![(2, MAX_EXACT); 2400];
        big.extend(vec![(2, -MAX_EXACT); 2400]);
        assert!(IntRow::from_constraint(&row(big)).is_none());
        assert!(IntRow::from_constraint(&row(vec![(0, 0.5)])).is_none());
    }

    #[test]
    fn fixes_chain_through_equalities() {
        // d1 = 1; x1 = d1; x2 - 10 x1 <= 0  — classic IPET entry + loop bound.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let d1 = b.add_var("d1", true);
        let x1 = b.add_var("x1", true);
        let x2 = b.add_var("x2", true);
        b.objective(x1, 5.0);
        b.objective(x2, 7.0);
        b.constraint(vec![(d1, 1.0)], Relation::Eq, 1.0);
        b.constraint(vec![(x1, 1.0), (d1, -1.0)], Relation::Eq, 0.0);
        b.constraint(vec![(x2, 1.0), (x1, -10.0)], Relation::Le, 0.0);
        let p = b.build();
        let red = presolve(&int_problem(&p)).expect("reduces");
        // d1 and x1 fixed to 1; x2 free with ub 10.
        assert_eq!(red.n_free, 1);
        assert_eq!(red.lo, vec![0]);
        assert_eq!(red.ub, vec![Some(10)]);
        assert!(red.rows.is_empty());
        assert_eq!(red.postsolve_witness(&[10]).unwrap(), vec![1, 1, 10]);
    }

    #[test]
    fn keeps_non_divisible_singleton() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 2.0)], Relation::Le, 5.0);
        let p = b.build();
        let red = presolve(&int_problem(&p)).expect("reduces");
        // 2x <= 5 must survive verbatim: flooring the bound would shrink the
        // LP relaxation.
        assert_eq!(red.rows.len(), 1);
        assert_eq!(red.ub, vec![None]);
    }

    #[test]
    fn folds_duplicate_rows() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 1.0);
        b.objective(y, 1.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 8.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        let p = b.build();
        let red = presolve(&int_problem(&p)).expect("reduces");
        assert_eq!(red.rows.len(), 1);
        assert_eq!(red.rows[0].rhs, 5);
    }

    #[test]
    fn bails_on_contradictory_fix() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0)], Relation::Eq, 3.0);
        b.constraint(vec![(x, 1.0)], Relation::Eq, 4.0);
        let p = b.build();
        assert!(presolve(&int_problem(&p)).is_none());
    }

    #[test]
    fn bails_on_non_integral_data() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        b.objective(x, 1.5);
        b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        let p = b.build();
        assert!(IntProblem::from_problem(&p).is_none());
    }

    #[test]
    fn map_row_substitutes_fixed_vars() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 1.0);
        b.objective(y, 1.0);
        b.constraint(vec![(x, 1.0)], Relation::Eq, 2.0);
        b.constraint(vec![(y, 1.0)], Relation::Le, 9.0);
        let p = b.build();
        let red = presolve(&int_problem(&p)).expect("reduces");
        assert_eq!(red.n_free, 1); // y free (bounded), x fixed
                                   // Delta row x + y <= 7 maps to y <= 5.
        let row = IntRow { terms: vec![(0, 1), (1, 1)], rel: Relation::Le, rhs: 7 };
        match red.map_row(&row).unwrap() {
            MappedRow::Row(r) => {
                assert_eq!(r.terms, vec![(0, 1)]);
                assert_eq!(r.rhs, 5);
            }
            other => panic!("unexpected mapping {other:?}"),
        }
        // Delta row x >= 3 is violated outright once x is fixed to 2.
        let row = IntRow { terms: vec![(0, 1)], rel: Relation::Ge, rhs: 3 };
        assert!(matches!(red.map_row(&row).unwrap(), MappedRow::Violated));
    }
}
