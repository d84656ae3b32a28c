//! LP/ILP problem model.

use std::fmt;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Maximize the objective (the WCET query).
    Maximize,
    /// Minimize the objective (the BCET query).
    Minimize,
}

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// Index of a decision variable within a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub usize);

/// One linear constraint `Σ coeff·var <relation> rhs`.
///
/// Coefficients for the same variable may repeat; they are summed when the
/// problem is solved.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse left-hand side terms.
    pub terms: Vec<(VarId, f64)>,
    /// Row relation.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Returns the dense coefficient vector over `n` variables.
    pub fn dense(&self, n: usize) -> Vec<f64> {
        let mut row = vec![0.0; n];
        for &(v, c) in &self.terms {
            row[v.0] += c;
        }
        row
    }

    /// The nonzeros of [`Constraint::dense`] as `(variable, coefficient)`
    /// pairs sorted by variable (see [`merge_terms`]).
    pub(crate) fn merged_terms(&self) -> Vec<(usize, f64)> {
        let mut merged = Vec::with_capacity(self.terms.len());
        merge_terms(&self.terms, &mut merged);
        merged
    }
}

/// Writes the nonzeros of the dense row `terms` sum to into `out` (cleared
/// first) as `(variable, coefficient)` pairs sorted by variable, in
/// O(terms log terms) rather than O(vars) and without allocating once `out`
/// has room. Repeats sum in term order starting from `0.0`, exactly as the
/// dense form accumulates them, so every value is bit-identical to its
/// dense entry; exact zeros (and with them `-0.0`) are dropped. Terms
/// already strictly ascending by variable, as most rows are, skip the sort.
pub(crate) fn merge_terms(terms: &[(VarId, f64)], out: &mut Vec<(usize, f64)>) {
    out.clear();
    out.extend(terms.iter().map(|&(v, c)| (v.0, c)));
    if !terms.windows(2).all(|t| t[0].0 < t[1].0) {
        // Stable, so repeats keep their term order.
        out.sort_by_key(|&(v, _)| v);
    }
    // Sum each run of one variable in place.
    let (mut kept, mut i) = (0, 0);
    while i < out.len() {
        let v = out[i].0;
        let mut sum = 0.0;
        while i < out.len() && out[i].0 == v {
            sum += out[i].1;
            i += 1;
        }
        if sum != 0.0 {
            out[kept] = (v, sum);
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// A complete LP/ILP: all variables are implicitly `>= 0`.
///
/// Numbers only: a variable is its index ([`VarId`]), and nothing here
/// names it. The solver, the content key ([`crate::fingerprint`]) and the
/// store read the sense, objective, rows and integrality flags, so a
/// caller that reports variables keeps its own labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Optimization direction.
    pub sense: Sense,
    /// Dense objective coefficients (one per variable).
    pub objective: Vec<f64>,
    /// Constraint rows.
    pub constraints: Vec<Constraint>,
    /// Per-variable integrality flags.
    pub integer: Vec<bool>,
}

impl Problem {
    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The objective value of a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// True when any objective coefficient, constraint coefficient, or
    /// right-hand side is NaN or infinite. The simplex solver rejects such
    /// models up front ([`LpOutcome::Numerical`](crate::LpOutcome)) rather
    /// than letting NaN poison the pivot selection.
    pub fn has_non_finite(&self) -> bool {
        self.objective.iter().any(|c| !c.is_finite())
            || self
                .constraints
                .iter()
                .any(|con| !con.rhs.is_finite() || con.terms.iter().any(|(_, c)| !c.is_finite()))
    }

    /// Checks a point against every constraint and non-negativity,
    /// within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v.0]).sum();
            match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// Incremental builder for [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    sense: Sense,
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    integer: Vec<bool>,
}

impl ProblemBuilder {
    /// Starts an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> ProblemBuilder {
        ProblemBuilder {
            sense,
            objective: Vec::new(),
            constraints: Vec::new(),
            integer: Vec::new(),
        }
    }

    /// Adds a variable (objective coefficient 0) and returns its id.
    pub fn add_var(&mut self, integer: bool) -> VarId {
        self.objective.push(0.0);
        self.integer.push(integer);
        VarId(self.objective.len() - 1)
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not created by this builder.
    pub fn objective(&mut self, var: VarId, coeff: f64) -> &mut Self {
        self.objective[var.0] = coeff;
        self
    }

    /// Adds a constraint row.
    pub fn constraint(
        &mut self,
        terms: Vec<(VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> &mut Self {
        self.constraints.push(Constraint { terms, relation, rhs });
        self
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Finalizes the problem.
    pub fn build(self) -> Problem {
        Problem {
            sense: self.sense,
            objective: self.objective,
            constraints: self.constraints,
            integer: self.integer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        let y = b.add_var(false);
        b.objective(x, 1.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        b.constraint(vec![(x, 1.0)], Relation::Ge, 1.0);
        b.build()
    }

    #[test]
    fn builder_counts() {
        let p = tiny();
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 2);
        assert!(p.integer[0]);
        assert!(!p.integer[1]);
    }

    #[test]
    fn feasibility_checks_all_relations() {
        let p = tiny();
        assert!(p.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!p.is_feasible(&[0.0, 2.0], 1e-9)); // violates x >= 1
        assert!(!p.is_feasible(&[2.0, 2.0], 1e-9)); // violates x+y <= 3
        assert!(!p.is_feasible(&[1.0, -0.5], 1e-9)); // negativity
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value() {
        let p = tiny();
        assert_eq!(p.objective_value(&[1.0, 2.0]), 5.0);
    }

    #[test]
    fn dense_sums_repeated_terms() {
        let c = Constraint {
            terms: vec![(VarId(0), 1.0), (VarId(0), 2.0), (VarId(2), -1.0)],
            relation: Relation::Eq,
            rhs: 0.0,
        };
        assert_eq!(c.dense(3), vec![3.0, 0.0, -1.0]);
    }

    #[test]
    fn merged_terms_are_the_dense_nonzeros_bit_for_bit() {
        // Repeats in scattered order, a cancelling pair, a lone -0.0, and a
        // sum whose value depends on the order of its additions.
        let c = Constraint {
            terms: vec![
                (VarId(3), 0.1),
                (VarId(1), 2.0),
                (VarId(3), 0.2),
                (VarId(0), -0.0),
                (VarId(1), -2.0),
                (VarId(3), 0.3),
                (VarId(4), 1e16),
                (VarId(4), 1.0),
                (VarId(4), -1e16),
            ],
            relation: Relation::Le,
            rhs: 1.0,
        };
        let dense = c.dense(5);
        let want: Vec<(usize, u64)> = dense
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(j, &v)| (j, v.to_bits()))
            .collect();
        let got: Vec<(usize, u64)> =
            c.merged_terms().into_iter().map(|(j, v)| (j, v.to_bits())).collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 1, "only x3 survives; x4's 1.0 is absorbed: {got:?}");
    }

    #[test]
    fn ascending_terms_skip_the_sort_and_keep_the_dense_bits() {
        // Strictly ascending, with a lone -0.0 and a zero to drop.
        let c = Constraint {
            terms: vec![(VarId(0), 0.5), (VarId(1), -0.0), (VarId(2), 0.0), (VarId(4), -3.0)],
            relation: Relation::Eq,
            rhs: 0.0,
        };
        let dense = c.dense(5);
        let mut out = vec![(9, 9.0)];
        merge_terms(&c.terms, &mut out);
        let got: Vec<(usize, u64)> = out.iter().map(|&(j, v)| (j, v.to_bits())).collect();
        assert_eq!(got, vec![(0, dense[0].to_bits()), (4, dense[4].to_bits())]);
    }

    #[test]
    fn non_finite_data_is_detected() {
        let p = tiny();
        assert!(!p.has_non_finite());
        let mut bad_obj = p.clone();
        bad_obj.objective[0] = f64::NAN;
        assert!(bad_obj.has_non_finite());
        let mut bad_coeff = p.clone();
        bad_coeff.constraints[0].terms[0].1 = f64::INFINITY;
        assert!(bad_coeff.has_non_finite());
        let mut bad_rhs = p;
        bad_rhs.constraints[1].rhs = f64::NEG_INFINITY;
        assert!(bad_rhs.has_non_finite());
    }
}
