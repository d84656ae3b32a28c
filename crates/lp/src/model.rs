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

/// One linear constraint `Σ coeff·var <relation> rhs` over integers.
///
/// Coefficients for the same variable may repeat; they are summed when the
/// problem is solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Sparse left-hand side terms.
    pub terms: Vec<(VarId, i64)>,
    /// Row relation.
    pub relation: Relation,
    /// Right-hand side constant.
    pub rhs: i64,
}

impl Constraint {
    /// The row's nonzero coefficients as `(variable, coefficient)` pairs
    /// sorted by variable (see [`merge_terms`]).
    pub(crate) fn merged_terms(&self) -> Vec<(usize, i128)> {
        let mut merged = Vec::with_capacity(self.terms.len());
        merge_terms(&self.terms, &mut merged);
        merged
    }
}

/// Writes the nonzeros of the row `terms` sum to into `out` (cleared first)
/// as `(variable, coefficient)` pairs sorted by variable, in
/// O(terms log terms) and without allocating once `out` has room. Repeats
/// sum exactly in `i128`, which no row of fewer than 2^64 terms overflows.
/// Terms already strictly ascending by variable, as most rows are, skip the
/// sort.
pub(crate) fn merge_terms(terms: &[(VarId, i64)], out: &mut Vec<(usize, i128)>) {
    out.clear();
    out.extend(terms.iter().map(|&(v, c)| (v.0, i128::from(c))));
    if !terms.windows(2).all(|t| t[0].0 < t[1].0) {
        out.sort_unstable_by_key(|&(v, _)| v);
    }
    // Sum each run of one variable in place.
    let (mut kept, mut i) = (0, 0);
    while i < out.len() {
        let v = out[i].0;
        let mut sum = 0;
        while i < out.len() && out[i].0 == v {
            sum += out[i].1;
            i += 1;
        }
        if sum != 0 {
            out[kept] = (v, sum);
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// A complete ILP over integers: all variables are implicitly `>= 0`.
///
/// Numbers only: a variable is its index ([`VarId`]), and nothing here
/// names it. The solver, the content key ([`crate::fingerprint`]) and the
/// store read the sense, objective, rows and integrality flags, so a
/// caller that reports variables keeps its own labels. Every coefficient
/// and right-hand side is an `i64`; the simplex kernel converts them to
/// `f64` as it loads its columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Problem {
    /// Optimization direction.
    pub sense: Sense,
    /// Dense objective coefficients (one per variable).
    pub objective: Vec<i64>,
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
        self.objective.iter().zip(x).map(|(&c, v)| c as f64 * v).sum()
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
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef as f64 * x[v.0]).sum();
            let rhs = c.rhs as f64;
            match c.relation {
                Relation::Le => lhs <= rhs + tol,
                Relation::Ge => lhs >= rhs - tol,
                Relation::Eq => (lhs - rhs).abs() <= tol,
            }
        })
    }
}

/// Incremental builder for [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    sense: Sense,
    objective: Vec<i64>,
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
        self.objective.push(0);
        self.integer.push(integer);
        VarId(self.objective.len() - 1)
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not created by this builder.
    pub fn objective(&mut self, var: VarId, coeff: i64) -> &mut Self {
        self.objective[var.0] = coeff;
        self
    }

    /// Adds a constraint row.
    pub fn constraint(
        &mut self,
        terms: Vec<(VarId, i64)>,
        relation: Relation,
        rhs: i64,
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
        b.objective(x, 1);
        b.objective(y, 2);
        b.constraint(vec![(x, 1), (y, 1)], Relation::Le, 3);
        b.constraint(vec![(x, 1)], Relation::Ge, 1);
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
    fn merged_terms_sum_repeats_and_drop_zeros() {
        // Repeats in scattered order, a cancelling pair, a lone zero, and
        // repeats whose sum leaves `i64`.
        let c = Constraint {
            terms: vec![
                (VarId(3), 1),
                (VarId(1), 2),
                (VarId(3), 2),
                (VarId(0), 0),
                (VarId(1), -2),
                (VarId(3), 3),
                (VarId(4), i64::MAX),
                (VarId(4), i64::MAX),
            ],
            relation: Relation::Le,
            rhs: 10,
        };
        assert_eq!(c.merged_terms(), vec![(3, 6), (4, 2 * i128::from(i64::MAX))]);
    }

    #[test]
    fn ascending_terms_skip_the_sort() {
        // Strictly ascending, with two zeros to drop.
        let c = Constraint {
            terms: vec![(VarId(0), 2), (VarId(1), 0), (VarId(2), 0), (VarId(4), -3)],
            relation: Relation::Eq,
            rhs: 0,
        };
        let mut out = vec![(9, 9)];
        merge_terms(&c.terms, &mut out);
        assert_eq!(out, vec![(0, 2), (4, -3)]);
    }
}
