//! Base+delta problem decomposition.
//!
//! IPET's DNF expansion produces many ILPs per routine that share every
//! structural row and differ only in a handful of functionality conjuncts.
//! This module factors that family into one immutable [`BaseProblem`] (the
//! rows common to every set, plus objective and bounds) and one small
//! [`DeltaSet`] per constraint set. The split serves keying: the base is
//! hashed once and each set's cache key continues that hash over its delta
//! rows ([`BaseProblem::key`]). Every set is solved cold on its composed
//! problem ([`BaseProblem::compose`]) by [`crate::solve_ilp_budgeted`].

use crate::fingerprint::{Fingerprint, ProblemHasher};
use crate::model::{Constraint, Problem};

/// The rows one DNF constraint set adds on top of a shared base problem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaSet {
    /// Extra constraint rows; variable ids index the base problem's
    /// variables.
    pub rows: Vec<Constraint>,
}

impl DeltaSet {
    /// A delta carrying the given rows.
    pub fn new(rows: Vec<Constraint>) -> DeltaSet {
        DeltaSet { rows }
    }

    /// True when the delta adds nothing (the composed problem *is* the
    /// base).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// An immutable shared base problem: objective, variable bounds and the
/// constraint rows common to every set of a routine, with the fingerprint
/// hash state after its rows kept for cache keying.
#[derive(Debug, Clone)]
pub struct BaseProblem {
    problem: Problem,
    hasher: ProblemHasher,
}

impl BaseProblem {
    /// Wraps a problem as a shared base, hashing it once.
    pub fn new(problem: Problem) -> BaseProblem {
        let mut hasher = ProblemHasher::new(&problem);
        hasher.rows(&problem.constraints);
        BaseProblem { problem, hasher }
    }

    /// The base problem itself (also the cover relaxation of every set that
    /// extends it: the base's feasible region contains each composed set's).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Content fingerprint of the base: [`crate::fingerprint`] of
    /// [`BaseProblem::problem`].
    pub fn fingerprint(&self) -> Fingerprint {
        self.hasher.finish()
    }

    /// The pool's cache key of `base + delta`: the base's hash continued
    /// over the delta rows, equal to `fingerprint(&self.compose(delta))`
    /// by construction, in O(delta terms).
    pub fn key(&self, delta: &DeltaSet) -> Fingerprint {
        let mut hasher = self.hasher.clone();
        hasher.rows(&delta.rows);
        hasher.finish()
    }

    /// Recomposes the full monolithic problem: the base rows followed by
    /// the delta rows, in order. Solves and audit certification always run
    /// against this composed problem.
    pub fn compose(&self, delta: &DeltaSet) -> Problem {
        let mut full = self.problem.clone();
        full.constraints.extend(delta.rows.iter().cloned());
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense, VarId};

    /// max 3x + 2y st x <= 4, y <= 6, x + y <= 8.
    fn toy_base() -> BaseProblem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(y, 1.0)], Relation::Le, 6.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 8.0);
        BaseProblem::new(b.build())
    }

    fn upper(v: usize, rhs: f64) -> DeltaSet {
        DeltaSet::new(vec![Constraint {
            terms: vec![(VarId(v), 1.0)],
            relation: Relation::Le,
            rhs,
        }])
    }

    #[test]
    fn delta_keys_are_the_composed_fingerprints() {
        let base = toy_base();
        let (a, b) = (upper(0, 2.0), upper(0, 3.0));
        for d in [&a, &b, &DeltaSet::default()] {
            assert_eq!(base.key(d), crate::fingerprint(&base.compose(d)));
        }
        assert_ne!(base.key(&a), base.key(&b));
        assert_eq!(base.key(&DeltaSet::default()), base.fingerprint());
    }
}
