//! Exact integer linear forms over named machine parameters.
//!
//! The paper evaluates one `(program, cache config, penalty)` point per
//! solve. [`ParamExpr`] generalizes the concrete `u64` cost pipeline into a
//! linear form `c0 + Σ k_j · p_j` over named parameters (the i-cache miss
//! penalty, the d-cache miss penalty, per-loop bound symbols), so a config
//! sweep can evaluate a closed-form bound formula instead of re-running the
//! ILP batch (Ballabriga et al.; DESIGN.md §16).
//!
//! All arithmetic is exact `i128`; evaluation is checked and refuses to
//! guess on overflow or on a parameter missing from the evaluation point.

use std::collections::BTreeMap;
use std::fmt;

/// Canonical parameter name of the i-cache line-fill penalty
/// ([`crate::Machine::miss_penalty`]).
pub const P_MISS: &str = "miss_penalty";

/// Canonical parameter name of the d-cache line-fill penalty
/// ([`crate::Machine::dmiss_penalty`]).
pub const P_DMISS: &str = "dmiss_penalty";

/// A point in parameter space: each named parameter's concrete value.
pub type ParamPoint = BTreeMap<String, i128>;

/// An exact integer linear form `constant + Σ coeff·param` over named
/// parameters. The zero polynomial is `ParamExpr::default()`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ParamExpr {
    constant: i128,
    /// Non-zero coefficients only, keyed by parameter name (canonical order).
    terms: BTreeMap<String, i128>,
}

impl ParamExpr {
    /// The constant form `c`.
    pub fn constant(c: i128) -> ParamExpr {
        ParamExpr { constant: c, terms: BTreeMap::new() }
    }

    /// The single-term form `coeff · name`.
    pub fn term(name: &str, coeff: i128) -> ParamExpr {
        let mut terms = BTreeMap::new();
        if coeff != 0 {
            terms.insert(name.to_string(), coeff);
        }
        ParamExpr { constant: 0, terms }
    }

    /// The coefficient of `name` (0 when absent).
    pub fn coeff(&self, name: &str) -> i128 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// True when the form has no parameter terms.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// `self + other`, exactly.
    pub fn add(&self, other: &ParamExpr) -> ParamExpr {
        let mut out = self.clone();
        out.constant += other.constant;
        for (name, &coeff) in &other.terms {
            let entry = out.terms.entry(name.clone()).or_insert(0);
            *entry += coeff;
            if *entry == 0 {
                out.terms.remove(name);
            }
        }
        out
    }

    /// `self + k`, exactly.
    pub fn add_const(&self, k: i128) -> ParamExpr {
        let mut out = self.clone();
        out.constant += k;
        out
    }

    /// Evaluates the form at `point`, exactly. Returns `None` when a
    /// parameter with a non-zero coefficient is missing from `point` or the
    /// exact arithmetic overflows `i128` — refuse, never guess.
    pub fn eval(&self, point: &ParamPoint) -> Option<i128> {
        let mut acc = self.constant;
        for (name, &coeff) in &self.terms {
            let value = *point.get(name)?;
            acc = acc.checked_add(coeff.checked_mul(value)?)?;
        }
        Some(acc)
    }

    /// Specializes the form to the single varying parameter `varying`:
    /// every other parameter is fixed at its value in `fixed`, yielding the
    /// one-variable line `(constant, slope)` with
    /// `value(p) = constant + slope·p`. Returns `None` when a fixed
    /// parameter is missing from `fixed` or the arithmetic overflows.
    pub fn specialize(&self, varying: &str, fixed: &ParamPoint) -> Option<(i128, i128)> {
        let mut constant = self.constant;
        let mut slope = 0i128;
        for (name, &coeff) in &self.terms {
            if name == varying {
                slope = slope.checked_add(coeff)?;
            } else {
                let value = *fixed.get(name)?;
                constant = constant.checked_add(coeff.checked_mul(value)?)?;
            }
        }
        Some((constant, slope))
    }
}

impl fmt::Display for ParamExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.constant)?;
        for (name, coeff) in &self.terms {
            if *coeff < 0 {
                write!(f, " - {}*{}", -coeff, name)?;
            } else {
                write!(f, " + {coeff}*{name}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(pairs: &[(&str, i128)]) -> ParamPoint {
        pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
    }

    #[test]
    fn constant_form_evaluates_anywhere() {
        let e = ParamExpr::constant(42);
        assert!(e.is_constant());
        assert_eq!(e.eval(&ParamPoint::new()), Some(42));
    }

    #[test]
    fn linear_form_evaluates_exactly() {
        let e = ParamExpr::constant(10).add(&ParamExpr::term(P_MISS, 3));
        assert_eq!(e.coeff(P_MISS), 3);
        assert_eq!(e.eval(&point(&[(P_MISS, 8)])), Some(34));
        assert_eq!(e.eval(&point(&[(P_MISS, 0)])), Some(10));
    }

    #[test]
    fn missing_parameter_refuses_to_evaluate() {
        let e = ParamExpr::term(P_MISS, 1);
        assert_eq!(e.eval(&ParamPoint::new()), None);
        // A zero-coefficient parameter is not required at the point.
        let c = ParamExpr::term(P_MISS, 0);
        assert!(c.is_constant());
        assert_eq!(c.eval(&ParamPoint::new()), Some(0));
    }

    #[test]
    fn add_cancels_to_zero_coefficients() {
        let e = ParamExpr::term(P_MISS, 3).add(&ParamExpr::term(P_MISS, -3));
        assert!(e.is_constant());
        assert_eq!(e, ParamExpr::default());
    }

    #[test]
    fn eval_overflow_is_refused() {
        let e = ParamExpr::term(P_MISS, i128::MAX);
        assert_eq!(e.eval(&point(&[(P_MISS, 2)])), None);
    }

    #[test]
    fn specialize_splits_constant_and_slope() {
        let e = ParamExpr::constant(7)
            .add(&ParamExpr::term(P_MISS, 4))
            .add(&ParamExpr::term(P_DMISS, 2));
        let (c, s) = e.specialize(P_MISS, &point(&[(P_DMISS, 10)])).unwrap();
        assert_eq!((c, s), (27, 4));
        // Missing fixed parameter refuses.
        assert_eq!(e.specialize(P_MISS, &ParamPoint::new()), None);
    }

    #[test]
    fn display_is_canonical() {
        let e = ParamExpr::constant(5)
            .add(&ParamExpr::term(P_MISS, 2))
            .add(&ParamExpr::term("bound.L1", -1));
        assert_eq!(e.to_string(), "5 - 1*bound.L1 + 2*miss_penalty");
    }
}
