//! Linear constraints over symbolic [`VarRef`]s, plus the null-set test
//! used to prune constraint sets before they reach the ILP solver.

use crate::error::AnalysisError;
use crate::vars::VarRef;
use ipet_lp::Relation;
use std::collections::HashMap;
use std::fmt;

/// One linear constraint `Σ coeff·var <relation> rhs` over symbolic
/// variables, with integer coefficients and right-hand side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinCon {
    /// Sparse terms; coefficients for repeated variables are summed.
    pub terms: Vec<(VarRef, i64)>,
    /// Relation of the row.
    pub relation: Relation,
    /// Right-hand-side constant.
    pub rhs: i64,
}

impl LinCon {
    /// `Σ terms = rhs`
    pub fn eq(terms: Vec<(VarRef, i64)>, rhs: i64) -> LinCon {
        LinCon { terms, relation: Relation::Eq, rhs }
    }

    /// `Σ terms <= rhs`
    pub fn le(terms: Vec<(VarRef, i64)>, rhs: i64) -> LinCon {
        LinCon { terms, relation: Relation::Le, rhs }
    }

    /// `Σ terms >= rhs`
    pub fn ge(terms: Vec<(VarRef, i64)>, rhs: i64) -> LinCon {
        LinCon { terms, relation: Relation::Ge, rhs }
    }

    /// Sums repeated variables, returning `(var, coeff)` pairs with
    /// non-zero coefficients, sorted by variable.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Overflow`] when a variable's summed coefficient
    /// does not fit in `i64`.
    pub fn normalized_terms(&self) -> Result<Vec<(VarRef, i64)>, AnalysisError> {
        self.merged()
            .into_iter()
            .map(|(v, c)| {
                let c = i64::try_from(c).map_err(|_| {
                    AnalysisError::Overflow(format!("the summed coefficient of {v}"))
                })?;
                Ok((v, c))
            })
            .collect()
    }

    /// The exact sums of [`LinCon::normalized_terms`], which `i128` always
    /// holds.
    fn merged(&self) -> Vec<(VarRef, i128)> {
        let mut acc: HashMap<VarRef, i128> = HashMap::new();
        for &(v, c) in &self.terms {
            *acc.entry(v).or_insert(0) += i128::from(c);
        }
        let mut out: Vec<(VarRef, i128)> = acc.into_iter().filter(|&(_, c)| c != 0).collect();
        out.sort_by_key(|&(v, _)| v);
        out
    }
}

impl fmt::Display for LinCon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.merged() {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else {
                let sign = if c < 0 { '-' } else { '+' };
                match c.unsigned_abs() {
                    1 => write!(f, " {sign} {v}")?,
                    m => write!(f, " {sign} {m}*{v}")?,
                }
            }
        }
        if first {
            write!(f, "0")?;
        }
        let rel = match self.relation {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        };
        write!(f, " {rel} {}", self.rhs)
    }
}

/// Interval-based null test on a conjunctive constraint set.
///
/// Mirrors the paper's pruning ("some of the constraint sets will become a
/// null set, e.g. `x_i >= 1` intersected with `x_i = 0`"): single-variable
/// rows tighten a `[lo, hi]` interval per variable (all IPET variables are
/// non-negative, so `lo` starts at 0); an empty interval proves the set
/// null. Multi-variable rows are ignored, so this is a sound but incomplete
/// test — exactly what the paper describes ("these trivial null sets, if
/// detected, will be pruned").
///
/// The bounds are exact fractions `rhs / a`, compared by
/// cross-multiplication in `i128`.
pub fn set_is_null<'a>(set: impl IntoIterator<Item = &'a LinCon>) -> bool {
    // `(num, den)` with `den > 0`; `|num|, den <= 2^63`, so a product of
    // two parts fits in `i128`.
    type Bound = (i128, i128);
    let below = |x: Bound, y: Bound| x.0 * y.1 < y.0 * x.1;
    let mut lo: HashMap<VarRef, Bound> = HashMap::new();
    let mut hi: HashMap<VarRef, Bound> = HashMap::new();
    for con in set {
        let terms = con.merged();
        // A summed coefficient past `i64` bounds nothing here, which only
        // makes the test less complete.
        let [(v, a)] = terms[..] else {
            continue;
        };
        if i64::try_from(a).is_err() {
            continue;
        }
        // a*x REL rhs  ->  x REL' rhs/a (flip when a < 0)
        let rhs = i128::from(con.rhs);
        let (bound, rel) = if a < 0 {
            let rel = match con.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
            ((-rhs, -a), rel)
        } else {
            ((rhs, a), con.relation)
        };
        if rel != Relation::Ge {
            let h = hi.entry(v).or_insert(bound);
            if below(bound, *h) {
                *h = bound;
            }
        }
        if rel != Relation::Le {
            let l = lo.entry(v).or_insert((0, 1));
            if below(*l, bound) {
                *l = bound;
            }
        }
    }
    // Non-negativity: an upper bound below zero is already null.
    hi.iter().any(|(v, &h)| below(h, lo.get(v).copied().unwrap_or((0, 1))) || h.0 < 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_cfg::{BlockId, InstanceId};

    fn x(i: usize) -> VarRef {
        VarRef::Block(InstanceId(0), BlockId(i))
    }

    #[test]
    fn normalization_merges_terms() {
        let c = LinCon::eq(vec![(x(0), 1), (x(0), 2), (x(1), -1), (x(1), 1)], 0);
        assert_eq!(c.normalized_terms(), Ok(vec![(x(0), 3)]));
    }

    #[test]
    fn a_sum_past_i64_is_an_error_and_renders_exactly() {
        let c = LinCon::le(vec![(x(0), i64::MAX), (x(0), 1), (x(1), -1), (x(1), -1)], 0);
        assert!(matches!(c.normalized_terms(), Err(AnalysisError::Overflow(_))));
        assert_eq!(c.to_string(), "9223372036854775808*x1@i0 - 2*x2@i0 <= 0");
        let c = LinCon::le(vec![(x(0), i64::MIN), (x(1), i64::MIN)], 0);
        assert_eq!(c.to_string(), "-9223372036854775808*x1@i0 - 9223372036854775808*x2@i0 <= 0");
    }

    #[test]
    fn display_renders_signs() {
        let c = LinCon::le(vec![(x(0), 1), (x(1), -2)], 3);
        let s = c.to_string();
        assert!(s.contains("x1@i0"), "{s}");
        assert!(s.contains("- 2*x2@i0"), "{s}");
        assert!(s.ends_with("<= 3"), "{s}");
        let empty = LinCon::eq(vec![], 1);
        assert_eq!(empty.to_string(), "0 = 1");
    }

    #[test]
    fn papers_null_example() {
        // x >= 1  &  x = 0  is null.
        let set = vec![LinCon::ge(vec![(x(0), 1)], 1), LinCon::eq(vec![(x(0), 1)], 0)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn conflicting_equalities_are_null() {
        let set = vec![LinCon::eq(vec![(x(0), 1)], 1), LinCon::eq(vec![(x(0), 1)], 2)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn negative_upper_bound_is_null() {
        // x <= -1 with x >= 0 implicit.
        let set = vec![LinCon::le(vec![(x(0), 1)], -1)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn negative_coefficient_flips_relation() {
        // -x <= -2  ->  x >= 2; with x = 1 -> null.
        let set = vec![LinCon::le(vec![(x(0), -1)], -2), LinCon::eq(vec![(x(0), 1)], 1)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn consistent_set_is_not_null() {
        let set = vec![
            LinCon::ge(vec![(x(0), 1)], 1),
            LinCon::le(vec![(x(0), 1)], 10),
            LinCon::eq(vec![(x(1), 1)], 4),
        ];
        assert!(!set_is_null(&set));
    }

    #[test]
    fn bounds_compare_exactly_at_any_magnitude() {
        // 9x >= 9k and x <= k meet at x = k. In `f64`, 9k / 9 rounds one
        // step above k, so a tolerance test called the set null.
        let k = 579_832_826_712_306_748;
        let set = vec![LinCon::ge(vec![(x(0), 9)], 9 * k), LinCon::le(vec![(x(0), 1)], k)];
        assert!(!set_is_null(&set));
        let set = vec![LinCon::ge(vec![(x(0), 9)], 9 * k + 1), LinCon::le(vec![(x(0), 1)], k)];
        assert!(set_is_null(&set));
        // Fractional bounds: 2x <= 3 and 3x >= 5 leave [5/3, 3/2], empty.
        let set = vec![LinCon::le(vec![(x(0), 2)], 3), LinCon::ge(vec![(x(0), 3)], 5)];
        assert!(set_is_null(&set));
        let set = vec![LinCon::le(vec![(x(0), 2)], 3), LinCon::ge(vec![(x(0), 3)], 4)];
        assert!(!set_is_null(&set));
        // Extreme coefficients neither overflow nor panic.
        let set = vec![
            LinCon::le(vec![(x(0), i64::MIN)], i64::MIN),
            LinCon::le(vec![(x(0), i64::MAX)], i64::MIN),
        ];
        assert!(set_is_null(&set));
    }

    #[test]
    fn multi_variable_rows_do_not_prune() {
        // x0 + x1 <= -5 is infeasible with non-negativity but involves two
        // variables, so the trivial test keeps it (the ILP will reject it).
        let set = vec![LinCon::le(vec![(x(0), 1), (x(1), 1)], -5)];
        assert!(!set_is_null(&set));
    }
}
