//! Linear constraints over symbolic [`VarRef`]s, plus the null-set test
//! used to prune constraint sets before they reach the ILP solver.

use crate::vars::VarRef;
use ipet_lp::Relation;
use std::collections::HashMap;
use std::fmt;

/// One linear constraint `Σ coeff·var <relation> rhs` over symbolic
/// variables.
#[derive(Debug, Clone, PartialEq)]
pub struct LinCon {
    /// Sparse terms; coefficients for repeated variables are summed.
    pub terms: Vec<(VarRef, f64)>,
    /// Relation of the row.
    pub relation: Relation,
    /// Right-hand-side constant.
    pub rhs: f64,
}

impl LinCon {
    /// `Σ terms = rhs`
    pub fn eq(terms: Vec<(VarRef, f64)>, rhs: f64) -> LinCon {
        LinCon { terms, relation: Relation::Eq, rhs }
    }

    /// `Σ terms <= rhs`
    pub fn le(terms: Vec<(VarRef, f64)>, rhs: f64) -> LinCon {
        LinCon { terms, relation: Relation::Le, rhs }
    }

    /// `Σ terms >= rhs`
    pub fn ge(terms: Vec<(VarRef, f64)>, rhs: f64) -> LinCon {
        LinCon { terms, relation: Relation::Ge, rhs }
    }

    /// Sums repeated variables, returning `(var, coeff)` pairs with
    /// non-zero coefficients.
    pub fn normalized_terms(&self) -> Vec<(VarRef, f64)> {
        let mut acc: HashMap<VarRef, f64> = HashMap::new();
        for &(v, c) in &self.terms {
            *acc.entry(v).or_insert(0.0) += c;
        }
        let mut out: Vec<(VarRef, f64)> = acc.into_iter().filter(|&(_, c)| c != 0.0).collect();
        out.sort_by_key(|&(v, _)| v);
        out
    }
}

impl fmt::Display for LinCon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in self.normalized_terms() {
            if first {
                if c == 1.0 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c < 0.0 {
                if c == -1.0 {
                    write!(f, " - {v}")?;
                } else {
                    write!(f, " - {}*{v}", -c)?;
                }
            } else if c == 1.0 {
                write!(f, " + {v}")?;
            } else {
                write!(f, " + {c}*{v}")?;
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
pub fn set_is_null<'a>(set: impl IntoIterator<Item = &'a LinCon>) -> bool {
    let mut lo: HashMap<VarRef, f64> = HashMap::new();
    let mut hi: HashMap<VarRef, f64> = HashMap::new();
    for con in set {
        let terms = con.normalized_terms();
        if terms.len() != 1 {
            continue;
        }
        let (v, a) = terms[0];
        // a*x REL rhs  ->  x REL' rhs/a (flip when a < 0)
        let bound = con.rhs / a;
        let rel = if a < 0.0 {
            match con.relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            }
        } else {
            con.relation
        };
        match rel {
            Relation::Le => {
                let h = hi.entry(v).or_insert(f64::INFINITY);
                *h = h.min(bound);
            }
            Relation::Ge => {
                let l = lo.entry(v).or_insert(0.0);
                *l = l.max(bound);
            }
            Relation::Eq => {
                let h = hi.entry(v).or_insert(f64::INFINITY);
                *h = h.min(bound);
                let l = lo.entry(v).or_insert(0.0);
                *l = l.max(bound);
            }
        }
    }
    for (v, &h) in &hi {
        let l = lo.get(v).copied().unwrap_or(0.0);
        if l > h + 1e-9 {
            return true;
        }
        // Non-negativity: an upper bound below zero is already null.
        if h < -1e-9 {
            return true;
        }
    }
    false
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
        let c = LinCon::eq(vec![(x(0), 1.0), (x(0), 2.0), (x(1), -1.0), (x(1), 1.0)], 0.0);
        assert_eq!(c.normalized_terms(), vec![(x(0), 3.0)]);
    }

    #[test]
    fn display_renders_signs() {
        let c = LinCon::le(vec![(x(0), 1.0), (x(1), -2.0)], 3.0);
        let s = c.to_string();
        assert!(s.contains("x1@i0"), "{s}");
        assert!(s.contains("- 2*x2@i0"), "{s}");
        assert!(s.ends_with("<= 3"), "{s}");
        let empty = LinCon::eq(vec![], 1.0);
        assert_eq!(empty.to_string(), "0 = 1");
    }

    #[test]
    fn papers_null_example() {
        // x >= 1  &  x = 0  is null.
        let set = vec![LinCon::ge(vec![(x(0), 1.0)], 1.0), LinCon::eq(vec![(x(0), 1.0)], 0.0)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn conflicting_equalities_are_null() {
        let set = vec![LinCon::eq(vec![(x(0), 1.0)], 1.0), LinCon::eq(vec![(x(0), 1.0)], 2.0)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn negative_upper_bound_is_null() {
        // x <= -1 with x >= 0 implicit.
        let set = vec![LinCon::le(vec![(x(0), 1.0)], -1.0)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn negative_coefficient_flips_relation() {
        // -x <= -2  ->  x >= 2; with x = 1 -> null.
        let set = vec![LinCon::le(vec![(x(0), -1.0)], -2.0), LinCon::eq(vec![(x(0), 1.0)], 1.0)];
        assert!(set_is_null(&set));
    }

    #[test]
    fn consistent_set_is_not_null() {
        let set = vec![
            LinCon::ge(vec![(x(0), 1.0)], 1.0),
            LinCon::le(vec![(x(0), 1.0)], 10.0),
            LinCon::eq(vec![(x(1), 1.0)], 4.0),
        ];
        assert!(!set_is_null(&set));
    }

    #[test]
    fn multi_variable_rows_do_not_prune() {
        // x0 + x1 <= -5 is infeasible with non-negativity but involves two
        // variables, so the trivial test keeps it (the ILP will reject it).
        let set = vec![LinCon::le(vec![(x(0), 1.0), (x(1), 1.0)], -5.0)];
        assert!(!set_is_null(&set));
    }
}
