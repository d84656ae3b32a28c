//! Cold LP solves: the entry points every cold consumer shares.
//!
//! [`solve_lp_metered`] builds the sparse standard form of the problem as
//! it stands ([`crate::sparse`]), plus a branch-and-bound node's bound
//! rows when it has them: its crash basis covers the zero-level
//! flow equations, so phase 1 pivots only on the rows the crash left to
//! their artificials. The two-phase revised simplex then
//! ends with the walk to the canonical optimum ([`crate::canonical`]).
//! Every LP solves here: branch-and-bound nodes and the relaxation covers
//! of skipped sets alike.
//!
//! Every priced pivot — phase 1, phase 2 and the canonical walk — is one
//! tick on the caller's meter (the unpriced drive-out of degenerate
//! artificials after phase 1 is not), and a per-call iteration cap (the
//! kernel's size cap, tightened by the ticks left before the deadline)
//! stops a solve that would run past its budget.

use crate::budget::{BudgetMeter, LpFault, SolveBudget, SolverFaults};
use crate::canonical::{canonicalize, LexEnd};
use crate::model::Problem;
use crate::sparse::{BoundRow, SparseEnd, SparseInstance};

/// Feasibility tolerance used throughout the solver.
pub const FEAS_TOL: f64 = 1e-7;

/// Integrality tolerance used by the branch-and-bound layer.
pub const INT_TOL: f64 = 1e-6;

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
    /// Pivoting met NaN/non-finite arithmetic; no conclusion about the
    /// model is implied.
    Numerical,
    /// The iteration or tick budget ran out before the solve concluded;
    /// no conclusion about the model is implied.
    LimitReached,
}

/// Solves the LP relaxation of `problem`.
///
/// Variables are non-negative; rows may be `<=`, `>=` or `=`. The returned
/// objective value is in the problem's own sense (a `Minimize` problem
/// reports the minimum).
///
/// When the optimum is tied, the vertex returned is the canonical one: the
/// lexicographic minimum of the variables, in `VarId` order, over the
/// optimal face. That point does not depend on the pivot path. The one
/// exception keeps branch and bound
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

/// Solves the LP relaxation under `budget`, charging its pivots to `meter`
/// and honouring injected `faults`.
///
/// Differences from the unmetered [`solve_lp`]:
/// * returns [`LpOutcome::LimitReached`] when the tick deadline or the
///   per-call iteration cap runs out mid-solve (never a bogus
///   `Infeasible`/`Unbounded`);
/// * returns [`LpOutcome::Numerical`] when pivoting breaks down
///   numerically.
pub fn solve_lp_metered(
    problem: &Problem,
    budget: &SolveBudget,
    meter: &BudgetMeter,
    faults: &mut SolverFaults,
) -> LpOutcome {
    solve_lp_bounded(problem, &[], budget, meter, faults)
}

/// [`solve_lp_metered`] of `problem` with the bound rows `bounds` appended
/// after its rows, in order: the LP of a branch-and-bound node, solved
/// without copying the problem.
pub(crate) fn solve_lp_bounded(
    problem: &Problem,
    bounds: &[BoundRow],
    budget: &SolveBudget,
    meter: &BudgetMeter,
    faults: &mut SolverFaults,
) -> LpOutcome {
    if let Some(fault) = faults.lp_fault() {
        return match fault {
            LpFault::Infeasible => LpOutcome::Infeasible,
            LpFault::Numerical => LpOutcome::Numerical,
        };
    }
    // Declined for a crash basis whose factorization overflows.
    let Some(mut inst) = SparseInstance::build(problem, bounds) else {
        return LpOutcome::Numerical;
    };

    // Per-call iteration cap: the solver's own generous size-derived stop,
    // tightened by the ticks left before the deadline.
    let mut max_iters = inst.default_iter_cap();
    if let Some(left) = meter.ticks_left(budget) {
        if left == 0 {
            return LpOutcome::LimitReached;
        }
        max_iters = max_iters.min(left);
    }
    let mut pivots = 0u64;
    let end = inst.solve_primal(max_iters, &mut pivots);
    meter.charge_ticks(pivots);
    match end {
        SparseEnd::Optimal => {}
        SparseEnd::Infeasible => return LpOutcome::Infeasible,
        SparseEnd::Unbounded => return LpOutcome::Unbounded,
        SparseEnd::IterLimit => return LpOutcome::LimitReached,
        SparseEnd::Numerical => return LpOutcome::Numerical,
    }

    // The tie-break is a refinement of an optimum already in hand: should
    // it run out of iterations or break down, the first vertex stands.
    let first = inst.extract_x();
    let cap = max_iters.saturating_sub(pivots);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense};

    fn build(sense: Sense, obj: &[i64], rows: &[(&[i64], Relation, i64)]) -> Problem {
        let mut b = ProblemBuilder::new(sense);
        let vars: Vec<_> = (0..obj.len()).map(|_| b.add_var(false)).collect();
        for (i, &c) in obj.iter().enumerate() {
            b.objective(vars[i], c);
        }
        for (coeffs, rel, rhs) in rows {
            let terms = coeffs
                .iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
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
            &[3, 5],
            &[(&[1, 0], Relation::Le, 4), (&[0, 2], Relation::Le, 12), (&[3, 2], Relation::Le, 18)],
        );
        let x = assert_opt(&p, 36.0);
        assert!((x[0] - 2.0).abs() < 1e-6 && (x[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimize_with_ge_rows() {
        // min 2x+3y st x+y>=4, x>=1 -> 8 at (4,0)? cost 2*4=8 vs (1,3): 2+9=11.
        let p = build(
            Sense::Minimize,
            &[2, 3],
            &[(&[1, 1], Relation::Ge, 4), (&[1, 0], Relation::Ge, 1)],
        );
        assert_opt(&p, 8.0);
    }

    #[test]
    fn equality_rows() {
        // max x+y st x+y = 5, x <= 2 -> 5.
        let p = build(
            Sense::Maximize,
            &[1, 1],
            &[(&[1, 1], Relation::Eq, 5), (&[1, 0], Relation::Le, 2)],
        );
        assert_opt(&p, 5.0);
    }

    #[test]
    fn infeasible_detected() {
        let p = build(Sense::Maximize, &[1], &[(&[1], Relation::Ge, 5), (&[1], Relation::Le, 2)]);
        assert_eq!(solve_lp(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let p = build(Sense::Maximize, &[1], &[(&[-1], Relation::Le, 1)]);
        assert_eq!(solve_lp(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn minimize_unbounded_below() {
        // min -x with x unconstrained above is unbounded.
        let p = build(Sense::Minimize, &[-1], &[]);
        assert_eq!(solve_lp(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // x - y <= -2  (i.e. y >= x + 2), max x+y with y <= 5 -> x=3,y=5.
        let p = build(
            Sense::Maximize,
            &[1, 1],
            &[(&[1, -1], Relation::Le, -2), (&[0, 1], Relation::Le, 5)],
        );
        assert_opt(&p, 8.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-ish degeneracy: several redundant rows through origin.
        let p = build(
            Sense::Maximize,
            &[1, 1],
            &[
                (&[1, 0], Relation::Le, 0),
                (&[1, 1], Relation::Le, 0),
                (&[1, 2], Relation::Le, 0),
                (&[0, 1], Relation::Le, 0),
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
        // for the anti-cycling guard. Objective and rows are scaled by 100
        // to integers (the optimum reads 5).
        let p = build(
            Sense::Maximize,
            &[75, -15000, 2, -600],
            &[
                (&[25, -6000, -4, 900], Relation::Le, 0),
                (&[50, -9000, -2, 300], Relation::Le, 0),
                (&[0, 0, 1, 0], Relation::Le, 1),
            ],
        );
        let x = assert_opt(&p, 5.0);
        assert!((x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 2 stated twice; max x -> 2.
        let p = build(
            Sense::Maximize,
            &[1, 0],
            &[(&[1, 1], Relation::Eq, 2), (&[1, 1], Relation::Eq, 2)],
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
    fn deadline_exhaustion_reports_limit() {
        let p = build(
            Sense::Maximize,
            &[3, 5],
            &[(&[1, 0], Relation::Le, 4), (&[0, 2], Relation::Le, 12), (&[3, 2], Relation::Le, 18)],
        );
        // Zero ticks left: the solve must refuse immediately, not guess.
        let budget = SolveBudget::with_deadline(0);
        let meter = BudgetMeter::new();
        let out = solve_lp_metered(&p, &budget, &meter, &mut SolverFaults::none());
        assert_eq!(out, LpOutcome::LimitReached);
        assert_eq!(meter.ticks(), 0);
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
            &[3, 5],
            &[(&[1, 0], Relation::Le, 4), (&[0, 2], Relation::Le, 12), (&[3, 2], Relation::Le, 18)],
        );
        // One tick left caps the call at one pivot, too few to finish.
        let budget = SolveBudget::with_deadline(1);
        let meter = BudgetMeter::new();
        let out = solve_lp_metered(&p, &budget, &meter, &mut SolverFaults::none());
        assert_eq!(out, LpOutcome::LimitReached);
        assert_eq!(meter.ticks(), 1);
    }

    #[test]
    fn injected_lp_faults_fire() {
        let p = build(Sense::Maximize, &[1], &[(&[1], Relation::Le, 3)]);
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
    fn bound_rows_solve_as_rows_appended_to_a_copy() {
        use crate::model::{Constraint, VarId};
        let p = build(
            Sense::Maximize,
            &[10, 6, 4],
            &[
                (&[5, 4, 3], Relation::Le, 7),
                (&[1, 0, 0], Relation::Le, 1),
                (&[0, 1, 0], Relation::Le, 1),
                (&[0, 0, 1], Relation::Le, 1),
            ],
        );
        let nodes: [&[BoundRow]; 4] = [
            &[],
            &[(1, Relation::Le, 0.0)],
            &[(1, Relation::Ge, 1.0)],
            &[(1, Relation::Ge, 1.0), (0, Relation::Le, 0.0), (2, Relation::Ge, 1.0)],
        ];
        let budget = SolveBudget::unlimited();
        for bounds in nodes {
            let mut copy = p.clone();
            copy.constraints.extend(bounds.iter().map(|&(v, relation, rhs)| Constraint {
                terms: vec![(VarId(v), 1)],
                relation,
                rhs: rhs as i64,
            }));
            let (m1, m2) = (BudgetMeter::new(), BudgetMeter::new());
            let faults = &mut SolverFaults::none();
            let got = solve_lp_bounded(&p, bounds, &budget, &m1, faults);
            let want = solve_lp_metered(&copy, &budget, &m2, faults);
            let bits = |o: &LpOutcome| match o {
                LpOutcome::Optimal { x, value } => {
                    Some((x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), value.to_bits()))
                }
                _ => None,
            };
            assert_eq!(got, want, "bounds {bounds:?}");
            assert_eq!(bits(&got), bits(&want), "bounds {bounds:?}");
            assert_eq!(m1.ticks(), m2.ticks(), "bounds {bounds:?}");
        }
    }

    #[test]
    fn flow_conservation_shape() {
        // The structural-constraint shape from the paper's Fig. 2:
        // x1 = d1, d1 = 1, x1 = d2 + d3, x2 = d2, x3 = d3, x4 = d2 + d3.
        // Encoded over [x1,x2,x3,x4,d2,d3]; maximize 2x1+5x2+3x3+x4.
        // Best: route through x2 -> 2+5+1 = 8.
        let p = build(
            Sense::Maximize,
            &[2, 5, 3, 1, 0, 0],
            &[
                (&[1, 0, 0, 0, 0, 0], Relation::Eq, 1),
                (&[1, 0, 0, 0, -1, -1], Relation::Eq, 0),
                (&[0, 1, 0, 0, -1, 0], Relation::Eq, 0),
                (&[0, 0, 1, 0, 0, -1], Relation::Eq, 0),
                (&[0, 0, 0, 1, -1, -1], Relation::Eq, 0),
            ],
        );
        let x = assert_opt(&p, 8.0);
        assert!((x[1] - 1.0).abs() < 1e-6);
        assert!(x[2].abs() < 1e-6);
    }
}
