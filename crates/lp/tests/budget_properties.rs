//! Property tests for the resource-budget layer: whatever the budget or
//! injected fault, a degraded answer must stay a *safe outer bound* of the
//! exact optimum, and the solver must never panic.

use ipet_lp::{
    solve_ilp, solve_ilp_budgeted, BudgetMeter, IlpOutcome, IlpResolution, Problem, ProblemBuilder,
    Relation, Sense, SolveBudget, SolverFaults,
};
use proptest::prelude::*;

/// A random small maximization ILP over `n` variables boxed to `0..=ub`,
/// with a handful of random `<=`/`>=`/`=` rows (same family the oracle
/// tests in `proptest_lp.rs` use, so the exact optimum is trustworthy).
fn arb_problem() -> impl Strategy<Value = Problem> {
    let n = 2usize..4;
    let rows = 0usize..4;
    (n, rows, 1u32..5).prop_flat_map(|(n, rows, ub)| {
        let obj = prop::collection::vec(-5i32..=5, n);
        let row = (
            prop::collection::vec(-3i32..=3, n),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -10i32..=10,
        );
        let rowvec = prop::collection::vec(row, rows);
        (obj, rowvec).prop_map(move |(obj, rowvec)| {
            let mut b = ProblemBuilder::new(Sense::Maximize);
            let vars: Vec<_> = (0..n).map(|_| b.add_var(true)).collect();
            for (i, &c) in obj.iter().enumerate() {
                b.objective(vars[i], i64::from(c));
            }
            for &v in &vars {
                b.constraint(vec![(v, 1)], Relation::Le, i64::from(ub));
            }
            for (coeffs, rel, rhs) in rowvec {
                let terms: Vec<_> = coeffs
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(i, &c)| (vars[i], i64::from(c)))
                    .collect();
                if !terms.is_empty() {
                    b.constraint(terms, rel, i64::from(rhs));
                }
            }
            b.build()
        })
    })
}

fn exact_optimum(p: &Problem) -> Option<f64> {
    match solve_ilp(p) {
        (IlpOutcome::Optimal { value, .. }, _) => Some(value),
        (IlpOutcome::Infeasible, _) => None,
        (other, _) => panic!("unlimited solve on a boxed problem: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Degradation never under-reports: under any node budget, a `Relaxed`
    /// answer's bound dominates the exact maximum, and an `Exact` answer
    /// matches it.
    #[test]
    fn degraded_wcet_bound_dominates_exact((p, max_nodes) in (arb_problem(), 1usize..8)) {
        let exact = exact_optimum(&p);
        let mut budget = SolveBudget::unlimited();
        budget.max_nodes = max_nodes;
        let (res, _) = solve_ilp_budgeted(
            &p,
            &budget,
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        );
        match (res, exact) {
            (IlpResolution::Exact { value, .. }, Some(opt)) => {
                prop_assert!((value - opt).abs() < 1e-6, "exact {value} vs oracle {opt}");
            }
            (IlpResolution::Relaxed { bound, .. }, Some(opt)) => {
                prop_assert!(bound >= opt - 1e-6, "relaxed {bound} below oracle {opt}");
            }
            // Over-covering an infeasible problem is conservative, hence
            // safe: the relaxation bound only ever errs upward.
            (IlpResolution::Relaxed { .. }, None) => {}
            // Truncation may hide a feasible point, but claiming
            // infeasibility when a solution exists would be unsound.
            (IlpResolution::Infeasible, opt) => prop_assert!(opt.is_none()),
            (IlpResolution::Exhausted, _) => {} // no claim made, trivially safe
            (res, exact) => prop_assert!(false, "unexpected {res:?} (oracle {exact:?})"),
        }
    }

    /// A `LimitReached` fault injected at *any* node index still yields a
    /// safe outcome: never an unsound bound, never a panic.
    #[test]
    fn injected_limit_fault_is_safe_at_any_index((p, at) in (arb_problem(), 0u64..6)) {
        let exact = exact_optimum(&p);
        let (res, _) = solve_ilp_budgeted(
            &p,
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::limit_at(at),
        );
        match (res, exact) {
            (IlpResolution::Exact { value, .. }, Some(opt)) => {
                prop_assert!((value - opt).abs() < 1e-6);
            }
            (IlpResolution::Relaxed { bound, .. }, Some(opt)) => {
                prop_assert!(bound >= opt - 1e-6, "relaxed {bound} below oracle {opt}");
            }
            (IlpResolution::Relaxed { .. }, None) => {}
            (IlpResolution::Infeasible, opt) => prop_assert!(opt.is_none()),
            (IlpResolution::Exhausted, _) => {}
            (res, exact) => prop_assert!(false, "unexpected {res:?} (oracle {exact:?})"),
        }
    }

    /// Injected LP faults (infeasibility / numerical breakdown) at any call
    /// index leave the solver panic-free and the verdict typed.
    #[test]
    fn injected_lp_faults_never_panic((p, at, numerical) in (arb_problem(), 0u64..6, any::<bool>())) {
        let mut faults = if numerical {
            SolverFaults::numerical_at(at)
        } else {
            SolverFaults::infeasible_at(at)
        };
        let (res, _) = solve_ilp_budgeted(
            &p,
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut faults,
        );
        // Any verdict is acceptable — the property is that we got one.
        let _ = res;
    }

    /// The tick deadline is an actual ceiling: the meter never runs more
    /// than one LP call past it.
    #[test]
    fn tick_deadline_caps_total_work((p, ticks) in (arb_problem(), 0u64..64)) {
        let mut budget = SolveBudget::unlimited();
        budget.deadline_ticks = Some(ticks);
        let meter = BudgetMeter::new();
        let _ = solve_ilp_budgeted(&p, &budget, &meter, &mut SolverFaults::none());
        // One in-flight LP may overshoot by its own iteration allowance,
        // which is itself capped by the ticks that were left.
        prop_assert!(meter.ticks() <= 2 * ticks.max(1), "{} ticks vs deadline {}", meter.ticks(), ticks);
    }
}
