//! A warm start that misses counts why. Kept in its own integration binary
//! (single test) because the trace recorder is process-global: counters
//! from concurrently running tests would bleed into the assertions.

use ipet_lp::{
    solve_delta_warm, BaseProblem, BudgetMeter, Constraint, DeltaSet, IlpResolution, Problem,
    ProblemBuilder, Relation, Sense, SolveBudget, SolverFaults, VarId,
};

fn certify(problem: &Problem, x: &[f64], claimed: i64) -> bool {
    problem.is_feasible(x, 1e-6) && (problem.objective_value(x) - claimed as f64).abs() < 1e-6
}

#[test]
fn a_tied_delta_counts_tied() {
    // max x + y st x <= 4, y <= 6: the base optimum (4, 6) is unique. The
    // delta x + y <= 5 is parallel to the objective, so every point of the
    // edge from (0, 5) to (4, 1) is optimal.
    let mut b = ProblemBuilder::new(Sense::Maximize);
    let x = b.add_var("x", true);
    let y = b.add_var("y", true);
    b.objective(x, 1.0);
    b.objective(y, 1.0);
    b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
    b.constraint(vec![(y, 1.0)], Relation::Le, 6.0);
    let base = BaseProblem::new(b.build());
    let delta = DeltaSet::new(vec![Constraint {
        terms: vec![(VarId(0), 1.0), (VarId(1), 1.0)],
        relation: Relation::Le,
        rhs: 5.0,
    }]);

    let recorder = ipet_trace::install();
    recorder.reset();
    let meter = BudgetMeter::new();
    let solution = base.solve_base(&meter).expect("base solves");
    let (res, _) = solve_delta_warm(
        &base,
        Some(&solution),
        &delta,
        &SolveBudget::unlimited(),
        &meter,
        &mut SolverFaults::none(),
        &certify,
    );
    let doc = ipet_trace::snapshot().expect("recorder installed");
    let counter = |name: &str| doc.counters.get(name).copied().unwrap_or(0);
    assert!(matches!(res, IlpResolution::Exact { value: 5.0, .. }), "{res:?}");
    assert_eq!(counter("lp.warm.misses"), 1);
    assert_eq!(counter("lp.warm.miss.tied"), 1);
    assert_eq!(counter("lp.warm.hits"), 0);
    // Every solver tick the meter saw is in `lp.ticks`, miss included.
    assert_eq!(counter("lp.ticks"), meter.ticks());
}
