//! A tied warm start hits, and a warm start that misses counts why. Kept in
//! its own integration binary (single test) because the trace recorder is
//! process-global: counters from concurrently running tests would bleed
//! into the assertions.

use ipet_lp::{
    solve_delta_warm, solve_ilp_budgeted, BaseProblem, BudgetMeter, Constraint, DeltaSet,
    IlpResolution, Problem, ProblemBuilder, Relation, Sense, SolveBudget, SolverFaults, VarId,
};

fn certify(problem: &Problem, x: &[f64], claimed: i64) -> bool {
    problem.is_feasible(x, 1e-6) && (problem.objective_value(x) - claimed as f64).abs() < 1e-6
}

#[test]
fn a_tied_delta_hits_and_a_fractional_one_counts_its_miss() {
    // max x + y st x <= 4, y <= 6: the base optimum (4, 6) is unique.
    let mut b = ProblemBuilder::new(Sense::Maximize);
    let x = b.add_var("x", true);
    let y = b.add_var("y", true);
    b.objective(x, 1.0);
    b.objective(y, 1.0);
    b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
    b.constraint(vec![(y, 1.0)], Relation::Le, 6.0);
    let base = BaseProblem::new(b.build());
    let delta = |coeff: f64, rhs: f64| {
        DeltaSet::new(vec![Constraint {
            terms: vec![(VarId(0), coeff), (VarId(1), coeff)],
            relation: Relation::Le,
            rhs,
        }])
    };
    // x + y <= 5 is parallel to the objective, so the whole edge from
    // (0, 5) to (4, 1) is optimal; its canonical point is (0, 5).
    // 2x + 2y <= 5 ties too, but its canonical point (0, 2.5) is
    // fractional.
    let tied = delta(1.0, 5.0);
    let fractional = delta(2.0, 5.0);

    let cold = solve_ilp_budgeted(
        &base.compose(&tied),
        &SolveBudget::unlimited(),
        &BudgetMeter::new(),
        &mut SolverFaults::none(),
    );

    let recorder = ipet_trace::install();
    recorder.reset();
    let meter = BudgetMeter::new();
    let solution = base.solve_base(&meter).expect("base solves");
    let warm = |d: &DeltaSet| {
        solve_delta_warm(
            &base,
            Some(&solution),
            d,
            &base.compose(d),
            &SolveBudget::unlimited(),
            &meter,
            &mut SolverFaults::none(),
            &certify,
        )
    };
    let hit = warm(&tied);
    let doc = ipet_trace::snapshot().expect("recorder installed");
    let counter = |name: &str| doc.counters.get(name).copied().unwrap_or(0);
    assert_eq!(hit.0, IlpResolution::Exact { x: vec![0.0, 5.0], value: 5.0 });
    assert_eq!(counter("lp.warm.hits"), 1);
    assert_eq!(counter("lp.warm.misses"), 0);
    assert_eq!(hit, cold, "the tied warm hit is the cold result");
    let (IlpResolution::Exact { x: warm_x, .. }, IlpResolution::Exact { x: cold_x, .. }) =
        (&hit.0, &cold.0)
    else {
        unreachable!("both exact")
    };
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(warm_x), bits(cold_x));

    let (res, _) = warm(&fractional);
    let doc = ipet_trace::snapshot().expect("recorder installed");
    let counter = |name: &str| doc.counters.get(name).copied().unwrap_or(0);
    assert!(matches!(res, IlpResolution::Exact { value: 2.0, .. }), "{res:?}");
    assert_eq!(counter("lp.warm.hits"), 1);
    assert_eq!(counter("lp.warm.misses"), 1);
    assert_eq!(counter("lp.warm.miss.fractional"), 1);
    // Every solver tick the meter saw is in `lp.ticks`, miss included.
    assert_eq!(counter("lp.ticks"), meter.ticks());
}
