//! The production simplex kernel against the debug reference kernel on
//! every ILP the 13 suite routines produce: each job's cold `solve_lp`
//! point must be the reference tableau's canonical LP optimum (the same
//! rounded witness, values within 1e-6 relative). The sparse kernel's LU
//! factorizations are checked against the dense elimination on every warm
//! base snapshot and delta append.
//!
//! The reference kernels exist in debug builds only.
#![cfg(debug_assertions)]

use ipet_audit::{certify_witness, ClaimKind};
use ipet_core::{parse_annotations, AnalysisBudget, Analyzer};
use ipet_hw::Machine;
use ipet_lp::{
    debug_lu_checks, debug_reference_lp, round_witness, solve_delta_warm, solve_lp, BaseSolution,
    BudgetMeter, LpOutcome, Problem, SolveBudget, SolverFaults,
};

#[test]
fn suite_cold_lps_reach_the_reference_kernels_canonical_optimum() {
    let budget = AnalysisBudget::default();
    let mut compared = 0;
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
        let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        for job in plan.jobs() {
            let optimum = |outcome: LpOutcome, kernel: &str| match outcome {
                LpOutcome::Optimal { x, value } => (x, value),
                other => panic!("{}: the {kernel} kernel ended {other:?}", bench.name),
            };
            let (x, value) = optimum(solve_lp(&job.problem), "sparse");
            let (want_x, want_value) = optimum(debug_reference_lp(&job.problem), "reference");
            let witness = round_witness(&x).expect("an integral sparse optimum");
            let want = round_witness(&want_x).expect("an integral reference optimum");
            assert_eq!(witness, want, "{}: the kernels' canonical points differ", bench.name);
            for (a, b) in x.iter().zip(&want_x) {
                assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "{}: {a} vs {b}", bench.name);
            }
            assert!(
                (value - want_value).abs() <= 1e-6 * want_value.abs().max(1.0),
                "{}: value {value} vs reference {want_value}",
                bench.name
            );
            compared += 1;
        }
    }
    // 36 when written: two bases plus one job per extra set per routine.
    assert!(compared >= 36, "only {compared} cold solves compared");
}

#[test]
fn suite_refactorizations_match_the_dense_elimination() {
    let budget = AnalysisBudget::default();
    let certify = |p: &Problem, x: &[f64], claimed: i64| {
        certify_witness(p, x, claimed, ClaimKind::Equal).is_ok()
    };
    let (mut checked, mut warm_checked) = (0, 0);
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
        let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        let before = debug_lu_checks();
        // Each base snapshot is built on the first job of its sense, as the
        // pool does; every job then appends its delta to that snapshot and
        // refactorizes.
        let mut snapshots: Vec<Option<Option<BaseSolution>>> = vec![None; plan.bases().len()];
        let meter = BudgetMeter::new();
        for job in plan.jobs() {
            let checks = debug_lu_checks();
            let base = &plan.bases()[job.base];
            let solution = snapshots[job.base].get_or_insert_with(|| base.solve_base(&meter));
            solve_delta_warm(
                base,
                solution.as_ref(),
                &job.delta,
                &job.problem,
                &SolveBudget::unlimited(),
                &meter,
                &mut SolverFaults::none(),
                &certify,
            );
            warm_checked += u64::from(debug_lu_checks() > checks);
        }
        // `refactorize` panics on any disagreement; count what it checked.
        checked += debug_lu_checks() - before;
    }
    // 67 and 36 when written: all 26 bases solve sparsely.
    assert!(checked >= 50, "only {checked} sparse factorizations checked");
    assert!(warm_checked >= 30, "only {warm_checked} solves factorized sparsely");
}
