//! The dense tableau's support-list kernels against the full-row reference
//! on every ILP the 13 suite routines produce: the same pivots in the same
//! order, the same end state, basis and tableau (up to the sign of a zero),
//! and `==` witnesses and values, over each cold solve of a composed problem
//! and its walk to the canonical optimum. The sparse kernel's LU
//! factorizations are checked against the dense elimination on every warm
//! base snapshot and delta append.
//!
//! The reference kernels exist in debug builds only.
#![cfg(debug_assertions)]

use ipet_audit::{certify_witness, ClaimKind};
use ipet_core::{parse_annotations, AnalysisBudget, Analyzer};
use ipet_hw::Machine;
use ipet_lp::{
    debug_kernel_trace, debug_lu_checks, BudgetMeter, IncrementalSolver, Problem, SolveBudget,
    SolverFaults,
};

#[test]
fn suite_ilps_pivot_identically_under_both_kernels() {
    let budget = AnalysisBudget::default();
    let mut cold = 0;
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
        let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        for job in plan.jobs() {
            let listed = debug_kernel_trace(&job.problem, false);
            assert!(!listed.pivots.is_empty(), "{}: a cold solve pivots", bench.name);
            assert_eq!(listed, debug_kernel_trace(&job.problem, true), "{} cold", bench.name);
            cold += 1;
        }
    }
    assert!(cold >= 13, "only {cold} cold solves compared");
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
        // Each base snapshot is built on the first job of its sense; every
        // later job appends its delta to that snapshot and refactorizes.
        let mut solvers: Vec<IncrementalSolver<'_>> =
            plan.bases().iter().map(IncrementalSolver::new).collect();
        let meter = BudgetMeter::new();
        for job in plan.jobs() {
            let snapshots = debug_lu_checks();
            let solver = &mut solvers[job.base];
            let unlimited = SolveBudget::unlimited();
            solver.solve(
                &job.delta,
                &job.problem,
                &unlimited,
                &meter,
                &mut SolverFaults::none(),
                &certify,
            );
            warm_checked += u64::from(debug_lu_checks() > snapshots);
        }
        // `refactorize` panics on any disagreement; count what it checked.
        checked += debug_lu_checks() - before;
    }
    // 67 and 36 when written: all 26 bases solve sparsely.
    assert!(checked >= 50, "only {checked} sparse factorizations checked");
    assert!(warm_checked >= 30, "only {warm_checked} solves factorized sparsely");
}
