//! The dense tableau's support-list kernels against the full-row reference
//! on every ILP the 13 suite routines produce: the same pivots in the same
//! order, the same end state, basis and tableau (up to the sign of a zero),
//! and `==` witnesses and values. Cold solves run each composed problem from
//! scratch; warm solves re-optimize each delta from its base.
//!
//! The reference kernels exist in debug builds only.
#![cfg(debug_assertions)]

use ipet_core::{parse_annotations, AnalysisBudget, Analyzer};
use ipet_hw::Machine;
use ipet_lp::debug_kernel_trace;

#[test]
fn suite_ilps_pivot_identically_under_both_kernels() {
    let budget = AnalysisBudget::default();
    let (mut cold, mut warm) = (0, 0);
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
        let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        for job in plan.jobs() {
            let listed = debug_kernel_trace(&job.problem, &[], false);
            assert!(!listed.pivots.is_empty(), "{}: a cold solve pivots", bench.name);
            assert_eq!(listed, debug_kernel_trace(&job.problem, &[], true), "{} cold", bench.name);
            cold += 1;
            if !job.delta.is_empty() {
                let base = plan.bases()[job.base].problem();
                let listed = debug_kernel_trace(base, &job.delta.rows, false);
                let reference = debug_kernel_trace(base, &job.delta.rows, true);
                assert_eq!(listed, reference, "{} warm", bench.name);
                warm += 1;
            }
        }
    }
    assert!(cold >= 13 && warm > 0, "{cold} cold and {warm} warm solves compared");
}
