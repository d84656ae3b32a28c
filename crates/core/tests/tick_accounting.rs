//! A batch's tick total accounts for all of its solver work: over one
//! `run_plans` on the suite, the recorder's `lp.ticks` grows by exactly
//! `BatchReport.total_ticks`, which is the sum of the worker tallies. Kept in its own
//! integration binary (single test) because the trace recorder is
//! process-global: counters from concurrently running tests would bleed
//! into the assertion.

use ipet_core::{parse_annotations, AnalysisBudget, Analyzer, SolvePool};
use ipet_hw::Machine;

#[test]
fn lp_ticks_growth_equals_batch_total_ticks() {
    let budget = AnalysisBudget::default();
    let plans: Vec<_> = ipet_suite::all()
        .iter()
        .map(|bench| {
            let program = bench.program().expect("compiles");
            let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
            let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
            analyzer.plan(&anns, &budget).expect("plan")
        })
        .collect();
    let recorder = ipet_trace::install();
    recorder.reset();
    let batch = SolvePool::new(4).run_plans(&plans, &budget.solve);
    let doc = ipet_trace::snapshot().expect("recorder installed");
    let lp_ticks = doc.counters.get("lp.ticks").copied().unwrap_or(0);
    assert!(lp_ticks > 0, "the suite's solves spend pivot ticks");
    assert_eq!(lp_ticks, batch.report.total_ticks);
    assert_eq!(batch.report.worker_ticks.iter().sum::<u64>(), batch.report.total_ticks);
}
