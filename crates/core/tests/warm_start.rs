//! Warm-started pooled solving must be observationally identical to cold
//! solving: same estimates, same per-set reports, same certificates, at
//! any worker count. Warm starting is a pure optimization — these tests
//! pin down that it never shows through.

use ipet_core::{
    parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, BoundQuality, SolvePool,
};
use ipet_hw::Machine;

/// Multi-set programs (disjunctive annotations) exercise the delta path;
/// piksrt (single set) exercises the empty-delta / bare-base path.
const BENCHES: &[&str] = &["piksrt", "check_data", "dhry"];

fn plans_for(names: &[&str], budget: &AnalysisBudget, warm: bool) -> Vec<AnalysisPlan> {
    names
        .iter()
        .map(|name| {
            let bench = ipet_suite::by_name(name).expect("bundled benchmark");
            let program = bench.program().expect("compiles");
            let analyzer =
                Analyzer::new(&program, Machine::i960kb()).expect("analyzer").with_warm_start(warm);
            let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
            analyzer.plan(&anns, budget).expect("plan")
        })
        .collect()
}

#[test]
fn warm_pooled_equals_cold_pooled_at_any_worker_count() {
    let budget = AnalysisBudget::default();
    let warm_plans = plans_for(BENCHES, &budget, true);
    let cold_plans = plans_for(BENCHES, &budget, false);
    assert!(warm_plans.iter().all(|p| p.warm_start()));
    assert!(cold_plans.iter().all(|p| !p.warm_start()));

    let cold = SolvePool::new(1).run_plans(&cold_plans, &budget.solve);
    for workers in [1usize, 8] {
        let warm = SolvePool::new(workers).run_plans(&warm_plans, &budget.solve);
        for ((w, c), name) in warm.estimates.iter().zip(&cold.estimates).zip(BENCHES) {
            let (w, c) = (w.as_ref().expect("warm ok"), c.as_ref().expect("cold ok"));
            assert_eq!(w, c, "{name}: warm estimate differs from cold at --jobs {workers}");
            assert_eq!(w.quality, BoundQuality::Exact, "{name}");
        }
    }
}

#[test]
fn warm_batch_equals_analyze_per_plan() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget, true);
    let batch = SolvePool::new(4).run_plans(&plans, &budget.solve);
    for (name, pooled) in BENCHES.iter().zip(&batch.estimates) {
        let bench = ipet_suite::by_name(name).unwrap();
        let program = bench.program().unwrap();
        let analyzer = Analyzer::new(&program, Machine::i960kb()).unwrap();
        let alone = analyzer.analyze(&bench.annotations(&program)).expect("analyze");
        assert_eq!(pooled.as_ref().expect("pooled"), &alone, "{name}");
    }
}

#[test]
fn warm_audited_runs_certify_everything() {
    let budget = AnalysisBudget::default();
    let warm_plans = plans_for(BENCHES, &budget, true);
    let cold_plans = plans_for(BENCHES, &budget, false);
    let warm = SolvePool::new(4).run_plans_audited(&warm_plans, &budget.solve);
    let cold = SolvePool::new(4).run_plans_audited(&cold_plans, &budget.solve);
    for ((w, c), name) in warm.results.iter().zip(&cold.results).zip(BENCHES) {
        let (we, wr) = w.as_ref().expect("warm ok");
        let (ce, cr) = c.as_ref().expect("cold ok");
        assert!(wr.all_certified(), "{name}: warm run has uncertified sets");
        assert_eq!(we, ce, "{name}: audited warm estimate differs from cold");
        assert_eq!(wr.certified(), cr.certified(), "{name}");
        assert_eq!(wr.rejected(), cr.rejected(), "{name}");
    }
}

#[test]
fn warm_respects_tick_deadlines_identically() {
    // A deadline disqualifies warm starting (shards must gate degradation,
    // and the base solve would be unbudgeted work); a warm-enabled plan
    // under a deadline must behave exactly like a cold one.
    let mut budget = AnalysisBudget::default();
    budget.solve.deadline_ticks = Some(40);
    let warm_plans = plans_for(BENCHES, &budget, true);
    let cold_plans = plans_for(BENCHES, &budget, false);
    let warm = SolvePool::new(3).run_plans(&warm_plans, &budget.solve);
    let cold = SolvePool::new(3).run_plans(&cold_plans, &budget.solve);
    for ((w, c), name) in warm.estimates.iter().zip(&cold.estimates).zip(BENCHES) {
        match (w, c) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{name}"),
            (Err(x), Err(y)) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "{name}"),
            _ => panic!("{name}: Ok/Err disagreement between warm and cold under deadline"),
        }
    }
    assert_eq!(warm.report.total_ticks, cold.report.total_ticks, "deadline runs must not diverge");
}
