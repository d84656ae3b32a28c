//! Exact counter accounting for the pool's warm-start machinery. Kept in
//! its own integration binary (single test) because the trace recorder is
//! process-global: counters from concurrently running tests would bleed
//! into the assertions.

use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, SolvePool};
use ipet_hw::Machine;

fn plan_for(name: &str, budget: &AnalysisBudget, warm: bool) -> AnalysisPlan {
    let bench = ipet_suite::by_name(name).expect("bundled benchmark");
    let program = bench.program().expect("compiles");
    let analyzer =
        Analyzer::new(&program, Machine::i960kb()).expect("analyzer").with_warm_start(warm);
    let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
    analyzer.plan(&anns, budget).expect("plan")
}

fn counter(doc: &ipet_trace::TraceDoc, name: &str) -> u64 {
    doc.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn base_solves_are_shared_and_warm_starts_spend_fewer_ticks_than_cold() {
    let recorder = ipet_trace::install();
    let budget = AnalysisBudget::default();
    // check_data carries disjunctive annotations: several delta sets per
    // base, so warm starts have something to amortize.
    let plans = vec![plan_for("check_data", &budget, true), plan_for("check_data", &budget, true)];
    assert!(plans[0].num_sets() > 1, "test premise: multi-set program");

    recorder.reset();
    let pool = SolvePool::new(4);
    let first = pool.run_plans(&plans, &budget.solve);
    let doc = ipet_trace::snapshot().expect("recorder installed");

    // Two plans, two bases each (worst + best), but the plans are
    // identical: the second plan's bases replay the first's snapshots.
    assert_eq!(counter(&doc, "lp.warm.base_solves"), 2, "one solve per distinct base");
    assert_eq!(counter(&doc, "pool.cache.base_hits"), 2, "second plan reuses both bases");
    assert!(counter(&doc, "lp.warm.hits") > 0, "multi-set jobs must warm-start");
    assert_eq!(counter(&doc, "lp.warm.misses"), 0, "this suite warm-starts cleanly");

    // The same plans solved cold, on a fresh pool, must cost more: warm
    // starting is only worth its base solves if the whole batch, base
    // solves included, spends fewer ticks (10 vs 20 when written).
    let cold_plans =
        vec![plan_for("check_data", &budget, false), plan_for("check_data", &budget, false)];
    let cold = SolvePool::new(4).run_plans(&cold_plans, &budget.solve);
    assert!(
        first.report.total_ticks < cold.report.total_ticks,
        "warm batch spent {} ticks, cold {}",
        first.report.total_ticks,
        cold.report.total_ticks
    );
    for (warm, cold) in first.estimates.iter().zip(&cold.estimates) {
        assert_eq!(warm.as_ref().expect("ok"), cold.as_ref().expect("ok"));
    }

    // A second batch on the same pool answers every job from the solve
    // cache, and the base snapshots replay too — no new base solves.
    recorder.reset();
    let second = pool.run_plans(&plans, &budget.solve);
    let doc = ipet_trace::snapshot().expect("recorder installed");
    assert_eq!(second.report.misses, 0, "second batch is fully cached");
    assert_eq!(counter(&doc, "lp.warm.base_solves"), 0);
    assert_eq!(counter(&doc, "pool.cache.base_hits"), 4, "all four base lookups replay");
    for (a, b) in first.estimates.iter().zip(&second.estimates) {
        assert_eq!(a.as_ref().expect("ok"), b.as_ref().expect("ok"));
    }
}
