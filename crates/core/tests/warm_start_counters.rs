//! Exact counter accounting for the pool's warm-start machinery. Kept in
//! its own integration binary (single test) because the trace recorder is
//! process-global: counters from concurrently running tests would bleed
//! into the assertions.

use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, SolvePool};
use ipet_hw::Machine;

fn plan_for(name: &str, budget: &AnalysisBudget, warm: bool) -> AnalysisPlan {
    plan_with(name, "", budget, warm)
}

/// The plan of `name` with `extra` appended to its annotations.
fn plan_with(name: &str, extra: &str, budget: &AnalysisBudget, warm: bool) -> AnalysisPlan {
    let bench = ipet_suite::by_name(name).expect("bundled benchmark");
    let program = bench.program().expect("compiles");
    let analyzer =
        Analyzer::new(&program, Machine::i960kb()).expect("analyzer").with_warm_start(warm);
    let anns = parse_annotations(&format!("{}\n{extra}", bench.annotations(&program)))
        .expect("annotations");
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
    // identical: the second plan's jobs all replay the first's, so its
    // bases are never looked up.
    assert_eq!(counter(&doc, "lp.warm.base_solves"), 2, "one solve per distinct base");
    assert_eq!(counter(&doc, "pool.cache.base_hits"), 0, "no fresh solve needs a replayed base");
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
    // cache, so it touches no base at all.
    recorder.reset();
    let second = pool.run_plans(&plans, &budget.solve);
    let doc = ipet_trace::snapshot().expect("recorder installed");
    assert_eq!(second.report.misses, 0, "second batch is fully cached");
    assert_eq!(second.report.base_ticks, 0);
    assert_eq!(counter(&doc, "lp.warm.base_solves"), 0);
    assert_eq!(counter(&doc, "pool.cache.base_hits"), 0, "replays look up no base");
    for (a, b) in first.estimates.iter().zip(&second.estimates) {
        assert_eq!(a.as_ref().expect("ok"), b.as_ref().expect("ok"));
    }

    // The same bases under new deltas: a non-binding extra disjunction
    // doubles the sets, so every job is new to the solve cache, while the
    // shared rows, and with them both bases, stay the same. The fresh
    // solves warm-start from the first batch's snapshots.
    recorder.reset();
    let edited = [plan_with("check_data", "fn check_data { x1 <= 1 | x1 <= 2; }", &budget, true)];
    assert_eq!(edited[0].num_sets(), 2 * plans[0].num_sets(), "test premise: new deltas");
    let third = pool.run_plans(&edited, &budget.solve);
    let doc = ipet_trace::snapshot().expect("recorder installed");
    assert_eq!(third.report.hits, 0, "every delta is new");
    assert_eq!(counter(&doc, "lp.warm.base_solves"), 0, "both bases replay");
    assert_eq!(counter(&doc, "pool.cache.base_hits"), 2, "one lookup per base");
    assert_eq!(third.report.base_ticks, 0);
    assert!(counter(&doc, "lp.warm.hits") > 0, "fresh deltas warm-start");
    let extra = third.estimates[0].as_ref().expect("ok");
    let plain = first.estimates[0].as_ref().expect("ok");
    assert_eq!(extra.bound, plain.bound, "the extra disjunction never binds");
}
