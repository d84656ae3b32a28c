//! Pool-level guarantees on real benchmarks: a batch of plans equals each
//! plan analyzed alone, worker count never changes anything observable, and
//! cached replay reproduces bounds and `BoundQuality` exactly.

use ipet_core::{
    parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, BoundQuality, CacheOutcome,
    SolvePool,
};
use ipet_hw::Machine;

/// Benchmarks with different set counts: piksrt (1 set), check_data
/// (disjunctions), dhry (8 sets, 3 after pruning).
const BENCHES: &[&str] = &["piksrt", "check_data", "dhry"];

fn plans_for(names: &[&str], budget: &AnalysisBudget) -> Vec<AnalysisPlan> {
    names
        .iter()
        .map(|name| {
            let bench = ipet_suite::by_name(name).expect("bundled benchmark");
            let program = bench.program().expect("compiles");
            let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
            let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
            analyzer.plan(&anns, budget).expect("plan")
        })
        .collect()
}

#[test]
fn batch_of_plans_equals_analyze_per_plan() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let pool = SolvePool::new(4);
    let batch = pool.run_plans(&plans, &budget.solve);

    for (name, pooled) in BENCHES.iter().zip(&batch.estimates) {
        let bench = ipet_suite::by_name(name).unwrap();
        let program = bench.program().unwrap();
        let analyzer = Analyzer::new(&program, Machine::i960kb()).unwrap();
        let alone = analyzer.analyze(&bench.annotations(&program)).expect("analyze");
        let pooled = pooled.as_ref().expect("pooled");
        assert_eq!(pooled, &alone, "{name}: the batch differs from the plan alone");
        assert_eq!(pooled.quality, BoundQuality::Exact, "{name}");
    }
}

#[test]
fn worker_count_changes_nothing_observable() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let one = SolvePool::new(1).run_plans(&plans, &budget.solve);
    let eight = SolvePool::new(8).run_plans(&plans, &budget.solve);

    let est1: Vec<_> = one.estimates.iter().map(|e| e.as_ref().expect("ok")).collect();
    let est8: Vec<_> = eight.estimates.iter().map(|e| e.as_ref().expect("ok")).collect();
    assert_eq!(est1, est8, "estimates must be identical at --jobs 1 and --jobs 8");
    assert_eq!(one.report.hits, eight.report.hits, "hit counts must be deterministic");
    assert_eq!(one.report.misses, eight.report.misses, "miss counts must be deterministic");
    let cached1: Vec<CacheOutcome> = one.report.outcomes.iter().map(|o| o.cache).collect();
    let cached8: Vec<CacheOutcome> = eight.report.outcomes.iter().map(|o| o.cache).collect();
    assert_eq!(cached1, cached8, "per-job cache outcomes must be deterministic");
}

#[test]
fn deadline_sharding_degrades_identically_at_any_worker_count() {
    // Tight enough that solves exhaust or relax; what matters is that
    // every observable — bound, quality, per-set reports — agrees between
    // worker counts, not which degradation occurs.
    let mut budget = AnalysisBudget::default();
    budget.solve.deadline_ticks = Some(40);
    let plans = plans_for(BENCHES, &budget);
    let one = SolvePool::new(1).run_plans(&plans, &budget.solve);
    let five = SolvePool::new(5).run_plans(&plans, &budget.solve);
    for ((a, b), name) in one.estimates.iter().zip(&five.estimates).zip(BENCHES) {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{name}"),
            (Err(x), Err(y)) => assert_eq!(format!("{x:?}"), format!("{y:?}"), "{name}"),
            _ => panic!("{name}: Ok/Err disagreement between worker counts"),
        }
    }
}

#[test]
fn cached_replay_yields_identical_bounds_and_quality() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let pool = SolvePool::new(2);

    let first = pool.run_plans(&plans, &budget.solve);
    let second = pool.run_plans(&plans, &budget.solve);

    assert_eq!(second.report.misses, 0, "second run must be answered entirely by the cache");
    assert!(second.report.outcomes.iter().all(|o| o.cache == CacheOutcome::Hit));
    for ((a, b), name) in first.estimates.iter().zip(&second.estimates).zip(BENCHES) {
        let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
        assert_eq!(a.bound, b.bound, "{name}: replayed bound differs");
        assert_eq!(a.quality, b.quality, "{name}: replayed quality differs");
        assert_eq!(a, b, "{name}: replayed estimate differs");
    }
}

#[test]
fn worker_tick_tallies_sum_to_total() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let pool = SolvePool::new(3);
    let batch = pool.run_plans(&plans, &budget.solve);
    assert_eq!(batch.report.worker_ticks.len(), 3);
    let workers: u64 = batch.report.worker_ticks.iter().sum();
    assert_eq!(workers, batch.report.total_ticks);
    assert!(workers > 0, "real solves must spend pivot ticks");
}

#[test]
fn structurally_identical_jobs_across_plans_are_deduplicated() {
    // Submitting the same benchmark twice must solve its ILPs once: the
    // second plan's jobs are within-batch replays, and both analyses
    // nevertheless agree exactly.
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["piksrt", "piksrt"], &budget);
    let pool = SolvePool::new(2);
    let batch = pool.run_plans(&plans, &budget.solve);
    let n = plans[0].jobs().len();
    assert_eq!(batch.report.misses, n as u64, "first copy solved fresh");
    assert_eq!(batch.report.hits, n as u64, "second copy replayed");
    let a = batch.estimates[0].as_ref().expect("ok");
    let b = batch.estimates[1].as_ref().expect("ok");
    assert_eq!(a, b);
}

/// Wall-clock scaling probe — a measurement, not an assertion: on a
/// multi-core machine `workers=8` should beat `workers=1` clearly (the
/// batch holds several independent 10-25ms ILPs); on a single-core machine
/// the two are at parity, so the probe skips itself with a printed reason
/// rather than producing a meaningless comparison (it used to hide behind
/// `#[ignore]`, which silently no-oped everywhere). The results are
/// bit-identical either way, which the tests above pin down.
///
/// Run with `--nocapture` to see the timings (or the skip reason).
#[test]
fn parallel_scaling_probe() {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cores < 2 {
        eprintln!(
            "parallel_scaling_probe: skipped — only {cores} core(s) available, \
             a 1-vs-8-worker wall-clock comparison would be meaningless"
        );
        return;
    }
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["dhry", "fullsearch", "whetstone", "des"], &budget);
    for workers in [1usize, 8] {
        let pool = SolvePool::new(workers);
        let t = std::time::Instant::now();
        let _ = pool.run_plans(&plans, &budget.solve);
        eprintln!("parallel_scaling_probe: workers={workers}: {:?}", t.elapsed());
    }
}

#[test]
fn a_degraded_answer_is_not_replayed_into_an_unbudgeted_run() {
    // The cache key covers the problem, not the budget it was solved
    // under: an answer degraded by a deadline must not answer a later run
    // without one. The later run must give what a fresh pool gives.
    let unlimited = AnalysisBudget::default();
    let mut tight = AnalysisBudget::default();
    tight.solve.deadline_ticks = Some(40);
    let pool = SolvePool::new(1);
    let degraded = pool.run_plans(&plans_for(&["dhry"], &tight), &tight.solve);
    let degraded = degraded.estimates[0].as_ref().expect("ok");
    assert_ne!(degraded.quality, BoundQuality::Exact, "test premise: the deadline degrades");

    let after = pool.run_plans(&plans_for(&["dhry"], &unlimited), &unlimited.solve);
    let fresh = SolvePool::new(1).run_plans(&plans_for(&["dhry"], &unlimited), &unlimited.solve);
    let fresh = fresh.estimates[0].as_ref().expect("ok");
    assert_eq!(fresh.quality, BoundQuality::Exact);
    assert_eq!(after.estimates[0].as_ref().expect("ok"), fresh);
}
