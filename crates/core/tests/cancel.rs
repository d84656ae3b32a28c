//! External cancellation: a batch run under a cancelled [`CancelToken`]
//! degrades to certified-safe bounds instead of wedging, cancelled results
//! never enter the caches, and a token that is never cancelled changes
//! nothing at all.

use ipet_core::{
    parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, BoundQuality, CancelToken,
    PlanBatch, SolvePool, SolveRequest,
};
use ipet_hw::Machine;

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

/// Runs `plans` on `pool`, unbudgeted and unaudited, under `token`.
fn run_cancellable(pool: &SolvePool, plans: &[AnalysisPlan], token: &CancelToken) -> PlanBatch {
    pool.run(plans, &SolveRequest { cancel: token.clone(), ..SolveRequest::default() }).into()
}

#[test]
fn uncancelled_token_changes_nothing() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let plain = SolvePool::new(3).run_plans(&plans, &budget.solve);
    let token = CancelToken::new();
    let tokened = run_cancellable(&SolvePool::new(3), &plans, &token);
    for ((a, b), name) in plain.estimates.iter().zip(&tokened.estimates).zip(BENCHES) {
        let (a, b) = (a.as_ref().expect("ok"), b.as_ref().expect("ok"));
        assert_eq!(a, b, "{name}: an uncancelled token must be inert");
        assert_eq!(b.quality, BoundQuality::Exact, "{name}");
    }
    assert_eq!(plain.report.hits, tokened.report.hits);
    assert_eq!(plain.report.misses, tokened.report.misses);
}

#[test]
fn pre_cancelled_batch_degrades_safely_and_promptly() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let token = CancelToken::new();
    token.cancel();
    let pool = SolvePool::new(3);
    let batch = run_cancellable(&pool, &plans, &token);
    for (est, name) in batch.estimates.iter().zip(BENCHES) {
        let est = est.as_ref().expect("degraded, not crashed or wedged");
        assert_ne!(est.quality, BoundQuality::Exact, "{name}: cancelled solve cannot be exact");
        assert!(est.bound.lower <= est.bound.upper, "{name}: bound must stay well-formed");
    }
}

#[test]
fn cancelled_results_are_not_cached() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["piksrt"], &budget);
    let pool = SolvePool::new(2);

    let token = CancelToken::new();
    token.cancel();
    let cancelled = run_cancellable(&pool, &plans, &token);
    assert_ne!(cancelled.estimates[0].as_ref().expect("ok").quality, BoundQuality::Exact);

    // A fresh run on the same pool must miss the cache (nothing from the
    // cancelled batch may have been inserted) and then produce the true
    // exact answer, identical to a never-cancelled pool.
    let fresh = pool.run_plans(&plans, &budget.solve);
    assert_eq!(fresh.report.hits, 0, "no cancelled entry may be replayed");
    let est = fresh.estimates[0].as_ref().expect("ok");
    assert_eq!(est.quality, BoundQuality::Exact);
    let reference = SolvePool::new(2).run_plans(&plans, &budget.solve);
    assert_eq!(est, reference.estimates[0].as_ref().expect("ok"));
}

#[test]
fn cancelled_bound_covers_the_exact_bound() {
    // Safety under cancellation: the degraded upper bound must still cover
    // the true WCET (it comes from the common-constraint relaxation, which
    // is always a sound over-approximation).
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let exact = SolvePool::new(2).run_plans(&plans, &budget.solve);
    let token = CancelToken::new();
    token.cancel();
    let cancelled = run_cancellable(&SolvePool::new(2), &plans, &token);
    for ((e, c), name) in exact.estimates.iter().zip(&cancelled.estimates).zip(BENCHES) {
        let (e, c) = (e.as_ref().expect("ok"), c.as_ref().expect("ok"));
        assert!(
            c.bound.upper >= e.bound.upper,
            "{name}: cancelled upper bound {} must cover exact {}",
            c.bound.upper,
            e.bound.upper
        );
    }
}

#[test]
fn audited_cancellable_run_still_degrades_safely() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["piksrt"], &budget);
    let token = CancelToken::new();
    token.cancel();
    let request = SolveRequest { cancel: token, audit: true, ..SolveRequest::default() };
    let batch = SolvePool::new(2).run(&plans, &request);
    let (est, report) = batch.results[0].as_ref().expect("ok");
    assert_ne!(est.quality, BoundQuality::Exact);
    assert_eq!(report.rejected(), 0, "nothing certifiable may be rejected");
}

#[test]
fn mid_flight_cancellation_terminates_the_batch() {
    // Cancel from another thread while the batch runs. Whatever the race
    // outcome, the batch must return (promptness is the property under
    // test; the 60s guard below turns a wedge into a failure), every
    // estimate must be well-formed, and exact answers must match the
    // reference exactly.
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["dhry", "fullsearch", "whetstone", "des"], &budget);
    let reference = SolvePool::new(2).run_plans(&plans, &budget.solve);

    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            token.cancel();
        })
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let pool = SolvePool::new(2);
        let batch = run_cancellable(&pool, &plans, &token);
        let _ = tx.send(batch);
    });
    let batch = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("cancelled batch must terminate promptly, not wedge");
    canceller.join().expect("canceller");
    runner.join().expect("runner");

    for (est, reference) in batch.estimates.iter().zip(&reference.estimates) {
        let (est, reference) = (est.as_ref().expect("ok"), reference.as_ref().expect("ok"));
        assert!(est.bound.lower <= est.bound.upper);
        if est.quality == BoundQuality::Exact {
            assert_eq!(est, reference, "an exact answer under cancellation is the true answer");
        } else {
            assert!(est.bound.upper >= reference.bound.upper, "degraded bound must stay safe");
        }
    }
}
