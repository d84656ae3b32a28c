//! Crash isolation: a panicking solver worker never takes the batch down.
//!
//! An injected panic is caught and quarantines its job as exhausted,
//! degrading the affected bound to `Partial` quality instead of crashing —
//! and does so identically at any worker count.

use ipet_core::{
    parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, BoundQuality, SolvePool,
};
use ipet_hw::Machine;
use ipet_lp::SolverFaults;

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

/// Panics do leave the default panic-hook message on stderr; keep the test
/// output readable by silencing the hook for the faulted runs. The hook is
/// process-global, so faulted runs are serialized under one lock.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = HOOK_LOCK.lock().expect("hook lock");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

#[test]
fn a_panic_quarantines_and_degrades_instead_of_crashing() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    // Every representative panics, so every one is quarantined and every
    // set is covered by the common-constraint relaxation.
    let batch = quietly(|| {
        SolvePool::with_faults(2, SolverFaults::panic_at(0)).run_plans(&plans, &budget.solve)
    });
    let clean = SolvePool::new(2).run_plans(&plans, &budget.solve);
    for ((est, clean), name) in batch.estimates.iter().zip(&clean.estimates).zip(BENCHES) {
        let est = est.as_ref().expect("degraded, not crashed");
        assert_eq!(est.quality, BoundQuality::Partial, "{name}");
        assert!(est.bound.encloses(clean.as_ref().expect("clean").bound), "{name}");
    }
}

/// Each representative solve is attempted once: `panic_at(0)` quarantines
/// every one of them exactly once, at 1 and at 8 workers alike, and the
/// degraded bounds agree.
#[test]
fn each_representative_is_quarantined_once_at_any_worker_count() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let recorder = ipet_trace::install();
    let runs: Vec<_> = [1usize, 8]
        .iter()
        .map(|&w| {
            quietly(|| {
                recorder.reset();
                let batch = SolvePool::with_faults(w, SolverFaults::panic_at(0))
                    .run_plans(&plans, &budget.solve);
                let doc = ipet_trace::snapshot().expect("recorder installed");
                let quarantined = doc.counters.get("pool.panic.quarantined").copied();
                (batch, quarantined)
            })
        })
        .collect();
    for (batch, quarantined) in &runs {
        assert!(batch.report.misses > 0);
        assert_eq!(*quarantined, Some(batch.report.misses), "one quarantine per representative");
        for est in &batch.estimates {
            assert_eq!(est.as_ref().expect("degraded").quality, BoundQuality::Partial);
        }
    }
    let a: Vec<_> = runs[0].0.estimates.iter().map(|e| e.as_ref().expect("ok")).collect();
    let b: Vec<_> = runs[1].0.estimates.iter().map(|e| e.as_ref().expect("ok")).collect();
    assert_eq!(a, b, "quarantine must be deterministic across --jobs 1 and --jobs 8");
    assert_eq!(runs[0].0.report.misses, runs[1].0.report.misses);
}

#[test]
fn quarantined_results_are_not_cached() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(&["piksrt"], &budget);
    let pool = quietly(|| {
        let pool = SolvePool::with_faults(2, SolverFaults::panic_at(0));
        let crashed = pool.run_plans(&plans, &budget.solve);
        assert_eq!(crashed.estimates[0].as_ref().expect("degraded").quality, BoundQuality::Partial);
        pool
    });
    // The quarantined `Exhausted` markers must not have been inserted: a
    // second batch on the same pool probes the cache and must miss (and
    // then crash-degrade again under the same fault — it must NOT replay
    // its way back to a phantom Exact result).
    let again = quietly(|| pool.run_plans(&plans, &budget.solve));
    assert_eq!(again.report.hits, 0, "no quarantined entry may be replayed");
    assert_eq!(again.estimates[0].as_ref().expect("ok").quality, BoundQuality::Partial);
}

#[test]
fn audited_pooled_run_certifies_every_exact_set() {
    let budget = AnalysisBudget::default();
    let plans = plans_for(BENCHES, &budget);
    let pool = SolvePool::new(4);
    let plain = pool.run_plans(&plans, &budget.solve);
    let audited = SolvePool::new(4).run_plans_audited(&plans, &budget.solve);

    for ((plain, audited), name) in plain.estimates.iter().zip(&audited.results).zip(BENCHES) {
        let plain = plain.as_ref().expect("ok");
        let (est, report) = audited.as_ref().expect("ok");
        assert_eq!(plain, est, "{name}: auditing must not change the estimate");
        assert_eq!(report.rejected(), 0, "{name}: every verdict must certify");
        assert!(report.all_certified(), "{name}");
    }
}
