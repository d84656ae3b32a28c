//! Property tests: the solver backend is invisible in results. Dense and
//! auto produce bit-identical estimates and audit certificates over the
//! synthetic workload generator — which is exactly the statement that
//! presolve + postsolve round-trips every witness: each accepted sparse
//! warm start reconstructs the full witness through the postsolve map, and
//! the audit re-certifies it in exact arithmetic against the original
//! problem.
//!
//! The backend selector is process-global, so every test in this file
//! serializes on one mutex and restores the default before releasing it.

use ipet_bench::synth;
use ipet_core::{infer_loop_bounds, inferred_annotations, AnalysisBudget, Analyzer, SolverFaults};
use ipet_hw::Machine;
use ipet_lp::{set_solver_backend, SolverBackend};
use proptest::prelude::*;
use std::sync::Mutex;

static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// One audited end-to-end analysis of the seeded synthetic program under
/// the given backend: the estimate plus the audit tallies.
fn audited_run(seed: u64, backend: SolverBackend) -> (ipet_core::Estimate, usize, usize, bool) {
    set_solver_backend(backend);
    let s = synth::generate(seed, synth::SynthConfig::default());
    let machine = Machine::i960kb();
    let analyzer = Analyzer::new(&s.program, machine).expect("analyzer");
    let anns = ipet_core::parse_annotations(&inferred_annotations(&infer_loop_bounds(&analyzer)))
        .expect("parse");
    let (estimate, report) = analyzer
        .analyze_audited_with_faults(&anns, &AnalysisBudget::default(), &mut SolverFaults::none())
        .expect("audited analysis");
    (estimate, report.certified(), report.rejected(), report.all_certified())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same `Estimate` (bounds, stats, witness count maps) and the same
    /// audit certificate tallies under every backend, with everything
    /// certified — the presolve/postsolve witness round-trip holds end to
    /// end, not just inside the LP layer.
    #[test]
    fn backend_choice_is_invisible_in_results(seed in 0u64..500) {
        let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dense = audited_run(seed, SolverBackend::Dense);
        let auto = audited_run(seed, SolverBackend::Auto);
        set_solver_backend(SolverBackend::Auto);
        prop_assert!(dense.3, "seed {}: dense run not fully certified", seed);
        prop_assert_eq!(&dense, &auto, "seed {}: auto diverges from dense", seed);
    }
}
