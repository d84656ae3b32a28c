//! Property tests for the exact-arithmetic certifier over the synthetic
//! workload generator, plus the mutation self-test: an injected corruption
//! of a solver witness or bound must always be caught by the audit.

use ipet_bench::synth;
use ipet_core::{
    infer_loop_bounds, inferred_annotations, AnalysisBudget, Analyzer, AuditReport, BoundQuality,
    CertVerdict, Estimate, SolvePool, SolverFaults,
};
use ipet_hw::Machine;
use proptest::prelude::*;

/// Analyzes the seeded synthetic program with certification on, on a
/// one-worker pool whose every fresh solve starts from the `faults`
/// template.
fn audited(seed: u64, faults: SolverFaults) -> (Estimate, AuditReport) {
    let s = synth::generate(seed, synth::SynthConfig::default());
    let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
    let anns = ipet_core::parse_annotations(&inferred_annotations(&infer_loop_bounds(&analyzer)))
        .expect("inferred annotations parse");
    let budget = AnalysisBudget::default();
    let plan = analyzer.plan(&anns, &budget).expect("plan");
    let batch = SolvePool::with_faults(1, faults).run_plans_audited(&[plan], &budget.solve);
    batch.results.into_iter().next().expect("one plan").expect("analysis succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every Exact solve the pipeline reports carries a certificate that
    /// verifies: feasibility, exact objective replay and CFG flow replay.
    #[test]
    fn every_exact_solve_certifies(seed in 0u64..1000) {
        let (est, report) = audited(seed, SolverFaults::none());
        prop_assert!(report.all_certified(), "seed {seed}:\n{}", report.render());
        prop_assert!(report.certified() >= 1, "seed {seed}: nothing was certified");
        if est.quality == BoundQuality::Exact {
            for cert in &report.sets {
                for verdict in [&cert.wcet, &cert.bcet] {
                    prop_assert!(
                        matches!(
                            verdict,
                            CertVerdict::Certified { .. } | CertVerdict::Infeasible
                        ),
                        "seed {seed}, set {}: exact quality but verdict {}",
                        cert.set,
                        verdict.describe()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mutation self-test: a corrupted witness (one count off by one) must
    /// be rejected by at least one certificate check.
    #[test]
    fn corrupted_witnesses_are_rejected(seed in 0u64..200) {
        let (_, report) = audited(seed, SolverFaults::corrupt_witness_at(0));
        prop_assert!(
            report.rejected() >= 1,
            "seed {seed}: corrupt witness slipped through:\n{}",
            report.render()
        );
    }

    /// Mutation self-test: a corrupted claimed bound (off by one cycle)
    /// must fail the exact objective replay.
    #[test]
    fn corrupted_bounds_are_rejected(seed in 0u64..200) {
        let (_, report) = audited(seed, SolverFaults::corrupt_bound_at(0));
        prop_assert!(
            report.rejected() >= 1,
            "seed {seed}: corrupt bound slipped through:\n{}",
            report.render()
        );
    }
}

/// The auditor only observes: with and without certification, the estimate
/// is bit-identical.
#[test]
fn auditing_never_changes_the_estimate() {
    for seed in 0..8u64 {
        let s = synth::generate(seed, synth::SynthConfig::default());
        let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
        let text = inferred_annotations(&infer_loop_bounds(&analyzer));
        let anns = ipet_core::parse_annotations(&text).expect("parse");
        let plain = analyzer.analyze_parsed(&anns).expect("plain");
        let budget = AnalysisBudget::default();
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        let batch = SolvePool::new(1).run_plans_audited(&[plan], &budget.solve);
        let (audited, _) = batch.results.into_iter().next().expect("one plan").expect("audited");
        assert_eq!(plain, audited, "seed {seed}");
    }
}
