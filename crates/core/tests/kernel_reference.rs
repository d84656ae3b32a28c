//! The production simplex kernel against the debug reference kernel on
//! every ILP the 13 suite routines produce: each job's cold `solve_lp`
//! point must be the reference tableau's canonical LP optimum (the same
//! rounded witness, values within 1e-6 relative). Each of those solves
//! also checks the sparse kernel's LU factorizations against the dense
//! elimination. The suite's LPs never run long enough to refactorize, so
//! a few scale-band synthetic programs, whose LPs do, get the same checks.
//!
//! The reference kernels exist in debug builds only.
#![cfg(debug_assertions)]

use ipet_bench::synth::{generate, SynthConfig};
use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, Annotations};
use ipet_hw::Machine;
use ipet_infer::{infer_and_merge, InferMode};
use ipet_lp::{debug_lu_checks, debug_reference_lp, round_witness, solve_lp, LpOutcome};

#[test]
fn suite_cold_lps_reach_the_reference_kernels_canonical_optimum() {
    let budget = AnalysisBudget::default();
    let (mut compared, mut checked) = (0, 0);
    for bench in ipet_suite::all() {
        let program = bench.program().expect("compiles");
        let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
        let anns = parse_annotations(&bench.annotations(&program)).expect("annotations");
        let plan = analyzer.plan(&anns, &budget).expect("plan");
        for job in plan.jobs() {
            let optimum = |outcome: LpOutcome, kernel: &str| match outcome {
                LpOutcome::Optimal { x, value } => (x, value),
                other => panic!("{}: the {kernel} kernel ended {other:?}", bench.name),
            };
            // `refactorize` panics on any disagreement with the dense
            // elimination; count what it checked.
            let before = debug_lu_checks();
            let (x, value) = optimum(solve_lp(&job.problem), "sparse");
            checked += debug_lu_checks() - before;
            let (want_x, want_value) = optimum(debug_reference_lp(&job.problem), "reference");
            let witness = round_witness(&x).expect("an integral sparse optimum");
            let want = round_witness(&want_x).expect("an integral reference optimum");
            assert_eq!(witness, want, "{}: the kernels' canonical points differ", bench.name);
            for (a, b) in x.iter().zip(&want_x) {
                assert!((a - b).abs() <= 1e-6 * b.abs().max(1.0), "{}: {a} vs {b}", bench.name);
            }
            assert!(
                (value - want_value).abs() <= 1e-6 * want_value.abs().max(1.0),
                "{}: value {value} vs reference {want_value}",
                bench.name
            );
            compared += 1;
        }
    }
    // 36 when written: two jobs per routine plus two per extra set.
    assert!(compared >= 36, "only {compared} cold solves compared");
    // 36 when written: one factorization per solve.
    assert!(checked >= 30, "only {checked} sparse factorizations checked");
}

/// The first `count` `synth::generate` programs with `max_depth: 4` whose
/// compiled size falls in 250..750 instructions, planned annotation-free
/// (`InferMode::Only`), as the benchmark's scale band draws them.
fn band_plans(count: usize) -> Vec<(u64, AnalysisPlan)> {
    let budget = AnalysisBudget::default();
    let config = SynthConfig { max_depth: 4, ..SynthConfig::default() };
    let mut plans = Vec::new();
    let mut seed = 0;
    while plans.len() < count {
        let s = generate(seed, config);
        let instrs: usize = s.program.functions.iter().map(|f| f.instrs.len()).sum();
        if (250..750).contains(&instrs) {
            let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
            let none = Annotations::default();
            let merged = infer_and_merge(Some(&s.module), &analyzer, &none, InferMode::Only)
                .expect("every generated loop is inferred");
            plans.push((seed, analyzer.plan(&merged.annotations, &budget).expect("plan")));
        }
        seed += 1;
    }
    plans
}

#[test]
fn scale_band_lps_refactorize_mid_solve_and_reach_the_reference_optimum() {
    // Twelve programs reach the first band LP that runs past
    // `REFACTOR_INTERVAL` pivots.
    let (mut refactorized, mut compared) = (0, 0);
    for (seed, plan) in band_plans(12) {
        for job in plan.jobs() {
            let before = debug_lu_checks();
            let x = match solve_lp(&job.problem) {
                LpOutcome::Optimal { x, .. } => x,
                other => panic!("seed {seed}: the sparse kernel ended {other:?}"),
            };
            // The first factorization plus at least one every 64 pivots.
            refactorized += usize::from(debug_lu_checks() - before >= 2);
            let LpOutcome::Optimal { x: want, .. } = debug_reference_lp(&job.problem) else {
                panic!("seed {seed}: the reference kernel found no optimum");
            };
            assert_eq!(round_witness(&x), round_witness(&want), "seed {seed}");
            compared += 1;
        }
    }
    // 24 when written: two jobs per program.
    assert!(compared >= 24, "only {compared} band solves compared");
    // 1 when written: the twelfth program (seed 20) refactorizes once.
    assert!(refactorized >= 1, "no band solve refactorized mid-solve");
}
