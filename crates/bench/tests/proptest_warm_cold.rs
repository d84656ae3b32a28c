//! Property tests: warm-started delta re-solving is bit-identical to cold
//! monolithic solving over the synthetic workload generator and over a
//! family of routines whose branch arms cost the same. `Estimate` equality
//! covers the WCET and BCET bounds, the per-set solver stats and both
//! witness count maps; the audited variant additionally pins the
//! certificate tallies.

use ipet_arch::Program;
use ipet_bench::synth;
use ipet_core::{infer_loop_bounds, inferred_annotations, AnalysisBudget, Analyzer, SolvePool};
use ipet_hw::Machine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inferred loop bounds plus (when the CFG has at least two blocks) a
/// tautological disjunctive path fact. The disjunction never cuts a
/// feasible path, but it forces a DNF expansion into two constraint sets,
/// so the warm path has per-set deltas to re-solve on top of a shared
/// base instead of degenerating into a single monolithic solve.
fn annotations_for(analyzer: &Analyzer) -> String {
    let mut text = inferred_annotations(&infer_loop_bounds(analyzer));
    let entry = analyzer.instances().instances[0].func;
    if analyzer.instances().cfgs[entry.0].num_blocks() >= 2 {
        text.push_str("fn f { (x1 >= x2) | (x2 >= x1); }\n");
    }
    text
}

/// A routine of one to four `if`s, some inside counted loops, whose `then`
/// and `else` arms are the same statement list. The taken arm skips the
/// `else` block and jumps over it, the other arm pays a jump block, so the
/// two paths often cost the same and the WCET and BCET optima tie between
/// them.
fn equal_arms_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = String::from("int t; int i; t = 1;");
    for _ in 0..rng.gen_range(1..=4) {
        let arm: String = (0..rng.gen_range(1..=3))
            .map(|_| {
                let op = ["+", "-", "*", "^"][rng.gen_range(0..4usize)];
                format!(" t = t {op} {};", rng.gen_range(1..30))
            })
            .collect();
        let branch = format!("if (a < {}) {{{arm} }} else {{{arm} }}", rng.gen_range(-8..8));
        if rng.gen_bool(0.4) {
            let trips = rng.gen_range(1..=6);
            body.push_str(&format!(" for (i = 0; i < {trips}; i = i + 1) {{ {branch} }}"));
        } else {
            body.push(' ');
            body.push_str(&branch);
        }
    }
    let source = format!("int f(int a) {{ {body} return t; }}");
    ipet_lang::compile(&source, "f").expect("generated program compiles")
}

/// Analyzes `program` warm and cold and requires bit-identical estimates,
/// witnesses included.
fn assert_warm_matches_cold(program: &Program, seed: u64) {
    let machine = Machine::i960kb();
    let warm = Analyzer::new(program, machine).expect("analyzer");
    let cold = Analyzer::new(program, machine).expect("analyzer").with_warm_start(false);
    let anns = ipet_core::parse_annotations(&annotations_for(&warm)).expect("parse");
    let w = warm.analyze_parsed(&anns).expect("warm analysis");
    let c = cold.analyze_parsed(&anns).expect("cold analysis");
    assert_eq!(&w.wcet_counts, &c.wcet_counts, "seed {seed}: WCET witnesses differ");
    assert_eq!(&w.bcet_counts, &c.bcet_counts, "seed {seed}: BCET witnesses differ");
    assert_eq!(w, c, "seed {seed}: estimates differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The whole estimate — bounds, per-set stats, witnesses — is
    /// bit-identical with warm starting on (the default) and off.
    #[test]
    fn warm_estimates_and_witnesses_match_cold(seed in 0u64..500) {
        assert_warm_matches_cold(&synth::generate(seed, synth::SynthConfig::default()).program, seed);
    }

    /// The same over equal-cost branch arms, where the optima tie.
    #[test]
    fn warm_matches_cold_on_equal_cost_arms(seed in 0u64..500) {
        assert_warm_matches_cold(&equal_arms_program(seed), seed);
    }

    /// Auditing the warm path certifies exactly what the cold path
    /// certifies: same estimate, everything certified, equal tallies.
    #[test]
    fn warm_audit_certificates_match_cold(seed in 0u64..500) {
        let s = synth::generate(seed, synth::SynthConfig::default());
        let machine = Machine::i960kb();
        let warm = Analyzer::new(&s.program, machine).expect("analyzer");
        let cold = Analyzer::new(&s.program, machine).expect("analyzer").with_warm_start(false);
        let anns = ipet_core::parse_annotations(&annotations_for(&warm)).expect("parse");
        let budget = AnalysisBudget::default();
        let audited = |analyzer: &Analyzer<'_>| {
            let plan = analyzer.plan(&anns, &budget).expect("plan");
            SolvePool::new(1).run_plans_audited(&[plan], &budget.solve).results.remove(0)
        };
        let (we, wr) = audited(&warm).expect("warm audited");
        let (ce, cr) = audited(&cold).expect("cold audited");
        prop_assert_eq!(we, ce, "seed {}: audited estimates differ", seed);
        prop_assert!(wr.all_certified(), "seed {}: warm run not fully certified:\n{}", seed, wr.render());
        prop_assert!(cr.all_certified(), "seed {}: cold run not fully certified:\n{}", seed, cr.render());
        prop_assert_eq!(wr.certified(), cr.certified(), "seed {}: certified tallies differ", seed);
        prop_assert_eq!(wr.rejected(), cr.rejected(), "seed {}: rejected tallies differ", seed);
    }
}

/// The tautological disjunction really produces multi-set plans (so the
/// properties above exercise base+delta warm starts, not just the trivial
/// single-set path).
#[test]
fn synth_disjunction_yields_multiple_sets() {
    let mut multi = 0usize;
    for seed in 0..8u64 {
        let s = synth::generate(seed, synth::SynthConfig::default());
        let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
        let anns = ipet_core::parse_annotations(&annotations_for(&analyzer)).expect("parse");
        let plan = analyzer.plan(&anns, &AnalysisBudget::default()).expect("plan");
        if plan.num_sets() > 1 {
            multi += 1;
            assert!(plan.warm_start(), "warm starting is on by default");
            assert_eq!(plan.bases().len(), 2, "one base per objective sense");
        }
    }
    assert!(multi > 0, "no seed produced a multi-set plan; the property tests are vacuous");
}
