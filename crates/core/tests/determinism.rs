//! The whole analysis is deterministic: identical inputs give identical
//! estimates, counts, breakdowns and solver statistics — a requirement for
//! a certification-oriented tool.

use ipet_core::Analyzer;
use ipet_hw::Machine;

#[test]
fn analysis_is_deterministic_across_runs() {
    for name in ["check_data", "dhry", "fft"] {
        let b = ipet_suite::by_name(name).unwrap();
        let program = b.program().unwrap();
        let ann = b.annotations(&program);
        let a1 = Analyzer::new(&program, Machine::i960kb()).unwrap();
        let a2 = Analyzer::new(&program, Machine::i960kb()).unwrap();
        let e1 = a1.analyze(&ann).unwrap();
        let e2 = a2.analyze(&ann).unwrap();
        assert_eq!(e1, e2, "{name}");
        assert_eq!(e1.render(), e2.render(), "{name}");
    }
}

#[test]
fn compilation_is_deterministic() {
    for b in ipet_suite::all() {
        let p1 = b.program().unwrap();
        let p2 = b.program().unwrap();
        assert_eq!(p1, p2, "{}", b.name);
    }
}

#[test]
fn cache_split_plans_have_the_same_job_keys_every_time() {
    use ipet_core::{AnalysisBudget, CacheMode};
    use ipet_lp::Sense;
    for name in ["piksrt", "fft", "matgen", "line"] {
        let b = ipet_suite::by_name(name).unwrap();
        let program = b.program().unwrap();
        let anns = ipet_core::parse_annotations(&b.annotations(&program)).unwrap();
        let a = Analyzer::new(&program, Machine::i960kb())
            .unwrap()
            .with_cache_mode(CacheMode::FirstIterSplit);
        let keys = || {
            let plan = a.plan(&anns, &AnalysisBudget::default()).unwrap();
            let split_rows = plan.cover(Sense::Maximize).num_constraints()
                - plan.cover(Sense::Minimize).num_constraints();
            let keys: Vec<_> = plan.jobs().iter().map(|j| j.key).collect();
            (split_rows, keys)
        };
        let (split_rows, first) = keys();
        // Two rows per split block: with several, their order matters.
        assert!(split_rows >= 4, "{name}: test premise, {split_rows} split rows");
        for _ in 1..8 {
            assert_eq!(keys().1, first, "{name}");
        }
    }
}
