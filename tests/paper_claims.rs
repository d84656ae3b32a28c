//! Integration tests for the paper's headline claims, spanning all crates.

use ipet_core::{Analyzer, TimeBound};
use ipet_hw::Machine;
use ipet_sim::measure;

fn machine() -> Machine {
    Machine::i960kb()
}

/// Fig. 1 / correctness criterion: the estimated bound must enclose the
/// actual bound on every benchmark — checked against both the calculated
/// (count-instrumented) and measured (cycle-simulated) references.
#[test]
fn estimated_bounds_are_safe_everywhere() {
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine()).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        let worst = measure(&program, machine(), &(b.worst_seeds)(), b.args_worst, true).unwrap();
        let best = measure(&program, machine(), &(b.best_seeds)(), b.args_best, false).unwrap();
        let measured = TimeBound { lower: best.cycles, upper: worst.cycles };
        let calculated = analyzer.calculated_bound(&best.block_counts, &worst.block_counts);
        assert!(est.bound.encloses(measured), "{}: measured escapes", b.name);
        assert!(est.bound.encloses(calculated), "{}: calculated escapes", b.name);
        assert!(calculated.encloses(measured), "{}: simulation inconsistent", b.name);
    }
}

/// §III-D: "the branch-and-bound ILP solver finds that the solution of the
/// very first linear program call it makes is integer valued" — on every
/// ILP of every benchmark.
#[test]
fn first_lp_relaxation_is_integral_on_all_benchmarks() {
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine()).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        let stats = est.total_stats();
        assert!(
            stats.first_relaxation_integral,
            "{}: needed branching ({} nodes)",
            b.name, stats.nodes
        );
        // No branching means exactly one LP call per ILP solved.
        assert_eq!(stats.lp_calls, stats.nodes, "{}", b.name);
    }
}

/// Table I: dhry expands to 8 constraint sets of which 5 are pruned as
/// null ("8)3"), and every other benchmark matches its declared set count.
#[test]
fn constraint_set_counts_match_table_one() {
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine()).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        assert_eq!(est.sets_total as u32, b.paper.sets, "{}: total sets", b.name);
        assert_eq!(
            (est.sets_total - est.sets_pruned) as u32,
            b.paper.sets_after_prune,
            "{}: sets after pruning",
            b.name
        );
    }
}

/// Table II shape: with full annotations the path analysis is accurate —
/// small relative pessimism against the calculated bound.
#[test]
fn path_analysis_pessimism_is_small() {
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine()).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        let worst = measure(&program, machine(), &(b.worst_seeds)(), b.args_worst, true).unwrap();
        let best = measure(&program, machine(), &(b.best_seeds)(), b.args_best, false).unwrap();
        let calculated = analyzer.calculated_bound(&best.block_counts, &worst.block_counts);
        let (pl, pu) = est.bound.pessimism_against(calculated);
        assert!(pl <= 0.10, "{}: lower pessimism {pl:.3} too large", b.name);
        assert!(pu <= 0.10, "{}: upper pessimism {pu:.3} too large", b.name);
    }
}

/// Table III shape: the hardware-model pessimism against the measured
/// bound is substantially larger than the path-analysis pessimism — the
/// paper's conclusion that the simple all-miss model dominates the error.
#[test]
fn hardware_model_dominates_the_pessimism() {
    let mut any_large = false;
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let analyzer = Analyzer::new(&program, machine()).unwrap();
        let est = analyzer.analyze(&b.annotations(&program)).unwrap();
        let worst = measure(&program, machine(), &(b.worst_seeds)(), b.args_worst, true).unwrap();
        let best = measure(&program, machine(), &(b.best_seeds)(), b.args_best, false).unwrap();
        let measured = TimeBound { lower: best.cycles, upper: worst.cycles };
        let (_, pu) = est.bound.pessimism_against(measured);
        if pu > 0.3 {
            any_large = true;
        }
    }
    assert!(any_large, "expected sizeable measured-bound pessimism somewhere");
}

/// §II: on programs where the explicit walk completes, explicit and
/// implicit enumeration agree exactly; and the explicit path count grows
/// as 2^k.
#[test]
fn explicit_and_implicit_agree_and_paths_double() {
    use ipet_baseline::{diamond_chain_program, PathEnumerator};
    use ipet_cfg::Cfg;
    use ipet_hw::block_cost;
    use std::collections::HashMap;

    let mut last_paths = 0;
    for k in [1usize, 3, 5, 7, 9] {
        let program = diamond_chain_program(k);
        let cfg = Cfg::build(program.entry, program.entry_function());
        let costs: Vec<_> = cfg
            .blocks()
            .iter()
            .map(|blk| block_cost(&machine(), program.entry_function(), blk))
            .collect();
        let r = PathEnumerator::new(&cfg, &costs, &HashMap::new(), u64::MAX).unwrap().enumerate();
        assert_eq!(r.paths_explored, 1 << k);
        if last_paths > 0 {
            assert_eq!(r.paths_explored, last_paths * 4); // k steps by 2
        }
        last_paths = r.paths_explored;

        let analyzer = Analyzer::new(&program, machine()).unwrap();
        let est = analyzer.analyze("").unwrap();
        assert_eq!(Some(est.bound.upper), r.worst, "k={k}");
        assert_eq!(Some(est.bound.lower), r.best, "k={k}");
    }
}

/// The §IV cache refinement is monotone (never looser) and safe (never
/// below the simulated worst case) on every benchmark.
#[test]
fn cache_split_is_monotone_and_safe() {
    use ipet_core::CacheMode;
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let ann = b.annotations(&program);
        let base = Analyzer::new(&program, machine()).unwrap().analyze(&ann).unwrap();
        let split = Analyzer::new(&program, machine())
            .unwrap()
            .with_cache_mode(CacheMode::FirstIterSplit)
            .analyze(&ann)
            .unwrap();
        let worst = measure(&program, machine(), &(b.worst_seeds)(), b.args_worst, true).unwrap();
        assert!(split.bound.upper <= base.bound.upper, "{}", b.name);
        assert!(worst.cycles <= split.bound.upper, "{}", b.name);
        assert_eq!(split.bound.lower, base.bound.lower, "{}: BCET unaffected", b.name);
    }
}

/// The soundness containment also holds on the alternative machine
/// models: the §VII DSP3210 port and the data-cache refinement.
#[test]
fn bounds_are_safe_on_alternative_machines() {
    for m in [Machine::dsp3210(), Machine::i960kb_with_dcache()] {
        for b in ipet_suite::all() {
            let program = b.program().unwrap();
            let analyzer = Analyzer::new(&program, m).unwrap();
            let est = analyzer.analyze(&b.annotations(&program)).unwrap();
            let worst = measure(&program, m, &(b.worst_seeds)(), b.args_worst, true).unwrap();
            let best = measure(&program, m, &(b.best_seeds)(), b.args_best, false).unwrap();
            let measured = TimeBound { lower: best.cycles, upper: worst.cycles };
            assert!(est.bound.encloses(measured), "{} on {m:?}", b.name);
        }
    }
}

/// The paper's two formulations — per-call-site instances (eq. 18 style)
/// and the shared-CFG coupling `d_entry = f1 + f2 + ...` (eq. 12) — must
/// produce identical bounds whenever block costs are context-independent
/// (they always are here: cost is a function of the block alone).
#[test]
fn shared_and_per_call_site_formulations_agree() {
    use ipet_core::ContextMode;
    for b in ipet_suite::all() {
        let program = b.program().unwrap();
        let ann = b.annotations(&program);
        let per_site = Analyzer::new(&program, machine()).unwrap().analyze(&ann).unwrap();
        let shared = Analyzer::new_with_context(&program, machine(), ContextMode::Shared)
            .unwrap()
            .analyze(&ann)
            .unwrap();
        assert_eq!(per_site.bound, shared.bound, "{}", b.name);
        assert_eq!(per_site.sets_total, shared.sets_total, "{}", b.name);
        assert!(shared.total_stats().first_relaxation_integral, "{}", b.name);
    }
}
