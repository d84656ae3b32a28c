use super::plan::Split;
use super::*;
use crate::structural::structural_constraints;
use crate::vars::{VarRef, VarSpace};
use ipet_arch::{AluOp, AsmBuilder, Cond, Program, Reg};
use ipet_lp::SolverFaults;

/// `ann` planned under `budget` and run on a one-worker pool.
fn analyze_under(
    a: &Analyzer<'_>,
    ann: &str,
    budget: &AnalysisBudget,
) -> Result<Estimate, AnalysisError> {
    let plan = a.plan(&parse_annotations(ann)?, budget)?;
    SolvePool::new(1).run_plans(std::slice::from_ref(&plan), &budget.solve).estimates.remove(0)
}

/// `anns` run unbudgeted on a one-worker pool whose every fresh solve
/// starts from the `faults` template.
fn analyze_with_faults(
    a: &Analyzer<'_>,
    anns: &Annotations,
    faults: SolverFaults,
) -> Result<Estimate, AnalysisError> {
    let plan = a.plan(anns, &AnalysisBudget::unlimited())?;
    let pool = SolvePool::with_faults(1, faults);
    pool.run_plans(std::slice::from_ref(&plan), &SolveBudget::unlimited()).estimates.remove(0)
}

fn while_loop_program(n: i32) -> Program {
    let mut b = AsmBuilder::new("main");
    let head = b.fresh_label();
    let out = b.fresh_label();
    b.ldc(Reg::T0, 0);
    b.bind(head);
    b.br(Cond::Ge, Reg::T0, n, out);
    b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
    b.jmp(head);
    b.bind(out);
    b.ret();
    Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap()
}

#[test]
fn loop_bound_produces_finite_wcet() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let est = a.analyze("fn main { loop x2 in [10, 10]; }").unwrap();
    assert!(est.bound.lower > 0);
    assert!(est.bound.lower <= est.bound.upper);
    assert_eq!(est.sets_total, 1);
    assert_eq!(est.sets_pruned, 0);
    // Header executes 11 times in the worst case (10 iterations + exit test).
    let header = est.wcet_counts.iter().find(|(k, _)| k.starts_with("x2@")).unwrap();
    assert_eq!(*header.1, 11);
}

#[test]
fn missing_loop_bound_reports_unbounded() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    match a.analyze("") {
        Err(AnalysisError::Unbounded { unbounded_loops }) => {
            assert_eq!(unbounded_loops, vec!["main(B2)".to_string()]);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn loops_needing_bounds_lists_header() {
    let p = while_loop_program(4);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let loops = a.loops_needing_bounds();
    assert_eq!(loops.len(), 1);
    assert_eq!(loops[0].0, "main");
    assert_eq!(loops[0].1, BlockId(1));
}

#[test]
fn tighter_loop_bound_tightens_wcet() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let wide = a.analyze("fn main { loop x2 in [0, 100]; }").unwrap();
    let tight = a.analyze("fn main { loop x2 in [0, 10]; }").unwrap();
    assert!(tight.bound.upper < wide.bound.upper);
    assert_eq!(tight.bound.lower, wide.bound.lower);
}

#[test]
fn disjunction_doubles_sets_and_null_sets_prune() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    // x3 (the body) = 0 | x3 = 5, combined with x3 >= 1 makes the first
    // branch null.
    let est = a.analyze("fn main { loop x2 in [0, 10]; (x3 = 0) | (x3 = 5); x3 >= 1; }").unwrap();
    assert_eq!(est.sets_total, 2);
    assert_eq!(est.sets_pruned, 1);
    assert_eq!(est.sets.len(), 1);
    let body = est.wcet_counts.iter().find(|(k, _)| k.starts_with("x3@")).unwrap();
    assert_eq!(*body.1, 5);
}

#[test]
fn all_sets_null_is_an_error() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    match a.analyze("fn main { loop x2 in [0,10]; x3 = 1; x3 = 2; }") {
        Err(AnalysisError::AllSetsInfeasible { total }) => assert_eq!(total, 1),
        other => panic!("{other:?}"),
    }
}

#[test]
fn unknown_function_rejected() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    assert!(matches!(a.analyze("fn nosuch { x1 = 1; }"), Err(AnalysisError::UnknownFunction(_))));
}

#[test]
fn bad_references_rejected() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    assert!(matches!(
        a.analyze("fn main { loop x2 in [0,10]; x99 = 1; }"),
        Err(AnalysisError::BadReference { .. })
    ));
    assert!(matches!(
        a.analyze("fn main { loop x2 in [0,10]; x1.f1 = 1; }"),
        Err(AnalysisError::BadReference { .. })
    ));
    assert!(matches!(
        a.analyze("fn main { loop x1 in [0,10]; }"),
        Err(AnalysisError::NotALoopHeader { .. })
    ));
    assert!(matches!(
        a.analyze("fn main { loop x2 in [5,2]; }"),
        Err(AnalysisError::BadLoopBound { .. })
    ));
}

#[test]
fn annotation_integers_past_i64_are_errors() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let max = i64::MAX;
    for (ann, what) in [
        // Repeated terms whose coefficients sum past i64, on one side or
        // moved across.
        (format!("{max} x3 + {max} x3 <= 5"), "the summed coefficient of x3@i0"),
        (format!("{max} x3 <= -{max} x3"), "the summed coefficient of x3@i0"),
        // Constants whose difference leaves i64.
        (format!("x3 + {max} <= -{max}"), "the difference of a constraint's constants"),
    ] {
        match a.analyze(&format!("fn main {{ loop x2 in [0, 10]; {ann}; }}")) {
            Err(AnalysisError::Overflow(got)) => assert_eq!(got, format!("{what} in fn main")),
            other => panic!("{ann}: {other:?}"),
        }
    }
    // At the edge of the range, nothing overflows.
    let est = a.analyze(&format!("fn main {{ loop x2 in [0, 10]; {max} x3 - {max} x3 <= 5; }}"));
    assert!(est.is_ok(), "{est:?}");
}

#[test]
fn first_relaxation_is_integral_for_flow_problems() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let est = a.analyze("fn main { loop x2 in [1, 10]; }").unwrap();
    let stats = est.total_stats();
    assert!(stats.first_relaxation_integral, "{stats:?}");
}

#[test]
fn calls_contribute_callee_cost() {
    // main calls leaf; leaf has nontrivial cost; WCET(main) > WCET of
    // main's own blocks alone.
    let mut leaf = AsmBuilder::new("leaf");
    leaf.alu(AluOp::Div, Reg::RV, Reg::A0, 3);
    leaf.ret();
    let mut main = AsmBuilder::new("main");
    main.call(FuncId(0));
    main.ret();
    let p = Program::new(vec![leaf.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
        .unwrap();
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let est = a.analyze("").unwrap();
    // Callee blocks must appear with count 1 in the worst case.
    assert!(est.wcet_counts.keys().any(|k| k.contains("f1:leaf")));
    // And the bound exceeds the cost of main's two blocks alone.
    let main_only: u64 = (0..2).map(|b| a.block_cost(FuncId(1), BlockId(b)).worst_cold).sum();
    assert!(est.bound.upper > main_only);
}

#[test]
fn caller_scoped_constraint_pins_callee_blocks() {
    // leaf has a diamond; pin its then-branch through the caller scope.
    let mut leaf = AsmBuilder::new("leaf");
    let els = leaf.fresh_label();
    let join = leaf.fresh_label();
    leaf.br(Cond::Eq, Reg::A0, 0, els);
    leaf.ldc(Reg::RV, 1);
    leaf.jmp(join);
    leaf.bind(els);
    leaf.ldc(Reg::RV, 2);
    leaf.bind(join);
    leaf.ret();
    let mut main = AsmBuilder::new("main");
    main.call(FuncId(0));
    main.ret();
    let p = Program::new(vec![leaf.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
        .unwrap();
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    // Force the cheap arm via x-of-callee-at-site syntax.
    let est = a.analyze("fn main { x2.f1 = 0; }").unwrap();
    assert!(!est.wcet_counts.keys().any(|k| k.starts_with("x2@main/f1:leaf")));
    let est2 = a.analyze("fn main { x3.f1 = 0; }").unwrap();
    assert!(est2.bound.upper != est.bound.upper || est2.wcet_counts != est.wcet_counts);
}

#[test]
fn split_mode_tightens_loop_wcet_and_stays_above_best() {
    let p = while_loop_program(50);
    let base = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let split =
        Analyzer::new(&p, Machine::i960kb()).unwrap().with_cache_mode(CacheMode::FirstIterSplit);
    let ann = "fn main { loop x2 in [50, 50]; }";
    let e_base = base.analyze(ann).unwrap();
    let e_split = split.analyze(ann).unwrap();
    assert!(
        e_split.bound.upper < e_base.bound.upper,
        "split {} vs base {}",
        e_split.bound.upper,
        e_base.bound.upper
    );
    assert!(e_split.bound.lower == e_base.bound.lower);
    assert!(e_split.bound.lower <= e_split.bound.upper);
}

#[test]
fn wcet_contributions_sum_to_the_bound() {
    // A caller + callee: the breakdown must cover the whole WCET and
    // attribute nonzero cycles to both instances.
    let mut leaf = AsmBuilder::new("leaf");
    leaf.alu(AluOp::Div, Reg::RV, Reg::A0, 3);
    leaf.ret();
    let mut main = AsmBuilder::new("main");
    main.call(FuncId(0));
    main.ret();
    let p = Program::new(vec![leaf.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
        .unwrap();
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let est = a.analyze("").unwrap();
    let total: u64 = est.wcet_contributions.values().sum();
    assert_eq!(total, est.bound.upper);
    assert!(est.wcet_contributions.contains_key("main"));
    assert!(est.wcet_contributions.contains_key("main/f1:leaf"));
    assert!(est.render().contains("WCET contribution"));
}

#[test]
fn contributions_sum_under_cache_split_too() {
    let p = while_loop_program(50);
    let a =
        Analyzer::new(&p, Machine::i960kb()).unwrap().with_cache_mode(CacheMode::FirstIterSplit);
    let est = a.analyze("fn main { loop x2 in [50, 50]; }").unwrap();
    let total: u64 = est.wcet_contributions.values().sum();
    assert_eq!(total, est.bound.upper);
}

#[test]
fn sensitivity_prices_one_extra_iteration() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let ann = "fn main { loop x2 in [10, 10]; }";
    let sens = a.wcet_sensitivity(ann).unwrap();
    assert_eq!(sens.len(), 1);
    let (func, _, hi, delta) = &sens[0];
    assert_eq!(func, "main");
    assert_eq!(*hi, 10);
    // One more iteration costs one header + one body execution.
    let header = a.block_cost(FuncId(0), BlockId(1)).worst_cold as i64;
    let body = a.block_cost(FuncId(0), BlockId(2)).worst_cold as i64;
    assert_eq!(*delta, header + body);
}

#[test]
fn loop_bounded_structural_ilp_has_an_integral_first_relaxation() {
    // The §III-D point: the structural system is network-like, and a loop
    // bound's 10-coefficient breaks that shape — yet the relaxation stays
    // integral in practice.
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let space = VarSpace::new(&a.instances);
    let structural = structural_constraints(&a.instances);
    let bound = a
        .resolve_loop(
            ipet_cfg::InstanceId(0),
            &crate::dsl::Ref { kind: crate::dsl::RefKind::X, index: 2, path: vec![] },
            1,
            10,
            &mut HashSet::new(),
        )
        .unwrap();
    let worst = a.objective(&space, Sense::Maximize, &Split::default());
    let with_bound = a.assemble(&space, Sense::Maximize, &worst, &[&structural, &bound]).unwrap();
    let (_, stats) = ipet_lp::solve_ilp(&with_bound);
    assert!(stats.first_relaxation_integral);
}

#[test]
fn time_bound_helpers() {
    let outer = TimeBound { lower: 10, upper: 100 };
    let inner = TimeBound { lower: 20, upper: 80 };
    assert!(outer.encloses(inner));
    assert!(!inner.encloses(outer));
    let (lo, hi) = outer.pessimism_against(inner);
    assert!((lo - 0.5).abs() < 1e-9);
    assert!((hi - 0.25).abs() < 1e-9);
}

// -- plan hashes, covers and job problems ---------------------------------

/// The rows `job` adds to its sense's cover, after checking that its
/// problem starts with the cover and is keyed by its own fingerprint.
fn extra_rows(plan: &AnalysisPlan, job: &IlpJob) -> usize {
    let cover = plan.cover(job.problem.sense);
    let n = cover.constraints.len();
    assert_eq!(job.problem.constraints[..n], cover.constraints[..]);
    assert_eq!((&job.problem.objective, &job.problem.integer), (&cover.objective, &cover.integer));
    assert_eq!(job.key, ipet_lp::fingerprint(&job.problem));
    job.problem.constraints.len() - n
}

#[test]
fn job_problems_extend_their_covers() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let anns = parse_annotations("fn main { loop x2 in [0, 10]; (x3 = 1) | (x3 = 3) | (x3 = 5); }")
        .unwrap();
    let plan = a.plan(&anns, &AnalysisBudget::unlimited()).unwrap();
    assert_eq!(plan.num_sets(), 3);
    for job in plan.jobs() {
        // Each set adds only its disjunct row, never the structural or
        // common ones.
        assert_eq!(extra_rows(&plan, job), 1);
    }
    // Jobs alternate max/min, and each sense has its own cover.
    for (i, job) in plan.jobs().iter().enumerate() {
        assert_eq!(job.problem.sense, if i % 2 == 0 { Sense::Maximize } else { Sense::Minimize });
        assert_eq!(plan.cover(job.problem.sense).sense, job.problem.sense);
    }
}

#[test]
fn reported_block_counts_are_labelled_by_the_space() {
    let p = while_loop_program(10);
    for mode in [CacheMode::AllMiss, CacheMode::FirstIterSplit] {
        let a = Analyzer::new(&p, Machine::i960kb()).unwrap().with_cache_mode(mode);
        let anns =
            parse_annotations("fn main { loop x2 in [0, 10]; (x3 = 1) | (x3 = 3); }").unwrap();
        let plan = a.plan(&anns, &AnalysisBudget::unlimited()).unwrap();
        assert_eq!(plan.worst.len(), plan.space.len());
        for cover in &plan.covers {
            assert_eq!(cover.num_vars(), plan.space.len(), "{mode:?}");
        }
        let est = a.analyze_parsed(&anns).unwrap();
        assert!(!est.wcet_counts.is_empty(), "{mode:?}");
        for (label, &count) in &est.wcet_counts {
            assert_ne!(count, 0, "{label}");
            let var = plan.space.iter().map(|(_, r)| r).find(|&r| plan.space.label(r) == *label);
            assert!(matches!(var, Some(VarRef::Block(..))), "{label} is a block of the space");
        }
    }
}

#[test]
fn audited_pool_runs_match_analyze_and_certify() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    for ann in [
        "fn main { loop x2 in [0, 10]; }",
        "fn main { loop x2 in [0, 10]; (x3 = 1) | (x3 = 3) | (x3 = 5); }",
        "fn main { loop x2 in [0, 10]; (x3 = 0) | (x3 = 5); x3 >= 1; }",
    ] {
        let est = a.analyze(ann).unwrap();
        let plan = a.plan(&parse_annotations(ann).unwrap(), &AnalysisBudget::unlimited()).unwrap();
        let budget = SolveBudget::unlimited();
        let (audited_est, audit) =
            SolvePool::new(1).run_plans_audited(&[plan], &budget).results.remove(0).unwrap();
        assert_eq!(audited_est, est, "the audit changed the estimate for {ann}");
        assert!(audit.all_certified());
        assert_eq!(audit.rejected(), 0);
    }
}

#[test]
fn duplicate_delta_rows_are_deduplicated() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    // The first disjunct repeats the common row `x3 >= 1` verbatim: it
    // must dedup away (the set's problem IS the cover), while
    // the second disjunct keeps its one genuine row.
    let anns = parse_annotations("fn main { loop x2 in [0, 10]; x3 >= 1; (x3 >= 1) | (x3 = 5); }")
        .unwrap();
    let plan = a.plan(&anns, &AnalysisBudget::unlimited()).unwrap();
    assert_eq!(plan.num_sets(), 2);
    let mut extra: Vec<usize> = plan
        .jobs()
        .iter()
        .filter(|j| j.problem.sense == Sense::Maximize)
        .map(|j| extra_rows(&plan, j))
        .collect();
    extra.sort_unstable();
    assert_eq!(extra, vec![0, 1]);
    // The deduplicated plan still folds both sets.
    let est = a.analyze("fn main { loop x2 in [0, 10]; x3 >= 1; (x3 >= 1) | (x3 = 5); }").unwrap();
    assert_eq!(est.sets.len(), 2);
}

#[test]
fn single_set_plans_are_their_covers() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let anns = parse_annotations("fn main { loop x2 in [0, 10]; }").unwrap();
    let plan = a.plan(&anns, &AnalysisBudget::unlimited()).unwrap();
    assert_eq!(plan.num_sets(), 1);
    for job in plan.jobs() {
        // No disjunctions → every row is common → the set's problem is the
        // cover itself.
        assert_eq!(extra_rows(&plan, job), 0);
        assert_eq!(&job.problem, plan.cover(job.problem.sense));
    }
}

// -- budgets, degradation, fault injection ------------------------------

#[test]
fn roomy_budget_matches_default_analysis_exactly() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let ann = "fn main { loop x2 in [0, 10]; }";
    let plain = a.analyze(ann).unwrap();
    let budgeted = analyze_under(&a, ann, &AnalysisBudget::unlimited()).unwrap();
    assert_eq!(plain.bound, budgeted.bound);
    assert_eq!(budgeted.quality, BoundQuality::Exact);
    assert_eq!(budgeted.sets_skipped, 0);
    assert!(budgeted.degraded_sets.is_empty());
}

#[test]
fn fractional_root_under_node_budget_degrades_to_relaxed() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    // `2*x3 <= 7` puts the LP optimum at x3 = 3.5, forcing real
    // branching; one node is not enough to close the tree.
    let ann = "fn main { loop x2 in [0, 10]; 2*x3 <= 7; }";
    let exact = a.analyze(ann).unwrap();
    assert_eq!(exact.quality, BoundQuality::Exact);

    let mut budget = AnalysisBudget::unlimited();
    budget.solve.max_nodes = 1;
    let degraded = analyze_under(&a, ann, &budget).unwrap();
    assert_eq!(degraded.quality, BoundQuality::Relaxed);
    assert!(!degraded.degraded_sets.is_empty());
    // The relaxed bound must stay safe: at least as wide as the truth.
    assert!(degraded.bound.upper >= exact.bound.upper);
    assert!(degraded.bound.lower <= exact.bound.lower);
    assert!(degraded.render().contains("bound quality: relaxed"));
}

#[test]
fn zero_tick_deadline_skips_sets_but_still_bounds_safely() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let ann = "fn main { loop x2 in [0, 10]; (x3 = 0) | (x3 = 5); }";
    let exact = a.analyze(ann).unwrap();

    let mut budget = AnalysisBudget::unlimited();
    budget.solve.deadline_ticks = Some(0);
    let partial = analyze_under(&a, ann, &budget).unwrap();
    assert_eq!(partial.quality, BoundQuality::Partial);
    assert!(partial.sets_skipped > 0);
    // The cover relaxation (structural + loop bound) encloses every
    // skipped set's attainable range.
    assert!(partial.bound.encloses(exact.bound));
    assert!(partial.render().contains("sets skipped on budget exhaustion"));
}

#[test]
fn no_degrade_surfaces_budget_exhausted() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let mut budget = AnalysisBudget::unlimited();
    budget.solve.deadline_ticks = Some(0);
    budget.degrade = false;
    match analyze_under(&a, "fn main { loop x2 in [0, 10]; }", &budget) {
        Err(AnalysisError::BudgetExhausted) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn no_degrade_rejects_relaxed_set_bounds_too() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let mut budget = AnalysisBudget::unlimited();
    budget.solve.max_nodes = 1;
    budget.degrade = false;
    match analyze_under(&a, "fn main { loop x2 in [0, 10]; 2*x3 <= 7; }", &budget) {
        Err(AnalysisError::SolverLimit) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn injected_node_fault_cascades_to_a_safe_partial_bound() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let anns = parse_annotations("fn main { loop x2 in [0, 10]; }").unwrap();
    let exact = a.analyze_parsed(&anns).unwrap();

    // Kill the very first branch-and-bound expansion: the WCET solve
    // comes back `Exhausted`, the set is skipped, and the cover
    // relaxation must still produce an enclosing bound.
    let est = analyze_with_faults(&a, &anns, SolverFaults::limit_at(0)).unwrap();
    assert_eq!(est.quality, BoundQuality::Partial);
    assert_eq!(est.sets_skipped, 1);
    assert!(est.bound.encloses(exact.bound));
}

#[test]
fn injected_lp_infeasibility_never_panics() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let anns = parse_annotations("fn main { loop x2 in [0, 10]; }").unwrap();
    // Forcing "infeasible" on an actually-feasible set silently drops
    // it from the max/min — every set gone means AllSetsInfeasible,
    // never a panic.
    for idx in 0..4 {
        let _ = analyze_with_faults(&a, &anns, SolverFaults::infeasible_at(idx));
    }
    // Forcing a numerical LP failure at the root surfaces as the
    // typed Numerical error.
    match analyze_with_faults(&a, &anns, SolverFaults::numerical_at(0)) {
        Err(AnalysisError::Numerical) => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn dnf_cap_drops_disjunctions_and_reports_partial() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let ann = "fn main { loop x2 in [0, 10]; (x3 = 0) | (x3 = 5); }";
    let exact = a.analyze(ann).unwrap();
    assert_eq!(exact.sets_total, 2);

    let mut budget = AnalysisBudget::unlimited();
    budget.max_sets = 1; // 2 sets blow the cap
    let partial = analyze_under(&a, ann, &budget).unwrap();
    assert_eq!(partial.quality, BoundQuality::Partial);
    // Dropping the disjunction relaxes the model in both senses.
    assert!(partial.bound.encloses(exact.bound));

    budget.degrade = false;
    match analyze_under(&a, ann, &budget) {
        Err(e @ AnalysisError::TooManySets { sets: 2, cap: 1 }) => {
            assert!(e.to_string().contains("2 constraint sets, over the cap of 1"), "{e}")
        }
        other => panic!("{other:?}"),
    }
}

/// The set count is taken from the parsed statements before any is
/// expanded, so neither a product that overflows `usize` nor one huge
/// statement is ever built.
#[test]
fn set_counts_saturate_and_blow_ups_are_never_expanded() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let exact = a.analyze("fn main { loop x2 in [0, 10]; }").unwrap();
    let statements =
        format!("fn main {{ loop x2 in [0, 10]; {} }}", "x1 >= 0 | x3 >= 0; ".repeat(64));
    let product = format!(
        "fn main {{ loop x2 in [0, 10]; {}; }}",
        vec!["(x1 >= 0 | x3 >= 0)"; 40].join(" & ")
    );
    for (ann, sets) in [(&statements, usize::MAX), (&product, 1 << 40)] {
        let est = a.analyze(ann).unwrap();
        assert_eq!((est.sets_total, est.quality), (sets, BoundQuality::Partial));
        assert!(est.bound.encloses(exact.bound));
        let mut budget = AnalysisBudget::unlimited();
        budget.degrade = false;
        match analyze_under(&a, ann, &budget) {
            Err(AnalysisError::TooManySets { sets: s, cap }) => {
                assert_eq!((s, cap), (sets, AnalysisBudget::DEFAULT_MAX_SETS))
            }
            other => panic!("{other:?}"),
        }
    }
    // 16 sets sit at a cap of 16 and are all planned; a cap of 15 drops
    // the disjunctions.
    let at_cap = format!("fn main {{ loop x2 in [0, 10]; {} }}", "x1 >= 0 | x3 >= 0; ".repeat(4));
    let mut budget = AnalysisBudget::unlimited();
    budget.max_sets = 16;
    let plan = a.plan(&parse_annotations(&at_cap).unwrap(), &budget).unwrap();
    assert_eq!(plan.num_sets(), 16);
    budget.max_sets = 15;
    let plan = a.plan(&parse_annotations(&at_cap).unwrap(), &budget).unwrap();
    assert_eq!(plan.num_sets(), 1);
}

#[test]
fn a_dropped_statement_still_resolves_its_references() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let mut budget = AnalysisBudget::unlimited();
    budget.max_sets = 1;
    let ann = "fn main { loop x2 in [0, 10]; x3 = 0 | (x1 = 1 & x99 = 0); }";
    match analyze_under(&a, ann, &budget) {
        Err(AnalysisError::BadReference { reference, .. }) => assert_eq!(reference, "x99"),
        other => panic!("{other:?}"),
    }
    // With several bad references, a dropped statement reports the first
    // one as written (x99), not the first one of its DNF expansion (x98).
    let ann = "fn main { loop x2 in [0, 10]; (x1 = 0 | x99 = 0) & x98 = 0; }";
    match analyze_under(&a, ann, &budget) {
        Err(AnalysisError::BadReference { reference, .. }) => assert_eq!(reference, "x99"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn wcet_formula_replays_concrete_bound_and_predicts_sweeps() {
    let p = while_loop_program(10);
    let ann = "fn main { loop x2 in [10, 10]; }";
    let base_machine = Machine::i960kb();
    let a = Analyzer::new(&p, base_machine).unwrap();
    let est = a.analyze(ann).unwrap();
    let formula = est.wcet_formula.as_ref().expect("exact analysis yields a formula");
    // Replaying at the machine's own point reproduces the bound exactly.
    assert_eq!(formula.eval(&base_machine.param_point()), Some(est.bound.upper as i128));
    // This single-line program has one optimal path for every penalty, so
    // the formula predicts the whole miss-penalty sweep bit for bit.
    for mp in [0u64, 2, 4, 8, 16, 32] {
        let m = Machine { miss_penalty: mp, ..base_machine };
        let swept = Analyzer::new(&p, m).unwrap().analyze(ann).unwrap();
        assert_eq!(
            formula.eval(&m.param_point()),
            Some(swept.bound.upper as i128),
            "miss_penalty = {mp}"
        );
    }
}

#[test]
fn wcet_formula_survives_cache_split_objective() {
    let p = while_loop_program(50);
    let machine = Machine::i960kb();
    let a = Analyzer::new(&p, machine).unwrap().with_cache_mode(CacheMode::FirstIterSplit);
    let est = a.analyze("fn main { loop x2 in [50, 50]; }").unwrap();
    let formula = est.wcet_formula.as_ref().expect("split analysis yields a formula");
    assert_eq!(formula.eval(&machine.param_point()), Some(est.bound.upper as i128));
    // Under the split, only first iterations pay the miss penalty: the
    // slope must be strictly smaller than the all-miss slope.
    let all_miss = Analyzer::new(&p, machine).unwrap();
    let am = all_miss.analyze("fn main { loop x2 in [50, 50]; }").unwrap();
    let am_formula = am.wcet_formula.as_ref().unwrap();
    assert!(formula.coeff(ipet_hw::P_MISS) < am_formula.coeff(ipet_hw::P_MISS));
}

#[test]
fn dcache_formula_charges_loads_and_reproduces_the_bound() {
    let bench = ipet_suite::by_name("check_data").unwrap();
    let p = bench.program().unwrap();
    let ann = bench.annotations(&p);
    let machine = Machine::i960kb_with_dcache();
    let mut miss_slopes = Vec::new();
    for mode in [CacheMode::AllMiss, CacheMode::FirstIterSplit] {
        let a = Analyzer::new(&p, machine).unwrap().with_cache_mode(mode);
        let est = a.analyze(&ann).unwrap();
        let formula = est.wcet_formula.as_ref().expect("exact analysis yields a formula");
        assert!(formula.coeff(ipet_hw::P_DMISS) > 0, "{mode:?}: {formula}");
        assert_eq!(formula.eval(&machine.param_point()), Some(est.bound.upper as i128), "{mode:?}");
        miss_slopes.push(formula.coeff(ipet_hw::P_MISS));
    }
    // The split moves later iterations onto warm costs.
    assert!(miss_slopes[1] < miss_slopes[0], "{miss_slopes:?}");
}

#[test]
fn degraded_analysis_reports_no_formula() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let ann = "fn main { loop x2 in [0, 10]; (x3 = 0) | (x3 = 5); }";
    let mut budget = AnalysisBudget::unlimited();
    budget.max_sets = 1;
    let partial = analyze_under(&a, ann, &budget).unwrap();
    assert_eq!(partial.quality, BoundQuality::Partial);
    assert!(partial.wcet_formula.is_none(), "non-exact bounds must not claim a formula");
}

#[test]
fn loop_model_replays_concrete_bound_at_annotated_point() {
    let p = while_loop_program(10);
    let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
    let ann = "fn main { loop x2 in [10, 10]; }";
    let est = a.analyze(ann).unwrap();
    let model = a.wcet_loop_model(ann).unwrap();
    // Evaluating the symbolic model at the annotated bound reproduces the
    // concrete WCET exactly.
    let mut point = ipet_hw::ParamPoint::new();
    point.insert("bound.main.x2".into(), 10);
    assert_eq!(model.eval(&point), Some(est.bound.upper as i128));
    // The symbol carries the finite-difference slope: one more iteration
    // moves the model by exactly the sensitivity delta.
    let slope = model.coeff("bound.main.x2");
    assert!(slope > 0, "a bounded loop must have positive marginal cost");
    point.insert("bound.main.x2".into(), 11);
    let wider = a.analyze("fn main { loop x2 in [10, 11]; }").unwrap();
    assert_eq!(model.eval(&point), Some(wider.bound.upper as i128));
}
