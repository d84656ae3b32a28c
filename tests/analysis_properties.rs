//! Cross-crate property tests: on randomly generated programs, the ILP
//! formulation must agree exactly with explicit path enumeration, and
//! simulated runs must always land inside the estimated bound.

use ipet_baseline::PathEnumerator;
use ipet_cfg::Cfg;
use ipet_core::Analyzer;
use ipet_hw::{block_cost, Machine};
use ipet_lang::{BinOp, Expr, ExprKind, FuncDecl, Item, Module, Stmt};
use ipet_sim::{SimConfig, Simulator};
use proptest::prelude::*;
use std::collections::HashMap;

fn num(n: i64) -> Expr {
    Expr { kind: ExprKind::Num(n), line: 1 }
}

fn var(name: &str) -> Expr {
    Expr { kind: ExprKind::Var(name.into()), line: 1 }
}

fn binop(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr { kind: ExprKind::Binary(op, Box::new(l), Box::new(r)), line: 1 }
}

/// A random loop-free statement tree over locals `a` (the argument) and
/// `t` (scratch): arithmetic assignments and nested if/else.
fn arb_stmts() -> impl Strategy<Value = Vec<Stmt>> {
    let assign = (
        0i64..50,
        prop_oneof![Just(BinOp::Add), Just(BinOp::Sub), Just(BinOp::Mul), Just(BinOp::Div)],
    )
        .prop_map(|(n, op)| Stmt::Assign {
            name: "t".into(),
            value: binop(op, var("t"), num(n + 1)),
            line: 1,
        });
    let stmt = assign.prop_recursive(3, 24, 4, |inner| {
        (
            -10i64..10,
            prop_oneof![Just(BinOp::Lt), Just(BinOp::Eq), Just(BinOp::Ge)],
            prop::collection::vec(inner.clone(), 1..3),
            prop::collection::vec(inner, 0..3),
        )
            .prop_map(|(threshold, cmp, then_branch, else_branch)| Stmt::If {
                cond: binop(cmp, var("a"), num(threshold)),
                then_branch,
                else_branch,
                line: 1,
            })
    });
    prop::collection::vec(stmt, 1..6)
}

fn program_of(body: Vec<Stmt>) -> ipet_arch::Program {
    let mut stmts = vec![Stmt::Decl { name: "t".into(), init: Some(num(1)), line: 1 }];
    stmts.extend(body);
    stmts.push(Stmt::Return { value: Some(var("t")), line: 1 });
    let module = Module {
        items: vec![Item::Func(FuncDecl {
            name: "f".into(),
            params: vec!["a".into()],
            body: stmts,
            line: 1,
        })],
    };
    ipet_lang::compile_module(&module, "f").expect("generated program compiles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §II equivalence: on loop-free programs, IPET's implicit bound equals
    /// the explicit enumeration over all paths — both directions.
    #[test]
    fn implicit_equals_explicit_on_random_programs(body in arb_stmts()) {
        let program = program_of(body);
        let machine = Machine::i960kb();
        let cfg = Cfg::build(program.entry, program.entry_function());
        let costs: Vec<_> = cfg
            .blocks()
            .iter()
            .map(|b| block_cost(&machine, program.entry_function(), b))
            .collect();
        let explicit = PathEnumerator::new(&cfg, &costs, &HashMap::new(), 1_000_000)
            .unwrap()
            .enumerate();
        prop_assume!(!explicit.truncated);

        let analyzer = Analyzer::new(&program, machine).unwrap();
        let est = analyzer.analyze("").unwrap();
        prop_assert_eq!(Some(est.bound.upper), explicit.worst);
        prop_assert_eq!(Some(est.bound.lower), explicit.best);
        prop_assert!(est.total_stats().first_relaxation_integral);
    }

    /// Soundness under random inputs: every simulated run of a random
    /// program lands inside the estimated bound.
    #[test]
    fn random_runs_stay_inside_the_bound(
        body in arb_stmts(),
        inputs in prop::collection::vec(-20i32..20, 1..8),
    ) {
        let program = program_of(body);
        let machine = Machine::i960kb();
        let analyzer = Analyzer::new(&program, machine).unwrap();
        let est = analyzer.analyze("").unwrap();
        for a in inputs {
            // Worst-case protocol: cold cache, like the static worst case.
            let mut sim = Simulator::new(&program, machine, SimConfig::default());
            let r = sim.run(&[a]).unwrap();
            prop_assert!(
                est.bound.lower <= r.cycles && r.cycles <= est.bound.upper,
                "a={a}: {} outside [{}, {}]",
                r.cycles,
                est.bound.lower,
                est.bound.upper
            );
        }
    }
}

/// Soundness of `check_data`'s published bound over many random data sets.
#[test]
fn check_data_bound_holds_for_random_data() {
    use rand::{Rng, SeedableRng};
    let b = ipet_suite::by_name("check_data").unwrap();
    let program = b.program().unwrap();
    let machine = Machine::i960kb();
    let analyzer = Analyzer::new(&program, machine).unwrap();
    let est = analyzer.analyze(&b.annotations(&program)).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC1DE);
    for _ in 0..200 {
        let data: Vec<i32> = (0..10).map(|_| rng.gen_range(-3..50)).collect();
        let mut sim = Simulator::new(&program, machine, SimConfig::default());
        sim.seed_global("data", &data).unwrap();
        let r = sim.run(&[]).unwrap();
        assert!(
            est.bound.lower <= r.cycles && r.cycles <= est.bound.upper,
            "data {data:?}: {} outside {:?}",
            r.cycles,
            est.bound
        );
    }
}

/// The same soundness sweep for `piksrt` over random permutations.
#[test]
fn piksrt_bound_holds_for_random_permutations() {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let b = ipet_suite::by_name("piksrt").unwrap();
    let program = b.program().unwrap();
    let machine = Machine::i960kb();
    let analyzer = Analyzer::new(&program, machine).unwrap();
    let est = analyzer.analyze(&b.annotations(&program)).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x50FF);
    for _ in 0..100 {
        let mut data: Vec<i32> = (0..10).collect();
        data.shuffle(&mut rng);
        let mut sim = Simulator::new(&program, machine, SimConfig::default());
        sim.seed_global("arr", &data).unwrap();
        let r = sim.run(&[]).unwrap();
        assert!(
            est.bound.lower <= r.cycles && r.cycles <= est.bound.upper,
            "perm {data:?}: {} outside {:?}",
            r.cycles,
            est.bound
        );
    }
}
