//! Property tests on CFG construction over randomly generated structured
//! code (built with the mini-C compiler so the CFGs are realistic).

use ipet_cfg::{BlockId, Cfg, EdgeId, EdgeKind, Instances};
use ipet_lang::{BinOp, Expr, ExprKind, FuncDecl, Item, Module, Stmt};
use proptest::prelude::*;

fn num(n: i64) -> Expr {
    Expr { kind: ExprKind::Num(n), line: 1 }
}

fn var(name: &str) -> Expr {
    Expr { kind: ExprKind::Var(name.into()), line: 1 }
}

fn binop(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr { kind: ExprKind::Binary(op, Box::new(l), Box::new(r)), line: 1 }
}

/// Random structured statements: assignments, if/else, bounded whiles.
fn arb_stmts() -> impl Strategy<Value = Vec<Stmt>> {
    let assign = (1i64..20).prop_map(|n| Stmt::Assign {
        name: "t".into(),
        value: binop(BinOp::Add, var("t"), num(n)),
        line: 1,
    });
    let stmt = assign.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            (
                -5i64..5,
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..2),
            )
                .prop_map(|(k, t, e)| Stmt::If {
                    cond: binop(BinOp::Lt, var("a"), num(k)),
                    then_branch: t,
                    else_branch: e,
                    line: 1,
                }),
            (1i64..4, prop::collection::vec(inner, 1..2)).prop_map(|(k, body)| {
                // while (t < k) { body; t = t + 1 } — always terminates.
                let mut b = body;
                b.push(Stmt::Assign {
                    name: "t".into(),
                    value: binop(BinOp::Add, var("t"), num(1)),
                    line: 1,
                });
                Stmt::While { cond: binop(BinOp::Lt, var("t"), num(k)), body: b, line: 1 }
            }),
        ]
    });
    prop::collection::vec(stmt, 1..5)
}

fn cfg_of(body: Vec<Stmt>) -> (ipet_arch::Program, Cfg) {
    let mut stmts = vec![Stmt::Decl { name: "t".into(), init: Some(num(0)), line: 1 }];
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
    let program = ipet_lang::compile_module(&module, "f").expect("compiles");
    let cfg = Cfg::build(program.entry, program.entry_function());
    (program, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structural invariants: blocks partition the reachable instructions,
    /// edges reference valid blocks, the entry edge is unique, exit edges
    /// leave `ret` blocks only.
    #[test]
    fn cfg_wellformedness(body in arb_stmts()) {
        let (program, cfg) = cfg_of(body);
        let f = program.entry_function();

        // Blocks are non-empty, ordered, disjoint.
        let mut prev_end = 0;
        for b in cfg.blocks() {
            prop_assert!(b.start < b.end);
            prop_assert!(b.start >= prev_end);
            prop_assert!(b.end <= f.instrs.len());
            prev_end = b.end;
        }

        // Exactly one entry edge, pointing at the entry block.
        let entries: Vec<_> = cfg.edges().iter().filter(|e| e.kind == EdgeKind::Entry).collect();
        prop_assert_eq!(entries.len(), 1);
        prop_assert_eq!(entries[0].to, Some(cfg.entry()));

        // Edge endpoints are valid; exit edges come from ret blocks.
        for e in cfg.edges() {
            if let Some(from) = e.from {
                prop_assert!(from.0 < cfg.num_blocks());
            }
            if let Some(to) = e.to {
                prop_assert!(to.0 < cfg.num_blocks());
            }
            if e.kind == EdgeKind::Exit {
                let from = e.from.unwrap();
                let last = f.instrs[cfg.blocks()[from.0].end - 1];
                prop_assert!(matches!(last, ipet_arch::Instr::Ret));
            }
        }

        // Every block is reachable from the entry (construction drops the
        // rest): walk successors.
        let mut seen = vec![false; cfg.num_blocks()];
        let mut stack = vec![cfg.entry()];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b.0], true) {
                continue;
            }
            stack.extend(cfg.successors(b));
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Dominator sanity: the entry dominates everything; loop headers
    /// dominate their bodies; bodies contain all back-edge sources.
    #[test]
    fn loops_and_dominators(body in arb_stmts()) {
        let (_p, cfg) = cfg_of(body);
        let dom = cfg.dominators();
        for b in 0..cfg.num_blocks() {
            prop_assert!(dom.dominates(cfg.entry(), BlockId(b)));
        }
        for l in cfg.loops() {
            prop_assert!(l.contains(l.header));
            for &b in &l.body {
                prop_assert!(dom.dominates(l.header, b), "header dominates body");
            }
            for e in &l.back_edges {
                let from = cfg.edges()[e.0].from.unwrap();
                prop_assert!(l.contains(from), "latches live inside the loop");
                prop_assert_eq!(cfg.edges()[e.0].to, Some(l.header));
            }
            // Entry edges come from outside the loop (or the entry edge).
            for e in &l.entry_edges {
                if let Some(from) = cfg.edges()[e.0].from {
                    prop_assert!(!l.contains(from));
                }
            }
        }
    }

    /// The adjacency built once in `Cfg::build` equals a brute-force filter
    /// over `edges`, in edge-index order. Row term order — and with it every
    /// pinned ILP fingerprint — depends on that order.
    #[test]
    fn adjacency_matches_edge_filter(body in arb_stmts()) {
        let (_p, cfg) = cfg_of(body);
        let ids = || cfg.edges().iter().enumerate().map(|(i, e)| (EdgeId(i), e));
        for b in (0..cfg.num_blocks()).map(BlockId) {
            let ins: Vec<EdgeId> = ids().filter(|(_, e)| e.to == Some(b)).map(|(i, _)| i).collect();
            let outs: Vec<EdgeId> =
                ids().filter(|(_, e)| e.from == Some(b)).map(|(i, _)| i).collect();
            let preds: Vec<BlockId> =
                cfg.edges().iter().filter(|e| e.to == Some(b)).filter_map(|e| e.from).collect();
            let succs: Vec<BlockId> =
                cfg.edges().iter().filter(|e| e.from == Some(b)).filter_map(|e| e.to).collect();
            prop_assert_eq!(cfg.in_edges(b), ins.as_slice());
            prop_assert_eq!(cfg.out_edges(b), outs.as_slice());
            prop_assert_eq!(cfg.predecessors(b), preds.as_slice());
            prop_assert_eq!(cfg.successors(b), succs.as_slice());
        }
    }

    /// Instance expansion on call-free programs is a single instance whose
    /// variable counts match the CFG.
    #[test]
    fn single_function_expansion(body in arb_stmts()) {
        let (program, cfg) = cfg_of(body);
        let inst = Instances::expand(&program, program.entry).unwrap();
        prop_assert_eq!(inst.len(), 1);
        prop_assert_eq!(inst.cfg(inst.root()).num_blocks(), cfg.num_blocks());
        prop_assert_eq!(inst.cfg(inst.root()).num_edges(), cfg.num_edges());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dominators against the definition: `a` dominates `b` iff removing
    /// `a` makes `b` unreachable from the entry.
    #[test]
    fn dominators_match_reachability_definition(body in arb_stmts()) {
        let (_p, cfg) = cfg_of(body);
        let dom = cfg.dominators();
        let reachable_without = |banned: BlockId| -> Vec<bool> {
            let mut seen = vec![false; cfg.num_blocks()];
            if banned == cfg.entry() {
                return seen;
            }
            let mut stack = vec![cfg.entry()];
            while let Some(b) = stack.pop() {
                if b == banned || std::mem::replace(&mut seen[b.0], true) {
                    continue;
                }
                stack.extend(cfg.successors(b));
            }
            seen
        };
        for a in 0..cfg.num_blocks() {
            let reach = reachable_without(BlockId(a));
            for (b, &reached) in reach.iter().enumerate() {
                if a == b {
                    continue;
                }
                prop_assert_eq!(
                    dom.dominates(BlockId(a), BlockId(b)),
                    !reached,
                    "a=B{} b=B{}", a + 1, b + 1
                );
            }
        }
    }
}
