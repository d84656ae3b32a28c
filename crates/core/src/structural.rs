//! Automatic extraction of the paper's structural constraints.
//!
//! For every instance and every basic block `B_i`:
//!
//! ```text
//! x_i = Σ d_in   and   x_i = Σ d_out
//! ```
//!
//! plus the source condition `d1 = 1` for the analysed routine, and for
//! every callee instance the `f`-edge coupling: the callee's entry edge
//! count equals the flow on the caller's `f`-edge (paper equation (12),
//! specialised to per-call-site instances).

use crate::lincon::LinCon;
use crate::vars::{VarRef, VarSpace};
use ipet_audit::{FlowNode, FlowSpec};
use ipet_cfg::{BlockId, EdgeId, InstanceId, Instances};

/// Derives all structural constraints of an instance-expanded program.
pub fn structural_constraints(instances: &Instances) -> Vec<LinCon> {
    // Shared formulation: the f-edges targeting each function, in
    // instance then call-site order, gathered in one pass.
    let mut f_edges: Vec<Vec<VarRef>> = Vec::new();
    if instances.shared {
        f_edges.resize(instances.cfgs.len(), Vec::new());
        for (g, ginst) in instances.instances.iter().enumerate() {
            let gcfg = &instances.cfgs[ginst.func.0];
            for &(site, _, _, callee) in gcfg.call_sites() {
                let (f_edge, _) = gcfg.call_edge(site).expect("site enumerated from CFG");
                f_edges[callee.0].push(VarRef::Edge(InstanceId(g), f_edge));
            }
        }
    }
    let mut out = Vec::new();
    for i in 0..instances.len() {
        let inst = InstanceId(i);
        let cfg = instances.cfg(inst);

        // Flow conservation at every block.
        for b in 0..cfg.num_blocks() {
            let block = BlockId(b);
            let x = VarRef::Block(inst, block);
            let mut in_terms = vec![(x, 1)];
            for &e in cfg.in_edges(block) {
                in_terms.push((VarRef::Edge(inst, e), -1));
            }
            out.push(LinCon::eq(in_terms, 0));

            let mut out_terms = vec![(x, 1)];
            for &e in cfg.out_edges(block) {
                out_terms.push((VarRef::Edge(inst, e), -1));
            }
            out.push(LinCon::eq(out_terms, 0));
        }

        // Entry condition.
        if instances.shared {
            if i == 0 {
                // The analysed routine runs once (paper eq. 13).
                out.push(LinCon::eq(vec![(VarRef::Edge(inst, EdgeId(0)), 1)], 1));
            } else {
                // The paper's eq. (12): the callee's entry flow is the sum
                // of every f-edge in the program that targets it.
                let me = instances.instances[i].func;
                let mut terms = vec![(VarRef::Edge(inst, EdgeId(0)), 1)];
                terms.extend(f_edges[me.0].iter().map(|&f| (f, -1)));
                out.push(LinCon::eq(terms, 0));
            }
            continue;
        }
        match instances.instances[i].parent {
            None => {
                // d1 = 1 — the analysed routine runs once (paper eq. 13).
                out.push(LinCon::eq(vec![(VarRef::Edge(inst, EdgeId(0)), 1)], 1));
            }
            Some((parent, site)) => {
                // Callee entry flow equals the caller's f-edge flow.
                let parent_cfg = instances.cfg(parent);
                let (f_edge, _) = parent_cfg
                    .call_edge(site)
                    .expect("instance expansion only follows real call sites");
                out.push(LinCon::eq(
                    vec![(VarRef::Edge(inst, EdgeId(0)), 1), (VarRef::Edge(parent, f_edge), -1)],
                    0,
                ));
            }
        }
    }
    out
}

/// Describes the CFG flow structure in problem-variable indices, for the
/// auditor's independent flow-conservation replay (`ipet-audit` check (c)).
///
/// This walks the CFG topology (`in_edges`/`out_edges`/call sites) directly,
/// not the constraint rows of [`structural_constraints`], so a bug in the
/// matrix assembly cannot hide from the replay. It gathers the shared
/// formulation's callers itself, for the same reason.
pub fn flow_spec(instances: &Instances, space: &VarSpace) -> FlowSpec {
    let var = |r: VarRef| -> usize {
        space.id(r).expect("flow spec built from the same instances as the var space").0
    };
    // Shared formulation: the f-edge variables calling each function, in
    // instance then call-site order, gathered in one pass.
    let mut callers: Vec<Vec<usize>> = Vec::new();
    if instances.shared {
        callers.resize(instances.cfgs.len(), Vec::new());
        for (g, ginst) in instances.instances.iter().enumerate() {
            let gcfg = &instances.cfgs[ginst.func.0];
            for &(site, _, _, callee) in gcfg.call_sites() {
                let (f_edge, _) = gcfg.call_edge(site).expect("site enumerated from CFG");
                callers[callee.0].push(var(VarRef::Edge(InstanceId(g), f_edge)));
            }
        }
    }
    let mut spec = FlowSpec::default();
    for i in 0..instances.len() {
        let inst = InstanceId(i);
        let cfg = instances.cfg(inst);
        let edge_vars = |es: &[EdgeId]| es.iter().map(|&e| var(VarRef::Edge(inst, e))).collect();
        for b in 0..cfg.num_blocks() {
            let block = BlockId(b);
            spec.nodes.push(FlowNode {
                block: var(VarRef::Block(inst, block)),
                in_edges: edge_vars(cfg.in_edges(block)),
                out_edges: edge_vars(cfg.out_edges(block)),
            });
        }
        let entry = var(VarRef::Edge(inst, EdgeId(0)));
        if instances.shared {
            if i == 0 {
                spec.entry_edge = entry;
            } else {
                let me = instances.instances[i].func;
                spec.couplings.push((entry, callers[me.0].clone()));
            }
            continue;
        }
        match instances.instances[i].parent {
            None => spec.entry_edge = entry,
            Some((parent, site)) => {
                let parent_cfg = instances.cfg(parent);
                let (f_edge, _) = parent_cfg
                    .call_edge(site)
                    .expect("instance expansion only follows real call sites");
                spec.couplings.push((entry, vec![var(VarRef::Edge(parent, f_edge))]));
            }
        }
    }
    spec
}

/// Renders the structural constraints of one instance in the paper's
/// notation (`x1 = d1`, `x1 = d2 + d3`, …), for the figure harness.
pub fn structural_text(instances: &Instances, inst: InstanceId) -> String {
    use std::fmt::Write as _;
    let cfg = instances.cfg(inst);
    let mut out = String::new();
    let _ = writeln!(out, "fn {} ({}):", cfg.func_name, instances.instances[inst.0].label);
    let edge_name = |e: EdgeId| -> String {
        // f-edges print as f<site>, others as d<index>.
        if let ipet_cfg::EdgeKind::Call(_) = cfg.edges()[e.0].kind {
            format!("f{}", cfg.site_of_edge(e).unwrap_or(0) + 1)
        } else {
            format!("d{}", e.0 + 1)
        }
    };
    for b in 0..cfg.num_blocks() {
        let block = BlockId(b);
        let ins: Vec<String> = cfg.in_edges(block).iter().copied().map(edge_name).collect();
        let outs: Vec<String> = cfg.out_edges(block).iter().copied().map(edge_name).collect();
        let _ = writeln!(out, "  x{} = {} = {}", b + 1, ins.join(" + "), outs.join(" + "));
    }
    match instances.instances[inst.0].parent {
        None if instances.shared && inst.0 != 0 => {
            // Shared formulation: list the contributing f-edges (eq. 12).
            let me = instances.instances[inst.0].func;
            let mut parts = Vec::new();
            for ginst in &instances.instances {
                let gcfg = &instances.cfgs[ginst.func.0];
                for &(site, _, _, callee) in gcfg.call_sites() {
                    if callee == me {
                        parts.push(format!("f{} of {}", site + 1, ginst.label));
                    }
                }
            }
            let _ = writeln!(out, "  d1 = {}", parts.join(" + "));
        }
        None => {
            let _ = writeln!(out, "  d1 = 1");
        }
        Some((parent, site)) => {
            let _ =
                writeln!(out, "  d1 = f{} of {}", site + 1, instances.instances[parent.0].label);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};
    use ipet_lp::Relation;

    fn ite_program() -> Program {
        // The paper's Fig. 2 if-then-else.
        let mut b = AsmBuilder::new("ite");
        let els = b.fresh_label();
        let join = b.fresh_label();
        b.br(Cond::Eq, Reg::A0, 0, els);
        b.ldc(Reg::T0, 1);
        b.jmp(join);
        b.bind(els);
        b.ldc(Reg::T0, 2);
        b.bind(join);
        b.ret();
        Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap()
    }

    #[test]
    fn diamond_produces_nine_constraints() {
        // 4 blocks x 2 conservation rows + d1 = 1.
        let p = ite_program();
        let inst = Instances::expand(&p, FuncId(0)).unwrap();
        let cons = structural_constraints(&inst);
        assert_eq!(cons.len(), 9);
        // Exactly one constraint with a constant rhs of 1 (the source).
        let sources: Vec<_> = cons.iter().filter(|c| c.rhs == 1).collect();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].relation, Relation::Eq);
    }

    #[test]
    fn conservation_rows_balance() {
        let p = ite_program();
        let inst = Instances::expand(&p, FuncId(0)).unwrap();
        for c in structural_constraints(&inst) {
            if c.rhs == 0 {
                // one +1 block term, rest -1 edge terms
                let pos: Vec<_> = c.terms.iter().filter(|&&(_, v)| v > 0).collect();
                assert_eq!(pos.len(), 1);
                assert!(
                    matches!(pos[0].0, VarRef::Block(_, _))
                        || matches!(pos[0].0, VarRef::Edge(_, _))
                );
            }
        }
    }

    #[test]
    fn callee_entry_ties_to_f_edge() {
        let mut store = AsmBuilder::new("store");
        store.ret();
        let mut main = AsmBuilder::new("main");
        main.ldc(Reg::A0, 10);
        main.call(FuncId(0));
        main.ldc(Reg::A0, 20);
        main.call(FuncId(0));
        main.ret();
        let p =
            Program::new(vec![store.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
                .unwrap();
        let inst = Instances::expand(&p, FuncId(1)).unwrap();
        assert_eq!(inst.len(), 3);
        let cons = structural_constraints(&inst);
        // Two coupling rows: each callee instance's d1 = caller f-edge.
        let couplings: Vec<_> = cons
            .iter()
            .filter(|c| {
                c.rhs == 0
                    && c.terms.len() == 2
                    && c.terms.iter().all(|(v, _)| matches!(v, VarRef::Edge(_, _)))
            })
            .collect();
        assert_eq!(couplings.len(), 2);
    }

    #[test]
    fn flow_spec_mirrors_the_cfg_topology() {
        use crate::vars::VarSpace;
        let p = ite_program();
        let inst = Instances::expand(&p, FuncId(0)).unwrap();
        let space = VarSpace::new(&inst);
        let spec = flow_spec(&inst, &space);
        assert_eq!(spec.nodes.len(), 4, "one node per basic block");
        assert!(spec.couplings.is_empty(), "no calls, no couplings");
        // The entry edge must be d1 of the root instance.
        assert_eq!(spec.entry_edge, space.id(VarRef::Edge(inst.root(), EdgeId(0))).unwrap().0);
        // An all-zero witness violates `d_entry = 1`.
        let zeros = vec![0i64; space.len()];
        assert!(spec.check(&zeros).is_err());
    }

    #[test]
    fn text_matches_paper_notation() {
        let p = ite_program();
        let inst = Instances::expand(&p, FuncId(0)).unwrap();
        let text = structural_text(&inst, inst.root());
        assert!(text.contains("x1 = d1 = "), "{text}");
        assert!(text.contains("d1 = 1"), "{text}");
        // The join block has two in-edges.
        assert!(text.lines().any(|l| l.contains("x4 = ") && l.matches('+').count() >= 1), "{text}");
    }

    #[test]
    fn text_shows_f_edges_for_calls() {
        let mut store = AsmBuilder::new("store");
        store.ret();
        let mut main = AsmBuilder::new("main");
        main.call(FuncId(0));
        main.ret();
        let p =
            Program::new(vec![store.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
                .unwrap();
        let inst = Instances::expand(&p, FuncId(1)).unwrap();
        let root_text = structural_text(&inst, inst.root());
        assert!(root_text.contains("f1"), "{root_text}");
        let callee = inst.child_at(inst.root(), 0).unwrap();
        let callee_text = structural_text(&inst, callee);
        assert!(callee_text.contains("d1 = f1 of main"), "{callee_text}");
    }

    #[test]
    fn while_loop_matches_paper_equations() {
        // Fig. 3: the header has two in-edges (entry + back edge) and two
        // out-edges (body + exit path).
        let mut b = AsmBuilder::new("wl");
        let head = b.fresh_label();
        let out = b.fresh_label();
        b.mov(Reg::T0, Reg::A0);
        b.bind(head);
        b.br(Cond::Ge, Reg::T0, 10, out);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(head);
        b.bind(out);
        b.ret();
        let p = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
        let inst = Instances::expand(&p, FuncId(0)).unwrap();
        let text = structural_text(&inst, inst.root());
        let header_line = text.lines().find(|l| l.trim().starts_with("x2")).unwrap();
        assert_eq!(header_line.matches('+').count(), 2, "{header_line}");
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use crate::estimate::{Analyzer, ContextMode};
    use ipet_arch::{AsmBuilder, FuncId, Program, Reg};
    use ipet_hw::Machine;

    /// The paper's Fig. 4 program: two calls to store().
    fn fig4() -> Program {
        let mut store = AsmBuilder::new("store");
        store.nop();
        store.ret();
        let mut main = AsmBuilder::new("main");
        main.ldc(Reg::A0, 10);
        main.call(FuncId(0));
        main.ldc(Reg::A0, 20);
        main.call(FuncId(0));
        main.ret();
        Program::new(vec![store.finish().unwrap(), main.finish().unwrap()], vec![], FuncId(1))
            .unwrap()
    }

    #[test]
    fn shared_mode_produces_equation_12() {
        let p = fig4();
        let inst = Instances::expand_shared(&p, FuncId(1)).unwrap();
        assert_eq!(inst.len(), 2, "one instance per function");
        // store's entry is the sum of both f-edges: d1 = f1 + f2.
        let store = inst.instance_of_func(FuncId(0)).unwrap();
        let text = structural_text(&inst, store);
        assert!(text.contains("d1 = f1 of main + f2 of main"), "{text}");
        // And the ILP gives store's entry block a count of 2.
        let a = Analyzer::new_with_context(&p, Machine::i960kb(), ContextMode::Shared).unwrap();
        let est = a.analyze("").unwrap();
        assert_eq!(est.wcet_counts.get("x1@store"), Some(&2));
    }

    #[test]
    fn shared_mode_has_fewer_variables_on_call_heavy_programs() {
        // main calls leaf 4 times; helper calls leaf; main calls helper
        // twice: per-call-site = 1 + 4 + 2*(1+1) = 9 instances, shared = 3.
        let mut leaf = AsmBuilder::new("leaf");
        leaf.ret();
        let mut helper = AsmBuilder::new("helper");
        helper.call(FuncId(0));
        helper.ret();
        let mut main = AsmBuilder::new("main");
        for _ in 0..4 {
            main.call(FuncId(0));
        }
        main.call(FuncId(1));
        main.call(FuncId(1));
        main.ret();
        let p = Program::new(
            vec![leaf.finish().unwrap(), helper.finish().unwrap(), main.finish().unwrap()],
            vec![],
            FuncId(2),
        )
        .unwrap();
        let per_site = Instances::expand(&p, FuncId(2)).unwrap();
        let shared = Instances::expand_shared(&p, FuncId(2)).unwrap();
        assert_eq!(per_site.len(), 9);
        assert_eq!(shared.len(), 3);
        // Same WCET either way.
        let a1 = Analyzer::new(&p, Machine::i960kb()).unwrap().analyze("").unwrap();
        let a2 = Analyzer::new_with_context(&p, Machine::i960kb(), ContextMode::Shared)
            .unwrap()
            .analyze("")
            .unwrap();
        assert_eq!(a1.bound, a2.bound);
    }
}
