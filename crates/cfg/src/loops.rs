//! Natural-loop detection.
//!
//! The paper's workflow is: "the loops can be detected and marked. After all
//! the structural constraints have been constructed, the user will be asked
//! to provide the loop bound information". [`Cfg::build`](crate::Cfg::build)
//! performs the detection, once per CFG, and [`Cfg::loops`](crate::Cfg::loops)
//! hands out the result; the bound then relates the loop's *preheader* count
//! to its *header* count (`1·x_pre ≤ x_head ≤ N·x_pre` for a 1..N-iteration
//! loop).

use crate::dom::Dominators;
use crate::graph::{BlockId, Csr, Edge, EdgeId};
use std::collections::BTreeSet;

/// Index of a loop within a function (ordered by header block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub usize);

/// One natural loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// The loop header (target of the back edges).
    pub header: BlockId,
    /// All blocks in the loop body, header included, in index order.
    pub body: Vec<BlockId>,
    /// Back edges (`latch -> header`).
    pub back_edges: Vec<EdgeId>,
    /// Edges entering the header from outside the loop; the sum of their
    /// `d` variables is the number of times the loop is *entered*.
    pub entry_edges: Vec<EdgeId>,
}

impl LoopInfo {
    /// True if `b` is inside the loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// Finds all natural loops of a CFG under construction: one per header, in
/// header order, merging the bodies of all back edges that share a header
/// (the classic approach for `while` loops with `continue`).
pub(crate) fn detect(
    edges: &[Edge],
    dom: &Dominators,
    preds: &Csr<BlockId>,
    in_edges: &Csr<EdgeId>,
) -> Vec<LoopInfo> {
    // back edge: internal edge b -> h with h dominating b
    let mut headers: BTreeSet<BlockId> = BTreeSet::new();
    let mut back: Vec<(EdgeId, BlockId, BlockId)> = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        if let (Some(from), Some(to)) = (e.from, e.to) {
            if dom.dominates(to, from) {
                headers.insert(to);
                back.push((EdgeId(i), from, to));
            }
        }
    }

    let mut loops = Vec::new();
    for h in headers {
        // Natural loop body: header + all blocks that reach a latch
        // without passing through the header.
        let mut body: BTreeSet<BlockId> = BTreeSet::new();
        body.insert(h);
        let mut stack: Vec<BlockId> =
            back.iter().filter(|&&(_, _, to)| to == h).map(|&(_, from, _)| from).collect();
        while let Some(b) = stack.pop() {
            if body.insert(b) {
                for &p in preds.row(b) {
                    if !body.contains(&p) {
                        stack.push(p);
                    }
                }
            }
        }
        let back_edges: Vec<EdgeId> =
            back.iter().filter(|&&(_, _, to)| to == h).map(|&(e, _, _)| e).collect();
        let entry_edges: Vec<EdgeId> =
            in_edges.row(h).iter().copied().filter(|e| !back_edges.contains(e)).collect();
        loops.push(LoopInfo {
            header: h,
            body: body.into_iter().collect(),
            back_edges,
            entry_edges,
        });
    }
    ipet_trace::counter("cfg.loops.detected", loops.len() as u64);
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Cfg;
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Reg};

    fn build(f: ipet_arch::Function) -> Cfg {
        Cfg::build(FuncId(0), &f)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = AsmBuilder::new("s");
        b.nop();
        b.ret();
        assert!(build(b.finish().unwrap()).loops().is_empty());
    }

    #[test]
    fn while_loop_detected() {
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
        let cfg = build(b.finish().unwrap());
        let loops = cfg.loops();
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.body, vec![BlockId(1), BlockId(2)]);
        assert_eq!(l.back_edges.len(), 1);
        assert_eq!(l.entry_edges.len(), 1);
        assert!(l.contains(BlockId(2)));
        assert!(!l.contains(BlockId(3)));
    }

    #[test]
    fn nested_loops_detected_with_distinct_headers() {
        // for i { for j { } }
        let mut b = AsmBuilder::new("nest");
        let oh = b.fresh_label();
        let ih = b.fresh_label();
        let iout = b.fresh_label();
        let oout = b.fresh_label();
        b.ldc(Reg::T0, 0); // i = 0
        b.bind(oh);
        b.br(Cond::Ge, Reg::T0, 4, oout);
        b.ldc(Reg::temp(1), 0); // j = 0
        b.bind(ih);
        b.br(Cond::Ge, Reg::temp(1), 4, iout);
        b.alu(AluOp::Add, Reg::temp(1), Reg::temp(1), 1);
        b.jmp(ih);
        b.bind(iout);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(oh);
        b.bind(oout);
        b.ret();
        let cfg = build(b.finish().unwrap());
        let loops = cfg.loops();
        assert_eq!(loops.len(), 2);
        // The outer loop body strictly contains the inner loop body.
        let (outer, inner) = if loops[0].body.len() > loops[1].body.len() {
            (&loops[0], &loops[1])
        } else {
            (&loops[1], &loops[0])
        };
        for b in &inner.body {
            assert!(outer.contains(*b), "inner body inside outer");
        }
        assert_ne!(outer.header, inner.header);
    }

    #[test]
    fn do_while_self_loop() {
        // B1; B2: body; br back to B2.
        let mut b = AsmBuilder::new("dw");
        let head = b.fresh_label();
        b.ldc(Reg::T0, 0);
        b.bind(head);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.br(Cond::Lt, Reg::T0, 10, head);
        b.ret();
        let cfg = build(b.finish().unwrap());
        let loops = cfg.loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].body, vec![loops[0].header]);
    }

    #[test]
    fn two_back_edges_one_header_merge() {
        // while (c) { if (d) continue; body }
        let mut b = AsmBuilder::new("cont");
        let head = b.fresh_label();
        let out = b.fresh_label();
        let cont = b.fresh_label();
        b.ldc(Reg::T0, 0);
        b.bind(head);
        b.br(Cond::Ge, Reg::T0, 10, out);
        b.br(Cond::Eq, Reg::A0, 0, cont);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 2);
        b.jmp(head);
        b.bind(cont);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(head);
        b.bind(out);
        b.ret();
        let cfg = build(b.finish().unwrap());
        let loops = cfg.loops();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].back_edges.len(), 2);
        assert!(loops[0].body.len() >= 4);
    }
}
