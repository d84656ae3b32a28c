//! Dominator computation (iterative dataflow, Cooper–Harvey–Kennedy style
//! simplified to the dense bitset formulation — the CFGs here are small).

use crate::graph::{BlockId, Csr};

/// Immediate-dominator-free dominator sets: `dominates(a, b)` answers
/// whether every path from the entry to `b` passes through `a`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dominators {
    /// Number of blocks.
    n: usize,
    /// `bits[b * words..(b + 1) * words]` is the bitset of blocks
    /// dominating block `b`, 64 blocks to a word.
    bits: Vec<u64>,
}

impl Dominators {
    /// Computes dominator sets from the predecessor lists of a CFG under
    /// construction, by round-robin iteration to a fixed point. Every block
    /// in a [`Cfg`](crate::Cfg) is reachable, so the classic initialisation
    /// (`dom(entry) = {entry}`, `dom(b) = all`) converges. Only
    /// [`Cfg::build`](crate::Cfg::build) calls this; everyone else borrows
    /// [`Cfg::dominators`](crate::Cfg::dominators).
    pub(crate) fn compute(entry: BlockId, preds: &Csr<BlockId>) -> Dominators {
        ipet_trace::counter("cfg.dom.computations", 1);
        let n = preds.len();
        let words = n.div_ceil(64);
        let mut bits = vec![!0u64; n * words];
        let only = |set: &mut [u64], b: usize| {
            set.fill(0);
            set[b / 64] |= 1 << (b % 64);
        };
        only(&mut bits[entry.0 * words..(entry.0 + 1) * words], entry.0);

        let mut new = vec![0u64; words];
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if b == entry.0 {
                    continue;
                }
                let preds = preds.row(BlockId(b));
                // intersection of predecessors' dominator sets, plus self
                if preds.is_empty() {
                    // entry-only reachable via entry edge; keep {b}
                    only(&mut new, b);
                } else {
                    new.fill(!0);
                    for p in preds {
                        let set = &bits[p.0 * words..(p.0 + 1) * words];
                        new.iter_mut().zip(set).for_each(|(w, &d)| *w &= d);
                    }
                    new[b / 64] |= 1 << (b % 64);
                }
                let set = &mut bits[b * words..(b + 1) * words];
                if *set != *new {
                    set.copy_from_slice(&new);
                    changed = true;
                }
            }
        }
        Dominators { n, bits }
    }

    /// True if `a` dominates `b` (reflexive: every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        assert!(a.0 < self.n && b.0 < self.n, "block out of range");
        let words = self.n.div_ceil(64);
        self.bits[b.0 * words + a.0 / 64] >> (a.0 % 64) & 1 == 1
    }

    /// The set of blocks dominating `b`, in index order.
    pub fn dominators_of(&self, b: BlockId) -> Vec<BlockId> {
        (0..self.n).map(BlockId).filter(|&a| self.dominates(a, b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Cfg;
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Reg};

    fn while_loop_cfg() -> Cfg {
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
        Cfg::build(FuncId(0), &b.finish().unwrap())
    }

    #[test]
    fn entry_dominates_everything() {
        let cfg = while_loop_cfg();
        let dom = cfg.dominators();
        for b in 0..cfg.num_blocks() {
            assert!(dom.dominates(cfg.entry(), BlockId(b)));
        }
    }

    #[test]
    fn self_domination_is_reflexive() {
        let cfg = while_loop_cfg();
        let dom = cfg.dominators();
        for b in 0..cfg.num_blocks() {
            assert!(dom.dominates(BlockId(b), BlockId(b)));
        }
    }

    #[test]
    fn loop_header_dominates_body_and_exit() {
        let cfg = while_loop_cfg();
        let dom = cfg.dominators();
        // B2 (index 1) is the header; B3 (index 2) the body; B4 (index 3) exit.
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
    }

    #[test]
    fn branch_arms_do_not_dominate_join() {
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
        let cfg = Cfg::build(FuncId(0), &b.finish().unwrap());
        let dom = cfg.dominators();
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert_eq!(dom.dominators_of(BlockId(3)), vec![BlockId(0), BlockId(3)]);
    }
}
