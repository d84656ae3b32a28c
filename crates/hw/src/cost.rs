//! Constant per-basic-block cost bounds (the paper's `c_i`).

use crate::machine::Machine;
use ipet_arch::{Function, Instr};
use ipet_cfg::BasicBlock;

/// Cost bounds of one basic block.
///
/// The concrete pipeline uses `BlockCost<u64>` (cycles). [`block_cycles`]
/// gives the same bounds as `BlockCost<Cycles>`, affine in the cache
/// penalties; [`block_cost`] is that value evaluated at the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BlockCost<T = u64> {
    /// Best case: all i-cache hits, conditional branch falls through.
    pub best: T,
    /// Worst case with a cold cache: every line the block spans is filled.
    pub worst_cold: T,
    /// Worst case with a warm cache: all hits, but branch still taken.
    /// Used for non-first loop iterations by the cache-splitting ablation.
    pub worst_warm: T,
}

impl BlockCost<Cycles> {
    /// The bounds in cycles on `machine`.
    pub fn at(&self, machine: &Machine) -> BlockCost {
        BlockCost {
            best: self.best.at(machine),
            worst_cold: self.worst_cold.at(machine),
            worst_warm: self.worst_warm.at(machine),
        }
    }
}

/// A cycle count affine in the two cache penalties:
/// `constant + lines·miss_penalty + loads·dmiss_penalty`. The coefficients
/// are those of [`P_MISS`](crate::P_MISS) and [`P_DMISS`](crate::P_DMISS)
/// in a symbolic bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Cycles {
    /// Cycles that no penalty scales.
    pub constant: u64,
    /// I-cache line fills, each charged [`Machine::miss_penalty`].
    pub lines: u64,
    /// Loads that may miss the d-cache, each charged
    /// [`Machine::dmiss_penalty`].
    pub loads: u64,
}

impl Cycles {
    /// The count on `machine`.
    pub fn at(&self, machine: &Machine) -> u64 {
        self.constant + self.lines * machine.miss_penalty + self.loads * machine.dmiss_penalty
    }
}

/// Cycles of a single instruction given its predecessor in the block
/// (for the load-use interlock). Cache and branch-direction effects are
/// *not* included — they are accounted at block granularity.
pub fn instr_cycles(machine: &Machine, prev: Option<Instr>, instr: Instr) -> u64 {
    let mut cycles = machine.class_cycles(instr.class());
    if let Some(p) = prev {
        if let Some(def) = p.def_reg() {
            if matches!(p, Instr::Ld { .. }) && instr.use_regs().contains(&def) {
                cycles += machine.load_use_stall;
            }
        }
    }
    cycles
}

/// Computes the cost bounds of `block` within `function`: the bounds of
/// [`block_cycles`] evaluated at `machine`.
///
/// The function must already be laid out (its `base_addr` assigned) so the
/// block's byte range maps onto cache lines.
pub fn block_cost(machine: &Machine, function: &Function, block: &BasicBlock) -> BlockCost {
    block_cycles(machine, function, block).at(machine)
}

/// Computes the cost bounds of `block` within `function`, affine in the
/// cache penalties.
///
/// Mirrors the paper's model: per-instruction effective times from the
/// "hardware manual" ([`Machine`]), adjacency effects within the block
/// (load-use interlock), all-hit best case, per-line-miss worst case, and
/// a taken-branch penalty on the worst case when the block ends in a
/// conditional branch. The best case is constant.
pub fn block_cycles(
    machine: &Machine,
    function: &Function,
    block: &BasicBlock,
) -> BlockCost<Cycles> {
    let mut base = 0u64;
    let mut prev: Option<Instr> = None;
    for idx in block.start..block.end {
        let ins = function.instrs[idx];
        base += instr_cycles(machine, prev, ins);
        prev = Some(ins);
    }

    let mut branch = 0u64;
    if let Some(Instr::Br { .. }) = function.instrs.get(block.end - 1).copied() {
        branch = machine.branch_taken_penalty;
    }

    // With a data cache the best case assumes every load hits and the
    // worst case assumes every load misses — the same all-hit/all-miss
    // split the paper applies to the instruction cache.
    let loads = if machine.dcache.is_some() {
        function.instrs[block.start..block.end]
            .iter()
            .filter(|i| matches!(i, Instr::Ld { .. }))
            .count() as u64
    } else {
        0
    };

    let start_addr = function.instr_addr(block.start);
    let end_addr = function.instr_addr(block.end - 1) + ipet_arch::INSTR_BYTES;
    let lines = machine.icache.lines_in_range(start_addr, end_addr) as u64;

    let worst_warm = Cycles { constant: base + branch, lines: 0, loads };
    BlockCost {
        best: Cycles { constant: base, ..Cycles::default() },
        worst_cold: Cycles { lines, ..worst_warm },
        worst_warm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};
    use ipet_cfg::Cfg;

    fn program_of(b: AsmBuilder) -> Program {
        Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap()
    }

    #[test]
    fn straight_line_costs_add_up() {
        let m = Machine::i960kb();
        let mut b = AsmBuilder::new("f");
        b.ldc(Reg::T0, 1); // 1
        b.alu(AluOp::Mul, Reg::T0, Reg::T0, 3); // 5
        b.ret(); // 9
        let p = program_of(b);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let c = block_cost(&m, &p.functions[0], &cfg.blocks()[0]);
        assert_eq!(c.best, 1 + 5 + 9);
        assert_eq!(c.worst_warm, c.best); // no conditional branch
                                          // 3 instructions at addresses 0..12 -> 1 line of 16 bytes.
        assert_eq!(c.worst_cold, c.best + m.miss_penalty);
    }

    #[test]
    fn load_use_interlock_charged_once() {
        let m = Machine::i960kb();
        let mut b = AsmBuilder::new("f");
        b.ld(Reg::T0, Reg::FP, 0); // 4
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1); // 1 + 1 stall
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1); // 1 (no stall: prev not load)
        b.ret(); // 9
        let p = program_of(b);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let c = block_cost(&m, &p.functions[0], &cfg.blocks()[0]);
        assert_eq!(c.best, 4 + 2 + 1 + 9);
    }

    #[test]
    fn independent_use_after_load_has_no_stall() {
        let m = Machine::i960kb();
        let prev = Instr::Ld { dst: Reg::T0, base: Reg::FP, offset: 0 };
        let indep = Instr::Alu {
            op: AluOp::Add,
            dst: Reg::temp(1),
            a: Reg::temp(2),
            b: ipet_arch::Operand::Imm(1),
        };
        assert_eq!(instr_cycles(&m, Some(prev), indep), 1);
        let dep = Instr::Alu {
            op: AluOp::Add,
            dst: Reg::temp(1),
            a: Reg::T0,
            b: ipet_arch::Operand::Imm(1),
        };
        assert_eq!(instr_cycles(&m, Some(prev), dep), 2);
    }

    #[test]
    fn conditional_branch_widens_worst_case() {
        let m = Machine::i960kb();
        let mut b = AsmBuilder::new("f");
        let l = b.fresh_label();
        b.br(Cond::Eq, Reg::A0, 0, l); // block 0: branch
        b.nop();
        b.bind(l);
        b.ret();
        let p = program_of(b);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let c = block_cost(&m, &p.functions[0], &cfg.blocks()[0]);
        assert_eq!(c.best, m.branch_cycles);
        assert_eq!(c.worst_warm, m.branch_cycles + m.branch_taken_penalty);
    }

    #[test]
    fn multi_line_block_charges_each_line() {
        let m = Machine::i960kb();
        let mut b = AsmBuilder::new("f");
        for _ in 0..8 {
            b.nop(); // 8 instrs = 32 bytes = 2 lines
        }
        b.ret(); // 9 instrs = 36 bytes = 3 lines
        let p = program_of(b);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let c = block_cost(&m, &p.functions[0], &cfg.blocks()[0]);
        assert_eq!(c.worst_cold - c.worst_warm, 3 * m.miss_penalty);
    }

    #[test]
    fn block_not_at_function_start_uses_laid_out_addresses() {
        let m = Machine::i960kb();
        // Second function starts at a non-zero base address; a block
        // crossing a line boundary must still count 2 lines.
        let mut f0 = AsmBuilder::new("pad");
        for _ in 0..3 {
            f0.nop();
        }
        f0.ret(); // 4 instrs = 16 bytes
        let mut f1 = AsmBuilder::new("f");
        for _ in 0..4 {
            f1.nop();
        }
        f1.ret();
        let p = Program::new(vec![f0.finish().unwrap(), f1.finish().unwrap()], vec![], FuncId(1))
            .unwrap();
        let cfg = Cfg::build(FuncId(1), &p.functions[1]);
        let c = block_cost(&m, &p.functions[1], &cfg.blocks()[0]);
        // f starts at byte 16 (line 1), 5 instrs end at byte 36 -> lines 1,2 = 2 lines.
        assert_eq!(c.worst_cold - c.worst_warm, 2 * m.miss_penalty);
    }

    #[test]
    fn bounds_are_ordered() {
        let m = Machine::i960kb();
        let mut b = AsmBuilder::new("f");
        let l = b.fresh_label();
        b.ld(Reg::T0, Reg::FP, 0);
        b.alu(AluOp::Div, Reg::T0, Reg::T0, 3);
        b.br(Cond::Gt, Reg::T0, 0, l);
        b.bind(l);
        b.ret();
        let p = program_of(b);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        for blk in cfg.blocks() {
            let c = block_cost(&m, &p.functions[0], blk);
            assert!(c.best <= c.worst_warm);
            assert!(c.worst_warm <= c.worst_cold);
        }
    }
}

#[cfg(test)]
mod cycles_tests {
    use super::*;
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};
    use ipet_cfg::Cfg;

    fn looped_program() -> Program {
        let mut b = AsmBuilder::new("f");
        let l = b.fresh_label();
        b.ld(Reg::T0, Reg::FP, 0);
        b.alu(AluOp::Mul, Reg::T0, Reg::T0, 3);
        b.br(Cond::Gt, Reg::T0, 0, l);
        b.nop();
        b.bind(l);
        b.ret();
        Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap()
    }

    #[test]
    fn line_coefficient_counts_cache_lines() {
        let m = Machine::i960kb();
        let p = looped_program();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        for blk in cfg.blocks() {
            let concrete = block_cost(&m, &p.functions[0], blk);
            let form = block_cycles(&m, &p.functions[0], blk);
            // Slope of worst_cold in the miss penalty = lines spanned.
            let lines = (concrete.worst_cold - concrete.worst_warm) / m.miss_penalty;
            assert_eq!(form.worst_cold.lines, lines);
            assert_eq!(form.worst_warm.lines, 0);
            // Without a d-cache no load is chargeable to the d-cache.
            assert_eq!(form.worst_cold.loads, 0);
            assert_eq!(form.best, Cycles { constant: concrete.best, lines: 0, loads: 0 });
        }
    }

    #[test]
    fn zero_penalties_leave_the_constant() {
        // Degenerate sweep edge: with both penalties 0 every bound is its
        // constant term.
        let m = Machine { dmiss_penalty: 0, miss_penalty: 0, ..Machine::i960kb_with_dcache() };
        let p = looped_program();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        for blk in cfg.blocks() {
            let concrete = block_cost(&m, &p.functions[0], blk);
            let form = block_cycles(&m, &p.functions[0], blk);
            assert_eq!(concrete.worst_cold, concrete.worst_warm);
            assert_eq!(form.worst_cold.constant, concrete.worst_cold);
            assert_eq!(form.worst_warm.constant, concrete.worst_warm);
            assert_eq!(form.best.constant, concrete.best);
        }
    }

    #[test]
    fn dcache_machine_charges_loads_to_the_dmiss_penalty() {
        let m = Machine::i960kb_with_dcache();
        let p = looped_program();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let form = block_cycles(&m, &p.functions[0], &cfg.blocks()[0]);
        // The entry block has exactly one load.
        assert_eq!(form.worst_warm.loads, 1);
        assert_eq!(form.worst_cold.loads, 1);
        assert_eq!(form.best.loads, 0);
    }
}

#[cfg(test)]
mod dcache_tests {
    use super::*;
    use ipet_arch::{AsmBuilder, FuncId, Program, Reg};
    use ipet_cfg::Cfg;

    #[test]
    fn data_cache_charges_loads_in_the_worst_case_only() {
        let plain = Machine::i960kb();
        let cached = Machine::i960kb_with_dcache();
        let mut b = AsmBuilder::new("f");
        b.ld(Reg::T0, Reg::FP, 0);
        b.ld(Reg::temp(1), Reg::FP, 1);
        b.st(Reg::T0, Reg::FP, 2);
        b.ret();
        let p = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let c_plain = block_cost(&plain, &p.functions[0], &cfg.blocks()[0]);
        let c_cached = block_cost(&cached, &p.functions[0], &cfg.blocks()[0]);
        // No dcache: loads are deterministic, no extra worst-case term.
        assert_eq!(c_plain.worst_warm - c_plain.best, 0);
        // With a dcache: two loads may each miss; stores are write-through.
        assert_eq!(c_cached.worst_warm - c_cached.best, 2 * cached.dmiss_penalty);
        // The hit cost is cheaper than uncached memory.
        assert!(c_cached.best < c_plain.best);
    }
}
