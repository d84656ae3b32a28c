//! Property tests on the static block-cost model.

use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};
use ipet_cfg::Cfg;
use ipet_hw::{block_cost, Machine};
use proptest::prelude::*;

/// A random straight-line instruction body (no control flow except the
/// optional trailing conditional branch), returned as a finished program.
fn arb_program() -> impl Strategy<Value = (Program, bool)> {
    let instr = prop_oneof![
        (0u8..4, 0u8..4).prop_map(|(d, s)| (0u8, d, s, 0i32)), // mov
        (0u8..4, -100i32..100).prop_map(|(d, imm)| (1u8, d, 0, imm)), // ldc
        (0u8..4, 0u8..4, 0u8..10).prop_map(|(d, a, op)| (2u8, d, a, op as i32)), // alu
        (0u8..4, -4i32..8).prop_map(|(d, off)| (3u8, d, 0, off)), // ld
        (0u8..4, -4i32..8).prop_map(|(s, off)| (4u8, s, 0, off)), // st
    ];
    (prop::collection::vec(instr, 1..20), any::<bool>()).prop_map(|(body, branch)| {
        let mut b = AsmBuilder::new("f");
        let done = b.fresh_label();
        for (kind, x, y, z) in &body {
            let rx = Reg::temp(*x);
            let ry = Reg::temp(*y);
            match kind {
                0 => {
                    b.mov(rx, ry);
                }
                1 => {
                    b.ldc(rx, *z);
                }
                2 => {
                    let op = AluOp::ALL[*z as usize % AluOp::ALL.len()];
                    b.alu(op, rx, ry, 3);
                }
                3 => {
                    b.ld(rx, Reg::FP, *z);
                }
                _ => {
                    b.st(rx, Reg::FP, *z);
                }
            }
        }
        if branch {
            b.br(Cond::Eq, Reg::T0, 0, done);
        }
        b.bind(done);
        b.ret();
        let f = b.finish().unwrap();
        (Program::new(vec![f], vec![], FuncId(0)).unwrap(), branch)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The three cost figures are always ordered, and strictly separated
    /// by the cache penalty.
    #[test]
    fn costs_are_ordered((program, _) in arb_program()) {
        let machine = Machine::i960kb();
        let f = program.entry_function();
        let cfg = Cfg::build(FuncId(0), f);
        for blk in cfg.blocks() {
            let c = block_cost(&machine, f, blk);
            prop_assert!(c.best <= c.worst_warm);
            prop_assert!(c.worst_warm < c.worst_cold, "cold adds >= one line fill");
            prop_assert!(c.worst_cold - c.worst_warm >= machine.miss_penalty);
        }
    }

    /// Block cost is bounded below by the per-class base cycles and grows
    /// monotonically with the miss penalty.
    #[test]
    fn cost_lower_bound_and_penalty_monotonicity((program, _) in arb_program()) {
        let machine = Machine::i960kb();
        let bigger = Machine { miss_penalty: machine.miss_penalty + 5, ..machine };
        let f = program.entry_function();
        let cfg = Cfg::build(FuncId(0), f);
        for blk in cfg.blocks() {
            let base: u64 = f.instrs[blk.start..blk.end]
                .iter()
                .map(|i| machine.class_cycles(i.class()))
                .sum();
            let c = block_cost(&machine, f, blk);
            prop_assert!(c.best >= base);
            let c2 = block_cost(&bigger, f, blk);
            prop_assert!(c2.worst_cold > c.worst_cold);
            prop_assert_eq!(c2.best, c.best);
            prop_assert_eq!(c2.worst_warm, c.worst_warm);
        }
    }

    /// A trailing conditional branch is the only source of best/warm-worst
    /// asymmetry in straight-line code.
    #[test]
    fn branch_penalty_is_the_only_warm_gap((program, branch) in arb_program()) {
        let machine = Machine::i960kb();
        let f = program.entry_function();
        let cfg = Cfg::build(FuncId(0), f);
        let c = block_cost(&machine, f, &cfg.blocks()[0]);
        if branch {
            prop_assert_eq!(c.worst_warm - c.best, machine.branch_taken_penalty);
        } else {
            prop_assert_eq!(c.worst_warm, c.best);
        }
    }
}
