//! Automatic derivation of loop-bound constraints — the paper's stated
//! future work: "we would also like to explore the possibility of using
//! symbolic analysis techniques to automatically derive some of the
//! functionality constraints".
//!
//! The analysis recognises the counted-loop shape the mini-C compiler
//! emits for `for (i = C; i <cond> K; i = i + S)` at the machine level:
//!
//! * the loop header loads a frame slot, optionally materialises a
//!   constant, and compare-and-branches on it;
//! * exactly one store in the loop body updates that slot, and it is a
//!   load/add-constant/store chain;
//! * a block dominating the loop initialises the slot with a constant.
//!
//! When all three hold with compile-time constants, the trip count is
//! exact and an automatically derived `loop xH in [n, n]` constraint is
//! produced. Anything data-dependent is left to the user, exactly as in
//! the paper.

use crate::estimate::Analyzer;
use ipet_arch::{AluOp, Cond, FuncId, Instr, Operand, Reg};
use ipet_cfg::{BlockId, Cfg, LoopInfo};
use std::collections::HashSet;
use std::fmt::Write as _;

/// One automatically derived loop bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredBound {
    /// Function containing the loop.
    pub func: FuncId,
    /// Function name (for annotation text).
    pub func_name: String,
    /// Loop header block.
    pub header: BlockId,
    /// Exact iterations per entry.
    pub trips: u64,
}

impl InferredBound {
    /// Renders the bound as a DSL `loop` statement.
    pub fn to_annotation(&self) -> String {
        format!(
            "fn {} {{ loop x{} in [{}, {}]; }}",
            self.func_name,
            self.header.0 + 1,
            self.trips,
            self.trips
        )
    }
}

/// The comparison at a counted-loop header: `slot <cond> limit` continues
/// the loop.
#[derive(Debug, Clone, Copy)]
struct HeaderTest {
    slot: i32,
    cond: Cond,
    limit: i32,
}

/// Matches the header-block shape:
/// `ld t, [fp+s]; (ldc t2, K;)? br cond t, (t2|K), target`.
///
/// Returns the continue-condition (normalised so that *taken* means
/// "stay in the loop").
fn match_header(cfg: &Cfg, function: &ipet_arch::Function, l: &LoopInfo) -> Option<HeaderTest> {
    let block = &cfg.blocks()[l.header.0];
    let instrs = &function.instrs[block.start..block.end];
    let (&Instr::Br { cond, a, b, target }, rest) = instrs.split_last()? else {
        return None;
    };
    // Resolve the compared register to a frame-slot load inside the block.
    let mut slot = None;
    let mut limit_reg: Option<(Reg, i32)> = None;
    for ins in rest {
        match *ins {
            Instr::Ld { dst, base, offset } if base == Reg::FP && dst == a => {
                slot = Some(offset);
            }
            Instr::Ldc { dst, imm } => {
                limit_reg = Some((dst, imm));
            }
            _ => {}
        }
    }
    let slot = slot?;
    let limit = match b {
        Operand::Imm(k) => k,
        Operand::Reg(r) => {
            let (lr, k) = limit_reg?;
            if lr != r {
                return None;
            }
            k
        }
    };
    // Taken branch goes to `target`: if that target is inside the loop the
    // condition is the continue test; otherwise it is the exit test.
    let target_block = cfg.block_of_instr(target)?;
    let continues = l.contains(target_block);
    let cond = if continues { cond } else { cond.negate() };
    Some(HeaderTest { slot, cond, limit })
}

/// Finds the unique constant-step update `slot += step` in the loop body.
/// Any other store to the slot disqualifies the loop.
fn match_step(cfg: &Cfg, function: &ipet_arch::Function, l: &LoopInfo, slot: i32) -> Option<i64> {
    let mut step: Option<i64> = None;
    for &b in &l.body {
        let block = &cfg.blocks()[b.0];
        let instrs = &function.instrs[block.start..block.end];
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::St { src, base, offset } = *ins {
                if base != Reg::FP || offset != slot {
                    continue;
                }
                // Walk backwards: src must be (ld slot) + constant.
                let delta = trace_add_constant(&instrs[..i], src, slot)?;
                if step.is_some() {
                    return None; // two updates: not a simple counter
                }
                step = Some(delta);
            }
        }
    }
    step.filter(|&s| s != 0)
}

/// Checks that `reg` holds `slot_value + delta` at the end of `prefix`,
/// where the chain is `ld r,[fp+slot]; (ldc r2, C;)? alu add/sub r, r, C`.
fn trace_add_constant(prefix: &[Instr], reg: Reg, slot: i32) -> Option<i64> {
    // Find the defining ALU op of `reg`.
    let (pos, op, a, b) = prefix.iter().enumerate().rev().find_map(|(i, ins)| match *ins {
        Instr::Alu { op, dst, a, b } if dst == reg => Some((i, op, a, b)),
        _ => None,
    })?;
    let sign = match op {
        AluOp::Add => 1i64,
        AluOp::Sub => -1i64,
        _ => return None,
    };
    let delta = match b {
        Operand::Imm(k) => k as i64,
        Operand::Reg(r) => {
            // The *defining* instruction of r must be a constant load —
            // stop at the first definition walking backwards, whatever it
            // is, so a stale earlier Ldc can never be picked up.
            prefix[..pos]
                .iter()
                .rev()
                .find_map(|ins| match *ins {
                    Instr::Ldc { dst, imm } if dst == r => Some(Some(imm as i64)),
                    _ if ins.def_reg() == Some(r) => Some(None),
                    _ => None,
                })
                .flatten()?
        }
    };
    // `a` must carry the slot's value: a load from [fp+slot] not clobbered.
    let loaded = prefix[..pos].iter().rev().find_map(|ins| match *ins {
        Instr::Ld { dst, base, offset } if dst == a && base == Reg::FP && offset == slot => {
            Some(true)
        }
        Instr::Alu { dst, .. } | Instr::Mov { dst, .. } | Instr::Ldc { dst, .. } if dst == a => {
            Some(false)
        }
        _ => None,
    })?;
    if !loaded {
        return None;
    }
    Some(sign * delta)
}

/// Finds the constant the slot holds on loop entry: the latest
/// `ldc t, C; st t, [fp+slot]` in a block that dominates the header and is
/// outside the loop, with no other stores to the slot in between (we only
/// accept the straightforward case: the *immediately* dominating
/// initialisation).
fn match_init(cfg: &Cfg, function: &ipet_arch::Function, l: &LoopInfo, slot: i32) -> Option<i64> {
    let dom = cfg.dominators();
    let mut init: Option<i64> = None;
    for b in 0..cfg.num_blocks() {
        let block_id = BlockId(b);
        if l.contains(block_id) || !dom.dominates(block_id, l.header) {
            continue;
        }
        let block = &cfg.blocks()[b];
        let instrs = &function.instrs[block.start..block.end];
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::St { src, base, offset } = *ins {
                if base == Reg::FP && offset == slot {
                    // The stored value must come straight from a constant
                    // load: stop at src's defining instruction, whatever it
                    // is, so a stale earlier Ldc can never be picked up.
                    let c = instrs[..i]
                        .iter()
                        .rev()
                        .find_map(|p| match *p {
                            Instr::Ldc { dst, imm } if dst == src => Some(Some(imm as i64)),
                            _ if p.def_reg() == Some(src) => Some(None),
                            _ => None,
                        })
                        .flatten();
                    // Later dominating stores override earlier ones; a
                    // non-constant store forgets what we knew.
                    init = c;
                }
            }
        }
    }
    init
}

/// Exact trip count of `for (i = init; i <cond> limit; i += step)`.
/// Returns `None` when the loop does not terminate under this model.
fn trip_count(init: i64, cond: Cond, limit: i64, step: i64) -> Option<u64> {
    let holds = |i: i64| cond.holds(i as i32, limit as i32);
    // Guard against non-terminating combinations.
    match (cond, step.signum()) {
        (Cond::Lt | Cond::Le, 1) | (Cond::Gt | Cond::Ge, -1) => {}
        (Cond::Ne, _) => {
            // i != limit with a step that eventually hits it exactly.
            let diff = limit - init;
            if step == 0 || diff % step != 0 || diff / step < 0 {
                return None;
            }
            return Some((diff / step) as u64);
        }
        _ => return None,
    }
    if !holds(init) {
        return Some(0);
    }
    let span = match cond {
        Cond::Lt => limit - init,
        Cond::Le => limit - init + 1,
        Cond::Gt => init - limit,
        Cond::Ge => init - limit + 1,
        _ => unreachable!("handled above"),
    };
    let mag = step.abs();
    Some(((span + mag - 1) / mag).max(0) as u64)
}

/// Runs the inference over every function of the analyzer's program.
pub fn infer_loop_bounds(analyzer: &Analyzer<'_>) -> Vec<InferredBound> {
    let mut out = Vec::new();
    let mut seen: HashSet<(FuncId, BlockId)> = HashSet::new();
    let instances = analyzer.instances();
    for cfg in &instances.cfgs {
        let function = &analyzer.program().functions[cfg.func.0];
        for l in cfg.loops() {
            if !seen.insert((cfg.func, l.header)) {
                continue;
            }
            let Some(test) = match_header(cfg, function, l) else {
                continue;
            };
            let Some(step) = match_step(cfg, function, l, test.slot) else {
                continue;
            };
            let Some(init) = match_init(cfg, function, l, test.slot) else {
                continue;
            };
            let Some(trips) = trip_count(init, test.cond, test.limit as i64, step) else {
                continue;
            };
            out.push(InferredBound {
                func: cfg.func,
                func_name: cfg.func_name.clone(),
                header: l.header,
                trips,
            });
        }
    }
    out
}

/// Renders all inferred bounds as annotation text, ready to concatenate
/// with user-provided constraints.
pub fn inferred_annotations(bounds: &[InferredBound]) -> String {
    let mut out = String::new();
    for b in bounds {
        let _ = writeln!(out, "{}", b.to_annotation());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_hw::Machine;

    fn analyzer_for(src: &str, entry: &str) -> (ipet_arch::Program, Machine) {
        (ipet_lang::compile(src, entry).unwrap(), Machine::i960kb())
    }

    #[test]
    fn counted_for_loop_is_inferred_exactly() {
        let (p, m) = analyzer_for(
            "int main() { int i; int s; s = 0; for (i = 0; i < 17; i = i + 1) { s = s + i; } return s; }",
            "main",
        );
        let a = Analyzer::new(&p, m).unwrap();
        let bounds = infer_loop_bounds(&a);
        assert_eq!(bounds.len(), 1);
        assert_eq!(bounds[0].trips, 17);
        // The derived annotation closes the analysis without user input.
        let est = a.analyze(&inferred_annotations(&bounds)).unwrap();
        assert!(est.bound.upper > 0);
    }

    #[test]
    fn step_and_le_variants() {
        let (p, m) = analyzer_for(
            "int main() { int i; int s; s = 0; for (i = 2; i <= 20; i = i + 3) { s = s + 1; } return s; }",
            "main",
        );
        let a = Analyzer::new(&p, m).unwrap();
        let bounds = infer_loop_bounds(&a);
        assert_eq!(bounds.len(), 1);
        // i = 2,5,8,11,14,17,20 -> 7 trips
        assert_eq!(bounds[0].trips, 7);
    }

    #[test]
    fn downward_loop() {
        let (p, m) = analyzer_for(
            "int main() { int i; int s; s = 0; for (i = 10; i > 0; i = i - 2) { s = s + 1; } return s; }",
            "main",
        );
        let a = Analyzer::new(&p, m).unwrap();
        let bounds = infer_loop_bounds(&a);
        assert_eq!(bounds.len(), 1);
        assert_eq!(bounds[0].trips, 5);
    }

    #[test]
    fn zero_trip_loop() {
        let (p, m) = analyzer_for(
            "int main() { int i; int s; s = 0; for (i = 5; i < 5; i = i + 1) { s = s + 1; } return s; }",
            "main",
        );
        let a = Analyzer::new(&p, m).unwrap();
        let bounds = infer_loop_bounds(&a);
        // The loop body is still in the CFG; the bound must be 0.
        assert_eq!(bounds.len(), 1);
        assert_eq!(bounds[0].trips, 0);
    }

    #[test]
    fn data_dependent_loop_is_not_inferred() {
        let (p, m) = analyzer_for(
            "int main(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + 1; } return s; }",
            "main",
        );
        let a = Analyzer::new(&p, m).unwrap();
        assert!(infer_loop_bounds(&a).is_empty(), "limit is a parameter, not a constant");
    }

    #[test]
    fn two_updates_disqualify() {
        let (p, m) = analyzer_for(
            "int main(int n) { int i; i = 0; while (i < 10) { if (n > 0) { i = i + 1; } else { i = i + 2; } } return i; }",
            "main",
        );
        let a = Analyzer::new(&p, m).unwrap();
        assert!(infer_loop_bounds(&a).is_empty());
    }

    #[test]
    fn inference_matches_manual_annotations_on_suite() {
        // For the data-independent benchmarks the inferred trip counts
        // must agree with the hand-written bounds.
        for name in ["matgen", "jpeg_fdct_islow", "recon", "whetstone"] {
            let b = ipet_suite::by_name(name).unwrap();
            let p = b.program().unwrap();
            let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
            let inferred = infer_loop_bounds(&a);
            assert!(!inferred.is_empty(), "{name}: nothing inferred");
            // Every inferred bound reproduces the manual one: analysis with
            // inferred text alone must give the same WCET when it covers
            // all loops.
            let manual = a.analyze(&b.annotations(&p)).unwrap();
            let all_loops: usize = a.loops_needing_bounds().len();
            if inferred.len() == all_loops {
                let auto = a.analyze(&inferred_annotations(&inferred)).unwrap();
                assert_eq!(auto.bound.upper, manual.bound.upper, "{name}");
            }
        }
    }

    #[test]
    fn trip_count_arithmetic() {
        assert_eq!(trip_count(0, Cond::Lt, 10, 1), Some(10));
        assert_eq!(trip_count(0, Cond::Le, 10, 1), Some(11));
        assert_eq!(trip_count(0, Cond::Lt, 10, 3), Some(4));
        assert_eq!(trip_count(10, Cond::Gt, 0, -2), Some(5));
        assert_eq!(trip_count(10, Cond::Ge, 0, -2), Some(6));
        assert_eq!(trip_count(0, Cond::Ne, 10, 2), Some(5));
        assert_eq!(trip_count(0, Cond::Ne, 9, 2), None, "overshoots");
        assert_eq!(trip_count(0, Cond::Lt, 10, -1), None, "diverges");
        assert_eq!(trip_count(5, Cond::Lt, 5, 1), Some(0));
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use crate::estimate::Analyzer;
    use ipet_hw::Machine;

    /// Regression: `i = 0 - 4` compiles to ldc 0; ldc 4; sub; st — the
    /// inference must NOT pick up the stale `ldc 0` past the subtraction
    /// and silently derive a too-small (unsound) trip count.
    #[test]
    fn computed_initialisers_are_not_misread_as_constants() {
        let p = ipet_lang::compile(
            "int main() { int i; int s; s = 0; for (i = 0 - 4; i <= 4; i = i + 1) { s = s + 1; } return s; }",
            "main",
        )
        .unwrap();
        let a = Analyzer::new(&p, Machine::i960kb()).unwrap();
        let bounds = infer_loop_bounds(&a);
        // Either nothing is inferred, or the inferred count is the true 9.
        for b in &bounds {
            assert_eq!(b.trips, 9, "an inferred bound must be exact");
        }
    }
}
