//! # ipet-baseline
//!
//! The state of the art the paper argues against: **explicit path
//! enumeration** in the style of Park & Shaw. Feasible paths through one
//! procedure's CFG are walked one by one (under user loop bounds), and the
//! extreme costs are taken over the walked set.
//!
//! The point of this crate is the comparison experiment: the number of
//! paths is exponential in the number of sequential branches ("this runs
//! out of steam rather quickly"), while the ILP formulation of `ipet-core`
//! considers them all implicitly. [`PathEnumerator`] therefore counts the
//! paths it explores and reports truncation honestly when the budget is
//! exhausted.
//!
//! Scope: one procedure at a time (like Park's IDL). Call edges are
//! traversed as ordinary edges; callee cost can be folded into the call
//! block's cost by the caller if desired.
//!
//! ## Example
//!
//! ```
//! use ipet_baseline::{diamond_chain_program, PathEnumerator};
//! use ipet_cfg::Cfg;
//! use ipet_hw::{block_cost, Machine};
//! use std::collections::HashMap;
//!
//! let program = diamond_chain_program(4); // 2^4 = 16 paths
//! let cfg = Cfg::build(program.entry, program.entry_function());
//! let machine = Machine::i960kb();
//! let costs: Vec<_> = cfg
//!     .blocks()
//!     .iter()
//!     .map(|b| block_cost(&machine, program.entry_function(), b))
//!     .collect();
//! let result = PathEnumerator::new(&cfg, &costs, &HashMap::new(), u64::MAX)?
//!     .enumerate();
//! assert_eq!(result.paths_explored, 16);
//! assert!(!result.truncated);
//! # Ok::<(), ipet_baseline::EnumError>(())
//! ```

use ipet_cfg::{BlockId, Cfg, EdgeId, EdgeKind};
use ipet_hw::BlockCost;
use std::collections::HashMap;
use std::fmt;

/// Errors from explicit enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumError {
    /// A loop has no bound, so the path set is infinite.
    MissingLoopBound(BlockId),
    /// `costs` does not cover every block.
    BadCosts { blocks: usize, costs: usize },
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::MissingLoopBound(b) => {
                write!(f, "loop headed at {b} has no iteration bound")
            }
            EnumError::BadCosts { blocks, costs } => {
                write!(f, "{costs} costs supplied for {blocks} blocks")
            }
        }
    }
}

impl std::error::Error for EnumError {}

/// Result of an enumeration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumResult {
    /// Complete entry-to-exit paths examined.
    pub paths_explored: u64,
    /// True when the path budget was exhausted before the walk finished —
    /// the reported bound is then *not* safe, which is exactly the
    /// methodological weakness the paper points out.
    pub truncated: bool,
    /// Best-case cycles over explored paths (`None` when no path completed).
    pub best: Option<u64>,
    /// Worst-case cycles over explored paths.
    pub worst: Option<u64>,
    /// Blocks of the most expensive explored path.
    pub worst_path: Vec<BlockId>,
}

/// Explicit enumerator over one CFG.
#[derive(Debug)]
pub struct PathEnumerator<'a> {
    cfg: &'a Cfg,
    costs: &'a [BlockCost],
    /// `header -> max iterations per entry`.
    bounds: HashMap<BlockId, u64>,
    max_paths: u64,
}

impl<'a> PathEnumerator<'a> {
    /// Creates an enumerator.
    ///
    /// `loop_bounds` maps loop headers to their maximum iterations per
    /// entry (the same numbers the IPET annotations carry).
    ///
    /// # Errors
    ///
    /// Fails when costs do not cover the blocks or a loop is unbounded.
    pub fn new(
        cfg: &'a Cfg,
        costs: &'a [BlockCost],
        loop_bounds: &HashMap<BlockId, u64>,
        max_paths: u64,
    ) -> Result<PathEnumerator<'a>, EnumError> {
        if costs.len() != cfg.num_blocks() {
            return Err(EnumError::BadCosts { blocks: cfg.num_blocks(), costs: costs.len() });
        }
        for l in cfg.loops() {
            if !loop_bounds.contains_key(&l.header) {
                return Err(EnumError::MissingLoopBound(l.header));
            }
        }
        Ok(PathEnumerator { cfg, costs, bounds: loop_bounds.clone(), max_paths })
    }

    /// Walks every feasible path (within the budget) and returns the
    /// extreme costs.
    pub fn enumerate(&self) -> EnumResult {
        let mut state = Walk {
            enumerator: self,
            result: EnumResult {
                paths_explored: 0,
                truncated: false,
                best: None,
                worst: None,
                worst_path: Vec::new(),
            },
            path: Vec::new(),
            back_counts: HashMap::new(),
        };
        state.visit(self.cfg.entry(), 0, 0);
        state.result
    }

    fn back_edge_header(&self, edge: EdgeId) -> Option<BlockId> {
        self.cfg.loops().iter().find(|l| l.back_edges.contains(&edge)).map(|l| l.header)
    }
}

struct Walk<'e, 'a> {
    enumerator: &'e PathEnumerator<'a>,
    result: EnumResult,
    path: Vec<BlockId>,
    /// Back-edge traversals per loop header along the current path.
    back_counts: HashMap<BlockId, u64>,
}

impl Walk<'_, '_> {
    fn visit(&mut self, block: BlockId, best_so_far: u64, worst_so_far: u64) {
        if self.result.paths_explored >= self.enumerator.max_paths {
            self.result.truncated = true;
            return;
        }
        self.path.push(block);
        let c = self.enumerator.costs[block.0];
        let best = best_so_far + c.best;
        let worst = worst_so_far + c.worst_cold;

        for &e in self.enumerator.cfg.out_edges(block) {
            if self.result.truncated {
                break;
            }
            let edge = self.enumerator.cfg.edges()[e.0];
            match edge.kind {
                EdgeKind::Exit => {
                    self.result.paths_explored += 1;
                    if self.result.best.map(|b| best < b).unwrap_or(true) {
                        self.result.best = Some(best);
                    }
                    if self.result.worst.map(|w| worst > w).unwrap_or(true) {
                        self.result.worst = Some(worst);
                        self.result.worst_path = self.path.clone();
                    }
                }
                EdgeKind::Entry => unreachable!("entry edges have no source block"),
                EdgeKind::Internal | EdgeKind::Call(_) => {
                    let to = edge.to.expect("non-exit edges have targets");
                    if let Some(header) = self.enumerator.back_edge_header(e) {
                        let limit = self.enumerator.bounds[&header];
                        let count = self.back_counts.entry(header).or_insert(0);
                        if *count >= limit {
                            continue; // iteration bound exhausted
                        }
                        *count += 1;
                        self.visit(to, best, worst);
                        *self.back_counts.get_mut(&header).expect("just inserted") -= 1;
                    } else {
                        self.visit(to, best, worst);
                    }
                }
            }
        }
        self.path.pop();
    }
}

/// Builds a synthetic single-function program with `k` sequential
/// if-then-else diamonds (2^k acyclic paths) — the scalability workload for
/// the explicit-vs-implicit comparison. Arms are given different costs so
/// the worst path is unique.
pub fn diamond_chain_program(k: usize) -> ipet_arch::Program {
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Reg};
    let mut b = AsmBuilder::new("diamonds");
    for i in 0..k {
        let els = b.fresh_label();
        let join = b.fresh_label();
        b.br(Cond::Eq, Reg::A0, i as i32, els);
        // then-arm: cheap
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(join);
        b.bind(els);
        // else-arm: expensive (multiply + divide)
        b.alu(AluOp::Mul, Reg::T0, Reg::T0, 3);
        b.alu(AluOp::Div, Reg::T0, Reg::T0, 2);
        b.bind(join);
    }
    b.mov(Reg::RV, Reg::T0);
    b.ret();
    ipet_arch::Program::new(vec![b.finish().unwrap()], vec![], FuncId(0))
        .expect("diamond chain is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};
    use ipet_hw::{block_cost, Machine};

    fn costs_of(p: &Program, cfg: &Cfg) -> Vec<BlockCost> {
        let m = Machine::i960kb();
        cfg.blocks().iter().map(|b| block_cost(&m, &p.functions[cfg.func.0], b)).collect()
    }

    #[test]
    fn diamond_chain_has_exponential_paths() {
        for k in [1usize, 3, 6] {
            let p = diamond_chain_program(k);
            let cfg = Cfg::build(FuncId(0), &p.functions[0]);
            let costs = costs_of(&p, &cfg);
            let e = PathEnumerator::new(&cfg, &costs, &HashMap::new(), u64::MAX).unwrap();
            let r = e.enumerate();
            assert_eq!(r.paths_explored, 1 << k, "k={k}");
            assert!(!r.truncated);
            assert!(r.worst.unwrap() > r.best.unwrap());
        }
    }

    #[test]
    fn truncation_reported() {
        let p = diamond_chain_program(10);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let costs = costs_of(&p, &cfg);
        let e = PathEnumerator::new(&cfg, &costs, &HashMap::new(), 100).unwrap();
        let r = e.enumerate();
        assert!(r.truncated);
        assert!(r.paths_explored <= 100);
    }

    #[test]
    fn loop_bound_limits_iterations() {
        // while loop with bound 3: paths with 0..=3 iterations = 4 paths.
        let mut b = AsmBuilder::new("wl");
        let head = b.fresh_label();
        let out = b.fresh_label();
        b.ldc(Reg::T0, 0);
        b.bind(head);
        b.br(Cond::Ge, Reg::T0, 10, out);
        b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
        b.jmp(head);
        b.bind(out);
        b.ret();
        let p = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let costs = costs_of(&p, &cfg);
        let mut bounds = HashMap::new();
        bounds.insert(BlockId(1), 3u64);
        let e = PathEnumerator::new(&cfg, &costs, &bounds, u64::MAX).unwrap();
        let r = e.enumerate();
        assert_eq!(r.paths_explored, 4);
        // Worst path takes all 3 iterations: header appears 4 times.
        let headers = r.worst_path.iter().filter(|&&b| b == BlockId(1)).count();
        assert_eq!(headers, 4);
    }

    #[test]
    fn missing_loop_bound_is_an_error() {
        let mut b = AsmBuilder::new("wl");
        let head = b.fresh_label();
        b.bind(head);
        b.br(Cond::Eq, Reg::A0, 0, head);
        b.ret();
        let p = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let costs = costs_of(&p, &cfg);
        assert!(matches!(
            PathEnumerator::new(&cfg, &costs, &HashMap::new(), 10),
            Err(EnumError::MissingLoopBound(_))
        ));
    }

    #[test]
    fn cost_arity_checked() {
        let p = diamond_chain_program(1);
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        assert!(matches!(
            PathEnumerator::new(&cfg, &[], &HashMap::new(), 10),
            Err(EnumError::BadCosts { .. })
        ));
    }

    #[test]
    fn agrees_with_straight_line_cost() {
        let mut b = AsmBuilder::new("s");
        b.nop();
        b.nop();
        b.ret();
        let p = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
        let cfg = Cfg::build(FuncId(0), &p.functions[0]);
        let costs = costs_of(&p, &cfg);
        let e = PathEnumerator::new(&cfg, &costs, &HashMap::new(), 10).unwrap();
        let r = e.enumerate();
        assert_eq!(r.paths_explored, 1);
        assert_eq!(r.best.unwrap(), costs[0].best);
        assert_eq!(r.worst.unwrap(), costs[0].worst_cold);
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;
    use ipet_arch::FuncId;
    use ipet_cfg::Cfg;
    use ipet_hw::{block_cost, Machine};

    #[test]
    fn worst_path_is_a_connected_entry_to_exit_walk() {
        let p = diamond_chain_program(5);
        let cfg = Cfg::build(FuncId(0), p.entry_function());
        let m = Machine::i960kb();
        let costs: Vec<_> =
            cfg.blocks().iter().map(|b| block_cost(&m, p.entry_function(), b)).collect();
        let r = PathEnumerator::new(&cfg, &costs, &HashMap::new(), u64::MAX).unwrap().enumerate();
        let path = &r.worst_path;
        assert_eq!(path.first(), Some(&cfg.entry()));
        for w in path.windows(2) {
            assert!(
                cfg.successors(w[0]).contains(&w[1]),
                "consecutive path blocks are CFG successors"
            );
        }
        let last = *path.last().unwrap();
        assert!(cfg.exit_blocks().contains(&last), "path ends at an exit");
        // The path cost really is the reported worst.
        let cost: u64 = path.iter().map(|b| costs[b.0].worst_cold).sum();
        assert_eq!(Some(cost), r.worst);
    }

    #[test]
    fn budget_zero_explores_nothing() {
        let p = diamond_chain_program(2);
        let cfg = Cfg::build(FuncId(0), p.entry_function());
        let m = Machine::i960kb();
        let costs: Vec<_> =
            cfg.blocks().iter().map(|b| block_cost(&m, p.entry_function(), b)).collect();
        let r = PathEnumerator::new(&cfg, &costs, &HashMap::new(), 0).unwrap().enumerate();
        assert!(r.truncated);
        assert_eq!(r.paths_explored, 0);
        assert_eq!(r.worst, None);
    }
}
