//! # ipet-cfg
//!
//! Control-flow graphs over [`ipet_arch`] programs, in the exact shape the
//! paper's structural constraints are written against:
//!
//! * every **basic block** gets an execution-count variable `x_i`,
//! * every **edge** gets a flow variable `d_j`, including a virtual entry
//!   edge (`d1 = 1` for the analysed routine) and virtual exit edges,
//! * every **call site** becomes an `f`-edge pointing at the callee's CFG.
//!
//! The paper analyses each call site with "a separate set of `x_i`
//! variables ... for this instance of the call"; [`Instances`] performs that
//! context expansion: one CFG instance per acyclic call-string, so a
//! constraint such as `x12 = x8.f1` can name the `x8` of the callee instance
//! reached through call site `f1`.
//!
//! [`Cfg::build`] derives each CFG's facts once: per-block adjacency
//! ([`Cfg::in_edges`], [`Cfg::predecessors`], …), [`Dominators`] and the
//! natural-loop forest ([`Cfg::loops`]). A built `Cfg` never changes, so
//! every later layer borrows these instead of recomputing them. The loops
//! drive both the "mark the loops and ask the user for bounds" workflow and
//! the first-iteration cache splitting ablation.
//!
//! ## Example
//!
//! ```
//! use ipet_arch::{AluOp, AsmBuilder, Cond, FuncId, Program, Reg};
//! use ipet_cfg::{Cfg, LoopInfo};
//!
//! // while (t < 10) t++;
//! let mut b = AsmBuilder::new("loopy");
//! let head = b.fresh_label();
//! let out = b.fresh_label();
//! b.ldc(Reg::T0, 0);
//! b.bind(head);
//! b.br(Cond::Ge, Reg::T0, 10, out);
//! b.alu(AluOp::Add, Reg::T0, Reg::T0, 1);
//! b.jmp(head);
//! b.bind(out);
//! b.ret();
//! let program = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
//!
//! let cfg = Cfg::build(FuncId(0), program.entry_function());
//! assert_eq!(cfg.num_blocks(), 4);
//! let loops: &[LoopInfo] = cfg.loops(); // detected once, inside `build`
//! assert_eq!(loops.len(), 1);
//! assert_eq!(loops[0].back_edges.len(), 1);
//! assert!(cfg.dominators().dominates(loops[0].header, loops[0].body[1]));
//! ```

mod callgraph;
mod dom;
mod graph;
mod loops;

pub use callgraph::{CallGraph, CallGraphError, CallSite, Instance, InstanceId, Instances};
pub use dom::Dominators;
pub use graph::{BasicBlock, BlockId, Cfg, Edge, EdgeId, EdgeKind};
pub use loops::{LoopId, LoopInfo};
