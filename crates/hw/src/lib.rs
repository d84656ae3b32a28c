//! # ipet-hw
//!
//! The micro-architectural model of the reproduction's i960KB-flavoured
//! target: a 4-stage pipelined integer core with a 512-byte direct-mapped
//! instruction cache and uncached data memory.
//!
//! Exactly as in the paper (§IV), the model produces a *constant* cost
//! bound per basic block:
//!
//! * **best case** assumes every instruction fetch hits the i-cache and
//!   conditional branches fall through;
//! * **worst case** assumes every cache line the block touches must be
//!   filled from memory and conditional branches are taken (pipeline
//!   refill).
//!
//! Load-use interlocks between adjacent instructions within a block are
//! charged in both bounds ("for each assembly instruction ... we analyze
//! its adjacent instructions within the basic block").
//!
//! The paper notes that all-miss worst-case costing is very pessimistic for
//! loops and suggests splitting the first loop iteration into its own
//! virtual block; [`BlockCost::worst_warm`] provides the all-hit worst cost
//! that the splitting transformation in `ipet-core` uses for non-first
//! iterations.
//!
//! ## Example
//!
//! ```
//! use ipet_arch::{AsmBuilder, FuncId, Program, Reg, AluOp};
//! use ipet_cfg::Cfg;
//! use ipet_hw::{block_cost, Machine};
//!
//! let mut b = AsmBuilder::new("f");
//! b.alu(AluOp::Mul, Reg::RV, Reg::A0, 3);
//! b.ret();
//! let program = Program::new(vec![b.finish().unwrap()], vec![], FuncId(0)).unwrap();
//! let cfg = Cfg::build(FuncId(0), program.entry_function());
//!
//! let machine = Machine::i960kb();
//! let cost = block_cost(&machine, program.entry_function(), &cfg.blocks()[0]);
//! assert!(cost.best <= cost.worst_warm);
//! assert!(cost.worst_warm < cost.worst_cold); // the cold case pays a line fill
//! ```

mod cache;
mod cost;
mod machine;
mod param;

pub use cache::CacheGeom;
pub use cost::{block_cost, block_cycles, instr_cycles, BlockCost, Cycles};
pub use machine::Machine;
pub use param::{ParamExpr, ParamPoint, P_DMISS, P_MISS};
