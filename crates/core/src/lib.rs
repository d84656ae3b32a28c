//! # ipet-core
//!
//! The paper's contribution: bounding a program's running time by
//! **implicit path enumeration** — an integer linear program over basic
//! block execution counts instead of an explicit walk of the exponential
//! path space.
//!
//! The pipeline is exactly the paper's:
//!
//! 1. [`Analyzer::new`] builds the per-call-site CFG instances and derives
//!    the **structural constraints** (flow conservation, `d1 = 1`, `f`-edge
//!    coupling) automatically.
//! 2. The user supplies **functionality constraints** in a small textual
//!    DSL ([`parse_annotations`]): loop bounds (`loop x2 in [1, 10];`),
//!    linear path facts (`x3 = x8;`), disjunctions
//!    (`(x3 = 0 & x5 = 1) | (x3 = 1 & x5 = 0);`) and caller-scoped counts
//!    (`x12 = x8.f1;`).
//! 3. Disjunctions are expanded to a set of conjunctive constraint sets,
//!    null sets are pruned, and each surviving set becomes one ILP whose
//!    objective `Σ c_i·x_i` uses the block cost bounds from `ipet-hw`.
//!    The WCET is the max over sets of the maxima; the BCET the min of the
//!    minima.
//! 4. [`Analyzer::plan`] turns this into a job graph, and the solve pool
//!    ([`SolvePool`]) runs it: dedup, a content-addressed cache,
//!    deterministic deadline sharding and any number of workers.
//!    [`Analyzer::analyze`] is the one-worker, unbudgeted case.
//!
//! ## Example
//!
//! ```
//! use ipet_arch::{AsmBuilder, Cond, FuncId, Program, Reg, AluOp};
//! use ipet_core::Analyzer;
//! use ipet_hw::Machine;
//!
//! // while (t < 10) t++;  — a single loop needing one bound annotation.
//! let mut b = AsmBuilder::new("main");
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
//! let analyzer = Analyzer::new(&program, Machine::i960kb()).unwrap();
//! let estimate = analyzer.analyze("fn main { loop x2 in [10, 10]; }").unwrap();
//! assert!(estimate.bound.lower <= estimate.bound.upper);
//! ```

mod dsl;
mod error;
mod estimate;
mod idl;
mod infer;
mod lincon;
mod pool;
mod structural;
mod vars;

pub use dsl::{
    parse_annotations, Annotations, BoundSource, LinExpr, LoopProvenance, OrExpr, Ref, RefKind,
    Stmt, MAX_GROUP_DEPTH,
};
pub use error::AnalysisError;
pub use estimate::{
    AnalysisBudget, AnalysisPlan, Analyzer, CacheMode, ContextMode, Estimate, IlpJob, JobVerdict,
    SetReport, TimeBound,
};
pub use idl::{compile_idl, idl_to_dsl, parse_idl, IdlAnnotations, IdlStmt};
pub use infer::{infer_loop_bounds, inferred_annotations, InferredBound};
// Budget vocabulary shared with the solver layer, re-exported so CLI and
// bench consumers need only depend on ipet-core.
pub use ipet_audit::{certify_chord, AuditReport, CertFailure, CertVerdict, SetCertificate};
// Parametric-cost vocabulary shared with the hardware model, re-exported
// for the same reason (Estimate::wcet_formula is a ParamExpr).
pub use ipet_hw::{ParamExpr, ParamPoint, P_DMISS, P_MISS};
pub use ipet_lp::{BoundQuality, BudgetMeter, CancelToken, SolveBudget, SolverFaults};
pub use lincon::{set_is_null, LinCon};
pub use pool::{
    AuditedPlanBatch, BatchReport, CacheOutcome, CacheStats, JobOutcome, PlanBatch, SolvePool,
    SolveRequest, SOLVE_CACHE_CAPACITY,
};
pub use structural::{flow_spec, structural_constraints, structural_text};
pub use vars::{VarRef, VarSpace};
