//! # ipet-lp
//!
//! A self-contained linear-programming and integer-linear-programming solver,
//! standing in for the commercial ILP package used by the paper's tool.
//!
//! The paper observes that in practice its branch-and-bound solver finds an
//! integral solution at the *very first* LP relaxation (the structural
//! constraints are network-flow-like). This crate therefore reports that
//! statistic explicitly in [`IlpStats::first_relaxation_integral`], so the
//! experiment harness can reproduce the claim.
//!
//! ## Components
//!
//! * [`Problem`] / [`ProblemBuilder`] — LP/ILP model of integers only:
//!   non-negative variables known by index ([`VarId`]), an `i64` objective,
//!   `≤ / ≥ / =` rows with `i64` coefficients and right-hand sides, and
//!   integrality flags. A variable has no name here; a caller that prints
//!   one keeps its own labels. The simplex kernel converts the integers to
//!   `f64` as it loads its columns, so a problem needs no check for NaN or
//!   infinite data, and its fingerprint, its structural equality and its
//!   exact certification are integer operations.
//! * One simplex kernel: a sparse revised simplex (LU factors plus an eta
//!   file, Dantzig pricing with a Bland anti-cycling fallback) whose
//!   phase 1 starts from a triangular crash basis. Every solve runs on it
//!   and resolves a tied optimum to its canonical (lexicographically
//!   smallest) point.
//! * [`solve_lp`] — solves of a problem as it stands.
//! * [`solve_ilp`] — depth-first branch & bound on fractional variables.
//! * [`fingerprint`] / [`same_structure`] — the content key a problem is
//!   cached under, and the exact equality that gates every replay.
//!
//! Debug builds keep a second, independent kernel — a textbook full-row
//! tableau with Bland's rule — as the reference that tests compare the
//! sparse kernel against.
//!
//! ## Example
//!
//! ```
//! use ipet_lp::{ProblemBuilder, Relation, Sense, solve_ilp, IlpOutcome};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x,y integer >= 0
//! let mut b = ProblemBuilder::new(Sense::Maximize);
//! let x = b.add_var(true);
//! let y = b.add_var(true);
//! b.objective(x, 3);
//! b.objective(y, 2);
//! b.constraint(vec![(x, 1), (y, 1)], Relation::Le, 4);
//! b.constraint(vec![(x, 1)], Relation::Le, 2);
//! let (outcome, stats) = solve_ilp(&b.build());
//! match outcome {
//!     IlpOutcome::Optimal { value, .. } => {
//!         assert_eq!(value.round() as i64, 10); // x=2, y=2
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! assert!(stats.lp_calls >= 1);
//! ```

//!
//! ## Budgets and graceful degradation
//!
//! The budget-aware entry points never hang and never guess: each solve
//! charges its pivots to its own [`BudgetMeter`] in deterministic *ticks*
//! (one tick = one simplex pivot), a [`SolveBudget`] caps ticks and
//! branch-and-bound nodes, and [`solve_ilp_budgeted`] degrades
//! to a safe LP-relaxation bound ([`IlpResolution::Relaxed`]) instead of
//! erroring when a budget runs out. [`SolverFaults`] injects each
//! exhaustion path deterministically for testing, and [`BoundQuality`] is
//! the vocabulary downstream layers use to label how trustworthy a
//! reported bound is.

//!
//! ## Witness rounding
//!
//! [`round_witness`] / [`round_claimed`] are the single sanctioned path from
//! f64 solver output to integer execution counts, under one tolerance
//! ([`WITNESS_TOL`]). The estimator, the pool's replay tier, and the
//! `ipet-audit` certifier all round here, so "is this witness integral?"
//! has exactly one answer everywhere.

mod budget;
mod canonical;
mod fingerprint;
mod ilp;
mod model;
pub mod parametric;
#[cfg(any(test, debug_assertions))]
mod reference;
mod round;
mod simplex;
mod sparse;

pub use budget::{
    is_injected_panic, BoundQuality, BudgetMeter, CancelToken, IoFault, LpFault, SolveBudget,
    SolveFault, SolverFaults,
};
pub use fingerprint::{fingerprint, same_structure, Fingerprint};
pub use ilp::{solve_ilp, solve_ilp_budgeted, IlpOutcome, IlpResolution, IlpStats};
pub use model::{Constraint, Problem, ProblemBuilder, Relation, Sense, VarId};
pub use parametric::{BoundFormula, GridSweep, Probe};
#[cfg(debug_assertions)]
#[doc(hidden)]
pub use reference::debug_reference_lp;
pub use round::{round_claimed, round_witness, RoundError, WITNESS_TOL};
pub use simplex::{solve_lp, solve_lp_metered, LpOutcome, FEAS_TOL, INT_TOL};
#[cfg(debug_assertions)]
#[doc(hidden)]
pub use sparse::debug_lu_checks;
