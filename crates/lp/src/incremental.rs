//! Base+delta problem decomposition and dual-simplex warm starting.
//!
//! IPET's DNF expansion produces many ILPs per routine that share every
//! structural row and differ only in a handful of functionality conjuncts.
//! This module factors that family into one immutable [`BaseProblem`] (the
//! rows common to every set, plus objective and bounds) and one small
//! [`DeltaSet`] per constraint set, and re-optimizes each delta from a
//! snapshot of the base optimum instead of solving each composed problem
//! from scratch. The snapshot is the base as it stands, solved by the
//! sparse revised simplex ([`crate::sparse`]) exactly as a cold LP is
//! ([`crate::simplex`]); a delta's rows are appended to it over the
//! composed problem's own variables.
//!
//! ## Bit-identity contract
//!
//! Warm-started results are required to be **bit-identical** to cold
//! solves — same resolution, same witness, same statistics — at any job
//! order and any worker count. A dual-simplex re-optimization reaches its
//! optimum by a different pivot path than the cold solve, so a warm result
//! is *accepted* only when it is provably the one the cold path returns:
//!
//! 1. the re-optimized LP is **optimal**, and its basis walks on to the
//!    **canonical** optimum: the lexicographic minimum of the structural
//!    variables over the optimal face ([`crate::canonical`]). The face is
//!    the composed LP's, whichever basis reaches it, and its lexicographic
//!    minimum is one point — the point the cold root relaxation returns
//!    too;
//! 2. that point rounds to integer counts ([`round_witness`]) with every
//!    variable integer-typed, so the cold root relaxation is integral and
//!    returns immediately with `{lp_calls: 1, nodes: 1,
//!    first_relaxation_integral: true}`;
//! 3. the rounded witness **exactly certifies** against the composed
//!    problem via the injected `certify` callback (the caller supplies
//!    `ipet-audit`'s integer-arithmetic check, which keeps this crate free
//!    of a dependency cycle).
//!
//! Everything else — dual infeasibility, iteration limits, a fractional
//! canonical optimum, certification failures — falls back to the ordinary
//! cold branch-and-bound solve and counts `lp.warm.misses`, plus the first
//! gate it failed as `lp.warm.miss.{dual,fractional,uncertified}`.
//! Witness vectors and objective values of accepted results are
//! canonicalized to their rounded integer form (the cold path applies the
//! same canonicalization), which makes the equality hold bit for bit rather
//! than merely within tolerance.
//! Under `debug_assertions` every accepted warm result is additionally
//! shadow-solved cold and asserted identical, and checked against the
//! canonical LP optimum of the independent reference kernel
//! ([`crate::reference`]).
//!
//! Warm starting is only attempted under effectively unconstrained budgets
//! (no tick deadline, no per-LP iteration cap, at least one node): under a
//! deadline the cold path's tick accounting is what drives degradation, and
//! the warm path must never change *which* results degrade.

use crate::budget::{BudgetMeter, SolveBudget, SolverFaults};
use crate::canonical::{canonicalize, LexEnd};
use crate::fingerprint::{Fingerprint, ProblemHasher};
use crate::ilp::{solve_ilp_budgeted, IlpResolution, IlpStats};
use crate::model::{Constraint, Problem};
use crate::round::{round_claimed, round_witness};
use crate::simplex::le_form;
use crate::sparse::{SparseDualEnd, SparseEnd, SparseInstance};

/// Exact-certification callback: `(composed problem, rounded witness,
/// claimed objective) -> certified?`. Supplied by the caller (the analysis
/// core injects `ipet-audit`'s exact integer check) so `ipet-lp` does not
/// depend on the auditor.
pub type CertifyFn<'c> = &'c (dyn Fn(&Problem, &[f64], i64) -> bool + 'c);

/// The rows one DNF constraint set adds on top of a shared base problem.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeltaSet {
    /// Extra constraint rows; variable ids index the base problem's
    /// variables.
    pub rows: Vec<Constraint>,
}

impl DeltaSet {
    /// A delta carrying the given rows.
    pub fn new(rows: Vec<Constraint>) -> DeltaSet {
        DeltaSet { rows }
    }

    /// True when the delta adds nothing (the composed problem *is* the
    /// base).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// An immutable shared base problem: objective, variable bounds and the
/// constraint rows common to every set of a routine, with the fingerprint
/// hash state after its rows kept for cache keying.
#[derive(Debug, Clone)]
pub struct BaseProblem {
    problem: Problem,
    hasher: ProblemHasher,
}

impl BaseProblem {
    /// Wraps a problem as a shared base, hashing it once.
    pub fn new(problem: Problem) -> BaseProblem {
        let mut hasher = ProblemHasher::new(&problem);
        hasher.rows(&problem.constraints);
        BaseProblem { problem, hasher }
    }

    /// The base problem itself (also the cover relaxation of every set that
    /// extends it: the base's feasible region contains each composed set's).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Content fingerprint of the base: [`crate::fingerprint`] of
    /// [`BaseProblem::problem`].
    pub fn fingerprint(&self) -> Fingerprint {
        self.hasher.finish()
    }

    /// The pool's cache key of `base + delta`: the base's hash continued
    /// over the delta rows, equal to `fingerprint(&self.compose(delta))`
    /// by construction, in O(delta terms).
    pub fn key(&self, delta: &DeltaSet) -> Fingerprint {
        let mut hasher = self.hasher.clone();
        hasher.rows(&delta.rows);
        hasher.finish()
    }

    /// Recomposes the full monolithic problem: the base rows followed by
    /// the delta rows, in order. Audit certification and cold solves always
    /// run against this composed problem.
    pub fn compose(&self, delta: &DeltaSet) -> Problem {
        let mut full = self.problem.clone();
        full.constraints.extend(delta.rows.iter().cloned());
        full
    }

    /// Solves the base LP relaxation once and snapshots the optimal basis.
    /// Returns `None` when the base is not warm-startable; callers then
    /// solve every delta cold.
    ///
    /// The base is solved as it stands on the cold path's sparse kernel
    /// (crashed standard form, primal simplex), and the snapshot is the
    /// factorized optimal basis over the base's own variables. A base with
    /// a continuous variable or non-finite data, or whose sparse solve is
    /// not optimal, gets no snapshot.
    ///
    /// Pivots are charged to `meter` and reported under `lp.ticks`;
    /// `lp.warm.base_solves` counts the sparse solve, `lp.base.crash_rows`
    /// the rows its crash basis covered and `lp.base.phase1_pivots` the
    /// pivots phase 1 still spent.
    pub fn solve_base(&self, meter: &BudgetMeter) -> Option<BaseSolution> {
        // A cancelled meter declines the base solve outright: its jobs fall
        // cold, where the budget checkpoints degrade them promptly.
        if meter.cancel_token().is_cancelled() {
            return None;
        }
        let _span = ipet_trace::span("lp.base_solve");
        if !self.problem.integer.iter().all(|&b| b) {
            return None;
        }
        let mut inst = SparseInstance::build(&self.problem)?;
        let cap = inst.default_iter_cap();
        let mut pivots = 0u64;
        let end = inst.solve_primal(cap, &mut pivots);
        meter.charge_ticks(pivots);
        ipet_trace::counter("lp.warm.base_solves", 1);
        ipet_trace::counter("lp.ticks", pivots);
        ipet_trace::counter("lp.base.crash_rows", inst.crash_rows());
        ipet_trace::counter("lp.base.phase1_pivots", inst.phase1_pivots());
        (end == SparseEnd::Optimal).then_some(BaseSolution { inst, pivots })
    }
}

/// A snapshot of the base problem's optimal basis, reusable across every
/// delta of the base (and across identical bases): the factorized sparse
/// optimum of the base. Opaque; produced by [`BaseProblem::solve_base`].
#[derive(Clone)]
pub struct BaseSolution {
    inst: SparseInstance,
    pivots: u64,
}

impl BaseSolution {
    /// Pivots the base solve spent — the work a warm start amortizes.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }
}

/// True when `budget` permits warm starting (see the module docs: warm
/// starts are a pure optimization for unconstrained solves and must never
/// change which results degrade under a budget).
pub fn warm_eligible(budget: &SolveBudget) -> bool {
    budget.deadline_ticks.is_none() && budget.max_lp_iters.is_none() && budget.max_nodes >= 1
}

#[cfg(debug_assertions)]
thread_local! {
    static FORCE_SHADOW_MISMATCH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Test-only mutation hook: forces the next accepted warm result to
/// disagree with its cold shadow solve, proving the `debug_assertions`
/// equivalence check actually fires. Debug builds only.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn debug_force_warm_mismatch(on: bool) {
    FORCE_SHADOW_MISMATCH.with(|f| f.set(on));
}

/// Why a warm attempt missed: the first acceptance gate it failed. Each
/// miss inside [`warm_attempt`] counts `lp.warm.miss.<reason>` next to the
/// aggregate `lp.warm.misses`; a miss before it (no base snapshot, not a
/// pure finite ILP) counts only in the aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmMiss {
    /// The dual re-optimization, or the walk on to the canonical optimum,
    /// ended without a finite optimum.
    Dual,
    /// The canonical optimum does not round to integer counts.
    Fractional,
    /// Claim rounding or exact certification rejected the witness.
    Uncertified,
}

impl WarmMiss {
    fn counter(self) -> &'static str {
        match self {
            WarmMiss::Dual => "lp.warm.miss.dual",
            WarmMiss::Fractional => "lp.warm.miss.fractional",
            WarmMiss::Uncertified => "lp.warm.miss.uncertified",
        }
    }
}

type WarmResult = Result<(IlpResolution, IlpStats), WarmMiss>;

/// Solves `full` = `base + delta`, warm-starting from `solution` when
/// possible and falling back to a cold [`solve_ilp_budgeted`] on `full`
/// otherwise. This is the pool workers' solve entry point for jobs with a
/// base snapshot.
///
/// `full` must be `base.compose(delta)`; callers pass the composed problem
/// they already hold (a plan job's `problem`) so it is built once per job.
///
/// Fault injection (`faults.armed()`) always routes cold: injected fault
/// indices count cold-path LP calls and node expansions, and the warm path
/// must not shift them.
// The composed problem travels next to its parts so no caller rebuilds it.
#[allow(clippy::too_many_arguments)]
pub fn solve_delta_warm(
    base: &BaseProblem,
    solution: Option<&BaseSolution>,
    delta: &DeltaSet,
    full: &Problem,
    budget: &SolveBudget,
    meter: &BudgetMeter,
    faults: &mut SolverFaults,
    certify: CertifyFn,
) -> (IlpResolution, IlpStats) {
    debug_assert_eq!(*full, base.compose(delta), "`full` is not `base + delta`");
    // A cancelled meter skips the warm attempt: warm work is work too, and
    // the cold path below degrades at its first budget checkpoint.
    let cancelled = meter.cancel_token().is_cancelled();
    if warm_eligible(budget) && !faults.armed() && !cancelled {
        // The acceptance argument needs a pure ILP: every variable integral.
        let pure = !full.has_non_finite() && full.integer.iter().all(|&b| b);
        if let Some(sol) = solution.filter(|_| pure) {
            match warm_attempt(sol, delta, full, meter, certify) {
                Ok(hit) => return hit,
                Err(miss) => ipet_trace::counter(miss.counter(), 1),
            }
        }
        ipet_trace::counter("lp.warm.misses", 1);
    }
    solve_ilp_budgeted(full, budget, meter, faults)
}

/// The warm attempt: append the delta rows in `<=` form to a copy of the
/// factorized base basis — the append refactorizes, i.e. re-snapshots the
/// basis — and dual re-optimize. The base and the composed problem share
/// their variables, so the witness, its certificate and the canonical
/// `Exact` resolution are all over the composed problem.
fn warm_attempt(
    sol: &BaseSolution,
    delta: &DeltaSet,
    full: &Problem,
    meter: &BudgetMeter,
    certify: CertifyFn,
) -> WarmResult {
    let le_rows = le_form(&delta.rows, full.num_vars());
    let mut inst = sol.inst.clone();
    if !inst.append_le_rows(&le_rows) {
        return Err(WarmMiss::Dual);
    }
    let cap = inst.default_iter_cap();
    let mut warm_pivots = 0u64;
    let end = inst.dual_reoptimize(cap, &mut warm_pivots);
    // Dual infeasibility proves LP infeasibility, but only in floating
    // point: there is no witness to certify exactly, so the verdict is not
    // accepted — the cold path re-derives it from phase 1.
    let lex =
        (end == SparseDualEnd::Optimal).then(|| canonicalize(&mut inst, cap, &mut warm_pivots));
    meter.charge_ticks(warm_pivots);
    ipet_trace::counter("lp.ticks", warm_pivots);
    if lex != Some(LexEnd::Canonical) {
        return Err(WarmMiss::Dual);
    }

    // Canonical, integral, exactly certified — or no deal. The canonical
    // optimum is a point of the composed LP, whichever basis reached it:
    // the cold result.
    let ints = round_witness(&inst.extract_x()).map_err(|_| WarmMiss::Fractional)?;
    let snapped: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
    let claimed =
        round_claimed(full.objective_value(&snapped)).map_err(|_| WarmMiss::Uncertified)?;
    if !certify(full, &snapped, claimed) {
        return Err(WarmMiss::Uncertified);
    }
    Ok(accept(full, snapped, claimed, meter))
}

/// Builds the accepted warm result: the resolution the cold path would
/// produce. The canonical optimum is integral, so cold's root relaxation
/// returns it and the search ends after one LP call and one node.
/// Mirrors the cold path's per-solve telemetry, so warm and cold runs
/// differ only in the `lp.warm.*` and tick counters. The warm attempt
/// counts its pivots in `lp.ticks` itself, hit or miss.
fn accept(
    full: &Problem,
    snapped: Vec<f64>,
    claimed: i64,
    meter: &BudgetMeter,
) -> (IlpResolution, IlpStats) {
    let resolution = IlpResolution::Exact { x: snapped, value: claimed as f64 };
    let stats = IlpStats { lp_calls: 1, nodes: 1, first_relaxation_integral: true };
    meter.add_lp_call();
    meter.add_node();

    debug_shadow_check(full, &resolution, stats);

    ipet_trace::counter("lp.warm.hits", 1);
    ipet_trace::counter("lp.ilp.solves", 1);
    ipet_trace::counter("lp.lp_calls", stats.lp_calls as u64);
    ipet_trace::counter("lp.bb_nodes", stats.nodes as u64);
    ipet_trace::counter("lp.outcome.exact", 1);
    ipet_trace::gauge_max("lp.problem.vars.peak", full.num_vars() as u64);
    ipet_trace::gauge_max("lp.problem.rows.peak", full.constraints.len() as u64);
    (resolution, stats)
}

/// Debug builds shadow-solve every accepted warm result cold (fresh meter,
/// no faults, no telemetry) and assert bit-identical resolutions and
/// statistics. The cold solve runs the production kernel too, so the
/// warm witness must also equal the rounded canonical LP optimum of the
/// composed problem on the independent reference kernel. Release builds
/// skip this; CI's warm-vs-cold counter diff covers them.
#[cfg(debug_assertions)]
fn debug_shadow_check(full: &Problem, warm: &IlpResolution, warm_stats: IlpStats) {
    let mut warm = warm.clone();
    if FORCE_SHADOW_MISMATCH.with(|f| f.get()) {
        if let IlpResolution::Exact { value, .. } = &mut warm {
            *value += 1.0;
        }
    }
    let (cold, cold_stats) = crate::ilp::branch_and_bound(
        full,
        &SolveBudget::unlimited(),
        &BudgetMeter::new(),
        &mut SolverFaults::none(),
    );
    assert_eq!(
        warm, cold,
        "warm-started resolution diverged from the cold solve (warm-start soundness bug)"
    );
    assert_eq!(
        warm_stats, cold_stats,
        "warm-started statistics diverged from the cold solve (warm-start soundness bug)"
    );
    let IlpResolution::Exact { x, .. } = &warm else {
        unreachable!("warm starts only accept exact resolutions");
    };
    let reference = match crate::reference::debug_reference_lp(full) {
        crate::simplex::LpOutcome::Optimal { x, .. } => round_witness(&x).ok(),
        _ => None,
    };
    let witness = round_witness(x).ok();
    assert_eq!(
        witness, reference,
        "warm witness differs from the reference kernel's optimum (warm-start soundness bug)"
    );
}

#[cfg(not(debug_assertions))]
fn debug_shadow_check(_full: &Problem, _warm: &IlpResolution, _warm_stats: IlpStats) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ProblemBuilder, Relation, Sense, VarId};

    /// A base with an all-integer optimum: max 3x + 2y
    /// st x <= 4, y <= 6, x + y <= 8.
    fn toy_base() -> BaseProblem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(y, 1.0)], Relation::Le, 6.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 8.0);
        BaseProblem::new(b.build())
    }

    fn feasibility_certify(problem: &Problem, x: &[f64], claimed: i64) -> bool {
        problem.is_feasible(x, 1e-6) && (problem.objective_value(x) - claimed as f64).abs() < 1e-6
    }

    fn solve_both(delta: DeltaSet) -> ((IlpResolution, IlpStats), (IlpResolution, IlpStats)) {
        let base = toy_base();
        let meter = BudgetMeter::new();
        let sol = base.solve_base(&meter).expect("base solves");
        let warm = solve_delta_warm(
            &base,
            Some(&sol),
            &delta,
            &base.compose(&delta),
            &SolveBudget::unlimited(),
            &meter,
            &mut SolverFaults::none(),
            &feasibility_certify,
        );
        let cold = solve_ilp_budgeted(
            &base.compose(&delta),
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        );
        (warm, cold)
    }

    type RowSpec = (Vec<(usize, f64)>, Relation, f64);

    fn delta(rows: Vec<RowSpec>) -> DeltaSet {
        DeltaSet::new(
            rows.into_iter()
                .map(|(terms, relation, rhs)| Constraint {
                    terms: terms.into_iter().map(|(v, c)| (VarId(v), c)).collect(),
                    relation,
                    rhs,
                })
                .collect(),
        )
    }

    #[test]
    fn warm_hit_is_bit_identical_to_cold() {
        // Delta x <= 2 moves the optimum to (2, 6), which is integral.
        let (warm, cold) = solve_both(delta(vec![(vec![(0, 1.0)], Relation::Le, 2.0)]));
        assert_eq!(warm, cold);
        assert_eq!(warm.1, IlpStats { lp_calls: 1, nodes: 1, first_relaxation_integral: true });
        match warm.0 {
            IlpResolution::Exact { ref x, value } => {
                assert_eq!(x, &vec![2.0, 6.0]);
                assert_eq!(value, 18.0);
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_and_ge_deltas_round_trip() {
        let (warm, cold) = solve_both(delta(vec![
            (vec![(0, 1.0)], Relation::Eq, 1.0),
            (vec![(1, 1.0)], Relation::Ge, 3.0),
        ]));
        assert_eq!(warm, cold);
        assert!(matches!(warm.0, IlpResolution::Exact { .. }));
    }

    #[test]
    fn infeasible_delta_falls_back_cold() {
        // x >= 9 contradicts x <= 4: the dual proves it but cannot certify
        // it, so the cold path must be the one reporting Infeasible.
        let (warm, cold) = solve_both(delta(vec![(vec![(0, 1.0)], Relation::Ge, 9.0)]));
        assert_eq!(warm.0, IlpResolution::Infeasible);
        assert_eq!(warm, cold);
    }

    #[test]
    fn fractional_delta_falls_back_cold() {
        // 2x <= 5 makes the relaxation stop at x = 2.5: branching needed,
        // warm must miss and the results still agree.
        let (warm, cold) = solve_both(delta(vec![(vec![(0, 2.0)], Relation::Le, 5.0)]));
        assert_eq!(warm, cold);
        match warm.0 {
            IlpResolution::Exact { value, .. } => assert_eq!(value, 18.0),
            ref other => panic!("{other:?}"),
        }
        assert!(warm.1.lp_calls > 1, "fractional root must have branched");
    }

    #[test]
    fn certification_veto_falls_back_cold() {
        let base = toy_base();
        let meter = BudgetMeter::new();
        let sol = base.solve_base(&meter).expect("base solves");
        let d = delta(vec![(vec![(0, 1.0)], Relation::Le, 2.0)]);
        let veto: CertifyFn = &|_, _, _| false;
        let warm = solve_delta_warm(
            &base,
            Some(&sol),
            &d,
            &base.compose(&d),
            &SolveBudget::unlimited(),
            &meter,
            &mut SolverFaults::none(),
            veto,
        );
        let cold = solve_ilp_budgeted(
            &base.compose(&d),
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        );
        assert_eq!(warm, cold, "vetoed warm result must equal the cold solve");
    }

    #[test]
    fn budgeted_solves_never_warm_start() {
        assert!(warm_eligible(&SolveBudget::unlimited()));
        assert!(!warm_eligible(&SolveBudget::with_deadline(1_000)));
        assert!(!warm_eligible(&SolveBudget {
            max_lp_iters: Some(10),
            ..SolveBudget::unlimited()
        }));
        assert!(!warm_eligible(&SolveBudget { max_nodes: 0, ..SolveBudget::unlimited() }));
    }

    #[test]
    fn armed_faults_route_cold() {
        // An injected fault at LP call 0 must fire exactly like the cold
        // path: the warm layer steps aside entirely when faults are armed.
        let base = toy_base();
        let meter = BudgetMeter::new();
        let sol = base.solve_base(&meter);
        let d = delta(vec![(vec![(0, 1.0)], Relation::Le, 2.0)]);
        let mut faults = SolverFaults::numerical_at(0);
        let (res, _) = solve_delta_warm(
            &base,
            sol.as_ref(),
            &d,
            &base.compose(&d),
            &SolveBudget::unlimited(),
            &meter,
            &mut faults,
            &feasibility_certify,
        );
        assert_eq!(res, IlpResolution::Numerical);
    }

    #[test]
    fn forced_base_snapshots_and_warm_starts_as_it_stands() {
        // max 3x + 2y st x = 2, y = 3: every variable is forced, and the
        // base still solves and snapshots like any other.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0)], Relation::Eq, 2.0);
        b.constraint(vec![(y, 1.0)], Relation::Eq, 3.0);
        let base = BaseProblem::new(b.build());
        let meter = BudgetMeter::new();
        let sol = base.solve_base(&meter).expect("a fully forced base snapshots");
        let cold = |d: &DeltaSet| {
            solve_ilp_budgeted(
                &base.compose(d),
                &SolveBudget::unlimited(),
                &BudgetMeter::new(),
                &mut SolverFaults::none(),
            )
        };
        let warm = |d: &DeltaSet| {
            solve_delta_warm(
                &base,
                Some(&sol),
                d,
                &base.compose(d),
                &SolveBudget::unlimited(),
                &meter,
                &mut SolverFaults::none(),
                &feasibility_certify,
            )
        };
        let counter = |name: &str| {
            ipet_trace::snapshot().and_then(|doc| doc.counters.get(name).copied()).unwrap_or(0)
        };
        ipet_trace::install();

        // x + y <= 6 holds at the forced point (2, 3): a warm hit.
        let satisfied = delta(vec![(vec![(0, 1.0), (1, 1.0)], Relation::Le, 6.0)]);
        let full = base.compose(&satisfied);
        assert!(warm_attempt(&sol, &satisfied, &full, &meter, &feasibility_certify).is_ok());
        let hits = counter("lp.warm.hits");
        let hit = warm(&satisfied);
        assert!(counter("lp.warm.hits") > hits, "the satisfied delta must warm-hit");
        assert_eq!(hit, cold(&satisfied));
        assert_eq!(hit.0, IlpResolution::Exact { x: vec![2.0, 3.0], value: 12.0 });

        // x + y >= 6 contradicts the forced point: the dual proves it but
        // cannot certify it, so the cold path reports the infeasibility.
        let violated = delta(vec![(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 6.0)]);
        let full = base.compose(&violated);
        let miss = warm_attempt(&sol, &violated, &full, &meter, &feasibility_certify);
        assert_eq!(miss.err(), Some(WarmMiss::Dual));
        let dual = counter("lp.warm.miss.dual");
        let res = warm(&violated);
        assert!(counter("lp.warm.miss.dual") > dual, "the miss must count its reason");
        assert_eq!(res.0, IlpResolution::Infeasible);
        assert_eq!(res, cold(&violated));
    }

    #[test]
    fn delta_keys_are_the_composed_fingerprints() {
        let base = toy_base();
        let a = delta(vec![(vec![(0, 1.0)], Relation::Le, 2.0)]);
        let b = delta(vec![(vec![(0, 1.0)], Relation::Le, 3.0)]);
        for d in [&a, &b, &DeltaSet::default()] {
            assert_eq!(base.key(d), crate::fingerprint(&base.compose(d)));
        }
        assert_ne!(base.key(&a), base.key(&b));
        assert_eq!(base.key(&DeltaSet::default()), base.fingerprint());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "warm-start soundness bug")]
    fn shadow_check_catches_mutated_warm_results() {
        // Mutation test for the debug shadow solve: force the accepted warm
        // value to disagree with the cold shadow and require the panic.
        debug_force_warm_mismatch(true);
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                debug_force_warm_mismatch(false);
            }
        }
        let _reset = Reset;
        let _ = solve_both(delta(vec![(vec![(0, 1.0)], Relation::Le, 2.0)]));
    }
}
