//! Branch & bound over the LP relaxation.

use crate::budget::{BudgetMeter, SolveBudget, SolveFault, SolverFaults};
use crate::model::{Problem, Relation, Sense};
use crate::simplex::{solve_lp_bounded, LpOutcome, INT_TOL};

/// Result of an ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpOutcome {
    /// An optimal integral solution was found.
    Optimal {
        /// Primal solution (integer variables are integral within [`INT_TOL`]).
        x: Vec<f64>,
        /// Objective value in the problem's own sense.
        value: f64,
    },
    /// No integral feasible point exists.
    Infeasible,
    /// The relaxation is unbounded (for IPET this means a loop bound is
    /// missing, and the caller reports it as such).
    Unbounded,
    /// The node or LP budget was exhausted before proving optimality.
    LimitReached,
}

/// Search statistics, used to reproduce the paper's observation that the
/// first LP relaxation is already integral in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IlpStats {
    /// Number of LP relaxations solved.
    pub lp_calls: usize,
    /// Number of branch-and-bound nodes expanded.
    pub nodes: usize,
    /// True when the root relaxation was already integral — the paper's
    /// §III-D claim ("the first call to the linear program package resulted
    /// in an integer valued solution").
    pub first_relaxation_integral: bool,
}

/// Result of a budget-aware ILP solve ([`solve_ilp_budgeted`]).
///
/// Unlike [`IlpOutcome`], budget exhaustion is not a dead end: whenever the
/// search has proven *any* outer bound, the solve degrades to
/// [`Relaxed`](IlpResolution::Relaxed) instead of failing, because an LP
/// relaxation value is always safe — subproblems only ever add constraints,
/// so no integral point can beat its ancestors' relaxation bounds.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpResolution {
    /// Proven optimal integral solution.
    Exact {
        /// Primal solution (integer variables are integral within [`INT_TOL`]).
        x: Vec<f64>,
        /// Objective value in the problem's own sense.
        value: f64,
    },
    /// The budget ran out (or a subtree was lost to a numerical failure)
    /// before optimality was proven; `bound` is a safe outer bound.
    Relaxed {
        /// Safe outer bound in the problem's own sense: `>=` the true
        /// optimum when maximizing, `<=` when minimizing.
        bound: f64,
        /// Best integral solution found so far, if any. Together with
        /// `bound` it brackets the true optimum.
        incumbent: Option<(Vec<f64>, f64)>,
    },
    /// No integral feasible point exists.
    Infeasible,
    /// The relaxation is unbounded (for IPET this means a loop bound is
    /// missing, and the caller reports it as such).
    Unbounded,
    /// The root relaxation failed numerically; no bound is available.
    Numerical,
    /// The budget ran out before even the root relaxation produced a bound;
    /// nothing safe can be reported.
    Exhausted,
}

/// Finds the integer variable whose relaxation value is most fractional.
fn most_fractional(problem: &Problem, x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if !problem.integer[i] {
            continue;
        }
        let frac = (v - v.round()).abs();
        if frac > INT_TOL {
            let dist = (v.fract() - 0.5).abs(); // smaller = more fractional
            match best {
                None => best = Some((i, dist)),
                Some((_, bd)) if dist < bd => best = Some((i, dist)),
                _ => {}
            }
        }
    }
    best.map(|(i, _)| (i, x[i]))
}

/// Solves a mixed ILP by depth-first branch & bound on the LP relaxation.
///
/// Compatibility wrapper around [`solve_ilp_budgeted`]: runs with an
/// unlimited budget (the default node cap aside) and collapses the richer
/// [`IlpResolution`] to the classic [`IlpOutcome`] (a truncated search that
/// found an incumbent reports it as `Optimal`, like the original solver).
pub fn solve_ilp(problem: &Problem) -> (IlpOutcome, IlpStats) {
    let (resolution, stats) = solve_ilp_budgeted(
        problem,
        &SolveBudget::unlimited(),
        &BudgetMeter::new(),
        &mut SolverFaults::none(),
    );
    let outcome = match resolution {
        IlpResolution::Exact { x, value }
        | IlpResolution::Relaxed { incumbent: Some((x, value)), .. } => {
            IlpOutcome::Optimal { x, value }
        }
        IlpResolution::Infeasible => IlpOutcome::Infeasible,
        IlpResolution::Unbounded => IlpOutcome::Unbounded,
        IlpResolution::Relaxed { incumbent: None, .. }
        | IlpResolution::Numerical
        | IlpResolution::Exhausted => IlpOutcome::LimitReached,
    };
    (outcome, stats)
}

/// Solves a mixed ILP by depth-first branch & bound under `budget`,
/// degrading gracefully instead of failing when resources run out.
///
/// Branching adds `x <= floor(v)` / `x >= ceil(v)` bound rows on the most
/// fractional integer variable; nodes are pruned against the incumbent.
/// Pivots are charged to `meter`, the solve's own, and the search stops
/// once the meter has spent `budget.deadline_ticks` (or its cancellation
/// token fires). `faults` can force any exhaustion path at a chosen call
/// index.
///
/// On budget exhaustion the search stops and reports
/// [`IlpResolution::Relaxed`] whose `bound` is the tightest safe outer
/// bound proven so far: the best incumbent or the largest (in score) LP
/// relaxation value over all subtrees left open. A subtree lost to a
/// numerical failure is treated as open under its parent's bound, so one
/// bad pivot degrades the answer instead of destroying it.
pub fn solve_ilp_budgeted(
    problem: &Problem,
    budget: &SolveBudget,
    meter: &BudgetMeter,
    faults: &mut SolverFaults,
) -> (IlpResolution, IlpStats) {
    let solve_fault = if faults.armed() { faults.solve_fault() } else { None };
    if solve_fault == Some(SolveFault::Panic) {
        crate::budget::injected_panic();
    }
    let ticks_before = meter.ticks();
    let (mut resolution, stats) = branch_and_bound(problem, budget, meter, faults);
    if let Some(fault) = solve_fault {
        corrupt_resolution(&mut resolution, fault, problem.sense);
    }
    if !ipet_trace::enabled() {
        return (resolution, stats);
    }
    ipet_trace::counter("lp.ilp.solves", 1);
    ipet_trace::counter("lp.lp_calls", stats.lp_calls as u64);
    ipet_trace::counter("lp.bb_nodes", stats.nodes as u64);
    ipet_trace::counter("lp.ticks", meter.ticks().saturating_sub(ticks_before));
    let outcome = match &resolution {
        IlpResolution::Exact { .. } => "lp.outcome.exact",
        IlpResolution::Relaxed { .. } => "lp.outcome.relaxed",
        IlpResolution::Infeasible => "lp.outcome.infeasible",
        IlpResolution::Unbounded => "lp.outcome.unbounded",
        IlpResolution::Numerical => "lp.outcome.numerical",
        IlpResolution::Exhausted => "lp.outcome.exhausted",
    };
    ipet_trace::counter(outcome, 1);
    ipet_trace::gauge_max("lp.problem.vars.peak", problem.num_vars() as u64);
    ipet_trace::gauge_max("lp.problem.rows.peak", problem.constraints.len() as u64);
    (resolution, stats)
}

/// Applies an injected witness/bound corruption to a finished resolution.
///
/// The corruptions are designed so that an exact-arithmetic certificate
/// check must fail: a shifted witness breaks either flow conservation or the
/// objective replay, and a shifted bound breaks the objective-equality
/// (`Exact`) or bound-covers-witness (`Relaxed`) check in whichever sense
/// direction is unsafe.
fn corrupt_resolution(resolution: &mut IlpResolution, fault: SolveFault, sense: Sense) {
    match fault {
        SolveFault::CorruptWitness => {
            let x = match resolution {
                IlpResolution::Exact { x, .. } => Some(x),
                IlpResolution::Relaxed { incumbent: Some((x, _)), .. } => Some(x),
                _ => None,
            };
            if let Some(first) = x.and_then(|x| x.first_mut()) {
                *first += 1.0;
            }
        }
        SolveFault::CorruptBound => match resolution {
            IlpResolution::Exact { value, .. } => *value += 1.0,
            IlpResolution::Relaxed { bound, incumbent: Some((_, witnessed)) } => {
                // Pull the claimed outer bound past the witnessed value in
                // the unsafe direction.
                *bound = match sense {
                    Sense::Maximize => *witnessed - 1.0,
                    Sense::Minimize => *witnessed + 1.0,
                };
            }
            _ => {}
        },
        SolveFault::Panic => unreachable!("panic faults fire before the solve"),
    }
}

/// The branch & bound proper, without fault corruption or telemetry.
pub(crate) fn branch_and_bound(
    problem: &Problem,
    budget: &SolveBudget,
    meter: &BudgetMeter,
    faults: &mut SolverFaults,
) -> (IlpResolution, IlpStats) {
    let mut stats = IlpStats::default();
    // For comparison in a unified direction, track everything as "maximize":
    // score(v) = v for Maximize, -v for Minimize.
    let score = |v: f64| match problem.sense {
        Sense::Maximize => v,
        Sense::Minimize => -v,
    };
    let unscore = |s: f64| match problem.sense {
        Sense::Maximize => s,
        Sense::Minimize => -s,
    };

    // A node is a list of extra bound rows plus its parent's LP relaxation
    // value — the bound that still covers the node if it is never solved.
    // The rows are appended after the problem's own, in order, when the
    // node's LP is built; the problem itself is never copied.
    // The root has no parent bound: if the search dies before the root LP
    // completes there is nothing safe to report.
    struct Node {
        extra: Vec<(usize, Relation, f64)>,
        parent_bound: Option<f64>,
    }
    let mut stack: Vec<Node> = vec![Node { extra: Vec::new(), parent_bound: None }];
    let mut incumbent: Option<(Vec<f64>, f64)> = None;
    // Scores of bounds covering subtrees abandoned mid-search (LP budget
    // blow or numerical loss below the root).
    let mut lost_bound_scores: Vec<f64> = Vec::new();
    let mut truncated = false;
    let mut root_failure: Option<IlpResolution> = None;

    while !stack.is_empty() {
        // `faults.node_fault()` is evaluated last so the injected index
        // counts actual node expansions.
        if stats.nodes >= budget.max_nodes || meter.deadline_hit(budget) || faults.node_fault() {
            truncated = true;
            break;
        }
        let Node { extra, parent_bound } = stack.pop().expect("stack checked non-empty");
        stats.nodes += 1;

        stats.lp_calls += 1;
        let at_root = extra.is_empty();
        match solve_lp_bounded(problem, &extra, budget, meter, faults) {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // A bounded root cannot become unbounded by adding rows;
                // an unbounded child of a bounded root still means the whole
                // integer problem is unbounded along that ray.
                return (IlpResolution::Unbounded, stats);
            }
            LpOutcome::Numerical => {
                if at_root {
                    root_failure = Some(IlpResolution::Numerical);
                    break;
                }
                // The subtree is lost but its parent's relaxation still
                // covers every integral point inside it.
                lost_bound_scores.extend(parent_bound.map(score));
                continue;
            }
            LpOutcome::LimitReached => {
                if at_root {
                    root_failure = Some(IlpResolution::Exhausted);
                    break;
                }
                lost_bound_scores.extend(parent_bound.map(score));
                // The deadline check at the top of the loop stops the whole
                // search once ticks are gone; a per-LP iteration cap alone
                // only loses this subtree.
                continue;
            }
            LpOutcome::Optimal { x, value } => {
                if let Some((_, best)) = &incumbent {
                    // Prune: the relaxation bound cannot beat the incumbent.
                    if score(value) <= score(*best) + 1e-9 {
                        continue;
                    }
                }
                match most_fractional(problem, &x) {
                    None => {
                        if stats.nodes == 1 {
                            stats.first_relaxation_integral = true;
                        }
                        let better = match &incumbent {
                            None => true,
                            Some((_, best)) => score(value) > score(*best),
                        };
                        if better {
                            incumbent = Some((x, value));
                        }
                    }
                    Some((var, v)) => {
                        let lo = v.floor();
                        let hi = v.ceil();
                        // DFS: explore the "floor" child first (pushed last).
                        let mut up = extra.clone();
                        up.push((var, Relation::Ge, hi));
                        stack.push(Node { extra: up, parent_bound: Some(value) });
                        let mut down = extra;
                        down.push((var, Relation::Le, lo));
                        stack.push(Node { extra: down, parent_bound: Some(value) });
                    }
                }
            }
        }
    }

    if let Some(failure) = root_failure {
        return (failure, stats);
    }

    let snap = |mut x: Vec<f64>, value: f64| {
        // Snap integer variables to exact integers for downstream users.
        // `+ 0.0` turns a rounded `-0.0` into `+0.0` so witnesses are
        // bit-identical regardless of which side of zero the LP landed on.
        for (i, xi) in x.iter_mut().enumerate() {
            if problem.integer[i] {
                *xi = xi.round() + 0.0;
            }
        }
        // Pure ILPs also get a canonical objective value: the claimed
        // integer round-tripped through f64, the form the exact audit
        // certifies, so equal problems agree bit for bit, not just within
        // tolerance.
        let value = if problem.integer.iter().all(|&b| b) {
            match crate::round::round_claimed(value) {
                Ok(claimed) => claimed as f64,
                Err(_) => value,
            }
        } else {
            value
        };
        (x, value)
    };

    if !truncated && lost_bound_scores.is_empty() {
        // Complete search: the classic trichotomy.
        return match incumbent {
            Some((x, value)) => {
                let (x, value) = snap(x, value);
                (IlpResolution::Exact { x, value }, stats)
            }
            None => (IlpResolution::Infeasible, stats),
        };
    }

    // Degraded: the safe outer bound is the best score any unexplored part
    // of the tree could still attain — open nodes are covered by their
    // parents' relaxation values, lost subtrees by the recorded bounds, and
    // the incumbent is a lower witness that can only tighten the answer.
    let mut bound_score = incumbent.as_ref().map(|(_, v)| score(*v));
    let open_scores = stack
        .iter()
        .filter_map(|node| node.parent_bound.map(score))
        .chain(lost_bound_scores.iter().copied());
    for s in open_scores {
        bound_score = Some(match bound_score {
            None => s,
            Some(b) => b.max(s),
        });
    }
    match bound_score {
        // Truncated before the root LP finished: nothing safe to report.
        None => (IlpResolution::Exhausted, stats),
        Some(s) => {
            let incumbent = incumbent.map(|(x, v)| snap(x, v));
            (IlpResolution::Relaxed { bound: unscore(s), incumbent }, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProblemBuilder;

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let vars: Vec<_> = (0..values.len()).map(|_| b.add_var(true)).collect();
        for (i, &v) in values.iter().enumerate() {
            b.objective(vars[i], v);
            b.constraint(vec![(vars[i], 1.0)], Relation::Le, 1.0);
        }
        let row = weights.iter().enumerate().map(|(i, &w)| (vars[i], w)).collect();
        b.constraint(row, Relation::Le, cap);
        b.build()
    }

    #[test]
    fn knapsack_needs_branching() {
        // values 10,6,4 weights 5,4,3 cap 7 -> best {6,4} = 10? or {10}=10.
        // LP relaxation is fractional (10/5=2 density first: x0=1, then 2/4
        // of item 1 -> 13), so branching must occur.
        let p = knapsack(&[10.0, 6.0, 4.0], &[5.0, 4.0, 3.0], 7.0);
        let (out, stats) = solve_ilp(&p);
        match out {
            IlpOutcome::Optimal { value, x } => {
                assert_eq!(value.round() as i64, 10);
                assert!(p.is_feasible(&x, 1e-6));
            }
            other => panic!("{other:?}"),
        }
        assert!(!stats.first_relaxation_integral);
        assert!(stats.lp_calls > 1);
    }

    #[test]
    fn integral_relaxation_short_circuits() {
        // Network-flow-like: totally unimodular, first LP already integral.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 2.0);
        b.objective(y, 1.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 3.0);
        b.constraint(vec![(y, 1.0)], Relation::Le, 2.0);
        let (out, stats) = solve_ilp(&b.build());
        assert!(matches!(out, IlpOutcome::Optimal { .. }));
        assert!(stats.first_relaxation_integral);
        assert_eq!(stats.lp_calls, 1);
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn infeasible_ilp() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 1.0);
        // 0.4 <= x <= 0.6 has no integer point.
        b.constraint(vec![(x, 1.0)], Relation::Ge, 0.4);
        b.constraint(vec![(x, 1.0)], Relation::Le, 0.6);
        let (out, _) = solve_ilp(&b.build());
        assert_eq!(out, IlpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_ilp() {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 1.0);
        let (out, _) = solve_ilp(&b.build());
        assert_eq!(out, IlpOutcome::Unbounded);
    }

    #[test]
    fn minimize_ilp() {
        // min 3x + 2y st x + y >= 3, integer -> x=0,y=3 cost 6.
        let mut b = ProblemBuilder::new(Sense::Minimize);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        let (out, _) = solve_ilp(&b.build());
        match out {
            IlpOutcome::Optimal { value, .. } => assert_eq!(value.round() as i64, 6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fractional_optimum_forces_rounding_down() {
        // max x st 2x <= 5, x integer -> 2.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 1.0);
        b.constraint(vec![(x, 1.0), (x, 1.0)], Relation::Le, 5.0);
        let (out, stats) = solve_ilp(&b.build());
        match out {
            IlpOutcome::Optimal { value, x } => {
                assert_eq!(value.round() as i64, 2);
                assert_eq!(x[0], 2.0);
            }
            other => panic!("{other:?}"),
        }
        assert!(!stats.first_relaxation_integral);
    }

    fn exact_value(p: &Problem) -> f64 {
        match solve_ilp(p).0 {
            IlpOutcome::Optimal { value, .. } => value,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn budgeted_exact_matches_classic() {
        let p = knapsack(&[10.0, 6.0, 4.0], &[5.0, 4.0, 3.0], 7.0);
        let (res, stats) = solve_ilp_budgeted(
            &p,
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        );
        match res {
            IlpResolution::Exact { value, .. } => assert_eq!(value.round() as i64, 10),
            other => panic!("{other:?}"),
        }
        assert!(stats.lp_calls > 1);
    }

    #[test]
    fn node_budget_degrades_to_safe_relaxed_bound() {
        let p = knapsack(&[9.0, 7.0, 6.0, 5.0, 4.0], &[5.0, 4.0, 3.0, 3.0, 2.0], 9.0);
        let exact = exact_value(&p);
        for max_nodes in 1..6 {
            let budget = SolveBudget { max_nodes, ..SolveBudget::unlimited() };
            let meter = BudgetMeter::new();
            let (res, stats) = solve_ilp_budgeted(&p, &budget, &meter, &mut SolverFaults::none());
            assert!(stats.nodes <= max_nodes);
            match res {
                IlpResolution::Exact { value, .. } => {
                    assert!((value - exact).abs() < 1e-6);
                }
                IlpResolution::Relaxed { bound, incumbent } => {
                    // Maximization: the degraded bound must cover the true
                    // optimum, and any incumbent must be dominated by it.
                    assert!(bound >= exact - 1e-6, "bound {bound} < exact {exact}");
                    if let Some((x, value)) = incumbent {
                        assert!(p.is_feasible(&x, 1e-6));
                        assert!(value <= exact + 1e-6);
                    }
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn zero_node_budget_is_exhausted() {
        let p = knapsack(&[3.0, 2.0], &[2.0, 1.0], 2.0);
        let budget = SolveBudget { max_nodes: 0, ..SolveBudget::unlimited() };
        let (res, stats) =
            solve_ilp_budgeted(&p, &budget, &BudgetMeter::new(), &mut SolverFaults::none());
        assert_eq!(res, IlpResolution::Exhausted);
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn tick_deadline_stops_the_search() {
        let p = knapsack(&[9.0, 7.0, 6.0, 5.0, 4.0], &[5.0, 4.0, 3.0, 3.0, 2.0], 9.0);
        let exact = exact_value(&p);
        // A handful of pivots: enough for the root LP, not the whole tree.
        let budget = SolveBudget::with_deadline(12);
        let meter = BudgetMeter::new();
        let (res, _) = solve_ilp_budgeted(&p, &budget, &meter, &mut SolverFaults::none());
        match res {
            IlpResolution::Relaxed { bound, .. } => assert!(bound >= exact - 1e-6),
            IlpResolution::Exact { value, .. } => assert!((value - exact).abs() < 1e-6),
            IlpResolution::Exhausted => {} // deadline died inside the root LP
            other => panic!("{other:?}"),
        }
        assert!(meter.ticks() <= 12 + 12, "runaway ticks: {}", meter.ticks());
    }

    #[test]
    fn injected_node_fault_yields_safe_bound_at_every_index() {
        let p = knapsack(&[9.0, 7.0, 6.0, 5.0, 4.0], &[5.0, 4.0, 3.0, 3.0, 2.0], 9.0);
        let exact = exact_value(&p);
        let total_nodes = solve_ilp(&p).1.nodes as u64;
        for at in 0..total_nodes {
            let mut faults = SolverFaults::limit_at(at);
            let (res, _) =
                solve_ilp_budgeted(&p, &SolveBudget::unlimited(), &BudgetMeter::new(), &mut faults);
            match res {
                IlpResolution::Exact { value, .. } => {
                    assert!((value - exact).abs() < 1e-6);
                }
                IlpResolution::Relaxed { bound, .. } => {
                    assert!(bound >= exact - 1e-6, "at={at}: bound {bound} < {exact}");
                }
                IlpResolution::Exhausted => assert_eq!(at, 0),
                other => panic!("at={at}: {other:?}"),
            }
        }
    }

    #[test]
    fn injected_numerical_fault_below_root_degrades() {
        let p = knapsack(&[9.0, 7.0, 6.0, 5.0, 4.0], &[5.0, 4.0, 3.0, 3.0, 2.0], 9.0);
        let exact = exact_value(&p);
        // LP call 1 is the first child of the root: the subtree is lost but
        // the root relaxation still bounds it.
        let mut faults = SolverFaults::numerical_at(1);
        let (res, _) =
            solve_ilp_budgeted(&p, &SolveBudget::unlimited(), &BudgetMeter::new(), &mut faults);
        match res {
            IlpResolution::Relaxed { bound, .. } => assert!(bound >= exact - 1e-6),
            other => panic!("{other:?}"),
        }
        // At the root there is no covering bound: the solve fails hard.
        let mut faults = SolverFaults::numerical_at(0);
        let (res, _) =
            solve_ilp_budgeted(&p, &SolveBudget::unlimited(), &BudgetMeter::new(), &mut faults);
        assert_eq!(res, IlpResolution::Numerical);
    }

    #[test]
    fn mixed_integrality() {
        // y continuous: max x + y st x + 2y <= 3.5, x <= 1.2; x int.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        let y = b.add_var(false);
        b.objective(x, 1.0);
        b.objective(y, 1.0);
        b.constraint(vec![(x, 1.0), (y, 2.0)], Relation::Le, 3.5);
        b.constraint(vec![(x, 1.0)], Relation::Le, 1.2);
        let (out, _) = solve_ilp(&b.build());
        match out {
            IlpOutcome::Optimal { x: sol, value } => {
                assert_eq!(sol[0], 1.0);
                assert!((sol[1] - 1.25).abs() < 1e-6);
                assert!((value - 2.25).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }
}
