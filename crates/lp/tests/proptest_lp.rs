//! Property tests: the simplex + branch & bound solver against brute-force
//! enumeration on small integer boxes.

use ipet_lp::{
    solve_ilp, solve_lp, IlpOutcome, LpOutcome, Problem, ProblemBuilder, Relation, Sense,
};
use proptest::prelude::*;

/// A random small ILP over `n` variables bounded to `0..=ub` each, with a
/// handful of random `<=`/`>=`/`=` rows. Bounding every variable keeps the
/// problem finite so brute force is exact.
fn arb_problem() -> impl Strategy<Value = (Problem, u32)> {
    let n = 2usize..4;
    let rows = 0usize..4;
    (n, rows, 1u32..5).prop_flat_map(|(n, rows, ub)| {
        let obj = prop::collection::vec(-5i32..=5, n);
        let row = (
            prop::collection::vec(-3i32..=3, n),
            prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)],
            -10i32..=10,
        );
        let rowvec = prop::collection::vec(row, rows);
        (obj, rowvec).prop_map(move |(obj, rowvec)| {
            let mut b = ProblemBuilder::new(Sense::Maximize);
            let vars: Vec<_> = (0..n).map(|_| b.add_var(true)).collect();
            for (i, &c) in obj.iter().enumerate() {
                b.objective(vars[i], i64::from(c));
            }
            // Box constraints keep everything finite.
            for &v in &vars {
                b.constraint(vec![(v, 1)], Relation::Le, i64::from(ub));
            }
            for (coeffs, rel, rhs) in rowvec {
                let terms: Vec<_> = coeffs
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(i, &c)| (vars[i], i64::from(c)))
                    .collect();
                if !terms.is_empty() {
                    b.constraint(terms, rel, i64::from(rhs));
                }
            }
            (b.build(), ub)
        })
    })
}

/// Exhaustive integer search over the box `0..=ub` per variable.
fn brute_force(p: &Problem, ub: u32) -> Option<f64> {
    let n = p.num_vars();
    let mut best: Option<f64> = None;
    let mut point = vec![0u32; n];
    loop {
        let x: Vec<f64> = point.iter().map(|&v| v as f64).collect();
        if p.is_feasible(&x, 1e-9) {
            let val = p.objective_value(&x);
            if best.map(|b| val > b).unwrap_or(true) {
                best = Some(val);
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == n {
                return best;
            }
            if point[i] < ub {
                point[i] += 1;
                break;
            }
            point[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The ILP optimum matches exhaustive search exactly.
    #[test]
    fn ilp_matches_brute_force((p, ub) in arb_problem()) {
        let brute = brute_force(&p, ub);
        let (out, _) = solve_ilp(&p);
        match (out, brute) {
            (IlpOutcome::Optimal { value, x }, Some(want)) => {
                prop_assert!((value - want).abs() < 1e-6, "solver {value}, brute {want}");
                prop_assert!(p.is_feasible(&x, 1e-6));
            }
            (IlpOutcome::Infeasible, None) => {}
            (got, want) => prop_assert!(false, "solver {got:?} vs brute force {want:?}"),
        }
    }

    /// The LP relaxation never reports a worse maximum than the ILP, and
    /// its optimum is primal feasible.
    #[test]
    fn lp_relaxation_bounds_the_ilp((p, _ub) in arb_problem()) {
        let lp = solve_lp(&p);
        let (ilp, _) = solve_ilp(&p);
        if let (LpOutcome::Optimal { value: lv, x },
                IlpOutcome::Optimal { value: iv, .. }) = (&lp, &ilp) {
            prop_assert!(*lv >= iv - 1e-6, "relaxation {lv} below ILP {iv}");
            prop_assert!(p.is_feasible(x, 1e-6));
        }
        if matches!(lp, LpOutcome::Infeasible) {
            prop_assert!(matches!(ilp, IlpOutcome::Infeasible));
        }
    }

    /// Minimizing the negated objective equals the negated maximum.
    #[test]
    fn minimize_is_negated_maximize((p, _ub) in arb_problem()) {
        let mut q = p.clone();
        q.sense = Sense::Minimize;
        for c in &mut q.objective {
            *c = -*c;
        }
        let (mx, _) = solve_ilp(&p);
        let (mn, _) = solve_ilp(&q);
        match (mx, mn) {
            (IlpOutcome::Optimal { value: a, .. }, IlpOutcome::Optimal { value: b, .. }) => {
                prop_assert!((a + b).abs() < 1e-6, "max {a} vs min {b}");
            }
            (IlpOutcome::Infeasible, IlpOutcome::Infeasible) => {}
            (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
        }
    }
}
