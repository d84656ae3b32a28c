//! Tied optima resolve to one canonical point: over seeded ILPs whose
//! objectives are tied on purpose (duplicate columns, equal-cost arms), an
//! integral canonical LP point is the ILP witness, and brute force checks
//! it is the lexicographically smallest optimal point.

use ipet_lp::{
    solve_ilp_budgeted, solve_lp, BudgetMeter, Constraint, IlpResolution, LpOutcome, Problem,
    ProblemBuilder, Relation, Sense, SolveBudget, SolverFaults, VarId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every variable's box in the generated problems.
const UB: i64 = 3;

fn row(terms: Vec<(usize, f64)>, relation: Relation, rhs: f64) -> Constraint {
    Constraint { terms: terms.into_iter().map(|(v, c)| (VarId(v), c)).collect(), relation, rhs }
}

/// A pure ILP over 3–5 boxed variables whose objective is tied: an
/// equal-cost pair of arms sharing one count, a duplicated column, or both;
/// plus one or two extra two-variable rows at the end.
fn tied_case(rng: &mut StdRng) -> Problem {
    let n = rng.gen_range(3usize..=5);
    let mut b =
        ProblemBuilder::new(if rng.gen_bool(0.7) { Sense::Maximize } else { Sense::Minimize });
    let vars: Vec<VarId> = (0..n).map(|_| b.add_var(true)).collect();
    let mut obj: Vec<f64> = (0..n).map(|_| rng.gen_range(0i64..=5) as f64).collect();
    let mut rows = Vec::new();
    let family = rng.gen_range(0..3);
    if family != 1 {
        // Equal-cost arms: a + b = count.
        let a = rng.gen_range(0..n);
        let c = (a + rng.gen_range(1..n)) % n;
        obj[c] = obj[a];
        rows.push(row(vec![(a, 1.0), (c, 1.0)], Relation::Eq, rng.gen_range(1i64..=UB) as f64));
    }
    for v in 0..n {
        rows.push(row(vec![(v, 1.0)], Relation::Le, UB as f64));
    }
    for _ in 0..rng.gen_range(0usize..=2) {
        let mut terms = Vec::new();
        for v in 0..n {
            if rng.gen_bool(0.5) {
                terms.push((v, rng.gen_range(1i64..=2) as f64));
            }
        }
        if !terms.is_empty() {
            rows.push(row(terms, Relation::Le, rng.gen_range(2i64..=6) as f64));
        }
    }
    if family != 0 {
        // Duplicate column: the last variable copies another's cost and
        // entries.
        let d = rng.gen_range(0..n - 1);
        obj[n - 1] = obj[d];
        for r in &mut rows {
            let entry = r.terms.iter().find(|t| t.0 .0 == d).map(|t| t.1);
            if let Some(c) = entry.filter(|_| r.terms.iter().all(|t| t.0 .0 != n - 1)) {
                r.terms.push((VarId(n - 1), c));
            }
        }
    }
    for (v, &c) in vars.iter().zip(&obj) {
        b.objective(*v, c);
    }
    for _ in 0..rng.gen_range(1usize..=2) {
        let (v, w) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let rel = if rng.gen_bool(0.7) { Relation::Le } else { Relation::Ge };
        rows.push(row(vec![(v, 1.0), (w, 1.0)], rel, rng.gen_range(1i64..=4) as f64));
    }
    for r in rows {
        b.constraint(r.terms, r.relation, r.rhs);
    }
    b.build()
}

/// The lexicographically smallest optimal point of the integer box
/// `0..=UB`, by enumeration.
fn brute_force_lexmin(p: &Problem, value: f64) -> Option<Vec<f64>> {
    let n = p.num_vars();
    let mut point = vec![0i64; n];
    loop {
        let x: Vec<f64> = point.iter().map(|&v| v as f64).collect();
        if p.is_feasible(&x, 1e-9) && p.objective_value(&x) == value {
            // Odometer order with the first variable most significant.
            return Some(x);
        }
        let mut i = n;
        loop {
            if i == 0 {
                return None;
            }
            i -= 1;
            if point[i] < UB {
                point[i] += 1;
                break;
            }
            point[i] = 0;
        }
    }
}

#[test]
fn tied_optima_are_one_canonical_point() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    let mut brute = 0;
    for case in 0..250 {
        let full = tied_case(&mut rng);
        let (cold, _) = solve_ilp_budgeted(
            &full,
            &SolveBudget::unlimited(),
            &BudgetMeter::new(),
            &mut SolverFaults::none(),
        );

        let IlpResolution::Exact { x, value } = &cold else { continue };
        // Typed continuous, the LP returns its canonical point; when that
        // is integral it is the witness.
        let mut relaxed = full.clone();
        relaxed.integer.fill(false);
        let LpOutcome::Optimal { x: lp_x, .. } = solve_lp(&relaxed) else {
            panic!("case {case}: the LP relaxation of a solved ILP is optimal")
        };
        if lp_x.iter().all(|v| v.fract() == 0.0) {
            assert_eq!(&lp_x, x, "case {case}: the integral canonical point is the witness");
            let lexmin = brute_force_lexmin(&full, *value).expect("the witness is optimal");
            assert_eq!(&lexmin, x, "case {case}: not the lexicographic minimum");
            brute += 1;
        }
    }
    assert!(brute >= 80, "only {brute} brute-force checks");
}
