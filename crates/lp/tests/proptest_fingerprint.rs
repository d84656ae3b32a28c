//! Property tests for the content-addressed problem fingerprint: the key the
//! solve pool caches under must coincide with structural equality (the
//! positional `same_structure`, which forgives term noise but not a
//! variable or row permutation), and must separate problems that differ
//! semantically.

use ipet_lp::{
    fingerprint, same_structure, Constraint, Problem, ProblemBuilder, Relation, Sense, VarId,
};
use proptest::prelude::*;

fn arb_relation() -> impl Strategy<Value = Relation> {
    prop_oneof![Just(Relation::Le), Just(Relation::Ge), Just(Relation::Eq)]
}

/// A random small ILP: `n` variables, a few random rows, random sense,
/// random integrality.
fn arb_problem() -> impl Strategy<Value = Problem> {
    let n = 2usize..5;
    let rows = 1usize..5;
    (n, rows, any::<bool>()).prop_flat_map(|(n, rows, maximize)| {
        let obj = prop::collection::vec(-5i32..=5, n);
        let flags = prop::collection::vec(any::<bool>(), n);
        let row = (prop::collection::vec(-3i32..=3, n), arb_relation(), -10i32..=10);
        let rowvec = prop::collection::vec(row, rows);
        (obj, flags, rowvec).prop_map(move |(obj, flags, rowvec)| {
            let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
            let mut b = ProblemBuilder::new(sense);
            let vars: Vec<_> = flags.iter().map(|&f| b.add_var(f)).collect();
            for (i, &c) in obj.iter().enumerate() {
                b.objective(vars[i], c as f64);
            }
            for (coeffs, rel, rhs) in rowvec {
                let terms: Vec<_> =
                    coeffs.iter().enumerate().map(|(i, &c)| (vars[i], c as f64)).collect();
                b.constraint(terms, rel, rhs as f64);
            }
            b.build()
        })
    })
}

/// Applies a variable permutation `perm` (new index of old variable `v` is
/// `perm[v]`) to every part of the problem: the same model with its
/// variables renumbered.
fn permute(p: &Problem, perm: &[usize]) -> Problem {
    let n = p.num_vars();
    let mut objective = vec![0.0; n];
    let mut integer = vec![false; n];
    for v in 0..n {
        objective[perm[v]] = p.objective[v];
        integer[perm[v]] = p.integer[v];
    }
    let constraints = p
        .constraints
        .iter()
        .map(|c| Constraint {
            terms: c.terms.iter().map(|&(v, co)| (VarId(perm[v.0]), co)).collect(),
            relation: c.relation,
            rhs: c.rhs,
        })
        .collect();
    Problem { sense: p.sense, objective, constraints, integer }
}

/// Derives a permutation of `0..n` from random ranks (argsort with index
/// tie-break, so it is a permutation for any input).
fn perm_from_ranks(ranks: &[u64], n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (ranks.get(i).copied().unwrap_or(0), i));
    let mut perm = vec![0; n];
    for (new, &old) in idx.iter().enumerate() {
        perm[old] = new;
    }
    perm
}

/// The same problem written differently: each row's terms reversed, split
/// in halves around a zero term, and `-0.0` for zero objective
/// coefficients.
fn noisy(p: &Problem) -> Problem {
    let mut q = p.clone();
    for con in &mut q.constraints {
        con.terms = con
            .terms
            .iter()
            .rev()
            .flat_map(|&(v, c)| [(v, c / 2.0), (v, 0.0), (v, c / 2.0)])
            .collect();
    }
    for c in &mut q.objective {
        if *c == 0.0 {
            *c = -0.0;
        }
    }
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Keys coincide with structural equality: a noisy copy of a problem
    /// is the same problem and shares its key, and a copy with its
    /// variables permuted and its rows rotated shares the key exactly when
    /// `same_structure` still holds (a symmetric problem can map to
    /// itself).
    #[test]
    fn same_structure_coincides_with_equal_keys(
        (p, ranks, rot) in (
            arb_problem(),
            prop::collection::vec(0u64..1_000, 5),
            0usize..4,
        )
    ) {
        let q = noisy(&p);
        prop_assert!(same_structure(&p, &q));
        prop_assert_eq!(fingerprint(&p), fingerprint(&q));

        let mut q = noisy(&permute(&p, &perm_from_ranks(&ranks, p.num_vars())));
        let r = rot % q.constraints.len();
        q.constraints.rotate_left(r);
        prop_assert_eq!(same_structure(&p, &q), fingerprint(&p) == fingerprint(&q));
    }

    /// Term-level noise — splitting a coefficient across repeated terms and
    /// appending zero terms — never changes the key or structural equality.
    #[test]
    fn term_noise_is_normalized_away((p, which) in (arb_problem(), 0usize..8)) {
        let mut q = p.clone();
        let i = which % q.constraints.len();
        let noisy: Vec<(VarId, f64)> = q.constraints[i]
            .terms
            .iter()
            .flat_map(|&(v, c)| vec![(v, c / 2.0), (v, c / 2.0), (v, 0.0)])
            .collect();
        q.constraints[i].terms = noisy;
        prop_assert_eq!(fingerprint(&p), fingerprint(&q));
        prop_assert!(same_structure(&p, &q));
    }

    /// Semantic perturbations separate keys: nudging one effective
    /// coefficient, right-hand side, or the sense yields a different
    /// fingerprint.
    #[test]
    fn semantic_changes_separate_keys((p, which, kind) in (arb_problem(), 0usize..8, 0u8..3)) {
        let mut q = p.clone();
        match kind {
            0 => {
                let i = which % q.constraints.len();
                q.constraints[i].rhs += 1.0;
            }
            1 => {
                let v = which % q.num_vars();
                q.objective[v] += 1.0;
            }
            _ => {
                q.sense = match q.sense {
                    Sense::Maximize => Sense::Minimize,
                    Sense::Minimize => Sense::Maximize,
                };
            }
        }
        prop_assert_ne!(fingerprint(&p), fingerprint(&q));
        prop_assert!(!same_structure(&p, &q));
    }
}
