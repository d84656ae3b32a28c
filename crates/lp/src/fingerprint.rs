//! Content fingerprints for LP/ILP problems.
//!
//! The solve pool (`ipet-pool`) caches solved ILPs under a key derived from
//! the *content* of the problem, not from where it came from, so identical
//! ILPs across constraint sets, benchmarks and repeated runs are solved once
//! and replayed.
//!
//! The key is **positional**: a witness is a vector of counts indexed by
//! variable, so it only answers a problem with the same variables at the
//! same indices, and every consumer of the key (in-batch dedup, the solve
//! cache, the persistent store) gates on [`same_structure`] anyway. The
//! fingerprint is one pass over the problem, in this order:
//!
//! * the sense and the variable count;
//! * the integrality flags;
//! * the objective coefficients;
//! * the rows in order, each normalized as [`same_structure`] normalizes it:
//!   repeated terms summed, zero coefficients dropped, terms sorted by
//!   variable, `-0.0` folded to `0.0`;
//! * last, the row count.
//!
//! Equal keys therefore coincide with [`same_structure`], up to a 128-bit
//! hash collision.
//!
//! A key is an *index*, not a proof of equality: cache correctness never
//! rests on it alone. Every replay is gated by [`same_structure`] and, for a
//! witness, exact re-certification (see `ipet-pool`).

use crate::model::{Constraint, Problem, Relation, Sense};

/// A 128-bit content hash of a normalized problem.
///
/// Problems equal under [`same_structure`] always share a fingerprint;
/// different fingerprints always mean different problems. Equal
/// fingerprints alone do not prove equality — replays must be validated
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Deterministic 64-bit mixer (splitmix64 finalizer). The standard library
/// hashers make no cross-version stability promise, and the fingerprint must
/// be stable enough to compare across processes in tests and tooling.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Canonical bit pattern of a coefficient: `-0.0` folds to `0.0` so the two
/// encodings of zero hash identically (NaN never reaches here — the solver
/// rejects non-finite models before caching).
fn coeff_bits(c: f64) -> u64 {
    if c == 0.0 {
        0f64.to_bits()
    } else {
        c.to_bits()
    }
}

fn relation_tag(r: Relation) -> u64 {
    match r {
        Relation::Le => 0x1d,
        Relation::Ge => 0x2e,
        Relation::Eq => 0x3f,
    }
}

fn sense_tag(s: Sense) -> u64 {
    match s {
        Sense::Maximize => 0x51,
        Sense::Minimize => 0x62,
    }
}

/// One normalized row: summed, zero-dropped, sorted sparse terms.
#[derive(PartialEq)]
struct NormRow {
    /// `(var, coeff_bits)` sorted by variable index.
    terms: Vec<(usize, u64)>,
    relation: Relation,
    rhs_bits: u64,
}

/// Normalizes one row in O(terms): repeats summed exactly as the dense form
/// sums them (see [`Constraint::merged_terms`]).
fn normalize_row(con: &Constraint) -> NormRow {
    let terms = con.merged_terms().into_iter().map(|(v, c)| (v, coeff_bits(c))).collect();
    NormRow { terms, relation: con.relation, rhs_bits: coeff_bits(con.rhs) }
}

/// Computes the content fingerprint of `problem` (see the module docs).
///
/// Insensitive to repeated and zero terms, term order within a row and
/// `-0.0`; sensitive to the sense, the variable order, the row order,
/// every effective coefficient, every relation and right-hand side, and
/// the integrality flags.
pub fn fingerprint(problem: &Problem) -> Fingerprint {
    // Two 64-bit lanes fed the same word stream from different seeds.
    let (mut hi, mut lo) = (0x0f0f_1111_2222_3333u64, 0x7777_8888_9999_aaaau64);
    let mut word = |w: u64| {
        let m = mix(w);
        hi = mix(hi ^ m);
        lo = mix(lo ^ m.rotate_left(32));
    };
    word(sense_tag(problem.sense));
    word(problem.num_vars() as u64);
    for &flag in &problem.integer {
        word(u64::from(flag));
    }
    for &c in &problem.objective {
        word(coeff_bits(c));
    }
    for con in &problem.constraints {
        word(relation_tag(con.relation));
        word(coeff_bits(con.rhs));
        // Merged exactly as `normalize_row` merges: no zero survives.
        let terms = con.merged_terms();
        word(terms.len() as u64);
        for (v, c) in terms {
            word(v as u64);
            word(c.to_bits());
        }
    }
    word(problem.constraints.len() as u64);
    Fingerprint((u128::from(hi) << 64) | u128::from(lo))
}

/// Exact structural equality of two problems: same sense, same normalized
/// rows in the same order, same objective and integrality flags. This is
/// the strict gate the replay tier uses before replaying verdicts (like
/// `Infeasible`) that a witness point cannot re-validate.
pub fn same_structure(a: &Problem, b: &Problem) -> bool {
    if a.sense != b.sense
        || a.num_vars() != b.num_vars()
        || a.num_constraints() != b.num_constraints()
    {
        return false;
    }
    if a.integer != b.integer {
        return false;
    }
    let bits = |xs: &[f64]| xs.iter().map(|&c| coeff_bits(c)).collect::<Vec<_>>();
    if bits(&a.objective) != bits(&b.objective) {
        return false;
    }
    // Bitwise-identical rows normalize identically; only rows that differ
    // in how they were written need normalizing.
    let identical = |x: &Constraint, y: &Constraint| {
        x.relation == y.relation
            && x.rhs.to_bits() == y.rhs.to_bits()
            && x.terms.len() == y.terms.len()
            && x.terms
                .iter()
                .zip(&y.terms)
                .all(|(s, t)| s.0 == t.0 && s.1.to_bits() == t.1.to_bits())
    };
    a.constraints
        .iter()
        .zip(&b.constraints)
        .all(|(x, y)| identical(x, y) || normalize_row(x) == normalize_row(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, ProblemBuilder, VarId};

    fn toy(sense: Sense) -> Problem {
        let mut b = ProblemBuilder::new(sense);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        b.build()
    }

    #[test]
    fn stable_across_calls() {
        let p = toy(Sense::Maximize);
        let q = toy(Sense::Maximize);
        assert_eq!(fingerprint(&p), fingerprint(&q));
        assert!(same_structure(&p, &q));
    }

    #[test]
    fn sense_and_content_change_the_key() {
        let p = toy(Sense::Maximize);
        assert_ne!(fingerprint(&p), fingerprint(&toy(Sense::Minimize)));

        let mut q = p.clone();
        q.constraints[0].rhs = 5.0;
        assert_ne!(fingerprint(&p), fingerprint(&q));
        assert!(!same_structure(&p, &q));

        let mut q = p.clone();
        q.constraints[1].relation = Relation::Ge;
        assert_ne!(fingerprint(&p), fingerprint(&q));

        let mut q = p.clone();
        q.objective[1] = 7.0;
        assert_ne!(fingerprint(&p), fingerprint(&q));

        let mut q = p.clone();
        q.integer[0] = false;
        assert_ne!(fingerprint(&p), fingerprint(&q));
    }

    #[test]
    fn term_noise_does_not_change_the_key_but_row_order_does() {
        let p = toy(Sense::Maximize);

        // Repeated, zero and unsorted terms fold away:
        // x + y == y + 0.5x + 0.5x + 0y.
        let mut q = p.clone();
        q.constraints[0] = Constraint {
            terms: vec![(VarId(1), 1.0), (VarId(0), 0.5), (VarId(0), 0.5), (VarId(1), 0.0)],
            relation: Relation::Le,
            rhs: 4.0,
        };
        assert_eq!(fingerprint(&p), fingerprint(&q));
        assert!(same_structure(&p, &q));

        // Rows are a sequence, as `same_structure` compares them.
        let mut q = p.clone();
        q.constraints.swap(0, 1);
        assert_ne!(fingerprint(&p), fingerprint(&q));
        assert!(!same_structure(&p, &q));
    }

    #[test]
    fn variable_permutation_changes_the_key() {
        // Same problem with variable order (x, y) swapped to (y, x): a
        // witness of one is not a witness of the other.
        let p = toy(Sense::Maximize);
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let y = b.add_var(true);
        let x = b.add_var(true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(y, 1.0), (x, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let q = b.build();
        assert_ne!(fingerprint(&p), fingerprint(&q));
        assert!(!same_structure(&p, &q));
    }

    /// A crafted near-collision: both problems have the same variable set,
    /// the same objective, the same relations/rhs, and the same *global*
    /// multiset of coefficients {1, 1, 2, 2}; only the pairing of
    /// coefficients to rows differs. A hash of unordered coefficients alone
    /// would collide; a hash of each row's terms must not.
    #[test]
    fn near_collision_pair_separates() {
        let build = |rows: [[f64; 2]; 2]| {
            let mut b = ProblemBuilder::new(Sense::Maximize);
            let x = b.add_var(true);
            let y = b.add_var(true);
            b.objective(x, 1.0);
            b.objective(y, 1.0);
            for r in rows {
                b.constraint(vec![(x, r[0]), (y, r[1])], Relation::Le, 3.0);
            }
            b.build()
        };
        // {x + 2y <= 3, 2x + y <= 3} vs {x + y <= 3, 2x + 2y <= 3}.
        let p = build([[1.0, 2.0], [2.0, 1.0]]);
        let q = build([[1.0, 1.0], [2.0, 2.0]]);
        assert_ne!(fingerprint(&p), fingerprint(&q));
        // Sanity: the pair really is a near-collision — flat coefficient
        // multisets agree.
        let flat = |p: &Problem| {
            let mut all: Vec<u64> = p
                .constraints
                .iter()
                .flat_map(|c| c.terms.iter().map(|&(_, co)| co.to_bits()))
                .collect();
            all.sort_unstable();
            all
        };
        assert_eq!(flat(&p), flat(&q));
    }
}
