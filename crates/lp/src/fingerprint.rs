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
//! fingerprint is one pass over the problem, one 64-bit word per integer (a
//! coefficient or right-hand side is its two's-complement `i64`), in this
//! order:
//!
//! * the sense and the variable count;
//! * the integrality flags;
//! * the objective coefficients;
//! * the rows in order, each normalized as [`same_structure`] normalizes it:
//!   repeated terms summed, zero coefficients dropped, terms sorted by
//!   variable;
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

/// Two rows are the same row: the same relation and right-hand side, and
/// the same nonzero coefficients once repeats are summed
/// ([`Constraint::merged_terms`]).
fn same_row(x: &Constraint, y: &Constraint) -> bool {
    x.relation == y.relation
        && x.rhs == y.rhs
        && (x.terms == y.terms || x.merged_terms() == y.merged_terms())
}

/// Computes the content fingerprint of `problem` (see the module docs).
///
/// Insensitive to repeated and zero terms and to term order within a row;
/// sensitive to the sense, the variable order, the row order,
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
        word(c as u64);
    }
    for con in &problem.constraints {
        word(relation_tag(con.relation));
        word(con.rhs as u64);
        // Merged as `same_row` merges: no zero survives. A summed
        // coefficient past `i64` hashes by its low 64 bits.
        let terms = con.merged_terms();
        word(terms.len() as u64);
        for (v, c) in terms {
            word(v as u64);
            word(c as u64);
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
    a.integer == b.integer
        && a.objective == b.objective
        && a.constraints.iter().zip(&b.constraints).all(|(x, y)| same_row(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Constraint, ProblemBuilder, VarId};

    fn toy(sense: Sense) -> Problem {
        let mut b = ProblemBuilder::new(sense);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 3);
        b.objective(y, 2);
        b.constraint(vec![(x, 1), (y, 1)], Relation::Le, 4);
        b.constraint(vec![(x, 1)], Relation::Le, 2);
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
        q.constraints[0].rhs = 5;
        assert_ne!(fingerprint(&p), fingerprint(&q));
        assert!(!same_structure(&p, &q));

        let mut q = p.clone();
        q.constraints[1].relation = Relation::Ge;
        assert_ne!(fingerprint(&p), fingerprint(&q));

        let mut q = p.clone();
        q.objective[1] = 7;
        assert_ne!(fingerprint(&p), fingerprint(&q));

        let mut q = p.clone();
        q.integer[0] = false;
        assert_ne!(fingerprint(&p), fingerprint(&q));
    }

    #[test]
    fn term_noise_does_not_change_the_key_but_row_order_does() {
        let p = toy(Sense::Maximize);

        // Repeated, zero and unsorted terms fold away:
        // x + y == y + 3x - 2x + 0y.
        let mut q = p.clone();
        q.constraints[0] = Constraint {
            terms: vec![(VarId(1), 1), (VarId(0), 3), (VarId(0), -2), (VarId(1), 0)],
            relation: Relation::Le,
            rhs: 4,
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
        b.objective(x, 3);
        b.objective(y, 2);
        b.constraint(vec![(y, 1), (x, 1)], Relation::Le, 4);
        b.constraint(vec![(x, 1)], Relation::Le, 2);
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
        let build = |rows: [[i64; 2]; 2]| {
            let mut b = ProblemBuilder::new(Sense::Maximize);
            let x = b.add_var(true);
            let y = b.add_var(true);
            b.objective(x, 1);
            b.objective(y, 1);
            for r in rows {
                b.constraint(vec![(x, r[0]), (y, r[1])], Relation::Le, 3);
            }
            b.build()
        };
        // {x + 2y <= 3, 2x + y <= 3} vs {x + y <= 3, 2x + 2y <= 3}.
        let p = build([[1, 2], [2, 1]]);
        let q = build([[1, 1], [2, 2]]);
        assert_ne!(fingerprint(&p), fingerprint(&q));
        // Sanity: the pair really is a near-collision — flat coefficient
        // multisets agree.
        let flat = |p: &Problem| {
            let mut all: Vec<i64> =
                p.constraints.iter().flat_map(|c| c.terms.iter().map(|&(_, co)| co)).collect();
            all.sort_unstable();
            all
        };
        assert_eq!(flat(&p), flat(&q));
    }
}
