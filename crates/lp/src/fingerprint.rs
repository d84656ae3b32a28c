//! Content-addressed fingerprints for LP/ILP problems.
//!
//! The solve pool (`ipet-pool`) caches solved ILPs under a key derived from
//! the *content* of the problem, not from where it came from, so structurally
//! identical ILPs across constraint sets, benchmarks and repeated runs are
//! solved once and replayed. The key must therefore be invariant under the
//! renamings that do not change the problem:
//!
//! * **variable canonicalization** — permuting variable indices (and with
//!   them objective entries, integrality flags and row terms) yields an
//!   α-equivalent problem and must yield the same key;
//! * **row order** — constraint rows form a set, not a sequence;
//! * **coefficient normalization** — repeated terms for one variable are
//!   summed and zero coefficients dropped (constant folding), `-0.0` is
//!   folded to `0.0`, and a row's terms are sorted, so syntactic noise in
//!   how a row was assembled does not split the cache;
//! * **debug names** — `Problem::names` never affects the key.
//!
//! The construction is a Weisfeiler–Leman-style color refinement on the
//! bipartite variable/row incidence graph. Variables start from a color
//! hashing their objective coefficient and integrality; each round hashes
//! every row from its relation, right-hand side and *sorted multiset* of
//! (coefficient, variable-color) pairs, then re-colors every variable from
//! its sorted multiset of (coefficient, row-color) pairs. Sorting multisets
//! makes every round permutation-invariant by construction. The final key
//! hashes the sense, the dimensions and the sorted color multisets.
//!
//! Like every WL scheme this is a *sound index, not a proof of isomorphism*:
//! distinct problems could in principle collide (either as a genuine 128-bit
//! hash collision or as WL-indistinguishable non-isomorphic instances).
//! Cache correctness therefore never rests on the key alone — the pool
//! validates every replay against the actual problem (see `ipet-pool`), and
//! [`same_structure`] provides the exact structural-equality check used to
//! gate verdicts that cannot be re-validated from a witness point.

use crate::model::{Constraint, Problem, Relation, Sense};

/// A 128-bit content hash of a normalized problem.
///
/// Equal fingerprints are a *cache index* hint: α-equivalent problems always
/// map to the same fingerprint, and different fingerprints always mean
/// different problems, but equal fingerprints alone do not prove
/// equivalence — replays must be validated (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Number of refinement rounds. Two rounds separate everything the solve
/// pipeline generates; a third is cheap insurance for symmetric instances.
const ROUNDS: usize = 3;

/// Deterministic 64-bit mixer (splitmix64 finalizer). The standard library
/// hashers make no cross-version stability promise, and the fingerprint must
/// be stable enough to compare across processes in tests and tooling.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds `word` into a running hash.
fn fold(h: u64, word: u64) -> u64 {
    mix(h ^ mix(word))
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
/// sums them (see [`Constraint::merged_terms`]), so the keys are those of a
/// dense normalization.
fn normalize_row(con: &Constraint) -> NormRow {
    let terms = con.merged_terms().into_iter().map(|(v, c)| (v, coeff_bits(c))).collect();
    NormRow { terms, relation: con.relation, rhs_bits: coeff_bits(con.rhs) }
}

/// Computes the content fingerprint of `problem`.
///
/// Invariant under variable permutation, row reordering, repeated/zero
/// terms, and debug names; sensitive to the sense, every effective
/// coefficient, every relation and right-hand side, and integrality flags.
pub fn fingerprint(problem: &Problem) -> Fingerprint {
    let n = problem.num_vars();
    let rows: Vec<NormRow> = problem.constraints.iter().map(normalize_row).collect();

    // Variable -> row incidence in CSR form, built once for every round:
    // variable `v`'s `(row, coeff_bits)` pairs are
    // `incidence[start[v]..start[v + 1]]`.
    let mut start = vec![0usize; n + 1];
    for row in &rows {
        for &(v, _) in &row.terms {
            start[v + 1] += 1;
        }
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut incidence = vec![(0usize, 0u64); start[n]];
    let mut next = start.clone();
    for (i, row) in rows.iter().enumerate() {
        for &(v, cb) in &row.terms {
            incidence[next[v]] = (i, cb);
            next[v] += 1;
        }
    }

    // Initial variable colors: objective coefficient + integrality.
    let mut var_color: Vec<u64> = (0..n)
        .map(|v| {
            let mut h = 0xa5a5_0001u64;
            h = fold(h, coeff_bits(problem.objective[v]));
            h = fold(h, u64::from(problem.integer[v]));
            h
        })
        .collect();
    let mut row_color: Vec<u64> = vec![0; rows.len()];
    let mut sig: Vec<u64> = Vec::new();

    for round in 0..ROUNDS {
        // Rows from variables.
        for (i, row) in rows.iter().enumerate() {
            sig.clear();
            sig.extend(row.terms.iter().map(|&(v, cb)| fold(fold(0xb6b6_0002, cb), var_color[v])));
            sig.sort_unstable();
            let mut h = fold(0xc7c7_0003, round as u64);
            h = fold(h, relation_tag(row.relation));
            h = fold(h, row.rhs_bits);
            for &s in &sig {
                h = fold(h, s);
            }
            row_color[i] = h;
        }
        // Variables from rows.
        for v in 0..n {
            sig.clear();
            sig.extend(
                incidence[start[v]..start[v + 1]]
                    .iter()
                    .map(|&(i, cb)| fold(fold(0xd8d8_0004, cb), row_color[i])),
            );
            sig.sort_unstable();
            let mut h = fold(var_color[v], 0xe9e9_0005);
            for &s in &sig {
                h = fold(h, s);
            }
            var_color[v] = h;
        }
    }

    // Final key: sense, dimensions and the sorted color multisets, digested
    // twice with different salts for a 128-bit key.
    let mut vs = var_color;
    vs.sort_unstable();
    let mut rs = row_color;
    rs.sort_unstable();
    let digest = |salt: u64| {
        let mut h = fold(salt, sense_tag(problem.sense));
        h = fold(h, n as u64);
        h = fold(h, rows.len() as u64);
        for &c in &vs {
            h = fold(h, c);
        }
        for &c in &rs {
            h = fold(h, c);
        }
        h
    };
    let hi = digest(0x0f0f_1111_2222_3333);
    let lo = digest(0x7777_8888_9999_aaaa);
    Fingerprint(((hi as u128) << 64) | lo as u128)
}

/// Content fingerprint of a bundle of *delta rows* relative to a base
/// problem with `num_vars` variables (see `ipet-lp`'s `incremental`
/// module). Together with the base problem's [`fingerprint`] it forms the
/// `(base, delta)` cache key used by the solve pool.
///
/// Deltas are keyed **positionally**: variable indices refer to the base
/// problem's variable order, so two deltas only share a key when they
/// constrain the same base columns the same way. Row order and syntactic
/// term noise (repeats, zeros, `-0.0`) do not affect the key; the empty
/// delta maps to `Fingerprint(0)` so "no delta" is recognizable in logs.
pub fn delta_rows_fingerprint(rows: &[Constraint], num_vars: usize) -> Fingerprint {
    if rows.is_empty() {
        return Fingerprint(0);
    }
    let mut row_hashes: Vec<u64> = rows
        .iter()
        .map(|con| {
            let mut h = fold(0xf1f1_0006, relation_tag(con.relation));
            h = fold(h, coeff_bits(con.rhs));
            for (v, c) in con.merged_terms() {
                debug_assert!(v < num_vars, "delta row names variable {v} of {num_vars}");
                h = fold(fold(h, v as u64), coeff_bits(c));
            }
            h
        })
        .collect();
    row_hashes.sort_unstable();
    let digest = |salt: u64| {
        let mut h = fold(salt, num_vars as u64);
        h = fold(h, rows.len() as u64);
        for &r in &row_hashes {
            h = fold(h, r);
        }
        h
    };
    let hi = digest(0x1357_9bdf_0246_8ace);
    let lo = digest(0xfdb9_7531_eca8_6420);
    Fingerprint(((hi as u128) << 64) | lo as u128)
}

/// Exact structural equality of two problems: same sense, same normalized
/// rows in the same order, same objective and integrality flags — debug
/// names are ignored. This is the strict gate the solve cache uses before
/// replaying verdicts (like `Infeasible`) that a witness point cannot
/// re-validate.
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
        let x = b.add_var("x", true);
        let y = b.add_var("y", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        b.build()
    }

    #[test]
    fn stable_across_calls_and_name_changes() {
        let p = toy(Sense::Maximize);
        let mut q = toy(Sense::Maximize);
        q.names = vec!["a".into(), "b".into()];
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
    fn row_order_and_term_noise_do_not_change_the_key() {
        let p = toy(Sense::Maximize);

        let mut q = p.clone();
        q.constraints.swap(0, 1);
        assert_eq!(fingerprint(&p), fingerprint(&q));

        // Repeated and zero terms fold away: x + y == 0.5x + 0.5x + y + 0z.
        let mut q = p.clone();
        q.constraints[0] = Constraint {
            terms: vec![(VarId(0), 0.5), (VarId(0), 0.5), (VarId(1), 1.0), (VarId(1), 0.0)],
            relation: Relation::Le,
            rhs: 4.0,
        };
        assert_eq!(fingerprint(&p), fingerprint(&q));
        assert!(same_structure(&p, &q));
    }

    #[test]
    fn variable_permutation_is_alpha_equivalent() {
        // Same problem with variable order (x, y) swapped to (y, x).
        let p = toy(Sense::Maximize);
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let y = b.add_var("y", true);
        let x = b.add_var("x", true);
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(y, 1.0), (x, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
        let q = b.build();
        assert_eq!(fingerprint(&p), fingerprint(&q));
        // α-equivalent but not structurally identical (different var order).
        assert!(!same_structure(&p, &q));
    }

    #[test]
    fn delta_fingerprints_are_order_invariant_and_positional() {
        let row = |v: usize, c: f64, rel: Relation, rhs: f64| Constraint {
            terms: vec![(VarId(v), c)],
            relation: rel,
            rhs,
        };
        let a = vec![row(0, 1.0, Relation::Le, 2.0), row(1, 1.0, Relation::Ge, 3.0)];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_eq!(delta_rows_fingerprint(&a, 2), delta_rows_fingerprint(&b, 2));

        // Positional: the "same" row over a different base column differs.
        let c = vec![row(1, 1.0, Relation::Le, 2.0), row(1, 1.0, Relation::Ge, 3.0)];
        assert_ne!(delta_rows_fingerprint(&a, 2), delta_rows_fingerprint(&c, 2));

        // Term noise folds away.
        let noisy = vec![
            Constraint {
                terms: vec![(VarId(0), 0.5), (VarId(0), 0.5), (VarId(1), 0.0)],
                relation: Relation::Le,
                rhs: 2.0,
            },
            row(1, 1.0, Relation::Ge, 3.0),
        ];
        assert_eq!(delta_rows_fingerprint(&a, 2), delta_rows_fingerprint(&noisy, 2));

        // Empty delta is the distinguished zero key.
        assert_eq!(delta_rows_fingerprint(&[], 2), Fingerprint(0));
        assert_ne!(delta_rows_fingerprint(&a, 2), Fingerprint(0));
    }

    /// A crafted near-collision: both problems have the same variable set,
    /// the same objective, the same relations/rhs, and the same *global*
    /// multiset of coefficients {1, 1, 2, 2}; only the pairing of
    /// coefficients to rows differs. A hash of unordered coefficients alone
    /// would collide; the refinement's per-row multisets must not.
    #[test]
    fn near_collision_pair_separates() {
        let build = |rows: [[f64; 2]; 2]| {
            let mut b = ProblemBuilder::new(Sense::Maximize);
            let x = b.add_var("x", true);
            let y = b.add_var("y", true);
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
