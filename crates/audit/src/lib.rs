//! # ipet-audit
//!
//! An independent certifier for every bound the IPET pipeline reports.
//!
//! The paper's claim rests entirely on trusting `max Σ c_i·x_i`: a silent
//! solver bug or f64 rounding slip corrupts the reported tables without any
//! visible failure. Following the cross-validation discipline of the WCET
//! literature (Prantl et al.; Bundala & Seshia), this crate re-verifies each
//! solved constraint set from first principles, using **exact arithmetic
//! only** — the checker performs zero floating-point operations. A
//! [`Problem`] is integers (`i64` coefficients and right-hand sides), so
//! every check is checked `i128` arithmetic, and floats enter in one
//! sanctioned way: the solver's witness vector (and a cached claim) is
//! rounded to integer counts by [`ipet_lp::round_witness`] /
//! [`ipet_lp::round_claimed`] under the one centralized tolerance
//! (floating-point is allowed *there*, in the rounding layer, never here).
//!
//! ## The certificate
//!
//! For a claimed bound with witness `x` the certifier checks:
//!
//! * **(a) feasibility** — the rounded witness satisfies *every* structural
//!   and functionality row of the solved [`Problem`] exactly
//!   ([`certify_witness`]);
//! * **(b) objective replay** — `Σ c_i·x_i` recomputed exactly equals the
//!   claimed bound (`Exact` quality), or is covered by it (`Relaxed`);
//! * **(c) flow conservation** — the witness replays on the actual CFG
//!   (`d_entry = 1`, in-flow = out-flow per block, call-site coupling)
//!   via a [`FlowSpec`] built from the CFG topology, independently of the
//!   constraint matrix the solver saw;
//! * **(d) cache replays** — the solve pool's replay tier (`ipet-store`)
//!   passes every replay through [`replay_gate`]: the cached problem must equal the
//!   new one, and a cached witness must certify against it exactly.
//!
//! Any failed check is an explicit [`CertFailure`]; even internal overflow
//! rejects the certificate rather than guessing.
//!
//! ## Cost
//!
//! Certification runs at integer speed: each row (and the dense objective)
//! is summed in place, term by term, as `i128` products of an `i64`
//! coefficient and an `i64` count, without allocating; the only allocation
//! is the rounded count vector. Over the 13 suite routines' 36 `--infer` jobs
//! (about 9,400 coefficient terms), [`certify_witness`] takes about
//! 0.14 ms per pass on a 2-vCPU host, release build.

use std::fmt;

use std::cmp::Ordering;

use ipet_lp::{round_claimed, round_witness, same_structure, Problem, Relation, RoundError};

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CertFailure {
    /// The witness vector refused to round to integer counts.
    BadWitness(RoundError),
    /// The claimed bound is not an integer count of cycles.
    BadClaim(RoundError),
    /// Witness length does not match the problem's variable count.
    ArityMismatch {
        /// Variables in the problem.
        expected: usize,
        /// Entries in the witness.
        got: usize,
    },
    /// The rounded witness violates a constraint row exactly.
    ConstraintViolated {
        /// Constraint row index.
        row: usize,
        /// Exact left-hand side.
        lhs: i128,
        /// The row's relation.
        relation: Relation,
        /// The right-hand side.
        rhs: i64,
    },
    /// The exactly recomputed objective differs from the claimed bound.
    ObjectiveMismatch {
        /// Exact `Σ c_i·x_i`.
        computed: i128,
        /// The claimed bound.
        claimed: i64,
    },
    /// A relaxed outer bound fails to cover its own witnessed incumbent.
    BoundViolatesWitness {
        /// The claimed outer bound.
        bound: i64,
        /// The exactly witnessed objective value.
        witnessed: i128,
    },
    /// The CFG entry edge does not execute exactly once.
    FlowEntryMismatch {
        /// The witnessed entry-edge count.
        got: i64,
    },
    /// In-flow or out-flow of a block disagrees with its execution count.
    FlowImbalance {
        /// Index of the block variable.
        block: usize,
        /// Witnessed block count.
        count: i64,
        /// Witnessed in-flow.
        inflow: i128,
        /// Witnessed out-flow.
        outflow: i128,
    },
    /// A callee's entry count disagrees with the sum of caller f-edges.
    CouplingMismatch {
        /// Index of the callee entry-edge variable.
        entry: usize,
        /// Witnessed entry count.
        got: i64,
        /// Sum of the witnessed caller f-edge counts.
        expected: i128,
    },
    /// Exact arithmetic overflowed `i128` — reject rather than guess.
    Overflow,
}

impl fmt::Display for CertFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertFailure::BadWitness(e) => write!(f, "witness not integral: {e}"),
            CertFailure::BadClaim(e) => write!(f, "claimed bound not integral: {e}"),
            CertFailure::ArityMismatch { expected, got } => {
                write!(f, "witness has {got} entries, problem has {expected} variables")
            }
            CertFailure::ConstraintViolated { row, lhs, relation, rhs } => {
                write!(f, "row {row} violated: {lhs} {relation} {rhs} is false")
            }
            CertFailure::ObjectiveMismatch { computed, claimed } => {
                write!(f, "objective replay {computed} != claimed {claimed}")
            }
            CertFailure::BoundViolatesWitness { bound, witnessed } => {
                write!(f, "outer bound {bound} does not cover witnessed value {witnessed}")
            }
            CertFailure::FlowEntryMismatch { got } => {
                write!(f, "entry edge executes {got} times, expected 1")
            }
            CertFailure::FlowImbalance { block, count, inflow, outflow } => {
                write!(
                    f,
                    "flow imbalance at block var {block}: count {count}, in {inflow}, out {outflow}"
                )
            }
            CertFailure::CouplingMismatch { entry, got, expected } => {
                write!(f, "call coupling at entry var {entry}: count {got}, callers sum {expected}")
            }
            CertFailure::Overflow => write!(f, "exact arithmetic overflowed i128"),
        }
    }
}

impl std::error::Error for CertFailure {}

/// How the claimed bound must relate to the exactly witnessed objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimKind {
    /// `Exact` quality: the objective replay must equal the claim.
    Equal,
    /// `Relaxed` WCET: the claim is an outer bound from above (`claim ≥`).
    CoversFromAbove,
    /// `Relaxed` BCET: the claim is an outer bound from below (`claim ≤`).
    CoversFromBelow,
}

/// A witness that survived checks (a) and (b).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifiedWitness {
    /// The rounded integer execution counts.
    pub counts: Vec<i64>,
    /// The exactly recomputed objective value.
    pub objective: i128,
}

/// Exact sum `Σ coeff · counts[var]` over `(var, coeff)` terms, in term
/// order. An `i64` product always fits `i128`; only the sum can overflow.
fn exact_dot(
    terms: impl IntoIterator<Item = (usize, i64)>,
    counts: &[i64],
) -> Result<i128, CertFailure> {
    let mut sum: i128 = 0;
    for (var, coeff) in terms {
        let count = *counts
            .get(var)
            .ok_or(CertFailure::ArityMismatch { expected: var + 1, got: counts.len() })?;
        let term = i128::from(coeff) * i128::from(count);
        sum = sum.checked_add(term).ok_or(CertFailure::Overflow)?;
    }
    Ok(sum)
}

/// Certifies checks (a) and (b): rounds the f64 witness `x`, verifies every
/// constraint of `problem` exactly, recomputes the objective exactly, and
/// checks it against the `claimed` bound per `kind`.
///
/// Variables are implicitly non-negative in [`Problem`]; the rounding layer
/// already rejects negative counts, so non-negativity holds by construction.
pub fn certify_witness(
    problem: &Problem,
    x: &[f64],
    claimed: i64,
    kind: ClaimKind,
) -> Result<CertifiedWitness, CertFailure> {
    let counts = round_witness(x).map_err(CertFailure::BadWitness)?;
    if counts.len() != problem.num_vars() {
        return Err(CertFailure::ArityMismatch { expected: problem.num_vars(), got: counts.len() });
    }

    // (a) every structural + functionality row, exactly.
    for (row, con) in problem.constraints.iter().enumerate() {
        let lhs = exact_dot(con.terms.iter().map(|&(v, c)| (v.0, c)), &counts)?;
        let ord = lhs.cmp(&i128::from(con.rhs));
        let holds = match con.relation {
            Relation::Le => ord != Ordering::Greater,
            Relation::Ge => ord != Ordering::Less,
            Relation::Eq => ord == Ordering::Equal,
        };
        if !holds {
            return Err(CertFailure::ConstraintViolated {
                row,
                lhs,
                relation: con.relation,
                rhs: con.rhs,
            });
        }
    }

    // (b) objective replay, exactly.
    let objective = exact_dot(problem.objective.iter().copied().enumerate(), &counts)?;
    let ord = objective.cmp(&i128::from(claimed));
    let covered = match kind {
        ClaimKind::Equal => ord == Ordering::Equal,
        ClaimKind::CoversFromAbove => ord != Ordering::Greater,
        ClaimKind::CoversFromBelow => ord != Ordering::Less,
    };
    if !covered {
        return Err(match kind {
            ClaimKind::Equal => CertFailure::ObjectiveMismatch { computed: objective, claimed },
            _ => CertFailure::BoundViolatesWitness { bound: claimed, witnessed: objective },
        });
    }
    Ok(CertifiedWitness { counts, objective })
}

/// How a cached answer stands against a problem it might answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// The entry holds another problem (a key collision): no answer here,
    /// and no rejection either.
    Foreign,
    /// The entry holds the problem, and its witness, if any, certifies.
    Certified,
    /// The entry holds the problem, but its witness fails exact
    /// certification: the problem must be solved afresh.
    Rejected,
}

/// The replay gate of the solve pool's replay tier (check (d)):
/// the `cached` problem must equal `problem` row for row
/// ([`same_structure`]), and a cached `Exact` answer — `exact` is its
/// witness and objective value — must round to integer counts, satisfy
/// every row of `problem` exactly and reproduce its value exactly. A verdict
/// without a witness (`exact` is `None`) replays on structural equality.
pub fn replay_gate(cached: &Problem, problem: &Problem, exact: Option<(&[f64], f64)>) -> Replay {
    if !same_structure(cached, problem) {
        return Replay::Foreign;
    }
    let certified = exact.is_none_or(|(x, value)| {
        round_claimed(value)
            .is_ok_and(|claimed| certify_witness(problem, x, claimed, ClaimKind::Equal).is_ok())
    });
    if certified {
        Replay::Certified
    } else {
        Replay::Rejected
    }
}

/// Exact chord certificate for parametric region reuse (DESIGN.md §16).
///
/// `formula` is the line `value(p) = constant + slope·p` traced by an
/// optimal witness solved at one end of a candidate region; `(p, value)` is
/// the *certified* optimum at the other end. With parameter-free
/// constraints the optimal value function is convex in `p` and the witness
/// line is a global minorant, so exact equality of line and optimum at both
/// endpoints proves the line *is* the optimum everywhere between them.
///
/// The arithmetic is checked `i128`; overflow rejects the certificate
/// (returns `false`) rather than guessing — the caller then falls back to a
/// concrete solve, so a refused certificate costs time, never correctness.
pub fn certify_chord(formula: ipet_lp::BoundFormula, p: u64, value: i128) -> bool {
    formula
        .slope
        .checked_mul(i128::from(p))
        .and_then(|term| term.checked_add(formula.constant))
        .is_some_and(|line| line == value)
}

/// One basic block's flow neighborhood, in problem-variable indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowNode {
    /// Variable index of the block count `x_i`.
    pub block: usize,
    /// Variable indices of the edges entering the block.
    pub in_edges: Vec<usize>,
    /// Variable indices of the edges leaving the block.
    pub out_edges: Vec<usize>,
}

/// CFG flow structure for check (c), built directly from the CFG topology
/// (not from the constraint matrix the solver saw).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowSpec {
    /// Variable index of the program entry edge (`d1` of the root instance);
    /// it must execute exactly once.
    pub entry_edge: usize,
    /// Every block of every instance with its in/out edge variables.
    pub nodes: Vec<FlowNode>,
    /// Interprocedural couplings: each callee entry-edge variable must equal
    /// the sum of its caller f-edge variables.
    pub couplings: Vec<(usize, Vec<usize>)>,
}

impl FlowSpec {
    /// Check (c): replays flow conservation over the rounded witness.
    pub fn check(&self, counts: &[i64]) -> Result<(), CertFailure> {
        let get = |var: usize| -> Result<i64, CertFailure> {
            counts
                .get(var)
                .copied()
                .ok_or(CertFailure::ArityMismatch { expected: var + 1, got: counts.len() })
        };
        let entry = get(self.entry_edge)?;
        if entry != 1 {
            return Err(CertFailure::FlowEntryMismatch { got: entry });
        }
        for node in &self.nodes {
            let count = get(node.block)?;
            let mut inflow: i128 = 0;
            for &e in &node.in_edges {
                inflow += get(e)? as i128;
            }
            let mut outflow: i128 = 0;
            for &e in &node.out_edges {
                outflow += get(e)? as i128;
            }
            if inflow != count as i128 || outflow != count as i128 {
                return Err(CertFailure::FlowImbalance {
                    block: node.block,
                    count,
                    inflow,
                    outflow,
                });
            }
        }
        for &(entry_var, ref callers) in &self.couplings {
            let got = get(entry_var)?;
            let mut expected: i128 = 0;
            for &c in callers {
                expected += get(c)? as i128;
            }
            if got as i128 != expected {
                return Err(CertFailure::CouplingMismatch { entry: entry_var, got, expected });
            }
        }
        Ok(())
    }
}

/// The audit verdict for one direction (WCET or BCET) of one constraint set.
#[derive(Debug, Clone, PartialEq)]
pub enum CertVerdict {
    /// `Exact` solve fully certified: feasibility, objective equality and
    /// flow replay all hold for the claimed value.
    Certified {
        /// The certified bound in cycles.
        value: u64,
    },
    /// `Relaxed` solve: the outer bound covers the certified incumbent
    /// witness (`witnessed`), or no incumbent existed to certify.
    CertifiedRelaxed {
        /// The claimed safe outer bound in cycles.
        bound: u64,
        /// The certified incumbent's objective, when one exists.
        witnessed: Option<u64>,
    },
    /// The set is infeasible — there is no bound and no witness to certify.
    Infeasible,
    /// The set was skipped or quarantined and is covered by the common-
    /// constraint relaxation (`Partial` quality): no certificate exists,
    /// which the audit reports but does not count as a rejection.
    Covered,
    /// Certification failed: the reported bound cannot be trusted.
    Rejected(CertFailure),
}

impl CertVerdict {
    /// True when this verdict invalidates the run.
    pub fn is_rejection(&self) -> bool {
        matches!(self, CertVerdict::Rejected(_))
    }

    /// Short human-readable form for reports.
    pub fn describe(&self) -> String {
        match self {
            CertVerdict::Certified { value } => format!("certified (= {value})"),
            CertVerdict::CertifiedRelaxed { bound, witnessed: Some(w) } => {
                format!("certified relaxed (bound {bound} covers witness {w})")
            }
            CertVerdict::CertifiedRelaxed { bound, witnessed: None } => {
                format!("certified relaxed (bound {bound}, no incumbent)")
            }
            CertVerdict::Infeasible => "infeasible (nothing to certify)".to_string(),
            CertVerdict::Covered => "covered by relaxation (no certificate)".to_string(),
            CertVerdict::Rejected(failure) => format!("REJECTED: {failure}"),
        }
    }
}

/// Certificates for both directions of one constraint set.
#[derive(Debug, Clone, PartialEq)]
pub struct SetCertificate {
    /// Constraint-set index in canonical order.
    pub set: usize,
    /// Verdict for the Maximize (WCET) solve.
    pub wcet: CertVerdict,
    /// Verdict for the Minimize (BCET) solve.
    pub bcet: CertVerdict,
}

/// The per-set certificate report for one analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// One certificate per constraint set, in canonical set order.
    pub sets: Vec<SetCertificate>,
}

impl AuditReport {
    /// Number of individual verdicts that certified (exact or relaxed).
    pub fn certified(&self) -> usize {
        self.verdicts()
            .filter(|v| {
                matches!(v, CertVerdict::Certified { .. } | CertVerdict::CertifiedRelaxed { .. })
            })
            .count()
    }

    /// Number of individual verdicts that were rejected.
    pub fn rejected(&self) -> usize {
        self.verdicts().filter(|v| v.is_rejection()).count()
    }

    /// True when no verdict was rejected — the run's bounds are certified.
    pub fn all_certified(&self) -> bool {
        self.rejected() == 0
    }

    fn verdicts(&self) -> impl Iterator<Item = &CertVerdict> {
        self.sets.iter().flat_map(|s| [&s.wcet, &s.bcet])
    }

    /// Renders the per-set certificate report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for cert in &self.sets {
            out.push_str(&format!(
                "  set {}: wcet {}; bcet {}\n",
                cert.set,
                cert.wcet.describe(),
                cert.bcet.describe()
            ));
        }
        out.push_str(&format!(
            "audit: {} verdict(s) certified, {} rejected\n",
            self.certified(),
            self.rejected()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipet_lp::{ProblemBuilder, Sense};

    /// max 3x + 2y st x + y <= 4, x <= 2 — optimum x=2, y=2, value 10.
    fn toy() -> Problem {
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        let y = b.add_var(true);
        b.objective(x, 3);
        b.objective(y, 2);
        b.constraint(vec![(x, 1), (y, 1)], Relation::Le, 4);
        b.constraint(vec![(x, 1)], Relation::Le, 2);
        b.build()
    }

    #[test]
    fn valid_exact_witness_certifies() {
        let cert = certify_witness(&toy(), &[2.0, 2.0], 10, ClaimKind::Equal).unwrap();
        assert_eq!(cert.counts, vec![2, 2]);
        assert_eq!(cert.objective, 10);
    }

    #[test]
    fn near_integral_witness_rounds_then_certifies() {
        let x = [2.0 - 1e-9, 2.0 + 1e-9];
        let cert = certify_witness(&toy(), &x, 10, ClaimKind::Equal).unwrap();
        assert_eq!(cert.counts, vec![2, 2]);
    }

    #[test]
    fn infeasible_witness_is_rejected() {
        // x = 3 violates row 1 (x <= 2).
        let err = certify_witness(&toy(), &[3.0, 1.0], 11, ClaimKind::Equal).unwrap_err();
        assert!(matches!(err, CertFailure::ConstraintViolated { row: 1, .. }), "{err}");
    }

    #[test]
    fn objective_mismatch_is_rejected() {
        let err = certify_witness(&toy(), &[2.0, 2.0], 11, ClaimKind::Equal).unwrap_err();
        assert!(matches!(err, CertFailure::ObjectiveMismatch { claimed: 11, .. }), "{err}");
    }

    #[test]
    fn relaxed_bound_must_cover_witness() {
        // Outer bound 12 covers witnessed 10.
        assert!(certify_witness(&toy(), &[2.0, 2.0], 12, ClaimKind::CoversFromAbove).is_ok());
        // Outer bound 9 does not.
        let err = certify_witness(&toy(), &[2.0, 2.0], 9, ClaimKind::CoversFromAbove).unwrap_err();
        assert_eq!(err, CertFailure::BoundViolatesWitness { bound: 9, witnessed: 10 });
        // Minimize direction: a lower bound must sit below the witness.
        assert!(certify_witness(&toy(), &[2.0, 2.0], 9, ClaimKind::CoversFromBelow).is_ok());
        let err = certify_witness(&toy(), &[2.0, 2.0], 11, ClaimKind::CoversFromBelow).unwrap_err();
        assert_eq!(err, CertFailure::BoundViolatesWitness { bound: 11, witnessed: 10 });
    }

    #[test]
    fn a_witnessed_value_beyond_i64_is_reported_exactly() {
        // max 2^60·x st x <= 16: witness 16 gives 2^64, which a claimed
        // outer bound of 1 does not cover.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 1 << 60);
        b.constraint(vec![(x, 1)], Relation::Le, 16);
        let wide = b.build();
        let err = certify_witness(&wide, &[16.0], 1, ClaimKind::CoversFromAbove).unwrap_err();
        assert_eq!(err, CertFailure::BoundViolatesWitness { bound: 1, witnessed: 1 << 64 });
    }

    #[test]
    fn an_objective_past_i128_overflows_without_panicking() {
        // Five terms of i64::MAX · 2^62 sum past i128::MAX (four do not).
        let mut b = ProblemBuilder::new(Sense::Maximize);
        for _ in 0..5 {
            let x = b.add_var(true);
            b.objective(x, i64::MAX);
        }
        let wide = b.build();
        let counts = [(1u64 << 62) as f64; 5];
        for kind in [ClaimKind::Equal, ClaimKind::CoversFromAbove, ClaimKind::CoversFromBelow] {
            assert_eq!(certify_witness(&wide, &counts, 0, kind), Err(CertFailure::Overflow));
        }
        let mut four = wide.clone();
        four.objective[4] = 0;
        let err = certify_witness(&four, &counts, 0, ClaimKind::Equal).unwrap_err();
        let computed = 4 * i128::from(i64::MAX) * (1 << 62);
        assert_eq!(err, CertFailure::ObjectiveMismatch { computed, claimed: 0 });
    }

    #[test]
    fn fractional_witness_is_rejected() {
        let err = certify_witness(&toy(), &[1.5, 2.0], 8, ClaimKind::Equal).unwrap_err();
        assert!(matches!(err, CertFailure::BadWitness(_)), "{err}");
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let err = certify_witness(&toy(), &[2.0], 6, ClaimKind::Equal).unwrap_err();
        assert_eq!(err, CertFailure::ArityMismatch { expected: 2, got: 1 });
    }

    #[test]
    fn flow_spec_replays_a_diamond() {
        // Vars: 0..4 blocks? Use a tiny diamond: entry edge d0 (var 4),
        // blocks b0 (var 0) -> {e1 (5), e2 (6)} -> b1 (1), b2 (2) -> e3
        // (7), e4 (8) -> b3 (3).
        let spec = FlowSpec {
            entry_edge: 4,
            nodes: vec![
                FlowNode { block: 0, in_edges: vec![4], out_edges: vec![5, 6] },
                FlowNode { block: 1, in_edges: vec![5], out_edges: vec![7] },
                FlowNode { block: 2, in_edges: vec![6], out_edges: vec![8] },
                FlowNode { block: 3, in_edges: vec![7, 8], out_edges: vec![9] },
            ],
            couplings: vec![],
        };
        // Take the left branch once.
        let good = [1, 1, 0, 1, 1, 1, 0, 1, 0, 1];
        spec.check(&good).unwrap();
        // Entry edge executed twice: rejected.
        let twice = [2, 2, 0, 2, 2, 2, 0, 2, 0, 2];
        assert_eq!(spec.check(&twice), Err(CertFailure::FlowEntryMismatch { got: 2 }));
        // Block count disagrees with flow: rejected.
        let imbalanced = [1, 2, 0, 1, 1, 1, 0, 1, 0, 1];
        assert!(matches!(
            spec.check(&imbalanced),
            Err(CertFailure::FlowImbalance { block: 1, .. })
        ));
    }

    #[test]
    fn coupling_mismatch_is_rejected() {
        let spec = FlowSpec { entry_edge: 0, nodes: vec![], couplings: vec![(1, vec![2, 3])] };
        spec.check(&[1, 5, 2, 3]).unwrap();
        assert_eq!(
            spec.check(&[1, 4, 2, 3]),
            Err(CertFailure::CouplingMismatch { entry: 1, got: 4, expected: 5 })
        );
    }

    #[test]
    fn chord_certificate_is_exact() {
        use ipet_lp::BoundFormula;
        let f = BoundFormula { constant: 316, slope: 24 };
        assert!(certify_chord(f, 0, 316));
        assert!(certify_chord(f, 32, 316 + 24 * 32));
        assert!(!certify_chord(f, 32, 316 + 24 * 32 + 1));
        // Overflow refuses the certificate instead of wrapping.
        let huge = BoundFormula { constant: 0, slope: i128::MAX };
        assert!(!certify_chord(huge, 2, 0));
    }

    #[test]
    fn report_counts_rejections() {
        let report = AuditReport {
            sets: vec![
                SetCertificate {
                    set: 0,
                    wcet: CertVerdict::Certified { value: 10 },
                    bcet: CertVerdict::Certified { value: 4 },
                },
                SetCertificate {
                    set: 1,
                    wcet: CertVerdict::Rejected(CertFailure::Overflow),
                    bcet: CertVerdict::Covered,
                },
            ],
        };
        assert_eq!(report.certified(), 2);
        assert_eq!(report.rejected(), 1);
        assert!(!report.all_certified());
        assert!(report.render().contains("REJECTED"));
    }
}
