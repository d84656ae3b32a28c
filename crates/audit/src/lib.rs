//! # ipet-audit
//!
//! An independent certifier for every bound the IPET pipeline reports.
//!
//! The paper's claim rests entirely on trusting `max Σ c_i·x_i`: a silent
//! solver bug or f64 rounding slip corrupts the reported tables without any
//! visible failure. Following the cross-validation discipline of the WCET
//! literature (Prantl et al.; Bundala & Seshia), this crate re-verifies each
//! solved constraint set from first principles, using **exact arithmetic
//! only** — the checker performs zero floating-point operations. Floats
//! enter in exactly two sanctioned ways:
//!
//! 1. the witness vector is rounded to integer counts by
//!    [`ipet_lp::round_witness`] under the one centralized tolerance
//!    (floating-point is allowed *there*, in the rounding layer, never here);
//! 2. every f64 constraint/objective coefficient is decomposed bit-wise into
//!    its exact dyadic rational `m · 2^e` ([`rat::Rat`]) — a finite f64 *is*
//!    such a rational, so the conversion loses nothing.
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
//! Certification runs at integer speed. Each coefficient is decomposed and
//! normalized in O(1), and each row (and the dense objective) is summed in
//! place, term by term, without allocating; the only allocation is the
//! rounded count vector. Over the 13 suite routines' 36 `--infer` jobs
//! (about 9,400 coefficient terms), [`certify_witness`] takes about
//! 0.14 ms per pass on a 2-vCPU host, release build.

use std::fmt;

use ipet_lp::{round_claimed, round_witness, same_structure, Problem, Relation, RoundError};

mod rat;

pub use rat::Rat;

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
    /// A constraint coefficient or right-hand side is NaN/infinite.
    NonFiniteCoefficient {
        /// Constraint row index (`usize::MAX` for the objective).
        row: usize,
    },
    /// The rounded witness violates a constraint row exactly.
    ConstraintViolated {
        /// Constraint row index.
        row: usize,
        /// Exact left-hand side, rendered.
        lhs: String,
        /// The row's relation.
        relation: Relation,
        /// Exact right-hand side, rendered.
        rhs: String,
    },
    /// The exactly recomputed objective differs from the claimed bound.
    ObjectiveMismatch {
        /// Exact `Σ c_i·x_i`, rendered.
        computed: String,
        /// The claimed bound.
        claimed: i64,
    },
    /// A relaxed outer bound fails to cover its own witnessed incumbent.
    BoundViolatesWitness {
        /// The claimed outer bound.
        bound: i64,
        /// The exactly witnessed objective value.
        witnessed: i64,
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
            CertFailure::NonFiniteCoefficient { row } => {
                write!(f, "non-finite coefficient in row {row}")
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

/// Exact sum `Σ coeff · counts[var]` over `(var, coeff)` terms as a dyadic
/// rational, in term order.
fn exact_dot(
    terms: impl IntoIterator<Item = (usize, f64)>,
    counts: &[i64],
    row: usize,
) -> Result<Rat, CertFailure> {
    let mut sum = Rat::ZERO;
    for (var, coeff) in terms {
        let c = Rat::from_f64(coeff).ok_or(CertFailure::NonFiniteCoefficient { row })?;
        let count = *counts
            .get(var)
            .ok_or(CertFailure::ArityMismatch { expected: var + 1, got: counts.len() })?;
        let term = c.mul_int(count as i128).ok_or(CertFailure::Overflow)?;
        sum = sum.add_checked(term).ok_or(CertFailure::Overflow)?;
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
        let lhs = exact_dot(con.terms.iter().map(|&(v, c)| (v.0, c)), &counts, row)?;
        let rhs = Rat::from_f64(con.rhs).ok_or(CertFailure::NonFiniteCoefficient { row })?;
        let ord = lhs.cmp_exact(rhs).ok_or(CertFailure::Overflow)?;
        let holds = match con.relation {
            Relation::Le => ord != std::cmp::Ordering::Greater,
            Relation::Ge => ord != std::cmp::Ordering::Less,
            Relation::Eq => ord == std::cmp::Ordering::Equal,
        };
        if !holds {
            return Err(CertFailure::ConstraintViolated {
                row,
                lhs: lhs.render(),
                relation: con.relation,
                rhs: rhs.render(),
            });
        }
    }

    // (b) objective replay, exactly.
    let objective = exact_dot(problem.objective.iter().copied().enumerate(), &counts, usize::MAX)?;
    let claim = Rat::from_int(claimed as i128);
    let ord = objective.cmp_exact(claim).ok_or(CertFailure::Overflow)?;
    let covered = match kind {
        ClaimKind::Equal => ord == std::cmp::Ordering::Equal,
        ClaimKind::CoversFromAbove => ord != std::cmp::Ordering::Greater,
        ClaimKind::CoversFromBelow => ord != std::cmp::Ordering::Less,
    };
    if !covered {
        match kind {
            ClaimKind::Equal => {
                return Err(CertFailure::ObjectiveMismatch {
                    computed: objective.render(),
                    claimed,
                })
            }
            _ => {
                let witnessed = objective.as_int().ok_or_else(|| {
                    CertFailure::ObjectiveMismatch { computed: objective.render(), claimed }
                })?;
                return Err(CertFailure::BoundViolatesWitness {
                    bound: claimed,
                    witnessed: witnessed as i64,
                });
            }
        }
    }
    let objective = objective
        .as_int()
        .ok_or(CertFailure::ObjectiveMismatch { computed: objective.render(), claimed })?;
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
/// The arithmetic is exact dyadic-rational ([`Rat`]); overflow rejects the
/// certificate (returns `false`) rather than guessing — the caller then
/// falls back to a concrete solve, so a refused certificate costs time,
/// never correctness.
pub fn certify_chord(formula: ipet_lp::BoundFormula, p: u64, value: i128) -> bool {
    let Some(term) = Rat::from_int(formula.slope).mul_int(p as i128) else { return false };
    let Some(lhs) = term.add_checked(Rat::from_int(formula.constant)) else { return false };
    lhs.cmp_exact(Rat::from_int(value)) == Some(std::cmp::Ordering::Equal)
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
        b.objective(x, 3.0);
        b.objective(y, 2.0);
        b.constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        b.constraint(vec![(x, 1.0)], Relation::Le, 2.0);
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
    fn fractional_objective_breaking_a_relaxed_claim_is_a_mismatch() {
        // max 0.5x st x <= 3: witness x = 3 gives 3/2, which a claimed
        // outer bound of 1 does not cover. Nothing overflowed, and the
        // witnessed value is no integer to report.
        let mut b = ProblemBuilder::new(Sense::Maximize);
        let x = b.add_var(true);
        b.objective(x, 0.5);
        b.constraint(vec![(x, 1.0)], Relation::Le, 3.0);
        let half = b.build();
        let err = certify_witness(&half, &[3.0], 1, ClaimKind::CoversFromAbove).unwrap_err();
        assert_eq!(err, CertFailure::ObjectiveMismatch { computed: "3/2^1".into(), claimed: 1 });
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
