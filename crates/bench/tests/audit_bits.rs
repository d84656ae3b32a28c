//! The exact certifier's verdicts, pinned on solved and mutated witnesses.
//!
//! Every job of each corpus is solved with `solve_ilp_budgeted` under the
//! default analysis budget, and its witness and value are checked through
//! `certify_witness` (under all three `ClaimKind`s) and `replay_gate`. Each
//! result is rendered and fed into a local FNV-1a digest: a certified
//! witness by its `Debug` text (the counts and the objective), a failure by
//! its `Display` text (its row and values as numbers, whatever their Rust
//! types), a replay verdict by its name. A change to the certifier's
//! arithmetic that alters any verdict, any failure or any reported value
//! changes the digest.
//!
//! Beside the solved witness, each job is checked under seeded mutations:
//! a witness entry moved by ±1, off-integral by 1e-3 and by 1e-9,
//! negative, NaN, or missing; one constraint or objective coefficient set
//! to 0 or 2^60; an objective of `i64::MAX` on five variables whose counts
//! are 2^62, with the rows dropped (the sum overflows `i128`); claims off
//! by one; and, for the gate, a cached problem that is not the one asked
//! (foreign).
//!
//! * Corpus 1: the 13 suite routines' `--infer` merge plans (36 jobs).
//! * Corpus 2: the first 60 `synth::generate` programs with `max_depth: 4`
//!   whose compiled size falls in 250..750 instructions, planned
//!   annotation-free (`InferMode::Only`; 120 jobs).

use ipet_audit::{certify_witness, replay_gate, CertFailure, ClaimKind};
use ipet_bench::synth::{generate, SynthConfig};
use ipet_core::{parse_annotations, AnalysisBudget, AnalysisPlan, Analyzer, Annotations};
use ipet_hw::Machine;
use ipet_infer::{infer_and_merge, InferMode};
use ipet_lp::{
    round_claimed, solve_ilp_budgeted, BudgetMeter, IlpResolution, Problem, SolverFaults,
};
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

/// FNV-1a over bytes, fed through `fmt::Write` so a `Debug` rendering is
/// digested without being collected into a string.
struct Digest(u64);

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &byte in s.as_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// SplitMix64: a fixed, dependency-free stream of seeded choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The digest of every result, with the number of cases, the number that
/// certified, and the names of the failures seen.
struct Pin {
    cases: usize,
    ok: usize,
    digest: Digest,
    failures: BTreeSet<&'static str>,
}

const KINDS: [ClaimKind; 3] =
    [ClaimKind::Equal, ClaimKind::CoversFromAbove, ClaimKind::CoversFromBelow];

impl Pin {
    fn new() -> Pin {
        Pin { cases: 0, ok: 0, digest: Digest(0xcbf2_9ce4_8422_2325), failures: BTreeSet::new() }
    }

    fn add(&mut self, result: fmt::Arguments<'_>, ok: bool) {
        self.cases += 1;
        self.ok += usize::from(ok);
        write!(self.digest, "{result}\u{0}").expect("digest writes never fail");
    }

    /// `certify_witness` under every claim kind.
    fn certify(&mut self, problem: &Problem, x: &[f64], claimed: i64) {
        for kind in KINDS {
            match certify_witness(problem, x, claimed, kind) {
                Ok(cert) => self.add(format_args!("{cert:?}"), true),
                Err(failure) => {
                    self.failures.insert(name(&failure));
                    self.add(format_args!("{}: {failure}", name(&failure)), false);
                }
            }
        }
    }

    /// `replay_gate` of `cached` against `problem`, with and without the
    /// witness.
    fn gate(&mut self, cached: &Problem, problem: &Problem, x: &[f64], value: f64) {
        for exact in [Some((x, value)), None] {
            let replay = replay_gate(cached, problem, exact);
            self.add(format_args!("{replay:?}"), replay == ipet_audit::Replay::Certified);
        }
    }

    fn finish(self) -> (usize, usize, u64) {
        (self.cases, self.ok, self.digest.0)
    }
}

fn name(failure: &CertFailure) -> &'static str {
    match failure {
        CertFailure::BadWitness(_) => "BadWitness",
        CertFailure::BadClaim(_) => "BadClaim",
        CertFailure::ArityMismatch { .. } => "ArityMismatch",
        CertFailure::ConstraintViolated { .. } => "ConstraintViolated",
        CertFailure::ObjectiveMismatch { .. } => "ObjectiveMismatch",
        CertFailure::BoundViolatesWitness { .. } => "BoundViolatesWitness",
        CertFailure::FlowEntryMismatch { .. } => "FlowEntryMismatch",
        CertFailure::FlowImbalance { .. } => "FlowImbalance",
        CertFailure::CouplingMismatch { .. } => "CouplingMismatch",
        CertFailure::Overflow => "Overflow",
    }
}

/// The coefficients a mutation writes: zero and a large power of two.
const COEFFS: [i64; 2] = [0, 1 << 60];

/// Every check of one solved job and of its seeded mutations.
fn check_job(
    pin: &mut Pin,
    rng: &mut Rng,
    problem: &Problem,
    foreign: &Problem,
    x: &[f64],
    value: f64,
) {
    let claimed = round_claimed(value).expect("solved values are integral");
    for claim in [claimed - 1, claimed, claimed + 1] {
        pin.certify(problem, x, claim);
    }
    pin.gate(problem, problem, x, value);
    pin.gate(problem, problem, x, value + 1.0);
    pin.gate(foreign, problem, x, value);

    // The witness, one entry moved.
    let i = rng.below(x.len());
    let moved = [x[i] + 1.0, x[i] - 1.0, x[i] + 1e-3, x[i] + 1e-9, -1.0, f64::NAN];
    for v in moved {
        let mut y = x.to_vec();
        y[i] = v;
        pin.certify(problem, &y, claimed);
        pin.gate(problem, problem, &y, value);
    }
    pin.certify(problem, &x[..x.len() - 1], claimed);

    // One coefficient of a row, or of the objective, replaced.
    let rows: Vec<usize> = (0..problem.constraints.len())
        .filter(|&r| !problem.constraints[r].terms.is_empty())
        .collect();
    for c in COEFFS {
        let mut p = problem.clone();
        let row = rows[rng.below(rows.len())];
        let terms = &mut p.constraints[row].terms;
        let t = rng.below(terms.len());
        terms[t].1 = c;
        pin.certify(&p, x, claimed);
        pin.gate(&p, &p, x, value);
        pin.gate(problem, &p, x, value);

        let mut p = problem.clone();
        let var = rng.below(p.objective.len());
        p.objective[var] = c;
        pin.certify(&p, x, claimed);
        pin.gate(&p, &p, x, value);
    }

    // `i64::MAX` on five variables counted 2^62 each, with no rows to
    // violate: the objective overflows `i128`.
    if x.len() >= 5 {
        let mut p = problem.clone();
        p.constraints.clear();
        p.objective[..5].fill(i64::MAX);
        let mut y = x.to_vec();
        y[..5].fill((1u64 << 62) as f64);
        pin.certify(&p, &y, claimed);
    }
}

/// Solves every job of `plans` and pins the certifier's results on it.
fn pin(plans: &[AnalysisPlan], seed: u64) -> Pin {
    let budget = AnalysisBudget::default().solve;
    let problems: Vec<&Problem> = plans.iter().flat_map(|p| p.jobs()).map(|j| &j.problem).collect();
    let mut pin = Pin::new();
    let mut rng = Rng(seed);
    for (n, problem) in problems.iter().enumerate() {
        let meter = BudgetMeter::new();
        let (res, _) = solve_ilp_budgeted(problem, &budget, &meter, &mut SolverFaults::none());
        let IlpResolution::Exact { x, value } = res else {
            panic!("job {n} ended {res:?}");
        };
        let foreign = problems[(n + 1) % problems.len()];
        check_job(&mut pin, &mut rng, problem, foreign, &x, value);
    }
    pin
}

fn suite_plans() -> Vec<AnalysisPlan> {
    let budget = AnalysisBudget::default();
    ipet_suite::all()
        .iter()
        .map(|b| {
            let program = b.program().expect("compiles");
            let module = ipet_lang::parse_module(b.source).ok();
            let analyzer = Analyzer::new(&program, Machine::i960kb()).expect("analyzer");
            let anns = parse_annotations(&b.annotations(&program)).expect("annotations");
            let merged = infer_and_merge(module.as_ref(), &analyzer, &anns, InferMode::Merge)
                .expect("infer merge");
            analyzer.plan(&merged.annotations, &budget).expect("plan")
        })
        .collect()
}

fn band_plans() -> Vec<AnalysisPlan> {
    let budget = AnalysisBudget::default();
    let config = SynthConfig { max_depth: 4, ..SynthConfig::default() };
    let mut plans = Vec::new();
    let mut seed = 0;
    while plans.len() < 60 {
        let s = generate(seed, config);
        seed += 1;
        let instrs: usize = s.program.functions.iter().map(|f| f.instrs.len()).sum();
        if !(250..750).contains(&instrs) {
            continue;
        }
        let analyzer = Analyzer::new(&s.program, Machine::i960kb()).expect("analyzer");
        let merged =
            infer_and_merge(Some(&s.module), &analyzer, &Annotations::default(), InferMode::Only)
                .expect("every generated loop is inferred");
        plans.push(analyzer.plan(&merged.annotations, &budget).expect("plan"));
    }
    plans
}

/// The failures every corpus must reach, so the digest covers each path.
const REACHED: [&str; 6] = [
    "ArityMismatch",
    "BadWitness",
    "BoundViolatesWitness",
    "ConstraintViolated",
    "ObjectiveMismatch",
    "Overflow",
];

#[test]
fn suite_infer_jobs_keep_their_certificates() {
    let pin = pin(&suite_plans(), 1);
    assert_eq!(pin.failures, REACHED.into_iter().collect());
    assert_eq!(pin.finish(), (2700, 1039, 0x6c2b_2e9e_98f3_97d4));
}

#[test]
fn scale_band_jobs_keep_their_certificates() {
    let pin = pin(&band_plans(), 2);
    assert_eq!(pin.failures, REACHED.into_iter().collect());
    assert_eq!(pin.finish(), (9000, 4024, 0x4370_7237_cae1_58c9));
}
